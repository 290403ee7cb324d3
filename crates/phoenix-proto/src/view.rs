//! Zero-copy decode views over encoded [`KernelMsg`] buffers.
//!
//! [`KernelMsgView::parse`] reads the hot wire shapes — the fixed-size
//! heartbeat/probe/ping family plus the two bulk-payload carriers whose
//! bodies dominate network bytes (raw checkpoint replication, federated
//! text events) — straight out of the encode buffer, borrowing strings and
//! byte runs instead of allocating fresh `String`/`Vec` per decode. Every
//! other shape (and a hot tag whose payload turns out not to be the
//! borrowable kind) falls back to [`KernelMsgView::Other`], which keeps the
//! whole buffer and decodes on demand via [`KernelMsgView::to_owned`].
//!
//! The view is strictly canonical, like [`crate::wire::decode`]: hot-shape
//! parses reject trailing bytes and bad flag bytes, so a buffer that parses
//! as a hot view is exactly a buffer `decode` would accept.
//!
//! Tag values below mirror the `wire_enum!` listing for `KernelMsg` in
//! `wire.rs`; `tests/properties.rs` round-trips every variant exemplar
//! through the view, so a drifting tag fails loudly.

use crate::checkpoint::CheckpointData;
use crate::event::{Event, EventPayload, EventType};
use crate::ids::{PartitionId, RequestId, ServiceKind};
use crate::msg::KernelMsg;
use crate::wire::{decode, Reader, Wire, WireError};
use phoenix_sim::{NicId, NodeId};

/// Borrowed decode of the hot `KernelMsg` shapes. Lifetime `'a` is the
/// encode buffer's: no variant owns heap data.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum KernelMsgView<'a> {
    WdHeartbeat {
        node: NodeId,
        nic: NicId,
        seq: u64,
    },
    WdHeartbeatAck {
        nic: NicId,
        seq: u64,
    },
    ProbeReq {
        req: RequestId,
    },
    ProbeResp {
        req: RequestId,
    },
    MetaHeartbeat {
        from_partition: PartitionId,
        nic: NicId,
        epoch: u64,
        seq: u64,
    },
    SlowPing {
        seq: u64,
    },
    SlowPong {
        seq: u64,
    },
    RegroupPing {
        from_partition: PartitionId,
        epoch: u64,
        round: u64,
        witness: PartitionId,
        witness_epoch: u64,
    },
    RegroupAck {
        from_partition: PartitionId,
        epoch: u64,
        round: u64,
        frozen: bool,
        weight: u32,
        witness: PartitionId,
        witness_epoch: u64,
    },
    /// `CkReplicate` carrying `CheckpointData::Raw`: the blob is borrowed
    /// from the encode buffer, not copied.
    CkReplicateRaw {
        service: ServiceKind,
        partition: PartitionId,
        raw: &'a [u8],
    },
    /// `EsFedForward` of a `Text`-payload event: the text is borrowed.
    EsFedForwardText {
        etype: EventType,
        origin: NodeId,
        partition: PartitionId,
        seq: u64,
        text: &'a str,
    },
    /// Anything else: the enum tag plus the untouched full buffer, decoded
    /// only if [`KernelMsgView::to_owned`] is called.
    Other {
        tag: u32,
        full: &'a [u8],
    },
}

// KernelMsg wire tags this module fast-paths (see the wire_enum! listing).
const TAG_WD_HEARTBEAT: u32 = 1;
const TAG_PROBE_REQ: u32 = 2;
const TAG_PROBE_RESP: u32 = 3;
const TAG_META_HEARTBEAT: u32 = 4;
const TAG_ES_FED_FORWARD: u32 = 16;
const TAG_CK_REPLICATE: u32 = 26;
const TAG_WD_HEARTBEAT_ACK: u32 = 62;
const TAG_REGROUP_PING: u32 = 63;
const TAG_REGROUP_ACK: u32 = 64;
const TAG_SLOW_PING: u32 = 69;
const TAG_SLOW_PONG: u32 = 70;
// Payload tags inside the bulk carriers.
const PAYLOAD_TAG_RAW: u32 = 4; // CheckpointData::Raw
const PAYLOAD_TAG_TEXT: u32 = 7; // EventPayload::Text

impl<'a> KernelMsgView<'a> {
    /// Parse an encoded `KernelMsg` without allocating. Hot shapes decode
    /// fully (with the same canonicality checks as [`decode`]); everything
    /// else is held as [`KernelMsgView::Other`] for on-demand decode.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let tag = u32::get(&mut r)?;
        let view = match tag {
            TAG_WD_HEARTBEAT => KernelMsgView::WdHeartbeat {
                node: Wire::get(&mut r)?,
                nic: Wire::get(&mut r)?,
                seq: Wire::get(&mut r)?,
            },
            TAG_PROBE_REQ => KernelMsgView::ProbeReq {
                req: Wire::get(&mut r)?,
            },
            TAG_PROBE_RESP => KernelMsgView::ProbeResp {
                req: Wire::get(&mut r)?,
            },
            TAG_META_HEARTBEAT => KernelMsgView::MetaHeartbeat {
                from_partition: Wire::get(&mut r)?,
                nic: Wire::get(&mut r)?,
                epoch: Wire::get(&mut r)?,
                seq: Wire::get(&mut r)?,
            },
            TAG_WD_HEARTBEAT_ACK => KernelMsgView::WdHeartbeatAck {
                nic: Wire::get(&mut r)?,
                seq: Wire::get(&mut r)?,
            },
            TAG_REGROUP_PING => KernelMsgView::RegroupPing {
                from_partition: Wire::get(&mut r)?,
                epoch: Wire::get(&mut r)?,
                round: Wire::get(&mut r)?,
                witness: Wire::get(&mut r)?,
                witness_epoch: Wire::get(&mut r)?,
            },
            TAG_REGROUP_ACK => KernelMsgView::RegroupAck {
                from_partition: Wire::get(&mut r)?,
                epoch: Wire::get(&mut r)?,
                round: Wire::get(&mut r)?,
                frozen: Wire::get(&mut r)?,
                weight: Wire::get(&mut r)?,
                witness: Wire::get(&mut r)?,
                witness_epoch: Wire::get(&mut r)?,
            },
            TAG_SLOW_PING => KernelMsgView::SlowPing {
                seq: Wire::get(&mut r)?,
            },
            TAG_SLOW_PONG => KernelMsgView::SlowPong {
                seq: Wire::get(&mut r)?,
            },
            TAG_CK_REPLICATE => {
                let service = Wire::get(&mut r)?;
                let partition = Wire::get(&mut r)?;
                if u32::get(&mut r)? != PAYLOAD_TAG_RAW {
                    return Ok(KernelMsgView::Other { tag, full: bytes });
                }
                KernelMsgView::CkReplicateRaw {
                    service,
                    partition,
                    raw: r.get_bytes()?,
                }
            }
            TAG_ES_FED_FORWARD => {
                let etype = Wire::get(&mut r)?;
                let origin = Wire::get(&mut r)?;
                let partition = Wire::get(&mut r)?;
                let seq = Wire::get(&mut r)?;
                if u32::get(&mut r)? != PAYLOAD_TAG_TEXT {
                    return Ok(KernelMsgView::Other { tag, full: bytes });
                }
                KernelMsgView::EsFedForwardText {
                    etype,
                    origin,
                    partition,
                    seq,
                    text: r.get_str()?,
                }
            }
            _ => return Ok(KernelMsgView::Other { tag, full: bytes }),
        };
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(view)
    }

    /// Materialize the owned message. Free of re-parsing for hot shapes;
    /// [`KernelMsgView::Other`] runs the ordinary strict [`decode`].
    pub fn to_owned(&self) -> Result<KernelMsg, WireError> {
        Ok(match *self {
            KernelMsgView::WdHeartbeat { node, nic, seq } => {
                KernelMsg::WdHeartbeat { node, nic, seq }
            }
            KernelMsgView::WdHeartbeatAck { nic, seq } => KernelMsg::WdHeartbeatAck { nic, seq },
            KernelMsgView::ProbeReq { req } => KernelMsg::ProbeReq { req },
            KernelMsgView::ProbeResp { req } => KernelMsg::ProbeResp { req },
            KernelMsgView::MetaHeartbeat {
                from_partition,
                nic,
                epoch,
                seq,
            } => KernelMsg::MetaHeartbeat {
                from_partition,
                nic,
                epoch,
                seq,
            },
            KernelMsgView::SlowPing { seq } => KernelMsg::SlowPing { seq },
            KernelMsgView::SlowPong { seq } => KernelMsg::SlowPong { seq },
            KernelMsgView::RegroupPing {
                from_partition,
                epoch,
                round,
                witness,
                witness_epoch,
            } => KernelMsg::RegroupPing {
                from_partition,
                epoch,
                round,
                witness,
                witness_epoch,
            },
            KernelMsgView::RegroupAck {
                from_partition,
                epoch,
                round,
                frozen,
                weight,
                witness,
                witness_epoch,
            } => KernelMsg::RegroupAck {
                from_partition,
                epoch,
                round,
                frozen,
                weight,
                witness,
                witness_epoch,
            },
            KernelMsgView::CkReplicateRaw {
                service,
                partition,
                raw,
            } => KernelMsg::CkReplicate {
                service,
                partition,
                data: CheckpointData::Raw(raw.to_vec()).into(),
            },
            KernelMsgView::EsFedForwardText {
                etype,
                origin,
                partition,
                seq,
                text,
            } => KernelMsg::EsFedForward {
                event: Event {
                    etype,
                    origin,
                    partition,
                    seq,
                    payload: EventPayload::Text(text.to_owned()),
                },
            },
            KernelMsgView::Other { full, .. } => decode(full)?,
        })
    }

    /// True when the parse borrowed everything it needed — no allocation
    /// happened and none is pending except through [`Self::to_owned`].
    pub fn is_hot(&self) -> bool {
        !matches!(self, KernelMsgView::Other { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode;

    #[test]
    fn hot_views_round_trip_without_decode() {
        let msgs = [
            KernelMsg::WdHeartbeat {
                node: NodeId(7),
                nic: NicId(1),
                seq: 42,
            },
            KernelMsg::RegroupAck {
                from_partition: PartitionId(3),
                epoch: 9,
                round: 4,
                frozen: true,
                weight: 2,
                witness: PartitionId(1),
                witness_epoch: 8,
            },
            KernelMsg::CkReplicate {
                service: ServiceKind::Checkpoint,
                partition: PartitionId(2),
                data: CheckpointData::Raw(vec![0xAB; 64]).into(),
            },
            KernelMsg::EsFedForward {
                event: Event {
                    etype: EventType::NodeFault,
                    origin: NodeId(5),
                    partition: PartitionId(1),
                    seq: 77,
                    payload: EventPayload::Text("node 5 flaked".into()),
                },
            },
        ];
        for msg in &msgs {
            let bytes = encode(msg);
            let view = KernelMsgView::parse(&bytes).expect("parse");
            assert!(view.is_hot(), "{msg:?} should take the borrowed path");
            assert_eq!(&view.to_owned().expect("to_owned"), msg);
        }
    }

    #[test]
    fn raw_blob_is_borrowed_not_copied() {
        let msg = KernelMsg::CkReplicate {
            service: ServiceKind::Event,
            partition: PartitionId(1),
            data: CheckpointData::Raw(vec![1, 2, 3, 4]).into(),
        };
        let bytes = encode(&msg);
        match KernelMsgView::parse(&bytes).expect("parse") {
            KernelMsgView::CkReplicateRaw { raw, .. } => {
                // The slice points into the encode buffer itself.
                let buf = bytes.as_ptr() as usize;
                let ptr = raw.as_ptr() as usize;
                assert!(ptr >= buf && ptr < buf + bytes.len());
                assert_eq!(raw, &[1, 2, 3, 4]);
            }
            other => panic!("expected raw view, got {other:?}"),
        }
    }

    #[test]
    fn cold_shapes_fall_back_to_other() {
        let msg = KernelMsg::MetaJoin {
            member: crate::msg::MemberInfo {
                partition: PartitionId(1),
                node: NodeId(2),
                gsd: phoenix_sim::Pid(3),
                event: phoenix_sim::Pid(4),
                bulletin: phoenix_sim::Pid(5),
                checkpoint: phoenix_sim::Pid(6),
                host_ppm: phoenix_sim::Pid(7),
            },
        };
        let bytes = encode(&msg);
        let view = KernelMsgView::parse(&bytes).expect("parse");
        assert!(!view.is_hot());
        assert_eq!(view.to_owned().expect("decode"), msg);
    }

    #[test]
    fn hot_view_rejects_trailing_bytes() {
        let mut bytes = encode(&KernelMsg::SlowPing { seq: 1 });
        bytes.push(0);
        assert!(matches!(
            KernelMsgView::parse(&bytes),
            Err(WireError::TrailingBytes(1))
        ));
    }
}
