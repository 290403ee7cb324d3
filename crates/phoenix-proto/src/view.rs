//! Zero-copy decode views over encoded [`KernelMsg`] buffers.
//!
//! [`KernelMsgView::parse`] reads two fixed shapes, the WD heartbeat and
//! the liveness probe, straight out of the encode buffer; they are what the
//! benchmark's `proto.view.parse_ns_hot` probe times. Every other shape is
//! [`KernelMsgView::Other`], its tag read and its body left alone;
//! [`crate::wire::decode`] is the decoder for those.
//!
//! The view is strictly canonical, like `decode`: a hot-shape parse
//! rejects trailing bytes, so a buffer that parses as a hot view is exactly
//! a buffer `decode` would accept.
//!
//! Tag values below mirror the `wire_enum!` listing for `KernelMsg` in
//! `wire.rs`; `tests/properties.rs` parses every variant exemplar, so a
//! drifting tag fails loudly.

use crate::ids::RequestId;
use crate::wire::{Reader, Wire, WireError};
use phoenix_sim::{NicId, NodeId};

/// Decode of the hot `KernelMsg` shapes; nothing in it owns heap data.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum KernelMsgView {
    WdHeartbeat { node: NodeId, nic: NicId, seq: u64 },
    ProbeReq { req: RequestId },
    /// Any other shape, left undecoded.
    Other,
}

// KernelMsg wire tags this module fast-paths (see the wire_enum! listing).
const TAG_WD_HEARTBEAT: u32 = 1;
const TAG_PROBE_REQ: u32 = 2;

impl KernelMsgView {
    /// Parse an encoded `KernelMsg` without allocating. Hot shapes decode
    /// fully, with the same trailing-byte check as `decode`; everything
    /// else is [`KernelMsgView::Other`].
    pub fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let view = match u32::get(&mut r)? {
            TAG_WD_HEARTBEAT => KernelMsgView::WdHeartbeat {
                node: Wire::get(&mut r)?,
                nic: Wire::get(&mut r)?,
                seq: Wire::get(&mut r)?,
            },
            TAG_PROBE_REQ => KernelMsgView::ProbeReq {
                req: Wire::get(&mut r)?,
            },
            _ => return Ok(KernelMsgView::Other),
        };
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(view)
    }

    /// True for the two shapes the parse decoded.
    pub fn is_hot(&self) -> bool {
        !matches!(self, KernelMsgView::Other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::KernelMsg;
    use crate::wire::encode;

    fn heartbeat() -> KernelMsg {
        KernelMsg::WdHeartbeat {
            node: NodeId(7),
            nic: NicId(1),
            seq: 42,
        }
    }

    #[test]
    fn hot_views_round_trip_without_decode() {
        assert_eq!(
            KernelMsgView::parse(&encode(&heartbeat())),
            Ok(KernelMsgView::WdHeartbeat {
                node: NodeId(7),
                nic: NicId(1),
                seq: 42,
            })
        );
        let probe = KernelMsg::ProbeReq { req: RequestId(9) };
        assert_eq!(
            KernelMsgView::parse(&encode(&probe)),
            Ok(KernelMsgView::ProbeReq { req: RequestId(9) })
        );
    }

    #[test]
    fn cold_shapes_fall_back_to_other() {
        let view = KernelMsgView::parse(&encode(&KernelMsg::ProbeResp { req: RequestId(3) }));
        assert_eq!(view, Ok(KernelMsgView::Other));
    }

    #[test]
    fn hot_view_rejects_trailing_bytes() {
        for msg in [heartbeat(), KernelMsg::ProbeReq { req: RequestId(1) }] {
            let mut bytes = encode(&msg);
            bytes.push(0);
            assert!(
                matches!(
                    KernelMsgView::parse(&bytes),
                    Err(WireError::TrailingBytes(1))
                ),
                "{msg:?}"
            );
        }
    }
}
