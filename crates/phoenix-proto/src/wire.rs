//! Hand-rolled wire encoding and size model.
//!
//! The experiments compare *network load* between designs (PBS polling vs
//! PWS event-driven collection, flat vs partitioned membership), so every
//! message needs a realistic encoded size. This module provides a compact
//! binary encoding (bincode-style: fixed-width little-endian ints, 8-byte
//! length-prefixed sequences and strings, u32 variant tags, 1-byte Option
//! flags) with no external dependencies — it replaces the serde-based
//! byte counter the crate used before the workspace went offline-only,
//! producing byte-for-byte identical sizes.
//!
//! There is one path: [`Wire::put`]. Into a `Vec<u8>` it produces real
//! bytes ([`encode`]); into a [`Counter`] it counts them without allocating
//! ([`encoded_size`]). So a size is the length of the encoding by
//! construction, for every value. [`Wire::get`] decodes the bytes back, so
//! checkpoint replication and federation payloads can round-trip through an
//! actual encoding in tests. Decoding is strictly canonical: `bool` and
//! `Option` flag bytes other than 0/1 are rejected, so decode∘encode is the
//! identity on valid bytes and every decoded value re-encodes to the exact
//! input buffer.
//!
//! Every [`Wire`] impl in the workspace lives here (the trait is local, so
//! impls for `phoenix_sim` types are allowed), written with the
//! [`wire_struct!`], [`wire_newtype!`] and [`wire_enum!`] macros.

use phoenix_sim::{NicId, NodeId, Pid, ResourceUsage};
use std::sync::Arc;

/// The compact binary encoded size of any [`Wire`] value: its encoding,
/// counted instead of stored.
pub fn encoded_size<T: Wire + ?Sized>(value: &T) -> usize {
    let mut c = Counter(0);
    value.put(&mut c);
    c.0
}

/// Encode a value to bytes in a single pass over the value.
pub fn encode<T: Wire + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.put(&mut buf);
    buf
}

/// Decode a value from bytes, requiring the whole buffer to be consumed.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let v = T::get(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

/// Decode failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes.
    Eof,
    /// Unknown enum tag.
    BadTag(u32),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A length prefix exceeded the remaining buffer.
    BadLen(u64),
    /// Bytes left over after a full decode.
    TrailingBytes(usize),
    /// The type supports sizing/encoding only (e.g. `str`).
    Unsupported,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of buffer"),
            WireError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            WireError::BadLen(n) => write!(f, "length prefix {n} exceeds buffer"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::Unsupported => write!(f, "type does not support decoding"),
        }
    }
}

impl std::error::Error for WireError {}

/// Byte consumer: a real buffer (`Vec<u8>`) or the allocation-free
/// [`Counter`] used by [`encoded_size`].
pub trait Sink: Sized {
    fn put_bytes(&mut self, bytes: &[u8]);

    /// Emit `value`, whose encoded size `known` returns without walking it.
    /// A sink that keeps bytes writes them; one that only counts may take
    /// the number instead.
    fn put_known<T: Wire + ?Sized>(&mut self, value: &T, known: impl FnOnce() -> usize) {
        let _ = known;
        value.put(self);
    }
}

impl Sink for Vec<u8> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts bytes without storing them.
struct Counter(usize);

impl Sink for Counter {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn put_known<T: Wire + ?Sized>(&mut self, _: &T, known: impl FnOnce() -> usize) {
        self.0 += known();
    }
}

/// Cursor over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a length-prefixed byte run without copying: the returned slice
    /// borrows the encode buffer for the reader's lifetime.
    pub(crate) fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.take_len()?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string without allocating.
    pub(crate) fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// Read an 8-byte length prefix, bounds-checked against the buffer.
    fn take_len(&mut self) -> Result<usize, WireError> {
        let n = u64::get(self)?;
        if n > self.remaining() as u64 {
            // Even 1-byte elements can't fit: corrupt or hostile prefix.
            return Err(WireError::BadLen(n));
        }
        Ok(n as usize)
    }
}

/// Types with a compact binary encoding. `put` drives both encoding and
/// sizing (via [`Counter`]); `get` decodes.
pub trait Wire {
    fn put<S: Sink>(&self, sink: &mut S);

    fn get(reader: &mut Reader<'_>) -> Result<Self, WireError>
    where
        Self: Sized,
    {
        let _ = reader;
        Err(WireError::Unsupported)
    }
}

// --- primitives -----------------------------------------------------------

macro_rules! wire_prim {
    ($($t:ty),+ $(,)?) => {$(
        impl Wire for $t {
            fn put<S: Sink>(&self, sink: &mut S) {
                sink.put_bytes(&self.to_le_bytes());
            }
            fn get(reader: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = reader.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact take")))
            }
        }
    )+};
}

wire_prim!(u8, u16, u32, i32, u64, f64);

impl Wire for bool {
    fn put<S: Sink>(&self, sink: &mut S) {
        sink.put_bytes(&[*self as u8]);
    }
    fn get(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        // Strictly canonical: only the two bytes the encoder can produce
        // decode. Anything else would re-encode to different bytes, which
        // breaks the decode∘encode identity the fuzz suite pins.
        match u8::get(reader)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::BadTag(other as u32)),
        }
    }
}

impl Wire for str {
    fn put<S: Sink>(&self, sink: &mut S) {
        (self.len() as u64).put(sink);
        sink.put_bytes(self.as_bytes());
    }
}

impl Wire for String {
    fn put<S: Sink>(&self, sink: &mut S) {
        self.as_str().put(sink);
    }
    fn get(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        // Validate borrowed, allocate once at the end.
        Ok(reader.get_str()?.to_owned())
    }
}

/// Exactly `String`'s bytes, so a name may be held either way.
impl Wire for Arc<str> {
    fn put<S: Sink>(&self, sink: &mut S) {
        (**self).put(sink);
    }
    fn get(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(reader.get_str()?.into())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put<S: Sink>(&self, sink: &mut S) {
        (self.len() as u64).put(sink);
        for item in self {
            item.put(sink);
        }
    }
    fn get(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let mut v = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            v.push(T::get(reader)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put<S: Sink>(&self, sink: &mut S) {
        match self {
            None => sink.put_bytes(&[0]),
            Some(v) => {
                sink.put_bytes(&[1]);
                v.put(sink);
            }
        }
    }
    fn get(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        // Flag bytes other than 0/1 are non-canonical (see `bool`).
        match u8::get(reader)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(reader)?)),
            other => Err(WireError::BadTag(other as u32)),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put<S: Sink>(&self, sink: &mut S) {
        (**self).put(sink);
    }
    fn get(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(T::get(reader)?))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put<S: Sink>(&self, sink: &mut S) {
        self.0.put(sink);
        self.1.put(sink);
    }
    fn get(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let a = A::get(reader)?;
        let b = B::get(reader)?;
        Ok((a, b))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put<S: Sink>(&self, sink: &mut S) {
        self.0.put(sink);
        self.1.put(sink);
        self.2.put(sink);
    }
    fn get(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let a = A::get(reader)?;
        let b = B::get(reader)?;
        let c = C::get(reader)?;
        Ok((a, b, c))
    }
}

// --- impl macros -----------------------------------------------------------

/// `Wire` for a struct with named fields: fields encode in listed order
/// with no prefix or padding.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put<S: $crate::wire::Sink>(&self, sink: &mut S) {
                $( $crate::wire::Wire::put(&self.$field, sink); )+
            }
            fn get(reader: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($ty { $( $field: $crate::wire::Wire::get(reader)?, )+ })
            }
        }
    };
}

/// `Wire` for a single-field tuple struct: transparent, no prefix (matches
/// serde newtype-struct semantics).
#[macro_export]
macro_rules! wire_newtype {
    ($ty:ident) => {
        impl $crate::wire::Wire for $ty {
            fn put<S: $crate::wire::Sink>(&self, sink: &mut S) {
                $crate::wire::Wire::put(&self.0, sink);
            }
            fn get(reader: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($ty($crate::wire::Wire::get(reader)?))
            }
        }
    };
}

/// `Wire` for an enum: a u32 tag (the listed index) followed by the
/// variant's fields in order. Unit, tuple (with binder names) and struct
/// variants are supported:
///
/// ```ignore
/// wire_enum! { Shape {
///     0 => Point,
///     1 => Circle(radius),
///     2 => Rect { w, h },
/// }}
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $( $idx:literal => $variant:ident
        $( ( $($tf:ident),+ $(,)? ) )?
        $( { $($sf:ident),+ $(,)? } )?
    ),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put<S: $crate::wire::Sink>(&self, sink: &mut S) {
                match self {
                    $(
                        $ty::$variant $( ( $($tf),+ ) )? $( { $($sf),+ } )? => {
                            $crate::wire::Wire::put(&($idx as u32), sink);
                            $( $( $crate::wire::Wire::put($tf, sink); )+ )?
                            $( $( $crate::wire::Wire::put($sf, sink); )+ )?
                        }
                    )+
                }
            }
            fn get(reader: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                let tag = <u32 as $crate::wire::Wire>::get(reader)?;
                match tag {
                    $(
                        $idx => Ok($ty::$variant
                            $( ( $({
                                let _ = stringify!($tf);
                                $crate::wire::Wire::get(reader)?
                            }),+ ) )?
                            $( { $( $sf: $crate::wire::Wire::get(reader)?, )+ } )?
                        ),
                    )+
                    other => Err($crate::wire::WireError::BadTag(other)),
                }
            }
        }
        impl $crate::wire::WireVariants for $ty {
            const VARIANT_COUNT: usize = [$($idx as u32),+].len();
        }
    };
}

/// Variant count of a wire-mapped enum, derived from the `wire_enum!`
/// listing. The macro's encode match is exhaustive over the enum, so
/// adding a variant without extending the mapping is a compile error —
/// this count can never silently lag the enum, and test surfaces that
/// assert against it fail loudly instead of skipping coverage of new
/// messages.
pub trait WireVariants {
    const VARIANT_COUNT: usize;
}

// --- phoenix-sim types (the trait is local, so these are not orphans) ------

wire_newtype!(NodeId);
wire_newtype!(NicId);
wire_newtype!(Pid);
wire_struct!(ResourceUsage { cpu, memory, swap });

// --- phoenix-proto types ----------------------------------------------------

use crate::bulletin::{
    AppState, AppStatus, BulletinEntry, BulletinKey, BulletinQuery, BulletinValue,
};
use crate::checkpoint::CheckpointData;
use crate::event::{ConsumerReg, Event, EventFilter, EventPayload, EventType};
use crate::ids::{JobId, PartitionId, RequestId, ServiceKind, UserId};
use crate::job::{JobSpec, JobState, TaskSpec};
use crate::msg::{KernelMsg, MemberInfo, NodeOp, NodeServices, QueueRow, ServiceDirectory};
use crate::security::{Action, AuthToken, Role};
use crate::topology::{ClusterTopology, PartitionSpec};

wire_newtype!(PartitionId);
wire_newtype!(JobId);
wire_newtype!(UserId);
wire_newtype!(RequestId);

wire_enum! { ServiceKind {
    0 => Configuration,
    1 => Security,
    2 => ParallelProcessManagement,
    3 => Detector,
    4 => Group,
    5 => Checkpoint,
    6 => Event,
    7 => DataBulletin,
    8 => WatchDaemon,
    9 => UserEnvironment,
}}

wire_enum! { EventType {
    0 => NodeFault,
    1 => NodeRecovery,
    2 => NetworkFault,
    3 => NetworkRecovery,
    4 => ServiceFault,
    5 => ServiceRecovery,
    6 => AppStateChange,
    7 => JobStateChange,
    8 => ConfigChange,
    9 => ResourceAlarm,
    10 => Custom(code),
    11 => NetworkDegraded,
}}

wire_enum! { EventPayload {
    0 => None,
    1 => Node(node),
    2 => Nic(node, nic),
    3 => Service(kind, node),
    4 => Job(job),
    5 => AppLifecycle { job, node, up },
    6 => Metric(value),
    7 => Text(text),
}}

wire_struct!(Event { etype, origin, partition, seq, payload });

wire_enum! { EventFilter {
    0 => All,
    1 => Types(types),
}}

wire_struct!(ConsumerReg { consumer, filter });

wire_enum! { AppStatus {
    0 => Running,
    1 => Exited,
    2 => Failed,
}}

wire_struct!(AppState { job, node, cpu, memory, status });

wire_enum! { BulletinKey {
    0 => Resource(node),
    1 => App(node, job),
}}

wire_enum! { BulletinValue {
    0 => Resource(usage),
    1 => App(state),
}}

wire_struct!(BulletinEntry { key, value, stamp_ns });

wire_enum! { BulletinQuery {
    0 => All,
    1 => Node(node),
    2 => Partition(partition),
    3 => Resources,
    4 => Apps,
}}

wire_enum! { CheckpointData {
    0 => EventService { consumers, next_seq },
    1 => Bulletin { entries },
    2 => Scheduler { queued, running },
    3 => Supervision { entries },
    4 => Raw(bytes),
}}

wire_struct!(TaskSpec { cpus, cpu_load, mem_load, duration_ns });
wire_struct!(JobSpec { id, user, pool, nodes, task, priority, submitted_ns });

wire_enum! { JobState {
    0 => Queued,
    1 => Running,
    2 => Completed,
    3 => Failed,
    4 => Cancelled,
}}

wire_enum! { Role {
    0 => SystemConstructor,
    1 => SystemAdministrator,
    2 => ScientificUser,
    3 => BusinessUser,
    4 => Guest,
}}

wire_enum! { Action {
    0 => SubmitJob,
    1 => CancelJob,
    2 => QueryState,
    3 => Reconfigure,
    4 => StartNode,
    5 => ShutdownNode,
    6 => PublishEvent,
    7 => ManageUsers,
}}

wire_struct!(AuthToken { user, role, expires_ns, mac });

wire_struct!(PartitionSpec { id, server, backups, compute });
wire_struct!(ClusterTopology { partitions });

wire_struct!(MemberInfo { partition, node, gsd, event, bulletin, checkpoint, host_ppm });
wire_struct!(NodeServices { node, wd, detector, ppm });
wire_struct!(ServiceDirectory { config, security, partitions, nodes });
wire_struct!(QueueRow { job, pool, user, state, nodes });

wire_enum! { NodeOp {
    0 => Start,
    1 => Shutdown,
}}

wire_enum! { KernelMsg {
    0 => Boot(directory),
    1 => WdHeartbeat { node, nic, seq },
    2 => ProbeReq { req },
    3 => ProbeResp { req },
    4 => MetaHeartbeat { from_partition, nic, seq },
    5 => MetaJoin { member },
    6 => MetaMembership { epoch, members },
    7 => MetaMemberDown { partition },
    8 => SvcRegister { kind, pid, factory },
    9 => SvcHeartbeat { pid },
    10 => PartitionView { members, local },
    11 => EsRegisterConsumer { req, reg },
    12 => EsUnregisterConsumer { consumer },
    13 => EsRegisterSupplier { supplier, types },
    14 => EsPublish { event },
    15 => EsNotify { event },
    16 => EsFedForward { event },
    17 => DbPut { entries },
    18 => DbQuery { req, query },
    19 => DbResp { req, entries, complete },
    20 => DbFedQuery { req, query },
    21 => DbFedResp { req, partition, entries },
    22 => CkSave { service, partition, data },
    23 => CkLoad { req, service, partition },
    24 => CkLoadResp { req, data },
    25 => CkDelete { service, partition },
    26 => CkReplicate { service, partition, data },
    27 => CkSyncReq { req },
    28 => CkSyncResp { req, items },
    29 => CfgQueryTopology { req },
    30 => CfgTopology { req, topology },
    31 => CfgQueryDirectory { req },
    32 => CfgDirectory { req, directory },
    33 => CfgSetParam { req, key, value },
    34 => CfgAck { req, ok },
    35 => DirectoryUpdate { partition, member },
    36 => DirectoryUpdateNode { services },
    37 => CfgNodeOp { req, node, op },
    38 => SecLogin { req, user, secret },
    39 => SecLoginResp { req, token },
    40 => SecCheck { req, token, action },
    41 => SecCheckResp { req, allowed },
    42 => PpmExec { req, job, task, targets, reply_to },
    43 => PpmExecAck { req, job, node, ok },
    44 => PpmDelete { req, job, targets, reply_to },
    45 => PpmDeleteAck { req, job, node },
    46 => AppStarted { job, pid, task },
    47 => AppExited { job, failed },
    48 => PwsSubmit { req, token, spec },
    49 => PwsSubmitResp { req, accepted, reason },
    50 => PwsCancel { req, token, job },
    51 => PwsCancelResp { req, ok },
    52 => PwsJobStatus { req, job },
    53 => PwsJobStatusResp { req, state, nodes },
    54 => PwsQueueStatus { req, pool },
    55 => PwsQueueStatusResp { req, rows },
    56 => PoolLeaseReq { req, from_pool, nodes },
    57 => PoolLeaseResp { req, granted },
    58 => PoolLeaseReturn { nodes },
    59 => PbsPoll { req },
    60 => PbsPollResp { req, node, usage, jobs },
    61 => EsRegisterAck { req },
    62 => WdHeartbeatAck,
    63 => RegroupPing { round, witness, witness_epoch },
    64 => RegroupAck { from_partition, epoch, round, frozen, witness, witness_epoch },
    65 => RegroupFreeze { frozen },
    66 => DirectoryStale { partition, stale },
    67 => RegroupProbe { round },
    68 => RegroupProbeAck { round, partition, alive },
    69 => SlowPing { seq },
    70 => SlowPong { seq },
    71 => SlowLeaderYield { from_partition },
    72 => MetaQuarantine { epoch, quarantined },
}}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives() {
        assert_eq!(encoded_size(&1u8), 1);
        assert_eq!(encoded_size(&1u32), 4);
        assert_eq!(encoded_size(&1.0f64), 8);
        assert_eq!(encoded_size(&true), 1);
    }

    #[test]
    fn strings_carry_length_prefix() {
        assert_eq!(encoded_size("abc"), 8 + 3);
        assert_eq!(encoded_size(&String::from("")), 8);
    }

    #[test]
    fn vectors_sum_elements() {
        let v = vec![1u32, 2, 3];
        assert_eq!(encoded_size(&v), 8 + 3 * 4);
    }

    struct Point {
        x: f64,
        y: f64,
    }
    wire_struct!(Point { x, y });

    #[test]
    fn structs_are_field_sums() {
        assert_eq!(encoded_size(&Point { x: 0.0, y: 0.0 }), 16);
    }

    #[allow(dead_code)]
    enum E {
        A,
        B(u64),
        C { s: String },
    }
    wire_enum! { E {
        0 => A,
        1 => B(v),
        2 => C { s },
    }}

    #[test]
    fn enums_pay_variant_tag() {
        assert_eq!(encoded_size(&E::A), 4);
        assert_eq!(encoded_size(&E::B(9)), 4 + 8);
        assert_eq!(encoded_size(&E::C { s: "hi".into() }), 4 + 8 + 2);
    }

    #[test]
    fn options() {
        let some: Option<u32> = Some(5);
        let none: Option<u32> = None;
        assert_eq!(encoded_size(&some), 1 + 4);
        assert_eq!(encoded_size(&none), 1);
    }

    #[test]
    fn kernel_msg_round_trips() {
        let msgs = vec![
            KernelMsg::WdHeartbeat { node: NodeId(3), nic: NicId(1), seq: 99 },
            KernelMsg::MetaMemberDown { partition: PartitionId(2) },
            KernelMsg::DbQuery { req: RequestId(7), query: BulletinQuery::Node(NodeId(4)) },
            KernelMsg::EsPublish {
                event: Event::new(
                    EventType::Custom(5),
                    NodeId(1),
                    EventPayload::Text("hello".into()),
                ),
            },
            KernelMsg::CkSyncResp {
                req: RequestId(1),
                items: vec![(
                    ServiceKind::Event,
                    PartitionId(0),
                    CheckpointData::Raw(vec![1, 2, 3]).into(),
                )],
            },
            KernelMsg::PwsSubmit {
                req: RequestId(9),
                token: AuthToken {
                    user: UserId::new("alice"),
                    role: Role::ScientificUser,
                    expires_ns: 1,
                    mac: 2,
                },
                spec: JobSpec::simple(1, "alice", "default", 4),
            },
        ];
        for msg in msgs {
            let bytes = encode(&msg);
            assert_eq!(bytes.len(), encoded_size(&msg), "size model matches encoder");
            let back: KernelMsg = decode(&bytes).expect("decode");
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn decode_rejects_bad_tag_and_truncation() {
        let bytes = encode(&KernelMsg::ProbeReq { req: RequestId(1) });
        assert!(matches!(
            decode::<KernelMsg>(&bytes[..bytes.len() - 1]),
            Err(WireError::Eof)
        ));
        let mut corrupt = bytes.clone();
        corrupt[0] = 0xFF;
        assert!(matches!(decode::<KernelMsg>(&corrupt), Err(WireError::BadTag(_))));
    }

    #[test]
    fn sim_types_sizes() {
        use phoenix_sim::Message;
        assert_eq!(encoded_size(&NodeId(1)), 4);
        assert_eq!(encoded_size(&NicId(1)), 1);
        assert_eq!(encoded_size(&Pid(1)), 8);
        // cpu, memory, swap: three f64 gauges.
        assert_eq!(encoded_size(&ResourceUsage::IDLE), 24);
        assert_eq!(encode(&ResourceUsage::IDLE).len(), 24);
        // The heartbeat, regroup and bulletin shapes, each at its size.
        let p = PartitionId(2);
        let resource = BulletinEntry {
            key: BulletinKey::Resource(NodeId(3)),
            value: BulletinValue::Resource(ResourceUsage::IDLE),
            stamp_ns: 5,
        };
        let rows = [
            (KernelMsg::WdHeartbeatAck, 4),
            (KernelMsg::MetaHeartbeat { from_partition: p, nic: NicId(1), seq: 9 }, 4 + 4 + 1 + 8),
            (KernelMsg::SvcHeartbeat { pid: Pid(7) }, 4 + 8),
            (KernelMsg::RegroupPing { round: 3, witness: p, witness_epoch: 1 }, 4 + 8 + 4 + 8),
            (
                KernelMsg::RegroupAck {
                    from_partition: p,
                    epoch: 4,
                    round: 3,
                    frozen: false,
                    witness: p,
                    witness_epoch: 1,
                },
                4 + 4 + 8 + 8 + 1 + 4 + 8,
            ),
            (KernelMsg::RegroupProbeAck { round: 3, partition: p, alive: true }, 4 + 8 + 4 + 1),
            // tag, row count, Resource key (tag + node), value (tag +
            // usage), stamp.
            (KernelMsg::DbPut { entries: vec![resource] }, 4 + 8 + 8 + 28 + 8),
        ];
        for (msg, size) in rows {
            assert_eq!(msg.wire_size(), size, "{msg:?}");
            assert_eq!(msg.wire_size(), encode(&msg).len(), "{msg:?}");
        }
    }
}
