//! Reference-counted wire payloads for cheap fan-out.
//!
//! Broadcast-heavy messages carry their bulk behind [`Shared`]: an `Arc`
//! whose clone is a pointer bump, so `do_send` duplication and
//! multi-recipient fan-out (boot directory pushes, membership epochs,
//! bulletin result pages) never deep-copy the payload. The wrapper is
//! wire-transparent — it encodes exactly the bytes its payload would, so
//! swapping `Box<T>`/`Vec<T>` for `Shared<T>` in a message is invisible on
//! the wire — and it memoizes one sizing walk per value: every later
//! `wire_size()` of a message holding any clone of it, at any depth, counts
//! the payload with a load (through [`crate::wire::Sink::put_known`]).

use crate::wire::{encoded_size, Reader, Sink, Wire, WireError};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Immutable shared payload: `Arc` fan-out plus a memoized encoded size.
pub struct Shared<T> {
    inner: Arc<Inner<T>>,
}

struct Inner<T> {
    value: T,
    /// Encoded size of `value`, computed on first demand. Safe to memoize
    /// because the payload is immutable once wrapped.
    size: OnceLock<usize>,
}

impl<T> Shared<T> {
    pub fn new(value: T) -> Self {
        Shared {
            inner: Arc::new(Inner {
                value,
                size: OnceLock::new(),
            }),
        }
    }

    /// Take the value out of the wrapper: a move when this is the only
    /// reference (the common case for a freshly decoded message), a clone
    /// only when the payload is genuinely still shared.
    pub fn unwrap_or_clone(self) -> T
    where
        T: Clone,
    {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.value,
            Err(arc) => arc.value.clone(),
        }
    }
}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Self {
        Shared::new(value)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        // The whole point: a fan-out clone is a refcount bump.
        Shared {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner.value
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.value == other.inner.value
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.value.fmt(f)
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared::new(T::default())
    }
}

impl<T: Wire> Wire for Shared<T> {
    fn put<S: Sink>(&self, sink: &mut S) {
        // One sizing walk per wrapped value, ever: a counting sink takes
        // the memo for every later size of any clone of this payload.
        let value = &self.inner.value;
        sink.put_known(value, || *self.inner.size.get_or_init(|| encoded_size(value)));
    }

    fn get(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Shared::new(T::get(reader)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PartitionId, ServiceKind};
    use crate::wire::{decode, encode};
    use std::cell::Cell;

    #[test]
    fn shared_is_wire_transparent() {
        let plain: Vec<u64> = vec![3, 1, 4, 1, 5];
        let shared = Shared::new(plain.clone());
        assert_eq!(encode(&shared), encode(&plain));
        assert_eq!(encoded_size(&shared), encoded_size(&plain));
        let back: Shared<Vec<u64>> = decode(&encode(&plain)).expect("decode");
        assert_eq!(back, shared);
    }

    /// A payload that counts the walks the encoder makes over it.
    #[derive(Default)]
    struct Probe {
        walks: Cell<usize>,
    }

    impl Wire for Probe {
        fn put<S: Sink>(&self, sink: &mut S) {
            self.walks.set(self.walks.get() + 1);
            sink.put_bytes(b"payload");
        }
    }

    #[test]
    fn shared_payload_is_walked_once() {
        let shared = Shared::new(Probe::default());
        // The `CkSyncResp.items` shape: the memo holds inside a Vec of tuples.
        let items: Vec<_> = (0..3)
            .map(|p| (ServiceKind::Checkpoint, PartitionId(p), shared.clone()))
            .collect();
        assert_eq!(encoded_size(&items), 8 + 3 * (4 + 4 + 7));
        assert_eq!(encoded_size(&shared), 7);
        assert_eq!(encoded_size(&shared.clone()), 7);
        assert_eq!(shared.walks.get(), 1, "sized through every clone by one walk");
        assert_eq!(encode(&items).len(), 8 + 3 * (4 + 4 + 7));
        assert_eq!(shared.walks.get(), 4, "encode writes every copy in full");
    }

    #[test]
    fn shared_eq_compares_values_across_allocations() {
        let a = Shared::new(vec![1u32, 2, 3]);
        let b = Shared::new(vec![1u32, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, Shared::new(vec![9u32]));
    }
}
