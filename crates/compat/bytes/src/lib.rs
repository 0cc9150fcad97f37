#![warn(missing_docs)]

//! Offline stand-in for the `bytes` crate.
//!
//! `Bytes` is an immutable, cheaply cloneable byte buffer: clones share
//! storage, as the message-passing simulator relies on when it fans one
//! payload out to many destinations. `Bytes::from(Vec<u8>)` takes the
//! vector's allocation as it is, so an encoder that fills a `Vec<u8>` hands
//! it over without a second copy.

use std::ops::Deref;
use std::sync::Arc;

/// Immutable, cheaply cloneable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copy a slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    /// Wrap the vector's allocation (no copy).
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::new(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.data[..] == other.data[..]
    }
}

impl Eq for Bytes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le_words() {
        let mut v = Vec::with_capacity(16);
        v.extend_from_slice(&0xDEADBEEFu64.to_le_bytes());
        v.extend_from_slice(&(-2.5f64).to_le_bytes());
        let frozen = Bytes::from(v);
        assert_eq!(frozen.len(), 16);
        assert_eq!(
            u64::from_le_bytes(frozen[..8].try_into().unwrap()),
            0xDEADBEEF
        );
        assert_eq!(f64::from_le_bytes(frozen[8..].try_into().unwrap()), -2.5);
    }

    #[test]
    fn clones_share_storage() {
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        let c = b.clone();
        assert_eq!(&*b as *const [u8], &*c as *const [u8]);
        assert_eq!(b, c);
    }

    #[test]
    fn from_vec_takes_the_allocation_without_copying() {
        let v = vec![7u8; 4096];
        let before = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), before, "Bytes::from(Vec) must not copy");
        assert_eq!(b.len(), 4096);
        assert!(b.iter().all(|&x| x == 7));
    }

    #[test]
    fn empty_buffers() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from(Vec::new()), Bytes::new());
        assert_eq!(Bytes::from(&[][..]).len(), 0);
    }
}
