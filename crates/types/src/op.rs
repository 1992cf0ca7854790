//! Client-visible operations of the key-value store API (Section 2.1).

use crate::key::Key;
use crate::Value;

crate::wire_enum! {
    /// An operation a client can issue.
    ///
    /// The paper's API also includes single-key `GET`; as in the paper
    /// ("we focus on PUT and ROT operations") a GET is expressed as a ROT over
    /// one key.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum Op {
        /// Read a causally consistent snapshot of the given keys.
        Rot(keys: Vec<Key>),
        /// Create a new version of `key` with the given value.
        Put(key: Key, value: Value),
    }
}

impl Op {
    pub fn is_put(&self) -> bool {
        matches!(self, Op::Put(..))
    }

    /// Heap bytes: a ROT's key vector (a PUT's value is its writer's).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Op::Rot(keys) => crate::heap::vec_bytes(keys),
            Op::Put(..) => 0,
        }
    }

    /// Number of individual reads this operation counts as in the w/r ratio
    /// (`w = #PUT / (#PUT + #READ)`, a ROT of k keys counting as k reads).
    pub fn read_count(&self) -> usize {
        match self {
            Op::Rot(keys) => keys.len(),
            Op::Put(..) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_count_counts_rot_keys() {
        assert_eq!(Op::Rot(vec![Key(1), Key(2), Key(3)]).read_count(), 3);
        assert_eq!(Op::Put(Key(1), Value::from_static(b"x")).read_count(), 0);
        assert!(Op::Put(Key(1), Value::new()).is_put());
    }

    #[test]
    fn only_a_rot_owns_heap_bytes() {
        let keys = Vec::with_capacity(8);
        assert_eq!(Op::Rot(keys).heap_bytes(), 8 * std::mem::size_of::<Key>());
        let value = Value::from(vec![0u8; 4096]);
        assert_eq!(Op::Put(Key(1), value).heap_bytes(), 0);
    }
}
