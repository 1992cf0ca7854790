//! Heap accounting: what an owner keeps on the heap, computed on demand,
//! and the census that collects it by node class and owner.
//!
//! Every figure is a block size the owner asked the allocator for —
//! capacity, not length — so a census taken mid-run sums to the live heap
//! a counting allocator sees (the root crate's `memory_budget` test holds
//! it to that). Nothing here runs unless a census is taken.

use std::collections::{HashMap, VecDeque};
use std::mem::size_of;

/// Bytes of a vector's block.
#[allow(clippy::ptr_arg)] // the capacity, which a slice does not have
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Bytes of a ring buffer's block.
pub fn deque_bytes<T>(v: &VecDeque<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Bytes of a std `HashMap`'s table: a power-of-two number of buckets,
/// each one `(K, V)` slot and one control byte, plus one 16-byte control
/// group past the end. The bucket count follows from the capacity, which
/// is 7/8 of it (buckets − 1 below 8 buckets).
pub fn map_bytes<K, V, S>(m: &HashMap<K, V, S>) -> usize {
    let cap = m.capacity();
    if cap == 0 {
        return 0;
    }
    let buckets = if cap < 8 { cap + 1 } else { cap * 8 / 7 }.next_power_of_two();
    const GROUP: usize = 16;
    (buckets * size_of::<(K, V)>()).next_multiple_of(GROUP) + buckets + GROUP
}

/// Estimated bytes of a std `BTreeMap` of `len` entries, which does not
/// expose its node count: leaves of up to 11 entries taken two-thirds
/// full, and one internal node (a leaf plus 12 edges) per 8 leaves above
/// the first.
pub fn btree_bytes<K, V>(len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let leaf = (8 + 11 * (size_of::<K>() + size_of::<V>()) + 4).next_multiple_of(8);
    let leaves = len.div_ceil(8);
    let internal = if leaves > 1 { leaves.div_ceil(8) } else { 0 };
    leaves * leaf + internal * (leaf + 12 * 8)
}

/// One row of a [`HeapCensus`]: the heap bytes `owner` holds summed over
/// every node of `class`, and how many entries it holds (reader entries,
/// versions, events: the owner's natural unit, 0 where it has none).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapRow {
    pub class: &'static str,
    pub owner: &'static str,
    pub bytes: usize,
    pub items: usize,
}

/// Heap bytes by node class and owner. Owners report into it with
/// [`HeapCensus::add`] under the class set last; a row is created the
/// first time its `(class, owner)` pair is added, so rows keep that order.
#[derive(Clone, Debug, Default)]
pub struct HeapCensus {
    class: &'static str,
    rows: Vec<HeapRow>,
}

impl HeapCensus {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows added from now on belong to `class`.
    pub fn set_class(&mut self, class: &'static str) {
        self.class = class;
    }

    /// Adds `bytes` and `items` to the row of `owner` in the current class.
    pub fn add(&mut self, owner: &'static str, bytes: usize, items: usize) {
        let class = self.class;
        match self
            .rows
            .iter_mut()
            .find(|r| r.class == class && r.owner == owner)
        {
            Some(row) => {
                row.bytes += bytes;
                row.items += items;
            }
            None => self.rows.push(HeapRow {
                class,
                owner,
                bytes,
                items,
            }),
        }
    }

    pub fn rows(&self) -> &[HeapRow] {
        &self.rows
    }

    /// One row, if it was ever added.
    fn row(&self, class: &str, owner: &str) -> Option<&HeapRow> {
        self.rows
            .iter()
            .find(|r| r.class == class && r.owner == owner)
    }

    /// The bytes of one row, 0 if it was never added.
    pub fn bytes(&self, class: &str, owner: &str) -> usize {
        self.row(class, owner).map_or(0, |r| r.bytes)
    }

    /// The items of one row, 0 if it was never added.
    pub fn items(&self, class: &str, owner: &str) -> usize {
        self.row(class, owner).map_or(0, |r| r.items)
    }

    /// All rows summed.
    pub fn total(&self) -> usize {
        self.rows.iter().map(|r| r.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_per_class_and_owner_in_first_seen_order() {
        let mut c = HeapCensus::new();
        c.set_class("server");
        c.add("store", 10, 1);
        c.add("readers", 5, 2);
        c.add("store", 7, 3);
        c.set_class("client");
        c.add("store", 1, 0);
        let owners: Vec<_> = c.rows().iter().map(|r| (r.class, r.owner)).collect();
        assert_eq!(
            owners,
            [
                ("server", "store"),
                ("server", "readers"),
                ("client", "store")
            ]
        );
        assert_eq!(c.bytes("server", "store"), 17);
        assert_eq!(c.items("server", "store"), 4);
        assert_eq!(c.bytes("engine", "store"), 0);
        assert_eq!(c.total(), 23);
    }

    /// The table of 50 000 keys the memory budgets measure: 65 536
    /// buckets, as the live-heap readings there say.
    #[test]
    fn map_bytes_follows_the_bucket_count() {
        let mut m: HashMap<u64, [u8; 40]> = HashMap::new();
        assert_eq!(map_bytes(&m), 0);
        m.insert(1, [0; 40]);
        assert_eq!(map_bytes(&m), 4 * 48 + 4 + 16);
        for k in 0..50_000 {
            m.insert(k, [0; 40]);
        }
        assert_eq!(map_bytes(&m), 65_536 * 49 + 16);
    }
}
