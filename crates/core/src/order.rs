//! A doubly-linked recency/insertion order over hashable keys.
//!
//! All replacement policies need the same primitive: an ordered page table
//! supporting O(1) insert-at-back, remove, move-to-back and pop-from-front,
//! with whatever the policy remembers per page (a reference bit, a
//! criterion value) stored in the entry itself. `LinkedOrder` implements it
//! as an intrusive doubly-linked list over a slab (`Vec` of nodes with a
//! free list) plus an [`IdMap<K, slot>`] index — no per-operation allocation
//! after warm-up, and one hash lookup reaches both position and value.

use asb_storage::splitmix64;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

const NIL: usize = usize::MAX;

/// The hasher of every page-keyed map in this crate: each `u64` written
/// (a [`PageId`](asb_storage::PageId) writes one) is folded into the state
/// through the SplitMix64 finalizer.
///
/// Page ids are small dense integers, often visited at a stride, and the
/// map indexes its buckets by the hash's low bits, so the hasher must
/// carry high input bits down. std's SipHash does, at several
/// times the cost; a multiply-only hasher is cheaper still but keeps a
/// stride's trailing zero bits and crowds strided ids into a few buckets
/// (the `strided_ids_spread_over_the_buckets` test). The hash is
/// unseeded, so a map's iteration order is the same in every process —
/// yet still arbitrary: no decision may follow it. Nor does it resist
/// crafted collisions: its keys are page ids the store allocated, or a
/// trace recorded.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }
}

/// A hash map keyed through [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// An ordered map with O(1) queue/recency operations.
///
/// Front = oldest (LRU / FIFO victim side), back = newest (MRU side).
#[derive(Debug, Clone)]
pub(crate) struct LinkedOrder<K, V = ()> {
    nodes: Vec<Node<K, V>>,
    index: IdMap<K, usize>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<K, V> Default for LinkedOrder<K, V> {
    fn default() -> Self {
        LinkedOrder {
            nodes: Vec::new(),
            index: IdMap::default(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<K: Eq + Hash + Copy, V: Copy> LinkedOrder<K, V> {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// The value stored with `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&slot| &self.nodes[slot].value)
    }

    /// The value stored with `key`, mutably; the position is unchanged.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.index.get(key).map(|&slot| &mut self.nodes[slot].value)
    }

    /// Appends `key` at the back (newest). Returns `false` (and does
    /// nothing) if the key is already present.
    pub fn push_back(&mut self, key: K, value: V) -> bool {
        let Entry::Vacant(entry) = self.index.entry(key) else {
            return false;
        };
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = if let Some(slot) = self.free.pop() {
            self.nodes[slot] = node;
            slot
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        entry.insert(slot);
        self.link_back(slot);
        true
    }

    /// Removes and returns the front (oldest) key.
    pub fn pop_front(&mut self) -> Option<K> {
        let key = self.front()?;
        self.remove(&key);
        Some(key)
    }

    /// The front (oldest) key without removing it.
    pub fn front(&self) -> Option<K> {
        (self.head != NIL).then(|| self.nodes[self.head].key)
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.index.remove(key)?;
        self.unlink(slot);
        self.free.push(slot);
        Some(self.nodes[slot].value)
    }

    /// Moves `key` to the back (newest) and returns its value, or `None`
    /// if absent.
    pub fn move_to_back(&mut self, key: &K) -> Option<&mut V> {
        let slot = *self.index.get(key)?;
        if slot != self.tail {
            self.unlink(slot);
            self.link_back(slot);
        }
        Some(&mut self.nodes[slot].value)
    }

    /// The key just behind `key` (one step newer), or `None` if `key` is
    /// the back or absent.
    pub fn next_key(&self, key: &K) -> Option<K> {
        let next = self.nodes[*self.index.get(key)?].next;
        (next != NIL).then(|| self.nodes[next].key)
    }

    /// The key just ahead of `key` (one step older), or `None` if `key` is
    /// the front or absent.
    pub fn prev_key(&self, key: &K) -> Option<K> {
        let prev = self.nodes[*self.index.get(key)?].prev;
        (prev != NIL).then(|| self.nodes[prev].key)
    }

    /// Iterates `(key, value)` from front (oldest) to back (newest).
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            order: self,
            cursor: self.head,
        }
    }

    /// Iterates keys from front (oldest) to back (newest).
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(key, _)| key)
    }

    fn link_back(&mut self, slot: usize) {
        let node = &mut self.nodes[slot];
        node.prev = self.tail;
        node.next = NIL;
        if self.tail != NIL {
            self.nodes[self.tail].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }
}

/// Front-to-back iterator over a [`LinkedOrder`].
pub(crate) struct Iter<'a, K, V> {
    order: &'a LinkedOrder<K, V>,
    cursor: usize,
}

impl<'a, K: Copy, V> Iterator for Iter<'a, K, V> {
    type Item = (K, &'a V);

    fn next(&mut self) -> Option<(K, &'a V)> {
        if self.cursor == NIL {
            return None;
        }
        let node = &self.order.nodes[self.cursor];
        self.cursor = node.next;
        Some((node.key, &node.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys<V: Copy>(order: &LinkedOrder<u32, V>) -> Vec<u32> {
        order.keys().collect()
    }

    #[test]
    fn push_and_iterate_in_order() {
        let mut o = LinkedOrder::default();
        for k in [1u32, 2, 3] {
            assert!(o.push_back(k, ()));
        }
        assert_eq!(keys(&o), vec![1, 2, 3]);
        assert_eq!(o.front(), Some(1));
        assert_eq!(keys(&o).last(), Some(&3));
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn values_travel_with_their_keys() {
        let mut o = LinkedOrder::default();
        for k in [1u32, 2, 3] {
            o.push_back(k, k * 10);
        }
        assert_eq!(o.get(&2), Some(&20));
        *o.get_mut(&2).unwrap() += 1;
        assert_eq!(keys(&o), vec![1, 2, 3], "get_mut does not reorder");
        assert_eq!(o.move_to_back(&2), Some(&mut 21));
        assert_eq!(o.iter().collect::<Vec<_>>(), [(1, &10), (3, &30), (2, &21)]);
        assert_eq!(o.remove(&3), Some(30));
        assert_eq!(o.get(&3), None);
        // The freed slot is reused without leaking the old value.
        o.push_back(4, 40);
        assert_eq!(o.get(&4), Some(&40));
        assert!(!o.push_back(4, 99), "a duplicate push keeps the old value");
        assert_eq!(o.get(&4), Some(&40));
    }

    #[test]
    fn duplicate_push_is_rejected() {
        let mut o = LinkedOrder::default();
        assert!(o.push_back(1u32, ()));
        assert!(!o.push_back(1, ()));
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn pop_front_is_fifo() {
        let mut o = LinkedOrder::default();
        for k in [1u32, 2, 3] {
            o.push_back(k, ());
        }
        assert_eq!(o.pop_front(), Some(1));
        assert_eq!(o.pop_front(), Some(2));
        assert_eq!(o.pop_front(), Some(3));
        assert_eq!(o.pop_front(), None);
        assert_eq!(o.len(), 0);
    }

    #[test]
    fn move_to_back_models_lru_touch() {
        let mut o = LinkedOrder::default();
        for k in [1u32, 2, 3] {
            o.push_back(k, ());
        }
        assert!(o.move_to_back(&1).is_some());
        assert_eq!(keys(&o), vec![2, 3, 1]);
        // Moving the tail is a no-op but succeeds.
        assert!(o.move_to_back(&1).is_some());
        assert_eq!(keys(&o), vec![2, 3, 1]);
        assert!(o.move_to_back(&99).is_none());
    }

    #[test]
    fn remove_middle_front_back() {
        let mut o = LinkedOrder::default();
        for k in [1u32, 2, 3, 4] {
            o.push_back(k, ());
        }
        assert!(o.remove(&2).is_some());
        assert_eq!(keys(&o), vec![1, 3, 4]);
        assert!(o.remove(&1).is_some());
        assert_eq!(keys(&o), vec![3, 4]);
        assert!(o.remove(&4).is_some());
        assert_eq!(keys(&o), vec![3]);
        assert!(o.remove(&4).is_none());
    }

    #[test]
    fn slots_are_recycled() {
        let mut o = LinkedOrder::default();
        for k in 0..100u32 {
            o.push_back(k, ());
        }
        for k in 0..100u32 {
            o.remove(&k);
        }
        let slab_size = o.nodes.len();
        for k in 100..200u32 {
            o.push_back(k, ());
        }
        assert_eq!(o.nodes.len(), slab_size, "free slots must be reused");
    }

    /// The share of 1 024 buckets that the low 10 bits of `hash` fill over
    /// 1 024 ids spaced `stride` apart.
    fn bucket_fill(stride: u64, hash: impl Fn(u64) -> u64) -> f64 {
        let mut filled = [false; 1024];
        for i in 0..1024u64 {
            filled[(hash(1 + i * stride) & 1023) as usize] = true;
        }
        filled.iter().filter(|&&f| f).count() as f64 / 1024.0
    }

    #[test]
    fn strided_ids_spread_over_the_buckets() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        // Random placement fills 1 - 1/e ≈ 63 % of the buckets.
        for stride in [1, 4, 64, 4096] {
            let fill = bucket_fill(stride, |raw| build.hash_one(asb_storage::PageId::new(raw)));
            assert!(
                fill >= 0.55,
                "stride {stride}: {:.0} % filled",
                fill * 100.0
            );
        }
        // Why the finalizer: a multiply-only (Fx-style) hasher keeps the
        // stride's six trailing zero bits and fills 1/64 of the buckets.
        let multiply = |raw: u64| raw.wrapping_mul(0x517c_c1b7_2722_0a95);
        assert!(bucket_fill(64, multiply) < 0.55);
    }

    #[test]
    fn stress_against_vec_model() {
        // Deterministic pseudo-random op sequence validated against a
        // Vec-based reference model.
        let mut o = LinkedOrder::default();
        let mut model: Vec<u32> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            let k = (rng() % 50) as u32;
            match rng() % 4 {
                0 => {
                    if o.push_back(k, ()) {
                        model.push(k);
                    }
                }
                1 => {
                    let removed = o.remove(&k).is_some();
                    let pos = model.iter().position(|&x| x == k);
                    assert_eq!(removed, pos.is_some());
                    if let Some(p) = pos {
                        model.remove(p);
                    }
                }
                2 => {
                    let moved = o.move_to_back(&k).is_some();
                    let pos = model.iter().position(|&x| x == k);
                    assert_eq!(moved, pos.is_some());
                    if let Some(p) = pos {
                        let v = model.remove(p);
                        model.push(v);
                    }
                }
                _ => {
                    assert_eq!(o.pop_front(), (!model.is_empty()).then(|| model.remove(0)));
                }
            }
            assert_eq!(o.len(), model.len());
            let pos = model.iter().position(|&x| x == k);
            let at = |p: Option<usize>| p.and_then(|p| model.get(p).copied());
            assert_eq!(o.next_key(&k), at(pos.map(|p| p + 1)));
            assert_eq!(o.prev_key(&k), at(pos.and_then(|p| p.checked_sub(1))));
        }
        assert_eq!(keys(&o), model);
    }
}
