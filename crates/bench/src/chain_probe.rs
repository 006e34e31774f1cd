//! A chained-bucket hash table, kept as the comparator for the tagged
//! inline bucket layout that `cphash_hashcore::Partition` ships.
//!
//! The layout is the paper's original one: a bare `u32` head per bucket
//! and an intrusive doubly-linked chain through the element records, with
//! an LRU list threaded through the same records.  Staging a prepared
//! operation must *read* the bucket head to learn which element to hint —
//! a demand access of its own — and a lookup then walks one element record
//! per chain position.  `ablate_prefetch` gates the inline layout against
//! this walk.
//!
//! To make that gate compare layouts rather than amounts of work, each
//! element record has the partition's element-slot size
//! ([`ELEMENT_SLOT_BYTES`]) and field placement, values live in a
//! [`SlabAllocator`] as the partition's do, a hit does the same LRU relink
//! and value copy a `Partition` lookup does, and a replace the same unlink,
//! free, allocate and relink.  The table only grows: there is no eviction
//! or delete, which the gate's key mix never needs.

use cphash_alloc::{SlabAllocator, ValueHandle};
use cphash_hashcore::element::ELEMENT_SLOT_BYTES;
use cphash_hashcore::hash::bucket_for_key;

const NIL: u32 = u32::MAX;

/// One element record: value handle, key, bucket-chain and LRU links.
///
/// Size *and* field placement copy the partition's element slot as
/// compiled (value handle in bytes 0..32, key at 32, refcount at 40, bucket
/// link at 48, LRU links at 56..64, READY flag at 76 and the occupied/free
/// tag of the slot enum at 77; `offset_of!` and a byte dump of
/// `hashcore::element::Slot`).  Every element access checks that tag, as
/// the slot enum's `element()` does.
/// With 80-byte records the key, link and tag often sit on the line after
/// the one a head prefetch brings in, and that is part of what the chained
/// layout cost inside a partition; a key-first record would hide it.
#[repr(C)]
struct ChainElement {
    value: ValueHandle,
    key: u64,
    refcount: u32,
    _bucket: u32,
    bucket_next: u32,
    bucket_prev: u32,
    lru_next: u32,
    lru_prev: u32,
    _chunk_links: [u32; 3],
    ready: bool,
    occupied: bool,
    _tail: [u8; ELEMENT_SLOT_BYTES - 78],
}

const _: () = {
    assert!(core::mem::size_of::<ChainElement>() == ELEMENT_SLOT_BYTES);
    assert!(core::mem::offset_of!(ChainElement, key) == 32);
    assert!(core::mem::offset_of!(ChainElement, bucket_next) == 48);
    assert!(core::mem::offset_of!(ChainElement, refcount) == 40);
    assert!(core::mem::offset_of!(ChainElement, lru_next) == 56);
    assert!(core::mem::offset_of!(ChainElement, ready) == 76);
    assert!(core::mem::offset_of!(ChainElement, occupied) == 77);
};

/// A key with its bucket index computed (the first phase of a staged
/// operation, like `cphash_hashcore::BucketRef`).
#[derive(Debug, Clone, Copy)]
pub struct ChainRef {
    key: u64,
    bucket: usize,
}

impl ChainRef {
    /// The key this reference was prepared for.
    pub fn key(&self) -> u64 {
        self.key
    }
}

/// The chained-bucket comparator table (see the module docs).
pub struct ChainProbe {
    heads: Vec<u32>,
    elements: Vec<ChainElement>,
    allocator: SlabAllocator,
    lru_head: u32,
    lru_tail: u32,
}

impl ChainProbe {
    /// An empty table with `buckets` buckets (rounded up to a power of
    /// two, as `Partition` rounds them).
    pub fn new(buckets: usize) -> Self {
        ChainProbe {
            heads: vec![NIL; buckets.next_power_of_two().max(1)],
            elements: Vec::new(),
            allocator: SlabAllocator::unbounded(),
            lru_head: NIL,
            lru_tail: NIL,
        }
    }

    /// Phase one: hash `key` to its bucket without touching table memory.
    #[inline]
    pub fn prepare(&self, key: u64) -> ChainRef {
        ChainRef {
            key,
            bucket: bucket_for_key(key, self.heads.len()),
        }
    }

    /// Read the bucket head and prefetch the head element's record.  The
    /// head read itself may miss: that is the cost the inline layout's
    /// pure-arithmetic prefetch removes.
    #[inline]
    pub fn prefetch_prepared(&self, prep: &ChainRef) {
        let head = self.heads[prep.bucket];
        if head != NIL {
            cphash_cacheline::prefetch_read(&self.elements[head as usize]);
        }
    }

    /// Look up a prepared key.  On a hit the element moves to the LRU head
    /// and its value is copied into `out`.
    pub fn lookup_prepared(&mut self, prep: ChainRef, out: &mut Vec<u8>) -> bool {
        let Some(idx) = self.find(prep) else {
            return false;
        };
        // The partition's READY check (always true here: inserts publish
        // at once).
        if !self.element(idx).ready {
            return false;
        }
        self.lru_move_to_head(idx);
        // Pin, copy, unpin: the partition's `LookupHit`, `read_value` and
        // `decref` sequence.
        self.element_mut(idx).refcount += 1;
        let e = self.element(idx);
        assert!(e.refcount > 0, "read without a live reference");
        // SAFETY: the block belongs to a live, pinned element of this
        // table and is only written under `&mut self`, which this call
        // holds.
        let bytes = unsafe { e.value.as_slice() };
        out.clear();
        out.extend_from_slice(bytes);
        self.element_mut(idx).refcount -= 1;
        true
    }

    /// Insert or replace a prepared key's value at the heads of its bucket
    /// chain and of the LRU list.  A replace first unlinks the old element
    /// and frees its value, as a partition's does; the record itself is
    /// reused, as the partition's slot free list would hand it straight
    /// back.
    pub fn insert_prepared(&mut self, prep: ChainRef, value: &[u8]) {
        let existing = self.find(prep);
        if let Some(idx) = existing {
            self.unlink_from_bucket(idx, prep.bucket);
            self.lru_remove(idx);
            let old = self.element(idx).value;
            self.allocator.free(old);
        }
        let block = self
            .allocator
            .allocate(value.len())
            .expect("unbounded allocator");
        // SAFETY: the block was just allocated, so nothing else refers to
        // it, and it holds at least `value.len()` bytes.
        unsafe { block.copy_from(value) };
        let head = self.heads[prep.bucket];
        let record = ChainElement {
            value: block,
            key: prep.key,
            refcount: 0,
            _bucket: prep.bucket as u32,
            bucket_next: head,
            bucket_prev: NIL,
            lru_next: NIL,
            lru_prev: NIL,
            _chunk_links: [NIL; 3],
            ready: true,
            occupied: true,
            _tail: [0; ELEMENT_SLOT_BYTES - 78],
        };
        let idx = match existing {
            Some(idx) => {
                *self.element_mut(idx) = record;
                idx
            }
            None => {
                let idx = u32::try_from(self.elements.len()).expect("element count fits u32");
                assert!(idx != NIL, "chain probe element space exhausted");
                self.elements.push(record);
                idx
            }
        };
        if head != NIL {
            self.element_mut(head).bucket_prev = idx;
        }
        self.heads[prep.bucket] = idx;
        self.lru_push_head(idx);
    }

    /// Single-phase insert (prepare + [`ChainProbe::insert_prepared`]).
    pub fn insert(&mut self, key: u64, value: &[u8]) {
        self.insert_prepared(self.prepare(key), value);
    }

    /// Keys from least to most recently used.
    pub fn lru_order(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.elements.len());
        let mut cur = self.lru_tail;
        while cur != NIL {
            let e = self.element(cur);
            keys.push(e.key);
            cur = e.lru_prev;
        }
        keys
    }

    /// The element record at `idx`, checking its occupied tag.
    fn element(&self, idx: u32) -> &ChainElement {
        let e = &self.elements[idx as usize];
        assert!(e.occupied, "accessed a free element record");
        e
    }

    fn element_mut(&mut self, idx: u32) -> &mut ChainElement {
        let e = &mut self.elements[idx as usize];
        assert!(e.occupied, "accessed a free element record");
        e
    }

    fn find(&self, prep: ChainRef) -> Option<u32> {
        let mut cur = self.heads[prep.bucket];
        while cur != NIL {
            let e = self.element(cur);
            if e.key == prep.key {
                return Some(cur);
            }
            cur = e.bucket_next;
        }
        None
    }

    fn lru_push_head(&mut self, idx: u32) {
        let old = self.lru_head;
        {
            let e = self.element_mut(idx);
            e.lru_prev = NIL;
            e.lru_next = old;
        }
        if old != NIL {
            self.element_mut(old).lru_prev = idx;
        } else {
            self.lru_tail = idx;
        }
        self.lru_head = idx;
    }

    fn unlink_from_bucket(&mut self, idx: u32, bucket: usize) {
        let (prev, next) = {
            let e = self.element(idx);
            (e.bucket_prev, e.bucket_next)
        };
        if prev != NIL {
            self.element_mut(prev).bucket_next = next;
        } else {
            self.heads[bucket] = next;
        }
        if next != NIL {
            self.element_mut(next).bucket_prev = prev;
        }
    }

    fn lru_remove(&mut self, idx: u32) {
        let (prev, next) = {
            let e = self.element(idx);
            (e.lru_prev, e.lru_next)
        };
        if prev != NIL {
            self.element_mut(prev).lru_next = next;
        } else {
            self.lru_head = next;
        }
        if next != NIL {
            self.element_mut(next).lru_prev = prev;
        } else {
            self.lru_tail = prev;
        }
    }

    fn lru_move_to_head(&mut self, idx: u32) {
        if self.lru_head != idx {
            self.lru_remove(idx);
            self.lru_push_head(idx);
        }
    }
}

impl Drop for ChainProbe {
    fn drop(&mut self) {
        for e in self.elements.drain(..) {
            self.allocator.free(e.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xorshift64;
    use std::collections::HashMap;

    /// A comparator that answered wrongly could pass the layout gate by
    /// skipping work, so drive it and a `HashMap` (plus a recency list for
    /// the LRU order) with one seeded insert/lookup/replace stream and
    /// require every answer to agree.
    #[test]
    fn agrees_with_a_hashmap_on_a_seeded_stream() {
        // 128 buckets for up to 1024 keys: chains ~8 deep, so walks past the
        // head, misses on populated buckets and mid-chain relinks all occur.
        let mut probe = ChainProbe::new(128);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut recency: Vec<u64> = Vec::new();
        let touch = |recency: &mut Vec<u64>, key: u64| {
            recency.retain(|&k| k != key);
            recency.push(key);
        };
        let mut rng = 0x5EED_CAFE_F00D_0001u64;
        let (mut got, mut hits, mut misses, mut replaces) = (Vec::new(), 0, 0, 0);
        for _ in 0..20_000 {
            let r = xorshift64(&mut rng);
            let key = (r >> 32) % 1024;
            if r.is_multiple_of(4) {
                // Insert or replace, with a length that varies so replaces
                // both fit the old value's space and outgrow it.
                let value: Vec<u8> = (0..1 + (r >> 8) % 24).map(|i| (r >> i) as u8).collect();
                if model.insert(key, value.clone()).is_some() {
                    replaces += 1;
                }
                probe.insert(key, &value);
                touch(&mut recency, key);
            } else {
                let found = probe.lookup_prepared(probe.prepare(key), &mut got);
                match model.get(&key) {
                    Some(expected) => {
                        assert!(found, "key {key} should hit");
                        assert_eq!(&got, expected, "key {key} value");
                        touch(&mut recency, key);
                        hits += 1;
                    }
                    None => {
                        assert!(!found, "key {key} should miss");
                        misses += 1;
                    }
                }
            }
        }
        assert_eq!(probe.lru_order(), recency);
        assert!(hits > 1_000 && misses > 100 && replaces > 1_000);
    }

    #[test]
    fn staged_prefetch_leaves_answers_unchanged() {
        let mut probe = ChainProbe::new(8);
        for key in 0..100u64 {
            let prep = probe.prepare(key);
            probe.prefetch_prepared(&prep);
            probe.insert_prepared(prep, &key.to_le_bytes());
        }
        let mut out = Vec::new();
        for key in 0..120u64 {
            let prep = probe.prepare(key);
            probe.prefetch_prepared(&prep);
            assert_eq!(prep.key(), key);
            assert_eq!(probe.lookup_prepared(prep, &mut out), key < 100);
            if key < 100 {
                assert_eq!(out, key.to_le_bytes());
            }
        }
    }
}
