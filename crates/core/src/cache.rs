//! The block cache: residency, in-flight frame reservation, and
//! furthest-next-reference (Belady) eviction.
//!
//! §2.1 semantics: the cache holds `K` frames. Issuing a fetch reserves a
//! frame immediately — the evicted block becomes unavailable at issue time
//! and the incoming block becomes available at completion; neither is
//! accessible in between. `resident + in-flight <= K` always.
//!
//! All per-block state is keyed by the oracle's compact block index
//! (`u32`): residency and in-flight are bitsets, the LRU recency estimate
//! is a slot array. Membership tests on the reference hot path are a load
//! and a mask, with no hashing.

use crate::oracle::{Oracle, NEVER};
use parcache_types::{BitSet, BlockId, PosSet};

/// Sentinel in the `last_use` slot array for "never used".
const NO_USE: usize = usize::MAX;

/// Sentinel in the `heap_pos` slot array for "not in the eviction index".
const UNINDEXED: u32 = u32::MAX;

/// Fan-out of the eviction index's heap. Four children per node halve
/// the depth of a binary heap, and a node's children are adjacent: 64
/// bytes of 16-byte entries.
const ARITY: usize = 4;

/// One eviction-index entry. `ord` packs the Belady key into its high
/// half and the block's [`Oracle::block_rank`] into its low half, so one
/// integer comparison orders by `(key, BlockId)`, the eviction order
/// (largest first) and its tie-break.
#[derive(Debug, Clone, Copy)]
struct Entry {
    ord: u64,
    idx: u32,
}

/// The high half of an entry's `ord` for Belady key `key`. [`NEVER`]
/// maps to `u32::MAX`; positions are below `u32::MAX - 1` (the oracle
/// asserts it), and only an LRU estimate on a trace of some four
/// billion references could saturate.
#[inline]
fn key_bits(key: usize) -> u64 {
    if key == NEVER {
        u64::from(u32::MAX)
    } else {
        key.min(u32::MAX as usize - 1) as u64
    }
}

/// The Belady key packed into `ord`.
#[inline]
fn key_of(ord: u64) -> usize {
    let k = (ord >> 32) as u32;
    if k == u32::MAX {
        NEVER
    } else {
        k as usize
    }
}

/// The cache state.
#[derive(Debug)]
pub struct Cache {
    capacity: usize,
    resident: BitSet,
    inflight: BitSet,
    /// Exact eviction index: a 4-ary max-heap holding one entry per
    /// resident block, keyed by its Belady key at `synced`. A fetch
    /// completion inserts, an eviction removes, and a reference re-keys
    /// the referenced block and the block the hints placed at that
    /// position, so the heap never holds more than `capacity` entries.
    heap: Vec<Entry>,
    /// Heap slot of each compact index (`UNINDEXED` when not resident).
    heap_pos: Vec<u32>,
    /// Every key in `heap` is exact for cursor positions up to here: the
    /// positions before it have had their hinted blocks re-keyed.
    synced: usize,
    /// The block the application is about to reference, exempt from
    /// eviction. Without this, a block demand-fetched for an
    /// *undisclosed* reference (whose policy-visible next use is NEVER)
    /// would be evicted the instant it arrived, re-demanded, and the
    /// simulation would livelock — a real OS never evicts a page with an
    /// outstanding demand on it.
    pinned: Option<u32>,
    /// Under incomplete hints, value blocks with no *disclosed* future by
    /// LRU recency (`last use + capacity`) instead of "never used again",
    /// the way TIP2 values unhinted pages. Off in the fully-hinted
    /// setting, where absence of a future reference is exact knowledge.
    lru_estimate: bool,
    /// Most recent reference (or fetch) position per compact index, for
    /// the LRU estimate. Only maintained when `lru_estimate` is on.
    last_use: Vec<usize>,
}

impl Cache {
    /// Creates an empty cache of `capacity` frames whose block universe
    /// holds `universe` compact indices (see [`Oracle::num_blocks`]).
    pub fn new(capacity: usize, universe: usize) -> Cache {
        assert!(capacity > 0, "cache must hold at least one block");
        Cache {
            capacity,
            resident: BitSet::with_capacity(universe),
            inflight: BitSet::with_capacity(universe),
            heap: Vec::with_capacity(capacity.min(universe)),
            heap_pos: vec![UNINDEXED; universe],
            synced: 0,
            pinned: None,
            lru_estimate: false,
            last_use: vec![NO_USE; universe],
        }
    }

    /// Enables LRU valuation of blocks with no disclosed future (used by
    /// the engine for incomplete-hint runs).
    pub fn enable_lru_estimate(&mut self) {
        self.lru_estimate = true;
    }

    /// The Belady key of block `idx` given its next occurrence `next`:
    /// that occurrence, or — under the LRU estimate — its last use plus
    /// the cache capacity.
    fn key_from_next(&self, idx: u32, next: usize) -> usize {
        if next != NEVER || !self.lru_estimate {
            return next;
        }
        match self.last_use[idx as usize] {
            NO_USE => NEVER,
            lu => lu.saturating_add(self.capacity),
        }
    }

    /// The Belady key of block `idx` for an event at position `pos`.
    fn key_for(&self, idx: u32, pos: usize, oracle: &Oracle) -> usize {
        self.key_from_next(idx, oracle.next_occurrence_idx(idx, pos))
    }

    /// Pins block `idx` against eviction (the engine pins the current
    /// reference); `None` unpins.
    pub fn pin(&mut self, idx: Option<u32>) {
        self.pinned = idx;
    }

    /// The currently pinned block, if any.
    pub fn pinned(&self) -> Option<u32> {
        self.pinned
    }

    /// Frame count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when block `idx` is available in the cache.
    #[inline]
    pub fn resident(&self, idx: u32) -> bool {
        self.resident.contains(idx)
    }

    /// True when a fetch of block `idx` has been issued but not completed.
    #[inline]
    pub fn inflight(&self, idx: u32) -> bool {
        self.inflight.contains(idx)
    }

    /// Number of resident blocks.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Number of in-flight fetches.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// True when a fetch can be issued without evicting anything.
    pub fn has_free_frame(&self) -> bool {
        self.resident.len() + self.inflight.len() < self.capacity
    }

    /// Begins a fetch of block `idx`, evicting `evict` if given.
    ///
    /// # Panics
    ///
    /// Panics on violated invariants: fetching a resident or in-flight
    /// block, evicting a non-resident block, or fetching without a frame.
    pub fn start_fetch(&mut self, idx: u32, evict: Option<u32>) {
        assert!(!self.resident(idx), "fetching resident block index {idx}");
        assert!(!self.inflight(idx), "duplicate fetch of block index {idx}");
        if let Some(e) = evict {
            assert!(Some(e) != self.pinned, "evicting pinned block index {e}");
            assert!(
                self.resident.remove(e),
                "evicting non-resident block index {e}"
            );
            self.unindex(e);
        } else {
            assert!(
                self.resident.len() + self.inflight.len() < self.capacity,
                "no free frame and no eviction"
            );
        }
        self.inflight.insert(idx);
    }

    /// Completes the fetch of block `idx` at cursor position `cursor`:
    /// the block becomes resident and enters the eviction index.
    ///
    /// # Panics
    ///
    /// Panics if no fetch of block `idx` was in flight.
    pub fn complete_fetch(&mut self, idx: u32, cursor: usize, oracle: &Oracle) {
        assert!(
            self.inflight.remove(idx),
            "completing unfetched block index {idx}"
        );
        self.sync(cursor, oracle);
        self.resident.insert(idx);
        if self.lru_estimate && self.last_use[idx as usize] == NO_USE {
            self.last_use[idx as usize] = cursor;
        }
        let ord =
            key_bits(self.key_for(idx, cursor, oracle)) << 32 | u64::from(oracle.block_rank(idx));
        self.heap.push(Entry { ord, idx });
        self.sift_up(self.heap.len() - 1);
    }

    /// Abandons the in-flight fetch of block `idx`: the reserved frame is
    /// released and the block is neither resident nor in flight (the
    /// driver gave up on the request; see the engine's retry policy).
    ///
    /// # Panics
    ///
    /// Panics if no fetch of block `idx` was in flight.
    pub fn cancel_fetch(&mut self, idx: u32) {
        assert!(
            self.inflight.remove(idx),
            "cancelling unfetched block index {idx}"
        );
    }

    /// Records that the application consumed block `idx` at position
    /// `pos`: refreshes its Belady key to the next occurrence after `pos`
    /// (an O(1) next-pointer walk when `pos` references `idx`, which it
    /// always does under oracle hints).
    ///
    /// A predicted hint stream can place a different block at `pos`;
    /// that block's next occurrence moves past `pos` too, so it is
    /// re-keyed as well. Positions must not go backwards.
    pub fn on_reference(&mut self, idx: u32, pos: usize, oracle: &Oracle) {
        debug_assert!(
            self.resident(idx),
            "consumed non-resident block index {idx}"
        );
        debug_assert!(
            pos >= self.synced,
            "reference at {pos} behind {}",
            self.synced
        );
        self.sync(pos, oracle);
        if self.lru_estimate {
            self.last_use[idx as usize] = pos + 1;
        }
        self.rekey(
            idx,
            self.key_from_next(idx, oracle.next_after_idx(idx, pos)),
        );
        self.advance_past(pos, idx, oracle);
    }

    /// The evictable resident block whose next reference (at or after
    /// `cursor`) is furthest in the future, with that position ([`NEVER`]
    /// if it is never referenced again). Ties go to the larger
    /// `BlockId`. `None` when nothing evictable is resident. The pinned
    /// block is never returned.
    ///
    /// O(1) when the references up to `cursor` have been reported through
    /// [`Cache::on_reference`]; otherwise the skipped positions are
    /// caught up first, O(log K) each.
    pub fn furthest_resident(&mut self, cursor: usize, oracle: &Oracle) -> Option<(u32, usize)> {
        self.sync(cursor, oracle);
        let top = *self.heap.first()?;
        let best = if Some(top.idx) == self.pinned {
            // The runner-up of a heap is the root's largest child.
            let children = &self.heap[1..self.heap.len().min(1 + ARITY)];
            *children.iter().max_by_key(|e| e.ord)?
        } else {
            top
        };
        Some((best.idx, key_of(best.ord)))
    }

    /// Iterates over resident block indices, ascending.
    pub fn resident_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.resident.ones()
    }

    /// Brings every key up to cursor position `to`: the block the hints
    /// place at each position not yet reported has its next occurrence
    /// move past that position.
    fn sync(&mut self, to: usize, oracle: &Oracle) {
        let to = to.min(oracle.len());
        while self.synced < to {
            self.advance_past(self.synced, u32::MAX, oracle);
        }
    }

    /// Marks position `pos` consumed: re-keys the block the hints place
    /// there, unless it is `skip` (already re-keyed by the caller).
    fn advance_past(&mut self, pos: usize, skip: u32, oracle: &Oracle) {
        if pos < self.synced {
            return;
        }
        if let Some(h) = oracle.index_at(pos) {
            if h != skip && self.resident(h) {
                self.rekey(h, self.key_from_next(h, oracle.next_after_idx(h, pos)));
            }
        }
        self.synced = pos + 1;
    }

    /// Sets resident block `idx`'s Belady key to `key`.
    fn rekey(&mut self, idx: u32, key: usize) {
        let at = self.heap_pos[idx as usize] as usize;
        let old = self.heap[at].ord;
        let ord = key_bits(key) << 32 | (old & u64::from(u32::MAX));
        if ord > old {
            self.heap[at].ord = ord;
            self.sift_up(at);
        } else if ord < old {
            self.heap[at].ord = ord;
            self.sift_down(at);
        }
    }

    /// Removes block `idx` from the eviction index.
    fn unindex(&mut self, idx: u32) {
        let at = std::mem::replace(&mut self.heap_pos[idx as usize], UNINDEXED) as usize;
        let removed = self.heap[at].ord;
        let last = self.heap.pop().expect("indexed block has an entry");
        if at < self.heap.len() {
            self.heap[at] = last;
            if last.ord > removed {
                self.sift_up(at);
            } else {
                self.sift_down(at);
            }
        }
    }

    /// Moves the entry at slot `at` toward the root until its parent
    /// orders above it.
    fn sift_up(&mut self, mut at: usize) {
        let e = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / ARITY;
            let p = self.heap[parent];
            if p.ord > e.ord {
                break;
            }
            self.heap[at] = p;
            self.heap_pos[p.idx as usize] = at as u32;
            at = parent;
        }
        self.heap[at] = e;
        self.heap_pos[e.idx as usize] = at as u32;
    }

    /// Moves the entry at slot `at` toward the leaves until no child
    /// orders above it.
    fn sift_down(&mut self, mut at: usize) {
        let e = self.heap[at];
        let len = self.heap.len();
        loop {
            let first = ARITY * at + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for c in first + 1..(first + ARITY).min(len) {
                if self.heap[c].ord > self.heap[best].ord {
                    best = c;
                }
            }
            let b = self.heap[best];
            if b.ord < e.ord {
                break;
            }
            self.heap[at] = b;
            self.heap_pos[b.idx as usize] = at as u32;
            at = best;
        }
        self.heap[at] = e;
        self.heap_pos[e.idx as usize] = at as u32;
    }
}

/// Dynamic index of *missing* blocks' next occurrences.
///
/// For every block that is neither resident nor in flight, the tracker
/// holds the position of its next reference, globally and per disk, in
/// [`PosSet`] bitsets over the trace's positions. This is what lets every
/// policy find "the first missing block (on disk D)" in near-constant
/// time instead of scanning the future.
#[derive(Debug)]
pub struct MissingTracker {
    /// Next-occurrence positions of missing blocks, global.
    global: PosSet,
    /// The same positions partitioned by disk.
    per_disk: Vec<PosSet>,
    /// Per-disk insertion epochs: bumped on every insert that actually
    /// adds a position to that disk's set. Consumers (forestall's
    /// incremental stall predictor) cache derived verdicts keyed by the
    /// two direction-split epochs; no-stall verdicts are insensitive to
    /// removals (fewer missing blocks can only weaken a stall), so they
    /// key on this counter alone, plus the positions in `recent_ins`.
    /// Queries and `NEVER`-position no-ops never bump.
    ins_epochs: Vec<u64>,
    /// Per-disk removal epochs: the mirror of `ins_epochs` for removes.
    /// Stall-predicted verdicts are insensitive to insertions (more
    /// missing blocks can only strengthen a stall) and key on this.
    rem_epochs: Vec<u64>,
    /// Per-disk ring of the last [`RECENT_INS`] inserted positions, slot
    /// `epoch % RECENT_INS` holding the insert that bumped `ins_epochs`
    /// to `epoch`. Lets [`MissingTracker::inserts_all_at_or_beyond`]
    /// re-validate a cached verdict across a few insertions when they
    /// all landed beyond the verdict's horizon (the common case:
    /// evicted blocks re-enter at far-future next occurrences).
    recent_ins: Vec<[usize; RECENT_INS]>,
}

/// Ring capacity of [`MissingTracker::recent_ins`]: enough to span the
/// insertions a policy's whole fetch batch causes between two decision
/// points.
const RECENT_INS: usize = 32;

impl MissingTracker {
    /// Builds the tracker for a cold cache: every distinct block is
    /// missing at its first occurrence.
    pub fn new(oracle: &Oracle) -> MissingTracker {
        let disks = oracle.layout().disks();
        let mut t = MissingTracker {
            global: PosSet::new(oracle.len()),
            per_disk: vec![PosSet::new(oracle.len()); disks],
            ins_epochs: vec![0; disks],
            rem_epochs: vec![0; disks],
            recent_ins: vec![[0; RECENT_INS]; disks],
        };
        for (block, pos) in oracle.first_occurrences() {
            t.insert(block, pos, oracle);
        }
        t
    }

    /// The insertion epoch of `disk`'s position set.
    #[inline]
    pub fn ins_epoch(&self, disk: usize) -> u64 {
        self.ins_epochs[disk]
    }

    /// The removal epoch of `disk`'s position set.
    #[inline]
    pub fn rem_epoch(&self, disk: usize) -> u64 {
        self.rem_epochs[disk]
    }

    /// Whether every position inserted on `disk` since insertion epoch
    /// `since` landed at or beyond `guard`. Returns `None` when more
    /// than [`RECENT_INS`] insertions happened since and the ring no
    /// longer remembers them all.
    #[inline]
    pub fn inserts_all_at_or_beyond(&self, disk: usize, since: u64, guard: usize) -> Option<bool> {
        let now = self.ins_epochs[disk];
        debug_assert!(since <= now, "insertion epochs only grow");
        if now - since > RECENT_INS as u64 {
            return None;
        }
        let ring = &self.recent_ins[disk];
        let mut e = since;
        while e < now {
            e += 1;
            if ring[(e % RECENT_INS as u64) as usize] < guard {
                return Some(false);
            }
        }
        Some(true)
    }

    #[inline]
    fn record_insert(&mut self, disk: usize, pos: usize) {
        let e = self.ins_epochs[disk] + 1;
        self.ins_epochs[disk] = e;
        self.recent_ins[disk][(e % RECENT_INS as u64) as usize] = pos;
    }

    fn insert(&mut self, block: BlockId, pos: usize, oracle: &Oracle) {
        if pos == NEVER {
            return;
        }
        debug_assert_eq!(oracle.block_at(pos), block);
        let d = oracle.disk_of(block).index();
        self.global.insert(pos);
        self.per_disk[d].insert(pos);
        self.record_insert(d, pos);
    }

    /// [`MissingTracker::insert`] by compact index (no hashing).
    fn insert_idx(&mut self, idx: u32, pos: usize, oracle: &Oracle) {
        if pos == NEVER {
            return;
        }
        debug_assert_eq!(oracle.block_at(pos), oracle.block_of(idx));
        let d = oracle.disk_of(oracle.block_of(idx)).index();
        self.global.insert(pos);
        self.per_disk[d].insert(pos);
        self.record_insert(d, pos);
    }

    /// A fetch of `block` was issued: it is no longer missing.
    pub fn on_fetch_issued(&mut self, block: BlockId, cursor: usize, oracle: &Oracle) {
        let pos = oracle.next_occurrence(block, cursor);
        if pos == NEVER {
            return;
        }
        let d = oracle.disk_of(block).index();
        self.global.remove(pos);
        self.per_disk[d].remove(pos);
        self.rem_epochs[d] += 1;
    }

    /// [`MissingTracker::on_fetch_issued`] by compact index (no hashing).
    pub fn on_fetch_issued_idx(&mut self, idx: u32, cursor: usize, oracle: &Oracle) {
        let pos = oracle.next_occurrence_idx(idx, cursor);
        if pos == NEVER {
            return;
        }
        let d = oracle.disk_of(oracle.block_of(idx)).index();
        self.global.remove(pos);
        self.per_disk[d].remove(pos);
        self.rem_epochs[d] += 1;
    }

    /// `block` was evicted at cursor position `cursor`: it is missing
    /// again from its next reference on.
    pub fn on_evicted(&mut self, block: BlockId, cursor: usize, oracle: &Oracle) {
        let pos = oracle.next_occurrence(block, cursor);
        self.insert(block, pos, oracle);
    }

    /// [`MissingTracker::on_evicted`] by compact index (no hashing).
    pub fn on_evicted_idx(&mut self, idx: u32, cursor: usize, oracle: &Oracle) {
        let pos = oracle.next_occurrence_idx(idx, cursor);
        self.insert_idx(idx, pos, oracle);
    }

    /// The first position `>= from` whose block is missing, globally.
    #[inline]
    pub fn first_missing(&self, from: usize) -> Option<usize> {
        self.global.next_at_or_after(from)
    }

    /// The first position `>= from` whose block is missing and lives on
    /// `disk`.
    #[inline]
    pub fn first_missing_on_disk(&self, disk: usize, from: usize) -> Option<usize> {
        self.per_disk[disk].next_at_or_after(from)
    }

    /// Positions of missing blocks in `[from, to)`, globally, ascending.
    pub fn missing_in_window(&self, from: usize, to: usize) -> impl Iterator<Item = usize> + '_ {
        self.global.iter_from(from).take_while(move |&p| p < to)
    }

    /// Positions of missing blocks at or after `from` on `disk`,
    /// ascending, as the concrete [`PosSet`] iterator. Unlike
    /// [`MissingTracker::missing_on_disk_in_window`] the window bound is
    /// the caller's job; in exchange the iterator's popcount-skipping
    /// `nth` stays reachable (an adapter like `take_while` would hide it
    /// behind the one-step default).
    #[inline]
    pub fn missing_on_disk_from(
        &self,
        disk: usize,
        from: usize,
    ) -> parcache_types::posset::Iter<'_> {
        self.per_disk[disk].iter_from(from)
    }

    /// Positions of missing blocks in `[from, to)` on `disk`, ascending.
    pub fn missing_on_disk_in_window(
        &self,
        disk: usize,
        from: usize,
        to: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        self.per_disk[disk]
            .iter_from(from)
            .take_while(move |&p| p < to)
    }

    /// Total missing-block entries (diagnostics).
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// True when nothing is missing.
    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcache_disk::layout::Layout;
    use parcache_trace::{Request, Trace};
    use parcache_types::Nanos;

    /// Oracle over `blocks`, with `extras` given compact indices despite
    /// never being referenced (the way the engine indexes the full trace
    /// universe under incomplete hints).
    fn oracle_with_extras(blocks: &[u64], disks: usize, extras: &[u64]) -> Oracle {
        let entries: Vec<(usize, BlockId)> = blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| (i, BlockId(b)))
            .collect();
        let universe: Vec<BlockId> = extras.iter().map(|&b| BlockId(b)).collect();
        Oracle::from_positions_with_universe(
            blocks.len(),
            entries,
            &universe,
            Layout::striped(disks),
        )
    }

    fn oracle_of(blocks: &[u64], disks: usize) -> Oracle {
        let t = Trace::new(
            "t",
            blocks
                .iter()
                .map(|&b| Request {
                    block: BlockId(b),
                    compute: Nanos::from_millis(1),
                })
                .collect(),
            4,
        );
        Oracle::new(&t, Layout::striped(disks))
    }

    fn idx(o: &Oracle, b: u64) -> u32 {
        o.index_of(BlockId(b)).unwrap()
    }

    #[test]
    fn fetch_lifecycle() {
        let o = oracle_of(&[1, 2, 1], 1);
        let mut c = Cache::new(2, o.num_blocks());
        let b1 = idx(&o, 1);
        assert!(c.has_free_frame());
        c.start_fetch(b1, None);
        assert!(c.inflight(b1));
        assert!(!c.resident(b1));
        c.complete_fetch(b1, 0, &o);
        assert!(c.resident(b1));
        assert!(!c.inflight(b1));
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn frames_are_reserved_at_issue() {
        let o = oracle_of(&[1, 2, 3], 1);
        let mut c = Cache::new(2, o.num_blocks());
        let (b1, b2, b3) = (idx(&o, 1), idx(&o, 2), idx(&o, 3));
        c.start_fetch(b1, None);
        c.start_fetch(b2, None);
        assert!(!c.has_free_frame());
        c.complete_fetch(b1, 0, &o);
        c.complete_fetch(b2, 0, &o);
        // Full cache: must evict to fetch.
        c.start_fetch(b3, Some(b1));
        assert!(!c.resident(b1));
        assert_eq!(c.resident_count() + c.inflight_count(), 2);
    }

    #[test]
    #[should_panic(expected = "no free frame")]
    fn overcommit_panics() {
        let mut c = Cache::new(1, 4);
        c.start_fetch(0, None);
        c.start_fetch(1, None);
    }

    #[test]
    fn cancel_fetch_releases_the_frame() {
        let o = oracle_of(&[1, 2], 1);
        let mut c = Cache::new(1, o.num_blocks());
        let b1 = idx(&o, 1);
        c.start_fetch(b1, None);
        assert!(!c.has_free_frame());
        c.cancel_fetch(b1);
        assert!(!c.inflight(b1));
        assert!(!c.resident(b1));
        // The frame is reusable, including for the same block again.
        c.start_fetch(b1, None);
        c.complete_fetch(b1, 0, &o);
        assert!(c.resident(b1));
    }

    #[test]
    #[should_panic(expected = "cancelling unfetched")]
    fn cancel_of_unfetched_block_panics() {
        let mut c = Cache::new(2, 4);
        c.cancel_fetch(1);
    }

    #[test]
    #[should_panic(expected = "duplicate fetch")]
    fn duplicate_fetch_panics() {
        let mut c = Cache::new(2, 4);
        c.start_fetch(1, None);
        c.start_fetch(1, None);
    }

    #[test]
    fn belady_picks_furthest() {
        // Sequence: 1 2 3 1 2 3 ... blocks 9 and 42 never referenced but
        // part of the indexed universe.
        let o = oracle_with_extras(&[1, 2, 3, 1, 2, 3], 1, &[9, 42]);
        let mut c = Cache::new(4, o.num_blocks());
        for b in [1u64, 2, 3, 9] {
            c.start_fetch(idx(&o, b), None);
            c.complete_fetch(idx(&o, b), 0, &o);
        }
        // Block 9 is never referenced: furthest.
        let (b, key) = c.furthest_resident(0, &o).unwrap();
        assert_eq!(b, idx(&o, 9));
        assert_eq!(key, NEVER);
        c.start_fetch(idx(&o, 42), Some(idx(&o, 9)));
        // Now block 3 (next ref at 2) is furthest among 1(0), 2(1), 3(2).
        let (b, key) = c.furthest_resident(0, &o).unwrap();
        assert_eq!((b, key), (idx(&o, 3), 2));
    }

    #[test]
    fn belady_keys_refresh_as_cursor_advances() {
        let o = oracle_of(&[1, 2, 1, 2], 1);
        let mut c = Cache::new(2, o.num_blocks());
        let (b1, b2) = (idx(&o, 1), idx(&o, 2));
        for b in [b1, b2] {
            c.start_fetch(b, None);
            c.complete_fetch(b, 0, &o);
        }
        // At cursor 0: block 2 next at 1... block 1 at 0; furthest is 2.
        assert_eq!(c.furthest_resident(0, &o).unwrap().0, b2);
        // Consume positions 0 and 1; at cursor 2, next refs are 1->2, 2->3.
        c.on_reference(b1, 0, &o);
        c.on_reference(b2, 1, &o);
        assert_eq!(c.furthest_resident(2, &o).unwrap(), (b2, 3));
        // At cursor 4 both are NEVER; either may win but the key is NEVER.
        assert_eq!(c.furthest_resident(4, &o).unwrap().1, NEVER);
    }

    /// The argmax the eviction index must reproduce: every evictable
    /// resident block by `(key_for(cursor), BlockId)`, largest first.
    fn naive_furthest(c: &Cache, cursor: usize, o: &Oracle) -> Option<(u32, usize)> {
        c.resident_indices()
            .filter(|&i| Some(i) != c.pinned())
            .map(|i| (c.key_for(i, cursor, o), o.block_of(i), i))
            .max()
            .map(|(key, _, i)| (i, key))
    }

    #[test]
    fn eviction_index_matches_naive_argmax() {
        // Random fetch, evict, cancel, pin and reference sequences, LRU
        // estimate on and off. The hint stream is predicted-style: at
        // some positions the application references another block than
        // the one hinted there, and some positions are undisclosed.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x5eed_b1ad);
        for case in 0..300 {
            let len = rng.gen_range(1usize..=60);
            let universe = rng.gen_range(2u64..=16);
            let hinted: Vec<Option<u64>> = (0..len)
                .map(|_| rng.gen_bool(0.85).then(|| rng.gen_range(0..universe)))
                .collect();
            let app: Vec<u64> = hinted
                .iter()
                .map(|h| match h {
                    Some(b) if rng.gen_bool(0.7) => *b,
                    _ => rng.gen_range(0..universe),
                })
                .collect();
            let entries: Vec<(usize, BlockId)> = hinted
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.map(|b| (i, BlockId(b))))
                .collect();
            let all: Vec<BlockId> = (0..universe).map(BlockId).collect();
            let o = Oracle::from_positions_with_universe(len, entries, &all, Layout::striped(1));
            let capacity = rng.gen_range(1usize..=6);
            let mut c = Cache::new(capacity, o.num_blocks());
            if rng.gen_bool(0.5) {
                c.enable_lru_estimate();
            }
            let check = |c: &mut Cache, cursor: usize, what: &str| {
                let want = naive_furthest(c, cursor, &o);
                assert_eq!(
                    c.furthest_resident(cursor, &o),
                    want,
                    "case {case} at {cursor} ({what}): hints {hinted:?} app {app:?}"
                );
            };
            for (pos, &b) in app.iter().enumerate() {
                let want = o.index_of(BlockId(b)).unwrap();
                c.pin(Some(want));
                // Random cache traffic before the reference.
                for _ in 0..rng.gen_range(0usize..4) {
                    let x = rng.gen_range(0..universe);
                    let xi = o.index_of(BlockId(x)).unwrap();
                    if c.inflight(xi) {
                        if rng.gen_bool(0.8) {
                            c.complete_fetch(xi, pos, &o);
                        } else {
                            c.cancel_fetch(xi);
                        }
                    } else if !c.resident(xi) {
                        let evict = if c.has_free_frame() {
                            None
                        } else if rng.gen_bool(0.5) {
                            c.furthest_resident(pos, &o).map(|(e, _)| e)
                        } else {
                            // An arbitrary victim, as a scheduled
                            // eviction may be.
                            let victims: Vec<u32> = c
                                .resident_indices()
                                .filter(|&i| Some(i) != c.pinned())
                                .collect();
                            rng.choose(&victims).copied()
                        };
                        if evict.is_some() || c.has_free_frame() {
                            c.start_fetch(xi, evict);
                        }
                    }
                    check(&mut c, pos, "traffic");
                }
                // The referenced block must be resident to be consumed.
                if !c.resident(want) {
                    if !c.inflight(want) {
                        let evict = if c.has_free_frame() {
                            None
                        } else {
                            c.furthest_resident(pos, &o).map(|(e, _)| e)
                        };
                        if evict.is_none() && !c.has_free_frame() {
                            // Every frame is in flight: land one.
                            let f = (0..o.num_blocks() as u32).find(|&i| c.inflight(i)).unwrap();
                            c.complete_fetch(f, pos, &o);
                            let e = c.furthest_resident(pos, &o).map(|(e, _)| e);
                            c.start_fetch(want, e);
                        } else {
                            c.start_fetch(want, evict);
                        }
                    }
                    c.complete_fetch(want, pos, &o);
                }
                check(&mut c, pos, "before reference");
                c.pin(None);
                c.on_reference(want, pos, &o);
                check(&mut c, pos + 1, "after reference");
            }
            assert!(
                c.heap.len() <= capacity,
                "case {case}: index outgrew the cache"
            );
            assert_eq!(c.heap.len(), c.resident_count());
        }
    }

    #[test]
    fn predicted_hint_miss_rekeys_the_hinted_block() {
        // The hints place block 1 at position 0, but the application
        // references block 2 there. Block 1's next hinted use is now
        // position 3 and it is the furthest resident; an index that only
        // re-keys referenced blocks still believes "position 0" and
        // evicts block 2 (next use 1) instead.
        let entries = vec![
            (0, BlockId(1)),
            (1, BlockId(2)),
            (2, BlockId(2)),
            (3, BlockId(1)),
        ];
        let o = Oracle::from_positions(4, entries, Layout::striped(1));
        let (b1, b2) = (idx(&o, 1), idx(&o, 2));
        let mut c = Cache::new(2, o.num_blocks());
        c.enable_lru_estimate();
        for b in [b1, b2] {
            c.start_fetch(b, None);
            c.complete_fetch(b, 0, &o);
        }
        c.on_reference(b2, 0, &o);
        assert_eq!(c.furthest_resident(1, &o), Some((b1, 3)));
    }

    #[test]
    fn skipped_positions_are_caught_up() {
        // A caller that queries a later cursor without reporting the
        // references in between still gets the exact answer.
        let o = oracle_of(&[1, 2, 3, 1, 2, 3, 2], 1);
        let mut c = Cache::new(3, o.num_blocks());
        for b in [1u64, 2, 3] {
            c.start_fetch(idx(&o, b), None);
            c.complete_fetch(idx(&o, b), 0, &o);
        }
        for cursor in 0..=o.len() {
            assert_eq!(
                c.furthest_resident(cursor, &o),
                naive_furthest(&c, cursor, &o),
                "cursor {cursor}"
            );
        }
    }

    #[test]
    fn empty_cache_has_no_furthest() {
        let o = oracle_of(&[1], 1);
        let mut c = Cache::new(2, o.num_blocks());
        assert_eq!(c.furthest_resident(0, &o), None);
    }

    #[test]
    fn resident_indices_are_ascending() {
        let o = oracle_of(&[1, 2, 3], 1);
        let mut c = Cache::new(3, o.num_blocks());
        for b in [3u64, 1, 2] {
            c.start_fetch(idx(&o, b), None);
            c.complete_fetch(idx(&o, b), 0, &o);
        }
        let got: Vec<u32> = c.resident_indices().collect();
        let mut want = vec![idx(&o, 1), idx(&o, 2), idx(&o, 3)];
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn tracker_initializes_with_first_occurrences() {
        let o = oracle_of(&[5, 6, 5, 7], 2);
        let t = MissingTracker::new(&o);
        assert_eq!(t.len(), 3);
        assert_eq!(t.first_missing(0), Some(0));
        assert_eq!(t.first_missing(1), Some(1));
        assert_eq!(t.first_missing(2), Some(3)); // 5 registered at 0 only
    }

    #[test]
    fn tracker_fetch_and_evict_cycle() {
        let o = oracle_of(&[5, 6, 5, 7], 1);
        let mut t = MissingTracker::new(&o);
        t.on_fetch_issued(BlockId(5), 0, &o);
        assert_eq!(t.first_missing(0), Some(1)); // block 6
                                                 // Evict 5 at cursor 1: re-registered at its next ref, position 2.
        t.on_evicted(BlockId(5), 1, &o);
        assert_eq!(t.first_missing(0), Some(1));
        assert_eq!(t.first_missing(2), Some(2));
    }

    #[test]
    fn tracker_idx_variants_match_block_variants() {
        let o = oracle_of(&[5, 6, 5, 7], 2);
        let mut a = MissingTracker::new(&o);
        let mut b = MissingTracker::new(&o);
        a.on_fetch_issued(BlockId(5), 0, &o);
        b.on_fetch_issued_idx(idx(&o, 5), 0, &o);
        a.on_evicted(BlockId(5), 1, &o);
        b.on_evicted_idx(idx(&o, 5), 1, &o);
        for from in 0..4 {
            assert_eq!(a.first_missing(from), b.first_missing(from));
            for d in 0..2 {
                assert_eq!(
                    a.first_missing_on_disk(d, from),
                    b.first_missing_on_disk(d, from)
                );
            }
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn tracker_per_disk_views() {
        // Striped over 2 disks: blocks 0,2 on disk 0; 1,3 on disk 1.
        let o = oracle_of(&[0, 1, 2, 3], 2);
        let t = MissingTracker::new(&o);
        assert_eq!(t.first_missing_on_disk(0, 0), Some(0));
        assert_eq!(t.first_missing_on_disk(1, 0), Some(1));
        assert_eq!(t.first_missing_on_disk(0, 1), Some(2));
        let w: Vec<usize> = t.missing_on_disk_in_window(1, 0, 4).collect();
        assert_eq!(w, vec![1, 3]);
    }

    #[test]
    fn tracker_ignores_never_referenced_evictions() {
        let o = oracle_of(&[1, 2], 1);
        let mut t = MissingTracker::new(&o);
        t.on_fetch_issued(BlockId(1), 0, &o);
        t.on_fetch_issued(BlockId(2), 0, &o);
        assert!(t.is_empty());
        // Evicting block 1 at cursor 2 (past its last reference): no entry.
        t.on_evicted(BlockId(1), 2, &o);
        assert!(t.is_empty());
    }

    #[test]
    fn window_queries() {
        let o = oracle_of(&[0, 1, 2, 3, 4], 1);
        let t = MissingTracker::new(&o);
        let w: Vec<usize> = t.missing_in_window(1, 4).collect();
        assert_eq!(w, vec![1, 2, 3]);
    }

    #[test]
    fn epochs_bump_exactly_on_per_disk_mutation() {
        // Striped over 2 disks: blocks 0,2 on disk 0; 1,3 on disk 1.
        let o = oracle_of(&[0, 1, 2, 3, 0], 2);
        let mut t = MissingTracker::new(&o);
        let (i0, r0) = (t.ins_epoch(0), t.rem_epoch(0));
        let (i1, r1) = (t.ins_epoch(1), t.rem_epoch(1));
        // Queries never bump.
        let _ = t.first_missing_on_disk(0, 0);
        let _: Vec<usize> = t.missing_on_disk_in_window(1, 0, 5).collect();
        assert_eq!((t.ins_epoch(0), t.rem_epoch(0)), (i0, r0));
        // A fetch on disk 0 bumps only disk 0's removal epoch.
        t.on_fetch_issued(BlockId(0), 0, &o);
        assert_eq!((t.ins_epoch(0), t.rem_epoch(0)), (i0, r0 + 1));
        assert_eq!((t.ins_epoch(1), t.rem_epoch(1)), (i1, r1));
        // An eviction re-registering block 0 at its next use (position 4)
        // bumps only disk 0's insertion epoch.
        t.on_evicted(BlockId(0), 1, &o);
        assert_eq!((t.ins_epoch(0), t.rem_epoch(0)), (i0 + 1, r0 + 1));
        assert_eq!((t.ins_epoch(1), t.rem_epoch(1)), (i1, r1));
        // A `NEVER`-position no-op (block 1 evicted past its last use)
        // leaves the set untouched and must not bump.
        t.on_fetch_issued(BlockId(1), 0, &o);
        let (i1b, r1b) = (t.ins_epoch(1), t.rem_epoch(1));
        t.on_evicted(BlockId(1), 2, &o);
        assert_eq!((t.ins_epoch(1), t.rem_epoch(1)), (i1b, r1b));
    }

    #[test]
    fn insert_ring_answers_guard_queries() {
        // Disk 0 owns every block (1-disk layout); the ring remembers
        // the positions of recent insertions for guard re-validation.
        let blocks: Vec<u64> = (0..80).collect();
        let o = oracle_of(&blocks, 1);
        let t = MissingTracker::new(&o);
        let base = t.ins_epoch(0);
        // Two evictions re-register blocks 0 and 1 at their (never)
        // next use -- pick re-referenced blocks instead.
        let blocks2: Vec<u64> = (0..40).chain(0..40).collect();
        let o = oracle_of(&blocks2, 1);
        let mut t2 = MissingTracker::new(&o);
        let base2 = t2.ins_epoch(0);
        // Evicting block 3 at cursor 10 re-inserts position 43; block 7
        // re-inserts position 47.
        t2.on_fetch_issued(BlockId(3), 0, &o);
        t2.on_fetch_issued(BlockId(7), 0, &o);
        let since = t2.ins_epoch(0);
        t2.on_evicted(BlockId(3), 10, &o);
        t2.on_evicted(BlockId(7), 10, &o);
        assert_eq!(t2.ins_epoch(0), since + 2);
        // Both landed at or beyond 43.
        assert_eq!(t2.inserts_all_at_or_beyond(0, since, 43), Some(true));
        // ...but not beyond 44 (position 43 is below that guard).
        assert_eq!(t2.inserts_all_at_or_beyond(0, since, 44), Some(false));
        // An unchanged epoch passes any guard vacuously.
        assert_eq!(
            t2.inserts_all_at_or_beyond(0, t2.ins_epoch(0), usize::MAX),
            Some(true)
        );
        // Exhausting the ring reports None rather than guessing.
        for _ in 0..2 {
            for b in 0..40u64 {
                t2.on_fetch_issued(BlockId(b), 0, &o);
                t2.on_evicted(BlockId(b), 0, &o);
            }
        }
        assert_eq!(t2.inserts_all_at_or_beyond(0, since, 0), None);
        // Quiet tracker: the cold-start epoch still answers.
        assert_eq!(t.ins_epoch(0), base);
        let _ = base2;
        assert_eq!(t.inserts_all_at_or_beyond(0, base, usize::MAX), Some(true));
    }

    #[test]
    fn missing_on_disk_in_window_matches_naive_filter() {
        // Boundary property test for the iterator the incremental stall
        // predictor's invalidation contract depends on: `[from, to)`
        // semantics (inclusive start, exclusive end), a cursor sitting
        // exactly on a missing position, disks with no missing entries at
        // all, and empty (`from >= to`) windows — all against a naive
        // filter over the full per-disk missing set.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x5eed_2026);
        for case in 0..100 {
            let len = rng.gen_range(1usize..=40);
            let universe = rng.gen_range(1u64..=12);
            let disks = rng.gen_range(1usize..=4);
            let blocks: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..universe)).collect();
            let o = oracle_of(&blocks, disks);
            let mut t = MissingTracker::new(&o);
            // Mutate a little so the set is not just first occurrences.
            for _ in 0..rng.gen_range(0usize..4) {
                let b = BlockId(rng.gen_range(0..universe));
                if o.index_of(b).is_some() {
                    let at = rng.gen_range(0usize..=len);
                    t.on_fetch_issued(b, at, &o);
                    t.on_evicted(b, at, &o);
                }
            }
            // The full per-disk ground truth via an unbounded window.
            for d in 0..disks {
                let all: Vec<usize> = t.missing_on_disk_in_window(d, 0, usize::MAX).collect();
                // Every edge combination, including from == to and
                // from > to (empty), from on a missing position
                // (inclusive), and to on a missing position (exclusive).
                let mut edges: Vec<usize> = vec![0, len, len + 1];
                edges.extend(all.iter().copied());
                edges.extend(all.iter().map(|&p| p + 1));
                for &from in &edges {
                    for &to in &edges {
                        let got: Vec<usize> = t.missing_on_disk_in_window(d, from, to).collect();
                        let naive: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&p| p >= from && p < to)
                            .collect();
                        assert_eq!(
                            got, naive,
                            "case {case}: disk {d} window [{from}, {to}) over {blocks:?}"
                        );
                    }
                }
            }
        }
    }
}
