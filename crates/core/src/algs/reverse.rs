//! The reverse aggressive algorithm (§2.5, §2.7).
//!
//! Reverse aggressive is offline: before the run it constructs a complete
//! prefetching schedule, then replays it against the real disk model.
//!
//! **Reverse pass.** Assuming a fixed fetch-time/compute-time ratio F̂, it
//! simulates the batched aggressive algorithm over the *reversed* request
//! sequence in the uniform fetch-time model: whenever a disk is free, it
//! fetches the first missing block on that disk, evicting the resident
//! block not needed for the longest time, provided the eviction's next
//! request falls after the fetched block's (do no harm), in batches.
//!
//! **Transformation.** Each reverse *eviction* of block E at reverse
//! cursor c becomes a forward *fetch* of E, ordered by the forward
//! request index it serves (E's most recent reverse use before c maps to
//! E's next forward use after the fetch point). Each reverse *fetch* of
//! block B serving its use at reverse position r becomes a forward
//! *eviction* of B with release time `n - r` — one past B's last forward
//! use before it is refetched. Blocks still resident at the end of the
//! reverse pass become cold-start forward fetches keyed by their first
//! forward use. Fetches are sorted by request index, evictions by release
//! point, and matched in order (the first K fetches fill cold frames).
//!
//! **Forward replay.** Whenever a disk D is free, the first up to
//! batch-size released pairs whose fetch block lives on D are issued
//! (§2.7), within a probe window that ends at D's `2b+1`-th unreleased
//! pair (`ReplayQueues`). Demand misses consume the block's scheduled
//! pair early; stale evictions are repaired with the current
//! furthest-future resident.

use crate::cache::{Cache, MissingTracker};
use crate::config::SimConfig;
use crate::engine::Ctx;
use crate::oracle::Oracle;
use crate::policy::{demand_fetch_idx, Policy};
use parcache_disk::Layout;
use parcache_trace::Trace;
use parcache_types::{BlockId, DiskId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no index" in the `u32` index tables.
const NONE32: u32 = u32::MAX;

/// One scheduled forward fetch/eviction pair. Blocks are named by their
/// index into [`ReverseAggressive::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// The block to fetch.
    pub block: u32,
    /// Forward position of the fetched block's next use (ordering key).
    pub key: usize,
    /// The block to evict, if the schedule calls for one.
    pub evict: Option<u32>,
    /// Earliest cursor position at which the eviction may happen.
    pub release: usize,
}

/// An event recorded during the reverse pass, blocks by the reversed
/// oracle's compact index.
#[derive(Debug, Clone, Copy)]
struct RevEvent {
    /// Block fetched in the reverse world.
    fetched: u32,
    /// Block evicted in the reverse world, if any.
    evicted: Option<u32>,
    /// Reverse cursor at issue time.
    cursor: usize,
    /// Reverse position of the use this fetch serves.
    target: usize,
}

/// Outcome of attempting to issue a scheduled pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueOutcome {
    /// A fetch went out.
    Issued,
    /// The pair was obsolete (block already resident or in flight).
    Skipped,
    /// No frame could be freed; the pair stays pending.
    Blocked,
}

/// Where a scheduled pair stands in the forward replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairState {
    /// Not yet released: counted in its disk's `pending` tree.
    Pending,
    /// Released: in its disk's `ready` heap.
    Ready,
    /// Issued, skipped as obsolete, or consumed by a demand miss.
    Done,
}

/// Counts over a fixed range of slots with point decrements and an
/// order-statistic query (a Fenwick tree), starting with every slot set.
#[derive(Debug)]
struct Fenwick {
    /// 1-based: `tree[i]` counts the set slots in `(i - lowbit(i), i]`.
    tree: Vec<u32>,
    /// Set slots in total.
    count: usize,
}

impl Fenwick {
    /// `len` slots, all set.
    fn full(len: usize) -> Fenwick {
        let tree = (0..=len).map(|i| (i & i.wrapping_neg()) as u32).collect();
        Fenwick { tree, count: len }
    }

    /// Clears set slot `slot`.
    fn clear(&mut self, slot: usize) {
        let mut i = slot + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
        self.count -= 1;
    }

    /// The slot of the `k`-th set slot (1-based `k`), or `None` when
    /// fewer than `k` are set.
    fn kth(&self, k: usize) -> Option<usize> {
        if k == 0 || self.count < k {
            return None;
        }
        let (mut at, mut rem) = (0, k as u32);
        let mut step = (self.tree.len() - 1).checked_ilog2().map_or(0, |b| 1 << b);
        while step > 0 {
            let next = at + step;
            if next < self.tree.len() && self.tree[next] < rem {
                at = next;
                rem -= self.tree[next];
            }
            step >>= 1;
        }
        Some(at)
    }
}

/// One disk's share of the schedule.
#[derive(Debug)]
struct DiskQueue {
    /// The disk's pair indexes in key order; a pair's slot is its
    /// position here.
    pairs: Vec<u32>,
    /// `(release, slot)` for every slot, ascending: the order in which
    /// the cursor releases the disk's pairs.
    by_release: Vec<(usize, u32)>,
    /// How much of `by_release` the cursor has passed.
    released: usize,
    /// Released, not yet issued slots, smallest (earliest key) first.
    /// Pairs consumed by a demand miss stay until they reach the top.
    ready: BinaryHeap<Reverse<u32>>,
    /// The unreleased, unconsumed slots.
    pending: Fenwick,
}

/// The forward replay's pending pairs, indexed by release.
///
/// At a decision point a free disk issues, in key order, up to a batch
/// of its released pairs — but only those ahead of its `2b+1`-th
/// unreleased pair, the probe window that stops a pair released early
/// from jumping far ahead of the schedule. A pair moves from the
/// disk's `pending` tree to its `ready` heap when the cursor passes its
/// release, so a decision point with nothing released costs O(1), and
/// one that issues costs O(log) per pair plus one order-statistic query
/// for the window's end.
#[derive(Debug)]
struct ReplayQueues {
    state: Vec<PairState>,
    /// Each pair's slot in its disk's queue.
    slot: Vec<u32>,
    /// Each pair's disk.
    disk: Vec<u32>,
    disks: Vec<DiskQueue>,
    batch_size: usize,
}

impl ReplayQueues {
    /// Queues for `schedule` (in key order), whose pair `i` fetches from
    /// disk `disk_of[i]`.
    fn new(schedule: &[Pair], disk_of: &[u32], disks: usize, batch_size: usize) -> ReplayQueues {
        let mut per_disk: Vec<Vec<u32>> = vec![Vec::new(); disks];
        let mut slot: Vec<u32> = Vec::with_capacity(schedule.len());
        for (i, &d) in disk_of.iter().enumerate() {
            let q = &mut per_disk[d as usize];
            slot.push(q.len() as u32);
            q.push(i as u32);
        }
        let disks = per_disk
            .into_iter()
            .map(|pairs| {
                let mut by_release: Vec<(usize, u32)> = pairs
                    .iter()
                    .enumerate()
                    .map(|(s, &i)| (schedule[i as usize].release, s as u32))
                    .collect();
                by_release.sort_unstable();
                DiskQueue {
                    pending: Fenwick::full(pairs.len()),
                    pairs,
                    by_release,
                    released: 0,
                    ready: BinaryHeap::new(),
                }
            })
            .collect();
        ReplayQueues {
            state: vec![PairState::Pending; schedule.len()],
            slot,
            disk: disk_of.to_vec(),
            disks,
            batch_size,
        }
    }

    /// True once pair `i` was issued, skipped or consumed.
    fn is_done(&self, i: usize) -> bool {
        self.state[i] == PairState::Done
    }

    /// Consumes pending pair `i` out of band (a demand miss fetched its
    /// block).
    fn consume(&mut self, i: usize) {
        if self.state[i] == PairState::Pending {
            let d = self.disk[i] as usize;
            self.disks[d].pending.clear(self.slot[i] as usize);
        }
        self.state[i] = PairState::Done;
    }

    /// Disk `d` is free at `cursor`: offers its released pairs inside
    /// the probe window to `issue`, in key order, until a batch is
    /// issued or a pair is blocked.
    fn drain(&mut self, d: usize, cursor: usize, mut issue: impl FnMut(usize) -> IssueOutcome) {
        let q = &mut self.disks[d];
        while let Some(&(release, s)) = q.by_release.get(q.released) {
            if release > cursor {
                break;
            }
            q.released += 1;
            let i = q.pairs[s as usize] as usize;
            if self.state[i] == PairState::Pending {
                self.state[i] = PairState::Ready;
                q.pending.clear(s as usize);
                q.ready.push(Reverse(s));
            }
        }
        if q.ready.is_empty() {
            return;
        }
        let window_end = q
            .pending
            .kth(2 * self.batch_size + 1)
            .map_or(u32::MAX, |s| s as u32);
        let mut issued = 0;
        while issued < self.batch_size {
            let Some(&Reverse(s)) = q.ready.peek() else {
                break;
            };
            if s > window_end {
                break;
            }
            let i = q.pairs[s as usize] as usize;
            if self.state[i] != PairState::Done {
                match issue(i) {
                    IssueOutcome::Issued => issued += 1,
                    IssueOutcome::Skipped => {}
                    // The pair keeps its place at the top of the heap.
                    IssueOutcome::Blocked => break,
                }
                self.state[i] = PairState::Done;
            }
            q.ready.pop();
        }
    }
}

/// The reverse aggressive policy.
pub struct ReverseAggressive {
    /// Pairs sorted by `key`.
    schedule: Vec<Pair>,
    /// The schedule's blocks, by the index its pairs use.
    blocks: Vec<BlockId>,
    /// Pending pair indexes per block (for demand misses), in CSR form:
    /// `by_block_idx[by_block_off[b] .. by_block_off[b + 1]]` lists block
    /// `b`'s pair indexes in key order.
    by_block_off: Vec<u32>,
    by_block_idx: Vec<u32>,
    /// Per block: consume cursor into its `by_block_idx` range. Entries
    /// behind the cursor are spent (popped by earlier demand misses).
    by_block_head: Vec<u32>,
    queues: ReplayQueues,
    /// The engine oracle's compact index of each schedule block, and the
    /// reverse map (`NONE32` for blocks the hints never disclose).
    /// Resolved on the first call, so issuing never hashes a block id.
    engine_idx: Vec<u32>,
    schedule_idx: Vec<u32>,
}

impl ReverseAggressive {
    /// Builds the offline schedule for `trace` under `config`.
    ///
    /// The fetch-time estimate F̂ is `config.reverse_fetch_estimate`
    /// compute-steps per fetch; the batch size is
    /// `config.reverse_batch_size`.
    pub fn new(trace: &Trace, config: &SimConfig) -> ReverseAggressive {
        let layout = Layout::striped(config.disks);
        let (schedule, blocks) = build_schedule(
            trace,
            layout,
            config.cache_blocks,
            config.reverse_fetch_estimate,
            config.reverse_batch_size,
            &config.hints,
        );
        assert!(
            schedule.len() <= u32::MAX as usize,
            "schedule too large for u32 pair indexes"
        );
        let disk_of: Vec<u32> = schedule
            .iter()
            .map(|p| layout.disk_of(blocks[p.block as usize]).index() as u32)
            .collect();
        // Count each block's pairs, prefix-sum into offsets, then scatter
        // the pair indexes into their ranges (schedule order is key
        // order, preserved within each block).
        let mut by_block_off: Vec<u32> = vec![0; blocks.len() + 1];
        for p in &schedule {
            by_block_off[p.block as usize + 1] += 1;
        }
        for b in 0..blocks.len() {
            by_block_off[b + 1] += by_block_off[b];
        }
        let by_block_head: Vec<u32> = by_block_off[..blocks.len()].to_vec();
        let mut write = by_block_head.clone();
        let mut by_block_idx: Vec<u32> = vec![0; schedule.len()];
        for (i, p) in schedule.iter().enumerate() {
            let w = &mut write[p.block as usize];
            by_block_idx[*w as usize] = i as u32;
            *w += 1;
        }
        ReverseAggressive {
            queues: ReplayQueues::new(&schedule, &disk_of, config.disks, config.reverse_batch_size),
            schedule,
            blocks,
            by_block_off,
            by_block_idx,
            by_block_head,
            engine_idx: Vec::new(),
            schedule_idx: Vec::new(),
        }
    }

    /// The constructed schedule (diagnostics, tests).
    pub fn schedule(&self) -> &[Pair] {
        &self.schedule
    }

    /// The blocks the schedule's pairs name, by index.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Resolves the schedule's blocks into `oracle`'s compact indices,
    /// once per run.
    fn bind(&mut self, oracle: &Oracle) {
        if self.schedule_idx.len() == oracle.num_blocks() {
            return;
        }
        self.engine_idx = self
            .blocks
            .iter()
            .map(|&b| {
                oracle
                    .index_of(b)
                    .expect("scheduled block outside the indexed universe")
            })
            .collect();
        self.schedule_idx = vec![NONE32; oracle.num_blocks()];
        for (b, &e) in self.engine_idx.iter().enumerate() {
            self.schedule_idx[e as usize] = b as u32;
        }
    }
}

/// Attempts to issue `pair`, repairing a stale eviction. `engine_idx`
/// maps schedule block indexes to the engine oracle's.
fn issue_pair(ctx: &mut Ctx<'_>, pair: &Pair, engine_idx: &[u32]) -> IssueOutcome {
    let idx = engine_idx[pair.block as usize];
    if ctx.cache.resident(idx) || ctx.cache.inflight(idx) {
        return IssueOutcome::Skipped; // already handled (e.g. demand fetch)
    }
    // Deviations from the planned schedule (demand consumption of an
    // earlier pair, eviction repair, an abandoned faulted fetch) can
    // leave a pair pending after the block's last disclosed use has
    // been served from residency. Issuing it then would fetch data
    // nothing will ever reference — wasted bandwidth mid-run, and a
    // fetch that never completes if it happens at the end of the run.
    if !ctx.oracle.occurs_at_or_after(idx, ctx.cursor) {
        return IssueOutcome::Skipped;
    }
    // Resolve the eviction: prefer the scheduled victim, fall back to
    // a free frame or the current furthest-future resident.
    let scheduled_evict = pair.evict.map(|e| engine_idx[e as usize]);
    let evict = match scheduled_evict {
        Some(e) if ctx.cache.resident(e) && Some(e) != ctx.cache.pinned() => Some(e),
        _ if ctx.cache.has_free_frame() => None,
        _ => match ctx.cache.furthest_resident(ctx.cursor, ctx.oracle) {
            Some((victim, _)) => Some(victim),
            // Every frame is in flight; keep the pair for later.
            None => return IssueOutcome::Blocked,
        },
    };
    ctx.issue_fetch_idx(idx, evict);
    IssueOutcome::Issued
}

impl Policy for ReverseAggressive {
    fn name(&self) -> &'static str {
        "reverse-aggressive"
    }

    fn decide(&mut self, ctx: &mut Ctx<'_>) {
        self.bind(ctx.oracle);
        for d in 0..ctx.config.disks {
            if !ctx.array.is_free(DiskId(d)) {
                continue;
            }
            let (schedule, engine_idx) = (&self.schedule, &self.engine_idx);
            self.queues
                .drain(d, ctx.cursor, |i| issue_pair(ctx, &schedule[i], engine_idx));
        }
    }

    fn on_miss(&mut self, ctx: &mut Ctx<'_>, block: BlockId) {
        let idx = ctx
            .oracle
            .index_of(block)
            .expect("demand-missed block outside the indexed universe");
        self.bind(ctx.oracle);
        // Consume the block's next scheduled pair, if any, then fetch.
        let b = self.schedule_idx[idx as usize];
        if b != NONE32 {
            let b = b as usize;
            let end = self.by_block_off[b + 1];
            let mut head = self.by_block_head[b];
            while head < end {
                let i = self.by_block_idx[head as usize] as usize;
                head += 1;
                if !self.queues.is_done(i) {
                    self.queues.consume(i);
                    break;
                }
            }
            self.by_block_head[b] = head;
        }
        demand_fetch_idx(ctx, idx);
    }
}

/// Runs the reverse pass and transforms it into the forward schedule.
/// Returns the pairs in key order and the blocks they name, by index.
fn build_schedule(
    trace: &Trace,
    layout: Layout,
    cache_blocks: usize,
    fetch_estimate: u64,
    batch_size: usize,
    hints: &crate::hints::HintSpec,
) -> (Vec<Pair>, Vec<BlockId>) {
    let n = trace.requests.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }
    // The offline pass only knows the disclosed references: reverse the
    // sequence, keeping only hinted positions (reverse index j maps to
    // forward index n-1-j).
    let mask = hints.mask(n);
    let entries: Vec<(usize, BlockId)> = (0..n)
        .filter(|&j| mask[n - 1 - j])
        .map(|j| (j, trace.requests[n - 1 - j].block))
        .collect();
    let rev_oracle = Oracle::from_positions(n, entries, layout);
    let (events, final_cache) = reverse_pass(&rev_oracle, cache_blocks, fetch_estimate, batch_size);

    // Transform reverse events into forward fetches and evictions. Each
    // position holds one block, so no two entries tie on their first
    // field and the index order sorts exactly as block ids would.
    let mut fetches: Vec<(usize, u32)> = Vec::new(); // (key, block)
    let mut evictions: Vec<(usize, u32)> = Vec::new(); // (release, block)
    for e in &events {
        // Reverse fetch of `fetched` serving reverse position `target`
        // -> forward eviction with release one past the corresponding
        // forward use.
        let release = n - e.target.min(n - 1);
        evictions.push((release, e.fetched));
        if let Some(ev) = e.evicted {
            // Reverse eviction -> forward fetch keyed by the evicted
            // block's most recent reverse use before the eviction point,
            // which is its next forward use after the fetch.
            if let Some(last_use) = rev_oracle.last_occurrence_before_idx(ev, e.cursor) {
                fetches.push((n - 1 - last_use, ev));
            }
            // No prior reverse use: the fetch would serve no forward
            // reference — drop it (reverse prefetch waste).
        }
    }
    // Blocks resident at reverse end: cold-start forward fetches keyed
    // by their first forward use (their last reverse one).
    for b in final_cache {
        if let Some(last) = rev_oracle.last_occurrence_before_idx(b, rev_oracle.len()) {
            fetches.push((n - 1 - last, b));
        }
    }

    fetches.sort_unstable();
    evictions.sort_unstable();

    // Match fetches to evictions in order; the first `cache_blocks`
    // fetches fill cold frames. Surplus evictions are dropped.
    let mut pairs: Vec<Pair> = Vec::with_capacity(fetches.len());
    let mut ev_iter = evictions.into_iter();
    for (i, (key, block)) in fetches.into_iter().enumerate() {
        let (evict, release) = if i < cache_blocks {
            (None, 0)
        } else {
            match ev_iter.next() {
                Some((release, e)) => (Some(e), release),
                None => (None, 0),
            }
        };
        pairs.push(Pair {
            block,
            key,
            evict,
            release,
        });
    }
    let blocks = (0..rev_oracle.num_blocks() as u32)
        .map(|i| rev_oracle.block_of(i))
        .collect();
    (pairs, blocks)
}

/// Simulates batched aggressive over the reversed sequence in the uniform
/// fetch-time model. Returns the issue events and the final cache
/// contents.
fn reverse_pass(
    oracle: &Oracle,
    cache_blocks: usize,
    fetch_time: u64,
    batch_size: usize,
) -> (Vec<RevEvent>, Vec<u32>) {
    /// Sentinel in `completion_of` for "no pending fetch".
    const NO_COMPLETION: u64 = u64::MAX;

    let n = oracle.len();
    let disks = oracle.layout().disks();
    let mut cache = Cache::new(cache_blocks, oracle.num_blocks());
    let mut missing = MissingTracker::new(oracle);
    let mut events: Vec<RevEvent> = Vec::new();

    let mut time: u64 = 0;
    let mut cursor: usize = 0;
    let mut busy_until: Vec<u64> = vec![0; disks];
    // Pending completions: (time, index), min-heap. The order among
    // equal times does not matter: the cache's eviction order is exact
    // whatever order blocks enter it in.
    let mut completions: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    // Pending completion time per compact index.
    let mut completion_of: Vec<u64> = vec![NO_COMPLETION; oracle.num_blocks()];

    // Applies all completions due by `time`.
    let advance = |time: u64,
                   completions: &mut BinaryHeap<Reverse<(u64, u32)>>,
                   completion_of: &mut Vec<u64>,
                   cache: &mut Cache,
                   cursor: usize| {
        while let Some(&Reverse((t, idx))) = completions.peek() {
            if t > time {
                break;
            }
            completions.pop();
            completion_of[idx as usize] = NO_COMPLETION;
            cache.complete_fetch(idx, cursor, oracle);
        }
    };

    // Per-disk working vectors for the batch-filling pass, hoisted out of
    // the per-reference loop.
    let mut budget: Vec<usize> = vec![0; disks];
    let mut from: Vec<usize> = vec![0; disks];

    // Fills batches on free disks, aggressive-style.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        oracle: &Oracle,
        cache: &mut Cache,
        missing: &mut MissingTracker,
        events: &mut Vec<RevEvent>,
        busy_until: &mut [u64],
        completions: &mut BinaryHeap<Reverse<(u64, u32)>>,
        completion_of: &mut [u64],
        budget: &mut [usize],
        from: &mut [usize],
        time: u64,
        cursor: usize,
        fetch_time: u64,
        batch_size: usize,
    ) {
        let disks = busy_until.len();
        for d in 0..disks {
            budget[d] = if busy_until[d] <= time { batch_size } else { 0 };
            from[d] = cursor;
        }
        loop {
            let mut best: Option<(usize, usize)> = None;
            for d in 0..disks {
                if budget[d] == 0 {
                    continue;
                }
                if let Some(p) = missing.first_missing_on_disk(d, from[d]) {
                    if best.is_none_or(|(bp, _)| p < bp) {
                        best = Some((p, d));
                    }
                }
            }
            let Some((pos, disk)) = best else { return };
            let idx = oracle
                .index_at(pos)
                .expect("missing-tracker positions are disclosed");
            let evict = if cache.has_free_frame() {
                None
            } else {
                match cache.furthest_resident(cursor, oracle) {
                    Some((victim, key)) if key > pos => Some(victim),
                    _ => return, // do no harm: stop entirely
                }
            };
            cache.start_fetch(idx, evict);
            missing.on_fetch_issued_idx(idx, cursor, oracle);
            if let Some(e) = evict {
                missing.on_evicted_idx(e, cursor, oracle);
            }
            let done = busy_until[disk].max(time) + fetch_time;
            busy_until[disk] = done;
            completions.push(Reverse((done, idx)));
            completion_of[idx as usize] = done;
            events.push(RevEvent {
                fetched: idx,
                evicted: evict,
                cursor,
                target: pos,
            });
            budget[disk] -= 1;
            from[disk] = pos + 1;
        }
    }

    for i in 0..n {
        // Undisclosed references are invisible to the offline planner:
        // they cost their compute step but trigger nothing.
        let Some(bi) = oracle.index_at(i) else {
            cursor = i + 1;
            time += 1;
            continue;
        };
        advance(
            time,
            &mut completions,
            &mut completion_of,
            &mut cache,
            cursor,
        );
        decide(
            oracle,
            &mut cache,
            &mut missing,
            &mut events,
            &mut busy_until,
            &mut completions,
            &mut completion_of,
            &mut budget,
            &mut from,
            time,
            cursor,
            fetch_time,
            batch_size,
        );
        if !cache.resident(bi) {
            if !cache.inflight(bi) {
                let b = oracle.block_of(bi);
                // Demand fetch with the best possible eviction.
                let evict = if cache.has_free_frame() {
                    None
                } else {
                    cache
                        .furthest_resident(cursor, oracle)
                        .map(|(victim, _)| victim)
                };
                let disk = oracle.disk_of(b).index();
                cache.start_fetch(bi, evict);
                missing.on_fetch_issued_idx(bi, cursor, oracle);
                if let Some(e) = evict {
                    missing.on_evicted_idx(e, cursor, oracle);
                }
                let done = busy_until[disk].max(time) + fetch_time;
                busy_until[disk] = done;
                completions.push(Reverse((done, bi)));
                completion_of[bi as usize] = done;
                events.push(RevEvent {
                    fetched: bi,
                    evicted: evict,
                    cursor,
                    target: i,
                });
            }
            let arrival = completion_of[bi as usize];
            assert_ne!(arrival, NO_COMPLETION, "stalled block has a pending fetch");
            time = time.max(arrival);
            advance(
                time,
                &mut completions,
                &mut completion_of,
                &mut cache,
                cursor,
            );
        }
        cache.on_reference(bi, i, oracle);
        cursor = i + 1;
        time += 1;
    }

    (events, cache.resident_indices().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskModelKind;
    use crate::engine::{simulate, simulate_with};
    use crate::policy::PolicyKind;
    use parcache_trace::Request;
    use parcache_types::Nanos;
    use std::collections::VecDeque;

    fn trace_of(blocks: &[u64], cache: usize) -> Trace {
        Trace::new(
            "t",
            blocks
                .iter()
                .map(|&b| Request {
                    block: BlockId(b),
                    compute: Nanos::from_millis(1),
                })
                .collect(),
            cache,
        )
    }

    fn cfg(disks: usize, cache: usize, fetch_ms: u64) -> SimConfig {
        let mut c = SimConfig::new(disks, cache);
        c.disk_model = DiskModelKind::Uniform(Nanos::from_millis(fetch_ms));
        c.driver_overhead = Nanos::ZERO;
        c.reverse_fetch_estimate = fetch_ms;
        c.reverse_batch_size = 4;
        c
    }

    #[test]
    fn schedule_covers_every_distinct_block() {
        let blocks: Vec<u64> = (0..20).chain(0..20).collect();
        let t = trace_of(&blocks, 8);
        let c = cfg(2, 8, 3);
        let p = ReverseAggressive::new(&t, &c);
        let scheduled: std::collections::HashSet<BlockId> = p
            .schedule()
            .iter()
            .map(|q| p.blocks()[q.block as usize])
            .collect();
        for b in 0..20u64 {
            assert!(scheduled.contains(&BlockId(b)), "block {b} unscheduled");
        }
    }

    #[test]
    fn schedule_keys_are_sorted() {
        let blocks: Vec<u64> = (0..30).chain((0..30).rev()).collect();
        let t = trace_of(&blocks, 10);
        let c = cfg(3, 10, 4);
        let p = ReverseAggressive::new(&t, &c);
        let keys: Vec<usize> = p.schedule().iter().map(|q| q.key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn replay_serves_everything() {
        let blocks: Vec<u64> = (0..40).map(|i| (i * 7) % 15).collect();
        let t = trace_of(&blocks, 6);
        let c = cfg(2, 6, 5);
        let mut p = ReverseAggressive::new(&t, &c);
        let r = simulate_with(&t, &mut p, &c);
        assert_eq!(r.elapsed, r.compute + r.driver + r.stall);
        assert!(r.fetches >= 15, "fetches {}", r.fetches);
    }

    #[test]
    fn competitive_with_aggressive_on_balanced_load() {
        // On a balanced striped sequential load, reverse aggressive should
        // be in the same league as aggressive (paper: never much better,
        // rarely much worse).
        let blocks: Vec<u64> = (0..60).collect();
        let t = trace_of(&blocks, 16);
        let c = cfg(2, 16, 4);
        let agg = simulate(&t, PolicyKind::Aggressive, &c);
        let rev = simulate(&t, PolicyKind::ReverseAggressive, &c);
        let ratio = rev.elapsed.as_nanos() as f64 / agg.elapsed.as_nanos() as f64;
        assert!(
            ratio < 1.3,
            "reverse {} vs aggressive {}",
            rev.elapsed,
            agg.elapsed
        );
    }

    #[test]
    fn beats_demand_fetching() {
        let blocks: Vec<u64> = (0..50).collect();
        let t = trace_of(&blocks, 10);
        let c = cfg(2, 10, 6);
        let demand = simulate(&t, PolicyKind::Demand, &c);
        let rev = simulate(&t, PolicyKind::ReverseAggressive, &c);
        assert!(rev.elapsed < demand.elapsed);
    }

    /// Reference replay queues: a `VecDeque` per disk, scanned in key
    /// order at every decision point, with a memo that skips a rescan
    /// proven to do nothing. [`ReplayQueues`] must reproduce its offers
    /// exactly.
    struct ScanQueues {
        consumed: Vec<bool>,
        per_disk: Vec<VecDeque<usize>>,
        releases: Vec<usize>,
        pair_disk: Vec<u32>,
        batch_size: usize,
        requeue: Vec<usize>,
        scan_dirty: Vec<bool>,
        next_release: Vec<usize>,
    }

    impl ScanQueues {
        fn new(schedule: &[Pair], disk_of: &[u32], disks: usize, batch_size: usize) -> ScanQueues {
            let mut per_disk: Vec<VecDeque<usize>> = vec![VecDeque::new(); disks];
            for (i, &d) in disk_of.iter().enumerate() {
                per_disk[d as usize].push_back(i);
            }
            ScanQueues {
                consumed: vec![false; schedule.len()],
                per_disk,
                releases: schedule.iter().map(|p| p.release).collect(),
                pair_disk: disk_of.to_vec(),
                batch_size,
                requeue: Vec::new(),
                scan_dirty: vec![true; disks],
                next_release: vec![0; disks],
            }
        }

        fn is_done(&self, i: usize) -> bool {
            self.consumed[i]
        }

        fn consume(&mut self, i: usize) {
            self.consumed[i] = true;
            self.scan_dirty[self.pair_disk[i] as usize] = true;
        }

        fn drain(&mut self, d: usize, cursor: usize, mut issue: impl FnMut(usize) -> IssueOutcome) {
            if !self.scan_dirty[d] && cursor < self.next_release[d] {
                return;
            }
            let mut issued = 0;
            let mut mutated = false;
            let mut min_release = usize::MAX;
            self.requeue.clear();
            while issued < self.batch_size {
                let Some(i) = self.per_disk[d].pop_front() else {
                    break;
                };
                if self.consumed[i] {
                    mutated = true;
                    continue;
                }
                if self.releases[i] > cursor {
                    self.requeue.push(i);
                    min_release = min_release.min(self.releases[i]);
                    if self.requeue.len() > 2 * self.batch_size {
                        break;
                    }
                    continue;
                }
                match issue(i) {
                    IssueOutcome::Issued => {
                        self.consumed[i] = true;
                        issued += 1;
                        mutated = true;
                    }
                    IssueOutcome::Skipped => {
                        self.consumed[i] = true;
                        mutated = true;
                    }
                    IssueOutcome::Blocked => {
                        self.requeue.push(i);
                        mutated = true;
                        break;
                    }
                }
            }
            for j in (0..self.requeue.len()).rev() {
                let i = self.requeue[j];
                self.per_disk[d].push_front(i);
            }
            if !mutated {
                self.scan_dirty[d] = false;
                self.next_release[d] = min_release;
            }
        }
    }

    #[test]
    fn replay_queues_issue_what_the_deque_scan_issued() {
        // Random schedules (near-sorted and scattered releases, 1-4
        // disks, batch 1-5) replayed over a rising cursor with random
        // free disks, random issue outcomes (blocked pairs included) and
        // random out-of-band consumption: both queues must offer the
        // same pairs in the same order and agree on what is done.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x5eed_0e1d);
        for case in 0..400 {
            let len = rng.gen_range(0usize..=80);
            let disks = rng.gen_range(1usize..=4);
            let batch = rng.gen_range(1usize..=5);
            let scatter = rng.gen_range(0usize..=30);
            let schedule: Vec<Pair> = (0..len)
                .map(|k| Pair {
                    block: 0,
                    key: k,
                    evict: None,
                    release: (k + rng.gen_range(0..=scatter)).saturating_sub(scatter / 2),
                })
                .collect();
            let disk_of: Vec<u32> = (0..len).map(|_| rng.gen_range(0..disks) as u32).collect();
            let mut fast = ReplayQueues::new(&schedule, &disk_of, disks, batch);
            let mut slow = ScanQueues::new(&schedule, &disk_of, disks, batch);
            let mut outcomes = parcache_types::rng::Rng::seed_from_u64(case);
            let (mut log_fast, mut log_slow) = (Vec::new(), Vec::new());
            for cursor in 0..len + scatter + 2 {
                for _ in 0..rng.gen_range(0usize..3) {
                    if len > 0 && rng.gen_bool(0.3) {
                        let i = rng.gen_range(0..len);
                        assert_eq!(fast.is_done(i), slow.is_done(i), "case {case} pair {i}");
                        if !fast.is_done(i) {
                            fast.consume(i);
                            slow.consume(i);
                        }
                    }
                    let d = rng.gen_range(0..disks);
                    // One draw per offer, shared by both queues: equal
                    // offer sequences see equal outcomes.
                    let seed = outcomes.next_u64();
                    for (q, log) in [(0, &mut log_fast), (1, &mut log_slow)] {
                        let mut draw = parcache_types::rng::Rng::seed_from_u64(seed);
                        let offer = |i: usize| {
                            let o = match draw.gen_range(0u64..10) {
                                0..=5 => IssueOutcome::Issued,
                                6..=8 => IssueOutcome::Skipped,
                                _ => IssueOutcome::Blocked,
                            };
                            log.push((cursor, d, i, o));
                            o
                        };
                        if q == 0 {
                            fast.drain(d, cursor, offer);
                        } else {
                            slow.drain(d, cursor, offer);
                        }
                    }
                    assert_eq!(log_fast, log_slow, "case {case} at cursor {cursor}");
                }
            }
            for i in 0..len {
                assert_eq!(fast.is_done(i), slow.is_done(i), "case {case} pair {i}");
            }
        }
    }

    #[test]
    fn fenwick_kth_matches_a_scan() {
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x5eed_fe11);
        for len in 0..40 {
            let mut f = Fenwick::full(len);
            let mut set = vec![true; len];
            for _ in 0..len {
                let s = rng.gen_range(0..len);
                if set[s] {
                    set[s] = false;
                    f.clear(s);
                }
                for k in 0..=len + 1 {
                    let want = (0..len).filter(|&s| set[s]).nth(k.wrapping_sub(1));
                    assert_eq!(
                        f.kth(k),
                        if k == 0 { None } else { want },
                        "len {len} k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn last_occurrence_before_works() {
        let t = trace_of(&[1, 2, 1, 3, 1], 4);
        let o = Oracle::new(&t, Layout::striped(1));
        assert_eq!(o.last_occurrence_before(BlockId(1), 5), Some(4));
        assert_eq!(o.last_occurrence_before(BlockId(1), 4), Some(2));
        assert_eq!(o.last_occurrence_before(BlockId(1), 1), Some(0));
        assert_eq!(o.last_occurrence_before(BlockId(1), 0), None);
        assert_eq!(o.last_occurrence_before(BlockId(9), 5), None);
    }

    #[test]
    fn last_occurrence_before_matches_naive_scan() {
        // Property test: the binary-searched answer must equal a naive
        // backward scan over fuzzer-style randomized traces.
        let mut rng = parcache_types::rng::Rng::seed_from_u64(0x5eed_1996);
        for case in 0..200 {
            let len = rng.gen_range(1usize..=60);
            let universe = rng.gen_range(1u64..=20);
            let blocks: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..universe)).collect();
            let t = trace_of(&blocks, 4);
            let o = Oracle::new(&t, Layout::striped(rng.gen_range(1usize..=4)));
            for before in 0..=len {
                for b in 0..universe {
                    let naive = (0..before).rev().find(|&i| blocks[i] == b);
                    assert_eq!(
                        o.last_occurrence_before(BlockId(b), before),
                        naive,
                        "case {case}: block {b} before {before} in {blocks:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_trace_yields_empty_schedule() {
        let t = trace_of(&[], 4);
        let c = cfg(1, 4, 2);
        let p = ReverseAggressive::new(&t, &c);
        assert!(p.schedule().is_empty());
    }

    #[test]
    fn stall_is_charged_to_late_prefetches() {
        // Pinned stall provenance: reverse aggressive's forward replay
        // issues every block's fetch from its precomputed schedule, and
        // on an I/O-bound single-disk scan the app only ever catches up
        // to a fetch already on the platter. All stall is a prefetch
        // that was merely late — none of it a missing or evicted fetch.
        use crate::probe::StallCause;
        let blocks: Vec<u64> = (0..30).collect();
        let t = trace_of(&blocks, 8);
        let c = cfg(1, 8, 4);
        let mut p = ReverseAggressive::new(&t, &c);
        let r = simulate_with(&t, &mut p, &c);
        assert!(r.stall > Nanos::ZERO);
        assert_eq!(r.stall_by_cause.get(StallCause::LatePrefetch), r.stall);
        assert_eq!(r.stall_by_cause.total(), r.stall);
    }
}
