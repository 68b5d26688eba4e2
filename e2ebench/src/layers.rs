//! Per-layer probes of the traced run.
//!
//! Each probe calls one layer's public function on the inputs the
//! workload itself uses (its traces at its array sizes), inside a span
//! named after that function. Layers that run inside `simulate` —
//! oracle construction, reverse aggressive's schedule, the predictor
//! pre-pass, the cache, the missing-block index, the disk array — are
//! timed by a separate call here, so their per-layer figures are
//! estimates of the share they take inside a cell.

use crate::spans::Tracer;
use crate::workload::{Plan, Workload, GRID_DISKS, WRITE_BEHIND_PERIOD};
use parcache_core::algs::reverse::ReverseAggressive;
use parcache_core::cache::{Cache, MissingTracker};
use parcache_core::oracle::Oracle;
use parcache_core::predict::{predicted_oracle, DEFAULT_EPOCH};
use parcache_core::{
    simulate, simulate_probed, Event, HintMode, PolicyKind, PredictorKind, Report, SimConfig,
};
use parcache_disk::{Discipline, DiskArray, Hp97560, Layout};
use parcache_types::Nanos;
use std::hint::black_box;
use std::time::Instant;

/// Runs `f` in a span named `name` under `parent`, returning its output
/// and its wall time in nanoseconds.
fn timed<T>(tracer: &Tracer, name: &str, parent: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let mut ns = 0;
    let out = tracer.span(name, Some(parent), |_| {
        let t0 = Instant::now();
        let out = f();
        ns = t0.elapsed().as_nanos() as u64;
        out
    });
    (out, ns)
}

/// `num ÷ den`, or 0 when there is nothing to divide by.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every (trace index, array size) pair the workload runs.
fn pairs(plan: &Plan) -> Vec<(usize, usize)> {
    plan.disks
        .iter()
        .enumerate()
        .flat_map(|(i, ds)| ds.iter().map(move |&d| (i, d)))
        .collect()
}

/// The probes' configuration for a (trace, disks) pair under `hints`:
/// the paper's defaults plus the workload's write-behind.
fn probe_config(plan: &Plan, trace: usize, disks: usize, hints: HintMode) -> SimConfig {
    let cfg = SimConfig::for_trace(disks, &plan.traces[trace]).with_hint_mode(hints);
    match plan.workload {
        Workload::PredictedWrites => cfg.with_write_behind(WRITE_BEHIND_PERIOD),
        Workload::AppendixA | Workload::EngineStress => cfg,
    }
}

/// The hint sources the workload's cells use, in first-use order.
fn hint_modes(plan: &Plan) -> Vec<HintMode> {
    let mut modes: Vec<HintMode> = Vec::new();
    for c in &plan.cells {
        if !modes.contains(&c.config.hint_mode) {
            modes.push(c.config.hint_mode);
        }
    }
    modes
}

/// `oracle.build_ns_per_ref`: `Oracle::new` per reference.
pub fn oracle(plan: &Plan, tracer: &Tracer, parent: u64) -> f64 {
    let (mut ns, mut refs) = (0u64, 0u64);
    for (i, d) in pairs(plan) {
        let t = &plan.traces[i];
        let (o, dt) = timed(tracer, "oracle::Oracle::new", parent, || {
            Oracle::new(t, Layout::striped(d))
        });
        black_box(o);
        ns += dt;
        refs += t.requests.len() as u64;
    }
    per(ns as f64, refs as f64)
}

/// Reverse aggressive's costs per reference: building its offline
/// schedule, and a whole simulation with the default parameters.
pub struct ReverseCost {
    /// `ReverseAggressive::new` per reference.
    pub schedule_ns_per_ref: f64,
    /// `simulate` under reverse aggressive per reference.
    pub ns_per_ref: f64,
}

/// `reverse.*`: the schedule build and the simulation, per pair.
pub fn reverse(plan: &Plan, tracer: &Tracer, parent: u64) -> ReverseCost {
    let (mut sched, mut sim, mut refs) = (0u64, 0u64, 0u64);
    for (i, d) in pairs(plan) {
        let t = &plan.traces[i];
        // Reverse aggressive is an offline algorithm: oracle hints.
        let cfg = probe_config(plan, i, d, HintMode::Oracle);
        let (r, dt) = timed(tracer, "algs::ReverseAggressive::new", parent, || {
            ReverseAggressive::new(t, &cfg)
        });
        black_box(r);
        sched += dt;
        let (r, dt) = timed(tracer, "engine::simulate", parent, || {
            simulate(t, PolicyKind::ReverseAggressive, &cfg)
        });
        black_box(r);
        sim += dt;
        refs += t.requests.len() as u64;
    }
    ReverseCost {
        schedule_ns_per_ref: per(sched as f64, refs as f64),
        ns_per_ref: per(sim as f64, refs as f64),
    }
}

/// What the engine probe measured: one row per (policy, array size) of
/// [`GRID_DISKS`], and event counts over the whole grid.
pub struct EngineCost {
    /// `(policy, disks, ns per reference)`.
    pub rows: Vec<(PolicyKind, usize, f64)>,
    /// Unprobed simulation time per probe event.
    pub ns_per_event: f64,
    /// Probe events per reference.
    pub events_per_ref: f64,
    /// Policy decision points per reference.
    pub decisions_per_ref: f64,
    /// Cache hits ÷ (hits + misses).
    pub hit_frac: f64,
    /// Evictions per reference.
    pub evictions_per_ref: f64,
    /// `((trace, disks, hints), policy, fetches)` of every grid
    /// simulation, for the excess-fetch ratio.
    pub fetches: Vec<(FetchKey, PolicyKind, u64)>,
}

/// `engine.*` and the cache counters: every policy at 1, 4 and 16 disks
/// over the workload's traces under each of its hint sources, once
/// unprobed (timed) and once with an event-counting probe (counted;
/// counts are deterministic). Under predicted hints the timed
/// simulation includes the pre-pass, which [`predict`] measures alone.
pub fn engine(plan: &Plan, tracer: &Tracer, parent: u64) -> EngineCost {
    let mut rows = Vec::new();
    let (mut total_ns, mut total_refs) = (0u64, 0u64);
    let (mut events, mut decisions, mut hits, mut misses, mut evictions) = (0u64, 0, 0, 0, 0);
    let mut fetches = Vec::new();
    let modes = hint_modes(plan);
    for kind in PolicyKind::ALL {
        for d in GRID_DISKS {
            let (mut ns, mut refs) = (0u64, 0u64);
            for (i, t) in plan.traces.iter().enumerate() {
                for &hints in &modes {
                    let cfg = probe_config(plan, i, d, hints);
                    let (report, dt) = timed(tracer, "engine::simulate", parent, || {
                        simulate(t, kind, &cfg)
                    });
                    ns += dt;
                    refs += t.requests.len() as u64;
                    fetches.push(((i, d, hints.name()), kind, report.fetches));
                    let mut count = |e: &Event| {
                        events += 1;
                        match e {
                            Event::PolicyDecision { .. } => decisions += 1,
                            Event::CacheHit { .. } => hits += 1,
                            Event::CacheMiss { .. } => misses += 1,
                            Event::Eviction { .. } => evictions += 1,
                            _ => {}
                        }
                    };
                    let probed = simulate_probed(t, kind, &cfg, &mut count);
                    assert_eq!(probed, report, "a probe must not change the simulation");
                }
            }
            rows.push((kind, d, per(ns as f64, refs as f64)));
            total_ns += ns;
            total_refs += refs;
        }
    }
    let refs = total_refs as f64;
    EngineCost {
        rows,
        ns_per_event: per(total_ns as f64, events as f64),
        events_per_ref: per(events as f64, refs),
        decisions_per_ref: per(decisions as f64, refs),
        hit_frac: per(hits as f64, (hits + misses) as f64),
        evictions_per_ref: per(evictions as f64, refs),
        fetches,
    }
}

/// What a fetch count is compared at: (trace, disks, hint source).
pub type FetchKey = (usize, usize, &'static str);

/// One operation on the missing-block index, as a policy issues it.
#[derive(Clone, Copy)]
enum MissingOp {
    FetchIssued(u32, usize),
    Evicted(u32, usize),
    FirstMissing(usize),
    FirstMissingOnDisk(usize, usize),
}

/// Cache and missing-index costs.
pub struct CacheCost {
    /// Demand paging with Belady eviction, `Cache` driven directly, per
    /// reference.
    pub belady_ns_per_ref: f64,
    /// `MissingTracker` per operation, replaying the operations that
    /// demand paging issues.
    pub missing_ns_per_op: f64,
}

/// `cache.belady_ns_per_ref` and `missing.ns_per_op`: for each pair,
/// replay the trace as demand paging with Belady eviction against a
/// `Cache`, logging the missing-index operations a policy would issue
/// alongside (a query per reference, an update per fetch and eviction);
/// then replay that log alone against a fresh `MissingTracker`.
pub fn cache(plan: &Plan, tracer: &Tracer, parent: u64) -> CacheCost {
    let (mut cache_ns, mut refs, mut missing_ns, mut ops) = (0u64, 0u64, 0u64, 0u64);
    for (i, d) in pairs(plan) {
        let t = &plan.traces[i];
        let oracle = Oracle::new(t, Layout::striped(d));
        let (log, dt) = timed(tracer, "cache::Cache", parent, || {
            let mut log = Vec::with_capacity(3 * t.requests.len());
            let mut c = Cache::new(t.cache_blocks, oracle.num_blocks());
            for pos in 0..oracle.len() {
                let idx = oracle
                    .index_at(pos)
                    .expect("full oracle indexes every reference");
                log.push(MissingOp::FirstMissing(pos));
                if !c.resident(idx) {
                    let evict = if c.has_free_frame() {
                        None
                    } else {
                        c.furthest_resident(pos, &oracle).map(|(e, _)| e)
                    };
                    c.start_fetch(idx, evict);
                    log.push(MissingOp::FetchIssued(idx, pos));
                    if let Some(e) = evict {
                        log.push(MissingOp::Evicted(e, pos));
                    }
                    c.complete_fetch(idx, pos, &oracle);
                    let disk = oracle.disk_of(oracle.block_of(idx)).index();
                    log.push(MissingOp::FirstMissingOnDisk(disk, pos));
                }
                c.on_reference(idx, pos, &oracle);
            }
            black_box(c.resident_count());
            log
        });
        cache_ns += dt;
        refs += t.requests.len() as u64;
        let ((), dt) = timed(tracer, "cache::MissingTracker", parent, || {
            let mut m = MissingTracker::new(&oracle);
            for &op in &log {
                match op {
                    MissingOp::FetchIssued(idx, pos) => m.on_fetch_issued_idx(idx, pos, &oracle),
                    MissingOp::Evicted(idx, pos) => m.on_evicted_idx(idx, pos, &oracle),
                    MissingOp::FirstMissing(pos) => {
                        black_box(m.first_missing(pos));
                    }
                    MissingOp::FirstMissingOnDisk(disk, pos) => {
                        black_box(m.first_missing_on_disk(disk, pos));
                    }
                }
            }
            black_box(m.len());
        });
        missing_ns += dt;
        ops += log.len() as u64;
    }
    CacheCost {
        belady_ns_per_ref: per(cache_ns as f64, refs as f64),
        missing_ns_per_op: per(missing_ns as f64, ops as f64),
    }
}

/// Requests outstanding per drive in the disk probe's closed loop: one
/// in service and one queued, so CSCAN always has a choice to make.
const DISK_QUEUE_PER_DRIVE: usize = 2;

/// `disk.ns_per_request`: a `DiskArray` of HP 97560 drives under CSCAN
/// driven directly, for each pair: the trace's blocks are read in order
/// in a closed loop (plus, under write-behind, a flush of the just-read
/// block every fourth read), and each request costs one enqueue and one
/// completion.
pub fn disk(plan: &Plan, tracer: &Tracer, parent: u64) -> f64 {
    let write_every = match plan.workload {
        Workload::PredictedWrites => Some(WRITE_BEHIND_PERIOD),
        Workload::AppendixA | Workload::EngineStress => None,
    };
    let (mut ns, mut requests) = (0u64, 0u64);
    for (i, d) in pairs(plan) {
        let t = &plan.traces[i];
        let flushes_after = |n: usize| write_every.is_some_and(|p| (n + 1).is_multiple_of(p));
        let stream = t.requests.iter().enumerate().flat_map(|(n, r)| {
            std::iter::once((r.block, false)).chain(flushes_after(n).then_some((r.block, true)))
        });
        let (served, dt) = timed(tracer, "disk::DiskArray", parent, || {
            let mut array = DiskArray::new(d, Discipline::Cscan, |_| Box::new(Hp97560::new()));
            let (mut now, mut outstanding, mut served) = (Nanos::ZERO, 0usize, 0u64);
            // Completes the earliest request; returns its completion time.
            let complete_one = |array: &mut DiskArray| {
                let (at, disk) = array.next_event().expect("outstanding requests complete");
                black_box(array.complete(at, disk));
                at
            };
            for (block, write) in stream {
                if outstanding == DISK_QUEUE_PER_DRIVE * d {
                    now = complete_one(&mut array);
                    outstanding -= 1;
                }
                let accepted = if write {
                    array.enqueue_write(now, block)
                } else {
                    array.enqueue(now, block)
                };
                assert!(
                    !accepted.is_rejected(),
                    "healthy drives accept every request"
                );
                outstanding += 1;
                served += 1;
            }
            for _ in 0..outstanding {
                complete_one(&mut array);
            }
            served
        });
        ns += dt;
        requests += served;
    }
    per(ns as f64, requests as f64)
}

/// The predictor pre-pass, per source.
pub struct PredictCost {
    /// `(source, ns per reference)`.
    pub prepass_ns_per_ref: Vec<(PredictorKind, f64)>,
    /// Pre-pass time of each (trace, disks, source), for the share of
    /// cell time it takes.
    pub prepass_ns: Vec<(usize, usize, PredictorKind, u64)>,
    /// Correct ÷ predicted, over every pre-pass.
    pub precision: f64,
    /// Correct ÷ references, over every pre-pass.
    pub recall: f64,
}

/// `predict.*`: `predicted_oracle` for every source over every pair.
pub fn predict(plan: &Plan, tracer: &Tracer, parent: u64) -> PredictCost {
    let mut rows = Vec::new();
    let mut prepass_ns = Vec::new();
    let (mut predicted, mut correct, mut references) = (0u64, 0u64, 0u64);
    for kind in PredictorKind::ALL {
        let (mut ns, mut refs) = (0u64, 0u64);
        for (i, d) in pairs(plan) {
            let t = &plan.traces[i];
            let ((oracle, stats), dt) = timed(tracer, "predict::predicted_oracle", parent, || {
                let mut source = kind.build();
                predicted_oracle(t, Layout::striped(d), source.as_mut(), DEFAULT_EPOCH)
            });
            black_box(oracle);
            ns += dt;
            refs += t.requests.len() as u64;
            prepass_ns.push((i, d, kind, dt));
            predicted += stats.predicted;
            correct += stats.correct;
            references += stats.references;
        }
        rows.push((kind, per(ns as f64, refs as f64)));
    }
    PredictCost {
        prepass_ns_per_ref: rows,
        prepass_ns,
        precision: per(correct as f64, predicted as f64),
        recall: per(correct as f64, references as f64),
    }
}

/// 1 − demand fetches ÷ policy fetches, over every prefetching policy
/// run that has a demand run at the same (trace, disks, hints) key.
pub fn excess_fetch_frac<K: PartialEq>(runs: &[(K, PolicyKind, u64)]) -> f64 {
    let (mut demand, mut policy) = (0u64, 0u64);
    for (key, kind, fetches) in runs {
        if *kind == PolicyKind::Demand {
            continue;
        }
        if let Some((_, _, base)) = runs
            .iter()
            .find(|(k, p, _)| k == key && *p == PolicyKind::Demand)
        {
            demand += base;
            policy += fetches;
        }
    }
    1.0 - per(demand as f64, policy as f64)
}

/// Disk and stall figures of one round's reports.
pub struct ReportFigures {
    /// Mean per-disk utilization, averaged over cells.
    pub disk_util: f64,
    /// Mean service time per served request, in ms.
    pub avg_fetch_ms: f64,
    /// Write-behind flushes per reference.
    pub writes_per_ref: f64,
    /// Share of stall per cause: late prefetch, congestion, no prefetch,
    /// eviction refetch.
    pub stall_fracs: [f64; 4],
}

/// Folds the disk and stall figures out of `reports` (cells without a
/// report skipped).
pub fn report_figures(reports: &[Option<&Report>], refs: u64) -> ReportFigures {
    let (mut util, mut service, mut served, mut writes) = (0.0, 0u64, 0u64, 0u64);
    let mut causes = [0u64; 4];
    let (mut stall, mut cells) = (0u64, 0usize);
    for r in reports.iter().flatten() {
        cells += 1;
        util += r.avg_disk_utilization;
        for d in &r.per_disk {
            service += d.total_service.as_nanos();
            served += d.served;
        }
        writes += r.writes;
        let s = &r.stall_by_cause;
        for (acc, t) in causes.iter_mut().zip([
            s.late_prefetch,
            s.congestion,
            s.no_prefetch,
            s.eviction_refetch,
        ]) {
            *acc += t.as_nanos();
        }
        stall += r.stall.as_nanos();
    }
    ReportFigures {
        disk_util: per(util, cells as f64),
        avg_fetch_ms: per(service as f64, served as f64) / 1e6,
        writes_per_ref: per(writes as f64, refs as f64),
        stall_fracs: causes.map(|c| per(c as f64, stall as f64)),
    }
}
