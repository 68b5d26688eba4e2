//! The two kinds of run: the timed run (tracing off) that measures the
//! end-to-end metrics, and the traced run that measures every layer.

use crate::check::{check_digest, check_round, GOLDEN_SEED};
use crate::layers::{self, per, FetchKey};
use crate::spans::{Span, Tracer};
use crate::workload::{isolated, Plan, Run, Workload, THREADS};
use parcache_bench::{
    paper_elapsed, run_indexed_measured, sha256_hex, sweep_csv, CellRow, WorkerStats,
};
use parcache_core::{HintMode, PolicyKind, Report};
use std::time::Instant;

/// Set-ups measured per run. `setup_s` is their median, and with 21
/// samples the median has ten on either side of it.
pub const SETUP_REPS: usize = 21;

/// One named, unit-carrying figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// What a run produced.
pub struct Outcome {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Cells run (every round counts).
    pub attempted: u64,
    /// Cells whose report failed a check.
    pub failed: u64,
    /// Check failures (the first few cells, and the digest).
    pub errors: Vec<String>,
    /// Extra figures for the record: round count and walls, and the
    /// comparison with the paper. A JSON object.
    pub info: String,
    /// The traced run's spans.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Check bookkeeping across rounds: each round is checked on its own,
/// and must reproduce the first round's reports exactly; so must the
/// audited pass after the rounds.
#[derive(Default)]
struct Rounds {
    first: Option<Vec<Result<Report, String>>>,
    walls: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// What the audited pass found beside its checks.
struct Audit {
    wall_s: f64,
    orphan_cells: usize,
}

/// Check failures kept verbatim; the rest are only counted.
const MAX_ERRORS: usize = 8;

impl Rounds {
    /// Checks one round's results and counts them as attempted.
    fn check(&mut self, plan: &Plan, results: Vec<Result<Report, String>>) {
        let verdicts = check_round(plan, &results);
        for (i, verdict) in verdicts.into_iter().enumerate() {
            let verdict = verdict.and_then(|()| match &self.first {
                Some(first) if first[i] != results[i] => {
                    Err(format!("cell {i} differs from the first round's report"))
                }
                _ => Ok(()),
            });
            self.attempted += 1;
            if let Err(e) = verdict {
                self.failed += 1;
                if self.errors.len() < MAX_ERRORS {
                    self.errors.push(e);
                }
            }
        }
        if self.first.is_none() {
            self.first = Some(results);
        }
    }

    /// [`Rounds::check`] for a timed round that took `wall` seconds.
    fn record(&mut self, plan: &Plan, results: Vec<Result<Report, String>>, wall: f64) {
        self.check(plan, results);
        self.walls.push(wall);
    }

    /// The audited pass: every cell once more with the simulator's
    /// audit on (outside the timed rounds). Its wall time in seconds, and
    /// the cells that left never-referenced prefetches in flight.
    fn audit(&mut self, plan: &Plan) -> Audit {
        let t0 = Instant::now();
        let results = plan.audit_round();
        let orphan_cells = results
            .iter()
            .filter(|r| r.as_ref().is_ok_and(|&(_, orphans)| orphans > 0))
            .count();
        self.check(
            plan,
            results
                .into_iter()
                .map(|r| r.map(|(report, _)| report))
                .collect(),
        );
        Audit {
            wall_s: t0.elapsed().as_secs_f64(),
            orphan_cells,
        }
    }

    /// The first round's reports, index-aligned with the plan's cells
    /// (`None` for a cell without one).
    fn reports(&self) -> Vec<Option<&Report>> {
        self.first
            .iter()
            .flatten()
            .map(|r| r.as_ref().ok())
            .collect()
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q` quantile of `xs`, or `None` when fewer than ten
/// samples lie beyond it (so a percentile never rests on one or two
/// samples).
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).max(1);
    (v.len() >= rank + 10).then(|| v[rank - 1])
}

/// One set-up, timed: the plan and its wall time in seconds. With a
/// tracer the set-up is a root span `setup` with the trace generations
/// as its children.
fn set_up(workload: Workload, seed: u64, tracer: Option<&Tracer>) -> (Plan, f64) {
    let t0 = Instant::now();
    let plan = match tracer {
        Some(t) => t.span("setup", None, |id| {
            Plan::setup(workload, seed, Some((t, id)))
        }),
        None => Plan::setup(workload, seed, None),
    };
    (plan, t0.elapsed().as_secs_f64())
}

/// [`SETUP_REPS`] more set-ups after the rounds, their wall times in
/// seconds. They run once the allocator has warmed up: the process's
/// first set-ups also pay for growing the heap, which varies run to run
/// with the allocator's adaptive thresholds rather than with the code.
fn set_up_repeatedly(workload: Workload, seed: u64, tracer: Option<&Tracer>) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| set_up(workload, seed, tracer).1)
        .collect()
}

/// Whether to start another round: only if, at the mean round time so
/// far, it would end nearer to `seconds` after `start` than stopping now.
fn another_round(start: Instant, walls: &[f64], seconds: f64) -> bool {
    let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
    start.elapsed().as_secs_f64() + mean / 2.0 < seconds
}

fn timed_round(plan: &Plan) -> (Vec<Result<Report, String>>, f64) {
    let t0 = Instant::now();
    let results = plan.run_round();
    (results, t0.elapsed().as_secs_f64())
}

/// Appendix-A at the golden seed: the CSV of the first round must hash
/// to the committed digest.
fn digest_error(plan: &Plan, rounds: &Rounds) -> Option<String> {
    if plan.workload != Workload::AppendixA || plan.seed != GOLDEN_SEED {
        return None;
    }
    let first = rounds.first.as_ref()?;
    let rows: Option<Vec<CellRow>> = plan
        .sweep_cells
        .iter()
        .zip(first)
        .map(|(cell, r)| {
            r.as_ref().ok().map(|report| CellRow {
                cell: cell.clone(),
                report: report.clone(),
                metrics: None,
            })
        })
        .collect();
    match rows {
        Some(rows) => check_digest(&sha256_hex(sweep_csv(&rows).as_bytes())).err(),
        None => Some("appendix-A CSV incomplete: a cell has no report".to_string()),
    }
}

/// Mean |simulated − published| ÷ published over the appendix-A cells,
/// in percent, with the cell count. The other workloads run other
/// configurations than the paper published (predicted hints, writes, a
/// larger loop), so they have no published counterpart: 0 cells.
fn paper_error(plan: &Plan, reports: &[Option<&Report>]) -> (f64, usize) {
    if plan.workload != Workload::AppendixA {
        return (0.0, 0);
    }
    let errs: Vec<f64> = reports
        .iter()
        .flatten()
        .filter_map(|r| {
            let paper = paper_elapsed(&r.trace, &r.policy, r.disks)?;
            Some((r.elapsed_secs() - paper).abs() / paper)
        })
        .collect();
    let mean = if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    };
    (100.0 * mean, errs.len())
}

/// Σ simulated elapsed seconds over the cells' reports: a pure function
/// of the seed (through the traces) and the simulator.
pub fn sim_elapsed_s(reports: &[Option<&Report>]) -> f64 {
    reports.iter().flatten().map(|r| r.elapsed_secs()).sum()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn info_json(
    rounds: &Rounds,
    audit: &Audit,
    first_setup: f64,
    setups: &[f64],
    paper: (f64, usize),
    extra: &str,
) -> String {
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        r#"{{"rounds":{},"round_walls_s":[{}],"audit_s":{:.6},"orphan_prefetch_cells":{},"first_setup_s":{first_setup:.6},"setup_samples_s":[{}],"paper_err_pct":{},"paper_cells":{}{extra}}}"#,
        rounds.walls.len(),
        list(&rounds.walls),
        audit.wall_s,
        audit.orphan_cells,
        list(setups),
        paper.0,
        paper.1,
    )
}

/// The timed run: set up, run whole rounds of the workload until
/// `seconds` have passed, read the peak resident set, then audit every
/// cell once and time [`SETUP_REPS`] more set-ups. Every report is
/// checked.
pub fn timed_run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let (plan, first_setup) = set_up(workload, seed, None);
    let mut rounds = Rounds::default();
    let start = Instant::now();
    loop {
        let (results, wall) = timed_round(&plan);
        rounds.record(&plan, results, wall);
        if !another_round(start, &rounds.walls, seconds) {
            break;
        }
    }
    // Before the audit and the extra set-ups, which are the benchmark's
    // own work: the peak is the program's while it ran the rounds.
    let peak_rss = peak_rss_mib();
    let audit = rounds.audit(&plan);
    let setups = set_up_repeatedly(workload, seed, None);
    let mut errors = rounds.errors.clone();
    errors.extend(digest_error(&plan, &rounds));
    let reports = rounds.reports();
    // The median round: a window in which the host ran slow moves one
    // round, not the figure.
    let round_wall = median(&rounds.walls);
    let paper = paper_error(&plan, &reports);
    let metrics = vec![
        metric(
            "sim_refs_per_s",
            "refs/s",
            plan.refs_per_round() as f64 / round_wall,
        ),
        metric("setup_s", "s", median(&setups)),
        metric("peak_rss_mib", "MiB", peak_rss),
        metric(
            "cells_ok_frac",
            "frac",
            (rounds.attempted - rounds.failed) as f64 / rounds.attempted as f64,
        ),
        metric("sim_elapsed_s", "sim_s", sim_elapsed_s(&reports)),
    ];
    Outcome {
        metrics,
        attempted: rounds.attempted,
        failed: rounds.failed,
        errors,
        info: info_json(&rounds, &audit, first_setup, &setups, paper, ""),
        spans: Vec::new(),
    }
}

/// What one round of the traced run's executor measured.
struct Measured {
    /// Each cell's result, index-aligned with the plan's cells.
    results: Vec<Result<Report, String>>,
    /// Each cell's wall nanoseconds, index-aligned likewise.
    cell_ns: Vec<u64>,
    /// The workers' busy time and allocations.
    workers: Vec<WorkerStats>,
    /// The round's wall seconds.
    wall: f64,
}

/// One round through the traced run's executor: every cell once on
/// [`THREADS`] workers with the allocation sampler on, each cell
/// isolated and timed. With `spans`, each cell also runs inside a span
/// under the given round span; that is the only difference between a
/// traced and an untraced round.
fn measured_round(plan: &Plan, spans: Option<(&Tracer, u64)>) -> Measured {
    let t0 = Instant::now();
    let (cells, workers) = run_indexed_measured(
        plan.cells.len(),
        THREADS,
        Some(crate::alloc::thread_allocs),
        |i| {
            let c0 = Instant::now();
            let run = || isolated(|| plan.run_cell(i));
            let result = match spans {
                Some((tracer, round)) => {
                    let name = match plan.cells[i].run {
                        Run::TunedReverse => "runner::best_reverse_search",
                        Run::Policy(_) => "engine::simulate",
                    };
                    tracer.span(name, Some(round), |_| run())
                }
                None => run(),
            };
            (result, c0.elapsed().as_nanos() as u64)
        },
    );
    let wall = t0.elapsed().as_secs_f64();
    let (results, cell_ns) = cells.into_iter().unzip();
    Measured {
        results,
        cell_ns,
        workers,
        wall,
    }
}

/// The traced run: set-ups inside spans, then pairs of rounds (one
/// untraced, one with a span per cell, through the same executor) until
/// `seconds` have passed, the audited pass, [`SETUP_REPS`] more set-ups
/// and every layer probe of [`layers`]. The untraced rounds are the
/// baseline for the tracing overhead.
pub fn traced_run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let tracer = Tracer::new();
    let (plan, first_setup) = set_up(workload, seed, Some(&tracer));
    let mut rounds = Rounds::default();
    let (mut untraced_walls, mut traced_walls, mut pair_walls) =
        (Vec::new(), Vec::new(), Vec::new());
    // Each cell's wall nanoseconds in every traced round.
    let mut cell_ns: Vec<Vec<u64>> = vec![Vec::new(); plan.cells.len()];
    let (mut busy_us, mut allocs) = (0u64, 0u64);
    let start = Instant::now();
    loop {
        let untraced = tracer.span("round.untraced", None, |_| measured_round(&plan, None));
        rounds.record(&plan, untraced.results, untraced.wall);
        let traced = tracer.span("round.traced", None, |id| {
            measured_round(&plan, Some((&tracer, id)))
        });
        rounds.record(&plan, traced.results, traced.wall);
        for (samples, ns) in cell_ns.iter_mut().zip(traced.cell_ns) {
            samples.push(ns);
        }
        for w in traced.workers {
            busy_us += w.busy_us;
            allocs += w.work_allocs;
        }
        untraced_walls.push(untraced.wall);
        traced_walls.push(traced.wall);
        pair_walls.push(untraced.wall + traced.wall);
        if !another_round(start, &pair_walls, seconds) {
            break;
        }
    }
    let audit = tracer.span("check.audit", None, |_| rounds.audit(&plan));
    let setups = set_up_repeatedly(workload, seed, Some(&tracer));

    let oracle_ns = tracer.span("probe.oracle", None, |id| {
        layers::oracle(&plan, &tracer, id)
    });
    let reverse = tracer.span("probe.reverse", None, |id| {
        layers::reverse(&plan, &tracer, id)
    });
    let engine = tracer.span("probe.engine", None, |id| {
        layers::engine(&plan, &tracer, id)
    });
    let cache = tracer.span("probe.cache", None, |id| layers::cache(&plan, &tracer, id));
    let disk_ns = tracer.span("probe.disk", None, |id| layers::disk(&plan, &tracer, id));
    let predict = tracer.span("probe.predict", None, |id| {
        layers::predict(&plan, &tracer, id)
    });
    let total_ns = tracer.now_ns();

    let spans = tracer.finished();
    let setup_gen_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "setup")
        .map(|s| {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(Span::duration_ns)
                .sum();
            children as f64 / 1e6
        })
        .collect();
    // Each distinct cell's median over the traced rounds: a percentile
    // of these rests on distinct cells, not on repeats of a few.
    let cell_ms: Vec<f64> = cell_ns
        .iter()
        .map(|xs| median(&xs.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>()))
        .collect();
    let cell_busy_ns: u64 = cell_ns.iter().flatten().sum();
    let search_ns: u64 = plan
        .cells
        .iter()
        .zip(&cell_ns)
        .filter(|(c, _)| c.run == Run::TunedReverse)
        .flat_map(|(_, xs)| xs)
        .sum();
    let traced_rounds = traced_walls.len() as f64;
    // Each predicted cell pays one pre-pass of its (trace, disks, source).
    let prepass_ns_per_round: u64 = plan
        .cells
        .iter()
        .filter_map(|c| match c.config.hint_mode {
            HintMode::Predicted(kind) => predict
                .prepass_ns
                .iter()
                .find(|&&(t, d, k, _)| t == c.trace && d == c.config.disks && k == kind)
                .map(|&(_, _, _, ns)| ns),
            HintMode::Oracle => None,
        })
        .sum();
    let reports = rounds.reports();
    let round_refs = plan.refs_per_round();
    let figures = layers::report_figures(&reports, round_refs);
    // Excess fetches at the same (trace, disks, hints): from the
    // workload's own cells when it runs demand fetching, otherwise from
    // the engine probe's grid.
    let workload_fetches: Vec<(FetchKey, PolicyKind, u64)> = plan
        .cells
        .iter()
        .zip(&reports)
        .filter_map(|(c, r)| match (c.run, r) {
            (Run::Policy(kind), Some(r)) => Some((
                (c.trace, c.config.disks, c.config.hint_mode.name()),
                kind,
                r.fetches,
            )),
            _ => None,
        })
        .collect();
    let excess = if workload_fetches.iter().any(|f| f.1 == PolicyKind::Demand) {
        layers::excess_fetch_frac(&workload_fetches)
    } else {
        layers::excess_fetch_frac(&engine.fetches)
    };
    let paper = paper_error(&plan, &reports);
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration_ns)
        .sum();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;

    let mut metrics = vec![
        metric("trace.gen_ms", "ms", median(&setup_gen_ms)),
        metric("oracle.build_ns_per_ref", "ns", oracle_ns),
        metric(
            "reverse.schedule_ns_per_ref",
            "ns",
            reverse.schedule_ns_per_ref,
        ),
        metric("reverse.ns_per_ref", "ns", reverse.ns_per_ref),
        metric(
            "runner.search_frac",
            "frac",
            per(search_ns as f64, cell_busy_ns as f64),
        ),
    ];
    for &(kind, d, ns) in &engine.rows {
        metrics.push(metric(
            format!("engine.{}.d{d}.ns_per_ref", kind.name()),
            "ns",
            ns,
        ));
    }
    metrics.extend([
        metric("engine.ns_per_event", "ns", engine.ns_per_event),
        metric("engine.events_per_ref", "count", engine.events_per_ref),
        metric(
            "engine.decisions_per_ref",
            "count",
            engine.decisions_per_ref,
        ),
        metric("cache.belady_ns_per_ref", "ns", cache.belady_ns_per_ref),
        metric("cache.hit_frac", "frac", engine.hit_frac),
        metric("cache.evictions_per_ref", "count", engine.evictions_per_ref),
        metric("missing.ns_per_op", "ns", cache.missing_ns_per_op),
    ]);
    for &(kind, ns) in &predict.prepass_ns_per_ref {
        metrics.push(metric(
            format!("predict.{}.prepass_ns_per_ref", kind.name()),
            "ns",
            ns,
        ));
    }
    let stall_names = [
        "late_prefetch",
        "congestion",
        "no_prefetch",
        "eviction_refetch",
    ];
    metrics.extend([
        metric(
            "predict.share_frac",
            "frac",
            per(
                prepass_ns_per_round as f64 * traced_rounds,
                cell_busy_ns as f64,
            ),
        ),
        metric("predict.precision", "frac", predict.precision),
        metric("predict.recall", "frac", predict.recall),
        metric("fetch.excess_frac", "frac", excess),
        metric("disk.ns_per_request", "ns", disk_ns),
        metric("disk.util", "frac", figures.disk_util),
        metric("disk.avg_fetch_ms", "ms", figures.avg_fetch_ms),
        metric("disk.writes_per_ref", "count", figures.writes_per_ref),
    ]);
    for (name, f) in stall_names.iter().zip(figures.stall_fracs) {
        metrics.push(metric(format!("stall.{name}_frac"), "frac", f));
    }
    metrics.extend([
        metric(
            "sweep.busy_frac",
            "frac",
            // A worker that runs out of cells while another finishes the
            // round's tail counts as idle until the round ends.
            per(
                busy_us as f64 / 1e6,
                THREADS as f64 * traced_walls.iter().sum::<f64>(),
            ),
        ),
        // 0 where fewer than ten distinct cells lie beyond the
        // percentile (engine-stress has 15 cells in all).
        metric(
            "sweep.cell_p50_ms",
            "ms",
            tail_quantile(&cell_ms, 0.50).unwrap_or(0.0),
        ),
        metric(
            "sweep.cell_p95_ms",
            "ms",
            tail_quantile(&cell_ms, 0.95).unwrap_or(0.0),
        ),
        metric(
            "alloc.per_ref",
            "count",
            per(allocs as f64, round_refs as f64 * traced_rounds),
        ),
        metric(
            "tracing.overhead_frac",
            "frac",
            mean(&traced_walls) / mean(&untraced_walls) - 1.0,
        ),
        metric(
            "spans.coverage_frac",
            "frac",
            per(root_ns as f64, total_ns as f64),
        ),
        metric("paper.err_pct", "%", paper.0),
    ]);
    let extra = format!(
        r#","traced_rounds":{traced_rounds},"distinct_cells":{},"estimates":{ESTIMATES}"#,
        cell_ms.len()
    );
    let mut errors = rounds.errors.clone();
    errors.extend(digest_error(&plan, &rounds));
    Outcome {
        metrics,
        attempted: rounds.attempted,
        failed: rounds.failed,
        errors,
        info: info_json(&rounds, &audit, first_setup, &setups, paper, &extra),
        spans,
    }
}

/// Per-layer figures timed by a separate call rather than inside the
/// workload's own cells (see [`layers`]).
const ESTIMATES: &str = r#"["oracle.build_ns_per_ref","reverse.schedule_ns_per_ref","cache.belady_ns_per_ref","missing.ns_per_op","predict.*.prepass_ns_per_ref","predict.share_frac","disk.ns_per_request"]"#;

#[cfg(test)]
mod tests {
    use super::*;

    /// `sim_elapsed_s` of the first two cells of the workload's shortest
    /// trace at `seed`.
    fn first_cells_sim_elapsed(workload: Workload, seed: u64) -> f64 {
        let mut plan = Plan::setup(workload, seed, None);
        let shortest = (0..plan.traces.len())
            .min_by_key(|&i| plan.traces[i].requests.len())
            .unwrap();
        let keep: Vec<usize> = (0..plan.cells.len())
            .filter(|&i| plan.cells[i].trace == shortest)
            .take(2)
            .collect();
        plan.cells = keep.iter().map(|&i| plan.cells[i].clone()).collect();
        if !plan.sweep_cells.is_empty() {
            plan.sweep_cells = keep.iter().map(|&i| plan.sweep_cells[i].clone()).collect();
            for (i, c) in plan.sweep_cells.iter_mut().enumerate() {
                c.index = i;
            }
        }
        let results = plan.run_round();
        assert!(check_round(&plan, &results).iter().all(Result::is_ok));
        let reports: Vec<Option<&Report>> = results.iter().map(|r| r.as_ref().ok()).collect();
        sim_elapsed_s(&reports)
    }

    #[test]
    fn the_seed_reaches_the_simulated_results() {
        for workload in Workload::ALL {
            let a = first_cells_sim_elapsed(workload, 11);
            assert!(a > 0.0);
            assert_eq!(a, first_cells_sim_elapsed(workload, 11), "{workload:?}");
            assert_ne!(a, first_cells_sim_elapsed(workload, 12), "{workload:?}");
        }
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.95), Some(190.0));
        assert_eq!(tail_quantile(&xs[..199], 0.95), None);
        assert_eq!(tail_quantile(&xs[..15], 0.50), None);
        assert_eq!(tail_quantile(&xs[..20], 0.50), Some(10.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
