//! The benchmark's three workloads: what each one runs, built from the
//! `--seed` the benchmark was given, and how one round of it executes.
//!
//! * `appendix-a` — the paper's 332-cell appendix-A grid (ten traces at
//!   their published array sizes × fixed horizon, aggressive, tuned
//!   reverse aggressive, forestall; oracle hints) through the fail-soft
//!   sweep executor on two workers, as `parcache-run --sweep` runs it.
//! * `engine-stress` — the synthetic stress loop under all five policies
//!   at 1, 4 and 16 disks, fifteen independent simulations on two
//!   workers.
//! * `predicted-writes` — the ten traces at 1, 4 and 16 disks under
//!   demand, fixed horizon, aggressive and forestall, with hints from the
//!   three online predictors and one write-behind flush per four reads,
//!   on two workers.

use crate::check::simulate_checked;
use crate::spans::Tracer;
use parcache_bench::{
    best_reverse_search, paper_cells, run_cells_failsoft, run_indexed, Algo, CellOutcome, FailSoft,
    SweepCell, SweepEntry, SweepSpec,
};
use parcache_core::{simulate, HintMode, PolicyKind, PredictorKind, Report, SimConfig};
use parcache_disk::FaultPlan;
use parcache_trace::{synth::synth_trace, trace_by_name, Trace, TRACE_NAMES};
use parcache_types::Nanos;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Passes over the loop in the engine-stress trace.
pub const STRESS_PASSES: usize = 60;
/// Blocks in the engine-stress loop (three times the paper synth cache).
pub const STRESS_LOOP_BLOCKS: usize = 4000;
/// Array sizes of the engine-stress and predicted-writes grids: the
/// smallest, a middle and the largest published size.
pub const GRID_DISKS: [usize; 3] = [1, 4, 16];
/// Worker threads every workload's cells run on. On a two-CPU machine a
/// single busy thread's speed moves with whatever else shares the host
/// more than two threads' total does (engine-stress on one thread:
/// 13–23 % run-to-run spread; on two: 10–14 %).
pub const THREADS: usize = 2;
/// Reads per write-behind flush in predicted-writes.
pub const WRITE_BEHIND_PERIOD: usize = 4;
/// Policies of the predicted-writes grid (reverse aggressive is an
/// offline algorithm and has no meaning under predicted hints).
const PREDICTED_POLICIES: [PolicyKind; 4] = [
    PolicyKind::Demand,
    PolicyKind::FixedHorizon,
    PolicyKind::Aggressive,
    PolicyKind::Forestall,
];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The appendix-A grid.
    AppendixA,
    /// The synthetic engine stress loop.
    EngineStress,
    /// Predicted hints with write-behind.
    PredictedWrites,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AppendixA,
        Workload::EngineStress,
        Workload::PredictedWrites,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AppendixA => "appendix-a",
            Workload::EngineStress => "engine-stress",
            Workload::PredictedWrites => "predicted-writes",
        }
    }

    /// Parses a [`name`](Workload::name).
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// One simulation of a policy with the cell's configuration.
    Policy(PolicyKind),
    /// Reverse aggressive tuned by the eight-candidate parameter search.
    TunedReverse,
}

impl Run {
    /// The policy name the cell's report carries.
    pub fn policy_name(self) -> &'static str {
        match self {
            Run::Policy(kind) => kind.name(),
            Run::TunedReverse => PolicyKind::ReverseAggressive.name(),
        }
    }
}

/// One grid point of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index into [`Plan::traces`].
    pub trace: usize,
    /// What runs.
    pub run: Run,
    /// The run's configuration (array size, hint source, write-behind).
    pub config: SimConfig,
}

/// A workload built from one seed: its traces and its cells.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The seed every trace was generated from.
    pub seed: u64,
    /// The distinct traces, generated once and shared by the cells.
    pub traces: Vec<Arc<Trace>>,
    /// Σ compute of each trace: what every report's `compute` must equal.
    pub compute: Vec<Nanos>,
    /// Array sizes each trace runs at, in grid order.
    pub disks: Vec<Vec<usize>>,
    /// The cells, in grid (and report) order.
    pub cells: Vec<Cell>,
    /// The appendix-A grid as the sweep executor consumes it (empty for
    /// the other workloads); index-aligned with `cells`.
    pub sweep_cells: Vec<SweepCell>,
}

impl Plan {
    /// Generates the workload's traces from `seed` and builds its grid.
    /// With a tracer, each trace generation is recorded as a child span
    /// of `parent`.
    pub fn setup(workload: Workload, seed: u64, tracer: Option<(&Tracer, u64)>) -> Plan {
        let generate = |name: &str, f: &dyn Fn() -> Trace| match tracer {
            Some((t, parent)) => t.span(name, Some(parent), |_| f()),
            None => f(),
        };
        let traces: Vec<Arc<Trace>> = match workload {
            Workload::EngineStress => vec![Arc::new(generate("trace::synth_trace", &|| {
                synth_trace(STRESS_PASSES, STRESS_LOOP_BLOCKS, seed)
            }))],
            Workload::AppendixA | Workload::PredictedWrites => {
                run_indexed(TRACE_NAMES.len(), THREADS, |i| {
                    Arc::new(generate("trace::trace_by_name", &|| {
                        trace_by_name(TRACE_NAMES[i], seed).expect("registry names are valid")
                    }))
                })
            }
        };
        let compute = traces
            .iter()
            .map(|t| t.requests.iter().map(|r| r.compute).sum())
            .collect();
        match workload {
            Workload::AppendixA => {
                let disks: Vec<Vec<usize>> = TRACE_NAMES
                    .iter()
                    .map(|name| {
                        paper_cells(name)
                            .expect("every trace is published")
                            .to_vec()
                    })
                    .collect();
                let spec = SweepSpec {
                    entries: traces
                        .iter()
                        .zip(&disks)
                        .map(|(t, d)| SweepEntry {
                            trace: Arc::clone(t),
                            disks: d.clone(),
                        })
                        .collect(),
                    algos: Algo::APPENDIX_A.to_vec(),
                    hints: Vec::new(),
                };
                let sweep_cells = spec.cells();
                let cells = sweep_cells
                    .iter()
                    .map(|c| Cell {
                        trace: traces
                            .iter()
                            .position(|t| Arc::ptr_eq(t, &c.trace))
                            .expect("grid cells share the plan's traces"),
                        run: match c.algo.policy_kind() {
                            Some(kind) => Run::Policy(kind),
                            None => Run::TunedReverse,
                        },
                        config: SimConfig::for_trace(c.disks, &c.trace).with_hint_mode(c.hints),
                    })
                    .collect();
                Plan {
                    workload,
                    seed,
                    traces,
                    compute,
                    disks,
                    cells,
                    sweep_cells,
                }
            }
            Workload::EngineStress => {
                let cells = GRID_DISKS
                    .iter()
                    .flat_map(|&d| {
                        let t = &traces[0];
                        PolicyKind::ALL.iter().map(move |&kind| Cell {
                            trace: 0,
                            run: Run::Policy(kind),
                            config: SimConfig::for_trace(d, t),
                        })
                    })
                    .collect();
                Plan {
                    workload,
                    seed,
                    traces,
                    compute,
                    disks: vec![GRID_DISKS.to_vec()],
                    cells,
                    sweep_cells: Vec::new(),
                }
            }
            Workload::PredictedWrites => {
                let mut cells = Vec::new();
                for (i, t) in traces.iter().enumerate() {
                    for kind in PredictorKind::ALL {
                        for d in GRID_DISKS {
                            for policy in PREDICTED_POLICIES {
                                cells.push(Cell {
                                    trace: i,
                                    run: Run::Policy(policy),
                                    config: SimConfig::for_trace(d, t)
                                        .with_hint_mode(HintMode::Predicted(kind))
                                        .with_write_behind(WRITE_BEHIND_PERIOD),
                                });
                            }
                        }
                    }
                }
                Plan {
                    workload,
                    seed,
                    disks: vec![GRID_DISKS.to_vec(); traces.len()],
                    traces,
                    compute,
                    cells,
                    sweep_cells: Vec::new(),
                }
            }
        }
    }

    /// References simulated by one round: Σ over cells of the cell's
    /// trace length. Tuned reverse aggressive counts once, not once per
    /// search candidate, so pruning the search shows as a gain.
    pub fn refs_per_round(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| self.traces[c.trace].requests.len() as u64)
            .sum()
    }

    /// Runs cell `i` directly through the library.
    pub fn run_cell(&self, i: usize) -> Report {
        let cell = &self.cells[i];
        let trace = &self.traces[cell.trace];
        match cell.run {
            Run::Policy(kind) => simulate(trace, kind, &cell.config),
            Run::TunedReverse => best_reverse_search(trace, &cell.config, 1).0,
        }
    }

    /// Runs cell `i` with the simulation audited ([`simulate_checked`]):
    /// the audit checks frame, queue and fetch conservation over the
    /// event stream and reconciles the report against totals it folds
    /// from the stream itself. Tuned reverse aggressive searches as
    /// usual, then audits the winning configuration. The report and the
    /// prefetches it left in flight, or the audit's violations.
    pub fn audit_cell(&self, i: usize) -> Result<(Report, usize), String> {
        let cell = &self.cells[i];
        let trace = &self.traces[cell.trace];
        let (kind, config) = match cell.run {
            Run::Policy(kind) => (kind, cell.config.clone()),
            Run::TunedReverse => (
                PolicyKind::ReverseAggressive,
                best_reverse_search(trace, &cell.config, 1).1,
            ),
        };
        simulate_checked(trace, kind, &config)
    }

    /// Every cell once through [`Plan::audit_cell`], on [`THREADS`]
    /// workers; a cell that panics has no report.
    pub fn audit_round(&self) -> Vec<Result<(Report, usize), String>> {
        run_indexed(self.cells.len(), THREADS, |i| {
            isolated(|| self.audit_cell(i)).and_then(|r| r)
        })
    }

    /// One timed round: every cell once, on [`THREADS`] workers, the
    /// way its users run it. Each cell gets its report, or why it has
    /// none: the cell failed, or the executor returned no report or more
    /// than one for it.
    pub fn run_round(&self) -> Vec<Result<Report, String>> {
        match self.workload {
            Workload::AppendixA => {
                let run = run_cells_failsoft(
                    &self.sweep_cells,
                    THREADS,
                    false,
                    false,
                    &FaultPlan::default(),
                    &FailSoft::default(),
                    None,
                );
                let mut reports: Vec<Result<Report, String>> =
                    vec![Err("no report".to_string()); self.cells.len()];
                for e in run.executions {
                    let Some(slot) = reports.get_mut(e.index) else {
                        continue;
                    };
                    *slot = match (&slot, e.outcome) {
                        (Ok(_), _) => Err("more than one report".to_string()),
                        (Err(_), CellOutcome::Ok(row)) => Ok(row.report),
                        (Err(_), failed) => Err(format!("cell failed: {failed:?}")),
                    };
                }
                reports
            }
            Workload::EngineStress | Workload::PredictedWrites => {
                run_indexed(self.cells.len(), THREADS, |i| isolated(|| self.run_cell(i)))
            }
        }
    }
}

/// Runs `f`, turning a panic into an error, so a panicking simulation
/// costs its own cell rather than the whole run.
pub fn isolated<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("cell panicked: {message}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_cell_becomes_its_own_error() {
        assert_eq!(isolated(|| 7), Ok(7));
        let err = isolated(|| -> u32 { panic!("engine accounting broke") }).unwrap_err();
        assert!(err.contains("engine accounting broke"), "{err}");
        let err = isolated(|| -> u32 { panic!("{} frames", 3) }).unwrap_err();
        assert!(err.contains("3 frames"), "{err}");
    }
}
