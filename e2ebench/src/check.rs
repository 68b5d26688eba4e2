//! Output checks. A speed figure counts only beside proof that the
//! simulated results are right. Outside the timed rounds every cell runs
//! once more with the simulator's conservation audit riding its event
//! stream ([`simulate_checked`]); every report of every round must pass
//! the identities that hold at any seed and equal the first round's
//! report (and the audited one); and the appendix-A CSV is compared with
//! the committed golden digest at the seed it was recorded at.

use crate::workload::Plan;
use parcache_core::{
    simulate_probed, AuditOutcome, AuditProbe, AuditViolation, Event, HintMode, PolicyKind, Probe,
    Report, SimConfig,
};
use parcache_trace::Trace;
use parcache_types::{BlockId, Nanos};
use std::collections::HashMap;

/// SHA-256 of the appendix-A sweep CSV at [`GOLDEN_SEED`]
/// (`crates/bench/tests/fixtures/appendix_a_sweep.sha256`).
pub const GOLDEN_DIGEST: &str = "fde238d2268fc3a00b1971fe984d3e4e942d6297f83f1fafe8bf0368b2f26ec8";

/// The seed the golden digest was recorded at; other seeds generate
/// other traces, so the digest is checked only here.
pub const GOLDEN_SEED: u64 = 1996;

/// What a cell's report must say about itself.
#[derive(Debug, Clone, Copy)]
pub struct Expect<'a> {
    /// Trace name.
    pub trace: &'a str,
    /// Policy name.
    pub policy: &'a str,
    /// Array size.
    pub disks: usize,
    /// Σ compute of the trace.
    pub compute: Nanos,
}

/// Checks one report: it belongs to its cell, its compute is the trace's
/// compute, elapsed = compute + driver + stall exactly, and the stall
/// causes sum to the stall exactly.
pub fn check_report(r: &Report, e: &Expect<'_>) -> Result<(), String> {
    let cell = format!("{}/{}/{} disks", e.trace, e.policy, e.disks);
    if (r.trace.as_str(), r.policy.as_str(), r.disks) != (e.trace, e.policy, e.disks) {
        return Err(format!(
            "{cell}: report is for {}/{}/{} disks",
            r.trace, r.policy, r.disks
        ));
    }
    if r.compute != e.compute {
        return Err(format!(
            "{cell}: compute {} ns != trace compute {} ns",
            r.compute.as_nanos(),
            e.compute.as_nanos()
        ));
    }
    let sum = r
        .compute
        .checked_add(r.driver)
        .and_then(|t| t.checked_add(r.stall));
    if sum != Some(r.elapsed) {
        return Err(format!(
            "{cell}: elapsed {} ns != compute {} + driver {} + stall {} ns",
            r.elapsed.as_nanos(),
            r.compute.as_nanos(),
            r.driver.as_nanos(),
            r.stall.as_nanos()
        ));
    }
    let causes = r.stall_by_cause.total();
    if causes != r.stall {
        return Err(format!(
            "{cell}: stall causes sum to {} ns, stall is {} ns",
            causes.as_nanos(),
            r.stall.as_nanos()
        ));
    }
    Ok(())
}

/// Read fetches not yet completed or abandoned, followed over the event
/// stream beside the audit: for each, whether its block has been
/// referenced since the fetch was issued.
#[derive(Debug, Default)]
pub struct Unresolved {
    pending: HashMap<BlockId, bool>,
    completed: u64,
    abandoned: u64,
}

impl Probe for Unresolved {
    fn on_event(&mut self, event: &Event) {
        match *event {
            Event::FetchIssued { block, .. } => {
                self.pending.insert(block, false);
            }
            Event::CacheHit { block, .. } | Event::CacheMiss { block, .. } => {
                if let Some(referenced) = self.pending.get_mut(&block) {
                    *referenced = true;
                }
            }
            Event::FetchCompleted {
                block,
                write: false,
                faulted: false,
                ..
            } => {
                self.pending.remove(&block);
                self.completed += 1;
            }
            Event::RequestAbandoned {
                block,
                write: false,
                ..
            } => {
                self.pending.remove(&block);
                self.abandoned += 1;
            }
            _ => {}
        }
    }
}

impl Unresolved {
    /// The audit's end-of-run fetch-completion violations that prefetches
    /// of never-referenced blocks, still in flight when the last
    /// reference was served, produce; empty unless every unresolved fetch
    /// is such a prefetch. The audit's law assumes every fetched block is
    /// referenced later, as it is under oracle hints; a predictor that
    /// mispredicts near the end of a trace breaks that premise without
    /// any result being wrong. A fetch whose block was referenced and
    /// that still never completed excuses nothing.
    pub fn orphan_violations(&self, report: &Report) -> Vec<AuditViolation> {
        if self.pending.is_empty() || self.pending.values().any(|&referenced| referenced) {
            return Vec::new();
        }
        let mut orphans: Vec<u64> = self.pending.keys().map(|b| b.raw()).collect();
        orphans.sort_unstable();
        let violation = |detail| AuditViolation {
            time: report.elapsed,
            rule: "fetch-completion",
            detail,
        };
        vec![
            violation(format!(
                "{} fetch(es) still in flight at end of run: {orphans:?}",
                orphans.len()
            )),
            violation(format!(
                "{} fetches issued but {} read completions + {} abandonments observed",
                report.fetches, self.completed, self.abandoned
            )),
        ]
    }
}

/// The audit and the unresolved-fetch tracker on one event stream.
struct Audited {
    audit: AuditProbe,
    unresolved: Unresolved,
}

impl Probe for Audited {
    fn on_event(&mut self, event: &Event) {
        self.audit.on_event(event);
        self.unresolved.on_event(event);
    }
}

/// Simulates `trace` under `policy` with the simulator's audit riding
/// the event stream (as `parcache_core::simulate_audited` does) and
/// returns the report if the audit's verdict passes [`verdict`], with
/// the number of never-referenced prefetches left in flight. Under
/// predicted hints the only violations excused are the ones
/// [`Unresolved::orphan_violations`] accounts for exactly.
pub fn simulate_checked(
    trace: &Trace,
    policy: PolicyKind,
    config: &SimConfig,
) -> Result<(Report, usize), String> {
    let mut probe = Audited {
        audit: AuditProbe::new(config),
        unresolved: Unresolved::default(),
    };
    let report = simulate_probed(trace, policy, config, &mut probe);
    let excused = match config.hint_mode {
        HintMode::Predicted(_) => probe.unresolved.orphan_violations(&report),
        HintMode::Oracle => Vec::new(),
    };
    let audit = probe.audit.finish(&report);
    let orphans = if excused.is_empty() {
        0
    } else {
        probe.unresolved.pending.len()
    };
    verdict(report, &audit, &excused).map(|r| (r, orphans))
}

/// An audited cell's report, or the audit's violations. The audit folds
/// its own totals from the event stream (fetches issued and completed,
/// writes, stall charged per cause, frames and queue depths), so it
/// catches a wrong report that still satisfies [`check_report`]'s
/// identities. The report passes only if the audit recorded exactly the
/// `excused` violations and counted no others.
pub fn verdict(
    report: Report,
    audit: &AuditOutcome,
    excused: &[AuditViolation],
) -> Result<Report, String> {
    if audit.suppressed == 0 && audit.violations == excused {
        return Ok(report);
    }
    let shown: Vec<String> = audit
        .violations
        .iter()
        .take(3)
        .map(ToString::to_string)
        .collect();
    Err(format!(
        "{}/{}/{} disks: audit found {} violation(s): {}",
        report.trace,
        report.policy,
        report.disks,
        audit.violations.len() as u64 + audit.suppressed,
        shown.join("; ")
    ))
}

/// Checks one round's results cell by cell: exactly one report per cell
/// (the executor's verdict), and every report passes [`check_report`].
pub fn check_round(plan: &Plan, results: &[Result<Report, String>]) -> Vec<Result<(), String>> {
    if results.len() != plan.cells.len() {
        let err = format!("{} results for {} cells", results.len(), plan.cells.len());
        return vec![Err(err); plan.cells.len()];
    }
    plan.cells
        .iter()
        .zip(results)
        .map(|(cell, result)| {
            let report = result.as_ref().map_err(Clone::clone)?;
            check_report(
                report,
                &Expect {
                    trace: &plan.traces[cell.trace].name,
                    policy: cell.run.policy_name(),
                    disks: cell.config.disks,
                    compute: plan.compute[cell.trace],
                },
            )
        })
        .collect()
}

/// Compares the digest of the appendix-A CSV with the golden one.
pub fn check_digest(actual: &str) -> Result<(), String> {
    if actual == GOLDEN_DIGEST {
        Ok(())
    } else {
        Err(format!(
            "appendix-A CSV digest {actual} != golden {GOLDEN_DIGEST}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Plan, Run, Workload};
    use parcache_core::engine::StallBreakdown;
    use parcache_core::probe::StallCause;
    use parcache_core::{simulate_audited, PredictorKind};
    use parcache_trace::trace_by_name;

    fn first_report(plan: &Plan) -> (Report, Expect<'_>) {
        let cell = &plan.cells[0];
        let expect = Expect {
            trace: &plan.traces[cell.trace].name,
            policy: cell.run.policy_name(),
            disks: cell.config.disks,
            compute: plan.compute[cell.trace],
        };
        (plan.run_cell(0), expect)
    }

    #[test]
    fn a_real_report_passes_and_a_stall_shifted_by_one_ns_fails() {
        let plan = Plan::setup(Workload::AppendixA, 7, None);
        let (report, expect) = first_report(&plan);
        assert_eq!(check_report(&report, &expect), Ok(()));

        let mut shifted = report.clone();
        shifted.stall = Nanos(shifted.stall.as_nanos() + 1);
        assert!(check_report(&shifted, &expect).is_err());

        // Shifting elapsed along with it keeps the sum but breaks the
        // per-cause identity.
        shifted.elapsed = Nanos(shifted.elapsed.as_nanos() + 1);
        assert!(check_report(&shifted, &expect)
            .unwrap_err()
            .contains("stall causes"));

        let mut wrong_compute = report.clone();
        wrong_compute.compute = Nanos(wrong_compute.compute.as_nanos() + 1);
        assert!(check_report(&wrong_compute, &expect).is_err());

        let mut wrong_cell = report;
        wrong_cell.disks += 1;
        assert!(check_report(&wrong_cell, &expect).is_err());
    }

    #[test]
    fn the_audit_rejects_a_wrong_report_the_identities_accept() {
        let plan = Plan::setup(Workload::EngineStress, 7, None);
        let i = plan
            .cells
            .iter()
            .position(|c| c.run == Run::Policy(PolicyKind::Forestall))
            .unwrap();
        let (cell, trace) = (&plan.cells[i], &plan.traces[0]);
        let expect = Expect {
            trace: &trace.name,
            policy: cell.run.policy_name(),
            disks: cell.config.disks,
            compute: plan.compute[0],
        };
        let (report, orphans) = plan.audit_cell(i).expect("a real cell audits clean");
        assert_eq!(orphans, 0);
        assert_eq!(report, plan.run_cell(i));

        // Feed the audit the real event stream, then reconcile it with a
        // report that passes every identity but is not what was simulated.
        let audit_of = |wrong: &Report| {
            let mut probe = AuditProbe::new(&cell.config);
            let real = simulate_probed(trace, PolicyKind::Forestall, &cell.config, &mut probe);
            assert_eq!(real, report);
            verdict(wrong.clone(), &probe.finish(wrong), &[])
        };
        assert!(audit_of(&report).is_ok());

        let mut one_more_fetch = report.clone();
        one_more_fetch.fetches += 1;
        // One nanosecond of stall charged to another cause: the total,
        // and so every identity, is unchanged.
        let mut stall_moved = report.clone();
        let stalled = |c: &StallCause| report.stall_by_cause.get(*c) > Nanos::ZERO;
        let from = StallCause::ALL
            .into_iter()
            .find(stalled)
            .expect("the cell stalls");
        let to = StallCause::ALL.into_iter().find(|&c| c != from).unwrap();
        stall_moved.stall_by_cause = StallBreakdown::ZERO;
        for c in StallCause::ALL {
            let ns = report.stall_by_cause.get(c).as_nanos();
            let ns = if c == from {
                ns - 1
            } else if c == to {
                ns + 1
            } else {
                ns
            };
            stall_moved.stall_by_cause.add(c, Nanos(ns));
        }
        for wrong in [one_more_fetch, stall_moved] {
            assert_eq!(check_report(&wrong, &expect), Ok(()));
            let err = audit_of(&wrong).unwrap_err();
            assert!(err.contains("violation"), "{err}");
        }

        // A verdict carrying any violation, recorded or only counted,
        // rejects the report.
        let mut counted = AuditOutcome {
            events: 1,
            violations: Vec::new(),
            suppressed: 1,
        };
        assert!(verdict(report.clone(), &counted, &[]).is_err());
        counted.suppressed = 0;
        assert!(verdict(report, &counted, &[]).is_ok());
    }

    #[test]
    fn only_unreferenced_prefetches_left_in_flight_are_excused() {
        // At this seed the sequential predictor leaves a prefetch of a
        // block that is never referenced in flight at the end of the run,
        // which the audit's fetch-completion law reports.
        let t = trace_by_name("postgres-select", 5).unwrap();
        let cfg = SimConfig::for_trace(4, &t)
            .with_hint_mode(HintMode::Predicted(PredictorKind::Sequential));
        let (report, audit) = simulate_audited(&t, PolicyKind::Aggressive, &cfg);
        assert!(!audit.is_clean());
        assert!(verdict(report.clone(), &audit, &[]).is_err());

        let mut unresolved = Unresolved::default();
        let replay = simulate_probed(&t, PolicyKind::Aggressive, &cfg, &mut unresolved);
        assert_eq!(replay, report);
        let excused = unresolved.orphan_violations(&report);
        assert_eq!(excused.len(), 2);
        assert_eq!(
            verdict(report.clone(), &audit, &excused),
            Ok(report.clone())
        );
        assert_eq!(
            simulate_checked(&t, PolicyKind::Aggressive, &cfg),
            Ok((report.clone(), unresolved.pending.len()))
        );

        // Any violation beside the excused ones fails the cell.
        let mut more = audit.clone();
        more.violations.push(AuditViolation {
            time: Nanos::ZERO,
            rule: "frame-conservation",
            detail: String::new(),
        });
        assert!(verdict(report.clone(), &more, &excused).is_err());

        // A fetch whose block was referenced but never arrived excuses
        // nothing.
        let block = *unresolved.pending.keys().next().unwrap();
        unresolved.pending.insert(block, true);
        assert!(unresolved.orphan_violations(&report).is_empty());
    }

    #[test]
    fn round_check_counts_missing_and_surplus_reports() {
        let mut plan = Plan::setup(Workload::AppendixA, 7, None);
        plan.cells.truncate(4);
        let mut results: Vec<Result<Report, String>> = (0..plan.cells.len())
            .map(|i| Ok(plan.run_cell(i)))
            .collect();
        assert!(check_round(&plan, &results).iter().all(Result::is_ok));
        results[3] = Err("cell failed".to_string());
        let verdicts = check_round(&plan, &results);
        assert_eq!(verdicts.iter().filter(|v| v.is_err()).count(), 1);
        results.pop();
        assert!(check_round(&plan, &results).iter().all(Result::is_err));
    }

    #[test]
    fn digest_with_one_byte_changed_is_rejected() {
        assert_eq!(check_digest(GOLDEN_DIGEST), Ok(()));
        let mut bytes = GOLDEN_DIGEST.as_bytes().to_vec();
        bytes[17] = if bytes[17] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(check_digest(&flipped).is_err());

        // One changed byte of CSV changes its digest, too.
        let csv = "trace,policy\nsynth,forestall\n";
        let mut changed = csv.as_bytes().to_vec();
        changed[14] ^= 1;
        assert_ne!(
            parcache_bench::sha256_hex(csv.as_bytes()),
            parcache_bench::sha256_hex(&changed)
        );
    }
}
