//! `parcache-e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload built from the seed, checks every simulated result,
//! and prints (last line of stdout) one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced pass and prints the per-layer metrics,
//! writing its spans to `out/spans-<workload>-seed<n>.json` beside this
//! package's manifest. The lines before the result carry the run's
//! provenance and extra figures. Exits 1 when a check fails, 2 on bad
//! arguments.

use parcache_core::metrics::json_escape;
use parcache_e2ebench::run::{timed_run, traced_run, Outcome};
use parcache_e2ebench::spans;
use parcache_e2ebench::workload::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: parcache-e2ebench --workload <appendix-a|engine-stress|predicted-writes> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where the run happened and with what: enough to tell a slower
/// machine from a code regression.
fn provenance(args: &Args, argv: &[String]) -> String {
    let argv: Vec<String> = argv
        .iter()
        .map(|a| format!("\"{}\"", json_escape(a)))
        .collect();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"args":[{}],"commit":"{}","rustc":"{}","profile":"{}","cpu_model":"{}","parallelism":{}}}"#,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        argv.join(","),
        json_escape(env!("E2EBENCH_COMMIT")),
        json_escape(env!("E2EBENCH_RUSTC")),
        env!("E2EBENCH_PROFILE"),
        json_escape(&cpu),
        parcache_bench::detect_parallelism().to_json(),
    )
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}":{{"value":{value},"unit":"{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = provenance(&args, &argv);
    let outcome = if args.trace {
        traced_run(args.workload, args.seed, args.seconds as f64)
    } else {
        timed_run(args.workload, args.seed, args.seconds as f64)
    };
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!(
            "{dir}/spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::to_json(&outcome.spans, &provenance)));
        if let Err(e) = written {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }
    println!(r#"{{"provenance":{provenance}}}"#);
    println!(r#"{{"info":{}}}"#, outcome.info);
    println!("{}", result_json(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
