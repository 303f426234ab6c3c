//! The repo benchmark: four end-to-end workloads over the MLOC crates
//! and, in a second traced run, an outside-in layer ledger. See
//! `benchmark/README.md`.
//!
//! ```text
//! mloc-benchmark --workload <name> [--seed 42] [--seconds 15] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod common;
mod explore;
mod gen;
mod import;
mod ledger;
mod metrics;
mod oracle;
mod probes;
mod stats;
mod storm;
mod sut;
#[cfg(test)]
mod sut_tests;
mod trace;

use common::{Ctx, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

fn usage() -> String {
    format!(
        "usage: mloc-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        metrics::WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42u64, DEFAULT_SECONDS, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, seed, seconds, trace))
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "import" => import::import(ctx),
        "explore_cold" => explore::explore_cold(ctx),
        "explore_warm" => explore::explore_warm(ctx),
        "storm" => storm::storm(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // All scratch data stays inside the checkout, under benchmark/out:
    // relative to the checkout root the command runs from, else beside
    // the sources this binary was built from.
    let out_dir = if std::path::Path::new("benchmark/src").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    let data_dir = out_dir.join(format!("data-{}", std::process::id()));
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
        data_dir,
    };
    let outcome = run(&ctx);
    common::clean_up(&ctx);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };

    let decls: &[metrics::Decl] = if trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload,
        seed,
        seconds,
        u8::from(trace)
    );
    for &(name, unit, _) in decls {
        let v = outcome.metrics.get(name).unwrap_or(0.0);
        println!("  {name:<38} {v:>16.6} {unit}");
    }
    for note in &outcome.notes {
        println!("  # {note}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json(decls)
    );
    ExitCode::SUCCESS
}
