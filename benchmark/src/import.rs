//! `import`: the write path beside the reads. Each round generates
//! the field (the set-up, once per variant) and builds the three
//! variants the paper evaluates into a fresh directory — `Dataset::create` +
//! `add_variable` with two build threads and the fsynced catalog chain
//! — then runs `fsck` and `verify_dataset` on each. One op is one
//! variant's build + fsck + verify. The first round's datasets are read
//! back through the query path and compared with the oracle.
//!
//! It uses `compress` to encode, `bitmap` to build, `pfs` to append and
//! sync and `runtime::parallel_map` to fan out: the opposite use of the
//! layers the query workloads decode, probe and read. A decode win
//! that costs encode, or a layout that costs build, shows here.
//!
//! Closed loop, one client; the build fans out over two threads.

use crate::common::{self, geometry_of, Build, Ctx, Outcome, Schedule, BUILD_THREADS};
use crate::gen::{QueryGen, QuerySpec};
use crate::metrics::Values;
use crate::oracle::Oracle;
use crate::probes;
use crate::stats;
use crate::sut::{self, Backend, Exec, Variant};
use crate::trace::{self, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// Side of the imported field: 512² (2 MiB) with the query field's
/// 128² chunks and 100 bins — the same storage units, a 4×4 chunk grid.
/// Build time goes with the number of units, so a quarter-size field
/// gives four times the rounds per run, and the fastest import per
/// variant over ~10 rounds is far steadier than over 3.
const IMPORT_N: usize = 512;
/// Read-back queries per variant of the first round, checked in full
/// against the oracle.
const READBACK_SC: usize = 64;
const READBACK_VC: usize = 32;

#[derive(Default)]
struct Arm {
    rec: Option<Arc<Recorder>>,
    /// `(variant, import wall, build wall)` of every clean import.
    ops: Vec<(Variant, f64, f64)>,
    builds: Vec<Build>,
    fsck_s: Vec<f64>,
    verify_s: Vec<f64>,
    verify_bytes: u64,
    rounds: usize,
    /// The field the next import builds.
    field: Vec<f64>,
    /// Datagen wall after every import: the set-up samples.
    datagen_s: Vec<f64>,
    /// Read-back counts of the first round.
    io_s: Vec<f64>,
    bytes_read: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

/// SC value reads for every variant; VC region reads for the lossless
/// ones (a lossy codec may move a value across a constraint edge).
fn readback_queries(sorted: &[f64], seed: u64, variant: Variant) -> Vec<QuerySpec> {
    let mut g = QueryGen::new(sorted, geometry_of(IMPORT_N).shape, seed);
    let mut out: Vec<QuerySpec> = (0..READBACK_SC)
        .map(|k| QuerySpec::sc_values(g.region(0.01, k, READBACK_SC)))
        .collect();
    if variant != Variant::Isa {
        out.extend(
            (0..READBACK_VC)
                .map(|k| QuerySpec::vc_region(g.value_constraint(0.01, k, READBACK_VC))),
        );
    }
    out
}

/// `f` under a span, with its wall in seconds.
fn spanned<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = trace::span(rec, name, f);
    (out, t.elapsed().as_secs_f64())
}

impl Arm {
    /// Per variant, the fastest import and the fastest build over the
    /// rounds: interference on a shared box only slows a build down, so
    /// the minimum over rounds is the repeatable part.
    fn best(&self) -> Vec<(f64, f64)> {
        Variant::ALL
            .iter()
            .filter_map(|&v| {
                let of = || self.ops.iter().filter(move |o| o.0 == v);
                of().next()?;
                let min =
                    |f: fn(&(Variant, f64, f64)) -> f64| of().map(f).fold(f64::INFINITY, f64::min);
                Some((min(|o| o.1), min(|o| o.2)))
            })
            .collect()
    }

    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// One round: import the field as each variant into `dir`, each
    /// import followed by the set-up of the next (generating the field
    /// again). The first round's imports are read back through the
    /// query path against the oracle, untimed. Returns the timed seconds.
    fn round(
        &mut self,
        ctx: &Ctx,
        sorted: &[f64],
        oracle: &Oracle<'_>,
        dir: &std::path::Path,
    ) -> Result<f64, String> {
        let geo = geometry_of(IMPORT_N);
        let backend = Backend::open(dir, self.rec.clone())?;
        let rec = self.rec.clone();
        let rec = rec.as_deref();
        let mut timed = 0.0;
        for variant in Variant::ALL {
            self.attempted += 1;
            let t0 = Instant::now();
            let ((built, build_s), (fsck, fsck_s), (verify, verify_s)) =
                trace::span(rec, "import", || {
                    (
                        spanned(rec, "build", || {
                            sut::build(&backend, variant, &geo, BUILD_THREADS, &self.field)
                        }),
                        spanned(rec, "fsck", || sut::fsck(&backend, variant)),
                        spanned(rec, "verify", || sut::verify(&backend, variant)),
                    )
                });
            let wall = t0.elapsed().as_secs_f64();
            timed += wall;
            // Set up the next import.
            let t = Instant::now();
            self.field = sut::gen_field(IMPORT_N);
            self.datagen_s.push(t.elapsed().as_secs_f64());

            let name = variant.name();
            let stats = match (built, fsck, verify) {
                (Ok(stats), Ok(true), Ok(true)) => stats,
                (b, f, v) => {
                    self.fail(format!(
                        "import {name}: build {:?}, fsck clean {f:?}, verify clean {v:?}",
                        b.map(|_| ())
                    ));
                    continue;
                }
            };
            self.ops.push((variant, wall, build_s));
            self.builds.push((variant, stats, build_s));
            self.fsck_s.push(fsck_s);
            self.verify_s.push(verify_s);
            self.verify_bytes += stats.stored_bytes;

            if self.rounds > 0 {
                continue;
            }
            // Read back through the query path; untimed.
            let store = sut::open(&backend, variant, None)?;
            let exec = Exec::one_rank();
            for spec in readback_queries(sorted, ctx.seed, variant) {
                let prepared = sut::prepare(&spec);
                let answer = sut::plan(&store, &prepared)
                    .and_then(|p| sut::execute(&exec, &store, &prepared, &p));
                let tol = if variant == Variant::Isa {
                    sut::ISA_ERROR_BOUND
                } else {
                    0.0
                };
                let checked = answer.and_then(|(a, m)| {
                    oracle
                        .check_full(&spec, oracle.count(&spec), a.positions(), a.values(), tol)
                        .map(|()| m)
                });
                match checked {
                    Ok(m) => {
                        self.io_s.push(m.io_s);
                        self.bytes_read.push(m.bytes_read as f64);
                    }
                    Err(e) => self.fail(format!("read-back {name}: {e}")),
                }
            }
        }
        self.rounds += 1;
        Ok(timed)
    }
}

pub fn import(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up is datagen alone, repeated for every import; the builds are
    // the timed phase. This copy of the field serves the oracle and the
    // first import.
    let raw = sut::gen_field(IMPORT_N);
    let mut sorted = raw.clone();
    sorted.sort_by(f64::total_cmp);
    let oracle = Oracle::new(&raw, &sorted, vec![IMPORT_N, IMPORT_N]);

    let rec = ctx.trace.then(|| Arc::new(Recorder::new()));
    let arm = |rec| Arm {
        rec,
        field: raw.clone(),
        ..Arm::default()
    };
    let mut arms = vec![arm(None)];
    if rec.is_some() {
        arms.push(arm(rec.clone()));
    }
    Schedule::new(arms.len(), 1).run_for(ctx.seconds, 1, &mut |a, _, lap| {
        let dir = ctx.data_dir.join(format!("import-{a}-{lap}"));
        arms[a].round(ctx, &sorted, &oracle, &dir)
    })?;

    let mut metrics = Values::default();
    let mut notes = Vec::new();
    let raw_mib = (raw.len() * 8) as f64 / (1 << 20) as f64;
    let walls = |arm: &Arm| -> Vec<f64> { arm.best().iter().map(|b| b.0).collect() };
    if let Some(r) = &rec {
        let arm = &arms[1];
        let rounds = arm.rounds.max(1) as f64;
        let append = r.totals(trace::APPEND);
        let sync = r.totals(trace::SYNC);
        metrics.set(
            "pfs.append_mib",
            append.bytes as f64 / (1 << 20) as f64 / rounds,
        );
        metrics.set("pfs.append_busy_s", append.busy_ns as f64 * 1e-9 / rounds);
        metrics.set("pfs.sync_calls", sync.calls as f64 / rounds);
        metrics.set("pfs.sync_busy_s", sync.busy_ns as f64 * 1e-9 / rounds);
        metrics.set("pfs.errors", r.errors() as f64);
        common::set_build_metrics(&mut metrics, &arm.builds);
        metrics.set("repair.fsck_s", stats::mean(&arm.fsck_s));
        metrics.set(
            "repair.verify_mib_s",
            arm.verify_bytes as f64 / (1 << 20) as f64 / arm.verify_s.iter().sum::<f64>(),
        );
        let regions: Vec<_> = readback_queries(&sorted, ctx.seed, Variant::Col)
            .into_iter()
            .filter_map(|q| q.sc)
            .collect();
        probes::run_all(&mut metrics, &raw, IMPORT_N, &regions, ctx.seed);
        metrics.set(
            "trace.overhead_pct",
            common::overhead_pct(&walls(&arms[0]), &walls(arm)),
        );
        notes.push(format!("{} traced rounds", arm.rounds));
        notes.extend(common::finish_trace(ctx, r)?);
    } else {
        let arm = &arms[0];
        common::set_latency_metrics(&mut metrics, &walls(arm));
        metrics.set("sim_io_s", stats::mean(&arm.io_s));
        metrics.set("read_bytes_per_op", stats::mean(&arm.bytes_read));
        // The median, not the fastest: datagen runs ~1.7x faster
        // early in a process than after a few imports (fresh pages cost
        // more then), and the one or two early samples are not the rule.
        metrics.set("setup_s", stats::median(&arm.datagen_s));
        let best = arm.best();
        metrics.set(
            "import_mib_s",
            raw_mib * best.len() as f64 / best.iter().map(|b| b.1).sum::<f64>(),
        );
        // Stored / raw over the three variants of the first round.
        let first: Vec<_> = arm.builds.iter().take(Variant::ALL.len()).collect();
        metrics.set(
            "stored_ratio",
            first.iter().map(|b| b.1.stored_bytes).sum::<u64>() as f64
                / first.iter().map(|b| b.1.raw_bytes).sum::<u64>().max(1) as f64,
        );
        notes.push(format!(
            "{} imports over {} rounds, timings the fastest per variant; \
             counts over {} read-back queries",
            arm.ops.len(),
            arm.rounds,
            arm.io_s.len()
        ));
    }

    let attempted = arms.iter().map(|a| a.attempted).sum();
    let failures: Vec<String> = arms.iter().flat_map(|a| a.failures.clone()).collect();
    for f in failures.iter().take(10) {
        notes.push(format!("FAILED {f}"));
    }
    metrics.set("peak_rss_mib", common::peak_rss_mib());
    Ok(Outcome {
        attempted,
        failed: failures.len() as u64,
        metrics,
        notes,
    })
}
