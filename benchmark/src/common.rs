//! What the four workloads share: the field, the set-up phase, the
//! per-op driver and the slice scheduler.

use crate::gen::QuerySpec;
use crate::metrics::Values;
use crate::oracle::Oracle;
use crate::stats;
use crate::sut::{self, Backend, BuildStats, Exec, Geometry, OpMetrics, Store, Variant};
use crate::trace::{self, Recorder};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Field side of the query workloads: a 1024² GTS-like field (8 MiB).
pub const FIELD_N: usize = 1024;
/// Chunk side: 128² chunks, an 8×8 chunk grid on the query field.
pub const CHUNK_N: usize = 128;
/// Equal-frequency value bins (the paper's setting).
pub const BINS: usize = 100;
/// Worker threads of every build (`nproc` = 2 on the reference box).
pub const BUILD_THREADS: usize = 2;
/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Every `FULL_CHECK_EVERY`-th op gets the oracle's full comparison.
pub const FULL_CHECK_EVERY: usize = 16;
/// Progressive ops stop refining at this relative error bound.
pub const TARGET_EPS: f64 = 1e-6;

/// Geometry of a `side`² field.
pub fn geometry_of(side: usize) -> Geometry {
    Geometry {
        shape: vec![side, side],
        chunk: vec![CHUNK_N, CHUNK_N],
        bins: BINS,
    }
}

/// Geometry of the field the query workloads read.
pub fn geometry() -> Geometry {
    geometry_of(FIELD_N)
}

/// One invocation's arguments and scratch locations.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out`: traces and scratch data, inside the checkout.
    pub out_dir: PathBuf,
    /// This process's data directory under `out_dir`; removed at exit.
    pub data_dir: PathBuf,
}

/// What a workload hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    /// Human-readable notes (sample counts, ledger sums).
    pub notes: Vec<String>,
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Remove this run's data and push the deletions (and anything else
/// still dirty under `out_dir`) to disk now, so that write-back of
/// this run's leftovers does not slow the next run's fsyncs. Data
/// directories are never removed between timed phases for the same
/// reason.
pub fn clean_up(ctx: &Ctx) {
    let _ = std::fs::remove_dir_all(&ctx.data_dir);
    if let Ok(dir) = std::fs::File::open(&ctx.out_dir) {
        let _ = dir.sync_all();
    }
}

/// One variant's build: its report and the harness-side wall.
pub type Build = (Variant, BuildStats, f64);

/// What one set-up left behind.
pub struct Built {
    pub raw: Vec<f64>,
    /// Directory holding the built variants.
    pub dir: PathBuf,
    pub builds: Vec<Build>,
}

/// The set-up phase of the query workloads: generate the field, build
/// `variants` into a fresh directory on a plain `DirBackend`, open
/// them. A run sets up `SETUP_REPEATS` times: once before the timed
/// phase, which reads what that repeat built, and once between each
/// two thirds of it. Spreading the repeats widens the stretch of wall
/// time the timed ops (and the builds) sample, which is what makes
/// their fastest observations repeatable on a box whose speed shifts
/// for ten seconds at a time.
pub struct Setups<'c> {
    ctx: &'c Ctx,
    variants: &'c [Variant],
    walls_s: Vec<f64>,
    /// Fastest build wall of each variant over the repeats so far.
    best_build_s: Vec<f64>,
}

impl<'c> Setups<'c> {
    pub fn new(ctx: &'c Ctx, variants: &'c [Variant]) -> Self {
        Setups {
            ctx,
            variants,
            walls_s: Vec::new(),
            best_build_s: vec![f64::INFINITY; variants.len()],
        }
    }

    /// Set up once more, into a directory of its own.
    pub fn run(&mut self) -> Result<Built, String> {
        let dir = self
            .ctx
            .data_dir
            .join(format!("setup-{}", self.walls_s.len()));
        let t0 = Instant::now();
        let raw = sut::gen_field(FIELD_N);
        let backend = Backend::open(&dir, None)?;
        let mut builds = Vec::new();
        for (&v, best) in self.variants.iter().zip(&mut self.best_build_s) {
            let t = Instant::now();
            let stats = sut::build(&backend, v, &geometry(), BUILD_THREADS, &raw)?;
            let wall = t.elapsed().as_secs_f64();
            *best = best.min(wall);
            builds.push((v, stats, wall));
        }
        for &v in self.variants {
            sut::open(&backend, v, None)?;
        }
        self.walls_s.push(t0.elapsed().as_secs_f64());
        Ok(Built { raw, dir, builds })
    }

    /// `setup_s`, `import_mib_s` and `stored_ratio` of a query
    /// workload: the median set-up, the raw MiB of one set-up over the
    /// fastest build of each variant, and stored over raw bytes.
    pub fn set_metrics(&self, metrics: &mut Values, builds: &[Build]) {
        metrics.set("setup_s", stats::median(&self.walls_s));
        let raw_bytes: u64 = builds.iter().map(|b| b.1.raw_bytes).sum();
        metrics.set(
            "import_mib_s",
            raw_bytes as f64 / (1 << 20) as f64 / self.best_build_s.iter().sum::<f64>(),
        );
        let stored: u64 = builds.iter().map(|b| b.1.stored_bytes).sum();
        metrics.set("stored_ratio", stored as f64 / raw_bytes as f64);
    }
}

/// Record the per-variant stage times of `builds` (means over the
/// builds of each variant) as `build.<stage>_s.<variant>`.
pub fn set_build_metrics(metrics: &mut Values, builds: &[Build]) {
    for v in Variant::ALL {
        let of: Vec<&Build> = builds.iter().filter(|b| b.0 == v).collect();
        if of.is_empty() {
            continue;
        }
        let mean =
            |f: &dyn Fn(&Build) -> f64| of.iter().map(|b| f(b)).sum::<f64>() / of.len() as f64;
        let n = v.name();
        metrics.set(&format!("build.encode_s.{n}"), mean(&|b| b.1.encode_s));
        metrics.set(&format!("build.layout_s.{n}"), mean(&|b| b.1.layout_s));
        metrics.set(&format!("build.write_s.{n}"), mean(&|b| b.1.write_s));
        metrics.set(
            &format!("build.other_s.{n}"),
            mean(&|b| (b.2 - b.1.encode_s - b.1.layout_s - b.1.write_s).max(0.0)),
        );
    }
}

/// One query op of a workload's fixed op list.
pub struct Op {
    pub kind: &'static str,
    pub variant: Variant,
    pub spec: QuerySpec,
    pub prepared: sut::Prepared,
    /// Run as a progressive ladder to `TARGET_EPS`.
    pub progressive: bool,
    /// Oracle hit count, computed once outside the timed phase.
    pub expected: u64,
}

impl Op {
    pub fn new(
        oracle: &Oracle<'_>,
        kind: &'static str,
        variant: Variant,
        spec: QuerySpec,
        progressive: bool,
    ) -> Op {
        Op {
            kind,
            variant,
            prepared: sut::prepare(&spec),
            expected: oracle.count(&spec),
            spec,
            progressive,
        }
    }

    /// Relative value tolerance of this op's answer.
    fn tolerance(&self, reached_bound: f64) -> f64 {
        if self.variant == Variant::Isa {
            return sut::ISA_ERROR_BOUND;
        }
        if self.progressive {
            return reached_bound;
        }
        if self.spec.plod < crate::gen::FULL_PLOD {
            sut::plod_error_bound(self.spec.plod)
        } else {
            0.0
        }
    }
}

/// Where in the run an op falls. Counts (bytes, seeks, simulated I/O)
/// are taken over fixed sets of ops so they repeat exactly however
/// many laps the time budget allows: end-to-end counts over the
/// *reference session* (`WarmUp` + `First`), per-layer counts over the
/// first timed lap (`First`). Timings use every timed op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// Untimed cache-filling pass before the timed phase.
    #[default]
    WarmUp,
    /// The first timed lap over the op list.
    First,
    /// Any later timed lap.
    Later,
}

impl Phase {
    pub fn of_lap(lap: usize) -> Phase {
        if lap == 0 {
            Phase::First
        } else {
            Phase::Later
        }
    }
    pub fn timed(self) -> bool {
        self != Phase::WarmUp
    }
    pub fn reference(self) -> bool {
        self != Phase::Later
    }
}

/// One executed op, as measured from outside.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpRecord {
    /// Which op of the workload's pool this was.
    pub pool: usize,
    pub phase: Phase,
    pub progressive: bool,
    pub ok: bool,
    pub wall_s: f64,
    pub plan_s: f64,
    /// Step-0 seconds of a progressive op, else 0.
    pub step0_s: f64,
    pub hits: u64,
    pub m: OpMetrics,
    pub plan_units: usize,
    pub plan_bins: usize,
    pub plan_aligned: usize,
    pub plan_chunks: usize,
    /// Progressive ops: steps taken and logical bytes to the target.
    pub steps: usize,
    pub ladder_bytes: u64,
    /// Distinct files read (traced arm only).
    pub files: usize,
}

/// One side of a run: the untraced arm reads through a plain
/// `DirBackend`; the traced arm (`--trace 1` only) reads through the
/// `TimedBackend` shim and records spans.
pub struct Arm<'a> {
    pub rec: Option<Arc<Recorder>>,
    pub stores: Vec<(Variant, Store<'a>)>,
    pub records: Vec<OpRecord>,
    pub failures: Vec<String>,
    next_op_id: u64,
}

impl<'a> Arm<'a> {
    pub fn new(rec: Option<Arc<Recorder>>, stores: Vec<(Variant, Store<'a>)>) -> Self {
        Arm {
            rec,
            stores,
            records: Vec::new(),
            failures: Vec::new(),
            next_op_id: 1,
        }
    }

    fn store(&self, v: Variant) -> &Store<'a> {
        &self
            .stores
            .iter()
            .find(|s| s.0 == v)
            .expect("variant opened by the workload")
            .1
    }

    /// Run one op: plan and execute (or climb the progressive ladder)
    /// inside the timed region, then check the answer outside it.
    pub fn run_op(
        &mut self,
        exec: &Exec,
        oracle: &Oracle<'_>,
        op: &Op,
        pool: usize,
        phase: Phase,
        full_check: bool,
    ) {
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        let rec = self.rec.clone();
        let rec = rec.as_deref();
        let store = self.store(op.variant);
        if let Some(r) = rec {
            r.begin_op(op_id);
        }
        let mut record = OpRecord {
            pool,
            phase,
            progressive: op.progressive,
            ..OpRecord::default()
        };

        let t0 = Instant::now();
        let result: Result<(sut::Answer, OpMetrics, f64), String> = trace::span(rec, "op", || {
            if op.progressive {
                let started = trace::span(rec, "progressive.step0", || {
                    sut::progressive(exec, store, &op.prepared)
                });
                record.step0_s = t0.elapsed().as_secs_f64();
                let mut ladder = started?;
                trace::span(rec, "progressive.refine", || ladder.run_to(TARGET_EPS))?;
                let (answer, m, steps) = ladder.finish();
                record.steps = steps.len();
                record.ladder_bytes = steps.iter().map(|s| s.logical_bytes).sum();
                let bound = steps.last().map_or(0.0, |s| s.error_bound);
                Ok((answer, m, bound))
            } else {
                let planned = trace::span(rec, "plan", || sut::plan(store, &op.prepared));
                record.plan_s = t0.elapsed().as_secs_f64();
                let plan = planned?;
                record.plan_units = plan.units();
                record.plan_bins = plan.bins();
                record.plan_aligned = plan.aligned_bins();
                record.plan_chunks = plan.chunks();
                let (answer, m) = trace::span(rec, "execute", || {
                    sut::execute(exec, store, &op.prepared, &plan)
                })?;
                Ok((answer, m, 0.0))
            }
        });
        record.wall_s = t0.elapsed().as_secs_f64();
        if let Some(r) = rec {
            record.files = r.take_files();
        }

        // The oracle runs here, outside the timed region.
        match result {
            Ok((answer, m, bound)) => {
                record.m = m;
                record.hits = answer.positions().len() as u64;
                let verdict = if full_check {
                    oracle.check_full(
                        &op.spec,
                        op.expected,
                        answer.positions(),
                        answer.values(),
                        op.tolerance(bound),
                    )
                } else if record.hits == op.expected {
                    Ok(())
                } else {
                    Err(format!("{} hits, oracle says {}", record.hits, op.expected))
                };
                match verdict {
                    Ok(()) => record.ok = true,
                    Err(e) => self.failures.push(format!("op {op_id} ({}): {e}", op.kind)),
                }
            }
            Err(e) => self.failures.push(format!("op {op_id} ({}): {e}", op.kind)),
        }
        self.records.push(record);
    }
}

/// Walks a workload's slices cyclically, in as many segments as the
/// caller asks for. With two arms (traced runs) each slice runs on arm
/// 0 then arm 1, so the arms are paired.
pub struct Schedule {
    arms: usize,
    slices: usize,
    done: usize,
}

impl Schedule {
    pub fn new(arms: usize, slices: usize) -> Self {
        Schedule {
            arms,
            slices,
            done: 0,
        }
    }

    /// Go on until `seconds` more of timed work are done and `min_done`
    /// slices have run since the start, always finishing a slice.
    ///
    /// `run(arm, slice_index, lap)` returns the seconds of timed work it
    /// did (oracle time excluded); its first error ends the run.
    pub fn run_for(
        &mut self,
        seconds: f64,
        min_done: usize,
        run: &mut impl FnMut(usize, usize, usize) -> Result<f64, String>,
    ) -> Result<(), String> {
        let mut timed = 0.0;
        while timed < seconds || self.done < min_done {
            let (slice, lap) = (self.done % self.slices, self.done / self.slices);
            for arm in 0..self.arms {
                timed += run(arm, slice, lap)?;
            }
            self.done += 1;
        }
        Ok(())
    }
}

/// End a traced run: write the spans to
/// `benchmark/out/trace-<workload>.jsonl` and return the self time of
/// every span name (duration minus what its children cover) as notes.
pub fn finish_trace(ctx: &Ctx, rec: &Recorder) -> Result<Vec<String>, String> {
    let path = ctx.out_dir.join(format!("trace-{}.jsonl", ctx.workload));
    rec.write_jsonl(&path).map_err(|e| e.to_string())?;
    let mut notes = vec![format!(
        "{} spans written to {}; self time by span name:",
        rec.span_count(),
        path.display()
    )];
    for (name, self_s, count) in rec.self_times() {
        notes.push(format!(
            "  {name:<20} {self_s:>10.4} s self over {count} spans"
        ));
    }
    Ok(notes)
}

/// The fastest timed wall of each of a workload's `pool` ops.
///
/// Interference on a shared box only ever slows an op down, and it
/// comes and goes within seconds; an op list is walked several times
/// per run, so the minimum over an op's repetitions is the repeatable
/// part of its latency. An op that failed once has no latency (it
/// counts in `failed`), nor has one the timed phase never ran.
pub fn best_walls(records: &[OpRecord], pool: usize) -> Vec<Option<f64>> {
    let mut best = vec![Some(f64::INFINITY); pool];
    for r in records.iter().filter(|r| r.phase.timed()) {
        best[r.pool] = match (best[r.pool], r.ok) {
            (Some(b), true) => Some(b.min(r.wall_s)),
            _ => None,
        };
    }
    best.into_iter()
        .map(|b| b.filter(|w| w.is_finite()))
        .collect()
}

/// Throughput and latency percentiles of a set of op walls.
pub fn set_latency_metrics(metrics: &mut Values, walls_s: &[f64]) {
    let ms: Vec<f64> = walls_s.iter().map(|w| w * 1e3).collect();
    metrics.set(
        "ops_per_s",
        walls_s.len() as f64 / walls_s.iter().sum::<f64>(),
    );
    metrics.set("lat_p50_ms", stats::percentile(&ms, 50.0));
    metrics.set("lat_p95_ms", stats::percentile(&ms, 95.0));
}

/// `(untraced - traced) / untraced` throughput, in percent.
pub fn overhead_pct(untraced_walls: &[f64], traced_walls: &[f64]) -> f64 {
    let rate = |w: &[f64]| w.len() as f64 / w.iter().sum::<f64>();
    let (u, t) = (rate(untraced_walls), rate(traced_walls));
    100.0 * (u - t) / u
}
