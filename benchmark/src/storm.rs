//! `storm`: multi-tenant serve. One resident query server, eight
//! tenants, a batch of 320 sessions in admission windows of 16,
//! submitted again and again after one untimed batch of other queries.
//!
//! Closed loop by construction: `QueryServer::run` is a batch API that
//! returns when every session of the batch has completed, and the next
//! batch is submitted only then. Two worker threads serve each window
//! (sessions of one tenant run serially), so the system under test
//! uses two threads. No budgets: every session must succeed.

use crate::common::{
    self, geometry, Built, Ctx, Outcome, Schedule, Setups, FIELD_N, FULL_CHECK_EVERY,
    SETUP_REPEATS, TARGET_EPS,
};
use crate::gen::{QueryGen, QuerySpec};
use crate::metrics::Values;
use crate::oracle::Oracle;
use crate::probes;
use crate::stats;
use crate::sut::{Backend, Batch, Server, ServerCfg, SessionOut, Variant};
use crate::trace::{self, Recorder};
use std::sync::Arc;
use std::time::Instant;

const TENANTS: [&str; 8] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];
/// Distinct queries per batch; each is issued by two tenants back to
/// back, so a batch is 320 sessions.
const DISTINCT: usize = 160;
/// The untimed warm-up batch and the timed batch.
const BATCHES: usize = 2;
const WINDOW: usize = 16;
/// Smaller than the working set, so the cache evicts.
const CACHE_MB: u64 = 2;
const CFG: ServerCfg = ServerCfg {
    workers: 2,
    window: WINDOW,
    fusion: true,
    cache_mb: CACHE_MB,
};

struct Session {
    spec: QuerySpec,
    progressive: bool,
    expected: u64,
}

struct Sessions {
    batch: Batch,
    sessions: Vec<Session>,
}

/// Kinds as in `serve_bench`: VC region, VC values, SC values, VC+SC
/// values; VC selectivity 8–16 %, regions 15 %. Every 10th session is
/// progressive.
fn build_batches(oracle: &Oracle<'_>, sorted: &[f64], seed: u64) -> Vec<Sessions> {
    let mut g = QueryGen::new(sorted, geometry().shape, seed);
    let total = BATCHES * DISTINCT;
    (0..BATCHES)
        .map(|b| {
            let mut batch = Batch::default();
            let mut sessions = Vec::new();
            for i in 0..DISTINCT {
                // Interleaved, so each batch covers the whole field.
                let k = i * BATCHES + b;
                let vc = g.value_constraint(0.08 + 0.02 * (i % 5) as f64, k, total);
                let region = g.region(0.15, k, total);
                let spec = match i % 4 {
                    0 => QuerySpec::vc_region(vc),
                    1 => QuerySpec::vc_values(vc),
                    2 => QuerySpec::sc_values(region),
                    _ => QuerySpec::vc_sc_values(vc, region),
                };
                let expected = oracle.count(&spec);
                for tenant in [TENANTS[i % 8], TENANTS[(i + 1) % 8]] {
                    let progressive = sessions.len() % 10 == 9;
                    batch.push(
                        tenant,
                        Variant::Col,
                        &spec,
                        progressive.then_some(TARGET_EPS),
                    );
                    sessions.push(Session {
                        spec: spec.clone(),
                        progressive,
                        expected,
                    });
                }
            }
            Sessions { batch, sessions }
        })
        .collect()
}

/// One arm: a resident server and what its sessions reported.
struct Arm<'a> {
    server: Server<'a>,
    /// The traced arm submits window by window, under a span each, so
    /// a window's wall is measured from outside.
    rec: Option<Arc<Recorder>>,
    /// Windows submitted so far; the op id of their spans.
    windows_run: u64,
    walls_s: Vec<f64>,
    window_walls_s: Vec<f64>,
    /// The `run()` wall of each timed submission of the batch.
    run_walls_s: Vec<f64>,
    /// Per session of the batch, its fastest wall over the timed
    /// submissions; `None` once it has failed.
    best_wall_s: Vec<Option<f64>>,
    io_s: Vec<f64>,
    bytes_read: Vec<f64>,
    seeks: u64,
    bytes_saved: u64,
    fused_bytes_saved: u64,
    ladder_steps: Vec<f64>,
    ladder_bytes: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl<'a> Arm<'a> {
    fn new(backend: &'a Backend, rec: Option<Arc<Recorder>>) -> Self {
        Arm {
            server: Server::new(backend, CFG),
            rec,
            windows_run: 0,
            walls_s: Vec::new(),
            window_walls_s: Vec::new(),
            run_walls_s: Vec::new(),
            best_wall_s: Vec::new(),
            io_s: Vec::new(),
            bytes_read: Vec::new(),
            seeks: 0,
            bytes_saved: 0,
            fused_bytes_saved: 0,
            ladder_steps: Vec::new(),
            ladder_bytes: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Submit one batch; returns the wall of the `run` call(s).
    fn submit(&mut self, built: &Sessions, windows: &[Batch]) -> (Vec<SessionOut>, f64) {
        let Some(rec) = &self.rec else {
            let t = Instant::now();
            let out = self.server.run(&built.batch);
            return (out, t.elapsed().as_secs_f64());
        };
        let mut out = Vec::with_capacity(built.batch.len());
        for w in windows {
            self.windows_run += 1;
            rec.begin_op(self.windows_run);
            let span = rec.open("window");
            out.extend(self.server.run(w));
            self.window_walls_s.push(rec.close(span));
        }
        let wall = self.window_walls_s[self.window_walls_s.len() - windows.len()..]
            .iter()
            .sum();
        (out, wall)
    }

    /// Run one batch; `timed` = false for the untimed warm-up batch.
    fn run_batch(
        &mut self,
        oracle: &Oracle<'_>,
        built: &Sessions,
        windows: &[Batch],
        timed: bool,
        lap: usize,
    ) -> f64 {
        let (out, wall) = self.submit(built, windows);
        // Checks and bookkeeping happen outside the timed call.
        self.attempted += out.len() as u64;
        if timed && self.best_wall_s.is_empty() {
            self.best_wall_s = vec![Some(f64::INFINITY); out.len()];
        }
        for (i, (o, s)) in out.iter().zip(&built.sessions).enumerate() {
            let steps = o.steps();
            let bound = steps
                .as_ref()
                .and_then(|st| st.last().map(|l| l.error_bound))
                .unwrap_or(0.0);
            let verdict = o.answer().and_then(|(positions, values)| {
                if (i + lap).is_multiple_of(FULL_CHECK_EVERY) {
                    let tol = if s.progressive { bound } else { 0.0 };
                    oracle.check_full(&s.spec, s.expected, positions, values, tol)
                } else if positions.len() as u64 == s.expected {
                    Ok(())
                } else {
                    Err(format!(
                        "{} hits, oracle says {}",
                        positions.len(),
                        s.expected
                    ))
                }
            });
            if let Err(e) = verdict {
                self.failures.push(format!("session {i}: {e}"));
                if timed {
                    self.best_wall_s[i] = None;
                }
                continue;
            }
            if !timed {
                continue;
            }
            self.walls_s.push(o.wall_s());
            self.best_wall_s[i] = self.best_wall_s[i].map(|b| b.min(o.wall_s()));
            if let Some(m) = o.metrics() {
                self.io_s.push(m.io_s);
                self.bytes_read.push(m.bytes_read as f64);
                self.seeks += m.seeks;
                self.bytes_saved += m.bytes_saved;
                self.fused_bytes_saved += m.fused_bytes_saved;
            }
            if let (true, Some(st)) = (s.progressive, steps) {
                self.ladder_steps.push(st.len() as f64);
                self.ladder_bytes
                    .push(st.iter().map(|x| x.logical_bytes).sum::<u64>() as f64);
            }
        }
        if timed {
            self.run_walls_s.push(wall);
            wall
        } else {
            self.window_walls_s.clear();
            0.0
        }
    }
}

/// Per-session fixed cost: 320 one-point membership sessions through a
/// fresh server, in microseconds per session.
fn empty_session_us(backend: &Backend) -> f64 {
    let mut batch = Batch::default();
    for i in 0..320 {
        let point = (i * 7919) as u64 % (FIELD_N * FIELD_N) as u64;
        let spec = QuerySpec {
            vc: None,
            ..QuerySpec::membership((0.0, 0.0), vec![point])
        };
        batch.push(TENANTS[i % 8], Variant::Col, &spec, None);
    }
    let server = Server::new(backend, CFG);
    server.run(&batch);
    let t = Instant::now();
    let out = server.run(&batch);
    let s = t.elapsed().as_secs_f64();
    assert!(
        out.iter().all(|o| o.answer().is_ok()),
        "empty sessions succeed"
    );
    1e6 * s / batch.len() as f64
}

pub fn storm(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setups = Setups::new(ctx, &[Variant::Col]);
    let Built { raw, dir, builds } = setups.run()?;
    let mut sorted = raw.clone();
    sorted.sort_by(f64::total_cmp);
    let oracle = Oracle::new(&raw, &sorted, vec![FIELD_N, FIELD_N]);
    let batches = build_batches(&oracle, &sorted, ctx.seed);
    let windows: Vec<Vec<Batch>> = batches
        .iter()
        .map(|b| {
            (0..b.batch.len())
                .step_by(WINDOW)
                .map(|s| b.batch.slice(s..(s + WINDOW).min(b.batch.len())))
                .collect()
        })
        .collect();

    let rec = ctx.trace.then(|| Arc::new(Recorder::new()));
    let plain = Backend::open(&dir, None)?;
    let timed = match &rec {
        Some(r) => Some(Backend::open(&dir, Some(Arc::clone(r)))?),
        None => None,
    };
    let mut arms = vec![Arm::new(&plain, None)];
    if let Some(b) = &timed {
        arms.push(Arm::new(b, rec.clone()));
    }

    // One untimed batch takes each server from cold to steady state.
    const WARM: usize = 0;
    const TIMED: usize = 1;
    for arm in &mut arms {
        arm.run_batch(&oracle, &batches[WARM], &windows[WARM], false, 0);
    }
    let pfs_start = rec
        .as_ref()
        .map(|r| (r.read_requests(), r.read_bytes(), r.read_busy_ns()));
    let opens_start = timed.as_ref().map_or(0, Backend::opens);
    let traced = arms.len() - 1;
    let cache_start = arms[traced].server.cache();
    let fusion_start = arms[traced].server.fusion();
    // The timed phase: the same batch over and over, in as many
    // segments as the run sets up, with the other set-ups in between.
    let mut schedule = Schedule::new(arms.len(), 1);
    let mut submit = |a: usize, _, lap| {
        Ok(arms[a].run_batch(&oracle, &batches[TIMED], &windows[TIMED], true, lap))
    };
    for k in 1..=SETUP_REPEATS {
        schedule.run_for(ctx.seconds / SETUP_REPEATS as f64, 1, &mut submit)?;
        if k < SETUP_REPEATS {
            setups.run()?;
        }
    }

    let mut metrics = Values::default();
    let mut notes = Vec::new();
    if let (Some(r), Some(backend)) = (&rec, &timed) {
        let arm = &arms[traced];
        let n = arm.walls_s.len() as f64;
        let (req0, bytes0, busy0) = pfs_start.expect("traced run");
        metrics.set(
            "pfs.read_calls_per_op",
            (r.read_requests() - req0) as f64 / n,
        );
        metrics.set(
            "pfs.read_bytes_per_op",
            (r.read_bytes() - bytes0) as f64 / n,
        );
        metrics.set(
            "pfs.read_busy_ms_per_op",
            (r.read_busy_ns() - busy0) as f64 * 1e-6 / n,
        );
        let batch_calls = r.totals(trace::READ_BATCH).calls;
        if batch_calls > 0 {
            metrics.set(
                "pfs.batch_depth_mean",
                r.batch_requests() as f64 / batch_calls as f64,
            );
        }
        metrics.set("pfs.opens", (backend.opens() - opens_start) as f64);
        metrics.set("pfs.sim_seeks_per_op", arm.seeks as f64 / n);
        metrics.set("pfs.errors", r.errors() as f64);

        let (c0, c1) = (cache_start, arm.server.cache());
        let hits = (c1.hits - c0.hits) as f64;
        let misses = (c1.misses - c0.misses) as f64;
        metrics.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
        metrics.set("cache.evictions", (c1.evictions - c0.evictions) as f64);
        metrics.set(
            "cache.resident_mib",
            c1.resident_bytes as f64 / (1 << 20) as f64,
        );
        metrics.set("cache.bytes_saved_per_op", arm.bytes_saved as f64 / n);

        let (f0, f1) = (fusion_start, arm.server.fusion());
        let physical = (f1.physical_reads - f0.physical_reads) as f64;
        let fused = (f1.fused_reads - f0.fused_reads) as f64;
        metrics.set("fusion.physical_reads", physical);
        metrics.set("fusion.fused_reads", fused);
        metrics.set("fusion.fused_ratio", fused / (fused + physical).max(1.0));
        metrics.set(
            "fusion.bytes_saved_per_op",
            arm.fused_bytes_saved as f64 / n,
        );

        metrics.set("progressive.steps_per_op", stats::mean(&arm.ladder_steps));
        metrics.set("progressive.bytes_to_eps", stats::mean(&arm.ladder_bytes));

        let ms = |v: &[f64]| -> Vec<f64> { v.iter().map(|s| s * 1e3).collect() };
        metrics.set(
            "serve.window_ms_p50",
            stats::percentile(&ms(&arm.window_walls_s), 50.0),
        );
        metrics.set(
            "serve.wall_ms_p99",
            stats::percentile(&ms(&arm.walls_s), 99.0),
        );
        metrics.set("serve.empty_session_us", empty_session_us(&plain));

        common::set_build_metrics(&mut metrics, &builds);
        let regions: Vec<_> = batches
            .iter()
            .flat_map(|b| b.sessions.iter().step_by(2))
            .filter_map(|s| s.spec.sc.clone())
            .collect();
        probes::run_all(&mut metrics, &raw, FIELD_N, &regions, ctx.seed);
        let rate = |a: &Arm<'_>| a.walls_s.len() as f64 / a.run_walls_s.iter().sum::<f64>();
        metrics.set(
            "trace.overhead_pct",
            100.0 * (rate(&arms[0]) - rate(arm)) / rate(&arms[0]),
        );
        notes.push(format!(
            "{} traced sessions in {} windows",
            arm.walls_s.len(),
            arm.window_walls_s.len()
        ));
        notes.extend(common::finish_trace(ctx, r)?);
    } else {
        // Interference on a shared box only slows work down, so each
        // session's latency is its fastest over the submissions of the
        // batch, and the throughput that of the fastest submission.
        let arm = &arms[0];
        let walls: Vec<f64> = arm.best_wall_s.iter().flatten().copied().collect();
        common::set_latency_metrics(&mut metrics, &walls);
        metrics.set(
            "ops_per_s",
            batches[TIMED].batch.len() as f64 / stats::fastest(&arm.run_walls_s),
        );
        metrics.set("sim_io_s", stats::mean(&arm.io_s));
        metrics.set("read_bytes_per_op", stats::mean(&arm.bytes_read));
        setups.set_metrics(&mut metrics, &builds);
        notes.push(format!(
            "{} sessions in {} submissions of one batch; {} latency samples ({} beyond p95), \
             each the fastest of its session's runs; sessions/s by submission: {}",
            arm.walls_s.len(),
            arm.run_walls_s.len(),
            walls.len(),
            walls.len() / 20,
            arm.run_walls_s
                .iter()
                .map(|w| format!("{:.1}", batches[TIMED].batch.len() as f64 / w))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }

    let attempted = arms.iter().map(|a| a.attempted).sum();
    let failures: Vec<String> = arms.iter().flat_map(|a| a.failures.clone()).collect();
    for f in failures.iter().take(10) {
        notes.push(format!("FAILED {f}"));
    }
    drop(arms);
    metrics.set("peak_rss_mib", common::peak_rss_mib());
    Ok(Outcome {
        attempted,
        failed: failures.len() as u64,
        metrics,
        notes,
    })
}
