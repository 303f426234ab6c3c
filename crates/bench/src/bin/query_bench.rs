//! Query-path observability driver: proves the profiling contract on a
//! realistic session and emits `BENCH_query.json`.
//!
//! Three things are checked, mirroring the acceptance bar:
//!
//! 1. **Mode identity** — the same profiled query under deterministic
//!    replay and under the threaded runtime yields identical results,
//!    identical span structure, and identical counter values.
//! 2. **Reconciliation** — profile stage spans carry the very same
//!    floats as the returned `QueryMetrics`.
//! 3. **Overhead** — running the session with profiling on must stay
//!    within 1.5x of the unprofiled run (the measured percentage is
//!    reported and embedded in the JSON; the hard bound is loose so CI
//!    noise cannot fail it spuriously).
//!
//! Run with: `cargo run --release -p mloc-bench --bin query_bench`
//! (`--scale large` for a 256² field, `--ranks N` for the rank count).

use mloc::obs::Profile;
use mloc::prelude::*;
use mloc_bench::report::{note, title};
use mloc_bench::HarnessArgs;
use mloc_datagen::{gts_like_2d, QueryGen};
use mloc_pfs::{CostModel, MemBackend};
use std::hint::black_box;
use std::time::Instant;

fn session(values: &[f64], shape: &[usize], seed: u64, n: usize) -> Vec<Query> {
    let mut gen = QueryGen::new(values.to_vec(), shape.to_vec(), seed);
    let mut queries = Vec::new();
    for _ in 0..n {
        let (lo, hi) = gen.value_constraint(0.15);
        queries.push(Query::values_where(lo, hi));
        queries.push(Query::region(lo, hi));
    }
    let region = Region::new(shape.iter().map(|&e| (e / 8, e * 7 / 8)).collect());
    queries.push(Query::values_in(region.clone()));
    queries.push(Query::values_in(region).with_plod(PlodLevel::new(2).unwrap()));
    queries
}

fn run_session(exec: &ParallelExecutor, store: &MlocStore<'_>, queries: &[Query]) -> f64 {
    let t = Instant::now();
    for q in queries {
        black_box(exec.execute(store, q).unwrap());
    }
    t.elapsed().as_secs_f64()
}

fn run_session_profiled(
    exec: &ParallelExecutor,
    store: &MlocStore<'_>,
    queries: &[Query],
) -> (f64, Profile) {
    let exec = exec.clone().profiled(true);
    let t = Instant::now();
    let mut profiles = Vec::with_capacity(queries.len());
    for q in queries {
        let out = exec.run(store, ExecRequest::new(q)).unwrap();
        black_box((out.result, out.metrics));
        profiles.push(out.profile);
    }
    (t.elapsed().as_secs_f64(), Profile::merge(profiles))
}

fn main() {
    let args = HarnessArgs::parse();
    let shape = if args.large {
        vec![256, 256]
    } else {
        vec![128, 128]
    };
    let field = gts_like_2d(shape[0], shape[1], args.seed);
    let config = MlocConfig::builder(shape.clone())
        .chunk_shape(vec![32, 32])
        .num_bins(16)
        .build();
    let be = MemBackend::new();
    build_variable(&be, "qb", "v", field.values(), &config).unwrap();
    let store = MlocStore::open(&be, "qb", "v").unwrap();
    let queries = session(field.values(), &shape, args.seed, args.queries.max(3));

    title(&format!(
        "Query observability: {shape:?} field, {} queries, {} ranks",
        queries.len(),
        args.ranks
    ));

    // 1. Replay vs threaded: identical results, structure, counters.
    let replay = ParallelExecutor::new(args.ranks, CostModel::default()).profiled(true);
    let threaded = replay.clone().threaded(true);
    for q in &queries {
        let r = replay.run(&store, ExecRequest::new(q)).unwrap();
        let t = threaded.run(&store, ExecRequest::new(q)).unwrap();
        let (res_r, m_r, p_r) = (r.result, r.metrics, r.profile);
        let (res_t, m_t, p_t) = (t.result, t.metrics, t.profile);
        assert_eq!(res_r, res_t, "threaded result diverged");
        assert_eq!(p_r.structure(), p_t.structure(), "span structure diverged");
        assert_eq!(p_r.counters, p_t.counters, "counters diverged");
        assert_eq!(m_r.bytes_read, m_t.bytes_read);

        // 2. Reconciliation: profile floats are the metrics floats.
        for (p, m) in [(&p_r, &m_r), (&p_t, &m_t)] {
            assert_eq!(p.span(&["io"]).unwrap().max_rank_seconds, m.io_s);
            assert_eq!(
                p.span(&["rank", "decompress"])
                    .map_or(0.0, |s| s.max_rank_seconds),
                m.decompress_s
            );
            assert_eq!(
                p.span(&["rank", "reconstruct"])
                    .map_or(0.0, |s| s.max_rank_seconds),
                m.reconstruct_s
            );
        }
    }
    note("replay/threaded profiles identical; spans reconcile with metrics");

    // 3. Overhead of profiling, against the plain path. One warmup of
    // each, then alternate measured passes to cancel drift.
    let serial = ParallelExecutor::new(1, CostModel::default());
    run_session(&serial, &store, &queries);
    run_session_profiled(&serial, &store, &queries);
    let (mut plain_s, mut profiled_s) = (0.0, 0.0);
    let mut merged = Profile::default();
    const REPS: usize = 5;
    for _ in 0..REPS {
        plain_s += run_session(&serial, &store, &queries);
        let (s, p) = run_session_profiled(&serial, &store, &queries);
        profiled_s += s;
        merged.merge_from(p);
    }
    let overhead_pct = (profiled_s / plain_s - 1.0) * 100.0;
    note(&format!(
        "session x{REPS}: plain {plain_s:.4}s, profiled {profiled_s:.4}s \
         ({overhead_pct:+.1}% overhead)"
    ));
    assert!(
        profiled_s <= plain_s * 1.5,
        "profiling overhead out of bounds: plain {plain_s:.4}s vs profiled {profiled_s:.4}s"
    );

    print!("{}", merged.render());

    // Stage seconds over the measured profiled passes (summed across
    // queries and passes, same scale as `profiled_seconds`) and the
    // hot-path allocation proxy: bytes materialized into fresh or
    // scratch buffers per session pass. These are the regression
    // handles CI diffs against the committed baseline.
    let stage = |path: &[&str]| merged.span(path).map_or(0.0, |s| s.seconds);
    let decompress_s = stage(&["rank", "decompress"]);
    let reconstruct_s = stage(&["rank", "reconstruct"]);
    let verify_s =
        stage(&["rank", "index-read", "verify"]) + stage(&["rank", "data-read", "verify"]);
    let copy_bytes = merged
        .counters
        .iter()
        .filter(|c| c.name == "hotpath.copy_bytes")
        .map(|c| c.value)
        .sum::<u64>()
        / REPS as u64;
    note(&format!(
        "stages x{REPS}: decompress {decompress_s:.4}s, reconstruct {reconstruct_s:.4}s, \
         verify {verify_s:.4}s, copy {copy_bytes} bytes/session"
    ));

    let json = format!(
        "{{\n  \"bench\": \"query\",\n  \"shape\": {shape:?},\n  \"queries\": {},\n  \
         \"ranks\": {},\n  \"replay_threaded_identical\": true,\n  \
         \"plain_seconds\": {plain_s:.6},\n  \"profiled_seconds\": {profiled_s:.6},\n  \
         \"overhead_pct\": {overhead_pct:.2},\n  \
         \"decompress_seconds\": {decompress_s:.6},\n  \
         \"reconstruct_seconds\": {reconstruct_s:.6},\n  \
         \"verify_seconds\": {verify_s:.6},\n  \
         \"copy_bytes_per_session\": {copy_bytes},\n  \"profile\": {}\n}}\n",
        queries.len(),
        args.ranks,
        merged.to_json(),
    );
    std::fs::write("BENCH_query.json", &json).expect("cannot write BENCH_query.json");
    note("wrote BENCH_query.json");
}
