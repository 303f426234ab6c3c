//! Parallel execution invariants and the multi-variable / multi-
//! resolution access paths, end to end.

use mloc::exec::ParallelExecutor;
use mloc::prelude::*;
use mloc::query::multires::{plod_value_query, subset_value_query};
use mloc::query::multivar::select_then_fetch;
use mloc_datagen::gts_like_2d;
use mloc_pfs::{CostModel, MemBackend};

fn built_store<'a>(be: &'a MemBackend, var: &str, seed: u64) -> (Vec<f64>, MlocStore<'a>) {
    let field = gts_like_2d(96, 96, seed);
    let config = MlocConfig::builder(vec![96, 96])
        .chunk_shape(vec![16, 16])
        .num_bins(12)
        .build();
    build_variable(be, "pm", var, field.values(), &config).unwrap();
    (field.into_values(), MlocStore::open(be, "pm", var).unwrap())
}

#[test]
fn results_invariant_under_rank_count_and_mode() {
    let be = MemBackend::new();
    let (_, store) = built_store(&be, "a", 1);
    let q = Query::values_where(100.0, 5000.0);
    let reference = store.query_serial(&q).unwrap();
    for nranks in [2usize, 3, 5, 8, 16, 33] {
        for threaded in [false, true] {
            let exec = ParallelExecutor::new(nranks, CostModel::default()).threaded(threaded);
            let (res, m) = exec.execute(&store, &q).unwrap();
            assert_eq!(res, reference, "nranks={nranks} threaded={threaded}");
            assert_eq!(m.per_rank_io.len(), nranks);
        }
    }
}

#[test]
fn more_ranks_reduce_per_rank_work() {
    let be = MemBackend::new();
    let (_, store) = built_store(&be, "b", 2);
    let q = Query::values_where(f64::MIN, f64::MAX);
    // Work is judged by the bytes each rank reads — deterministic,
    // unlike a single wall-clock sample of a few milliseconds.
    let rank_bytes = |nranks: usize| -> Vec<u64> {
        let exec = ParallelExecutor::new(nranks, CostModel::default()).profiled(true);
        let profile = exec.run(&store, ExecRequest::new(&q)).unwrap().profile;
        (0..nranks as u32)
            .map(|r| profile.counter("rank.io.bytes", mloc::obs::Label::Index(r)))
            .collect()
    };
    let serial = rank_bytes(1)[0];
    let busiest = rank_bytes(8).into_iter().max().unwrap();
    // The busiest of 8 ranks must carry well below the serial load.
    assert!(
        busiest * 2 < serial,
        "busiest of 8 ranks reads {busiest} bytes, not below half of serial {serial}"
    );
}

#[test]
fn multivariable_select_then_fetch_end_to_end() {
    let be = MemBackend::new();
    let (temp, st) = built_store(&be, "temp", 3);
    let (humid, sh) = built_store(&be, "humid", 4);

    let mut sorted = temp.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let thresh = sorted[sorted.len() * 95 / 100];

    for nranks in [1usize, 4] {
        let exec = ParallelExecutor::new(nranks, CostModel::default());
        let out =
            select_then_fetch(&st, &sh, (thresh, f64::MAX), None, PlodLevel::FULL, &exec).unwrap();
        let want: Vec<(u64, f64)> = temp
            .iter()
            .enumerate()
            .filter(|(_, &t)| t >= thresh)
            .map(|(i, _)| (i as u64, humid[i]))
            .collect();
        assert_eq!(
            out.result.positions(),
            want.iter().map(|&(p, _)| p).collect::<Vec<_>>()
        );
        assert_eq!(
            out.result.values().unwrap(),
            want.iter().map(|&(_, v)| v).collect::<Vec<_>>()
        );
        // The fetch only touched chunks containing selections.
        assert!(out.fetch_metrics.chunks_touched <= st.grid().num_chunks());
    }
}

#[test]
fn multivariable_with_spatial_constraint() {
    let be = MemBackend::new();
    let (temp, st) = built_store(&be, "t2", 5);
    let (humid, sh) = built_store(&be, "h2", 6);
    let region = Region::new(vec![(0, 48), (0, 96)]);
    let exec = ParallelExecutor::serial();
    let out = select_then_fetch(
        &st,
        &sh,
        (0.0, f64::MAX),
        Some(region),
        PlodLevel::FULL,
        &exec,
    )
    .unwrap();
    // Selection = all positive-temperature points in the upper half.
    let want: Vec<u64> = temp
        .iter()
        .enumerate()
        .filter(|&(i, &t)| i / 96 < 48 && t >= 0.0)
        .map(|(i, _)| i as u64)
        .collect();
    assert_eq!(out.result.positions(), want);
    for (&p, &v) in out
        .result
        .positions()
        .iter()
        .zip(out.result.values().unwrap())
    {
        assert_eq!(v, humid[p as usize]);
    }
}

#[test]
fn plod_and_subset_multires_end_to_end() {
    let be = MemBackend::new();
    let (values, store) = built_store(&be, "mr", 7);
    let exec = ParallelExecutor::serial();

    // PLoD: error shrinks as bytes grow; I/O grows.
    let region = Region::full(&[96, 96]);
    let mut last_err = f64::MAX;
    let mut last_bytes = 0u64;
    for level in [1u8, 3, 7] {
        let (res, m) = plod_value_query(
            &store,
            region.clone(),
            PlodLevel::new(level).unwrap(),
            &exec,
        )
        .unwrap();
        let err = res
            .positions()
            .iter()
            .zip(res.values().unwrap())
            .map(|(&p, &v)| ((v - values[p as usize]) / values[p as usize]).abs())
            .fold(0.0f64, f64::max);
        assert!(err <= last_err, "error must not grow with precision");
        assert!(m.data_bytes > last_bytes, "bytes must grow with precision");
        last_err = err;
        last_bytes = m.data_bytes;
    }
    assert_eq!(last_err, 0.0, "full precision must be exact");

    // Subset-based: prefix levels nest and the top level is complete.
    let (l0, _) = subset_value_query(&store, 3, 0, &exec).unwrap();
    let (l2, _) = subset_value_query(&store, 3, 2, &exec).unwrap();
    assert!(l0.len() < l2.len());
    assert_eq!(l2.len(), values.len());
    let l0_set: std::collections::HashSet<u64> = l0.positions().iter().copied().collect();
    let l2_set: std::collections::HashSet<u64> = l2.positions().iter().copied().collect();
    assert!(l0_set.is_subset(&l2_set));
}
