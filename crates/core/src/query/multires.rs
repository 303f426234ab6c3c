//! Multi-resolution access (paper §III-B.3).
//!
//! Two approaches:
//!
//! * **Precision-based (PLoD)** — set [`Query::with_plod`]; the engine
//!   fetches only the first `L` byte groups of each value. This module
//!   adds the convenience wrapper [`plod_value_query`].
//! * **Subset-based** — a hierarchical Hilbert ordering partitions the
//!   chunks into resolution levels; accessing levels `0..=l` reads a
//!   uniformly spaced subset of chunks. [`subset_value_query`] executes
//!   such an access. The paper notes this approach "misses a large
//!   number of points" and is suited to low-precision visualization.

use crate::config::PlodLevel;
use crate::exec::ParallelExecutor;
use crate::metrics::QueryMetrics;
use crate::query::plan::Plan;
use crate::query::{Query, QueryOutput, QueryResult};
use crate::store::MlocStore;
use crate::Result;
use mloc_hilbert::HierarchicalOrder;

/// Value query over a region at a reduced PLoD precision.
pub fn plod_value_query(
    store: &MlocStore<'_>,
    region: crate::array::Region,
    level: PlodLevel,
    exec: &ParallelExecutor,
) -> Result<(QueryResult, QueryMetrics)> {
    let query = Query::values_in(region).with_plod(level);
    exec.execute(store, &query)
}

/// The hierarchical ordering of a store's chunk grid with `num_levels`
/// resolution levels.
pub fn hierarchy(store: &MlocStore<'_>, num_levels: u32) -> HierarchicalOrder {
    HierarchicalOrder::new(
        store.grid().grid_extents(),
        num_levels,
        store.config().curve,
    )
}

/// Subset-based multi-resolution access: fetch all values of the
/// chunks in resolution levels `0..=level` of a `num_levels`-deep
/// hierarchy. Lower levels read a small uniform sample of the domain.
pub fn subset_value_query(
    store: &MlocStore<'_>,
    num_levels: u32,
    level: usize,
    exec: &ParallelExecutor,
) -> Result<(QueryResult, QueryMetrics)> {
    let h = hierarchy(store, num_levels);
    let order = store.order();
    let mut ranks: Vec<usize> = h.prefix(level).map(|chunk| order.rank_of(chunk)).collect();
    ranks.sort_unstable();

    let plan = Plan::whole_chunks(store.config().num_bins, &ranks);
    let query = Query {
        vc: None,
        sc: None,
        plod: PlodLevel::FULL,
        output: QueryOutput::Values,
        points: None,
    };
    exec.execute_plan(store, &query, &plan, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Region;
    use crate::build::build_variable;
    use crate::config::MlocConfig;
    use mloc_pfs::MemBackend;

    fn fixture(be: &MemBackend) -> (Vec<f64>, MlocStore<'_>) {
        let values: Vec<f64> = (0..4096).map(|i| 100.0 + (i % 977) as f64).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![8, 8])
            .num_bins(8)
            .build();
        build_variable(be, "ds", "v", &values, &config).unwrap();
        (values.clone(), MlocStore::open(be, "ds", "v").unwrap())
    }

    #[test]
    fn plod_levels_trade_accuracy_for_io() {
        let be = MemBackend::new();
        let (values, store) = fixture(&be);
        let region = Region::new(vec![(0, 32), (0, 32)]);
        let exec = ParallelExecutor::serial();

        let (full, m_full) =
            plod_value_query(&store, region.clone(), PlodLevel::FULL, &exec).unwrap();
        let (lvl2, m2) =
            plod_value_query(&store, region.clone(), PlodLevel::new(2).unwrap(), &exec).unwrap();

        // Same points, fewer bytes, bounded error.
        assert_eq!(full.positions(), lvl2.positions());
        assert!(m2.data_bytes < m_full.data_bytes);
        for (&p, &approx) in lvl2.positions().iter().zip(lvl2.values().unwrap()) {
            let exact = values[p as usize];
            assert!(
                ((approx - exact) / exact).abs() < 3e-4,
                "pos {p}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn subset_levels_grow_monotonically() {
        let be = MemBackend::new();
        let (_, store) = fixture(&be);
        let exec = ParallelExecutor::serial();
        let mut prev = 0usize;
        for level in 0..3 {
            let (res, metrics) = subset_value_query(&store, 3, level, &exec).unwrap();
            assert!(res.len() > prev, "level {level} did not grow");
            prev = res.len();
            assert!(metrics.chunks_touched > 0);
        }
        // Top level covers everything.
        let (res, _) = subset_value_query(&store, 3, 2, &exec).unwrap();
        assert_eq!(res.len(), 4096);
    }

    #[test]
    fn hierarchical_layout_speeds_up_subset_access() {
        // Same data, two layouts: plain Hilbert vs subset-based
        // hierarchical placement. Coarse-level access on the
        // hierarchical layout reads file *prefixes* and must pay
        // fewer seeks. The units are big enough (512 points each) that
        // the plain layout's four sampled chunks lie further apart in a
        // bin's unit section than reads coalesce over: the saving shown
        // is there, where the prefix is.
        let values: Vec<f64> = (0..256 * 256).map(|i| ((i * 131) % 4099) as f64).collect();
        let exec = ParallelExecutor::serial();
        let mut io = Vec::new();
        for subset_levels in [0u32, 3] {
            let be = MemBackend::new();
            let config = MlocConfig::builder(vec![256, 256])
                .chunk_shape(vec![32, 32])
                .num_bins(2)
                .subset_levels(subset_levels)
                .build();
            build_variable(&be, "h", "v", &values, &config).unwrap();
            let store = MlocStore::open(&be, "h", "v").unwrap();
            let (res, m) = subset_value_query(&store, 3, 0, &exec).unwrap();
            // Both layouts return the same uniform sample.
            for (&p, &v) in res.positions().iter().zip(res.values().unwrap()) {
                assert_eq!(v, values[p as usize]);
            }
            assert_eq!(res.len(), 4 * 1024);
            io.push((m.seeks, m.io_s));
        }
        let (plain, hier) = (io[0], io[1]);
        assert!(
            hier.0 < plain.0 && hier.1 < plain.1,
            "hierarchical layout should seek less: {hier:?} vs {plain:?}"
        );
    }

    #[test]
    fn subset_sample_is_uniform() {
        let be = MemBackend::new();
        let (values, store) = fixture(&be);
        let exec = ParallelExecutor::serial();
        let (res, _) = subset_value_query(&store, 3, 0, &exec).unwrap();
        // Level 0 of a 3-level hierarchy over an 8x8 chunk grid is the
        // stride-4 chunk lattice: 4 chunks of 64 points.
        assert_eq!(res.len(), 4 * 64);
        for (&p, &v) in res.positions().iter().zip(res.values().unwrap()) {
            assert_eq!(v, values[p as usize]);
        }
    }
}
