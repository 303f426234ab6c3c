//! Multi-variable data access (paper §III-D.4).
//!
//! "Spatial regions are usually selected by the values of one (or
//! more) variable(s); values of other variables are fetched on the
//! corresponding spatial regions. Thus, the process can be decomposed
//! into two steps: region-only access for the first variable(s) and
//! value-retrieval access for the others." The selection is carried
//! between the steps as a compressed bitmap — the light-weight
//! representation MLOC synchronizes between processes.

use crate::array::ChunkGrid;
use crate::config::PlodLevel;
use crate::exec::ParallelExecutor;
use crate::metrics::QueryMetrics;
use crate::query::plan::Plan;
use crate::query::{Query, QueryOutput, QueryResult};
use crate::store::MlocStore;
use crate::{MlocError, Result};

/// Result of a two-step multi-variable query.
#[derive(Debug, Clone)]
pub struct MultiVarResult {
    /// The fetched values of the second variable at the selected
    /// positions.
    pub result: QueryResult,
    /// Metrics of the selecting region query.
    pub select_metrics: QueryMetrics,
    /// Metrics of the value retrieval.
    pub fetch_metrics: QueryMetrics,
}

impl MultiVarResult {
    /// End-to-end response time (the two steps are sequential).
    pub fn response_s(&self) -> f64 {
        self.select_metrics.response_s + self.fetch_metrics.response_s
    }
}

/// Select positions on `selector` with a value constraint (optionally
/// within a region), then fetch `fetch`'s values at those positions.
///
/// Both variables must share the same domain and chunking (they are
/// chunked by the same simulation grid).
pub fn select_then_fetch(
    selector: &MlocStore<'_>,
    fetch: &MlocStore<'_>,
    vc: (f64, f64),
    sc: Option<crate::array::Region>,
    plod: PlodLevel,
    exec: &ParallelExecutor,
) -> Result<MultiVarResult> {
    if selector.config().shape != fetch.config().shape
        || selector.config().chunk_shape != fetch.config().chunk_shape
    {
        return Err(MlocError::Invalid(
            "multi-variable query requires identically chunked variables".into(),
        ));
    }

    // Step 1: region-only access on the selector.
    let select_query = Query {
        vc: Some(vc),
        sc: sc.clone(),
        plod: PlodLevel::FULL,
        output: QueryOutput::Positions,
        points: None,
    };
    let (selected, select_metrics) = exec.execute(selector, &select_query)?;

    // Step 2: value retrieval on the fetch variable, restricted to the
    // selected positions. Only chunks containing selections are read.
    // Query results are already sorted ascending and duplicate-free —
    // exactly the shape the engine's probe merge needs, so no hash set
    // is built.
    let filter: &[u64] = selected.positions();
    let plan = fetch_plan(fetch, filter)?;
    let fetch_query = Query {
        vc: None,
        sc: None,
        plod,
        output: QueryOutput::Values,
        points: None,
    };
    let (result, fetch_metrics) = exec.execute_plan(fetch, &fetch_query, &plan, Some(filter))?;

    Ok(MultiVarResult {
        result,
        select_metrics,
        fetch_metrics,
    })
}

/// Build the retrieval plan for a set of selected global positions:
/// all bins, but only the chunks that contain selections.
fn fetch_plan(store: &MlocStore<'_>, positions: &[u64]) -> Result<Plan> {
    if positions.is_empty() {
        return Ok(Plan::default());
    }
    let grid: &ChunkGrid = store.grid();
    let order = store.order();
    let mut ranks: Vec<usize> = positions
        .iter()
        .map(|&p| order.rank_of(grid.chunk_of(p)))
        .collect();
    ranks.sort_unstable();
    ranks.dedup();

    Ok(Plan::whole_chunks(store.config().num_bins, &ranks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_variable;
    use crate::config::MlocConfig;
    use mloc_pfs::MemBackend;

    fn two_vars(be: &MemBackend) -> (Vec<f64>, Vec<f64>) {
        let temp: Vec<f64> = (0..4096).map(|i| ((i * 13) % 500) as f64).collect();
        let humid: Vec<f64> = (0..4096).map(|i| ((i * 7) % 100) as f64).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(8)
            .build();
        build_variable(be, "ds", "temp", &temp, &config).unwrap();
        build_variable(be, "ds", "humid", &humid, &config).unwrap();
        (temp, humid)
    }

    #[test]
    fn fetches_second_variable_at_selected_positions() {
        let be = MemBackend::new();
        let (temp, humid) = two_vars(&be);
        let st = MlocStore::open(&be, "ds", "temp").unwrap();
        let sh = MlocStore::open(&be, "ds", "humid").unwrap();

        // "Humidity where temperature >= 450."
        let out = select_then_fetch(
            &st,
            &sh,
            (450.0, f64::MAX),
            None,
            PlodLevel::FULL,
            &ParallelExecutor::serial(),
        )
        .unwrap();

        let want: Vec<(u64, f64)> = temp
            .iter()
            .enumerate()
            .filter(|(_, &t)| t >= 450.0)
            .map(|(i, _)| (i as u64, humid[i]))
            .collect();
        assert!(!want.is_empty());
        assert_eq!(
            out.result.positions(),
            want.iter().map(|&(p, _)| p).collect::<Vec<_>>()
        );
        assert_eq!(
            out.result.values().unwrap(),
            want.iter().map(|&(_, v)| v).collect::<Vec<_>>()
        );
        assert!(out.response_s() > 0.0);
    }

    #[test]
    fn empty_selection_fetches_nothing() {
        let be = MemBackend::new();
        two_vars(&be);
        let st = MlocStore::open(&be, "ds", "temp").unwrap();
        let sh = MlocStore::open(&be, "ds", "humid").unwrap();
        let out = select_then_fetch(
            &st,
            &sh,
            (1e9, 2e9),
            None,
            PlodLevel::FULL,
            &ParallelExecutor::serial(),
        )
        .unwrap();
        assert!(out.result.is_empty());
        assert_eq!(out.fetch_metrics.chunks_touched, 0);
    }

    #[test]
    fn mismatched_grids_rejected() {
        let be = MemBackend::new();
        two_vars(&be);
        let other: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let config = MlocConfig::builder(vec![32, 32])
            .chunk_shape(vec![16, 16])
            .num_bins(8)
            .build();
        build_variable(&be, "ds", "other", &other, &config).unwrap();
        let st = MlocStore::open(&be, "ds", "temp").unwrap();
        let so = MlocStore::open(&be, "ds", "other").unwrap();
        assert!(select_then_fetch(
            &st,
            &so,
            (0.0, 1.0),
            None,
            PlodLevel::FULL,
            &ParallelExecutor::serial()
        )
        .is_err());
    }
}
