//! Query planning: candidate bins, candidate chunks, work units.

use crate::array::Region;
use crate::config::MlocConfig;
use crate::query::{Query, QueryOutput};
use crate::store::MlocStore;
use crate::{MlocError, Result};

/// Number of storage units (PLoD byte-group parts, or one whole-value
/// block) a data-bearing work unit touches per chunk. This is also the
/// granularity of the decompressed-block cache: a PLoD query at level
/// `k` reads parts `0..k`, so overlapping precision levels share their
/// common prefix parts.
pub fn parts_used(config: &MlocConfig, query: &Query) -> usize {
    if config.plod {
        query.plod.num_parts()
    } else {
        1
    }
}

/// One (bin, chunk) unit of query work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Value bin.
    pub bin: usize,
    /// Chunk, identified by its curve rank.
    pub chunk_rank: usize,
    /// Whether data must be read and decompressed (false = answered
    /// from the positional index alone).
    pub needs_data: bool,
    /// Whether reconstructed values must still be checked against the
    /// value constraint (misaligned bins).
    pub value_filter: bool,
    /// Whether point positions must be checked against the spatial
    /// constraint (chunk only partially inside the region).
    pub spatial_filter: bool,
}

/// A complete query plan.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Work units, ordered by (bin, chunk rank).
    pub units: Vec<WorkUnit>,
    /// Number of candidate bins.
    pub bins_touched: usize,
    /// Bins answerable from the index alone.
    pub aligned_bins: usize,
    /// Number of candidate chunks.
    pub chunks_touched: usize,
}

/// Build the plan for a query against a store.
pub fn make_plan(store: &MlocStore<'_>, query: &Query) -> Result<Plan> {
    let config = store.config();
    if !query.plod.is_full() && !config.plod {
        return Err(MlocError::Invalid(
            "PLoD levels below full precision require a byte-column (PLoD) layout".into(),
        ));
    }
    if let Some((lo, hi)) = query.vc {
        if lo.is_nan() || hi.is_nan() {
            return Err(MlocError::Invalid("NaN value constraint".into()));
        }
    }
    if let Some(region) = &query.sc {
        if region.dims() != config.shape.len() {
            return Err(MlocError::Invalid("region dimensionality mismatch".into()));
        }
        let full = Region::full(&config.shape);
        if !full.contains_region(region) {
            return Err(MlocError::Invalid("region exceeds the domain".into()));
        }
    }
    let grid = store.grid();
    let order = store.order();
    if let Some(points) = &query.points {
        if query.sc.is_some() {
            return Err(MlocError::Invalid(
                "membership query cannot combine a spatial constraint".into(),
            ));
        }
        if points.windows(2).any(|w| w[0] >= w[1]) {
            return Err(MlocError::Invalid(
                "membership points must be strictly increasing".into(),
            ));
        }
        if points
            .last()
            .is_some_and(|&p| p >= grid.num_points() as u64)
        {
            return Err(MlocError::Invalid(
                "membership point outside the domain".into(),
            ));
        }
    }

    // Candidate chunks (curve ranks, ascending = on-disk order), with
    // their partial-overlap flags. A membership query touches exactly
    // the chunks containing its points; spatial filtering never
    // applies (the point set *is* the spatial constraint).
    let chunk_info: Vec<(usize, bool)> = match (&query.sc, &query.points) {
        (Some(region), _) => {
            let mut ranks: Vec<(usize, bool)> = grid
                .chunks_intersecting(region)
                .into_iter()
                .map(|chunk| {
                    let partial = !region.contains_region(&grid.chunk_region(chunk));
                    (order.rank_of(chunk), partial)
                })
                .collect();
            ranks.sort_unstable();
            ranks
        }
        (None, Some(points)) => {
            let mut ranks: Vec<usize> = points
                .iter()
                .map(|&p| {
                    let coords = grid.delinearize(p);
                    let (chunk, _) = grid.coords_to_local(&coords);
                    order.rank_of(chunk)
                })
                .collect();
            ranks.sort_unstable();
            ranks.dedup();
            ranks.into_iter().map(|rank| (rank, false)).collect()
        }
        (None, None) => (0..grid.num_chunks()).map(|rank| (rank, false)).collect(),
    };

    // Candidate bins and their alignment. `candidate_bins` is a
    // contiguous range; alignment flags follow it positionally.
    let spec = store.bins();
    let (bins, aligned_flags): (std::ops::Range<usize>, Vec<bool>) = match query.vc {
        Some((lo, hi)) => {
            let cands = spec.candidate_bins(lo, hi);
            let flags = cands.clone().map(|k| spec.is_aligned(k, lo, hi)).collect();
            (cands, flags)
        }
        None => (0..config.num_bins, vec![true; config.num_bins]),
    };
    // With no VC every bin is trivially "aligned" (no value filter),
    // but for reporting we only count bins aligned against a real VC.
    let aligned_count = if query.vc.is_some() {
        aligned_flags.iter().filter(|&&a| a).count()
    } else {
        0
    };

    let wants_values = query.output == QueryOutput::Values;
    let bins_touched = bins.len();
    let mut units = Vec::with_capacity(bins.len() * chunk_info.len());
    for (bin, &aligned) in bins.zip(&aligned_flags) {
        // Aligned bins in region-only queries are index-only — the
        // paper's fast path (§III-D.1).
        let needs_data = wants_values || !aligned;
        let value_filter = needs_data && query.vc.is_some() && !aligned;
        for &(chunk_rank, partial) in &chunk_info {
            units.push(WorkUnit {
                bin,
                chunk_rank,
                needs_data,
                value_filter,
                spatial_filter: partial,
            });
        }
    }

    Ok(Plan {
        bins_touched,
        aligned_bins: aligned_count,
        chunks_touched: chunk_info.len(),
        units,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_variable;
    use crate::config::MlocConfig;
    use mloc_pfs::MemBackend;

    fn store_fixture(be: &MemBackend) -> MlocStore<'_> {
        let values: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(8)
            .build();
        build_variable(be, "ds", "v", &values, &config).unwrap();
        MlocStore::open(be, "ds", "v").unwrap()
    }

    #[test]
    fn region_query_plan_uses_aligned_fast_path() {
        let be = MemBackend::new();
        let store = store_fixture(&be);
        // Values 512..3584 cover several whole bins (each bin ≈ 512
        // values) plus boundary bins.
        let q = Query::region(600.0, 3000.0);
        let plan = make_plan(&store, &q).unwrap();
        assert!(plan.aligned_bins >= 2, "aligned {}", plan.aligned_bins);
        assert_eq!(plan.chunks_touched, 16);
        // Aligned units are index-only.
        assert!(plan.units.iter().any(|u| !u.needs_data && !u.value_filter));
        // Boundary bins still need data + filtering.
        assert!(plan.units.iter().any(|u| u.needs_data && u.value_filter));
    }

    #[test]
    fn value_query_plan_touches_all_bins() {
        let be = MemBackend::new();
        let store = store_fixture(&be);
        let q = Query::values_in(Region::new(vec![(0, 16), (0, 16)]));
        let plan = make_plan(&store, &q).unwrap();
        assert_eq!(plan.bins_touched, 8);
        assert_eq!(plan.chunks_touched, 1);
        assert!(plan.units.iter().all(|u| u.needs_data));
        // Chunk is fully inside the region: no spatial filter.
        assert!(plan.units.iter().all(|u| !u.spatial_filter));
        // No VC: no value filter either.
        assert!(plan.units.iter().all(|u| !u.value_filter));
    }

    #[test]
    fn partial_chunk_overlap_sets_spatial_filter() {
        let be = MemBackend::new();
        let store = store_fixture(&be);
        let q = Query::values_in(Region::new(vec![(5, 20), (0, 16)]));
        let plan = make_plan(&store, &q).unwrap();
        assert_eq!(plan.chunks_touched, 2);
        assert!(plan.units.iter().all(|u| u.spatial_filter));
    }

    #[test]
    fn invalid_queries_rejected() {
        let be = MemBackend::new();
        let store = store_fixture(&be);
        // Region outside the domain.
        let q = Query::values_in(Region::new(vec![(0, 100), (0, 64)]));
        assert!(make_plan(&store, &q).is_err());
        // Wrong dimensionality.
        let q = Query::values_in(Region::new(vec![(0, 4)]));
        assert!(make_plan(&store, &q).is_err());
        // NaN constraint.
        let q = Query::region(f64::NAN, 1.0);
        assert!(make_plan(&store, &q).is_err());
    }

    #[test]
    fn membership_plan_touches_only_point_chunks() {
        let be = MemBackend::new();
        let store = store_fixture(&be);
        // Two points in chunk 0, one in the last chunk.
        let q = Query::membership(vec![0, 5, 4095]);
        let plan = make_plan(&store, &q).unwrap();
        assert_eq!(plan.chunks_touched, 2);
        assert_eq!(plan.bins_touched, 8);
        // The point set *is* the spatial constraint: never filtered.
        assert!(plan.units.iter().all(|u| !u.spatial_filter));

        // With a value constraint, aligned bins stay index-only.
        let q = Query::membership_where(600.0, 3000.0, vec![0, 4095]);
        let plan = make_plan(&store, &q).unwrap();
        assert!(plan.aligned_bins >= 2, "aligned {}", plan.aligned_bins);
        assert!(plan.units.iter().any(|u| !u.needs_data));
    }

    #[test]
    fn membership_plan_rejects_bad_inputs() {
        let be = MemBackend::new();
        let store = store_fixture(&be);
        // Spatial constraint + point set is ambiguous.
        let mut q = Query::membership(vec![1]);
        q.sc = Some(Region::new(vec![(0, 16), (0, 16)]));
        assert!(make_plan(&store, &q).is_err());
        // Point outside the domain.
        assert!(make_plan(&store, &Query::membership(vec![4096])).is_err());
        // Unsorted points (constructor sorts; hand-built queries must
        // still be validated).
        let mut q = Query::membership(vec![1, 2]);
        q.points = Some(vec![2, 1]);
        assert!(make_plan(&store, &q).is_err());
    }

    #[test]
    fn parts_used_tracks_plod_level() {
        let plod_cfg = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .plod(true)
            .build();
        let flat_cfg = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .plod(false)
            .build();
        let full = Query::values_where(0.0, 1.0);
        let coarse =
            Query::values_where(0.0, 1.0).with_plod(crate::config::PlodLevel::new(2).unwrap());
        assert_eq!(parts_used(&plod_cfg, &full), crate::config::NUM_PARTS);
        assert_eq!(parts_used(&plod_cfg, &coarse), 2);
        // Whole-value layouts always read exactly one block per chunk.
        assert_eq!(parts_used(&flat_cfg, &full), 1);
    }

    #[test]
    fn units_are_bin_then_rank_ordered() {
        let be = MemBackend::new();
        let store = store_fixture(&be);
        let q = Query::values_where(100.0, 2000.0);
        let plan = make_plan(&store, &q).unwrap();
        for w in plan.units.windows(2) {
            assert!(
                (w[0].bin, w[0].chunk_rank) < (w[1].bin, w[1].chunk_rank),
                "units out of order"
            );
        }
    }
}
