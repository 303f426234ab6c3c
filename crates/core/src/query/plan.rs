//! Query planning: candidate bins, candidate chunks, work units.
//!
//! The planner culls with the index's coarse level — every bin's chunk
//! summaries, which the store holds from its meta — before any bin file
//! is opened: a unit is planned only when it can hold a hit. Its chunk
//! has points in its bin; the span of those points' chunk-local offsets
//! meets the region's box in the chunk, when the region straddles the
//! chunk; and, for a membership query, a point of the chunk lies in that
//! span. A bin left with no unit is never opened.

use crate::array::Region;
use crate::config::MlocConfig;
use crate::query::{Query, QueryOutput};
use crate::store::MlocStore;
use crate::{MlocError, Result};
use mloc_runtime::{column_order_within, Assignment};
use std::ops::Range;

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
    /// The unit's place among the plan's candidate units, in (bin,
    /// chunk rank) order: what ranks are dealt by ([`Plan::deal`]).
    pub slot: usize,
}

/// A complete query plan.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Work units that can hold a hit, ordered by (bin, chunk rank).
    pub units: Vec<WorkUnit>,
    /// Candidate units — every candidate chunk in every candidate bin —
    /// before those that cannot hold a hit were culled.
    pub candidates: usize,
    /// Number of candidate bins.
    pub bins_touched: usize,
    /// Bins answerable from the index alone.
    pub aligned_bins: usize,
    /// Number of candidate chunks.
    pub chunks_touched: usize,
}

impl Plan {
    /// Every value of the chunks at curve ranks `ranks`, rising, in
    /// every one of `num_bins` bins: all candidates, each read whole.
    pub fn whole_chunks(num_bins: usize, ranks: &[usize]) -> Plan {
        let units = (0..num_bins)
            .flat_map(|bin| ranks.iter().map(move |&chunk_rank| (bin, chunk_rank)))
            .enumerate()
            .map(|(slot, (bin, chunk_rank))| WorkUnit {
                bin,
                chunk_rank,
                needs_data: true,
                value_filter: false,
                spatial_filter: false,
                slot,
            })
            .collect::<Vec<_>>();
        Plan {
            candidates: units.len(),
            units,
            bins_touched: num_bins,
            aligned_bins: 0,
            chunks_touched: ranks.len(),
        }
    }

    /// `units`, whole bins of one class of this plan's, as a plan of
    /// their own. `class` flags each of this plan's candidate bins, in
    /// order, culled bins included: the sub-plan's candidates are the
    /// flagged bins' candidate units, so it deals its units as a plan of
    /// the class alone would, and a bin culled whole keeps its share.
    pub fn of_bins(&self, mut units: Vec<WorkUnit>, mut class: impl Iterator<Item = bool>) -> Plan {
        let chunks = self.chunks_touched;
        // Candidate bins walked, and the class's bins among them.
        let (mut walked, mut bins) = (0, 0);
        for u in &mut units {
            let b = u.slot / chunks;
            while walked <= b {
                bins += usize::from(class.next() == Some(true));
                walked += 1;
            }
            u.slot = (bins - 1) * chunks + u.slot % chunks;
        }
        bins += class.filter(|&flag| flag).count();
        Plan {
            units,
            candidates: bins * chunks,
            bins_touched: self.bins_touched,
            aligned_bins: self.aligned_bins,
            chunks_touched: self.chunks_touched,
        }
    }

    /// Deal the units to `nranks` ranks in the paper's column order:
    /// equal shares of the candidate units, each a contiguous run in
    /// (bin, chunk rank) order, so a rank touches the fewest bins. The
    /// shares are of the candidates, before culling: a culled unit
    /// leaves a hole in its rank's share instead of moving the share
    /// boundaries, so culling only ever takes work, and bin files, from
    /// a rank, and never hands a rank a bin it would not have opened.
    pub fn deal(&self, nranks: usize) -> Assignment {
        let slots = self.units.iter().map(|u| u.slot);
        column_order_within(slots, self.candidates, nranks)
    }
}

/// The query's candidate bins, rising, each with whether it is aligned
/// with the value constraint: wholly inside it, so its points match
/// without a value filter. With no value constraint, every bin, each
/// aligned.
pub(crate) fn candidate_bins<'s>(
    store: &'s MlocStore<'_>,
    query: &Query,
) -> impl Iterator<Item = (usize, bool)> + Clone + 's {
    let spec = store.bins();
    let bins = match query.vc {
        Some((lo, hi)) => spec.candidate_bins(lo, hi),
        None => 0..store.config().num_bins,
    };
    let vc = query.vc;
    bins.map(move |k| (k, vc.is_none_or(|(lo, hi)| spec.is_aligned(k, lo, hi))))
}

/// One candidate chunk: its curve rank, whether the region straddles
/// it, the first and last chunk-local offsets a unit's set bits must
/// reach between — the region's box in it, all of it when it lies
/// wholly inside, `None` when the box is empty — and, for a membership
/// query, where its points are in the plan's located points.
struct Candidate {
    rank: usize,
    partial: bool,
    span: Option<(u64, u64)>,
    points: Range<usize>,
}

/// The first and last chunk-local offsets (row-major within the chunk)
/// of `region`'s box in the chunk spanning `ranges`; `None` when the box
/// is empty.
fn box_span(ranges: &[(usize, usize)], region: &[(usize, usize)]) -> Option<(u64, u64)> {
    let (mut first, mut last) = (0u64, 0u64);
    for (&(s, e), &(lo, hi)) in ranges.iter().zip(region) {
        let (lo, hi) = (lo.clamp(s, e), hi.clamp(s, e));
        if lo >= hi {
            return None;
        }
        let extent = (e - s) as u64;
        first = first * extent + (lo - s) as u64;
        last = last * extent + (hi - 1 - s) as u64;
    }
    Some((first, last))
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
    // their partial-overlap flags and box spans. A membership query
    // touches exactly the chunks containing its points, each with its
    // points' chunk-local offsets; spatial filtering never applies (the
    // point set *is* the spatial constraint).
    let whole = Some((0, u64::MAX));
    let mut located: Vec<(usize, u64)> = Vec::new();
    let candidates: Vec<Candidate> = match (&query.sc, &query.points) {
        (Some(region), _) => {
            let mut ranks: Vec<Candidate> = grid
                .chunks_intersecting(region)
                .into_iter()
                .map(|chunk| {
                    let bounds = grid.chunk_region(chunk);
                    let partial = !region.contains_region(&bounds);
                    let span = match partial {
                        true => box_span(bounds.ranges(), region.ranges()),
                        false => whole,
                    };
                    let (rank, points) = (order.rank_of(chunk), 0..0);
                    Candidate {
                        rank,
                        partial,
                        span,
                        points,
                    }
                })
                .collect();
            ranks.sort_unstable_by_key(|c| c.rank);
            ranks
        }
        (None, Some(points)) => {
            located = points
                .iter()
                .map(|&p| {
                    let (chunk, local) = grid.locate(p);
                    (order.rank_of(chunk), local)
                })
                .collect();
            located.sort_unstable();
            let mut at = 0;
            located
                .chunk_by(|a, b| a.0 == b.0)
                .map(|group| {
                    at += group.len();
                    Candidate {
                        rank: group[0].0,
                        partial: false,
                        span: whole,
                        points: at - group.len()..at,
                    }
                })
                .collect()
        }
        (None, None) => (0..grid.num_chunks())
            .map(|rank| Candidate {
                rank,
                partial: false,
                span: whole,
                points: 0..0,
            })
            .collect(),
    };
    // Whether bin `bin`'s unit of chunk `c` can hold a hit, by the
    // chunk's summary in the bin: points, a span that meets the box,
    // and — for a membership query — a point of the chunk inside it.
    let summaries = store.summaries();
    let may_hit = |bin: usize, c: &Candidate| {
        let s = summaries.get(bin, c.rank);
        let (min, max) = (u64::from(s.min_pos), u64::from(s.max_pos));
        let meets = c
            .span
            .is_some_and(|(first, last)| min <= last && max >= first);
        let probed = query.points.is_none() || {
            let points = &located[c.points.clone()];
            let i = points.partition_point(|&(_, at)| at < min);
            points.get(i).is_some_and(|&(_, at)| at <= max)
        };
        s.count > 0 && meets && probed
    };

    // With no VC every bin is trivially "aligned" (no value filter),
    // but for reporting we only count bins aligned against a real VC.
    let bins = candidate_bins(store, query);
    let aligned_count = match query.vc {
        Some(_) => bins.clone().filter(|&(_, aligned)| aligned).count(),
        None => 0,
    };

    let wants_values = query.output == QueryOutput::Values;
    let bins_touched = bins.clone().count();
    let mut units = Vec::with_capacity(bins_touched * candidates.len());
    for (b, (bin, aligned)) in bins.enumerate() {
        // Aligned bins in region-only queries are index-only — the
        // paper's fast path (§III-D.1).
        let needs_data = wants_values || !aligned;
        let value_filter = needs_data && query.vc.is_some() && !aligned;
        for (k, c) in candidates.iter().enumerate() {
            if may_hit(bin, c) {
                units.push(WorkUnit {
                    bin,
                    chunk_rank: c.rank,
                    needs_data,
                    value_filter,
                    spatial_filter: c.partial,
                    slot: b * candidates.len() + k,
                });
            }
        }
    }

    Ok(Plan {
        candidates: bins_touched * candidates.len(),
        bins_touched,
        aligned_bins: aligned_count,
        chunks_touched: candidates.len(),
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

        // With a value constraint, aligned bins stay index-only (the
        // point at 2000 is in one; 0 and 4095 are in none).
        let q = Query::membership_where(600.0, 3000.0, vec![0, 2000, 4095]);
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

    /// On the fixture (each value its position, 8 bins of 8 whole
    /// rows), chunk (0, 0) holds bin 0 at chunk-local offsets 0..=127
    /// and bin 1 at 128..=255: a box is planned in a bin only when its
    /// span meets the bin's, edges included.
    #[test]
    fn a_unit_whose_span_misses_the_box_is_culled() {
        let be = MemBackend::new();
        let store = store_fixture(&be);
        let bins_of = |rows: (usize, usize)| -> Vec<usize> {
            let q = Query::values_in(Region::new(vec![rows, (0, 16)]));
            let plan = make_plan(&store, &q).unwrap();
            assert_eq!(plan.candidates, 8, "every bin of the one chunk");
            plan.units.iter().map(|u| u.bin).collect()
        };
        assert_eq!(bins_of((0, 4)), [0]);
        assert_eq!(bins_of((12, 16)), [1]);
        // The box starts on bin 1's first offset, ends on bin 0's last.
        assert_eq!(bins_of((8, 9)), [1]);
        assert_eq!(bins_of((7, 8)), [0]);
        assert_eq!(bins_of((7, 9)), [0, 1]);
        // A membership query: a unit only where a point meets its span.
        // Positions 463 and 512 are offsets 127 and 128 of the chunk,
        // 513 is offset 129.
        let bins_of = |points: Vec<u64>| -> Vec<usize> {
            let plan = make_plan(&store, &Query::membership(points)).unwrap();
            plan.units.iter().map(|u| u.bin).collect()
        };
        assert_eq!(bins_of(vec![463, 512]), [0, 1]);
        assert_eq!(bins_of(vec![463]), [0]);
        assert_eq!(bins_of(vec![513]), [1]);
    }

    /// Culling only takes work from a rank: dealt within the shares of
    /// the candidate units, each rank holds the planned units among the
    /// candidates it would be dealt were none culled.
    #[test]
    fn culled_units_leave_holes_in_their_ranks_shares() {
        let be = MemBackend::new();
        let store = store_fixture(&be);
        let q = Query::values_in(Region::new(vec![(5, 40), (3, 40)]));
        let plan = make_plan(&store, &q).unwrap();
        assert!(plan.units.len() < plan.candidates, "nothing culled");
        for nranks in [1, 2, 3, 8] {
            let full = column_order_within(0..plan.candidates, plan.candidates, nranks);
            let dealt = plan.deal(nranks);
            assert_eq!(dealt.total(), plan.units.len());
            for (share, dealt) in full.per_rank.iter().zip(&dealt.per_rank) {
                let slots = dealt.iter().map(|&i| plan.units[i].slot);
                assert!(slots.clone().all(|s| share.contains(&s)), "{nranks} ranks");
            }
        }
    }

    /// A ladder's two sub-plans — its refinable bins and its
    /// value-filtered ones — are each dealt within the shares of every
    /// candidate unit of their class's bins, a bin culled whole
    /// included: here bin 1, the first filtered bin, has no unit left,
    /// and the second, bin 5, keeps the second half of the class's
    /// candidates, as it does with nothing culled.
    #[test]
    fn a_ladders_sub_plans_keep_the_shares_of_their_class() {
        let be = MemBackend::new();
        let store = store_fixture(&be);
        let q =
            Query::values_where(600.0, 3000.0).with_region(Region::new(vec![(16, 48), (3, 40)]));
        let plan = make_plan(&store, &q).unwrap();
        let chunks = plan.chunks_touched;
        let aligned: Vec<bool> = candidate_bins(&store, &q).map(|(_, a)| a).collect();
        assert_eq!(aligned, [false, true, true, true, false], "bins 1..=5");
        for refinable in [true, false] {
            let units: Vec<WorkUnit> = (plan.units.iter())
                .filter(|u| u.value_filter != refinable)
                .copied()
                .collect();
            let class = aligned.iter().map(|&a| a == refinable);
            let sub = plan.of_bins(units.clone(), class.clone());
            // Each unit's slot: its bin's place in the class, its chunk's.
            let bins: Vec<usize> = (class.zip(1..))
                .filter(|&(flag, _)| flag)
                .map(|(_, bin)| bin)
                .collect();
            assert_eq!(sub.candidates, bins.len() * chunks);
            for (u, of) in sub.units.iter().zip(&units) {
                let place = bins.iter().position(|&b| b == u.bin).unwrap();
                assert_eq!(u.slot, place * chunks + of.slot % chunks);
            }
            for nranks in [1, 2, 3, 8] {
                let full = column_order_within(0..sub.candidates, sub.candidates, nranks);
                let dealt = sub.deal(nranks);
                assert_eq!(dealt.total(), sub.units.len());
                for (share, dealt) in full.per_rank.iter().zip(&dealt.per_rank) {
                    let slots = dealt.iter().map(|&i| sub.units[i].slot);
                    assert!(slots.clone().all(|s| share.contains(&s)), "{nranks} ranks");
                }
            }
            if !refinable {
                assert!(sub.units.iter().all(|u| u.bin == 5), "bin 1 culled whole");
                assert!(sub.deal(2).per_rank[0].is_empty(), "bin 5 keeps its share");
            }
        }
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
