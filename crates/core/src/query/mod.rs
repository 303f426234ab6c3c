//! Query types and execution.
//!
//! MLOC serves the paper's access-pattern taxonomy (§II):
//!
//! * value-constrained **region queries** → [`Query::region`]
//!   (positions out, values never reconstructed for aligned bins);
//! * spatial-constrained **value queries** → [`Query::values_in`];
//! * combined constraints → [`Query::new`] with both set;
//! * **multi-variable** queries → [`multivar::select_then_fetch`];
//! * **multi-resolution** access → [`Query::with_plod`] (precision
//!   based) and [`multires::subset_value_query`] (subset based).

pub mod engine;
pub mod multires;
pub mod multivar;
pub mod plan;

use crate::array::Region;
use crate::config::PlodLevel;

/// The shape of a query's constraint set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Scan-style: value and/or spatial range constraints.
    Scan,
    /// Membership: a sorted point set probed against the index.
    Membership,
}

/// What a query returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutput {
    /// Only the matching positions (region-only access, §III-D.1).
    Positions,
    /// Positions and reconstructed values (value-retrieval, §III-D.2).
    Values,
}

/// A declarative query over one variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Value constraint `[lo, hi)`.
    pub vc: Option<(f64, f64)>,
    /// Spatial constraint.
    pub sc: Option<Region>,
    /// Precision level for value reconstruction.
    pub plod: PlodLevel,
    /// Output kind.
    pub output: QueryOutput,
    /// Membership point set: sorted, duplicate-free global positions.
    /// When set, the query answers "which of these points match" via
    /// per-bin rank/select probes instead of a scan; combining with a
    /// spatial constraint is rejected at planning.
    pub points: Option<Vec<u64>>,
}

impl Query {
    /// General constructor.
    pub fn new(
        vc: Option<(f64, f64)>,
        sc: Option<Region>,
        plod: PlodLevel,
        output: QueryOutput,
    ) -> Self {
        Query {
            vc,
            sc,
            plod,
            output,
            points: None,
        }
    }

    /// Membership query: which of these global positions exist (all of
    /// them, unless further constrained) — positions out, index-only
    /// for aligned bins. Points are sorted and deduplicated here.
    pub fn membership(mut points: Vec<u64>) -> Self {
        points.sort_unstable();
        points.dedup();
        Query {
            vc: None,
            sc: None,
            plod: PlodLevel::FULL,
            output: QueryOutput::Positions,
            points: Some(points),
        }
    }

    /// Membership query restricted to values in `[lo, hi)`: which of
    /// these points hold a matching value.
    pub fn membership_where(lo: f64, hi: f64, points: Vec<u64>) -> Self {
        let mut q = Query::membership(points);
        q.vc = Some((lo, hi));
        q
    }

    /// Request reconstructed values in the output.
    pub fn with_values(mut self) -> Self {
        self.output = QueryOutput::Values;
        self
    }

    /// Scan vs membership classification.
    pub fn kind(&self) -> QueryKind {
        if self.points.is_some() {
            QueryKind::Membership
        } else {
            QueryKind::Scan
        }
    }

    /// Region query: positions whose value lies in `[lo, hi)`.
    pub fn region(lo: f64, hi: f64) -> Self {
        Query {
            vc: Some((lo, hi)),
            sc: None,
            plod: PlodLevel::FULL,
            output: QueryOutput::Positions,
            points: None,
        }
    }

    /// Value query: values of all points inside a region.
    pub fn values_in(region: Region) -> Self {
        Query {
            vc: None,
            sc: Some(region),
            plod: PlodLevel::FULL,
            output: QueryOutput::Values,
            points: None,
        }
    }

    /// Value query with a value constraint (values in `[lo, hi)`).
    pub fn values_where(lo: f64, hi: f64) -> Self {
        Query {
            vc: Some((lo, hi)),
            sc: None,
            plod: PlodLevel::FULL,
            output: QueryOutput::Values,
            points: None,
        }
    }

    /// Restrict an existing query to a spatial region.
    pub fn with_region(mut self, region: Region) -> Self {
        self.sc = Some(region);
        self
    }

    /// Set the PLoD precision level.
    pub fn with_plod(mut self, plod: PlodLevel) -> Self {
        self.plod = plod;
        self
    }

    /// Whether values must be reconstructed.
    pub fn wants_values(&self) -> bool {
        self.output == QueryOutput::Values
    }
}

/// Result of a query: matching positions (global row-major indices),
/// and their values when requested. Entries are sorted by position.
///
/// The engine never sorts an answer: every rank hands the gather its
/// positions as one strictly rising run, and one merge interleaves
/// them. A result is only ever built from positions already in order.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    positions: Vec<u64>,
    values: Option<Vec<f64>>,
}

/// Where [`QueryResult::merge`] put each part's entries, when asked to
/// track them: entry `i` of part `k` landed at `maps[k][i]`. With no
/// maps every entry kept its index — a lone part, moved whole.
#[derive(Debug, Default)]
pub(crate) struct Landing {
    maps: Vec<Vec<usize>>,
}

impl Landing {
    /// Rewrite indices into part `k` as indices into the merged answer.
    pub fn translate(&self, k: usize, idx: &mut [usize]) {
        if let Some(map) = self.maps.get(k) {
            for i in idx {
                *i = map[*i];
            }
        }
    }
}

/// Restore the min-heap order of `heap` (keyed by a part's next
/// position) below slot `i`.
fn sift_down(heap: &mut [(u64, usize)], mut i: usize) {
    loop {
        let left = 2 * i + 1;
        let Some(&(first, _)) = heap.get(left) else {
            return;
        };
        let child = match heap.get(left + 1) {
            Some(&(second, _)) if second < first => left + 1,
            _ => left,
        };
        if heap[child].0 >= heap[i].0 {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

impl QueryResult {
    /// Wrap parts that are already in position order.
    pub(crate) fn from_sorted(positions: Vec<u64>, values: Option<Vec<f64>>) -> Self {
        debug_assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "answer positions must rise strictly"
        );
        debug_assert!(values.as_ref().is_none_or(|v| v.len() == positions.len()));
        QueryResult { positions, values }
    }

    /// Merge parts — each a strictly rising run — into one answer,
    /// values kept aligned (`with_values` says whether the answer
    /// carries them).
    ///
    /// A lone non-empty part is moved and trimmed to length, not
    /// copied. Otherwise a min-heap keyed by each part's next position
    /// picks the part to copy from, and copies from it every position
    /// below the next-smallest head in one slice: a part that leads by
    /// a whole row segment costs one heap step for the segment. The
    /// merged vectors are allocated at their exact length. With
    /// `track`, the [`Landing`] says where each part's entries went
    /// (otherwise it is empty).
    pub(crate) fn merge(
        mut parts: Vec<QueryResult>,
        with_values: bool,
        track: bool,
    ) -> (Self, Landing) {
        debug_assert!(parts.iter().all(|p| p.values.is_some() == with_values));
        let mut live = (0..parts.len()).filter(|&k| !parts[k].is_empty());
        if let (Some(k), None) = (live.next(), live.next()) {
            let QueryResult {
                mut positions,
                mut values,
            } = parts.swap_remove(k);
            positions.shrink_to_fit();
            if let Some(values) = &mut values {
                values.shrink_to_fit();
            }
            let result = QueryResult::from_sorted(positions, values);
            return (result, Landing::default());
        }
        let mut landing = Landing::default();
        if track {
            landing.maps = parts.iter().map(|p| vec![0; p.len()]).collect();
        }
        let total: usize = parts.iter().map(QueryResult::len).sum();
        let mut positions = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(if with_values { total } else { 0 });
        // Per part: its next entry.
        let mut next = vec![0; parts.len()];
        let mut heap: Vec<(u64, usize)> = (parts.iter().enumerate())
            .filter_map(|(k, p)| Some((*p.positions.first()?, k)))
            .collect();
        for i in (0..heap.len() / 2).rev() {
            sift_down(&mut heap, i);
        }
        while let Some(&(_, k)) = heap.first() {
            // The smallest head among the other parts: everything of
            // this part below it comes next.
            let bound = heap[1..heap.len().min(3)]
                .iter()
                .map(|&(head, _)| head)
                .min()
                .unwrap_or(u64::MAX);
            let s = next[k];
            let part = &parts[k].positions[s..];
            let take = part.iter().position(|&p| p > bound).unwrap_or(part.len());
            if let Some(map) = landing.maps.get_mut(k) {
                let at = positions.len();
                for (slot, i) in map[s..s + take].iter_mut().zip(at..) {
                    *slot = i;
                }
            }
            positions.extend_from_slice(&part[..take]);
            if let Some(vals) = &parts[k].values {
                values.extend_from_slice(&vals[s..s + take]);
            }
            if take == part.len() {
                heap.swap_remove(0);
            } else {
                next[k] += take;
                heap[0].0 = part[take];
            }
            sift_down(&mut heap, 0);
        }
        let result = QueryResult::from_sorted(positions, with_values.then_some(values));
        (result, landing)
    }

    /// Assemble from unsorted parts (sorts by position, keeping values
    /// aligned): how answers were assembled before they left the
    /// engine in order, kept as the oracle the merge is tested against.
    #[cfg(test)]
    pub fn from_parts(mut positions: Vec<u64>, values: Option<Vec<f64>>) -> Self {
        match values {
            Some(vals) => {
                assert_eq!(vals.len(), positions.len());
                let mut pairs: Vec<(u64, f64)> = positions.into_iter().zip(vals).collect();
                pairs.sort_unstable_by_key(|&(p, _)| p);
                let (positions, values): (Vec<u64>, Vec<f64>) = pairs.into_iter().unzip();
                QueryResult {
                    positions,
                    values: Some(values),
                }
            }
            None => {
                positions.sort_unstable();
                QueryResult {
                    positions,
                    values: None,
                }
            }
        }
    }

    /// Matching positions, sorted ascending.
    pub fn positions(&self) -> &[u64] {
        &self.positions
    }

    /// Values aligned with [`Self::positions`] (None for region-only
    /// queries).
    pub fn values(&self) -> Option<&[f64]> {
        self.values.as_deref()
    }

    /// In-place mutable view of the values, for progressive refinement
    /// (positions stay fixed across refinement steps; only value
    /// precision improves).
    pub(crate) fn values_mut(&mut self) -> Option<&mut [f64]> {
        self.values.as_deref_mut()
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let q = Query::region(1.0, 2.0);
        assert_eq!(q.output, QueryOutput::Positions);
        assert!(!q.wants_values());
        let q = Query::values_in(Region::new(vec![(0, 4)]));
        assert!(q.wants_values());
        assert!(q.vc.is_none());
        let q = Query::values_where(0.0, 1.0)
            .with_region(Region::new(vec![(0, 2)]))
            .with_plod(PlodLevel::new(2).unwrap());
        assert!(q.vc.is_some() && q.sc.is_some());
        assert_eq!(q.plod.num_bytes(), 3);
    }

    #[test]
    fn membership_constructor_sorts_and_dedups() {
        let q = Query::membership(vec![9, 2, 2, 5, 9]);
        assert_eq!(q.points.as_deref(), Some(&[2, 5, 9][..]));
        assert_eq!(q.kind(), QueryKind::Membership);
        assert_eq!(q.output, QueryOutput::Positions);
        assert_eq!(Query::region(0.0, 1.0).kind(), QueryKind::Scan);
        let q = Query::membership_where(1.0, 2.0, vec![3]).with_values();
        assert_eq!(q.vc, Some((1.0, 2.0)));
        assert!(q.wants_values());
    }

    #[test]
    fn result_sorts_pairs() {
        let r = QueryResult::from_parts(vec![5, 1, 3], Some(vec![50.0, 10.0, 30.0]));
        assert_eq!(r.positions(), &[1, 3, 5]);
        assert_eq!(r.values().unwrap(), &[10.0, 30.0, 50.0]);
        assert_eq!(r.len(), 3);
    }
}
