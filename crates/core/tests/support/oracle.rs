//! The answer a query must have, computed from the raw field alone —
//! the reference every execution mode's answer is compared against.
//!
//! It shares no code with the engine's fetch, decode or run walk: it
//! reads the plan's units, the grid's geometry, the bin edges, and
//! each point's value at the query's PLoD level through
//! [`mloc::plod::split`] and [`mloc::plod::assemble`].

use mloc::config::PlodLevel;
use mloc::plod;
use mloc::query::plan::WorkUnit;
use mloc::query::{Query, QueryResult};
use mloc::store::MlocStore;
use std::collections::HashMap;

/// An answer: positions, and their values when the query outputs them.
pub type Answer = (Vec<u64>, Option<Vec<f64>>);

/// `v` as a query at `level` reads it back.
pub fn at_level(v: f64, level: PlodLevel) -> f64 {
    let parts = plod::split(&[v]);
    let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    plod::assemble(&refs, level)[0]
}

/// What `query` answers over `field` when its plan holds `units` and
/// its output is restricted to `filter` (`None`: to its point set, if
/// it has one). A point is kept iff it lies in the query's region, in
/// the filter or point set, and in a unit of the plan, and — when the
/// plan marks that unit `value_filter` — its value at the query's PLoD
/// level lies in `[lo, hi)`. Its value is that same level's value.
pub fn expected(
    store: &MlocStore<'_>,
    field: &[f64],
    query: &Query,
    units: &[WorkUnit],
    filter: Option<&[u64]>,
) -> Answer {
    let (grid, order) = (store.grid(), store.order());
    let planned: HashMap<(usize, usize), bool> = units
        .iter()
        .map(|u| ((u.bin, order.cell_at(u.chunk_rank)), u.value_filter))
        .collect();
    let filter = filter.or(query.points.as_deref());
    let (mut positions, mut values) = (Vec::new(), Vec::new());
    for (p, &exact) in (0u64..).zip(field) {
        let in_region = (query.sc.as_ref()).is_none_or(|r| r.contains(&grid.delinearize(p)));
        let in_filter = filter.is_none_or(|f| f.binary_search(&p).is_ok());
        let unit = (store.bins().bin_of(exact), grid.chunk_of(p));
        let Some(&value_filter) = planned.get(&unit).filter(|_| in_region && in_filter) else {
            continue;
        };
        let v = at_level(exact, query.plod);
        if value_filter && query.vc.is_some_and(|(lo, hi)| !(v >= lo && v < hi)) {
            continue;
        }
        positions.push(p);
        values.push(v);
    }
    (positions, query.wants_values().then_some(values))
}

/// Whether `got` holds exactly `want`'s positions and the bits of its
/// values.
pub fn same(got: &QueryResult, want: &Answer) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    got.positions() == want.0 && got.values().map(bits) == want.1.as_deref().map(bits)
}
