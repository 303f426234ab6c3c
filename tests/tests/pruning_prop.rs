//! Pruning differential: the planner culls with the bins' chunk
//! summaries before any bin file is opened, and culling never changes
//! an answer. Drawn SC, VC+SC, PLoD-level, progressive-ladder and
//! membership queries — among them boxes whose corner sits exactly on,
//! or one point off, a summary's min or max position, and point sets
//! holding those positions — answer what the raw field says in every
//! execution mode: serial, 8 ranks threaded, cached cold and warm, and
//! fused. In every mode no bin without a planned unit is opened, no
//! logical read is an extent of a unit the plan left out, and a cold
//! serial run reads exactly the planned units' extents and their bins'
//! fixed blocks.

use mloc::prelude::*;
use mloc::query::plan::{make_plan, parts_used, WorkUnit};
use mloc::{MlocStore, ProgressiveQuery};
use mloc_datagen::gts_like_2d;
use mloc_pfs::{CostModel, MemBackend, ReadOp, StorageBackend};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

#[path = "../../crates/core/tests/support/oracle.rs"]
mod oracle;

const DS: &str = "pr";
const VAR: &str = "v";
/// A ragged grid: 5 × 5 chunks of at most 8², the last row and column
/// of chunks cut short.
const SHAPE: [usize; 2] = [40, 36];

/// The store every case queries, built once: a GTS-like field, 12
/// bins, PLoD byte columns.
fn store_backend() -> &'static (MemBackend, Vec<f64>) {
    static STORE: OnceLock<(MemBackend, Vec<f64>)> = OnceLock::new();
    STORE.get_or_init(|| {
        let be = MemBackend::new();
        let field = gts_like_2d(SHAPE[0], SHAPE[1], 7);
        let config = MlocConfig::builder(SHAPE.to_vec())
            .chunk_shape(vec![8, 8])
            .num_bins(12)
            .build();
        build_variable(&be, DS, VAR, field.values(), &config).unwrap();
        (be, field.into_values())
    })
}

/// What a case draws, resolved against the store in [`resolve`].
#[derive(Debug, Clone)]
struct Drawn {
    kind: u8,
    level: u8,
    /// Rows and columns: start, extent.
    region: (usize, usize, usize, usize),
    /// A summary's min or max position to put a box corner on (or, for
    /// a membership query, into the point set), and the corner's column
    /// nudge: one point before, on, or after it.
    edge: Option<(usize, u8)>,
    /// The value constraint as quantiles of the field: start, width.
    vc: (f64, f64),
    /// A membership point set: every `step`-th position from `offset`.
    points: (usize, usize),
}

fn drawn() -> impl Strategy<Value = Drawn> {
    let region = (0usize..40, 1usize..41, 0usize..36, 1usize..37);
    // Seven draws in ten put a corner on a summary's position.
    let edge = (0u8..10, any::<usize>(), 0u8..3)
        .prop_map(|(odds, index, nudge)| (odds < 7).then_some((index, nudge)));
    (
        0u8..5,
        1u8..=7,
        region,
        edge,
        (0.0f64..0.9, 0.02f64..0.5),
        (1usize..40, 0usize..40),
    )
        .prop_map(|(kind, level, region, edge, vc, points)| Drawn {
            kind,
            level,
            region,
            edge,
            vc,
            points,
        })
}

/// The global position of summary position `pos` of the chunk at curve
/// rank `rank`: `(row, column)`.
fn global(store: &MlocStore<'_>, rank: usize, pos: u32) -> (usize, usize) {
    let region = store.grid().chunk_region(store.order().cell_at(rank));
    let [(r0, _), (c0, c1)] = region.ranges() else {
        unreachable!("a 2-D grid")
    };
    let w = c1 - c0;
    (r0 + pos as usize / w, c0 + pos as usize % w)
}

/// The query a draw stands for.
fn resolve(store: &MlocStore<'_>, values: &[f64], d: &Drawn) -> Query {
    let (r, h, c, w) = d.region;
    let (mut rows, mut cols) = ((r, (r + h).min(SHAPE[0])), (c, (c + w).min(SHAPE[1])));
    // Every set chunk's min and max position, in every bin.
    let summaries = store.summaries();
    let chunks = store.grid().num_chunks();
    let spans: Vec<(usize, u32, bool)> = (0..store.config().num_bins)
        .flat_map(|bin| (0..chunks).map(move |rank| (bin, rank)))
        .map(|(bin, rank)| (rank, summaries.get(bin, rank)))
        .filter(|(_, s)| s.count > 0)
        .flat_map(|(rank, s)| [(rank, s.min_pos, false), (rank, s.max_pos, true)])
        .collect();
    let edge = d.edge.map(|(index, nudge)| {
        let (rank, pos, max) = spans[index % spans.len()];
        let (row, col) = global(store, rank, pos);
        let col = (col + nudge as usize).saturating_sub(1).min(SHAPE[1] - 1);
        (row, col, max)
    });
    if let Some((row, col, max)) = edge {
        if max {
            // The box ends on the position: its last row and column.
            (rows.1, cols.1) = (row + 1, col + 1);
            (rows.0, cols.0) = (rows.0.min(row), cols.0.min(col));
        } else {
            // The box starts on it.
            (rows.0, cols.0) = (row, col);
            (rows.1, cols.1) = (rows.1.max(row + 1), cols.1.max(col + 1));
        }
    }
    let region = Region::new(vec![rows, cols]);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)];
    let (lo, hi) = (at(d.vc.0), at(d.vc.0 + d.vc.1));
    let plod = PlodLevel::new(d.level).unwrap();
    match d.kind {
        0 => Query::values_in(region).with_plod(plod),
        1 => Query::values_where(lo, hi)
            .with_region(region)
            .with_plod(plod),
        2 => Query::region(lo, hi).with_region(region),
        3 => Query::values_in(region).with_plod(PlodLevel::new(d.level.max(2)).unwrap()),
        _ => {
            let (step, offset) = d.points;
            let n = values.len() as u64;
            let mut points: BTreeSet<u64> = (offset as u64..n).step_by(step).collect();
            if let Some((row, col, _)) = edge {
                let p = (row * SHAPE[1] + col) as u64;
                points.extend([p.saturating_sub(1), p, (p + 1).min(n - 1)]);
            }
            let points = points.into_iter().collect();
            match d.level % 2 {
                0 => Query::membership(points).with_values(),
                _ => Query::membership_where(lo, hi, points),
            }
        }
    }
}

/// The plan with no unit culled: every candidate chunk in every
/// candidate bin, as planned before the summaries culled — the units
/// the oracle keeps points of, so a unit culled wrongly shows as a
/// missing answer.
fn unculled(store: &MlocStore<'_>, q: &Query) -> Vec<WorkUnit> {
    let (grid, order) = (store.grid(), store.order());
    let mut chunks: Vec<(usize, bool)> = match (&q.sc, &q.points) {
        (Some(region), _) => (grid.chunks_intersecting(region).into_iter())
            .map(|c| {
                (
                    order.rank_of(c),
                    !region.contains_region(&grid.chunk_region(c)),
                )
            })
            .collect(),
        (None, Some(points)) => (points.iter())
            .map(|&p| (order.rank_of(grid.chunk_of(p)), false))
            .collect(),
        (None, None) => (0..grid.num_chunks()).map(|r| (r, false)).collect(),
    };
    chunks.sort_unstable();
    chunks.dedup();
    let spec = store.bins();
    let bins: Vec<(usize, bool)> = match q.vc {
        Some((lo, hi)) => (spec.candidate_bins(lo, hi))
            .map(|k| (k, spec.is_aligned(k, lo, hi)))
            .collect(),
        None => (0..spec.num_bins()).map(|k| (k, true)).collect(),
    };
    let mut units = Vec::new();
    for (bin, aligned) in bins {
        let needs_data = q.wants_values() || !aligned;
        for &(chunk_rank, partial) in &chunks {
            units.push(WorkUnit {
                bin,
                chunk_rank,
                needs_data,
                value_filter: needs_data && q.vc.is_some() && !aligned,
                spatial_filter: partial,
                slot: 0,
            });
        }
    }
    units
}

/// Every stored extent of unit `(bin, rank)` — its bitmap and each of
/// its unit parts — as `(file, offset, length)`.
fn unit_extents(store: &MlocStore<'_>, bin: usize, rank: usize) -> Vec<(String, u64, u64)> {
    let be = &store_backend().0;
    let file = store.bin_file(bin).to_string();
    let raw = be.read(&file, 0, be.len(&file).unwrap()).unwrap();
    let fixed = store.parse_fixed(bin, &raw).unwrap();
    let mut out: Vec<(String, u64, u64)> = fixed
        .bitmap(rank)
        .map(|(at, len)| (file.clone(), at, u64::from(len)))
        .into_iter()
        .collect();
    for part in 0..store.config().num_parts() {
        if let Some(loc) = fixed.unit(rank, part) {
            out.push((file.clone(), loc.offset, u64::from(loc.clen)));
        }
    }
    out
}

/// The files a set of traces opens.
fn files(traces: &[Vec<ReadOp>]) -> BTreeSet<String> {
    traces
        .iter()
        .flatten()
        .map(|op| op.file.to_string())
        .collect()
}

/// What a cold serial run must read: each planned bin's fixed blocks —
/// the data table too when a unit of it reads data — each planned
/// unit's bitmap unless its chunk is full in the bin, and the parts the
/// query uses of each unit that reads data.
fn planned_bytes(store: &MlocStore<'_>, q: &Query, units: &[WorkUnit]) -> u64 {
    let parts = parts_used(store.config(), q);
    let mut total = 0;
    for group in units.chunk_by(|a, b| a.bin == b.bin) {
        let bin = group[0].bin;
        let be = &store_backend().0;
        let file = store.bin_file(bin);
        let raw = be.read(file, 0, be.len(file).unwrap()).unwrap();
        let fixed = store.parse_fixed(bin, &raw).unwrap();
        let data = group.iter().any(|u| u.needs_data);
        let (data_at, data_len) = fixed.tables().data_span();
        total += data_at + if data { data_len } else { 0 };
        for u in group {
            let summary = store.summaries().get(bin, u.chunk_rank);
            if !summary.all_of_chunk {
                total += u64::from(fixed.bitmap(u.chunk_rank).unwrap().1);
            }
            if u.needs_data {
                let clen = |p| u64::from(fixed.unit(u.chunk_rank, p).unwrap().clen);
                total += (0..parts).map(clen).sum::<u64>();
            }
        }
    }
    total
}

fn check(d: &Drawn) {
    let (be, values) = store_backend();
    let store = MlocStore::open(be, DS, VAR).unwrap();
    let q = resolve(&store, values, d);
    let plan = make_plan(&store, &q).unwrap();
    let want = oracle::expected(&store, values, &q, &unculled(&store, &q), None);
    let tag = format!("{q:?}");

    // Every planned unit can hold a hit; what it left out could not.
    let planned: BTreeSet<(usize, usize)> =
        plan.units.iter().map(|u| (u.bin, u.chunk_rank)).collect();
    let summaries = store.summaries();
    prop_assert!(plan
        .units
        .iter()
        .all(|u| summaries.get(u.bin, u.chunk_rank).count > 0));
    let pruned: BTreeSet<(String, u64, u64)> = unculled(&store, &q)
        .iter()
        .filter(|u| !planned.contains(&(u.bin, u.chunk_rank)))
        .flat_map(|u| unit_extents(&store, u.bin, u.chunk_rank))
        .collect();
    let opened: BTreeSet<String> = (planned.iter())
        .map(|&(bin, _)| store.bin_file(bin).to_string())
        .collect();

    // (mode, store, executor, whether the run reads every planned bin
    // itself rather than from a cache or a fused read).
    let cache = Arc::new(BlockCache::with_budget_mb(16));
    let cached = MlocStore::open(be, DS, VAR).unwrap().with_cache(cache);
    let fuser = Arc::new(ExtentFuser::with_window_mb(8));
    let fused = MlocStore::open(be, DS, VAR)
        .unwrap()
        .with_fusion(Arc::clone(&fuser));
    fuser.begin_window();
    let serial = ParallelExecutor::serial();
    let threaded = ParallelExecutor::new(8, CostModel::default()).threaded(true);
    let modes: [(&str, &MlocStore<'_>, &ParallelExecutor, bool); 5] = [
        ("serial", &store, &serial, true),
        ("8 ranks threaded", &store, &threaded, true),
        ("cached cold", &cached, &serial, true),
        ("cached warm", &cached, &serial, false),
        ("fused", &fused, &serial, false),
    ];
    for (mode, s, exec, cold) in modes {
        let (result, traces) = if d.kind == 3 {
            let mut ladder: ProgressiveQuery<'_, '_> = exec.progressive(s, &q).unwrap();
            let traces = ladder.step0_traces().to_vec();
            ladder.run_to_completion().unwrap();
            (ladder.result().clone(), traces)
        } else {
            let out = exec.run(s, ExecRequest::new(&q)).unwrap();
            if mode == "serial" {
                let bytes = out.metrics.index_bytes + out.metrics.data_bytes;
                let want = planned_bytes(&store, &q, &plan.units);
                prop_assert_eq!(bytes, want, "{}: cold serial bytes", tag);
            }
            (out.result, out.traces)
        };
        prop_assert!(oracle::same(&result, &want), "{}: {} answer", tag, mode);
        let touched = files(&traces);
        prop_assert!(
            touched.is_subset(&opened),
            "{}: {} opened {:?}",
            tag,
            mode,
            touched
        );
        if cold && d.kind != 3 {
            prop_assert_eq!(&touched, &opened, "{}: {}", tag, mode);
        }
        // No logical read — a cached mode records each extent it is
        // served — is an extent of a culled unit, and no physical read
        // starts at one.
        for op in traces.iter().flatten() {
            let start = |(f, at, _): &(String, u64, u64)| *f == *op.file && *at == op.offset;
            prop_assert!(
                !pruned.iter().any(start),
                "{}: {} read a culled unit: {:?}",
                tag,
                mode,
                op
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn culling_never_changes_an_answer_or_opens_an_empty_bin(d in drawn()) {
        check(&d);
    }
}

/// The culling is real on this store: a box in one chunk plans fewer
/// units than the chunk has set bins, and a bin with no planned unit is
/// left unopened.
#[test]
fn a_small_box_culls_units_and_bins() {
    let (be, values) = store_backend();
    let store = MlocStore::open(be, DS, VAR).unwrap();
    let q = Query::values_in(Region::new(vec![(9, 11), (9, 11)]));
    let plan = make_plan(&store, &q).unwrap();
    let set = (0..store.config().num_bins)
        .filter(|&bin| store.summaries().get(bin, plan.units[0].chunk_rank).count > 0)
        .count();
    assert!(plan.units.len() < set, "{} of {set}", plan.units.len());
    let out = ParallelExecutor::serial()
        .run(&store, ExecRequest::new(&q))
        .unwrap();
    assert!(files(&out.traces).len() < set);
    let want = oracle::expected(&store, values, &q, &unculled(&store, &q), None);
    assert!(oracle::same(&out.result, &want));
}
