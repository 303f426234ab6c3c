//! Property-based tests on the core invariant: any MLOC layout
//! (random geometry, bins, codec, order) answers any query exactly as
//! a naive scan does.

use mloc::prelude::*;
use mloc::query::plan::make_plan;
use mloc_compress::CodecKind;
use mloc_pfs::{CostModel, MemBackend};
use proptest::prelude::*;

#[path = "support/oracle.rs"]
mod oracle;

/// A small random dataset + geometry.
#[derive(Debug, Clone)]
struct Case {
    shape: Vec<usize>,
    chunk: Vec<usize>,
    num_bins: usize,
    values: Vec<f64>,
    codec: CodecKind,
    order: LevelOrder,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        2usize..=3,          // dims
        proptest::bool::ANY, // order
        0usize..3,           // codec pick (lossless only)
        2usize..=8,          // bins
        any::<u64>(),        // value seed
    )
        .prop_flat_map(|(dims, vsm, codec_pick, num_bins, seed)| {
            let dim_st = proptest::collection::vec((4usize..=12, 2usize..=5), dims);
            dim_st.prop_map(move |dim_specs| {
                let shape: Vec<usize> = dim_specs.iter().map(|&(s, _)| s).collect();
                let chunk: Vec<usize> = dim_specs.iter().map(|&(s, c)| c.min(s)).collect();
                let n: usize = shape.iter().product();
                // Deterministic pseudo-random values from the seed.
                let mut x = seed | 1;
                let values: Vec<f64> = (0..n)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        ((x % 10_000) as f64 - 5_000.0) * 0.37
                    })
                    .collect();
                let codec = [CodecKind::Raw, CodecKind::Deflate, CodecKind::Fpc][codec_pick % 3];
                Case {
                    shape,
                    chunk,
                    num_bins,
                    values,
                    codec,
                    order: if vsm {
                        LevelOrder::Vsm
                    } else {
                        LevelOrder::Vms
                    },
                }
            })
        })
}

fn build_case<'a>(be: &'a MemBackend, case: &Case) -> MlocStore<'a> {
    let config = MlocConfig::builder(case.shape.clone())
        .chunk_shape(case.chunk.clone())
        .num_bins(case.num_bins)
        .codec(case.codec)
        .level_order(case.order)
        .build();
    build_variable(be, "p", "v", &case.values, &config).unwrap();
    MlocStore::open(be, "p", "v").unwrap()
}

/// The bits of an answer's values, if it has any.
fn value_bits(result: &QueryResult) -> Option<Vec<u64>> {
    result
        .values()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
}

/// Run `q` on one replayed rank and on four rank threads; require the
/// two answers to be bit-identical and return it.
fn serial_matches_threaded(
    store: &MlocStore<'_>,
    q: &Query,
    filter: Option<&[u64]>,
    allow_degraded: bool,
) -> QueryResult {
    let plan = make_plan(store, q).unwrap();
    let threaded = ParallelExecutor::new(4, CostModel::default()).threaded(true);
    let mut answers = Vec::new();
    for exec in [ParallelExecutor::serial(), threaded] {
        let exec = exec.allow_degraded(allow_degraded);
        let req = ExecRequest::planned(q, &plan, filter);
        answers.push(exec.run(store, req).unwrap().result);
    }
    assert_eq!(answers[0].positions(), answers[1].positions(), "{q:?}");
    assert_eq!(value_bits(&answers[0]), value_bits(&answers[1]), "{q:?}");
    answers.swap_remove(0)
}

/// Run `q` as [`serial_matches_threaded`] does, require the answer to
/// be the oracle's over `field` bit for bit, and return it.
fn matches_oracle(
    store: &MlocStore<'_>,
    field: &[f64],
    q: &Query,
    filter: Option<&[u64]>,
) -> QueryResult {
    let got = serial_matches_threaded(store, q, filter, false);
    let plan = make_plan(store, q).unwrap();
    let want = oracle::expected(store, field, q, &plan.units, filter);
    assert_eq!(got.positions(), &want.0[..], "{q:?}");
    assert!(oracle::same(&got, &want), "{q:?}: values differ");
    got
}

/// Distinct values over a wide range, in no spatial order.
fn scattered_values(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7919) % 1009) as f64 * 0.731 - 200.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn region_queries_match_naive(case in case_strategy(), qlo in 0.0f64..1.0, qw in 0.0f64..0.5) {
        let be = MemBackend::new();
        let store = build_case(&be, &case);
        let mut sorted = case.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = sorted[((sorted.len() - 1) as f64 * qlo) as usize];
        let hi = sorted[(((sorted.len() - 1) as f64 * (qlo + qw)).min((sorted.len() - 1) as f64)) as usize];
        let res = store.query_serial(&Query::region(lo, hi)).unwrap();
        let want: Vec<u64> = case.values.iter().enumerate()
            .filter(|(_, &v)| v >= lo && v < hi)
            .map(|(i, _)| i as u64).collect();
        prop_assert_eq!(res.positions(), &want[..]);
    }

    #[test]
    fn value_queries_match_naive(case in case_strategy(), fracs in proptest::collection::vec((0.0f64..1.0, 0.01f64..1.0), 3)) {
        let be = MemBackend::new();
        let store = build_case(&be, &case);
        // A random sub-region per dimension.
        let ranges: Vec<(usize, usize)> = case.shape.iter().zip(&fracs).map(|(&e, &(a, w))| {
            let start = ((e - 1) as f64 * a) as usize;
            let len = ((e as f64 * w) as usize).max(1);
            (start, (start + len).min(e))
        }).collect();
        let region = Region::new(ranges.clone());
        let res = store.query_serial(&Query::values_in(region.clone())).unwrap();

        let grid = store.grid();
        let mut want: Vec<(u64, f64)> = Vec::new();
        for lin in 0..case.values.len() as u64 {
            let coords = grid.delinearize(lin);
            if region.contains(&coords) {
                want.push((lin, case.values[lin as usize]));
            }
        }
        prop_assert_eq!(res.len(), want.len());
        for ((&p, &v), (wp, wv)) in res.positions().iter().zip(res.values().unwrap()).zip(want) {
            prop_assert_eq!(p, wp);
            prop_assert_eq!(v.to_bits(), wv.to_bits());
        }
    }

    #[test]
    fn combined_queries_match_naive(case in case_strategy()) {
        let be = MemBackend::new();
        let store = build_case(&be, &case);
        let mut sorted = case.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = sorted[sorted.len() / 5];
        let hi = sorted[sorted.len() * 4 / 5];
        let half: Vec<(usize, usize)> =
            case.shape.iter().map(|&e| (0, e.div_ceil(2))).collect();
        let region = Region::new(half);
        let q = Query::values_where(lo, hi).with_region(region.clone());
        let res = store.query_serial(&q).unwrap();

        let grid = store.grid();
        let want: Vec<u64> = (0..case.values.len() as u64).filter(|&lin| {
            let v = case.values[lin as usize];
            v >= lo && v < hi && region.contains(&grid.delinearize(lin))
        }).collect();
        prop_assert_eq!(res.positions(), &want[..]);
    }

    #[test]
    fn parallel_execution_is_rank_invariant(case in case_strategy(), nranks in 1usize..7) {
        let be = MemBackend::new();
        let store = build_case(&be, &case);
        let q = Query::values_where(-1e9, 1e9);
        let serial = store.query_serial(&q).unwrap();
        let exec = mloc::exec::ParallelExecutor::new(nranks, mloc_pfs::CostModel::default());
        let (par, _) = exec.execute(&store, &q).unwrap();
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn plod_reassembly_preserves_prefix_and_fills_midpoint(
        values in proptest::collection::vec(any::<f64>(), 1..64),
        level in 1u8..=7,
    ) {
        // any::<f64>() covers NaNs, infinities and subnormals: the
        // byte-group transform must be oblivious to float semantics.
        let parts = mloc::plod::split(&values);
        let lvl = PlodLevel::new(level).unwrap();
        let refs: Vec<&[u8]> = parts[..lvl.num_parts()].iter().map(|p| p.as_slice()).collect();
        let back = mloc::plod::assemble(&refs, lvl);
        prop_assert_eq!(back.len(), values.len());
        let filled = lvl.num_bytes();
        for (v, r) in values.iter().zip(&back) {
            let vb = v.to_be_bytes();
            let rb = r.to_be_bytes();
            // Kept bytes are the exact big-endian prefix of the original
            // (level 7 ⇒ all 8 bytes ⇒ bitwise roundtrip, NaNs included).
            prop_assert_eq!(&rb[..filled], &vb[..filled]);
            // Missing tail gets the midpoint fill: 0x7F then 0xFF.
            if filled < 8 {
                prop_assert_eq!(rb[filled], 0x7F);
                for &b in &rb[filled + 1..] {
                    prop_assert_eq!(b, 0xFF);
                }
            }
        }
    }

    #[test]
    fn equal_frequency_bins_partition_the_values(
        sample in proptest::collection::vec(-1e12f64..1e12, 1..200),
        num_bins in 1usize..12,
    ) {
        let spec = mloc::BinSpec::equal_frequency(&sample, num_bins);
        let bounds = spec.bounds();
        prop_assert_eq!(bounds.len(), num_bins + 1);
        // Bounds are monotone non-decreasing (duplicates collapse bins).
        for w in bounds.windows(2) {
            prop_assert!(w[0] <= w[1], "bounds not monotone: {} > {}", w[0], w[1]);
        }
        for &v in &sample {
            let k = spec.bin_of(v);
            prop_assert!(k < num_bins);
            if v < bounds[0] {
                prop_assert_eq!(k, 0, "below-range value must clamp to bin 0");
            } else if v >= bounds[num_bins] {
                prop_assert_eq!(k, num_bins - 1, "above-range value must clamp to last bin");
            } else {
                // In-range: v lies in exactly one bin's [lo, hi), and
                // bin_of returns that bin.
                let members: Vec<usize> = (0..num_bins)
                    .filter(|&b| {
                        let (lo, hi) = spec.bin_range(b);
                        lo <= v && v < hi
                    })
                    .collect();
                prop_assert_eq!(&members[..], &[k][..], "value {} not in exactly one bin", v);
            }
        }
    }

    #[test]
    fn candidate_bins_cover_the_constraint(
        sample in proptest::collection::vec(-1e6f64..1e6, 2..200),
        num_bins in 1usize..12,
        // Probe constraints well past the sample range on both sides so
        // fully-below-range and fully-above-range constraints occur.
        a in -2e6f64..2e6,
        b in -2e6f64..2e6,
    ) {
        let spec = mloc::BinSpec::equal_frequency(&sample, num_bins);
        let (lo, hi) = (a.min(b), a.max(b));
        if lo >= hi {
            // a == b: degenerate draw, nothing to check.
            return;
        }
        let candidates = spec.candidate_bins(lo, hi);
        prop_assert!(!candidates.is_empty(), "non-empty [lo,hi) must touch a bin");
        // The candidate set is a range, contiguous by construction and
        // fully in-range.
        prop_assert!(candidates.end <= num_bins);
        // Every value in [lo, hi) lands in a candidate bin — whether the
        // constraint is inside the sample range, fully below it (bin_of
        // clamps to bin 0), or fully above it (clamps to the last bin).
        for i in 0..=64 {
            let v = lo + (hi - lo) * (i as f64 / 65.0);
            if v < hi {
                prop_assert!(
                    candidates.contains(&spec.bin_of(v)),
                    "value {} in [{},{}) missed candidates {:?}",
                    v, lo, hi, &candidates
                );
            }
        }
    }

    #[test]
    fn inverted_and_empty_constraints_have_no_candidates(
        sample in proptest::collection::vec(-1e6f64..1e6, 2..100),
        num_bins in 1usize..8,
        a in -2e6f64..2e6,
        b in -2e6f64..2e6,
    ) {
        let spec = mloc::BinSpec::equal_frequency(&sample, num_bins);
        let (lo, hi) = (a.max(b), a.min(b)); // inverted (or equal)
        prop_assert!(spec.candidate_bins(lo, hi).is_empty(),
            "inverted constraint [{},{}) must yield no candidates", lo, hi);
        prop_assert!(spec.candidate_bins(a, a).is_empty(), "empty constraint");
    }

    #[test]
    fn fast_reconstruct_matches_general_path(
        case in case_strategy(),
        qlo in 0.0f64..1.0,
        qw in 0.0f64..0.6,
        level in 1u8..=7,
        with_region in proptest::bool::ANY,
        with_filter in proptest::bool::ANY,
        corners in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 3),
    ) {
        // The run-aware reconstruct must give the oracle's answer bit
        // for bit, on one rank and on four, for every query shape:
        // value constraints, regions straddling chunks (a value filter
        // inside them included), reduced PLoD levels, and sorted
        // position filters.
        let be = MemBackend::new();
        let store = build_case(&be, &case);
        let mut sorted = case.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = sorted[((sorted.len() - 1) as f64 * qlo) as usize];
        let hi = sorted[(((sorted.len() - 1) as f64 * (qlo + qw)).min((sorted.len() - 1) as f64)) as usize];
        // A random box, down to one point thick in any dimension.
        let region = with_region.then(|| {
            Region::new(case.shape.iter().zip(&corners).map(|(&e, &(a, b))| {
                let (a, b) = ((a * e as f64) as usize, (b * e as f64) as usize);
                (a.min(b), (a.max(b) + 1).min(e))
            }).collect())
        });
        // Reduced levels require a byte-column layout.
        let at_level = |q: Query| if store.config().plod {
            q.with_plod(PlodLevel::new(level).unwrap())
        } else {
            q
        };
        let queries = [
            Query::region(lo, hi),
            at_level(Query::values_where(lo, hi)),
            at_level(Query::values_in(Region::full(&case.shape))),
        ];
        // Every third global position, sorted and duplicate-free.
        let filter: Option<Vec<u64>> = with_filter.then(|| {
            (0..case.values.len() as u64).step_by(3).collect()
        });
        for mut q in queries {
            if let Some(r) = &region {
                q.sc = Some(r.clone());
            }
            matches_oracle(&store, &case.values, &q, filter.as_deref());
        }
    }

    #[test]
    fn summary_classification_matches_bitmap_truth(case in case_strategy()) {
        use mloc::bitmap::RunListRef;
        use mloc::index::ChunkSummary;
        use mloc_pfs::StorageBackend;
        let be = MemBackend::new();
        let store = build_case(&be, &case);
        let geometry = (store.grid().num_chunks(), store.config().num_parts());
        for bin in 0..case.num_bins {
            let name = mloc::fileorg::bin_file("p", "v", bin);
            let raw = be.read(&name, 0, be.len(&name).unwrap()).unwrap();
            let idx = store.parse_fixed(bin, &raw).unwrap();
            for r in 0..geometry.0 {
                let summary = store.summaries().get(bin, r);
                let Some((off, len)) = idx.bitmap(r) else {
                    prop_assert_eq!(summary, ChunkSummary::EMPTY);
                    continue;
                };
                let off = off as usize;
                let points = store.grid().chunk_points(store.order().cell_at(r)) as u64;
                let pairs = &raw[off..off + len as usize];
                let runs = RunListRef::stored(pairs, u64::from(summary.count), points).unwrap();
                let pos: Vec<u64> = runs.iter().flat_map(|(at, _, len)| at..at + len).collect();
                prop_assert_eq!(u64::from(summary.min_pos), pos[0]);
                prop_assert_eq!(u64::from(summary.max_pos), *pos.last().unwrap());
                prop_assert_eq!(summary.all_of_chunk, pos.len() as u64 == points);
            }
        }
    }

    #[test]
    fn membership_queries_match_naive(case in case_strategy(), pick in any::<u64>()) {
        let be = MemBackend::new();
        let store = build_case(&be, &case);
        let n = case.values.len() as u64;
        let mut x = pick | 1;
        let mut points: Vec<u64> = (0..n).filter(|_| {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            x % 3 == 0
        }).collect();
        if points.is_empty() {
            points.push(n / 2);
        }

        // Unconstrained membership: every probed point exists.
        let res = store.query_serial(&Query::membership(points.clone())).unwrap();
        prop_assert_eq!(res.positions(), &points[..]);

        // Value-constrained membership vs the naive filter, with and
        // without value output, plus the oracle on one and four ranks.
        let mut sorted = case.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = sorted[sorted.len() / 4];
        let hi = sorted[sorted.len() * 3 / 4];
        let want: Vec<u64> = points.iter().copied().filter(|&p| {
            let v = case.values[p as usize];
            v >= lo && v < hi
        }).collect();
        let q = Query::membership_where(lo, hi, points.clone());
        let res = store.query_serial(&q).unwrap();
        prop_assert_eq!(res.positions(), &want[..]);

        let qv = q.clone().with_values();
        let resv = store.query_serial(&qv).unwrap();
        prop_assert_eq!(resv.positions(), &want[..]);
        for (&p, &v) in resv.positions().iter().zip(resv.values().unwrap()) {
            prop_assert_eq!(v.to_bits(), case.values[p as usize].to_bits());
        }

        let got = matches_oracle(&store, &case.values, &qv, None);
        prop_assert_eq!(value_bits(&got), value_bits(&resv));
    }

    #[test]
    fn plan_covers_every_candidate(case in case_strategy()) {
        let be = MemBackend::new();
        let store = build_case(&be, &case);
        let q = Query::region(-1e9, 1e9);
        let plan = make_plan(&store, &q).unwrap();
        // Every (candidate bin, candidate chunk) pair that holds points
        // appears once: the whole domain culls only the empty ones.
        let mut seen = std::collections::HashSet::new();
        for u in &plan.units {
            prop_assert!(seen.insert((u.bin, u.chunk_rank)), "duplicate unit");
        }
        let summaries = store.summaries();
        let set = (0..plan.bins_touched)
            .flat_map(|bin| (0..plan.chunks_touched).map(move |rank| (bin, rank)))
            .filter(|&(bin, rank)| summaries.get(bin, rank).count > 0)
            .count();
        prop_assert_eq!(plan.units.len(), set);
    }
}

/// The deferred path cuts each run to the region inside the chunks it
/// straddles. Fixed geometries meet every shape of that cut, on both
/// value layouts (PLoD byte columns and whole floats): ragged edge
/// chunks in 2-D and 3-D, regions one row and one column thick, a value
/// filter inside straddling chunks, and every PLoD level, each checked
/// against the oracle. Full-precision answers are checked against a
/// naive scan too.
#[test]
fn windowed_reconstruct_matches_general_path_on_fixed_geometries() {
    let geometries = [
        (
            vec![23, 17],
            vec![5, 4],
            vec![
                vec![(3, 19), (2, 15)],
                vec![(7, 8), (1, 16)],
                vec![(0, 23), (9, 10)],
                vec![(20, 23), (13, 17)],
            ],
        ),
        (
            vec![9, 11, 7],
            vec![4, 3, 5],
            vec![
                vec![(1, 8), (2, 10), (1, 6)],
                vec![(4, 5), (3, 4), (0, 7)],
                vec![(0, 9), (1, 11), (3, 4)],
                vec![(8, 9), (9, 11), (5, 7)],
            ],
        ),
    ];
    for (shape, chunk, regions) in geometries {
        let values = scattered_values(shape.iter().product());
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let (lo, hi) = (sorted[sorted.len() / 4], sorted[sorted.len() * 3 / 4]);
        for codec in [CodecKind::Deflate, CodecKind::Fpc] {
            let case = Case {
                shape: shape.clone(),
                chunk: chunk.clone(),
                num_bins: 6,
                values: values.clone(),
                codec,
                order: LevelOrder::Vms,
            };
            let be = MemBackend::new();
            let store = build_case(&be, &case);
            let grid = store.grid();
            let levels = if store.config().plod { 1..=7 } else { 7..=7 };
            for region in regions.iter().cloned().map(Region::new) {
                let inside = |p: &u64| region.contains(&grid.delinearize(*p));
                for level in levels.clone() {
                    let plod = PlodLevel::new(level).unwrap();
                    let vc_sc = Query::values_where(lo, hi).with_region(region.clone());
                    for q in [Query::values_in(region.clone()), vc_sc] {
                        matches_oracle(&store, &values, &q.with_plod(plod), None);
                    }
                }
                let all = 0..values.len() as u64;
                let q = Query::values_in(region.clone());
                let got = matches_oracle(&store, &values, &q, None);
                let want: Vec<u64> = all.clone().filter(inside).collect();
                assert_eq!(got.positions(), &want[..], "{q:?}");
                let exact = want.iter().map(|&p| values[p as usize].to_bits());
                assert_eq!(value_bits(&got), Some(exact.collect()), "{q:?}");
                let q = Query::region(lo, hi).with_region(region.clone());
                let got = matches_oracle(&store, &values, &q, None);
                let want: Vec<u64> = all
                    .filter(|p| inside(p) && (lo..hi).contains(&values[*p as usize]))
                    .collect();
                assert_eq!(got.positions(), &want[..], "{q:?}");
            }
        }
    }
}

/// A straddling unit whose part 3 is damaged — one flipped byte in the
/// part's extent, as the fetch stage's own degradation test does it —
/// degrades to level 3 under `allow_degraded(true)`: one rank and
/// four answer alike, with every position in the region and, for that
/// unit's points, their level-3 values, bit for bit.
#[test]
fn a_degraded_straddling_unit_answers_at_its_level() {
    use mloc_pfs::StorageBackend;
    let case = Case {
        shape: vec![23, 17],
        chunk: vec![5, 4],
        num_bins: 6,
        values: scattered_values(23 * 17),
        codec: CodecKind::Deflate,
        order: LevelOrder::Vms,
    };
    let values = &case.values;
    let region = Region::new(vec![(3, 19), (2, 15)]);
    let be = MemBackend::new();
    let store = build_case(&be, &case);
    let (grid, bins) = (store.grid(), store.bins());
    let all = 0..values.len() as u64;
    let inside = |p: u64| region.contains(&grid.delinearize(p));
    let in_unit = |bin: usize, chunk: usize, p: u64| {
        grid.chunk_of(p) == chunk && bins.bin_of(values[p as usize]) == bin
    };
    // The first unit, in bin order, with points on both sides of the
    // region's edge.
    let (bin, rank, chunk) = (0..case.num_bins)
        .flat_map(|bin| (0..grid.num_chunks()).map(move |rank| (bin, rank)))
        .map(|(bin, rank)| (bin, rank, store.order().cell_at(rank)))
        .find(|&(bin, _, chunk)| {
            let points: Vec<u64> = all.clone().filter(|&p| in_unit(bin, chunk, p)).collect();
            points.iter().any(|&p| inside(p)) && points.iter().any(|&p| !inside(p))
        })
        .expect("a straddling unit");
    let file = store.bin_file(bin);
    let mut raw = be.read(file, 0, be.len(file).unwrap()).unwrap();
    let located = store.parse_fixed(bin, &raw).unwrap();
    let at = located.unit(rank, 3).unwrap().offset as usize;
    raw[at] ^= 0x40;
    be.create(file).unwrap();
    be.append(file, &raw).unwrap();
    let damaged = MlocStore::open(&be, "p", "v").unwrap();

    let q = Query::values_in(region.clone());
    let got = serial_matches_threaded(&damaged, &q, None, true);
    let exec = ParallelExecutor::serial().allow_degraded(true);
    let out = exec.run(&damaged, ExecRequest::new(&q)).unwrap();
    assert_eq!(out.metrics.degraded_units, 1);
    let want: Vec<u64> = all.filter(|&p| inside(p)).collect();
    assert_eq!(got.positions(), &want[..]);
    let level3 = PlodLevel::new(3).unwrap();
    let mut lowered = 0;
    for (&p, &v) in got.positions().iter().zip(got.values().unwrap()) {
        let exact = values[p as usize];
        let want = if in_unit(bin, chunk, p) {
            lowered += 1;
            oracle::at_level(exact, level3)
        } else {
            exact
        };
        assert_eq!(v.to_bits(), want.to_bits(), "position {p}");
    }
    assert!(lowered > 0, "the damaged unit has points in the region");
}
