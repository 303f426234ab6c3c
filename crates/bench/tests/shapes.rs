//! The paper's shapes as gates: who wins in Tables II, III, V and VII
//! and where Fig. 7 flattens, at the small scale the reproducers
//! default to (`--queries 3 --ranks 8 --seed 42`). Only simulated I/O
//! seconds are compared — a pure function of the built bytes, the query
//! sequence and the cost model — so every assertion is exact and
//! repeats on any machine; the measured CPU components are not gated.
//!
//! ```text
//! cargo test --release -p mloc-bench --test shapes -- --ignored --nocapture
//! ```
//!
//! Each test builds one 32 MiB dataset in every variant it needs, which
//! is why they are `#[ignore]`d out of the debug-mode `cargo test`.

use mloc::config::{LevelOrder, PlodLevel};
use mloc::exec::ParallelExecutor;
use mloc_bench::compare::{build_systems, comparison, Cell, Kind, Lineup, Systems};
use mloc_bench::scenario::{build_mloc, open_mloc, DatasetSpec, Variant};
use mloc_bench::workload::Workload;
use mloc_datagen::Field;
use mloc_pfs::{CostModel, MemBackend};

const QUERIES: usize = 3;
const RANKS: usize = 8;
const SEED: u64 = 42;

type Rows = Vec<(String, Vec<Cell>)>;

fn rows(kind: Kind, systems: &Systems<'_>, field: &Field, selectivities: [f64; 2]) -> Rows {
    let rows = comparison(kind, systems, field, &selectivities, QUERIES, RANKS, SEED);
    for (name, cells) in &rows {
        let io: Vec<String> = cells.iter().map(|c| format!("{:.4}", c.io_s)).collect();
        println!("  {name:<10} io_s {}", io.join("  "));
    }
    rows
}

fn io_of(rows: &Rows, system: &str, column: usize) -> f64 {
    let (_, cells) = rows
        .iter()
        .find(|(name, _)| name == system)
        .unwrap_or_else(|| panic!("no row {system}"));
    cells[column].io_s
}

const MLOC: [&str; 3] = ["MLOC-COL", "MLOC-ISO", "MLOC-ISA"];

/// Table II on one dataset: every MLOC variant's simulated I/O is below
/// the sequential scan's at 1 % and at 10 %.
fn table2_gate(systems: &Systems<'_>, field: &Field) {
    let dataset = systems.spec.name;
    println!("Table II, {dataset}: region queries, VC 1 % / 10 %");
    let region = rows(Kind::Region, systems, field, [0.01, 0.10]);
    for (column, selectivity) in ["1 %", "10 %"].iter().enumerate() {
        let scan = io_of(&region, "Seq. Scan", column);
        for system in MLOC {
            let io = io_of(&region, system, column);
            assert!(
                io < scan,
                "Table II {dataset} {selectivity}: {system} {io:.4} s is not below Seq. Scan {scan:.4} s"
            );
        }
    }
}

/// Fig. 7 on one store: simulated I/O of 10 % value queries at 64 and
/// at 128 ranks. Doubling the ranks must buy less than 2x (the paper's
/// plateau: 16 OSTs are saturated), and the 128-rank figure may not
/// exceed `parent_io_128`, the figure of the tree before bins' fixed
/// blocks were shared between ranks. That sharing is gone again: every
/// rank reads its own bins' fixed blocks.
fn fig7_gate(dataset: &str, store: &mloc::MlocStore<'_>, field: &Field, parent_io_128: f64) {
    let io_at = |ranks: usize| {
        let exec = ParallelExecutor::new(ranks, CostModel::default());
        let shape = store.config().shape.clone();
        let mut w = Workload::new(field.values(), shape, QUERIES, SEED);
        w.mloc_value(store, &exec, 0.10, PlodLevel::FULL).io_s
    };
    let (io_64, io_128) = (io_at(64), io_at(128));
    println!("Fig. 7, {dataset}: io_s {io_64:.4} at 64 ranks, {io_128:.4} at 128 (was {parent_io_128:.4})");
    assert!(
        io_128 > io_64 / 2.0,
        "Fig. 7 {dataset}: I/O still scales 64 -> 128 ranks ({io_64:.4} -> {io_128:.4} s)"
    );
    assert!(
        io_128 <= parent_io_128,
        "Fig. 7 {dataset}: I/O at 128 ranks rose from {parent_io_128:.4} to {io_128:.4} s"
    );
}

#[test]
#[ignore = "builds the small-scale datasets; run in release"]
fn gts_shapes() {
    let spec = DatasetSpec::gts(false);
    let field = spec.generate();
    let be = MemBackend::new();
    let systems = build_systems(&be, &spec, &field, Lineup::MlocAndScan);

    table2_gate(&systems, &field);
    // The figure ROADMAP item 1 bisected: 0.043 s at the seed, 0.197 s
    // once every rank read two footers, a header and a summary per bin.
    println!("  (1 % MLOC-COL at the seed: 0.043-0.062 s)");

    // Tables III and V share this line-up and differ in scale only.
    println!("Tables III/V, GTS: value queries, SC 0.1 % / 1 %");
    let value = rows(Kind::Value, &systems, &field, [0.001, 0.01]);
    let scan = io_of(&value, "Seq. Scan", 1);
    for system in ["MLOC-ISO", "MLOC-ISA"] {
        let io = io_of(&value, system, 1);
        assert!(
            io < scan,
            "Table III/V GTS 1 %: {system} {io:.4} s is not below Seq. Scan {scan:.4} s"
        );
    }
    // And at 0.1 % MLOC-ISO (ROADMAP 1(e)): once the planner culled
    // the units that cannot hold a hit (format v6) it beat the scan
    // here and over the 10 queries the reproducers run (EXPERIMENTS.md,
    // Table III); before, the scan won on queueing of ~13 bin files per
    // rank on 16 OSTs (0.5502 vs 0.5216 s over these 3 queries).
    let (iso, scan) = (io_of(&value, "MLOC-ISO", 0), io_of(&value, "Seq. Scan", 0));
    assert!(
        iso < scan,
        "Table III/V GTS 0.1 %: MLOC-ISO {iso:.4} s is not below Seq. Scan {scan:.4} s"
    );

    let (_, col) = &systems.mloc[0];
    fig7_gate("GTS", col, &field, PARENT_FIG7_IO_128_GTS);
}

#[test]
#[ignore = "builds the small-scale datasets; run in release"]
fn s3d_shapes() {
    let spec = DatasetSpec::s3d(false);
    let field = spec.generate();
    let be = MemBackend::new();
    let systems = build_systems(&be, &spec, &field, Lineup::MlocAndScan);
    table2_gate(&systems, &field);
    let (_, vms) = &systems.mloc[0];
    fig7_gate("S3D", vms, &field, PARENT_FIG7_IO_128_S3D);

    // Table VII: MLOC-COL in both level orders, 10 % value queries at
    // a 3-byte PLoD and at full precision. Each order wins the access
    // pattern it lays out contiguously.
    let other = MemBackend::new();
    build_mloc(&other, &spec, field.values(), Variant::Col, LevelOrder::Vsm);
    let vsm = open_mloc(&other, &spec, Variant::Col);
    let exec = ParallelExecutor::new(RANKS, CostModel::default());
    let io = |store: &mloc::MlocStore<'_>, plod: PlodLevel| {
        let mut w = Workload::new(field.values(), spec.shape.clone(), QUERIES, SEED);
        w.mloc_value(store, &exec, 0.10, plod).io_s
    };
    let three_byte = PlodLevel::new(2).unwrap();
    let (vms_plod, vms_full) = (io(vms, three_byte), io(vms, PlodLevel::FULL));
    let (vsm_plod, vsm_full) = (io(&vsm, three_byte), io(&vsm, PlodLevel::FULL));
    println!("Table VII, S3D MLOC-COL io_s: 3-byte / full");
    println!("  V-M-S {vms_plod:.4} / {vms_full:.4}");
    println!("  V-S-M {vsm_plod:.4} / {vsm_full:.4}");
    assert!(
        vms_plod < vsm_plod,
        "Table VII: V-M-S does not win the 3-byte access ({vms_plod:.4} vs {vsm_plod:.4} s)"
    );
    assert!(
        vsm_full < vms_full,
        "Table VII: V-S-M does not win the full-precision access ({vsm_full:.4} vs {vms_full:.4} s)"
    );
}

/// `fig7_gate`'s 128-rank figures at the parent of the change that made
/// ranks share a bin's fixed blocks (same datasets, queries and seed).
/// Re-measured there once the simulator charged the open of an offset-0
/// read by a rank served after another: both identical to the last
/// digit (the slowest of 128 ranks opens its first file unqueued). That
/// sharing is gone again; the figures stay the bound.
const PARENT_FIG7_IO_128_GTS: f64 = 2.2012169422222208;
const PARENT_FIG7_IO_128_S3D: f64 = 2.8531462544444466;
