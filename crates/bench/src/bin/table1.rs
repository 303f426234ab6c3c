//! Table I — space requirements of data and index for the "8 GB" raw
//! dataset (scaled), across MLOC variants and comparators.
//!
//! Paper values (8 GB GTS): MLOC-COL 6.5+1.6, MLOC-ISO 6.9+1.6,
//! MLOC-ISA 1.6+1.6, SeqScan 8.0+0, FastBit 8.0+10.0, SciDB 8.8+0 GB.

use mloc::config::LevelOrder;
use mloc_baselines::{FastBit, QueryEngine, SciDb, SeqScan};
use mloc_bench::report::{fmt_bytes, note, title, Table};
use mloc_bench::scenario::{build_mloc, DatasetSpec, Variant, FASTBIT_PRECISION_BINS};
use mloc_bench::HarnessArgs;
use mloc_pfs::MemBackend;

fn main() {
    let args = HarnessArgs::parse();
    let spec = DatasetSpec::gts(args.large);
    let raw = spec.raw_bytes();
    title(&format!(
        "Table I: storage for {} raw data ({} {:?}, {} bins)",
        fmt_bytes(raw),
        spec.name,
        spec.shape,
        spec.num_bins
    ));
    let field = spec.generate();
    let be = MemBackend::new();

    let mut table = Table::new(&["system", "data", "index", "total", "total/raw", "paper t/r"]);

    let paper_ratio = |t: f64| format!("{t:.2}");
    for (variant, paper) in [
        (Variant::Col, 8.1 / 8.0),
        (Variant::Iso, 8.5 / 8.0),
        (Variant::Isa, 3.2 / 8.0),
    ] {
        let report = build_mloc(&be, &spec, field.values(), variant, LevelOrder::Vms);
        table.row(
            variant.name(),
            vec![
                fmt_bytes(report.data_bytes),
                fmt_bytes(report.index_bytes),
                fmt_bytes(report.total_bytes()),
                format!("{:.2}", report.total_ratio()),
                paper_ratio(paper),
            ],
        );
    }

    let scan = SeqScan::build(&be, "gts", field.values(), spec.shape.clone()).unwrap();
    table.row(
        "Seq. Scan",
        vec![
            fmt_bytes(scan.data_bytes()),
            "0 B".into(),
            fmt_bytes(scan.data_bytes()),
            format!("{:.2}", scan.data_bytes() as f64 / raw as f64),
            paper_ratio(1.0),
        ],
    );

    let fb = FastBit::build(
        &be,
        "gts",
        field.values(),
        spec.shape.clone(),
        FASTBIT_PRECISION_BINS,
    )
    .unwrap();
    table.row(
        "FastBit",
        vec![
            fmt_bytes(fb.data_bytes()),
            fmt_bytes(fb.index_bytes()),
            fmt_bytes(fb.data_bytes() + fb.index_bytes()),
            format!(
                "{:.2}",
                (fb.data_bytes() + fb.index_bytes()) as f64 / raw as f64
            ),
            paper_ratio(18.0 / 8.0),
        ],
    );

    // SciDB overlap sized to reproduce the paper's ~10% replication.
    let overlap = spec.chunk[0] / 40;
    let db = SciDb::build(
        &be,
        "gts",
        field.values(),
        spec.shape.clone(),
        spec.chunk.clone(),
        overlap.max(1),
    )
    .unwrap();
    table.row(
        "SciDB",
        vec![
            fmt_bytes(db.data_bytes()),
            "0 B".into(),
            fmt_bytes(db.data_bytes()),
            format!("{:.2}", db.data_bytes() as f64 / raw as f64),
            paper_ratio(8.8 / 8.0),
        ],
    );

    table.print();
    note("paper t/r = paper Table I total divided by 8 GB raw");
    note("MLOC index here includes the per-chunk summaries, whose share");
    note("shrinks at the paper's chunk counts (see EXPERIMENTS.md)");
}
