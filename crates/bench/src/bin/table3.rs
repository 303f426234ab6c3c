//! Table III — value-query (spatially-constrained) response time on
//! the "8 GB" datasets; region selectivity 0.1 % and 1 %, no VC, 8 ranks.

use mloc_bench::compare::{print_comparison_table, Kind, Lineup, TableSpec};
use mloc_bench::HarnessArgs;

const SPEC: TableSpec = TableSpec {
    title: "Table III: value query response time (s), SC selectivity 0.1% / 1%",
    columns: ["0.1% GTS", "1% GTS", "0.1% S3D", "1% S3D"],
    kind: Kind::Value,
    selectivities: [0.001, 0.01],
    lineup: Lineup::Full,
    large_only: false,
    paper_rows: &[
        ("MLOC-COL", [3.07, 5.06, 3.51, 5.26]),
        ("MLOC-ISO", [2.15, 4.99, 2.96, 4.51]),
        ("MLOC-ISA", [1.52, 3.31, 1.63, 3.42]),
        ("Seq. Scan", [4.38, 5.92, 1.81, 4.75]),
        ("FastBit", [37.29, 38.24, 37.49, 39.70]),
        ("SciDB", [29.10, 122.50, 143.20, 469.10]),
    ],
    notes: &[
        "expected shape: MLOC ≈ Seq. Scan (both cheap) ≪ FastBit, SciDB;",
        "MLOC-ISA fastest among MLOC variants (least I/O)",
    ],
};

fn main() {
    print_comparison_table(&SPEC, &HarnessArgs::parse());
}
