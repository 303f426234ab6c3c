//! Table II — region-query (value-constrained) response time on the
//! "8 GB" datasets; value selectivity 1 % and 10 %, no SC, 8 ranks.

use mloc_bench::compare::{print_comparison_table, Kind, Lineup, TableSpec};
use mloc_bench::HarnessArgs;

const SPEC: TableSpec = TableSpec {
    title: "Table II: region query response time (s), VC selectivity 1% / 10%",
    columns: ["1% GTS", "10% GTS", "1% S3D", "10% S3D"],
    kind: Kind::Region,
    selectivities: [0.01, 0.10],
    lineup: Lineup::Full,
    large_only: false,
    paper_rows: &[
        ("MLOC-COL", [0.53, 1.21, 0.59, 1.62]),
        ("MLOC-ISO", [0.41, 1.10, 0.53, 1.57]),
        ("MLOC-ISA", [0.34, 1.23, 0.56, 1.66]),
        ("Seq. Scan", [19.22, 20.27, 22.71, 22.93]),
        ("FastBit", [36.81, 37.48, 37.27, 37.83]),
        ("SciDB", [206.80, 677.10, 210.00, 597.80]),
    ],
    notes: &["expected shape: MLOC ≪ Seq. Scan < FastBit ≪ SciDB"],
};

fn main() {
    print_comparison_table(&SPEC, &HarnessArgs::parse());
}
