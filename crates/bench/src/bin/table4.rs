//! Table IV — region-query response time at the "512 GB" scale:
//! MLOC variants vs sequential scan only (the other systems were
//! already uncompetitive at 8 GB). Selectivity 1 % and 10 %, no SC.

use mloc_bench::compare::{print_comparison_table, Kind, Lineup, TableSpec};
use mloc_bench::HarnessArgs;

const SPEC: TableSpec = TableSpec {
    title: "Table IV: region query response time (s) at the large scale, 1% / 10%",
    columns: ["1% GTS", "10% GTS", "1% S3D", "10% S3D"],
    kind: Kind::Region,
    selectivities: [0.01, 0.10],
    lineup: Lineup::MlocAndScan,
    large_only: true,
    paper_rows: &[
        ("MLOC-COL", [16.51, 41.18, 18.94, 39.25]),
        ("MLOC-ISO", [15.81, 42.06, 19.43, 41.55]),
        ("MLOC-ISA", [16.42, 42.19, 20.23, 43.71]),
        ("Seq. Scan", [1596.52, 2317.39, 1423.45, 2179.81]),
    ],
    notes: &[
        "expected shape: MLOC beats Seq. Scan by a widening factor at scale;",
        "the factor grows with dataset size (ours is 128 MiB vs paper 512 GB)",
    ],
};

fn main() {
    print_comparison_table(&SPEC, &HarnessArgs::parse());
}
