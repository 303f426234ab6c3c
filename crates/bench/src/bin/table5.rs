//! Table V — value-query response time at the "512 GB" scale:
//! MLOC variants vs sequential scan. Region selectivity 0.1 % / 1 %.

use mloc_bench::compare::{print_comparison_table, Kind, Lineup, TableSpec};
use mloc_bench::HarnessArgs;

const SPEC: TableSpec = TableSpec {
    title: "Table V: value query response time (s) at the large scale, 0.1% / 1%",
    columns: ["0.1% GTS", "1% GTS", "0.1% S3D", "1% S3D"],
    kind: Kind::Value,
    selectivities: [0.001, 0.01],
    lineup: Lineup::MlocAndScan,
    large_only: true,
    paper_rows: &[
        ("MLOC-COL", [13.25, 33.03, 15.24, 39.34]),
        ("MLOC-ISO", [8.81, 23.77, 9.96, 37.66]),
        ("MLOC-ISA", [7.82, 40.99, 8.39, 44.04]),
        ("Seq. Scan", [37.22, 248.87, 40.74, 230.26]),
    ],
    notes: &[
        "expected shape: ISA wins at 0.1% (least I/O) but loses its lead at",
        "larger selectivity as B-spline reconstruction cost grows",
    ],
};

fn main() {
    print_comparison_table(&SPEC, &HarnessArgs::parse());
}
