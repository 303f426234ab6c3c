//! Building the full system line-up for one dataset, running a
//! query-type comparison across all of it, and printing the paper's
//! Tables II–V from one declaration each.

use crate::report::{note, title, Table};
use crate::scenario::{build_mloc, open_mloc, DatasetSpec, Variant, FASTBIT_PRECISION_BINS};
use crate::workload::{BaselineAvg, Workload};
use crate::HarnessArgs;
use mloc::config::{LevelOrder, PlodLevel};
use mloc::exec::ParallelExecutor;
use mloc::metrics::QueryMetrics;
use mloc::store::MlocStore;
use mloc_baselines::{FastBit, QueryEngine, SciDb, SeqScan};
use mloc_datagen::Field;
use mloc_pfs::{CostModel, MemBackend};

/// Which comparators to build next to the MLOC variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lineup {
    /// MLOC variants + sequential scan only (the 512 GB experiments).
    MlocAndScan,
    /// Everything, including FastBit and SciDB (the 8 GB experiments).
    Full,
}

/// All systems built over one generated dataset.
pub struct Systems<'a> {
    /// The dataset spec used.
    pub spec: DatasetSpec,
    /// The three MLOC variants, opened for querying.
    pub mloc: Vec<(Variant, MlocStore<'a>)>,
    /// Sequential-scan baseline.
    pub seq: SeqScan<'a>,
    /// FastBit comparator (Full line-up only).
    pub fastbit: Option<FastBit<'a>>,
    /// SciDB comparator (Full line-up only).
    pub scidb: Option<SciDb<'a>>,
}

/// Generate the dataset and build every system on `backend`.
pub fn build_systems<'a>(
    backend: &'a MemBackend,
    spec: &DatasetSpec,
    field: &Field,
    lineup: Lineup,
) -> Systems<'a> {
    let mut mloc = Vec::new();
    for variant in Variant::ALL {
        build_mloc(backend, spec, field.values(), variant, LevelOrder::Vms);
        mloc.push((variant, open_mloc(backend, spec, variant)));
    }
    let seq = SeqScan::build(backend, spec.name, field.values(), spec.shape.clone())
        .expect("seqscan build");
    let (fastbit, scidb) = if lineup == Lineup::Full {
        let fb = FastBit::build(
            backend,
            spec.name,
            field.values(),
            spec.shape.clone(),
            FASTBIT_PRECISION_BINS,
        )
        .expect("fastbit build");
        let db = SciDb::build(
            backend,
            spec.name,
            field.values(),
            spec.shape.clone(),
            spec.chunk.clone(),
            (spec.chunk[0] / 40).max(1),
        )
        .expect("scidb build");
        (Some(fb), Some(db))
    } else {
        (None, None)
    };
    Systems {
        spec: spec.clone(),
        mloc,
        seq,
        fastbit,
        scidb,
    }
}

/// One measured cell: a response time plus its components.
#[derive(Debug, Clone, Default)]
pub struct Cell {
    /// Mean response seconds.
    pub response_s: f64,
    /// Mean simulated I/O seconds.
    pub io_s: f64,
    /// Mean CPU seconds (decompress + reconstruct, or scan).
    pub cpu_s: f64,
}

impl From<&QueryMetrics> for Cell {
    fn from(m: &QueryMetrics) -> Cell {
        Cell {
            response_s: m.response_s,
            io_s: m.io_s,
            cpu_s: m.decompress_s + m.reconstruct_s,
        }
    }
}

impl From<&BaselineAvg> for Cell {
    fn from(b: &BaselineAvg) -> Cell {
        Cell {
            response_s: b.response_s,
            io_s: b.io_s,
            cpu_s: b.cpu_s + b.overhead_s,
        }
    }
}

/// Which of the paper's two query types a comparison runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Region queries: value-constrained, positions out (Tables II/IV).
    Region,
    /// Value queries: spatially-constrained, full-precision values out
    /// (Tables III/V).
    Value,
}

/// Run `queries` queries of `kind` at each selectivity across every
/// system — the identical query sequence for each, re-seeded per cell —
/// and return rows of `(system name, cells)`, MLOC variants first.
pub fn comparison(
    kind: Kind,
    systems: &Systems<'_>,
    field: &Field,
    selectivities: &[f64],
    queries: usize,
    ranks: usize,
    seed: u64,
) -> Vec<(String, Vec<Cell>)> {
    let model = CostModel::default();
    let exec = ParallelExecutor::new(ranks, model);
    let workload = || Workload::new(field.values(), systems.spec.shape.clone(), queries, seed);
    let mut rows = Vec::new();

    for (variant, store) in &systems.mloc {
        let cell = |&sel: &f64| match kind {
            Kind::Region => Cell::from(&workload().mloc_region(store, &exec, sel)),
            Kind::Value => Cell::from(&workload().mloc_value(store, &exec, sel, PlodLevel::FULL)),
        };
        rows.push((
            variant.name().to_string(),
            selectivities.iter().map(cell).collect(),
        ));
    }

    let baselines: [(&str, Option<&dyn QueryEngine>); 3] = [
        ("Seq. Scan", Some(&systems.seq)),
        ("FastBit", systems.fastbit.as_ref().map(|e| e as _)),
        ("SciDB", systems.scidb.as_ref().map(|e| e as _)),
    ];
    for (name, engine) in baselines {
        let Some(engine) = engine else { continue };
        let cell = |&sel: &f64| match kind {
            Kind::Region => Cell::from(&workload().baseline_region(engine, &model, sel)),
            Kind::Value => Cell::from(&workload().baseline_value(engine, &model, sel)),
        };
        rows.push((name.to_string(), selectivities.iter().map(cell).collect()));
    }
    rows
}

/// One of the paper's four system-comparison tables (II–V) as data:
/// what `table2..5` declare and [`print_comparison_table`] runs. Used
/// only by this crate's own binaries; every field is spelled out at
/// each use, none has a default.
pub struct TableSpec {
    /// Banner; the text before the colon ("Table II") names the table
    /// in the paper block and the progress lines.
    pub title: &'static str,
    /// Headers of the four measured columns: two selectivities on GTS,
    /// then the same two on S3D.
    pub columns: [&'static str; 4],
    /// Query type.
    pub kind: Kind,
    /// The two selectivities, as fractions.
    pub selectivities: [f64; 2],
    /// Comparators built next to the MLOC variants.
    pub lineup: Lineup,
    /// The experiment is defined at the large ("512 GB") scale only, so
    /// `--scale` is ignored.
    pub large_only: bool,
    /// The paper's published rows, printed for shape comparison.
    pub paper_rows: &'static [(&'static str, [f64; 4])],
    /// The expected shape, one printed note per entry.
    pub notes: &'static [&'static str],
}

/// Build both datasets' line-ups, run the comparison, and print the
/// measured table, the paper's table and the notes.
pub fn print_comparison_table(spec: &TableSpec, args: &HarnessArgs) {
    let table_name = spec.title.split(':').next().unwrap_or(spec.title);
    let large = spec.large_only || args.large;
    title(spec.title);

    let per_dataset = [DatasetSpec::gts(large), DatasetSpec::s3d(large)].map(|dataset| {
        eprintln!("[{table_name}] building systems for {} ...", dataset.name);
        let field = dataset.generate();
        let be = MemBackend::new();
        let systems = build_systems(&be, &dataset, &field, spec.lineup);
        eprintln!("[{table_name}] running queries for {} ...", dataset.name);
        comparison(
            spec.kind,
            &systems,
            &field,
            &spec.selectivities,
            args.queries,
            args.ranks,
            args.seed,
        )
    });

    let mut headers = vec!["system"];
    headers.extend(spec.columns);
    let mut table = Table::new(&headers);
    // Same line-up on both datasets, so the rows pair up in order.
    let [gts, s3d] = &per_dataset;
    for ((name, gts_cells), (_, s3d_cells)) in gts.iter().zip(s3d) {
        let seconds: Vec<f64> = gts_cells
            .iter()
            .chain(s3d_cells)
            .map(|c| c.response_s)
            .collect();
        table.row_seconds(name, &seconds);
    }
    table.print();

    println!();
    let paper_scale = if spec.large_only { "512 GB" } else { "8 GB" };
    println!("paper {table_name} ({paper_scale}, for shape comparison):");
    let mut paper = Table::new(&headers);
    for (name, seconds) in spec.paper_rows {
        paper.row_seconds(name, seconds);
    }
    paper.print();
    note(&if spec.large_only {
        format!("{} queries per cell, {} ranks", args.queries, args.ranks)
    } else {
        format!(
            "{} queries averaged per cell, {} ranks, scaled datasets",
            args.queries, args.ranks
        )
    });
    for text in spec.notes {
        note(text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One golden row: system name, simulated I/O seconds per column.
    type GoldenRow = (&'static str, [f64; 2]);

    /// Simulated I/O seconds of every cell on the tiny dataset
    /// (64², 16² chunks, 8 bins, seed 1; 2 queries, 2 ranks, seed 42),
    /// captured at PR 17's tree, from the two per-kind functions that
    /// `comparison` replaced; the MLOC rows re-captured when each bin's
    /// footer became one exact tail read and the two ranks began to
    /// share a bin's fixed blocks (region 0.079 -> 0.047 s, value
    /// 0.236 -> 0.168 s; the baselines' rows did not move), and again
    /// when the simulator stopped dropping the open of an offset-0 read
    /// by a rank served after another (value 0.1676 -> 0.1721 s, three
    /// 1.5 ms opens on the slowest rank; region's 1 % column moved in
    /// its seventh digit; the single-rank baselines did not move), and
    /// once more when a bin became one file with its checksum tables
    /// read right after its summary (region 0.047 -> 0.022 s at 1 %,
    /// 0.051 -> 0.034 s at 10 %: no tail seek; value 0.172 -> 0.102 s:
    /// one open and two seeks fewer per bin), and the region rows
    /// again when the two ranks stopped sharing a bin's fixed blocks
    /// and each began to read them itself (MLOC-COL 0.0215 -> 0.0255 s
    /// at 1 %, 0.0335 -> 0.0416 s at 10 %: each rank pays for its own
    /// fixed-block reads; ISO and ISA moved in their sixth digit; the
    /// value rows did not move), and the MLOC rows once more when format
    /// v4 stored each bitmap as its run list (every MLOC cell fell in
    /// its sixth or seventh digit: fewer bitmap bytes at the same
    /// seeks; the baselines' rows did not move).
    /// `io_s` is a pure function of the built bytes, the query sequence
    /// and the cost model, so a change here means the simulated I/O of
    /// Tables II–V moved and EXPERIMENTS.md is stale; `response_s` adds
    /// measured CPU and is not pinned. Who wins at 64² is not the
    /// paper's claim, so no ordering is asserted.
    const REGION_IO_S: [GoldenRow; 6] = [
        ("MLOC-COL", [0.025546078333333336, 0.041555096666666666]),
        ("MLOC-ISO", [0.021524323333333338, 0.03352383]),
        ("MLOC-ISA", [0.021521313333333333, 0.03351828666666667]),
        ("Seq. Scan", [0.009609226666666667, 0.009609226666666667]),
        ("FastBit", [0.03929236333333333, 0.03525396333333333]),
        ("SciDB", [0.009630666666666668, 0.009630666666666668]),
    ];
    const VALUE_IO_S: [GoldenRow; 6] = [
        ("MLOC-COL", [0.10210533666666666, 0.08610825833333333]),
        ("MLOC-ISO", [0.10201836333333333, 0.08602427333333333]),
        ("MLOC-ISA", [0.10201720666666667, 0.08602172333333333]),
        ("Seq. Scan", [0.00950176, 0.009508693333333334]),
        ("FastBit", [0.01923908333333333, 0.019246016666666664]),
        ("SciDB", [0.009507933333333333, 0.013520653333333334]),
    ];

    #[test]
    fn comparison_rows_and_simulated_io_match_the_golden() {
        let spec = DatasetSpec {
            name: "tiny",
            shape: vec![64, 64],
            chunk: vec![16, 16],
            num_bins: 8,
            seed: 1,
        };
        let field = spec.generate();
        // Table II/III's and Table IV/V's line-ups: the latter is the
        // first four rows of the former.
        for (lineup, systems_built) in [(Lineup::Full, 6), (Lineup::MlocAndScan, 4)] {
            let be = MemBackend::new();
            let systems = build_systems(&be, &spec, &field, lineup);
            for (kind, selectivities, golden) in [
                (Kind::Region, [0.01, 0.10], &REGION_IO_S),
                (Kind::Value, [0.001, 0.01], &VALUE_IO_S),
            ] {
                let rows = comparison(kind, &systems, &field, &selectivities, 2, 2, 42);
                let got: Vec<(&str, Vec<f64>)> = rows
                    .iter()
                    .map(|(name, cells)| (name.as_str(), cells.iter().map(|c| c.io_s).collect()))
                    .collect();
                let want: Vec<(&str, Vec<f64>)> = golden[..systems_built]
                    .iter()
                    .map(|(name, io)| (*name, io.to_vec()))
                    .collect();
                assert_eq!(got, want, "{lineup:?} {kind:?}");
            }
        }
    }
}
