//! Experiment harness regenerating every table and figure of the MLOC
//! paper (ICPP 2012).
//!
//! Each `src/bin/tableN.rs` / `src/bin/figN.rs` binary reproduces one
//! experiment and prints the measured rows next to the paper's
//! published values. The datasets are scaled down (the `--scale`
//! flag switches between the default reduced sizes and larger ones);
//! all I/O timing comes from the simulated 2012-era Lustre cost model
//! in `mloc-pfs`, so *shape* comparisons (who wins, by what factor)
//! are meaningful while absolute numbers are not expected to match.
//!
//! Shared pieces:
//! * [`scenario`] — dataset specs (GTS-like 2-D, S3D-like 3-D), MLOC
//!   variant configurations (MLOC-COL / MLOC-ISO / MLOC-ISA), builders.
//! * [`workload`] — random query workloads with fixed seeds, averaged
//!   metrics, identical query sequences across systems.
//! * [`report`] — fixed-width table printing with paper reference
//!   values.
//! * [`compare`] — the system line-up, the one comparison function, and
//!   the driver Tables II–V are declared over.
//!
//! Nothing here measures the repository itself: that is `benchmark/`
//! (`bash benchmark/run.sh`), and deterministic gates are tests.

pub mod compare;
pub mod report;
pub mod scenario;
pub mod workload;

/// Command-line options shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Use the larger dataset scale.
    pub large: bool,
    /// Queries to average per cell (paper: 100).
    pub queries: usize,
    /// MPI-like ranks for MLOC execution (paper: 8 for the 8 GB runs).
    pub ranks: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            large: false,
            queries: 10,
            ranks: 8,
            seed: 42,
        }
    }
}

impl HarnessArgs {
    /// Parse `--scale small|large`, `--queries N`, `--ranks N`,
    /// `--seed N` from the process arguments.
    pub fn parse() -> Self {
        let mut args = HarnessArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let v = it.next().expect("--scale needs small|large");
                    args.large = match v.as_str() {
                        "small" => false,
                        "large" => true,
                        _ => panic!("unknown scale {v}"),
                    };
                }
                "--queries" => {
                    args.queries = it
                        .next()
                        .expect("--queries needs N")
                        .parse()
                        .expect("bad N");
                }
                "--ranks" => {
                    args.ranks = it.next().expect("--ranks needs N").parse().expect("bad N");
                }
                "--seed" => {
                    args.seed = it.next().expect("--seed needs N").parse().expect("bad N");
                }
                _ => panic!("unknown argument {a}"),
            }
        }
        args
    }
}
