//! Cost model for the simulated parallel file system.

/// Parameters of the simulated Lustre-like PFS.
///
/// Defaults approximate the paper's 2012 testbed (Lens cluster at
/// ORNL): spinning-disk OSTs with millisecond seeks, a few hundred
/// MB/s of sequential bandwidth per OST, and 1 MiB stripes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of a discontiguous access (head seek + rotational delay).
    pub seek_s: f64,
    /// Sequential read bandwidth of one OST, bytes/second.
    pub ost_bw: f64,
    /// Metadata cost of the first access to a file by a rank.
    pub open_s: f64,
    /// Stripe size in bytes.
    pub stripe_size: u64,
    /// Number of OSTs files are striped across.
    pub num_osts: usize,
    /// How many stripe fetches one client (rank) keeps in flight —
    /// a single sequential reader does not see the full aggregate
    /// bandwidth of all OSTs (the paper's sequential scan moves ~8 GB
    /// in ~19 s ≈ 1.4 OST-streams).
    pub client_parallelism: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::lens_2012()
    }
}

impl CostModel {
    /// Approximation of the paper's testbed.
    pub fn lens_2012() -> Self {
        CostModel {
            seek_s: 8e-3,
            ost_bw: 300e6,
            open_s: 1.5e-3,
            stripe_size: 1 << 20,
            num_osts: 16,
            client_parallelism: 2,
        }
    }

    /// A model with near-zero seek cost (for ablations isolating the
    /// transfer-volume component).
    pub fn seekless(mut self) -> Self {
        self.seek_s = 0.0;
        self.open_s = 0.0;
        self
    }

    /// Aggregate sequential bandwidth across all OSTs.
    pub fn aggregate_bw(&self) -> f64 {
        self.ost_bw * self.num_osts as f64
    }

    /// OST serving byte `offset` of file `file` (round-robin striping
    /// with a per-file starting OST derived from the name).
    pub fn ost_of(&self, file: &str, offset: u64) -> usize {
        self.ost_of_hashed(Self::file_hash(file), offset)
    }

    /// [`Self::ost_of`] for a caller that already holds the file's
    /// [`Self::file_hash`] (the simulator hashes each op's name once).
    pub fn ost_of_hashed(&self, file_hash: u64, offset: u64) -> usize {
        let start = file_hash as usize % self.num_osts;
        let stripe = (offset / self.stripe_size) as usize;
        (start + stripe) % self.num_osts
    }

    /// Stable FNV-1a hash of a file name.
    pub fn file_hash(file: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in file.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_is_round_robin() {
        let m = CostModel::lens_2012();
        let first = m.ost_of("f", 0);
        for s in 0..64u64 {
            assert_eq!(
                m.ost_of("f", s * m.stripe_size),
                (first + s as usize) % m.num_osts
            );
            // Offsets within one stripe map to the same OST.
            assert_eq!(
                m.ost_of("f", s * m.stripe_size),
                m.ost_of("f", s * m.stripe_size + m.stripe_size - 1)
            );
        }
    }

    #[test]
    fn different_files_spread_over_osts() {
        let m = CostModel::lens_2012();
        let starts: std::collections::HashSet<usize> = (0..64)
            .map(|i| m.ost_of(&format!("bin{i}.dat"), 0))
            .collect();
        assert!(starts.len() > m.num_osts / 2, "starting OSTs too clustered");
    }

    #[test]
    fn seekless_zeroes_latency() {
        let m = CostModel::lens_2012().seekless();
        assert_eq!(m.seek_s, 0.0);
        assert_eq!(m.open_s, 0.0);
        assert_eq!(m.ost_bw, CostModel::lens_2012().ost_bw);
    }
}
