//! Seeded load generation: a small PRNG, a Zipf sampler and the query
//! generators. Everything is a pure function of the seed — the program
//! under test receives only the generated queries.

/// A query as the harness sees it; `sut.rs` turns it into the
/// program's own query type.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Value constraint `[lo, hi)`.
    pub vc: Option<(f64, f64)>,
    /// Spatial constraint: half-open `(start, end)` per dimension.
    pub sc: Option<Vec<(usize, usize)>>,
    /// Membership point set (sorted, distinct global positions).
    pub points: Option<Vec<u64>>,
    /// Whether values are returned with the positions.
    pub values: bool,
    /// PLoD level 1..=7 (7 = full precision).
    pub plod: u8,
}

pub const FULL_PLOD: u8 = 7;

impl QuerySpec {
    pub fn vc_region(vc: (f64, f64)) -> Self {
        QuerySpec {
            vc: Some(vc),
            sc: None,
            points: None,
            values: false,
            plod: FULL_PLOD,
        }
    }

    pub fn vc_values(vc: (f64, f64)) -> Self {
        QuerySpec {
            values: true,
            ..QuerySpec::vc_region(vc)
        }
    }

    pub fn sc_values(sc: Vec<(usize, usize)>) -> Self {
        QuerySpec {
            vc: None,
            sc: Some(sc),
            points: None,
            values: true,
            plod: FULL_PLOD,
        }
    }

    pub fn sc_plod(sc: Vec<(usize, usize)>, level: u8) -> Self {
        QuerySpec {
            plod: level,
            ..QuerySpec::sc_values(sc)
        }
    }

    pub fn vc_sc_values(vc: (f64, f64), sc: Vec<(usize, usize)>) -> Self {
        QuerySpec {
            vc: Some(vc),
            ..QuerySpec::sc_values(sc)
        }
    }

    pub fn membership(vc: (f64, f64), points: Vec<u64>) -> Self {
        QuerySpec {
            vc: Some(vc),
            sc: None,
            points: Some(points),
            values: false,
            plod: FULL_PLOD,
        }
    }
}

/// SplitMix64: tiny, fast, and good enough to place queries.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Query placement over one field: value constraints are quantile
/// windows of the sorted values, regions are hyper-rectangles with
/// sides `selectivity^(1/d)` of each extent.
///
/// Placement is *systematic*: the `k`-th draw of `n` lands in the
/// `k`-th of `n` equal slices of the placement range, at an offset
/// inside the slice that the seed fixes once per generator and
/// dimension. Every seed issues different queries, but each covers the
/// field — and the positions relative to chunk and bin edges — evenly,
/// so per-op means of bytes and simulated I/O differ by a percent or
/// two between seeds instead of tens.
pub struct QueryGen<'a> {
    sorted: &'a [f64],
    shape: Vec<usize>,
    rng: Rng,
    /// Offset inside a slice for value constraints.
    vc_offset: f64,
    /// Offset inside a slice per region dimension.
    region_offset: Vec<f64>,
}

impl<'a> QueryGen<'a> {
    pub fn new(sorted: &'a [f64], shape: Vec<usize>, seed: u64) -> Self {
        assert!(!sorted.is_empty());
        let mut rng = Rng::new(seed);
        let vc_offset = rng.unit();
        let region_offset = shape.iter().map(|_| rng.unit()).collect();
        QueryGen {
            sorted,
            shape,
            rng,
            vc_offset,
            region_offset,
        }
    }

    /// Value constraint covering ~`selectivity` of the points.
    pub fn value_constraint(&mut self, selectivity: f64, k: usize, n: usize) -> (f64, f64) {
        let len = self.sorted.len();
        let width = ((len as f64 * selectivity).round() as usize).clamp(1, len);
        let at = (k as f64 + self.vc_offset) / n as f64;
        let start = (at * (len - width + 1) as f64) as usize;
        let lo = self.sorted[start];
        let hi = if start + width < len {
            self.sorted[start + width]
        } else {
            // Just above the maximum, so the top value is included.
            self.sorted[len - 1] * (1.0 + 1e-12) + 1e-300
        };
        (lo, hi)
    }

    /// Region covering ~`selectivity` of the domain. Dimension 0 takes
    /// slice `k`; later dimensions take a slice at a different stride,
    /// which keeps the draws off the diagonal.
    pub fn region(&mut self, selectivity: f64, k: usize, n: usize) -> Vec<(usize, usize)> {
        let dims = self.shape.len();
        let frac = selectivity.powf(1.0 / dims as f64);
        (0..dims)
            .map(|d| {
                let extent = self.shape[d];
                let side = ((extent as f64 * frac).round() as usize).clamp(1, extent);
                let kd = if d == 0 { k } else { (k * (2 * d + 1) + d) % n };
                let at = (kd as f64 + self.region_offset[d]) / n as f64;
                let start = (at * (extent - side + 1) as f64) as usize;
                (start, start + side)
            })
            .collect()
    }

    /// `count` distinct sorted positions spread over the domain.
    pub fn points(&mut self, count: usize) -> Vec<u64> {
        let total: usize = self.shape.iter().product();
        let count = count.min(total);
        let stride = total / count;
        (0..count)
            .map(|i| (i * stride + self.rng.below(stride)) as u64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_and_zipf_are_seed_deterministic() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        let mut c = Rng::new(6);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..16).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..16).map(|_| c.next_u64()).collect::<Vec<_>>());

        let z = Zipf::new(96, 1.0);
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        let da: Vec<usize> = (0..200).map(|_| z.sample(&mut a)).collect();
        let db: Vec<usize> = (0..200).map(|_| z.sample(&mut b)).collect();
        assert_eq!(da, db);
        assert!(da.iter().all(|&k| k < 96));
        // Rank 0 carries ~1/H(96) ≈ 19 % of the mass.
        let zeros = da.iter().filter(|&&k| k == 0).count();
        assert!(zeros > 15 && zeros < 70, "rank-0 draws: {zeros}");
    }

    #[test]
    fn query_generators_are_seed_deterministic_and_in_bounds() {
        let sorted: Vec<f64> = (0..10_000).map(|i| i as f64 * 0.5).collect();
        let shape = vec![128usize, 96];
        let draw = |seed| {
            let mut g = QueryGen::new(&sorted, shape.clone(), seed);
            let mut out = Vec::new();
            for k in 0..8 {
                out.push(QuerySpec::vc_sc_values(
                    g.value_constraint(0.01, k, 8),
                    g.region(0.1, k, 8),
                ));
            }
            out.push(QuerySpec::membership((0.0, 1.0), g.points(64)));
            out
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        for q in draw(7) {
            if let Some(sc) = &q.sc {
                for ((s, e), &extent) in sc.iter().zip(&shape) {
                    assert!(s < e && *e <= extent);
                }
            }
            if let Some((lo, hi)) = q.vc {
                assert!(lo < hi);
            }
            if let Some(p) = &q.points {
                assert!(p.windows(2).all(|w| w[0] < w[1]));
                assert!(*p.last().unwrap() < (128 * 96) as u64);
            }
        }
    }

    #[test]
    fn value_constraints_hit_their_selectivity() {
        let sorted: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let mut g = QueryGen::new(&sorted, vec![100, 100], 1);
        for k in 0..10 {
            let (lo, hi) = g.value_constraint(0.05, k, 10);
            let hits = sorted.iter().filter(|&&v| v >= lo && v < hi).count();
            assert_eq!(hits, 500);
        }
    }
}
