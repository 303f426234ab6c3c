//! Brute-force oracle over the raw field.
//!
//! Every op's hit count is checked; every 16th op gets the full check:
//! the returned positions are strictly increasing, each satisfies the
//! query by direct evaluation on the raw field, their number equals the
//! oracle's count (together: set equality), and every returned value
//! matches the raw value bit for bit — or within the stated relative
//! bound for reduced PLoD levels and the lossy ISA variant. Oracle time
//! is never inside a timed call.

use crate::gen::QuerySpec;

pub struct Oracle<'a> {
    raw: &'a [f64],
    /// `raw`, sorted ascending (value-constraint counts by bisection).
    sorted: &'a [f64],
    shape: Vec<usize>,
}

impl<'a> Oracle<'a> {
    pub fn new(raw: &'a [f64], sorted: &'a [f64], shape: Vec<usize>) -> Self {
        assert_eq!(raw.len(), shape.iter().product::<usize>());
        assert_eq!(raw.len(), sorted.len());
        Oracle { raw, sorted, shape }
    }

    fn in_vc(vc: Option<(f64, f64)>, v: f64) -> bool {
        vc.is_none_or(|(lo, hi)| v >= lo && v < hi)
    }

    /// Visit the row-major linear index of every point of `region`.
    fn for_each_in_region(&self, region: &[(usize, usize)], mut f: impl FnMut(usize)) {
        match *region {
            [(r0, r1), (c0, c1)] => {
                let cols = self.shape[1];
                for r in r0..r1 {
                    for c in c0..c1 {
                        f(r * cols + c);
                    }
                }
            }
            _ => panic!("the oracle covers 2-D fields"),
        }
    }

    fn in_region(&self, region: &[(usize, usize)], pos: usize) -> bool {
        let cols = self.shape[1];
        let (r, c) = (pos / cols, pos % cols);
        r >= region[0].0 && r < region[0].1 && c >= region[1].0 && c < region[1].1
    }

    /// Number of points the query must return.
    pub fn count(&self, q: &QuerySpec) -> u64 {
        if let Some(points) = &q.points {
            return points
                .iter()
                .filter(|&&p| Self::in_vc(q.vc, self.raw[p as usize]))
                .count() as u64;
        }
        match (&q.sc, q.vc) {
            (Some(region), None) => region.iter().map(|&(s, e)| (e - s) as u64).product(),
            (Some(region), vc) => {
                let mut n = 0u64;
                self.for_each_in_region(region, |i| n += u64::from(Self::in_vc(vc, self.raw[i])));
                n
            }
            (None, Some((lo, hi))) => {
                let below_hi = self.sorted.partition_point(|&v| v < hi);
                let below_lo = self.sorted.partition_point(|&v| v < lo);
                below_hi.saturating_sub(below_lo) as u64
            }
            (None, None) => self.raw.len() as u64,
        }
    }

    /// The full check. `rel_tol` is the allowed relative value error
    /// (0.0 = bit-exact).
    pub fn check_full(
        &self,
        q: &QuerySpec,
        expected: u64,
        positions: &[u64],
        values: Option<&[f64]>,
        rel_tol: f64,
    ) -> Result<(), String> {
        if positions.len() as u64 != expected {
            return Err(format!("{} hits, oracle says {expected}", positions.len()));
        }
        if positions.windows(2).any(|w| w[0] >= w[1]) {
            return Err("positions not strictly increasing".into());
        }
        if positions
            .last()
            .is_some_and(|&p| p as usize >= self.raw.len())
        {
            return Err("position outside the domain".into());
        }
        let mut members = q.points.as_deref().map(|p| p.iter().peekable());
        for &p in positions {
            let i = p as usize;
            if !Self::in_vc(q.vc, self.raw[i]) {
                return Err(format!("position {p} fails the value constraint"));
            }
            if q.sc.as_deref().is_some_and(|r| !self.in_region(r, i)) {
                return Err(format!("position {p} outside the region"));
            }
            if let Some(m) = members.as_mut() {
                // Both lists are sorted: advance the point set to `p`.
                while m.peek().is_some_and(|&&x| x < p) {
                    m.next();
                }
                if m.peek() != Some(&&p) {
                    return Err(format!("position {p} not in the point set"));
                }
            }
        }
        match (q.values, values) {
            (false, None) => Ok(()),
            (true, Some(vals)) if vals.len() == positions.len() => {
                for (&p, &v) in positions.iter().zip(vals) {
                    let want = self.raw[p as usize];
                    let ok = if rel_tol == 0.0 {
                        v.to_bits() == want.to_bits()
                    } else {
                        (v - want).abs() <= rel_tol * want.abs()
                    };
                    if !ok {
                        return Err(format!(
                            "value at {p}: got {v:e}, raw {want:e}, tolerance {rel_tol:e}"
                        ));
                    }
                }
                Ok(())
            }
            (true, _) => Err("values missing or of the wrong length".into()),
            (false, Some(_)) => Err("values returned for a positions-only query".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> (Vec<f64>, Vec<f64>) {
        let raw: Vec<f64> = (0..64).map(|i| ((i * 37) % 64) as f64).collect();
        let mut sorted = raw.clone();
        sorted.sort_by(f64::total_cmp);
        (raw, sorted)
    }

    #[test]
    fn counts_match_direct_enumeration() {
        let (raw, sorted) = field();
        let o = Oracle::new(&raw, &sorted, vec![8, 8]);
        assert_eq!(o.count(&QuerySpec::vc_region((10.0, 20.0))), 10);
        assert_eq!(o.count(&QuerySpec::sc_values(vec![(1, 3), (2, 6)])), 8);
        let q = QuerySpec::vc_sc_values((0.0, 32.0), vec![(0, 8), (0, 4)]);
        let want = (0..64).filter(|i| i % 8 < 4 && raw[*i] < 32.0).count() as u64;
        assert_eq!(o.count(&q), want);
        let m = QuerySpec::membership((0.0, 32.0), vec![0, 1, 2, 3]);
        assert_eq!(
            o.count(&m),
            raw[..4].iter().filter(|&&v| v < 32.0).count() as u64
        );
    }

    #[test]
    fn full_check_accepts_the_truth_and_rejects_each_defect() {
        let (raw, sorted) = field();
        let o = Oracle::new(&raw, &sorted, vec![8, 8]);
        let q = QuerySpec::vc_values((10.0, 20.0));
        let pos: Vec<u64> = (0..64u64)
            .filter(|&i| (10.0..20.0).contains(&raw[i as usize]))
            .collect();
        let vals: Vec<f64> = pos.iter().map(|&p| raw[p as usize]).collect();
        let n = o.count(&q);
        assert!(o.check_full(&q, n, &pos, Some(&vals), 0.0).is_ok());
        // Wrong count.
        assert!(o
            .check_full(&q, n, &pos[1..], Some(&vals[1..]), 0.0)
            .is_err());
        // A wrong member with the right count.
        let mut bad = pos.clone();
        bad[0] = (0..64u64).find(|&i| raw[i as usize] >= 20.0).unwrap();
        bad.sort_unstable();
        assert!(o.check_full(&q, n, &bad, Some(&vals), 0.0).is_err());
        // A perturbed value: rejected exactly, accepted within tolerance.
        let mut off = vals.clone();
        off[0] *= 1.0 + 1e-9;
        assert!(o.check_full(&q, n, &pos, Some(&off), 0.0).is_err());
        assert!(o.check_full(&q, n, &pos, Some(&off), 1e-6).is_ok());
        // Missing values.
        assert!(o.check_full(&q, n, &pos, None, 0.0).is_err());
    }
}
