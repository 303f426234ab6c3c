//! Graceful PLoD degradation: what a query lost, and how precise the
//! answer still is.
//!
//! PLoD splits each double into 7 byte-groups; only the first (the
//! sign/exponent/top-mantissa group) is required to reconstruct a
//! usable value. When a *non-base* byte-group extent is unreadable
//! after retries, the engine can drop that part and every part after
//! it for the affected chunk, reconstructing values at a coarser
//! precision level instead of failing the whole query. This module
//! carries the audit trail of that decision: which extents were lost,
//! which chunks were affected, and the worst-case relative error bound
//! the caller now lives under. Base-part, bitmap, index-header, and
//! footer losses are never degradable — those fail the query loudly.

use crate::config::PlodLevel;
use crate::plod;

/// One unreadable byte-group extent the engine worked around.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationEvent {
    /// Value bin of the affected unit.
    pub bin: usize,
    /// Chunk rank (layout order) within the bin.
    pub chunk_rank: usize,
    /// The PLoD part (1-based would be the level; this is the 0-based
    /// part index, always >= 1 — part 0 is never degradable) that was
    /// lost. Parts after it are dropped too.
    pub lost_part: usize,
    /// Points in the chunk reconstructed at reduced precision.
    pub points: u64,
    /// Why the extent was unreadable (exhausted retries, checksum
    /// mismatch, missing file, ...).
    pub reason: String,
}

/// Aggregate degradation outcome of one query (empty = full fidelity).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    /// Every worked-around extent loss, in discovery order.
    pub events: Vec<DegradationEvent>,
}

impl DegradationReport {
    /// No degradation.
    pub fn none() -> Self {
        DegradationReport::default()
    }

    /// Whether any unit was reconstructed at reduced precision.
    pub fn is_degraded(&self) -> bool {
        !self.events.is_empty()
    }

    /// Total points returned at reduced precision. A unit — one
    /// `(bin, chunk_rank)` — counts once no matter how many events
    /// name it (a progressive ladder can lose several parts of the
    /// same unit across refinement steps).
    pub fn affected_points(&self) -> u64 {
        let mut seen = std::collections::BTreeMap::new();
        for e in &self.events {
            seen.entry((e.bin, e.chunk_rank))
                .and_modify(|p| *p = e.points.max(*p))
                .or_insert(e.points);
        }
        seen.values().sum()
    }

    /// The coarsest PLoD level any affected unit fell back to: the
    /// minimum lost part index equals the number of parts still used.
    /// `None` when nothing degraded.
    ///
    /// Engine-produced events always carry `lost_part` in `1..=6`; an
    /// out-of-range value (a hand-built or corrupted report merged in
    /// from elsewhere) maps fail-safe to the coarsest level rather
    /// than to `None` — a degraded report must never be mistaken for
    /// full fidelity.
    pub fn effective_level(&self) -> Option<PlodLevel> {
        let min_lost = self.events.iter().map(|e| e.lost_part).min()?;
        let level = if (1..usize::from(PlodLevel::FULL.level())).contains(&min_lost) {
            min_lost as u8
        } else {
            1
        };
        Some(PlodLevel::new(level).unwrap_or(PlodLevel::COARSEST))
    }

    /// Worst-case relative error bound over all returned values given
    /// the degradation that occurred. `0.0` when — and only when —
    /// nothing degraded: [`Self::effective_level`] is total over
    /// non-empty reports, so a degraded result always reports a
    /// non-zero bound.
    pub fn error_bound(&self) -> f64 {
        self.effective_level()
            .map(plod::relative_error_bound)
            .unwrap_or(0.0)
    }

    /// Fold another report's events into this one, deduplicating by
    /// `(bin, chunk_rank)`: repeated losses of the same unit keep the
    /// event with the lowest lost part (the coarsest outcome governs
    /// the unit), so points are never double-counted.
    pub fn merge(&mut self, other: &DegradationReport) {
        for e in &other.events {
            match self
                .events
                .iter_mut()
                .find(|x| x.bin == e.bin && x.chunk_rank == e.chunk_rank)
            {
                Some(existing) => {
                    if e.lost_part < existing.lost_part {
                        *existing = e.clone();
                    }
                }
                None => self.events.push(e.clone()),
            }
        }
    }
}

impl std::fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.is_degraded() {
            return write!(f, "full fidelity");
        }
        write!(
            f,
            "degraded: {} unit(s), {} point(s) at reduced precision, \
             worst effective level {}, relative error bound {:.3e}",
            self.events.len(),
            self.affected_points(),
            self.effective_level().map(|l| l.level()).unwrap_or(0),
            self.error_bound(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_at(bin: usize, chunk_rank: usize, lost_part: usize, points: u64) -> DegradationEvent {
        DegradationEvent {
            bin,
            chunk_rank,
            lost_part,
            points,
            reason: "checksum mismatch".into(),
        }
    }

    fn event(lost_part: usize, points: u64) -> DegradationEvent {
        event_at(0, 3, lost_part, points)
    }

    #[test]
    fn empty_report_is_full_fidelity() {
        let r = DegradationReport::none();
        assert!(!r.is_degraded());
        assert_eq!(r.affected_points(), 0);
        assert_eq!(r.effective_level(), None);
        assert_eq!(r.error_bound(), 0.0);
        assert_eq!(r.to_string(), "full fidelity");
    }

    #[test]
    fn effective_level_is_worst_loss() {
        let mut r = DegradationReport::none();
        r.events.push(event_at(0, 1, 4, 100));
        r.events.push(event_at(0, 2, 2, 50));
        r.events.push(event_at(1, 1, 6, 10));
        assert!(r.is_degraded());
        assert_eq!(r.affected_points(), 160);
        assert_eq!(r.effective_level().unwrap().level(), 2);
        assert_eq!(
            r.error_bound(),
            plod::relative_error_bound(PlodLevel::new(2).unwrap())
        );
        assert!(r.to_string().contains("160 point(s)"));
    }

    #[test]
    fn merge_dedups_repeated_units() {
        // A progressive ladder can lose several parts of the same unit
        // across steps; the unit must count once, at its coarsest loss.
        let mut a = DegradationReport::none();
        a.events.push(event(3, 40));
        let mut b = DegradationReport::none();
        b.events.push(event(5, 40));
        b.events.push(event_at(2, 7, 4, 9));
        a.merge(&b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.affected_points(), 49);
        assert_eq!(a.effective_level().unwrap().level(), 3);

        // The coarser loss wins regardless of merge order.
        let mut c = DegradationReport::none();
        c.events.push(event(5, 40));
        let mut d = DegradationReport::none();
        d.events.push(event(3, 40));
        c.merge(&d);
        assert_eq!(c.events.len(), 1);
        assert_eq!(c.events[0].lost_part, 3);
    }

    #[test]
    fn affected_points_counts_units_once() {
        let mut r = DegradationReport::none();
        r.events.push(event(4, 100));
        r.events.push(event(2, 100));
        r.events.push(event_at(5, 0, 3, 7));
        assert_eq!(r.affected_points(), 107);
    }

    #[test]
    fn error_bound_never_zero_while_degraded() {
        // An out-of-range lost part (reachable via merging hand-built
        // reports) used to make effective_level None and the bound 0.0
        // — claiming full fidelity for a degraded result. It now maps
        // to the coarsest representable bound.
        for bad_part in [0usize, 7, 9, 300] {
            let mut r = DegradationReport::none();
            r.events.push(event(bad_part, 5));
            assert!(r.is_degraded());
            assert_eq!(r.effective_level().unwrap().level(), 1, "part {bad_part}");
            assert_eq!(
                r.error_bound(),
                plod::relative_error_bound(PlodLevel::new(1).unwrap())
            );
            assert!(r.error_bound() > 0.0);
        }
        // A garbage event alongside a real one stays conservative: the
        // reported bound is at least the real loss's bound.
        let mut r = DegradationReport::none();
        r.events.push(event_at(0, 1, 0, 5));
        r.events.push(event_at(0, 2, 4, 5));
        assert!(r.error_bound() >= plod::relative_error_bound(PlodLevel::new(4).unwrap()));
    }
}
