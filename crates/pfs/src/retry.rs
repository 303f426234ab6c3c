//! Bounded, deterministic retry with exponential backoff.
//!
//! Transient PFS errors (a flaky OST returning EIO, an injected
//! [`crate::fault::FaultBackend`] fault) are worth retrying; permanent
//! ones (missing file, out-of-bounds read) are not. [`RetryPolicy`]
//! counts the attempts; every policy waits on the same curve. Backoff
//! time is *simulated*, never slept: the query engine runs against a
//! cost simulator, so wall-clock sleeping would only slow the tests
//! down without changing any reported number. Callers accumulate
//! [`RetryPolicy::backoff_s`] into their own wait-time counter instead.

/// Simulated wait before the first retry, in seconds.
const BASE_BACKOFF_S: f64 = 1e-3;

/// Growth factor of the wait per subsequent retry.
const MULTIPLIER: f64 = 2.0;

/// A bounded exponential-backoff retry schedule.
///
/// `max_attempts` counts the first try: `max_attempts == 1` means no
/// retries at all. Backoff before attempt `k` (k = 2, 3, ...) is
/// `BASE_BACKOFF_S * MULTIPLIER^(k - 2)` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts allowed, including the first (>= 1).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// No retries: one attempt, fail on the first transient error.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// `attempts` total attempts (at least one).
    pub fn with_attempts(attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: attempts.max(1),
        }
    }

    /// Simulated backoff in seconds before attempt `attempt`
    /// (1-based; attempt 1 is the initial try and waits nothing).
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        if attempt <= 1 {
            return 0.0;
        }
        BASE_BACKOFF_S * MULTIPLIER.powi(attempt as i32 - 2)
    }

    /// Whether another attempt is allowed after `attempt` attempts
    /// have already failed.
    pub fn should_retry(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_means_single_attempt() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert!(!p.should_retry(1));
        assert_eq!(p.backoff_s(1), 0.0);
    }

    #[test]
    fn backoff_is_exponential_and_deterministic() {
        let p = RetryPolicy::with_attempts(4);
        assert_eq!(p.backoff_s(1), 0.0);
        assert_eq!(p.backoff_s(2), 1e-3);
        assert_eq!(p.backoff_s(3), 2e-3);
        assert_eq!(p.backoff_s(4), 4e-3);
        assert!(p.should_retry(1));
        assert!(p.should_retry(3));
        assert!(!p.should_retry(4));
    }

    #[test]
    fn with_attempts_clamps_to_one() {
        assert_eq!(RetryPolicy::with_attempts(0).max_attempts, 1);
        assert_eq!(RetryPolicy::with_attempts(5).max_attempts, 5);
    }
}
