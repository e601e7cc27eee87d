//! Fetch-layer vocabulary: failure categories, fault-rate configuration
//! and the deterministic retry/backoff policy of the collection pipeline.
//!
//! The paper's crawl (§II) runs against unreliable online sources:
//! advisory pages disappear, SNS feeds rate-limit, mirror lookups time
//! out, dumps arrive truncated. These types describe that fault model;
//! the `crawler` crate's transport layer draws from a seeded fault plan
//! (`registry_sim::fault`) and classifies each simulated fetch with a
//! [`FetchError`], while [`RetryPolicy`] bounds how hard the collector
//! fights back.

use std::fmt;

/// Why one fetch attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetchError {
    /// A transient server/network error (HTTP 5xx, connection reset).
    Transient,
    /// The request timed out before any payload arrived.
    Timeout,
    /// A payload arrived but was cut short (checksum/length mismatch).
    Truncated,
    /// A payload arrived but failed integrity checks (garbled bytes).
    Corrupted,
    /// The document is permanently gone (HTTP 404/410).
    NotFound,
}

impl FetchError {
    /// Every failure category, in the order fault rates are laid out.
    pub const ALL: [FetchError; 5] = [
        FetchError::Transient,
        FetchError::Timeout,
        FetchError::Truncated,
        FetchError::Corrupted,
        FetchError::NotFound,
    ];

    /// Whether a retry can plausibly succeed. Everything except a
    /// permanent 404 is worth another attempt.
    pub fn is_transient(self) -> bool {
        !matches!(self, FetchError::NotFound)
    }

    /// Short machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            FetchError::Transient => "transient",
            FetchError::Timeout => "timeout",
            FetchError::Truncated => "truncated",
            FetchError::Corrupted => "corrupted",
            FetchError::NotFound => "not-found",
        }
    }
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::error::Error for FetchError {}

/// Per-category fault rates of the unreliable transport, each in
/// `[0, 1]`. Rates are cumulative: a single uniform draw per attempt is
/// walked through the categories in [`FetchError::ALL`] order, so the
/// *total* fault probability is the (capped-at-1) sum of the rates.
///
/// Out-of-range values never panic the pipeline: the transport clamps
/// each rate into `[0, 1]` when sampling, which keeps "never panics at
/// any fault rate" a hard guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Rate of transient server/network errors.
    pub transient_rate: f64,
    /// Rate of timeouts.
    pub timeout_rate: f64,
    /// Rate of truncated payloads.
    pub truncated_rate: f64,
    /// Rate of corrupted payloads.
    pub corrupted_rate: f64,
    /// Rate of permanent 404s.
    pub not_found_rate: f64,
}

impl FaultConfig {
    /// The fault-free transport: every fetch succeeds on the first try.
    pub const NONE: FaultConfig = FaultConfig {
        transient_rate: 0.0,
        timeout_rate: 0.0,
        truncated_rate: 0.0,
        corrupted_rate: 0.0,
        not_found_rate: 0.0,
    };

    /// A purely transient fault plan: every injected failure is
    /// retryable. This is the `--fault-rate` CLI model and the shape the
    /// recovery acceptance bar is stated over.
    pub fn transient(rate: f64) -> FaultConfig {
        FaultConfig {
            transient_rate: rate,
            ..FaultConfig::NONE
        }
    }

    /// A mixed plan modelled on real crawl logs: mostly transient noise,
    /// some timeouts and mangled payloads, a sliver of permanent 404s.
    pub fn mixed(total_rate: f64) -> FaultConfig {
        FaultConfig {
            transient_rate: total_rate * 0.55,
            timeout_rate: total_rate * 0.15,
            truncated_rate: total_rate * 0.10,
            corrupted_rate: total_rate * 0.10,
            not_found_rate: total_rate * 0.10,
        }
    }

    /// The rate of `error` in this configuration.
    pub fn rate_of(&self, error: FetchError) -> f64 {
        match error {
            FetchError::Transient => self.transient_rate,
            FetchError::Timeout => self.timeout_rate,
            FetchError::Truncated => self.truncated_rate,
            FetchError::Corrupted => self.corrupted_rate,
            FetchError::NotFound => self.not_found_rate,
        }
    }

    /// Total fault probability per attempt, capped at 1.
    pub fn total_rate(&self) -> f64 {
        FetchError::ALL
            .iter()
            .map(|&e| clamp_rate(self.rate_of(e)))
            .sum::<f64>()
            .min(1.0)
    }

    /// Whether the transport is effectively fault-free.
    pub fn is_fault_free(&self) -> bool {
        self.total_rate() <= 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::NONE
    }
}

/// Clamps one fault rate into `[0, 1]`, mapping NaN to 0.
pub fn clamp_rate(rate: f64) -> f64 {
    if rate.is_nan() {
        0.0
    } else {
        rate.clamp(0.0, 1.0)
    }
}

/// Bounded deterministic retry schedule: up to `max_retries` extra
/// attempts, waiting `base_backoff_ms * multiplier^retry` (capped at
/// `max_backoff_ms`) before each. All waits are *simulated* — the world
/// has no wall clock — so the schedule doubles as the health report's
/// wall-time accounting and stays bitwise-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Simulated wait before the first retry, in milliseconds.
    pub base_backoff_ms: u64,
    /// Exponential growth factor between consecutive retries.
    pub multiplier: u32,
    /// Upper bound on any single wait, in milliseconds.
    pub max_backoff_ms: u64,
}

impl RetryPolicy {
    /// No retries at all.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        base_backoff_ms: 0,
        multiplier: 1,
        max_backoff_ms: 0,
    };

    /// The default schedule: 3 retries at 100ms/200ms/400ms.
    pub const STANDARD: RetryPolicy = RetryPolicy {
        max_retries: 3,
        base_backoff_ms: 100,
        multiplier: 2,
        max_backoff_ms: 5_000,
    };

    /// A schedule with `max_retries` retries and the standard backoff.
    pub fn with_retries(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            ..RetryPolicy::STANDARD
        }
    }

    /// Simulated wait before retry number `retry` (0-based), bounded by
    /// `max_backoff_ms` and saturating instead of overflowing.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let mut wait = self.base_backoff_ms;
        for _ in 0..retry {
            if wait >= self.max_backoff_ms {
                break;
            }
            wait = wait.saturating_mul(u64::from(self.multiplier.max(1)));
        }
        wait.min(self.max_backoff_ms)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::STANDARD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_not_found_is_permanent() {
        for e in FetchError::ALL {
            assert_eq!(e.is_transient(), e != FetchError::NotFound);
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = FetchError::ALL.iter().map(|e| e.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FetchError::ALL.len());
    }

    #[test]
    fn total_rate_caps_and_clamps() {
        assert_eq!(FaultConfig::NONE.total_rate(), 0.0);
        assert!(FaultConfig::NONE.is_fault_free());
        assert!((FaultConfig::transient(0.3).total_rate() - 0.3).abs() < 1e-12);
        let silly = FaultConfig {
            transient_rate: 7.0,
            timeout_rate: f64::NAN,
            truncated_rate: -3.0,
            corrupted_rate: f64::INFINITY,
            not_found_rate: 0.5,
        };
        assert_eq!(silly.total_rate(), 1.0);
        assert!(!silly.is_fault_free());
    }

    #[test]
    fn mixed_plan_sums_to_its_total() {
        let cfg = FaultConfig::mixed(0.4);
        assert!((cfg.total_rate() - 0.4).abs() < 1e-12);
        assert!(cfg.not_found_rate > 0.0);
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy::STANDARD;
        assert_eq!(p.backoff_ms(0), 100);
        assert_eq!(p.backoff_ms(1), 200);
        assert_eq!(p.backoff_ms(2), 400);
        assert_eq!(p.backoff_ms(20), 5_000, "cap applies");
        assert_eq!(RetryPolicy::NONE.backoff_ms(0), 0);
        // Saturation: absurd schedules never overflow.
        let huge = RetryPolicy {
            max_retries: u32::MAX,
            base_backoff_ms: u64::MAX / 2,
            multiplier: u32::MAX,
            max_backoff_ms: u64::MAX,
        };
        let _ = huge.backoff_ms(u32::MAX);
    }
}
