//! Capped-exponential-backoff retry for writers whose failure would
//! throw away simulated work: `shard run`'s journal appends retry
//! transient I/O errors in-process before failing the shard.

use std::time::Duration;

/// The delay before retry attempt `attempt` (1-based): `base · 2^(a−1)`,
/// capped. Attempt 0 (the first try) has no delay.
fn backoff_delay(attempt: u32, base: Duration, cap: Duration) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    let factor = 1u32 << (attempt - 1).min(20);
    base.checked_mul(factor).unwrap_or(cap).min(cap)
}

/// Runs `op` up to `attempts` times, sleeping `base · 2^(a−1)` (capped
/// at `cap`) before retry `a` and warning to stderr on each failure —
/// `what` names the artifact (and the work at stake) so an operator
/// reading the log knows what a persistent failure loses. Returns the
/// first success, or an error naming both the first and last failures.
pub fn retry_with_backoff<T, E: std::fmt::Display>(
    what: &str,
    attempts: u32,
    base: Duration,
    cap: Duration,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, String> {
    assert!(attempts >= 1, "retry_with_backoff needs at least one try");
    let mut first_err: Option<String> = None;
    for attempt in 0..attempts {
        std::thread::sleep(backoff_delay(attempt, base, cap));
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                let e = e.to_string();
                if attempt + 1 < attempts {
                    eprintln!(
                        "warning: {what} failed ({e}); retry {} of {} in {:?}",
                        attempt + 1,
                        attempts - 1,
                        backoff_delay(attempt + 1, base, cap)
                    );
                }
                first_err.get_or_insert(e);
            }
        }
    }
    // `op` ran at least once, so a fall-through means every try failed.
    Err(format!(
        "{what} failed after {attempts} attempts (first error: {})",
        first_err.expect("at least one attempt ran")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_doubles_and_caps() {
        let base = Duration::from_millis(500);
        let cap = Duration::from_secs(30);
        assert_eq!(backoff_delay(0, base, cap), Duration::ZERO);
        assert_eq!(backoff_delay(1, base, cap), Duration::from_millis(500));
        assert_eq!(backoff_delay(2, base, cap), Duration::from_millis(1000));
        assert_eq!(backoff_delay(3, base, cap), Duration::from_millis(2000));
        assert_eq!(backoff_delay(10, base, cap), cap);
        assert_eq!(backoff_delay(u32::MAX, base, cap), cap, "shift is clamped");
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let mut calls = 0;
        let out = retry_with_backoff(
            "test write",
            3,
            Duration::ZERO,
            Duration::ZERO,
            || -> Result<u32, String> {
                calls += 1;
                if calls < 3 {
                    Err("transient".to_string())
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(out, Ok(7));
        assert_eq!(calls, 3);
    }

    #[test]
    fn exhaustion_reports_first_error_and_attempts() {
        let e = retry_with_backoff(
            "journal append",
            2,
            Duration::ZERO,
            Duration::ZERO,
            || -> Result<(), String> { Err("disk full".to_string()) },
        )
        .unwrap_err();
        assert!(e.contains("journal append"), "{e}");
        assert!(e.contains("2 attempts"), "{e}");
        assert!(e.contains("disk full"), "{e}");
    }
}
