//! The parallel data-plane runtime: thread-count resolution, plus the
//! fan-out it feeds.
//!
//! The engine splits execution into a **deterministic control plane** and a
//! **parallel data plane** (see [`crate::engine`]):
//!
//! - the *data plane* — per packet, the real columnar kernel work inside
//!   [`crate::provider::run_ops`], its pricing, and the fold of a stream
//!   packet into a partial of its own — is dispatched through [`scatter`],
//!   one scope per stage attempt;
//! - the *control plane* — routing picks and `SimTime` accounting — runs
//!   sequentially on the coordinator, replaying worker `ready_at` state in
//!   packet order, then merges the packets' partials in packet order. So
//!   simulated makespans are bit-identical at any thread count, and result
//!   rows depend only on the data and the packet split: not on the thread
//!   count, nor on which worker the router picked.
//!
//! [`scatter`] lives in the dependency-free `hape_pool` crate — the
//! workspace's only spawn site, shared with `hape_join`'s per-co-partition
//! joins — and is re-exported here for the engine. What stays in this
//! module is how the thread count is chosen (see [`resolve_threads`]):
//! [`crate::engine::ExecConfig::threads`] if set, else the `HAPE_THREADS`
//! environment variable, else [`std::thread::available_parallelism`].
//! `threads = 1` runs every job inline on the coordinator — the sequential
//! fallback CI exercises explicitly.

pub use hape_pool::scatter;

use crate::error::EngineError;

/// Environment variable overriding the data-plane thread count when
/// [`crate::engine::ExecConfig::threads`] is unset. CI runs the test suite
/// under `HAPE_THREADS=1` to keep the sequential fallback honest.
pub const THREADS_ENV: &str = "HAPE_THREADS";

/// Parse one [`THREADS_ENV`] value. `None` input (variable unset) is fine —
/// the caller falls through to host parallelism — but a *set* variable must
/// be a positive integer: `0` and non-numeric values used to fall back
/// silently, which made typos (`HAPE_THREADS=eight`) indistinguishable from
/// intent, so both are now typed [`EngineError::InvalidConfig`] refusals.
pub fn parse_threads_env(value: Option<&str>) -> Result<Option<usize>, EngineError> {
    let Some(raw) = value else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(EngineError::InvalidConfig {
            what: format!("{THREADS_ENV}=0: the data plane needs at least one thread"),
        }),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(EngineError::InvalidConfig {
            what: format!("{THREADS_ENV}={raw:?} is not a positive integer"),
        }),
    }
}

/// Resolve the effective data-plane thread count: the explicit
/// configuration, else [`THREADS_ENV`], else the host's available
/// parallelism. Always at least 1.
///
/// An explicit configuration wins without consulting the environment (and
/// is clamped to ≥ 1, preserving the embedding API's contract); a *set but
/// invalid* `HAPE_THREADS` is a typed [`EngineError::InvalidConfig`] error
/// rather than a silent fallback.
pub fn resolve_threads(configured: Option<usize>) -> Result<usize, EngineError> {
    if let Some(n) = configured {
        return Ok(n.max(1));
    }
    let env = std::env::var(THREADS_ENV).ok();
    if let Some(n) = parse_threads_env(env.as_deref())? {
        return Ok(n);
    }
    Ok(std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_prefers_explicit_config() {
        assert_eq!(resolve_threads(Some(3)).expect("explicit count"), 3);
        assert_eq!(resolve_threads(Some(0)).expect("explicit zero clamps"), 1);
        // With no explicit config the result depends on the environment:
        // either a valid count (≥ 1) or a typed refusal of a bad
        // HAPE_THREADS — never a panic, never silently zero.
        match resolve_threads(None) {
            Ok(n) => assert!(n >= 1),
            Err(e) => assert!(matches!(e, EngineError::InvalidConfig { .. })),
        }
    }

    #[test]
    fn zero_threads_env_is_a_typed_refusal() {
        let err = parse_threads_env(Some("0")).expect_err("zero must not fall back");
        match err {
            EngineError::InvalidConfig { what } => {
                assert!(what.contains("HAPE_THREADS=0"), "{what}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn non_numeric_threads_env_is_a_typed_refusal() {
        let err = parse_threads_env(Some("eight")).expect_err("typos must not fall back");
        match err {
            EngineError::InvalidConfig { what } => {
                assert!(what.contains("eight"), "{what}");
                assert!(what.contains("not a positive integer"), "{what}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Unset and valid values still resolve.
        assert_eq!(parse_threads_env(None).expect("unset is fine"), None);
        assert_eq!(parse_threads_env(Some("4")).expect("valid"), Some(4));
        assert_eq!(parse_threads_env(Some(" 2 ")).expect("whitespace ok"), Some(2));
    }
}
