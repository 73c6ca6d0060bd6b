//! Sampled execution: fast-forward between detailed measurement windows.
//!
//! A full-fidelity run prices every access. Sampling trades a bounded
//! accuracy loss for wall-clock: the run alternates short **detailed
//! windows** (the normal [`Mmu::access`](mv_core::Mmu::access) path, all
//! counters and costs) with long **functional gaps** driven through
//! [`Mmu::access_functional`](mv_core::Mmu::access_functional) — TLB
//! state is kept warm and faults are still serviced, but no walk is
//! priced, no counters move, and no walk events fire. Window-measured
//! counters are then scaled by `configured_accesses / measured_accesses`
//! to estimate the full run (the Virtuoso-style functional fast-forward;
//! arXiv 2403.04635).
//!
//! The functional path cannot keep the walk caches (PWCs, nested/mid
//! TLBs, PTE cache) warm — only the L1/L2 TLBs. A configurable **warm-up
//! tail** of detailed-but-unmeasured accesses
//! ([`Mmu::access_warm`](mv_core::Mmu::access_warm)) at the end of each
//! gap re-heats those structures before the next window opens, so the
//! window measures steady-state miss costs rather than cold-cache
//! transients.

use std::fmt;
use std::num::ParseIntError;

/// Sampling schedule: after the run's warmup, the access stream is tiled
/// into intervals of `interval` accesses; the first `window` accesses of
/// each interval run detailed (measured), the last `warmup` accesses run
/// detailed-unmeasured (cache re-heat), and the middle runs functional.
///
/// `window = interval` degenerates to a full-fidelity run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Detailed (measured) accesses at the head of each interval.
    pub window: u64,
    /// Interval length in accesses (window + gap).
    pub interval: u64,
    /// Detailed-unmeasured accesses at the tail of each interval's gap,
    /// re-heating the walk caches before the next window.
    pub warmup: u64,
}

/// Why a [`SampleSpec`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SampleSpecError {
    /// `window` is zero — nothing would ever be measured, leaving every
    /// counter at zero and the scale factor undefined.
    ZeroWindow,
    /// `interval` does not exceed `window` — the schedule must contain a
    /// gap; for a full-fidelity run simply omit sampling.
    WindowFillsInterval,
    /// `warmup` exceeds the gap (`interval - window`) — the re-heat tail
    /// cannot be longer than the gap it sits in.
    WarmupExceedsGap,
}

impl fmt::Display for SampleSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleSpecError::ZeroWindow => {
                write!(f, "sample window must be at least 1 access")
            }
            SampleSpecError::WindowFillsInterval => {
                write!(
                    f,
                    "sample interval must exceed the window (omit sampling for a full run)"
                )
            }
            SampleSpecError::WarmupExceedsGap => {
                write!(f, "sample warmup must fit in the gap (interval - window)")
            }
        }
    }
}

impl std::error::Error for SampleSpecError {}

/// How a [`SampleSpec`] string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SampleParseError {
    /// Not three `:`-separated fields.
    Shape,
    /// A field was not an unsigned integer.
    Int(ParseIntError),
    /// The fields parsed but the spec is invalid.
    Spec(SampleSpecError),
}

impl fmt::Display for SampleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleParseError::Shape => {
                write!(f, "expected WINDOW:INTERVAL:WARMUP (three integers)")
            }
            SampleParseError::Int(e) => write!(f, "bad integer: {e}"),
            SampleParseError::Spec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SampleParseError {}

/// Why a sampled run could not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SampleError {
    /// The schedule itself is invalid.
    Spec(SampleSpecError),
    /// Sampling was combined with an instrument that acts on every
    /// access's detailed outcome: chaos (injection and the oracle) or the
    /// adaptive controller (epoch decisions).
    Incompatible(&'static str),
}

impl fmt::Display for SampleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleError::Spec(e) => write!(f, "{e}"),
            SampleError::Incompatible(what) => {
                write!(f, "sampling is incompatible with {what} (every access must be detailed)")
            }
        }
    }
}

impl std::error::Error for SampleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SampleError::Spec(e) => Some(e),
            SampleError::Incompatible(_) => None,
        }
    }
}

/// What the driver does with one span of accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Full detailed accesses, counted and priced.
    Detailed,
    /// Detailed accesses with measurement suppressed (cache re-heat).
    Warm,
    /// Functional-only accesses (TLB state, no pricing).
    Functional,
}

impl SampleSpec {
    /// Validates the schedule's invariants.
    ///
    /// # Errors
    ///
    /// See [`SampleSpecError`] for each rejected shape.
    pub fn validate(&self) -> Result<(), SampleSpecError> {
        if self.window == 0 {
            return Err(SampleSpecError::ZeroWindow);
        }
        if self.interval <= self.window {
            return Err(SampleSpecError::WindowFillsInterval);
        }
        if self.warmup > self.interval - self.window {
            return Err(SampleSpecError::WarmupExceedsGap);
        }
        Ok(())
    }

    /// Parses `"WINDOW:INTERVAL:WARMUP"` (e.g. `2000:20000:500`) and
    /// validates it.
    ///
    /// # Errors
    ///
    /// Returns [`SampleParseError`] on the wrong shape, a non-integer
    /// field, or an invalid schedule.
    pub fn parse(s: &str) -> Result<SampleSpec, SampleParseError> {
        let mut parts = s.split(':');
        let (Some(w), Some(i), Some(u), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(SampleParseError::Shape);
        };
        let spec = SampleSpec {
            window: w.trim().parse().map_err(SampleParseError::Int)?,
            interval: i.trim().parse().map_err(SampleParseError::Int)?,
            warmup: u.trim().parse().map_err(SampleParseError::Int)?,
        };
        spec.validate().map_err(SampleParseError::Spec)?;
        Ok(spec)
    }

    /// The phase at offset `off` into the measured region, and the
    /// (exclusive) offset at which that phase ends. Requires a validated
    /// spec (`interval > 0`).
    pub(crate) fn phase_at(&self, off: u64) -> (Phase, u64) {
        let p = off % self.interval;
        let start = off - p;
        if p < self.window {
            (Phase::Detailed, start + self.window)
        } else if p >= self.interval - self.warmup {
            (Phase::Warm, start + self.interval)
        } else {
            (Phase::Functional, start + self.interval - self.warmup)
        }
    }
}

/// What a sampled run measured, attached to the
/// [`RunResult`](crate::RunResult). The result's counters are already
/// scaled to full-run estimates; this records the raw denominator so the
/// scale factor is auditable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSummary {
    /// The schedule the run used.
    pub spec: SampleSpec,
    /// Detailed accesses actually measured (the scaling denominator).
    pub measured_accesses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_each_bad_shape() {
        let ok = SampleSpec {
            window: 100,
            interval: 1_000,
            warmup: 50,
        };
        assert_eq!(ok.validate(), Ok(()));
        assert_eq!(
            SampleSpec { window: 0, ..ok }.validate(),
            Err(SampleSpecError::ZeroWindow)
        );
        assert_eq!(
            SampleSpec {
                window: 1_000,
                ..ok
            }
            .validate(),
            Err(SampleSpecError::WindowFillsInterval)
        );
        assert_eq!(
            SampleSpec { warmup: 901, ..ok }.validate(),
            Err(SampleSpecError::WarmupExceedsGap)
        );
        // Warmup may fill the whole gap (every gap access re-heats).
        assert_eq!(SampleSpec { warmup: 900, ..ok }.validate(), Ok(()));
    }

    #[test]
    fn parse_round_trips_and_rejects() {
        assert_eq!(
            SampleSpec::parse("2000:20000:500"),
            Ok(SampleSpec {
                window: 2_000,
                interval: 20_000,
                warmup: 500,
            })
        );
        assert_eq!(SampleSpec::parse("2000:20000"), Err(SampleParseError::Shape));
        assert_eq!(
            SampleSpec::parse("1:2:3:4"),
            Err(SampleParseError::Shape)
        );
        assert!(matches!(
            SampleSpec::parse("a:2:3"),
            Err(SampleParseError::Int(_))
        ));
        assert_eq!(
            SampleSpec::parse("0:100:0"),
            Err(SampleParseError::Spec(SampleSpecError::ZeroWindow))
        );
    }

    #[test]
    fn phases_tile_the_stream_exactly() {
        let spec = SampleSpec {
            window: 3,
            interval: 10,
            warmup: 2,
        };
        // Walk 3 intervals phase by phase and record each span.
        let mut spans = Vec::new();
        let mut off = 0u64;
        while off < 30 {
            let (phase, end) = spec.phase_at(off);
            assert!(end > off, "phases advance");
            spans.push((phase, off, end.min(30)));
            off = end;
        }
        assert_eq!(
            spans,
            vec![
                (Phase::Detailed, 0, 3),
                (Phase::Functional, 3, 8),
                (Phase::Warm, 8, 10),
                (Phase::Detailed, 10, 13),
                (Phase::Functional, 13, 18),
                (Phase::Warm, 18, 20),
                (Phase::Detailed, 20, 23),
                (Phase::Functional, 23, 28),
                (Phase::Warm, 28, 30),
            ]
        );
        // A mid-span query reports the same span end.
        assert_eq!(spec.phase_at(1), (Phase::Detailed, 3));
        assert_eq!(spec.phase_at(5), (Phase::Functional, 8));
        assert_eq!(spec.phase_at(9), (Phase::Warm, 10));
    }

    #[test]
    fn zero_warmup_gap_is_all_functional() {
        let spec = SampleSpec {
            window: 2,
            interval: 6,
            warmup: 0,
        };
        assert_eq!(spec.phase_at(2), (Phase::Functional, 6));
        assert_eq!(spec.phase_at(5), (Phase::Functional, 6));
        assert_eq!(spec.phase_at(6), (Phase::Detailed, 8));
    }
}
