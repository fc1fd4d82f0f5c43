//! A monotonic nanosecond clock cheap enough to timestamp every operation
//! of a lock-free counter.
//!
//! The trace recorder in `cnet-runtime` brackets each increment with two
//! timestamps. `std::time::Instant::now` costs a `clock_gettime` call —
//! tens of nanoseconds, comparable to the whole traversal it is supposed
//! to observe. On x86_64 a [`Clock`] reads the CPU timestamp counter
//! instead (`rdtsc`, a few nanoseconds), calibrates it against `Instant`
//! **once per process**, and converts raw ticks to nanoseconds lazily —
//! the hot path stores raw ticks and the drain path pays for the
//! conversion. On other architectures every method transparently falls
//! back to `Instant`, so callers never need their own `cfg`.
//!
//! Tick-to-nanosecond conversion is monotone (a fixed positive scale
//! followed by rounding), so the ordering of raw readings survives
//! conversion — the property the consistency checkers rely on.

use std::sync::OnceLock;
use std::time::Instant;

/// Ticks-per-nanosecond calibration, measured once per process.
fn ticks_per_ns() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        // Bracket a short busy-wait with both clocks. 2ms keeps process
        // startup cheap while bounding the rate error well below what the
        // checkers could notice (ties are handled by sequence numbers).
        let start = Instant::now();
        let t0 = raw_ticks();
        while start.elapsed().as_micros() < 2_000 {
            std::hint::spin_loop();
        }
        let ticks = raw_ticks().wrapping_sub(t0) as f64;
        let ns = start.elapsed().as_nanos() as f64;
        let rate = ticks / ns;
        // An implausible rate (tsc unavailable, emulated, or stopped)
        // degrades to 1 tick == 1 ns via the fallback reader.
        if rate.is_finite() && rate > 0.0 {
            rate
        } else {
            1.0
        }
    })
}

/// Reads the raw cycle counter (x86_64) or a nanosecond `Instant` delta
/// (elsewhere). Only meaningful relative to other readings in-process.
///
/// Under the `model-check` feature, threads inside a model-checker
/// session read a strictly increasing *logical* counter instead, so
/// timestamp-dependent code is deterministic per explored schedule.
#[inline]
pub fn raw_ticks() -> u64 {
    #[cfg(feature = "model-check")]
    if let Some(tick) = crate::model::logical_raw_ticks() {
        return tick;
    }
    raw_ticks_arch()
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn raw_ticks_arch() -> u64 {
    // SAFETY: `_rdtsc` has no memory effects and no preconditions; it is
    // available on every x86_64 CPU. This is the one place the workspace
    // needs an intrinsic the safe standard library cannot express at an
    // acceptable cost (see module docs).
    #[allow(unsafe_code)]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn raw_ticks_arch() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A process-local monotonic clock: raw readings via [`Clock::raw`] on the
/// hot path, conversion to nanoseconds-since-construction via
/// [`Clock::raw_to_ns`] off it.
///
/// # Example
///
/// ```
/// use cnet_util::time::Clock;
///
/// let clock = Clock::new();
/// let a = clock.raw();
/// let b = clock.raw();
/// assert!(clock.raw_to_ns(a) <= clock.raw_to_ns(b));
/// ```
#[derive(Clone, Debug)]
pub struct Clock {
    origin: u64,
    ticks_per_ns: f64,
}

impl Clock {
    /// A clock whose nanosecond scale starts (near) zero now. The
    /// process-wide calibration runs on first use (~2ms, once).
    pub fn new() -> Clock {
        Clock { origin: raw_ticks(), ticks_per_ns: ticks_per_ns() }
    }

    /// A raw reading, for storing cheaply on a hot path.
    #[inline]
    pub fn raw(&self) -> u64 {
        raw_ticks()
    }

    /// Converts a raw reading to nanoseconds since this clock's
    /// construction. Monotone: `a <= b` implies
    /// `raw_to_ns(a) <= raw_to_ns(b)`. Readings taken before construction
    /// saturate to 0.
    #[inline]
    pub fn raw_to_ns(&self, raw: u64) -> u64 {
        (raw.saturating_sub(self.origin) as f64 / self.ticks_per_ns) as u64
    }

    /// The current time in nanoseconds since construction.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.raw_to_ns(self.raw())
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn readings_are_monotone_through_conversion() {
        let clock = Clock::new();
        let raws: Vec<u64> = (0..1000).map(|_| clock.raw()).collect();
        let ns: Vec<u64> = raws.iter().map(|&r| clock.raw_to_ns(r)).collect();
        assert!(raws.windows(2).all(|w| w[0] <= w[1]), "raw ticks regressed");
        assert!(ns.windows(2).all(|w| w[0] <= w[1]), "converted ns regressed");
    }

    #[test]
    fn scale_tracks_wall_time() {
        let clock = Clock::new();
        let t0 = clock.now_ns();
        let wall = Instant::now();
        std::thread::sleep(Duration::from_millis(20));
        let measured = clock.now_ns() - t0;
        let actual = wall.elapsed().as_nanos() as u64;
        // Calibration error plus sleep jitter: allow a generous band.
        assert!(
            measured > actual / 2 && measured < actual * 2,
            "clock measured {measured}ns for ~{actual}ns of wall time"
        );
    }

    #[test]
    fn pre_construction_readings_saturate_to_zero() {
        let before = raw_ticks();
        std::thread::sleep(Duration::from_millis(1));
        let clock = Clock::new();
        assert_eq!(clock.raw_to_ns(before.saturating_sub(1_000_000)), 0);
        assert_eq!(clock.raw_to_ns(clock.origin), 0);
    }

    #[test]
    fn conversion_is_linear_in_ticks() {
        // A millisecond's worth of ticks past the origin converts to a
        // millisecond, to within rounding, wherever the clock starts.
        let clock = Clock::new();
        let one_ms = (clock.ticks_per_ns * 1.0e6) as u64;
        let first = clock.raw_to_ns(clock.origin + one_ms);
        assert!(first.abs_diff(1_000_000) <= 1, "{first}");
        let tenth = clock.raw_to_ns(clock.origin + 10 * one_ms);
        assert!(tenth.abs_diff(10_000_000) <= 10, "{tenth}");
    }

    #[test]
    fn distinct_clocks_share_calibration_but_not_origin() {
        let a = Clock::new();
        std::thread::sleep(Duration::from_millis(2));
        let b = Clock::new();
        assert_eq!(a.ticks_per_ns, b.ticks_per_ns);
        // b starts near zero even though a has advanced.
        assert!(b.now_ns() < a.now_ns());
    }
}
