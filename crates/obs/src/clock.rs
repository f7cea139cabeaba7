//! The workspace's single wall-clock source, plus the deterministic mock.
//!
//! Every module that measures host time does so through a [`Stopwatch`],
//! so `clippy.toml`'s `disallowed-methods` list has exactly one exempt
//! site where `Instant::now` is read. Wall-clock readings never feed
//! persisted bytes or partitioning decisions — only reporting fields and
//! trace timestamps. The [`Clock`] behind the flight recorder can be
//! swapped for a [`Clock::mock`] that advances a fixed step per reading,
//! which makes trace output byte-identical across runs.

use std::sync::atomic::{AtomicU64, Ordering};

/// Microseconds the mock clock advances on every reading.
pub const MOCK_STEP_US: u64 = 1000;

/// The workspace's single wall-clock source (the only `Instant::now`
/// site; see module docs).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Start measuring now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the workspace's single wall-clock read; readings feed reports and trace timestamps only"
    )]
    pub fn start() -> Stopwatch {
        Stopwatch(std::time::Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Timestamp source for the flight recorder: real host time, or a
/// deterministic counter for reproducible traces.
#[derive(Debug)]
pub enum Clock {
    /// Host time via [`Stopwatch`], in microseconds since clock creation.
    Wall(Stopwatch),
    /// Deterministic: the n-th reading returns `n * MOCK_STEP_US`.
    Mock(AtomicU64),
}

impl Clock {
    /// A host-time clock starting at 0 now.
    pub fn wall() -> Clock {
        Clock::Wall(Stopwatch::start())
    }

    /// A deterministic clock: readings are 0, 1000, 2000, … µs.
    pub fn mock() -> Clock {
        Clock::Mock(AtomicU64::new(0))
    }

    /// Current reading in microseconds. Mock readings advance the clock.
    pub fn now_us(&self) -> u64 {
        match self {
            Clock::Wall(sw) => (sw.seconds() * 1e6) as u64,
            Clock::Mock(n) => n.fetch_add(MOCK_STEP_US, Ordering::SeqCst),
        }
    }

    /// Whether this is the deterministic mock.
    pub fn is_mock(&self) -> bool {
        matches!(self, Clock::Mock(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        assert!(sw.seconds() >= 0.0);
    }

    #[test]
    fn mock_clock_is_deterministic() {
        let c = Clock::mock();
        assert_eq!(c.now_us(), 0);
        assert_eq!(c.now_us(), MOCK_STEP_US);
        assert_eq!(c.now_us(), 2 * MOCK_STEP_US);
        assert!(c.is_mock());
        assert!(!Clock::wall().is_mock());
    }
}
