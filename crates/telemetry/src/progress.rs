//! Live engine progress: a lock-free, cross-thread snapshot of a running
//! analysis.
//!
//! [`ProfileCell`](crate::ProfileCell) is a *post-hoc* profile: `Rc<Cell>`
//! counters read once, when the run finishes. [`ProgressCell`] is its live
//! sibling — the engine thread publishes into it mid-run and *other* threads
//! (the service's `inspect` op, the streaming-progress emitter) read a
//! consistent snapshot at any moment, without locks on either side.
//!
//! The cell is a seqlock: one sequence counter plus a handful of payload
//! atomics. The single writer bumps the counter to an odd value, stores the
//! payload, and bumps it back to even; readers retry until they observe the
//! same even sequence on both sides of the payload loads. Writers never
//! block (two relaxed-cost RMWs per publish), readers never block writers,
//! and a torn read is impossible — the retry loop rejects it.
//!
//! The bound travels as a **scaled fixed point** (`BOUND_SCALE` units per
//! 1.0) in an `AtomicU64` rather than as `f64` bits: the anytime bound is
//! monotone nondecreasing (Thm. 3.4 — every terminated path certifies
//! independent mass), and integer fixed point keeps that monotonicity exact
//! across the wire regardless of float rounding at the read side.

use std::sync::atomic::{AtomicU64, Ordering};

/// Fixed-point scale of [`ProgressSnapshot::bound_scaled`]: parts per 1e9 of
/// probability mass (nanoprobability), so the full `[0, 1]` range spans
/// `0..=BOUND_SCALE` with comfortably sub-float-epsilon resolution.
pub const BOUND_SCALE: u64 = 1_000_000_000;

/// A point-in-time, consistent view of a running engine's progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgressSnapshot {
    /// Exploration work units performed (machine small-steps plus per-path
    /// overheads — the same monotone counter the cooperative `check`
    /// receives).
    pub steps: u64,
    /// Symbolic paths that terminated (and were measured) so far.
    pub paths_terminated: u64,
    /// Paths currently queued in the exploration frontier.
    pub frontier: u64,
    /// Deepest path seen so far, in machine small-steps.
    pub max_depth: u64,
    /// The monotone lower bound accumulated so far, in [`BOUND_SCALE`]ths.
    pub bound_scaled: u64,
}

impl ProgressSnapshot {
    /// The bound as a float in `[0, 1]`.
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.bound_scaled as f64 / BOUND_SCALE as f64
    }
}

/// A lock-free progress cell: single writer (the engine thread), any number
/// of concurrent readers (see module docs for the seqlock protocol).
///
/// Publishing is two `fetch_add`s plus a few relaxed stores; the disabled
/// path in the engines is one `Option` discriminant check, guarded by the
/// same overhead test discipline as machine profiling.
#[derive(Debug, Default)]
pub struct ProgressCell {
    seq: AtomicU64,
    steps: AtomicU64,
    paths_terminated: AtomicU64,
    frontier: AtomicU64,
    max_depth: AtomicU64,
    bound_scaled: AtomicU64,
}

impl ProgressCell {
    /// A fresh, all-zero cell.
    #[must_use]
    pub const fn new() -> ProgressCell {
        ProgressCell {
            seq: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            paths_terminated: AtomicU64::new(0),
            frontier: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
            bound_scaled: AtomicU64::new(0),
        }
    }

    /// Opens a write section: bumps the sequence to odd. Readers that land
    /// inside the section retry.
    fn write_begin(&self) {
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Closes a write section: bumps the sequence back to even.
    fn write_end(&self) {
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Publishes the exploration-side numbers (called from the engine's
    /// cooperative-check poll points). `depth` only ratchets `max_depth`
    /// upward.
    pub fn publish_exploration(&self, steps: u64, frontier: u64, depth: u64) {
        self.write_begin();
        self.steps.store(steps, Ordering::Relaxed);
        self.frontier.store(frontier, Ordering::Relaxed);
        if depth > self.max_depth.load(Ordering::Relaxed) {
            self.max_depth.store(depth, Ordering::Relaxed);
        }
        self.write_end();
    }

    /// Publishes the measurement-side numbers (called the instant a path
    /// terminates and its volume lands): cumulative path count and the
    /// monotone bound in `[0, 1]`. Out-of-range floats are clamped; the
    /// stored fixed point never decreases.
    pub fn publish_terminated(&self, paths_terminated: u64, bound: f64) {
        let scaled = if bound.is_finite() {
            (bound.clamp(0.0, 1.0) * BOUND_SCALE as f64) as u64
        } else {
            0
        };
        self.publish_terminated_scaled(paths_terminated, scaled);
    }

    /// [`ProgressCell::publish_terminated`] with the bound already in
    /// [`BOUND_SCALE`]ths (clamped to `BOUND_SCALE`). A float bound is
    /// rounded to nearest on its way here and may overstate a sound lower
    /// bound; a writer that holds the exact bound rounds it down itself and
    /// publishes through this method.
    pub fn publish_terminated_scaled(&self, paths_terminated: u64, bound_scaled: u64) {
        let scaled = bound_scaled.min(BOUND_SCALE);
        self.write_begin();
        self.paths_terminated.store(paths_terminated, Ordering::Relaxed);
        if scaled > self.bound_scaled.load(Ordering::Relaxed) {
            self.bound_scaled.store(scaled, Ordering::Relaxed);
        }
        self.write_end();
    }

    /// Reads a consistent snapshot, retrying while a write is in flight.
    ///
    /// The retry loop is bounded in practice by the writer's publish rate
    /// (every 256 work units at the earliest); a reader that keeps losing
    /// races still makes progress because write sections are a handful of
    /// relaxed stores long.
    #[must_use]
    pub fn snapshot(&self) -> ProgressSnapshot {
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let snap = ProgressSnapshot {
                steps: self.steps.load(Ordering::Relaxed),
                paths_terminated: self.paths_terminated.load(Ordering::Relaxed),
                frontier: self.frontier.load(Ordering::Relaxed),
                max_depth: self.max_depth.load(Ordering::Relaxed),
                bound_scaled: self.bound_scaled.load(Ordering::Relaxed),
            };
            std::sync::atomic::fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == before {
                return snap;
            }
            std::hint::spin_loop();
        }
    }
}

/// A settable instantaneous measurement (bytes held, entries resident, …),
/// the up-and-down counterpart of the monotone [`Counter`](crate::Counter).
///
/// Like `Counter`, all operations are `Relaxed`: gauges are statistics, not
/// synchronization edges.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zeroed gauge.
    #[must_use]
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the gauge to an absolute value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds to the gauge.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts from the gauge, saturating at zero.
    pub fn sub(&self, n: u64) {
        let _ = self.0.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(n))
        });
    }

    /// Raises the gauge to `value` if it is higher — a monotone high-water
    /// mark (largest fan-out seen, deepest queue observed, …). Returns the
    /// value in force after the ratchet.
    pub fn ratchet(&self, value: u64) -> u64 {
        self.0.fetch_max(value, Ordering::Relaxed).max(value)
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn snapshots_report_published_values() {
        let cell = ProgressCell::new();
        assert_eq!(cell.snapshot(), ProgressSnapshot::default());
        cell.publish_exploration(512, 7, 40);
        cell.publish_terminated(3, 0.25);
        let s = cell.snapshot();
        assert_eq!(s.steps, 512);
        assert_eq!(s.frontier, 7);
        assert_eq!(s.max_depth, 40);
        assert_eq!(s.paths_terminated, 3);
        assert_eq!(s.bound_scaled, BOUND_SCALE / 4);
        assert!((s.bound() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_depth_and_bound_only_ratchet_upward() {
        let cell = ProgressCell::new();
        cell.publish_exploration(1, 0, 100);
        cell.publish_exploration(2, 0, 30);
        assert_eq!(cell.snapshot().max_depth, 100);
        cell.publish_terminated(1, 0.5);
        cell.publish_terminated(2, 0.4); // float jitter must not regress the bound
        assert_eq!(cell.snapshot().bound_scaled, BOUND_SCALE / 2);
        // Non-finite and out-of-range inputs are defanged.
        cell.publish_terminated(3, f64::NAN);
        cell.publish_terminated(4, 7.0);
        assert_eq!(cell.snapshot().bound_scaled, BOUND_SCALE);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_snapshots() {
        // The writer maintains the invariant `paths_terminated == steps` in
        // every publish; a torn read would break it.
        let cell = Arc::new(ProgressCell::new());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let s = cell.snapshot();
                        assert_eq!(
                            s.steps, s.paths_terminated,
                            "torn snapshot: steps {} vs paths {}",
                            s.steps, s.paths_terminated
                        );
                        assert!(s.steps >= last, "snapshot went backwards");
                        last = s.steps;
                    }
                })
            })
            .collect();
        for i in 1..=50_000u64 {
            cell.write_begin();
            cell.steps.store(i, Ordering::Relaxed);
            cell.paths_terminated.store(i, Ordering::Relaxed);
            cell.write_end();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let s = cell.snapshot();
        assert_eq!(s.steps, 50_000);
    }

    #[test]
    fn gauges_set_add_sub_and_saturate() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
    }

    #[test]
    fn gauge_ratchet_is_a_monotone_high_water_mark() {
        let g = Gauge::new();
        assert_eq!(g.ratchet(7), 7);
        assert_eq!(g.ratchet(3), 7, "lower values never regress the mark");
        assert_eq!(g.ratchet(9), 9);
        assert_eq!(g.get(), 9);
    }
}
