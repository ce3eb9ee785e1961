//! Asserts the engine's observation hooks are near-free when unused.
//!
//! The instrumentation on the environment machine is one `Option`
//! discriminant check per step and per paused event (plus `Cell` bumps when
//! a profile is attached). The first guard times the `symbolic_scaling`
//! geometric workload with profiling off and with profiling on: the disabled
//! path must cost at most 5 % more than the *fully instrumented* path (plus a
//! small absolute slack for timer noise). Since an enabled run does strictly
//! more work than a disabled one, staying within 5 % of it demonstrates the
//! disabled check is in the noise. The second guard holds the lower-bound
//! engine's no-op poll hook to the same bound against a hook that publishes
//! into a [`ProgressCell`] the way the analysis service does. Both guards
//! time the measuring thread's CPU time, not wall-clock time, so a
//! descheduled thread is not charged for other processes' work. CPU time
//! still varies with cache and frequency effects, so each measurement takes
//! the minimum of several repetitions (the same discipline as the
//! `symbolic_scaling` test), the two variants of a guard are timed
//! alternately so that host drift hits both equally, and the two guards
//! never time concurrently.

use probterm_intervalsem::{
    explore, lower_bound, try_lower_bound, ExplorationConfig, LowerBoundConfig, Poll,
};
use probterm_numerics::Rational;
use probterm_spcf::catalog;
use probterm_telemetry::ProgressCell;
use std::convert::Infallible;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

/// Held by each timing test for its whole run: the test harness runs tests
/// in parallel, and one test timing while the other loads the CPU makes
/// either bound flaky.
static TIMING: Mutex<()> = Mutex::new(());

/// The calling thread's CPU time so far, from the first field of
/// `/proc/thread-self/schedstat` (nanoseconds on the CPU). The kernel brings
/// that sum up to date when the thread is scheduled, so it yields first.
fn thread_cpu_time() -> Duration {
    thread::yield_now();
    let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat");
    let nanos = schedstat.split_whitespace().next().and_then(|ns| ns.parse().ok());
    Duration::from_nanos(nanos.expect("schedstat starts with the CPU time in ns"))
}

/// Best-of-seven times of `run(false)` and `run(true)`, timed alternately
/// in one loop so that drift in the host's speed during the measurement
/// hits both variants equally. One untimed call of each warms allocators
/// and caches first.
fn best_of_alternating(run: impl Fn(bool) -> Duration) -> (Duration, Duration) {
    let _ = (run(false), run(true));
    let (mut disabled, mut enabled) = (Duration::MAX, Duration::MAX);
    for _ in 0..7 {
        disabled = disabled.min(run(false));
        enabled = enabled.min(run(true));
    }
    (disabled, enabled)
}

/// CPU time of one exploration of geo(1/2), with or without a profile.
fn time_exploration(profile: bool) -> Duration {
    let geo = catalog::geometric(Rational::from_ratio(1, 2)).term;
    let config = ExplorationConfig::default()
        .with_max_steps_per_path(400)
        .with_max_paths(20_000)
        .with_profile(profile);
    let start = thread_cpu_time();
    let exploration = explore(&geo, &config);
    let elapsed = thread_cpu_time() - start;
    assert_eq!(exploration.profile.is_some(), profile);
    if profile {
        let p = exploration.profile.as_ref().unwrap();
        assert!(p.steps > 0, "an enabled profile must tally machine steps");
        assert!(p.total_events() > 0, "an enabled profile must tally events");
    }
    elapsed
}

/// `lower_bound` runs per timed sample of [`time_lower_bound`]. One run
/// takes ~16 ms in a debug build, short enough for a few milliseconds of
/// descheduling to invert a 5 % comparison; eight make a sample ~130 ms.
const RUNS_PER_SAMPLE: usize = 8;

/// CPU time of [`RUNS_PER_SAMPLE`] `lower_bound` runs on geo(1/2) at depth 400.
/// With `publish`, each run goes through `try_lower_bound` with a hook that
/// publishes into a fresh [`ProgressCell`] as the analysis service's does;
/// without, through the no-op hook of `lower_bound`.
fn time_lower_bound(publish: bool) -> Duration {
    let geo = catalog::geometric(Rational::from_ratio(1, 2)).term;
    let config = LowerBoundConfig::default().with_depth(400).with_max_paths(20_000);
    let cells: Vec<ProgressCell> = (0..RUNS_PER_SAMPLE).map(|_| ProgressCell::new()).collect();
    let run = |cell: &ProgressCell| {
        let (mut bound, mut paths) = (0.0, 0u64);
        let mut poll = |poll: Poll<'_>| {
            match poll {
                Poll::Explore { work, frontier, depth } => {
                    cell.publish_exploration(work as u64, frontier as u64, depth as u64);
                }
                Poll::Measured(measure) => {
                    bound += measure.volume.to_f64();
                    paths += 1;
                    cell.publish_terminated(paths, bound);
                }
                Poll::Sweep => {}
            }
            Ok::<(), Infallible>(())
        };
        if publish {
            try_lower_bound(&geo, &config, None, &mut poll).result
        } else {
            lower_bound(&geo, &config)
        }
    };
    let start = thread_cpu_time();
    let results: Vec<_> = cells.iter().map(run).collect();
    let elapsed = thread_cpu_time() - start;
    for (result, cell) in results.iter().zip(&cells) {
        assert!(result.probability.is_positive());
        if publish {
            let snap = cell.snapshot();
            assert!(snap.steps > 0, "an attached cell must see exploration work");
            assert!(snap.paths_terminated > 0, "an attached cell must see terminated paths");
            assert!(snap.bound_scaled > 0, "an attached cell must see a nonzero bound");
        }
    }
    elapsed
}

#[test]
fn disabled_profiling_costs_less_than_five_percent() {
    let _serial = TIMING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (disabled, enabled) = best_of_alternating(time_exploration);
    let budget = enabled.as_secs_f64() * 1.05 + 0.002;
    assert!(
        disabled.as_secs_f64() <= budget,
        "the disabled-instrumentation path ({disabled:?}) costs more than 5 % over the \
         fully profiled run ({enabled:?}); the per-step enabled check is not near-free"
    );
}

/// A run nobody observes calls a no-op poll hook at every poll point and
/// once per terminated path. Same discipline as the profiling guard above:
/// the no-op run must stay within 5 % of the *publishing* run (plus
/// timer-noise slack), which does strictly more work.
#[test]
fn disabled_progress_costs_less_than_five_percent() {
    let _serial = TIMING.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (disabled, enabled) = best_of_alternating(time_lower_bound);
    let budget = enabled.as_secs_f64() * 1.05 + 0.002;
    assert!(
        disabled.as_secs_f64() <= budget,
        "the no-op hook ({disabled:?}) costs more than 5 % over the \
         publishing run ({enabled:?}); the per-poll hook call is not near-free"
    );
}
