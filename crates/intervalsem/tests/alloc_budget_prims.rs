//! Allocation budget of primitive steps: heap allocations per counted
//! reduction step of a `lower_bound` run on 1dRW(1/2,1), a walk whose every
//! step applies `+` or `-` to constants, counted by a global allocator local
//! to this test binary.
//!
//! The run counts 3,574 steps. When each primitive application collected
//! its arguments into a heap vector and each fork deep-copied its guard, it
//! made 4,735 allocations (1.32 per step); with the arguments inline and one
//! shared guard per fork it makes 2,016. The budget is three quarters
//! of the old rate, so a change that brings back a vector per primitive
//! step fails here.
//!
//! The counter is global to the process, so this binary holds this one
//! test: a second test running in parallel would be counted too.

use probterm_intervalsem::{lower_bound, LowerBoundConfig};
use probterm_numerics::Rational;
use probterm_spcf::catalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per counted step with a vector per primitive application
/// (4,735 / 3,574).
const OLD_ALLOCATIONS_PER_STEP: f64 = 1.32;

#[test]
fn random_walk_stays_within_its_allocation_budget_per_step() {
    let walk = catalog::random_walk_1d(Rational::half(), 1);
    let config = LowerBoundConfig::default().with_depth(100).with_profile(true);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = lower_bound(&walk.term, &config);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let steps = result.profile.expect("profiled run").steps;
    assert_eq!(steps, 3_574);
    let per_step = allocations as f64 / steps as f64;
    assert_eq!(result.probability, Rational::from_ratio(93, 128));
    assert!(
        per_step <= 0.75 * OLD_ALLOCATIONS_PER_STEP,
        "{allocations} allocations for {steps} steps: {per_step:.2} per step, budget {:.2}",
        0.75 * OLD_ALLOCATIONS_PER_STEP
    );
}
