//! Allocation budget of the Table 1 path: heap allocations per machine fork
//! of a `lower_bound` run on `gr`, counted by a global allocator local to
//! this test binary.
//!
//! The run makes 4,941 forks. Before exact volumes took one-variable groups
//! in closed form, constant folding stopped collecting argument vectors and
//! a `fix` unrolling bound φ and x in one environment frame, it made 44,678
//! allocations (9.04 per fork). Before paths packed their branch decisions
//! into bits and both children of a fork shared one history node holding
//! the guard, and before environment chains dropped without a worklist, it
//! made 28,173 (5.70 per fork); it now makes 16,990 (3.44 per fork). The
//! budget is three quarters of the previous rate, so a change that brings
//! back most of the removed traffic fails here.

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

/// Allocations per fork before packed branch decisions and shared fork
/// nodes (28,173 / 4,941).
const OLD_ALLOCATIONS_PER_FORK: f64 = 5.70;

#[test]
fn gr_stays_within_its_allocation_budget_per_fork() {
    let gr = catalog::golden_ratio();
    let config =
        LowerBoundConfig::default().with_depth(80).with_max_paths(5_000).with_profile(true);
    // This binary runs one test, so no other thread allocates meanwhile.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = lower_bound(&gr.term, &config);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(result.probability, Rational::from_ratio(2469, 4096));
    let forks = result.profile.expect("profiled run").forks;
    assert_eq!(forks, 4_941);
    let per_fork = allocations as f64 / forks as f64;
    assert!(
        per_fork <= 0.75 * OLD_ALLOCATIONS_PER_FORK,
        "{allocations} allocations for {forks} forks: {per_fork:.2} per fork, budget {:.2}",
        0.75 * OLD_ALLOCATIONS_PER_FORK
    );
}
