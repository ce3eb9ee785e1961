//! The host-speed reference: a fixed piece of work that belongs to the
//! benchmark alone, so no change to the program under test can speed it up
//! or slow it down.
//!
//! On a shared 2-vCPU virtual machine the same pass of `nonlinear` took
//! 0.77 s in one minute and 1.3 s in the next, and `table1` moved by 1.35×,
//! while a run's CPU time kept pace with its wall time: the slowdown is
//! throughput lost to other tenants of the host, not time spent waiting.
//! Timing the reference right before and after each measured slice of work
//! reads the host's speed while the slice ran. Every time the benchmark
//! reports is scaled by the ratio of `NOMINAL_S` to the mean of the two
//! reference times around its slice, which cancels most of those shifts.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference time scaled times are expressed against: a scaled time is
/// what the work would take on a host that runs the reference in
/// `NOMINAL_S`. It is close to the reference's time on the 2-vCPU x86-64
/// host the benchmark was tuned on, so scaled times read close to measured
/// ones there.
pub const NOMINAL_S: f64 = 0.03;

/// The reference work: big-number products in fresh allocations, a sort,
/// an ordered map and allocation churn, in fixed sizes. These keep many
/// execution units busy, as the engines and the server do, so contention
/// from other tenants of the host slows them as it slows the program.
/// Latency-bound work (divisions, dependent floating-point chains) is left
/// out: it slowed by under 5% while the engines slowed by 35-70%. Returns a
/// checksum so none of it is optimized away.
fn reference_work() -> u64 {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut sum = 0u64;

    // Schoolbook products of 24-limb numbers, each in a fresh allocation.
    for _ in 0..1_500 {
        let a: Vec<u32> = (0..24).map(|_| next() as u32).collect();
        let b: Vec<u32> = (0..24).map(|_| next() as u32).collect();
        let mut product = vec![0u32; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in b.iter().enumerate() {
                let t = u64::from(x) * u64::from(y) + u64::from(product[i + j]) + carry;
                product[i + j] = t as u32;
                carry = t >> 32;
            }
            product[i + b.len()] = carry as u32;
        }
        sum = sum.wrapping_add(u64::from(black_box(&product)[24]));
    }

    let mut keys: Vec<u64> = (0..40_000).map(|_| next()).collect();
    keys.sort_unstable();
    sum = sum.wrapping_add(keys[keys.len() / 2]);

    let mut map = BTreeMap::new();
    for (i, key) in keys.iter().enumerate().take(10_000) {
        map.insert(key.rotate_left(17), i as u64);
    }
    for key in keys.iter().take(10_000).step_by(2) {
        sum = sum.wrapping_add(map.remove(&key.rotate_left(17)).unwrap_or(0));
    }
    sum = sum.wrapping_add(map.len() as u64);

    // Vectors of 1 to 12 words, freed in random order.
    let mut live: Vec<Vec<u64>> = Vec::new();
    for _ in 0..60_000 {
        if live.len() > 256 {
            let i = (next() % live.len() as u64) as usize;
            sum = sum.wrapping_add(live.swap_remove(i).len() as u64);
        }
        let n = 1 + (next() % 12) as usize;
        live.push(vec![next(); n]);
    }
    sum
}

/// Rounds of the reference work in one reference timing, about 30 ms.
const ROUNDS: usize = 3;

/// Runs the reference once and returns its wall time in seconds.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    for _ in 0..ROUNDS {
        black_box(reference_work());
    }
    start.elapsed().as_secs_f64()
}

/// The host's speed, read by timing the reference around each measured
/// slice of work.
pub struct HostSpeed {
    /// The reference time taken at the end of the previous slice.
    last: f64,
}

impl HostSpeed {
    /// Opens the first slice: times the reference once, after a first
    /// untimed run that pays its page faults.
    pub fn new() -> HostSpeed {
        black_box(reference_work());
        HostSpeed {
            last: reference_s(),
        }
    }

    /// Ends a slice and opens the next: times the reference again and
    /// returns the factor that converts the slice's times to seconds on the
    /// nominal host, `NOMINAL_S` over the mean of the reference times
    /// around the slice.
    pub fn factor(&mut self) -> f64 {
        let now = reference_s();
        let factor = NOMINAL_S / ((self.last + now) / 2.0);
        self.last = now;
        factor
    }
}
