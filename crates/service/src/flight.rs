//! The flight table: one record per engine run in flight.
//!
//! An entry, keyed by the run's [`CacheKey`], is everything the server knows
//! about one run: the leader's `id`, op, admission time and [`Phase`] (what
//! `inspect` shows), the run's [`ProgressCell`], the limit cell that joiners
//! raise, and the waiters — identical requests coalesced onto the run instead
//! of running their own. Every coalescing decision is one of the table's
//! operations: [`FlightTable::arrive`] (lead or join), [`FlightTable::tick`],
//! [`FlightTable::finish`] and [`FlightTable::retire`].
//!
//! The table is single-threaded and does no I/O: the caller holds it under a
//! lock, passes the clock in, and renders and writes the replies the
//! operations hand back outside that lock. The reply handle `W` is a type
//! parameter, so tests substitute a fake.
//!
//! Serving a waiter mid-run rests on the anytime property (Theorem 3.4):
//! every terminated path certifies its mass on its own, so a run's live
//! bound is a sound lower bound at any moment.

use crate::cache::CacheKey;
use crate::protocol::Op;
use probterm_telemetry::ProgressCell;
use serde::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a run is: led and waiting in the queue, looking up the result
/// cache on a worker, or running its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Queue,
    Cache,
    Engine,
}

impl Phase {
    /// The `inspect` spelling of the phase.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Queue => "queue",
            Phase::Cache => "cache",
            Phase::Engine => "engine",
        }
    }
}

/// The handles an engine run shares with its flight record: the leader's
/// admission, the milliseconds from it the run may burn (`u64::MAX` is
/// unbounded; joiners only ever raise it), and the run's live progress.
#[derive(Debug, Clone)]
pub struct Run {
    pub admitted: Instant,
    pub limit_ms: Arc<AtomicU64>,
    pub progress: Arc<ProgressCell>,
}

/// One arriving request — a flight's leader, or a waiter on it: its id,
/// where its frames and reply go, its own deadline (from `arrived`), and
/// whether it asked for progress frames.
#[derive(Debug)]
pub struct Waiter<W> {
    pub id: Option<Value>,
    pub reply: W,
    pub deadline_ms: Option<u64>,
    pub stream: bool,
    pub arrived: Instant,
}

impl<W> Waiter<W> {
    fn expires(&self) -> Option<Instant> {
        self.deadline_ms.map(|ms| self.arrived + Duration::from_millis(ms))
    }
}

/// The one record of one engine run: its leader's id and op, where the run
/// is, its shared handles, and the requests coalesced onto it.
#[derive(Debug)]
pub struct Flight<W> {
    pub id: Option<Value>,
    pub op: Op,
    pub phase: Phase,
    pub run: Run,
    pub waiters: Vec<Waiter<W>>,
}

/// Whether an arrival leads a new flight — it runs the engine and answers
/// the waiters — or joins the one in the table as a waiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Lead,
    Join,
}

/// What one [`FlightTable::tick`] hands back for the caller to answer: the
/// waiters whose own deadline expired, removed from the flight, and the id
/// and reply handle of every streaming waiter that remains.
#[derive(Debug)]
pub struct Tick<W> {
    pub expired: Vec<Waiter<W>>,
    pub streaming: Vec<(Option<Value>, W)>,
}

/// Every engine run in flight, at most one per key.
#[derive(Debug)]
pub struct FlightTable<W> {
    flights: HashMap<CacheKey, Flight<W>>,
}

impl<W: Clone> FlightTable<W> {
    /// An empty table.
    pub fn new() -> FlightTable<W> {
        FlightTable { flights: HashMap::new() }
    }

    /// `true` while a run of `key` is in flight.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.flights.contains_key(key)
    }

    /// Leads a new flight of `key` in phase [`Phase::Queue`], its limit the
    /// arrival's own deadline; or joins the flight in the table, raising its
    /// limit so the run lasts at least until the joiner's deadline (to the
    /// unbounded `u64::MAX` for a joiner without one).
    pub fn arrive(&mut self, key: &CacheKey, op: Op, arrival: Waiter<W>) -> Role {
        let Some(flight) = self.flights.get_mut(key) else {
            let run = Run {
                admitted: arrival.arrived,
                limit_ms: Arc::new(AtomicU64::new(arrival.deadline_ms.unwrap_or(u64::MAX))),
                progress: Arc::new(ProgressCell::new()),
            };
            let flight = Flight { id: arrival.id, op, phase: Phase::Queue, run, waiters: Vec::new() };
            self.flights.insert(key.clone(), flight);
            return Role::Lead;
        };
        let limit = arrival.expires().map_or(u64::MAX, |at| {
            let nanos = at.saturating_duration_since(flight.run.admitted).as_nanos();
            u64::try_from(nanos.div_ceil(1_000_000)).unwrap_or(u64::MAX)
        });
        flight.run.limit_ms.fetch_max(limit, Ordering::Relaxed);
        flight.waiters.push(arrival);
        Role::Join
    }

    /// Moves the flight of `key` to `phase` and returns its run's handles;
    /// `None` when no such flight is in the table.
    pub fn enter(&mut self, key: &CacheKey, phase: Phase) -> Option<Run> {
        let flight = self.flights.get_mut(key)?;
        flight.phase = phase;
        Some(flight.run.clone())
    }

    /// Peels off the waiters of `key` whose deadline expired by `now`, and
    /// lists the streaming waiters that remain.
    pub fn tick(&mut self, key: &CacheKey, now: Instant) -> Tick<W> {
        let Some(flight) = self.flights.get_mut(key) else {
            return Tick { expired: Vec::new(), streaming: Vec::new() };
        };
        let (expired, waiters) = std::mem::take(&mut flight.waiters)
            .into_iter()
            .partition(|waiter| waiter.expires().is_some_and(|at| at <= now));
        flight.waiters = waiters;
        let streaming = flight
            .waiters
            .iter()
            .filter(|waiter| waiter.stream)
            .map(|waiter| (waiter.id.clone(), waiter.reply.clone()))
            .collect();
        Tick { expired, streaming }
    }

    /// Removes the flight of `key`: its run is decided. Hands back its
    /// waiters, each owed the run's outcome.
    pub fn finish(&mut self, key: &CacheKey) -> Vec<Waiter<W>> {
        self.flights.remove(key).map_or_else(Vec::new, |flight| flight.waiters)
    }

    /// Removes every flight: the worker pool is gone and none will run. Each
    /// waiter handed back is owed a structured error.
    pub fn retire(&mut self) -> Vec<(CacheKey, Flight<W>)> {
        self.flights.drain().collect()
    }

    /// Every flight in the table, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &Flight<W>> {
        self.flights.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn key_of(n: u8) -> CacheKey {
        CacheKey { term: u128::from(n), analysis: "lower", config: String::new() }
    }

    /// The limit a flight must at least hold: `u64::MAX` when the leader or
    /// a waiter has no deadline, else the latest deadline from admission.
    fn required_limit(run: &Run, leader_deadline: Option<u64>, waiters: &[Waiter<u32>]) -> u64 {
        let mut required = leader_deadline.unwrap_or(u64::MAX);
        for waiter in waiters {
            let Some(at) = waiter.expires() else { return u64::MAX };
            let ms = at.saturating_duration_since(run.admitted).as_nanos().div_ceil(1_000_000);
            required = required.max(ms as u64);
        }
        required
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of arrivals (with or without a deadline and
        /// streaming), ticks, finishes and retires over three keys.
        #[test]
        fn every_waiter_gets_exactly_one_reply(
            steps in proptest::collection::vec((0u8..8, 0u8..3, 0u64..400, any::<bool>()), 1..80),
        ) {
            let origin = Instant::now();
            let mut table = FlightTable::<u32>::new();
            let mut now = origin;
            let mut next_waiter = 0u32;
            let mut joined = HashSet::new();
            let mut replied = HashSet::new();
            // Per key: the leader's deadline and the limit last observed.
            let mut leaders: HashMap<u8, (Option<u64>, u64)> = HashMap::new();
            let reply_once = |waiters: Vec<Waiter<u32>>, replied: &mut HashSet<u32>| {
                for waiter in waiters {
                    assert!(replied.insert(waiter.reply), "waiter {} replied twice", waiter.reply);
                }
            };
            for (action, k, ms, stream) in steps {
                now += Duration::from_millis(ms / 4);
                let key = key_of(k);
                match action {
                    0..=3 => {
                        let deadline_ms = (ms % 5 != 0).then_some(ms);
                        next_waiter += 1;
                        let arrival =
                            Waiter { id: None, reply: next_waiter, deadline_ms, stream, arrived: now };
                        let led = table.contains(&key);
                        match table.arrive(&key, Op::Lower, arrival) {
                            Role::Lead => {
                                prop_assert!(!led, "a second flight of one key");
                                leaders.insert(k, (deadline_ms, deadline_ms.unwrap_or(u64::MAX)));
                            }
                            Role::Join => {
                                prop_assert!(led, "joined a flight that did not exist");
                                joined.insert(next_waiter);
                            }
                        }
                    }
                    4 | 5 => {
                        let Tick { expired, streaming } = table.tick(&key, now);
                        for waiter in &expired {
                            prop_assert!(waiter.expires().is_some_and(|at| at <= now));
                        }
                        for (_, reply) in &streaming {
                            prop_assert!(!replied.contains(reply));
                        }
                        reply_once(expired, &mut replied);
                    }
                    6 => {
                        reply_once(table.finish(&key), &mut replied);
                        leaders.remove(&k);
                        prop_assert!(!table.contains(&key), "a finished flight stayed");
                    }
                    _ => {
                        for (_, flight) in table.retire() {
                            reply_once(flight.waiters, &mut replied);
                        }
                        leaders.clear();
                        prop_assert_eq!(table.iter().count(), 0, "a retired flight stayed");
                    }
                }
                prop_assert_eq!(table.iter().count(), leaders.len());
                for (k, (leader_deadline, last_limit)) in leaders.iter_mut() {
                    let flight = &table.flights[&key_of(*k)];
                    let limit = flight.run.limit_ms.load(Ordering::Relaxed);
                    prop_assert!(limit >= *last_limit, "the limit decreased");
                    let required = required_limit(&flight.run, *leader_deadline, &flight.waiters);
                    prop_assert!(limit >= required, "limit {} below a deadline {}", limit, required);
                    *last_limit = limit;
                }
            }
            for (_, flight) in table.retire() {
                reply_once(flight.waiters, &mut replied);
            }
            prop_assert_eq!(&joined, &replied);
        }
    }

    #[test]
    fn the_leader_is_in_phase_queue_until_a_worker_enters_it() {
        let mut table = FlightTable::<u32>::new();
        let now = Instant::now();
        let arrival = Waiter { id: None, reply: 0, deadline_ms: None, stream: false, arrived: now };
        assert_eq!(table.arrive(&key_of(1), Op::Verify, arrival), Role::Lead);
        assert_eq!(table.iter().next().map(|f| f.phase), Some(Phase::Queue));
        let run = table.enter(&key_of(1), Phase::Cache).expect("the flight is in the table");
        assert_eq!(run.admitted, now);
        assert_eq!(run.limit_ms.load(Ordering::Relaxed), u64::MAX);
        assert_eq!(table.iter().next().map(|f| f.phase), Some(Phase::Cache));
        assert!(table.enter(&key_of(2), Phase::Engine).is_none());
    }
}
