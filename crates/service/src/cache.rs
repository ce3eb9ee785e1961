//! Bounded, content-addressed LRU cache of typed analysis results, the
//! policy over them, and their on-disk snapshot format.
//!
//! Keys combine the α-invariant canonical hash of the program
//! ([`probterm_core::spcf::Term::canonical_key`]) with the analysis tag and a
//! rendered configuration string, so syntactically distinct but α-equivalent
//! resubmissions of the same request are cache hits. Values are [`Entry`]s:
//! the `result` payload of a successful reply (error replies are never
//! cached) together with its [`EntryStatus`] — complete, or a
//! deadline-truncated partial carrying its exact bound, the engine time it
//! embodies and, for `lower`, the checkpoint a richer retry resumes from.
//!
//! Two pure functions hold the policy: [`decide`] (serve a found entry, or
//! run the engine and resume from it) and [`supersedes`] (the no-downgrade
//! rule). This module is the only one that knows the entry format, in
//! memory and on disk.
//!
//! Recency is tracked with a monotone tick per entry; eviction scans for the
//! minimum tick. That makes `insert` O(capacity) in the worst case, which is
//! fine for the bounded sizes the service uses (default 1024) — the entries
//! being displaced each cost an engine run that is orders of magnitude more
//! expensive than the scan.

use crate::protocol::{render_line, Op};
use probterm_core::intervalsem::{LowerBoundCheckpoint, ReplaySeed};
use probterm_core::numerics::Rational;
use serde::Value;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The content address of one analysis result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// α-invariant canonical hash of the analysed term.
    pub term: u128,
    /// Analysis tag (the request op).
    pub analysis: &'static str,
    /// Rendered analysis configuration (depth, runs, seed, strategy, ...).
    pub config: String,
}

/// Whether a cached result is the finished analysis or a deadline-truncated
/// one.
#[derive(Debug, Clone, PartialEq)]
pub enum EntryStatus {
    /// The analysis ran to completion.
    Complete,
    /// A deadline (or a drain) cut the run short.
    Partial {
        /// The exact sound lower bound the payload reports.
        bound: Rational,
        /// Engine time the bound embodies, in ms, summed over a resume chain.
        work_ms: u64,
        /// Where a richer `lower` retry resumes; `None` when the frontier was
        /// empty or larger than `CHECKPOINT_MAX_FRONTIER`. Boxed, so a
        /// complete entry stays small.
        checkpoint: Option<Box<LowerBoundCheckpoint>>,
    },
}

/// One cached analysis result: the reply payload and its typed status.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The `result` object of the reply, served verbatim on a hit.
    pub payload: Value,
    /// What the payload is, in exact terms.
    pub status: EntryStatus,
}

impl Entry {
    /// A complete result.
    pub fn complete(payload: Value) -> Entry {
        Entry { payload, status: EntryStatus::Complete }
    }

    /// The entry of one engine run: complete, or a partial with `bound` and
    /// `work_ms`. A partial keeps `checkpoint` when its frontier is non-empty
    /// and at most `CHECKPOINT_MAX_FRONTIER` seeds long, and its payload
    /// then carries the rendered checkpoint as `checkpoint`.
    pub fn from_run(
        mut payload: Value,
        complete: bool,
        bound: &Rational,
        work_ms: u64,
        checkpoint: Option<LowerBoundCheckpoint>,
    ) -> Entry {
        if complete {
            return Entry::complete(payload);
        }
        let checkpoint = checkpoint.filter(|c| frontier_is_kept(c.frontier.len())).map(Box::new);
        if let (Some(checkpoint), Value::Object(fields)) = (&checkpoint, &mut payload) {
            fields.push(("checkpoint".into(), checkpoint_value(checkpoint)));
        }
        let status = EntryStatus::Partial { bound: bound.clone(), work_ms, checkpoint };
        Entry { payload, status }
    }
}

/// A cached partial is served to a deadline-bounded retry only when the
/// retry's budget is within this factor of the engine time the entry already
/// burned — a meaningfully richer budget recomputes (and upgrades the entry)
/// instead of being handed a bound it had ample time to improve.
const PARTIAL_SERVE_BUDGET_FACTOR: u64 = 2;

/// Frontier-size cap on kept checkpoints: a partial result with more paused
/// paths than this is cached without one (a retry recomputes from scratch),
/// so the entry stays bounded instead of ballooning the cache.
const CHECKPOINT_MAX_FRONTIER: usize = 4096;

fn frontier_is_kept(len: usize) -> bool {
    (1..=CHECKPOINT_MAX_FRONTIER).contains(&len)
}

/// What a request does with the entry its key found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision<'a> {
    /// Serve the cached payload.
    Serve,
    /// Run the engine — resuming from the declined partial's checkpoint,
    /// with the engine time it embodies, when it has one.
    Run(Option<(&'a LowerBoundCheckpoint, u64)>),
}

/// The serve / decline / resume decision for a request with `deadline_ms`
/// whose key found `found`. Complete entries are always served. A partial is
/// served only to a deadline within `PARTIAL_SERVE_BUDGET_FACTOR` × its
/// `work_ms` (at least 1 ms); a richer or unbounded request declines it and
/// resumes from its checkpoint, so the measured paths are never re-explored.
pub fn decide(found: Option<&EntryStatus>, deadline_ms: Option<u64>) -> Decision<'_> {
    match found {
        None => Decision::Run(None),
        Some(EntryStatus::Complete) => Decision::Serve,
        Some(EntryStatus::Partial { work_ms, checkpoint, .. }) => {
            let budget = PARTIAL_SERVE_BUDGET_FACTOR.saturating_mul((*work_ms).max(1));
            if deadline_ms.is_some_and(|deadline| deadline <= budget) {
                Decision::Serve
            } else {
                Decision::Run(checkpoint.as_deref().map(|c| (c, *work_ms)))
            }
        }
    }
}

/// The no-downgrade rule: whether a fresh result with status `new` may
/// replace a cached one with status `old`. A complete entry is never
/// replaced; a complete result replaces any partial; between partials the
/// higher exact bound wins, ties going to the one with more engine time.
pub fn supersedes(new: &EntryStatus, old: &EntryStatus) -> bool {
    match (new, old) {
        (_, EntryStatus::Complete) => false,
        (EntryStatus::Complete, EntryStatus::Partial { .. }) => true,
        (
            EntryStatus::Partial { bound, work_ms, .. },
            EntryStatus::Partial { bound: old_bound, work_ms: old_work_ms, .. },
        ) => (bound, work_ms) > (old_bound, old_work_ms),
    }
}

/// The outcome of [`ResultCache::lookup`].
#[derive(Debug)]
pub enum Lookup {
    /// Serve this payload.
    Hit(Value),
    /// Run the engine, resuming from this checkpoint (and the engine time it
    /// embodies) when a declined partial carried one.
    Miss(Option<(LowerBoundCheckpoint, u64)>),
}

/// One slot of the LRU map.
#[derive(Debug)]
struct Slot {
    entry: Entry,
    tick: u64,
    /// Approximate rendered size of the payload, in bytes (see
    /// [`approx_bytes`]).
    bytes: usize,
    /// When this entry was last inserted or served — the "last-hit" clock
    /// behind [`ResultCache::oldest_entry_ms`].
    last_hit: Instant,
}

/// Approximate rendered size of a payload in bytes: string/number lengths
/// plus structural punctuation, without actually rendering. Close enough for
/// capacity planning — the gauge is a statistic, not an accountant.
fn approx_bytes(value: &Value) -> usize {
    match value {
        Value::Null => 4,
        Value::Bool(true) => 4,
        Value::Bool(false) => 5,
        Value::Num(_) => 16,
        Value::UInt(u) => 1 + u.checked_ilog10().unwrap_or(0) as usize,
        Value::Int(_) => 16,
        Value::Str(s) => s.len() + 2,
        Value::Array(items) => {
            2 + items.iter().map(|v| approx_bytes(v) + 1).sum::<usize>()
        }
        Value::Object(fields) => {
            2 + fields
                .iter()
                .map(|(k, v)| k.len() + 4 + approx_bytes(v))
                .sum::<usize>()
        }
    }
}

/// A bounded LRU map from [`CacheKey`] to [`Entry`], with hit/miss counters
/// and byte accounting. Capacity 0 disables storage (every lookup is a
/// miss).
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    map: HashMap<CacheKey, Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Sum of the per-slot `bytes`, maintained incrementally across
    /// insert/overwrite/evict.
    bytes: usize,
}

impl ResultCache {
    /// Creates an empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(4096)),
            tick: 0,
            hits: 0,
            misses: 0,
            bytes: 0,
        }
    }

    /// Looks `key` up for a request with `deadline_ms` under [`decide`]: a
    /// served entry is a hit and bumps its recency; anything else — nothing
    /// found, or a declined partial — is a miss.
    pub fn lookup(&mut self, key: &CacheKey, deadline_ms: Option<u64>) -> Lookup {
        if let Some(payload) = self.serve(key, deadline_ms) {
            return Lookup::Hit(payload);
        }
        self.misses += 1;
        Lookup::Miss(match decide(self.peek(key).map(|entry| &entry.status), deadline_ms) {
            Decision::Run(Some((checkpoint, work_ms))) => Some((checkpoint.clone(), work_ms)),
            _ => None,
        })
    }

    /// The hit half of [`ResultCache::lookup`], for a caller with a fallback
    /// path: serves (and counts) a hit, but counts nothing otherwise — the
    /// fallback's own lookup accounts the miss.
    pub fn serve(&mut self, key: &CacheKey, deadline_ms: Option<u64>) -> Option<Value> {
        let slot = self.map.get_mut(key)?;
        if decide(Some(&slot.entry.status), deadline_ms) != Decision::Serve {
            return None;
        }
        self.tick += 1;
        slot.tick = self.tick;
        slot.last_hit = Instant::now();
        self.hits += 1;
        Some(slot.entry.payload.clone())
    }

    /// Stores `entry` unless the entry already under `key` outranks it
    /// ([`supersedes`]). The check and the store happen under one borrow, so
    /// concurrent finishers serialized by the caller's lock can never
    /// downgrade an entry.
    pub fn offer(&mut self, key: CacheKey, entry: Entry) {
        let old = self.map.get(&key).map(|slot| &slot.entry.status);
        if old.is_none_or(|old| supersedes(&entry.status, old)) {
            self.put(key, entry);
        }
    }

    /// Inserts an entry unconditionally, evicting the least-recently-used
    /// one when full.
    pub fn put(&mut self, key: CacheKey, entry: Entry) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.tick)
                .map(|(k, _)| k.clone())
            {
                if let Some(evicted) = self.map.remove(&oldest) {
                    self.bytes -= evicted.bytes;
                }
            }
        }
        let bytes = approx_bytes(&entry.payload);
        let slot = Slot { entry, tick: self.tick, bytes, last_hit: Instant::now() };
        if let Some(displaced) = self.map.insert(key, slot) {
            self.bytes -= displaced.bytes;
        }
        self.bytes += bytes;
    }

    /// Looks an entry up *without* touching recency or the hit/miss
    /// counters.
    pub fn peek(&self, key: &CacheKey) -> Option<&Entry> {
        self.map.get(key).map(|slot| &slot.entry)
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lookups that served an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that ran an engine.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Approximate total bytes held by cached payloads.
    pub fn bytes(&self) -> u64 {
        self.bytes as u64
    }

    /// Milliseconds since the *least recently served* entry was last
    /// inserted or hit — `None` when the cache is empty. A growing value
    /// under steady load means the tail of the cache is dead weight.
    pub fn oldest_entry_ms(&self) -> Option<u64> {
        self.map
            .values()
            .map(|slot| slot.last_hit)
            .min()
            .map(|t| t.elapsed().as_millis() as u64)
    }

    /// Every cached `(key, entry)` pair in recency order (least recently
    /// used first), without touching counters or recency.
    fn entries(&self) -> impl Iterator<Item = (&CacheKey, &Entry)> {
        let mut rows: Vec<(&CacheKey, &Slot)> = self.map.iter().collect();
        rows.sort_by_key(|(_, slot)| slot.tick);
        rows.into_iter().map(|(k, slot)| (k, &slot.entry))
    }

    /// Renders the whole cache as a snapshot file: the
    /// [`CACHE_SNAPSHOT_VERSION`] stamp, then one `<len> <json>` line per
    /// entry, least recently used first so a truncated reload keeps the
    /// hottest entries. Returns the text and the number of entries.
    pub fn snapshot(&self) -> (String, usize) {
        use std::fmt::Write as _;
        let mut body = format!("{CACHE_SNAPSHOT_VERSION}\n");
        let mut count = 0;
        for (key, entry) in self.entries() {
            let line = render_snapshot_line(key, entry);
            let _ = writeln!(body, "{} {line}", line.len());
            count += 1;
        }
        (body, count)
    }

    /// Loads a snapshot file's entries; returns `(loaded, rejected)`, where
    /// `loaded` counts the file's entries still resident afterwards (a
    /// snapshot larger than the capacity evicts its own oldest lines). A
    /// file with any other stamp is rejected wholesale, counted once. Each
    /// line that fails to parse or validate (see [`CACHE_SNAPSHOT_VERSION`])
    /// is rejected and counted.
    pub fn load_snapshot(&mut self, text: &str) -> (u64, u64) {
        let mut lines = text.lines();
        if lines.next() != Some(CACHE_SNAPSHOT_VERSION) {
            return (0, 1);
        }
        let mut keys = HashSet::new();
        let mut rejected = 0;
        for line in lines.filter(|l| !l.is_empty()) {
            match parse_snapshot_line(line) {
                Some((key, entry)) => {
                    keys.insert(key.clone());
                    self.put(key, entry);
                }
                None => rejected += 1,
            }
        }
        let loaded = keys.iter().filter(|key| self.map.contains_key(*key)).count();
        (loaded as u64, rejected)
    }
}

/// Version stamp on the first line of a cache snapshot file. Each further
/// line is `<len> <json>`, the JSON carrying the term key as 32 hex digits,
/// the analysis tag, the config string, the `status` (`"complete"`, or
/// `{"bound": "<exact rational>", "work_ms": N}`) and the payload, whose
/// `checkpoint` field a partial `lower` entry resumes from. Loading rejects
/// a partial whose bound lies outside [0, 1], or whose checkpoint is
/// malformed or holds a mass other than its bound.
///
/// The stamp names two revisions: the entry schema (`v3`) and the engines
/// that computed the payloads (`engine-N`). Bump the schema when the line
/// format changes, and the engine revision whenever a bound, verdict or
/// `papprox` the engines compute changes, so that no snapshot keeps serving
/// results the current engines would not give; the test
/// `the_stamp_pins_the_engines_results` fails until it is bumped.
pub const CACHE_SNAPSHOT_VERSION: &str = "probterm-cache-v3-engine-2";

fn render_snapshot_line(key: &CacheKey, entry: &Entry) -> String {
    let status = match &entry.status {
        EntryStatus::Complete => Value::Str("complete".into()),
        EntryStatus::Partial { bound, work_ms, .. } => Value::Object(vec![
            ("bound".into(), Value::Str(bound.to_string())),
            ("work_ms".into(), Value::UInt(u128::from(*work_ms))),
        ]),
    };
    render_line(Value::Object(vec![
        ("term".into(), Value::Str(format!("{:032x}", key.term))),
        ("analysis".into(), Value::Str(key.analysis.to_string())),
        ("config".into(), Value::Str(key.config.clone())),
        ("status".into(), status),
        ("payload".into(), entry.payload.clone()),
    ]))
}

/// Parses one `<len> <json>` snapshot line back into a cache entry; `None`
/// for anything that fails the length check, does not parse, names an
/// unknown analysis, or fails validation.
fn parse_snapshot_line(line: &str) -> Option<(CacheKey, Entry)> {
    let (len, json) = line.split_once(' ')?;
    if len.parse::<usize>().ok()? != json.len() {
        return None;
    }
    let row: Value = serde_json::from_str(json).ok()?;
    let term = u128::from_str_radix(row.get("term")?.as_str()?, 16).ok()?;
    // Map the persisted tag back onto the `&'static str` the cache interns.
    let analysis = Op::from_str(row.get("analysis")?.as_str()?)
        .filter(|op| op.is_engine_op())?
        .as_str();
    let config = row.get("config")?.as_str()?.to_string();
    let payload = row.get("payload")?.clone();
    let status = match row.get("status")? {
        Value::Str(status) if status == "complete" => EntryStatus::Complete,
        partial => {
            let bound = Rational::parse(partial.get("bound")?.as_str()?)?;
            let work_ms = partial.get("work_ms")?.as_u64()?;
            let checkpoint = match payload.get("checkpoint") {
                Some(value) if analysis == Op::Lower.as_str() => {
                    Some(Box::new(parse_checkpoint(value)?))
                }
                Some(_) => return None,
                None => None,
            };
            // A resumed bound is the checkpoint's mass plus new mass, so a
            // checkpoint must hold exactly the bound it claims.
            if bound.is_negative()
                || bound > Rational::one()
                || checkpoint.as_ref().is_some_and(|c| c.probability != bound)
            {
                return None;
            }
            EntryStatus::Partial { bound, work_ms, checkpoint }
        }
    };
    Some((CacheKey { term, analysis, config }, Entry { payload, status }))
}

/// Renders a lower-bound checkpoint as the payload's `checkpoint` object.
fn checkpoint_value(checkpoint: &LowerBoundCheckpoint) -> Value {
    Value::Object(vec![
        ("probability".into(), Value::Str(checkpoint.probability.to_string())),
        ("expected_steps".into(), Value::Str(checkpoint.expected_steps.to_string())),
        ("paths".into(), Value::UInt(checkpoint.paths as u128)),
        ("stuck".into(), Value::UInt(checkpoint.stuck_paths as u128)),
        (
            "frontier".into(),
            Value::Array(
                checkpoint.frontier.iter().map(|seed| Value::Str(seed.render())).collect(),
            ),
        ),
    ])
}

/// The inverse of [`checkpoint_value`]; `None` for anything malformed,
/// negative expected steps, or a frontier [`Entry::from_run`] would not
/// keep.
fn parse_checkpoint(value: &Value) -> Option<LowerBoundCheckpoint> {
    let probability = Rational::parse(value.get("probability")?.as_str()?)?;
    let expected_steps = Rational::parse(value.get("expected_steps")?.as_str()?)?;
    let paths = usize::try_from(value.get("paths")?.as_u64()?).ok()?;
    let stuck_paths = usize::try_from(value.get("stuck")?.as_u64()?).ok()?;
    let frontier = value
        .get("frontier")?
        .as_array()?
        .iter()
        .map(|seed| seed.as_str().and_then(ReplaySeed::parse))
        .collect::<Option<Vec<ReplaySeed>>>()?;
    if expected_steps.is_negative() || !frontier_is_kept(frontier.len()) {
        return None;
    }
    Some(LowerBoundCheckpoint { probability, expected_steps, paths, stuck_paths, frontier })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(term: u128, config: &str) -> CacheKey {
        CacheKey { term, analysis: "lower", config: config.to_string() }
    }

    fn payload(n: u128) -> Entry {
        Entry::complete(Value::UInt(n))
    }

    /// An unbounded lookup's served payload, if any.
    fn get(cache: &mut ResultCache, key: &CacheKey) -> Option<Value> {
        match cache.lookup(key, None) {
            Lookup::Hit(payload) => Some(payload),
            Lookup::Miss(_) => None,
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let mut cache = ResultCache::new(4);
        assert_eq!(get(&mut cache, &key(1, "d=40")), None);
        cache.put(key(1, "d=40"), payload(10));
        assert_eq!(get(&mut cache, &key(1, "d=40")), Some(Value::UInt(10)));
        // Same term, different config: distinct entry.
        assert_eq!(get(&mut cache, &key(1, "d=80")), None);
        // Same config, different analysis tag: distinct entry.
        let other = CacheKey { term: 1, analysis: "verify", config: "d=40".into() };
        assert_eq!(get(&mut cache, &other), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let mut cache = ResultCache::new(2);
        cache.put(key(1, ""), payload(1));
        cache.put(key(2, ""), payload(2));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(get(&mut cache, &key(1, "")).is_some());
        cache.put(key(3, ""), payload(3));
        assert_eq!(cache.len(), 2);
        assert!(get(&mut cache, &key(1, "")).is_some());
        assert!(get(&mut cache, &key(2, "")).is_none(), "LRU entry must be gone");
        assert!(get(&mut cache, &key(3, "")).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut cache = ResultCache::new(2);
        cache.put(key(1, ""), payload(1));
        cache.put(key(2, ""), payload(2));
        cache.put(key(2, ""), payload(22));
        assert_eq!(cache.len(), 2);
        assert_eq!(get(&mut cache, &key(2, "")), Some(Value::UInt(22)));
        assert!(get(&mut cache, &key(1, "")).is_some());
    }

    #[test]
    fn peek_does_not_disturb_counters_or_recency() {
        let mut cache = ResultCache::new(2);
        cache.put(key(1, ""), payload(1));
        cache.put(key(2, ""), payload(2));
        assert_eq!(cache.peek(&key(1, "")), Some(&payload(1)));
        assert_eq!(cache.peek(&key(3, "")), None);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        // `peek` must not refresh recency: 1 is still the LRU entry.
        cache.put(key(3, ""), payload(3));
        assert!(cache.peek(&key(1, "")).is_none());
        assert!(cache.peek(&key(2, "")).is_some());
    }

    #[test]
    fn byte_accounting_tracks_insert_overwrite_and_evict() {
        let mut cache = ResultCache::new(2);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.oldest_entry_ms(), None);
        let small = Entry::complete(Value::Str("x".into()));
        let big = Value::Str("x".repeat(100));
        cache.put(key(1, ""), small.clone());
        let one = cache.bytes();
        assert!(one > 0);
        cache.put(key(2, ""), small.clone());
        assert_eq!(cache.bytes(), 2 * one);
        // Overwriting replaces the old entry's bytes, not adds to them.
        cache.put(key(2, ""), Entry::complete(big.clone()));
        let with_big = cache.bytes();
        assert!(with_big > 2 * one && with_big < one + 200);
        // Eviction releases the evicted entry's bytes (1 is the LRU entry).
        cache.put(key(3, ""), small);
        assert_eq!(cache.bytes(), with_big, "swap small for small");
        assert!(cache.peek(&key(1, "")).is_none());
        assert!(cache.oldest_entry_ms().is_some());
        // Estimates grow with payload size.
        assert!(approx_bytes(&big) > approx_bytes(&Value::Str("x".into())));
        assert!(
            approx_bytes(&Value::Object(vec![("k".into(), Value::UInt(12345))]))
                >= "{\"k\":12345}".len() - 2
        );
    }

    #[test]
    fn entries_iterate_in_recency_order_without_side_effects() {
        let mut cache = ResultCache::new(4);
        cache.put(key(1, ""), payload(1));
        cache.put(key(2, ""), payload(2));
        cache.put(key(3, ""), payload(3));
        // Touch 1 so it becomes the most recent entry.
        assert!(get(&mut cache, &key(1, "")).is_some());
        let (hits, misses) = (cache.hits(), cache.misses());
        let order: Vec<u128> = cache.entries().map(|(k, _)| k.term).collect();
        assert_eq!(order, vec![2, 3, 1], "LRU first, most recent last");
        assert_eq!((cache.hits(), cache.misses()), (hits, misses));
        // Iteration must not refresh recency: 2 is still the LRU entry.
        cache.put(key(4, ""), payload(4));
        cache.put(key(5, ""), payload(5));
        assert!(cache.peek(&key(2, "")).is_none());
    }

    /// A valid entry: complete when `kind % 4 == 0`, else a partial with
    /// bound `num / 64` that, for odd `kind`, keeps a checkpoint holding
    /// that bound over `frontier` seeds.
    fn drawn_entry(kind: u8, num: u64, work_ms: u64, frontier: usize) -> Entry {
        let payload = Value::Object(vec![("n".into(), Value::UInt(u128::from(num)))]);
        let bound = Rational::from_ratio(num as i64, 64);
        let checkpoint = LowerBoundCheckpoint {
            probability: bound.clone(),
            expected_steps: Rational::from_ratio(3 * num as i64, 7),
            paths: num as usize,
            stuck_paths: kind as usize % 3,
            frontier: (0..frontier)
                .map(|i| ReplaySeed::parse(&format!("{}:{}", 9 + i, "TE".repeat(i))).unwrap())
                .collect(),
        };
        let checkpoint = (kind % 2 == 1).then_some(checkpoint);
        Entry::from_run(payload, kind.is_multiple_of(4), &bound, work_ms, checkpoint)
    }

    proptest::proptest! {
        /// Random interleavings of offers and lookups on one key: a
        /// complete entry is never replaced, a partial's bound never
        /// decreases, and a partial is served only to a deadline within
        /// twice its engine time (at least 1 ms) — a declined one hands
        /// back its own checkpoint.
        #[test]
        fn the_policy_never_downgrades_and_serves_partials_within_budget(
            steps in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), 0u64..65, 0u64..300, 0u64..700),
                1..60,
            ),
        ) {
            let mut cache = ResultCache::new(2);
            let k = key(7, "depth=40");
            for (kind, num, work_ms, deadline) in steps {
                let before = cache.peek(&k).cloned();
                if kind % 5 == 0 {
                    let deadline_ms = (deadline % 3 != 0).then_some(deadline);
                    let lookup = cache.lookup(&k, deadline_ms);
                    let served = matches!(lookup, Lookup::Hit(_));
                    match before.map(|entry| entry.status) {
                        None => proptest::prop_assert!(!served),
                        Some(EntryStatus::Complete) => proptest::prop_assert!(served),
                        Some(EntryStatus::Partial { work_ms, checkpoint, .. }) => {
                            let within = deadline_ms.is_some_and(|d| d <= 2 * work_ms.max(1));
                            proptest::prop_assert_eq!(served, within);
                            if let Lookup::Miss(resume) = lookup {
                                let expected = checkpoint.map(|c| (*c, work_ms));
                                proptest::prop_assert_eq!(resume, expected);
                            }
                        }
                    }
                } else {
                    let entry = drawn_entry(kind, num, work_ms, 1 + (deadline % 4) as usize);
                    cache.offer(k.clone(), entry.clone());
                    let after = cache.peek(&k).expect("an offer to an empty key is stored");
                    match before {
                        None => proptest::prop_assert_eq!(after, &entry),
                        Some(old) if old.status == EntryStatus::Complete => {
                            proptest::prop_assert_eq!(after, &old);
                        }
                        Some(old) => {
                            let EntryStatus::Partial { bound: old_bound, .. } = old.status else {
                                unreachable!("complete entries are handled above")
                            };
                            if let EntryStatus::Partial { bound, .. } = &after.status {
                                proptest::prop_assert!(*bound >= old_bound);
                            }
                        }
                    }
                }
            }
        }

        /// Rendering a snapshot and loading it back is the identity on
        /// valid entries, recency order included.
        #[test]
        fn snapshots_round_trip_valid_entries(
            entries in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), 0u64..65, 0u64..300, 1usize..5),
                0..12,
            ),
        ) {
            let mut cache = ResultCache::new(16);
            for (i, (kind, num, work_ms, frontier)) in entries.into_iter().enumerate() {
                let entry = drawn_entry(kind, num, work_ms, frontier);
                cache.put(key(i as u128, &format!("depth={num}")), entry);
            }
            let (text, count) = cache.snapshot();
            let mut reloaded = ResultCache::new(16);
            proptest::prop_assert_eq!(reloaded.load_snapshot(&text), (count as u64, 0));
            for (key, entry) in cache.entries() {
                proptest::prop_assert_eq!(reloaded.peek(key), Some(entry));
            }
            proptest::prop_assert_eq!(reloaded.snapshot().0, text);
        }
    }

    /// `loaded` counts only the snapshot entries the cache still holds: a
    /// snapshot larger than the capacity, or a disabled cache, keeps fewer.
    #[test]
    fn loaded_counts_resident_entries_only() {
        let mut source = ResultCache::new(3);
        for term in 1..=3 {
            source.put(key(term, ""), payload(term));
        }
        let (text, count) = source.snapshot();
        assert_eq!(count, 3);
        let mut smaller = ResultCache::new(2);
        assert_eq!(smaller.load_snapshot(&text), (2, 0));
        assert_eq!(smaller.len(), 2);
        let mut disabled = ResultCache::new(0);
        assert_eq!(disabled.load_snapshot(&text), (0, 0));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = ResultCache::new(0);
        cache.put(key(1, ""), payload(1));
        assert!(cache.is_empty());
        assert_eq!(get(&mut cache, &key(1, "")), None);
        assert_eq!(cache.misses(), 1);
    }

    /// The engine revision in [`CACHE_SNAPSHOT_VERSION`] is pinned to a
    /// digest of the catalogue's exact `lower` bounds, its `verify` verdicts
    /// and `papprox`, and a transcendental guard whose bound was once
    /// unsound. A change to the engines that moves any of them fails here
    /// until the revision is bumped together with the digest.
    #[test]
    fn the_stamp_pins_the_engines_results() {
        use probterm_core::astver::verify_ast;
        use probterm_core::intervalsem::{lower_bound, LowerBoundConfig};
        use probterm_core::spcf::{catalog, parse_term};
        use std::fmt::Write as _;
        let mut programs: Vec<(String, _)> = catalog::table1_benchmarks()
            .into_iter()
            .chain(catalog::table2_benchmarks())
            .map(|b| (b.name, b.term))
            .collect();
        let log_guard = "if log (1 + 3/9007199254740992 + sample * 3/9007199254740992) \
                         <= 7/18014398509481984 then (fix f x. f x) 0 else 0";
        programs.push(("log guard".into(), parse_term(log_guard).expect("parses")));
        let config = LowerBoundConfig::default().with_depth(40);
        let mut results = String::new();
        for (name, term) in &programs {
            let lower = lower_bound(term, &config).probability;
            let verdict = match verify_ast(term) {
                Ok(v) => format!("{} {}", v.verified_ast, v.papprox),
                Err(e) => e.to_string(),
            };
            let _ = writeln!(results, "{name}: {lower} | {verdict}");
        }
        // 64-bit FNV-1a: stable across toolchains, unlike `DefaultHasher`.
        let digest = results.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(
            (CACHE_SNAPSHOT_VERSION, digest),
            ("probterm-cache-v3-engine-2", 0x2c30_5bb9_c68f_2353),
            "the engines' results moved: bump the engine revision in CACHE_SNAPSHOT_VERSION \
             and pin the new digest\n{results}"
        );
    }
}
