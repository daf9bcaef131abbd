//! Digest-keyed warm cache of per-circuit engine state.
//!
//! The expensive artifacts of a request — the [`Fingerprinter`]'s
//! location analysis, the [`VerifySession`]'s strash store, the
//! code-space proof — are keyed by the [`Digest`] of the circuit's
//! *source bytes* and reused across requests and tenants. The cache
//! enforces a byte budget with LRU eviction, so a long-lived server
//! degrades to cold rebuilds under pressure instead of growing without
//! bound:
//!
//! * an entry whose estimated cost exceeds the whole budget is served
//!   **uncached** (built, used once, dropped) — admission never evicts
//!   the entire working set for one oversized circuit;
//! * eviction is strictly least-recently-used and emits a `serve.evict`
//!   observability point per victim;
//! * a panic while holding a circuit's state [`WarmCache::poison`]s it:
//!   the entry is dropped (its engines may be mid-query) and a strike is
//!   recorded; at [`QUARANTINE_THRESHOLD`] strikes the digest is refused
//!   outright — the serve-side analogue of the campaign runner's
//!   job quarantine.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use odcfp_core::{CodeSpaceProof, Fingerprinter, VerifySession};
use odcfp_netlist::Digest;

/// Panics tolerated per circuit digest before requests against it are
/// refused with a `quarantined` error.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// Warm per-circuit engine state: the analysed fingerprinter and a
/// persistent verification session against its base netlist.
///
/// Held behind a `Mutex` per circuit: concurrent requests for the same
/// digest serialize on the circuit (the session is stateful), while
/// requests for different circuits proceed in parallel.
#[derive(Debug)]
pub struct CircuitState {
    /// Location analysis over the base netlist.
    pub fingerprinter: Arc<Fingerprinter>,
    /// Persistent strash session for the base netlist.
    pub session: VerifySession,
    /// Lazily built code-space proof: local per-location obligations
    /// that afterwards decide any fingerprint code. Built on the first `candidate_bits` verify
    /// against this circuit and reused for the cache entry's lifetime;
    /// only a decisive proof is kept, so an undecided one is retried.
    pub codespace: Option<CodeSpaceProof>,
}

/// A cache hit/miss disposition, reported back to clients so tests (and
/// operators) can observe warm-path behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served from warm state.
    Hit,
    /// Built this request and admitted to the cache.
    Miss,
    /// Built this request but too large for the budget; not retained.
    Uncached,
}

impl Disposition {
    /// Stable wire name (`cache` reply field).
    pub fn as_str(self) -> &'static str {
        match self {
            Disposition::Hit => "hit",
            Disposition::Miss => "miss",
            Disposition::Uncached => "uncached",
        }
    }
}

struct Entry {
    state: Arc<Mutex<CircuitState>>,
    cost: u64,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<u64, Entry>,
    /// Monotonic use counter backing LRU ordering.
    tick: u64,
    used: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Panic strikes per digest.
    strikes: HashMap<u64, u32>,
}

/// Aggregate cache accounting, for the `serve.summary` trace point and
/// status replies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served warm.
    pub hits: u64,
    /// Lookups that required a cold build.
    pub misses: u64,
    /// Entries evicted to stay under budget.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated bytes currently resident.
    pub used_bytes: u64,
}

/// The digest-keyed LRU warm cache.
pub struct WarmCache {
    inner: Mutex<Inner>,
    budget: u64,
}

impl WarmCache {
    /// Creates a cache with an estimated-byte `budget`.
    pub fn new(budget: u64) -> WarmCache {
        WarmCache {
            inner: Mutex::new(Inner::default()),
            budget,
        }
    }

    /// Estimated retained cost of a circuit: its source bytes plus the
    /// analysed/strashed per-gate structures. Deliberately coarse — the
    /// budget bounds order of magnitude, not exact allocation.
    pub fn estimate_cost(source_len: usize, num_gates: usize) -> u64 {
        source_len as u64 + (num_gates as u64) * 600
    }

    /// `true` when `key` has struck out and must be refused.
    pub fn is_quarantined(&self, key: Digest) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .strikes
            .get(&key.0)
            .is_some_and(|&n| n >= QUARANTINE_THRESHOLD)
    }

    /// Warm lookup. Counts a hit and refreshes LRU order on success; a
    /// miss is counted only in [`WarmCache::admit`] (so a
    /// lookup-then-admit pair counts once).
    pub fn lookup(&self, key: Digest) -> Option<Arc<Mutex<CircuitState>>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key.0) {
            Some(entry) => {
                entry.last_used = tick;
                let state = Arc::clone(&entry.state);
                inner.hits += 1;
                Some(state)
            }
            None => None,
        }
    }

    /// Admits freshly built state (built *outside* the cache lock),
    /// evicting least-recently-used entries until `cost` fits the
    /// budget. Returns the shared handle to use plus the disposition.
    ///
    /// Double-checked: if a racing request admitted the same digest
    /// first, that entry wins and the fresh build is dropped — all
    /// requests for a digest converge on one session.
    pub fn admit(
        &self,
        key: Digest,
        state: CircuitState,
        cost: u64,
    ) -> (Arc<Mutex<CircuitState>>, Disposition) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key.0) {
            entry.last_used = tick;
            let state = Arc::clone(&entry.state);
            inner.hits += 1;
            return (state, Disposition::Hit);
        }
        inner.misses += 1;
        let state = Arc::new(Mutex::new(state));
        if cost > self.budget {
            // Larger than the whole budget: serve cold, keep the cache.
            return (state, Disposition::Uncached);
        }
        while inner.used + cost > self.budget {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("used > 0 implies an entry");
            let evicted = inner.entries.remove(&victim).expect("victim exists");
            inner.used -= evicted.cost;
            inner.evictions += 1;
            odcfp_obs::point("serve.evict")
                .field("cost", evicted.cost)
                .field("resident", inner.entries.len())
                .nondet()
                .emit();
        }
        inner.used += cost;
        inner.entries.insert(
            key.0,
            Entry {
                state: Arc::clone(&state),
                cost,
                last_used: tick,
            },
        );
        (state, Disposition::Miss)
    }

    /// Records a panic against `key`: drops any resident entry (its
    /// engines may be mid-query and cannot be trusted) and adds a
    /// strike. Returns the strike count.
    pub fn poison(&self, key: Digest) -> u32 {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = inner.entries.remove(&key.0) {
            inner.used -= entry.cost;
        }
        let strikes = inner.strikes.entry(key.0).or_insert(0);
        *strikes += 1;
        *strikes
    }

    /// Current accounting.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len(),
            used_bytes: inner.used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    fn state_for(seed: u64) -> CircuitState {
        let netlist = random_dag(CellLibrary::standard(), DagParams::small(seed));
        let fingerprinter = Arc::new(Fingerprinter::new(netlist).expect("analysable"));
        let session = VerifySession::new(fingerprinter.base()).expect("valid base");
        CircuitState {
            fingerprinter,
            session,
            codespace: None,
        }
    }

    #[test]
    fn admit_then_lookup_hits() {
        let cache = WarmCache::new(10_000);
        let key = Digest::of(b"circuit-a");
        assert!(cache.lookup(key).is_none());
        let (_, disp) = cache.admit(key, state_for(1), 100);
        assert_eq!(disp, Disposition::Miss);
        assert!(cache.lookup(key).is_some());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let cache = WarmCache::new(250);
        let (a, b, c) = (Digest::of(b"a"), Digest::of(b"b"), Digest::of(b"c"));
        cache.admit(a, state_for(1), 100);
        cache.admit(b, state_for(2), 100);
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.lookup(a).is_some());
        cache.admit(c, state_for(3), 100);
        assert!(cache.lookup(a).is_some(), "recently used survives");
        assert!(cache.lookup(b).is_none(), "LRU entry evicted");
        assert!(cache.lookup(c).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().used_bytes <= 250);
    }

    #[test]
    fn oversized_entry_served_uncached() {
        let cache = WarmCache::new(250);
        let small = Digest::of(b"small");
        cache.admit(small, state_for(1), 100);
        let big = Digest::of(b"big");
        let (_, disp) = cache.admit(big, state_for(2), 1_000);
        assert_eq!(disp, Disposition::Uncached);
        // The resident working set was not sacrificed for it.
        assert!(cache.lookup(small).is_some());
        assert!(cache.lookup(big).is_none());
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn racing_admit_converges_on_first_entry() {
        let cache = WarmCache::new(10_000);
        let key = Digest::of(b"dup");
        let (first, d1) = cache.admit(key, state_for(1), 100);
        let (second, d2) = cache.admit(key, state_for(2), 100);
        assert_eq!(d1, Disposition::Miss);
        assert_eq!(d2, Disposition::Hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().used_bytes, 100);
    }

    #[test]
    fn poison_drops_entry_and_quarantines_at_threshold() {
        let cache = WarmCache::new(10_000);
        let key = Digest::of(b"hostile");
        cache.admit(key, state_for(1), 100);
        assert_eq!(cache.poison(key), 1);
        assert!(cache.lookup(key).is_none(), "poisoned state dropped");
        assert!(!cache.is_quarantined(key), "one strike is not quarantine");
        for expected in 2..=QUARANTINE_THRESHOLD {
            assert_eq!(cache.poison(key), expected);
        }
        assert!(cache.is_quarantined(key));
        assert_eq!(cache.stats().used_bytes, 0);
    }
}
