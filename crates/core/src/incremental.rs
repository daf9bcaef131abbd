//! Incremental location analysis across embedding steps.
//!
//! Re-running [`find_locations`](crate::find_locations) after every wiring
//! step re-probes the whole netlist, although one modification can only
//! change the answer inside a bounded *dirty region*. This module tracks
//! that region:
//!
//! * **Changed set `C`** of a modification: the widened target gate, the
//!   gate drivers of every added net (their fanout counts grew), and any
//!   freshly minted inverter gates.
//! * **Invalidation rule**: a gate's location entry can only change if the
//!   gate lies in the transitive fanout of `C`. Every ingredient of a
//!   probe — pin drivers, `feeds_only` fanout counts, FFC membership
//!   (fanout-dominator structure of the cone's fanin), trigger-gate
//!   inputs, and the duplicate-literal checks of `applicable` — depends
//!   only on structure inside the probed gate's fanin region, and every
//!   element of `C` whose structure changed reaches the probed gate
//!   through fanout edges. Modifications only *add* edges, so computing
//!   the fanout on the post-modification adjacency over-approximates
//!   safely, even with several modifications batched between flushes.
//!
//! Re-analysis is lazy: [`IncrementalLocations::apply`] just records the
//! seeds, and the next [`IncrementalLocations::locations`] call rebuilds
//! the (linear-cost) [`AnalysisEngine`] once and re-probes only dirty
//! gates. The fault-injection battery's circuits gate this in CI: after
//! every embedding step the incremental view must equal a from-scratch
//! [`find_locations`](crate::find_locations) run.

use odcfp_analysis::AnalysisEngine;
use odcfp_netlist::{GateId, NetDriver, Netlist};

use crate::embed::{check_verdict, FingerprintedCopy, Fingerprinter, VerifyLevel};
use crate::location::{FingerprintLocation, LocationProbe};
use crate::modify::{apply_modification, Modification};
use crate::verify::verify_equivalent;
use crate::FingerprintError;

/// A netlist under modification with a per-gate cache of location entries,
/// invalidated by dirty region instead of recomputed wholesale.
#[derive(Debug, Clone)]
pub struct IncrementalLocations {
    netlist: Netlist,
    engine: AnalysisEngine,
    /// Location entry per gate id; `None` = not a location.
    cache: Vec<Option<FingerprintLocation>>,
    /// Changed-set seeds accumulated since the last flush.
    pending: Vec<GateId>,
}

impl IncrementalLocations {
    /// Builds the view and runs the initial full analysis.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist fails validation.
    pub fn new(netlist: Netlist) -> Result<IncrementalLocations, FingerprintError> {
        netlist.validate()?;
        let engine = AnalysisEngine::new(&netlist)?;
        let mut probe = LocationProbe::default();
        let cache = (0..netlist.num_gates())
            .map(|i| probe.location_of(&netlist, &engine, GateId::from_index(i)))
            .collect();
        Ok(IncrementalLocations {
            netlist,
            engine,
            cache,
            pending: Vec::new(),
        })
    }

    /// The current netlist snapshot (with all applied modifications).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consumes the view, returning the modified netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Applies a modification and records its changed set; the re-analysis
    /// itself is deferred to the next [`IncrementalLocations::locations`]
    /// call, so consumers that never re-query (e.g. delay-trial loops) pay
    /// nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`apply_modification`] errors; the netlist is unchanged
    /// on error.
    pub fn apply(&mut self, m: &Modification) -> Result<(), FingerprintError> {
        let before = self.netlist.num_gates();
        let mut seeds = vec![m.target()];
        for &net in m.added_nets() {
            if let NetDriver::Gate(g) = self.netlist.net(net).driver() {
                seeds.push(g);
            }
        }
        apply_modification(&mut self.netlist, m)?;
        // Freshly minted inverters (complemented literals).
        seeds.extend((before..self.netlist.num_gates()).map(GateId::from_index));
        self.pending.extend(seeds);
        Ok(())
    }

    /// The current fingerprint locations, identical (order and content) to
    /// `find_locations(self.netlist())` — but only gates in the dirty
    /// region of modifications applied since the last call are re-probed.
    ///
    /// # Errors
    ///
    /// Returns an error if an applied modification left the netlist cyclic
    /// (impossible for locations discovered on the same netlist).
    pub fn locations(&mut self) -> Result<Vec<FingerprintLocation>, FingerprintError> {
        self.flush()?;
        Ok(self.cache.iter().flatten().cloned().collect())
    }

    /// Re-probes the dirty region if any modifications are pending.
    fn flush(&mut self) -> Result<(), FingerprintError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        // The engine rebuild is one linear sweep; the expensive part — the
        // per-gate candidate enumeration — is what the dirty region limits.
        self.engine = AnalysisEngine::new(&self.netlist)?;
        let n = self.netlist.num_gates();
        self.cache.resize(n, None);
        // Multi-source transitive fanout of the accumulated changed sets.
        let mut dirty = vec![false; n];
        let mut queue: Vec<GateId> = Vec::new();
        for &g in &self.pending {
            if !dirty[g.index()] {
                dirty[g.index()] = true;
                queue.push(g);
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let g = queue[head];
            head += 1;
            for &s in self.engine.csr().fanouts(g) {
                if !dirty[s.index()] {
                    dirty[s.index()] = true;
                    queue.push(s);
                }
            }
        }
        // Deterministic: the dirty region is a structural BFS, independent
        // of thread count.
        odcfp_obs::count("engine.dirty_gates", queue.len() as u64);
        let mut probe = LocationProbe::default();
        for (i, flag) in dirty.iter().enumerate() {
            if *flag {
                self.cache[i] =
                    probe.location_of(&self.netlist, &self.engine, GateId::from_index(i));
            }
        }
        self.pending.clear();
        Ok(())
    }
}

/// An in-progress embedding over a [`Fingerprinter`]: set bits one at a
/// time, inspect the evolving netlist between steps, and re-query the
/// location analysis incrementally instead of from scratch.
///
/// Obtained from [`Fingerprinter::embed_session`]. The batch API
/// ([`Fingerprinter::embed`]) remains the cheapest way to mint a copy when
/// no intermediate state is needed.
#[derive(Debug)]
pub struct EmbedSession<'a> {
    fp: &'a Fingerprinter,
    inc: IncrementalLocations,
    bits: Vec<bool>,
}

impl Fingerprinter {
    /// Starts an incremental embedding session on a copy of the base.
    ///
    /// # Errors
    ///
    /// Returns an error if the base netlist fails validation.
    pub fn embed_session(&self) -> Result<EmbedSession<'_>, FingerprintError> {
        Ok(EmbedSession {
            fp: self,
            inc: IncrementalLocations::new(self.base().clone())?,
            bits: vec![false; self.locations().len()],
        })
    }
}

impl EmbedSession<'_> {
    /// The netlist carrying every modification set so far.
    pub fn netlist(&self) -> &Netlist {
        self.inc.netlist()
    }

    /// The bit per location set so far.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Sets location `index`'s bit by applying its selected modification.
    ///
    /// # Errors
    ///
    /// Returns [`FingerprintError::CannotApply`] when the index is out of
    /// range or the bit is already set, and propagates application errors.
    pub fn set_bit(&mut self, index: usize) -> Result<(), FingerprintError> {
        let m = self.fp.selected_modifications().get(index).ok_or_else(|| {
            FingerprintError::CannotApply {
                gate: GateId::from_index(0),
                reason: format!(
                    "location index {index} out of range ({} locations)",
                    self.bits.len()
                ),
            }
        })?;
        if self.bits[index] {
            return Err(FingerprintError::CannotApply {
                gate: m.target(),
                reason: format!("location {index} already set in this session"),
            });
        }
        self.inc.apply(m)?;
        self.bits[index] = true;
        Ok(())
    }

    /// The fingerprint locations of the *current* (partially embedded)
    /// netlist, re-analyzed incrementally — the residual capacity left to
    /// later embedding steps.
    ///
    /// # Errors
    ///
    /// Propagates [`IncrementalLocations::locations`] errors.
    pub fn residual_locations(&mut self) -> Result<Vec<FingerprintLocation>, FingerprintError> {
        self.inc.locations()
    }

    /// Validates and (optionally) verifies the session netlist against the
    /// base, returning it as a fingerprinted copy.
    ///
    /// The copy is structurally identical to the batch
    /// [`Fingerprinter::embed_verified`] result for the same bits; only
    /// the auto-generated names of complement inverters can differ, as
    /// they record application order.
    ///
    /// # Errors
    ///
    /// Returns an error on failed validation or verification.
    pub fn finish(self, verify: VerifyLevel) -> Result<FingerprintedCopy, FingerprintError> {
        let netlist = self.inc.into_netlist();
        netlist.validate()?;
        if let Some(policy) = verify.policy() {
            check_verdict(verify_equivalent(self.fp.base(), &netlist, &policy)?)?;
        }
        Ok(FingerprintedCopy::from_parts(netlist, self.bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::find_locations;
    use odcfp_netlist::CellLibrary;
    use odcfp_synth::benchmarks::random::{random_dag, DagParams};

    #[test]
    fn incremental_matches_from_scratch_after_each_step() {
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(55));
        let fp = Fingerprinter::new(base).unwrap();
        assert!(!fp.locations().is_empty());
        let mut inc = IncrementalLocations::new(fp.base().clone()).unwrap();
        assert_eq!(inc.locations().unwrap(), find_locations(fp.base()));
        for m in fp.selected_modifications() {
            inc.apply(m).unwrap();
            assert_eq!(
                inc.locations().unwrap(),
                find_locations(inc.netlist()),
                "after applying {m:?}"
            );
        }
    }

    #[test]
    fn session_matches_batch_embed() {
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(56));
        let fp = Fingerprinter::new(base).unwrap();
        let n = fp.locations().len();
        assert!(n >= 2);
        // Set every other bit through a session; batch-embed the same bits.
        let bits: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let mut session = fp.embed_session().unwrap();
        for (i, &b) in bits.iter().enumerate() {
            if b {
                session.set_bit(i).unwrap();
            }
        }
        let copy = session.finish(VerifyLevel::Simulation).unwrap();
        assert_eq!(copy.bits(), &bits[..]);
        assert_eq!(fp.extract(copy.netlist()), bits);
        let batch = fp.embed(&bits).unwrap();
        assert_eq!(copy.netlist().num_gates(), batch.netlist().num_gates());
    }

    #[test]
    fn set_bit_rejects_double_set_and_out_of_range() {
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(57));
        let fp = Fingerprinter::new(base).unwrap();
        let mut session = fp.embed_session().unwrap();
        session.set_bit(0).unwrap();
        assert!(matches!(
            session.set_bit(0),
            Err(FingerprintError::CannotApply { .. })
        ));
        assert!(matches!(
            session.set_bit(usize::MAX),
            Err(FingerprintError::CannotApply { .. })
        ));
    }

    #[test]
    fn residual_capacity_never_grows() {
        let lib = CellLibrary::standard();
        let base = random_dag(lib, DagParams::small(58));
        let fp = Fingerprinter::new(base).unwrap();
        let mut session = fp.embed_session().unwrap();
        let mut last = session.residual_locations().unwrap().len();
        for i in 0..fp.locations().len() {
            session.set_bit(i).unwrap();
            let now = session.residual_locations().unwrap().len();
            // A wiring step can consume locations (shared structure) but
            // the paper's construction never mints brand-new primaries
            // faster than it spends them on these circuits.
            assert!(now <= last + 1, "step {i}: {last} -> {now}");
            last = now;
        }
    }
}
