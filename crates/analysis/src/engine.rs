//! The shared location-analysis engine.
//!
//! [`cones::ffc_of`](crate::cones::ffc_of) answers one maximum-FFC query
//! with a fresh topological sort plus a `HashSet` DFS, so sweeping every
//! primary-gate candidate — what
//! [`find_locations`](../../odcfp_core/fn.find_locations.html) does — costs
//! `O(gates · (gates + pins))`. [`AnalysisEngine`] instead precomputes, once
//! per netlist:
//!
//! * a [`CsrView`] — flat fanin/fanout adjacency, fanout counts, topological
//!   order;
//! * the **fanout-dominator tree**: gate `x` belongs to the maximum FFC of
//!   root `r` exactly when every path from `x`'s output to any primary
//!   output (or dangling sink) passes through `r`, i.e. when `r` dominates
//!   `x` in the fanout DAG augmented with a virtual root that absorbs
//!   primary outputs and fanout-free gates. One reverse-topological sweep
//!   (`idom[g] = NCA` of `g`'s sink gates in the tree built so far)
//!   therefore yields *every* FFC membership at once; `ffc_of(r)` is just
//!   `r`'s dominator subtree read off in topological order.
//!
//! After that, each FFC query is output-sensitive (`O(|cone| log |cone|)`),
//! `feeds_only` is `O(1)`, and transitive fanin/fanout walks use
//! epoch-stamped [`Scratch`] marks instead of hashing.
//!
//! # Determinism contract
//!
//! The engine returns bit-identical results at any worker count. All
//! parallelism in the workspace goes through [`parallel_chunks`], which
//! splits an index range into contiguous chunks, runs each chunk on a
//! scoped thread, and returns per-chunk results **in chunk order**; as long
//! as the per-item computation is pure, concatenating (or folding
//! left-to-right over) the chunk results is independent of the thread
//! count. Worker count resolution: [`set_thread_override`] >
//! `ODCFP_THREADS` > [`std::thread::available_parallelism`].

use std::sync::atomic::{AtomicUsize, Ordering};

use odcfp_netlist::{CsrView, GateId, Netlist, NetlistError, Scratch};

use crate::cancel::CancelToken;

/// Encoding of the dominator tree's virtual root in `idom`/NCA space.
const VIRTUAL_ROOT: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Worker-count configuration
// ---------------------------------------------------------------------------

/// Process-wide worker-count override (0 = unset). Set from the CLI
/// `--threads` flag and from tests; takes precedence over `ODCFP_THREADS`.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces every subsequent parallel analysis to use exactly `n` workers
/// (`None` restores automatic selection). Intended for the CLI `--threads`
/// flag and determinism tests; results do not depend on the choice.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count parallel analyses will use: the
/// [`set_thread_override`] value if set, else `ODCFP_THREADS` if set to a
/// positive integer, else [`std::thread::available_parallelism`].
pub fn configured_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("ODCFP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Splits `0..len` into at most `threads` contiguous chunks, evaluates `f`
/// on each chunk (scoped threads when `threads > 1`), and returns the
/// per-chunk results **in chunk order**.
///
/// Chunk boundaries depend on `threads`, so `f` must be pure per index for
/// the merged result to be thread-count-independent: concatenation of
/// per-item outputs, or any left fold that is associative over adjacent
/// ranges (e.g. "first mismatch" = lexicographic minimum).
///
/// # Panics
///
/// Re-raises any panic from a worker thread.
pub fn parallel_chunks<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 {
        let _span = worker_span(0, 0..len);
        return vec![f(0..len)];
    }
    let chunk = len.div_ceil(threads);
    let ranges: Vec<std::ops::Range<usize>> = (0..threads)
        .map(|t| (t * chunk).min(len)..((t + 1) * chunk).min(len))
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(t, r)| {
                let f = &f;
                s.spawn(move || {
                    let _span = worker_span(t, r.clone());
                    f(r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// Per-worker timing span (non-deterministic: worker activity depends on
/// the thread count, so these events are excluded from the trace payload).
fn worker_span(worker: usize, range: std::ops::Range<usize>) -> odcfp_obs::Span {
    let mut span = odcfp_obs::span("engine.worker");
    span.field("worker", worker);
    span.field("items", range.len());
    span
}

/// Work-unit granularity of [`parallel_chunks_cancellable`]: the longest
/// stretch of indices a worker processes between two token polls.
const CANCEL_GRANULE: usize = 256;

/// [`parallel_chunks`] with cooperative cancellation: each worker splits
/// its chunk into sub-ranges of at most `CANCEL_GRANULE` (256) indices,
/// polling `token` between sub-ranges, and the per-sub-range results come
/// back concatenated **in index order**.
///
/// Returns `None` when the token fired before the sweep completed —
/// partial results are discarded, because a partial merge would violate
/// the determinism contract. The merge requirements on `f` are the same
/// as for [`parallel_chunks`]; note `f` is now called on finer ranges, so
/// any left fold over adjacent ranges must still be associative.
///
/// # Panics
///
/// Re-raises any panic from a worker thread.
pub fn parallel_chunks_cancellable<R, F>(
    len: usize,
    threads: usize,
    token: &CancelToken,
    f: F,
) -> Option<Vec<R>>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let run = |range: std::ops::Range<usize>| -> Option<Vec<R>> {
        let mut out = Vec::new();
        let mut lo = range.start;
        while lo < range.end {
            if token.is_cancelled() {
                return None;
            }
            let hi = (lo + CANCEL_GRANULE).min(range.end);
            out.push(f(lo..hi));
            lo = hi;
        }
        Some(out)
    };
    let threads = threads.max(1).min(len.max(1));
    if threads == 1 {
        if token.is_cancelled() {
            return None;
        }
        let _span = worker_span(0, 0..len);
        return run(0..len);
    }
    let chunk = len.div_ceil(threads);
    let ranges: Vec<std::ops::Range<usize>> = (0..threads)
        .map(|t| (t * chunk).min(len)..((t + 1) * chunk).min(len))
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(t, r)| {
                let run = &run;
                s.spawn(move || {
                    let _span = worker_span(t, r.clone());
                    run(r)
                })
            })
            .collect();
        let mut merged = Vec::new();
        let mut cancelled = false;
        for h in handles {
            match h.join() {
                Ok(Some(part)) => merged.extend(part),
                Ok(None) => cancelled = true,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        (!cancelled).then_some(merged)
    })
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Precomputed structural analysis of one netlist snapshot: CSR adjacency
/// plus the fanout-dominator tree encoding every maximum FFC.
///
/// The engine is immutable and [`Sync`]; share one instance across worker
/// threads and give each worker its own [`Scratch`]. Rebuild (or patch via
/// the incremental layer in `odcfp-core`) after mutating the netlist.
///
/// # Example
///
/// ```
/// use odcfp_analysis::AnalysisEngine;
/// use odcfp_logic::PrimitiveFn;
/// use odcfp_netlist::{CellLibrary, Netlist};
///
/// let mut n = Netlist::new("m", CellLibrary::standard());
/// let a = n.add_primary_input("a");
/// let b = n.add_primary_input("b");
/// let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
/// let g1 = n.add_gate("g1", and2, &[a, b]);
/// let g2 = n.add_gate("g2", and2, &[n.gate_output(g1), a]);
/// n.set_primary_output(n.gate_output(g2));
///
/// let eng = AnalysisEngine::new(&n)?;
/// assert!(eng.feeds_only(g1, g2)); // g1's only sink is g2
/// assert_eq!(eng.ffc_of(g2), vec![g1, g2]); // max FFC, topological order
/// # Ok::<(), odcfp_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisEngine {
    csr: CsrView,
    /// Immediate dominator of each gate in the fanout DAG
    /// ([`VIRTUAL_ROOT`] = the virtual sink-side root).
    idom: Vec<u32>,
    /// CSR rows of dominator-tree children, each row sorted by topological
    /// position.
    child_offsets: Vec<u32>,
    children: Vec<GateId>,
}

impl AnalysisEngine {
    /// Builds the engine in `O(gates · tree-depth + pins)`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn new(netlist: &Netlist) -> Result<AnalysisEngine, NetlistError> {
        Ok(AnalysisEngine::from_view(CsrView::build(netlist)?))
    }

    /// Builds the engine from an existing CSR view.
    pub fn from_view(csr: CsrView) -> AnalysisEngine {
        let mut span = odcfp_obs::span("engine.build");
        let n = csr.num_gates();
        span.field("gates", n);
        let mut idom = vec![VIRTUAL_ROOT; n];
        let mut dom_depth = vec![1u32; n];

        // Reverse-topological sweep: by the time we reach `g`, every sink
        // of `g` already has its idom, so `idom[g]` is the nearest common
        // ancestor of the sink gates themselves (a path from `g` must pass
        // through one of its sinks; the common dominators of all sinks are
        // exactly the tree ancestors of their NCA). A primary output or a
        // dangling output escapes directly to the virtual root.
        let nca = |idom: &[u32], dom_depth: &[u32], mut a: u32, mut b: u32| -> u32 {
            let depth = |x: u32| {
                if x == VIRTUAL_ROOT {
                    0
                } else {
                    dom_depth[x as usize]
                }
            };
            while a != b {
                if depth(a) >= depth(b) {
                    a = idom[a as usize];
                } else {
                    b = idom[b as usize];
                }
            }
            a
        };
        for &g in csr.topo_order().iter().rev() {
            let gi = g.index();
            let mut anc: Option<u32> = if csr.drives_po(g) {
                Some(VIRTUAL_ROOT)
            } else {
                None
            };
            for &s in csr.fanouts(g) {
                let node = s.index() as u32;
                anc = Some(match anc {
                    None => node,
                    Some(VIRTUAL_ROOT) => VIRTUAL_ROOT,
                    Some(a) => nca(&idom, &dom_depth, a, node),
                });
                if anc == Some(VIRTUAL_ROOT) {
                    break;
                }
            }
            let d = anc.unwrap_or(VIRTUAL_ROOT);
            idom[gi] = d;
            dom_depth[gi] = if d == VIRTUAL_ROOT {
                1
            } else {
                dom_depth[d as usize] + 1
            };
        }

        // Dominator-tree children in CSR form. Filling in topological order
        // leaves every row sorted by topological position, which is the
        // order `ffc_of` must emit.
        let mut counts = vec![0u32; n + 1];
        for &d in &idom {
            if d != VIRTUAL_ROOT {
                counts[d as usize + 1] += 1;
            }
        }
        let mut child_offsets = counts;
        for i in 1..child_offsets.len() {
            child_offsets[i] += child_offsets[i - 1];
        }
        let mut fill = child_offsets.clone();
        let mut children = vec![GateId::from_index(0); child_offsets[n] as usize];
        for &g in csr.topo_order() {
            let d = idom[g.index()];
            if d != VIRTUAL_ROOT {
                children[fill[d as usize] as usize] = g;
                fill[d as usize] += 1;
            }
        }

        AnalysisEngine {
            csr,
            idom,
            child_offsets,
            children,
        }
    }

    /// The underlying CSR adjacency view.
    pub fn csr(&self) -> &CsrView {
        &self.csr
    }

    /// `root`'s immediate dominator in the fanout DAG, or `None` when it is
    /// the virtual root (the gate drives a primary output, is dangling, or
    /// has reconvergence-free paths to several sinks of distinct cones).
    pub fn fanout_dominator(&self, root: GateId) -> Option<GateId> {
        let d = self.idom[root.index()];
        (d != VIRTUAL_ROOT).then(|| GateId::from_index(d as usize))
    }

    /// The gates whose immediate fanout-dominator is `g` (sorted by
    /// topological position).
    fn dom_children(&self, g: GateId) -> &[GateId] {
        let lo = self.child_offsets[g.index()] as usize;
        let hi = self.child_offsets[g.index() + 1] as usize;
        &self.children[lo..hi]
    }

    /// The maximum fanout-free cone rooted at `root`, in topological order
    /// ending with `root` — element-for-element identical to
    /// [`cones::ffc_of`](crate::cones::ffc_of).
    pub fn ffc_of(&self, root: GateId) -> Vec<GateId> {
        let mut cone = Vec::new();
        self.ffc_of_into(root, &mut cone);
        cone
    }

    /// [`AnalysisEngine::ffc_of`] into a caller-owned buffer (cleared
    /// first), for hot loops that probe many roots.
    pub fn ffc_of_into(&self, root: GateId, cone: &mut Vec<GateId>) {
        cone.clear();
        cone.push(root);
        let mut head = 0;
        while head < cone.len() {
            let g = cone[head];
            head += 1;
            cone.extend_from_slice(self.dom_children(g));
        }
        cone.sort_unstable_by_key(|&g| self.csr.topo_pos(g));
    }

    /// The number of gates in the maximum FFC rooted at `root` without
    /// materializing the cone.
    pub fn ffc_len(&self, root: GateId) -> usize {
        let mut stack = vec![root];
        let mut count = 0;
        while let Some(g) = stack.pop() {
            count += 1;
            stack.extend_from_slice(self.dom_children(g));
        }
        count
    }

    /// O(1) [`cones::feeds_only`](crate::cones::feeds_only): `gate`'s
    /// output feeds exactly `primary`'s one pin and is not a primary
    /// output.
    pub fn feeds_only(&self, gate: GateId, primary: GateId) -> bool {
        self.csr.feeds_only(gate, primary)
    }

    /// The transitive fanin of `root` (inclusive), ascending by gate id.
    /// `scratch` carries the visited marks; one per calling thread.
    pub fn transitive_fanin(&self, root: GateId, scratch: &mut Scratch) -> Vec<GateId> {
        self.reachable(root, scratch, |g| self.csr.fanins(g))
    }

    /// The transitive fanout of `root` (inclusive), ascending by gate id.
    /// `scratch` carries the visited marks; one per calling thread.
    pub fn transitive_fanout(&self, root: GateId, scratch: &mut Scratch) -> Vec<GateId> {
        self.reachable(root, scratch, |g| self.csr.fanouts(g))
    }

    fn reachable<'a, F>(&'a self, root: GateId, scratch: &mut Scratch, next: F) -> Vec<GateId>
    where
        F: Fn(GateId) -> &'a [GateId],
    {
        scratch.clear(self.csr.num_gates());
        let mut out = vec![root];
        scratch.mark(root.index());
        let mut head = 0;
        while head < out.len() {
            let g = out[head];
            head += 1;
            for &n in next(g) {
                if scratch.mark(n.index()) {
                    out.push(n);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cones;
    use odcfp_logic::PrimitiveFn;
    use odcfp_netlist::CellLibrary;

    /// g1=AND(a,b) → g2=AND(g1,c) → g4=AND(g2,g3); g3=OR(c,d) is also a PO.
    fn diamond() -> (Netlist, [GateId; 4]) {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("d", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let c = n.add_primary_input("c");
        let d = n.add_primary_input("d");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let g1 = n.add_gate("g1", and2, &[a, b]);
        let g2 = n.add_gate("g2", and2, &[n.gate_output(g1), c]);
        let g3 = n.add_gate("g3", or2, &[c, d]);
        let g4 = n.add_gate("g4", and2, &[n.gate_output(g2), n.gate_output(g3)]);
        n.set_primary_output(n.gate_output(g4));
        n.set_primary_output(n.gate_output(g3));
        (n, [g1, g2, g3, g4])
    }

    #[test]
    fn ffc_matches_naive_on_diamond() {
        let (n, gates) = diamond();
        let eng = AnalysisEngine::new(&n).unwrap();
        for g in gates {
            assert_eq!(eng.ffc_of(g), cones::ffc_of(&n, g), "root {g}");
            assert_eq!(eng.ffc_len(g), cones::ffc_of(&n, g).len());
        }
    }

    #[test]
    fn ffc_covers_dangling_region() {
        // x feeds only a dangling gate (no PO, no sinks): naive semantics
        // say FFC(dangling) = {x, dangling} and x is in no other cone.
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("dang", lib);
        let a = n.add_primary_input("a");
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let x = n.add_gate("x", inv, &[a]);
        let dangling = n.add_gate("dangling", inv, &[n.gate_output(x)]);
        let other = n.add_gate("other", inv, &[a]);
        n.set_primary_output(n.gate_output(other));
        let eng = AnalysisEngine::new(&n).unwrap();
        for g in [x, dangling, other] {
            assert_eq!(eng.ffc_of(g), cones::ffc_of(&n, g), "root {g}");
        }
        assert_eq!(eng.ffc_of(dangling), vec![x, dangling]);
    }

    #[test]
    fn feeds_only_and_fanins_match_naive() {
        let (n, gates) = diamond();
        let eng = AnalysisEngine::new(&n).unwrap();
        let mut scratch = Scratch::default();
        for &g in &gates {
            for &p in &gates {
                assert_eq!(eng.feeds_only(g, p), cones::feeds_only(&n, g, p));
            }
            let mut naive: Vec<GateId> = cones::transitive_fanin(&n, g).into_iter().collect();
            naive.sort_unstable();
            assert_eq!(eng.transitive_fanin(g, &mut scratch), naive);
        }
    }

    #[test]
    fn transitive_fanout_is_inverse_of_fanin() {
        let (n, gates) = diamond();
        let eng = AnalysisEngine::new(&n).unwrap();
        let mut scratch = Scratch::default();
        for &a in &gates {
            for &b in &gates {
                let in_fanin = eng.transitive_fanin(b, &mut scratch).contains(&a);
                let in_fanout = eng.transitive_fanout(a, &mut scratch).contains(&b);
                assert_eq!(in_fanin, in_fanout, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn parallel_chunks_is_ordered_and_complete() {
        for threads in [1, 2, 3, 8, 100] {
            let chunks = parallel_chunks(10, threads, |r| r.collect::<Vec<usize>>());
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..10).collect::<Vec<_>>(), "threads={threads}");
        }
        assert_eq!(parallel_chunks(0, 4, |r| r.len()), vec![0]);
    }

    #[test]
    fn cancellable_chunks_complete_when_token_is_quiet() {
        let token = CancelToken::new();
        for threads in [1, 2, 3, 8] {
            let chunks =
                parallel_chunks_cancellable(1000, threads, &token, |r| r.collect::<Vec<usize>>())
                    .expect("quiet token must complete");
            let flat: Vec<usize> = chunks.into_iter().flatten().collect();
            assert_eq!(flat, (0..1000).collect::<Vec<_>>(), "threads={threads}");
        }
        // Zero-length sweeps produce zero work units.
        assert_eq!(
            parallel_chunks_cancellable(0, 4, &token, |r| r.len()),
            Some(vec![])
        );
    }

    #[test]
    fn fired_token_stops_the_sweep() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            assert_eq!(
                parallel_chunks_cancellable(100_000, threads, &token, |r| r.len()),
                None,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn mid_sweep_cancel_returns_none() {
        use std::sync::atomic::AtomicUsize;
        let token = CancelToken::new();
        let calls = AtomicUsize::new(0);
        // Fire the token from inside the work function after a few
        // granules: the sweep must abandon the rest and report None.
        let result = parallel_chunks_cancellable(100_000, 2, &token, |r| {
            if calls.fetch_add(1, Ordering::Relaxed) == 3 {
                token.cancel();
            }
            r.len()
        });
        assert_eq!(result, None);
        assert!(
            (calls.load(Ordering::Relaxed) * super::CANCEL_GRANULE) < 100_000,
            "cancellation should cut the sweep short"
        );
    }

    #[test]
    fn thread_override_wins() {
        set_thread_override(Some(3));
        assert_eq!(configured_threads(), 3);
        set_thread_override(None);
        assert!(configured_threads() >= 1);
    }
}
