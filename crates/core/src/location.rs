//! Fingerprint-location discovery (Definition 1 of the paper).

use odcfp_analysis::cones;
use odcfp_analysis::engine::{self, AnalysisEngine};
use odcfp_analysis::odc::{trigger_candidates, trigger_candidates_into, TriggerCandidate};
use odcfp_logic::PrimitiveFn;
use odcfp_netlist::{GateId, NetDriver, NetId, Netlist};

use crate::modify::{applicable, net_addable, widened_cell, Modification, Sources};

/// One legal modification choice at a location, together with the
/// structural context it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The primary-gate input pin fed by the fanout-free cone.
    pub ffc_pin: usize,
    /// The root gate of that cone (its output feeds only the primary gate).
    pub ffc_root: GateId,
    /// The primary-gate input pin carrying the ODC trigger signal.
    pub trigger_pin: usize,
    /// The concrete rewiring.
    pub modification: Modification,
}

/// A fingerprint location: a primary gate satisfying all four criteria of
/// Definition 1, with every legal modification enumerated.
///
/// Each location stores at least one [`Candidate`]; embedding picks one per
/// location (or none, encoding a 0 bit), while capacity accounting counts
/// them all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintLocation {
    /// The primary gate (criterion 4: it has a non-zero ODC).
    pub primary_gate: GateId,
    /// All legal modifications, in deterministic discovery order.
    pub candidates: Vec<Candidate>,
}

impl FingerprintLocation {
    /// The number of distinct configurations this location supports,
    /// including "leave unmodified".
    pub fn num_configurations(&self) -> usize {
        self.candidates.len() + 1
    }
}

/// Scans a validated netlist for fingerprint locations.
///
/// A gate `P` becomes a location when (criteria of Definition 1):
///
/// 1. `P` has an input that is not a primary input of the circuit;
/// 2. that input is the output of a fanout-free cone — the driving gate
///    feeds *only* `P`;
/// 3. the cone contains a gate with a non-zero ODC or a single-input gate
///    that the library can widen by one pin;
/// 4. `P` has a non-zero ODC with respect to at least one input other than
///    the cone's output — i.e. `P` has a controlling value and another pin
///    to carry the trigger.
///
/// For every location, all [`Modification`]s are enumerated: the direct
/// trigger insertion (regular or complemented as correctness dictates,
/// Fig. 4) and, when the trigger is produced by a compatible gate, the
/// early-signal reroutes of Fig. 5 (`n(n+1)/2` source subsets of size one
/// and two).
///
/// # Panics
///
/// Panics if the netlist is cyclic (validate first).
pub fn find_locations(netlist: &Netlist) -> Vec<FingerprintLocation> {
    let eng = AnalysisEngine::new(netlist).expect("cyclic netlist");
    find_locations_with(netlist, &eng, engine::configured_threads())
}

/// [`find_locations`] against a prebuilt engine, fanned out over `threads`
/// scoped workers. Gates are probed in id order and worker results are
/// merged in chunk order, so the output is bit-identical to the sequential
/// (and to the [`find_locations_naive`]) result at any thread count.
///
/// # Panics
///
/// Panics if `engine` was built from a different netlist snapshot.
pub fn find_locations_with(
    netlist: &Netlist,
    engine: &AnalysisEngine,
    threads: usize,
) -> Vec<FingerprintLocation> {
    assert_eq!(
        engine.csr().num_gates(),
        netlist.num_gates(),
        "engine built from a different netlist"
    );
    let mut span = odcfp_obs::span("core.locate");
    span.field("gates", netlist.num_gates());
    let chunks = engine::parallel_chunks(netlist.num_gates(), threads, |range| {
        let mut probe = LocationProbe::default();
        range
            .filter_map(|i| probe.location_of(netlist, engine, GateId::from_index(i)))
            .collect::<Vec<FingerprintLocation>>()
    });
    let locations: Vec<FingerprintLocation> = chunks.into_iter().flatten().collect();
    span.field("locations", locations.len());
    locations
}

/// Reusable scratch buffers for probing one gate at a time, so a sweep over
/// the whole netlist allocates only each location's exact-length candidate
/// list. One probe per worker thread.
#[derive(Debug, Default)]
pub(crate) struct LocationProbe {
    cone: Vec<GateId>,
    /// Eligible targets, each with whether the library can widen it by two
    /// inputs (every target can take one, by criterion 3).
    targets: Vec<(GateId, bool)>,
    triggers: Vec<TriggerCandidate>,
    /// Per input of the Fig. 5 trigger gate: may it be wired into the
    /// current target?
    addable: Vec<bool>,
    candidates: Vec<Candidate>,
}

impl LocationProbe {
    /// Probes a single gate against Definition 1, returning its location
    /// (if any) with candidates in the canonical discovery order: pins
    /// ascending, triggers in [`trigger_candidates`] order, targets in cone
    /// topological order, direct insertion before the Fig. 5 reroutes.
    ///
    /// Yields exactly what filtering every enumerated candidate through
    /// [`applicable`] would (as [`find_locations_naive`] does), with the
    /// checks hoisted: the widened cells once per target, and the per-net
    /// test once per trigger-gate input and target.
    pub(crate) fn location_of(
        &mut self,
        netlist: &Netlist,
        engine: &AnalysisEngine,
        p_id: GateId,
    ) -> Option<FingerprintLocation> {
        let p_gate = netlist.gate(p_id);
        let p_fn = netlist.gate_fn(p_id);
        let arity = p_gate.inputs().len();
        // Criterion 4 precondition: P can make other inputs unobservable.
        if !p_fn.has_nonzero_odc(arity) {
            return None;
        }
        self.candidates.clear();
        for (ffc_pin, &y_net) in p_gate.inputs().iter().enumerate() {
            // Criteria 1 + 2: the pin is driven by a gate that feeds only P.
            let root = match netlist.net(y_net).driver() {
                NetDriver::Gate(g) => g,
                _ => continue,
            };
            if !engine.feeds_only(root, p_id) {
                continue;
            }
            // Criterion 4: trigger pins with their controlling values.
            trigger_candidates_into(p_fn, arity, ffc_pin, &mut self.triggers);
            if self.triggers.is_empty() {
                continue;
            }
            // Criterion 3: eligible target gates inside the cone.
            engine.ffc_of_into(root, &mut self.cone);
            self.targets.clear();
            self.targets
                .extend(self.cone.iter().copied().filter_map(|g| {
                    let f = netlist.gate_fn(g);
                    ((f.has_nonzero_odc(netlist.gate(g).inputs().len()) || f.is_single_input())
                        && widened_cell(netlist, g, 1).is_some())
                    .then(|| (g, widened_cell(netlist, g, 2).is_some()))
                }));
            for trig in &self.triggers {
                let trigger_net = p_gate.inputs()[trig.pin];
                // The value of the trigger when Y is observable.
                let non_controlling = !trig.value;
                let reroute = reroute_source(netlist, trigger_net, non_controlling);
                let candidate = |modification| Candidate {
                    ffc_pin,
                    ffc_root: root,
                    trigger_pin: trig.pin,
                    modification,
                };
                for &(target, widens_by_two) in &self.targets {
                    let plane_neutral = netlist
                        .gate_fn(target)
                        .widened()
                        .neutral_input_value()
                        .expect("widened functions always have a neutral value");
                    let complement = non_controlling != plane_neutral;
                    if net_addable(netlist, target, trigger_net, complement) {
                        self.candidates.push(candidate(Modification::InsertTrigger {
                            target,
                            trigger: trigger_net,
                            complement,
                        }));
                    }
                    // Fig. 5 reroutes via the trigger-generating gate, in
                    // `reroute_options_into` order.
                    let Some((inputs, pinned)) = reroute else {
                        continue;
                    };
                    let complement = pinned != plane_neutral;
                    self.addable.clear();
                    self.addable.extend(
                        inputs
                            .iter()
                            .map(|&net| net_addable(netlist, target, net, complement)),
                    );
                    for i in 0..inputs.len() {
                        if self.addable[i] {
                            self.candidates.push(candidate(Modification::RerouteEarly {
                                target,
                                sources: Sources::one(inputs[i]),
                                complement,
                            }));
                        }
                        if !(widens_by_two && self.addable[i]) {
                            continue;
                        }
                        for j in (i + 1)..inputs.len() {
                            if inputs[i] != inputs[j] && self.addable[j] {
                                self.candidates.push(candidate(Modification::RerouteEarly {
                                    target,
                                    sources: Sources::two(inputs[i], inputs[j]),
                                    complement,
                                }));
                            }
                        }
                    }
                }
            }
        }
        if self.candidates.is_empty() {
            None
        } else {
            Some(FingerprintLocation {
                primary_gate: p_id,
                candidates: self.candidates.to_vec(),
            })
        }
    }
}

/// The pre-engine reference implementation of [`find_locations`]: per-root
/// DFS cone queries via [`cones`], sequential, one allocation set per
/// probe, and every enumerated candidate filtered through the full
/// `applicable` check. Kept as the oracle for equivalence property tests
/// and as the baseline side of the engine-vs-naive benchmarks.
///
/// # Panics
///
/// Panics if the netlist is cyclic (validate first).
pub fn find_locations_naive(netlist: &Netlist) -> Vec<FingerprintLocation> {
    let mut locations = Vec::new();
    for (p_id, p_gate) in netlist.gates() {
        let p_fn = netlist.gate_fn(p_id);
        let arity = p_gate.inputs().len();
        // Criterion 4 precondition: P can make other inputs unobservable.
        if !p_fn.has_nonzero_odc(arity) {
            continue;
        }
        let mut candidates = Vec::new();
        for (ffc_pin, &y_net) in p_gate.inputs().iter().enumerate() {
            // Criteria 1 + 2: the pin is driven by a gate that feeds only P.
            let root = match netlist.net(y_net).driver() {
                NetDriver::Gate(g) => g,
                _ => continue,
            };
            if !cones::feeds_only(netlist, root, p_id) {
                continue;
            }
            // Criterion 4: trigger pins with their controlling values.
            let triggers = trigger_candidates(p_fn, arity, ffc_pin);
            if triggers.is_empty() {
                continue;
            }
            // Criterion 3: eligible target gates inside the cone.
            let cone = cones::ffc_of(netlist, root);
            let targets: Vec<GateId> = cone
                .into_iter()
                .filter(|&g| {
                    let f = netlist.gate_fn(g);
                    (f.has_nonzero_odc(netlist.gate(g).inputs().len()) || f.is_single_input())
                        && widened_cell(netlist, g, 1).is_some()
                })
                .collect();
            for trig in &triggers {
                let trigger_net = p_gate.inputs()[trig.pin];
                // The value of the trigger when Y is observable.
                let non_controlling = !trig.value;
                for &target in &targets {
                    let plane_neutral = netlist
                        .gate_fn(target)
                        .widened()
                        .neutral_input_value()
                        .expect("widened functions always have a neutral value");
                    let complement = non_controlling != plane_neutral;
                    let insert = Modification::InsertTrigger {
                        target,
                        trigger: trigger_net,
                        complement,
                    };
                    if applicable(netlist, &insert) {
                        candidates.push(Candidate {
                            ffc_pin,
                            ffc_root: root,
                            trigger_pin: trig.pin,
                            modification: insert,
                        });
                    }
                    // Fig. 5 reroutes via the trigger-generating gate.
                    let mut reroutes = Vec::new();
                    reroute_options_into(
                        netlist,
                        trigger_net,
                        non_controlling,
                        target,
                        plane_neutral,
                        &mut reroutes,
                    );
                    for reroute in reroutes {
                        if applicable(netlist, &reroute) {
                            candidates.push(Candidate {
                                ffc_pin,
                                ffc_root: root,
                                trigger_pin: trig.pin,
                                modification: reroute,
                            });
                        }
                    }
                }
            }
        }
        if !candidates.is_empty() {
            locations.push(FingerprintLocation {
                primary_gate: p_id,
                candidates,
            });
        }
    }
    locations
}

/// The known value every input of gate function `f` takes when its output
/// is `out`, if `out` pins them all (AND=1 ⇒ inputs 1; NOR=1 ⇒ inputs 0;
/// OR=0 ⇒ inputs 0; NAND=0 ⇒ inputs 1).
fn pinned_input_value(f: PrimitiveFn, out: bool) -> Option<bool> {
    match (f, out) {
        (PrimitiveFn::And, true) | (PrimitiveFn::Nand, false) => Some(true),
        (PrimitiveFn::Or, false) | (PrimitiveFn::Nor, true) => Some(false),
        _ => None,
    }
}

/// The Fig. 5 trigger gate's inputs and the value they are all pinned to
/// while `trigger_net` carries `non_controlling`, if it is gate-driven and
/// that value pins them.
fn reroute_source(
    netlist: &Netlist,
    trigger_net: NetId,
    non_controlling: bool,
) -> Option<(&[NetId], bool)> {
    let NetDriver::Gate(trigger_gate) = netlist.net(trigger_net).driver() else {
        return None;
    };
    let pinned = pinned_input_value(netlist.gate_fn(trigger_gate), non_controlling)?;
    Some((netlist.gate(trigger_gate).inputs(), pinned))
}

/// Enumerates the Fig. 5 early-reroute modifications for one
/// (trigger, target) pair into `out` (cleared first): subsets of size 1 and
/// 2 of the trigger gate's inputs (`n(n+1)/2` options for an n-input
/// trigger gate).
fn reroute_options_into(
    netlist: &Netlist,
    trigger_net: NetId,
    non_controlling: bool,
    target: GateId,
    plane_neutral: bool,
    out: &mut Vec<Modification>,
) {
    out.clear();
    let Some((inputs, pinned)) = reroute_source(netlist, trigger_net, non_controlling) else {
        return;
    };
    let complement = pinned != plane_neutral;
    for i in 0..inputs.len() {
        out.push(Modification::RerouteEarly {
            target,
            sources: Sources::one(inputs[i]),
            complement,
        });
        for j in (i + 1)..inputs.len() {
            if inputs[i] == inputs[j] {
                continue;
            }
            out.push(Modification::RerouteEarly {
                target,
                sources: Sources::two(inputs[i], inputs[j]),
                complement,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_netlist::CellLibrary;

    /// The paper's Figure 1: F = (A & B) & (C | D).
    fn fig1() -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("fig1", lib);
        let a = n.add_primary_input("A");
        let b = n.add_primary_input("B");
        let c = n.add_primary_input("C");
        let d = n.add_primary_input("D");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
        let x = n.add_gate("gx", and2, &[a, b]);
        let y = n.add_gate("gy", or2, &[c, d]);
        let f = n.add_gate("gf", and2, &[n.gate_output(x), n.gate_output(y)]);
        n.set_primary_output(n.gate_output(f));
        n
    }

    #[test]
    fn fig1_has_one_location_at_the_final_and() {
        let n = fig1();
        let locs = find_locations(&n);
        assert_eq!(locs.len(), 1);
        let gf = n.gate_by_name("gf").unwrap();
        assert_eq!(locs[0].primary_gate, gf);
        // Both pins of gf are FFC-fed, so both directions are enumerated:
        // trigger Y into gx (Fig. 1 right) and trigger X into gy, plus
        // Fig. 5 reroutes from the trigger gates.
        let pins: std::collections::HashSet<usize> =
            locs[0].candidates.iter().map(|c| c.ffc_pin).collect();
        assert_eq!(pins.len(), 2);
        // The classic Fig. 1 modification exists: insert Y into gx,
        // regular form (AND primary: nc = 1, AND target neutral = 1).
        let gx = n.gate_by_name("gx").unwrap();
        let gy = n.gate_by_name("gy").unwrap();
        let y_net = n.gate_output(gy);
        assert!(locs[0].candidates.iter().any(|c| c.modification
            == Modification::InsertTrigger {
                target: gx,
                trigger: y_net,
                complement: false
            }));
    }

    #[test]
    fn fig5_reroutes_enumerated() {
        let n = fig1();
        let locs = find_locations(&n);
        let gy = n.gate_by_name("gy").unwrap();
        let a = n.net_by_name("A").unwrap();
        let b = n.net_by_name("B").unwrap();
        // Trigger X = AND(A, B) has 2 inputs -> n(n+1)/2 = 3 reroute options
        // into gy (complemented, since X=1 pins A=B=1 and OR needs 0).
        let reroutes: Vec<&Modification> = locs[0]
            .candidates
            .iter()
            .filter(|c| {
                matches!(c.modification, Modification::RerouteEarly { target, .. } if target == gy)
            })
            .map(|c| &c.modification)
            .collect();
        assert_eq!(reroutes.len(), 3);
        for m in &reroutes {
            assert!(m.complemented());
        }
        let sources: std::collections::HashSet<Vec<NetId>> =
            reroutes.iter().map(|m| m.added_nets().to_vec()).collect();
        assert!(sources.contains(&vec![a]));
        assert!(sources.contains(&vec![b]));
        assert!(sources.contains(&vec![a, b]));
    }

    #[test]
    fn every_candidate_preserves_function() {
        let n = fig1();
        let locs = find_locations(&n);
        for loc in &locs {
            for cand in &loc.candidates {
                let mut copy = n.clone();
                crate::modify::apply_modification(&mut copy, &cand.modification).unwrap();
                copy.validate().unwrap();
                for i in 0..16usize {
                    let bits: Vec<bool> = (0..4).map(|v| (i >> v) & 1 == 1).collect();
                    assert_eq!(
                        copy.eval(&bits),
                        n.eval(&bits),
                        "candidate {cand:?} assignment {i:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn xor_primary_gates_are_not_locations() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("x", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let c = n.add_primary_input("c");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let xor2 = n.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let g1 = n.add_gate("g1", and2, &[a, b]);
        let g2 = n.add_gate("g2", xor2, &[n.gate_output(g1), c]);
        n.set_primary_output(n.gate_output(g2));
        assert!(find_locations(&n).is_empty());
    }

    #[test]
    fn pi_fed_pins_are_not_ffc_roots() {
        // P = AND(a, b) with both inputs primary: criterion 1/2 fail.
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("pi", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let g = n.add_gate("g", and2, &[a, b]);
        n.set_primary_output(n.gate_output(g));
        assert!(find_locations(&n).is_empty());
    }

    #[test]
    fn shared_fanout_root_rejected() {
        // gx feeds both gf and another gate: criterion 2 fails for gf's pin.
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("sf", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let y = n.add_primary_input("y");
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let gx = n.add_gate("gx", and2, &[a, b]);
        let gf = n.add_gate("gf", and2, &[n.gate_output(gx), y]);
        let side = n.add_gate("side", inv, &[n.gate_output(gx)]);
        n.set_primary_output(n.gate_output(gf));
        n.set_primary_output(n.gate_output(side));
        assert!(find_locations(&n).is_empty());
    }

    #[test]
    fn xor_gates_inside_ffc_are_not_targets() {
        // FFC root is an XOR: criterion 3 excludes it; no other target.
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("xt", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let y = n.add_primary_input("y");
        let xor2 = n.library().cell_for(PrimitiveFn::Xor, 2).unwrap();
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let gx = n.add_gate("gx", xor2, &[a, b]);
        let gf = n.add_gate("gf", and2, &[n.gate_output(gx), y]);
        n.set_primary_output(n.gate_output(gf));
        assert!(find_locations(&n).is_empty());
    }

    #[test]
    fn inverter_in_ffc_is_a_target() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("it", lib);
        let a = n.add_primary_input("a");
        let y = n.add_primary_input("y");
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let gx = n.add_gate("gx", inv, &[a]);
        let gf = n.add_gate("gf", and2, &[n.gate_output(gx), y]);
        n.set_primary_output(n.gate_output(gf));
        let locs = find_locations(&n);
        assert_eq!(locs.len(), 1);
        assert!(locs[0]
            .candidates
            .iter()
            .any(|c| c.modification.target() == gx));
    }

    #[test]
    fn deterministic_discovery_order() {
        let n = fig1();
        assert_eq!(find_locations(&n), find_locations(&n));
        // Stability across worker counts: the engine path must produce the
        // same list at any thread count, and match the naive oracle.
        let eng = AnalysisEngine::new(&n).unwrap();
        let naive = find_locations_naive(&n);
        for threads in [1, 2, 8] {
            assert_eq!(
                find_locations_with(&n, &eng, threads),
                naive,
                "threads={threads}"
            );
        }
    }
}
