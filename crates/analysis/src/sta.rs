//! Static timing analysis.
//!
//! The delay model is the `genlib` one the cell library is characterized
//! for: a gate's propagation delay is its cell's intrinsic delay plus a load
//! term proportional to the fanout of its output net
//! ([`odcfp_netlist::Cell::delay`]). Primary inputs arrive at time 0.

use odcfp_netlist::{GateId, NetDriver, Netlist, NetlistError};

/// The result of [`analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimingAnalysis {
    arrival: Vec<f64>,
    required: Vec<f64>,
    delay: Vec<f64>,
    critical_path: Vec<GateId>,
    max_delay: f64,
}

impl TimingAnalysis {
    /// The circuit delay: the latest primary-output arrival time.
    pub fn max_delay(&self) -> f64 {
        self.max_delay
    }

    /// The arrival time at a gate's output.
    pub fn arrival(&self, gate: GateId) -> f64 {
        self.arrival[gate.index()]
    }

    /// The required time at a gate's output (w.r.t. the circuit delay).
    pub fn required(&self, gate: GateId) -> f64 {
        self.required[gate.index()]
    }

    /// The slack of a gate: `required - arrival`; ≥ 0 everywhere, 0 on the
    /// critical path.
    pub fn slack(&self, gate: GateId) -> f64 {
        self.required[gate.index()] - self.arrival[gate.index()]
    }

    /// The propagation delay assigned to a gate (intrinsic + load).
    pub fn gate_delay(&self, gate: GateId) -> f64 {
        self.delay[gate.index()]
    }

    /// One critical path, from a depth-1 gate to the latest primary output.
    pub fn critical_path(&self) -> &[GateId] {
        &self.critical_path
    }

    /// Renders a human-readable timing report: the circuit delay and the
    /// critical path with per-stage arrival times (the `report_timing`
    /// format of commercial STA tools, abridged).
    ///
    /// `netlist` must be the design this analysis was computed from.
    pub fn report(&self, netlist: &Netlist) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "circuit delay: {:.3}", self.max_delay);
        let _ = writeln!(out, "critical path ({} stages):", self.critical_path.len());
        for &g in &self.critical_path {
            let gate = netlist.gate(g);
            let cell = netlist.library().cell(gate.cell());
            let _ = writeln!(
                out,
                "  {:<20} {:<8} delay {:>6.3}  arrival {:>8.3}  slack {:>7.3}",
                gate.name(),
                cell.name(),
                self.gate_delay(g),
                self.arrival(g),
                self.slack(g)
            );
        }
        out
    }
}

/// Runs static timing analysis over a validated netlist.
///
/// # Errors
///
/// Returns an error if the netlist contains a combinational cycle.
pub fn analyze(netlist: &Netlist) -> Result<TimingAnalysis, NetlistError> {
    let order = netlist.topo_order()?;
    let n = netlist.num_gates();
    let mut arrival = vec![0.0f64; n];
    let mut delay = vec![0.0f64; n];

    for &g in &order {
        let gate = netlist.gate(g);
        let cell = netlist.library().cell(gate.cell());
        let fanout = netlist.net(gate.output()).fanout();
        let d = cell.delay(fanout);
        delay[g.index()] = d;
        let input_arrival = gate
            .inputs()
            .iter()
            .map(|&i| match netlist.net(i).driver() {
                NetDriver::Gate(src) => arrival[src.index()],
                _ => 0.0,
            })
            .fold(0.0f64, f64::max);
        arrival[g.index()] = input_arrival + d;
    }

    // Circuit delay over primary outputs.
    let mut max_delay = 0.0f64;
    let mut latest: Option<GateId> = None;
    for &po in netlist.primary_outputs() {
        if let NetDriver::Gate(src) = netlist.net(po).driver() {
            if arrival[src.index()] >= max_delay {
                max_delay = arrival[src.index()];
                latest = Some(src);
            }
        }
    }

    // Required times, backward.
    let mut required = vec![f64::INFINITY; n];
    for &po in netlist.primary_outputs() {
        if let NetDriver::Gate(src) = netlist.net(po).driver() {
            required[src.index()] = max_delay;
        }
    }
    for &g in order.iter().rev() {
        let gate = netlist.gate(g);
        for p in netlist.net(gate.output()).sinks() {
            let sink = p.gate;
            let r = required[sink.index()] - delay[sink.index()];
            if r < required[g.index()] {
                required[g.index()] = r;
            }
        }
        if required[g.index()].is_infinite() {
            // Dangling gate (drives nothing observable): give it full slack.
            required[g.index()] = max_delay;
        }
    }

    // Trace one critical path backward from the latest PO driver.
    let mut critical_path = Vec::new();
    if let Some(mut g) = latest {
        loop {
            critical_path.push(g);
            let gate = netlist.gate(g);
            let pred = gate
                .inputs()
                .iter()
                .filter_map(|&i| match netlist.net(i).driver() {
                    NetDriver::Gate(src) => Some(src),
                    _ => None,
                })
                .max_by(|a, b| {
                    arrival[a.index()]
                        .partial_cmp(&arrival[b.index()])
                        .expect("arrival times are finite")
                });
            match pred {
                Some(p) => g = p,
                None => break,
            }
        }
        critical_path.reverse();
    }

    Ok(TimingAnalysis {
        arrival,
        required,
        delay,
        critical_path,
        max_delay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odcfp_logic::PrimitiveFn;
    use odcfp_netlist::CellLibrary;

    /// A chain a -> INV -> INV -> ... -> po, plus a short side branch.
    fn chain(n_invs: usize) -> Netlist {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("chain", lib);
        let a = n.add_primary_input("a");
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let mut cur = a;
        for i in 0..n_invs {
            let g = n.add_gate(format!("i{i}"), inv, &[cur]);
            cur = n.gate_output(g);
        }
        n.set_primary_output(cur);
        n
    }

    #[test]
    fn chain_delay_adds_up() {
        let n = chain(4);
        let t = analyze(&n).unwrap();
        let lib = n.library();
        let inv = lib.cell(lib.cell_for(PrimitiveFn::Inv, 1).unwrap());
        let per_stage = inv.delay(1);
        assert!((t.max_delay() - 4.0 * per_stage).abs() < 1e-9);
        assert_eq!(t.critical_path().len(), 4);
        for &g in t.critical_path() {
            assert!(t.slack(g).abs() < 1e-9, "critical path has zero slack");
        }
    }

    #[test]
    fn report_lists_critical_path() {
        let n = chain(3);
        let t = analyze(&n).unwrap();
        let rep = t.report(&n);
        assert!(rep.contains("circuit delay"));
        assert!(rep.contains("3 stages"));
        assert!(rep.contains("i0"));
        assert!(rep.contains("INV"));
        // Zero slack along the path.
        assert!(rep.matches("slack   0.000").count() >= 3, "{rep}");
    }

    #[test]
    fn slack_positive_off_critical_path() {
        // Two parallel paths of different lengths reconverging at an AND.
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("reconv", lib);
        let a = n.add_primary_input("a");
        let b = n.add_primary_input("b");
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
        let i1 = n.add_gate("i1", inv, &[a]);
        let i2 = n.add_gate("i2", inv, &[n.gate_output(i1)]);
        let i3 = n.add_gate("i3", inv, &[n.gate_output(i2)]);
        let short = n.add_gate("short", inv, &[b]);
        let top = n.add_gate("top", and2, &[n.gate_output(i3), n.gate_output(short)]);
        n.set_primary_output(n.gate_output(top));
        let t = analyze(&n).unwrap();
        let short_gate = n.gate_by_name("short").unwrap();
        assert!(t.slack(short_gate) > 0.0);
        let i1g = n.gate_by_name("i1").unwrap();
        assert!(t.slack(i1g).abs() < 1e-9);
        assert!(t.required(short_gate) >= t.arrival(short_gate));
    }

    #[test]
    fn fanout_increases_delay() {
        // One inverter driving k sinks is slower than driving one.
        let build = |k: usize| {
            let lib = CellLibrary::standard();
            let mut n = Netlist::new("fan", lib);
            let a = n.add_primary_input("a");
            let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
            let driver = n.add_gate("driver", inv, &[a]);
            let out = n.gate_output(driver);
            for i in 0..k {
                let g = n.add_gate(format!("s{i}"), inv, &[out]);
                n.set_primary_output(n.gate_output(g));
            }
            analyze(&n).unwrap().max_delay()
        };
        assert!(build(4) > build(1));
    }

    #[test]
    fn empty_netlist_zero_delay() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("empty", lib);
        let a = n.add_primary_input("a");
        n.set_primary_output(a);
        let t = analyze(&n).unwrap();
        assert_eq!(t.max_delay(), 0.0);
        assert!(t.critical_path().is_empty());
    }

    #[test]
    fn dangling_gate_gets_full_slack() {
        let lib = CellLibrary::standard();
        let mut n = Netlist::new("dangle", lib);
        let a = n.add_primary_input("a");
        let inv = n.library().cell_for(PrimitiveFn::Inv, 1).unwrap();
        let keep = n.add_gate("keep", inv, &[a]);
        let keep2 = n.add_gate("keep2", inv, &[n.gate_output(keep)]);
        n.set_primary_output(n.gate_output(keep2));
        let dangle = n.add_gate("dangle", inv, &[a]);
        let t = analyze(&n).unwrap();
        assert!(t.slack(dangle) > 0.0);
    }
}
