//! Solver-tier benchmark: regenerates `BENCH_sat.json` at the
//! repository root, measuring the CDCL search the verify ladder runs on.
//!
//! Usage: `cargo run --release -p odcfp-bench --bin bench_sat
//! [--fast] [--check]`
//!
//! Three sections:
//!
//! 1. **hard_set** — pigeonhole formulas, a deep xor-chain miter and a
//!    phase-transition random 3-SAT instance solved unbounded, recording
//!    verdict, conflicts, wall time and conflicts/sec. The search is
//!    deterministic, so each verdict and conflict count is pinned.
//! 2. **des_sweep** — a strict verify sweep (the ladder's sweeping SAT
//!    rung) over fingerprinted `des` buyers; the Undecided-rate must be
//!    zero.
//! 3. **c6288_hard_miter** — a cold whole-circuit [`Miter`] of the
//!    multiplier against one fingerprinted copy, which CDCL cannot
//!    decide, solved directly under a 2,000-conflict cap (the cap
//!    `tests/verify_fastpath.rs` gives its c6288 reference miter), with
//!    a wall-clock ceiling so a pathological solver regression (e.g.
//!    propagation slowdown) fails CI even though the verdict is
//!    honestly `undecided` at the cap.
//!
//! `--check` exits non-zero if: a hard-set verdict or conflict count
//! differs from its pin, any des verdict is Undecided, or the capped
//! c6288 miter misses its wall ceiling. `--fast` trims section 1 to its
//! quickest instance and the des sweep to two buyers; the JSON records
//! which mode produced it.

use std::path::PathBuf;
use std::time::Instant;

use odcfp_bench::netlist_for;
use odcfp_core::{Fingerprinter, Verdict, VerifyPolicy, VerifySession};
use odcfp_sat::{CnfBuilder, Limits, Lit, Miter, MiterOutcome, SolveResult, Solver};

/// Wall-clock ceiling for the conflict-capped c6288 miter. The cap
/// bounds the search at 2000 conflicts; at sane propagation speed that
/// is far under a second, so the ceiling only trips on order-of-
/// magnitude regressions while staying safe on slow CI machines.
const C6288_CEILING_MS: f64 = 60_000.0;

// ---------------------------------------------------------------------
// Instance generators (all deterministic; no clocks or OS randomness).
// ---------------------------------------------------------------------

/// Pigeonhole formula PHP(p, h): `p` pigeons into `h` holes, UNSAT for
/// p > h. Variable (i, j) = pigeon i in hole j. Resolution-hard, so the
/// learnt DB grows without bound — exactly the regime where LBD-guided
/// reduction pays off.
fn pigeonhole(pigeons: usize, holes: usize) -> CnfBuilder {
    let mut cnf = CnfBuilder::new();
    let vars: Vec<Vec<_>> = (0..pigeons).map(|_| cnf.new_vars(holes)).collect();
    for row in &vars {
        cnf.add_clause(row.iter().map(|&v| Lit::pos(v)).collect::<Vec<_>>());
    }
    for (a, row_a) in vars.iter().enumerate() {
        for row_b in &vars[a + 1..] {
            for (&va, &vb) in row_a.iter().zip(row_b) {
                cnf.add_clause([Lit::neg(va), Lit::neg(vb)]);
            }
        }
    }
    cnf
}

/// An UNSAT xor-chain miter over `width` inputs (forward vs reversed
/// association with the difference asserted) — the same shape the
/// differential suite uses, scaled up to need real search.
fn xor_miter(width: usize) -> CnfBuilder {
    let mut cnf = CnfBuilder::new();
    let inputs = cnf.new_vars(width);
    let xor2 = |cnf: &mut CnfBuilder, a, b| {
        let t = cnf.new_var();
        cnf.add_clause([Lit::neg(t), Lit::pos(a), Lit::pos(b)]);
        cnf.add_clause([Lit::neg(t), Lit::neg(a), Lit::neg(b)]);
        cnf.add_clause([Lit::pos(t), Lit::neg(a), Lit::pos(b)]);
        cnf.add_clause([Lit::pos(t), Lit::pos(a), Lit::neg(b)]);
        t
    };
    let mut acc = inputs[0];
    for &i in &inputs[1..] {
        acc = xor2(&mut cnf, acc, i);
    }
    let mut rev = inputs[width - 1];
    for &i in inputs[..width - 1].iter().rev() {
        rev = xor2(&mut cnf, rev, i);
    }
    let diff = xor2(&mut cnf, acc, rev);
    cnf.add_clause([Lit::pos(diff)]);
    cnf
}

/// Deterministic random 3-SAT at the phase-transition ratio (m/n =
/// 4.26), xorshift64* keyed by `seed`. Its pinned conflict count
/// depends on the exact bytes it produces, so they must never change.
fn rand3sat(n: usize, m: usize, seed: u64) -> CnfBuilder {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ seed.wrapping_mul(0x0DCF_5EED);
    if state == 0 {
        state = 1;
    }
    let mut nxt = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut cnf = CnfBuilder::new();
    let vars = cnf.new_vars(n);
    for _ in 0..m {
        let mut picked: Vec<usize> = Vec::with_capacity(3);
        while picked.len() < 3 {
            let v = (nxt() % n as u64) as usize;
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        let clause: Vec<Lit> = picked
            .into_iter()
            .map(|v| {
                if nxt() & 1 == 1 {
                    Lit::pos(vars[v])
                } else {
                    Lit::neg(vars[v])
                }
            })
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

/// Deterministic per-buyer fingerprint bits: a xorshift stream seeded
/// from the buyer index, so every run measures the same copies.
fn buyer_bits(buyer: u64, n: usize) -> Vec<bool> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (buyer + 1).wrapping_mul(0x0DCF_5EED);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 1 == 1
        })
        .collect()
}

// ---------------------------------------------------------------------
// Section 1: the hard set against its pins.
// ---------------------------------------------------------------------

struct HardRun {
    instance: &'static str,
    verdict: &'static str,
    conflicts: u64,
    wall_ms: f64,
    /// The verdict and conflict count `--check` requires.
    pinned: (&'static str, u64),
}

impl HardRun {
    fn conflicts_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.conflicts as f64 / (self.wall_ms / 1e3)
        } else {
            f64::INFINITY
        }
    }
}

fn result_name(r: &SolveResult) -> &'static str {
    match r {
        SolveResult::Sat(_) => "sat",
        SolveResult::Unsat => "unsat",
        SolveResult::Unknown => "unknown",
    }
}

fn hard_runs(fast: bool) -> Vec<HardRun> {
    let mut set = vec![("php_8_7", pigeonhole(8, 7), ("unsat", 3_311))];
    if !fast {
        set.push(("php_9_8", pigeonhole(9, 8), ("unsat", 33_168)));
        set.push(("xor_miter_64", xor_miter(64), ("unsat", 1_108)));
        set.push((
            "rand3sat_n200_m852_s5",
            rand3sat(200, 852, 5),
            ("sat", 8_128),
        ));
    }
    set.into_iter()
        .map(|(instance, cnf, pinned)| {
            eprintln!("hard set: {instance}...");
            let mut solver = Solver::from_cnf(&cnf);
            let t0 = Instant::now();
            let result = solver.solve();
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            HardRun {
                instance,
                verdict: result_name(&result),
                conflicts: solver.stats().conflicts,
                wall_ms,
                pinned,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Section 2: des fast-path sweep — the Undecided-rate acceptance.
// ---------------------------------------------------------------------

struct DesSweep {
    buyers: usize,
    proven: usize,
    undecided: usize,
    wall_ms: f64,
}

fn des_sweep(buyers: usize) -> DesSweep {
    let base = netlist_for("des");
    let fp = Fingerprinter::new(base.clone()).expect("valid benchmark");
    let n_loc = fp.locations().len();
    eprintln!("des_sweep: verifying {buyers} fingerprinted buyers ({n_loc} locations)...");
    let policy = VerifyPolicy::strict();
    let t0 = Instant::now();
    let mut session = VerifySession::new(&base).expect("valid benchmark");
    let (mut proven, mut undecided) = (0, 0);
    for b in 0..buyers as u64 {
        let copy = fp
            .embed(&buyer_bits(b, n_loc))
            .expect("embed preserves function");
        match session
            .verify(copy.netlist(), &policy)
            .expect("verify")
            .verdict
        {
            Verdict::Proven => proven += 1,
            Verdict::Undecided { .. } => undecided += 1,
            other => panic!("des buyer {b}: fingerprinted copy came back {other}"),
        }
    }
    DesSweep {
        buyers,
        proven,
        undecided,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

// ---------------------------------------------------------------------
// Section 3: conflict-capped c6288 cold miter under a wall ceiling.
// ---------------------------------------------------------------------

struct HardMiter {
    cap: u64,
    verdict: &'static str,
    conflicts: u64,
    wall_ms: f64,
    ceiling_ms: f64,
}

impl HardMiter {
    fn conflicts_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.conflicts as f64 / (self.wall_ms / 1e3)
        } else {
            f64::INFINITY
        }
    }
}

fn hard_miter() -> HardMiter {
    let cap = 2000u64;
    let base = netlist_for("c6288");
    let fp = Fingerprinter::new(base.clone()).expect("valid benchmark");
    let n_loc = fp.locations().len();
    let copy = fp
        .embed(&buyer_bits(0, n_loc))
        .expect("embed preserves function");
    eprintln!("c6288: cold whole-circuit miter capped at {cap} conflicts...");
    let limits = Limits {
        conflicts: Some(cap),
        ..Limits::default()
    };
    let t0 = Instant::now();
    let mut miter = Miter::build(&base, copy.netlist()).expect("same interface");
    let verdict = match miter.solve(&limits) {
        MiterOutcome::Equivalent => "proven",
        MiterOutcome::Counterexample(_) => panic!("c6288: fingerprinted copy refuted"),
        MiterOutcome::Undecided => "undecided",
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    HardMiter {
        cap,
        verdict,
        conflicts: miter.conflicts_spent(),
        wall_ms,
        ceiling_ms: C6288_CEILING_MS,
    }
}

// ---------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------

fn write_json(fast: bool, runs: &[HardRun], des: &DesSweep, hard: &HardMiter) {
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"odcfp-bench-sat/3\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if fast { "fast" } else { "full" }
    ));
    json.push_str("  \"hard_set\": [\n");
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"instance\": \"{}\", \"verdict\": \"{}\", \
             \"conflicts\": {}, \"wall_ms\": {:.3}, \"conflicts_per_sec\": {:.0} }}{}\n",
            r.instance,
            r.verdict,
            r.conflicts,
            r.wall_ms,
            r.conflicts_per_sec(),
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"des_sweep\": {{ \"buyers\": {}, \"proven\": {}, \"undecided\": {}, \
         \"undecided_rate\": {:.3}, \"wall_ms\": {:.3} }},\n",
        des.buyers,
        des.proven,
        des.undecided,
        des.undecided as f64 / des.buyers.max(1) as f64,
        des.wall_ms,
    ));
    json.push_str(&format!(
        "  \"c6288_hard_miter\": {{ \"cap\": {}, \"verdict\": \"{}\", \"conflicts\": {}, \
         \"wall_ms\": {:.3}, \"conflicts_per_sec\": {:.0}, \"ceiling_ms\": {:.0} }}\n}}\n",
        hard.cap,
        hard.verdict,
        hard.conflicts,
        hard.wall_ms,
        hard.conflicts_per_sec(),
        hard.ceiling_ms,
    ));

    let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_sat.json"]
        .iter()
        .collect();
    std::fs::write(&out, &json).expect("write BENCH_sat.json");
    eprintln!("wrote {}", out.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let check = args.iter().any(|a| a == "--check");

    let runs = hard_runs(fast);
    let des = des_sweep(if fast { 2 } else { 4 });
    let hard = hard_miter();

    write_json(fast, &runs, &des, &hard);

    println!("| section | result |");
    println!("|---------|--------|");
    for r in &runs {
        println!(
            "| {} | {}, {} conflicts in {:.0} ms |",
            r.instance, r.verdict, r.conflicts, r.wall_ms
        );
    }
    println!(
        "| des sweep | {}/{} proven, {} undecided |",
        des.proven, des.buyers, des.undecided
    );
    println!(
        "| c6288 capped miter | {} in {:.0} ms ({:.0} conflicts/s) |",
        hard.verdict,
        hard.wall_ms,
        hard.conflicts_per_sec()
    );

    if check {
        let mut failures = Vec::new();
        for r in &runs {
            let (verdict, conflicts) = r.pinned;
            if (r.verdict, r.conflicts) != r.pinned {
                failures.push(format!(
                    "{}: {} after {} conflicts, pinned {verdict} after {conflicts}",
                    r.instance, r.verdict, r.conflicts
                ));
            }
        }
        if des.undecided != 0 {
            failures.push(format!(
                "des sweep left {} of {} buyers Undecided",
                des.undecided, des.buyers
            ));
        }
        if hard.wall_ms > hard.ceiling_ms {
            failures.push(format!(
                "c6288 capped miter took {:.0} ms (ceiling {:.0} ms)",
                hard.wall_ms, hard.ceiling_ms
            ));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!("all checks passed");
    }
}
