//! The Verilog parser under seeded byte mutation: every mutant of a written
//! c432 or des netlist must come back as a netlist or a
//! `ParseVerilogError` with a line inside the source, never a panic, and
//! within a fixed time.
//!
//! The default test runs a small budget of seeds; the ignored one runs the
//! larger budget CI uses:
//!
//! ```text
//! cargo test --release -p odcfp-core --test verilog_mutation -- --ignored
//! ```
//!
//! A failure names the circuit and the seed; `verilog_mutants::mutant`
//! rebuilds that mutant from them.

#[path = "verilog_mutants.rs"]
mod verilog_mutants;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use odcfp_netlist::CellLibrary;
use odcfp_verilog::{parse_verilog, write_verilog};
use verilog_mutants::mutant;

/// A des parse takes milliseconds; a mutant that takes this long has sent
/// the parser into a rescan or a loop.
const PER_MUTANT: Duration = Duration::from_secs(2);

fn run_mutants(seeds: std::ops::Range<u64>) -> usize {
    let lib = CellLibrary::standard();
    let mut parsed = 0;
    for circuit in ["c432", "des"] {
        let base = odcfp_synth::benchmarks::generate(circuit, lib.clone()).expect("known circuit");
        let text = write_verilog(&base);
        parse_verilog(&text, lib.clone()).expect("the unmutated text parses");
        for seed in seeds.clone() {
            let (kinds, src) = mutant(&text, seed);
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| parse_verilog(&src, lib.clone())));
            let elapsed = start.elapsed();
            let Ok(result) = outcome else {
                panic!("{circuit} mutant seed {seed} ({kinds:?}) panicked the parser");
            };
            assert!(
                elapsed < PER_MUTANT,
                "{circuit} mutant seed {seed} ({kinds:?}) took {elapsed:?}"
            );
            match result {
                Ok(n) => {
                    n.validate().unwrap_or_else(|e| {
                        panic!("{circuit} mutant seed {seed} ({kinds:?}) parsed invalid: {e}")
                    });
                    parsed += 1;
                }
                Err(e) => {
                    let lines = src.matches('\n').count() + 1;
                    assert!(
                        (1..=lines).contains(&e.line),
                        "{circuit} mutant seed {seed} ({kinds:?}): line {} of {lines}: {e}",
                        e.line
                    );
                    assert!(!e.to_string().is_empty());
                }
            }
        }
    }
    parsed
}

#[test]
fn verilog_mutants_parse_or_fail_cleanly() {
    let parsed = run_mutants(0..300);
    // Some edits (whitespace splices between tokens, flips inside a
    // comment-free name) leave a legal netlist; the loop must see both
    // outcomes to exercise both.
    assert!(parsed > 0, "no mutant parsed");
    assert!(parsed < 600, "every mutant parsed");
}

#[test]
#[ignore = "CI budget: run with --ignored"]
fn verilog_mutants_at_ci_budget() {
    run_mutants(0..5_000);
}
