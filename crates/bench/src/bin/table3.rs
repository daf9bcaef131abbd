//! Regenerates the paper's Table III: average fingerprint reduction and
//! surviving overheads after the delay-constrained heuristic at
//! 10% / 5% / 1% budgets.
//!
//! Usage: `table3 [--fast | circuit names...] [--method reactive|proactive]`
//! (the paper evaluates the reactive method, the default).

use odcfp_bench::{
    format_table3, names_from_args, run_table3_with, Table3Method, PAPER_TABLE3, TABLE3_CONSTRAINTS,
};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let method = if let Some(at) = args.iter().position(|a| a == "--method") {
        args.remove(at);
        match args.remove(at.min(args.len().saturating_sub(1))).as_str() {
            "reactive" => Table3Method::Reactive,
            "proactive" => Table3Method::Proactive,
            other => panic!("unknown method {other:?}"),
        }
    } else {
        Table3Method::Reactive
    };
    let names = names_from_args(&args);
    let rows = run_table3_with(&names, &TABLE3_CONSTRAINTS, method);
    println!(
        "== Table III ({method:?} heuristic, averaged over {} circuits) ==",
        names.len()
    );
    print!("{}", format_table3(&rows));
    println!();
    println!("== Paper reference (Dunbar & Qu, DAC'15, Table III) ==");
    println!(
        "{:<22} {:>12} {:>8} {:>8} {:>8}",
        "constraint", "FP reduce%", "area%", "delay%", "power%"
    );
    for (pct, red, area, delay, power) in PAPER_TABLE3 {
        println!(
            "{:<22} {red:>12.2} {area:>8.2} {delay:>8.2} {power:>8.2}",
            format!("{pct}% delay constraint")
        );
    }
}
