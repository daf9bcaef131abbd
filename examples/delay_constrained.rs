//! Delay-constrained fingerprinting (§III-D / Table III): embed as much
//! fingerprint as a 10% / 5% / 1% delay budget allows, with both the
//! reactive and proactive heuristics.
//!
//! Run with: `cargo run --release --example delay_constrained [circuit]`

use odcfp_analysis::DesignMetrics;
use odcfp_core::heuristics::{
    proactive_delay_embedding, reactive_delay_reduction, ReactiveOptions,
};
use odcfp_core::Fingerprinter;
use odcfp_netlist::CellLibrary;
use odcfp_synth::benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "c499".to_owned());
    let lib = CellLibrary::standard();
    let base =
        benchmarks::generate(&name, lib).unwrap_or_else(|| panic!("unknown benchmark {name:?}"));
    let fp = Fingerprinter::new(base)?;
    let base_metrics = DesignMetrics::measure(fp.base());
    let total = fp.locations().len();

    let unconstrained = fp.embed_all()?;
    let um = DesignMetrics::measure(unconstrained.netlist());
    println!(
        "{name}: {total} locations; unconstrained overhead: {}\n",
        um.overhead_vs(&base_metrics)
    );

    println!(
        "{:<12} {:>10} {:>10} {:>28}",
        "budget", "kept(rea)", "kept(pro)", "surviving overhead (reactive)"
    );
    for pct in [10.0, 5.0, 1.0] {
        let rea = reactive_delay_reduction(&fp, pct, ReactiveOptions::default())?;
        let pro = proactive_delay_embedding(&fp, pct)?;
        println!(
            "{:<12} {:>7}/{total} {:>7}/{total} {:>28}",
            format!("{pct}% delay"),
            rea.kept_locations(),
            pro.kept_locations(),
            rea.metrics.overhead_vs(&rea.base_metrics).to_string()
        );
    }
    println!("\nEvery surviving copy is functionally identical to the base");
    println!("(verified by 1024-pattern simulation at embed time).");
    Ok(())
}
