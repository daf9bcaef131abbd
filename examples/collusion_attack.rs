//! The collusion attack of §III-E: attackers holding several fingerprinted
//! copies diff them to expose fingerprint locations, forge a hybrid copy,
//! and the designer still traces them through the bits the collusion could
//! not see.
//!
//! Run with: `cargo run --release --example collusion_attack`

use odcfp_core::collusion::{analyze_collusion, forge, trace_suspects, ForgeStrategy};
use odcfp_core::Fingerprinter;
use odcfp_netlist::{CellLibrary, Netlist};
use odcfp_synth::benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = CellLibrary::standard();
    let base = benchmarks::generate("c432", lib).expect("known benchmark");
    let fp = Fingerprinter::new(base)?;
    let n_locs = fp.locations().len();
    println!(
        "design {} with {n_locs} fingerprint locations\n",
        fp.base().name()
    );

    // The vendor serves 10 buyers.
    let copies: Vec<_> = (0..10)
        .map(|k| fp.embed_seeded(0xC0FFEE + k))
        .collect::<Result<_, _>>()?;
    let registry: Vec<Vec<bool>> = copies.iter().map(|c| c.bits().to_vec()).collect();

    // How much does a growing collusion expose?
    println!("collusion size vs exposed locations:");
    for k in 2..=6usize {
        let held: Vec<&Netlist> = copies[..k].iter().map(|c| c.netlist()).collect();
        let report = analyze_collusion(&fp, &held);
        println!(
            "  {k} colluders expose {:>3} / {n_locs} locations ({:.0}%)",
            report.exposed.len(),
            report.exposure_rate() * 100.0
        );
    }

    // Buyers 0, 1, 2 collude and clear every wire they can see.
    let colluders = [0usize, 1, 2];
    let held: Vec<&Netlist> = colluders.iter().map(|&i| copies[i].netlist()).collect();
    let forged = forge(&fp, &held, ForgeStrategy::ClearExposed)?;
    println!(
        "\ncolluders {:?} forged a copy; it is still a functional clone (verified)",
        colluders
    );

    // Designer side: recover what remains and rank all buyers.
    let recovered = fp.extract(forged.netlist());
    let ranking = trace_suspects(&recovered, &registry);
    println!("tracing ranking (agreement with the forged copy):");
    for &(idx, score) in ranking.iter().take(6) {
        let mark = if colluders.contains(&idx) {
            "  <- colluder"
        } else {
            ""
        };
        println!("  buyer {idx}: {:>6.2}%{mark}", score * 100.0);
    }
    let top3: Vec<usize> = ranking.iter().take(3).map(|&(i, _)| i).collect();
    for c in colluders {
        assert!(
            top3.contains(&c),
            "colluder {c} should rank in the top 3: {ranking:?}"
        );
    }
    println!("\n=> all three colluders rank above every innocent buyer");
    Ok(())
}
