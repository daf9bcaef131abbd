//! Quantifies §III-E's collusion analysis: how much of the fingerprint a
//! growing collusion exposes, and whether tracing still convicts every
//! colluder, across forge strategies and seeds.
//!
//! Usage: `collusion_study [circuit] [buyers] [trials]`

use odcfp_bench::engine_for;
use odcfp_core::collusion::{analyze_collusion, forge, trace_suspects, ForgeStrategy};
use odcfp_netlist::{CellLibrary, Netlist};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let circuit = args.first().map_or("c432", String::as_str);
    let buyers: usize = args.get(1).map_or(12, |s| s.parse().expect("buyer count"));
    let trials: u64 = args.get(2).map_or(5, |s| s.parse().expect("trial count"));

    let fp = engine_for(circuit, CellLibrary::standard());
    let n = fp.locations().len();
    println!("{circuit}: {n} locations, {buyers} registered buyers, {trials} trials\n");

    println!(
        "{:>9} {:>12} {:>22} {:>22}",
        "colluders", "exposed%", "traced (ClearExposed)", "traced (Majority)"
    );
    for k in 2..=6usize.min(buyers) {
        let mut exposure = 0.0;
        let mut traced = [0usize; 2];
        let mut total = [0usize; 2];
        for trial in 0..trials {
            let copies: Vec<_> = (0..buyers)
                .map(|b| {
                    fp.embed_seeded(trial * 1000 + b as u64)
                        .expect("embedding verified")
                })
                .collect();
            let registry: Vec<Vec<bool>> = copies.iter().map(|c| c.bits().to_vec()).collect();
            let held: Vec<&Netlist> = copies[..k].iter().map(|c| c.netlist()).collect();
            exposure += analyze_collusion(&fp, &held).exposure_rate();
            for (si, strategy) in [ForgeStrategy::ClearExposed, ForgeStrategy::Majority]
                .into_iter()
                .enumerate()
            {
                let forged = forge(&fp, &held, strategy).expect("forgery embeds");
                let recovered = fp.extract(forged.netlist());
                let ranking = trace_suspects(&recovered, &registry);
                let topk: Vec<usize> = ranking.iter().take(k).map(|&(i, _)| i).collect();
                total[si] += k;
                traced[si] += (0..k).filter(|c| topk.contains(c)).count();
            }
        }
        println!(
            "{:>9} {:>11.1}% {:>21.1}% {:>21.1}%",
            k,
            exposure / trials as f64 * 100.0,
            traced[0] as f64 / total[0] as f64 * 100.0,
            traced[1] as f64 / total[1] as f64 * 100.0
        );
    }
    println!();
    println!("exposed% — fraction of locations a collusion of that size reveals");
    println!("traced%  — colluders ranked within the top-k suspects by the");
    println!("           containment/agreement tracer (100% = all convicted)");
}
