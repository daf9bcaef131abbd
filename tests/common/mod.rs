//! Helpers shared by the workspace-level integration tests.

use odcfp_logic::rng::Xoshiro256;
use odcfp_logic::sim;
use odcfp_netlist::Netlist;

/// Random-simulation equivalence: `64 * words` input patterns drawn from
/// `seed` drive both netlists, and every primary output must agree.
///
/// Each caller picks its own seed and pattern count, so this check is
/// independent of the fixed-seed simulation that embedding itself runs.
///
/// # Panics
///
/// Panics if the two interfaces differ in input or output count.
pub fn sim_equivalent(golden: &Netlist, candidate: &Netlist, words: usize, seed: u64) -> bool {
    let inputs = golden.primary_inputs().len();
    assert_eq!(
        inputs,
        candidate.primary_inputs().len(),
        "input counts differ"
    );
    assert_eq!(
        golden.primary_outputs().len(),
        candidate.primary_outputs().len(),
        "output counts differ"
    );
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let patterns: Vec<Vec<u64>> = (0..inputs)
        .map(|_| sim::random_words(&mut rng, words))
        .collect();
    let vg = golden.simulate(&patterns);
    let vc = candidate.simulate(&patterns);
    golden
        .primary_outputs()
        .iter()
        .zip(candidate.primary_outputs())
        .all(|(&g, &c)| vg[g.index()] == vc[c.index()])
}
