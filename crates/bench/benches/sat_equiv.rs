//! Runtime of the equivalence-checking layer: the verify ladder's
//! simulation-only policy and the full SAT miter proof of a fully
//! fingerprinted copy.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odcfp_bench::netlist_for;
use odcfp_core::{verify_equivalent_report, Fingerprinter, VerifyPolicy};
use odcfp_sat::{check_equivalence, EquivResult};

fn bench_equiv(c: &mut Criterion) {
    for name in ["c432", "c880"] {
        let fp = Fingerprinter::new(netlist_for(name)).unwrap();
        let copy = fp.embed_all().unwrap();
        let quick = VerifyPolicy::quick();
        c.bench_function(format!("sim_equiv_16w/{name}"), |b| {
            b.iter(|| {
                let report = verify_equivalent_report(
                    black_box(fp.base()),
                    black_box(copy.netlist()),
                    &quick,
                )
                .unwrap();
                assert!(report.verdict.is_pass(), "{}", report.verdict);
            })
        });
        let mut group = c.benchmark_group("sat_miter");
        group.sample_size(10);
        group.bench_function(name, |b| {
            b.iter(|| {
                let verdict =
                    check_equivalence(black_box(fp.base()), black_box(copy.netlist()), None)
                        .unwrap();
                assert_eq!(verdict, EquivResult::Equivalent);
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_equiv);
criterion_main!(benches);
