//! Microbenchmark for the disabled-instrumentation cost contract
//! (DESIGN.md §12): with no sink installed, every `odcfp-obs` call site
//! must collapse to one relaxed atomic load and a branch. These numbers
//! back the overhead gate in `tests/verify_fastpath.rs`
//! (`disabled_tracing_costs_under_one_percent_of_a_des_sweep`); run them
//! when touching the hot-path macros or the `enabled()` gate.

use criterion::{criterion_group, criterion_main, Criterion};

fn disabled_paths(c: &mut Criterion) {
    assert!(
        !odcfp_obs::enabled(),
        "the overhead benchmark must run without a sink installed"
    );
    let mut g = c.benchmark_group("obs_disabled");
    g.bench_function("enabled", |b| b.iter(odcfp_obs::enabled));
    g.bench_function("span", |b| {
        b.iter(|| {
            let mut span = odcfp_obs::span("bench.noop");
            span.field("k", 1u64);
        })
    });
    g.bench_function("count", |b| b.iter(|| odcfp_obs::count("bench.ctr", 1)));
    g.bench_function("point", |b| {
        b.iter(|| {
            odcfp_obs::point("bench.pt")
                .field("a", 1u64)
                .field("b", "s")
                .emit();
        })
    });
    g.finish();
}

fn enabled_paths(c: &mut Criterion) {
    // For contrast: the same call sites with a memory sink attached.
    // Serialized under the capture lock so parallel benches can't race
    // on the global sink slot.
    let mut g = c.benchmark_group("obs_enabled");
    g.sample_size(10);
    g.bench_function("point", |b| {
        let ((), _events) = odcfp_obs::capture(|| {
            b.iter(|| {
                odcfp_obs::point("bench.pt")
                    .field("a", 1u64)
                    .field("b", "s")
                    .emit();
            })
        })
        .expect("no competing sink installed");
    });
    g.finish();
}

criterion_group!(benches, disabled_paths, enabled_paths);
criterion_main!(benches);
