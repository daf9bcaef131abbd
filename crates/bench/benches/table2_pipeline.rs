//! End-to-end runtime of regenerating one Table II row (generation →
//! location discovery → embedding → measurement).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odcfp_bench::run_table2;

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_row");
    group.sample_size(10);
    for name in ["c432", "c880", "c1908"] {
        group.bench_function(name, |b| b.iter(|| black_box(run_table2(&[name]))));
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
