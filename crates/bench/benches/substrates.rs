//! Runtime of the substrate layers: the SAT solver on classic hard/easy
//! families, BLIF parsing + technology mapping, Verilog I/O, the optimizer,
//! and benchmark generation itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use odcfp_bench::netlist_for;
use odcfp_netlist::CellLibrary;
use odcfp_sat::{CnfBuilder, Lit, SolveResult, Solver};

fn pigeonhole(n: i64) -> CnfBuilder {
    let h = n - 1;
    let mut cnf = CnfBuilder::new();
    let vars = cnf.new_vars((n * h) as usize);
    let p = |i: i64, j: i64| vars[(i * h + j) as usize];
    for i in 0..n {
        cnf.add_clause((0..h).map(|j| Lit::pos(p(i, j))));
    }
    for j in 0..h {
        for a in 0..n {
            for b in (a + 1)..n {
                cnf.add_clause([Lit::neg(p(a, j)), Lit::neg(p(b, j))]);
            }
        }
    }
    cnf
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_solver");
    group.sample_size(10);
    for n in [6i64, 7, 8] {
        let cnf = pigeonhole(n);
        group.bench_function(format!("pigeonhole_{n}"), |b| {
            b.iter(|| {
                let mut s = Solver::from_cnf(black_box(&cnf));
                assert_eq!(s.solve(), SolveResult::Unsat);
            })
        });
    }
    group.finish();
}

fn bench_flows(c: &mut Criterion) {
    // BLIF parse + map on a generated two-level model.
    let pla = odcfp_synth::benchmarks::pla::two_level(
        CellLibrary::standard(),
        odcfp_synth::benchmarks::pla::PlaParams::vda_like(),
    );
    let verilog_text = odcfp_verilog::write_verilog(&pla);
    c.bench_function("verilog_write/vda", |b| {
        b.iter(|| black_box(odcfp_verilog::write_verilog(black_box(&pla))))
    });
    c.bench_function("verilog_parse/vda", |b| {
        b.iter(|| {
            odcfp_verilog::parse_verilog(black_box(&verilog_text), CellLibrary::standard()).unwrap()
        })
    });
    let blif_src = "\
.model bench
.inputs a b c d e
.outputs x y
.names a b c t1
110 1
001 1
.names t1 d t2
11 1
.names t2 e x
1- 1
-1 1
.names a e y
10 1
.end
";
    c.bench_function("blif_parse_map/small", |b| {
        b.iter(|| {
            let net = odcfp_blif::parse_blif(black_box(blif_src)).unwrap();
            odcfp_synth::map_network(&net, CellLibrary::standard()).unwrap()
        })
    });
    let c880 = netlist_for("c880");
    c.bench_function("optimize/c880", |b| {
        b.iter(|| black_box(odcfp_synth::opt::optimize(black_box(&c880))))
    });
    c.bench_function("generate/c6288", |b| {
        b.iter(|| black_box(netlist_for("c6288")))
    });
}

criterion_group!(benches, bench_solver, bench_flows);
criterion_main!(benches);
