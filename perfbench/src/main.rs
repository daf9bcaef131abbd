//! `odcfp-perfbench --workload <pipeline|population|serve> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints one detail line (provenance, named metrics with sample counts)
//! and, last, the result line
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Exits 1 when
//! any output differs from its known answer, 2 on a usage error.

use odcfp_perfbench::{Config, Scale, Workload};

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: odcfp-perfbench --workload <pipeline|population|serve> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = Config {
        workload: Workload::Pipeline,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage("missing value"))
        };
        match args[i].as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value()).unwrap_or_else(|| usage("unknown workload")));
            }
            "--seed" => config.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                config.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                config.trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    config.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    config
}

fn main() {
    let config = parse_args();
    let report = odcfp_perfbench::run(&config);
    println!("{}", report.detail_line());
    println!("{}", report.result_line(config.trace));
    if !report.correct() {
        eprintln!("perfbench: wrong answers: {:?}", report.wrong_examples);
        std::process::exit(1);
    }
}
