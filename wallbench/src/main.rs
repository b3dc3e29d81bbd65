//! `wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints the environment block, every metric by
//! name with its unit, and — as the last line — one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when any
//! output check fails. `wallbench --manifest` prints `BENCHMARK.json`;
//! `wallbench --catalog` prints the metric tables of `README.md`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wallbench::catalog::{self, RUN_SECONDS};
use wallbench::env::{nproc, Env};
use wallbench::json::{number, quote};
use wallbench::run::{run, time_setup};
use wallbench::stats::tail_percentile;
use wallbench::workloads::RunConfig;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Time one set-up and print its seconds (the parent run's set-up
    /// repeats run this way, each in a fresh process).
    setup_only: bool,
}

/// What the command line asks for.
enum Mode {
    Run(Args),
    Manifest,
    Catalog,
}

fn parse_args() -> Result<Mode, String> {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        setup_only: false,
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--manifest" => return Ok(Mode::Manifest),
            "--catalog" => return Ok(Mode::Catalog),
            "--setup-only" => {
                args.setup_only = true;
                continue;
            }
            _ => {}
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Mode::Run(args))
}

/// The repository root: the benchmark's own manifest sits one level
/// below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Run(a)) => a,
        Ok(Mode::Manifest) => {
            print!("{}", catalog::manifest_json());
            return ExitCode::SUCCESS;
        }
        Ok(Mode::Catalog) => {
            print!("{}", catalog::catalog_markdown());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!("usage: wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = catalog::workload(&args.workload) else {
        let names: Vec<_> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "wallbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let root = repo_root();
    if let Err(e) = std::env::set_current_dir(&root) {
        eprintln!("wallbench: cannot enter {}: {e}", root.display());
        return ExitCode::from(2);
    }
    let out = PathBuf::from("wallbench/out");
    let scratch = Scratch(out.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("wallbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(2);
    }
    let cfg = RunConfig {
        seed: args.seed,
        threads: nproc(),
        scratch: scratch.0.clone(),
    };
    if args.setup_only {
        return match time_setup(spec, &cfg) {
            Ok(secs) => {
                println!("{secs:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("wallbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let env = Env::capture(cfg.threads);
    println!(
        "wallbench workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in env.lines() {
        println!("{line}");
    }

    let report = match run(spec, &cfg, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The tail percentile is fixed per workload; also show the highest
    // one this run's sample count would have supported.
    let supported =
        tail_percentile(report.attempted).map_or("none".to_string(), |p| format!("p{p}"));
    println!(
        "ops attempted={} failed={} tail=p{} (highest with ten samples beyond: {supported})",
        report.attempted, report.failed, spec.tail_pct
    );
    for f in report.failures.iter().chain(&report.run_errors) {
        println!("FAILED {f}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    if args.trace {
        println!("layer self times (ms: count, total, self):");
        for (name, (count, total, own)) in report.recorder.layer_times() {
            println!("  {name:<26} {count:>5} {total:>12.3} {own:>12.3}");
        }
        let metrics: Vec<(&str, f64)> = report.metrics.iter().map(|(n, v, _)| (*n, *v)).collect();
        let path = out.join(format!("trace-{}-seed{}.json", spec.name, args.seed));
        match std::fs::write(&path, report.recorder.to_json(&env.json(), &metrics)) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => println!("trace not written ({}: {e})", path.display()),
        }
    }

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(*value),
                quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
