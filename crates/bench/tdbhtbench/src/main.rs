//! `tdbhtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes and a metric table, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 1 if
//! any output check failed and 2 on bad arguments.

use std::process::ExitCode;

use tdbhtbench::workloads::{Workload, WORKLOADS};
use tdbhtbench::{run, Config};

fn parse(args: &[String]) -> Result<Config, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(0.0..=86_400.0).contains(&seconds) {
        return Err(format!(
            "--seconds must be between 0 and 86400, got {seconds}"
        ));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        threads,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("tdbhtbench: {e}");
            eprintln!("usage: tdbhtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = run(&config);
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, (value, unit)) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    println!("{:<32} {:>16.6} frac", "failed_frac", report.failed_frac());
    if let Some(path) = &report.spans_path {
        println!("# spans written to {}", path.display());
    }
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
