//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --tnm <path to the tnm binary> --work <scratch directory>
//! ```
//!
//! Runs one named workload on inputs generated from the seed, checks
//! every timed operation's counts against an independent reference,
//! and prints each metric with its unit and sample count, ending with
//! one JSON line. With `--trace 0` it reports the end-to-end metrics;
//! with `--trace 1` it times each layer from outside and reports the
//! per-layer metrics instead. `perfbench/run.py` builds this binary and
//! the `tnm` binary, then calls it; see `perfbench/README.md`.

mod common;
mod corpus;
mod daemon;
mod host;
mod layers;
mod report;
mod stats;
mod workloads;

use report::Record;
use std::path::PathBuf;
use std::process::ExitCode;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// The `tnm` binary: the serve daemon and the distributed workers.
    pub tnm: PathBuf,
    /// Scratch directory for corpus files and spilled shards.
    pub work: PathBuf,
    /// Thread budget of every query: the host's core count.
    pub threads: usize,
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tnm, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--tnm" => tnm = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {:?})", workloads::NAMES));
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tnm: tnm.ok_or("--tnm is required")?,
        work: work.ok_or("--work is required")?,
        threads: host::nproc(),
    })
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let host = host::Host::probe();
    println!("# host {}", host.describe());
    let mut record = Record::default();
    let result = workloads::run(&ctx, &host, &mut record);
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(()) => {
            record.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    /// `BENCHMARK.json` must list exactly the metrics the code reports.
    #[test]
    fn benchmark_json_names_every_reported_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = crate::workloads::END_TO_END
            .iter()
            .map(|&(name, _)| name)
            .chain(crate::layers::LAYERS.iter().map(|&(name, _, _)| name))
            .collect();
        for name in &names {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            names.len(),
            "BENCHMARK.json lists other metrics"
        );
        let listed = json.split("\"workloads\"").nth(1).expect("a workloads list");
        let listed = &listed[..listed.find(']').expect("the list closes")];
        for name in listed.split("\"name\": \"").skip(1) {
            let name = &name[..name.find('"').expect("a quoted name")];
            assert!(crate::workloads::NAMES.contains(&name), "unknown workload {name}");
        }
    }
}
