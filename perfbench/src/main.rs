//! `sharper-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints detail lines, then one JSON result line. Exits non-zero without a
//! result line when an argument is invalid or a correctness check fails.

use sharper_perfbench::{run, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: sharper-perfbench --workload <intra_b16|cross20|byz_b16> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: seconds as f64,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = args.workload.plan();
    match run(args.workload, plan, args.seed, args.seconds, args.trace) {
        Ok(outcome) => {
            for line in &outcome.detail {
                println!("{line}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("correctness check failed: {e}");
            ExitCode::FAILURE
        }
    }
}
