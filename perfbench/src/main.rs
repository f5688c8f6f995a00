//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

use std::process::ExitCode;

/// Fewest latency samples a run may have above its p99 rank.
const MIN_BEYOND_P99: u64 = 10;

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        perfbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, trace)
    else {
        return usage("missing or malformed flag");
    };
    let Some(mut outcome) = perfbench::run(&workload, seed, seconds, traced) else {
        return usage(&format!("unknown workload {workload}"));
    };
    if !traced && outcome.samples_beyond_p99 < MIN_BEYOND_P99 {
        outcome
            .violations
            .push(perfbench::gate::Violation::WrongOutput(format!(
                "only {} samples beyond p99; the run is too short",
                outcome.samples_beyond_p99
            )));
    }
    for v in &outcome.violations {
        eprintln!("violation: {v}");
    }
    println!("{}", perfbench::render(&outcome, traced));
    if outcome.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
