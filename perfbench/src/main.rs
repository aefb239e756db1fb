//! `perfbench`: time to a full Section-7 verdict, end to end and layer by
//! layer.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload verdict --seed 0 --seconds 60 --trace 0
//! ```
//!
//! One process runs one workload (`verdict` or `pool`) for
//! `--seconds`, on at most [`THREADS`] threads, through the entry points a
//! user calls: `rader::suite::check_workload` with default options and
//! `ParRuntime::new`. `--trace 0` measures the end-to-end metrics;
//! `--trace 1` is the separate traced run that gives the per-layer ones.
//! Every output is checked inside the measured loop; each miss is printed
//! to stderr and counted in `failed`. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod measure;
mod programs;
mod stats;
mod trace;
mod traced;

use std::process::{Command, ExitCode};

/// Worker threads for sweeps and the largest pool: the 2-core machine the
/// benchmark is calibrated on. Nothing here claims anything beyond it.
pub const THREADS: usize = 2;

const USAGE: &str = "usage: perfbench --workload verdict|pool --seed N --seconds S --trace 0|1";

/// Parsed command line.
#[derive(Debug, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed (0 = the paper-scale inputs).
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: programs::PAPER_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
                }
            }
            f => return Err(format!("unknown argument {f:?}")),
        }
    }
    if !matches!(args.workload.as_str(), "verdict" | "pool") {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (see [`stats::valid_metric_name`]).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `MB`, `count`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count).
    pub samples: usize,
    /// The highest percentile with ten samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
}

impl Metric {
    /// A metric that is the median of `xs`, with its sample count and tail.
    pub fn median(name: &'static str, unit: &'static str, xs: &[f64]) -> Metric {
        Metric {
            name,
            value: stats::median(xs).unwrap_or(0.0),
            unit,
            samples: xs.len(),
            tail: stats::tail(xs),
        }
    }

    /// A metric with one value (a count, a ratio of medians, a sum).
    pub fn one(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            tail: None,
        }
    }
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted: program verdicts, ladder repetitions and pool
    /// runs.
    pub attempted: u64,
    /// Operations whose output or verdict was wrong, or that panicked.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; print the reason when it failed.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {why}");
        }
    }
}

/// The outcome of one run: metrics plus the tally.
pub struct RunResult {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "stamp workload={} seed={} seconds={} trace={} threads={THREADS} nproc={nproc} \
         git_rev={} rustc={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["-V"]),
    );
    let result = if args.trace {
        traced::run(&args)
    } else {
        measure::run(&args)
    };
    let RunResult { metrics, tally } = result;
    let mut json = Vec::new();
    let mut correct = tally.failed == 0;
    for m in &metrics {
        let tail = m.tail.map_or(String::new(), |(p, v)| format!(" p{p}={v}"));
        println!(
            "metric {} = {} {} (n={}{tail}, seed={})",
            m.name, m.value, m.unit, m.samples, args.seed
        );
        if !m.value.is_finite() || !stats::valid_metric_name(m.name) {
            eprintln!("perfbench: FAILED metric {} is {}", m.name, m.value);
            correct = false;
            continue;
        }
        json.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            m.value,
            json_string(m.unit)
        ));
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "error_rate = {error_rate} ratio (failed {} of {} attempted, seed={})",
        tally.failed, tally.attempted, args.seed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload verdict --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "verdict".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope",
            "--workload deep",
            "--workload verdict --seed x",
            "--workload verdict --seconds 0",
            "--workload verdict --trace 2",
            "--workload verdict --bogus 1",
            "--workload",
            "",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
