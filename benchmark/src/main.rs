//! `stbench`: the repository's benchmark. See `README.md`.
//!
//! ```text
//! stbench --workload <name> [--seed 7] [--seconds 20] [--trace 0|1] [--quick]
//! stbench compare <set A dir> <set B dir>
//! stbench manifest
//! ```

mod check;
mod compare;
mod gen;
mod metrics;
mod stats;
mod sut;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use workload::{Measured, Metric, Opts, Workload, WORKLOADS};

const USAGE: &str = "usage: stbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] | stbench compare <A> <B> | stbench manifest";

fn parse(args: &[String]) -> Result<(&'static Workload, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 7,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut seconds_given = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("no workload named {value}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                seconds_given = true;
            }
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if opts.quick && !seconds_given {
        opts.seconds = 1.0;
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// One run's outcome: the metrics of the kind asked for, and the run
/// they came from.
fn measure<'a>(w: &'a Workload, opts: &Opts) -> Result<(Vec<Metric>, Measured<'a>), String> {
    let mut recorder = trace::Recorder::new(opts.trace);
    let (measured, sut) = workload::run(w, opts, &mut recorder)?;
    let metrics = if opts.trace {
        let metrics = trace::per_layer(&measured, &sut, &mut recorder)?;
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.trace.jsonl", w.name));
        recorder
            .write(&path, &measured)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        metrics
    } else {
        measured.end_to_end()
    };
    sut.shutdown();
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("{} is not a number", m.name)),
        None => Ok((metrics, measured)),
    }
}

fn run(w: &'static Workload, opts: &Opts) -> Result<(), String> {
    let (metrics, measured) = measure(w, opts)?;
    for failure in measured.failures.iter().take(20) {
        eprintln!("failed: {failure}");
    }
    for (phase, secs) in [
        ("write", measured.write_wall_secs),
        ("read", measured.read_wall_secs),
    ] {
        if !opts.quick && secs < 5.0 {
            eprintln!(
                "warning: the {phase} phase of {} ran {secs:.1} s, under 5 s",
                w.name
            );
        }
    }
    for m in &metrics {
        println!("{}/{} {} {}", w.name, m.name, m.value, m.unit);
    }
    for (name, value) in measured.sizes(opts) {
        println!("{}/{name} {value} count", w.name);
    }
    let failed = measured.failures.len() as u64;
    println!(
        "{}",
        json_line(failed == 0, measured.attempted.max(1), failed, &metrics)
    );
    // Failed operations are part of the result, not a failure to measure.
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err(USAGE.to_string()),
        },
        _ => parse(&args)
            .and_then(|(w, opts)| run(w, &opts))
            .map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Two sets that do not agree.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("stbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke run: every workload at a twentieth of its size, untraced
    /// and traced, must pass its own checks and print what the manifest
    /// promises. Nothing is gated on a timing.
    #[test]
    fn every_workload_passes_its_checks_at_quick_size() {
        for w in &WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    seed: 11,
                    seconds: 1.0,
                    trace,
                    quick: true,
                };
                let (metrics, measured) = measure(w, &opts).expect(w.name);
                assert_eq!(measured.failures, Vec::<String>::new(), "{}", w.name);
                let mut printed: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
                let mut promised: Vec<String> = if trace {
                    metrics::per_layer().into_iter().map(|(n, _)| n).collect()
                } else {
                    metrics::END_TO_END
                        .iter()
                        .map(|m| m.name.to_string())
                        .collect()
                };
                printed.sort_unstable();
                promised.sort_unstable();
                assert_eq!(printed, promised, "{} trace={trace}", w.name);
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let (w, opts) = parse(&args(&[
            "--workload",
            "live_mixed",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (w.name, opts.seed, opts.seconds, opts.trace),
            ("live_mixed", 3, 5.0, true)
        );
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--seed", "3"])).is_err());
        assert!(parse(&args(&["--workload", "live_mixed", "--seconds", "0"])).is_err());
        assert!(parse(&args(&["--workload", "live_mixed", "--bogus", "1"])).is_err());
    }
}
