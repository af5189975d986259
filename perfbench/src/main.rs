//! `perfbench run --workload W --seed N --seconds S --trace 0|1 [--spans FILE]`
//! runs one workload and prints its result as the last line of stdout;
//! `perfbench catalog` screens the instance catalog anew. Use
//! `perfbench/run.py` rather than this binary directly: it builds the
//! binary, writes the run's record and compares records.

use std::process::ExitCode;

use perfbench::{catalog, run, Scale};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--spans" => out.spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(out.seconds.is_finite() && out.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("catalog") => {
            let mut out = std::io::stdout().lock();
            return match catalog::generate(&mut out) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("run") => {}
        _ => {
            eprintln!("usage: perfbench run --workload W --seed N --seconds S --trace 0|1 [--spans FILE]\n       perfbench catalog");
            return ExitCode::from(2);
        }
    }
    let args = match parse(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        Scale::Full,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !outcome.mismatches.is_empty() {
        for m in &outcome.mismatches {
            eprintln!("perfbench: wrong answer: {m}");
        }
        eprintln!(
            "perfbench: {} wrong answers; no result reported",
            outcome.mismatches.len()
        );
        return ExitCode::FAILURE;
    }
    if let (Some(path), Some(spans)) = (&args.spans, &outcome.spans) {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            spans.write_tsv(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
