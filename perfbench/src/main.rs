//! Runs one benchmark workload and prints its result as the last line of
//! standard output:
//!
//! ```text
//! perfbench --workload <dense-slots|audit-durable|wire-lockstep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The exit code is 0 only when every correctness gate passed.

use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::{engine, wire, Ctx};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

const WORKLOADS: [&str; 3] = ["dense-slots", "audit-durable", "wire-lockstep"];

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let tmp =
        PathBuf::from(".bench_tmp").join(format!("{workload}-{}-{nanos}", std::process::id()));
    Ok((
        workload,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tmp,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.tmp.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    match workload.as_str() {
        "dense-slots" => engine::run(&engine::DENSE_SLOTS, &ctx, &mut report),
        "audit-durable" => engine::run(&engine::AUDIT_DURABLE, &ctx, &mut report),
        _ => wire::run(&ctx, &mut report),
    }
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    // The parent only exists to group runs; drop it once it is empty.
    let _ = std::fs::remove_dir(".bench_tmp");
    let (correct, line) = report.finish(if ctx.trace { PER_LAYER } else { END_TO_END });
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
