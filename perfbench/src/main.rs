//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --work-dir <dir>`
//!
//! Runs one workload from the repository root and prints its provenance
//! and metrics; the last line of standard output is the machine-readable
//! result. Exits non-zero without a result when set-up fails.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use perfbench::harness::{drive, Bench, Ctx, Metric, Run};
use perfbench::sys;
use perfbench::workloads::{AnalyzeClusters, CiRecordAnalyze, LiveSuite, WhatIfReplay, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut work) = (None, None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            "--work-dir" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |flag: &str| format!("{flag} is required");
    let args = Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        work: work.ok_or_else(|| need("--work-dir"))?,
    };
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?}"));
    }
    Ok(args)
}

/// Standard output of `cmd`, trimmed; `None` if it cannot run or fails.
fn tool_output(cmd: &[&str]) -> Option<String> {
    let out = Command::new(cmd[0]).args(&cmd[1..]).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit checked out in the current directory, if it is the top of
/// its own git repository (not a directory inside another one).
fn commit() -> String {
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = tool_output(&["git", "rev-parse", "--show-toplevel"])
        .and_then(|t| Path::new(&t).canonicalize().ok());
    match (here, top) {
        (Some(here), Some(top)) if here == top => {
            tool_output(&["git", "rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("a string always serializes")
}

fn provenance(args: &Args, metrics: &[Metric]) -> String {
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}:{}", json_str(m.name), m.n))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"cpus\":{},\"rustc\":{},\
         \"commit\":{},\"profile\":{},\"obs_hooks\":{},\"samples\":{{{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::cpus(),
        json_str(&tool_output(&["rustc", "--version"]).unwrap_or_else(|| "unknown".into())),
        json_str(&commit()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        !predator_obs::disabled(),
        samples.join(",")
    )
}

/// The result line. `error_rate` is printed above it but carried here by
/// `attempted` and `failed`: a metric that is 0 on a healthy run has no
/// relative bound.
fn result_line(run: &Run, metrics: &[Metric]) -> String {
    let attempted = run.jobs().count();
    let failed = run.failures().len();
    let mut body = String::new();
    for m in metrics.iter().filter(|m| m.name != "error_rate") {
        if !body.is_empty() {
            body.push(',');
        }
        let _ = write!(
            body,
            "{}:{{\"value\":{:?},\"unit\":{}}}",
            json_str(m.name),
            m.value,
            json_str(m.unit)
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}",
        failed == 0
    )
}

fn run_workload(args: &Args, ctx: &Ctx) -> Result<Run, String> {
    fn go<B: Bench>(args: &Args, ctx: &Ctx) -> Result<Run, String> {
        drive::<B>(ctx, args.seconds, args.trace)
    }
    match args.workload.as_str() {
        "live-suite" => go::<LiveSuite>(args, ctx),
        "ci-record-analyze" => go::<CiRecordAnalyze>(args, ctx),
        "analyze-clusters" => go::<AnalyzeClusters>(args, ctx),
        "whatif-replay" => go::<WhatIfReplay>(args, ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        work: args.work.join(format!("{}-{}", args.workload, args.seed)),
        shards: sys::cpus(),
    };
    let run = match run_workload(&args, &ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir(&ctx.work);

    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    let prov = provenance(&args, &metrics);
    println!(
        "perfbench {} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("provenance {prov}");
    for m in &metrics {
        println!(
            "  {:<28} {:>16.6} {:<9} (n={})",
            m.name, m.value, m.unit, m.n
        );
    }
    for job in run.failures().iter().take(5) {
        eprintln!(
            "perfbench: job {} failed: {}",
            job.idx,
            job.error.as_deref().unwrap_or("")
        );
    }
    let line = result_line(&run, &metrics);

    let results = args.work.join("results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let saved = std::fs::create_dir_all(&results)
        .and_then(|()| {
            std::fs::write(
                results.join(format!("{stem}.json")),
                format!("{{\"provenance\":{prov},\"result\":{line}}}\n"),
            )
        })
        .and_then(|()| match args.trace {
            true => std::fs::write(
                results.join(format!("{stem}.spans.jsonl")),
                run.tracer.to_jsonl(),
            ),
            false => Ok(()),
        });
    if let Err(e) = saved {
        eprintln!(
            "perfbench: cannot save results under {}: {e}",
            results.display()
        );
    }
    println!("{line}");
    ExitCode::SUCCESS
}
