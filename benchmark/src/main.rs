//! The benchmark's binary; `benchmark/run.sh` builds and starts it.
//!
//! With `--workload` it makes one run of one workload — repetitions for
//! `--seconds`, traced or not — prints every metric, and ends with the
//! result line. Without, it starts itself once per workload and kind of
//! run, so each workload's `peak_rss_mb` is its own process's, and merges
//! what they wrote into `results.json` and `trace.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use o2_benchmark::host::fingerprint_json;
use o2_benchmark::json;
use o2_benchmark::report::{benchmark_json, results_json, run_end_to_end, run_traced};
use o2_benchmark::sizes::{DEFAULT_SECONDS, DEFAULT_SEED};
use o2_benchmark::workloads::{find, WORKLOADS};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    emit_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        emit_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("{v} is not a number"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => args.trace = number(value()?)? != 0,
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where detail records and spans go; `run.sh` points this at
/// `benchmark/out`.
fn out_dir() -> PathBuf {
    let dir = std::env::var("O2_BENCH_OUT").unwrap_or_else(|_| "benchmark/out".to_string());
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
    PathBuf::from(dir)
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

fn kind_of(traced: bool) -> &'static str {
    if traced {
        "per_layer"
    } else {
        "end_to_end"
    }
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(wl) = find(name) else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", known.join(", "));
        return ExitCode::from(2);
    };
    let outcome = if args.trace {
        run_traced(wl, args.seed)
    } else {
        run_end_to_end(wl, args.seed, args.seconds)
    };
    let out = out_dir();
    write(
        &out.join(format!("{name}.{}.json", kind_of(args.trace))),
        &outcome.detail_json(),
    );
    if let Some(spans) = &outcome.spans {
        write(&out.join(format!("{name}.spans.json")), spans);
    }
    outcome.print();
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let out = out_dir();
    let host = fingerprint_json(args.seed, args.seconds);
    println!("host: {host}");
    let mut failed = Vec::new();
    for wl in &WORKLOADS {
        for traced in [false, true] {
            let status = Command::new(&exe)
                .args(["--workload", wl.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .status()
                .expect("start a workload process");
            if !status.success() {
                failed.push(format!("{} ({})", wl.name, kind_of(traced)));
            }
        }
    }
    // A child that died mid-write must not make the merged files
    // unreadable: what does not parse is recorded as null.
    let read = |file: String| {
        std::fs::read_to_string(out.join(file))
            .ok()
            .filter(|text| json::parse(text).is_ok())
            .unwrap_or_else(|| "null".to_string())
    };
    let entries: Vec<(&str, String, String)> = WORKLOADS
        .iter()
        .map(|wl| {
            (
                wl.name,
                read(format!("{}.end_to_end.json", wl.name)),
                read(format!("{}.per_layer.json", wl.name)),
            )
        })
        .collect();
    write(&out.join("results.json"), &results_json(&host, &entries));
    let spans: Vec<String> = WORKLOADS
        .iter()
        .map(|wl| {
            format!(
                "\"{}\": {}",
                wl.name,
                read(format!("{}.spans.json", wl.name))
            )
        })
        .collect();
    write(
        &out.join("trace.json"),
        &format!("{{\n{}\n}}\n", spans.join(",\n")),
    );
    println!("wrote {0}/results.json and {0}/trace.json", out.display());
    if failed.is_empty() {
        println!("every output check passed");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}
