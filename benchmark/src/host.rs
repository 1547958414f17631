//! What the host was when the numbers were taken.

use crate::json;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` has no such line.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether the kernel accepts an affinity mask from a fresh thread, i.e.
/// whether `o2-native` workers will really be pinned.
fn pinning_works() -> bool {
    std::thread::spawn(|| o2_native::pin_to_cpu(0))
        .join()
        .unwrap_or(false)
}

/// The host fingerprint as a JSON object. `rustc` and `git_commit` come
/// from `run.sh` through the environment: the binary cannot ask for them
/// itself in a checkout that has no `.git`.
pub fn fingerprint_json(seed: u64, seconds: u64) -> String {
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug (numbers are meaningless)"
    } else {
        "release, lto=fat, codegen-units=1, debug=true"
    };
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"workers_pinned\": {}, \"loadavg_at_start\": {}, \
         \"rustc\": {}, \"git_commit\": {}, \"build_profile\": {}, \"seed\": {seed}, \
         \"run_seconds\": {seconds}}}",
        nproc(),
        json::string(&cpu_model),
        pinning_works(),
        json::string(read("/proc/loadavg").trim()),
        json::string(&env("O2_BENCH_RUSTC")),
        json::string(&env("O2_BENCH_GIT")),
        json::string(profile),
    )
}
