//! Every size, rep and cycle constant of the benchmark, in one file.
//!
//! The driver's budget is fixed (4 + 22 runs per workload, all inside
//! 3420 s), so fitting a slower or faster host means editing numbers here
//! and nowhere else. Sizing was done on a 2-CPU 2.1 GHz host: one rep of
//! every workload except `matrix_quick` takes 1-2.5 s, so a 12 s run
//! holds five or more reps and reports their median.

/// Seed and run length used when the command line names neither.
pub const DEFAULT_SEED: u64 = 42;
pub const DEFAULT_SECONDS: u64 = 12;

/// Untraced reps a `--trace 1` run makes before its traced rep, as the
/// base `trace.overhead_pct` and the bit-for-bit check compare against.
pub const TRACE_BASE_REPS: usize = 2;
/// ... or fewer once they have taken this long (`matrix_quick` makes one).
pub const TRACE_BASE_SECONDS: f64 = 5.0;

// ---- lookup_sweep ------------------------------------------------------
/// Below, at and beyond the 16-core machine's on-chip capacity.
pub const LOOKUP_SIZES_KB: [u64; 3] = [512, 4096, 16384];
pub const LOOKUP_MEASURE_CYCLES: u64 = 12_000_000;
/// Operations of the largest thread-scheduler cell whose memory accesses
/// are captured for the bare-`Machine` replay (`sim.access_ns_per_line`).
pub const LOOKUP_CAPTURE_OPS: usize = 3_000;

// ---- fsmeta_churn ------------------------------------------------------
pub const FSMETA_DIRS: u32 = 4096;
pub const FSMETA_MEASURE_CYCLES: u64 = 20_000_000;

// ---- scale_zipf --------------------------------------------------------
pub const SCALE_OBJECTS: u64 = 4_000_000;
/// Mean Poisson gap per thread, in cycles. The closed loop saturates at
/// about one op per 6000 cycles per thread, so 8000 offers ~75 % of that.
pub const SCALE_MEAN_GAP_CYCLES: f64 = 8000.0;
pub const SCALE_MEASURE_CYCLES: u64 = 60_000_000;

// ---- engine_dispatch ---------------------------------------------------
pub const ENGINE_IDLE_CYCLES: u64 = 1_800_000_000;
pub const ENGINE_SATURATED_CYCLES: u64 = 75_000_000;
pub const ENGINE_BURSTY_CYCLES: u64 = 3_000_000_000;
/// Window of the untimed CoreTime / thread-scheduler pair that supplies
/// this workload's simulated metrics.
pub const ENGINE_MODEL_CYCLES: u64 = 10_000_000;

// ---- native_lookup -----------------------------------------------------
pub const NATIVE_WORKERS: usize = 2;
pub const NATIVE_DIRS: u32 = 64;
pub const NATIVE_ENTRIES: u32 = 128;
pub const NATIVE_WARMUP_OPS: u64 = 20_000;
pub const NATIVE_MEASURE_OPS: u64 = 1_000_000;
/// Window of the untimed simulator twin (a 2-core machine, so cheap).
pub const NATIVE_MODEL_CYCLES: u64 = 20_000_000;

// ---- matrix_quick ------------------------------------------------------
pub const MATRIX_JOBS: usize = 2;

// ---- set-up sampling ---------------------------------------------------
/// Workloads whose set-up takes micro- or milliseconds build it at least
/// this many times per rep, and for at least this long, and report the
/// median, so `setup_s` is a steady number rather than one page fault's
/// worth of noise.
pub const SMALL_SETUP_SAMPLES: usize = 21;
pub const SMALL_SETUP_SECONDS: f64 = 0.002;

// ---- direct per-layer timings (traced runs only) ----------------------
pub const MICRO_OPS: u64 = 1_000_000;
pub const RING_ROUNDTRIPS: u64 = 200_000;
