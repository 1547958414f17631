//! The scale tier's latency recorder against the exact oracle.
//!
//! The recorder's contract (crates/metrics/src/sketch.rs) is a bounded
//! *relative* error: the reported `q`-quantile is the top of the bucket
//! holding the exact nearest-rank sample `s`, so it lies in
//! `[s, s·(1 + 2^-7)]`, while `count`, `min` and `max` are exact. This
//! harness feeds randomized streams of three latency shapes — uniform,
//! Zipfian and bimodal (the fast-path/slow-path mix real tails look like)
//! — and checks every reported quantile against the fully sorted sample.
//! A second test pins the determinism the matrix relies on: the recorder
//! output in matrix JSON is byte-identical across `--jobs` worker counts.

use o2_suite::experiments::{find_scenario, registry, render_json, run_matrix};
use o2_suite::metrics::LatencyRecorder;
use o2_suite::workloads::ZipfSampler;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One randomized latency stream of a given shape.
fn stream(shape: &str, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    match shape {
        // Flat: every rank equally likely, tails carry no mass spike.
        "uniform" => (0..n).map(|_| rng.gen_range(100u64..100_000)).collect(),
        // Heavy-tailed ranks mapped to latencies: most samples cheap,
        // a long geometric tail (the scale workload's own sampler).
        "zipfian" => {
            let zipf = ZipfSampler::new(10_000, 1.1);
            (0..n).map(|_| 200 + 50 * zipf.sample(&mut rng)).collect()
        }
        // Fast path vs slow path: 95% around 1k cycles, 5% around 100k —
        // p50 and p999 land on different modes.
        "bimodal" => (0..n)
            .map(|_| {
                if rng.gen::<f64>() < 0.95 {
                    rng.gen_range(800u64..1_200)
                } else {
                    rng.gen_range(80_000u64..120_000)
                }
            })
            .collect(),
        other => panic!("unknown shape {other}"),
    }
}

#[test]
fn sketch_quantiles_stay_within_the_documented_relative_bound() {
    const N: usize = 200_000;
    for shape in ["uniform", "zipfian", "bimodal"] {
        for seed in [1u64, 42, 0xbe9c] {
            let mut samples = stream(shape, N, seed);
            let mut rec = LatencyRecorder::default();
            for &v in &samples {
                rec.record(v);
            }
            samples.sort_unstable();
            let summary = rec.summary();
            for (q, est) in [
                (0.50, summary.p50),
                (0.99, summary.p99),
                (0.999, summary.p999),
            ] {
                // The exact nearest-rank sample.
                let s = samples[(q * (N - 1) as f64).round() as usize];
                assert!(
                    s <= est && est <= s + s / 128,
                    "{shape}/seed {seed}/q {q}: reported {est}, exact sample {s}"
                );
            }
            assert_eq!(summary.count, N as u64, "{shape}/{seed}");
            assert_eq!(rec.min(), Some(samples[0]), "{shape}/{seed}");
            assert_eq!(summary.max, samples[N - 1], "{shape}/{seed}");
        }
    }
}

#[test]
fn sketch_is_deterministic_across_jobs_counts_and_reruns() {
    // Unit level: the same stream gives the same state.
    for shape in ["uniform", "zipfian", "bimodal"] {
        let feed = || {
            let mut r = LatencyRecorder::default();
            for v in stream(shape, 60_000, 9) {
                r.record(v);
            }
            r
        };
        assert_eq!(feed(), feed(), "{shape}: states diverged");
    }

    // System level: fig_scale's percentiles land in the matrix JSON
    // identically no matter how many workers raced over the cells.
    let scenario =
        || vec![find_scenario(registry(true), "fig_scale").expect("registered scenario")];
    let serial = render_json(&run_matrix(&scenario(), 1));
    let parallel = render_json(&run_matrix(&scenario(), 4));
    assert_eq!(serial, parallel);
    assert!(
        serial.contains("service latency p50"),
        "latency output missing"
    );
}
