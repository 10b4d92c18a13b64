//! Engineering benchmark (not from the paper): scaling of the
//! `mmwave-exec` thread pool on the batched DRAI pipeline.
//!
//! Runs the same 64-frame DRAI batch at 1, 2, and 4 workers, reports
//! frames/s and the speedup over the exact-serial path, and asserts the
//! determinism contract along the way: every worker count must produce
//! bit-identical heatmaps.
//!
//! Gating: when `MMWAVE_REQUIRE_SPEEDUP=<x>` is set (CI does, on a 4-core
//! runner), the bench exits nonzero unless the 4-worker speedup reaches
//! `x`. Without the variable it only reports — a single-core box cannot
//! meaningfully scale.

use mmwave_dsp::processing::{ProcessingConfig, Processor};
use mmwave_dsp::{Complex32, IfFrame};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

const N_VRX: usize = 8;
const N_CHIRPS: usize = 16;
const N_ADC: usize = 64;
const N_FRAMES: usize = 64;
const ITERATIONS: usize = 5;

fn synth_frames() -> Vec<IfFrame> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    (0..N_FRAMES)
        .map(|_| {
            let mut frame = IfFrame::zeros(N_VRX, N_CHIRPS, N_ADC);
            for vrx in 0..N_VRX {
                for chirp in 0..N_CHIRPS {
                    for z in frame.chirp_mut(vrx, chirp) {
                        *z = Complex32::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                    }
                }
            }
            frame
        })
        .collect()
}

fn best_of(iters: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
}

fn main() {
    let frames = synth_frames();
    let processor = Processor::new(N_VRX, N_CHIRPS, N_ADC, ProcessingConfig::default());

    println!("\n=== parallel_speedup: mmwave-exec scaling on batched DRAI ===");
    println!("workload: {N_FRAMES} frames of {N_VRX}x{N_CHIRPS}x{N_ADC}, best of {ITERATIONS}");

    let baseline = mmwave_exec::with_workers(1, || processor.drai_batch(&frames));
    let serial = best_of(ITERATIONS, || {
        mmwave_exec::with_workers(1, || {
            std::hint::black_box(processor.drai_batch(&frames));
        });
    });

    println!("{:<10}{:>14}{:>12}{:>10}", "workers", "best time", "frames/s", "speedup");
    let mut speedup_at_4 = 1.0_f64;
    for &workers in &[1_usize, 2, 4] {
        let out = mmwave_exec::with_workers(workers, || processor.drai_batch(&frames));
        assert_eq!(out, baseline, "parallel DRAI diverged from serial at workers={workers}");
        let best = best_of(ITERATIONS, || {
            mmwave_exec::with_workers(workers, || {
                std::hint::black_box(processor.drai_batch(&frames));
            });
        });
        let speedup = serial.as_secs_f64() / best.as_secs_f64();
        let fps = N_FRAMES as f64 / best.as_secs_f64();
        if workers == 4 {
            speedup_at_4 = speedup;
        }
        mmwave_telemetry::gauge(&format!("bench.parallel_speedup.w{workers}"), speedup);
        println!("{workers:<10}{:>14.2?}{fps:>12.0}{speedup:>9.2}x", best);
    }

    if let Ok(required) = std::env::var("MMWAVE_REQUIRE_SPEEDUP") {
        let min: f64 = required
            .parse()
            .expect("MMWAVE_REQUIRE_SPEEDUP must be a number like 2.5");
        assert!(
            speedup_at_4 >= min,
            "4-worker speedup {speedup_at_4:.2}x is below the required {min}x"
        );
        println!("speedup gate: {speedup_at_4:.2}x >= {min}x OK");
    }
    let _ = mmwave_telemetry::finish();
}
