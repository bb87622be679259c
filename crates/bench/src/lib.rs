//! Shared helpers for the benchmark harness.
//!
//! The interesting artifacts are produced by [`repro`] (run as
//! `amrviz repro all`), which prints the paper's tables/series and writes
//! rendered figures. [`harness`] backs `amrviz bench`: the pinned
//! kernel-timing matrix with `BENCH_*.json` output and baseline gating.

use amrviz_core::prelude::*;

pub mod harness;
pub mod repro;

/// The error bounds the rate-distortion figures sweep.
pub const RD_EBS: [f64; 6] = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2];

/// Builds the benchmark scenario for an application at a scale (fixed
/// seed so runs are comparable).
pub fn bench_scenario(app: Application, scale: Scale) -> BuiltScenario {
    Scenario::new(app, scale, 42).build()
}

/// The one-dimensional Fig. 14 demonstration: a linear ramp, its blocky
/// reconstruction under a coarse quantizer, and the re-sampled
/// (vertex-averaged + midpoint-interpolated) version that smooths the
/// blocks. Returns `(original, blocky, resampled)`; the resampled series
/// has `n + 1` vertex samples.
pub fn fig14_series(n: usize, eb: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    use amrviz_compress::quantizer::{Quantized, Quantizer};
    let original: Vec<f64> = (0..n).map(|i| i as f64).collect();
    // A large absolute bound makes the quantizer's staircase visible — the
    // 1D stand-in for SZ-L/R's block artifacts (the paper's "111//444//777"
    // sketch). Prediction is held at 0 so the raw quantization staircase
    // shows (the real block compressor would predict the ramp exactly).
    let q = Quantizer::new(eb);
    let blocky: Vec<f64> = original
        .iter()
        .map(|&v| match q.quantize(0.0, v) {
            Quantized::Code { recon, .. } => recon,
            Quantized::Outlier => v,
        })
        .collect();
    // Re-sampling: cell → vertex averaging (paper §2.3, 1D version).
    let mut resampled = Vec::with_capacity(n + 1);
    resampled.push(blocky[0]);
    for i in 1..n {
        resampled.push(0.5 * (blocky[i - 1] + blocky[i]));
    }
    resampled.push(blocky[n - 1]);
    (original, blocky, resampled)
}

/// Total variation of a series — the Fig. 14 smoothing effect in one
/// number (lower = smoother).
pub fn step_roughness(series: &[f64]) -> f64 {
    series
        .windows(3)
        .map(|w| (w[2] - 2.0 * w[1] + w[0]).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_resampling_smooths_blocks() {
        let (orig, blocky, resampled) = fig14_series(24, 1.4);
        assert_eq!(orig.len(), 24);
        assert_eq!(resampled.len(), 25);
        // The quantizer staircases the ramp…
        assert!(step_roughness(&blocky) > 2.0 * step_roughness(&orig));
        // …and re-sampling smooths it back down (the paper's Fig. 14 point).
        assert!(
            step_roughness(&resampled) < step_roughness(&blocky),
            "resampled {} !< blocky {}",
            step_roughness(&resampled),
            step_roughness(&blocky)
        );
    }

    #[test]
    fn scenarios_build() {
        let b = bench_scenario(Application::Warpx, Scale::Tiny);
        assert_eq!(b.hierarchy.num_levels(), 2);
    }
}
