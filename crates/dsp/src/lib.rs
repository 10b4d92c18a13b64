//! Radar signal processing for mmWave FMCW human activity recognition.
//!
//! This crate turns raw intermediate-frequency (IF) samples produced by the
//! simulator in `mmwave-radar` into the time-series heatmaps the HAR
//! prototype classifies, following the pipeline of Section II-A of the
//! paper:
//!
//! ```text
//! IF samples --Range-FFT--> range profiles --Doppler-FFT--> RDI
//!                               |
//!                               +--MTI clutter removal--Angle-FFT--> DRAI
//! ```
//!
//! * [`Complex32`] — single-precision complex arithmetic;
//! * [`fft`] — an in-place iterative radix-2 FFT with precomputed twiddle
//!   factors (plus a naive DFT used to validate it in tests);
//! * [`window`] — Hann/Hamming/Blackman/rectangular tapers;
//! * [`frame`] — the [`frame::IfFrame`] raw-signal container
//!   (virtual-antenna x chirp x ADC-sample cube);
//! * [`processing`] — Range/Doppler/Angle FFT stages and moving-target
//!   indication (MTI) clutter removal;
//! * [`heatmap`] — [`heatmap::Heatmap`] (a single range-Doppler or
//!   range-angle image) and [`heatmap::HeatmapSeq`] (the 32-frame sequence
//!   representing one activity).
//!
//! # Examples
//!
//! ```
//! use mmwave_dsp::{fft::Fft, Complex32};
//!
//! // Round-trip a small signal through the FFT.
//! let plan = Fft::new(8);
//! let mut data: Vec<Complex32> =
//!     (0..8).map(|i| Complex32::new(i as f32, 0.0)).collect();
//! let original = data.clone();
//! plan.forward(&mut data);
//! plan.inverse(&mut data);
//! for (a, b) in data.iter().zip(&original) {
//!     assert!((*a - *b).abs() < 1e-4);
//! }
//! ```

pub mod complex;
pub mod fft;
pub mod frame;
pub mod heatmap;
#[cfg(test)]
mod oracle;
pub mod processing;
pub mod window;

pub use complex::Complex32;
pub use frame::IfFrame;
pub use heatmap::{repair_dropped_frames, Heatmap, HeatmapSeq};
