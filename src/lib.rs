//! # mmwave-har-backdoor
//!
//! A full-system Rust reproduction of *"Physical Backdoor Attacks against
//! mmWave-based Human Activity Recognition"* (ICDCS 2025): the FMCW radar
//! simulator, the signal-processing chain, the kinematic human model, the
//! CNN-LSTM HAR prototype, the SHAP-guided physical backdoor attack, and
//! the defenses — all from scratch, no radar hardware required.
//!
//! This facade crate re-exports the workspace members under short names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geom`] | `mmwave-geom` | vectors, meshes, visibility |
//! | [`dsp`] | `mmwave-dsp` | FFTs, clutter removal, heatmaps |
//! | [`body`] | `mmwave-body` | human model + activity generator |
//! | [`radar`] | `mmwave-radar` | Eq. (3) IF simulator + capture pipeline |
//! | [`nn`] | `mmwave-nn` | layers, backprop, Adam |
//! | [`shap`] | `mmwave-shap` | Shapley-value estimation |
//! | [`har`] | `mmwave-har` | datasets, CNN-LSTM, training, evaluation |
//! | [`backdoor`] | `mmwave-backdoor` | the attack (frames, position, poison, metrics) |
//! | [`defense`] | `mmwave-defense` | trigger detection + augmentation |
//! | [`telemetry`] | `mmwave-telemetry` | spans, metrics, traces, profiles, run events |
//! | [`exec`] | `mmwave-exec` | deterministic work-stealing parallel runtime |
//! | [`store`] | `mmwave-store` | atomic checksummed artifact I/O, quarantine, crash points |
//! | [`serve`] | `mmwave-serve` | streaming inference service + load generator |
//! | [`monitor`] | `mmwave-monitor` | model-health drift scores + backdoor-activation alarms |
//! | [`bench`] | `mmwave-bench` | paper benches, perf-check over perfbench baselines |
//!
//! See `examples/quickstart.rs` for a guided tour, and the `mmwave-bench`
//! crate for the reproduction of every table and figure in the paper.

pub use mmwave_backdoor as backdoor;
pub use mmwave_bench as bench;
pub use mmwave_body as body;
pub use mmwave_defense as defense;
pub use mmwave_dsp as dsp;
pub use mmwave_exec as exec;
pub use mmwave_geom as geom;
pub use mmwave_har as har;
pub use mmwave_monitor as monitor;
pub use mmwave_nn as nn;
pub use mmwave_radar as radar;
pub use mmwave_serve as serve;
pub use mmwave_shap as shap;
pub use mmwave_store as store;
pub use mmwave_telemetry as telemetry;
