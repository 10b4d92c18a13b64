//! A trained model's persistence round trip.

use mmwave_har_backdoor::har::{CnnLstm, PrototypeConfig};
use mmwave_har_backdoor::nn::persist::{load_json, save_json};

#[test]
fn trained_model_round_trips_through_json() {
    let cfg = PrototypeConfig::smoke_test();
    let model = CnnLstm::new(&cfg, 42);
    let path = std::env::temp_dir().join(format!("mmwave_model_{}.json", std::process::id()));
    save_json(&model, &path).expect("save");
    let restored: CnnLstm = load_json(&path).expect("load");
    assert_eq!(model, restored);
    std::fs::remove_file(&path).ok();
}
