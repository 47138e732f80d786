//! `BENCHMARK.json` declares exactly the workloads and metrics the
//! benchmark reports, with the same units.

use std::path::Path;

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;
use serve::json::{self, Value};

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn entries<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn field<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap()
}

#[test]
fn benchmark_json_matches_the_reported_names_and_units() {
    let v = declared();
    let workloads: Vec<&str> = entries(&v, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for (key, reported) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(&str, &str)> = entries(&v, key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        assert_eq!(declared, reported, "{key}");
    }
}
