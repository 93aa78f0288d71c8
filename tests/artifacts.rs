//! The committed `BENCH_*.json` artifacts decode through their typed
//! envelopes and re-encode to the committed bytes: the one codec writes
//! exactly what the files hold.

use asgd_bench::experiments::{ingest, serving, serving_net, sparse_scaling};
use asyncsgd::driver::{DecodeError, ValidationReport};

fn assert_re_encodes<T>(
    name: &str,
    from_json: fn(&str) -> Result<T, DecodeError>,
    to_json_pretty: fn(&T) -> String,
) {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let artifact = from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        to_json_pretty(&artifact),
        text.strip_suffix('\n').unwrap_or(&text),
        "{name}: the typed path must write the committed bytes"
    );
}

#[test]
fn committed_artifacts_re_encode_byte_identically() {
    assert_re_encodes(
        "BENCH_sparse_path.json",
        sparse_scaling::Artifact::from_json,
        sparse_scaling::Artifact::to_json_pretty,
    );
    assert_re_encodes(
        "BENCH_serving.json",
        serving::Artifact::from_json,
        serving::Artifact::to_json_pretty,
    );
    assert_re_encodes(
        "BENCH_net.json",
        serving_net::Artifact::from_json,
        serving_net::Artifact::to_json_pretty,
    );
    assert_re_encodes(
        "BENCH_validation.json",
        ValidationReport::from_json,
        ValidationReport::to_json_pretty,
    );
    assert_re_encodes(
        "BENCH_ingest.json",
        ingest::Artifact::from_json,
        ingest::Artifact::to_json_pretty,
    );
}
