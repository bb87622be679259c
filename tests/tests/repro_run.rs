//! The `amrviz repro` experiment runner, called in-process: manifests
//! agree with the returned SUMMARY, and re-runs into the same directory
//! merge into `results.json` instead of overwriting it.

use amrviz_bench::repro::{run, Target};
use amrviz_json::Json;
use amrviz_sim::Scale;

fn read_json(path: &std::path::Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn table2_manifest_matches_summary_and_reruns_merge_results() {
    let dir = std::env::temp_dir().join(format!("amrviz_repro_run_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let summary = run(Target::Experiment("table2"), Scale::Tiny, 7, &dir).unwrap();
    let manifest = read_json(&dir.join("manifest_table2.json"));
    let fabs_ok = manifest
        .get("counters")
        .and_then(|c| c.get("decode.fabs_ok"))
        .and_then(Json::as_u64)
        .expect("manifest counts decoded fabs");
    let summary_ok = summary
        .get("decode_fabs")
        .and_then(|d| d.get("ok"))
        .and_then(Json::as_u64)
        .expect("SUMMARY has decode_fabs.ok");
    assert!(fabs_ok > 0);
    assert_eq!(fabs_ok, summary_ok);

    run(Target::Experiment("fig14"), Scale::Tiny, 7, &dir).unwrap();
    let results = read_json(&dir.join("results.json"));
    assert!(results.get("table2").is_some(), "table2 record lost");
    assert!(results.get("fig14").is_some(), "fig14 record missing");

    assert!(run(Target::Experiment("fig99"), Scale::Tiny, 7, &dir).is_err());
    assert!(run(Target::Suite("nope"), Scale::Tiny, 7, &dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
