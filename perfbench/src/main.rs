//! The repository benchmark. One command runs a named workload against the
//! amrviz public API, checks every output, and prints each metric with its
//! unit; the last line of standard output is the JSON result.
//!
//! ```text
//! perfbench [LOAD FLAGS] --workload NAME --seed N --seconds S --trace 0|1
//! perfbench steady [--seed-base B]
//! ```
//!
//! See `README.md` in this directory for the workloads and metrics.

mod load;
mod pipeline;
mod report;
mod serve;
mod stats;
mod steady;
mod trace;

use report::Outcome;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// Scratch space under the working directory: serve stores (removed when a
/// run ends) and traced-run span files.
pub const WORK_DIR: &str = ".perfbench_work";

pub const WORKLOADS: [&str; 3] = ["paper_pipeline", "serve_hot", "serve_ingest"];

/// Every end-to-end metric, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("mvals_per_s", "Mval/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("compression_ratio", "x"),
    ("psnr_db", "dB"),
    ("rssim", "1"),
];

/// Every per-layer metric, printed by every workload with `--trace 1`. A
/// workload that never calls a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("viz.resampling_s", "s"),
    ("viz.dual_s", "s"),
    ("viz.dual_redundant_s", "s"),
    ("viz.triangles", "count"),
    ("viz.mtri_per_s", "Mtri/s"),
    ("metrics.ssim_s", "s"),
    ("metrics.quality_s", "s"),
    ("amr.flatten_s", "s"),
    ("compress.s", "s"),
    ("compress.mvals_per_s", "Mval/s"),
    ("compress.out_bytes", "B"),
    ("decompress.s", "s"),
    ("decompress.mvals_per_s", "Mval/s"),
    ("par.busy_frac", "1"),
    ("par.speedup_vs_t1", "x"),
    ("bench.attributed_pct", "%"),
    ("client.connect_us_p50", "us"),
    ("client.header_us_p50", "us"),
    ("client.header_us_p99", "us"),
    ("client.stream_us_p50", "us"),
    ("client.first_level_ms_p50", "ms"),
    ("client.first_level_ms_p99", "ms"),
    ("client.late_frames", "count"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.residual_us_p50", "us"),
    ("serve.residual_us_p99", "us"),
    ("serve.shed", "count"),
    ("serve.write_us_p50", "us"),
    ("serve.write_us_p99", "us"),
    ("serve.server_us_p50", "us"),
    ("serve.server_us_p99", "us"),
    ("serve.decode_us_p50", "us"),
    ("serve.decode_us_p99", "us"),
    ("serve.decode_count", "count"),
    ("serve.store_read_us_p50", "us"),
    ("serve.structure_validate_us_p50", "us"),
    ("serve.timeout", "count"),
    ("serve.deadline_aborts", "count"),
    ("serve.post_deadline_responses", "count"),
    ("serve.max_rps_at_slo", "1/s"),
    ("cache.hit_ratio", "1"),
    ("cache.misses", "count"),
    ("gen.sent", "count"),
    ("gen.lateness_ms_p99", "ms"),
    ("ingest.put_ms_p50", "ms"),
    ("ingest.put_ms_p90", "ms"),
    ("ingest.compress_ms_p50", "ms"),
    ("artifact.encode_ms_p50", "ms"),
    ("store.put_ms_p50", "ms"),
    ("store.put_ms_p90", "ms"),
    ("store.put_bytes", "B"),
];

/// `--key value` pairs.
fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        out.insert(key.to_string(), v.clone());
    }
    Ok(out)
}

fn num<T: std::str::FromStr>(f: &HashMap<String, String>, key: &str) -> Result<T, String> {
    let v = f.get(key).ok_or_else(|| format!("missing --{key}"))?;
    v.parse().map_err(|_| format!("bad --{key} {v}"))
}

fn load_spec(f: &HashMap<String, String>) -> Result<serve::LoadSpec, String> {
    let ladder = f
        .get("ladder")
        .ok_or("missing --ladder")?
        .split(',')
        .map(|r| r.parse().map_err(|_| format!("bad --ladder rate {r}")))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(serve::LoadSpec {
        rate: num(f, "rate")?,
        ladder,
        slo_ms: num(f, "slo-ms")?,
    })
}

fn run(args: &[String]) -> Result<Outcome, String> {
    let f = flags(args)?;
    let workload = f.get("workload").ok_or("missing --workload")?.clone();
    let seed: u64 = num(&f, "seed")?;
    let seconds: u64 = num(&f, "seconds")?;
    let traced = match f.get("trace").map(String::as_str) {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let spec = load_spec(&f)?;
    let mut out = match workload.as_str() {
        "paper_pipeline" => pipeline::run(seed, seconds, traced),
        "serve_hot" => serve::run_hot(&spec, seed, seconds, traced),
        "serve_ingest" => serve::run_ingest(&spec, seed, seconds, traced),
        w => return Err(format!("unknown workload {w}; one of {WORKLOADS:?}")),
    };
    let rss = report::peak_rss_mb().ok_or("peak RSS is not readable")?;
    if out.get("peak_rss_mb").is_none() {
        out.put("peak_rss_mb", rss, "MB");
    } else {
        out.note(format!("whole-run peak RSS {rss:.3} MB"));
    }
    if traced {
        if out.spans.is_empty() {
            out.spans = trace::take();
        }
        let mut zero = Vec::new();
        for (name, unit) in PER_LAYER {
            if out.get(name).is_none() {
                out.put(name, 0.0, unit);
                zero.push(name);
            }
        }
        out.note(format!(
            "layers this workload never calls (reported 0): {zero:?}"
        ));
        std::fs::create_dir_all(WORK_DIR).map_err(|e| e.to_string())?;
        let path = Path::new(WORK_DIR).join(format!("trace-{workload}-{seed}.jsonl"));
        trace::write_jsonl(&out.spans, &path).map_err(|e| e.to_string())?;
        out.note(format!(
            "{} spans written to {}",
            out.spans.len(),
            path.display()
        ));
    }
    Ok(out)
}

fn print(out: &Outcome, traced: bool) -> Result<String, String> {
    let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in set {
        if let Some(m) = out.metrics.iter().find(|m| m.name == *name) {
            if m.unit != *unit {
                return Err(format!("{name} measured in {}, declared in {unit}", m.unit));
            }
        }
    }
    println!("metrics:\n{}", out.table());
    if traced {
        println!("span self time (count, total s, self s):");
        for (name, l) in trace::by_name(&out.spans) {
            println!(
                "  {name:<24} {:>8} {:>12.6} {:>12.6}",
                l.count,
                l.total_ns as f64 / 1e9,
                l.self_ns as f64 / 1e9
            );
        }
    }
    for n in &out.notes {
        println!("{n}");
    }
    for e in out.errors.iter().take(20) {
        println!("FAILED: {e}");
    }
    let names: Vec<String> = set.iter().map(|(n, _)| n.to_string()).collect();
    out.json_line(&names)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return steady::main(&args[1..]);
    }
    let traced = args.windows(2).any(|w| w[0] == "--trace" && w[1] == "1");
    let line = run(&args).and_then(|out| Ok((out.correct(), print(&out, traced)?)));
    match line {
        Ok((correct, json)) => {
            println!("{json}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amrviz_json::Json;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("valid json");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
