//! Steadiness mode: two sets of dark runs of the same build, each run on
//! its own seed, summarised per workload and end-to-end metric.
//!
//! For each set it prints the median and quartiles and the spread (the
//! interquartile range as a share of the median). The sets agree when, for
//! every metric, both spreads stay within the metric's bound and the two
//! medians differ, in either direction, by at most the bound. A spread
//! above a third of the bound is flagged as not steady enough.

use crate::stats::{median, quartiles, relative_spread};
use amrviz_json::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Runs per workload in each set.
const RUNS: u64 = 10;

struct Declared {
    name: String,
    unit: String,
    bound: f64,
}

struct Bench {
    /// Command arguments after `--`: the load flags.
    load_args: Vec<String>,
    run_seconds: u64,
    workloads: Vec<String>,
    metrics: Vec<Declared>,
}

fn read_bench(path: &str) -> Result<Bench, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let strs = |j: &Json| -> Vec<String> {
        j.as_arr()
            .unwrap_or_default()
            .iter()
            .filter_map(|s| s.as_str().map(str::to_string))
            .collect()
    };
    let command = strs(doc.get("command").ok_or("no command")?);
    let load_args = match command.iter().position(|a| a == "--") {
        Some(i) => command[i + 1..].to_vec(),
        None => Vec::new(),
    };
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end")?
        .iter()
        .map(|m| Declared {
            name: field(m, "name"),
            unit: field(m, "unit"),
            bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
        })
        .collect();
    Ok(Bench {
        load_args,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("no run_seconds")?,
        workloads,
        metrics,
    })
}

/// One dark run of this executable; the parsed result line.
fn run_once(bench: &Bench, workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(&bench.load_args)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &bench.run_seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result =
        Json::parse(last).map_err(|_| format!("{workload} seed {seed}: no result line"))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: incorrect run\n{stdout}"));
    }
    Ok(result)
}

/// Quartiles and spread of one set, or why there are none.
fn summary(values: &[f64]) -> String {
    match (quartiles(values), relative_spread(values)) {
        (Some([q1, q2, q3]), Some(sp)) => {
            format!("{q2:>12.5} [{q1:.5}, {q3:.5}] {:>6.2}%", 100.0 * sp)
        }
        _ => "too few runs".into(),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    match steady(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            ExitCode::from(2)
        }
    }
}

fn steady(args: &[String]) -> Result<bool, String> {
    let f = crate::flags(args)?;
    let base: u64 = f
        .get("seed-base")
        .map_or(Ok(1000), |v| v.parse().map_err(|_| "bad --seed-base"))?;
    let bench = read_bench("BENCHMARK.json")?;
    let workloads = &bench.workloads;
    // values[(workload, metric)][set] = one value per run.
    let mut values: BTreeMap<(String, String), [Vec<f64>; 2]> = BTreeMap::new();
    for set in 0..2u64 {
        for w in workloads {
            for r in 0..RUNS {
                let seed = base + set * RUNS + r;
                eprintln!("steady: set {} {w} seed {seed}", set + 1);
                let result = run_once(&bench, w, seed)?;
                for m in &bench.metrics {
                    let v = result
                        .get("metrics")
                        .and_then(|ms| ms.get(&m.name))
                        .and_then(|x| x.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("{w}: result lacks {}", m.name))?;
                    values.entry((w.clone(), m.name.clone())).or_default()[set as usize].push(v);
                }
            }
        }
    }
    let mut agree = true;
    println!(
        "{:<14} {:<18} {:>8} {:>38} {:>38}  verdict",
        "workload", "metric", "bound", "set 1: median [q1, q3] spread", "set 2"
    );
    for w in workloads {
        for m in &bench.metrics {
            let sets = &values[&(w.clone(), m.name.clone())];
            let spreads = [relative_spread(&sets[0]), relative_spread(&sets[1])];
            let worst_spread = spreads.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
            let (m1, m2) = (median(&sets[0]), median(&sets[1]));
            let drift = (m2 - m1) / m1.abs();
            let ok = worst_spread <= m.bound && drift.abs() <= m.bound;
            agree &= ok;
            let verdict = match (ok, worst_spread <= m.bound / 3.0) {
                (false, _) => "DISAGREE",
                (true, true) => "agree",
                (true, false) => "agree, spread above bound/3",
            };
            let both: Vec<f64> = sets.concat();
            println!(
                "{w:<14} {:<18} {:>7.1}% {:>38} {:>38}  {verdict} (2nd median {:+.2}% off \
                 the 1st; all {} runs: spread {:.2}%) {}",
                m.name,
                100.0 * m.bound,
                summary(&sets[0]),
                summary(&sets[1]),
                100.0 * drift,
                both.len(),
                100.0 * relative_spread(&both).unwrap_or(f64::NAN),
                m.unit
            );
        }
    }
    println!(
        "steady: {}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(agree)
}
