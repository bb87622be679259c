//! `amrviz` — command-line front end to the workspace.
//!
//! ```text
//! amrviz generate   <nyx|warpx> --out DIR [--scale S] [--seed N] [--all-fields]
//! amrviz simulate   --out DIR [--n N] [--steps K] [--snap-every M]
//! amrviz info       <plotfile>
//! amrviz compress   <plotfile> --field F --out FILE [--algo A] [--rel EB | --abs EB] [--skip-redundant]
//! amrviz decompress <plotfile> <stream> --out DIR [--algo A] [--skip-redundant] [--degrade]
//! amrviz extract    <plotfile> --field F --out FILE.obj [--iso V | --quantile Q] [--method M]
//! amrviz render     <plotfile> --field F --out FILE.png [--mode surface|slice|volume] [...]
//! amrviz diff       <plotfile A> <plotfile B> --field F [--field-b G]
//! amrviz repro      <experiment|all> [--scale S] [--seed N] [--out DIR]
//! ```
//!
//! Algorithms: `szlr` (default), `szinterp`, `zfp`. Methods: `resampling`
//! (default), `dual`, `dual-redundant`. Plotfiles are the directories
//! written by `amrviz-amr::plotfile`.

mod args;
mod commands;
mod top;

use std::process::ExitCode;
use std::time::Duration;

// Counting allocator so `amrviz torture` can assert bounded memory on
// corrupted-stream decodes; negligible overhead on the other commands
// (two relaxed atomic ops per allocation).
#[global_allocator]
static ALLOC: amrviz_fault::CountingAlloc = amrviz_fault::CountingAlloc;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = extract_obs_options(argv).and_then(|(argv, globals)| {
        globals.report_warnings();
        Ok((argv, ObsOptions::from_args(&globals)?))
    });
    let (argv, obs_opts) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help" {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if let Some(n) = obs_opts.threads {
        amrviz_par::set_threads(n);
    }
    if obs_opts.active() {
        amrviz_obs::enable();
    }
    if let Err(e) = obs_opts.start_streaming() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let cmd = argv[0].clone();
    let rest = &argv[1..];
    let result = match cmd.as_str() {
        "generate" => commands::generate(rest),
        "simulate" => commands::simulate(rest),
        "info" => commands::info(rest),
        "compress" => commands::compress(rest),
        "decompress" => commands::decompress(rest),
        "extract" => commands::extract(rest),
        "render" => commands::render(rest),
        "diff" => commands::diff(rest),
        "torture" => commands::torture(rest),
        "serve" => commands::serve(rest),
        "loadgen" => commands::loadgen(rest),
        "bench" => commands::bench(rest),
        "stats" => commands::stats(rest),
        "repro" => commands::repro(rest),
        "top" => top::top(rest),
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    // Streaming shutdown and exporters run even when the command failed:
    // a journal/trace of a failed run is exactly when you want one.
    let result = result.and(obs_opts.finish());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Observability flags, valid on every subcommand.
#[derive(Debug)]
struct ObsOptions {
    trace_path: Option<String>,
    flame_path: Option<String>,
    timing: bool,
    threads: Option<usize>,
    journal_path: Option<String>,
    metrics_path: Option<String>,
    metrics_interval: Option<Duration>,
    trace_sample: Option<u64>,
}

impl Drop for ObsOptions {
    /// Flush-on-drop backstop: if a command panics (or any path skips
    /// `finish`), unwinding still stops the journal and lands the queued
    /// tail — a short run must never lose its final events to the 50 ms
    /// writer poll. No-op on the normal path where `finish` already ran.
    fn drop(&mut self) {
        if self.journal_path.is_some() && amrviz_obs::journal::is_active() {
            amrviz_obs::journal::stop();
        }
    }
}

impl ObsOptions {
    /// Reads the global flags out of `p` (see [`extract_obs_options`]),
    /// validating every numeric value whatever other flags are given.
    fn from_args(p: &args::Parsed) -> Result<Self, String> {
        let threads = p.opt_parse::<usize>("threads")?;
        if threads == Some(0) {
            return Err("--threads must be at least 1".into());
        }
        let trace_sample = p.opt_parse::<u64>("trace-sample")?;
        if trace_sample == Some(0) {
            return Err("--trace-sample must be at least 1 (keep every Nth trace)".into());
        }
        let path = |name| p.opt(name).map(str::to_string);
        Ok(ObsOptions {
            trace_path: path("trace"),
            flame_path: path("flame"),
            timing: p.switch("timing"),
            threads,
            journal_path: path("journal"),
            metrics_path: path("metrics-out"),
            metrics_interval: p.opt_secs("metrics-interval")?,
            trace_sample,
        })
    }

    fn active(&self) -> bool {
        self.trace_path.is_some()
            || self.flame_path.is_some()
            || self.timing
            || self.journal_path.is_some()
            || self.metrics_path.is_some()
    }

    /// Starts the continuous-telemetry machinery (trace sampling, JSONL
    /// journal, periodic metrics snapshots) before command dispatch.
    fn start_streaming(&self) -> Result<(), String> {
        if let Some(n) = self.trace_sample {
            amrviz_obs::set_trace_sampling(n);
        }
        if let Some(path) = &self.journal_path {
            amrviz_obs::journal::start(std::path::Path::new(path))?;
        }
        if let Some(path) = &self.metrics_path {
            amrviz_obs::expose::writer_start(
                std::path::PathBuf::from(path),
                self.metrics_interval.unwrap_or(Duration::from_secs(5)),
            )?;
        }
        Ok(())
    }

    /// Stops streaming (flushing the journal and a final metrics snapshot)
    /// and then runs the batch exporters. Called whether or not the
    /// command succeeded.
    fn finish(&self) -> Result<(), String> {
        if self.metrics_path.is_some() {
            amrviz_obs::expose::writer_stop();
        }
        if self.journal_path.is_some() {
            let stats = amrviz_obs::journal::stop();
            if let Some(path) = &self.journal_path {
                eprintln!(
                    "journal written to {path} ({} lines, {} dropped)",
                    stats.enqueued, stats.dropped
                );
            }
        }
        self.export()
    }

    /// Writes the chrome trace / flamegraph and/or prints the timing
    /// summary.
    fn export(&self) -> Result<(), String> {
        if let Some(path) = &self.trace_path {
            amrviz_obs::chrome::write_chrome_trace(std::path::Path::new(path))
                .map_err(|e| format!("writing trace to {path}: {e}"))?;
            eprintln!("trace written to {path} (open in chrome://tracing or ui.perfetto.dev)");
        }
        if let Some(path) = &self.flame_path {
            amrviz_obs::flame::write_flamegraph(std::path::Path::new(path))
                .map_err(|e| format!("writing flamegraph to {path}: {e}"))?;
            let kind = if path.to_ascii_lowercase().ends_with(".html")
                || path.to_ascii_lowercase().ends_with(".htm")
            {
                "self-contained HTML"
            } else {
                "collapsed-stack text"
            };
            eprintln!("flamegraph written to {path} ({kind})");
        }
        if self.timing {
            let summary = amrviz_obs::summary::collect();
            eprint!("{}", summary.to_text());
            let hists = amrviz_obs::histograms_snapshot();
            if !hists.is_empty() {
                eprint!("{}", amrviz_obs::hist::render_text(&hists));
            }
            eprint!("{}", amrviz_par::utilization().to_text());
        }
        Ok(())
    }
}

/// Global flags that take a value, and global switches (names without
/// `--`), valid anywhere on every command line.
const GLOBAL_VALUE_OPTS: [&str; 7] = [
    "trace",
    "flame",
    "threads",
    "journal",
    "metrics-out",
    "metrics-interval",
    "trace-sample",
];
const GLOBAL_SWITCHES: [&str; 1] = ["timing"];

/// Moves the global flags (and the value after each value flag) out of
/// `argv` and parses them with [`args::parse`], returning the remaining
/// subcommand arguments and the parsed globals. `--flag=value` forms are
/// moved too, so the parser rejects them with its usual guidance.
fn extract_obs_options(argv: Vec<String>) -> Result<(Vec<String>, args::Parsed), String> {
    let mut globals = Vec::new();
    let mut rest = Vec::with_capacity(argv.len());
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let name = a
            .strip_prefix("--")
            .map(|n| n.split_once('=').map_or(n, |(k, _)| k));
        match name {
            Some(n) if GLOBAL_VALUE_OPTS.contains(&n) => {
                let takes_value = !a.contains('=');
                globals.push(a);
                if takes_value {
                    globals.extend(it.next());
                }
            }
            Some(n) if GLOBAL_SWITCHES.contains(&n) => globals.push(a),
            _ => rest.push(a),
        }
    }
    let parsed = args::parse(&globals, &GLOBAL_VALUE_OPTS, &GLOBAL_SWITCHES)?;
    Ok((rest, parsed))
}

fn usage() -> &'static str {
    "amrviz — AMR data toolkit (compression × visualization)

USAGE:
  amrviz generate   <nyx|warpx> --out DIR [--scale tiny|small|medium|paper]
                    [--seed N] [--all-fields]
  amrviz simulate   --out DIR [--n N] [--steps K] [--snap-every M]
  amrviz info       <plotfile>
  amrviz compress   <plotfile> --field F --out FILE
                    [--algo szlr|szinterp|zfp] [--rel EB | --abs EB]
                    [--skip-redundant]
  amrviz decompress <plotfile> <stream> --out DIR
                    [--algo szlr|szinterp|zfp] [--skip-redundant]
                    [--degrade]  repair corrupt fabs from neighbor levels
                    instead of failing; prints a per-fab decode report
  amrviz extract    <plotfile> --field F --out FILE.obj
                    [--iso V | --quantile Q]
                    [--method resampling|dual|dual-redundant]
  amrviz render     <plotfile> --field F --out FILE.png
                    [--mode surface|slice|volume] [--iso V | --quantile Q]
                    [--method M] [--width W] [--height H] [--log]
  amrviz diff       <plotfile A> <plotfile B> --field F [--field-b G]
  amrviz torture    [--iters N] [--seed S] [--max-peak-mb M] [--recipes K]
                    fault-injection sweep over every decoder: mutated
                    streams must error gracefully, never panic, and stay
                    under the peak-allocation cap (default 128 MiB).
                    --recipes K appends K recipe-sampled AMR scenarios to
                    the corrupted-stream corpus; violations print the
                    reproducing recipe string. Prints one machine-readable
                    `TORTURE {...}` line; exits nonzero on any violation.
                    [--serve] instead chaos-tests the serving stack: an
                    in-process server behind a fault-injecting proxy, with
                    good/degraded/disk-corrupt/unknown keys and randomized
                    deadlines. Asserts no panics, no post-deadline data,
                    typed errors for corrupt blobs, and bounded peak
                    memory. Prints `SERVE_TORTURE {...}`; exits nonzero on
                    any violation with a reproducing command line.
  amrviz serve      --store DIR [--addr HOST:PORT] [--workers N]
                    [--queue-depth D] [--cache-mb MB] [--max-deadline-ms MS]
                    [--shutdown-after SECS] [--chaos SEED] [--slo SPEC]
                    [--seed-scenarios N [--seed S]]
                    progressive AMR server: streams cached decoded
                    hierarchies coarse-level-first over a length-prefixed
                    binary protocol, honoring per-request deadline budgets
                    (late work is cut mid-stream, never delivered late) and
                    shedding load with typed RETRY_LATER + retry hint when
                    the queue is full. --chaos puts a deterministic
                    fault-injecting proxy in front (for CI/torture).
                    --seed-scenarios pre-populates the store with N tiny
                    compressed snapshots. --slo declares the objectives
                    (e.g. p99<250,avail>99) evaluated over 5m/1h burn
                    windows and reported by the in-band STATS endpoint.
                    Prints `SERVE_LISTENING addr=...`
                    once ready and `SERVE_STATS {...}` after drain; exits
                    nonzero if any worker panicked or any data frame was
                    written past its deadline.
  amrviz loadgen    --addr HOST:PORT [--clients N] [--rps R]
                    [--duration SECS] [--deadline-ms MS] [--retries K]
                    [--seed S] [--min-success FRAC] [--slo SPEC]
                    closed-loop load generator: N client threads with
                    jittered pacing and seeded exponential backoff on
                    shed/timeout. Discovers keys via LIST, prints a
                    `LOADGEN {...}` line with p50/p99 latency and
                    per-outcome latency histograms; exits nonzero when the
                    success rate drops below --min-success (default 0.9) or
                    any frame arrived after deadline + grace. --slo gates
                    the whole run against a declared objective (e.g.
                    p99<250,avail>99), printing `LOADGEN_SLO {...}` and
                    exiting nonzero on breach.
  amrviz top        HOST:PORT [--interval SECS] [--exemplars N]
                    [--once] [--json]
                    live dashboard over the server's in-band STATS request
                    (same port as data traffic): outcome sparklines,
                    windowed latency and stage-timing percentiles, SLO
                    burn-rate windows, and tail exemplars naming the stage
                    each slow request spent its time in. Retries through
                    chaos-proxy faults. --once renders a single frame;
                    --once --json prints the raw validated snapshot for
                    scripts and CI.
  amrviz bench      [--quick] [--name LABEL] [--out DIR]
                    [--baseline OLD.json] [--threshold PCT]
                    [--thread-counts 1,4] [--scale S] [--ebs 1e-3,1e-2]
                    runs the pinned Nyx/WarpX × {szlr, interp, zfp-like} ×
                    thread-count matrix and writes BENCH_<name>.json (wall
                    times, histogram percentiles, peak memory, CR/PSNR/SSIM
                    per cell). With --baseline, prints per-metric deltas and
                    exits nonzero when any gated metric leaves the ±PCT%
                    band (default 200). Time metrics gate symmetrically —
                    an implausibly *faster* run also fails, since it means
                    the baseline is stale or doctored.
                    [--obs-overhead] instead runs the instrumentation
                    self-overhead cell (Nyx × szlr, recorder off vs. on +
                    journal) and exits nonzero when the overhead exceeds
                    the 3% wall-time budget.
  amrviz repro      <experiment> [--scale tiny|small|medium|paper] [--seed N]
                    [--out DIR]
  amrviz repro      --suite enumerated[:RECIPE] [--seed N] [--out DIR]
                    regenerates the paper's tables and figures: ASCII
                    tables on stdout; renders, manifest_<experiment>.json,
                    results.json and summary.jsonl under --out (default
                    repro_out, scale medium, seed 42); a final one-line
                    `SUMMARY {...}`. Exits nonzero if any experiment failed.
                    experiments:
                      table1   dataset structure (grid sizes, per-level
                               densities)
                      table2   CR / PSNR / SSIM / R-SSIM for SZ-L/R and
                               SZ-Interp
                      fig1     cracks vs gaps vs redundant-fix on original
                               data (+ renders)
                      fig2     AMR solver snapshots with adapting grids
                               (+ slice renders)
                      fig9     WarpX × SZ-L/R × {re-sampling, dual-cell} ×
                               eb sweep
                      fig10    WarpX × SZ-Interp × methods × eb sweep
                      fig11    Nyx × both compressors × methods at eb 1e-2
                      fig12    rate-distortion on WarpX \"Ez\"
                      fig13    rate-distortion on Nyx \"Density\"
                      fig14    1D block-artifact smoothing demonstration
                      ablation redundant-coarse-data handling (skip/restore)
                               vs ratio
                      all      everything above
                    --suite enumerated replaces the experiments with the
                    recipe-enumerated scenario suite (32 built-in
                    scenarios); `:@FILE` expands a recipe file and
                    `:(scenario …)` an inline recipe.
  amrviz stats      <FILE> [--strict] [--slo SPEC]
                    pretty-prints continuous-telemetry artifacts: a
                    `--journal` JSONL file or a `--metrics-out` snapshot
                    (counters, gauges, histogram percentiles, recorder
                    self-overhead). Unknown event kinds and malformed
                    journal lines warn and are skipped so old binaries can
                    read new journals; --strict restores hard failure on
                    the first bad line. Journals from `serve`/`loadgen`
                    additionally get a per-role outcome table
                    (ok/degraded/shed/timeout with p50/p99), a
                    client-to-server trace-stitching summary, a tail
                    breakdown naming the dominant stage of the slowest
                    requests, and any `slo` burn-rate events. --slo
                    evaluates server-side outcomes in the journal against
                    a declared objective, printing `SLO_EVAL {...}` and
                    exiting nonzero on breach.

GLOBAL OPTIONS (valid on every command):
  --trace FILE   write a chrome://tracing / Perfetto trace of the run
  --flame FILE   write a flamegraph of the run's span tree; `.html` gets a
                 self-contained interactive page, anything else
                 collapsed-stack text (flamegraph.pl format)
  --timing       print a hierarchical per-stage timing summary, latency/size
                 histograms (p50/p90/p99), plus worker-pool utilization to
                 stderr
  --threads N    size of the worker pool (default: available parallelism;
                 the AMRVIZ_THREADS env var sets the same default).
                 Results are bit-identical at any thread count.
  --journal FILE stream every completed span (and fault/meta events) to
                 FILE as JSONL (`amrviz-journal-v1`): bounded queues,
                 drop-oldest backpressure, line-atomic appends. Inspect
                 with `amrviz stats FILE`.
  --metrics-out FILE
                 write a rolling `amrviz-metrics-v1` JSON snapshot to FILE
                 (plus Prometheus text at FILE.prom) every interval,
                 atomically replaced so readers never see a torn file
  --metrics-interval SECS
                 snapshot period for --metrics-out (default 5)
  --trace-sample N
                 head-based trace sampling: keep every N-th trace's spans
                 (counters/histograms are unaffected; default 1 = keep all)
"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn obs(v: &[&str]) -> Result<ObsOptions, String> {
        let (_, globals) = extract_obs_options(sv(v))?;
        ObsOptions::from_args(&globals)
    }

    #[test]
    fn repeated_global_warns_once_and_last_wins() {
        let (rest, globals) =
            extract_obs_options(sv(&["info", "--threads", "2", "p", "--threads", "3"])).unwrap();
        assert_eq!(rest, sv(&["info", "p"]));
        assert_eq!(globals.warnings().len(), 1, "{:?}", globals.warnings());
        assert!(globals.warnings()[0].contains("--threads given more than once"));
        assert_eq!(ObsOptions::from_args(&globals).unwrap().threads, Some(3));
    }

    #[test]
    fn out_of_range_globals_are_errors() {
        for bad in [
            &["info", "--threads", "0"][..],
            &["info", "--trace-sample", "0"],
            &["info", "--metrics-interval", "0"],
            &["info", "--metrics-interval", "-1"],
            &["info", "--metrics-interval", "NaN"],
            &["info", "--metrics-interval", "1e30"],
        ] {
            assert!(obs(bad).is_err(), "{bad:?} accepted");
        }
        let ok = obs(&["info", "--metrics-interval", "0.5", "--trace-sample", "2"]).unwrap();
        assert_eq!(ok.metrics_interval, Some(Duration::from_millis(500)));
        assert_eq!(ok.trace_sample, Some(2));
    }

    #[test]
    fn global_after_positional_is_stripped() {
        let (rest, globals) =
            extract_obs_options(sv(&["compress", "plot", "--field", "rho", "--timing"])).unwrap();
        assert_eq!(rest, sv(&["compress", "plot", "--field", "rho"]));
        assert!(ObsOptions::from_args(&globals).unwrap().timing);
        let (rest, _) = extract_obs_options(sv(&["info", "plot", "--flame", "f.txt"])).unwrap();
        assert_eq!(rest, sv(&["info", "plot"]));
    }

    #[test]
    fn equals_style_global_is_rejected() {
        let err = extract_obs_options(sv(&["info", "--threads=4"])).unwrap_err();
        assert!(
            err.contains("`--threads=VALUE`"),
            "unexpected message: {err}"
        );
        assert!(extract_obs_options(sv(&["info", "--journal"])).is_err());
    }
}
