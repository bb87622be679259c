//! Metric exposition: point-in-time snapshots of one or more
//! [`Registry`]s as JSON and Prometheus-style text, plus a periodic
//! background snapshot writer.
//!
//! Both renderers take a slice of registries and sum same-named metrics
//! across them (the same bucket-wise merge that sums a registry's shards).
//! The writer renders the global recorder's registry together with every
//! registry [`attach`]ed while it runs — that is how each `amrviz serve`
//! server's own registry reaches `--metrics-out` without a second copy.
//!
//! Two formats from one snapshot pass:
//!
//! * **JSON** (`amrviz-metrics-v1`) — machine-readable document carrying
//!   both *lifetime* aggregates and the *rolling window* view (trailing
//!   `window_secs`, clamped to each registry's coverage), plus the
//!   recorder's `obs.*` self-accounting meta-metrics. Consumed by
//!   `amrviz stats`.
//! * **Prometheus text exposition** — `amrviz_<name>` families with
//!   counter totals, gauge values, and histogram summaries (quantiles
//!   0.5/0.9/0.99 over the rolling window, `_sum`/`_count` lifetime), for
//!   scraping or eyeballing with standard tooling.
//!
//! [`write_snapshot`] is crash-safe: the JSON document is written to a
//! sibling temp file and atomically renamed over the target, so a reader
//! polling the file mid-run never sees a torn document. The `.prom`
//! sibling is written the same way.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::hist::Histogram;
use crate::{lock_clean, recorder, Registry};

/// Metrics snapshot schema identifier.
pub const METRICS_SCHEMA: &str = "amrviz-metrics-v1";

/// Formats a float as plain decimal (Prometheus- and JSON-safe; integral
/// values render with a trailing `.0`, non-finite values as `0.0`).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        // Plain decimal keeps Prometheus parsers happy; JSON accepts it too.
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{v:.1}")
        } else {
            format!("{v}")
        }
    } else {
        "0.0".to_string()
    }
}

/// Renders a histogram's summary stats (count/sum/min/max/mean + p50/p90/
/// p99) as one JSON object. Shared by the metrics snapshot and the serve
/// STATS endpoint so both report identical shapes.
pub fn hist_stats_json(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        fmt_f64(h.mean()),
        fmt_f64(h.percentile(50.0)),
        fmt_f64(h.percentile(90.0)),
        fmt_f64(h.percentile(99.0)),
    )
}

/// Lifetime and windowed views of a set of registries, same-named metrics
/// summed (gauges: the last registry that has the name wins).
#[derive(Default)]
struct Merged {
    counters: BTreeMap<&'static str, (u64, u64)>,
    gauges: BTreeMap<&'static str, (f64, Option<f64>)>,
    hists: BTreeMap<&'static str, (Histogram, Option<Histogram>)>,
}

fn merged(regs: &[&Registry], window_secs: f64) -> Merged {
    let mut m = Merged::default();
    for reg in regs {
        for (name, v) in reg.counters_snapshot() {
            m.counters.entry(name).or_default().0 += v;
        }
        for (name, v) in reg.counters_window_snapshot(window_secs) {
            m.counters.entry(name).or_default().1 += v;
        }
        for (name, v) in reg.gauges_snapshot() {
            m.gauges.insert(name, (v, None));
        }
        for (name, v) in reg.gauges_window_snapshot(window_secs) {
            m.gauges.entry(name).or_insert((v, None)).1 = Some(v);
        }
        for (name, h) in reg.histograms_snapshot() {
            m.hists.entry(name).or_default().0.merge(&h);
        }
        for (name, h) in reg.histograms_window_snapshot(window_secs) {
            m.hists
                .entry(name)
                .or_default()
                .1
                .get_or_insert_with(Histogram::new)
                .merge(&h);
        }
    }
    m
}

/// Renders `regs` as one `amrviz-metrics-v1` JSON document (single line,
/// suitable for atomic replacement). `window_secs` bounds the
/// rolling-window view; the `window` header reports the first registry's
/// geometry, and `uptime_ns` and `meta` come from the global recorder.
pub fn snapshot_json(regs: &[&Registry], window_secs: f64) -> String {
    let (slot_nanos, slots) = regs.first().map_or((0, 0), |r| r.geometry());
    let m = merged(regs, window_secs);
    let meta = crate::meta_snapshot();

    let mut out = format!(
        "{{\"schema\":\"{METRICS_SCHEMA}\",\"uptime_ns\":{},\
         \"window\":{{\"slot_ns\":{slot_nanos},\"slots\":{slots},\
         \"view_secs\":{}}}",
        crate::epoch_elapsed_ns(),
        fmt_f64(window_secs),
    );

    // An optional `window` view, as the tail of a metric's object.
    let window = |w: Option<String>| w.map_or(String::new(), |w| format!(",\"window\":{w}"));
    let counters = m.counters.iter().map(|(name, (lifetime, w))| {
        format!(
            "\"{}\":{{\"lifetime\":{lifetime},\"window\":{w}}}",
            crate::json_escape(name)
        )
    });
    let gauges = m.gauges.iter().map(|(name, (last, w))| {
        format!(
            "\"{}\":{{\"last\":{}{}}}",
            crate::json_escape(name),
            fmt_f64(*last),
            window(w.map(fmt_f64))
        )
    });
    let hists = m.hists.iter().map(|(name, (h, w))| {
        format!(
            "\"{}\":{{\"lifetime\":{}{}}}",
            crate::json_escape(name),
            hist_stats_json(h),
            window(w.as_ref().map(hist_stats_json))
        )
    });
    out.push_str(&format!(
        ",\"counters\":{},\"gauges\":{},\"histograms\":{}",
        json_object(counters),
        json_object(gauges),
        json_object(hists)
    ));

    out.push_str(&format!(
        ",\"meta\":{{\"overhead_us\":{},\"spans_recorded\":{},\
         \"traces_started\":{},\"dropped_events\":{},\"journal_enqueued\":{}}}}}",
        meta.overhead_us,
        meta.spans_recorded,
        meta.traces_started,
        meta.journal_dropped,
        meta.journal_enqueued,
    ));
    out
}

/// A JSON object from rendered `"key":value` entries.
fn json_object(entries: impl Iterator<Item = String>) -> String {
    format!("{{{}}}", entries.collect::<Vec<_>>().join(","))
}

/// Sanitizes a metric name into a Prometheus identifier
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_';
        let c = if ok { c } else { '_' };
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// Renders `regs` as Prometheus text exposition (same merge as
/// [`snapshot_json`]). Counters and `_sum`/`_count` are lifetime totals;
/// histogram quantiles are computed over the trailing `window_secs`
/// rolling window (falling back to the lifetime distribution when the
/// window is empty).
pub fn prometheus_text(regs: &[&Registry], window_secs: f64) -> String {
    let m = merged(regs, window_secs);
    let mut out = String::new();
    for (name, (v, _)) in &m.counters {
        let p = prom_name(name);
        out.push_str(&format!(
            "# TYPE amrviz_{p}_total counter\namrviz_{p}_total {v}\n"
        ));
    }
    for (name, (v, _)) in &m.gauges {
        let p = prom_name(name);
        out.push_str(&format!(
            "# TYPE amrviz_{p} gauge\namrviz_{p} {}\n",
            fmt_f64(*v)
        ));
    }
    for (name, (lifetime, w)) in &m.hists {
        let p = prom_name(name);
        let q = w.as_ref().unwrap_or(lifetime);
        out.push_str(&format!("# TYPE amrviz_{p} summary\n"));
        for (label, pct) in [("0.5", 50.0), ("0.9", 90.0), ("0.99", 99.0)] {
            out.push_str(&format!(
                "amrviz_{p}{{quantile=\"{label}\"}} {}\n",
                fmt_f64(q.percentile(pct))
            ));
        }
        out.push_str(&format!("amrviz_{p}_sum {}\n", lifetime.sum()));
        out.push_str(&format!("amrviz_{p}_count {}\n", lifetime.count()));
        // Full distribution as a native Prometheus histogram: cumulative
        // `_bucket{le=...}` counts straight from the log-bucketed storage.
        // A separate `_hist` family — the summary above predates it and
        // the two TYPEs cannot share a name.
        out.push_str(&format!("# TYPE amrviz_{p}_hist histogram\n"));
        let mut cumulative = 0u64;
        for (_lo, hi, count) in lifetime.nonzero_buckets() {
            cumulative += count;
            // Bucket bounds are inclusive [lo, hi], so `le = hi` is exact.
            out.push_str(&format!(
                "amrviz_{p}_hist_bucket{{le=\"{}\"}} {cumulative}\n",
                fmt_f64(hi as f64)
            ));
        }
        out.push_str(&format!(
            "amrviz_{p}_hist_bucket{{le=\"+Inf\"}} {}\n",
            lifetime.count()
        ));
        out.push_str(&format!("amrviz_{p}_hist_sum {}\n", lifetime.sum()));
        out.push_str(&format!("amrviz_{p}_hist_count {}\n", lifetime.count()));
    }
    let meta = crate::meta_snapshot();
    out.push_str(&format!(
        "# TYPE amrviz_obs_overhead_us counter\namrviz_obs_overhead_us {}\n",
        meta.overhead_us
    ));
    out.push_str(&format!(
        "# TYPE amrviz_obs_dropped_events counter\namrviz_obs_dropped_events {}\n",
        meta.journal_dropped
    ));
    out.push_str(&format!(
        "# TYPE amrviz_obs_spans_recorded counter\namrviz_obs_spans_recorded {}\n",
        meta.spans_recorded
    ));
    out
}

fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Writes the JSON snapshot of the global registry plus every attached
/// one to `path` and the Prometheus exposition to the sibling
/// `path.with_extension("prom")`, each via temp-file + atomic rename so
/// concurrent readers never observe a torn document. The window view
/// spans the global registry's coverage.
pub fn write_snapshot(path: &Path) -> std::io::Result<()> {
    let global = &recorder().metrics;
    let attached = lock_clean(&ATTACHED).clone();
    let mut regs = vec![global];
    regs.extend(attached.iter().map(Arc::as_ref));
    let window_secs = global.coverage_seconds();
    write_atomic(path, &snapshot_json(&regs, window_secs))?;
    write_atomic(
        &path.with_extension("prom"),
        &prometheus_text(&regs, window_secs),
    )
}

static WRITER_ACTIVE: AtomicBool = AtomicBool::new(false);
static WRITER_STOP: AtomicBool = AtomicBool::new(false);

/// Registries the writer renders next to the global one.
static ATTACHED: Mutex<Vec<Arc<Registry>>> = Mutex::new(Vec::new());

/// Adds `reg` to every snapshot the running writer takes, including the
/// final one [`writer_stop`] flushes; the writer lets go of it when it
/// stops. No-op when no writer is running.
pub fn attach(reg: Arc<Registry>) {
    let mut list = lock_clean(&ATTACHED);
    if WRITER_ACTIVE.load(Ordering::SeqCst) {
        list.push(reg);
    }
}

fn writer_handle() -> &'static Mutex<Option<JoinHandle<()>>> {
    static H: OnceLock<Mutex<Option<JoinHandle<()>>>> = OnceLock::new();
    H.get_or_init(|| Mutex::new(None))
}

/// Starts the periodic snapshot writer: every `interval` the current
/// recorder state is flushed to `path` (+ `.prom` sibling) via
/// [`write_snapshot`]. Errors if a writer is already running.
pub fn writer_start(path: PathBuf, interval: Duration) -> Result<(), String> {
    if WRITER_ACTIVE.swap(true, Ordering::SeqCst) {
        return Err("metrics writer already active".into());
    }
    WRITER_STOP.store(false, Ordering::SeqCst);
    // Fail fast on an unwritable path before detaching the thread.
    write_snapshot(&path).map_err(|e| {
        WRITER_ACTIVE.store(false, Ordering::SeqCst);
        format!("metrics: cannot write {}: {e}", path.display())
    })?;
    let interval = interval.max(Duration::from_millis(10));
    let handle = std::thread::Builder::new()
        .name("amrviz-metrics".into())
        .spawn(move || {
            // Poll the stop flag at a finer grain than the interval so
            // shutdown never blocks for a full period.
            let tick = Duration::from_millis(25).min(interval);
            let mut elapsed = Duration::ZERO;
            loop {
                if WRITER_STOP.load(Ordering::SeqCst) {
                    let _ = write_snapshot(&path);
                    return;
                }
                std::thread::sleep(tick);
                elapsed += tick;
                if elapsed >= interval {
                    elapsed = Duration::ZERO;
                    let _ = write_snapshot(&path);
                }
            }
        })
        .map_err(|e| {
            WRITER_ACTIVE.store(false, Ordering::SeqCst);
            format!("metrics: cannot spawn writer: {e}")
        })?;
    *lock_clean(writer_handle()) = Some(handle);
    Ok(())
}

/// Stops the periodic writer, flushing one final snapshot, and detaches
/// every attached registry. No-op when no writer is running.
pub fn writer_stop() {
    if WRITER_ACTIVE.load(Ordering::SeqCst) {
        WRITER_STOP.store(true, Ordering::SeqCst);
        if let Some(h) = lock_clean(writer_handle()).take() {
            let _ = h.join();
        }
        let mut list = lock_clean(&ATTACHED);
        list.clear();
        WRITER_ACTIVE.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(prom_name("compress.blob_bytes"), "compress_blob_bytes");
        assert_eq!(prom_name("9lives"), "_9lives");
        assert_eq!(prom_name("a-b c"), "a_b_c");
    }

    #[test]
    fn snapshot_shapes_are_stable() {
        let _g = crate::tests::guard();
        crate::reset();
        crate::enable();
        crate::counter_add("exp.bytes", 10);
        crate::gauge_set("exp.eb", 0.5);
        crate::histogram_record("exp.lat", 100);
        crate::disable();
        let global = &crate::recorder().metrics;
        let j = snapshot_json(&[global], global.coverage_seconds());
        assert!(j.starts_with("{\"schema\":\"amrviz-metrics-v1\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        assert!(j.contains("\"exp.bytes\":{\"lifetime\":10,\"window\":10}"));
        assert!(j.contains("\"exp.eb\""));
        assert!(j.contains("\"p99\""));
        assert!(j.contains("\"meta\""));

        let p = prometheus_text(&[global], global.coverage_seconds());
        assert!(p.contains("amrviz_exp_bytes_total 10"));
        assert!(p.contains("amrviz_exp_eb 0.5"));
        assert!(p.contains("amrviz_exp_lat{quantile=\"0.99\"}"));
        assert!(p.contains("amrviz_obs_overhead_us"));
        assert!(p.contains("amrviz_obs_dropped_events"));
    }

    #[test]
    fn renderers_sum_same_named_metrics_across_registries() {
        let a = Registry::new(Duration::from_secs(5), 12);
        let b = Registry::new(Duration::from_secs(5), 720);
        a.counter_add("m.hits", 2);
        b.counter_add("m.hits", 3);
        a.histogram_record("m.lat", 10);
        b.histogram_record("m.lat", 30);
        let p = prometheus_text(&[&a, &b], 60.0);
        assert!(p.contains("amrviz_m_hits_total 5"), "{p}");
        assert!(p.contains("amrviz_m_lat_count 2"), "{p}");
        let j = snapshot_json(&[&a, &b], 60.0);
        assert!(
            j.contains("\"m.hits\":{\"lifetime\":5,\"window\":5}"),
            "{j}"
        );
        assert!(j.contains("\"slot_ns\":5000000000,\"slots\":12"), "{j}");
    }

    #[test]
    fn prom_histogram_buckets_are_cumulative_and_parse() {
        let _g = crate::tests::guard();
        crate::reset();
        crate::enable();
        // Samples spread across several octaves so multiple buckets fill.
        for v in [1u64, 3, 3, 17, 170, 170, 170, 4096, 100_000] {
            crate::histogram_record("bkt.lat", v);
        }
        crate::disable();
        let global = &crate::recorder().metrics;
        let p = prometheus_text(&[global], global.coverage_seconds());

        // Parse the `_bucket{le=...}` lines back out of the exposition.
        let mut buckets: Vec<(f64, u64)> = Vec::new();
        let mut hist_count = None;
        let mut hist_sum = None;
        for line in p.lines() {
            if let Some(rest) = line.strip_prefix("amrviz_bkt_lat_hist_bucket{le=\"") {
                let (le, count) = rest.split_once("\"} ").expect("bucket line shape");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse::<f64>().expect("le bound parses")
                };
                buckets.push((le, count.parse().expect("bucket count parses")));
            } else if let Some(v) = line.strip_prefix("amrviz_bkt_lat_hist_count ") {
                hist_count = Some(v.parse::<u64>().unwrap());
            } else if let Some(v) = line.strip_prefix("amrviz_bkt_lat_hist_sum ") {
                hist_sum = Some(v.parse::<u64>().unwrap());
            }
        }
        assert!(
            buckets.len() >= 6,
            "distinct sample octaves produce distinct buckets: {buckets:?}"
        );
        // le bounds strictly increase and counts are monotone non-decreasing.
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "le bounds must increase: {buckets:?}");
            assert!(w[0].1 <= w[1].1, "cumulative counts must not drop");
        }
        let (last_le, last_count) = *buckets.last().unwrap();
        assert!(last_le.is_infinite(), "terminal bucket is +Inf");
        assert_eq!(last_count, 9, "+Inf bucket equals total count");
        assert_eq!(hist_count, Some(9));
        assert_eq!(hist_sum, Some(1u64 + 3 + 3 + 17 + 170 * 3 + 4096 + 100_000));
        // Every sample is <= its bucket's le (cumulative count at the
        // first bucket whose le >= v must include v).
        for v in [1u64, 3, 17, 170, 4096, 100_000] {
            let covered = buckets
                .iter()
                .find(|(le, _)| *le >= v as f64)
                .map(|(_, c)| *c)
                .unwrap_or(0);
            assert!(covered > 0, "sample {v} falls inside some bucket");
        }
        // The TYPE line declares the family as a histogram.
        assert!(p.contains("# TYPE amrviz_bkt_lat_hist histogram"));
        // The legacy summary family still exists alongside.
        assert!(p.contains("amrviz_bkt_lat{quantile=\"0.99\"}"));
    }

    #[test]
    fn write_snapshot_is_atomic_and_makes_prom_sibling() {
        let _g = crate::tests::guard();
        crate::reset();
        let dir = std::env::temp_dir().join(format!("amrviz_m_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        write_snapshot(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(METRICS_SCHEMA));
        assert!(path.with_extension("prom").exists());
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file must be renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_writer_produces_midrun_snapshots() {
        let _g = crate::tests::guard();
        crate::reset();
        crate::enable();
        let dir = std::env::temp_dir().join(format!("amrviz_mw_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.json");
        writer_start(path.clone(), Duration::from_millis(30)).unwrap();
        assert!(
            writer_start(path.clone(), Duration::from_millis(30)).is_err(),
            "double start must fail"
        );
        crate::counter_add("live.ticks", 1);
        // Wait for at least one periodic flush beyond the initial one.
        std::thread::sleep(Duration::from_millis(120));
        let mid = std::fs::read_to_string(&path).unwrap();
        writer_stop();
        crate::disable();
        assert!(mid.contains(METRICS_SCHEMA), "mid-run snapshot exists");
        let fin = std::fs::read_to_string(&path).unwrap();
        assert!(fin.contains("live.ticks"), "final flush sees the counter");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
