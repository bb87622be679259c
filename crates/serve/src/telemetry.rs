//! Request-centric serve telemetry: outcome counters, per-status windowed
//! latency, stage timing breakdowns, tail exemplars, and the in-band STATS
//! snapshot.
//!
//! Each server owns exactly one [`Registry`] (720 slots × 5 s = one hour
//! of coverage, enough for the 1 h SLO burn window) that always records,
//! whatever the global obs recorder's enable state — an operator gets
//! live telemetry even from a server started without
//! `--journal`/`--metrics-out`. Every view reads that one registry: the
//! STATS snapshot, the `SERVE_STATS` line and the `drain` journal event
//! (through [`StatsSnapshot`]), the SLO burn windows, and — attached to
//! the `--metrics-out` writer — the JSON and Prometheus exposition.

use crate::proto::{Status, PROTO_VERSION};
use amrviz_obs::exemplar::{Exemplar, Reservoir};
use amrviz_obs::expose::hist_stats_json;
use amrviz_obs::slo::{evaluate, SloReport, SloSpec, WindowReading};
use amrviz_obs::Registry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// STATS snapshot schema identifier.
pub const STATS_SCHEMA: &str = "amrviz-serve-stats-v1";

/// Telemetry ring slot width in seconds.
pub const SLOT_SECS: u64 = 5;

/// Telemetry ring size: one hour of coverage at [`SLOT_SECS`].
pub const SLOTS: usize = 720;

/// Evaluation windows for the SLO burn math: fast/noisy and slow/stable.
pub const WINDOWS: [(&str, u64); 2] = [("5m", 300), ("1h", 3600)];

/// Tail exemplars retained.
pub const EXEMPLAR_CAP: usize = 8;

/// Request stage names, in pipeline order. The taxonomy every aggregated
/// view and journal line shares.
pub const STAGE_NAMES: [&str; 5] = [
    "queue_wait",
    "store_read",
    "structure_validate",
    "decode",
    "write",
];

/// Per status, in code order: its latency histogram and the outcome
/// counter a finished request with that status bumps.
const STATUS_METRICS: [(&str, Option<&str>); 9] = [
    ("serve.latency_us.ok", Some("serve.ok")),
    ("serve.latency_us.degraded", Some("serve.degraded")),
    ("serve.latency_us.retry_later", None),
    ("serve.latency_us.not_found", Some("serve.not_found")),
    ("serve.latency_us.corrupt", Some("serve.corrupt")),
    ("serve.latency_us.timeout", Some("serve.timeout")),
    ("serve.latency_us.bad_request", Some("serve.bad_request")),
    ("serve.latency_us.shutting_down", None),
    ("serve.latency_us.internal", Some("serve.io_errors")),
];

/// Every status with its latency histogram name, in code order.
fn statuses() -> impl Iterator<Item = (Status, &'static str)> {
    (0u8..)
        .map_while(Status::from_code)
        .zip(STATUS_METRICS.map(|(latency, _)| latency))
}

/// Stage histogram names, in [`STAGE_NAMES`] order.
const STAGE_METRICS: [&str; 5] = [
    "serve.stage.queue_wait_us",
    "serve.stage.store_read_us",
    "serve.stage.structure_validate_us",
    "serve.stage.decode_us",
    "serve.stage.write_us",
];

/// Statuses counted as *good* for availability: the client got usable data.
fn is_good(status: Status) -> bool {
    matches!(status, Status::Ok | Status::Degraded)
}

/// Statuses that count toward the SLO at all. Client-attributable errors
/// (unknown key, malformed request) never burn the server's error budget —
/// the same rule as excluding 4xx from HTTP availability.
fn slo_counts(status: Status) -> bool {
    !matches!(status, Status::NotFound | Status::BadRequest)
}

/// Per-request stage timing breakdown in microseconds. `None` means the
/// stage never ran for this request — a cache hit skips `store_read`,
/// `structure_validate` and `decode` entirely, which is itself signal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Admission queue to worker pickup.
    pub queue_wait_us: Option<u64>,
    /// Blob store read (cache miss only).
    pub store_read_us: Option<u64>,
    /// Artifact structural decode + validation (cache miss only).
    pub structure_validate_us: Option<u64>,
    /// Field decompression into the arena (cache miss only).
    pub decode_us: Option<u64>,
    /// Cumulative gated socket writes.
    pub write_us: Option<u64>,
}

impl StageTimes {
    /// Present stages as `(name, us)` pairs in [`STAGE_NAMES`] order.
    pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
        self.present(STAGE_NAMES)
    }

    /// The present stages' values paired with `names[stage index]`.
    fn present(&self, names: [&'static str; 5]) -> Vec<(&'static str, u64)> {
        [
            self.queue_wait_us,
            self.store_read_us,
            self.structure_validate_us,
            self.decode_us,
            self.write_us,
        ]
        .iter()
        .zip(names)
        .filter_map(|(v, name)| v.map(|us| (name, us)))
        .collect()
    }

    /// Compact JSON object of the present stages (for the journal line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, us)) in self.as_pairs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{us}"));
        }
        out.push('}');
        out
    }

    /// Adds `us` to the cumulative write stage.
    pub fn add_write(&mut self, us: u64) {
        self.write_us = Some(self.write_us.unwrap_or(0) + us);
    }
}

/// Declares the outcome counters once: the [`StatsSnapshot`] fields,
/// their registry names (`serve.<field>`, in [`OUTCOMES`]) and the key
/// order of the STATS `requests` object all follow this list.
macro_rules! outcomes {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Outcome counter names, in STATS `requests` key order.
        pub const OUTCOMES: &[&str] = &[$(concat!("serve.", stringify!($field))),*];

        /// Point-in-time read of the [`OUTCOMES`] counters.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl StatsSnapshot {
            /// Reads the outcome counters out of a lifetime counter map;
            /// absent counters read 0.
            fn from_counters(counters: &BTreeMap<&'static str, u64>) -> StatsSnapshot {
                let read = |name| counters.get(name).copied().unwrap_or(0);
                StatsSnapshot {
                    $($field: read(concat!("serve.", stringify!($field))),)*
                }
            }

            /// One-line JSON for the `SERVE_STATS` stdout marker and CI
            /// greps.
            pub fn to_json_line(&self) -> String {
                let fields = [$(format!(concat!("\"", stringify!($field), "\":{}"), self.$field)),*];
                format!("{{{}}}", fields.join(","))
            }
        }
    };
}

outcomes!(
    requests,
    ok,
    degraded,
    shed,
    not_found,
    corrupt,
    timeout,
    bad_request,
    io_errors,
    panics,
    /// Data frames written at/after their deadline — the invariant
    /// counter; must be 0.
    post_deadline_responses,
    /// Streams cut (no END) because the deadline expired mid-response.
    deadline_aborts,
    coarse_only,
    cache_hits,
    cache_misses,
);

/// The outcome counter a finished request's status bumps, if any.
pub(crate) fn status_outcome(status: Status) -> Option<&'static str> {
    STATUS_METRICS[status.code() as usize].1
}

/// The server's request telemetry: its metric registry (outcome counters,
/// per-status latency and per-stage timing histograms) plus the
/// tail-exemplar reservoir. One instance per server, shared by all
/// workers.
pub struct ReqTelemetry {
    registry: Arc<Registry>,
    exemplars: Mutex<Reservoir>,
    spec: SloSpec,
}

impl ReqTelemetry {
    pub fn new(spec: SloSpec) -> Self {
        ReqTelemetry {
            registry: Arc::new(Registry::new(Duration::from_secs(SLOT_SECS), SLOTS)),
            exemplars: Mutex::new(Reservoir::new(EXEMPLAR_CAP)),
            spec,
        }
    }

    /// The registry every view renders from.
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Adds one to the named [`OUTCOMES`] counter.
    pub(crate) fn count(&self, outcome: &'static str) {
        debug_assert!(OUTCOMES.contains(&outcome), "unknown outcome {outcome}");
        self.registry.counter_add(outcome, 1);
    }

    /// Lifetime outcome counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::from_counters(&self.registry.counters_snapshot())
    }

    /// Records one finished request into the latency and stage histograms
    /// and the exemplar reservoir (the server bumps outcome counters
    /// separately). `stages` is `None` for ops with no stage breakdown
    /// (ping/list/shed).
    pub fn record(
        &self,
        status: Status,
        total_us: u64,
        stages: Option<&StageTimes>,
        trace: u64,
        key: u64,
    ) {
        self.record_at(
            self.registry.now_slot(),
            status,
            total_us,
            stages,
            trace,
            key,
        );
    }

    /// [`ReqTelemetry::record`] with an explicit slot id — the
    /// deterministic entry point unit tests drive.
    pub fn record_at(
        &self,
        slot: u64,
        status: Status,
        total_us: u64,
        stages: Option<&StageTimes>,
        trace: u64,
        key: u64,
    ) {
        let reg = &self.registry;
        let latency = STATUS_METRICS[status.code() as usize].0;
        reg.histogram_record_at(slot, latency, total_us);
        if let Some(st) = stages {
            for (name, us) in st.present(STAGE_METRICS) {
                reg.histogram_record_at(slot, name, us);
            }
        }
        // Tail reservoir: only requests that carried a stage breakdown
        // (GETs) are diagnosable, so only they become exemplars.
        if let Some(st) = stages {
            let mut res = self.exemplars.lock().unwrap();
            if total_us > res.min_retained_us() {
                res.offer(Exemplar {
                    trace,
                    total_us,
                    label: format!("{} key={key:016x}", status.name()),
                    stages: st
                        .as_pairs()
                        .iter()
                        .map(|(n, us)| (n.to_string(), *us))
                        .collect(),
                });
            }
        }
    }

    /// Multi-window SLO evaluation over the recorded request stream.
    pub fn slo_report(&self) -> SloReport {
        self.slo_report_at(self.registry.now_slot())
    }

    /// [`ReqTelemetry::slo_report`] at an explicit slot (tests).
    pub fn slo_report_at(&self, now_slot: u64) -> SloReport {
        let mut readings = Vec::new();
        for (label, secs) in WINDOWS {
            let hists = self
                .registry
                .histograms_window_at(now_slot, secs / SLOT_SECS);
            let mut good = 0u64;
            let mut total = 0u64;
            let mut merged = amrviz_obs::hist::Histogram::new();
            for (status, name) in statuses().filter(|(s, _)| slo_counts(*s)) {
                let Some(w) = hists.get(name) else {
                    continue;
                };
                let n = w.count();
                total += n;
                if is_good(status) {
                    good += n;
                }
                merged.merge(w);
            }
            readings.push(WindowReading::from_histogram(
                label, secs, good, total, &merged,
            ));
        }
        evaluate(&self.spec, &readings)
    }

    /// The versioned STATS snapshot. `snap` is a [`ReqTelemetry::stats`]
    /// read and the queue and cache numbers come from the server; the
    /// histograms come from the registry.
    pub fn snapshot_json(
        &self,
        snap: &StatsSnapshot,
        queue_depth: usize,
        workers: usize,
        cache_entries: usize,
        cache_bytes: usize,
        cache_budget_bytes: usize,
    ) -> String {
        let now_slot = self.registry.now_slot();
        let slo = self.slo_report_at(now_slot);
        let lifetime = self.registry.histograms_snapshot();
        let w5m = self
            .registry
            .histograms_window_at(now_slot, WINDOWS[0].1 / SLOT_SECS);
        // Lifetime + trailing-5m views of each `(key, metric)` that has
        // samples.
        let section = |pairs: &[(&str, &str)]| {
            let entries: Vec<String> = pairs
                .iter()
                .filter_map(|(key, name)| {
                    Some(format!(
                        "\"{key}\":{{\"lifetime\":{},\"w5m\":{}}}",
                        hist_stats_json(lifetime.get(name)?),
                        hist_stats_json(&w5m.get(name).cloned().unwrap_or_default()),
                    ))
                })
                .collect();
            format!("{{{}}}", entries.join(","))
        };

        // Health verdict: invariant violations or an SLO breach degrade it.
        let health = if snap.panics > 0 || snap.post_deadline_responses > 0 || slo.breached() {
            "degraded"
        } else {
            "ok"
        };

        let mut out = format!(
            "{{\"schema\":\"{STATS_SCHEMA}\",\"proto_version\":{PROTO_VERSION},\
             \"uptime_ms\":{},\"health\":\"{health}\"",
            self.registry.elapsed_ns() / 1_000_000
        );
        out.push_str(&format!(",\"requests\":{}", snap.to_json_line()));
        out.push_str(&format!(
            ",\"queue_depth\":{queue_depth},\"workers\":{workers}"
        ));
        out.push_str(&format!(
            ",\"cache\":{{\"entries\":{cache_entries},\"bytes\":{cache_bytes},\
             \"budget_bytes\":{cache_budget_bytes},\"hits\":{},\"misses\":{}}}",
            snap.cache_hits, snap.cache_misses
        ));

        // Per-status latency and per-stage timing, nonzero only.
        let latency: Vec<_> = statuses().map(|(s, m)| (s.name(), m)).collect();
        let stages: Vec<_> = STAGE_NAMES.into_iter().zip(STAGE_METRICS).collect();
        out.push_str(&format!(",\"latency_us\":{}", section(&latency)));
        out.push_str(&format!(",\"stages_us\":{}", section(&stages)));

        out.push_str(&format!(",\"slo\":{}", slo.to_json()));
        out.push_str(&format!(
            ",\"exemplars\":{}}}",
            self.exemplars.lock().unwrap().to_json()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages(decode: u64, write: u64) -> StageTimes {
        StageTimes {
            queue_wait_us: Some(3),
            store_read_us: None,
            structure_validate_us: None,
            decode_us: Some(decode),
            write_us: Some(write),
        }
    }

    #[test]
    fn stage_times_pairs_and_json_skip_absent() {
        let st = stages(500, 20);
        let pairs = st.as_pairs();
        assert_eq!(
            pairs,
            vec![("queue_wait", 3), ("decode", 500), ("write", 20)],
            "absent stages are skipped, order follows the taxonomy"
        );
        let j = st.to_json();
        assert_eq!(j, "{\"queue_wait\":3,\"decode\":500,\"write\":20}");
        assert_eq!(StageTimes::default().to_json(), "{}");
        let mut w = StageTimes::default();
        w.add_write(5);
        w.add_write(7);
        assert_eq!(w.write_us, Some(12));
    }

    #[test]
    fn slo_windows_see_only_their_slots() {
        let t = ReqTelemetry::new(SloSpec::parse("avail>99").unwrap());
        // Slot 0: a burst of failures. 700 slots later (past the 5m window,
        // inside the 1h window): all good.
        for _ in 0..50 {
            t.record_at(0, Status::Timeout, 1000, None, 0, 0);
            t.record_at(0, Status::Ok, 100, None, 0, 0);
        }
        for _ in 0..100 {
            t.record_at(119, Status::Ok, 100, None, 0, 0);
        }
        let r = t.slo_report_at(119);
        // 5m window (60 slots ending at 119): only the good burst.
        let w5 = &r.windows[0];
        assert_eq!(w5.total, 100);
        assert_eq!(w5.good, 100);
        assert!(!w5.avail_exceeded);
        // 1h window sees both bursts: 150 good of 200.
        let w1h = &r.windows[1];
        assert_eq!(w1h.total, 200);
        assert_eq!(w1h.good, 150);
        assert!(w1h.avail_exceeded, "25% bad over a 1% budget");
        // AND semantics: short window recovered, so no breach.
        assert!(!r.breached());
    }

    #[test]
    fn snapshot_json_is_valid_and_carries_sections() {
        let t = ReqTelemetry::new(SloSpec::default());
        t.record_at(1, Status::Ok, 1500, Some(&stages(900, 40)), 0xABC, 7);
        t.record_at(
            1,
            Status::Timeout,
            90_000,
            Some(&stages(88_000, 1)),
            0xDEF,
            8,
        );
        let snap = StatsSnapshot {
            requests: 2,
            ok: 1,
            degraded: 0,
            shed: 0,
            not_found: 0,
            corrupt: 0,
            timeout: 1,
            bad_request: 0,
            io_errors: 0,
            panics: 0,
            post_deadline_responses: 0,
            deadline_aborts: 0,
            coarse_only: 0,
            cache_hits: 1,
            cache_misses: 1,
        };
        let j = t.snapshot_json(&snap, 0, 2, 1, 4096, 1 << 20);
        let doc = amrviz_json::Json::parse(&j).expect("snapshot json parses");
        assert_eq!(doc.get("schema").unwrap().as_str().unwrap(), STATS_SCHEMA);
        assert!(doc.get("health").is_some());
        assert!(doc.get("slo").is_some());
        let lat = doc.get("latency_us").unwrap();
        assert!(lat.get("ok").is_some() && lat.get("timeout").is_some());
        let st = doc.get("stages_us").unwrap();
        assert!(st.get("decode").is_some() && st.get("write").is_some());
        assert!(
            st.get("decode")
                .unwrap()
                .get("w5m")
                .unwrap()
                .get("p99")
                .is_some(),
            "stage timings carry windowed percentiles"
        );
        // The slow request is retained as an exemplar with its trace id.
        let ex = doc.get("exemplars").unwrap().as_arr().unwrap();
        assert!(!ex.is_empty());
        assert_eq!(ex[0].get("trace").unwrap().as_str().unwrap(), "def");
        assert_eq!(ex[0].get("total_us").unwrap().as_u64().unwrap(), 90_000);
    }

    #[test]
    fn health_degrades_on_invariant_violation() {
        let t = ReqTelemetry::new(SloSpec::default());
        let mut snap = StatsSnapshot {
            requests: 0,
            ok: 0,
            degraded: 0,
            shed: 0,
            not_found: 0,
            corrupt: 0,
            timeout: 0,
            bad_request: 0,
            io_errors: 0,
            panics: 0,
            post_deadline_responses: 0,
            deadline_aborts: 0,
            coarse_only: 0,
            cache_hits: 0,
            cache_misses: 0,
        };
        let j = t.snapshot_json(&snap, 0, 1, 0, 0, 0);
        assert!(j.contains("\"health\":\"ok\""));
        snap.post_deadline_responses = 1;
        let j = t.snapshot_json(&snap, 0, 1, 0, 0, 0);
        assert!(j.contains("\"health\":\"degraded\""));
    }
}
