//! Each server owns one metrics registry: STATS reads it, and the
//! `--metrics-out` writer exposes it next to the global recorder's.
//!
//! Both tests touch process-global obs state (the recorder switch, the
//! snapshot writer), so they live in their own test binary and take one
//! lock.

use amrviz_compress::{compress_hierarchy_field, AmrCodecConfig, ErrorBound, SzLr};
use amrviz_json::Json;
use amrviz_serve::proto::{Op, Request};
use amrviz_serve::{
    encode_artifact, exchange, start, BlobStore, ClientConfig, Outcome, ServeConfig, ServerHandle,
    StatsSnapshot,
};
use amrviz_sim::{NyxScenario, Scale};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh store under the temp dir holding one Nyx-tiny artifact.
fn populate(tag: &str) -> (PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!("amrviz_serve_reg_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = BlobStore::open(&dir).unwrap();
    let hier = NyxScenario::new(Scale::Tiny, 11).generate();
    let container = compress_hierarchy_field(
        &hier,
        "baryon_density",
        &SzLr::default(),
        ErrorBound::Rel(1e-3),
        &AmrCodecConfig::default(),
    )
    .unwrap();
    let key = store
        .put(&encode_artifact(
            &hier,
            "baryon_density",
            "szlr",
            &container,
        ))
        .unwrap();
    (dir, key)
}

fn serve(dir: &Path) -> ServerHandle {
    start(ServeConfig {
        store_dir: dir.to_path_buf(),
        ..ServeConfig::default()
    })
    .unwrap()
}

fn request(op: Op, key: u64) -> Request {
    Request {
        op,
        trace: 0x5E6,
        key,
        deadline_ms: 5_000,
        max_level: 0xFF,
    }
}

/// Live stats once every counted request has its `ok` recorded (or 2 s
/// passed). A worker records the outcome after writing the reply, so the
/// client can hold the whole reply before the server's counters move.
fn settled(server: &ServerHandle) -> StatsSnapshot {
    let t0 = Instant::now();
    loop {
        let s = server.stats();
        if s.ok == s.requests || t0.elapsed() > Duration::from_secs(2) {
            return s;
        }
        std::thread::yield_now();
    }
}

/// `lifetime.count` of one STATS histogram section entry (0 when absent).
fn stats_count(server: &ServerHandle, section: &str, key: &str) -> u64 {
    let ex = exchange(
        server.addr(),
        &request(Op::Stats, 0),
        &ClientConfig::default(),
    );
    let doc = Json::parse(&ex.stats.expect("STATS answered")).unwrap();
    doc.get(section)
        .and_then(|s| s.get(key))
        .and_then(|h| h.get("lifetime"))
        .and_then(|l| l.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn two_servers_keep_independent_stats_with_the_recorder_enabled() {
    let _g = lock();
    let (dir_a, key_a) = populate("a");
    let (dir_b, key_b) = populate("b");
    amrviz_obs::reset();
    amrviz_obs::enable();
    let (a, b) = (serve(&dir_a), serve(&dir_b));
    let cfg = ClientConfig::default();
    for _ in 0..3 {
        assert_eq!(
            exchange(a.addr(), &request(Op::Get, key_a), &cfg).outcome,
            Outcome::Ok
        );
    }
    assert_eq!(
        exchange(b.addr(), &request(Op::Get, key_b), &cfg).outcome,
        Outcome::Ok
    );
    assert_eq!(
        exchange(b.addr(), &request(Op::Ping, 0), &cfg).outcome,
        Outcome::Ok
    );

    let (sa, sb) = (settled(&a), settled(&b));
    assert_eq!((sa.requests, sa.ok, sa.cache_misses), (3, 3, 1));
    assert_eq!((sb.requests, sb.ok, sb.cache_misses), (2, 2, 1));
    // Histograms are per server too: B's ping has latency but no stages.
    assert_eq!(stats_count(&a, "latency_us", "ok"), 3);
    assert_eq!(stats_count(&a, "stages_us", "queue_wait"), 3);
    assert_eq!(stats_count(&b, "latency_us", "ok"), 2);
    assert_eq!(stats_count(&b, "stages_us", "queue_wait"), 1);
    // Nothing is mirrored into the global recorder.
    assert!(!amrviz_obs::counters_snapshot()
        .keys()
        .any(|name| name.starts_with("serve.")));
    amrviz_obs::disable();

    for (server, dir) in [(a, dir_a), (b, dir_b)] {
        server.shutdown();
        assert_eq!(server.join().panics, 0);
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn metrics_writer_exposes_the_attached_server_registry() {
    let _g = lock();
    let (dir, key) = populate("expose");
    let path = dir.join("metrics.json");
    amrviz_obs::expose::writer_start(path.clone(), Duration::from_secs(60)).unwrap();
    // Started while the writer runs, so the server attaches its registry.
    let server = serve(&dir);
    let ex = exchange(
        server.addr(),
        &request(Op::Get, key),
        &ClientConfig::default(),
    );
    assert_eq!(ex.outcome, Outcome::Ok);
    server.shutdown();
    server.join();
    // The final flush still sees the drained server's registry.
    amrviz_obs::expose::writer_stop();

    let prom = std::fs::read_to_string(path.with_extension("prom")).unwrap();
    for family in [
        "amrviz_serve_requests_total 1",
        "amrviz_serve_latency_us_ok{quantile=\"0.99\"}",
        "amrviz_serve_latency_us_ok_count 1",
        "amrviz_serve_stage_queue_wait_us_count 1",
        "amrviz_serve_stage_decode_us_count 1",
        "amrviz_serve_stage_write_us_count 1",
    ] {
        assert!(prom.contains(family), "missing {family} in:\n{prom}");
    }
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let hists = doc.get("histograms").unwrap();
    for name in [
        "serve.latency_us.ok",
        "serve.stage.queue_wait_us",
        "serve.stage.store_read_us",
        "serve.stage.structure_validate_us",
        "serve.stage.decode_us",
        "serve.stage.write_us",
    ] {
        let count = hists
            .get(name)
            .and_then(|h| h.get("lifetime"))
            .and_then(|l| l.get("count"))
            .and_then(Json::as_u64);
        assert_eq!(count, Some(1), "{name} in the JSON snapshot");
    }
    let _ = std::fs::remove_dir_all(dir);
}
