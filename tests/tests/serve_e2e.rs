//! End-to-end coverage of the serving stack: real sockets, real store,
//! real worker pool — the full `amrviz serve` path minus the CLI veneer.

use amrviz_compress::{compress_hierarchy_field, AmrCodecConfig, ErrorBound, SzLr};
use amrviz_serve::proto::{Op, Request};
use amrviz_serve::{
    encode_artifact, exchange, start, BlobStore, ClientConfig, Outcome, ServeConfig,
    ServeTortureConfig, Status,
};
use amrviz_sim::{NyxScenario, Scale};
use std::time::Duration;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("amrviz_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Stores one good Nyx-tiny artifact, returns (dir, key, total fab count).
fn populate(tag: &str) -> (std::path::PathBuf, u64, usize) {
    let dir = temp_dir(tag);
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
    let fabs = (0..hier.num_levels())
        .map(|l| hier.box_array(l).len())
        .sum();
    (dir, key, fabs)
}

fn get(key: u64, deadline_ms: u32) -> Request {
    Request {
        op: Op::Get,
        trace: 0xE2E,
        key,
        deadline_ms,
        max_level: 0xFF,
    }
}

#[test]
fn serve_roundtrip_cache_and_deadline_statuses() {
    let (dir, key, fabs) = populate("rt");
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let cfg = ClientConfig::default();

    // 1. Full fetch: every level arrives, END frame present, fab count
    //    matches the hierarchy.
    let ex = exchange(addr, &get(key, 5_000), &cfg);
    assert_eq!(ex.outcome, Outcome::Ok, "exchange: {ex:?}");
    assert_eq!(ex.header.unwrap().status, Status::Ok);
    assert_eq!(ex.levels.len(), 2, "Nyx-tiny has two levels");
    let got_fabs: u64 = ex.levels.iter().map(|l| l.fabs).sum();
    assert_eq!(got_fabs as usize, fabs);
    assert!(ex.end.is_some(), "completed stream carries END");
    assert!(
        ex.levels[0].level < ex.levels[1].level,
        "coarse level first"
    );

    // 2. Repeat fetch hits the decoded-arena cache.
    let before = server.stats();
    let ex = exchange(addr, &get(key, 5_000), &cfg);
    assert_eq!(ex.outcome, Outcome::Ok);
    let after = server.stats();
    assert_eq!(
        after.cache_hits,
        before.cache_hits + 1,
        "second fetch must be a cache hit"
    );

    // 3. Zero deadline budget: typed Timeout, no data frames.
    let ex = exchange(addr, &get(key, 0), &cfg);
    assert_eq!(ex.outcome, Outcome::Timeout);
    assert!(ex.levels.is_empty());

    // 4. Unknown key: typed NotFound.
    let ex = exchange(addr, &get(0xBAD_C0FFEE, 5_000), &cfg);
    assert_eq!(ex.outcome, Outcome::NotFound);

    // 5. List: the key is enumerable.
    let ex = exchange(
        addr,
        &Request {
            op: Op::List,
            trace: 1,
            key: 0,
            deadline_ms: 5_000,
            max_level: 0,
        },
        &cfg,
    );
    assert_eq!(ex.outcome, Outcome::Ok);
    assert_eq!(ex.keys.unwrap(), vec![key]);

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.post_deadline_responses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_with_typed_retry_later() {
    let (dir, key, _) = populate("shed");
    // One worker, queue depth 1: a parked connection occupies the worker,
    // one more waits in queue, the third must shed.
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        workers: 1,
        queue_depth: 1,
        io_timeout_ms: 3_000,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Park a connection: connect, never send. The worker blocks in
    // read_frame until its socket timeout.
    let parked = std::net::TcpStream::connect(addr).unwrap();
    // Wait until the worker has taken it (queue drains to empty).
    std::thread::sleep(Duration::from_millis(200));
    let parked2 = std::net::TcpStream::connect(addr).unwrap(); // fills queue
    std::thread::sleep(Duration::from_millis(100));

    let ex = exchange(addr, &get(key, 2_000), &ClientConfig::default());
    assert_eq!(
        ex.outcome,
        Outcome::Shed,
        "third connection must shed: {ex:?}"
    );
    let h = ex.header.unwrap();
    assert_eq!(h.status, Status::RetryLater);
    assert!(h.retry_after_ms > 0, "shed reply carries a retry hint");

    drop(parked);
    drop(parked2);
    server.shutdown();
    let stats = server.join();
    assert!(stats.shed >= 1);
    assert_eq!(stats.panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The accept thread blocks in `accept` instead of sleep-polling, so an
/// idle server answers a PING in well under a millisecond; and stop wakes
/// it through loopback even when it listens on the unspecified address.
#[test]
fn idle_pings_are_fast_and_unspecified_bind_shuts_down() {
    let dir = temp_dir("ping");
    let server = start(ServeConfig {
        addr: "0.0.0.0:0".into(),
        store_dir: dir.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr: std::net::SocketAddr = ([127, 0, 0, 1], server.addr().port()).into();
    let ping = Request {
        op: Op::Ping,
        trace: 0xE2E,
        key: 0,
        deadline_ms: 1_000,
        max_level: 0,
    };
    let mut rtts: Vec<Duration> = (0..21)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(3));
            let ex = exchange(addr, &ping, &ClientConfig::default());
            assert_eq!(ex.outcome, Outcome::Ok, "ping: {ex:?}");
            ex.elapsed
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_micros(1_500),
        "idle PING median {median:?} (all: {rtts:?})"
    );

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        tx.send(server.join()).unwrap();
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown + join of a 0.0.0.0 server took over 2 s");
    assert_eq!(stats.requests, 21);
    assert_eq!(stats.panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_endpoint_reports_stages_slo_and_exemplars() {
    let (dir, key, _) = populate("stats");
    let server = start(ServeConfig {
        store_dir: dir.clone(),
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let cfg = ClientConfig::default();

    // Drive a little traffic first: one cold GET (full stage breakdown),
    // one warm GET (cache hit), one NotFound.
    assert_eq!(exchange(addr, &get(key, 5_000), &cfg).outcome, Outcome::Ok);
    assert_eq!(exchange(addr, &get(key, 5_000), &cfg).outcome, Outcome::Ok);
    assert_eq!(
        exchange(addr, &get(0xBAD_C0FFEE, 5_000), &cfg).outcome,
        Outcome::NotFound
    );

    let ex = exchange(
        addr,
        &Request {
            op: Op::Stats,
            trace: 0,
            key: 0,
            deadline_ms: 5_000,
            max_level: 0,
        },
        &cfg,
    );
    assert_eq!(ex.outcome, Outcome::Ok, "stats exchange: {ex:?}");
    let raw = ex.stats.expect("stats frame carries the snapshot");
    let doc = amrviz_json::Json::parse(&raw).expect("snapshot is valid JSON");
    assert_eq!(
        doc.get("schema").unwrap().as_str().unwrap(),
        amrviz_serve::STATS_SCHEMA
    );
    assert_eq!(doc.get("health").unwrap().as_str().unwrap(), "ok");

    // Stage-timing percentiles for the decode pipeline are present.
    let stages = doc.get("stages_us").unwrap();
    for stage in ["queue_wait", "store_read", "decode", "write"] {
        let s = stages
            .get(stage)
            .unwrap_or_else(|| panic!("stage {stage} missing: {raw}"));
        assert!(s.get("lifetime").unwrap().get("p99").is_some());
        assert!(s.get("w5m").unwrap().get("count").is_some());
    }
    // Cache hits skip store/decode: those stage counts reflect misses only.
    let decode_count = stages
        .get("decode")
        .unwrap()
        .get("lifetime")
        .unwrap()
        .get("count")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(decode_count, 1, "only the cold GET decoded");

    // Per-status latency, SLO report, and at least one exemplar whose
    // trace id resolves back to the requests we just made.
    assert!(doc.get("latency_us").unwrap().get("ok").is_some());
    let slo = doc.get("slo").unwrap();
    assert_eq!(slo.get("breached").unwrap().as_bool(), Some(false));
    assert_eq!(
        slo.get("windows").unwrap().as_arr().unwrap().len(),
        2,
        "5m and 1h burn windows"
    );
    let exemplars = doc.get("exemplars").unwrap().as_arr().unwrap();
    assert!(!exemplars.is_empty(), "tail reservoir retained a request");
    for e in exemplars {
        assert_eq!(
            e.get("trace").unwrap().as_str().unwrap(),
            "e2e",
            "exemplar trace resolves to the driving request"
        );
        assert!(e.get("stages_us").unwrap().get("queue_wait").is_some());
    }

    // STATS polls are monitoring traffic and NotFound is a client error:
    // neither moves the SLO windows' totals.
    let total_before: u64 = slo.get("windows").unwrap().as_arr().unwrap()[0]
        .get("total")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(
        total_before, 2,
        "two good GETs; not_found and stats polls excluded"
    );

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.panics, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_torture_smoke_zero_violations() {
    // A short chaos run as a tier-1 regression net; the CI torture job runs
    // the full 300 iterations.
    let report = amrviz_serve::torture::run(&ServeTortureConfig {
        iters: 40,
        seed: 9,
        workers: 2,
        store_dir: temp_dir("torture_smoke"),
        max_peak_bytes: 1 << 30,
    });
    assert!(
        report.passed(),
        "torture violations: {:#?}",
        report.violations
    );
    assert_eq!(report.server.panics, 0);
    assert_eq!(report.server.post_deadline_responses, 0);
    assert!(report.server.requests > 0);
}
