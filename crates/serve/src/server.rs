//! The `amrviz serve` TCP server: blocking worker pool, bounded admission
//! queue, per-request deadline budgets, graceful drain.
//!
//! Robustness contract (chaos-tested by [`crate::torture`]):
//!
//! - **No panic escapes.** Each connection runs under `catch_unwind`; a
//!   panicking request is counted and the connection dropped, the pool
//!   keeps serving.
//! - **No data frame is decided at/after its deadline.** Every data-frame
//!   write goes through one gated choke point that samples the clock
//!   *before* writing; an expired deadline aborts the stream (counted in
//!   `deadline_aborts`) instead. The stream then lacks its `END` frame —
//!   the client's received prefix is still a valid progressive result.
//!   `post_deadline_responses` measures violations of this invariant and
//!   must stay 0.
//! - **Overload sheds, never queues unboundedly.** The accept thread keeps
//!   the work queue bounded; beyond it, connections get a typed
//!   `RetryLater` + retry-after hint (drop-newest) rather than waiting.
//! - **Corruption degrades or errors, never lies.** A quarantined blob is
//!   `Corrupt`; a blob whose fabs partially fail decodes under
//!   `DecodePolicy::Degrade` and is served flagged `FLAG_DEGRADED`.

use crate::accept::Acceptor;
use crate::artifact::{compressor_for, decode_artifact};
use crate::cache::{ArenaCache, DecodedEntry};
use crate::proto::{
    self, EndFrame, Op, Request, RespHeader, Status, FLAG_COARSE_ONLY, FLAG_DEGRADED,
    MAX_REQUEST_FRAME,
};
use crate::store::{BlobStore, StoreError};
use crate::telemetry::{status_outcome, ReqTelemetry, StageTimes, StatsSnapshot};
use amrviz_codec::DecodeBudget;
use amrviz_compress::{decompress_hierarchy_field_into, AmrCodecConfig, DecodePolicy};
use amrviz_obs::slo::SloSpec;
use amrviz_obs::{context_scope, journal, TraceContext};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server configuration. `Default` is sized for tests and smoke runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Blob store directory.
    pub store_dir: PathBuf,
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Bounded admission queue depth; beyond this, shed with `RetryLater`.
    pub queue_depth: usize,
    /// Decoded-arena cache budget in bytes.
    pub cache_bytes: usize,
    /// Cap on client-requested deadlines.
    pub max_deadline_ms: u32,
    /// Per-socket read/write timeout (a stalled or chaos-delayed peer can
    /// hold a worker at most this long per syscall).
    pub io_timeout_ms: u64,
    /// Retry-after hint handed to shed clients.
    pub retry_after_ms: u32,
    /// When the remaining deadline budget falls below this fraction at
    /// stream-planning time, serve only the coarse level.
    pub coarse_only_frac: f64,
    /// Declared service-level objectives, evaluated over 5 m/1 h burn
    /// windows and surfaced in STATS snapshots + `slo` journal events.
    pub slo: SloSpec,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: PathBuf::from("serve_store"),
            workers: 2,
            queue_depth: 32,
            cache_bytes: 256 << 20,
            max_deadline_ms: 10_000,
            io_timeout_ms: 2_000,
            retry_after_ms: 50,
            coarse_only_frac: 0.25,
            slo: SloSpec::default(),
        }
    }
}

struct Inner {
    cfg: ServeConfig,
    store: BlobStore,
    cache: ArenaCache,
    telemetry: ReqTelemetry,
    /// Set by [`ServerHandle::join`] after the accept thread exits.
    stop: AtomicBool,
    /// Admitted connections with their admission timestamp, so queue-wait
    /// is attributable per request.
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    cond: Condvar,
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    acceptor: Acceptor,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Live stats (threads may still be mutating them).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.telemetry.stats()
    }

    /// Begins graceful drain: stop accepting (the blocked accept is woken
    /// by a loopback self-connect). Queued work is still served.
    pub fn shutdown(&self) {
        self.acceptor.stop();
    }

    /// Waits for drain to complete, flushes the journal, and returns the
    /// final stats. Call [`ServerHandle::shutdown`] first.
    pub fn join(self) -> StatsSnapshot {
        // Workers outlive the accept thread: late admissions are served.
        self.acceptor.join();
        // Under the queue lock, so no worker misses the wakeup.
        let q = self.inner.queue.lock().unwrap();
        self.inner.stop.store(true, Ordering::SeqCst);
        drop(q);
        self.inner.cond.notify_all();
        for t in self.workers {
            let _ = t.join();
        }
        let snap = self.inner.telemetry.stats();
        // Final SLO verdict as typed journal events, so a run's breach
        // state is on record even if nobody ever polled STATS.
        amrviz_obs::slo::emit_journal(&self.inner.telemetry.slo_report());
        journal::emit(
            "serve",
            &[
                ("role", "\"server\"".into()),
                ("event", "\"drain\"".into()),
                ("requests", snap.requests.to_string()),
                ("ok", snap.ok.to_string()),
                ("degraded", snap.degraded.to_string()),
                ("shed", snap.shed.to_string()),
                ("timeout", snap.timeout.to_string()),
                ("panics", snap.panics.to_string()),
                (
                    "post_deadline_responses",
                    snap.post_deadline_responses.to_string(),
                ),
                ("deadline_aborts", snap.deadline_aborts.to_string()),
                ("cache_hits", snap.cache_hits.to_string()),
            ],
        );
        amrviz_obs::journal_flush();
        snap
    }
}

/// Binds, spawns the accept thread and worker pool, and returns.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let store = BlobStore::open(&cfg.store_dir)
        .map_err(|e| std::io::Error::other(format!("store: {e}")))?;
    let telemetry = ReqTelemetry::new(cfg.slo.clone());
    // A running `--metrics-out` writer exposes this server's registry
    // alongside the global one.
    amrviz_obs::expose::attach(Arc::clone(telemetry.registry()));
    let inner = Arc::new(Inner {
        cache: ArenaCache::new(cfg.cache_bytes),
        telemetry,
        stop: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        cond: Condvar::new(),
        store,
        cfg,
    });

    let mut workers = Vec::new();
    for w in 0..inner.cfg.workers.max(1) {
        let inner = Arc::clone(&inner);
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{w}"))
                .spawn(move || worker_loop(&inner))?,
        );
    }
    let shared = Arc::clone(&inner);
    let acceptor = Acceptor::spawn(listener, "serve-accept", move |stream| {
        let _ = stream.set_nodelay(true);
        let io_t = Duration::from_millis(shared.cfg.io_timeout_ms.max(1));
        let _ = stream.set_read_timeout(Some(io_t));
        let _ = stream.set_write_timeout(Some(io_t));
        admit(&shared, stream);
    })?;
    Ok(ServerHandle {
        inner,
        acceptor,
        workers,
    })
}

/// Admission control: bounded queue, drop-newest with a typed shed reply.
fn admit(inner: &Inner, mut stream: TcpStream) {
    let mut q = inner.queue.lock().unwrap();
    if q.len() >= inner.cfg.queue_depth.max(1) {
        drop(q);
        inner.telemetry.count("serve.shed");
        journal::emit(
            "serve",
            &[
                ("role", "\"server\"".into()),
                ("event", "\"shed\"".into()),
                ("retry_after_ms", inner.cfg.retry_after_ms.to_string()),
            ],
        );
        // Best-effort typed reply from the accept thread (bounded by the
        // socket write timeout). The request frame is never read — shedding
        // must not depend on a possibly-slow client.
        write_notification(&mut stream, Status::RetryLater, inner.cfg.retry_after_ms, 0);
        // Shed requests count against availability in the SLO windows.
        inner.telemetry.record(Status::RetryLater, 0, None, 0, 0);
        return;
    }
    q.push_back((stream, Instant::now()));
    drop(q);
    inner.cond.notify_one();
}

fn worker_loop(inner: &Inner) {
    loop {
        let stream = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if inner.stop.load(Ordering::SeqCst) {
                    break None;
                }
                q = inner.cond.wait(q).unwrap();
            }
        };
        let Some((stream, admitted_at)) = stream else {
            return;
        };
        let result = catch_unwind(AssertUnwindSafe(|| {
            handle_connection(inner, stream, admitted_at)
        }));
        if result.is_err() {
            inner.telemetry.count("serve.panics");
            journal::emit(
                "serve",
                &[("role", "\"server\"".into()), ("event", "\"panic\"".into())],
            );
        }
    }
}

/// Outcome of a gated data-frame write.
enum Gated {
    Written,
    /// Deadline expired at decision time; nothing was written.
    Expired,
    Io,
}

/// The single choke point for data-bearing frames: sample the clock, refuse
/// to write at/after the deadline. `post_deadline_responses` re-checks the
/// *decision* timestamp after the write — it can only increment if a write
/// was started despite an expired deadline, i.e. if this gate is broken.
fn write_gated(
    stream: &mut TcpStream,
    payload: &[u8],
    deadline: Instant,
    telemetry: &ReqTelemetry,
) -> Gated {
    let decided_at = Instant::now();
    if decided_at >= deadline {
        return Gated::Expired;
    }
    let r = proto::write_frame(stream, payload);
    if decided_at >= deadline {
        telemetry.count("serve.post_deadline_responses");
    }
    match r {
        Ok(()) => Gated::Written,
        Err(_) => Gated::Io,
    }
}

/// Writes an error/notification header + END. Exempt from the deadline gate:
/// a `Timeout` reply *is* the deadline signal, and shed/corrupt/not-found
/// replies carry no hierarchy data.
fn write_notification(stream: &mut TcpStream, status: Status, retry_after_ms: u32, key: u64) {
    let header = RespHeader {
        status,
        flags: 0,
        retry_after_ms,
        n_levels: 0,
        key,
    };
    let _ = proto::write_frame(stream, &header.encode());
    let _ = proto::write_frame(
        stream,
        &EndFrame {
            status,
            levels_sent: 0,
            server_elapsed_us: 0,
        }
        .encode(),
    );
}

fn handle_connection(inner: &Inner, mut stream: TcpStream, admitted_at: Instant) {
    let queue_wait_us = admitted_at.elapsed().as_micros() as u64;
    let payload = match proto::read_frame(&mut stream, MAX_REQUEST_FRAME) {
        Ok(Some(p)) => p,
        Ok(None) => return, // peer connected and left
        Err(_) => {
            inner.telemetry.count("serve.io_errors");
            return;
        }
    };
    let req = match Request::decode(&payload) {
        Ok(r) => r,
        Err(_) => {
            inner.telemetry.count("serve.bad_request");
            inner.telemetry.count("serve.requests");
            write_notification(&mut stream, Status::BadRequest, 0, 0);
            return;
        }
    };
    // Adopt the client's trace so journal lines from both halves stitch.
    let _scope = context_scope(TraceContext {
        parent: 0,
        trace: req.trace,
        sampled: true,
    });
    inner.telemetry.count("serve.requests");
    let t0 = Instant::now();
    let (status, levels_sent, flags, stages) = match req.op {
        Op::Ping => {
            write_notification(&mut stream, Status::Ok, 0, 0);
            (Status::Ok, 0u8, 0u8, None)
        }
        Op::List => {
            let (s, l, f) = serve_list(inner, &mut stream, &req, t0);
            (s, l, f, None)
        }
        Op::Stats => (serve_stats(inner, &mut stream, t0), 0u8, 0u8, None),
        Op::Get => {
            let mut st = StageTimes {
                queue_wait_us: Some(queue_wait_us),
                ..StageTimes::default()
            };
            let (s, l, f) = serve_get(inner, &mut stream, &req, t0, &mut st);
            (s, l, f, Some(st))
        }
    };
    let elapsed_us = t0.elapsed().as_micros() as u64;
    if let Some(outcome) = status_outcome(status) {
        inner.telemetry.count(outcome);
    }
    // STATS polls are monitoring traffic: answered, counted in `requests`,
    // but excluded from the SLO latency/availability windows so watching
    // the server never moves its own objectives.
    if req.op != Op::Stats {
        inner
            .telemetry
            .record(status, elapsed_us, stages.as_ref(), req.trace, req.key);
    }
    let mut fields = vec![
        ("role", "\"server\"".into()),
        ("op", format!("\"{}\"", req.op.name())),
        ("status", format!("\"{}\"", status.name())),
        ("key", format!("\"{:016x}\"", req.key)),
        ("levels", levels_sent.to_string()),
        ("elapsed_us", elapsed_us.to_string()),
        ("degraded", ((flags & FLAG_DEGRADED) != 0).to_string()),
        ("coarse_only", ((flags & FLAG_COARSE_ONLY) != 0).to_string()),
    ];
    if let Some(st) = &stages {
        fields.push(("stages_us", st.to_json()));
    }
    journal::emit("serve", &fields);
}

/// Answers `Op::Stats`: one header, one STATS frame carrying the snapshot
/// JSON, one END. Exempt from the deadline gate like other notifications —
/// the snapshot carries no hierarchy data, and an operator polling a
/// saturated server wants the answer, not a timeout.
fn serve_stats(inner: &Inner, stream: &mut TcpStream, t0: Instant) -> Status {
    let (cache_entries, cache_bytes) = inner.cache.stats();
    let queue_depth = inner.queue.lock().unwrap().len();
    let snap = inner.telemetry.stats();
    let json = inner.telemetry.snapshot_json(
        &snap,
        queue_depth,
        inner.cfg.workers.max(1),
        cache_entries,
        cache_bytes,
        inner.cfg.cache_bytes,
    );
    // Every poll also journals the SLO state as typed events, so burn-rate
    // history is reconstructible offline from the journal alone.
    amrviz_obs::slo::emit_journal(&inner.telemetry.slo_report());
    let header = RespHeader {
        status: Status::Ok,
        flags: 0,
        retry_after_ms: 0,
        n_levels: 0,
        key: 0,
    };
    for payload in [
        header.encode(),
        proto::encode_stats_frame(&json),
        EndFrame {
            status: Status::Ok,
            levels_sent: 0,
            server_elapsed_us: t0.elapsed().as_micros() as u64,
        }
        .encode(),
    ] {
        if proto::write_frame(stream, &payload).is_err() {
            inner.telemetry.count("serve.io_errors");
            return Status::Internal;
        }
    }
    Status::Ok
}

fn serve_list(
    inner: &Inner,
    stream: &mut TcpStream,
    req: &Request,
    t0: Instant,
) -> (Status, u8, u8) {
    let deadline = t0 + Duration::from_millis(effective_deadline_ms(inner, req) as u64);
    let keys = match inner.store.list() {
        Ok(k) => k,
        Err(_) => {
            write_notification(stream, Status::Internal, 0, 0);
            return (Status::Internal, 0, 0);
        }
    };
    let header = RespHeader {
        status: Status::Ok,
        flags: 0,
        retry_after_ms: 0,
        n_levels: 0,
        key: 0,
    };
    for payload in [header.encode(), proto::encode_keys_frame(&keys)] {
        match write_gated(stream, &payload, deadline, &inner.telemetry) {
            Gated::Written => {}
            Gated::Expired => {
                inner.telemetry.count("serve.deadline_aborts");
                return (Status::Timeout, 0, 0);
            }
            Gated::Io => {
                inner.telemetry.count("serve.io_errors");
                return (Status::Internal, 0, 0);
            }
        }
    }
    let _ = proto::write_frame(
        stream,
        &EndFrame {
            status: Status::Ok,
            levels_sent: 0,
            server_elapsed_us: t0.elapsed().as_micros() as u64,
        }
        .encode(),
    );
    (Status::Ok, 0, 0)
}

fn effective_deadline_ms(inner: &Inner, req: &Request) -> u32 {
    req.deadline_ms.min(inner.cfg.max_deadline_ms)
}

/// Looks up (or decodes into cache) the entry for `key`. Deadline-aware:
/// decode loops carry the budget's deadline and bail cooperatively.
fn lookup_or_decode(
    inner: &Inner,
    key: u64,
    deadline: Instant,
    st: &mut StageTimes,
) -> Result<Arc<DecodedEntry>, Status> {
    if let Some(entry) = inner.cache.get(key) {
        inner.telemetry.count("serve.cache_hits");
        // Cache hit: the read/validate/decode stages never ran; their
        // absence in the breakdown is the "warm cache" signal.
        return Ok(entry);
    }
    inner.telemetry.count("serve.cache_misses");
    let stage_t = Instant::now();
    let bytes = match inner.store.get(key) {
        Ok(b) => b,
        Err(StoreError::NotFound) => return Err(Status::NotFound),
        Err(StoreError::Corrupt { .. }) => return Err(Status::Corrupt),
        Err(StoreError::Io(_)) => return Err(Status::Internal),
    };
    st.store_read_us = Some(stage_t.elapsed().as_micros() as u64);
    let budget = DecodeBudget::permissive().with_deadline(deadline);
    let stage_t = Instant::now();
    let art = match decode_artifact(&bytes, &budget) {
        Ok(a) => a,
        Err(e) if e.is_deadline() => return Err(Status::Timeout),
        Err(_) => return Err(Status::Corrupt),
    };
    st.structure_validate_us = Some(stage_t.elapsed().as_micros() as u64);
    let Some(compressor) = compressor_for(&art.algo) else {
        return Err(Status::Corrupt);
    };
    let mut levels = inner.cache.take_arena();
    let cfg = AmrCodecConfig::default();
    let stage_t = Instant::now();
    let report = match decompress_hierarchy_field_into(
        &art.hier,
        &art.container,
        compressor.as_ref(),
        &cfg,
        DecodePolicy::Degrade,
        &budget,
        &mut levels,
    ) {
        Ok(r) => r,
        Err(e) if e.is_deadline() => return Err(Status::Timeout),
        Err(_) => return Err(Status::Corrupt),
    };
    st.decode_us = Some(stage_t.elapsed().as_micros() as u64);
    let mut degraded_fabs = vec![0u32; levels.len()];
    for (lev, _, status) in &report.fabs {
        if !matches!(status, amrviz_compress::FabStatus::Ok) {
            degraded_fabs[*lev] += 1;
        }
    }
    let entry = DecodedEntry {
        algo: art.algo,
        field: art.field,
        levels,
        degraded_fabs,
    };
    Ok(inner.cache.insert(key, entry))
}

fn serve_get(
    inner: &Inner,
    stream: &mut TcpStream,
    req: &Request,
    t0: Instant,
    st: &mut StageTimes,
) -> (Status, u8, u8) {
    let budget_ms = effective_deadline_ms(inner, req);
    let total = Duration::from_millis(budget_ms as u64);
    let deadline = t0 + total;
    if budget_ms == 0 || Instant::now() >= deadline {
        write_notification(stream, Status::Timeout, inner.cfg.retry_after_ms, req.key);
        return (Status::Timeout, 0, 0);
    }
    let entry = match lookup_or_decode(inner, req.key, deadline, st) {
        Ok(e) => e,
        Err(status) => {
            let retry = if status.is_retryable() {
                inner.cfg.retry_after_ms
            } else {
                0
            };
            write_notification(stream, status, retry, req.key);
            return (status, 0, 0);
        }
    };

    // Plan the stream: cap at the client's max level; drop to coarse-only
    // when the remaining budget is thin.
    let want = (req.max_level as usize + 1).min(entry.levels.len());
    let remaining = deadline.saturating_duration_since(Instant::now());
    let mut flags = if entry.is_degraded() {
        FLAG_DEGRADED
    } else {
        0
    };
    let n_levels = if remaining < total.mul_f64(inner.cfg.coarse_only_frac) {
        flags |= FLAG_COARSE_ONLY;
        inner.telemetry.count("serve.coarse_only");
        1
    } else {
        want
    };
    let status = if entry.is_degraded() {
        Status::Degraded
    } else {
        Status::Ok
    };
    let header = RespHeader {
        status,
        flags,
        retry_after_ms: 0,
        n_levels: n_levels as u8,
        key: req.key,
    };
    let write_t = Instant::now();
    let gated = write_gated(stream, &header.encode(), deadline, &inner.telemetry);
    st.add_write(write_t.elapsed().as_micros() as u64);
    match gated {
        Gated::Written => {}
        Gated::Expired => {
            // Nothing sent yet: a typed Timeout is still possible.
            inner.telemetry.count("serve.deadline_aborts");
            write_notification(stream, Status::Timeout, inner.cfg.retry_after_ms, req.key);
            return (Status::Timeout, 0, 0);
        }
        Gated::Io => {
            inner.telemetry.count("serve.io_errors");
            return (Status::Internal, 0, 0);
        }
    }
    let mut sent = 0u8;
    for lev in 0..n_levels {
        let frame = proto::encode_level_frame(lev, entry.degraded_fabs[lev], &entry.levels[lev]);
        let write_t = Instant::now();
        let gated = write_gated(stream, &frame, deadline, &inner.telemetry);
        st.add_write(write_t.elapsed().as_micros() as u64);
        match gated {
            Gated::Written => sent += 1,
            Gated::Expired => {
                // Mid-stream expiry: cut WITHOUT the END frame. The prefix
                // the client holds is a valid progressive result.
                inner.telemetry.count("serve.deadline_aborts");
                return (Status::Timeout, sent, flags);
            }
            Gated::Io => {
                inner.telemetry.count("serve.io_errors");
                return (Status::Internal, sent, flags);
            }
        }
    }
    let end = EndFrame {
        status,
        levels_sent: sent,
        server_elapsed_us: t0.elapsed().as_micros() as u64,
    };
    let write_t = Instant::now();
    let gated = write_gated(stream, &end.encode(), deadline, &inner.telemetry);
    st.add_write(write_t.elapsed().as_micros() as u64);
    match gated {
        Gated::Written => (status, sent, flags),
        Gated::Expired => {
            inner.telemetry.count("serve.deadline_aborts");
            (Status::Timeout, sent, flags)
        }
        Gated::Io => {
            inner.telemetry.count("serve.io_errors");
            (Status::Internal, sent, flags)
        }
    }
}
