//! `serve_hot` and `serve_ingest`: an in-process `amrviz_serve` server,
//! driven over the framed protocol by an open-loop generator with at most
//! two threads and two connections.
//!
//! - `serve_hot`: a few tiny artifacts, a cache larger than all of them,
//!   warmed before timing. A nominal-rate phase, then a short rate ladder.
//! - `serve_ingest`: one writer thread ingests new distinct snapshots
//!   (compress → `encode_artifact` → `BlobStore::put`) while one reader
//!   GETs keys that favour the newest, through a cache smaller than the
//!   working set.

use crate::load::{self, Phase, Sample};
use crate::pipeline::{max_level_error, within_bound, DATA_SEED};
use crate::report::{Metric, Outcome};
use crate::stats::{geomean, median, percentile, segmented_tail, tail_percentile};
use crate::trace::{self, span_if};
use amrviz_amr::resample::{flatten_levels_to_finest, Upsample};
use amrviz_compress::{
    compress_hierarchy_field, decompress_hierarchy_field_into, AmrCodecConfig, DecodeBudget,
    DecodePolicy, ErrorBound, SzLr,
};
use amrviz_core::scenario::{Application, BuiltScenario};
use amrviz_json::Json;
use amrviz_metrics::{quality, rssim, ssim3, SsimConfig};
use amrviz_rng::Rng;
use amrviz_serve::proto::{self, EndFrame, Op, Request, RespHeader, Status, MAX_RESPONSE_FRAME};
use amrviz_serve::{
    compressor_for, decode_artifact, encode_artifact, exchange, BlobStore, ClientConfig,
    ServeConfig, ServerHandle,
};
use amrviz_sim::Scale;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Rates and limits, all given on the command line so `BENCHMARK.json`
/// records them.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// `serve_hot` nominal GET rate, requests/s.
    pub rate: f64,
    /// `serve_hot` ladder rates above the nominal one, requests/s.
    pub ladder: Vec<f64>,
    /// Latency limit on the tail GET latency, ms.
    pub slo_ms: f64,
}

const REL_EB: f64 = 1e-3;
/// `serve_ingest` reader rate, GET/s: one connection kept well below
/// saturation by decode-paying misses.
const READ_RATE: f64 = 60.0;
/// `serve_ingest` writer rate, snapshots/s.
const PUT_RATE: f64 = 5.0;
/// Server workers, and the worker-pool width for compress and decode.
const WORKERS: usize = 2;
/// Server-side deadline stamped on every GET. Far above any healthy
/// latency: a timeout here is a failure, not load shaping.
const DEADLINE_MS: u32 = 5_000;
/// Allowance past the deadline before an arriving frame counts as late.
const GRACE: Duration = Duration::from_millis(500);
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Set-ups timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 9;
/// Requests still unsent this long after falling due are given up.
const GIVE_UP: Duration = Duration::from_secs(5);
/// Consecutive segments the tail GET latency is taken over.
const TAIL_SEGMENTS: usize = 5;
/// Share of a traced `serve_hot` window spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.5;
const HOT_ARTIFACTS: usize = 4;
/// Distinct scenarios generated for ingest; snapshots cycle through them
/// at distinct error bounds, so every ingested artifact is new.
const INGEST_SCENARIOS: usize = 4;
/// Snapshots in the store before the reader starts.
const INGEST_SEEDED: usize = 8;
/// Decoded entries the `serve_ingest` cache can hold.
const INGEST_CACHE_ENTRIES: f64 = 2.5;
/// The reader picks the k-th newest snapshot with probability ∝ q^k.
const RECENCY_Q: f64 = 0.75;

/// Per level: (fabs, cells) — what an OK GET of the artifact must return.
type Shape = Vec<(u64, u64)>;

fn shape_of(built: &BuiltScenario) -> Shape {
    let levels = &built
        .hierarchy
        .field(built.spec.eval_field())
        .expect("eval field")
        .levels;
    levels
        .iter()
        .map(|mf| (mf.len() as u64, mf.num_cells() as u64))
        .collect()
}

/// One GET as the client saw it. Durations run from just before connect.
#[derive(Debug, Clone, Default)]
pub struct Get {
    /// Why the GET does not count as a correct answer, if it does not.
    pub error: Option<String>,
    pub connect: Duration,
    pub header: Duration,
    pub first_level: Option<Duration>,
    pub end: Duration,
    pub server_us: u64,
    pub cells: u64,
    pub late_frames: u64,
}

fn fail(mut g: Get, why: String) -> Get {
    g.error = Some(why);
    g
}

/// Performs one GET over the framed protocol and checks the answer has
/// the level and cell counts of the artifact stored under `key`.
pub fn get(addr: SocketAddr, key: u64, expect: &Shape, id: u64, record: bool) -> Get {
    let _sp = span_if(record, "client.get", id);
    let t0 = Instant::now();
    let late_after = t0 + Duration::from_millis(DEADLINE_MS as u64) + GRACE;
    let mut g = Get::default();
    let mut stream = {
        let _c = span_if(record, "client.connect", id);
        match TcpStream::connect_timeout(&addr, IO_TIMEOUT) {
            Ok(s) => s,
            Err(e) => return fail(g, format!("connect: {e}")),
        }
    };
    g.connect = t0.elapsed();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let req = Request {
        op: Op::Get,
        trace: id,
        key,
        deadline_ms: DEADLINE_MS,
        max_level: 0xFF,
    };
    let budget = DecodeBudget::permissive();
    let mut levels = Vec::new();
    let announced = {
        let _w = span_if(record, "client.header", id);
        if let Err(e) = proto::write_frame(&mut stream, &req.encode()) {
            return fail(g, format!("send: {e}"));
        }
        let frame = proto::read_frame(&mut stream, MAX_RESPONSE_FRAME);
        let at = Instant::now();
        g.header = at - t0;
        g.late_frames += u64::from(at > late_after);
        let h = match frame {
            Ok(Some(p)) => RespHeader::decode(&p),
            Ok(None) => return fail(g, "closed before header".into()),
            Err(e) => return fail(g, format!("header: {e}")),
        };
        match h {
            Ok(h) if h.status == Status::Ok => h.n_levels as usize,
            Ok(h) => return fail(g, format!("status {}", h.status.name())),
            Err(e) => return fail(g, format!("header: {e:?}")),
        }
    };
    let _s = span_if(record, "client.stream", id);
    loop {
        let frame = proto::read_frame(&mut stream, MAX_RESPONSE_FRAME);
        let at = Instant::now();
        let payload = match frame {
            Ok(Some(p)) => p,
            Ok(None) => return fail(g, "closed before END".into()),
            Err(e) => return fail(g, format!("stream: {e}")),
        };
        g.late_frames += u64::from(at > late_after);
        match payload.first() {
            Some(&proto::TAG_LEVEL) => match proto::decode_level_frame(&payload, &budget) {
                Ok(s) => {
                    g.first_level.get_or_insert(at - t0);
                    levels.push(s);
                }
                Err(e) => return fail(g, format!("level frame: {e:?}")),
            },
            Some(&proto::TAG_END) => match EndFrame::decode(&payload) {
                Ok(e) => {
                    g.end = at - t0;
                    g.server_us = e.server_elapsed_us;
                    break;
                }
                Err(e) => return fail(g, format!("end frame: {e:?}")),
            },
            _ => return fail(g, "unexpected frame".into()),
        }
    }
    let got: Shape = levels.iter().map(|l| (l.fabs, l.cells)).collect();
    let in_order = levels
        .iter()
        .enumerate()
        .all(|(i, l)| l.level as usize == i);
    let clean = levels.iter().all(|l| l.degraded_fabs == 0);
    if announced != expect.len() || &got != expect || !in_order || !clean {
        return fail(
            g,
            format!("key {key:016x}: got levels {got:?}, wrote {expect:?}"),
        );
    }
    g.cells = got.iter().map(|l| l.1).sum();
    g
}

/// A server over its own store directory, with what the benchmark wrote.
struct Env {
    dir: PathBuf,
    server: ServerHandle,
    store: BlobStore,
    /// What was stored under each key.
    written: Mutex<HashMap<u64, Stored>>,
    /// Keys in the order they became readable.
    keys: Mutex<Vec<u64>>,
}

#[derive(Clone)]
struct Stored {
    shape: Shape,
    scenario: usize,
    out_bytes: usize,
    n_values: usize,
}

impl Env {
    fn start(dir: PathBuf, cache_bytes: usize) -> Result<Env, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let store = BlobStore::open(&dir).map_err(|e| e.to_string())?;
        let server = amrviz_serve::start(ServeConfig {
            store_dir: dir.clone(),
            workers: WORKERS,
            cache_bytes,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start: {e}"))?;
        Ok(Env {
            dir,
            server,
            store,
            written: Mutex::new(HashMap::new()),
            keys: Mutex::new(Vec::new()),
        })
    }

    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    fn shape(&self, key: u64) -> Shape {
        self.written.lock().expect("written poisoned")[&key]
            .shape
            .clone()
    }

    /// Stops the server and removes the store directory.
    fn stop(self) {
        self.server.shutdown();
        self.server.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Timings of one ingest: compress, artifact encode, durable put.
#[derive(Debug, Clone, Copy, Default)]
struct Put {
    compress: Duration,
    encode: Duration,
    put: Duration,
    bytes: usize,
}

/// Compresses `built` at `rel_eb`, encodes the artifact and stores it.
fn ingest(
    env: &Env,
    built: &BuiltScenario,
    scenario: usize,
    rel_eb: f64,
    id: u64,
    record: bool,
) -> Result<(u64, Put), String> {
    let _sp = span_if(record, "ingest", id);
    let field = built.spec.eval_field();
    let mut p = Put::default();
    let t = Instant::now();
    let container = {
        let _c = span_if(record, "compress", id);
        compress_hierarchy_field(
            &built.hierarchy,
            field,
            &SzLr::default(),
            ErrorBound::Rel(rel_eb),
            &AmrCodecConfig::default(),
        )
        .map_err(|e| format!("compress: {e}"))?
    };
    p.compress = t.elapsed();
    let t = Instant::now();
    let bytes = {
        let _c = span_if(record, "artifact.encode", id);
        encode_artifact(&built.hierarchy, field, "szlr", &container)
    };
    p.encode = t.elapsed();
    let t = Instant::now();
    let key = {
        let _c = span_if(record, "store.put", id);
        env.store.put(&bytes).map_err(|e| format!("put: {e}"))?
    };
    p.put = t.elapsed();
    p.bytes = bytes.len();
    let stored = Stored {
        shape: shape_of(built),
        scenario,
        out_bytes: container.compressed_bytes(),
        n_values: container.n_values,
    };
    if env
        .written
        .lock()
        .expect("written poisoned")
        .insert(key, stored)
        .is_some()
    {
        return Err(format!("snapshot {id} is not new: key {key:016x} exists"));
    }
    env.keys.lock().expect("keys poisoned").push(key);
    Ok((key, p))
}

/// Tiny paper scenarios, alternating Nyx and WarpX. Like the pipeline's,
/// the data do not depend on the run seed, which drives the requests.
fn scenarios(n: usize) -> Vec<BuiltScenario> {
    (0..n)
        .map(|i| {
            let app = [Application::Nyx, Application::Warpx][i % 2];
            BuiltScenario::from_spec(app.spec(Scale::Tiny, DATA_SEED + (i / 2) as u64))
        })
        .collect()
}

fn decoded_bytes(built: &BuiltScenario) -> usize {
    shape_of(built).iter().map(|l| l.1 as usize * 8).sum()
}

/// Re-reads every stored artifact, checks the error bound, and scores it
/// against its original: (compression ratio, PSNR, SSIM) per artifact.
fn score_stored(env: &Env, built: &[BuiltScenario]) -> Result<Vec<(f64, f64, f64)>, String> {
    let written = env.written.lock().expect("written poisoned").clone();
    let mut keys: Vec<u64> = written.keys().copied().collect();
    keys.sort_unstable();
    let cfg = AmrCodecConfig::default();
    let mut out = Vec::new();
    for key in keys {
        let w = &written[&key];
        let b = &built[w.scenario];
        // `get` re-hashes the file: an acknowledged put must read back.
        let bytes = env.store.get(key).map_err(|e| format!("{key:016x}: {e}"))?;
        let art = decode_artifact(&bytes, &DecodeBudget::permissive())
            .map_err(|e| format!("{key:016x}: {e}"))?;
        let comp = compressor_for(&art.algo).ok_or("unknown algorithm")?;
        let mut levels = Vec::new();
        let report = decompress_hierarchy_field_into(
            &art.hier,
            &art.container,
            comp.as_ref(),
            &cfg,
            DecodePolicy::Strict,
            &DecodeBudget::permissive(),
            &mut levels,
        )
        .map_err(|e| format!("{key:016x}: {e}"))?;
        let orig = &b
            .hierarchy
            .field(b.spec.eval_field())
            .expect("field")
            .levels;
        let err = max_level_error(orig, &levels);
        if !report.is_clean() || !within_bound(err, art.container.abs_eb) {
            return Err(format!(
                "{key:016x}: max abs error {err:e} exceeds bound {:e}",
                art.container.abs_eb
            ));
        }
        let recon = flatten_levels_to_finest(&b.hierarchy, &levels, Upsample::PiecewiseConstant)
            .map_err(|e| e.to_string())?;
        let q = quality(&b.uniform.data, &recon.data);
        let s = ssim3(
            &b.uniform.data,
            &recon.data,
            b.uniform.dims(),
            &SsimConfig::default(),
        );
        out.push(((w.n_values * 8) as f64 / w.out_bytes as f64, q.psnr, s));
    }
    Ok(out)
}

/// The server's in-band STATS snapshot, parsed.
fn fetch_stats(addr: SocketAddr) -> Result<Json, String> {
    let req = Request {
        op: Op::Stats,
        trace: 0,
        key: 0,
        deadline_ms: 1_000,
        max_level: 0,
    };
    let ex = exchange(addr, &req, &ClientConfig::default());
    let text = ex
        .stats
        .ok_or_else(|| format!("STATS failed: {}", ex.outcome.name()))?;
    Json::parse(&text).map_err(|e| format!("STATS json: {e}"))
}

/// A number in the STATS snapshot; `None` when the path is absent.
fn jget(j: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = Some(j);
    for p in path {
        cur = cur.and_then(|c| c.get(p));
    }
    cur.and_then(Json::as_f64)
}

/// A STATS figure that may be absent: a stage that never ran, a status
/// never returned. Absent reads as 0.
fn jnum(j: &Json, path: &[&str]) -> f64 {
    jget(j, path).unwrap_or(0.0)
}

fn stage(j: &Json, name: &str, stat: &str) -> f64 {
    jnum(j, &["stages_us", name, "lifetime", stat])
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn work_dir(workload: &str, rep: usize) -> PathBuf {
    Path::new(crate::WORK_DIR).join(format!("{workload}-{}-{rep}", std::process::id()))
}

/// Warms the cache: one sequential GET of every key, each must succeed.
fn warm(env: &Env, keys: &[u64]) -> Result<(), String> {
    for (i, &k) in keys.iter().enumerate() {
        let g = get(env.addr(), k, &env.shape(k), i as u64, false);
        if let Some(e) = g.error {
            return Err(format!("warm-up GET: {e}"));
        }
    }
    Ok(())
}

/// Checks the serve invariants and fills in every GET-side metric.
fn report_gets(
    out: &mut Outcome,
    env: &Env,
    samples: &[Sample<Get>],
    nominal: &[usize],
    window_s: f64,
    slo_ms: f64,
    traced: bool,
) {
    let mut late = 0;
    let mut good_cells = 0u64;
    for s in samples {
        out.attempted += 1;
        match &s.result {
            None => out.fail(format!("GET {} never sent: generator gave up", s.index)),
            Some(g) => {
                late += g.late_frames;
                match &g.error {
                    Some(e) => out.fail(format!("GET {}: {e}", s.index)),
                    None if ms(s.latency()) <= slo_ms
                        && nominal.binary_search(&s.index).is_ok() =>
                    {
                        good_cells += g.cells
                    }
                    None => {}
                }
            }
        }
    }
    if late > 0 {
        out.fail(format!("{late} frames arrived after their deadline"));
    }
    let ok: Vec<&Sample<Get>> = nominal
        .iter()
        .map(|&i| &samples[i])
        .filter(|s| s.result.as_ref().is_some_and(|g| g.error.is_none()))
        .collect();
    let lat: Vec<f64> = ok.iter().map(|s| ms(s.latency())).collect();
    let (tail_p, tail) = segmented_tail(&lat, TAIL_SEGMENTS).unwrap_or((100.0, f64::NAN));
    out.metric(Metric::new("op_p50_ms", median(&lat), "ms").samples(lat.len()));
    out.metric(Metric::new("op_tail_ms", tail, "ms").samples(lat.len()));
    out.note(format!(
        "op_tail_ms is the median over {TAIL_SEGMENTS} segments of their p{tail_p}, {} nominal GETs \
         (due -> END); overall p90 {:.3} p99 {:.3} max {:.3} ms",
        lat.len(),
        percentile(&lat, 90.0),
        percentile(&lat, 99.0),
        percentile(&lat, 100.0)
    ));
    out.put("mvals_per_s", good_cells as f64 / 1e6 / window_s, "Mval/s");

    let stats = match fetch_stats(env.addr()) {
        Ok(j) => j,
        Err(e) => {
            out.fail(e);
            Json::obj()
        }
    };
    for inv in ["panics", "post_deadline_responses"] {
        match jget(&stats, &["requests", inv]) {
            Some(0.0) => {}
            v => out.fail(format!("server STATS {inv} = {v:?}, want 0")),
        }
    }
    if !traced {
        return;
    }
    let first: Vec<f64> = ok
        .iter()
        .filter_map(|s| {
            s.result
                .as_ref()?
                .first_level
                .map(|f| ms(s.sent - s.due + f))
        })
        .collect();
    let g = |f: &dyn Fn(&Get) -> f64| -> Vec<f64> {
        ok.iter()
            .map(|s| f(s.result.as_ref().expect("ok")))
            .collect()
    };
    let header = g(&|x| us(x.header));
    let residual = g(&|x| us(x.end) - x.server_us as f64);
    // The ladder steps overload the generator on purpose; their lateness
    // is in the ladder note.
    let lateness: Vec<f64> = nominal.iter().map(|&i| ms(samples[i].lateness())).collect();
    out.put("client.first_level_ms_p50", median(&first), "ms");
    out.put("client.first_level_ms_p99", percentile(&first, 99.0), "ms");
    out.put(
        "client.connect_us_p50",
        median(&g(&|x| us(x.connect))),
        "us",
    );
    out.put("client.header_us_p50", median(&header), "us");
    out.put("client.header_us_p99", percentile(&header, 99.0), "us");
    out.put(
        "client.stream_us_p50",
        median(&g(&|x| us(x.end - x.header))),
        "us",
    );
    out.put("client.late_frames", late as f64, "count");
    out.put("serve.residual_us_p50", median(&residual), "us");
    out.put("serve.residual_us_p99", percentile(&residual, 99.0), "us");
    out.put(
        "gen.sent",
        samples.iter().filter(|s| s.result.is_some()).count() as f64,
        "count",
    );
    out.put("gen.lateness_ms_p99", percentile(&lateness, 99.0), "ms");
    for (name, st, stat) in [
        ("serve.queue_wait_us_p50", "queue_wait", "p50"),
        ("serve.queue_wait_us_p99", "queue_wait", "p99"),
        ("serve.write_us_p50", "write", "p50"),
        ("serve.write_us_p99", "write", "p99"),
        ("serve.decode_us_p50", "decode", "p50"),
        ("serve.decode_us_p99", "decode", "p99"),
        ("serve.decode_count", "decode", "count"),
        ("serve.store_read_us_p50", "store_read", "p50"),
        (
            "serve.structure_validate_us_p50",
            "structure_validate",
            "p50",
        ),
    ] {
        out.put(
            name,
            stage(&stats, st, stat),
            if stat == "count" { "count" } else { "us" },
        );
    }
    out.put(
        "serve.server_us_p50",
        jnum(&stats, &["latency_us", "ok", "lifetime", "p50"]),
        "us",
    );
    out.put(
        "serve.server_us_p99",
        jnum(&stats, &["latency_us", "ok", "lifetime", "p99"]),
        "us",
    );
    for (name, key) in [
        ("serve.shed", "shed"),
        ("serve.timeout", "timeout"),
        ("serve.deadline_aborts", "deadline_aborts"),
        ("serve.post_deadline_responses", "post_deadline_responses"),
    ] {
        out.put(name, jnum(&stats, &["requests", key]), "count");
    }
    let hits = jnum(&stats, &["cache", "hits"]);
    let misses = jnum(&stats, &["cache", "misses"]);
    out.put("cache.hit_ratio", hits / (hits + misses).max(1.0), "1");
    out.put("cache.misses", misses, "count");
}

/// Highest ladder rate whose tail latency stays within `slo_ms` with every
/// request answered and no growing backlog; 0 when none does. Also one
/// line per step saying how it fared.
fn max_rps_at_slo(
    samples: &[Sample<Get>],
    phases: &[(usize, Duration)],
    rates: &[f64],
    slo_ms: f64,
) -> (f64, Vec<String>) {
    let mut best = 0.0;
    let mut steps = Vec::new();
    let mut passing = true;
    for (p, &rate) in rates.iter().enumerate() {
        let step: Vec<&Sample<Get>> = samples.iter().filter(|s| phases[s.index].0 == p).collect();
        let all_ok = step
            .iter()
            .all(|s| s.result.as_ref().is_some_and(|g| g.error.is_none()));
        let lat: Vec<f64> = step.iter().map(|s| ms(s.latency())).collect();
        let tail = tail_percentile(lat.len()).unwrap_or(100.0);
        // Backlog: the generator is further behind at the end of the step
        // than at its start.
        let half = step.len() / 2;
        let late =
            |xs: &[&Sample<Get>]| median(&xs.iter().map(|s| ms(s.lateness())).collect::<Vec<_>>());
        let (early, later) = if half > 0 {
            (late(&step[..half]), late(&step[half..]))
        } else {
            (0.0, 0.0)
        };
        let growing = later > early + 1.0;
        let tail_ms = percentile(&lat, tail);
        let ok = all_ok && !lat.is_empty() && tail_ms <= slo_ms && !growing;
        passing &= ok;
        if passing {
            best = rate;
        }
        steps.push(format!(
            "  {rate} GET/s: {} GETs, p{tail} {tail_ms:.3} ms, median lateness {early:.3} -> \
             {later:.3} ms, all answered {all_ok}: {}",
            lat.len(),
            if ok { "within" } else { "missed" }
        ));
    }
    (best, steps)
}

/// The quality figures over every stored artifact. A score that is not
/// finite fails the run: the minimum and maximum below would drop a NaN.
fn quality_metrics(out: &mut Outcome, scores: &[(f64, f64, f64)]) {
    for (i, &(cr, psnr, ssim)) in scores.iter().enumerate() {
        if !(cr.is_finite() && psnr.is_finite() && ssim.is_finite()) {
            out.fail(format!(
                "stored artifact {i}: CR {cr}, PSNR {psnr} or SSIM {ssim} is not finite"
            ));
        }
    }
    let cr: Vec<f64> = scores.iter().map(|s| s.0).collect();
    out.metric(Metric::new("compression_ratio", geomean(&cr), "x").samples(cr.len()));
    let psnr = scores.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
    out.metric(Metric::new("psnr_db", psnr, "dB").samples(cr.len()));
    let worst = scores.iter().map(|s| rssim(s.2)).fold(0.0, f64::max);
    out.metric(Metric::new("rssim", worst, "1").samples(cr.len()));
}

/// Set-up repeated [`SETUP_REPS`] times; returns the last environment and
/// the median set-up seconds.
fn timed_setup<T>(
    mut setup: impl FnMut(usize) -> Result<(Env, T), String>,
) -> Result<(Env, T, f64, usize), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some((env, _)) = last.take() {
            Env::stop(env);
        }
        let t = Instant::now();
        last = Some(setup(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let (env, extra) = last.expect("at least one set-up");
    Ok((env, extra, median(&times), times.len()))
}

pub fn run_hot(spec: &LoadSpec, seed: u64, seconds: u64, traced: bool) -> Outcome {
    amrviz_par::set_threads(WORKERS);
    let mut out = Outcome::default();
    let setup = timed_setup(|rep| {
        let built = scenarios(HOT_ARTIFACTS);
        let working_set: usize = built.iter().map(decoded_bytes).sum();
        let env = Env::start(work_dir("serve_hot", rep), 4 * working_set)?;
        for (i, b) in built.iter().enumerate() {
            ingest(&env, b, i, REL_EB, i as u64, false)?;
        }
        let keys = env.keys.lock().expect("keys poisoned").clone();
        warm(&env, &keys)?;
        Ok((env, built))
    });
    let (env, built, setup_s, reps) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    out.metric(Metric::new("setup_s", setup_s, "s").samples(reps));

    // Dark runs hold the nominal rate throughout. A traced run ends with
    // the rate ladder, for `serve.max_rps_at_slo`.
    let secs = seconds as f64;
    let nominal_secs = if traced { secs * NOMINAL_SHARE } else { secs };
    let ladder_secs = (secs - nominal_secs) / spec.ladder.len().max(1) as f64;
    let mut plan = vec![Phase {
        rate: spec.rate,
        secs: nominal_secs,
    }];
    if traced {
        plan.extend(spec.ladder.iter().map(|&rate| Phase {
            rate,
            secs: ladder_secs,
        }));
    }
    let mut rng = Rng::seed(seed).fork(0x6e7);
    let sched = load::schedule(&plan, &mut rng);
    let due: Vec<Duration> = sched.iter().map(|s| s.1).collect();
    let keys = env.keys.lock().expect("keys poisoned").clone();
    let picks: Vec<u64> = (0..due.len())
        .map(|_| keys[rng.below(keys.len() as u64) as usize])
        .collect();
    let shapes: HashMap<u64, Shape> = keys.iter().map(|&k| (k, env.shape(k))).collect();
    trace::set_enabled(traced);
    let samples = load::run(&due, WORKERS, GIVE_UP, |i| {
        get(
            env.addr(),
            picks[i],
            &shapes[&picks[i]],
            i as u64,
            traced && i % 2 == 1,
        )
    });
    trace::set_enabled(false);

    let nominal: Vec<usize> = (0..samples.len()).filter(|&i| sched[i].0 == 0).collect();
    report_gets(
        &mut out,
        &env,
        &samples,
        &nominal,
        nominal_secs,
        spec.slo_ms,
        traced,
    );
    if traced {
        let mut rates = vec![spec.rate];
        rates.extend(&spec.ladder);
        let (rps, steps) = max_rps_at_slo(&samples, &sched, &rates, spec.slo_ms);
        out.note(format!(
            "max_rps_at_slo {rps} (limit {} ms, rates {rates:?}):\n{}",
            spec.slo_ms,
            steps.join("\n")
        ));
        out.put("serve.max_rps_at_slo", rps, "1/s");
        overhead(&mut out, &samples, &nominal);
    }
    match score_stored(&env, &built) {
        Ok(scores) => quality_metrics(&mut out, &scores),
        Err(e) => out.fail(e),
    }
    env.stop();
    out
}

/// Traced requests (odd) against dark ones (even) in the nominal phase.
fn overhead(out: &mut Outcome, samples: &[Sample<Get>], nominal: &[usize]) {
    let service = |odd: usize| -> Vec<f64> {
        nominal
            .iter()
            .filter(|&&i| i % 2 == odd)
            .map(|&i| ms(samples[i].done - samples[i].sent))
            .collect()
    };
    let (dark, lit) = (median(&service(0)), median(&service(1)));
    out.put("bench.trace_overhead_pct", 100.0 * (lit / dark - 1.0), "%");
}

pub fn run_ingest(spec: &LoadSpec, seed: u64, seconds: u64, traced: bool) -> Outcome {
    amrviz_par::set_threads(WORKERS);
    let mut out = Outcome::default();
    let setup = timed_setup(|rep| {
        let built = scenarios(INGEST_SCENARIOS);
        let entry = built.iter().map(decoded_bytes).max().unwrap_or(0);
        let cache = (INGEST_CACHE_ENTRIES * entry as f64) as usize;
        let env = Env::start(work_dir("serve_ingest", rep), cache)?;
        for i in 0..INGEST_SEEDED {
            let s = i % INGEST_SCENARIOS;
            ingest(&env, &built[s], s, snapshot_eb(i), i as u64, false)?;
        }
        let keys = env.keys.lock().expect("keys poisoned").clone();
        warm(&env, &keys[keys.len() - 2..])?;
        Ok((env, built))
    });
    let (env, built, setup_s, reps) = match setup {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    out.metric(Metric::new("setup_s", setup_s, "s").samples(reps));

    let secs = seconds as f64;
    let mut rng = Rng::seed(seed).fork(0x1a9);
    let phase = |rate| Phase { rate, secs };
    let reads = load::schedule(&[phase(READ_RATE)], &mut rng);
    let writes = load::schedule(&[phase(PUT_RATE)], &mut rng);
    let read_due: Vec<Duration> = reads.iter().map(|s| s.1).collect();
    let write_due: Vec<Duration> = writes.iter().map(|s| s.1).collect();
    // Recency rank per read, drawn up front: the k-th newest snapshot with
    // probability ∝ RECENCY_Q^k.
    let ranks: Vec<usize> = (0..read_due.len())
        .map(|_| (rng.f64().max(1e-12).ln() / RECENCY_Q.ln()).floor() as usize)
        .collect();
    trace::set_enabled(traced);
    let (read_samples, write_samples) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            load::run(&write_due, 1, GIVE_UP, |i| {
                let n = INGEST_SEEDED + i;
                let sc = n % INGEST_SCENARIOS;
                ingest(&env, &built[sc], sc, snapshot_eb(n), n as u64, traced)
            })
        });
        let reader = load::run(&read_due, 1, GIVE_UP, |i| {
            let key = {
                let keys = env.keys.lock().expect("keys poisoned");
                keys[keys.len() - 1 - ranks[i].min(keys.len() - 1)]
            };
            let rec = traced && i % 2 == 1;
            get(env.addr(), key, &env.shape(key), (1 << 32) + i as u64, rec)
        });
        (reader, writer.join().expect("writer thread panicked"))
    });
    trace::set_enabled(false);

    let all: Vec<usize> = (0..read_samples.len()).collect();
    report_gets(
        &mut out,
        &env,
        &read_samples,
        &all,
        secs,
        spec.slo_ms,
        traced,
    );
    let mut puts = Vec::new();
    for s in &write_samples {
        out.attempted += 1;
        match &s.result {
            Some(Ok((_, p))) => puts.push((s, *p)),
            Some(Err(e)) => out.fail(format!("put {}: {e}", s.index)),
            None => out.fail(format!("put {} never sent: writer gave up", s.index)),
        }
    }
    let put_ms: Vec<f64> = puts.iter().map(|(s, _)| ms(s.latency())).collect();
    out.note(format!(
        "{} puts; put latency p50 {:.3} ms, p90 {:.3} ms (due -> durable)",
        put_ms.len(),
        median(&put_ms),
        percentile(&put_ms, 90.0)
    ));
    if traced {
        let each =
            |f: &dyn Fn(&Put) -> f64| -> Vec<f64> { puts.iter().map(|(_, p)| f(p)).collect() };
        out.put("ingest.put_ms_p50", median(&put_ms), "ms");
        out.put("ingest.put_ms_p90", percentile(&put_ms, 90.0), "ms");
        out.put(
            "ingest.compress_ms_p50",
            median(&each(&|p| ms(p.compress))),
            "ms",
        );
        out.put(
            "artifact.encode_ms_p50",
            median(&each(&|p| ms(p.encode))),
            "ms",
        );
        out.put("store.put_ms_p50", median(&each(&|p| ms(p.put))), "ms");
        out.put(
            "store.put_ms_p90",
            percentile(&each(&|p| ms(p.put)), 90.0),
            "ms",
        );
        out.put(
            "store.put_bytes",
            each(&|p| p.bytes as f64).iter().sum(),
            "B",
        );
        overhead(&mut out, &read_samples, &all);
    }
    match score_stored(&env, &built) {
        Ok(scores) => quality_metrics(&mut out, &scores),
        Err(e) => out.fail(e),
    }
    env.stop();
    out
}

/// Error bound of the n-th ingested snapshot: distinct per snapshot, so
/// every artifact is new content even when scenarios repeat.
fn snapshot_eb(n: usize) -> f64 {
    REL_EB * (1.0 + n as f64 / 4096.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_quality_score_fails_the_run() {
        let mut ok = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        quality_metrics(&mut ok, &[(15.0, 64.0, 0.9999), (14.0, 63.0, 0.9998)]);
        assert!(ok.correct(), "{:?}", ok.errors);
        assert_eq!(ok.get("psnr_db"), Some(63.0));
        for bad in [(f64::NAN, 64.0, 0.9999), (15.0, f64::NAN, 0.9999), (15.0, 64.0, f64::NAN)] {
            let mut out = Outcome {
                attempted: 1,
                ..Outcome::default()
            };
            // The NaN sits before a finite score, where a fold would drop it.
            quality_metrics(&mut out, &[bad, (14.0, 63.0, 0.9998)]);
            assert!(!out.correct(), "{bad:?} passed");
            assert!(out.errors[0].contains("not finite"), "{:?}", out.errors);
        }
    }
}
