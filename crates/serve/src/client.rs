//! Blocking client for the serve protocol: one request per connection.
//!
//! The client is deliberately paranoid — it is the measurement instrument
//! for the torture and loadgen harnesses. Every frame is parsed under a
//! strict decode budget (a chaos-corrupted frame is a typed
//! `ProtocolError`, never a panic), every frame's *arrival* time is checked
//! against the request deadline plus a grace allowance, and a stream that
//! ends without `END` is classified as a deadline cut (valid progressive
//! prefix), not success.

use crate::proto::{
    self, EndFrame, LevelSummary, Op, Request, RespHeader, Status, MAX_RESPONSE_FRAME,
};
use amrviz_codec::DecodeBudget;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side classification of one exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Complete stream, all fabs clean.
    Ok,
    /// Complete stream, served with repaired fabs (`FLAG_DEGRADED`).
    Degraded,
    /// Header arrived but the stream was cut before `END` — the server hit
    /// its deadline mid-response. The received prefix is usable.
    CutShort,
    /// Typed shed (`RetryLater`).
    Shed,
    /// Typed `Timeout`.
    Timeout,
    /// Typed `NotFound`.
    NotFound,
    /// Typed `Corrupt`.
    Corrupt,
    /// Typed `BadRequest` / `ShuttingDown` / `Internal`.
    Refused,
    /// Connect or socket-level failure (includes chaos resets).
    IoError,
    /// A frame failed to parse (chaos corruption on the response path).
    ProtocolError,
}

impl Outcome {
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::CutShort => "cut_short",
            Outcome::Shed => "shed",
            Outcome::Timeout => "timeout",
            Outcome::NotFound => "not_found",
            Outcome::Corrupt => "corrupt",
            Outcome::Refused => "refused",
            Outcome::IoError => "io_error",
            Outcome::ProtocolError => "protocol_error",
        }
    }

    /// True when backing off and retrying the same request makes sense.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            Outcome::Shed | Outcome::Timeout | Outcome::IoError | Outcome::CutShort
        )
    }

    /// True when the client received *usable* hierarchy data (possibly a
    /// prefix).
    pub fn has_data(self) -> bool {
        matches!(self, Outcome::Ok | Outcome::Degraded | Outcome::CutShort)
    }
}

/// Everything observed during one exchange.
#[derive(Debug)]
pub struct Exchange {
    pub outcome: Outcome,
    pub header: Option<RespHeader>,
    pub levels: Vec<LevelSummary>,
    pub keys: Option<Vec<u64>>,
    /// STATS snapshot JSON (`Op::Stats` responses).
    pub stats: Option<String>,
    pub end: Option<EndFrame>,
    /// Wire bytes received (payloads only).
    pub bytes: u64,
    pub elapsed: Duration,
    /// Frames whose *arrival* was later than `deadline + grace` — the
    /// client-side check of the server's no-response-after-deadline
    /// invariant. Grace absorbs proxy/chaos delay and scheduling noise.
    pub late_frames: u64,
}

/// Client knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Socket connect/read/write timeout.
    pub io_timeout: Duration,
    /// Allowance past the request deadline before an arriving frame counts
    /// as late (network + chaos-delay + scheduling slack).
    pub grace: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            io_timeout: Duration::from_millis(3_000),
            grace: Duration::from_millis(500),
        }
    }
}

/// Performs one request against `addr` and classifies the result. Never
/// panics; every failure mode maps onto an [`Outcome`].
pub fn exchange(addr: SocketAddr, req: &Request, cfg: &ClientConfig) -> Exchange {
    let t0 = Instant::now();
    // Late-frame accounting only applies to ops with a deadline semantic.
    let late_cutoff = if req.op == Op::Get && req.deadline_ms > 0 {
        Some(t0 + Duration::from_millis(req.deadline_ms as u64) + cfg.grace)
    } else {
        None
    };
    let mut ex = Exchange {
        outcome: Outcome::IoError,
        header: None,
        levels: Vec::new(),
        keys: None,
        stats: None,
        end: None,
        bytes: 0,
        elapsed: Duration::ZERO,
        late_frames: 0,
    };
    let finish = |mut ex: Exchange| {
        ex.elapsed = t0.elapsed();
        ex
    };

    let mut stream = match TcpStream::connect_timeout(&addr, cfg.io_timeout) {
        Ok(s) => s,
        Err(_) => return finish(ex),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(cfg.io_timeout));
    // Read the answer even if the request write fails: a shed reply is
    // written without reading the request, and the server's close can
    // reset the connection under our write while the reply is already here.
    let _ = proto::write_frame(&mut stream, &req.encode());
    let budget = DecodeBudget::permissive();
    loop {
        let payload = match proto::read_frame(&mut stream, MAX_RESPONSE_FRAME) {
            Ok(Some(p)) => p,
            Ok(None) => {
                // Clean close. With a header but no END: deadline cut.
                ex.outcome = match ex.header {
                    Some(h) if ex.end.is_none() && h.status_streams_data() => Outcome::CutShort,
                    Some(_) => ex.outcome,
                    None => Outcome::IoError,
                };
                return finish(ex);
            }
            Err(_) => {
                if ex.header.is_some() && ex.end.is_none() {
                    // Mid-stream socket error after data: treat as a cut.
                    ex.outcome = Outcome::CutShort;
                } else {
                    ex.outcome = Outcome::IoError;
                }
                return finish(ex);
            }
        };
        ex.bytes += payload.len() as u64;
        if let Some(cutoff) = late_cutoff {
            if Instant::now() > cutoff {
                ex.late_frames += 1;
            }
        }
        let Some(&tag) = payload.first() else {
            ex.outcome = Outcome::ProtocolError;
            return finish(ex);
        };
        match tag {
            proto::TAG_HEADER => {
                let h = match RespHeader::decode(&payload) {
                    Ok(h) => h,
                    Err(_) => {
                        ex.outcome = Outcome::ProtocolError;
                        return finish(ex);
                    }
                };
                ex.header = Some(h);
                match h.status {
                    Status::Ok | Status::Degraded => {} // data follows
                    Status::RetryLater => ex.outcome = Outcome::Shed,
                    Status::Timeout => ex.outcome = Outcome::Timeout,
                    Status::NotFound => ex.outcome = Outcome::NotFound,
                    Status::Corrupt => ex.outcome = Outcome::Corrupt,
                    Status::BadRequest | Status::ShuttingDown | Status::Internal => {
                        ex.outcome = Outcome::Refused
                    }
                }
            }
            proto::TAG_LEVEL => match proto::decode_level_frame(&payload, &budget) {
                Ok(s) => ex.levels.push(s),
                Err(_) => {
                    ex.outcome = Outcome::ProtocolError;
                    return finish(ex);
                }
            },
            proto::TAG_KEYS => match proto::decode_keys_frame(&payload, &budget) {
                Ok(k) => ex.keys = Some(k),
                Err(_) => {
                    ex.outcome = Outcome::ProtocolError;
                    return finish(ex);
                }
            },
            proto::TAG_STATS => match proto::decode_stats_frame(&payload, &budget) {
                Ok(s) => ex.stats = Some(s),
                Err(_) => {
                    ex.outcome = Outcome::ProtocolError;
                    return finish(ex);
                }
            },
            proto::TAG_END => {
                let e = match EndFrame::decode(&payload) {
                    Ok(e) => e,
                    Err(_) => {
                        ex.outcome = Outcome::ProtocolError;
                        return finish(ex);
                    }
                };
                ex.end = Some(e);
                if let Some(h) = ex.header {
                    if h.status_streams_data() {
                        ex.outcome = if h.flags & proto::FLAG_DEGRADED != 0 {
                            Outcome::Degraded
                        } else {
                            Outcome::Ok
                        };
                    }
                }
                return finish(ex);
            }
            _ => {
                ex.outcome = Outcome::ProtocolError;
                return finish(ex);
            }
        }
    }
}

impl RespHeader {
    /// True when this header announces a data-bearing stream (LEVEL/KEYS
    /// frames follow before END).
    pub fn status_streams_data(&self) -> bool {
        matches!(self.status, Status::Ok | Status::Degraded)
    }
}
