//! The FIRMRES service wire protocol: length-prefixed, versioned binary
//! frames in the style of the FRAC cache codec.
//!
//! # Frame grammar
//!
//! ```text
//! frame    := u32_le body-length | body          body-length <= MAX_FRAME
//! body     := u8 tag | tag-specific fields
//! scalars  := little-endian (FRAC codec conventions)
//! strings  := u32_le length | UTF-8 bytes
//! ```
//!
//! A connection opens with a [`Request::Hello`] carrying the client's
//! [`PROTOCOL_VERSION`]; the server answers [`Response::HelloOk`] or
//! rejects with [`RejectReason::VersionMismatch`] and closes. After the
//! handshake the client sends [`Request`] frames and reads [`Response`]
//! frames; a `Submit` produces `Accepted` followed by zero or more
//! streamed `Event` frames and exactly one terminal frame (`Analysis`,
//! `Cancelled`), or a single `Rejected` when admission control refuses
//! the job.
//!
//! Decoding is panic-free: every read goes through the bounds-checked
//! [`Reader`] from the cache codec, every enum tag is validated, a frame
//! longer than [`MAX_FRAME`] is refused before allocation, and a frame
//! with trailing bytes after its message is rejected. Hostile input
//! surfaces as a [`WireError`], never a panic — the property tests in
//! `crates/service/tests/` hold the codec to that.
//!
//! The `Analysis` payload is the FRAC codec's [`put_analysis`] encoding
//! of the finished [`FirmwareAnalysis`] — the same bytes the analysis
//! cache persists — which is what makes "served result ≡ local result"
//! checkable byte-for-byte. An `Event` frame carries the codec's
//! [`put_event`] encoding (the one the unit banks store), and a
//! `Submit` carries its [`put_config`] bytes (the ones the cache key
//! fingerprints): the wire defines no encoding of its own for either.
//!
//! [`put_analysis`]: firmres_cache::codec::put_analysis
//! [`FirmwareAnalysis`]: firmres::FirmwareAnalysis

use bytes::BufMut;
use firmres::{AnalysisConfig, Event};
use firmres_cache::codec::{
    get_config, get_event, put_config, put_event, put_string, DecodeError, Reader,
};
use std::fmt;
use std::io::{Read, Write};

/// Version of this wire protocol. Bump on any frame-layout change,
/// including a change to the cache codec's event or config encoding,
/// which frames carry; the handshake refuses mismatched peers instead of
/// misparsing them.
pub const PROTOCOL_VERSION: u16 = 5;

/// Hard cap on one frame's body length. Larger length prefixes are
/// refused before any allocation: a hostile or corrupt 4-byte prefix
/// must not turn into a multi-gigabyte buffer.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Why reading, writing or decoding a frame failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying socket or stream failed.
    Io(String),
    /// A frame's declared body length exceeds [`MAX_FRAME`].
    FrameTooLarge {
        /// The declared length.
        len: u64,
    },
    /// The peer closed the connection between frames.
    ConnectionClosed,
    /// The frame body does not decode as a protocol message.
    Decode(String),
    /// The frame body decoded but left unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        left: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire io error: {e}"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::ConnectionClosed => write!(f, "connection closed"),
            WireError::Decode(e) => write!(f, "frame decode failed: {e}"),
            WireError::TrailingBytes { left } => {
                write!(f, "frame has {left} trailing byte(s) after the message")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e.0)
    }
}

/// How a `Submit` identifies the firmware to analyze.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitImage {
    /// The packed firmware container bytes ([`FirmwareImage::pack`]).
    ///
    /// [`FirmwareImage::pack`]: firmres_firmware::FirmwareImage::pack
    Bytes(Vec<u8>),
    /// The FNV-128 content hash of the packed bytes
    /// ([`content_hash_packed_wide`]): ask the server's cache for an
    /// existing entry without shipping the image.
    ///
    /// [`content_hash_packed_wide`]: firmres_firmware::content_hash_packed_wide
    Hash(u128),
}

/// A client-to-server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Handshake: the client's protocol version, first frame on every
    /// connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// Submit one firmware image for analysis.
    Submit {
        /// The image, by bytes or by content hash.
        image: SubmitImage,
        /// The analysis configuration the job must run under.
        config: AnalysisConfig,
        /// Stream pipeline [`Event`] frames while the job runs.
        want_events: bool,
        /// Per-request deadline in milliseconds (`0` = none). The job is
        /// cancelled at the next unit boundary once exceeded.
        deadline_ms: u64,
    },
    /// Ask for the server's current [`ServiceStatus`].
    Status,
    /// Cancel a job by id (queued jobs are removed, running jobs are
    /// signalled at the next unit boundary).
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// Stop admitting new jobs, finish everything in flight, then shut
    /// the server down. Answered with [`Response::DrainOk`] once idle.
    Drain,
}

/// Why the server refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The job queue is at capacity; retry after the given hint.
    QueueFull {
        /// Current queue depth (= the configured capacity).
        depth: u32,
        /// Suggested client back-off before resubmitting.
        retry_after_ms: u64,
    },
    /// This connection already has its maximum number of jobs in flight.
    InFlightCap {
        /// The per-connection cap.
        cap: u32,
    },
    /// The server is draining and admits no new jobs.
    Draining,
    /// The handshake versions do not match.
    VersionMismatch {
        /// The server's [`PROTOCOL_VERSION`].
        server: u16,
    },
    /// A hash submission found no cache entry (the server cannot analyze
    /// bytes it does not have).
    UnknownImage,
    /// The request was malformed or arrived out of protocol order.
    BadRequest {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull {
                depth,
                retry_after_ms,
            } => write!(
                f,
                "queue full at depth {depth}; retry after {retry_after_ms} ms"
            ),
            RejectReason::InFlightCap { cap } => {
                write!(f, "connection in-flight cap of {cap} reached")
            }
            RejectReason::Draining => write!(f, "server is draining"),
            RejectReason::VersionMismatch { server } => {
                write!(f, "protocol version mismatch (server speaks v{server})")
            }
            RejectReason::UnknownImage => write!(f, "image hash not in the server cache"),
            RejectReason::BadRequest { detail } => write!(f, "bad request: {detail}"),
        }
    }
}

/// Where a job was when a `Cancel` found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// No queued or running job had that id.
    Unknown,
    /// The job was still queued and has been removed.
    Queued,
    /// The job was running and has been signalled to stop.
    Running,
}

/// A point-in-time snapshot of the server, served on [`Request::Status`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStatus {
    /// Jobs waiting in the queue.
    pub queue_depth: u32,
    /// The queue's configured capacity.
    pub queue_cap: u32,
    /// Jobs currently executing on workers.
    pub inflight: u32,
    /// Jobs completed successfully since startup (cache hits included).
    pub jobs_served: u64,
    /// Submissions refused by admission control.
    pub jobs_rejected: u64,
    /// Jobs cancelled (explicitly or by deadline).
    pub jobs_cancelled: u64,
    /// Submissions answered straight from the analysis cache.
    pub cache_hits: u64,
    /// Submissions that had to run the pipeline.
    pub cache_misses: u64,
    /// Message units spliced from unit-granular artifacts while
    /// re-analyzing cache misses.
    pub unit_hits: u64,
    /// Message units re-executed while re-analyzing cache misses.
    pub unit_misses: u64,
    /// Functions hash-matched against the known-library index across
    /// pipeline runs (0 when the server holds no index).
    pub lib_fns_matched: u64,
    /// Library-body traversals replaced by summary replay.
    pub lib_traversals_skipped: u64,
    /// Taint-tree nodes emitted by summary replay.
    pub lib_summary_applies: u64,
    /// Slice classifications the certified None pre-filter skipped
    /// scoring for.
    pub prefilter_skips: u64,
    /// Whether the server is draining.
    pub draining: bool,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The server's [`PROTOCOL_VERSION`].
        version: u16,
    },
    /// The submission passed admission control and was assigned an id.
    Accepted {
        /// The job's server-wide id.
        job_id: u64,
    },
    /// The request was refused.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// One streamed pipeline event of a running job.
    Event {
        /// The job the event belongs to.
        job_id: u64,
        /// The bridged pipeline event.
        event: Event,
    },
    /// Terminal frame: the finished analysis.
    Analysis {
        /// The job that produced it.
        job_id: u64,
        /// Whether it was served from the analysis cache without running
        /// the pipeline.
        from_cache: bool,
        /// The FRAC-codec encoding of the [`FirmwareAnalysis`]
        /// ([`put_analysis`] bytes).
        ///
        /// [`put_analysis`]: firmres_cache::codec::put_analysis
        /// [`FirmwareAnalysis`]: firmres::FirmwareAnalysis
        payload: Vec<u8>,
    },
    /// Terminal frame: the job was cancelled before completing.
    Cancelled {
        /// The cancelled job.
        job_id: u64,
        /// Human-readable cause (`"cancelled"`, `"deadline exceeded"`).
        reason: String,
    },
    /// Answer to [`Request::Cancel`].
    CancelOk {
        /// The job the cancel targeted.
        job_id: u64,
        /// Where the cancel found it.
        state: JobState,
    },
    /// Answer to [`Request::Status`].
    StatusInfo(ServiceStatus),
    /// Answer to [`Request::Drain`]: every in-flight job has finished.
    DrainOk {
        /// Total jobs served over the server's lifetime.
        jobs_served: u64,
    },
}

// ---- frame IO -----------------------------------------------------------

/// Write one length-prefixed frame.
///
/// The prefix and body go out as one buffer in one write: a split write
/// of a small frame would trip TCP's Nagle/delayed-ACK interaction and
/// stall every request/response round-trip by tens of milliseconds.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<(), WireError> {
    if body.len() > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            len: body.len() as u64,
        });
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| WireError::Io(e.to_string()))
}

/// Read one length-prefixed frame body, enforcing [`MAX_FRAME`].
///
/// A clean EOF before the length prefix is [`WireError::ConnectionClosed`]
/// (the peer hung up between frames); EOF mid-frame is an I/O error.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Err(WireError::ConnectionClosed),
            Ok(0) => return Err(WireError::Io("eof inside frame length".to_string())),
            Ok(n) => filled += n,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| WireError::Io(e.to_string()))?;
    Ok(body)
}

fn done<T>(value: T, r: &Reader<'_>) -> Result<T, WireError> {
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes {
            left: r.remaining(),
        });
    }
    Ok(value)
}

// ---- leaf encodings -----------------------------------------------------

fn put_reject_reason(out: &mut Vec<u8>, reason: &RejectReason) {
    match reason {
        RejectReason::QueueFull {
            depth,
            retry_after_ms,
        } => {
            out.put_u8(0);
            out.put_u32_le(*depth);
            out.put_u64_le(*retry_after_ms);
        }
        RejectReason::InFlightCap { cap } => {
            out.put_u8(1);
            out.put_u32_le(*cap);
        }
        RejectReason::Draining => out.put_u8(2),
        RejectReason::VersionMismatch { server } => {
            out.put_u8(3);
            out.put_u16_le(*server);
        }
        RejectReason::UnknownImage => out.put_u8(4),
        RejectReason::BadRequest { detail } => {
            out.put_u8(5);
            put_string(out, detail);
        }
    }
}

fn get_reject_reason(r: &mut Reader) -> Result<RejectReason, WireError> {
    Ok(match r.u8()? {
        0 => RejectReason::QueueFull {
            depth: r.u32()?,
            retry_after_ms: r.u64()?,
        },
        1 => RejectReason::InFlightCap { cap: r.u32()? },
        2 => RejectReason::Draining,
        3 => RejectReason::VersionMismatch { server: r.u16()? },
        4 => RejectReason::UnknownImage,
        5 => RejectReason::BadRequest {
            detail: r.string()?,
        },
        t => return Err(WireError::Decode(format!("invalid RejectReason tag {t}"))),
    })
}

fn put_status(out: &mut Vec<u8>, s: &ServiceStatus) {
    out.put_u32_le(s.queue_depth);
    out.put_u32_le(s.queue_cap);
    out.put_u32_le(s.inflight);
    out.put_u64_le(s.jobs_served);
    out.put_u64_le(s.jobs_rejected);
    out.put_u64_le(s.jobs_cancelled);
    out.put_u64_le(s.cache_hits);
    out.put_u64_le(s.cache_misses);
    out.put_u64_le(s.unit_hits);
    out.put_u64_le(s.unit_misses);
    out.put_u64_le(s.lib_fns_matched);
    out.put_u64_le(s.lib_traversals_skipped);
    out.put_u64_le(s.lib_summary_applies);
    out.put_u64_le(s.prefilter_skips);
    out.put_u8(s.draining as u8);
}

fn get_status(r: &mut Reader) -> Result<ServiceStatus, WireError> {
    Ok(ServiceStatus {
        queue_depth: r.u32()?,
        queue_cap: r.u32()?,
        inflight: r.u32()?,
        jobs_served: r.u64()?,
        jobs_rejected: r.u64()?,
        jobs_cancelled: r.u64()?,
        cache_hits: r.u64()?,
        cache_misses: r.u64()?,
        unit_hits: r.u64()?,
        unit_misses: r.u64()?,
        lib_fns_matched: r.u64()?,
        lib_traversals_skipped: r.u64()?,
        lib_summary_applies: r.u64()?,
        prefilter_skips: r.u64()?,
        draining: r.boolean()?,
    })
}

// ---- messages -----------------------------------------------------------

impl Request {
    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello { version } => {
                out.put_u8(0);
                out.put_u16_le(*version);
            }
            Request::Submit {
                image,
                config,
                want_events,
                deadline_ms,
            } => {
                out.put_u8(1);
                match image {
                    SubmitImage::Bytes(bytes) => {
                        out.put_u8(0);
                        out.put_u32_le(bytes.len() as u32);
                        out.put_slice(bytes);
                    }
                    SubmitImage::Hash(hash) => {
                        out.put_u8(1);
                        out.put_u128_le(*hash);
                    }
                }
                put_config(&mut out, config);
                out.put_u8(*want_events as u8);
                out.put_u64_le(*deadline_ms);
            }
            Request::Status => out.put_u8(2),
            Request::Cancel { job_id } => {
                out.put_u8(3);
                out.put_u64_le(*job_id);
            }
            Request::Drain => out.put_u8(4),
        }
        out
    }

    /// Decode a frame body. The whole body must be consumed.
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(body);
        let req = match r.u8()? {
            0 => Request::Hello { version: r.u16()? },
            1 => {
                let image = match r.u8()? {
                    0 => {
                        let len = r.u32()? as usize;
                        SubmitImage::Bytes(r.bytes(len)?.to_vec())
                    }
                    1 => SubmitImage::Hash(r.u128()?),
                    t => {
                        return Err(WireError::Decode(format!("invalid SubmitImage tag {t}")));
                    }
                };
                Request::Submit {
                    image,
                    config: get_config(&mut r)?,
                    want_events: r.boolean()?,
                    deadline_ms: r.u64()?,
                }
            }
            2 => Request::Status,
            3 => Request::Cancel { job_id: r.u64()? },
            4 => Request::Drain,
            t => return Err(WireError::Decode(format!("invalid Request tag {t}"))),
        };
        done(req, &r)
    }
}

impl Response {
    /// Encode into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::HelloOk { version } => {
                out.put_u8(0);
                out.put_u16_le(*version);
            }
            Response::Accepted { job_id } => {
                out.put_u8(1);
                out.put_u64_le(*job_id);
            }
            Response::Rejected { reason } => {
                out.put_u8(2);
                put_reject_reason(&mut out, reason);
            }
            Response::Event { job_id, event } => {
                out.put_u8(3);
                out.put_u64_le(*job_id);
                put_event(&mut out, event);
            }
            Response::Analysis {
                job_id,
                from_cache,
                payload,
            } => {
                out.put_u8(4);
                out.put_u64_le(*job_id);
                out.put_u8(*from_cache as u8);
                out.put_u32_le(payload.len() as u32);
                out.put_slice(payload);
            }
            Response::Cancelled { job_id, reason } => {
                out.put_u8(5);
                out.put_u64_le(*job_id);
                put_string(&mut out, reason);
            }
            Response::CancelOk { job_id, state } => {
                out.put_u8(6);
                out.put_u64_le(*job_id);
                out.put_u8(match state {
                    JobState::Unknown => 0,
                    JobState::Queued => 1,
                    JobState::Running => 2,
                });
            }
            Response::StatusInfo(status) => {
                out.put_u8(7);
                put_status(&mut out, status);
            }
            Response::DrainOk { jobs_served } => {
                out.put_u8(8);
                out.put_u64_le(*jobs_served);
            }
        }
        out
    }

    /// Decode a frame body. The whole body must be consumed.
    pub fn decode(body: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(body);
        let resp = match r.u8()? {
            0 => Response::HelloOk { version: r.u16()? },
            1 => Response::Accepted { job_id: r.u64()? },
            2 => Response::Rejected {
                reason: get_reject_reason(&mut r)?,
            },
            3 => Response::Event {
                job_id: r.u64()?,
                event: get_event(&mut r)?,
            },
            4 => {
                let job_id = r.u64()?;
                let from_cache = r.boolean()?;
                let len = r.u32()? as usize;
                Response::Analysis {
                    job_id,
                    from_cache,
                    payload: r.bytes(len)?.to_vec(),
                }
            }
            5 => Response::Cancelled {
                job_id: r.u64()?,
                reason: r.string()?,
            },
            6 => Response::CancelOk {
                job_id: r.u64()?,
                state: match r.u8()? {
                    0 => JobState::Unknown,
                    1 => JobState::Queued,
                    2 => JobState::Running,
                    t => {
                        return Err(WireError::Decode(format!("invalid JobState tag {t}")));
                    }
                },
            },
            7 => Response::StatusInfo(get_status(&mut r)?),
            8 => Response::DrainOk {
                jobs_served: r.u64()?,
            },
            t => return Err(WireError::Decode(format!("invalid Response tag {t}"))),
        };
        done(resp, &r)
    }
}

/// Write `request` as one frame.
pub fn send_request(w: &mut impl Write, request: &Request) -> Result<(), WireError> {
    write_frame(w, &request.encode())
}

/// Write `response` as one frame.
pub fn send_response(w: &mut impl Write, response: &Response) -> Result<(), WireError> {
    write_frame(w, &response.encode())
}

/// Read and decode one request frame.
pub fn read_request(r: &mut impl Read) -> Result<Request, WireError> {
    Request::decode(&read_frame(r)?)
}

/// Read and decode one response frame.
pub fn read_response(r: &mut impl Read) -> Result<Response, WireError> {
    Response::decode(&read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmres::{Counter, Diagnostic, Severity, StageKind};
    use firmres_cache::config_fingerprint;
    use std::time::Duration;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn request_round_trip(req: &Request) -> Request {
        Request::decode(&req.encode()).expect("round trip decodes")
    }

    fn response_round_trip(resp: &Response) -> Response {
        Response::decode(&resp.encode()).expect("round trip decodes")
    }

    #[test]
    fn requests_round_trip() {
        let mut config = AnalysisConfig::default();
        config.taint.max_depth = 7;
        config.exeid.score_threshold = 0.625;
        for req in [
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
            Request::Submit {
                image: SubmitImage::Bytes(vec![1, 2, 3, 4]),
                config: config.clone(),
                want_events: true,
                deadline_ms: 1500,
            },
            Request::Submit {
                image: SubmitImage::Hash(0xDEAD_BEEF_u128 << 64 | 0x1234),
                config: AnalysisConfig::default(),
                want_events: false,
                deadline_ms: 0,
            },
            Request::Status,
            Request::Cancel { job_id: 42 },
            Request::Drain,
        ] {
            let back = request_round_trip(&req);
            assert_eq!(back.encode(), req.encode());
            if let (Request::Submit { config: a, .. }, Request::Submit { config: b, .. }) =
                (&req, &back)
            {
                // The config fingerprint — the cache identity — survives
                // the wire exactly.
                assert_eq!(config_fingerprint(a), config_fingerprint(b));
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::HelloOk {
                version: PROTOCOL_VERSION,
            },
            Response::Accepted { job_id: 7 },
            Response::Rejected {
                reason: RejectReason::QueueFull {
                    depth: 32,
                    retry_after_ms: 250,
                },
            },
            Response::Rejected {
                reason: RejectReason::BadRequest {
                    detail: "submit before hello".to_string(),
                },
            },
            Response::Event {
                job_id: 3,
                event: Event::StageFinished(StageKind::FieldId, Duration::from_micros(1234)),
            },
            Response::Event {
                job_id: 3,
                event: Event::Diagnostic(Diagnostic::new(
                    StageKind::Semantics,
                    Severity::Info,
                    "f@0x100",
                    "fallback",
                )),
            },
            Response::Analysis {
                job_id: 9,
                from_cache: true,
                payload: vec![0xAA; 100],
            },
            Response::Cancelled {
                job_id: 9,
                reason: "deadline exceeded".to_string(),
            },
            Response::CancelOk {
                job_id: 9,
                state: JobState::Queued,
            },
            Response::StatusInfo(ServiceStatus {
                queue_depth: 1,
                queue_cap: 8,
                inflight: 2,
                jobs_served: 100,
                jobs_rejected: 3,
                jobs_cancelled: 1,
                cache_hits: 60,
                cache_misses: 40,
                unit_hits: 512,
                unit_misses: 9,
                lib_fns_matched: 12,
                lib_traversals_skipped: 34,
                lib_summary_applies: 56,
                prefilter_skips: 90,
                draining: true,
            }),
            Response::DrainOk { jobs_served: 100 },
        ] {
            let back = response_round_trip(&resp);
            assert_eq!(back.encode(), resp.encode());
        }
    }

    #[test]
    fn every_event_kind_survives_the_wire() {
        let counts = Counter::ALL.iter().map(|&c| Event::Count(c, 9));
        for ev in [
            Event::StageStarted(StageKind::ExeId),
            Event::StageFinished(StageKind::FormCheck, Duration::from_nanos(17)),
            Event::Diagnostic(Diagnostic::bare(StageKind::Cache, Severity::Warning, "w")),
        ]
        .into_iter()
        .chain(counts)
        {
            let resp = Response::Event {
                job_id: 1,
                event: ev.clone(),
            };
            match response_round_trip(&resp) {
                Response::Event { event, .. } => assert_eq!(event, ev),
                other => panic!("decoded to {other:?}"),
            }
        }
    }

    /// Event frames captured from the wire's own event encoder before
    /// it was replaced by the cache codec's: clients keep decoding them.
    #[test]
    fn event_frame_bytes_are_pinned() {
        let frame = |event| hex(&Response::Event { job_id: 7, event }.encode());
        assert_eq!(
            frame(Event::Count(
                Counter::LibSummaryApplies,
                0x0102_0304_0506_0708
            )),
            "030700000000000000020d0807060504030201"
        );
        assert_eq!(
            frame(Event::StageFinished(
                StageKind::Semantics,
                Duration::from_nanos(1_234_567)
            )),
            "030700000000000000010387d6120000000000"
        );
        assert_eq!(
            frame(Event::Diagnostic(Diagnostic::new(
                StageKind::Cache,
                Severity::Warning,
                "f@0x100",
                "fallback"
            ))),
            "0307000000000000000306010107000000664030783130300800000066616c6c6261636b"
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::Status.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::TrailingBytes { left: 1 })
        ));
        let mut body = Response::Accepted { job_id: 1 }.encode();
        body.extend_from_slice(&[1, 2]);
        assert_eq!(
            Response::decode(&body),
            Err(WireError::TrailingBytes { left: 2 })
        );
    }

    #[test]
    fn frame_io_round_trips_and_caps_length() {
        let mut buf = Vec::new();
        send_request(&mut buf, &Request::Cancel { job_id: 5 }).unwrap();
        let mut cursor = &buf[..];
        match read_request(&mut cursor).unwrap() {
            Request::Cancel { job_id } => assert_eq!(job_id, 5),
            other => panic!("decoded to {other:?}"),
        }
        // A second read on the drained stream reports a clean close.
        assert_eq!(read_frame(&mut cursor), Err(WireError::ConnectionClosed));

        // A hostile length prefix is refused before allocation.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert_eq!(
            read_frame(&mut &huge[..]),
            Err(WireError::FrameTooLarge {
                len: MAX_FRAME as u64 + 1
            })
        );
    }

    #[test]
    fn bad_tags_error_cleanly() {
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[99]).is_err());
        assert!(Request::decode(&[]).is_err());
        // Submit with an invalid image tag.
        assert!(Request::decode(&[1, 7]).is_err());
        // Event with an invalid counter tag.
        let mut body = vec![3];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.push(2); // Event::Count
        body.push(200); // bad counter tag
        body.extend_from_slice(&1u64.to_le_bytes());
        assert!(Response::decode(&body).is_err());
    }
}
