//! The `ldcd` wire grammar (DESIGN.md §15): versioned JSON request and
//! response payloads carried inside [`crate::wire`] frames.
//!
//! Every payload is a JSON object whose **first** member is the schema
//! version, `"v":1` — the same version number as [`ldc_batch::SPEC_VERSION`],
//! because a solve request embeds a [`JobSpec`] and the two schemas
//! evolve together. Unlike the spec file format (where a missing `"v"`
//! is read as version 1, so pre-versioning fixtures keep parsing), a
//! wire frame must carry the field explicitly: peers negotiate nothing,
//! so the version is the only compatibility signal.
//!
//! Malformed payloads map to typed [`Response::Error`] codes and never
//! tear down the connection — the frame boundary is intact, so the next
//! frame is readable regardless of what this one contained:
//!
//! | code           | meaning                                          |
//! |----------------|--------------------------------------------------|
//! | `bad_frame`    | payload is not UTF-8 or not JSON                 |
//! | `bad_version`  | missing or unsupported `"v"`                     |
//! | `unknown_type` | `"type"` absent or not a known request           |
//! | `bad_request`  | well-typed envelope, invalid fields (bad JobSpec)|
//! | `busy`         | admission queue full (carried by `Busy`, not `Error`) |
//! | `draining`     | server is shutting down; no new solves           |
//!
//! A `result` response renders its `row` as the **final** member, raw:
//! the row bytes are exactly one line of `ldc batch` output, and keeping
//! them last lets clients recover them byte-for-byte by slicing the
//! envelope (see [`Response::split_result`]) instead of re-serialising
//! through a JSON tree, which would not be byte-stable.

use ldc_batch::jsonin::Value;
use ldc_batch::{JobSpec, SPEC_VERSION};
use ldc_sim::json::Obj;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Solve one job. `id` is an opaque client-chosen correlation number
    /// echoed in the response **and** used as the job index in the
    /// result row (so replaying a spec file with `id = position` yields
    /// rows byte-identical to `ldc batch`).
    Solve {
        /// Correlation id, echoed back and used as the row's job index.
        id: u64,
        /// The job to run, same schema as one `ldc batch` spec entry
        /// (boxed: a spec dwarfs every other variant).
        job: Box<JobSpec>,
    },
    /// Request a deterministic telemetry registry snapshot.
    Stats,
    /// Ask the server to drain and exit.
    Shutdown,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A completed solve: the correlation id and the raw JSONL row.
    Result {
        /// The `id` from the matching [`Request::Solve`].
        id: u64,
        /// One row of `ldc batch` output (a JSON object, no newline).
        row: String,
    },
    /// Admission queue full; retry after the hinted backoff.
    Busy {
        /// Server's backoff hint in milliseconds.
        retry_after_ms: u64,
    },
    /// A typed failure (see the module table for codes).
    Error {
        /// Machine-readable code.
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Deterministic registry snapshot (counters/gauges/histograms).
    Stats {
        /// The registry rendered by `Registry::to_json` — raw JSON.
        det: String,
    },
}

/// A typed parse failure: `(code, message)` ready to wrap in
/// [`Response::Error`].
pub type ProtoError = (&'static str, String);

impl Request {
    /// Parse one request payload, enforcing the explicit `"v":1`.
    pub fn parse(payload: &[u8]) -> Result<Request, ProtoError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| ("bad_frame", format!("payload is not UTF-8: {e}")))?;
        let v =
            Value::parse(text).map_err(|e| ("bad_frame", format!("payload is not JSON: {e}")))?;
        match v.get("v").and_then(Value::as_u64) {
            Some(SPEC_VERSION) => {}
            Some(other) => {
                return Err((
                    "bad_version",
                    format!("unsupported wire version {other} (supported: {SPEC_VERSION})"),
                ))
            }
            None => {
                return Err((
                    "bad_version",
                    "wire frames must carry an explicit numeric \"v\"".to_string(),
                ))
            }
        }
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| ("unknown_type", "missing string field \"type\"".to_string()))?;
        match ty {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "solve" => {
                let id = v
                    .get("id")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ("bad_request", "solve needs a numeric \"id\"".to_string()))?;
                let job = v
                    .require("job")
                    .and_then(JobSpec::from_json)
                    .map_err(|e| ("bad_request", format!("bad job: {e}")))?;
                Ok(Request::Solve {
                    id,
                    job: Box::new(job),
                })
            }
            other => Err((
                "unknown_type",
                format!(
                    "unknown request type {:?} (expected ping|solve|stats|shutdown)",
                    other
                ),
            )),
        }
    }

    /// Render this request as a wire payload (version first).
    pub fn render(&self) -> String {
        match self {
            Request::Ping => envelope("ping").finish(),
            Request::Stats => envelope("stats").finish(),
            Request::Shutdown => envelope("shutdown").finish(),
            Request::Solve { id, job } => envelope("solve")
                .u64("id", *id)
                .raw("job", &job.to_json())
                .finish(),
        }
    }
}

impl Response {
    /// Parse one response payload (used by clients; also version-checked).
    pub fn parse(payload: &[u8]) -> Result<Response, ProtoError> {
        let text = std::str::from_utf8(payload)
            .map_err(|e| ("bad_frame", format!("payload is not UTF-8: {e}")))?;
        if let Some((id, row)) = Response::split_result(text) {
            return Ok(Response::Result {
                id,
                row: row.to_string(),
            });
        }
        let v =
            Value::parse(text).map_err(|e| ("bad_frame", format!("payload is not JSON: {e}")))?;
        match v.get("v").and_then(Value::as_u64) {
            Some(SPEC_VERSION) => {}
            _ => return Err(("bad_version", "response missing \"v\":1".to_string())),
        }
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| ("unknown_type", "missing string field \"type\"".to_string()))?;
        match ty {
            "pong" => Ok(Response::Pong),
            "busy" => Ok(Response::Busy {
                retry_after_ms: v
                    .get("retry_after_ms")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ("bad_request", "busy needs retry_after_ms".to_string()))?,
            }),
            "error" => {
                let field = |k: &str| {
                    v.get(k)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or(("bad_request", format!("error needs string {k:?}")))
                };
                Ok(Response::Error {
                    code: field("code")?,
                    message: field("message")?,
                })
            }
            "stats" => {
                // Like result rows, the det snapshot is the raw final
                // member; recover it by slicing.
                const PREFIX: &str = "{\"v\":1,\"type\":\"stats\",\"det\":";
                let det = text
                    .strip_prefix(PREFIX)
                    .and_then(|rest| rest.strip_suffix('}'))
                    .ok_or(("bad_frame", "malformed stats envelope".to_string()))?;
                Ok(Response::Stats {
                    det: det.to_string(),
                })
            }
            other => Err(("unknown_type", format!("unknown response type {other:?}"))),
        }
    }

    /// Render this response as a wire payload (version first; `row` and
    /// `det` last and raw, per the module contract).
    pub fn render(&self) -> String {
        match self {
            Response::Pong => envelope("pong").finish(),
            Response::Result { id, row } => {
                envelope("result").u64("id", *id).raw("row", row).finish()
            }
            Response::Busy { retry_after_ms } => envelope("busy")
                .u64("retry_after_ms", *retry_after_ms)
                .finish(),
            Response::Error { code, message } => envelope("error")
                .str("code", code)
                .str("message", message)
                .finish(),
            Response::Stats { det } => envelope("stats").raw("det", det).finish(),
        }
    }

    /// If `text` is a `result` envelope, split it into `(id, row bytes)`
    /// without JSON re-serialisation. The row is the final member, so
    /// the slice is exact: everything between `"row":` and the closing
    /// brace of the envelope.
    pub fn split_result(text: &str) -> Option<(u64, &str)> {
        const HEAD: &str = "{\"v\":1,\"type\":\"result\",\"id\":";
        let rest = text.strip_prefix(HEAD)?;
        let comma = rest.find(',')?;
        let id: u64 = rest[..comma].parse().ok()?;
        let row = rest[comma + 1..]
            .strip_prefix("\"row\":")?
            .strip_suffix('}')?;
        Some((id, row))
    }
}

/// Shorthand for typed-error responses from a [`ProtoError`].
pub fn error_response((code, message): ProtoError) -> Response {
    Response::Error {
        code: code.to_string(),
        message,
    }
}

fn envelope(ty: &str) -> Obj {
    Obj::new().u64("v", SPEC_VERSION).str("type", ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldc_batch::parse_spec_file;

    fn sample_job() -> JobSpec {
        parse_spec_file(r#"[{"graph":{"family":"ring","n":8},"algorithm":"congest"}]"#)
            .unwrap()
            .remove(0)
    }

    #[test]
    fn requests_round_trip_through_render_and_parse() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Solve {
                id: 42,
                job: Box::new(sample_job()),
            },
        ];
        for req in reqs {
            let bytes = req.render();
            assert!(bytes.starts_with("{\"v\":1,"), "version leads: {bytes}");
            assert_eq!(Request::parse(bytes.as_bytes()).unwrap(), req);
        }
    }

    #[test]
    fn version_is_mandatory_and_checked_on_the_wire() {
        let (code, _) = Request::parse(b"{\"type\":\"ping\"}").unwrap_err();
        assert_eq!(code, "bad_version");
        let (code, _) = Request::parse(b"{\"v\":2,\"type\":\"ping\"}").unwrap_err();
        assert_eq!(code, "bad_version");
        let (code, _) = Request::parse(b"{\"v\":\"one\",\"type\":\"ping\"}").unwrap_err();
        assert_eq!(code, "bad_version");
    }

    #[test]
    fn malformed_payloads_map_to_typed_codes() {
        let cases: [(&[u8], &str); 5] = [
            (b"\xff\xfe", "bad_frame"),
            (b"not json", "bad_frame"),
            (b"{\"v\":1}", "unknown_type"),
            (b"{\"v\":1,\"type\":\"dance\"}", "unknown_type"),
            (
                b"{\"v\":1,\"type\":\"solve\",\"id\":1,\"job\":{\"algorithm\":\"congest\"}}",
                "bad_request",
            ),
        ];
        for (payload, want) in cases {
            let (code, _) = Request::parse(payload).unwrap_err();
            assert_eq!(code, want, "payload {:?}", String::from_utf8_lossy(payload));
        }
        // solve without an id is also bad_request
        let (code, _) = Request::parse(b"{\"v\":1,\"type\":\"solve\",\"job\":{}}").unwrap_err();
        assert_eq!(code, "bad_request");
        // Nesting past the JSON reader's depth bound is malformed JSON.
        let (code, _) = Request::parse("[".repeat(200_000).as_bytes()).unwrap_err();
        assert_eq!(code, "bad_frame");
    }

    #[test]
    fn result_rows_survive_the_envelope_byte_for_byte() {
        let row = r#"{"job":7,"spec":{"v":1,"graph":{"family":"ring","n":8}},"status":"ok","weird":" \" }{"}"#;
        let resp = Response::Result {
            id: 7,
            row: row.to_string(),
        };
        let bytes = resp.render();
        let (id, sliced) = Response::split_result(&bytes).unwrap();
        assert_eq!(id, 7);
        assert_eq!(sliced, row);
        assert_eq!(Response::parse(bytes.as_bytes()).unwrap(), resp);
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Pong,
            Response::Busy { retry_after_ms: 50 },
            Response::Error {
                code: "draining".into(),
                message: "shutting down".into(),
            },
            Response::Stats {
                det: "{\"counters\":{},\"gauges\":{},\"histograms\":{}}".into(),
            },
        ];
        for resp in resps {
            let bytes = resp.render();
            assert!(bytes.starts_with("{\"v\":1,"), "version leads: {bytes}");
            assert_eq!(Response::parse(bytes.as_bytes()).unwrap(), resp);
        }
    }
}
