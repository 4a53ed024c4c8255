//! The versioned wire schema: one typed surface shared by the daemon, the
//! client, the bench CLI, and tests — no ad-hoc JSON anywhere.
//!
//! # Protocol
//!
//! Newline-delimited JSON over a TCP socket. Every line is one message: a JSON
//! object whose `type` field selects the payload shape, with the remaining keys
//! being exactly the fields of the corresponding struct below. Every message
//! carries `schema_version` ([`API_SCHEMA_VERSION`], currently 1) and a
//! client-chosen `id` that the server echoes back, so clients can correlate
//! replies. Field sets are pinned by `tests/api_schema.rs`.
//!
//! Request types:
//!
//! * `place` — [`PlaceRequest`]: place a graph (inline or by registered key) on
//!   a machine under a named policy family.
//! * `register_graph` — [`RegisterGraphRequest`]: upload a graph once, get back
//!   a content-addressed `graph_key` for cheap repeated `place` lines.
//!
//! Reply types (`place_result` — [`PlaceResponse`]; `register_graph_result` —
//! [`RegisterGraphResponse`]) carry either a result or a typed [`ApiError`];
//! malformed lines get a `place_result` with `id: 0` and a `protocol` error
//! instead of a dropped connection.

use eagle_devsim::Machine;
use eagle_opgraph::OpGraph;
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::error::EagleError;

/// Version of the wire schema this build speaks. Bump whenever any message's
/// field set or meaning changes; servers reject other versions with a typed
/// [`ErrorCode::SchemaVersion`] reply instead of misreading silently.
pub const API_SCHEMA_VERSION: u64 = 1;

/// Machine-readable failure class of a reply; the stable part clients branch on
/// (the `message` is prose and may change).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ErrorCode {
    Protocol,
    SchemaVersion,
    BadRequest,
    UnknownFamily,
    UnknownGraphKey,
    PolicyMismatch,
    Infeasible,
    Overloaded,
    DeadlineExceeded,
    Internal,
}

/// A typed error reply.
///
/// Decoding tolerates a missing `retry_after_ms` (treated as `null`), so
/// replies from pre-admission-control servers still parse — the field is an
/// additive, optional extension of schema v1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiError {
    /// Failure class.
    pub code: ErrorCode,
    /// Human-readable detail (not stable; do not parse).
    pub message: String,
    /// For [`ErrorCode::Overloaded`] replies: the server's estimate of when
    /// retrying is likely to be admitted, in milliseconds. `null` otherwise.
    pub retry_after_ms: Option<u64>,
}

/// A placement request: place `graph` (or the graph registered under
/// `graph_key`) on `machine` using the policy published for `family`.
///
/// Decoding tolerates a missing `deadline_ms` (treated as `null`), so lines
/// from pre-admission-control clients still parse — the field is an additive,
/// optional extension of schema v1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlaceRequest {
    /// Wire schema version; must equal [`API_SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Client-chosen correlation id, echoed in the reply.
    pub id: u64,
    /// Policy family key in the server's policy store (e.g. `"inception_v3"`).
    /// `null` (or absent) means "no family preference": the server answers with
    /// its generalist policy (the multi-graph-trained fallback family) — the
    /// zero-shot path for graphs no specialist was ever trained on.
    pub family: Option<String>,
    /// Inline op graph. Exactly one of `graph` / `graph_key` must be set.
    pub graph: Option<OpGraph>,
    /// Key of a previously registered graph (see [`RegisterGraphRequest`]).
    pub graph_key: Option<String>,
    /// Target machine; `null` means the server's default (the paper machine).
    pub machine: Option<Machine>,
    /// Number of candidate placements to sample (best by predicted step time
    /// wins); `0` means the server default of 1.
    pub candidates: u32,
    /// Seed for the candidate-sampling RNG. Placements are a deterministic
    /// function of (policy version, graph, machine, candidates, seed),
    /// independent of what other requests share the wave.
    pub seed: u64,
    /// Optional deadline budget in milliseconds, measured from the server's
    /// admission of the request. A request that would expire before its wave
    /// runs is shed with a typed [`ErrorCode::DeadlineExceeded`] reply instead
    /// of being simulated pointlessly; `null` means no deadline.
    pub deadline_ms: Option<u64>,
}

/// Reply to a [`PlaceRequest`]: either a placement or a typed error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlaceResponse {
    /// Wire schema version of the reply.
    pub schema_version: u64,
    /// Echo of the request id (0 for lines too malformed to carry one).
    pub id: u64,
    /// Device assignment, one device index per op in the graph's id order.
    pub placement: Option<Vec<u8>>,
    /// Predicted per-step time of `placement` from the event engine, seconds.
    pub predicted_step_time: Option<f64>,
    /// Content version (hex) of the parameters that produced the placement.
    pub policy_version: Option<String>,
    /// Set iff the request failed; all result fields are `null` then.
    pub error: Option<ApiError>,
}

/// Registers a graph once so subsequent [`PlaceRequest`]s can reference it by
/// key instead of re-uploading (and re-parsing) it per request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegisterGraphRequest {
    /// Wire schema version; must equal [`API_SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Client-chosen correlation id, echoed in the reply.
    pub id: u64,
    /// The graph to register.
    pub graph: OpGraph,
}

/// Reply to a [`RegisterGraphRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegisterGraphResponse {
    /// Wire schema version of the reply.
    pub schema_version: u64,
    /// Echo of the request id.
    pub id: u64,
    /// Content-addressed key of the registered graph (stable across servers:
    /// the FNV-1a-64 hex of the graph's canonical JSON).
    pub graph_key: Option<String>,
    /// Set iff registration failed.
    pub error: Option<ApiError>,
}

/// Any request message.
#[derive(Debug, Clone)]
pub enum Request {
    /// A `place` line.
    Place(PlaceRequest),
    /// A `register_graph` line.
    RegisterGraph(RegisterGraphRequest),
}

/// Any reply message.
#[derive(Debug, Clone)]
pub enum Response {
    /// A `place_result` line.
    Place(PlaceResponse),
    /// A `register_graph_result` line.
    RegisterGraph(RegisterGraphResponse),
}

/// Deserializes a typed payload out of an already-parsed JSON value.
fn from_value<T: Deserialize>(v: &Value) -> Result<T, EagleError> {
    T::from_content(&Serialize::to_content(v)).map_err(|e| EagleError::Protocol(e.0))
}

/// Serializes `payload` with a leading `type` tag into one wire line (no
/// trailing newline).
fn envelope<T: Serialize>(kind: &str, payload: &T) -> String {
    let mut v = serde_json::to_value(payload);
    match &mut v {
        Value::Object(entries) => entries.insert(0, ("type".into(), Value::String(kind.into()))),
        _ => unreachable!("wire payloads are structs"),
    }
    serde_json::to_string(&v).expect("wire value serializes")
}

/// Splits a parsed wire line into its `type` tag and checks `schema_version`.
fn check_line(v: &Value) -> Result<&str, EagleError> {
    let kind = v["type"]
        .as_str()
        .ok_or_else(|| EagleError::Protocol("message has no string `type` field".into()))?;
    let found = v["schema_version"]
        .as_u64()
        .ok_or_else(|| EagleError::Protocol("message has no `schema_version` field".into()))?;
    if found != API_SCHEMA_VERSION {
        return Err(EagleError::SchemaVersion { found, expected: API_SCHEMA_VERSION });
    }
    Ok(kind)
}

/// Encodes a request as one wire line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Place(r) => envelope("place", r),
        Request::RegisterGraph(r) => envelope("register_graph", r),
    }
}

/// Parses one request line.
pub fn decode_request(line: &str) -> Result<Request, EagleError> {
    let v: Value = serde_json::from_str(line)?;
    match check_line(&v)? {
        "place" => Ok(Request::Place(from_value(&v)?)),
        "register_graph" => Ok(Request::RegisterGraph(from_value(&v)?)),
        other => Err(EagleError::Protocol(format!("unknown request type `{other}`"))),
    }
}

/// Encodes a reply as one wire line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Place(r) => envelope("place_result", r),
        Response::RegisterGraph(r) => envelope("register_graph_result", r),
    }
}

/// Parses one reply line.
pub fn decode_response(line: &str) -> Result<Response, EagleError> {
    let v: Value = serde_json::from_str(line)?;
    match check_line(&v)? {
        "place_result" => Ok(Response::Place(from_value(&v)?)),
        "register_graph_result" => Ok(Response::RegisterGraph(from_value(&v)?)),
        other => Err(EagleError::Protocol(format!("unknown response type `{other}`"))),
    }
}

impl PlaceRequest {
    /// A minimal valid request for `family` placing the graph under `graph_key`
    /// on the server's default machine.
    pub fn by_key(id: u64, family: impl Into<String>, graph_key: impl Into<String>) -> Self {
        Self {
            schema_version: API_SCHEMA_VERSION,
            id,
            family: Some(family.into()),
            graph: None,
            graph_key: Some(graph_key.into()),
            machine: None,
            candidates: 0,
            seed: id,
            deadline_ms: None,
        }
    }

    /// A minimal valid request inlining `graph`.
    pub fn inline(id: u64, family: impl Into<String>, graph: OpGraph) -> Self {
        Self {
            schema_version: API_SCHEMA_VERSION,
            id,
            family: Some(family.into()),
            graph: Some(graph),
            graph_key: None,
            machine: None,
            candidates: 0,
            seed: id,
            deadline_ms: None,
        }
    }

    /// A zero-shot request: place an inline `graph` with no family preference,
    /// answered by the server's generalist policy.
    pub fn zero_shot(id: u64, graph: OpGraph) -> Self {
        Self {
            schema_version: API_SCHEMA_VERSION,
            id,
            family: None,
            graph: Some(graph),
            graph_key: None,
            machine: None,
            candidates: 0,
            seed: id,
            deadline_ms: None,
        }
    }

    /// Sets the deadline budget (milliseconds from server admission).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }
}

impl PlaceResponse {
    /// An error reply echoing `id`.
    pub fn failure(id: u64, err: &EagleError) -> Self {
        Self {
            schema_version: API_SCHEMA_VERSION,
            id,
            placement: None,
            predicted_step_time: None,
            policy_version: None,
            error: Some(err.to_api()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut g = OpGraph::new("t");
        g.add_node(eagle_opgraph::OpNode::new(
            "op0",
            eagle_opgraph::OpKind::MatMul,
            eagle_opgraph::Phase::Forward,
        ));
        let req = Request::Place(PlaceRequest::inline(7, "fam", g));
        let line = encode_request(&req);
        match decode_request(&line).unwrap() {
            Request::Place(r) => {
                assert_eq!(r.id, 7);
                assert_eq!(r.family.as_deref(), Some("fam"));
                assert_eq!(r.graph.unwrap().len(), 1);
                assert_eq!(r.graph_key, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn bad_lines_are_typed_errors() {
        assert!(matches!(decode_request("not json"), Err(EagleError::Json(_))));
        assert!(matches!(decode_request("{\"x\":1}"), Err(EagleError::Protocol(_))));
        let line = "{\"type\":\"place\",\"schema_version\":99}";
        assert!(matches!(
            decode_request(line),
            Err(EagleError::SchemaVersion { found: 99, expected: 1 })
        ));
        let line = "{\"type\":\"warp\",\"schema_version\":1}";
        assert!(matches!(decode_request(line), Err(EagleError::Protocol(_))));
    }

    #[test]
    fn legacy_lines_without_optional_fields_decode() {
        // A pre-admission-control client line has no `deadline_ms`.
        let line = "{\"type\":\"place\",\"schema_version\":1,\"id\":4,\"family\":\"fam\",\
                    \"graph\":null,\"graph_key\":\"00ff00ff00ff00ff\",\"machine\":null,\
                    \"candidates\":2,\"seed\":9}";
        match decode_request(line).unwrap() {
            Request::Place(r) => {
                assert_eq!(r.id, 4);
                assert_eq!(r.deadline_ms, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // A pre-admission-control server's error object has no `retry_after_ms`.
        let line = "{\"type\":\"place_result\",\"schema_version\":1,\"id\":4,\
                    \"placement\":null,\"predicted_step_time\":null,\"policy_version\":null,\
                    \"error\":{\"code\":\"Internal\",\"message\":\"m\"}}";
        match decode_response(line).unwrap() {
            Response::Place(r) => {
                let err = r.error.unwrap();
                assert_eq!(err.code, ErrorCode::Internal);
                assert_eq!(err.retry_after_ms, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn error_reply_roundtrip() {
        let resp =
            Response::Place(PlaceResponse::failure(3, &EagleError::UnknownFamily("bert".into())));
        let line = encode_response(&resp);
        match decode_response(&line).unwrap() {
            Response::Place(r) => {
                assert_eq!(r.id, 3);
                assert!(r.placement.is_none());
                let err = r.error.unwrap();
                assert_eq!(err.code, ErrorCode::UnknownFamily);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
