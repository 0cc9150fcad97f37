//! The daemon's wire protocol: newline-delimited JSON, one message per
//! line, shared by the server ([`crate::serve::daemon`]), the CLI client
//! mode, and the benchmark harness.
//!
//! Decoding is deliberately tolerant — every field is optional on the
//! wire (`#[serde(default)]`), unknown fields are ignored, and a request
//! that cannot be parsed or validated gets a **typed error reply**
//! ([`Response::failure`]) on the same connection instead of a dropped
//! socket, so a buggy client can observe *what* it sent wrong. Requests
//! carry a client-chosen `id` that is echoed verbatim in the reply, which
//! is what lets a client pipeline many requests on one connection and
//! match the replies back up (batch completion order is not arrival
//! order).
//!
//! ```text
//! → {"id":1,"user":42,"top_n":3,"policy":"ucb:0.5","exclude_seen":true}
//! ← {"id":1,"user":42,"items":[{"item":7,"score":4.31},…],"error":null}
//! → not json
//! ← {"id":0,"user":0,"items":[],"error":"malformed request: …","code":"bad_request"}
//! → {"cmd":"health"}
//! ← {"id":0,…,"health":{"v":1,"role":"daemon","status":"ok",…}}
//! → {"cmd":"shutdown"}
//! ← {"id":0,"user":0,"items":[],"error":null}        (ack, then drain+exit)
//! ```
//!
//! # Versioning and the diagnostics taxonomy
//!
//! Requests and responses carry a protocol version `v`
//! ([`WIRE_VERSION`]); it defaults to 0 on decode, so pre-versioning
//! clients keep working, while a request from the *future*
//! (`v > WIRE_VERSION`) is refused with a typed
//! [`CODE_UNSUPPORTED_VERSION`] error instead of being half-understood.
//!
//! Error replies are *typed twice*: `error` is the human-readable
//! explanation, `code` a stable machine-readable slug (the `CODE_*`
//! constants) clients and the router branch on. The `health`/`stats`
//! commands return structured payloads ([`HealthReport`] /
//! [`StatsReport`]) whose findings are [`Diagnostic`]s — a severity from
//! the fixed ladder ([`SEV_INFO`] < [`SEV_WARNING`] < [`SEV_ERROR`] <
//! [`SEV_FATAL`]) plus a `CODE_*` slug — and which nest: the router
//! aggregates its shards' reports under its own.

use crate::serve::shard::ShardSpec;
use crate::serve::Recommendation;

/// Protocol version spoken by this build. Bump when a request field
/// changes meaning; fields may be *added* freely (decode ignores unknown
/// fields and defaults missing ones).
pub const WIRE_VERSION: u32 = 1;

/// Ask for recommendations (the default when `cmd` is empty).
pub const CMD_RECOMMEND: &str = "recommend";
/// Liveness probe; replied to immediately, bypassing the coalescer.
pub const CMD_PING: &str = "ping";
/// Begin graceful shutdown: ack, drain queued requests, exit 0.
pub const CMD_SHUTDOWN: &str = "shutdown";
/// Structured liveness report ([`HealthReport`]); the router aggregates
/// across shards.
pub const CMD_HEALTH: &str = "health";
/// Structured counter snapshot ([`StatsReport`]); the router aggregates
/// across shards.
pub const CMD_STATS: &str = "stats";
/// Load and CRC-verify the checkpoint named by [`Request::path`], then
/// swap it in as the served model without dropping in-flight requests.
/// The ack carries the new [`Response::model_epoch`].
pub const CMD_RELOAD: &str = "reload";
/// Fold a brand-new user into the served posterior from the ratings in
/// [`Request::ratings`] (one conjugate kernel call, item factors fixed)
/// and rank for them — no retrain, no restart.
pub const CMD_FOLD_IN: &str = "fold_in";

/// The request could not be parsed or failed validation.
pub const CODE_BAD_REQUEST: &str = "bad_request";
/// The request declared a wire version newer than this server speaks.
pub const CODE_UNSUPPORTED_VERSION: &str = "unsupported_version";
/// Admission control refused the request (in-flight budget exhausted).
/// Retry later; nothing was scattered.
pub const CODE_OVERLOADED: &str = "overloaded";
/// One or more shards could not answer, so a complete ranking cannot be
/// assembled. The reply is an error (never silently-partial items).
pub const CODE_PARTIAL_RESULT: &str = "partial_result";
/// A shard range has no live replica at all (health diagnostic / scatter
/// failure).
pub const CODE_SHARD_DOWN: &str = "shard_down";
/// One replica of a range is unreachable but a twin still serves it
/// (health diagnostic: redundancy lost, no requests failing).
pub const CODE_REPLICA_DOWN: &str = "replica_down";
/// Shards report factors from different training epochs.
pub const CODE_EPOCH_MISMATCH: &str = "epoch_mismatch";
/// The server is draining for shutdown and refuses new work.
pub const CODE_SHUTTING_DOWN: &str = "shutting_down";
/// A serving worker failed while computing this request.
pub const CODE_INTERNAL: &str = "internal";
/// The request waited longer than the router's patience for a shard
/// reply.
pub const CODE_TIMEOUT: &str = "timeout";
/// A supervised replica exhausted its restart budget (kept dying before
/// ever reporting healthy) and has been quarantined instead of flapped.
pub const CODE_CRASH_LOOP: &str = "crash_loop";
/// An on-disk artifact (checkpoint or slab) failed integrity
/// verification; the supervisor refuses to restart a replica onto it.
pub const CODE_CORRUPT_ARTIFACT: &str = "corrupt_artifact";
/// A [`CMD_RELOAD`] checkpoint's shard layout (range or shard count)
/// disagrees with the running daemon's shard; swapping it in would
/// silently change the served catalogue, so the reload is refused.
pub const CODE_SHARD_MISMATCH: &str = "shard_mismatch";
/// A model reload event (supervisor rolling-reload progress, or a
/// router observing epoch skew *within* a replica group mid-reload).
pub const CODE_MODEL_RELOAD: &str = "model_reload";

/// Diagnostic severity: informational only.
pub const SEV_INFO: &str = "info";
/// Diagnostic severity: degraded but serving.
pub const SEV_WARNING: &str = "warning";
/// Diagnostic severity: some requests will fail.
pub const SEV_ERROR: &str = "error";
/// Diagnostic severity: the process cannot serve.
pub const SEV_FATAL: &str = "fatal";

/// `role` of a single-model serving daemon (whole catalogue or one
/// shard).
pub const ROLE_DAEMON: &str = "daemon";
/// `role` of the scatter-gather router.
pub const ROLE_ROUTER: &str = "router";

/// Aggregate health `status`: everything answering.
pub const STATUS_OK: &str = "ok";
/// Aggregate health `status`: serving, but something is wrong (dead
/// shard, mixed epochs, worker panics).
pub const STATUS_DEGRADED: &str = "degraded";
/// Aggregate health `status`: unable to serve recommendations at all.
pub const STATUS_DOWN: &str = "down";

/// One client request line. Everything is optional on the wire; the
/// daemon resolves blanks against its configured defaults.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Request {
    /// Wire version the client speaks. Absent (0) on requests from
    /// pre-versioning clients, which remain accepted; a value greater
    /// than [`WIRE_VERSION`] is refused with
    /// [`CODE_UNSUPPORTED_VERSION`].
    #[serde(default)]
    pub v: u32,
    /// Client-chosen correlation id, echoed in the reply.
    #[serde(default)]
    pub id: u64,
    /// `""`/`"recommend"`, `"ping"`, or `"shutdown"`.
    #[serde(default)]
    pub cmd: String,
    /// User to recommend for. Required for recommend requests; its
    /// absence is a typed error, not a silent user 0.
    #[serde(default)]
    pub user: Option<u32>,
    /// List length; 0 means the daemon default.
    #[serde(default)]
    pub top_n: usize,
    /// Ranking policy (`mean` | `ucb[:beta]` | `thompson[:seed]`); empty
    /// means the daemon default.
    #[serde(default)]
    pub policy: String,
    /// Override the daemon's exclude-seen default for this request.
    #[serde(default)]
    pub exclude_seen: Option<bool>,
    /// Checkpoint path for a [`CMD_RELOAD`] request (server-local).
    #[serde(default)]
    pub path: String,
    /// Observed ratings for a [`CMD_FOLD_IN`] request.
    #[serde(default)]
    pub ratings: Vec<RatedItem>,
}

impl Request {
    /// A plain recommend request for `user` with daemon-default knobs.
    pub fn recommend(id: u64, user: u32) -> Self {
        Request {
            id,
            user: Some(user),
            ..Request::default()
        }
    }

    /// A versioned request carrying only `cmd` (ping, health, stats,
    /// shutdown, …).
    pub fn command(cmd: &str) -> Self {
        Request {
            v: WIRE_VERSION,
            cmd: cmd.to_string(),
            ..Request::default()
        }
    }
}

/// One ranked item inside a [`Response`].
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RankedItem {
    /// Item (movie) id.
    pub item: u32,
    /// Policy score (see [`Recommendation::score`]).
    pub score: f64,
}

impl From<Recommendation> for RankedItem {
    fn from(r: Recommendation) -> Self {
        RankedItem {
            item: r.item,
            score: r.score,
        }
    }
}

/// One observed rating inside a [`CMD_FOLD_IN`] request.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RatedItem {
    /// Item (movie) id, in the daemon's global catalogue numbering.
    pub item: u32,
    /// Observed rating value.
    pub rating: f64,
}

/// One server reply line. `error` is `None` on success; on failure it
/// explains what was wrong with the request, `code` names the failure
/// class (a `CODE_*` slug), and `items` is empty.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Response {
    /// Wire version of the replying server (0 from pre-versioning
    /// daemons).
    #[serde(default)]
    pub v: u32,
    /// The request's correlation id (0 for unparseable lines).
    #[serde(default)]
    pub id: u64,
    /// The request's user (0 when unknown).
    #[serde(default)]
    pub user: u32,
    /// Ranked best-first recommendations.
    #[serde(default)]
    pub items: Vec<RankedItem>,
    /// What went wrong, when something did (human-readable).
    #[serde(default)]
    pub error: Option<String>,
    /// Stable machine-readable failure class (a `CODE_*` slug), set
    /// whenever `error` is.
    #[serde(default)]
    pub code: Option<String>,
    /// Structured payload of a [`CMD_HEALTH`] reply.
    #[serde(default)]
    pub health: Option<HealthReport>,
    /// Structured payload of a [`CMD_STATS`] reply.
    #[serde(default)]
    pub stats: Option<StatsReport>,
    /// Folded-in user factors (length K) on a [`CMD_FOLD_IN`] reply.
    #[serde(default)]
    pub factors: Vec<f64>,
    /// The served model epoch, on [`CMD_RELOAD`] acks (the epoch just
    /// swapped in) and [`CMD_FOLD_IN`] replies (the epoch that computed
    /// the fold-in).
    #[serde(default)]
    pub model_epoch: Option<u64>,
}

impl Response {
    /// A successful reply carrying a ranked list.
    pub fn success(id: u64, user: u32, recs: &[Recommendation]) -> Self {
        Response {
            v: WIRE_VERSION,
            id,
            user,
            items: recs.iter().copied().map(RankedItem::from).collect(),
            ..Response::default()
        }
    }

    /// A typed error reply, classed [`CODE_BAD_REQUEST`] — chain
    /// [`Response::with_code`] for any other failure class.
    pub fn failure(id: u64, user: u32, error: impl Into<String>) -> Self {
        Response {
            v: WIRE_VERSION,
            id,
            user,
            error: Some(error.into()),
            code: Some(CODE_BAD_REQUEST.to_string()),
            ..Response::default()
        }
    }

    /// Reclassify a failure reply under a different `CODE_*` slug.
    pub fn with_code(mut self, code: &str) -> Self {
        self.code = Some(code.to_string());
        self
    }

    /// An empty acknowledgement (ping/shutdown).
    pub fn ack(id: u64) -> Self {
        Response {
            v: WIRE_VERSION,
            id,
            ..Response::default()
        }
    }

    /// A [`CMD_HEALTH`] reply.
    pub fn health(id: u64, report: HealthReport) -> Self {
        Response {
            v: WIRE_VERSION,
            id,
            health: Some(report),
            ..Response::default()
        }
    }

    /// A [`CMD_STATS`] reply.
    pub fn stats(id: u64, report: StatsReport) -> Self {
        Response {
            v: WIRE_VERSION,
            id,
            stats: Some(report),
            ..Response::default()
        }
    }

    /// The last reply on a connection whose line outgrew
    /// [`crate::serve::net::MAX_LINE`].
    pub fn line_too_long() -> Self {
        Response::failure(0, 0, "request line too long")
    }

    /// The reply to a request whose `cmd` this server does not speak.
    pub fn unknown_cmd(req: &Request) -> Self {
        Response::failure(
            req.id,
            req.user.unwrap_or(0),
            format!("unknown cmd `{}`", req.cmd),
        )
    }
}

/// One structured finding inside a [`HealthReport`]: a severity from the
/// fixed ladder, a stable `CODE_*` slug to branch on, and a
/// human-readable detail.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Diagnostic {
    /// [`SEV_INFO`] | [`SEV_WARNING`] | [`SEV_ERROR`] | [`SEV_FATAL`].
    #[serde(default)]
    pub severity: String,
    /// Stable machine-readable slug (a `CODE_*` constant).
    #[serde(default)]
    pub code: String,
    /// Human-readable explanation.
    #[serde(default)]
    pub detail: String,
}

impl Diagnostic {
    /// A diagnostic with the given severity, code, and detail.
    pub fn new(severity: &str, code: &str, detail: impl Into<String>) -> Self {
        Diagnostic {
            severity: severity.to_string(),
            code: code.to_string(),
            detail: detail.into(),
        }
    }
}

/// Structured, versioned [`CMD_HEALTH`] payload. A daemon reports
/// itself; the router reports itself with its shards' reports nested
/// under `shards` and cross-shard findings (dead shards, epoch skew) as
/// `diagnostics`.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HealthReport {
    /// Payload schema version (= [`WIRE_VERSION`] at emission).
    #[serde(default)]
    pub v: u32,
    /// [`ROLE_DAEMON`] or [`ROLE_ROUTER`].
    #[serde(default)]
    pub role: String,
    /// [`STATUS_OK`], [`STATUS_DEGRADED`], or [`STATUS_DOWN`].
    #[serde(default)]
    pub status: String,
    /// Users the serving model covers.
    #[serde(default)]
    pub n_users: u64,
    /// Items served *by this process* (a shard reports its slice width;
    /// the router reports the full catalogue).
    #[serde(default)]
    pub n_items: u64,
    /// Which catalogue slice this process serves, when sharded.
    #[serde(default)]
    pub shard: Option<ShardSpec>,
    /// Epoch of the *served model* (bumped by [`CMD_RELOAD`]; unlike
    /// [`ShardSpec::epoch`], which pins the catalogue layout and stays
    /// stable across reloads). The router reports the maximum across its
    /// shards.
    #[serde(default)]
    pub model_epoch: u64,
    /// Findings, ordered worst-first by the emitter.
    #[serde(default)]
    pub diagnostics: Vec<Diagnostic>,
    /// Per-shard reports (router only), in shard order; a dead shard
    /// contributes a stub report with status [`STATUS_DOWN`].
    #[serde(default)]
    pub shards: Vec<HealthReport>,
}

/// Structured, versioned [`CMD_STATS`] payload: a snapshot of the live
/// serving counters. Router-only fields are zero on daemon reports and
/// vice versa.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsReport {
    /// Payload schema version (= [`WIRE_VERSION`] at emission).
    #[serde(default)]
    pub v: u32,
    /// [`ROLE_DAEMON`] or [`ROLE_ROUTER`].
    #[serde(default)]
    pub role: String,
    /// Connections accepted since start.
    #[serde(default)]
    pub connections: u64,
    /// Requests answered successfully.
    #[serde(default)]
    pub requests: u64,
    /// Requests refused with a typed error.
    #[serde(default)]
    pub rejected: u64,
    /// Coalesced batches executed (daemon).
    #[serde(default)]
    pub batches: u64,
    /// Largest coalesced batch seen (daemon).
    #[serde(default)]
    pub largest_batch: u64,
    /// Worker panics caught (daemon).
    #[serde(default)]
    pub worker_panics: u64,
    /// Requests currently in flight (router admission gauge).
    #[serde(default)]
    pub inflight: u64,
    /// Requests refused by admission control (router).
    #[serde(default)]
    pub overload_rejected: u64,
    /// Requests failed because a shard died mid-flight or was down at
    /// scatter time (router).
    #[serde(default)]
    pub shard_failures: u64,
    /// Successful shard reconnections (router).
    #[serde(default)]
    pub reconnects: u64,
    /// Requests moved off a dead or draining replica onto a surviving
    /// twin of the same range (router).
    #[serde(default)]
    pub failovers: u64,
    /// Scatter lines re-sent to a replica for any reason — failovers
    /// plus timeout-triggered re-scatters (router).
    #[serde(default)]
    pub retries: u64,
    /// Replica connections refused for a divergent checkpoint epoch
    /// (router).
    #[serde(default)]
    pub epoch_refusals: u64,
    /// Scripted faults fired by the process's `FaultPlan` (zero unless a
    /// fault-injection drill is running).
    #[serde(default)]
    pub faults_injected: u64,
    /// Epoch of the served model (see [`HealthReport::model_epoch`]).
    #[serde(default)]
    pub model_epoch: u64,
    /// Live model swaps performed via [`CMD_RELOAD`] (daemon).
    #[serde(default)]
    pub reloads: u64,
    /// Cold-start users answered via [`CMD_FOLD_IN`] (daemon).
    #[serde(default)]
    pub fold_ins: u64,
    /// Replica links configured across all ranges (router).
    #[serde(default)]
    pub replicas: u64,
    /// Replica links currently connected and in rotation (router).
    #[serde(default)]
    pub replicas_up: u64,
    /// Which catalogue slice this process serves, when sharded.
    #[serde(default)]
    pub shard: Option<ShardSpec>,
    /// Per-shard snapshots (router only), in shard order; dead shards
    /// are omitted here (see the health report for their status).
    #[serde(default)]
    pub shards: Vec<StatsReport>,
}

/// Serialize one message as a single JSON line (no trailing newline; the
/// writer adds it).
pub fn encode<T: serde::Serialize>(msg: &T) -> String {
    // The value-tree serializer is infallible for these derive shapes.
    serde_json::to_string(msg).expect("wire messages serialize")
}

/// Parse one request line.
pub fn decode_request(line: &str) -> Result<Request, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("malformed request: {e}"))
}

/// The admission prefix every server runs on a request line: decode it,
/// and refuse a request from a future protocol version rather than
/// half-understand it. Unversioned requests (`v` absent → 0) stay
/// accepted. `Err` is the typed reply to send instead; `role`
/// ([`ROLE_DAEMON`] or [`ROLE_ROUTER`]) names the refusing server.
#[allow(clippy::result_large_err)] // the error is the reply, sent as-is
pub fn admit(line: &str, role: &str) -> Result<Request, Response> {
    let req = decode_request(line).map_err(|e| Response::failure(0, 0, e))?;
    if req.v > WIRE_VERSION {
        return Err(Response::failure(
            req.id,
            req.user.unwrap_or(0),
            format!(
                "unsupported protocol version {} ({role} speaks <= {WIRE_VERSION})",
                req.v
            ),
        )
        .with_code(CODE_UNSUPPORTED_VERSION));
    }
    Ok(req)
}

/// Parse one response line.
pub fn decode_response(line: &str) -> Result<Response, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("malformed response: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_with_every_field() {
        let req = Request {
            v: WIRE_VERSION,
            id: 9,
            cmd: CMD_RECOMMEND.to_string(),
            user: Some(42),
            top_n: 5,
            policy: "ucb:0.5".to_string(),
            exclude_seen: Some(true),
            path: String::new(),
            ratings: Vec::new(),
        };
        let line = encode(&req);
        assert!(!line.contains('\n'), "one message, one line");
        assert_eq!(decode_request(&line).unwrap(), req);
    }

    #[test]
    fn sparse_requests_fill_defaults() {
        // Only `user` on the wire: everything else defaults.
        let req = decode_request("{\"user\": 3}").unwrap();
        assert_eq!(req.user, Some(3));
        assert_eq!(req.id, 0);
        assert_eq!(req.cmd, "");
        assert_eq!(req.top_n, 0);
        assert_eq!(req.policy, "");
        assert_eq!(req.exclude_seen, None);
        // Empty object is a parseable (if useless) request.
        assert_eq!(decode_request("{}").unwrap().user, None);
        // Unknown fields are ignored, not fatal.
        let fwd = decode_request("{\"user\": 1, \"future_field\": [1,2]}").unwrap();
        assert_eq!(fwd.user, Some(1));
    }

    #[test]
    fn malformed_lines_are_errors_with_context() {
        for bad in ["", "not json", "[1,2,3]", "{\"user\": \"forty-two\"}"] {
            let err = decode_request(bad).unwrap_err();
            assert!(err.starts_with("malformed request:"), "{bad:?} → {err}");
        }
    }

    #[test]
    fn response_roundtrips_success_and_failure() {
        let ok = Response::success(
            7,
            2,
            &[
                Recommendation {
                    item: 11,
                    score: 4.25,
                },
                Recommendation {
                    item: 3,
                    score: 4.0,
                },
            ],
        );
        let back = decode_response(&encode(&ok)).unwrap();
        assert_eq!(back, ok);
        assert_eq!(back.items[0].item, 11);
        assert_eq!(back.items[0].score, 4.25);

        let err = Response::failure(8, 0, "user 99 out of range");
        let back = decode_response(&encode(&err)).unwrap();
        assert_eq!(back.error.as_deref(), Some("user 99 out of range"));
        assert!(back.items.is_empty());
    }

    #[test]
    fn version_defaults_to_zero_and_roundtrips() {
        // A PR-5 request (no `v` on the wire) parses as v = 0: accepted.
        let legacy = decode_request("{\"user\": 3}").unwrap();
        assert_eq!(legacy.v, 0);
        // A versioned request roundtrips.
        let req = Request {
            v: WIRE_VERSION,
            ..Request::recommend(1, 2)
        };
        assert_eq!(decode_request(&encode(&req)).unwrap().v, WIRE_VERSION);
        // Replies carry the server's version.
        assert_eq!(Response::ack(1).v, WIRE_VERSION);
        // And a PR-5 *response* (no v/code fields) still parses.
        let old = decode_response("{\"id\":1,\"user\":2,\"items\":[],\"error\":null}").unwrap();
        assert_eq!((old.v, old.code), (0, None));
    }

    #[test]
    fn failures_carry_a_stable_code() {
        let plain = Response::failure(1, 0, "user 99 out of range");
        assert_eq!(plain.code.as_deref(), Some(CODE_BAD_REQUEST));
        let typed = Response::failure(1, 0, "shard 2/4 unavailable").with_code(CODE_PARTIAL_RESULT);
        let back = decode_response(&encode(&typed)).unwrap();
        assert_eq!(back.code.as_deref(), Some(CODE_PARTIAL_RESULT));
        assert_eq!(back.error.as_deref(), Some("shard 2/4 unavailable"));
    }

    #[test]
    fn admission_refusals_keep_their_exact_text() {
        let refusal = admit("not json", ROLE_DAEMON).unwrap_err();
        let parse_error = decode_request("not json").unwrap_err();
        assert_eq!(refusal, Response::failure(0, 0, parse_error));
        for role in [ROLE_DAEMON, ROLE_ROUTER] {
            let refusal = admit("{\"v\":2,\"id\":5,\"user\":3}", role).unwrap_err();
            let text = format!("unsupported protocol version 2 ({role} speaks <= 1)");
            assert_eq!(refusal.error.as_deref(), Some(text.as_str()));
            assert_eq!(
                (refusal.id, refusal.user, refusal.code.as_deref()),
                (5, 3, Some(CODE_UNSUPPORTED_VERSION))
            );
        }
        // Unversioned requests pass through untouched.
        assert_eq!(
            admit("{\"user\":3}", ROLE_ROUTER).unwrap(),
            Request::recommend(0, 3)
        );
        assert_eq!(
            Response::line_too_long().error.as_deref(),
            Some("request line too long")
        );
        let unknown = Response::unknown_cmd(&Request {
            id: 4,
            cmd: "reboot".to_string(),
            ..Request::default()
        });
        assert_eq!(
            (unknown.id, unknown.error.as_deref()),
            (4, Some("unknown cmd `reboot`"))
        );
    }

    #[test]
    fn health_reports_roundtrip_with_nested_shards() {
        let shard0 = HealthReport {
            v: WIRE_VERSION,
            role: ROLE_DAEMON.to_string(),
            status: STATUS_OK.to_string(),
            n_users: 48,
            n_items: 256,
            shard: Some(ShardSpec {
                shard_id: 0,
                num_shards: 2,
                item_lo: 0,
                item_hi: 256,
                epoch: 6,
            }),
            ..HealthReport::default()
        };
        let router = HealthReport {
            v: WIRE_VERSION,
            role: ROLE_ROUTER.to_string(),
            status: STATUS_DEGRADED.to_string(),
            n_users: 48,
            n_items: 400,
            diagnostics: vec![Diagnostic::new(
                SEV_ERROR,
                CODE_SHARD_DOWN,
                "shard 1/2 at 127.0.0.1:9 is down",
            )],
            shards: vec![
                shard0,
                HealthReport {
                    status: STATUS_DOWN.to_string(),
                    ..HealthReport::default()
                },
            ],
            ..HealthReport::default()
        };
        let reply = Response::health(7, router.clone());
        let back = decode_response(&encode(&reply)).unwrap();
        assert_eq!(back.health.as_ref(), Some(&router));
        let h = back.health.unwrap();
        assert_eq!(h.shards.len(), 2);
        assert_eq!(h.shards[0].shard.unwrap().item_hi, 256);
        assert_eq!(h.diagnostics[0].code, CODE_SHARD_DOWN);
        assert_eq!(h.diagnostics[0].severity, SEV_ERROR);
    }

    #[test]
    fn stats_reports_roundtrip() {
        let stats = StatsReport {
            v: WIRE_VERSION,
            role: ROLE_ROUTER.to_string(),
            connections: 3,
            requests: 100,
            inflight: 2,
            overload_rejected: 5,
            shard_failures: 1,
            reconnects: 4,
            failovers: 6,
            retries: 7,
            epoch_refusals: 2,
            faults_injected: 3,
            replicas: 4,
            replicas_up: 3,
            shards: vec![StatsReport {
                role: ROLE_DAEMON.to_string(),
                batches: 9,
                largest_batch: 64,
                ..StatsReport::default()
            }],
            ..StatsReport::default()
        };
        let back = decode_response(&encode(&Response::stats(1, stats.clone()))).unwrap();
        assert_eq!(back.stats, Some(stats));
        // A pre-replication stats payload (no failover fields) still
        // parses, with the new counters defaulting to zero.
        let old =
            decode_response("{\"id\":1,\"stats\":{\"v\":1,\"role\":\"router\",\"requests\":5}}")
                .unwrap();
        let old = old.stats.unwrap();
        assert_eq!(
            (old.requests, old.failovers, old.retries, old.replicas),
            (5, 0, 0, 0)
        );
    }

    #[test]
    fn reload_and_fold_in_payloads_roundtrip() {
        // A reload request names a server-local checkpoint path.
        let reload = Request {
            v: WIRE_VERSION,
            id: 3,
            cmd: CMD_RELOAD.to_string(),
            path: "/tmp/v2.json".to_string(),
            ..Request::default()
        };
        let back = decode_request(&encode(&reload)).unwrap();
        assert_eq!(back, reload);

        // A fold-in request carries (item, rating) observations.
        let fold = Request {
            v: WIRE_VERSION,
            id: 4,
            cmd: CMD_FOLD_IN.to_string(),
            top_n: 3,
            ratings: vec![
                RatedItem {
                    item: 7,
                    rating: 4.5,
                },
                RatedItem {
                    item: 2,
                    rating: 1.0,
                },
            ],
            ..Request::default()
        };
        let back = decode_request(&encode(&fold)).unwrap();
        assert_eq!(back.ratings, fold.ratings);

        // The fold-in reply carries the folded factors and the model
        // epoch that computed them, bit-exactly.
        let reply = Response {
            factors: vec![0.1 + 0.2, -1.5],
            model_epoch: Some(6),
            ..Response::ack(4)
        };
        let back = decode_response(&encode(&reply)).unwrap();
        assert_eq!(back.factors[0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back.model_epoch, Some(6));
    }

    #[test]
    fn pre_reload_payloads_still_parse() {
        // A PR-9 request (no path/ratings on the wire) parses with the
        // new fields defaulting to empty.
        let old = decode_request("{\"v\":1,\"id\":1,\"cmd\":\"recommend\",\"user\":2}").unwrap();
        assert_eq!((old.path.as_str(), old.ratings.len()), ("", 0));
        // A PR-9 response (no factors/model_epoch) parses too.
        let old = decode_response("{\"v\":1,\"id\":1,\"user\":2,\"items\":[]}").unwrap();
        assert_eq!((old.factors.len(), old.model_epoch), (0, None));
        // And a PR-9 health/stats payload defaults the epoch counters.
        let old = decode_response("{\"id\":1,\"health\":{\"v\":1,\"role\":\"daemon\"}}").unwrap();
        assert_eq!(old.health.unwrap().model_epoch, 0);
        let old = decode_response("{\"id\":1,\"stats\":{\"v\":1,\"requests\":5}}").unwrap();
        let s = old.stats.unwrap();
        assert_eq!((s.model_epoch, s.reloads, s.fold_ins), (0, 0, 0));
    }

    #[test]
    fn scores_survive_the_wire_bit_exactly() {
        let r = Response::success(
            1,
            0,
            &[Recommendation {
                item: 0,
                score: 0.1 + 0.2, // a classic non-representable sum
            }],
        );
        let back = decode_response(&encode(&r)).unwrap();
        assert_eq!(back.items[0].score.to_bits(), (0.1f64 + 0.2).to_bits());
    }
}
