//! Coordinator-side observability glue: per-RPC latency/outcome metrics,
//! request spans, and the `GetTelemetry` payload.
//!
//! Everything here is write-only with respect to protocol state — metrics and
//! spans observe the dispatch path, they never influence round bytes or
//! client-visible responses. Timing lives in `_us` histograms, strictly
//! outside the deterministic event stream (see `docs/OBSERVABILITY.md`).

use std::sync::Arc;
use std::time::Instant;

use alpenhorn_obs::{Histogram, SpanGuard};
use alpenhorn_wire::rpc::{SpanWire, TelemetryWire};
use alpenhorn_wire::{Request, Response};

/// The span component tag for coordinator-process work. Covers RPC dispatch,
/// mix-chain driving ([`alpenhorn_mixd::MixChain`], whose spans carry this
/// tag too), and sharded CDN publication, which all run inside the
/// `alpenhornd` process.
pub const SPAN_COMPONENT: &str = "coordinator";

/// The coordinator's `GetTelemetry` reply: the full metrics exposition plus
/// the coordinator-process spans. Only spans tagged [`SPAN_COMPONENT`] are
/// returned, so a single-process test harness sees the same isolation a real
/// multi-process deployment would.
pub fn telemetry_wire() -> TelemetryWire {
    mirror_group_ops();
    TelemetryWire {
        exposition: alpenhorn_obs::global().expose(),
        spans: alpenhorn_obs::spans_for(SPAN_COMPONENT)
            .into_iter()
            .map(|s| SpanWire {
                component: s.component.to_string(),
                name: s.name.to_string(),
                correlation: s.correlation,
                start_us: s.start_us,
                duration_us: s.duration_us,
            })
            .collect(),
    }
}

/// Copies the process's group-operation counts ([`alpenhorn_ibe::ops`],
/// plain atomics so `alpenhorn-ibe` needs no `obs` edge) into
/// `ibe_group_ops_total{op}`, so the exposition carries them.
fn mirror_group_ops() {
    let counts = alpenhorn_ibe::ops::snapshot();
    let registry = alpenhorn_obs::global();
    for (op, count) in [
        ("hash_to_g1", counts.hash_to_g1),
        ("hash_to_g2", counts.hash_to_g2),
        ("pairing", counts.pairings),
    ] {
        registry
            .gauge("ibe_group_ops_total", &[("op", op)])
            .set(count);
    }
}

/// In-flight measurement for one dispatched RPC: started by
/// [`begin_rpc`], finished by [`finish_rpc`] once the response is known.
pub(crate) struct RpcObservation {
    latency: Arc<Histogram>,
    rpc: &'static str,
    // Held for its Drop: records the span when the observation ends.
    _span: Option<SpanGuard>,
    started: Instant,
}

/// Starts observing one decoded request: picks the latency histogram for its
/// kind and, for round-scoped requests, opens a coordinator span under the
/// correlation id derived from the request's `(protocol, round)` — the id
/// every other hop of that round derives alike.
pub(crate) fn begin_rpc(request: &Request) -> RpcObservation {
    let rpc = request.name();
    let span = request.round_scope().map(|(kind, round)| {
        SpanGuard::begin(
            SPAN_COMPONENT,
            rpc,
            alpenhorn_obs::correlation_id(kind.code(), round.0),
        )
    });
    RpcObservation {
        latency: alpenhorn_obs::global().histogram("coordinator_rpc_latency_us", &[("rpc", rpc)]),
        rpc,
        _span: span,
        started: Instant::now(),
    }
}

/// Finishes one RPC observation: records latency and the ok/error outcome.
pub(crate) fn finish_rpc(observation: RpcObservation, response: &Response) {
    let outcome = match response {
        Response::Error(_) => "error",
        _ => "ok",
    };
    alpenhorn_obs::global()
        .counter(
            "coordinator_rpc_total",
            &[("rpc", observation.rpc), ("outcome", outcome)],
        )
        .inc();
    observation.latency.observe_since(observation.started);
}
