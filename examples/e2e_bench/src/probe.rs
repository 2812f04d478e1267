//! Measuring from outside: wrappers around the public `Transport` and
//! `NodeClient` boundaries that record spans and byte counts, without
//! touching the stack they wrap.
//!
//! Each driver thread owns one [`Probe`]. While it is off (the timed run,
//! except for the one metered client per thread) the wrappers are a single
//! relaxed load and a pass-through call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use alpenhorn::{Transport, TransportError};
use alpenhorn_cdn::{CdnError, NodeClient};
use alpenhorn_wire::{CdnRequest, CdnResponse, Frame, Request, Response};

use crate::fleet::DATA_SHARDS;

/// Span names of the RPCs, protocol-agnostic so one metric name serves both
/// the add-friend and the dialing workloads.
pub const RPCS: [&str; 6] = [
    "round_info",
    "extract_keys",
    "issue_token",
    "submit",
    "begin_round",
    "close_round",
];
pub const FETCH_MAILBOX: &str = "fetch_mailbox";
pub const CDN_FETCH: &str = "cdn.fetch";
pub const SHARD_GET: &str = "cdn.shard_get";

fn rpc_name(request: &Request) -> &'static str {
    match request {
        Request::GetAddFriendRoundInfo | Request::GetDialingRoundInfo => "round_info",
        Request::ExtractIdentityKeys { .. } => "extract_keys",
        Request::IssueRateLimitToken { .. } => "issue_token",
        Request::SubmitAddFriend { .. } | Request::SubmitDialing { .. } => "submit",
        Request::BeginAddFriendRound { .. } | Request::BeginDialingRound { .. } => "begin_round",
        Request::CloseAddFriendRound { .. } | Request::CloseDialingRound { .. } => "close_round",
        Request::FetchAddFriendMailbox { .. } | Request::FetchDialingMailbox { .. } => {
            FETCH_MAILBOX
        }
        _ => "other",
    }
}

/// One recorded interval. `parent` indexes the same probe's span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub round: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1000.0
    }
}

/// Framed bytes of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bytes {
    pub calls: u64,
    pub up: u64,
    pub down: u64,
}

#[derive(Default)]
pub struct Recorded {
    pub spans: Vec<Span>,
    open: Vec<u32>,
    pub round: u64,
    pub bytes: BTreeMap<&'static str, Bytes>,
    /// Shard fetches answered with a shard, of which `parity_fetches` were
    /// parity shards.
    pub shard_fetches: u64,
    pub parity_fetches: u64,
    /// Mailbox fetches that reached the coordinator (the CDN path missed).
    pub origin_fallbacks: u64,
}

pub struct Probe {
    on: AtomicBool,
    epoch: Instant,
    /// Bytes a frame adds around its payload, measured from the codec so a
    /// framing change shows. The optional 8-byte telemetry field the TCP
    /// transports add to round-scoped requests is not counted.
    frame_overhead: u64,
    recorded: Mutex<Recorded>,
}

impl Probe {
    pub fn new(epoch: Instant) -> Arc<Probe> {
        Arc::new(Probe {
            on: AtomicBool::new(false),
            epoch,
            frame_overhead: Frame::encode(&[]).len() as u64,
            recorded: Mutex::new(Recorded::default()),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn recorded(&self) -> MutexGuard<'_, Recorded> {
        self.recorded.lock().expect("probe mutex")
    }

    pub fn set_round(&self, round: u64) {
        self.recorded().round = round;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; `None` while off.
    pub fn begin(&self, name: &'static str) -> Option<u32> {
        if !self.is_on() {
            return None;
        }
        let start_ns = self.now_ns();
        let mut rec = self.recorded();
        let id = rec.spans.len() as u32;
        let (parent, round) = (rec.open.last().copied(), rec.round);
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            round,
        });
        rec.open.push(id);
        Some(id)
    }

    pub fn end(&self, id: Option<u32>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let mut rec = self.recorded();
        rec.spans[id as usize].end_ns = end_ns;
        // Spans close innermost-first.
        rec.open.pop();
    }

    fn count_bytes(&self, name: &'static str, up_payload: usize, down_payload: Option<usize>) {
        let mut rec = self.recorded();
        let tally = rec.bytes.entry(name).or_default();
        tally.calls += 1;
        tally.up += up_payload as u64 + self.frame_overhead;
        if let Some(down) = down_payload {
            tally.down += down as u64 + self.frame_overhead;
        }
    }
}

/// Which side of `CdnRoutedTransport` a [`Tap`] sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Outside: sees what the client asks for. Records only mailbox fetches,
    /// as `cdn.fetch` (download + reassembly + blob decode).
    Client,
    /// Inside: sees what reaches the coordinator connection. Records every
    /// RPC with its framed bytes; a mailbox fetch here is an origin fallback.
    Coordinator,
}

pub struct Tap<T> {
    inner: T,
    probe: Arc<Probe>,
    side: Side,
}

impl<T> Tap<T> {
    pub fn new(inner: T, probe: Arc<Probe>, side: Side) -> Self {
        Tap { inner, probe, side }
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn call(&mut self, request: Request) -> Result<Response, TransportError> {
        if !self.probe.is_on() {
            return self.inner.call(request);
        }
        let name = rpc_name(&request);
        match self.side {
            Side::Client if name == FETCH_MAILBOX => {
                let span = self.probe.begin(CDN_FETCH);
                let result = self.inner.call(request);
                self.probe.end(span);
                result
            }
            Side::Client => self.inner.call(request),
            Side::Coordinator => {
                let up = request.encode().len();
                let span = self.probe.begin(name);
                let result = self.inner.call(request);
                self.probe.end(span);
                let down = result.as_ref().ok().map(|response| response.encode().len());
                self.probe.count_bytes(name, up, down);
                if name == FETCH_MAILBOX {
                    self.probe.recorded().origin_fallbacks += 1;
                }
                result
            }
        }
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.inner.reset()
    }
}

/// A CDN node handle that records shard fetches.
pub struct NodeTap<N> {
    inner: N,
    probe: Arc<Probe>,
}

impl<N> NodeTap<N> {
    pub fn new(inner: N, probe: Arc<Probe>) -> Self {
        NodeTap { inner, probe }
    }
}

impl<N: NodeClient> NodeClient for NodeTap<N> {
    fn call(&mut self, request: &CdnRequest) -> Result<CdnResponse, CdnError> {
        let index = match request {
            CdnRequest::GetShard { index, .. } if self.probe.is_on() => *index as usize,
            _ => return self.inner.call(request),
        };
        let span = self.probe.begin(SHARD_GET);
        let result = self.inner.call(request);
        self.probe.end(span);
        let down = result.as_ref().ok().map(|response| response.encode().len());
        self.probe
            .count_bytes(SHARD_GET, request.encode().len(), down);
        if let Ok(CdnResponse::Shard { .. }) = &result {
            let mut rec = self.probe.recorded();
            rec.shard_fetches += 1;
            if index >= DATA_SHARDS {
                rec.parity_fetches += 1;
            }
        }
        result
    }

    fn disconnect(&mut self) {
        self.inner.disconnect();
    }
}
