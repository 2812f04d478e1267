//! Lightweight span tracing with round-scoped correlation ids.
//!
//! A span is a named, timed interval tagged with the component that recorded
//! it (`"coordinator"`, `"mixd"`, `"cdn"`, `"client"`) and a correlation id.
//! The id for round work is [`correlation_id`]`(protocol, round)` — a pure
//! function of the round identity, so every process touching one round's
//! traffic derives (or receives over the wire) the *same* id without any
//! coordination, and a cross-process trace is just "all spans with this id".
//!
//! Spans live in a bounded global ring; recording is one short mutex hold
//! on a cold-ish path (round phases, shard ops — not per-onion work).
//! Timestamps are microseconds since process start and exist only for
//! humans: nothing deterministic may read them back.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::Counter;

/// How many finished spans the ring retains.
pub const SPAN_RING_CAPACITY: usize = 4096;

/// The counter of spans evicted from a full ring. The global registry
/// registers it when it is created, so every exposition carries it.
pub(crate) const RING_OVERWRITES: &str = "obs_span_ring_overwrites_total";

fn ring_overwrites() -> &'static Counter {
    static OVERWRITES: OnceLock<Arc<Counter>> = OnceLock::new();
    OVERWRITES.get_or_init(|| crate::global().counter(RING_OVERWRITES, &[]))
}

/// The correlation id shared by all work on one `(protocol, round)`.
///
/// `protocol` is the wire round-kind code (0 = add-friend, 1 = dialing).
/// The id is nonzero for every round, distinct across protocols, and
/// identical in every process that computes it — the whole point.
pub fn correlation_id(protocol: u8, round: u64) -> u64 {
    ((u64::from(protocol) + 1) << 56) | (round & 0x00ff_ffff_ffff_ffff)
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which process type recorded it (`"coordinator"`, `"mixd"`, `"cdn"`, ...).
    pub component: &'static str,
    /// What the interval covered (`"mix.round"`, `"cdn.put_shard"`, ...).
    pub name: &'static str,
    /// [`correlation_id`] of the round this work belonged to (0 = unknown).
    pub correlation: u64,
    /// Start, microseconds since process start.
    pub start_us: u64,
    /// Duration in microseconds.
    pub duration_us: u64,
}

fn ring() -> &'static Mutex<VecDeque<SpanRecord>> {
    static RING: OnceLock<Mutex<VecDeque<SpanRecord>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(SPAN_RING_CAPACITY)))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn push(record: SpanRecord) {
    let mut ring = ring().lock().expect("span ring lock");
    if ring.len() == SPAN_RING_CAPACITY {
        ring.pop_front();
        ring_overwrites().inc();
    }
    ring.push_back(record);
}

/// All retained spans, oldest first.
pub fn spans() -> Vec<SpanRecord> {
    ring()
        .lock()
        .expect("span ring lock")
        .iter()
        .cloned()
        .collect()
}

/// Retained spans recorded by one component, oldest first. In a real
/// deployment each process only ever holds its own; this filter makes
/// single-process tests (where all components share the ring) behave the
/// same way.
pub fn spans_for(component: &str) -> Vec<SpanRecord> {
    ring()
        .lock()
        .expect("span ring lock")
        .iter()
        .filter(|s| s.component == component)
        .cloned()
        .collect()
}

/// Drops every retained span (test isolation).
pub fn clear_spans() {
    ring().lock().expect("span ring lock").clear();
}

/// An open span: records itself into the ring when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    component: &'static str,
    name: &'static str,
    correlation: u64,
    start_us: u64,
    started: Instant,
}

impl SpanGuard {
    /// Opens a span; `correlation` 0 means "not round-scoped".
    pub fn begin(component: &'static str, name: &'static str, correlation: u64) -> Self {
        let started = Instant::now();
        SpanGuard {
            component,
            name,
            correlation,
            start_us: started.duration_since(epoch()).as_micros() as u64,
            started,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        push(SpanRecord {
            component: self.component,
            name: self.name,
            correlation: self.correlation,
            start_us: self.start_us,
            duration_us: self.started.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_ids_are_distinct_and_stable() {
        assert_eq!(correlation_id(0, 7), correlation_id(0, 7));
        assert_ne!(correlation_id(0, 7), correlation_id(1, 7));
        assert_ne!(correlation_id(0, 7), correlation_id(0, 8));
        assert_ne!(correlation_id(0, 0), 0);
        assert_ne!(correlation_id(1, 0), 0);
    }

    // These tests share one global ring with any concurrently running test,
    // so they only assert on their own uniquely-named components and on the
    // capacity bound, never on global totals.

    #[test]
    fn guard_records_on_drop_and_filters_by_component() {
        {
            let _a = SpanGuard::begin("testproc-guard", "op.one", correlation_id(0, 1));
            let _b = SpanGuard::begin("otherproc-guard", "op.two", 0);
        }
        let mine = spans_for("testproc-guard");
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "op.one");
        assert_eq!(mine[0].correlation, correlation_id(0, 1));
        assert_eq!(spans_for("otherproc-guard").len(), 1);
    }

    #[test]
    fn ring_is_bounded() {
        for _ in 0..(SPAN_RING_CAPACITY + 10) {
            drop(SpanGuard::begin("bound", "op", 0));
        }
        assert!(spans().len() <= SPAN_RING_CAPACITY);
        assert!(!spans_for("bound").is_empty());
    }

    #[test]
    fn overwrites_are_counted() {
        // The ring is shared with concurrent tests, which may evict too, so
        // only a lower bound holds: filling the ring and pushing `extra` more
        // evicts at least `extra` spans.
        let extra = 7;
        let before = ring_overwrites().get();
        for _ in 0..(SPAN_RING_CAPACITY + extra) {
            drop(SpanGuard::begin("overwrite", "op", 0));
        }
        assert!(ring_overwrites().get() - before >= extra as u64);
        assert!(crate::global().expose().contains(RING_OVERWRITES));
    }
}
