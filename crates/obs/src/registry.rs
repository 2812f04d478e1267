//! The metric registry: named, labeled metric families with a stable text
//! exposition and cheap snapshots/deltas.
//!
//! Registration is idempotent — asking twice for the same `(name, labels)`
//! returns the same shared handle — so instrumentation sites can cache the
//! `Arc` in a `OnceLock` or just re-ask. The hot lookup path takes one
//! `RwLock` read and compares labels without allocating, so repeated
//! registration from a dispatch loop costs a map probe, not a clone storm.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, Histogram};

/// A handle to one registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One metric family: every labeling of a single metric name.
#[derive(Debug, Default)]
struct Family {
    entries: Vec<(Vec<(String, String)>, Metric)>,
}

impl Family {
    fn find(&self, labels: &[(&str, &str)]) -> Option<&Metric> {
        self.entries
            .iter()
            .find(|(have, _)| {
                have.len() == labels.len()
                    && have
                        .iter()
                        .zip(labels)
                        .all(|((hk, hv), (k, v))| hk == k && hv == v)
            })
            .map(|(_, m)| m)
    }
}

/// A collection of named metrics with stable text exposition.
#[derive(Debug, Default)]
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
}

/// The process-wide registry every instrumented layer reports into. It is
/// created holding the observability layer's own counters (the span-ring
/// overwrites), so every daemon's exposition carries them from the start.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let registry = Registry::default();
        registry.counter(crate::span::RING_OVERWRITES, &[]);
        registry
    })
}

/// Spawns a detached thread that writes [`global`]'s text exposition to
/// stderr every `every`, fenced by `=== metrics [target] ===` marker lines.
/// Backs the daemons' `--metrics-dump-secs` flag; the flag itself is the
/// opt-in, so dumps bypass the log level.
pub fn spawn_metrics_dump(target: &'static str, every: std::time::Duration) {
    std::thread::spawn(move || loop {
        std::thread::sleep(every);
        eprint!(
            "=== metrics [{target}] ===\n{}=== end metrics [{target}] ===\n",
            global().expose()
        );
    });
}

impl Registry {
    /// A fresh empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        if let Some(found) = self
            .families
            .read()
            .expect("metric registry lock")
            .get(name)
            .and_then(|f| f.find(labels))
        {
            return found.clone();
        }
        let mut families = self.families.write().expect("metric registry lock");
        let family = families.entry(name.to_string()).or_default();
        if let Some(found) = family.find(labels) {
            return found.clone();
        }
        let metric = make();
        let owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        family.entries.push((owned, metric.clone()));
        metric
    }

    /// The counter `name{labels}`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, labels, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name} is registered as a non-counter"),
        }
    }

    /// The gauge `name{labels}`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name} is registered as a non-gauge"),
        }
    }

    /// The histogram `name{labels}`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.get_or_insert(name, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name} is registered as a non-histogram"),
        }
    }

    /// Renders every metric in the stable Prometheus-style text format:
    /// `name{label="v"} value`, one sample per line, families and labelings
    /// in lexicographic order. Histograms expose cumulative `_bucket{le=..}`
    /// lines plus `_sum` and `_count`.
    pub fn expose(&self) -> String {
        let families = self.families.read().expect("metric registry lock");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let mut entries: Vec<&(Vec<(String, String)>, Metric)> =
                family.entries.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            for (labels, metric) in entries {
                match metric {
                    Metric::Counter(c) => {
                        writeln!(out, "{}{} {}", name, render_labels(labels, None), c.get())
                            .expect("write to string");
                    }
                    Metric::Gauge(g) => {
                        writeln!(out, "{}{} {}", name, render_labels(labels, None), g.get())
                            .expect("write to string");
                    }
                    Metric::Histogram(h) => {
                        let buckets = h.buckets();
                        let mut cumulative = 0u64;
                        for (i, count) in buckets.iter().enumerate() {
                            cumulative += count;
                            if *count == 0 && i + 1 < buckets.len() {
                                continue; // keep the exposition compact
                            }
                            let le = match Histogram::bucket_bound(i) {
                                Some(bound) => bound.to_string(),
                                None => "+Inf".to_string(),
                            };
                            writeln!(
                                out,
                                "{}_bucket{} {}",
                                name,
                                render_labels(labels, Some(&le)),
                                cumulative
                            )
                            .expect("write to string");
                        }
                        writeln!(
                            out,
                            "{}_sum{} {}",
                            name,
                            render_labels(labels, None),
                            h.sum()
                        )
                        .expect("write to string");
                        writeln!(
                            out,
                            "{}_count{} {}",
                            name,
                            render_labels(labels, None),
                            h.count()
                        )
                        .expect("write to string");
                    }
                }
            }
        }
        out
    }

    /// Captures current values as a flat, ordered map. Counters and gauges
    /// contribute their value under `name{labels}`; histograms contribute
    /// `name_count{labels}` and `name_sum{labels}`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.families.read().expect("metric registry lock");
        let mut values = BTreeMap::new();
        for (name, family) in families.iter() {
            for (labels, metric) in &family.entries {
                let key = format!("{}{}", name, render_labels(labels, None));
                match metric {
                    Metric::Counter(c) => {
                        values.insert(key, c.get());
                    }
                    Metric::Gauge(g) => {
                        values.insert(key, g.get());
                    }
                    Metric::Histogram(h) => {
                        let bare = render_labels(labels, None);
                        values.insert(format!("{name}_count{bare}"), h.count());
                        values.insert(format!("{name}_sum{bare}"), h.sum());
                    }
                }
            }
        }
        MetricsSnapshot { values }
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        write!(out, "{k}=\"{v}\"").expect("write to string");
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        write!(out, "le=\"{le}\"").expect("write to string");
    }
    out.push('}');
    out
}

/// A point-in-time flat capture of a [`Registry`], diffable against an
/// earlier capture to get per-round or per-phase activity.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `metric{labels}` → value, in stable lexicographic order.
    pub values: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// The keys whose values grew since `earlier`, with the increase.
    /// Unchanged and shrunk (gauge went down) keys are omitted, so the delta
    /// of a quiet interval is empty.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> Vec<(String, u64)> {
        self.values
            .iter()
            .filter_map(|(key, now)| {
                let before = earlier.values.get(key).copied().unwrap_or(0);
                (*now > before).then(|| (key.clone(), now - before))
            })
            .collect()
    }

    /// Value of one key (0 when absent).
    pub fn value(&self, key: &str) -> u64 {
        self.values.get(key).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter("requests_total", &[("rpc", "submit")]);
        let b = r.counter("requests_total", &[("rpc", "submit")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
        // A different labeling is a different metric.
        let c = r.counter("requests_total", &[("rpc", "fetch")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.gauge("depth", &[]);
        r.counter("depth", &[]);
    }

    #[test]
    fn exposition_is_stable_and_prometheus_shaped() {
        let r = Registry::new();
        r.counter("b_total", &[("k", "v")]).add(7);
        r.gauge("a_depth", &[]).set(3);
        let h = r.histogram("c_latency_us", &[]);
        h.observe(3);
        let text = r.expose();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a_depth 3");
        assert_eq!(lines[1], "b_total{k=\"v\"} 7");
        assert!(lines.contains(&"c_latency_us_bucket{le=\"4\"} 1"));
        assert!(lines.contains(&"c_latency_us_bucket{le=\"+Inf\"} 1"));
        assert!(lines.contains(&"c_latency_us_sum 3"));
        assert!(lines.contains(&"c_latency_us_count 1"));
        // Byte-stable across repeated renders.
        assert_eq!(text, r.expose());
    }

    #[test]
    fn snapshot_delta_reports_only_growth() {
        let r = Registry::new();
        let c = r.counter("events_total", &[]);
        let g = r.gauge("depth", &[]);
        c.add(2);
        g.set(5);
        let before = r.snapshot();
        c.add(3);
        g.set(1); // shrunk: omitted from the delta
        let after = r.snapshot();
        let delta = after.delta_since(&before);
        assert_eq!(delta, vec![("events_total".to_string(), 3)]);
        assert_eq!(after.value("depth"), 1);
        assert_eq!(after.value("missing"), 0);
    }
}
