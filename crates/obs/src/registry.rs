//! The instrument registry: typed counters, gauges, and histograms,
//! addressable by `&'static str` name + label set.
//!
//! Lookups take one short mutex hold (via `common::sync::lock_or_recover`)
//! and hand back an `Arc` to the atomic instrument, so hot paths grab
//! their handle once and then touch only lock-free atomics. The backing
//! map is a `BTreeMap`, so the Prometheus-style snapshot is
//! deterministically ordered.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use spcube_common::sync::lock_or_recover;

use crate::hist::Histogram;
use crate::names::Name;

/// A monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (`0` before any `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Label set attached to an instrument: sorted `(key, value)` pairs.
pub type Labels = Vec<(String, String)>;

/// Normalize a label slice into the registry's key form (sorted by key).
pub fn labels_of(labels: &[(&str, String)]) -> Labels {
    let mut v: Labels = labels
        .iter()
        .map(|(k, val)| ((*k).to_string(), val.clone()))
        .collect();
    v.sort();
    v
}

#[derive(Debug)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Hist(Arc<Histogram>),
}

/// The registry: one instrument per `(name, labels)`, created on first
/// touch. Asking for an existing name with a different instrument kind
/// returns a fresh detached instrument rather than panicking (each
/// registered [`Name`] documents its one kind in `obs::names`).
#[derive(Debug, Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<(Name, Labels), Instrument>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter `name{labels}`, created on first touch.
    pub fn counter(&self, name: Name, labels: &[(&str, String)]) -> Arc<Counter> {
        let key = (name, labels_of(labels));
        let mut map = lock_or_recover(&self.instruments);
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::default())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::default()),
        }
    }

    /// The gauge `name{labels}`, created on first touch.
    pub fn gauge(&self, name: Name, labels: &[(&str, String)]) -> Arc<Gauge> {
        let key = (name, labels_of(labels));
        let mut map = lock_or_recover(&self.instruments);
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::default())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::default()),
        }
    }

    /// The histogram `name{labels}`, created on first touch.
    pub fn histogram(&self, name: Name, labels: &[(&str, String)]) -> Arc<Histogram> {
        let key = (name, labels_of(labels));
        let mut map = lock_or_recover(&self.instruments);
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Hist(Arc::new(Histogram::new())))
        {
            Instrument::Hist(h) => Arc::clone(h),
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Prometheus-style text snapshot, deterministically ordered. Dots in
    /// instrument names become underscores (Prometheus' charset);
    /// histograms export as summaries: `_count`, `_sum`, `_max`, `_min`
    /// (true observed extremes, so bucket-bound quantiles can be
    /// sanity-checked), and `quantile` series for p50/p90/p99.
    pub fn prometheus_snapshot(&self) -> String {
        let fmt_labels = |labels: &Labels, extra: Option<(&str, &str)>| {
            let mut parts: Vec<String> =
                labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        let mut out = String::new();
        let map = lock_or_recover(&self.instruments);
        for ((name, labels), instr) in map.iter() {
            let name = name.as_str().replace('.', "_");
            match instr {
                Instrument::Counter(c) => {
                    out.push_str(&format!("{name}{} {}\n", fmt_labels(labels, None), c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{name}{} {}\n", fmt_labels(labels, None), g.get()));
                }
                Instrument::Hist(h) => {
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        fmt_labels(labels, None),
                        h.count()
                    ));
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        fmt_labels(labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{name}_max{} {}\n",
                        fmt_labels(labels, None),
                        h.max()
                    ));
                    out.push_str(&format!(
                        "{name}_min{} {}\n",
                        fmt_labels(labels, None),
                        h.min()
                    ));
                    for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            fmt_labels(labels, Some(("quantile", qs))),
                            h.quantile(q)
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AB: Name = Name::unregistered("a.b");
    const GX: Name = Name::unregistered("g.x");
    const XY: Name = Name::unregistered("x.y");

    #[test]
    fn same_key_returns_the_same_instrument() {
        let r = Registry::new();
        r.counter(AB, &[("k", "1".into())]).add(2);
        r.counter(AB, &[("k", "1".into())]).add(3);
        assert_eq!(r.counter(AB, &[("k", "1".into())]).get(), 5);
        // A different label set is a different instrument.
        assert_eq!(r.counter(AB, &[("k", "2".into())]).get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        r.gauge(GX, &[("a", "1".into()), ("b", "2".into())])
            .set(7.0);
        let same = r.gauge(GX, &[("b", "2".into()), ("a", "1".into())]);
        assert_eq!(same.get(), 7.0);
    }

    #[test]
    fn kind_mismatch_returns_detached_not_panic() {
        let r = Registry::new();
        r.counter(XY, &[]).inc();
        let g = r.gauge(XY, &[]);
        g.set(3.0);
        // The counter is untouched; the mismatched gauge is detached.
        assert_eq!(r.counter(XY, &[]).get(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_renames_dots() {
        let r = Registry::new();
        r.counter(Name::unregistered("b.count"), &[]).inc();
        r.gauge(Name::unregistered("a.gauge"), &[("r", "0".into())])
            .set(1.5);
        r.histogram(Name::unregistered("c.lat"), &[]).record(3.0);
        let snap = r.prometheus_snapshot();
        let a = snap.find("a_gauge{r=\"0\"} 1.5").expect("gauge line");
        let b = snap.find("b_count 1").expect("counter line");
        let c = snap.find("c_lat_count 1").expect("hist count line");
        assert!(a < b && b < c, "snapshot must be name-sorted:\n{snap}");
        assert!(snap.contains("c_lat{quantile=\"0.99\"} 3"));
        assert!(snap.contains("c_lat_max 3"));
        assert!(snap.contains("c_lat_min 3"));
    }
}
