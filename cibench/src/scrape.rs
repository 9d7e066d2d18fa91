//! Differences between two `/metrics` scrapes, taken around the timed
//! phase, so per-layer numbers cover exactly the measured operations.

use easeml_serve::obs::expo::Exposition;
use easeml_serve::obs::hist::{fmt_seconds, Edges, HistogramSnapshot, Unit};
use std::sync::Arc;

/// Two scrapes of one server.
#[derive(Debug)]
pub struct ScrapeDelta {
    before: Exposition,
    after: Exposition,
}

impl ScrapeDelta {
    /// The change from `before` to `after`.
    #[must_use]
    pub fn new(before: Exposition, after: Exposition) -> ScrapeDelta {
        ScrapeDelta { before, after }
    }

    /// Increase of the sample `name{labels}`; a series absent from a
    /// scrape counts as 0 there.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        let at = |e: &Exposition| e.value(name, labels).unwrap_or(0.0);
        at(&self.after) - at(&self.before)
    }

    /// Mean of the observations a histogram gained (`Δsum / Δcount`),
    /// or 0 when it gained none.
    #[must_use]
    pub fn histogram_mean(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        let count = self.counter(&format!("{name}_count"), labels);
        if count > 0.0 {
            self.counter(&format!("{name}_sum"), labels) / count
        } else {
            0.0
        }
    }

    /// `q`-quantile, in µs, of the observations a time histogram gained,
    /// interpolated within its buckets; 0 when it gained none.
    #[must_use]
    pub fn time_quantile_us(&self, name: &str, labels: &[(&str, &str)], q: f64) -> f64 {
        let edges = Edges::time();
        let bounds = edges.bounds();
        let bucket = format!("{name}_bucket");
        let cumulative = |le: &str| {
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", le));
            self.counter(&bucket, &with_le)
        };
        let mut counts = Vec::with_capacity(bounds.len() + 1);
        let mut prev = 0.0;
        for &edge in bounds {
            let cum = cumulative(&fmt_seconds(edge));
            counts.push((cum - prev).round().max(0.0) as u64);
            prev = cum;
        }
        counts.push((cumulative("+Inf") - prev).round().max(0.0) as u64);
        let count: u64 = counts.iter().sum();
        let snapshot = HistogramSnapshot {
            edges: Arc::from(bounds),
            unit: Unit::Nanos,
            counts,
            sum: 0,
            count,
        };
        snapshot.quantile(q).map_or(0.0, |ns| ns / 1e3)
    }
}
