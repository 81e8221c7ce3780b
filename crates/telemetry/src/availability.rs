//! Per-layer availability accounting — the data behind Figure 6.
//!
//! "Each line reports the ratio of time that the layer was
//! successfully operable over the total potential operable time"
//! (§3.2). A node's *potential* operable time excludes periods when it
//! couldn't possibly serve (unpowered balloons at night), so the
//! series is driven by `record(node, layer, eligible, up, now)` calls
//! from periodic probes.

use std::collections::BTreeMap;
use tssdn_sim::SimTime;

/// The three availability layers of Figure 6, plus the fail-static
/// tracking layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// A link touching the node is installed.
    Link,
    /// MANET-routed path from the node to the controller endpoint.
    ControlPlane,
    /// SDN-programmed route from the node to the EC/EPC.
    DataPlane,
    /// The node is forwarding on last-programmed routes *while cut
    /// off from the controller* (§4.3 fail-static). A subset of
    /// `DataPlane`-up time; "up" here means stale-but-forwarding, as
    /// distinct from down.
    DataPlaneStale,
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Layer::Link => write!(f, "link"),
            Layer::ControlPlane => write!(f, "control"),
            Layer::DataPlane => write!(f, "data"),
            Layer::DataPlaneStale => write!(f, "data-stale"),
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Counter {
    eligible_probes: u64,
    up_probes: u64,
}

/// Probe-based availability accumulator with windowed buckets.
#[derive(Debug)]
pub struct AvailabilitySeries {
    /// Bucket width, ms (e.g. one simulated day per Figure-6 point).
    window_ms: u64,
    /// (window index, layer) → counter, aggregated over nodes.
    buckets: BTreeMap<(u64, Layer), Counter>,
}

impl AvailabilitySeries {
    /// A series bucketed into windows of `window_ms`.
    pub fn new(window_ms: u64) -> Self {
        assert!(window_ms > 0);
        AvailabilitySeries {
            window_ms,
            buckets: BTreeMap::new(),
        }
    }

    /// Record one node's probe result. `eligible` marks whether the
    /// node was in its potential-operable window at all; ineligible
    /// probes do not count against availability.
    pub fn record(&mut self, layer: Layer, eligible: bool, up: bool, now: SimTime) {
        if !eligible {
            return;
        }
        let w = now.as_ms() / self.window_ms;
        let c = self.buckets.entry((w, layer)).or_default();
        c.eligible_probes += 1;
        if up {
            c.up_probes += 1;
        }
    }

    /// Availability ratio of `layer` in window `w`, if probed.
    pub fn window_ratio(&self, w: u64, layer: Layer) -> Option<f64> {
        let c = self.buckets.get(&(w, layer))?;
        if c.eligible_probes == 0 {
            return None;
        }
        Some(c.up_probes as f64 / c.eligible_probes as f64)
    }

    /// The full per-window series for a layer: `(window index, ratio)`.
    pub fn series(&self, layer: Layer) -> Vec<(u64, f64)> {
        self.buckets
            .iter()
            .filter(|((_, l), _)| *l == layer)
            .filter(|(_, c)| c.eligible_probes > 0)
            .map(|((w, _), c)| (*w, c.up_probes as f64 / c.eligible_probes as f64))
            .collect()
    }

    /// Whole-run availability of a layer.
    pub fn overall(&self, layer: Layer) -> Option<f64> {
        let mut eligible = 0u64;
        let mut up = 0u64;
        for ((_, l), c) in &self.buckets {
            if *l == layer {
                eligible += c.eligible_probes;
                up += c.up_probes;
            }
        }
        if eligible == 0 {
            None
        } else {
            Some(up as f64 / eligible as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY_MS: u64 = 24 * 3600 * 1000;

    #[test]
    fn ratio_counts_only_eligible_probes() {
        let mut s = AvailabilitySeries::new(DAY_MS);
        // 3 eligible probes (2 up), plus 5 night probes that must not
        // count.
        s.record(Layer::Link, true, true, SimTime::from_hours(10));
        s.record(Layer::Link, true, true, SimTime::from_hours(12));
        s.record(Layer::Link, true, false, SimTime::from_hours(14));
        for h in 0..5 {
            s.record(Layer::Link, false, false, SimTime::from_hours(h));
        }
        let r = s.window_ratio(0, Layer::Link).expect("probed");
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn windows_separate_days() {
        let mut s = AvailabilitySeries::new(DAY_MS);
        s.record(Layer::DataPlane, true, true, SimTime::from_hours(10));
        s.record(Layer::DataPlane, true, false, SimTime::from_hours(34)); // day 1
        assert_eq!(s.window_ratio(0, Layer::DataPlane), Some(1.0));
        assert_eq!(s.window_ratio(1, Layer::DataPlane), Some(0.0));
        let series = s.series(Layer::DataPlane);
        assert_eq!(series, vec![(0, 1.0), (1, 0.0)]);
    }

    #[test]
    fn layers_are_independent() {
        let mut s = AvailabilitySeries::new(DAY_MS);
        s.record(Layer::Link, true, true, SimTime::from_hours(1));
        s.record(Layer::ControlPlane, true, false, SimTime::from_hours(1));
        assert_eq!(s.overall(Layer::Link), Some(1.0));
        assert_eq!(s.overall(Layer::ControlPlane), Some(0.0));
        assert_eq!(s.overall(Layer::DataPlane), None);
    }

    #[test]
    fn per_node_totals() {
        let mut s = AvailabilitySeries::new(DAY_MS);
        // Two nodes' probes in one window: one up, one down.
        s.record(Layer::Link, true, true, SimTime::from_hours(1));
        s.record(Layer::Link, true, false, SimTime::from_hours(1));
        assert_eq!(s.overall(Layer::Link), Some(0.5));
    }
}
