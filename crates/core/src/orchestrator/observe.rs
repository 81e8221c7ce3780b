//! Observers: the availability probe that fills the Figure 6 / 8
//! collectors on the probe cadence, the per-balloon data-plane
//! diagnosis, and the end-of-run summaries. They read every part and
//! own none; what they write is the public collectors on
//! [`Orchestrator`].

use super::{Orchestrator, UpLinks};
use tssdn_dataplane::Plane;
use tssdn_sim::{PlatformId, PlatformKind, SimDuration, SimTime};
use tssdn_telemetry::{BreakCause, Layer, RegionScore};

/// Diagnostic classification of a balloon's data-plane state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPlaneStatus {
    /// SDN route traces end-to-end over up links.
    Up,
    /// Route traces end-to-end but the node is cut off from the
    /// controller: it is forwarding on its last-programmed (stale)
    /// routes — §4.3's fail-static behaviour, not an outage.
    FailStatic,
    /// No route program has ever completed for this balloon (or the
    /// id names no platform the orchestrator knows).
    NeverProgrammed,
    /// A node on the path lacks a forwarding entry (program gap).
    MissingEntry,
    /// Forwarding entries exist but point over a down link.
    BrokenLink,
}

/// End-of-run headline numbers. `PartialEq` so determinism checks can
/// compare whole summaries across repeated seeded runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Link intents created.
    pub intents_created: usize,
    /// Links that established at least once.
    pub links_established: usize,
    /// Overall availability per layer.
    pub availability: Vec<(Layer, Option<f64>)>,
}

impl Orchestrator {
    /// Headline summary of the run so far.
    pub fn summary(&self) -> RunSummary {
        let layers = [
            Layer::Link,
            Layer::ControlPlane,
            Layer::DataPlane,
            Layer::DataPlaneStale,
        ];
        RunSummary {
            duration: self.now - SimTime::ZERO,
            intents_created: self.intents.all().count(),
            links_established: self
                .ledger
                .records()
                .iter()
                .filter(|r| r.established.is_some())
                .count(),
            availability: layers.map(|l| (l, self.availability.overall(l))).to_vec(),
        }
    }

    /// Per-region planner telemetry rows, region-id order. Unsharded
    /// configurations report one region 0 owning every balloon with
    /// zero handoffs, so scorecards keep a uniform shape.
    pub fn region_scores(&self) -> Vec<RegionScore> {
        if self.config.sharding.num_regions <= 1 {
            let balloons = self
                .model
                .platforms()
                .filter(|p| p.kind == PlatformKind::Balloon)
                .count() as u64;
            return vec![RegionScore {
                region: 0,
                members: balloons,
                handoffs_in: 0,
            }];
        }
        self.regions
            .census()
            .into_iter()
            .map(|(r, members)| RegionScore {
                region: r.0,
                members,
                handoffs_in: self.regions.handoffs_into(r),
            })
            .collect()
    }

    /// Stage `probe_and_traffic`: on the probe cadence, sample every
    /// balloon's layers and advance the traffic engine. Both read the
    /// same radios at the same instant, so one up-link set serves the
    /// probe and the traffic view; traffic rides the probe cadence
    /// because its fluid step integrates offered/delivered bits since
    /// the last probe over the just-observed forwarding state.
    pub(super) fn probe_and_traffic(&mut self) {
        if self.now < self.next_probe {
            return;
        }
        self.next_probe = self.now + self.config.probe_interval;
        let up = self.enactment.up_links();
        self.probe(&up);
        self.tick_traffic(&up);
    }

    pub(super) fn probe(&mut self, up: &UpLinks) {
        debug_assert!(
            self.planner.reachable_matches_graph(),
            "reachable set out of step with the cached graph"
        );
        for b in (0..self.truth.fleet().balloons.len() as u32).map(PlatformId) {
            let eligible = self.potentially_operable(b);
            // Link layer: any installed link touches the balloon.
            let link_up = up.iter().any(|(x, y)| *x == b || *y == b);
            // Control plane: in-band reachable.
            let control_up = self.cdpi.inband.is_reachable(b, self.now);
            // Data plane: programmed route traces to the EC over up
            // links/tunnels.
            let data_up = self.active_path_on(Plane::Primary, b, up).is_some();
            // Fail-static: forwarding continues on stale routes while
            // the controller can't reach the node. Tracked as its own
            // layer so soaks can see how much of data-plane uptime was
            // carried by last-known-good state.
            for (layer, is_up) in [
                (Layer::Link, link_up),
                (Layer::ControlPlane, control_up),
                (Layer::DataPlane, data_up),
                (Layer::DataPlaneStale, data_up && !control_up),
            ] {
                self.availability.record(layer, eligible, is_up, self.now);
            }

            // Figure-8 recovery tracking (only inside eligible windows:
            // nightly power-downs are not "route breaks").
            if eligible {
                if data_up {
                    self.recovery.recovered(b, self.now);
                } else if !self.recovery.is_broken(b) && self.routes.was_programmed(b) {
                    let cause = self.correlate_break(b);
                    self.recovery.broke(b, cause, self.now);
                }
                // Control-plane breakage tracking (same correlation).
                if control_up {
                    self.recovery_control.recovered(b, self.now);
                } else if !self.recovery_control.is_broken(b) && self.routes.was_programmed(b) {
                    let cause = self.correlate_break(b);
                    self.recovery_control.broke(b, cause, self.now);
                }
            } else {
                // Power-down closes any open break without a sample:
                // recovery after dawn would be a bootstrap, not a
                // repair.
                if self.recovery.is_broken(b) {
                    self.recovery.recovered(b, self.now);
                }
                if self.recovery_control.is_broken(b) {
                    self.recovery_control.recovered(b, self.now);
                }
            }
        }
    }

    /// Attribute a fresh break to a recent link termination on the
    /// balloon's programmed path (or, with no path, at the balloon
    /// itself).
    fn correlate_break(&self, b: PlatformId) -> BreakCause {
        let path = self.routes.programmed_primary(b);
        self.enactment.break_cause(|x, y| match path {
            Some(p) => p.contains(&x) || p.contains(&y),
            None => x == b || y == b,
        })
    }

    /// Why (or whether) a balloon's data plane is reachable right now —
    /// diagnostic surface for experiments and examples.
    pub fn data_plane_status(&self, b: PlatformId) -> DataPlaneStatus {
        let ec = self.routes.ec();
        let (true, Some((src, dst))) = (
            self.routes.was_programmed(b),
            self.routes.prefix_pair((b, ec)),
        ) else {
            return DataPlaneStatus::NeverProgrammed;
        };
        if self.active_path(b).is_some() {
            // Forwarding works; distinguish live control from
            // fail-static (stale routes, controller unreachable).
            return if self.cdpi.inband.is_reachable(b, self.now) {
                DataPlaneStatus::Up
            } else {
                DataPlaneStatus::FailStatic
            };
        }
        // Distinguish a missing forwarding entry from a down link.
        let mut at = b;
        for _ in 0..32 {
            if at == ec {
                break;
            }
            let table = self.fabric.table(at);
            match table.and_then(|t| t.lookup(Plane::Primary, src, dst)) {
                None => return DataPlaneStatus::MissingEntry,
                Some(nh) => at = nh,
            }
        }
        DataPlaneStatus::BrokenLink
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::small;
    use super::*;

    #[test]
    fn queries_about_unknown_ids_answer_instead_of_panicking() {
        let mut o = small();
        o.run_until(SimTime::from_hours(10));
        let stranger = PlatformId(u32::MAX);
        assert_eq!(o.active_path(stranger), None);
        assert_eq!(o.active_alt_path(stranger), None);
        assert_eq!(
            o.data_plane_status(stranger),
            DataPlaneStatus::NeverProgrammed
        );
        // An EC is where every flow ends: it has no flow of its own,
        // and the trace from it to itself is the one-node path.
        let ec = o.ec_ids()[0];
        assert_eq!(o.data_plane_status(ec), DataPlaneStatus::NeverProgrammed);
        assert_eq!(o.active_path(ec), Some(vec![ec]));
    }
}
