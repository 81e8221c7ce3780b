//! The truth world: the simulated fleet (winds, flight, power), the
//! *true* obstruction masks at each ground site — which can diverge
//! from the surveyed masks in the controller's model when a building
//! goes up (E13) — and the noise on what the world reports about
//! itself. Nothing outside this module can move a balloon or redraw a
//! mask; the controller only ever sees the reports generated here.

use super::{Orchestrator, OrchestratorConfig};
use crate::model::WeatherSource;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use tssdn_geo::{
    line_of_sight_clear, FieldOfRegard, GeoPoint, ObstructionMask, PointingSolution,
    TrajectorySample,
};
use tssdn_link::TransceiverId;
use tssdn_rf::BandConsts;
use tssdn_sim::{Fleet, PlatformId, PlatformKind, RngStreams, SimTime};

/// The field of regard every ground-station transceiver was surveyed
/// with. The controller's model and the true masks both start from it
/// (the site survey was correct on day one).
pub(super) fn surveyed_ground_station() -> FieldOfRegard {
    FieldOfRegard::ground_station(2.0)
}

pub(super) struct Truth {
    fleet: Fleet,
    /// The configured bands as the air treats them (no pessimism),
    /// built once: `true_margin` runs for every link machine every
    /// tick.
    bands: Vec<BandConsts>,
    true_masks: BTreeMap<PlatformId, ObstructionMask>,
    /// Post-survey construction: sectors that attenuate by a fixed
    /// loss, unknown to the controller's model (E13).
    soft_obstructions: BTreeMap<PlatformId, Vec<(ObstructionMask, f64)>>,
    rng_truth: ChaCha8Rng,
    rng_report: ChaCha8Rng,
}

impl Truth {
    pub(super) fn new(config: &OrchestratorConfig, streams: &RngStreams) -> Self {
        let fleet = Fleet::generate(config.fleet.clone(), streams);
        let true_masks = fleet
            .ground_stations
            .iter()
            .map(|g| (g.id, surveyed_ground_station().mask))
            .collect();
        Truth {
            fleet,
            bands: config.evaluator.bands.iter().map(BandConsts::new).collect(),
            true_masks,
            soft_obstructions: BTreeMap::new(),
            rng_truth: streams.stream("orch-truth"),
            rng_report: streams.stream("orch-report"),
        }
    }

    pub(super) fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Receiver noise on one measured margin, dB.
    pub(super) fn measurement_noise_db(&mut self) -> f64 {
        self.rng_truth.gen_range(-0.5..0.5)
    }
}

impl Orchestrator {
    /// The truth fleet (read-only introspection).
    pub fn fleet(&self) -> &Fleet {
        &self.truth.fleet
    }

    /// Number of balloons in the configured fleet.
    pub fn num_balloons(&self) -> usize {
        self.truth.fleet.balloons.len()
    }

    /// Erect a *true* obstruction at a ground station without updating
    /// the controller's mask — the "new building" of E13. The
    /// obstruction attenuates (rather than hard-blocks) rays through
    /// it by `loss_db`: real construction near a site shows up as
    /// "signal diminished as pointing vector is obstructed" (Figure
    /// 13), which is exactly what lets telemetry catch it.
    pub fn add_true_obstruction(
        &mut self,
        gs: PlatformId,
        az_start: f64,
        az_end: f64,
        max_el: f64,
        loss_db: f64,
    ) {
        let mut mask = ObstructionMask::clear();
        mask.add_sector(az_start, az_end, max_el);
        self.truth
            .soft_obstructions
            .entry(gs)
            .or_default()
            .push((mask, loss_db));
    }

    /// Whether a platform's payload is effectively powered (balloon
    /// solar state, or GS site power, minus injected outages and
    /// balloon-loss faults).
    #[inline]
    pub(super) fn effectively_powered(&self, p: PlatformId) -> bool {
        self.truth.fleet.payload_powered(p) && !self.chaos.platform_dark(p)
    }

    /// True physical link margin right now, or `None` when the link
    /// cannot exist (LOS, power, mask).
    pub(super) fn true_margin(&self, a: TransceiverId, b: TransceiverId, band: u8) -> Option<f64> {
        if !self.effectively_powered(a.platform) || !self.effectively_powered(b.platform) {
            return None;
        }
        // Transceiver hardware faults (gimbal stuck, radio rebooting)
        // take the radio off the air entirely for the window.
        if self.chaos.transceiver_faulted(a.platform, a.index)
            || self.chaos.transceiver_faulted(b.platform, b.index)
        {
            return None;
        }
        let fleet = &self.truth.fleet;
        let pos_a = fleet.position(a.platform);
        let pos_b = fleet.position(b.platform);
        if !line_of_sight_clear(&pos_a, &pos_b, self.config.evaluator.los_clearance_m) {
            return None;
        }
        let p_ab = PointingSolution::between(&pos_a, &pos_b);
        let p_ba = PointingSolution::between(&pos_b, &pos_a);
        // True masks: balloons use their (accurate) bus model; ground
        // stations use the possibly-diverged true site mask.
        for (t, dir) in [(a, &p_ab.direction), (b, &p_ba.direction)] {
            let xcvr = self.model.transceiver(t)?;
            match fleet.kind(t.platform) {
                PlatformKind::Balloon => {
                    if !xcvr.field_of_regard.contains(dir) {
                        return None;
                    }
                }
                PlatformKind::GroundStation => {
                    if dir.el_deg < xcvr.field_of_regard.min_el_deg {
                        return None;
                    }
                    if let Some(mask) = self.truth.true_masks.get(&t.platform) {
                        if mask.blocks(dir) {
                            return None;
                        }
                    }
                }
            }
        }
        let xa = self.model.transceiver(a)?;
        let xb = self.model.transceiver(b)?;
        // Built from `config.evaluator.bands` in `Truth::new`; `config`
        // is `pub`, but nothing writes it after construction.
        let band = &self.truth.bands[band as usize];
        let rep = band.evaluate(
            xa.pattern.gain_dbi(0.0),
            xb.pattern.gain_dbi(0.0),
            band.path_attenuation(&pos_a, &pos_b, &self.config.weather_truth, self.now.as_ms()),
        );
        // Soft obstructions (post-survey construction) attenuate rays
        // through them without fully blocking.
        let mut margin = rep.margin_db;
        for (t, dir) in [(a, &p_ab.direction), (b, &p_ba.direction)] {
            for (mask, loss) in self
                .truth
                .soft_obstructions
                .get(&t.platform)
                .into_iter()
                .flatten()
            {
                if mask.blocks(dir) {
                    margin -= loss;
                }
            }
        }
        Some(margin)
    }

    /// Stage `advance_truth`: move the fleet to `now` and push the
    /// fault engine's current disturbance levels into the substrates.
    /// Fault windows open and close on tick boundaries; with no active
    /// fault every knob is at its nominal value and no extra RNG is
    /// consumed, so chaos-free runs are untouched.
    pub(super) fn advance_truth(&mut self) {
        self.truth.fleet.advance_to(self.now);
        self.chaos.advance(self.now);
        let (scale, drop) = self
            .chaos
            .satcom_disturbance(self.now)
            .unwrap_or((1.0, 0.0));
        self.cdpi.satcom.latency_scale = scale;
        self.cdpi.satcom.brownout_drop_prob = drop;
        self.cdpi.chaos = match self.chaos.command_chaos() {
            Some((c, d, r)) => tssdn_cpl::CommandChaosParams {
                corrupt_prob: c,
                duplicate_prob: d,
                reorder_prob: r,
            },
            None => tssdn_cpl::CommandChaosParams::default(),
        };
    }

    /// Stage `ingest_reports`: on the report cadence, every platform
    /// reports a (noisy) position and its power state into the model,
    /// and the site gauges are read against the true weather.
    pub(super) fn ingest_reports(&mut self) {
        if self.now < self.next_report {
            return;
        }
        self.next_report = self.now + self.config.report_interval;
        for (id, kind) in self.truth.fleet.platform_ids() {
            let pos = self.truth.fleet.position(id);
            // GPS noise on balloon reports (~10 m).
            let (noise_e, noise_n): (f64, f64) = if kind == PlatformKind::Balloon {
                (
                    self.truth.rng_report.gen_range(-10.0..10.0),
                    self.truth.rng_report.gen_range(-10.0..10.0),
                )
            } else {
                (0.0, 0.0)
            };
            let (ve, vn) = if kind == PlatformKind::Balloon {
                let b = &self.truth.fleet.balloons[id.0 as usize];
                (b.vel_east_mps, b.vel_north_mps)
            } else {
                (0.0, 0.0)
            };
            self.model.report_position(
                id,
                TrajectorySample {
                    t_ms: self.now.as_ms(),
                    pos: pos.offset(noise_e, noise_n, 0.0),
                    vel_east_mps: ve,
                    vel_north_mps: vn,
                    vel_up_mps: 0.0,
                },
            );
            let powered = self.effectively_powered(id);
            self.model.report_power(id, powered);
        }
        // Refresh gauge readings when configured.
        if let WeatherSource::GaugesAndForecast { gauges, .. } = &self.model.weather {
            let readings: Vec<(GeoPoint, f64, SimTime)> = gauges
                .iter()
                .map(|g| {
                    (
                        g.site,
                        g.read(&self.config.weather_truth, self.now.as_ms()),
                        self.now,
                    )
                })
                .collect();
            self.model.gauge_readings = readings;
        }
    }
}
