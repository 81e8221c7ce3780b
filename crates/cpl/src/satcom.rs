//! Satellite command channels: queued, rate-limited, slow — and the
//! gateway logic that decides what is even worth sending.
//!
//! Calibration comes straight from §4.2: "satcom round-trip latency
//! could be as little as 23 seconds, but combined across our two
//! providers, was 1m27s at the median, 5m47s at the 90th percentile
//! and 14m50s at the 99th percentile", with a rate limit of "less
//! than one 1 KiB message per minute per balloon". One-way latency is
//! modelled as a shifted log-normal fitted to half those RTT
//! quantiles.
//!
//! The gateway implements the paper's drop rules: messages that would
//! not arrive by their TTE and messages that require in-band
//! connectivity are dropped rather than queued (§4.2 "Message
//! Queuing"). The TS-SDN is *not* notified — it discovers the loss by
//! timeout, one of the pathologies §4.2 calls out.

use crate::message::Command;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};
use tssdn_sim::{PlatformId, SimDuration, SimTime};

/// One provider's latency/rate parameters.
#[derive(Debug, Clone, Copy)]
pub struct SatcomConfig {
    /// Hard latency floor, seconds (propagation + relay scheduling).
    pub floor_s: f64,
    /// Log-normal μ of the variable one-way delay component.
    pub mu: f64,
    /// Log-normal σ of the variable one-way delay component.
    pub sigma: f64,
    /// Minimum spacing between messages to the same balloon.
    pub per_dest_interval: SimDuration,
}

impl SatcomConfig {
    /// The GEO IoT-messaging provider: higher floor, tighter spread.
    pub fn geo_provider() -> Self {
        // One-way ≈ RTT/2: floor ~11.5 s; median ~45 s ⇒ variable
        // median ~33 s ⇒ μ = ln 33 ≈ 3.5; p90/p99 tails from σ ≈ 1.05.
        SatcomConfig {
            floor_s: 11.5,
            mu: 3.5,
            sigma: 1.05,
            per_dest_interval: SimDuration::from_secs(60),
        }
    }

    /// The LEO provider: lower floor, longer scheduling tail (store
    /// and forward between passes).
    pub fn leo_provider() -> Self {
        SatcomConfig {
            floor_s: 5.0,
            mu: 3.7,
            sigma: 1.15,
            per_dest_interval: SimDuration::from_secs(60),
        }
    }

    /// Sample a one-way delivery latency.
    pub fn sample_one_way(&self, rng: &mut ChaCha8Rng) -> SimDuration {
        let (u1, u2): (f64, f64) = (
            rng.gen_range(f64::MIN_POSITIVE..1.0),
            rng.gen_range(0.0..1.0),
        );
        let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let variable = (self.mu + self.sigma * g).exp();
        SimDuration(((self.floor_s + variable) * 1000.0) as u64)
    }

    /// Expected (median) one-way latency — what the gateway uses for
    /// its arrive-by-TTE prediction.
    fn median_one_way(&self) -> SimDuration {
        SimDuration(((self.floor_s + self.mu.exp()) * 1000.0) as u64)
    }
}

/// Terminal outcome of a satcom send.
#[derive(Debug, Clone)]
pub enum SatcomOutcome {
    /// Delivered to the node at `at` (≤ TTE, usable).
    Delivered {
        cmd: Command,
        at: SimTime,
        provider: u8,
    },
    /// Physically arrived after its TTE; the node discarded it.
    ArrivedLate {
        cmd: Command,
        at: SimTime,
        provider: u8,
    },
    /// Dropped at the gateway: predicted to miss the TTE.
    DroppedLate { cmd: Command, provider: u8 },
    /// Dropped at the gateway: requires in-band connectivity.
    DroppedNeedsInband { cmd: Command },
}

#[derive(Debug)]
struct Queued {
    cmd: Command,
}

#[derive(Debug)]
struct InFlight {
    cmd: Command,
    provider: u8,
    arrives: SimTime,
}

/// The satcom gateway: provider selection, per-destination rate
/// limiting, queueing, drop rules, and delivery.
pub struct SatcomGateway {
    providers: Vec<SatcomConfig>,
    /// Next allowed transmission slot per (provider, destination).
    next_slot: BTreeMap<(u8, PlatformId), SimTime>,
    queue: VecDeque<Queued>,
    in_flight: Vec<InFlight>,
    rng: ChaCha8Rng,
    /// Gateway statistics.
    pub sent: u64,
    /// Messages dropped by either rule.
    pub dropped: u64,
    /// Brownout latency multiplier (1.0 = nominal). Set by the fault
    /// engine while a satcom-brownout window is active.
    pub latency_scale: f64,
    /// Brownout silent-loss probability for in-flight messages
    /// (0.0 = nominal). Drawn only when positive, so chaos-free runs
    /// consume no RNG.
    pub brownout_drop_prob: f64,
    /// Messages silently lost to brownouts (the TS-SDN times out).
    pub brownout_lost: u64,
}

impl SatcomGateway {
    /// A gateway over the two Loon-like providers.
    pub fn new(rng: ChaCha8Rng) -> Self {
        SatcomGateway {
            providers: vec![SatcomConfig::geo_provider(), SatcomConfig::leo_provider()],
            next_slot: BTreeMap::new(),
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            rng,
            sent: 0,
            dropped: 0,
            latency_scale: 1.0,
            brownout_drop_prob: 0.0,
            brownout_lost: 0,
        }
    }

    /// Provider config (for TTE estimation by the frontend).
    pub fn provider(&self, i: u8) -> &SatcomConfig {
        &self.providers[i as usize]
    }

    fn ready_at(&self, provider: u8, dest: PlatformId, now: SimTime) -> SimTime {
        self.next_slot
            .get(&(provider, dest))
            .copied()
            .unwrap_or(SimTime::ZERO)
            .max(now)
    }

    /// Submit a command. Returns `false` when dropped immediately
    /// (requires in-band). The TS-SDN is not told — it must time out.
    pub fn submit(&mut self, cmd: Command, _now: SimTime, out: &mut Vec<SatcomOutcome>) -> bool {
        if cmd.body.requires_inband() {
            self.dropped += 1;
            out.push(SatcomOutcome::DroppedNeedsInband { cmd });
            return false;
        }
        self.queue.push_back(Queued { cmd });
        true
    }

    /// Advance the gateway: service queued messages whose rate-limit
    /// slot has arrived, apply the drop-if-late rule, and complete
    /// deliveries. Outcomes are appended to `out`.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<SatcomOutcome>) {
        // Complete arrivals.
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].arrives <= now {
                let f = self.in_flight.swap_remove(i);
                if f.arrives <= f.cmd.tte {
                    out.push(SatcomOutcome::Delivered {
                        cmd: f.cmd,
                        at: f.arrives,
                        provider: f.provider,
                    });
                } else {
                    out.push(SatcomOutcome::ArrivedLate {
                        cmd: f.cmd,
                        at: f.arrives,
                        provider: f.provider,
                    });
                }
            } else {
                i += 1;
            }
        }

        // Service the queue in FIFO order, choosing "the network with
        // lowest expected delivery time" (§4.2) *at service time*, so
        // slot consumption by earlier messages is visible. Messages
        // whose best slot has not arrived yet are requeued
        // (head-of-line blocking is part of the modelled pathology).
        let mut requeue = VecDeque::new();
        while let Some(q) = self.queue.pop_front() {
            let provider = (0..self.providers.len() as u8)
                .min_by_key(|p| {
                    self.ready_at(*p, q.cmd.dest, now)
                        + self.providers[*p as usize].median_one_way()
                })
                .expect("providers");
            if self.ready_at(provider, q.cmd.dest, now) > now {
                requeue.push_back(q);
                continue;
            }
            let cfg = self.providers[provider as usize];
            // Drop rule: predicted (median) arrival after TTE.
            if now + cfg.median_one_way() > q.cmd.tte {
                self.dropped += 1;
                out.push(SatcomOutcome::DroppedLate {
                    cmd: q.cmd,
                    provider,
                });
                continue;
            }
            let mut latency = cfg.sample_one_way(&mut self.rng);
            if self.latency_scale != 1.0 {
                latency = latency.mul_f64(self.latency_scale.max(1.0));
            }
            self.next_slot
                .insert((provider, q.cmd.dest), now + cfg.per_dest_interval);
            // Brownout: the message leaves the gateway but never makes
            // it to the balloon. No outcome is reported — like every
            // other satcom loss, the frontend learns by timeout.
            if self.brownout_drop_prob > 0.0 && self.rng.gen_bool(self.brownout_drop_prob.min(1.0))
            {
                self.brownout_lost += 1;
                continue;
            }
            self.sent += 1;
            self.in_flight.push(InFlight {
                arrives: now + latency,
                cmd: q.cmd,
                provider,
            });
        }
        self.queue = requeue;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{CommandBody, CommandId};
    use tssdn_link::TransceiverId;
    use tssdn_sim::RngStreams;

    fn rng() -> ChaCha8Rng {
        RngStreams::new(7).stream("satcom-test")
    }

    fn link_cmd(id: u64, dest: u32, tte_s: u64, now: SimTime) -> Command {
        Command {
            id: CommandId(id),
            dest: PlatformId(dest),
            body: CommandBody::EstablishLink {
                intent_id: id,
                local: TransceiverId::new(PlatformId(dest), 0),
                peer: TransceiverId::new(PlatformId(dest + 1), 0),
            },
            tte: SimTime::from_secs(tte_s),
            submitted: now,
        }
    }

    #[test]
    fn latency_quantiles_match_paper_scale() {
        // Combined two-provider one-way latency should show: best
        // cases near 11–15 s, median well under 2 min, p99 in the
        // many-minutes range (Figure 9's satcom RTT is 2× these).
        let mut r = rng();
        let geo = SatcomConfig::geo_provider();
        let leo = SatcomConfig::leo_provider();
        let mut xs: Vec<f64> = (0..4000)
            .map(|i| {
                let c = if i % 2 == 0 { &geo } else { &leo };
                c.sample_one_way(&mut r).as_secs_f64()
            })
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q = |p: f64| xs[(p * (xs.len() - 1) as f64) as usize];
        assert!(q(0.0) >= 5.0 && q(0.01) < 25.0, "best ≈ floor: {}", q(0.0));
        let median = q(0.5);
        assert!(
            (30.0..70.0).contains(&median),
            "one-way median ≈ 43 s, got {median}"
        );
        let p90 = q(0.9);
        assert!(
            (100.0..300.0).contains(&p90),
            "one-way p90 ≈ 170 s, got {p90}"
        );
        let p99 = q(0.99);
        assert!(p99 > 300.0, "minutes-long tail, got {p99}");
    }

    #[test]
    fn route_updates_dropped_needing_inband() {
        let mut gw = SatcomGateway::new(rng());
        let mut out = Vec::new();
        let cmd = Command {
            id: CommandId(1),
            dest: PlatformId(3),
            body: CommandBody::SetRoutes {
                version: 1,
                entries: 8,
            },
            tte: SimTime::from_secs(600),
            submitted: SimTime::ZERO,
        };
        assert!(!gw.submit(cmd, SimTime::ZERO, &mut out));
        assert!(matches!(out[0], SatcomOutcome::DroppedNeedsInband { .. }));
        assert_eq!(gw.dropped, 1);
    }

    #[test]
    fn delivery_happens_and_respects_tte() {
        let mut gw = SatcomGateway::new(rng());
        let mut out = Vec::new();
        // Generous TTE: should deliver.
        let cmd = link_cmd(1, 3, 1200, SimTime::ZERO);
        gw.submit(cmd, SimTime::ZERO, &mut out);
        let mut t = SimTime::ZERO;
        while out.is_empty() && t < SimTime::from_secs(1200) {
            t += SimDuration::from_secs(1);
            gw.poll(t, &mut out);
        }
        assert!(matches!(out[0], SatcomOutcome::Delivered { .. }), "{out:?}");
        if let SatcomOutcome::Delivered { at, .. } = &out[0] {
            assert!(*at >= SimTime::from_secs(5), "satcom is never instant");
        }
    }

    #[test]
    fn hopeless_tte_dropped_at_gateway() {
        let mut gw = SatcomGateway::new(rng());
        let mut out = Vec::new();
        // TTE 10 s away: median latency can't make it.
        let cmd = link_cmd(1, 3, 10, SimTime::ZERO);
        gw.submit(cmd, SimTime::ZERO, &mut out);
        gw.poll(SimTime::from_secs(1), &mut out);
        assert!(
            matches!(out[0], SatcomOutcome::DroppedLate { .. }),
            "{out:?}"
        );
    }

    #[test]
    fn per_destination_rate_limit_queues_messages() {
        let mut gw = SatcomGateway::new(rng());
        let mut out = Vec::new();
        // Four commands to the same balloon at once: both providers'
        // slots are consumed by the first two; the rest queue.
        for i in 0..4 {
            gw.submit(link_cmd(i, 3, 3600, SimTime::ZERO), SimTime::ZERO, &mut out);
        }
        gw.poll(SimTime::from_secs(1), &mut out);
        assert_eq!(gw.sent, 2, "one per provider immediately");
        assert_eq!(gw.queue.len(), 2, "rest rate-limited");
        // After the 60 s interval the next pair goes out.
        gw.poll(SimTime::from_secs(62), &mut out);
        assert_eq!(gw.sent, 4);
        assert_eq!(gw.queue.len(), 0);
    }

    #[test]
    fn different_destinations_not_blocked_by_each_other() {
        let mut gw = SatcomGateway::new(rng());
        let mut out = Vec::new();
        for d in 0..6u32 {
            gw.submit(
                link_cmd(d as u64, d, 3600, SimTime::ZERO),
                SimTime::ZERO,
                &mut out,
            );
        }
        gw.poll(SimTime::from_secs(1), &mut out);
        assert_eq!(gw.sent, 6, "rate limit is per destination");
    }
}
