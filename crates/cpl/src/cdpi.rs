//! The CDPI frontend: channel selection, TTE computation, retries,
//! side-channel inference, and enactment metrics.
//!
//! §4.2 in code form:
//!
//! * **Channel selection** — "the TS-SDN monitored connectivity and
//!   directed messages along the lowest latency path": in-band when a
//!   fresh heartbeat says the node is connected, satcom otherwise.
//! * **Time to enact** — "for commands using satcom, the 95th
//!   percentile of one-way command delivery delay was added to the
//!   TTE. If in-band paths were available to all updating nodes, then
//!   a three-second delay was added", and an intent's TTE is "the
//!   longest delay" over all its recipient nodes. Once set, a TTE is
//!   never upgraded (a pathology the paper calls out; the ablation
//!   keeps it faithful).
//! * **Retries** — "when the TS-SDN didn't get a response back, it
//!   cycled through the available channels based on priority, set a
//!   new TTE, and retried the command."
//! * **Side channel** — a balloon's in-band connection appearing
//!   confirms a pending link-establishment intent "many seconds
//!   before the satcom response arrived".

use crate::inband::{InbandChannel, InbandOutcome};
use crate::lora::{LoraChannel, LoraOutcome};
use crate::message::{Channel, Command, CommandBody, CommandId, IntentKind};
use crate::satcom::{SatcomGateway, SatcomOutcome};
use rand::Rng;
use std::collections::BTreeMap;
use tssdn_sim::{PlatformId, RngStreams, SimDuration, SimTime};

/// TTE margin when any recipient needs satcom (the p95 one-way delay;
/// "an extra 3m6s TTE delay", §4.2).
const SATCOM_TTE_MARGIN: SimDuration = SimDuration::from_secs(186);

/// TTE margin when all recipients are in-band.
const INBAND_TTE_MARGIN: SimDuration = SimDuration::from_secs(3);

/// TTE margin when LoRa carries the slowest command of an intent.
const LORA_TTE_MARGIN: SimDuration = SimDuration::from_secs(10);

/// Response timeout for link commands (boot + search can take 2m30s
/// on top of delivery).
const LINK_TIMEOUT: SimDuration = SimDuration::from_secs(240);

/// Response timeout for route commands.
const ROUTE_TIMEOUT: SimDuration = SimDuration::from_secs(10);

/// Give up on a command after this many attempts.
const MAX_ATTEMPTS: u32 = 4;

/// First-retry backoff; attempt `n` waits `base · 2^(n-1)` (plus
/// deterministic jitter) before redispatching. Immediate retries
/// against a dead channel only feed the satcom rate limiter.
const RETRY_BACKOFF_BASE: SimDuration = SimDuration::from_secs(5);

/// Ceiling on the exponential retry backoff.
const RETRY_BACKOFF_CAP: SimDuration = SimDuration::from_secs(60);

/// A command's response timeout, counted from its TTE.
fn timeout_for(kind: IntentKind) -> SimDuration {
    match kind {
        IntentKind::Link => LINK_TIMEOUT,
        // Route commands use one short timeout everywhere: they can't
        // ride satcom at all, and a LoRa frame won't fit a table
        // either, so the retry ladder must spin quickly.
        IntentKind::Route => ROUTE_TIMEOUT,
    }
}

/// Frontend tunables.
#[derive(Debug, Clone, Copy, Default)]
pub struct CdpiConfig {
    /// Enable the prototype LoRaWAN bootstrap channel (§2.2). Off by
    /// default — Loon never deployed it; E15 measures what it buys.
    pub lora_enabled: bool,
}

/// Delivery-boundary chaos knobs (normally all zero; driven by the
/// fault engine during command-channel fault windows).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommandChaosParams {
    /// Probability a delivered command is corrupted: the receiver's
    /// integrity check discards it silently (no execution, no ack).
    pub corrupt_prob: f64,
    /// Probability a delivered command arrives twice.
    pub duplicate_prob: f64,
    /// Probability a poll's delivery batch arrives reordered.
    pub reorder_prob: f64,
}

impl CommandChaosParams {
    fn quiet(&self) -> bool {
        self.corrupt_prob <= 0.0 && self.duplicate_prob <= 0.0 && self.reorder_prob <= 0.0
    }
}

/// Deterministic retry jitter: a hash of (command, attempt) so equal
/// runs back off identically while distinct commands desynchronize.
fn deterministic_jitter_ms(id: CommandId, attempt: u32, max_ms: u64) -> u64 {
    if max_ms == 0 {
        return 0;
    }
    let mut z = id.0 ^ ((attempt as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z % max_ms
}

/// Events surfaced to the orchestrator.
#[derive(Debug, Clone)]
pub enum CdpiEvent {
    /// A command physically reached its node (enact at its TTE).
    DeliveredToNode {
        cmd: Command,
        at: SimTime,
        channel: Channel,
    },
    /// An intent fully confirmed (all commands acked, or success
    /// inferred via the in-band side channel).
    IntentConfirmed {
        intent_id: u64,
        kind: IntentKind,
        at: SimTime,
        elapsed: SimDuration,
    },
    /// A command timed out and was retried on a (possibly different)
    /// channel with a fresh TTE.
    Retried {
        id: CommandId,
        attempt: u32,
        channel: Channel,
    },
    /// A command exhausted its attempts.
    Expired { id: CommandId, intent_id: u64 },
}

/// Completed-intent metrics for Figure 9.
#[derive(Debug, Clone, Copy)]
pub struct EnactmentRecord {
    /// Link or Route.
    pub kind: IntentKind,
    /// Submission time of the intent.
    pub submitted: SimTime,
    /// Confirmation time.
    pub confirmed: SimTime,
    /// Whether any command of the intent travelled via satcom.
    pub used_satcom: bool,
}

impl EnactmentRecord {
    /// Submission-to-confirmation delay, seconds.
    pub fn elapsed_s(&self) -> f64 {
        (self.confirmed - self.submitted).as_secs_f64()
    }
}

#[derive(Debug)]
struct Outstanding {
    cmd: Command,
    intent_id: u64,
    channel: Channel,
    attempt: u32,
    timeout_at: SimTime,
    acked: bool,
    /// Timed out and waiting in the backoff queue for redispatch.
    awaiting_backoff: bool,
}

#[derive(Debug)]
struct IntentState {
    kind: IntentKind,
    submitted: SimTime,
    commands: Vec<CommandId>,
    confirmed: Option<SimTime>,
    used_satcom: bool,
}

/// The frontend itself. Owns the satcom gateway and in-band channel.
pub struct CdpiFrontend {
    /// The satcom path (gateway + two providers).
    pub satcom: SatcomGateway,
    /// The in-band path.
    pub inband: InbandChannel,
    /// The optional LoRa bootstrap path.
    pub lora: LoraChannel,
    /// Delivery-boundary chaos (all-zero when no fault is active).
    pub chaos: CommandChaosParams,
    config: CdpiConfig,
    next_cmd: u64,
    next_intent: u64,
    outstanding: BTreeMap<CommandId, Outstanding>,
    intents: BTreeMap<u64, IntentState>,
    /// Pending transport acks: (arrives, command id).
    acks: Vec<(SimTime, CommandId)>,
    /// Commands waiting out their retry backoff: (redispatch, id).
    pending_retries: Vec<(SimTime, CommandId)>,
    /// Receiver-side idempotency ledger: command ids already executed.
    /// A replayed delivery re-acks (its ack may have been lost) but is
    /// never re-executed.
    delivered_seen: std::collections::BTreeSet<CommandId>,
    records: Vec<EnactmentRecord>,
    rng: rand_chacha::ChaCha8Rng,
    /// Chaos draws come from their own stream so runs with chaos off
    /// are bit-identical to pre-chaos behavior.
    chaos_rng: rand_chacha::ChaCha8Rng,
    /// Deliveries discarded by the receiver's integrity check.
    pub chaos_corrupted: u64,
    /// Deliveries duplicated in flight.
    pub chaos_duplicated: u64,
    /// Replayed deliveries suppressed by the idempotency ledger.
    pub dedup_suppressed: u64,
}

impl CdpiFrontend {
    /// Build a frontend with its own deterministic streams.
    pub fn new(config: CdpiConfig, streams: &RngStreams) -> Self {
        CdpiFrontend {
            satcom: SatcomGateway::new(streams.stream("cpl-satcom")),
            inband: InbandChannel::new(streams.stream("cpl-inband")),
            lora: LoraChannel::new(streams.stream("cpl-lora")),
            chaos: CommandChaosParams::default(),
            config,
            next_cmd: 0,
            next_intent: 0,
            outstanding: BTreeMap::new(),
            intents: BTreeMap::new(),
            acks: Vec::new(),
            pending_retries: Vec::new(),
            delivered_seen: std::collections::BTreeSet::new(),
            records: Vec::new(),
            rng: streams.stream("cpl-acks"),
            chaos_rng: streams.stream("cpl-chaos"),
            chaos_corrupted: 0,
            chaos_duplicated: 0,
            dedup_suppressed: 0,
        }
    }

    /// Completed-intent metrics so far.
    pub fn records(&self) -> &[EnactmentRecord] {
        &self.records
    }

    /// Submit a multi-node intent. Returns `(intent_id, tte)` — the
    /// common TTE all member commands carry.
    pub fn submit_intent(
        &mut self,
        parts: Vec<(PlatformId, CommandBody)>,
        now: SimTime,
    ) -> (u64, SimTime) {
        assert!(!parts.is_empty(), "an intent needs at least one command");
        let kind = parts[0].1.kind();
        // TTE: longest margin over all recipients (§4.2 Challenges).
        let all_inband = parts.iter().all(|(d, _)| self.inband.is_reachable(*d, now));
        let all_fast = parts.iter().all(|(d, b)| {
            self.inband.is_reachable(*d, now)
                || (self.config.lora_enabled
                    && self.lora.is_covered(*d)
                    && b.size_bytes() <= self.lora.max_payload)
        });
        let tte = if all_inband {
            now + INBAND_TTE_MARGIN
        } else if all_fast {
            now + LORA_TTE_MARGIN
        } else {
            now + SATCOM_TTE_MARGIN
        };
        let intent_id = self.next_intent;
        self.next_intent += 1;
        let mut ids = Vec::new();
        let mut used_satcom = false;
        for (dest, body) in parts {
            let id = CommandId(self.next_cmd);
            self.next_cmd += 1;
            let cmd = Command {
                id,
                dest,
                body,
                tte,
                submitted: now,
            };
            let channel = self.dispatch(cmd.clone(), now);
            if matches!(channel, Channel::Satcom(_)) {
                used_satcom = true;
            }
            let timeout = timeout_for(kind);
            self.outstanding.insert(
                id,
                Outstanding {
                    cmd,
                    intent_id,
                    channel,
                    attempt: 1,
                    timeout_at: tte + timeout,
                    acked: false,
                    awaiting_backoff: false,
                },
            );
            ids.push(id);
        }
        self.intents.insert(
            intent_id,
            IntentState {
                kind,
                submitted: now,
                commands: ids,
                confirmed: None,
                used_satcom,
            },
        );
        (intent_id, tte)
    }

    /// Pick the lowest-latency available channel and hand the command
    /// to it. Returns the channel used.
    fn dispatch(&mut self, cmd: Command, now: SimTime) -> Channel {
        if self.inband.is_reachable(cmd.dest, now) && self.inband.submit(cmd.clone(), now) {
            return Channel::InBand;
        }
        if self.config.lora_enabled && self.lora.submit(cmd.clone(), now) {
            return Channel::LoRa;
        }
        let mut sink = Vec::new();
        self.satcom.submit(cmd, now, &mut sink);
        // Provider choice happens inside the gateway; report 0 as the
        // nominal satcom channel (callers only branch on the variant).
        Channel::Satcom(0)
    }

    /// A balloon's in-band connection appeared (heartbeat). Beyond
    /// updating reachability, a *new* connection is the side channel:
    /// pending link-establishment intents touching `node` are
    /// confirmed, because the node showing up in-band proves the
    /// commanded topology enacted. A steady-state heartbeat must NOT
    /// re-trigger the inference — confirming an intent strips its
    /// commands from the retry machinery, and a command whose delivery
    /// is still in flight (or lost) would then never be retried.
    pub fn node_connected_inband(
        &mut self,
        node: PlatformId,
        hops: u32,
        now: SimTime,
    ) -> Vec<CdpiEvent> {
        let was_reachable = self.inband.is_reachable(node, now);
        self.inband.set_reachable(node, hops, now);
        let mut events = Vec::new();
        if was_reachable {
            // Already connected: command confirmation rides the normal
            // in-band acks, not the side channel.
            return events;
        }
        // Side-channel inference for link intents touching this node.
        let candidates: Vec<u64> = self
            .outstanding
            .values()
            .filter(|o| {
                o.cmd.dest == node && matches!(o.cmd.body, CommandBody::EstablishLink { .. })
            })
            .map(|o| o.intent_id)
            .collect();
        for intent_id in candidates {
            if let Some(ev) = self.confirm_intent(intent_id, now) {
                events.push(ev);
            }
        }
        events
    }

    /// Mark a node unreachable in-band (heartbeats stopped).
    pub fn node_disconnected_inband(&mut self, node: PlatformId) {
        self.inband.set_unreachable(node);
    }

    /// Orchestrator-visible confirmation (e.g. it observed the link
    /// actually established, or routes verified). Idempotent.
    pub fn confirm_intent(&mut self, intent_id: u64, now: SimTime) -> Option<CdpiEvent> {
        let st = self.intents.get_mut(&intent_id)?;
        if st.confirmed.is_some() {
            return None;
        }
        st.confirmed = Some(now);
        let elapsed = now - st.submitted;
        self.records.push(EnactmentRecord {
            kind: st.kind,
            submitted: st.submitted,
            confirmed: now,
            used_satcom: st.used_satcom,
        });
        // Drop the member commands from the retry machinery.
        for id in st.commands.clone() {
            self.outstanding.remove(&id);
        }
        Some(CdpiEvent::IntentConfirmed {
            intent_id,
            kind: st.kind,
            at: now,
            elapsed,
        })
    }

    /// Advance all channels; returns events for the orchestrator.
    pub fn poll(&mut self, now: SimTime) -> Vec<CdpiEvent> {
        let mut events = Vec::new();

        // Gather raw deliveries from every channel, keeping each ack's
        // return latency with it: (cmd, delivered_at, channel, ack_at).
        let mut deliveries: Vec<(Command, SimTime, Channel, SimTime)> = Vec::new();

        // Satcom outcomes.
        let mut sat = Vec::new();
        self.satcom.poll(now, &mut sat);
        for o in sat {
            match o {
                SatcomOutcome::Delivered { cmd, at, provider } => {
                    // Transport-level ack returns over the same
                    // provider with another one-way latency.
                    let ack_latency = self.satcom.provider(provider).sample_one_way(&mut self.rng);
                    deliveries.push((cmd, at, Channel::Satcom(provider), at + ack_latency));
                }
                // Invisible to the frontend: it only learns by timeout
                // (§4.2 wishes for prompt discard notification).
                SatcomOutcome::ArrivedLate { .. }
                | SatcomOutcome::DroppedLate { .. }
                | SatcomOutcome::DroppedNeedsInband { .. } => {}
            }
        }

        // LoRa outcomes: class-A ack rides the next uplink window.
        let mut lo = Vec::new();
        self.lora.poll(now, &mut lo);
        for o in lo {
            match o {
                LoraOutcome::Delivered { cmd, at } => {
                    deliveries.push((cmd, at, Channel::LoRa, at + SimDuration::from_secs(3)));
                }
                LoraOutcome::Lost { .. } => {}
            }
        }

        // In-band outcomes.
        let mut inb = Vec::new();
        self.inband.poll(now, &mut inb);
        for o in inb {
            match o {
                InbandOutcome::Delivered { cmd, at } => {
                    // In-band acks ride the same connection: fast.
                    deliveries.push((cmd, at, Channel::InBand, at + SimDuration(200)));
                }
                InbandOutcome::Lost { .. } => {}
            }
        }

        // Delivery-boundary chaos: corruption discards a command at
        // the receiver (no execution, no ack — the frontend must time
        // out), duplication replays it, reordering scrambles the
        // batch. Draws come from the dedicated chaos stream and only
        // happen while a fault window is active, so quiet runs are
        // untouched.
        if !self.chaos.quiet() {
            let mut mutated: Vec<(Command, SimTime, Channel, SimTime)> =
                Vec::with_capacity(deliveries.len());
            for d in deliveries {
                if self.chaos.corrupt_prob > 0.0
                    && self.chaos_rng.gen_bool(self.chaos.corrupt_prob.min(1.0))
                {
                    self.chaos_corrupted += 1;
                    continue;
                }
                let dup = self.chaos.duplicate_prob > 0.0
                    && self.chaos_rng.gen_bool(self.chaos.duplicate_prob.min(1.0));
                mutated.push(d.clone());
                if dup {
                    self.chaos_duplicated += 1;
                    mutated.push(d);
                }
            }
            if mutated.len() > 1
                && self.chaos.reorder_prob > 0.0
                && self.chaos_rng.gen_bool(self.chaos.reorder_prob.min(1.0))
            {
                mutated.reverse();
            }
            deliveries = mutated;
        }

        // Receiver-side idempotency: each command id executes once.
        // Replays (chaos duplicates, or redundant retries whose first
        // copy landed but whose ack was slow or lost) re-ack without
        // re-executing.
        for (cmd, at, channel, ack_at) in deliveries {
            let fresh = self.delivered_seen.insert(cmd.id);
            self.acks.push((ack_at, cmd.id));
            if fresh {
                events.push(CdpiEvent::DeliveredToNode { cmd, at, channel });
            } else {
                self.dedup_suppressed += 1;
            }
        }

        // Ack arrivals → per-command confirmation; intent confirms
        // when all commands are acked.
        let mut due: Vec<CommandId> = Vec::new();
        self.acks.retain(|(at, id)| {
            if *at <= now {
                due.push(*id);
                false
            } else {
                true
            }
        });
        for id in due {
            let Some(o) = self.outstanding.get_mut(&id) else {
                continue;
            };
            o.acked = true;
            let intent_id = o.intent_id;
            let all_acked = self
                .intents
                .get(&intent_id)
                .map(|st| {
                    st.commands
                        .iter()
                        .all(|c| self.outstanding.get(c).map(|o| o.acked).unwrap_or(true))
                })
                .unwrap_or(false);
            if all_acked {
                if let Some(ev) = self.confirm_intent(intent_id, now) {
                    events.push(ev);
                }
            }
        }

        // Backoff expirations → redispatch. A retry cycles to
        // whichever channel is best *now* and gets a fresh TTE for it.
        let mut ready: Vec<CommandId> = Vec::new();
        self.pending_retries.retain(|(at, id)| {
            if *at <= now {
                ready.push(*id);
                false
            } else {
                true
            }
        });
        for id in ready {
            let Some(o) = self.outstanding.get(&id) else {
                continue;
            };
            if o.acked {
                // Ack raced the backoff: nothing to resend.
                if let Some(o) = self.outstanding.get_mut(&id) {
                    o.awaiting_backoff = false;
                }
                continue;
            }
            let (dest, body, intent_id, attempt) = {
                let o = self.outstanding.get(&id).expect("listed");
                (o.cmd.dest, o.cmd.body.clone(), o.intent_id, o.attempt)
            };
            let kind = body.kind();
            let tte = if self.inband.is_reachable(dest, now) {
                now + INBAND_TTE_MARGIN
            } else if self.config.lora_enabled
                && self.lora.is_covered(dest)
                && body.size_bytes() <= self.lora.max_payload
            {
                now + LORA_TTE_MARGIN
            } else {
                now + SATCOM_TTE_MARGIN
            };
            let cmd = Command {
                id,
                dest,
                body,
                tte,
                submitted: now,
            };
            let channel = self.dispatch(cmd.clone(), now);
            let timeout = timeout_for(kind);
            let o = self.outstanding.get_mut(&id).expect("listed");
            o.cmd = cmd;
            o.channel = channel;
            o.attempt = attempt + 1;
            o.timeout_at = tte + timeout;
            o.awaiting_backoff = false;
            if matches!(channel, Channel::Satcom(_)) {
                if let Some(st) = self.intents.get_mut(&intent_id) {
                    st.used_satcom = true;
                }
            }
            events.push(CdpiEvent::Retried {
                id,
                attempt: attempt + 1,
                channel,
            });
        }

        // Timeouts → expire at the attempt cap, otherwise schedule a
        // retry after exponential backoff with deterministic jitter.
        let timed_out: Vec<CommandId> = self
            .outstanding
            .iter()
            .filter(|(_, o)| !o.acked && !o.awaiting_backoff && now >= o.timeout_at)
            .map(|(id, _)| *id)
            .collect();
        for id in timed_out {
            let o = self.outstanding.get(&id).expect("listed");
            if o.attempt >= MAX_ATTEMPTS {
                let intent_id = o.intent_id;
                self.outstanding.remove(&id);
                events.push(CdpiEvent::Expired { id, intent_id });
                continue;
            }
            let attempt = o.attempt;
            let base_ms = RETRY_BACKOFF_BASE.as_ms();
            let cap_ms = RETRY_BACKOFF_CAP.as_ms();
            let exp_ms = base_ms
                .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(16))
                .min(cap_ms);
            let jitter_ms = deterministic_jitter_ms(id, attempt, exp_ms / 4 + 1);
            let backoff = SimDuration(exp_ms + jitter_ms);
            let o = self.outstanding.get_mut(&id).expect("listed");
            o.awaiting_backoff = true;
            self.pending_retries.push((now + backoff, id));
        }

        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssdn_link::TransceiverId;

    fn frontend() -> CdpiFrontend {
        CdpiFrontend::new(CdpiConfig::default(), &RngStreams::new(11))
    }

    fn establish_body(intent: u64, a: u32, b: u32) -> CommandBody {
        CommandBody::EstablishLink {
            intent_id: intent,
            local: TransceiverId::new(PlatformId(a), 0),
            peer: TransceiverId::new(PlatformId(b), 0),
        }
    }

    fn run(f: &mut CdpiFrontend, from: SimTime, to: SimTime) -> Vec<CdpiEvent> {
        let mut events = Vec::new();
        let mut t = from;
        while t < to {
            t += SimDuration::from_secs(1);
            events.extend(f.poll(t));
        }
        events
    }

    #[test]
    fn inband_tte_is_three_seconds() {
        let mut f = frontend();
        f.inband.set_reachable(PlatformId(1), 2, SimTime::ZERO);
        let (_, tte) = f.submit_intent(
            vec![(PlatformId(1), establish_body(0, 1, 2))],
            SimTime::ZERO,
        );
        assert_eq!(tte, SimTime::from_secs(3));
    }

    #[test]
    fn satcom_tte_is_186_seconds() {
        let mut f = frontend();
        let (_, tte) = f.submit_intent(
            vec![(PlatformId(1), establish_body(0, 1, 2))],
            SimTime::ZERO,
        );
        assert_eq!(tte, SimTime::from_secs(186));
    }

    #[test]
    fn mixed_intent_takes_longest_margin() {
        // One recipient in-band, one satcom-only → satcom TTE for both.
        let mut f = frontend();
        f.inband.set_reachable(PlatformId(1), 2, SimTime::ZERO);
        let (_, tte) = f.submit_intent(
            vec![
                (PlatformId(1), establish_body(0, 1, 2)),
                (PlatformId(2), establish_body(0, 2, 1)),
            ],
            SimTime::ZERO,
        );
        assert_eq!(tte, SimTime::from_secs(186));
    }

    #[test]
    fn inband_route_confirms_fast() {
        let mut f = frontend();
        f.inband.loss_prob = 0.0;
        f.inband.set_reachable(PlatformId(1), 2, SimTime::ZERO);
        let (intent, _) = f.submit_intent(
            vec![(
                PlatformId(1),
                CommandBody::SetRoutes {
                    version: 1,
                    entries: 8,
                },
            )],
            SimTime::ZERO,
        );
        let events = run(&mut f, SimTime::ZERO, SimTime::from_secs(5));
        let confirmed = events.iter().find_map(|e| match e {
            CdpiEvent::IntentConfirmed {
                intent_id, elapsed, ..
            } if *intent_id == intent => Some(*elapsed),
            _ => None,
        });
        let elapsed = confirmed.expect("confirmed quickly");
        assert!(
            elapsed.as_secs_f64() < 3.0,
            "sub-3s route confirm: {elapsed}"
        );
        assert_eq!(f.records().len(), 1);
        assert!(!f.records()[0].used_satcom);
    }

    #[test]
    fn satcom_link_command_delivers_and_acks() {
        let mut f = frontend();
        let (intent, _) = f.submit_intent(
            vec![(PlatformId(1), establish_body(0, 1, 2))],
            SimTime::ZERO,
        );
        let events = run(&mut f, SimTime::ZERO, SimTime::from_mins(20));
        assert!(
            events.iter().any(|e| matches!(
                e,
                CdpiEvent::DeliveredToNode {
                    channel: Channel::Satcom(_),
                    ..
                }
            )),
            "delivered via satcom"
        );
        let conf = events.iter().find_map(|e| match e {
            CdpiEvent::IntentConfirmed {
                intent_id, elapsed, ..
            } if *intent_id == intent => Some(*elapsed),
            _ => None,
        });
        let elapsed = conf.expect("eventually confirmed: {events:?}");
        assert!(
            elapsed.as_secs_f64() > 20.0,
            "satcom confirmation takes dozens of seconds at minimum: {elapsed}"
        );
        assert!(f.records()[0].used_satcom);
    }

    #[test]
    fn side_channel_confirms_before_satcom_ack() {
        let mut f = frontend();
        let (intent, _) = f.submit_intent(
            vec![(PlatformId(1), establish_body(0, 1, 2))],
            SimTime::ZERO,
        );
        // Run until the command is delivered over satcom.
        let mut delivered_at = None;
        let mut t = SimTime::ZERO;
        while delivered_at.is_none() && t < SimTime::from_mins(20) {
            t += SimDuration::from_secs(1);
            for e in f.poll(t) {
                if let CdpiEvent::DeliveredToNode { at, .. } = e {
                    delivered_at = Some(at);
                }
            }
        }
        let delivered_at = delivered_at.expect("delivered");
        // The balloon enacts and connects in-band shortly after TTE;
        // the side channel confirms the intent without waiting for the
        // satcom ack round trip.
        let connect_at = delivered_at + SimDuration::from_secs(30);
        let events = f.node_connected_inband(PlatformId(1), 3, connect_at);
        assert!(
            events.iter().any(|e| matches!(
                e,
                CdpiEvent::IntentConfirmed { intent_id, .. } if *intent_id == intent
            )),
            "side channel inferred success: {events:?}"
        );
    }

    #[test]
    fn route_to_unreachable_node_retries_then_expires() {
        let mut f = frontend();
        // Route update but node never reachable in-band; satcom drops
        // it silently; retries exhaust.
        let (intent, _) = f.submit_intent(
            vec![(
                PlatformId(1),
                CommandBody::SetRoutes {
                    version: 1,
                    entries: 8,
                },
            )],
            SimTime::ZERO,
        );
        let events = run(&mut f, SimTime::ZERO, SimTime::from_mins(30));
        let retries = events
            .iter()
            .filter(|e| matches!(e, CdpiEvent::Retried { .. }))
            .count();
        assert_eq!(retries as u32, MAX_ATTEMPTS - 1);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, CdpiEvent::Expired { intent_id, .. } if *intent_id == intent)),
            "expired after retries"
        );
        assert!(f.records().is_empty(), "never confirmed");
    }

    #[test]
    fn retry_upgrades_to_inband_when_it_appears() {
        let mut f = frontend();
        f.inband.loss_prob = 0.0;
        let (intent, _) = f.submit_intent(
            vec![(
                PlatformId(1),
                CommandBody::SetRoutes {
                    version: 1,
                    entries: 8,
                },
            )],
            SimTime::ZERO,
        );
        // Node comes up in-band after the first timeout (~13 s).
        let mut events = Vec::new();
        let mut t = SimTime::ZERO;
        while t < SimTime::from_mins(5) {
            t += SimDuration::from_secs(1);
            if t == SimTime::from_secs(20) {
                events.extend(f.node_connected_inband(PlatformId(1), 2, t));
            }
            if t > SimTime::from_secs(20) {
                // keep heartbeats fresh
                f.inband.set_reachable(PlatformId(1), 2, t);
            }
            events.extend(f.poll(t));
        }
        assert!(
            events.iter().any(|e| matches!(
                e,
                CdpiEvent::Retried {
                    channel: Channel::InBand,
                    ..
                }
            )),
            "retry switched to in-band: {events:?}"
        );
        assert!(events.iter().any(
            |e| matches!(e, CdpiEvent::IntentConfirmed { intent_id, .. } if *intent_id == intent)
        ));
    }

    /// Channel cycling carries a *fresh* TTE — and the original TTE is
    /// never upgraded once set. A route submitted while the node is
    /// satcom-only gets the satcom TTE; the node appearing in-band
    /// moments later changes nothing for the in-flight command (the
    /// §4.2 pathology), and only the timeout-driven retry re-evaluates
    /// the channels and stamps a new TTE.
    #[test]
    fn retry_cycles_channel_with_fresh_tte_and_never_upgrades() {
        let mut f = frontend();
        f.inband.loss_prob = 0.0;
        let (_, tte0) = f.submit_intent(
            vec![(
                PlatformId(1),
                CommandBody::SetRoutes {
                    version: 1,
                    entries: 8,
                },
            )],
            SimTime::ZERO,
        );
        assert_eq!(
            tte0,
            SimTime::from_secs(186),
            "satcom TTE: node not in-band at submit"
        );
        // In-band appears 5 s in — far before the first timeout.
        f.node_connected_inband(PlatformId(1), 2, SimTime::from_secs(5));
        let mut delivered = None;
        let mut retried_channels = Vec::new();
        let mut t = SimTime::from_secs(5);
        while delivered.is_none() && t < SimTime::from_mins(10) {
            t += SimDuration::from_secs(1);
            f.inband.set_reachable(PlatformId(1), 2, t);
            for e in f.poll(t) {
                match e {
                    CdpiEvent::DeliveredToNode { cmd, at, channel } => {
                        delivered = Some((cmd, at, channel));
                    }
                    CdpiEvent::Retried { channel, .. } => retried_channels.push(channel),
                    _ => {}
                }
            }
        }
        let (cmd, at, channel) = delivered.expect("retry delivered in-band");
        assert!(
            matches!(channel, Channel::InBand),
            "cycled to next-priority channel"
        );
        assert!(
            matches!(retried_channels.first(), Some(Channel::InBand)),
            "retry event reports the new channel: {retried_channels:?}"
        );
        // Never upgraded: nothing arrived before the satcom-stamped
        // timeout (tte 186 s + route timeout) even though in-band was
        // available from t=5 s.
        assert!(at > SimTime::from_secs(196), "no early delivery: {at}");
        // Fresh TTE: re-stamped at redispatch from the in-band margin.
        assert!(cmd.tte > tte0, "fresh TTE on retry: {} > {tte0}", cmd.tte);
        assert!(
            cmd.tte <= at + SimDuration::from_secs(3),
            "in-band TTE margin: {}",
            cmd.tte
        );
    }

    /// The first retry waits out the base backoff after the timeout;
    /// it does not redispatch on the timeout tick itself.
    #[test]
    fn retry_waits_for_backoff_before_redispatch() {
        let mut f = frontend();
        let (_, _) = f.submit_intent(
            vec![(
                PlatformId(1),
                CommandBody::SetRoutes {
                    version: 1,
                    entries: 8,
                },
            )],
            SimTime::ZERO,
        );
        // Satcom drops route commands; the first timeout fires at
        // tte (186 s) + route timeout (10 s) = 196 s.
        let mut first_retry = None;
        let mut t = SimTime::ZERO;
        while first_retry.is_none() && t < SimTime::from_mins(10) {
            t += SimDuration::from_secs(1);
            for e in f.poll(t) {
                if matches!(e, CdpiEvent::Retried { .. }) {
                    first_retry = Some(t);
                }
            }
        }
        let at = first_retry.expect("retried");
        let base = RETRY_BACKOFF_BASE;
        assert!(
            at >= SimTime::from_secs(196) + base,
            "backoff respected: first retry at {at}, timeout at 196 s + base {base}"
        );
        assert!(
            at <= SimTime::from_secs(196) + base + SimDuration::from_secs(3),
            "backoff bounded by base + jitter: {at}"
        );
    }

    /// Receiver-side idempotency: a duplicated delivery re-acks but
    /// executes exactly once.
    #[test]
    fn duplicated_deliveries_execute_once() {
        let mut f = frontend();
        f.inband.loss_prob = 0.0;
        f.inband.set_reachable(PlatformId(1), 1, SimTime::ZERO);
        f.chaos.duplicate_prob = 1.0;
        let (intent, _) = f.submit_intent(
            vec![(
                PlatformId(1),
                CommandBody::SetRoutes {
                    version: 1,
                    entries: 4,
                },
            )],
            SimTime::ZERO,
        );
        let events = run(&mut f, SimTime::ZERO, SimTime::from_secs(10));
        let delivered = events
            .iter()
            .filter(|e| matches!(e, CdpiEvent::DeliveredToNode { .. }))
            .count();
        assert_eq!(delivered, 1, "the duplicate must not re-execute");
        assert!(f.chaos_duplicated >= 1, "duplication happened");
        assert!(f.dedup_suppressed >= 1, "ledger suppressed the replay");
        assert!(events.iter().any(
            |e| matches!(e, CdpiEvent::IntentConfirmed { intent_id, .. } if *intent_id == intent)
        ));
    }

    /// Corrupted deliveries are discarded before execution; the
    /// frontend discovers the loss by timeout and eventually expires
    /// the command.
    #[test]
    fn corrupted_deliveries_time_out_and_expire() {
        let mut f = frontend();
        f.inband.loss_prob = 0.0;
        f.inband.set_reachable(PlatformId(1), 1, SimTime::ZERO);
        f.chaos.corrupt_prob = 1.0;
        let (_, _) = f.submit_intent(
            vec![(
                PlatformId(1),
                CommandBody::SetRoutes {
                    version: 1,
                    entries: 4,
                },
            )],
            SimTime::ZERO,
        );
        let mut events = Vec::new();
        let mut t = SimTime::ZERO;
        while t < SimTime::from_mins(5) {
            t += SimDuration::from_secs(1);
            f.inband.set_reachable(PlatformId(1), 1, t);
            events.extend(f.poll(t));
        }
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, CdpiEvent::DeliveredToNode { .. })),
            "corrupted commands never execute"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, CdpiEvent::Expired { .. })),
            "attempts exhausted: {events:?}"
        );
        assert!(
            f.chaos_corrupted >= u64::from(MAX_ATTEMPTS),
            "every attempt was corrupted: {}",
            f.chaos_corrupted
        );
    }

    /// The backoff jitter is a pure function of (command, attempt):
    /// identical across runs, varied across commands.
    #[test]
    fn retry_jitter_is_deterministic_and_bounded() {
        let a = deterministic_jitter_ms(CommandId(7), 2, 1250);
        assert_eq!(a, deterministic_jitter_ms(CommandId(7), 2, 1250));
        assert!(a < 1250);
        let others: Vec<u64> = (8..16)
            .map(|i| deterministic_jitter_ms(CommandId(i), 2, 1250))
            .collect();
        assert!(
            others.iter().any(|o| *o != a),
            "jitter desynchronizes commands"
        );
        assert_eq!(deterministic_jitter_ms(CommandId(7), 2, 0), 0);
    }

    #[test]
    fn enactment_records_capture_kind_and_elapsed() {
        let mut f = frontend();
        f.inband.loss_prob = 0.0;
        f.inband.set_reachable(PlatformId(1), 1, SimTime::ZERO);
        f.submit_intent(
            vec![(
                PlatformId(1),
                CommandBody::SetRoutes {
                    version: 1,
                    entries: 2,
                },
            )],
            SimTime::ZERO,
        );
        run(&mut f, SimTime::ZERO, SimTime::from_secs(10));
        let r = f.records()[0];
        assert_eq!(r.kind, IntentKind::Route);
        assert!(r.elapsed_s() > 0.0 && r.elapsed_s() < 5.0);
    }
}
