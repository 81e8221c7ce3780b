//! E19 — custody transfer A/B: queued bits surviving balloon loss.
//!
//! A directed fault plan builds the worst case for the
//! store-and-forward plane: a total ground blackout queues Bulk bits
//! on every site balloon, and mid-blackout one of those balloons is
//! lost — with warning. Two arms, identical in every input — fleet,
//! seed, plan, demand, buffering — except
//! `StoreForwardConfig::custody`:
//!
//! * **OFF** — the doomed balloon's backlog dies with it
//!   (`backlog_lost_bits` pays in full);
//! * **ON** — during the warning lead the orchestrator designates a
//!   custodian and the balloon pushes its backlog out over a lateral
//!   link at residual rate; the custodian drains it once routes
//!   return.
//!
//! Four gates, any failure exits nonzero:
//!
//! * **identity** — each arm is byte-identical on a rerun;
//! * **survival** — the ON arm drains strictly more queued Bulk bits
//!   than the OFF arm, and loses strictly fewer to the wipe;
//! * **control** — the Control class's (offered, delivered) volumes
//!   are identical across arms: custody moves only buffered Bulk;
//! * **conservation** — in both arms every queued bit is accounted
//!   for (`SnfTotals::conserved`).
//!
//! `TSSDN_SEED` shifts the world seed; `--smoke` shrinks the fleet
//! for the verify.sh gate; `--out PATH` overrides the JSON artifact
//! path (default `BENCH_custody_ab.json`).

use tssdn_bench::{scale, seed};
use tssdn_core::{Orchestrator, OrchestratorConfig, TrafficConfig};
use tssdn_fault::{FaultKind, FaultPlan};
use tssdn_sim::{PlatformId, SimDuration, SimTime};
use tssdn_telemetry::ServiceClass;
use tssdn_traffic::StoreForwardConfig;

/// Everything one run produces that the gates compare. All integer
/// counters, so equality is bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    bulk_offered: u64,
    bulk_delivered: u64,
    ctl_offered: u64,
    ctl_delivered: u64,
    queued: u64,
    drained: u64,
    evicted: u64,
    buffered: u64,
    custody_initiated: u64,
    custody_accepted: u64,
    custody_refused: u64,
    custody_lost: u64,
    backlog_lost: u64,
    conserved: bool,
}

/// The directed plan: all ground stations dark 10:00–10:25 (every
/// site queues), balloon 0 lost at 10:20 with an 8-minute warning.
fn directed_plan(n: usize) -> FaultPlan {
    let blackout = SimTime::from_hours(10);
    let mut plan = FaultPlan::new();
    for gs in (n as u32..n as u32 + 3).map(PlatformId) {
        plan = plan.with(
            blackout,
            SimDuration::from_mins(25),
            FaultKind::GsOutage { site: gs },
        );
    }
    plan.with(
        blackout + SimDuration::from_mins(20),
        SimDuration::from_mins(40),
        FaultKind::BalloonLossWarned {
            balloon: PlatformId(0),
            lead: SimDuration::from_mins(8),
        },
    )
}

fn run(world_seed: u64, n: usize, custody: bool) -> Outcome {
    let mut cfg = OrchestratorConfig::kenya(n, world_seed);
    cfg.fleet.spawn_radius_m = 150_000.0;
    cfg.fault_plan = directed_plan(n);
    cfg.traffic = Some(TrafficConfig {
        store_forward: StoreForwardConfig {
            custody,
            // Generous bounds, identical in both arms: with the
            // default 30-minute age cap the post-blackout drain is
            // bandwidth-bound inside the same expiry window in both
            // arms and rescued bits age out before the delta shows.
            // E19 measures custody, not the age policy.
            max_age_ms: 2 * 3600 * 1000,
            max_bytes: 8_000_000_000,
            ..StoreForwardConfig::default()
        },
        ..TrafficConfig::default()
    });
    let mut o = Orchestrator::new(cfg);
    o.run_until(SimTime::from_hours(12));
    let engine = o.traffic().expect("traffic enabled");
    let series = engine.series();
    let t = engine.snf_totals();
    let (bulk_offered, bulk_delivered) = series.class_volume(ServiceClass::Bulk);
    let (ctl_offered, ctl_delivered) = series.class_volume(ServiceClass::Control);
    Outcome {
        bulk_offered,
        bulk_delivered,
        ctl_offered,
        ctl_delivered,
        queued: t.queued_bits,
        drained: t.drained_bits,
        evicted: t.evicted_bits,
        buffered: t.buffered_bits,
        custody_initiated: t.custody_initiated_bits,
        custody_accepted: t.custody_accepted_bits,
        custody_refused: t.custody_refused_bits,
        custody_lost: t.custody_lost_bits,
        backlog_lost: t.backlog_lost_bits,
        conserved: t.conserved(),
    }
}

fn arm_json(name: &str, a: &Outcome) -> String {
    format!(
        "    \"{name}\": {{\n      \"bulk_offered\": {},\n      \"bulk_delivered\": {},\n      \
         \"queued\": {},\n      \"drained\": {},\n      \"evicted\": {},\n      \
         \"custody_initiated\": {},\n      \"custody_accepted\": {},\n      \
         \"custody_refused\": {},\n      \"custody_lost\": {},\n      \
         \"backlog_lost\": {}\n    }}",
        a.bulk_offered,
        a.bulk_delivered,
        a.queued,
        a.drained,
        a.evicted,
        a.custody_initiated,
        a.custody_accepted,
        a.custody_refused,
        a.custody_lost,
        a.backlog_lost,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_custody_ab.json".to_string());
    let n = if smoke {
        4
    } else {
        ((6.0 * scale()).round() as usize).max(4)
    };
    let world_seed = seed();
    println!("# E19: custody transfer A/B — {n} balloons, seed {world_seed}");
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "arm", "bulk_del", "drained", "initiated", "accepted", "lost", "bl_lost"
    );

    let mut identity_ok = true;
    let mut conservation_ok = true;
    let mut arms = Vec::new();
    for custody in [false, true] {
        let a = run(world_seed, n, custody);
        let b = run(world_seed, n, custody);
        if a != b {
            identity_ok = false;
            eprintln!("IDENTITY VIOLATION custody {custody}:\n  {a:?}\n  {b:?}");
        }
        if !a.conserved {
            conservation_ok = false;
            eprintln!("CONSERVATION VIOLATION custody {custody}: {a:?}");
        }
        println!(
            "{:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            if custody { "on" } else { "off" },
            a.bulk_delivered,
            a.drained,
            a.custody_initiated,
            a.custody_accepted,
            a.custody_lost,
            a.backlog_lost,
        );
        arms.push(a);
    }
    let (off, on) = (arms[0], arms[1]);

    // The OFF arm must never transfer; the directed plan must
    // actually produce the loss it was built around.
    let plan_ok = off.custody_initiated == 0 && off.backlog_lost > 0;
    if !plan_ok {
        eprintln!("PLAN VIOLATION: off arm {off:?}");
    }
    let survival_ok = on.drained > off.drained && on.backlog_lost < off.backlog_lost;
    let control_ok = (off.ctl_offered, off.ctl_delivered) == (on.ctl_offered, on.ctl_delivered);
    if !control_ok {
        eprintln!(
            "CONTROL VIOLATION: off ({}, {}) vs on ({}, {})",
            off.ctl_offered, off.ctl_delivered, on.ctl_offered, on.ctl_delivered
        );
    }

    println!(
        "\nqueued bits surviving the loss: on drained {} vs off {} ({:+} bits); \
         backlog lost on {} vs off {}",
        on.drained,
        off.drained,
        on.drained as i128 - off.drained as i128,
        on.backlog_lost,
        off.backlog_lost,
    );
    println!(
        "gates: identity {} | survival {} | control {} | conservation {}",
        if identity_ok { "HELD" } else { "VIOLATED" },
        if survival_ok && plan_ok {
            "HELD"
        } else {
            "VIOLATED"
        },
        if control_ok { "HELD" } else { "VIOLATED" },
        if conservation_ok { "HELD" } else { "VIOLATED" },
    );

    let json = format!(
        "{{\n  \"bench\": \"custody_ab\",\n  \"manifest\": {},\n  \"seed\": {},\n  \"balloons\": {},\n  \"arms\": {{\n{},\n{}\n  }}\n}}\n",
        tssdn_bench::manifest_json(if smoke { "smoke" } else { "full" }),
        world_seed,
        n,
        arm_json("custody_off", &off),
        arm_json("custody_on", &on),
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if !(identity_ok && survival_ok && plan_ok && control_ok && conservation_ok) {
        std::process::exit(1);
    }
}
