//! E18 — store-and-forward A/B: the delay-tolerant plane under the
//! E16 fault-plan family.
//!
//! Two arms, identical in every input — fleet, seed, fault plan,
//! demand — except `StoreForwardConfig::enabled`. The OFF arm is the
//! pure drop-on-miss data plane; the ON arm buffers routeless Bulk
//! bits on the last on-path balloon and drains them behind live
//! traffic when a route returns. Three gates, any failure exits
//! nonzero:
//!
//! * **identity** — each (arm, plan) pair is byte-identical on a
//!   rerun: buffering must not perturb determinism;
//! * **delivery** — summed across plans, the ON arm delivers strictly
//!   more Bulk bits than the OFF arm (the buffer earns its RAM);
//! * **control** — the Control class's (offered, delivered) volumes
//!   are identical across arms for every plan: Control never touches
//!   the buffer, so the E16 control-latency story is untouched.
//!
//! `TSSDN_SEED` shifts the plan family; `--smoke` shrinks the fleet
//! and plan count for the verify.sh gate; `--out PATH` overrides the
//! JSON artifact path (default `BENCH_snf_ab.json`).

use tssdn_bench::{scale, seed};
use tssdn_core::{Orchestrator, OrchestratorConfig, TrafficConfig};
use tssdn_fault::{FaultPlan, PlanConfig};
use tssdn_sim::{PlatformId, SimDuration, SimTime};
use tssdn_telemetry::ServiceClass;
use tssdn_traffic::StoreForwardConfig;

/// Everything one run produces that the gates compare. All integer
/// counters, so equality is bit-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    offered: u64,
    delivered: u64,
    bulk_offered: u64,
    bulk_delivered: u64,
    ctl_offered: u64,
    ctl_delivered: u64,
    queued: u64,
    drained: u64,
    evicted: u64,
    disruptions: u64,
    /// Σ bits×ms over drained chunks (for the mean-age report).
    age_bits_ms: u128,
}

fn run(plan_seed: u64, n: usize, buffering: bool) -> Outcome {
    let plan = FaultPlan::generate(
        plan_seed,
        &PlanConfig::kenya_daytime(n as u32, (n as u32..n as u32 + 3).map(PlatformId).collect()),
    );
    let end = plan
        .last_clear()
        .map(|t| t + SimDuration::from_hours(1))
        .unwrap_or(SimTime::from_hours(14))
        .max(SimTime::from_hours(14));
    let mut cfg = OrchestratorConfig::kenya(n, plan_seed);
    cfg.fleet.spawn_radius_m = 150_000.0;
    cfg.fault_plan = plan;
    cfg.traffic = Some(TrafficConfig {
        store_forward: StoreForwardConfig {
            enabled: buffering,
            ..StoreForwardConfig::default()
        },
        ..TrafficConfig::default()
    });
    let mut o = Orchestrator::new(cfg);
    o.run_until(end);
    let engine = o.traffic().expect("traffic enabled");
    let series = engine.series();
    let totals = engine.snf_totals();
    let buf = series.buffer_totals();
    let (bulk_offered, bulk_delivered) = series.class_volume(ServiceClass::Bulk);
    let (ctl_offered, ctl_delivered) = series.class_volume(ServiceClass::Control);
    Outcome {
        offered: series.offered_bits(),
        delivered: series.delivered_bits(),
        bulk_offered,
        bulk_delivered,
        ctl_offered,
        ctl_delivered,
        queued: totals.queued_bits,
        drained: totals.drained_bits,
        evicted: totals.evicted_bits,
        disruptions: series.total_disruptions(),
        age_bits_ms: buf.age_bits_ms,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_snf_ab.json".to_string());
    let n = if smoke {
        4
    } else {
        ((8.0 * scale()).round() as usize).max(4)
    };
    let base = seed();
    let n_plans = if smoke { 2 } else { 3 };
    let plans: Vec<u64> = (0..n_plans).map(|i| base + i).collect();
    println!("# E18: store-and-forward A/B — {n} balloons, plans {plans:?}");
    println!(
        "{:>10} {:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "seed", "arm", "bulk_off", "bulk_del", "queued", "drained", "evicted", "ctl_del", "disrupt"
    );

    let mut identity_ok = true;
    let mut control_ok = true;
    let mut on_bulk = 0u64;
    let mut off_bulk = 0u64;
    let mut on_age_bits_ms = 0u128;
    let mut on_drained = 0u64;
    for &s in &plans {
        let mut per_arm = Vec::new();
        for buffering in [false, true] {
            let a = run(s, n, buffering);
            let b = run(s, n, buffering);
            if a != b {
                identity_ok = false;
                eprintln!("IDENTITY VIOLATION seed {s} buffering {buffering}:\n  {a:?}\n  {b:?}");
            }
            println!(
                "{:>10} {:>4} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
                s,
                if buffering { "on" } else { "off" },
                a.bulk_offered,
                a.bulk_delivered,
                a.queued,
                a.drained,
                a.evicted,
                a.ctl_delivered,
                a.disruptions
            );
            if buffering {
                on_bulk += a.bulk_delivered;
                on_age_bits_ms += a.age_bits_ms;
                on_drained += a.drained;
            } else {
                off_bulk += a.bulk_delivered;
            }
            per_arm.push(a);
        }
        let (off, on) = (per_arm[0], per_arm[1]);
        if (off.ctl_offered, off.ctl_delivered) != (on.ctl_offered, on.ctl_delivered) {
            control_ok = false;
            eprintln!(
                "CONTROL VIOLATION seed {s}: off ({}, {}) vs on ({}, {})",
                off.ctl_offered, off.ctl_delivered, on.ctl_offered, on.ctl_delivered
            );
        }
    }

    let mean_age_s = if on_drained > 0 {
        on_age_bits_ms as f64 / on_drained as f64 / 1000.0
    } else {
        0.0
    };
    let delivery_ok = on_bulk > off_bulk;
    println!(
        "\nbulk delivered: on {on_bulk} vs off {off_bulk} ({:+} bits)",
        on_bulk as i128 - off_bulk as i128
    );
    println!("mean age-of-delivery of drained bits: {mean_age_s:.1} s");
    println!(
        "gates: identity {} | delivery {} | control {}",
        if identity_ok { "HELD" } else { "VIOLATED" },
        if delivery_ok { "HELD" } else { "VIOLATED" },
        if control_ok { "HELD" } else { "VIOLATED" }
    );

    let json = format!(
        "{{\n  \"bench\": \"snf_ab\",\n  \"manifest\": {},\n  \"seed\": {},\n  \"balloons\": {},\n  \
         \"plans\": {},\n  \"bulk_delivered_on\": {},\n  \"bulk_delivered_off\": {},\n  \
         \"drained_on\": {},\n  \"mean_age_s\": {:.3}\n}}\n",
        tssdn_bench::manifest_json(if smoke { "smoke" } else { "full" }),
        base,
        n,
        n_plans,
        on_bulk,
        off_bulk,
        on_drained,
        mean_age_s,
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");

    if !(identity_ok && delivery_ok && control_ok) {
        std::process::exit(1);
    }
}
