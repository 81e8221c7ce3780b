//! E15 — the LoRaWAN bootstrap channel Loon prototyped (§2.2).
//!
//! "A technology like this would have enabled us to improve the speed
//! and consistency with which shorter bootstrap links could be
//! formed. However, this approach did not have the range to match our
//! longer E band links, meaning that satcom would still be required
//! as a backstop."
//!
//! Two identical mornings: satcom-only bootstrap (production) vs
//! satcom + the 350 km one-hop LoRa channel. Measured: per-balloon
//! time from payload power-on to first established link, and the
//! spread (consistency) of those times. Balloons beyond 350 km still
//! need satcom — the backstop remains.

use tssdn_bench::{fmt_secs, seed, standard_config};
use tssdn_core::Orchestrator;
use tssdn_sim::{PlatformId, SimDuration, SimTime};
use tssdn_telemetry::{mean, percentile};

struct Outcome {
    label: &'static str,
    /// Seconds from power-on to first established link, per balloon.
    bootstrap_s: Vec<f64>,
    lora_deliveries: bool,
}

fn run(label: &'static str, lora: bool) -> Outcome {
    let mut cfg = standard_config(12, 1, seed());
    cfg.fleet.spawn_radius_m = 260_000.0;
    cfg.cdpi.lora_enabled = lora;
    let mut o = Orchestrator::new(cfg);

    // Track per-balloon power-on and first-link times through the
    // morning.
    let mut power_on: Vec<Option<SimTime>> = vec![None; 12];
    let mut first_link: Vec<Option<SimTime>> = vec![None; 12];
    let mut saw_lora = false;
    let mut t = SimTime::from_hours(5);
    o.run_until(t);
    while t < SimTime::from_hours(12) {
        t += SimDuration::from_secs(30);
        o.run_until(t);
        for b in 0..12u32 {
            let id = PlatformId(b);
            let i = b as usize;
            if power_on[i].is_none() && o.fleet().payload_powered(id) {
                power_on[i] = Some(t);
            }
            if first_link[i].is_none()
                && o.intents
                    .established()
                    .any(|x| x.link.a.platform == id || x.link.b.platform == id)
            {
                first_link[i] = Some(t);
            }
        }
        if lora && o.cdpi.lora.is_covered(PlatformId(0)) {
            saw_lora = true;
        }
    }
    let bootstrap_s: Vec<f64> = power_on
        .iter()
        .zip(&first_link)
        .filter_map(|(p, l)| match (p, l) {
            (Some(p), Some(l)) => Some(l.since(*p).as_secs_f64()),
            _ => None,
        })
        .collect();
    Outcome {
        label,
        bootstrap_s,
        lora_deliveries: saw_lora,
    }
}

fn main() {
    println!("=== E15: LoRaWAN bootstrap channel (§2.2 prototype) ===");
    println!("12 balloons, one morning each, seed {}", seed());

    let satcom_only = run("satcom-only", false);
    let with_lora = run("with-lora", true);
    assert!(with_lora.lora_deliveries || !with_lora.bootstrap_s.is_empty());

    println!();
    println!("# arm          n   mean_bootstrap  p50       p90       spread(p90-p10)");
    for o in [&satcom_only, &with_lora] {
        let m = mean(&o.bootstrap_s).unwrap_or(0.0);
        let p50 = percentile(&o.bootstrap_s, 50.0).unwrap_or(0.0);
        let p90 = percentile(&o.bootstrap_s, 90.0).unwrap_or(0.0);
        let p10 = percentile(&o.bootstrap_s, 10.0).unwrap_or(0.0);
        println!(
            "  {:<12} {:>2} {:>14} {:>9} {:>9} {:>9}",
            o.label,
            o.bootstrap_s.len(),
            fmt_secs(m),
            fmt_secs(p50),
            fmt_secs(p90),
            fmt_secs(p90 - p10),
        );
    }
    println!();
    let ms = mean(&satcom_only.bootstrap_s).unwrap_or(0.0);
    let ml = mean(&with_lora.bootstrap_s).unwrap_or(0.0);
    println!(
        "LoRa speeds up the bootstrap: {}",
        if ml < ms {
            format!(
                "REPRODUCED (mean {} → {}, −{:.0}%)",
                fmt_secs(ms),
                fmt_secs(ml),
                100.0 * (ms - ml) / ms
            )
        } else {
            format!("NOT reproduced ({} vs {})", fmt_secs(ms), fmt_secs(ml))
        }
    );
    let ss = percentile(&satcom_only.bootstrap_s, 90.0).unwrap_or(0.0)
        - percentile(&satcom_only.bootstrap_s, 10.0).unwrap_or(0.0);
    let sl = percentile(&with_lora.bootstrap_s, 90.0).unwrap_or(0.0)
        - percentile(&with_lora.bootstrap_s, 10.0).unwrap_or(0.0);
    println!(
        "and improves consistency (p90−p10 spread): {}",
        if sl < ss {
            format!("REPRODUCED ({} → {})", fmt_secs(ss), fmt_secs(sl))
        } else {
            format!("not at this scale ({} vs {})", fmt_secs(ss), fmt_secs(sl))
        }
    );
    println!("(satcom remains the backstop for balloons beyond the 350 km footprint)");
}
