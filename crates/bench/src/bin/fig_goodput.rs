//! E17 — goodput availability: how much offered user traffic the mesh
//! actually delivered, alongside Figure 6's per-layer availability.
//!
//! Figure 6 scores whether a node's data-plane path *existed*; this
//! experiment scores what that path was *worth*: the flow-level
//! traffic engine offers each balloon's diurnal user demand, the
//! tiered max-min allocator pushes it through the programmed
//! forwarding graph at ACM capacities (weather fade degrades the MCS
//! operating point), and goodput = delivered/offered bits. The gap
//! between the data-plane availability line and the goodput line is
//! congestion + fade — invisible to reachability probes.
//!
//! Two runs, identical except for multipath: the baseline pins every
//! site to its primary route; the treatment splits bulk load across
//! the primary and the edge-disjoint alternate whenever the
//! controller programmed one (§4.2 redundancy). The delta is the
//! multipath availability benefit.
//!
//! Writes artifact-style tables under `artifact_out/`:
//! `traffic.csv` (per-site), `goodput_windows.csv` (per-window
//! series), `traffic_classes.csv` (control vs bulk).

use tssdn_bench::{days, seed};
use tssdn_core::orchestrator::DEMAND_BPS;
use tssdn_core::Orchestrator;
use tssdn_scenario::{chaos_soak_spec, FaultsSpec, ScenarioSpec, WeatherRegime, WeatherSpec};
use tssdn_sim::{PlatformId, SimTime};
use tssdn_telemetry::export::{
    goodput_windows_table, push_goodput_window, push_traffic_class, push_traffic_site,
    traffic_classes_table, traffic_table,
};
use tssdn_telemetry::Layer;

/// The E17 world as a spec: 12 balloons spread over 220 km, stormy
/// wet-season afternoons with the production-like gauge belief, the
/// default diurnal demand model. `multipath` toggles the controller's
/// alternate-route programming; the engine splits load over whatever
/// alternates are programmed.
fn spec_for(num_days: u64, multipath: bool) -> ScenarioSpec {
    let name = format!("fig_goodput_{}", if multipath { "multi" } else { "single" });
    let mut spec = chaos_soak_spec(&name, seed());
    (spec.duration_hours, spec.multipath, spec.faults) =
        (num_days * 24, multipath, FaultsSpec::Quiet);
    (spec.fleet.n_balloons, spec.fleet.spawn_radius_km) = (12, 220.0);
    spec.weather = WeatherSpec {
        regime: WeatherRegime::Stormy {
            intensity: 1.0,
            days: num_days,
        },
        gauges: true,
    };
    spec.traffic.enabled = true;
    spec
}

/// One full scenario run.
fn run(num_days: u64, multipath: bool) -> Orchestrator {
    let mut o = spec_for(num_days, multipath).build();
    for d in 1..=num_days {
        o.run_until(SimTime::from_days(d));
        let s = o.traffic().expect("traffic enabled").series();
        eprintln!(
            "  [{} day {d}/{num_days}] links up {} goodput so far {:?}",
            if multipath { "multi" } else { "single" },
            o.intents.established().count(),
            s.overall().map(|g| format!("{g:.3}")),
        );
    }
    o
}

fn main() -> std::io::Result<()> {
    let num_days = days(6);
    println!("=== E17: goodput availability (tiered traffic engine, multipath) ===");
    println!(
        "12 balloons, {num_days} days x2 (single-path baseline, multipath), seed {}",
        seed()
    );

    let base = run(num_days, false);
    let o = run(num_days, true);
    let engine = o.traffic().expect("traffic enabled");
    let series = engine.series();
    let base_series = base.traffic().expect("traffic enabled").series();

    println!();
    println!("# E17 series: day  link_av  data_av  goodput   (ratios; goodput ≤ data_av modulo congestion)");
    for d in 0..num_days {
        let link = o.availability.window_ratio(d, Layer::Link);
        let data = o.availability.window_ratio(d, Layer::DataPlane);
        let good = series.window_goodput(d);
        let fmt = |x: Option<f64>| x.map_or_else(|| "   -  ".into(), |v| format!("{v:6.3}"));
        println!("  {d:>3}  {}  {}  {}", fmt(link), fmt(data), fmt(good));
    }

    println!();
    println!(
        "# totals: offered {:.1} Gbit, delivered {:.1} Gbit, overall goodput {:?}",
        series.offered_bits() as f64 / 1e9,
        series.delivered_bits() as f64 / 1e9,
        series.overall().map(|g| format!("{g:.4}")),
    );
    println!(
        "# events: {} disruptions (path torn under load), {} reroutes",
        series.total_disruptions(),
        series.total_reroutes(),
    );

    // Multipath availability benefit: same world, same demand, only
    // the second forwarding path differs.
    println!();
    println!("# multipath delta (single-path baseline -> multipath):");
    println!(
        "#   goodput {:?} -> {:?}",
        base_series.overall().map(|g| format!("{g:.4}")),
        series.overall().map(|g| format!("{g:.4}")),
    );
    println!(
        "#   delivered {:.2} Gbit -> {:.2} Gbit ({:+.2}%)",
        base_series.delivered_bits() as f64 / 1e9,
        series.delivered_bits() as f64 / 1e9,
        100.0 * (series.delivered_bits() as f64 / base_series.delivered_bits().max(1) as f64 - 1.0),
    );
    println!(
        "#   disruptions {} -> {}",
        base_series.total_disruptions(),
        series.total_disruptions(),
    );

    // Per-class split: the strict-priority control class should sit
    // at (or near) goodput 1.0 while bulk absorbs the congestion.
    println!();
    println!("# per-class goodput (strict priority):");
    for c in series.classes() {
        println!(
            "#   {:<8} {:?}",
            c.label(),
            series.class_goodput(c).map(|g| format!("{g:.4}")),
        );
    }

    // Demand feedback snapshot: measured EWMA weights the solver ran
    // with at the end of the run vs the static configured demand.
    println!();
    println!("# demand digest (bps): site  configured  measured_ewma");
    for b in (0..o.num_balloons() as u32).map(PlatformId) {
        let w = engine.demand_weight_bps(b);
        println!(
            "  {b:>4}  {:>10}  {:>10}",
            DEMAND_BPS,
            w.map_or_else(|| "-".into(), |v| v.to_string()),
        );
    }

    // Artifact-style tables, written alongside the other exports.
    let mut sites = traffic_table();
    for site in series.sites() {
        push_traffic_site(&mut sites, series, site);
    }
    let mut windows = goodput_windows_table();
    for w in series.windows() {
        push_goodput_window(&mut windows, series, w);
    }
    let mut classes = traffic_classes_table();
    for c in series.classes() {
        push_traffic_class(&mut classes, series, c);
    }
    std::fs::create_dir_all("artifact_out")?;
    println!();
    for (name, table) in [
        ("traffic.csv", &sites),
        ("goodput_windows.csv", &windows),
        ("traffic_classes.csv", &classes),
    ] {
        let path = format!("artifact_out/{name}");
        std::fs::write(&path, table.to_csv())?;
        println!("wrote {path}: {} rows", table.len());
    }
    Ok(())
}
