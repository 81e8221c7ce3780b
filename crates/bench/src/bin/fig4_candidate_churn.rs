//! E1 / Figure 4 — hour-to-hour deltas in the set of candidate links.
//!
//! Paper targets: candidate graph averaged 3275 links (B2B 0–6595,
//! B2G 0–750); the graph changed in 99.9% of hours with 13% median
//! change; only 3.5% of minutes saw a stable graph; at median 10 links
//! changed minute-to-minute.
//!
//! This experiment drives the fleet truth and the controller model
//! directly (no control plane needed): positions are reported each
//! interval, the Link Evaluator recomputes the candidate graph, and we
//! diff consecutive graphs. Payload power is forced on so the churn is
//! geometric/RF, as in the paper's definition of the candidate set.

use tssdn_bench::{days, seed};
use tssdn_core::{EvaluatorConfig, LinkEvaluator, NetworkModel, WeatherSource};
use tssdn_geo::TrajectorySample;
use tssdn_link::Transceiver;
use tssdn_scenario::stormy_truth;
use tssdn_sim::{Fleet, FleetConfig, PlatformKind, RngStreams, SimTime};
use tssdn_telemetry::percentile;

fn main() {
    let num_days = days(20);
    let n_balloons = 45;
    println!("=== E1 / Figure 4: candidate-graph churn ===");
    println!(
        "fleet: {n_balloons} balloons + 3 GS, {num_days} days, seed {}",
        seed()
    );

    // Fleet/model builder: regenerated identically (same seed) for
    // the hourly and minute-resolution passes, since each pass must
    // advance the world chronologically itself.
    let build = || {
        let streams = RngStreams::new(seed());
        let mut cfg = FleetConfig::kenya(n_balloons);
        // Keep most pairs inside radio range so churn is driven by the
        // moving LOS/occlusion/weather margins, not a single hard
        // range boundary the whole fleet straddles.
        cfg.spawn_radius_m = 650_000.0;
        let fleet = Fleet::generate(cfg, &streams);
        // The controller's candidate reports incorporate live weather
        // (§3.1); use a (perfect) forecast of the stormy truth so B2G
        // candidates churn as cells drift.
        let truth = stormy_truth(num_days, 1.0);
        let mut model = NetworkModel::new(WeatherSource::Forecast(
            tssdn_rf::ForecastView::perfect(truth),
            tssdn_rf::ItuSeasonal::tropical_wet(),
        ));
        for (id, kind) in fleet.platform_ids() {
            let xs: Vec<Transceiver> = match kind {
                PlatformKind::Balloon => (0..3).map(|i| Transceiver::balloon(id, i)).collect(),
                PlatformKind::GroundStation => (0..2)
                    .map(|i| {
                        Transceiver::ground_station(
                            id,
                            i,
                            tssdn_geo::FieldOfRegard::ground_station(2.0),
                        )
                    })
                    .collect(),
            };
            model.add_platform(id, kind, xs);
        }
        (fleet, model)
    };
    let (mut fleet, mut model) = build();
    let evaluator = LinkEvaluator::new(EvaluatorConfig::default());

    let report = |fleet: &Fleet, model: &mut NetworkModel, t: SimTime| {
        let ids: Vec<_> = fleet.platform_ids().collect();
        for (id, kind) in ids {
            let pos = fleet.position(id);
            let (ve, vn) = if kind == PlatformKind::Balloon {
                let b = &fleet.balloons[id.0 as usize];
                (b.vel_east_mps, b.vel_north_mps)
            } else {
                (0.0, 0.0)
            };
            model.report_position(
                id,
                TrajectorySample {
                    t_ms: t.as_ms(),
                    pos,
                    vel_east_mps: ve,
                    vel_north_mps: vn,
                    vel_up_mps: 0.0,
                },
            );
            // Candidate-graph accounting is geometric: force power on.
            model.report_power(id, true);
        }
    };

    // Hourly series.
    let mut sizes = Vec::new();
    let mut b2b = Vec::new();
    let mut b2g = Vec::new();
    let mut hourly_churn = Vec::new();
    let mut hours_changed = 0usize;
    let mut prev = None;
    for h in 0..(num_days * 24) {
        let t = SimTime::from_hours(h);
        fleet.advance_to(t);
        report(&fleet, &mut model, t);
        let g = evaluator.evaluate(&model, t);
        sizes.push(g.len() as f64);
        b2b.push(g.num_b2b() as f64);
        b2g.push(g.num_b2g() as f64);
        if let Some(p) = &prev {
            let (changed, union) = g.churn(p);
            if changed > 0 {
                hours_changed += 1;
            }
            if union > 0 {
                hourly_churn.push(changed as f64 / union as f64);
            }
        }
        prev = Some(g);
    }

    // Minute-level series over one representative day (day 2, or the
    // last day on short runs), on a freshly-regenerated world advanced
    // chronologically to that day.
    let (mut fleet, mut model) = build();
    let day = 2.min(num_days - 1);
    fleet.advance_to(SimTime::from_days(day));
    let mut minute_changes = Vec::new();
    let mut stable_minutes = 0usize;
    let mut prev_m = None;
    for m in 0..(24 * 60) {
        let t = SimTime::from_days(day) + tssdn_sim::SimDuration::from_mins(m);
        fleet.advance_to(t);
        report(&fleet, &mut model, t);
        let g = evaluator.evaluate(&model, t);
        if let Some(p) = &prev_m {
            let (changed, _) = g.churn(p);
            if changed == 0 {
                stable_minutes += 1;
            }
            minute_changes.push(changed as f64);
        }
        prev_m = Some(g);
    }

    let n_hours = hourly_churn.len().max(1);
    println!();
    println!(
        "candidate graph size:   mean {:.0}  (paper: 3275)",
        mean(&sizes)
    );
    println!(
        "  B2B range: {:.0}..{:.0} (paper: 0..6595)   B2G range: {:.0}..{:.0} (paper: 0..750)",
        min(&b2b),
        max(&b2b),
        min(&b2g),
        max(&b2g),
    );
    println!(
        "hours with any change:  {:.1}%  (paper: 99.9%)",
        100.0 * hours_changed as f64 / n_hours as f64
    );
    println!(
        "median hourly churn:    {:.1}%  (paper: 13%)",
        100.0 * percentile(&hourly_churn, 50.0).unwrap_or(0.0)
    );
    println!(
        "stable minutes:         {:.1}%  (paper: 3.5%)",
        100.0 * stable_minutes as f64 / minute_changes.len().max(1) as f64
    );
    println!(
        "median links changed/min: {:.0}  (paper: 10)",
        percentile(&minute_changes, 50.0).unwrap_or(0.0)
    );
    println!();
    println!("# Figure 4 series: CDF of hour-to-hour delta (fraction changed)");
    for p in [5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0] {
        println!(
            "  p{p:<4} {:.3}",
            percentile(&hourly_churn, p).unwrap_or(0.0)
        );
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}
fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}
fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}
