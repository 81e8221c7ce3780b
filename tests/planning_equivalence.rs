//! The planning hot path against `tssdn_oracle::planning` on
//! hand-built inputs the seeded worlds never produce: the evaluator's
//! hoists and memos on unusual bands, antennas and weather beliefs and
//! on a fleet whose altitudes repeat, and the solver on an ungrouped
//! candidate list. `tests/props.rs` and `tests/golden_determinism.rs`
//! drive the same oracle over random graphs and live worlds.

use std::collections::BTreeSet;
use tssdn_core::model::WeatherSource;
use tssdn_core::{
    CandidateGraph, CandidateLink, EvaluatorConfig, LinkEvaluator, NetworkModel, Solver,
};
use tssdn_dataplane::{BackhaulRequest, DrainRegistry};
use tssdn_geo::{AzEl, GeoPoint, TrajectorySample};
use tssdn_link::{LinkKind, Transceiver, TransceiverId};
use tssdn_oracle::planning::{evaluate_reference, solve_reference};
use tssdn_rf::{ItuSeasonal, LinkQuality, RadioParams};
use tssdn_sim::{PlatformId, SimTime};

/// Sweep workers on this host, as the evaluator counts them: the
/// available parallelism clamped to 1..=8.
fn host_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 8)
}

fn balloon_transceivers(id: PlatformId) -> Vec<Transceiver> {
    (0..3).map(|i| Transceiver::balloon(id, i)).collect()
}

fn gs_transceivers(id: PlatformId) -> Vec<Transceiver> {
    (0..2)
        .map(|i| Transceiver::ground_station(id, i, tssdn_geo::FieldOfRegard::ground_station(2.0)))
        .collect()
}

fn fix(lat: f64, lon: f64, alt: f64) -> TrajectorySample {
    TrajectorySample {
        t_ms: 0,
        pos: GeoPoint::new(lat, lon, alt),
        vel_east_mps: 0.0,
        vel_north_mps: 0.0,
        vel_up_mps: 0.0,
    }
}

/// Two balloons 300 km apart plus one ground station under one of
/// them.
fn small_model() -> NetworkModel {
    let mut m = NetworkModel::new(WeatherSource::Itu(ItuSeasonal::tropical_wet()));
    for (i, lon) in [37.0, 39.7].iter().enumerate() {
        let id = PlatformId(i as u32);
        m.add_platform(
            id,
            tssdn_sim::PlatformKind::Balloon,
            balloon_transceivers(id),
        );
        m.report_position(id, fix(0.0, *lon, 18_000.0));
        m.report_power(id, true);
    }
    let gs = PlatformId(2);
    m.add_platform(
        gs,
        tssdn_sim::PlatformKind::GroundStation,
        gs_transceivers(gs),
    );
    m.report_position(gs, fix(0.3, 37.0, 1_500.0));
    m.report_power(gs, true);
    m
}

/// The hoists against the naive reference on inputs the default
/// worlds never produce: three bands (one far off E band), a
/// platform whose antennas have different boresight gains, and a
/// gauges-over-forecast weather belief with a live gauge reading
/// and a storm on the B2G paths, then with a NaN gauge reading and
/// a negative forecast — on enough platforms that the threaded
/// sweep engages where cores allow.
#[test]
fn hoisted_sweep_matches_reference_on_unusual_inputs() {
    use tssdn_rf::{AntennaPattern, ForecastView, RainCell, RainGauge, SyntheticWeather};
    let site = GeoPoint::new(0.3, 37.0, 1_500.0);
    let storm = SyntheticWeather::new().with_cell(RainCell {
        center: GeoPoint::new(0.2, 37.3, 0.0),
        vel_east_mps: 5.0,
        vel_north_mps: 0.0,
        radius_m: 30_000.0,
        peak_rain_mm_h: 35.0,
        start_ms: 0,
        end_ms: 6 * 3_600_000,
    });
    let belief = |intensity_scale| WeatherSource::GaugesAndForecast {
        gauges: vec![RainGauge {
            site,
            representative_radius_m: 25_000.0,
        }],
        forecast: ForecastView::new(storm.clone(), 10_000.0, 600_000, intensity_scale),
        backstop: ItuSeasonal::tropical_wet(),
    };
    let mut m = NetworkModel::new(belief(0.8));
    m.gauge_readings = vec![(site, 6.5, SimTime::from_hours(2))];
    for i in 0..12u32 {
        let id = PlatformId(i);
        let mut xs = balloon_transceivers(id);
        if i % 4 == 1 {
            // One dish of a different class on the same bus.
            xs[1].pattern = AntennaPattern::e_band_ground_station();
        }
        m.add_platform(id, tssdn_sim::PlatformKind::Balloon, xs);
        let (row, col) = ((i / 4) as f64, (i % 4) as f64);
        m.report_position(
            id,
            fix(-0.6 + 0.7 * row, 36.6 + 0.8 * col, 16_500.0 + 400.0 * col),
        );
        m.report_power(id, true);
    }
    let gs = PlatformId(12);
    m.add_platform(
        gs,
        tssdn_sim::PlatformKind::GroundStation,
        gs_transceivers(gs),
    );
    m.report_position(gs, fix(site.lat_deg, site.lon_deg, site.alt_m));
    m.report_power(gs, true);

    // Powers balanced so that every band is the best one somewhere:
    // the high channel's extra 1.15 dB just covers its extra
    // free-space loss on short stratospheric paths and not on long
    // ones, and the weak 38 GHz channel wins only under the storm.
    let evaluator = LinkEvaluator::new(EvaluatorConfig {
        bands: vec![
            RadioParams::e_band_low(),
            RadioParams {
                tx_power_dbm: 26.15,
                ..RadioParams::e_band_high()
            },
            RadioParams {
                freq_ghz: 38.0,
                tx_power_dbm: 12.0,
                bandwidth_hz: 2.5e8,
                ..RadioParams::e_band_low()
            },
        ],
    });
    let at = SimTime::from_hours(2);
    let graph = evaluator.evaluate(&m, at);
    assert!(
        graph == evaluate_reference(&evaluator, &m, at),
        "optimized sweep diverged from the reference"
    );
    // The inputs did what they were chosen for: every band wins
    // somewhere, and both link kinds are present.
    for band in 0..3u8 {
        assert!(
            graph.links.iter().any(|l| l.band == band),
            "band {band} never selected"
        );
    }
    assert!(graph.num_b2b() > 0 && graph.num_b2g() > 0);

    // Hostile readings: a NaN gauge, which every B2G path crosses
    // below the rain height inside the gauge's circle (NaN margin,
    // pruned), and a forecast scaled by −1, whose storm is negative
    // rain and cloud the integral must treat as dry.
    m.weather = belief(-1.0);
    m.gauge_readings = vec![(site, f64::NAN, at)];
    let graph = evaluator.evaluate(&m, at);
    assert!(
        graph == evaluate_reference(&evaluator, &m, at),
        "optimized sweep diverged from the reference on a NaN gauge"
    );
    assert!(graph.num_b2b() > 0 && graph.num_b2g() == 0);
}

/// The decay memo and the budget memo against the naive
/// reference on a live-like fleet: 72 balloons on 36 shared float
/// altitudes, so altitude pairs repeat, and more distinct pairs reach
/// the integral than the integrators of all workers hold together,
/// so some worker's table evicts. Mixed antenna patterns on some
/// balloons give their pairs more than one gain pair.
#[test]
fn memoised_sweep_matches_reference_on_shared_altitudes() {
    use tssdn_rf::{AntennaPattern, PathIntegrator};
    let mut m = small_model();
    for i in 0..72u32 {
        let id = PlatformId(100 + i);
        let mut xs = balloon_transceivers(id);
        if i % 5 == 2 {
            xs[2].pattern = AntennaPattern::e_band_ground_station();
        }
        m.add_platform(id, tssdn_sim::PlatformKind::Balloon, xs);
        let (ring, spoke) = ((i / 12) as f64, (i % 12) as f64);
        let theta = spoke * std::f64::consts::TAU / 12.0 + 0.3 * ring;
        let r_deg = 0.25 + 0.3 * ring;
        m.report_position(
            id,
            fix(
                r_deg * theta.sin(),
                37.5 + r_deg * theta.cos(),
                15_500.0 + 100.0 * (i % 36) as f64,
            ),
        );
        m.report_power(id, true);
    }
    let evaluator = LinkEvaluator::default();
    let graph = evaluator.evaluate(&m, SimTime::ZERO);
    assert!(
        graph == evaluate_reference(&evaluator, &m, SimTime::ZERO),
        "memoised sweep diverged from the reference"
    );

    let alt = |p: PlatformId| {
        m.predicted_position(p, SimTime::ZERO)
            .expect("placed")
            .alt_m
    };
    let mut pairs: Vec<_> = graph
        .links
        .iter()
        .map(|l| (l.a.platform, l.b.platform))
        .collect();
    pairs.dedup();
    let mut keys: Vec<_> = pairs
        .iter()
        .map(|&(a, b)| (alt(a).to_bits(), alt(b).to_bits()))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    assert!(pairs.len() > keys.len(), "altitude pairs repeat");
    assert!(
        keys.len() > PathIntegrator::DECAY_SLOTS * host_workers(),
        "{} distinct altitude pairs: some worker must evict",
        keys.len()
    );
}

fn tid(p: u32, i: u8) -> TransceiverId {
    TransceiverId::new(PlatformId(p), i)
}

/// Hand-built candidate between platforms `a`/`b` using antenna
/// indices `ai`/`bi`, pointing spread apart by index.
fn cand(a: u32, ai: u8, b: u32, bi: u8, margin: f64, quality: LinkQuality) -> CandidateLink {
    CandidateLink {
        a: tid(a, ai),
        b: tid(b, bi),
        kind: if a >= 100 || b >= 100 {
            LinkKind::B2G
        } else {
            LinkKind::B2B
        },
        band: 0,
        bitrate_bps: 400_000_000,
        margin_db: margin,
        quality,
        pointing_a: AzEl::new(ai as f64 * 90.0, 0.0),
        pointing_b: AzEl::new(bi as f64 * 90.0 + 45.0, 0.0),
        range_m: 300_000.0,
    }
}

fn graph(links: Vec<CandidateLink>) -> CandidateGraph {
    CandidateGraph {
        at: SimTime::ZERO,
        links,
    }
}

fn req(node: u32, ec: u32) -> BackhaulRequest {
    BackhaulRequest {
        node: PlatformId(node),
        ec: PlatformId(ec),
        min_bitrate_bps: 50_000_000,
    }
}

/// Every antenna pairing of a six-balloon ring with chords and two
/// ground stations — 144 candidates, grouped by platform pair as
/// the evaluator emits them.
fn ring_graph() -> Vec<CandidateLink> {
    let mut links = Vec::new();
    let pairs = (0..6u32)
        .flat_map(|i| [(i, (i + 1) % 6), (i, (i + 2) % 6)])
        .chain([(0, 100), (1, 100), (3, 101), (4, 101)]);
    for (k, (a, b)) in pairs.enumerate() {
        for ai in 0..3u8 {
            for bi in 0..3u8 {
                let mut l = cand(a, ai, b, bi, (k % 5) as f64 * 2.0, LinkQuality::Acceptable);
                l.band = (k % 2) as u8;
                // One direction per platform pair, 20° apart
                // around each platform: some pairs interfere.
                l.pointing_a = AzEl::new(k as f64 * 20.0, 0.0);
                l.pointing_b = AzEl::new(k as f64 * 20.0 + 183.0, 0.0);
                links.push(l);
            }
        }
    }
    links
}

#[test]
fn ungrouped_graph_still_equals_the_reference() {
    let grouped = ring_graph();
    // A fixed permutation that leaves no two pairings of one
    // platform pair adjacent.
    let n = grouped.len();
    let shuffled: Vec<CandidateLink> = (0..n).map(|i| grouped[(i * 37 + 11) % n]).collect();
    assert_ne!(grouped, shuffled);
    let requests: Vec<BackhaulRequest> = (0..6).map(|i| req(i, 200)).collect();
    let gateways = |ec: PlatformId| match ec {
        PlatformId(200) => vec![PlatformId(100), PlatformId(101)],
        _ => vec![],
    };
    let solver = Solver::default();
    let drains = DrainRegistry::new();
    let mut previous = BTreeSet::new();
    // Cold, then warm on the plan just made, twice over.
    for _ in 0..3 {
        let g = graph(shuffled.clone());
        let fast = solver.solve(&g, &requests, &gateways, &previous, &drains, SimTime::ZERO);
        let slow = solve_reference(
            &solver,
            &g,
            &requests,
            &gateways,
            &previous,
            &drains,
            SimTime::ZERO,
        );
        assert_eq!(fast, slow);
        assert!(!fast.demand_links.is_empty());
        previous = fast.key_set();
    }
    assert!(!previous.is_empty());
}
