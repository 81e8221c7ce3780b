//! Property-based tests for the scenario layer: the `ScenarioSpec`
//! JSON codec round-trips losslessly over arbitrary specs (floats to
//! the bit, every enum arm, weird names), strict parsing rejects
//! unknown/invalid input loudly — every declared bound at its edge, an
//! unknown key in every object — building + running the same spec
//! twice renders byte-identical scorecard JSON, and no valid fault
//! plan panics the running loop.

use proptest::prelude::*;
use rand::rand_core::SeedableRng;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use tssdn_scenario::json::{parse, Json, Rule};
use tssdn_scenario::{
    run_scenario, DemandSpec, FaultModeSpec, FaultsSpec, FleetSpec, Geography, KindSpec,
    ScenarioSpec, ShardingSpec, SurgeSpec, TrafficSpec, WeatherRegime, WeatherSpec, WindowSpec,
};
use tssdn_sim::{SimDuration, SimTime};

// ---------------------------------------------------------------- //
// Lossless serde round trip                                        //
// ---------------------------------------------------------------- //

/// Build one directed-fault window from raw generated parts. `id` is
/// folded onto the fleet (`n_balloons` balloons, then the ground
/// stations), since `validate` refuses a fault that names nothing.
fn window_from_parts(
    n_balloons: u32,
    (start_min, duration, kind_sel, id, lead): (u64, Option<u64>, u8, u32, u64),
    (p, q, r): (f64, f64, f64),
) -> WindowSpec {
    let n_gs = Geography::Kenya.ground_stations();
    let platform = id % (n_balloons + n_gs);
    let kind = match kind_sel {
        0 => KindSpec::GsOutage {
            site: n_balloons + id % n_gs,
        },
        1 => KindSpec::SatcomBrownout {
            latency_scale: 1.0 + q,
            max_drop_prob: p,
        },
        2 => KindSpec::InbandPartition {
            nodes: vec![platform, (id + 1) % (n_balloons + n_gs)],
        },
        3 => KindSpec::TransceiverFault {
            platform,
            index: (id % if platform < n_balloons { 3 } else { 2 }) as u8,
            mode: if lead % 2 == 0 {
                FaultModeSpec::GimbalStuck
            } else {
                FaultModeSpec::RadioReboot
            },
        },
        4 => KindSpec::BalloonLoss {
            balloon: id % n_balloons,
        },
        5 => KindSpec::BalloonLossWarned {
            balloon: id % n_balloons,
            lead_mins: lead,
        },
        _ => KindSpec::CommandChaos {
            corrupt: p,
            duplicate: r,
            reorder: p * r,
        },
    };
    WindowSpec {
        start_min,
        duration_mins: duration.map(|d| 1 + d),
        kind,
    }
}

proptest! {
    /// Encode → strict decode returns an equal spec, for arbitrary
    /// specs across every enum arm. Float fields must survive to the
    /// bit (the codec uses shortest-round-trip formatting), u64 seeds
    /// must not widen through f64.
    #[test]
    fn spec_json_round_trips_losslessly(
        core in (1u64..u64::MAX, 1u64..72, 1u32..24, 10.0f64..600.0, 0u8..3),
        demand in (
            100u64..200_000,
            1u32..16,
            1.0f64..20_000.0,
            0u64..2_000_000,
            prop::option::of((0u64..40, 1u64..12, 0.0f64..8.0)),
        ),
        weather in (prop::bool::ANY, 0.0f64..3.0, 1u64..5, prop::bool::ANY),
        fault_sel in (0u8..3, 1u32..10, 0u64..12, 13u64..25, prop::bool::ANY),
        windows in prop::collection::vec(
            (
                (0u64..2000, prop::option::of(0u64..240), 0u8..7, 0u32..16, 0u64..60),
                (0.0f64..1.0, 0.0f64..9.0, 0.0f64..1.0),
            ),
            0..5,
        ),
        traffic in (
            prop::bool::ANY,
            prop::bool::ANY,
            prop::bool::ANY,
            1u64..u64::MAX,
            1u64..240,
        ),
        sharding in (1u32..9, 0.5f64..20.0, 0.0f64..500.0, 0.0f64..100.0),
    ) {
        let (seed, duration_hours, n_balloons, spawn_radius_km, name_sel) = core;
        let (users, flows, bps, control_bps, surge) = demand;
        let (stormy, intensity, days, gauges) = weather;
        let (faults_kind, expected, earliest, latest, warned) = fault_sel;

        let spec = ScenarioSpec {
            name: match name_sel {
                0 => "prop".into(),
                1 => "we\"ird\\name\n".into(),
                _ => "uni≈code🎈".into(),
            },
            seed,
            duration_hours,
            multipath: gauges ^ warned,
            fleet: FleetSpec {
                geography: Geography::Kenya,
                n_balloons,
                spawn_radius_km,
            },
            demand: DemandSpec {
                users_per_site: users,
                flows_per_site: flows,
                busy_hour_bps_per_user: bps,
                control_bps_per_site: control_bps,
                surge: surge.map(|(start_hour, dur, mult)| SurgeSpec {
                    start_hour,
                    duration_hours: dur,
                    multiplier: mult,
                }),
            },
            weather: WeatherSpec {
                regime: if stormy {
                    // No more storm days than the horizon has.
                    WeatherRegime::Stormy { intensity, days: days.min(duration_hours.div_ceil(24)) }
                } else {
                    WeatherRegime::Clear
                },
                gauges,
            },
            faults: match faults_kind {
                0 => FaultsSpec::Quiet,
                1 => FaultsSpec::Seeded {
                    expected,
                    earliest_hour: earliest,
                    latest_hour: latest,
                    warned_loss: warned,
                },
                _ => FaultsSpec::Directed(
                    windows
                        .into_iter()
                        .map(|(a, b)| window_from_parts(n_balloons, a, b))
                        .collect(),
                ),
            },
            traffic: TrafficSpec {
                enabled: traffic.0,
                store_forward: traffic.1,
                custody: traffic.2,
                buffer_max_bytes: traffic.3,
                buffer_max_age_mins: traffic.4,
            },
            sharding: ShardingSpec {
                regions: sharding.0,
                origin_lon_deg: 37.5,
                band_deg: sharding.1,
                halo_km: sharding.2,
                hysteresis_km: sharding.3,
            },
        };
        prop_assert!(spec.validate().is_ok(), "generated spec invalid: {:?}", spec.validate());

        let text = spec.to_json();
        let back = ScenarioSpec::from_json(&text)
            .map_err(|e| TestCaseError::Fail(format!("decode failed: {e}\n{text}")))?;
        prop_assert_eq!(&back, &spec);
        // And the rendering itself is a fixpoint: encode(decode(x)) == x.
        prop_assert_eq!(back.to_json(), text);
    }
}

// ---------------------------------------------------------------- //
// Strict parsing: invalid specs are rejected loudly                //
// ---------------------------------------------------------------- //

fn baseline_json() -> String {
    tssdn_scenario::chaos_soak_spec("strict", 7).to_json()
}

/// `v` once per object it holds, that object given one unknown key.
fn with_an_unknown_key(v: &Json) -> Vec<Json> {
    let (mut out, children) = match v {
        Json::Obj(m) => {
            let mut grown = m.clone();
            grown.push(("zz_unknown".into(), Json::Null));
            (vec![Json::Obj(grown)], m.iter().map(|(_, c)| c).collect())
        }
        Json::Arr(items) => (Vec::new(), items.iter().collect()),
        _ => (Vec::new(), Vec::new()),
    };
    for (i, child) in children.into_iter().enumerate() {
        for damaged in with_an_unknown_key(child) {
            let mut whole = v.clone();
            match &mut whole {
                Json::Obj(m) => m[i].1 = damaged,
                Json::Arr(items) => items[i] = damaged,
                _ => unreachable!("only containers have children"),
            }
            out.push(whole);
        }
    }
    out
}

#[test]
fn unknown_fields_are_rejected_at_every_level() {
    let mut objects = 0;
    for good in victims() {
        assert!(ScenarioSpec::from_json(&good).is_ok());
        for damaged in with_an_unknown_key(&parse(&good).unwrap()) {
            let err = ScenarioSpec::from_json(&damaged.to_text()).expect_err("unknown key");
            assert!(err.contains("unknown field \"zz_unknown\""), "{err}");
            objects += 1;
        }
    }
    // Top level, fleet, demand, surge, weather, the stormy wrapper and
    // its object, faults' wrappers, seeded, the windows, every kind's
    // wrapper and object, traffic, sharding.
    assert!(objects >= 40, "{objects}");
}

/// Values at and just past `rule`'s bound: `(accepted, refused)`.
fn edges(rule: Rule) -> Vec<(Json, Json)> {
    let float = |at: f64, past: f64| {
        vec![
            (Json::F64(at), Json::F64(past)),
            (Json::F64(at), Json::F64(f64::NAN)),
        ]
    };
    let most = |unit_ms: u64| {
        (
            Json::U64(u64::MAX / unit_ms),
            Json::U64(u64::MAX / unit_ms + 1),
        )
    };
    match rule {
        Rule::NonEmpty => vec![(Json::Str("x".into()), Json::Str(String::new()))],
        Rule::Min(n) => vec![(Json::U64(n), Json::U64(n - 1))],
        Rule::Hours => vec![most(3_600_000)],
        Rule::Minutes => vec![most(60_000)],
        Rule::Finite => float(f64::MAX, f64::INFINITY),
        Rule::AtLeast(lo) => float(lo, lo.next_down()),
        Rule::Above(lo) => float(lo.next_up(), lo),
        Rule::Probability => [
            float(0.0, (0.0f64).next_down()),
            float(1.0, 1.0f64.next_up()),
        ]
        .concat(),
    }
}

/// Driven by the declaration: every field with a rule, at its bound
/// and just past it, on the typed path (`decode` then `validate`) and
/// the JSON path (`from_json`). A field added with a rule gets its
/// case here without an edit.
#[test]
fn every_declared_bound_holds_at_its_edge_on_both_paths() {
    let mut tested = std::collections::BTreeSet::new();
    for good in victims() {
        let spec = ScenarioSpec::from_json(&good).unwrap();
        for field in spec.fields() {
            if field.rules.is_empty() || !tested.insert(field.path.clone()) {
                continue;
            }
            for (at, past) in field.rules.iter().flat_map(|r| edges(*r)) {
                let with = |v: Json| {
                    let mut doc = parse(&good).unwrap();
                    doc.set(&field.at, v);
                    doc.to_text()
                };
                let text = with(at.clone());
                let typed = ScenarioSpec::decode(&text).unwrap();
                assert_eq!(typed.validate(), Ok(()), "{} = {at:?}", field.path);
                assert!(
                    ScenarioSpec::from_json(&text).is_ok(),
                    "{} = {at:?}",
                    field.path
                );

                let text = with(past.clone());
                let err = ScenarioSpec::decode(&text)
                    .unwrap()
                    .validate()
                    .expect_err(&field.path);
                assert!(
                    err.starts_with(&format!("{}: ", field.path)),
                    "{} = {past:?}: {err}",
                    field.path
                );
                assert_eq!(ScenarioSpec::from_json(&text), Err(err));
            }
        }
    }
    // The victims reach every rule the format declares.
    let generic = |path: &str| {
        let mut out = String::new();
        for c in path.chars() {
            match c {
                '0'..='9' if out.ends_with('[') => out.push('i'),
                '0'..='9' if out.ends_with("[i") => {}
                c => out.push(c),
            }
        }
        out
    };
    let tested: std::collections::BTreeSet<String> = tested.iter().map(|p| generic(p)).collect();
    for row in ScenarioSpec::field_table().lines().skip(2) {
        if !row.ends_with(" — |") {
            let path = row.split('`').nth(1).expect("a path cell");
            assert!(tested.contains(path), "no victim carries {path}");
        }
    }
}

#[test]
fn missing_and_mistyped_fields_are_rejected() {
    let good = baseline_json();

    let missing = good.replacen("  \"multipath\": false,\n", "", 1);
    assert!(ScenarioSpec::from_json(&missing).is_err(), "missing field");

    let mistyped = good.replacen("\"seed\": 7", "\"seed\": \"7\"", 1);
    let err = ScenarioSpec::from_json(&mistyped).expect_err("string seed");
    assert!(err.contains("seed"), "{err}");

    let negative = good.replacen("\"seed\": 7", "\"seed\": -7", 1);
    assert!(ScenarioSpec::from_json(&negative).is_err(), "negative u64");
}

#[test]
fn duplicate_keys_are_rejected() {
    let dup = baseline_json().replacen("\"seed\": 7,", "\"seed\": 7,\n  \"seed\": 8,", 1);
    let err = ScenarioSpec::from_json(&dup).expect_err("duplicate key");
    assert!(err.contains("duplicate"), "{err}");
}

#[test]
fn out_of_range_values_are_rejected_by_validate() {
    let mut spec = tssdn_scenario::chaos_soak_spec("strict", 7);
    spec.fleet.spawn_radius_km = 0.0;
    assert!(spec.validate().is_err(), "zero spawn radius");

    let mut spec = tssdn_scenario::chaos_soak_spec("strict", 7);
    spec.faults = FaultsSpec::Seeded {
        expected: 3,
        earliest_hour: 10,
        latest_hour: 10,
        warned_loss: false,
    };
    assert!(spec.validate().is_err(), "empty fault window span");

    let mut spec = tssdn_scenario::chaos_soak_spec("strict", 7);
    spec.faults = FaultsSpec::Directed(vec![WindowSpec {
        start_min: 0,
        duration_mins: Some(5),
        kind: KindSpec::SatcomBrownout {
            latency_scale: 2.0,
            max_drop_prob: 1.5,
        },
    }]);
    let err = spec.validate().expect_err("probability > 1");
    assert!(err.contains("probability"), "{err}");

    // And the same violations arrive through the JSON path too.
    let text = spec.to_json();
    assert!(ScenarioSpec::from_json(&text).is_err());
}

#[test]
fn unknown_enum_tags_are_rejected() {
    let bad_geo = baseline_json().replacen("\"kenya\"", "\"atlantis\"", 1);
    let err = ScenarioSpec::from_json(&bad_geo).expect_err("unknown geography");
    assert!(err.contains("atlantis"), "{err}");

    let bad_regime = baseline_json().replacen("\"regime\": \"clear\"", "\"regime\": \"hail\"", 1);
    let err = ScenarioSpec::from_json(&bad_regime).expect_err("unknown regime");
    assert!(err.contains("hail"), "{err}");

    // A single-valued key: the flat allocation arm is gone.
    let flat = baseline_json().replacen("\"hierarchical\": true", "\"hierarchical\": false", 1);
    let err = ScenarioSpec::from_json(&flat).expect_err("flat allocation arm");
    assert!(err.starts_with("traffic.hierarchical:"), "{err}");
}

// ---------------------------------------------------------------- //
// Hostile input: the decoder and the builder never panic           //
// ---------------------------------------------------------------- //

/// Decode `text`. Nothing may panic; a spec whose structure decodes
/// must, re-encoded, fail `from_json` exactly as `validate` says; a
/// spec that does come out must have been validated, must re-encode
/// to text that decodes to itself, and must turn into an orchestrator
/// configuration and a fault plan — where its hours and minutes are
/// multiplied out to milliseconds and its storm days and fault count
/// are looped over.
fn survives(text: &str) -> TestCaseResult {
    // Whatever decodes re-encodes to text that fails exactly as its
    // values do.
    if let Ok(spec) = ScenarioSpec::decode(text) {
        let again = ScenarioSpec::from_json(&spec.to_json());
        prop_assert_eq!(again.err(), spec.validate().err(), "{}", text);
    }
    if let Ok(spec) = ScenarioSpec::from_json(text) {
        prop_assert!(spec.validate().is_ok(), "decoded but invalid: {:?}", spec);
        spec.orchestrator_config();
        spec.fault_plan();
        prop_assert_eq!(ScenarioSpec::from_json(&spec.to_json()), Ok(spec));
    }
    Ok(())
}

/// Four valid documents to damage: a seeded-fault spec, one with a
/// directed window of every integer-carrying kind, one whose traffic
/// engine is on with a surge, so its time fields reach the builder,
/// and a stormy one, whose day count the builder loops over.
fn victims() -> [String; 4] {
    let mut directed = tssdn_scenario::chaos_soak_spec("victim", 7);
    let n = directed.fleet.n_balloons;
    directed.faults = FaultsSpec::Directed(
        (0..7u8)
            .map(|k| window_from_parts(n, (30, Some(9), k, 3, 4), (0.5, 1.5, 0.25)))
            .collect(),
    );
    assert!(directed.validate().is_ok());
    let mut surging = tssdn_scenario::chaos_soak_spec("victim", 7);
    surging.traffic.enabled = true;
    surging.demand.surge = Some(SurgeSpec {
        start_hour: 10,
        duration_hours: 2,
        multiplier: 4.0,
    });
    assert!(surging.validate().is_ok());
    let mut stormy = tssdn_scenario::chaos_soak_spec("victim", 7);
    stormy.weather.regime = WeatherRegime::Stormy {
        intensity: 1.5,
        days: 1,
    };
    assert!(stormy.validate().is_ok());
    [
        baseline_json(),
        directed.to_json(),
        surging.to_json(),
        stormy.to_json(),
    ]
}

/// Byte ranges of the number tokens of `text` (a valid document, so
/// every digit run outside a string is one).
fn number_tokens(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let (mut out, mut i, mut in_string) = (Vec::new(), 0, false);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'-' | b'0'..=b'9' if !in_string => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                out.push(start..i);
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// The alphabet of JSON structure, so that random text gets past the
/// first byte of the parser.
const JSONISH: &[u8] = b"{}[]\",:\\u-+.eE0123456789 \ntruefalsn\xf0\x9f";

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        raw in prop::collection::vec(0u8..=255, 0..200),
        jsonish in prop::collection::vec(0usize..JSONISH.len(), 0..200),
    ) {
        survives(&String::from_utf8_lossy(&raw))?;
        let jsonish: Vec<u8> = jsonish.into_iter().map(|i| JSONISH[i]).collect();
        survives(&String::from_utf8_lossy(&jsonish))?;
    }

    #[test]
    fn damaged_specs_never_panic_the_decoder(
        which in 0usize..4,
        at in 0usize..100_000,
        byte in 0u8..=255,
        hostile in 0usize..5,
    ) {
        let good = &victims()[which];
        survives(good)?;
        let at_byte = at % good.len();

        let mut flipped = good.clone().into_bytes();
        flipped[at_byte] = byte;
        survives(&String::from_utf8_lossy(&flipped))?;

        survives(&String::from_utf8_lossy(&good.as_bytes()[..at_byte]))?;

        let numbers = number_tokens(good);
        let token = numbers[at % numbers.len()].clone();
        // 2^32 + 5: a field too narrow for it must refuse it, not
        // keep the 5.
        const WIDE: &str = "4294967301";
        // u64::MAX: every u64 field holds it, no multiplication does.
        const HUGE: &str = "18446744073709551615";
        let hostile = ["1e400", "-0", "1234567890123456789012345678901234567890", WIDE, HUGE][hostile];
        let swapped = format!("{}{hostile}{}", &good[..token.start], &good[token.end..]);
        survives(&swapped)?;
        if hostile == WIDE {
            if let Ok(spec) = ScenarioSpec::from_json(&swapped) {
                prop_assert!(spec.to_json().contains(WIDE), "truncated: {}", swapped);
            }
        }
    }
}

/// Nesting far deeper than any spec is refused, not recursed into.
#[test]
fn absurd_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let deep = open.repeat(200_000);
        assert!(ScenarioSpec::from_json(&deep).is_err());
    }
}

// ---------------------------------------------------------------- //
// Build + run determinism: scorecard JSON verbatim                 //
// ---------------------------------------------------------------- //

/// A deliberately small world so the double-run stays cheap.
fn tiny_spec(seed: u64) -> ScenarioSpec {
    let mut spec = tssdn_scenario::chaos_soak_spec("tiny", seed);
    (spec.duration_hours, spec.multipath, spec.faults) = (11, true, FaultsSpec::Quiet);
    (spec.fleet.n_balloons, spec.fleet.spawn_radius_km) = (3, 120.0);
    spec.traffic.enabled = true;
    spec
}

/// Building and running the same spec twice — two worlds from
/// scratch — must render byte-identical scorecard JSON, including a
/// directed custody scenario whose counters depend on the full
/// store-and-forward machinery.
#[test]
fn running_the_same_spec_twice_is_byte_identical() {
    let mut custody = tiny_spec(23);
    custody.name = "tiny_custody".into();
    custody.faults = FaultsSpec::Directed(vec![
        WindowSpec {
            start_min: 570,
            duration_mins: Some(20),
            kind: KindSpec::GsOutage { site: 3 },
        },
        WindowSpec {
            start_min: 570,
            duration_mins: Some(20),
            kind: KindSpec::GsOutage { site: 4 },
        },
        WindowSpec {
            start_min: 570,
            duration_mins: Some(20),
            kind: KindSpec::GsOutage { site: 5 },
        },
        WindowSpec {
            start_min: 585,
            duration_mins: Some(30),
            kind: KindSpec::BalloonLossWarned {
                balloon: 0,
                lead_mins: 8,
            },
        },
    ]);

    for spec in [tiny_spec(7), custody] {
        let a = run_scenario(&spec).to_json();
        let b = run_scenario(&spec).to_json();
        assert_eq!(a, b, "{}: scorecard JSON diverged between runs", spec.name);
        // The JSON really carries the run: sanity-check a couple of
        // substantive rows made it out.
        assert!(a.contains("\"offered_bits\""), "{a}");
        assert!(
            a.contains(&format!("\"seed\": {}", spec.seed)),
            "seed row present"
        );
    }
}

// ---------------------------------------------------------------- //
// Hostile fault plans: the running loop never panics               //
// ---------------------------------------------------------------- //

/// The last minute the plan property runs to: 09:00, then 30 steps.
const HORIZON_MIN: u64 = 9 * 60 + 30;

/// A four-balloon world with traffic, custody and multipath on, under
/// the directed plan `windows`.
fn plan_world(seed: u64, windows: Vec<WindowSpec>) -> ScenarioSpec {
    let mut spec = tssdn_scenario::chaos_soak_spec("plan", seed);
    (spec.fleet.n_balloons, spec.duration_hours, spec.multipath) = (4, 10, true);
    spec.traffic.enabled = true;
    spec.faults = FaultsSpec::Directed(windows);
    spec
}

/// Run `spec` to 09:00, then minute by minute to [`HORIZON_MIN`],
/// checking the buffered-bit and custody ledgers after every step.
fn run_plan(spec: &ScenarioSpec) {
    // Shown only when the case fails.
    eprintln!("plan under test: {:?}", spec.faults);
    assert_eq!(spec.validate(), Ok(()));
    let mut o = spec.build();
    o.run_until(SimTime::from_hours(9));
    while o.now() < SimTime::from_mins(HORIZON_MIN) {
        o.run_until(o.now() + SimDuration::from_secs(60));
        let t = o.traffic().expect("traffic enabled").snf_totals();
        let resident = t.drained_bits + t.evicted_bits + t.buffered_bits + t.in_transit_bits;
        assert_eq!(t.queued_bits, resident, "SNF leaked at {}: {t:?}", o.now());
        let custody = t.custody_accepted_bits
            + t.custody_refused_bits
            + t.custody_lost_bits
            + t.in_transit_bits;
        assert_eq!(
            t.custody_initiated_bits,
            custody,
            "custody at {}: {t:?}",
            o.now()
        );
    }
}

/// Arbitrary valid directed plans run through the whole loop without
/// a panic, both ledgers balanced after every step. Case 0 is every
/// kind at minute 0 and at the horizon, overlapping windows on one
/// balloon, a loss then a warned loss of that balloon and a warning
/// with no lead; 23 random plans follow, drawn from the same parts.
/// A failing case's plan is on its stderr; keep it as a named case.
#[test]
fn no_valid_fault_plan_panics_the_loop() {
    let part =
        |start, kind, lead| window_from_parts(4, (start, Some(19), kind, 1, lead), (0.5, 1.0, 1.0));
    let mut every_shape: Vec<WindowSpec> = [0, HORIZON_MIN]
        .into_iter()
        .flat_map(|start| (0..7).map(move |kind| part(start, kind, 0)))
        .collect();
    every_shape.extend([
        part(545, 3, 2),
        part(545, 2, 0),
        part(550, 4, 0),
        part(552, 5, 0),
    ]);
    let mut plans = vec![plan_world(7, every_shape)];

    let mut rng = ChaCha8Rng::seed_from_u64(20220822);
    while plans.len() < 24 {
        let windows = (0..rng.gen_range(1..8))
            .map(|_| {
                let start = [0, HORIZON_MIN, rng.gen_range(0..=HORIZON_MIN)][rng.gen_range(0..3)];
                let duration = rng.gen_bool(0.8).then(|| rng.gen_range(0..240));
                let lead = [0, rng.gen_range(0..60)][rng.gen_range(0..2)];
                let parts = (
                    start,
                    duration,
                    rng.gen_range(0..7),
                    rng.gen_range(0..7),
                    lead,
                );
                let draws = (
                    rng.gen_range(0.0..=1.0),
                    rng.gen_range(0.0..9.0),
                    rng.gen_range(0.0..=1.0),
                );
                window_from_parts(4, parts, draws)
            })
            .collect();
        plans.push(plan_world(rng.gen_range(0..1_000), windows));
    }
    // Two workers: the worlds are small, the loop is the cost.
    let (even, odd): (Vec<_>, Vec<_>) = plans.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    std::thread::scope(|s| {
        s.spawn(|| even.iter().for_each(|(_, p)| run_plan(p)));
        odd.iter().for_each(|(_, p)| run_plan(p));
    });
}
