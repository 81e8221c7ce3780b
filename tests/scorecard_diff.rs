//! `scenario_matrix --diff` over a perturbation corpus of the four
//! committed smoke scorecards: each compared row just inside and just
//! past its tolerance, measured → null, each invariant flipped, a spec
//! edit, a removed and an added scenario. The expected verdicts are
//! what the untyped `--diff` this replaced printed for the same corpus
//! (exit code, `REGRESSION` lines in order, scenarios compared and
//! added), so the declared tolerances keep every boundary where it
//! was. The strict reader's errors — a row missing from a card, an
//! unknown row, no spec — are tested after the corpus.

use std::path::Path;
use tssdn_json::Document;

use tssdn_scenario::diff::{compare, diff_dirs, Artifact};

const BASELINES: [(&str, &str); 4] = [
    (
        "smoke_baseline",
        include_str!("../baselines/scorecards/smoke_baseline.json"),
    ),
    (
        "smoke_blackout",
        include_str!("../baselines/scorecards/smoke_blackout.json"),
    ),
    (
        "smoke_sharded",
        include_str!("../baselines/scorecards/smoke_sharded.json"),
    ),
    (
        "smoke_surge",
        include_str!("../baselines/scorecards/smoke_surge.json"),
    ),
];

/// One perturbation of the baselines and the verdict on it.
struct Case {
    name: &'static str,
    /// `(scenario, key, value)`: the key's first value in that
    /// scenario's artifact, rewritten.
    edits: &'static [(&'static str, &'static str, &'static str)],
    /// A scenario taken out of NEW.
    drop: Option<&'static str>,
    /// `(name, copy of)`: a scenario added to NEW.
    add: Option<(&'static str, &'static str)>,
    /// 0: no regression; 1: a regression.
    exit: i32,
    regressions: &'static [&'static str],
    compared: &'static [&'static str],
    added: &'static [&'static str],
}

#[rustfmt::skip]
const CORPUS: &[Case] = &[
    Case {
        name: "unchanged",
        edits: &[
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "goodput_inside",
        edits: &[
            ("smoke_baseline", "goodput", "0.7853660747574881"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "control_goodput_inside",
        edits: &[
            ("smoke_blackout", "control_goodput", "0.98"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "bulk_goodput_inside",
        edits: &[
            ("smoke_sharded", "bulk_goodput", "0.7895206088293819"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "link_availability_inside",
        edits: &[
            ("smoke_surge", "link_availability", "0.9496788826548883"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "data_availability_inside",
        edits: &[
            ("smoke_baseline", "data_availability", "0.7159762675296656"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "delivered_bits_inside",
        edits: &[
            ("smoke_surge", "delivered_bits", "1254095240569"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "recovery_p95_s_inside",
        edits: &[
            ("smoke_sharded", "recovery_p95_s", "104.0"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "disruptions_inside",
        edits: &[
            ("smoke_blackout", "disruptions", "18"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "every_row_inside",
        edits: &[
            ("smoke_surge", "goodput", "0.9415920513888967"),
            ("smoke_surge", "control_goodput", "0.98"),
            ("smoke_surge", "bulk_goodput", "0.9431023393608987"),
            ("smoke_surge", "link_availability", "0.9496788826548883"),
            ("smoke_surge", "data_availability", "0.8379443714933748"),
            ("smoke_surge", "delivered_bits", "1254095240569"),
            ("smoke_surge", "recovery_p95_s", "2177.4999999999836"),
            ("smoke_surge", "disruptions", "4"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "goodput_past",
        edits: &[
            ("smoke_baseline", "goodput", "0.785366074757488"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_baseline: goodput 0.8054 -> 0.7854",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "control_goodput_past",
        edits: &[
            ("smoke_blackout", "control_goodput", "0.9799999999999999"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_blackout: control_goodput 1.0000 -> 0.9800",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "bulk_goodput_past",
        edits: &[
            ("smoke_sharded", "bulk_goodput", "0.7895206088293818"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_sharded: bulk_goodput 0.8095 -> 0.7895",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "link_availability_past",
        edits: &[
            ("smoke_surge", "link_availability", "0.9496788826548882"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_surge: link_availability 0.9697 -> 0.9497",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "data_availability_past",
        edits: &[
            ("smoke_baseline", "data_availability", "0.7159762675296655"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_baseline: data_availability 0.7360 -> 0.7160",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "delivered_bits_past",
        edits: &[
            ("smoke_surge", "delivered_bits", "1254095240568"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_surge: delivered_bits 1320100253230 -> 1254095240568",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "recovery_p95_s_past",
        edits: &[
            ("smoke_sharded", "recovery_p95_s", "104.00000000000001"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_sharded: recovery_p95_s 40 -> 104",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "disruptions_past",
        edits: &[
            ("smoke_blackout", "disruptions", "19"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_blackout: disruptions 16 -> 19",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "every_row_past",
        edits: &[
            ("smoke_surge", "goodput", "0.9415920513888966"),
            ("smoke_surge", "control_goodput", "0.9799999999999999"),
            ("smoke_surge", "bulk_goodput", "0.9431023393608986"),
            ("smoke_surge", "link_availability", "0.9496788826548882"),
            ("smoke_surge", "data_availability", "0.8379443714933746"),
            ("smoke_surge", "delivered_bits", "1254095240568"),
            ("smoke_surge", "recovery_p95_s", "2177.499999999984"),
            ("smoke_surge", "disruptions", "5"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_surge: goodput 0.9616 -> 0.9416",
            "smoke_surge: control_goodput 1.0000 -> 0.9800",
            "smoke_surge: bulk_goodput 0.9631 -> 0.9431",
            "smoke_surge: link_availability 0.9697 -> 0.9497",
            "smoke_surge: data_availability 0.8579 -> 0.8379",
            "smoke_surge: delivered_bits 1320100253230 -> 1254095240568",
            "smoke_surge: recovery_p95_s 1925 -> 2177",
            "smoke_surge: disruptions 2 -> 5",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "goodput_to_null",
        edits: &[
            ("smoke_sharded", "goodput", "null"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_sharded: goodput 0.8088 -> null",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "data_availability_to_null",
        edits: &[
            ("smoke_blackout", "data_availability", "null"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_blackout: data_availability 0.6693 -> null",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "recovery_p95_s_to_null",
        edits: &[
            ("smoke_baseline", "recovery_p95_s", "null"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "stale_alt_routes_flipped",
        edits: &[
            ("smoke_surge", "stale_alt_routes", "1"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_surge: stale_alt_routes != 0",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "snf_conserved_flipped",
        edits: &[
            ("smoke_baseline", "conserved", "false"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_baseline: SNF ledger not conserved",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "custody_balanced_flipped",
        edits: &[
            ("smoke_sharded", "balanced", "false"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_sharded: custody ledger not balanced",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "improvements",
        edits: &[
            ("smoke_baseline", "goodput", "0.99"),
            ("smoke_blackout", "disruptions", "0"),
            ("smoke_sharded", "recovery_p95_s", "1.0"),
            ("smoke_surge", "delivered_bits", "1400000000000"),
        ],
        drop: None,
        add: None,
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "everything_at_once",
        edits: &[
            ("smoke_baseline", "goodput", "0.785366074757488"),
            ("smoke_baseline", "data_availability", "null"),
            ("smoke_baseline", "delivered_bits", "764653619345"),
            ("smoke_baseline", "recovery_p95_s", "2018.0000000000005"),
            ("smoke_baseline", "disruptions", "10"),
            ("smoke_baseline", "stale_alt_routes", "2"),
            ("smoke_baseline", "conserved", "false"),
            ("smoke_baseline", "balanced", "false"),
            ("smoke_sharded", "control_goodput", "0.9799999999999999"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_baseline: goodput 0.8054 -> 0.7854",
            "smoke_baseline: data_availability 0.7360 -> null",
            "smoke_baseline: delivered_bits 804898546680 -> 764653619345",
            "smoke_baseline: recovery_p95_s 1780 -> 2018",
            "smoke_baseline: disruptions 7 -> 10",
            "smoke_baseline: stale_alt_routes != 0",
            "smoke_baseline: SNF ledger not conserved",
            "smoke_baseline: custody ledger not balanced",
            "smoke_sharded: control_goodput 1.0000 -> 0.9800",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "spec_edited",
        edits: &[
            ("smoke_surge", "spawn_radius_km", "151.0"),
        ],
        drop: None,
        add: None,
        exit: 1,
        regressions: &[
            "smoke_surge: spec changed without regenerating the baseline",
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded"],
        added: &[],
    },
    Case {
        name: "scenario_removed",
        edits: &[
        ],
        drop: Some("smoke_blackout"),
        add: None,
        exit: 1,
        regressions: &[
            "smoke_blackout: scenario missing from new scorecards",
        ],
        compared: &["smoke_baseline", "smoke_sharded", "smoke_surge"],
        added: &[],
    },
    Case {
        name: "scenario_added",
        edits: &[
        ],
        drop: None,
        add: Some(("smoke_extra", "smoke_baseline")),
        exit: 0,
        regressions: &[
        ],
        compared: &["smoke_baseline", "smoke_blackout", "smoke_sharded", "smoke_surge"],
        added: &["smoke_extra"],
    },
];

/// `text` with the first value of `key` replaced by `value`.
fn set(text: &str, key: &str, value: &str) -> String {
    let at = text.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let end = at + text[at..].find([',', '\n']).expect("a value ends");
    format!("{}{value}{}", &text[..at], &text[end..])
}

/// `text` without the line that holds `key`.
fn without(text: &str, key: &str) -> String {
    let at = text.find(&format!("\"{key}\": ")).expect(key);
    let start = text[..at].rfind('\n').expect("a line before");
    let end = at + text[at..].find('\n').expect("a line after");
    format!("{}{}", &text[..start], &text[end..])
}

fn decode_all(docs: &[(String, String)]) -> Result<Vec<(String, Artifact)>, String> {
    let decode = |(n, t): &(String, String)| Ok((n.clone(), Artifact::decode(t)?));
    docs.iter().map(decode).collect()
}

fn baselines() -> Vec<(String, String)> {
    BASELINES
        .map(|(n, t)| (n.to_string(), t.to_string()))
        .to_vec()
}

#[test]
fn the_committed_artifacts_decode_and_rewrite_byte_for_byte() {
    for (name, text) in BASELINES {
        let artifact = Artifact::decode(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(artifact.to_json() + "\n", text, "{name}");
        assert_eq!(artifact.scorecard.to_json(), artifact.scorecard.to_json());
    }
}

#[test]
fn the_committed_baselines_match_themselves() {
    let dir = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../baselines/scorecards"
    ));
    let diff = diff_dirs(dir, dir).expect("the baselines decode");
    assert!(diff.regressions.is_empty() && diff.added.is_empty());
    assert_eq!(diff.compared, BASELINES.map(|(n, _)| n));
}

#[test]
fn the_perturbation_corpus_keeps_every_verdict() {
    let old = decode_all(&baselines()).expect("baselines decode");
    for case in CORPUS {
        let mut new = baselines();
        for (scenario, key, value) in case.edits {
            let doc = new.iter_mut().find(|(n, _)| n == scenario).expect(scenario);
            doc.1 = set(&doc.1, key, value);
        }
        new.retain(|(n, _)| Some(n.as_str()) != case.drop);
        if let Some((name, from)) = case.add {
            let text = BASELINES.iter().find(|(n, _)| *n == from).expect(from).1;
            new.push((name.to_string(), text.to_string()));
        }
        let new = decode_all(&new).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let diff = compare(&old, &new);
        assert_eq!(diff.regressions, case.regressions, "{}", case.name);
        assert_eq!(diff.compared, case.compared, "{}", case.name);
        assert_eq!(diff.added, case.added, "{}", case.name);
        assert_eq!(
            i32::from(!diff.regressions.is_empty()),
            case.exit,
            "{}",
            case.name
        );
    }
}

/// The untyped reader passed each of these (exit 0); the typed one
/// refuses the document, naming the path.
fn refused(text: String, says: &str) {
    let err = Artifact::decode(&text).expect_err(says);
    assert_eq!(err, says);
}

#[test]
fn a_card_missing_a_compared_row_is_refused() {
    let surge = BASELINES[3].1;
    for key in ["delivered_bits", "recovery_p95_s", "disruptions"] {
        let says = format!("scorecard: missing field \"{key}\"");
        refused(without(surge, key), &says);
    }
}

#[test]
fn a_misspelled_row_is_refused() {
    let surge = BASELINES[3].1;
    let text = surge.replacen("\"goodput\": ", "\"goodptu\": 0.5,\n    \"goodput\": ", 1);
    refused(text, "scorecard: unknown field \"goodptu\"");
}

#[test]
fn an_artifact_without_a_spec_is_refused() {
    let text = BASELINES[0].1;
    let (start, end) = (
        text.find("  \"spec\"").unwrap(),
        text.find("  \"floors\"").unwrap(),
    );
    let text = format!("{}{}", &text[..start], &text[end..]);
    refused(text, "artifact: missing field \"spec\"");
}
