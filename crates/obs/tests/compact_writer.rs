//! Pins the one-pass compact writer: `RunArtifact::to_compact_json`
//! must equal `render_compact(&parse(&to_json()))` — the round trip it
//! replaces — byte for byte, on the number shapes where the two could
//! drift: six-decimal floats that are or are not integers, integers at
//! and past 2^53 (where the parser's f64 rounds), histogram sums past
//! 2^53, and names that need escapes.

use ncpu_obs::json::{parse, render_compact};
use ncpu_obs::{CoreArtifact, Counters, MetricsReport, RunArtifact};
use ncpu_testkit::rng::Rng;

const TWO_53: u64 = 1 << 53;

/// Names that exercise every escape `json_string` writes, plus
/// multi-byte UTF-8.
const NAMES: [&str; 5] = [
    "plain",
    "quote\"back\\slash",
    "nl\ntab\tcr\r",
    "ctl\u{1}\u{1f}",
    "café ☃",
];

fn round_trip(artifact: &RunArtifact) -> String {
    render_compact(&parse(&artifact.to_json()).expect("pretty form parses"))
}

fn artifact(utilization: f64, counter: u64, samples: &[u64]) -> RunArtifact {
    let mut counters = Counters::new();
    let mut metrics = MetricsReport::new();
    for (i, name) in NAMES.iter().enumerate() {
        counters.set(*name, counter.wrapping_add(i as u64));
        for &v in samples {
            metrics.record(name, v);
        }
    }
    counters.set("zero", 0);
    RunArtifact {
        name: NAMES[1].to_string(),
        config: NAMES[2].to_string(),
        makespan: counter,
        accuracy: 1.0 - utilization,
        cores: vec![
            CoreArtifact {
                role: NAMES[3].to_string(),
                busy_cycles: counter,
                utilization,
                spans: vec![
                    (NAMES[4].to_string(), 0, counter),
                    ("cpu".to_string(), 1, 2),
                ],
            },
            CoreArtifact {
                role: "idle".to_string(),
                busy_cycles: 0,
                utilization: 0.0,
                spans: Vec::new(),
            },
        ],
        counters,
        metrics,
    }
}

#[test]
fn compact_writer_equals_the_parse_round_trip_on_edge_numbers() {
    let utilizations = [
        0.0,
        1.0,
        1.0 / 3.0,
        2.0 / 3.0,
        1e-7,
        0.5,
        0.9999995,
        0.0000005,
    ];
    let counters = [
        0,
        1,
        TWO_53 - 1,
        TWO_53,
        TWO_53 + 1,
        TWO_53 + 3,
        u64::MAX - 7,
        u64::MAX,
    ];
    // A histogram whose sum (and max, p99, top bucket bound) pass 2^53.
    let sample_sets: [&[u64]; 3] = [&[], &[0, 1, 1000], &[TWO_53 - 1, TWO_53 + 1, 1 << 62]];
    for &utilization in &utilizations {
        for &counter in &counters {
            for samples in sample_sets {
                let a = artifact(utilization, counter, samples);
                assert_eq!(
                    a.to_compact_json(),
                    round_trip(&a),
                    "utilization {utilization}, counter {counter}, samples {samples:?}"
                );
            }
        }
    }
}

#[test]
fn compact_writer_equals_the_parse_round_trip_on_seeded_artifacts() {
    let mut rng = Rng::seed_from_u64(0x5eed);
    for case in 0..256 {
        // Magnitudes spread over the whole u64 range, biased to 2^53.
        let draw = |rng: &mut Rng| match rng.gen_range(0u8..4) {
            0 => rng.gen_range(0u64..1_000_000),
            1 => TWO_53 - 8 + rng.gen_range(0u64..16),
            2 => rng.next_u64() >> rng.gen_range(0u32..64),
            _ => rng.next_u64(),
        };
        let samples: Vec<u64> = (0..rng.gen_range(0usize..6))
            .map(|_| draw(&mut rng))
            .collect();
        let counter = draw(&mut rng);
        let utilization = rng.gen::<f64>();
        let a = artifact(utilization, counter, &samples);
        assert_eq!(a.to_compact_json(), round_trip(&a), "case {case}: {a:?}");
    }
}

#[test]
fn compact_output_is_one_line_that_parses_to_the_pretty_tree() {
    let a = artifact(2.0 / 3.0, 12, &[3, 5]);
    let compact = a.to_compact_json();
    assert!(!compact.contains('\n'), "{compact}");
    assert_eq!(parse(&compact), parse(&a.to_json()));
}
