//! Property tests of the `mutree-report v4` wire codec, mirroring the
//! request codec's round-trip suite: a randomized report must survive
//! `encode → decode` with every bit intact — f64 weight and stage
//! seconds as exact bit patterns, all 14 search counters, stop reasons,
//! provenance and degradation records — and corrupted documents must be
//! rejected with a line-numbered error, never mis-decoded. A hex token
//! of a report or of a request's matrix rows that is anything but the
//! canonical lowercase digits is rejected the same way, never a panic.

use mutree_bnb::{SearchStats, StopReason};
use mutree_distmat::DistanceMatrix;
use mutree_engine::{
    DegradeReason, DegradedGroup, SolveReport, SolveRequest, StageProvenance, StageTiming,
};
use mutree_tree::{codec, UltrametricTree};
use proptest::prelude::*;

/// A caterpillar tree on `steps.len() + 1` leaves: taxa 0..=n joined at
/// strictly increasing heights, so every generated tree passes the
/// codec's validity checks.
fn caterpillar(steps: &[f64]) -> UltrametricTree {
    let mut height = 0.1 + steps[0];
    let mut tree = UltrametricTree::cherry(0, 1, height);
    for (i, step) in steps[1..].iter().enumerate() {
        height += step;
        tree = UltrametricTree::join(tree, UltrametricTree::leaf(i + 2), height);
    }
    tree
}

const STOPS: [StopReason; 6] = [
    StopReason::Completed,
    StopReason::BudgetExhausted,
    StopReason::DeadlineExpired,
    StopReason::Cancelled,
    StopReason::MemoryExhausted,
    StopReason::WorkerPanicked,
];

const PROVENANCES: [StageProvenance; 3] = [
    StageProvenance::Solved,
    StageProvenance::Cached,
    StageProvenance::WarmSeeded,
];

fn stats_from(c: &[u64]) -> SearchStats {
    SearchStats {
        branched: c[0],
        pruned: c[1],
        propagation_pruned: c[2],
        solutions_seen: c[3],
        incumbent_updates: c[4],
        peak_pool: c[5],
        steals: c[6],
        donations: c[7],
        parks: c[8],
        nodes_shed: c[9],
        cache_hits: c[10],
        cache_misses: c[11],
        cache_warm_seeds: c[12],
        cache_poisoned: c[13],
    }
}

/// Assembles a full report from generated primitives, exercising every
/// optional field and every enum variant reachable by index choices.
#[allow(clippy::too_many_arguments)]
fn build_report(
    steps: &[f64],
    weight_bits: u64,
    counters: &[u64],
    stop_idx: usize,
    timing_seconds: &[f64],
    degrade_idx: usize,
    pipelineish: bool,
) -> SolveReport {
    let tree = caterpillar(steps);
    let n = steps.len() + 1;
    let timings: Vec<StageTiming> = timing_seconds
        .iter()
        .enumerate()
        .map(|(i, &s)| StageTiming {
            stage: if i == 0 {
                "exact".to_string()
            } else {
                format!("meta[{i}]/group {i}")
            },
            seconds: s,
            provenance: PROVENANCES[i % PROVENANCES.len()],
        })
        .collect();
    let degraded = if degrade_idx == 0 {
        Vec::new()
    } else {
        vec![DegradedGroup {
            group: if degrade_idx.is_multiple_of(2) {
                Some(degrade_idx)
            } else {
                None
            },
            stage: format!("group {degrade_idx}"),
            reason: match degrade_idx % 3 {
                0 => DegradeReason::Stopped(STOPS[degrade_idx % STOPS.len()]),
                1 => DegradeReason::Error(format!("stage error #{degrade_idx}")),
                _ => DegradeReason::Panicked,
            },
        }]
    };
    SolveReport {
        trees: vec![tree.clone()],
        tree,
        weight: f64::from_bits(weight_bits),
        stats: stats_from(counters),
        stop: STOPS[stop_idx % STOPS.len()],
        degraded,
        timings,
        groups: pipelineish.then(|| vec![(0..n / 2).collect(), (n / 2..n).collect()]),
        compact_sets: pipelineish.then_some(n / 2),
        sim: None,
    }
}

/// Field-by-field bit equality (the struct deliberately does not derive
/// `PartialEq`: two live reports legitimately differ in timings).
fn assert_reports_identical(a: &SolveReport, b: &SolveReport) {
    assert_eq!(a.weight.to_bits(), b.weight.to_bits());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stop, b.stop);
    assert_eq!(a.degraded, b.degraded);
    assert_eq!(a.groups, b.groups);
    assert_eq!(a.compact_sets, b.compact_sets);
    assert_eq!(codec::encode_tree(&a.tree), codec::encode_tree(&b.tree));
    assert_eq!(a.trees.len(), b.trees.len());
    for (x, y) in a.trees.iter().zip(&b.trees) {
        assert_eq!(codec::encode_tree(x), codec::encode_tree(y));
    }
    assert_eq!(a.timings.len(), b.timings.len());
    for (x, y) in a.timings.iter().zip(&b.timings) {
        assert_eq!(x.stage, y.stage);
        assert_eq!(x.seconds.to_bits(), y.seconds.to_bits());
        assert_eq!(x.provenance, y.provenance);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// encode → decode reproduces every field bit for bit, and a second
    /// encode reproduces the exact document (the codec is canonical).
    #[test]
    fn report_round_trips_bit_exactly(
        steps in proptest::collection::vec(0.001f64..50.0, 1..7),
        weight_bits in any::<u64>(),
        counters in proptest::collection::vec(any::<u64>(), 14..15),
        stop_idx in 0usize..6,
        timing_seconds in proptest::collection::vec(0.0f64..1e4, 1..5),
        degrade_idx in 0usize..8,
        pipelineish in 0usize..2,
    ) {
        let report = build_report(
            &steps,
            weight_bits,
            &counters,
            stop_idx,
            &timing_seconds,
            degrade_idx,
            pipelineish == 1,
        );
        let text = report.encode();
        let back = SolveReport::decode(&text).expect("round trip decodes");
        assert_reports_identical(&report, &back);
        prop_assert_eq!(back.encode(), text);
    }

    /// Any single corrupted line makes decoding fail with an error that
    /// names a line — never a silently different report.
    #[test]
    fn corrupt_lines_are_rejected_with_line_numbers(
        steps in proptest::collection::vec(0.001f64..50.0, 2..5),
        line_idx in 0usize..64,
    ) {
        let report = build_report(
            &steps, 0x400921fb54442d18, &[7u64; 14], 0, &[0.25], 0, false,
        );
        let text = report.encode();
        let lines: Vec<&str> = text.lines().collect();
        let target = line_idx % lines.len();
        let corrupted: Vec<String> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if i == target {
                    format!("corrupted {l}")
                } else {
                    (*l).to_string()
                }
            })
            .collect();
        let err = SolveReport::decode(&(corrupted.join("\n") + "\n"))
            .expect_err("a corrupted line must be rejected");
        prop_assert!(err.line >= 1 && err.line <= lines.len());
    }
}

/// The adversarial f64 bit patterns a range strategy never produces:
/// NaN payloads, infinities, signed zero, subnormals. The weight channel
/// must carry them all unchanged.
#[test]
fn odd_weight_bit_patterns_survive() {
    for bits in [
        f64::NAN.to_bits(),
        f64::NAN.to_bits() | 0xdead_beef,
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        (-0.0f64).to_bits(),
        0.0f64.to_bits(),
        1u64,
        f64::MIN_POSITIVE.to_bits() >> 1,
        f64::MAX.to_bits(),
    ] {
        let report = build_report(&[1.0, 2.0], bits, &[0; 14], 0, &[0.5], 0, false);
        let back = SolveReport::decode(&report.encode()).expect("decode");
        assert_eq!(back.weight.to_bits(), bits);
    }
}

/// Header and structural corruption: each mutation must be refused.
#[test]
fn corrupt_headers_and_structure_are_rejected() {
    let report = build_report(
        &[1.0, 2.0, 3.0],
        0x3ff0_0000_0000_0000,
        &[1; 14],
        2,
        &[0.125],
        3,
        true,
    );
    let good = report.encode();
    assert!(SolveReport::decode(&good).is_ok());

    let cases: Vec<String> = vec![
        // Wrong protocol version.
        good.replacen("mutree-report v4", "mutree-report v3", 1),
        // Wrong document kind entirely.
        good.replacen("mutree-report v4", "mutree-request v1", 1),
        // Missing header.
        good.lines().skip(1).collect::<Vec<_>>().join("\n"),
        // Truncated mid-document: the mandatory best/tree lines are gone.
        good.lines().take(4).collect::<Vec<_>>().join("\n") + "\n",
        // Weight hex too short.
        good.replacen("weight 3ff0", "weight 3ff", 1),
        // Weight hex with a sign: 16 characters, but not the canonical form.
        good.replacen("weight 3ff0", "weight +ff0", 1),
        // A multibyte character in the tree hex: an even byte count, but
        // an odd one of its pairs straddles a char boundary.
        good.lines()
            .map(|l| {
                if l.starts_with("best ") {
                    "best 0é0"
                } else {
                    l
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n",
        // Unknown stat counter name.
        good.replacen("stat branched", "stat branchiest", 1),
        // Unknown stop token.
        good.replacen("stop deadline", "stop eventually", 1),
        // Tree payload not valid codec bytes.
        {
            let mangled: Vec<String> = good
                .lines()
                .map(|l| {
                    if let Some(rest) = l.strip_prefix("best ") {
                        let mut hex = rest.to_string();
                        hex.truncate(hex.len() - 2);
                        format!("best {hex}")
                    } else {
                        l.to_string()
                    }
                })
                .collect();
            mangled.join("\n") + "\n"
        },
        // Empty document.
        String::new(),
    ];
    for (i, case) in cases.iter().enumerate() {
        assert!(
            SolveReport::decode(case).is_err(),
            "corruption case {i} was wrongly accepted:\n{case}"
        );
    }
}

/// The `groups` count is untrusted: a huge one must be a count mismatch,
/// not a reservation that panics ("capacity overflow") or aborts the
/// process on allocation.
#[test]
fn huge_group_counts_are_rejected_without_allocating() {
    let good = build_report(
        &[1.0, 2.0, 3.0],
        0x3ff0_0000_0000_0000,
        &[1; 14],
        2,
        &[0.125],
        3,
        true,
    )
    .encode();
    assert!(good.contains("\ngroups 2\n"));
    for count in ["18446744073709551615", "4000000000000"] {
        let text = good.replacen("\ngroups 2\n", &format!("\ngroups {count}\n"), 1);
        let err = SolveReport::decode(&text).expect_err("count mismatch");
        assert!(
            err.message.contains(&format!("expected {count}")),
            "{err:?}"
        );
    }
}

/// Characters a hostile peer might splice into a hex token: none is a
/// hex digit and none is whitespace a decoder could trim away, and each
/// takes two to four bytes, so byte-indexed slicing would split it.
const MULTIBYTE: [char; 4] = ['é', 'ß', '€', '😀'];

/// Corrupts one even-length hex token: `kind` 0 splices a multibyte
/// character in, 1 overwrites a digit with a `+` (a sign when it is the
/// first), 2 cuts the token to an odd length; `at` picks where.
fn corrupt_token(tok: &str, kind: usize, at: usize) -> String {
    let i = at % tok.len();
    match kind {
        0 => format!(
            "{}{}{}",
            &tok[..i],
            MULTIBYTE[at % MULTIBYTE.len()],
            &tok[i..]
        ),
        1 => format!("{}+{}", &tok[..i], &tok[i + 1..]),
        _ => tok[..2 * (at % (tok.len() / 2)) + 1].to_string(),
    }
}

/// Corrupts token `index` of `line`'s space-separated tokens.
fn corrupt_line(line: &str, index: usize, kind: usize, at: usize) -> String {
    line.split(' ')
        .enumerate()
        .map(|(i, tok)| {
            if i == index {
                corrupt_token(tok, kind, at)
            } else {
                tok.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Replaces line `target` of `text` by `with`.
fn replace_line(text: &str, target: usize, with: &str) -> String {
    text.lines()
        .enumerate()
        .map(|(i, l)| if i == target { with } else { l })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A corrupted `best`, `tree`, `weight` or `timing` hex token makes
    /// the report decoder fail on exactly that line.
    #[test]
    fn corrupt_report_hex_tokens_are_rejected_on_their_line(
        steps in proptest::collection::vec(0.001f64..50.0, 1..6),
        weight_bits in any::<u64>(),
        timing_seconds in proptest::collection::vec(0.0f64..1e4, 1..4),
        keyword in 0usize..4,
        pick in any::<usize>(),
        kind in 0usize..3,
        at in any::<usize>(),
    ) {
        let mut report = build_report(
            &steps, weight_bits, &[3; 14], 0, &timing_seconds, 0, false,
        );
        report.trees.push(caterpillar(&steps));
        let text = report.encode();
        let (prefix, token) = [("best ", 1), ("tree ", 1), ("weight ", 1), ("timing ", 2)][keyword];
        let targets: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.starts_with(prefix))
            .map(|(i, _)| i)
            .collect();
        let target = targets[pick % targets.len()];
        let line = text.lines().nth(target).unwrap();
        let corrupted = replace_line(&text, target, &corrupt_line(line, token, kind, at));
        let err = SolveReport::decode(&corrupted).expect_err("a corrupted token must be rejected");
        prop_assert_eq!(err.line, target + 1, "{}", err);
    }

    /// A corrupted distance token in an inline request's `row` lines
    /// makes the request decoder fail on exactly that line.
    #[test]
    fn corrupt_request_row_tokens_are_rejected_on_their_line(
        n in 2usize..9,
        distances in proptest::collection::vec(0.0f64..1e3, 36..37),
        pick in any::<usize>(),
        kind in 0usize..3,
        at in any::<usize>(),
    ) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let (hi, lo) = (i.max(j), i.min(j));
                        if hi == lo {
                            0.0
                        } else {
                            distances[hi * (hi - 1) / 2 + lo]
                        }
                    })
                    .collect()
            })
            .collect();
        let text = SolveRequest::exact(DistanceMatrix::from_rows(&rows).unwrap()).encode();
        let targets: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.starts_with("row "))
            .map(|(i, _)| i)
            .collect();
        let target = targets[pick % targets.len()];
        let line = text.lines().nth(target).unwrap();
        let token = 1 + pick / targets.len() % (line.split(' ').count() - 1);
        let corrupted = replace_line(&text, target, &corrupt_line(line, token, kind, at));
        let err = SolveRequest::decode(&corrupted).expect_err("a corrupted token must be rejected");
        prop_assert_eq!(err.line, target + 1, "{}", err);
    }
}
