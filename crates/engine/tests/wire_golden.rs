//! Golden documents of the two wire codecs. A fixed request and a fixed
//! report must encode to exactly the bytes recorded here: a client and a
//! daemon built from different revisions interoperate only if neither
//! side's encoder moves within a header version. Each golden also decodes
//! back to its own bytes, so the decoders accept everything the encoders
//! produce.
//!
//! The report golden is `mutree-report v4`: the v3 golden minus the
//! `stat checkpoints` line, and no other byte (v3 was the v2 golden
//! minus the exact solve's leaf-bitset width line; v2 was the v1 golden
//! minus one `stat` line and the per-stage count column of each `timing`
//! and `degraded` line). The request golden is still `mutree-request
//! v1`; it lost only the optional lines that asked for stage re-runs,
//! for a leaf-bitset width and for snapshot files to write and resume
//! from, so every request without them encodes as before, and it asks
//! for the initial 3-3 rule since the full rule was retired.

use std::time::Duration;

use mutree_bnb::{MemoryBudget, SearchMode, SearchStats, StopReason, TraceLevel};
use mutree_distmat::DistanceMatrix;
use mutree_engine::{
    BackendSpec, DegradeReason, DegradedGroup, SolveReport, SolveRequest, StageProvenance,
    StageTiming, ThreeThree,
};
use mutree_tree::{Linkage, UltrametricTree};

/// A labelled request that writes every optional line.
fn golden_request() -> SolveRequest {
    let mut m = DistanceMatrix::from_rows(&[
        vec![0.0, 3.25, 8.0625, 0.1],
        vec![3.25, 0.0, 7.000000000000001, 1e-300],
        vec![8.0625, 7.000000000000001, 0.0, 123.456],
        vec![0.1, 1e-300, 123.456, 0.0],
    ])
    .unwrap();
    m.set_labels(["alpha", "beta", "gamma", "delta"]);
    let mut req = SolveRequest::decompose(m)
        .backend(BackendSpec::Parallel { workers: 3 })
        .mode(SearchMode::AllOptimal)
        .threads(8)
        .cache(true);
    req.three_three = ThreeThree::InitialOnly;
    req.tol = 1e-7;
    req.max_branches = 123_456;
    req.timeout = Some(Duration::from_millis(1500));
    req.use_maxmin = false;
    req.memory = Some(MemoryBudget::new(9999));
    req.threshold = 6;
    req.linkage = Linkage::Average;
    req.max_depth = 3;
    req.trace = Some(TraceLevel::Incumbents);
    req
}

const GOLDEN_REQUEST: &str = concat!(
    "mutree-request v1\n",
    "kind decompose\n",
    "mode all-optimal\n",
    "three-three initial\n",
    "backend par 3\n",
    "tol 3e7ad7f29abcaf48\n",
    "max-branches 123456\n",
    "timeout-ns 1500000000\n",
    "maxmin false\n",
    "upgmm true\n",
    "threads 8\n",
    "memory-nodes 9999\n",
    "threshold 6\n",
    "linkage average\n",
    "max-depth 3\n",
    "cache on\n",
    "trace incumbents\n",
    "matrix inline 4\n",
    "label alpha\n",
    "label beta\n",
    "label gamma\n",
    "label delta\n",
    "row 400a000000000000\n",
    "row 4020200000000000 401c000000000001\n",
    "row 3fb999999999999a 01a56e1fc2f8f359 405edd2f1a9fbe77\n",
);

/// A pipeline-shaped report: groups, two timings, one degraded record of
/// each reason, and two distinct trees.
fn golden_report() -> SolveReport {
    let a = UltrametricTree::join(
        UltrametricTree::cherry(0, 1, 1.5),
        UltrametricTree::cherry(2, 3, 2.75),
        9.125,
    );
    let b = UltrametricTree::join(
        UltrametricTree::join(
            UltrametricTree::cherry(0, 2, 0.3),
            UltrametricTree::leaf(1),
            4.0,
        ),
        UltrametricTree::leaf(3),
        9.125,
    );
    SolveReport {
        tree: a.clone(),
        weight: 26.718750000000004,
        trees: vec![a, b],
        stats: SearchStats {
            branched: 11,
            pruned: 7,
            propagation_pruned: 3,
            solutions_seen: 2,
            peak_pool: 40,
            cache_hits: 2,
            cache_poisoned: 1,
            nodes_shed: u64::MAX,
            ..SearchStats::default()
        },
        stop: StopReason::DeadlineExpired,
        degraded: vec![
            DegradedGroup {
                group: Some(3),
                stage: "meta[1]/group 0".to_string(),
                reason: DegradeReason::Stopped(StopReason::Cancelled),
            },
            DegradedGroup {
                group: None,
                stage: "meta".to_string(),
                reason: DegradeReason::Error("solver error: bad matrix".to_string()),
            },
            DegradedGroup {
                group: Some(0),
                stage: "group 1".to_string(),
                reason: DegradeReason::Panicked,
            },
        ],
        timings: vec![
            StageTiming {
                stage: "group 0".to_string(),
                seconds: 0.001953125,
                provenance: StageProvenance::WarmSeeded,
            },
            StageTiming {
                stage: "meta".to_string(),
                seconds: 1.0e-6,
                provenance: StageProvenance::Cached,
            },
        ],
        groups: Some(vec![vec![0, 1], vec![2, 3], vec![]]),
        compact_sets: Some(3),
        sim: None,
    }
}

const GOLDEN_REPORT: &str = concat!(
    "mutree-report v4\n",
    "weight 403ab80000000001\n",
    "stop deadline\n",
    "stat branched 11\n",
    "stat pruned 7\n",
    "stat propagation-pruned 3\n",
    "stat solutions-seen 2\n",
    "stat incumbent-updates 0\n",
    "stat peak-pool 40\n",
    "stat steals 0\n",
    "stat donations 0\n",
    "stat parks 0\n",
    "stat nodes-shed 18446744073709551615\n",
    "stat cache-hits 2\n",
    "stat cache-misses 0\n",
    "stat cache-warm-seeds 0\n",
    "stat cache-poisoned 1\n",
    "compact-sets 3\n",
    "groups 3\n",
    "group 0 1\n",
    "group 2 3\n",
    "group\n",
    "timing warm-seeded 3f60000000000000 group 0\n",
    "timing cached 3eb0c6f7a0b5ed8d meta\n",
    "degraded 3 stopped cancelled\n",
    "degraded-stage meta[1]/group 0\n",
    "degraded - error solver error: bad matrix\n",
    "degraded-stage meta\n",
    "degraded 0 panicked\n",
    "degraded-stage group 1\n",
    "best 01000000000040224001000000000000f83f000000000000000000000100000000000000010000000000000640000200000000000000000300000000000000\n",
    "tree 01000000000040224001000000000000f83f000000000000000000000100000000000000010000000000000640000200000000000000000300000000000000\n",
    "tree 01000000000040224001000000000000104001333333333333d33f000000000000000000000200000000000000000100000000000000000300000000000000\n",
);

#[test]
fn request_encodes_to_the_golden_bytes() {
    let text = golden_request().encode();
    assert_eq!(text, GOLDEN_REQUEST, "\n{text}");
    let back = SolveRequest::decode(GOLDEN_REQUEST).expect("golden request decodes");
    assert_eq!(back.encode(), GOLDEN_REQUEST);
}

#[test]
fn report_encodes_to_the_golden_bytes() {
    let text = golden_report().encode();
    assert_eq!(text, GOLDEN_REPORT, "\n{text}");
    let back = SolveReport::decode(GOLDEN_REPORT).expect("golden report decodes");
    assert_eq!(back.encode(), GOLDEN_REPORT);
}
