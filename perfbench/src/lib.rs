//! The mutree repository benchmark.
//!
//! Four workloads, each stressing different layers:
//!
//! * `exact_seq` — screened random-species matrices, n = 20–24, solved
//!   exactly by the default sequential Algorithm BBU (the bnb kernel);
//! * `exact_par` — the same matrices with the parallel backend on one
//!   shared 2-thread executor (adds frontier and shared-bound traffic);
//! * `decompose` — the compact-set pipeline on a 2-thread executor over
//!   clustered 16×12 and screened HMDNA n = 128–160 matrices;
//! * `serve_mixed` — an in-process daemon under two closed-loop clients
//!   sending exact, repeated and decompose requests.
//!
//! An untraced run reports the end-to-end metrics. A traced run records
//! spans around every call the benchmark makes into a layer, reads the
//! reports' counters, and reports the per-layer metrics together with the
//! tracing overhead against an untraced phase of the same run.

pub mod batch;
pub mod catalog;
pub mod gate;
pub mod outcome;
pub mod serve;
pub mod stats;
pub mod trace;

use outcome::Outcome;

/// Numeric tolerance of every request and of every weight comparison.
pub const TOL: f64 = 1e-9;

/// Input sizes: the benchmark's own, or tiny ones for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// `f` over `items` on two threads, results in item order: the host has
/// two cores, and reference solves run after the clock stops.
pub(crate) fn in_parallel<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let half = items.len().div_ceil(2);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(half.max(1))
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 4] = ["exact_seq", "exact_par", "decompose", "serve_mixed"];

/// Runs one workload for about `seconds` seconds.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<Outcome, String> {
    use batch::Kind;
    let kind = match workload {
        "exact_seq" => Kind::ExactSeq,
        "exact_par" => Kind::ExactPar,
        "decompose" => Kind::Decompose,
        "serve_mixed" => return Ok(serve::run(seed, seconds, traced, scale)),
        _ => {
            return Err(format!(
                "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    Ok(batch::run(kind, seed, seconds, traced, scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The daemon's cache is process-wide and tests share the process, so
    // every `serve_mixed` run below takes a seed of its own.
    fn smoke(workload: &str, seed: u64, traced: bool) -> Outcome {
        let out = run(workload, seed, 0.0, traced, Scale::Tiny).unwrap();
        assert!(
            out.mismatches.is_empty(),
            "{workload}: {:?}",
            out.mismatches
        );
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0, "{workload}");
        out
    }

    fn value(out: &Outcome, name: &str) -> f64 {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .value
    }

    #[test]
    fn every_workload_runs_untraced_at_tiny_size() {
        for w in WORKLOADS {
            let out = smoke(w, 11, false);
            assert_eq!(out.metrics.len(), 6, "{w}");
            assert!(value(&out, "solves_per_s") > 0.0, "{w}");
            assert_eq!(value(&out, "completed_frac"), 1.0, "{w}");
        }
    }

    #[test]
    fn every_workload_runs_traced_at_tiny_size() {
        let mut names = None;
        for w in WORKLOADS {
            let out = smoke(w, 12, true);
            let these: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            // Every workload reports the same per-layer metric set.
            assert_eq!(*names.get_or_insert_with(|| these.clone()), these, "{w}");
            assert!(out.spans.is_some());
            if w != "serve_mixed" {
                assert!(value(&out, "bnb.branched") > 0.0, "{w}");
            }
        }
    }

    #[test]
    fn sequential_node_counts_repeat_exactly() {
        let a = smoke("exact_seq", 5, true);
        let b = smoke("exact_seq", 5, true);
        assert_eq!(value(&a, "bnb.branched"), value(&b, "bnb.branched"));
    }

    #[test]
    fn the_daemon_sees_exactly_the_designed_repeats() {
        let out = smoke("serve_mixed", 13, true);
        let rate = value(&out, "engine.cache_hit_rate");
        assert!(rate > 0.0 && rate < 1.0, "{rate}");
    }

    #[test]
    fn a_warm_cache_fails_the_run() {
        smoke("serve_mixed", 14, false);
        // The same seed again: its first-time matrices are cached now.
        let again = run("serve_mixed", 14, 0.0, false, Scale::Tiny).unwrap();
        assert!(
            again
                .mismatches
                .iter()
                .any(|m| m.contains("the cache was warm")),
            "{:?}",
            again.mismatches
        );
    }

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(run("nope", 1, 0.0, false, Scale::Tiny).is_err());
    }
}
