//! An oracle for the exact search that shares no code with it.
//!
//! For small `n`, the oracle enumerates every rooted binary topology
//! over the taxa, `(2n − 3)!!` of them, as a plain list of joins, builds
//! each one with [`UltrametricTree::join`] and weighs it with
//! [`UltrametricTree::fit_heights`], the minimal heights of the topology.
//! The lightest is the minimum ultrametric tree. Every exact solve, on
//! every driver, in the search order and in input order, replayed from
//! the solve cache, and served by an in-process daemon, must return a
//! tree of that weight.
//!
//! Nothing here touches the search's node type or its bound: the
//! enumerator grows a topology by grafting each new taxon onto every edge
//! of a tests-only arena of child pairs.

use mutree::clustersim::ClusterSpec;
use mutree::core::{
    solve_plan, EnvOverrides, MutSolver, SearchBackend, SolvePlan, SolveRequest, StageProvenance,
};
use mutree::distmat::{gen, DistanceMatrix};
use mutree::serve::{Client, ServeConfig, Server};
use mutree::tree::UltrametricTree;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A topology over taxa `0..n`: node `v < n` is leaf `v`, node `n + i`
/// joins the two nodes of `joins[i]`, and `root` is the top node.
#[derive(Clone)]
struct Topology {
    n: usize,
    joins: Vec<[usize; 2]>,
    root: usize,
}

impl Topology {
    /// Every topology over `0..n`, by grafting taxon `t` onto each of the
    /// `2t − 1` edges (the one above the root included) of every topology
    /// over `0..t`.
    fn all(n: usize) -> Vec<Topology> {
        let mut level = vec![Topology {
            n,
            joins: vec![[0, 1]],
            root: n,
        }];
        for t in 2..n {
            let mut next = Vec::with_capacity(level.len() * (2 * t - 1));
            for top in &level {
                let nodes = (0..t).chain(n..n + top.joins.len());
                for v in nodes {
                    next.push(top.graft(t, v));
                }
            }
            level = next;
        }
        level
    }

    /// This topology with taxon `t` joined to node `v`, in its place.
    fn graft(&self, t: usize, v: usize) -> Topology {
        let mut g = self.clone();
        let joint = self.n + g.joins.len();
        for pair in &mut g.joins {
            for c in pair.iter_mut() {
                if *c == v {
                    *c = joint;
                }
            }
        }
        g.joins.push([v, t]);
        if g.root == v {
            g.root = joint;
        }
        g
    }

    /// A text form that two topologies share exactly when they are the
    /// same rooted tree: each join lists its two sides in sorted order.
    fn canonical(&self, v: usize) -> String {
        if v < self.n {
            return v.to_string();
        }
        let [l, r] = self.joins[v - self.n];
        let (a, b) = (self.canonical(l), self.canonical(r));
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        format!("({a},{b})")
    }

    /// The topology as a tree with all heights zero, ready for
    /// [`UltrametricTree::fit_heights`].
    fn build(&self) -> UltrametricTree {
        let mut made: Vec<Option<UltrametricTree>> = vec![None; self.n + self.joins.len()];
        for (v, slot) in made.iter_mut().enumerate().take(self.n) {
            *slot = Some(UltrametricTree::leaf(v));
        }
        // A node's children are made before it unless they were grafted
        // in later, so build in dependency order.
        let mut stack = vec![self.root];
        while let Some(&v) = stack.last() {
            if made[v].is_some() {
                stack.pop();
                continue;
            }
            let [l, r] = self.joins[v - self.n];
            match (made[l].is_some(), made[r].is_some()) {
                (true, true) => {
                    let (l, r) = (made[l].take().unwrap(), made[r].take().unwrap());
                    made[v] = Some(UltrametricTree::join(l, r, 0.0));
                    stack.pop();
                }
                (lm, _) => stack.push(if lm { r } else { l }),
            }
        }
        made[self.root].take().unwrap()
    }
}

/// The minimum ultrametric tree weight of `m`, by brute force.
fn oracle(m: &DistanceMatrix) -> f64 {
    let all = Topology::all(m.len());
    assert_eq!(
        all.len(),
        (2..m.len()).map(|t| 2 * t - 1).product::<usize>()
    );
    all.iter()
        .map(|top| top.build().fit_heights(m))
        .fold(f64::INFINITY, f64::min)
}

/// A test matrix over `n` taxa of `family`: 0 = uniform random metric,
/// 1 = clock-like (a random ultrametric with 2% noise), 2 = tie-heavy
/// (integer distances in `1..=3`).
fn matrix(family: usize, n: usize, rng: &mut StdRng) -> DistanceMatrix {
    match family {
        0 => gen::uniform_metric(n, 1.0, 100.0, rng),
        1 => gen::perturbed_ultrametric(n, 60.0, 0.02, rng),
        _ => {
            let mut m = DistanceMatrix::zeros(n).unwrap();
            for i in 0..n {
                for j in (i + 1)..n {
                    m.set(i, j, rng.gen_range(1..=3u32) as f64);
                }
            }
            m
        }
    }
}

/// Checks one answer for `m` against the oracle's weight `want`: the
/// weight, the tree's feasibility and the weight the tree refits to.
fn check_answer(m: &DistanceMatrix, want: f64, weight: f64, tree: &UltrametricTree, at: &str) {
    assert!(
        (weight - want).abs() <= 1e-9 * want.max(1.0),
        "{at}: search found {weight}, oracle {want}"
    );
    assert!(tree.is_feasible_for(m, 1e-9), "{at}");
    let fitted = tree.clone().fit_heights(m);
    assert!(
        (fitted - want).abs() <= 1e-9 * want.max(1.0),
        "{at}: tree refits to {fitted}"
    );
}

/// Sends `m` twice to an in-process daemon with the cache on. Each reply
/// carries the oracle's weight, in the bits of an in-process sequential
/// solve (the oracle sums its heights in another order, so its last bit
/// can differ); the repeat comes from the cache.
fn check_daemon(m: &DistanceMatrix, want: f64, what: &str) {
    let local = MutSolver::new()
        .solve(m)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let req = SolveRequest::exact(m.clone()).cache(true);
    for pass in ["first", "repeat"] {
        let at = format!("{what}, daemon {pass}");
        let report = client.solve(&req).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert!(report.is_complete(), "{at}");
        check_answer(m, want, report.weight, &report.tree, &at);
        assert_eq!(
            report.weight.to_bits(),
            local.weight.to_bits(),
            "{at}: {} vs in-process {}",
            report.weight,
            local.weight
        );
        if pass == "repeat" {
            assert_eq!(
                report.timings[0].provenance,
                StageProvenance::Cached,
                "{at}"
            );
        }
    }
    client.drain().expect("drain");
    server.join();
}

/// Solves `m` exactly on every driver, in the search order and in input
/// order, twice through an in-process daemon, then twice through the
/// solve cache, and checks each answer against the oracle's weight. The
/// cached replays must come from the cache.
fn check_every_driver(m: &DistanceMatrix, what: &str) {
    let want = oracle(m);
    check_daemon(m, want, what);
    let backends = [
        SearchBackend::Sequential,
        SearchBackend::Parallel { workers: 2 },
        SearchBackend::SimulatedCluster {
            spec: ClusterSpec::with_slaves(3),
        },
    ];
    for backend in &backends {
        for input_order in [false, true] {
            let mut solver = MutSolver::new().backend(backend.clone());
            if input_order {
                solver = solver.without_maxmin();
            }
            let at = format!("{what}, {backend:?}, input order {input_order}");
            let sol = solver.solve(m).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert!(sol.is_complete(), "{at}");
            check_answer(m, want, sol.weight, &sol.tree, &at);
        }
    }
    let plan = SolvePlan::resolve(
        SolveRequest::exact(m.clone()).cache(true),
        &EnvOverrides::none(),
    );
    for pass in ["cold", "replay"] {
        let at = format!("{what}, cache {pass}");
        let report = solve_plan(&plan).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert!(report.is_complete(), "{at}");
        check_answer(m, want, report.weight, &report.tree, &at);
        if pass == "replay" {
            assert_eq!(
                report.timings[0].provenance,
                StageProvenance::Cached,
                "{at}"
            );
        }
    }
}

#[test]
fn the_enumerator_lists_every_topology_once() {
    for n in 3..=7 {
        let all = Topology::all(n);
        let mut seen: Vec<String> = all.iter().map(|t| t.canonical(t.root)).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), all.len(), "n = {n}: a topology came twice");
        assert_eq!(all.len(), (2..n).map(|t| 2 * t - 1).product::<usize>());
        for t in &all {
            let tree = t.build();
            assert_eq!(tree.leaf_count(), n);
            assert!(tree.validate().is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The exact solve returns the brute-force minimum on the sequential,
    /// parallel and simulated drivers, in the search order and in input
    /// order, from the solve cache and from a daemon, over uniform,
    /// clock-like and tie-heavy matrices up to seven taxa.
    #[test]
    fn exact_solves_match_the_topology_oracle(
        n in 3usize..=7,
        family in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = matrix(family, n, &mut rng);
        check_every_driver(&m, &format!("n = {n}, family {family}, seed {seed}"));
    }
}

/// The oracle's largest size, once per family.
#[test]
fn exact_solves_match_the_topology_oracle_at_eight_taxa() {
    for family in 0..3 {
        let mut rng = StdRng::seed_from_u64(0x0c1e + family as u64);
        let m = matrix(family, 8, &mut rng);
        check_every_driver(&m, &format!("n = 8, family {family}"));
    }
}
