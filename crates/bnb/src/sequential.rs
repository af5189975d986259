use crate::kernel::{
    DepthFirstFrontier, Expander, Frontier, Incumbents, LocalBudget, SearchObserver, Step,
};
use crate::{Problem, SearchOptions, SearchOutcome, StopReason};

/// Single-threaded depth-first branch-and-bound — Algorithm BBU's
/// skeleton: keep a stack of open nodes, prune against the incumbent,
/// and record complete solutions. A thin scheduler over the shared
/// [expansion kernel](crate::kernel).
///
/// The search is *anytime*: the cancel token is checked on every node and
/// the deadline every 128 nodes (including before the first, so an
/// already-expired deadline returns the initial incumbent untouched), and
/// stopping early always returns the best incumbent so far with the
/// accurate [`StopReason`].
pub fn solve_sequential<P: Problem>(
    problem: &P,
    opts: &SearchOptions,
) -> SearchOutcome<P::Solution> {
    solve_sequential_observed(problem, opts, &mut ())
}

/// [`solve_sequential`] with a [`SearchObserver`] receiving the kernel's
/// structured events — the hook tracing and progress reporting plug into.
pub fn solve_sequential_observed<P: Problem, O: SearchObserver>(
    problem: &P,
    opts: &SearchOptions,
    observer: &mut O,
) -> SearchOutcome<P::Solution> {
    let mut frontier = DepthFirstFrontier::new();
    let mut exp = Expander::new(problem, opts);
    let mut inc = Incumbents::new(opts);
    let mut budget = LocalBudget::new(opts.max_branches);
    exp.offer_initial(&mut inc);
    exp.push_root(&mut frontier);
    let mut stop = StopReason::Completed;
    let mut shed_any = false;
    while let Some(node) = frontier.pop() {
        if let Some(reason) = exp.poll_stop(observer) {
            stop = reason;
            break;
        }
        match exp.expand(&node, &mut inc, &mut budget, &mut frontier, observer) {
            Step::Stopped(reason) => {
                stop = reason;
                break;
            }
            _ => exp.recycle(node),
        }
        // Memory watchdog: checked after every expansion, so the frontier
        // never exceeds the cap by more than one branching batch. Shedding
        // drops the worst-bound open nodes; the incumbent is kept and the
        // search continues on what remains, but exhausting that capped
        // frontier no longer proves optimality.
        if let Some(mb) = &opts.memory {
            let open = frontier.len() as u64;
            if open > mb.max_open_nodes {
                let excess = (open - mb.max_open_nodes) as usize;
                let dropped = frontier.shed(excess, &mut |n| problem.lower_bound(n));
                if dropped > 0 {
                    exp.note_shed(dropped, observer);
                    shed_any = true;
                }
            }
        }
    }
    if shed_any && matches!(stop, StopReason::Completed) {
        stop = StopReason::MemoryExhausted;
    }
    inc.into_outcome(exp.stats(), stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ChildBuf;
    use crate::SearchMode;

    /// Toy problem: binary strings of length `n`; value = number of ones +
    /// `base`; optimum is the all-zero string with value `base`. Lower
    /// bound = ones so far + base (admissible: flipping more bits only
    /// adds). With `AllOptimal` and `twist = true`, bit 0 is free so two
    /// optima exist.
    struct Bits {
        n: usize,
        base: f64,
        twist: bool,
    }

    impl Problem for Bits {
        type Node = Vec<bool>;
        type Solution = Vec<bool>;

        fn root(&self) -> Vec<bool> {
            Vec::new()
        }
        fn lower_bound(&self, node: &Vec<bool>) -> f64 {
            self.base
                + node
                    .iter()
                    .enumerate()
                    .filter(|(i, &b)| b && !(self.twist && *i == 0))
                    .count() as f64
        }
        fn solution(&self, node: &Vec<bool>) -> Option<(Vec<bool>, f64)> {
            (node.len() == self.n).then(|| (node.clone(), self.lower_bound(node)))
        }
        fn branch(&self, node: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
            for b in [false, true] {
                let mut c = node.clone();
                c.push(b);
                out.push(c);
            }
        }
    }

    #[test]
    fn finds_the_optimum() {
        let p = Bits {
            n: 6,
            base: 2.0,
            twist: false,
        };
        let out = solve_sequential(&p, &SearchOptions::new(SearchMode::BestOne));
        assert_eq!(out.best_value, Some(2.0));
        assert_eq!(out.solutions, vec![vec![false; 6]]);
        assert!(out.is_complete());
    }

    #[test]
    fn all_optimal_finds_both() {
        let p = Bits {
            n: 5,
            base: 0.0,
            twist: true,
        };
        let out = solve_sequential(&p, &SearchOptions::new(SearchMode::AllOptimal));
        assert_eq!(out.best_value, Some(0.0));
        let mut sols = out.solutions;
        sols.sort();
        assert_eq!(sols.len(), 2);
        assert_eq!(sols[0], vec![false, false, false, false, false]);
        assert_eq!(sols[1], vec![true, false, false, false, false]);
    }

    #[test]
    fn best_one_prunes_more_than_all_optimal() {
        let opts1 = SearchOptions::new(SearchMode::BestOne);
        let opts2 = SearchOptions::new(SearchMode::AllOptimal);
        let p = Bits {
            n: 8,
            base: 0.0,
            twist: false,
        };
        let a = solve_sequential(&p, &opts1);
        let b = solve_sequential(&p, &opts2);
        assert!(a.stats.branched <= b.stats.branched);
        assert_eq!(a.best_value, b.best_value);
    }

    #[test]
    fn initial_incumbent_tightens_search() {
        struct WithHint(Bits);
        impl Problem for WithHint {
            type Node = Vec<bool>;
            type Solution = Vec<bool>;
            fn root(&self) -> Vec<bool> {
                self.0.root()
            }
            fn lower_bound(&self, n: &Vec<bool>) -> f64 {
                self.0.lower_bound(n)
            }
            fn solution(&self, n: &Vec<bool>) -> Option<(Vec<bool>, f64)> {
                self.0.solution(n)
            }
            fn branch(&self, n: &Vec<bool>, out: &mut ChildBuf<Vec<bool>>) {
                self.0.branch(n, out)
            }
            fn initial_incumbent(&self) -> Option<(Vec<bool>, f64)> {
                Some((vec![false; self.0.n], self.0.base))
            }
        }
        let bare = Bits {
            n: 8,
            base: 1.0,
            twist: false,
        };
        let hinted = WithHint(Bits {
            n: 8,
            base: 1.0,
            twist: false,
        });
        let a = solve_sequential(&bare, &SearchOptions::new(SearchMode::BestOne));
        let b = solve_sequential(&hinted, &SearchOptions::new(SearchMode::BestOne));
        assert_eq!(a.best_value, b.best_value);
        // The perfect hint prunes the entire tree.
        assert_eq!(b.stats.branched, 0);
    }

    #[test]
    fn branch_budget_marks_incomplete() {
        let p = Bits {
            n: 12,
            base: 0.0,
            twist: false,
        };
        let out = solve_sequential(&p, &SearchOptions::new(SearchMode::BestOne).max_branches(3));
        assert_eq!(out.stop, StopReason::BudgetExhausted);
        assert!(out.stats.branched <= 3);
    }

    #[test]
    fn infeasible_search_yields_none() {
        /// A problem whose only leaves are pruned away by an initial
        /// incumbent is still "solved" by that incumbent; a problem with no
        /// solutions at all yields `None`.
        struct NoSolutions;
        impl Problem for NoSolutions {
            type Node = u32;
            type Solution = ();
            fn root(&self) -> u32 {
                0
            }
            fn lower_bound(&self, n: &u32) -> f64 {
                *n as f64
            }
            fn solution(&self, _: &u32) -> Option<((), f64)> {
                None
            }
            fn branch(&self, n: &u32, out: &mut ChildBuf<u32>) {
                if *n < 3 {
                    out.push(n + 1);
                }
            }
        }
        let out = solve_sequential(&NoSolutions, &SearchOptions::new(SearchMode::BestOne));
        assert_eq!(out.best_value, None);
        assert!(out.solutions.is_empty());
    }

    #[test]
    fn observer_sees_structured_events() {
        use crate::kernel::{SearchEvent, SearchObserver};

        #[derive(Default)]
        struct Tally {
            expanded: u64,
            pruned: u64,
            improved: u64,
        }
        impl SearchObserver for Tally {
            fn on_event(&mut self, event: SearchEvent) {
                match event {
                    SearchEvent::NodeExpanded { .. } => self.expanded += 1,
                    SearchEvent::Pruned { .. } => self.pruned += 1,
                    SearchEvent::IncumbentImproved { .. } => self.improved += 1,
                    _ => {}
                }
            }
        }

        let p = Bits {
            n: 7,
            base: 0.0,
            twist: false,
        };
        let mut tally = Tally::default();
        let out =
            solve_sequential_observed(&p, &SearchOptions::new(SearchMode::BestOne), &mut tally);
        assert_eq!(tally.expanded, out.stats.branched);
        assert_eq!(tally.pruned, out.stats.pruned);
        assert_eq!(tally.improved, out.stats.incumbent_updates);
    }
}
