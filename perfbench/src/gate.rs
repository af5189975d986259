//! The correctness gate every workload passes its answers through.
//!
//! A returned tree must be a feasible ultrametric tree over exactly the
//! matrix's taxa, and its weight, recomputed from the tree, must match
//! the reported weight within the request's `tol`. Where one matrix is
//! answered more than once (a repeated pass, a cache hit, a daemon reply
//! and an in-process solve, a parallel and a sequential search), the
//! weight bits must agree. Mismatches are collected, and a run with any
//! of them fails instead of reporting metrics.

use std::collections::HashMap;

use mutree_distmat::DistanceMatrix;
use mutree_tree::UltrametricTree;

/// Checks one answer.
///
/// # Errors
///
/// A description of the first violated condition.
pub fn check_answer(
    m: &DistanceMatrix,
    tree: &UltrametricTree,
    weight: f64,
    tol: f64,
) -> Result<(), String> {
    let n = m.len();
    let mut seen = vec![false; n];
    for t in tree.taxa() {
        if t >= n || std::mem::replace(&mut seen[t], true) {
            return Err(format!("taxon {t} is outside the matrix or repeated"));
        }
    }
    if tree.leaf_count() != n {
        return Err(format!(
            "tree has {} leaves, matrix has {n} taxa",
            tree.leaf_count()
        ));
    }
    tree.validate()?;
    if !tree.is_feasible_for(m, tol) {
        return Err("tree is not feasible for its matrix".to_string());
    }
    let recomputed = tree.weight();
    if !weight.is_finite() || (recomputed - weight).abs() > tol * weight.abs().max(1.0) {
        return Err(format!(
            "reported weight {weight} but the tree weighs {recomputed}"
        ));
    }
    Ok(())
}

/// Collects mismatches over a run.
#[derive(Debug, Default)]
pub struct Gate {
    answers: HashMap<String, u64>,
    mismatches: Vec<String>,
    checked: u64,
}

impl Gate {
    /// Checks one answer for the matrix named `key`, and that it agrees
    /// bit for bit with every earlier answer for the same key.
    pub fn answer(
        &mut self,
        key: &str,
        m: &DistanceMatrix,
        tree: &UltrametricTree,
        weight: f64,
        tol: f64,
    ) {
        self.checked += 1;
        if let Err(e) = check_answer(m, tree, weight, tol) {
            self.mismatches.push(format!("{key}: {e}"));
        }
        self.same(key, weight);
    }

    /// Records `weight` as an answer for `key`, which must agree bit for
    /// bit with every earlier one.
    pub fn same(&mut self, key: &str, weight: f64) {
        let bits = *self
            .answers
            .entry(key.to_string())
            .or_insert(weight.to_bits());
        if bits != weight.to_bits() {
            self.mismatches.push(format!(
                "{key}: answered {} and {weight}",
                f64::from_bits(bits)
            ));
        }
    }

    /// Checks `weight` against a reference answer from the instance
    /// catalog, to relative tolerance `tol`.
    pub fn reference(&mut self, key: &str, weight: f64, reference: f64, tol: f64) {
        if (weight - reference).abs() > tol * reference.abs().max(1.0) {
            self.mismatches.push(format!(
                "{key}: answered {weight}, the catalog says {reference}"
            ));
        }
    }

    /// Takes in what another gate found (another thread's answers), whose
    /// answers must agree bit for bit with this gate's.
    pub fn absorb(&mut self, other: &Gate) {
        self.checked += other.checked;
        self.mismatches.extend(other.mismatches.iter().cloned());
        for (key, &bits) in &other.answers {
            self.same(key, f64::from_bits(bits));
        }
    }

    /// Records a mismatch found elsewhere.
    pub fn fail(&mut self, what: String) {
        self.mismatches.push(what);
    }

    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    pub fn checked(&self) -> u64 {
        self.checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_core::MutSolver;

    fn solved() -> (DistanceMatrix, UltrametricTree, f64) {
        let m = mutree_bench::data::random_species_matrix(9, 4);
        let sol = MutSolver::new().solve(&m).unwrap();
        (m, sol.tree, sol.weight)
    }

    #[test]
    fn the_gate_passes_a_true_answer() {
        let (m, tree, w) = solved();
        let mut gate = Gate::default();
        gate.answer("m", &m, &tree, w, 1e-9);
        gate.answer("m", &m, &tree, w, 1e-9);
        assert!(gate.mismatches().is_empty(), "{:?}", gate.mismatches());
    }

    #[test]
    fn the_gate_trips_on_a_tampered_weight() {
        let (m, tree, w) = solved();
        assert!(check_answer(&m, &tree, w + 1e-3, 1e-9).is_err());
        let mut gate = Gate::default();
        gate.answer("m", &m, &tree, w, 1e-9);
        gate.same("m", f64::from_bits(w.to_bits() + 1));
        assert_eq!(gate.mismatches().len(), 1);
        gate.reference("m", w * 1.01, w, 1e-9);
        assert_eq!(gate.mismatches().len(), 2);
        // Another thread's gate that answered the same matrix differently.
        let mut other = Gate::default();
        other.answer("m", &m, &tree, w, 1e-9);
        other.same("m2", w);
        let mut mine = Gate::default();
        mine.same("m", f64::from_bits(w.to_bits() + 1));
        mine.absorb(&other);
        assert_eq!(mine.mismatches().len(), 1);
        assert_eq!(mine.checked(), 1);
    }

    #[test]
    fn the_gate_trips_on_an_infeasible_tree() {
        let (m, mut tree, _) = solved();
        // Halving every height keeps the topology but undercuts the matrix.
        let w = tree.fit_heights(&m);
        let mut squashed = mutree_distmat::DistanceMatrix::zeros(m.len()).unwrap();
        for (i, j, d) in m.pairs() {
            squashed.set(i, j, d / 2.0);
        }
        let mut low = tree.clone();
        let lw = low.fit_heights(&squashed);
        assert!(check_answer(&m, &tree, w, 1e-9).is_ok());
        assert!(check_answer(&m, &low, lw, 1e-9).is_err());
    }
}
