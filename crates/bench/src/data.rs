//! Canonical workload generators for all experiments.
//!
//! Two families mirror the paper's §4:
//!
//! * [`random_species_matrix`] — the "randomly generated species matrix"
//!   workload: clock-like distances with 20 % multiplicative noise, scaled
//!   into the paper's 0–100 value range and metric by construction.
//!   (Independent-uniform matrices carry almost no compact structure *and*
//!   almost no ultrametric structure, so neither the paper's branch-and-
//!   bound times nor its compact-set savings are reproducible from them;
//!   see EXPERIMENTS.md for the measurement behind this choice.)
//! * [`hmdna_matrix`] — the Human-Mitochondrial-DNA stand-in: sequences
//!   evolved along a random coalescent genealogy under Kimura-2P with
//!   indels, pairwise edit distances (see `mutree_seqgen`). Like real
//!   mtDNA matrices these are integer-valued, near-ultrametric and
//!   strongly clustered.

use mutree_distmat::DistanceMatrix;
use mutree_seqgen::{
    distance_matrix, evolve, random_coalescent, random_root_sequence, DistanceKind,
    EvolutionParams, SubstitutionModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Noise level of the random-species family (fraction of each distance).
pub const RANDOM_NOISE: f64 = 0.2;

/// The "randomly generated species matrix" workload: values in 0–100,
/// metric, moderately clustered. Deterministic in `(n, seed)`.
pub fn random_species_matrix(n: usize, seed: u64) -> DistanceMatrix {
    let mut rng = StdRng::seed_from_u64(0x5eed_0000 ^ seed ^ ((n as u64) << 32));
    let m = mutree_distmat::gen::perturbed_ultrametric(n, 50.0, RANDOM_NOISE, &mut rng);
    // Scale into the paper's 0..100 range.
    let scale = 100.0 / m.max_distance().max(1e-9);
    let mut out = DistanceMatrix::zeros(n).expect("n >= 2");
    for (i, j, d) in m.pairs() {
        out.set(i, j, (d * scale).min(100.0));
    }
    out
}

/// The synthetic Human-Mitochondrial-DNA workload: edit-distance matrix of
/// `n` sequences (~120 bases) evolved on a random clock-like genealogy.
/// Deterministic in `(n, seed)`.
pub fn hmdna_matrix(n: usize, seed: u64) -> DistanceMatrix {
    let mut rng = StdRng::seed_from_u64(0xd4a_0000 ^ seed ^ ((n as u64) << 32));
    let params = EvolutionParams {
        model: SubstitutionModel::Kimura {
            transition_rate: 0.25,
            transversion_rate: 0.08,
        },
        indel_rate: 0.02,
        rate_variation: 0.4,
    };
    let tree = random_coalescent(n, 1.0, &mut rng);
    let root = random_root_sequence(80, &mut rng);
    let seqs = evolve(&tree, &root, &params, &mut rng);
    let mut m = distance_matrix(&seqs, DistanceKind::Edit);
    m.set_labels((0..n).map(|i| format!("HMDNA_{i:02}")));
    m
}

/// A block-clustered workload for the fork-join pipeline experiments:
/// `clusters` tight groups of `size` taxa each. Within-cluster distances
/// are random in 2–8, across-cluster distances are 100, so the compact
/// sets at any size threshold `>= size` are exactly the clusters and the
/// group count is known in advance. Deterministic in
/// `(clusters, size, seed)`.
pub fn clustered_matrix(clusters: usize, size: usize, seed: u64) -> DistanceMatrix {
    let mut rng = StdRng::seed_from_u64(
        0xb10c_0000 ^ seed ^ ((clusters as u64) << 40) ^ ((size as u64) << 32),
    );
    let n = clusters * size;
    let mut m = DistanceMatrix::zeros(n).expect("n >= 2");
    for i in 0..n {
        for j in (i + 1)..n {
            let d = if i / size == j / size {
                rng.gen_range(2.0..8.0)
            } else {
                100.0
            };
            m.set(i, j, d);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_family_is_metric_in_range() {
        let m = random_species_matrix(14, 3);
        assert!(m.is_metric(1e-9));
        assert!(m.max_distance() <= 100.0);
        assert!(m.min_distance() > 0.0);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_species_matrix(10, 7), random_species_matrix(10, 7));
        assert_eq!(hmdna_matrix(12, 1), hmdna_matrix(12, 1));
        assert_ne!(hmdna_matrix(12, 1), hmdna_matrix(12, 2));
    }

    #[test]
    fn hmdna_is_integer_edit_distances() {
        let m = hmdna_matrix(10, 4);
        assert!(m.is_metric(1e-9));
        for (_, _, d) in m.pairs() {
            assert_eq!(d, d.round(), "edit distances are integers");
        }
    }
}
