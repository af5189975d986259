//! Synthetic molecular sequence data for phylogenetic experiments.
//!
//! The PaCT 2005 paper evaluates on distance matrices computed from **Human
//! Mitochondrial DNA** — data we do not have. This crate builds the closest
//! synthetic equivalent, exercising the same code paths:
//!
//! 1. draw a random clock-like genealogy ([`random_coalescent`] — the
//!    Kingman coalescent yields an ultrametric tree, matching the
//!    molecular-clock assumption behind ultrametric tree reconstruction);
//! 2. evolve a DNA sequence down the tree under a substitution model with
//!    optional insertions/deletions ([`evolve`], [`SubstitutionModel`]);
//! 3. compute all pairwise **edit distances** ([`edit_distance`], a full
//!    dynamic program — the paper's "distance as the edit distance for any
//!    two of species") into a [`DistanceMatrix`].
//!
//! Levenshtein distance is a metric, so the resulting matrices satisfy the
//! triangle inequality the algorithms assume; because the genealogy is
//! clock-like they are *near*-ultrametric and strongly clustered — exactly
//! the structure that makes compact sets effective on real mtDNA.
//!
//! The one-call entry point for experiments is [`hmdna_like_matrix`].
//!
//! ```
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let m = mutree_seqgen::hmdna_like_matrix(8, 200, &mut rng);
//! assert_eq!(m.len(), 8);
//! assert!(m.is_metric(1e-9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distance;
mod evolve;
mod fasta;
mod seq;

pub use distance::{distance_matrix, edit_distance, jc_distance, p_distance, DistanceKind};
pub use evolve::{
    evolve, random_coalescent, random_root_sequence, EvolutionParams, SubstitutionModel,
};
pub use fasta::{parse_fasta, to_fasta, FastaRecord};
pub use seq::{DnaSeq, SeqError};

use mutree_distmat::DistanceMatrix;
use rand::Rng;

/// Generates a complete "HMDNA-like" distance matrix over `n` species:
/// coalescent genealogy, Kimura 2-parameter evolution with a light indel
/// process, pairwise edit distances. Labels are `HMDNA_00`, `HMDNA_01`, …
///
/// `seq_len` controls resolution: longer sequences give smoother, more
/// tree-like matrices. 200–500 is plenty for experiments up to ~40 species.
///
/// # Panics
///
/// Panics when `n < 2` or `seq_len == 0`.
pub fn hmdna_like_matrix<R: Rng + ?Sized>(n: usize, seq_len: usize, rng: &mut R) -> DistanceMatrix {
    let params = EvolutionParams {
        model: SubstitutionModel::Kimura {
            transition_rate: 0.04,
            transversion_rate: 0.01,
        },
        indel_rate: 0.002,
        rate_variation: 0.1,
    };
    let tree = random_coalescent(n, 1.0, rng);
    let root = random_root_sequence(seq_len, rng);
    let seqs = evolve(&tree, &root, &params, rng);
    let mut m = distance_matrix(&seqs, DistanceKind::Edit);
    m.set_labels((0..n).map(|i| format!("HMDNA_{i:02}")));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hmdna_like_matrix_is_metric_and_labeled() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = hmdna_like_matrix(10, 150, &mut rng);
        assert_eq!(m.len(), 10);
        assert!(m.is_metric(1e-9));
        assert_eq!(m.label(0), "HMDNA_00");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = hmdna_like_matrix(6, 100, &mut StdRng::seed_from_u64(5));
        let b = hmdna_like_matrix(6, 100, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn clockiness_makes_it_near_ultrametric() {
        // Relative ultrametric violations should be modest for long
        // sequences: check the three-point condition with a generous slack.
        let mut rng = StdRng::seed_from_u64(11);
        let m = hmdna_like_matrix(8, 2000, &mut rng);
        let slack = 0.35 * m.max_distance();
        assert!(m.is_ultrametric(slack));
    }
}
