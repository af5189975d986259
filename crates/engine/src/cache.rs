//! The content-addressed group-solve cache.
//!
//! The decomposition pipeline solves many small matrices — one per
//! compact group, plus condensed meta matrices — and real batches repeat
//! themselves: bootstrap replicates, parameter sweeps and incremental
//! re-runs hand the solver the *same* sub-matrix over and over, and
//! near-identical ones (a few distances perturbed within tolerance) even
//! more often. A [`GroupCache`] remembers finished group solves and
//! answers repeats from memory.
//!
//! # Key derivation
//!
//! A sub-matrix is first **canonicalized** by its maxmin permutation —
//! the same relabeling the solver itself applies — so two groups that
//! are permutations of each other canonicalize to identical matrices
//! whenever the maxmin order is tie-free (tied distances may split
//! permuted copies across entries: a missed dedup, never a wrong
//! answer). The
//! canonical strict-lower-triangle distances are then **quantized** to
//! the search tolerance [`mutree_bnb::TOL`] (`floor(d / quantum)` per
//! entry; a request's `tol` plays no part) and hashed with FNV-1a,
//! together with the taxon count and a *solver signature* describing
//! every knob that can change the optimum (3-3 rule, incumbent
//! heuristics, backend family). That hash picks a bucket:
//!
//! * an entry whose canonical bytes match **bit for bit** (same `n`,
//!   same signature) is an **exact hit** — the stored optimum and
//!   topology are returned without searching, provenance
//!   [`Cached`](crate::StageProvenance::Cached);
//! * an entry in the same bucket with different bits is a **near hit** —
//!   its distances differ from the probe's by less than a quantum, so
//!   its tree is returned as a warm-start seed: the search still runs
//!   and still proves optimality, it just starts with a near-optimal
//!   incumbent, provenance
//!   [`WarmSeeded`](crate::StageProvenance::WarmSeeded).
//!
//! Entries carry an FNV checksum over their canonical bytes, weight and
//! encoded tree; a corrupted (poisoned) entry fails its checksum on
//! probe, is evicted, and the solve falls back to a cold search — a bad
//! cache can cost time but never a wrong answer.

use std::collections::HashMap;
use std::sync::Mutex;

use mutree_bnb::hash::{fnv1a, fnv1a_continue};
use mutree_distmat::{DistanceMatrix, MaxminPermutation};
use mutree_tree::{codec, UltrametricTree};

/// Most entries kept per hash bucket; the oldest is evicted beyond this.
const BUCKET_CAP: usize = 16;

/// One remembered group solve, stored in canonical (maxmin-relabeled)
/// indexing.
struct Entry {
    /// Taxon count.
    n: usize,
    /// Solver signature the solve ran under.
    sig: u64,
    /// Canonical strict-lower-triangle distances, exact bits.
    canon: Vec<f64>,
    /// The proven-optimal weight.
    weight: f64,
    /// The optimal tree, codec-encoded, canonical taxon indexing.
    payload: Vec<u8>,
    /// FNV over canon bits ‖ weight bits ‖ payload; checked on probe.
    checksum: u64,
}

/// Canonicalizes `m`: maxmin-relabels it and returns the canonical
/// strict-lower-triangle distances plus the relabeling order
/// (`order[k]` = the taxon of `m` that canonical taxon `k` names).
///
/// The maxmin definition leaves the *orientation* of the leading max
/// pair free — `(a, b, …)` and `(b, a, …)` are both maxmin — and which
/// one the greedy computation lands on depends on the input labeling.
/// Both orientations are tried and the lexicographically smaller
/// canonical byte string wins, so relabeled copies of a matrix
/// canonicalize identically (given a tie-free maxmin order).
fn canonicalize(m: &DistanceMatrix) -> (Vec<f64>, Vec<usize>) {
    let perm = MaxminPermutation::compute(m);
    let order_a = perm.order().to_vec();
    let canon_a: Vec<f64> = m.permute(&order_a).condensed().to_vec();
    let mut order_b = order_a.clone();
    order_b.swap(0, 1);
    let canon_b: Vec<f64> = m.permute(&order_b).condensed().to_vec();
    let a_key = canon_a.iter().map(|d| d.to_bits());
    let b_key = canon_b.iter().map(|d| d.to_bits());
    if a_key.le(b_key) {
        (canon_a, order_a)
    } else {
        (canon_b, order_b)
    }
}

fn entry_checksum(canon: &[f64], weight: f64, payload: &[u8]) -> u64 {
    let mut h = fnv1a(b"mutree-cache-entry-v1");
    for d in canon {
        h = fnv1a_continue(h, &d.to_bits().to_le_bytes());
    }
    h = fnv1a_continue(h, &weight.to_bits().to_le_bytes());
    fnv1a_continue(h, payload)
}

/// Everything a later [`insert`](GroupCache::insert) needs to file the
/// solve under the same key the probe computed — returned by
/// [`probe`](GroupCache::probe) so canonicalization happens once.
pub struct CacheQuery {
    key: u64,
    canon: Vec<f64>,
    /// `order[k]` = the probed matrix's (local) taxon that canonical
    /// taxon `k` relabels.
    order: Vec<usize>,
    sig: u64,
    n: usize,
}

/// What a probe found.
pub enum CacheOutcome {
    /// Exact hit: this very matrix (up to taxon relabeling) was already
    /// solved under the same signature. The tree is in the probed
    /// matrix's taxon indexing.
    Hit {
        /// The stored optimal tree.
        tree: UltrametricTree,
        /// The stored optimal weight.
        weight: f64,
    },
    /// Near hit: an ε-close matrix was solved before; `tree` (probed
    /// indexing) is a warm-start incumbent, not an answer. Run the
    /// search and [`insert`](GroupCache::insert) with the query.
    Seed {
        /// The stored tree of the ε-close matrix.
        tree: UltrametricTree,
        /// Its stored weight under *its* matrix — advisory only.
        weight: f64,
        /// Hand back to [`insert`](GroupCache::insert) after solving.
        query: CacheQuery,
    },
    /// Nothing useful cached. Solve cold and
    /// [`insert`](GroupCache::insert) with the query.
    Miss(CacheQuery),
}

/// A probe result plus bookkeeping the caller folds into its stats.
pub struct CacheProbe {
    /// The outcome.
    pub outcome: CacheOutcome,
    /// Poisoned (checksum-failing) entries evicted during this probe.
    pub poisoned: u64,
}

/// A thread-safe, content-addressed store of finished group solves. See
/// the [module docs](self) for the key derivation and hit semantics.
pub struct GroupCache {
    quantum: f64,
    buckets: Mutex<HashMap<u64, Vec<Entry>>>,
}

impl Default for GroupCache {
    fn default() -> Self {
        GroupCache::new()
    }
}

impl std::fmt::Debug for GroupCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCache")
            .field("quantum", &self.quantum)
            .field("entries", &self.len())
            .finish()
    }
}

impl GroupCache {
    /// An empty cache quantizing at the search tolerance
    /// [`mutree_bnb::TOL`].
    pub fn new() -> Self {
        GroupCache::with_quantum(mutree_bnb::TOL)
    }

    /// An empty cache quantizing distances to `quantum` for key
    /// derivation. Matrices whose quantized distances coincide share a
    /// bucket and warm-seed each other; `0.0` (or non-finite) disables
    /// quantization — only bit-identical matrices ever meet.
    pub fn with_quantum(quantum: f64) -> Self {
        let quantum = if quantum.is_finite() && quantum > 0.0 {
            quantum
        } else {
            0.0
        };
        GroupCache {
            quantum,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// The bucket key for canonical distances under this cache's
    /// quantum and the given solver signature.
    fn key_of(&self, n: usize, sig: u64, canon: &[f64]) -> u64 {
        let mut h = fnv1a(b"mutree-cache-key-v1");
        h = fnv1a_continue(h, &(n as u64).to_le_bytes());
        h = fnv1a_continue(h, &self.quantum.to_bits().to_le_bytes());
        h = fnv1a_continue(h, &sig.to_le_bytes());
        for &d in canon {
            let cell = if self.quantum > 0.0 {
                (d / self.quantum).floor() as i64
            } else {
                d.to_bits() as i64
            };
            h = fnv1a_continue(h, &cell.to_le_bytes());
        }
        h
    }

    /// Looks up `m` (a group sub-matrix, local taxon indexing `0..n`)
    /// solved under solver signature `sig`.
    ///
    /// Canonicalizes, hashes, and scans the bucket: exact bit match →
    /// [`CacheOutcome::Hit`]; same bucket, same `n`/`sig`, different
    /// bits → [`CacheOutcome::Seed`]; otherwise [`CacheOutcome::Miss`].
    /// Entries failing their checksum are evicted and counted in
    /// [`CacheProbe::poisoned`].
    pub fn probe(&self, m: &DistanceMatrix, sig: u64) -> CacheProbe {
        let n = m.len();
        let (canon, order) = canonicalize(m);
        let key = self.key_of(n, sig, &canon);

        let mut poisoned = 0u64;
        let mut buckets = self.buckets.lock().expect("cache lock");
        let outcome = match buckets.get_mut(&key) {
            None => None,
            Some(bucket) => {
                bucket.retain(|e| {
                    let ok = entry_checksum(&e.canon, e.weight, &e.payload) == e.checksum;
                    if !ok {
                        poisoned += 1;
                    }
                    ok
                });
                let same_shape =
                    |e: &&Entry| e.n == n && e.sig == sig && e.canon.len() == canon.len();
                let exact = bucket.iter().filter(same_shape).find(|e| {
                    e.canon
                        .iter()
                        .zip(&canon)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                });
                match exact {
                    Some(e) => codec::decode_tree(&e.payload).map(|mut tree| {
                        tree.map_taxa(|c| order[c]);
                        CacheOutcome::Hit {
                            tree,
                            weight: e.weight,
                        }
                    }),
                    None => bucket.iter().find(same_shape).and_then(|e| {
                        codec::decode_tree(&e.payload).map(|mut tree| {
                            tree.map_taxa(|c| order[c]);
                            CacheOutcome::Seed {
                                tree,
                                weight: e.weight,
                                query: CacheQuery {
                                    key,
                                    canon: canon.clone(),
                                    order: order.clone(),
                                    sig,
                                    n,
                                },
                            }
                        })
                    }),
                }
            }
        };
        let outcome = outcome.unwrap_or(CacheOutcome::Miss(CacheQuery {
            key,
            canon,
            order,
            sig,
            n,
        }));
        CacheProbe { outcome, poisoned }
    }

    /// Files a finished, proven-optimal solve of the matrix `query` was
    /// probed from. `tree` is in that matrix's (local) taxon indexing;
    /// it is re-canonicalized before storage. An entry for the identical
    /// canonical matrix is replaced; otherwise the entry is appended
    /// (evicting the bucket's oldest beyond the cap).
    pub fn insert(&self, query: CacheQuery, tree: &UltrametricTree, weight: f64) {
        let CacheQuery {
            key,
            canon,
            order,
            sig,
            n,
        } = query;
        // order[k] = local taxon of canonical k; invert to map the
        // local-indexed tree into canonical indexing for storage.
        let mut inv = vec![0usize; order.len()];
        for (k, &local) in order.iter().enumerate() {
            inv[local] = k;
        }
        let mut canonical_tree = tree.clone();
        canonical_tree.map_taxa(|local| inv[local]);
        let payload = codec::encode_tree(&canonical_tree);
        let checksum = entry_checksum(&canon, weight, &payload);
        let entry = Entry {
            n,
            sig,
            canon,
            weight,
            payload,
            checksum,
        };

        let mut buckets = self.buckets.lock().expect("cache lock");
        let bucket = buckets.entry(key).or_default();
        let identical = bucket.iter_mut().find(|e| {
            e.n == entry.n
                && e.sig == entry.sig
                && e.canon.len() == entry.canon.len()
                && e.canon
                    .iter()
                    .zip(&entry.canon)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        match identical {
            Some(slot) => *slot = entry,
            None => {
                if bucket.len() >= BUCKET_CAP {
                    bucket.remove(0);
                }
                bucket.push(entry);
            }
        }
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.buckets
            .lock()
            .expect("cache lock")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Corrupts every stored payload so the next probe fails each
    /// entry's checksum. Test hook for the poisoned-cache degradation
    /// path; not part of the public contract.
    #[doc(hidden)]
    pub fn poison_all(&self) {
        let mut buckets = self.buckets.lock().expect("cache lock");
        for bucket in buckets.values_mut() {
            for e in bucket.iter_mut() {
                match e.payload.first_mut() {
                    Some(b) => *b ^= 0xFF,
                    None => e.checksum ^= 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mutree_tree::cluster;
    use mutree_tree::Linkage;

    /// A 4-taxon matrix with a unique ultrametric structure.
    fn matrix() -> DistanceMatrix {
        DistanceMatrix::from_rows(&[
            vec![0.0, 2.0, 8.0, 8.0],
            vec![2.0, 0.0, 8.0, 8.0],
            vec![8.0, 8.0, 0.0, 4.0],
            vec![8.0, 8.0, 4.0, 0.0],
        ])
        .unwrap()
    }

    fn tree_for(m: &DistanceMatrix) -> (UltrametricTree, f64) {
        let mut t = cluster(m, Linkage::Maximum);
        let w = t.fit_heights(m);
        (t, w)
    }

    #[test]
    fn cold_probe_misses_and_insert_hits() {
        let cache = GroupCache::new();
        let m = matrix();
        let probe = cache.probe(&m, 42);
        let CacheOutcome::Miss(query) = probe.outcome else {
            panic!("cold cache must miss");
        };
        assert_eq!(probe.poisoned, 0);
        let (t, w) = tree_for(&m);
        cache.insert(query, &t, w);
        assert_eq!(cache.len(), 1);

        let probe = cache.probe(&m, 42);
        let CacheOutcome::Hit { tree, weight } = probe.outcome else {
            panic!("identical matrix must hit");
        };
        assert_eq!(weight.to_bits(), w.to_bits());
        assert_eq!(
            mutree_tree::compare::robinson_foulds(&tree, &t).unwrap(),
            0,
            "stored topology must round-trip"
        );
    }

    #[test]
    fn taxon_permutations_share_one_entry() {
        let cache = GroupCache::new();
        // All distances distinct, so the maxmin permutation is tie-free
        // and canonicalization is label-invariant.
        let m = DistanceMatrix::from_rows(&[
            vec![0.0, 2.0, 9.0, 8.0],
            vec![2.0, 0.0, 7.0, 6.0],
            vec![9.0, 7.0, 0.0, 4.0],
            vec![8.0, 6.0, 4.0, 0.0],
        ])
        .unwrap();
        let CacheOutcome::Miss(q) = cache.probe(&m, 0).outcome else {
            panic!("miss expected");
        };
        let (t, w) = tree_for(&m);
        cache.insert(q, &t, w);

        // The same matrix with taxa relabeled canonicalizes identically.
        let perm = m.permute(&[2, 0, 3, 1]);
        let probe = cache.probe(&perm, 0);
        let CacheOutcome::Hit { tree, weight } = probe.outcome else {
            panic!("permuted matrix must hit the same entry");
        };
        assert_eq!(weight.to_bits(), w.to_bits());
        // The returned tree is in the *permuted* matrix's indexing: its
        // reference tree is the cluster tree of the permuted matrix.
        let (tp, _) = tree_for(&perm);
        assert_eq!(
            mutree_tree::compare::robinson_foulds(&tree, &tp).unwrap(),
            0
        );
    }

    #[test]
    fn different_signature_misses() {
        let cache = GroupCache::new();
        let m = matrix();
        let CacheOutcome::Miss(q) = cache.probe(&m, 1).outcome else {
            panic!("miss expected");
        };
        let (t, w) = tree_for(&m);
        cache.insert(q, &t, w);
        assert!(matches!(cache.probe(&m, 2).outcome, CacheOutcome::Miss(_)));
    }

    #[test]
    fn within_quantum_perturbation_seeds() {
        let quantum = 1e-3;
        let cache = GroupCache::with_quantum(quantum);
        // Place every distance at a bin center so a small perturbation
        // stays in the same quantization bucket.
        let center = |d: f64| (d / quantum).floor() * quantum + 0.5 * quantum;
        let mut m = matrix();
        for (i, j, d) in matrix().pairs() {
            m.set(i, j, center(d));
        }
        let CacheOutcome::Miss(q) = cache.probe(&m, 0).outcome else {
            panic!("miss expected");
        };
        let (t, w) = tree_for(&m);
        cache.insert(q, &t, w);

        let mut near = m.clone();
        near.set(0, 1, m.get(0, 1) + quantum / 4.0);
        let probe = cache.probe(&near, 0);
        let CacheOutcome::Seed { tree, .. } = probe.outcome else {
            panic!("ε-perturbed matrix must warm-seed");
        };
        assert_eq!(tree.leaf_count(), 4);

        // A perturbation past the quantum lands in another bucket.
        let mut far = m.clone();
        far.set(0, 1, m.get(0, 1) + 3.0 * quantum);
        assert!(matches!(
            cache.probe(&far, 0).outcome,
            CacheOutcome::Miss(_)
        ));
    }

    #[test]
    fn poisoned_entries_are_evicted_not_served() {
        let cache = GroupCache::new();
        let m = matrix();
        let CacheOutcome::Miss(q) = cache.probe(&m, 0).outcome else {
            panic!("miss expected");
        };
        let (t, w) = tree_for(&m);
        cache.insert(q, &t, w);
        cache.poison_all();

        let probe = cache.probe(&m, 0);
        assert_eq!(probe.poisoned, 1, "corrupted entry must be detected");
        assert!(
            matches!(probe.outcome, CacheOutcome::Miss(_)),
            "corrupted entry must not be served"
        );
        assert_eq!(cache.len(), 0, "corrupted entry must be evicted");
    }

    #[test]
    fn reinserting_identical_matrix_replaces() {
        let cache = GroupCache::new();
        let m = matrix();
        let (t, w) = tree_for(&m);
        for _ in 0..3 {
            let q = match cache.probe(&m, 0).outcome {
                CacheOutcome::Miss(q) => q,
                CacheOutcome::Seed { query, .. } => query,
                // An exact hit still re-files: rebuild the query from a
                // cold cache probe of the same matrix.
                CacheOutcome::Hit { .. } => match GroupCache::new().probe(&m, 0).outcome {
                    CacheOutcome::Miss(q) => q,
                    _ => unreachable!("cold cache misses"),
                },
            };
            cache.insert(q, &t, w);
        }
        assert_eq!(cache.len(), 1, "identical solves must not accumulate");
    }
}
