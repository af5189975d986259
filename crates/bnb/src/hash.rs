//! Small dependency-free hashing shared across the workspace.
//!
//! The content-addressed group-solve cache hashes canonical matrix bytes
//! for its keys and its entry checksums, and must use the *same* function
//! everywhere or cache lookups would silently depend on which layer
//! computed the key. One implementation lives here; `mutree-core`
//! re-exports this module as `mutree_core::hash`.

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` — small, dependency-free, and plenty
/// for checksums and cache keys. Not collision-resistant against
/// adversaries; never use it for security.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

/// Folds `bytes` into an existing FNV-1a state, so multi-part keys
/// (shape ‖ config ‖ payload) hash incrementally without concatenating
/// into a scratch buffer first. Start from [`FNV_OFFSET`] (or use
/// [`fnv1a`]).
#[must_use]
pub fn fnv1a_continue(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn continuation_equals_one_shot() {
        let whole = fnv1a(b"hello world");
        let split = fnv1a_continue(fnv1a(b"hello "), b"world");
        assert_eq!(whole, split);
    }
}
