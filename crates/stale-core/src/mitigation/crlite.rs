//! A CRLite-style revocation filter cascade (§7.2's "if new proposals
//! such as CRLite gain adoption").
//!
//! CRLite pushes the *entire* revocation set to every client as a cascade
//! of Bloom filters, so revocation checking needs no network fetch — the
//! soft-fail bypass disappears. The cascade construction guarantees
//! exactness over the enrolled population: level 0 holds the revoked set;
//! any unrevoked certificate that level 0 falsely matches goes into level
//! 1; revoked certificates falsely matched by level 1 go into level 2; and
//! so on until a level has no false positives. A lookup walks the levels
//! and the parity of the last matching level decides.

use crypto::sha256::Sha256;
use stale_types::CertId;

/// A fixed-size Bloom filter over [`CertId`]s.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    bit_count: u64,
    hashes: u32,
    /// Level salt so cascade levels hash independently.
    salt: u32,
}

impl BloomFilter {
    /// Size a filter for `expected` entries at roughly 1% false-positive
    /// rate (m ≈ 9.6·n, k = 7), with a floor for tiny sets.
    pub fn sized_for(expected: usize, salt: u32) -> BloomFilter {
        let bit_count = (expected.max(8) as u64) * 10;
        BloomFilter {
            bits: vec![0u64; bit_count.div_ceil(64) as usize],
            bit_count,
            hashes: 7,
            salt,
        }
    }

    fn positions(&self, id: &CertId) -> impl Iterator<Item = u64> + '_ {
        // Double hashing over SHA-256(salt || id).
        let mut h = Sha256::new();
        h.update(&self.salt.to_be_bytes()).update(id.as_bytes());
        let digest = h.finalize();
        // Big-endian fold of digest[0..8] and digest[8..16] without the
        // slice-length dance.
        let (mut h1, mut h2) = (0u64, 0u64);
        for (i, b) in digest.iter().enumerate().take(16) {
            if i < 8 {
                h1 = (h1 << 8) | u64::from(*b);
            } else {
                h2 = (h2 << 8) | u64::from(*b);
            }
        }
        let h2 = h2 | 1;
        let m = self.bit_count;
        (0..self.hashes as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % m)
    }

    /// Insert an id.
    pub fn insert(&mut self, id: &CertId) {
        let positions: Vec<u64> = self.positions(id).collect();
        for p in positions {
            self.bits[(p / 64) as usize] |= 1 << (p % 64);
        }
    }

    /// Probabilistic membership: false positives possible, false
    /// negatives impossible.
    pub fn contains(&self, id: &CertId) -> bool {
        self.positions(id)
            .all(|p| self.bits[(p / 64) as usize] & (1 << (p % 64)) != 0)
    }

    /// Size in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }
}

/// The filter cascade: exact over the population it was built from.
#[derive(Debug, Clone)]
pub struct CrliteFilter {
    levels: Vec<BloomFilter>,
    revoked_count: usize,
    population_count: usize,
}

impl CrliteFilter {
    /// Build from the full enrolled population and the revoked subset.
    ///
    /// Every id in `revoked` must be drawn from `population`.
    pub fn build(population: &[CertId], revoked: &[CertId]) -> CrliteFilter {
        let mut levels: Vec<BloomFilter> = Vec::new();
        // include[i] = ids the current level must match;
        // exclude = ids it must (eventually) not match.
        let mut include: Vec<CertId> = revoked.to_vec();
        // Membership by binary search in a sorted copy: a linear scan of
        // `revoked` per population id would be O(population × revoked).
        let mut sorted_revoked = revoked.to_vec();
        sorted_revoked.sort_unstable();
        let mut exclude: Vec<CertId> = population
            .iter()
            .filter(|id| sorted_revoked.binary_search(id).is_err())
            .cloned()
            .collect();
        let mut salt = 0u32;
        while !include.is_empty() {
            let mut filter = BloomFilter::sized_for(include.len(), salt);
            for id in &include {
                filter.insert(id);
            }
            // False positives among the excluded set become the next
            // level's include set.
            let false_positives: Vec<CertId> = exclude
                .iter()
                .filter(|id| filter.contains(id))
                .cloned()
                .collect();
            levels.push(filter);
            exclude = include;
            include = false_positives;
            salt += 1;
            if salt > 64 {
                // Pathological input; the cascade always terminates in
                // practice because each level shrinks ~100-fold.
                break;
            }
        }
        CrliteFilter {
            levels,
            revoked_count: revoked.len(),
            population_count: population.len(),
        }
    }

    /// Is `id` revoked? Exact for ids in the build population.
    pub fn is_revoked(&self, id: &CertId) -> bool {
        let mut verdict = false;
        for (depth, level) in self.levels.iter().enumerate() {
            if !level.contains(id) {
                break;
            }
            // Matching an even level asserts "revoked", odd asserts
            // "exception".
            verdict = depth % 2 == 0;
        }
        verdict
    }

    /// Number of cascade levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Total size in bytes — the quantity that makes CRLite shippable
    /// compared to full CRLs.
    pub fn byte_size(&self) -> usize {
        self.levels.iter().map(BloomFilter::byte_size).sum()
    }

    /// Build-population statistics `(revoked, total)`.
    pub fn stats(&self) -> (usize, usize) {
        (self.revoked_count, self.population_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> CertId {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&n.to_be_bytes());
        CertId::from_bytes(bytes)
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut filter = BloomFilter::sized_for(100, 0);
        for n in 0..100 {
            filter.insert(&id(n));
        }
        for n in 0..100 {
            assert!(filter.contains(&id(n)));
        }
    }

    #[test]
    fn bloom_false_positive_rate_is_low() {
        let mut filter = BloomFilter::sized_for(1000, 0);
        for n in 0..1000 {
            filter.insert(&id(n));
        }
        let fps = (1000..21_000).filter(|&n| filter.contains(&id(n))).count();
        let rate = fps as f64 / 20_000.0;
        assert!(rate < 0.03, "false positive rate {rate}");
    }

    #[test]
    fn cascade_is_exact_over_population() {
        let population: Vec<CertId> = (0..5_000).map(id).collect();
        let revoked: Vec<CertId> = (0..5_000).step_by(40).map(id).collect();
        let filter = CrliteFilter::build(&population, &revoked);
        for cert in &population {
            let truth = revoked.contains(cert);
            assert_eq!(filter.is_revoked(cert), truth, "{cert}");
        }
        assert_eq!(filter.stats(), (125, 5_000));
        assert!(filter.level_count() >= 1);
    }

    #[test]
    fn cascade_much_smaller_than_id_list() {
        let population: Vec<CertId> = (0..20_000).map(id).collect();
        let revoked: Vec<CertId> = (0..20_000).step_by(50).map(id).collect();
        let filter = CrliteFilter::build(&population, &revoked);
        // Shipping raw 32-byte ids for the whole population would cost
        // 640 KB; the cascade should be far below even the revoked list.
        let raw_population = population.len() * 32;
        assert!(
            filter.byte_size() * 20 < raw_population,
            "{} bytes",
            filter.byte_size()
        );
    }

    #[test]
    fn empty_revocation_set() {
        let population: Vec<CertId> = (0..100).map(id).collect();
        let filter = CrliteFilter::build(&population, &[]);
        assert!(population.iter().all(|c| !filter.is_revoked(c)));
        assert_eq!(filter.level_count(), 0);
        assert_eq!(filter.byte_size(), 0);
    }

    #[test]
    fn everything_revoked() {
        let population: Vec<CertId> = (0..100).map(id).collect();
        let filter = CrliteFilter::build(&population, &population);
        assert!(population.iter().all(|c| filter.is_revoked(c)));
    }
}
