//! The engine's stable routing hash.
//!
//! Every shard assignment in the sharded engine is `route_hash(key) %
//! shards` over a routing domain (an e2LD, or a name the suffix list
//! cannot split). FNV-1a is fixed and platform-independent, so a given
//! world routes identically on every host and across releases, which is
//! what lets checkpoints taken at one width resume at the same width
//! anywhere.

/// FNV-1a over a byte string — the engine's stable routing hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The routing hash of a routing-domain string. Shard assignment is
/// `route_hash(key) % shards` everywhere.
pub fn route_hash(key: &str) -> u64 {
    fnv1a64(key.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Reference vectors for FNV-1a 64-bit.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(route_hash("a"), fnv1a64(b"a"));
    }
}
