//! FNV-1a, 64-bit: the one content hash of the reproduction.
//!
//! Checkpoint checksums, warm-cache digests, fault-site seeds,
//! conformance observation hashes and fleet fingerprints all bake its
//! output into checked-in bytes, so this function is part of each of
//! those stable formats. Unlike `DefaultHasher` it is stable across
//! platforms and Rust versions.

/// Streaming FNV-1a state; `.0` is the digest so far.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The FNV-1a offset basis (the digest of no bytes).
    pub const fn new() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a string's UTF-8 bytes into the digest.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// Folds a little-endian `u64` into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// FNV-1a over one byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") from the published reference tables.
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"vfs_");
        h.write_str("read");
        assert_eq!(h.0, fnv1a(b"vfs_read"));
        assert_ne!(fnv1a(b"vfs_read"), fnv1a(b"vfs_write"));
    }
}
