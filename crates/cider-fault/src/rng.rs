//! The deterministic PRNG behind every fault draw.
//!
//! splitmix64 (Steele/Lea/Flood) is the usual seeding primitive for
//! simulation testing: tiny, full-period over 2^64, and stateless apart
//! from one counter word — which makes fault streams trivially
//! reproducible and independent per site.

/// Advances `state` by the splitmix64 increment and returns the next
/// output word.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A self-contained splitmix64 stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A draw in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// The raw stream position. Together with [`SplitMix64::from_state`]
    /// this makes the stream checkpointable: a restored stream resumes
    /// exactly where the captured one stood.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Reconstructs a stream at an exact position previously read with
    /// [`SplitMix64::state`].
    pub fn from_state(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(1000) < 1000);
        }
    }
}
