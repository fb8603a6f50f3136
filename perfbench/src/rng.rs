//! SplitMix64: the benchmark's only source of randomness. Every input is
//! a pure function of `(workload seed, stream, index)`, so a run is
//! replayable from its `--seed`.

/// A SplitMix64 stream.
pub struct Rng(u64);

impl Rng {
    /// The stream for item `index` of the named `stream` under `seed`.
    pub fn for_item(seed: u64, stream: &str, index: u64) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the stream name
        for b in stream.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.0 ^= r
            .next_u64()
            .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (half-open; `hi > lo`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(hi > lo);
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
