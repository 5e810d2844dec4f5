//! The correctness oracle's plumbing. What a correct answer *is* lives
//! with each generator (it knows what it registered and wrote); this
//! module only folds accepted answers into an order-sensitive digest,
//! so two runs of the same seed can assert byte-equal behaviour.

/// FNV-1a over bytes: cheap enough to run on every answer.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x1987_0b5e_55ed_cafe)
    }
}

impl Digest {
    pub fn fold(&mut self, answer: u64) {
        self.0 = (self.0.rotate_left(5) ^ answer).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// What the generator concluded about one answer.
pub enum Verdict {
    /// Accepted; the value is folded into the digest.
    Ok(u64),
    /// An error, or an answer the oracle rejects. Counts in `failed`.
    Rejected(String),
}
