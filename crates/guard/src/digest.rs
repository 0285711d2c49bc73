//! The checksummed data plane: fast content digests computed at stage
//! hand-off so corrupted buffers are *caught* at the boundary instead
//! of silently propagating into planning.
//!
//! The digest is FNV-1a folded a 64-bit word at a time (8 bytes per
//! multiply instead of 1), which keeps the cost per 640×360 frame in
//! the tens of microseconds — noise against a multi-millisecond DNN
//! stage. It is a corruption detector, not a cryptographic MAC: the
//! adversary here is `adsim-faults`, cosmic rays and DMA bugs, not an
//! attacker.

use adsim_vision::GrayImage;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit content digest. Two digests compare equal iff the hashed
/// byte streams were identical (up to the usual 2^-64 collision odds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Digest(pub u64);

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Incremental digest builder, for callers that hash several fields
/// into one value.
#[derive(Debug, Clone, Copy)]
pub struct Hasher {
    state: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds one 64-bit word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.state = (self.state ^ w).wrapping_mul(FNV_PRIME);
    }

    /// Folds a byte slice, eight bytes per round plus a
    /// length-terminated tail (so `[0]` and `[0, 0]` hash differently).
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.word(u64::from_le_bytes(tail));
        }
        self.word(bytes.len() as u64);
    }

    /// Folds an `f32` slice through its bit patterns (`-0.0` and `0.0`
    /// therefore digest differently — the digest is byte-exact).
    pub fn f32s(&mut self, values: &[f32]) {
        let mut pair = values.chunks_exact(2);
        for c in pair.by_ref() {
            self.word((c[0].to_bits() as u64) | ((c[1].to_bits() as u64) << 32));
        }
        for v in pair.remainder() {
            self.word(v.to_bits() as u64);
        }
        self.word(values.len() as u64);
    }

    /// The finished digest.
    pub fn finish(&self) -> Digest {
        Digest(self.state)
    }
}

/// Digest of a grayscale frame: dimensions plus pixel content, so a
/// resize and a corruption are both mismatches.
pub fn digest_image(img: &GrayImage) -> Digest {
    let mut h = Hasher::new();
    h.word(img.width() as u64);
    h.word(img.height() as u64);
    h.bytes(img.as_slice());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_deterministic_and_content_sensitive() {
        let a = GrayImage::from_fn(64, 48, |x, y| (x * y) as u8);
        let b = GrayImage::from_fn(64, 48, |x, y| (x * y) as u8);
        assert_eq!(digest_image(&a), digest_image(&b));

        let mut c = b.clone();
        c.as_mut_slice()[1000] ^= 0x01;
        assert_ne!(digest_image(&a), digest_image(&c), "single-bit flip must be caught");
    }

    #[test]
    fn dimensions_are_part_of_the_image_digest() {
        let a = GrayImage::new(16, 4);
        let b = GrayImage::new(4, 16);
        assert_eq!(a.as_slice(), b.as_slice(), "same zeroed payload");
        assert_ne!(digest_image(&a), digest_image(&b));
    }

}
