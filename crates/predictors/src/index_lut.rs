//! Packed GF(2)-linear index lookup tables for multi-bank batch kernels.
//!
//! Every bank index of the skewed 2bcgskew is a GF(2)-linear function of
//! `(pc word bits, history bits)` — bit selects, XOR folds
//! ([`crate::history::fold_bits`]) and the bijective feedback shifts inside
//! [`crate::skew::skew`] are all XOR-compositions. Linearity means the whole
//! per-event index computation factors through byte-granular lookup tables:
//!
//! ```text
//! f(w, h) = f(w₀, 0) ^ f(w₁, 0) ^ … ^ f(0, h₀) ^ f(0, h₁) ^ …
//! ```
//!
//! where `wᵢ`/`hᵢ` are the operands with all but the `i`-th byte zeroed. A
//! predictor packs **all** of its bank indices into one `u64` (16 bits per
//! bank), so the batch hot loop replaces three history folds and two skew
//! hashes per event with a handful of L1-resident table loads and XORs. The
//! tables are built once at construction from the predictor's own scalar
//! index function, so they cannot drift from it; the batch-vs-scalar
//! equivalence tests pin the factorization.

/// Byte-sliced lookup tables for one packed, GF(2)-linear index function
/// `f(pc_word, history) -> packed_indices`.
#[derive(Clone)]
pub(crate) struct PackedIndexLut {
    /// One 256-entry table per byte of the PC word's low `pc_bits` bits.
    pc_tables: Vec<[u64; 256]>,
    /// One 256-entry table per byte of the history register's `hist_bits`.
    hist_tables: Vec<[u64; 256]>,
    /// Mask selecting the PC word bits that can reach any bank index.
    pc_mask: u64,
}

fn low_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

impl PackedIndexLut {
    /// Builds the byte tables for `f`, which must be GF(2)-linear in both
    /// operands (`f(a ^ b, 0) == f(a, 0) ^ f(b, 0)`, same in the second
    /// operand, and `f(0, 0) == 0`) and must ignore PC word bits at or above
    /// `pc_bits` and history bits at or above `hist_bits`.
    pub(crate) fn build(pc_bits: u32, hist_bits: u32, f: impl Fn(u64, u64) -> u64) -> Self {
        let pc_mask = low_mask(pc_bits);
        let hist_mask = low_mask(hist_bits);
        let byte_tables = |bits: u32, mask: u64, of_byte: &dyn Fn(u64) -> u64| {
            (0..bits.div_ceil(8))
                .map(|bp| {
                    let mut table = [0u64; 256];
                    for (v, slot) in table.iter_mut().enumerate() {
                        *slot = of_byte(((v as u64) << (bp * 8)) & mask);
                    }
                    table
                })
                .collect()
        };
        let pc_tables = byte_tables(pc_bits, pc_mask, &|w| f(w, 0));
        let hist_tables = byte_tables(hist_bits, hist_mask, &|h| f(0, h));
        let lut = Self {
            pc_tables,
            hist_tables,
            pc_mask,
        };
        // Spot-check the factorization against the scalar function on a few
        // deterministic pseudo-random operands; a non-linear `f` (or one
        // that reads bits beyond the declared widths) fails fast here
        // instead of corrupting a simulation.
        #[cfg(debug_assertions)]
        {
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..8 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let w = state & pc_mask;
                let h = (state >> 17) & hist_mask;
                debug_assert_eq!(
                    lut.packed(w, h),
                    f(w, h),
                    "index function is not GF(2)-linear in its declared bits"
                );
            }
        }
        lut
    }

    /// The packed bank indices for one event: XOR of one table row per
    /// operand byte.
    #[inline]
    pub(crate) fn packed(&self, w: u64, history: u64) -> u64 {
        let mut acc = 0u64;
        let w = w & self.pc_mask;
        for (i, table) in self.pc_tables.iter().enumerate() {
            acc ^= table[((w >> (8 * i as u32)) & 0xff) as usize];
        }
        for (i, table) in self.hist_tables.iter().enumerate() {
            acc ^= table[((history >> (8 * i as u32)) & 0xff) as usize];
        }
        acc
    }
}

impl std::fmt::Debug for PackedIndexLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedIndexLut")
            .field("pc_tables", &self.pc_tables.len())
            .field("hist_tables", &self.hist_tables.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::fold_bits;
    use crate::skew::skew;

    #[test]
    fn factors_a_skewed_index_function_exactly() {
        let n = 9u32;
        let mask = (1u64 << n) - 1;
        let f = |w: u64, h: u64| {
            let lo = w & mask;
            let hi = (w >> n) & mask;
            let f0 = fold_bits(h, 4, n);
            let f1 = fold_bits(h, 9, n);
            (w & mask) | skew(1, lo ^ f0, hi, f0, n) << 16 | skew(2, lo ^ f1, hi, f1, n) << 32
        };
        let lut = PackedIndexLut::build(2 * n, 9, f);
        let mut state = 0x0123_4567_89ab_cdefu64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = state & ((1 << (2 * n)) - 1);
            let h = (state >> 40) & ((1 << 9) - 1);
            assert_eq!(lut.packed(w, h), f(w, h));
        }
    }

    #[test]
    fn masks_pc_bits_beyond_the_declared_width() {
        let f = |w: u64, h: u64| (w & 0xff) ^ (h & 0xf) << 4;
        let lut = PackedIndexLut::build(8, 4, f);
        // High PC bits must not perturb the lookup.
        assert_eq!(lut.packed(0xdead_beef_0000_0012, 0x3), f(0x12, 0x3));
    }
}
