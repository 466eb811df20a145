//! Skewed indexing functions for multi-bank predictors.
//!
//! The skewed predictors (Michaud, Seznec & Uhlig; the e-gskew vote inside
//! 2bcgskew) index each bank with a *different* hash of `(pc, history)`
//! chosen so that two branches colliding in one bank are very unlikely to
//! collide in the others; the majority vote then hides single-bank aliasing.
//!
//! The functions here follow the published construction: a bijective one-bit
//! feedback shift `h` (and its inverse), composed per bank as
//! `f_k(v1, v2, v3) = h^k(v1) ^ h⁻ᵏ(v2) ^ v3` over `n`-bit words.

/// One step of the bijective feedback shift `h` over `n`-bit values.
///
/// `h` shifts right by one and feeds `x₀ ⊕ x_{n-1}` into the top bit, which
/// is invertible (see [`h_inv`]) and mixes low-order bits upward.
pub fn h(x: u64, n: u32) -> u64 {
    debug_assert!((2..=63).contains(&n));
    let mask = (1u64 << n) - 1;
    let x = x & mask;
    let fb = (x ^ (x >> (n - 1))) & 1;
    (x >> 1) | (fb << (n - 1))
}

/// The inverse of [`h`]: `h_inv(h(x, n), n) == x` for all `n`-bit `x`.
pub fn h_inv(x: u64, n: u32) -> u64 {
    debug_assert!((2..=63).contains(&n));
    let mask = (1u64 << n) - 1;
    let x = x & mask;
    let top = (x >> (n - 1)) & 1;
    let second = (x >> (n - 2)) & 1;
    let b0 = top ^ second;
    ((x << 1) | b0) & mask
}

/// Applies [`h`] `k` times.
pub fn h_pow(mut x: u64, n: u32, k: u32) -> u64 {
    for _ in 0..k {
        x = h(x, n);
    }
    x
}

/// Applies [`h_inv`] `k` times.
pub fn h_inv_pow(mut x: u64, n: u32, k: u32) -> u64 {
    for _ in 0..k {
        x = h_inv(x, n);
    }
    x
}

/// The bank-`k` skewing function over `n`-bit words:
/// `f_k(v1, v2, v3) = h^k(v1) ^ h⁻ᵏ(v2) ^ v3`.
///
/// Distinct `k` give distinct inter-bank dispersions; `k = 0` degenerates to
/// a plain XOR hash. The three inputs are typically (pc-high, pc-low ^
/// history, history) slices prepared by the caller.
pub fn skew(k: u32, v1: u64, v2: u64, v3: u64, n: u32) -> u64 {
    let mask = (1u64 << n) - 1;
    (h_pow(v1 & mask, n, k) ^ h_inv_pow(v2 & mask, n, k) ^ (v3 & mask)) & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_is_a_bijection() {
        let n = 8;
        let mut seen = vec![false; 1 << n];
        for x in 0u64..(1 << n) {
            let y = h(x, n as u32) as usize;
            assert!(!seen[y], "h not injective at {x}");
            seen[y] = true;
        }
    }

    #[test]
    fn h_inv_inverts_h() {
        for n in [2u32, 5, 8, 13, 20] {
            for x in 0..(1u64 << n.min(12)) {
                assert_eq!(h_inv(h(x, n), n), x, "n={n}, x={x}");
                assert_eq!(h(h_inv(x, n), n), x, "n={n}, x={x}");
            }
        }
    }

    #[test]
    fn h_pow_composes() {
        let n = 10;
        let x = 0x2a5;
        assert_eq!(h_pow(x, n, 3), h(h(h(x, n), n), n));
        assert_eq!(h_inv_pow(h_pow(x, n, 4), n, 4), x);
    }

    #[test]
    fn skew_banks_disperse_colliding_pairs() {
        // Two (v1, v2, v3) triples engineered to collide in bank 1 should
        // rarely collide in bank 2 — the whole point of skewed indexing.
        let n = 10;
        let mut bank1_collisions = 0;
        let mut both_collide = 0;
        for a in 0..200u64 {
            for b in (a + 1)..200u64 {
                let ia1 = skew(1, a, a * 7, a * 13, n);
                let ib1 = skew(1, b, b * 7, b * 13, n);
                if ia1 == ib1 {
                    bank1_collisions += 1;
                    let ia2 = skew(2, a, a * 7, a * 13, n);
                    let ib2 = skew(2, b, b * 7, b * 13, n);
                    if ia2 == ib2 {
                        both_collide += 1;
                    }
                }
            }
        }
        assert!(bank1_collisions > 0, "test needs some bank-1 collisions");
        assert!(
            both_collide * 4 <= bank1_collisions,
            "{both_collide}/{bank1_collisions} pairs collide in both banks"
        );
    }

    #[test]
    fn skew_zero_is_plain_xor() {
        let n = 12;
        assert_eq!(skew(0, 0xabc, 0x123, 0x456, n), 0xabc ^ 0x123 ^ 0x456);
    }

    #[test]
    fn skew_masks_inputs() {
        let n = 4;
        let v = skew(1, u64::MAX, u64::MAX, u64::MAX, n);
        assert!(v < 16);
    }
}
