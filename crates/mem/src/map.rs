//! Word-interleaved address-to-bank mapping.
//!
//! Word address modulo bank count — including the prime counts (17, 31)
//! whose modulo/divider hardware Fig. 5c prices and whose stride
//! robustness Fig. 5b demonstrates.

use axi_proto::Addr;

/// Returns `true` if `n` is prime.
///
/// The paper evaluates prime bank counts (11, 17, 31) because they minimize
/// systematic conflicts across strides, at the cost of modulo/divider
/// hardware (Fig. 5c).
///
/// # Examples
///
/// ```
/// use banked_mem::is_prime;
///
/// assert!(is_prime(17));
/// assert!(!is_prime(16));
/// ```
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Maps word addresses onto interleaved banks.
///
/// Word *w* (at byte address `w × word_bytes`) lives in bank `w mod m` at
/// row `w div m`. For power-of-two `m` this is a bit slice; for prime `m`
/// real hardware needs modulo/divider units — the area cost `hwmodel`
/// charges in Fig. 5c — but the *function* is identical.
///
/// The simulator decodes every word request this way, so the map avoids
/// runtime divides: the word index is a shift, a power-of-two bank count
/// splits it with a mask and a shift, and any other count splits word
/// indices below 2³² with a precomputed reciprocal (Lemire, Kaser & Kurz,
/// "Faster Remainder by Direct Computation", 2019), keeping `%` and `/`
/// for larger indices.
///
/// # Examples
///
/// ```
/// use banked_mem::BankMap;
///
/// let map = BankMap::new(17, 4);
/// assert_eq!(map.bank_of(0), 0);
/// assert_eq!(map.bank_of(4), 1);
/// assert_eq!(map.bank_of(17 * 4), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankMap {
    banks: usize,
    word_bytes: usize,
    /// log2 of `word_bytes`.
    word_shift: u32,
    split: Split,
}

/// How a word index splits into bank and row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Split {
    /// Power-of-two bank count: the bank is the low `shift` bits.
    Pow2 { shift: u32 },
    /// Any other count: `m = ⌈2⁶⁴ / banks⌉`, exact for every 32-bit word
    /// index and every bank count below 2³².
    Recip { m: u64 },
}

impl BankMap {
    /// Creates a map over `banks` banks of `word_bytes`-wide words.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or not below 2³², or if `word_bytes` is
    /// not a power of two.
    pub fn new(banks: usize, word_bytes: usize) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(banks <= u32::MAX as usize, "bank count must fit 32 bits");
        assert!(
            word_bytes.is_power_of_two(),
            "bank word width must be a power of two"
        );
        let split = if banks.is_power_of_two() {
            Split::Pow2 {
                shift: banks.trailing_zeros(),
            }
        } else {
            Split::Recip {
                m: u64::MAX / banks as u64 + 1,
            }
        };
        BankMap {
            banks,
            word_bytes,
            word_shift: word_bytes.trailing_zeros(),
            split,
        }
    }

    /// Number of banks.
    #[inline]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Bank word width in bytes.
    #[inline]
    pub fn word_bytes(&self) -> usize {
        self.word_bytes
    }

    /// Word index of a byte address (addresses within a word share it).
    #[inline]
    pub fn word_index(&self, addr: Addr) -> u64 {
        addr >> self.word_shift
    }

    /// Bank holding the word at `addr`.
    #[inline]
    pub fn bank_of(&self, addr: Addr) -> usize {
        let w = self.word_index(addr);
        let banks = self.banks as u64;
        (match self.split {
            Split::Pow2 { .. } => w & (banks - 1),
            Split::Recip { m } if w >> 32 == 0 => {
                ((u128::from(m.wrapping_mul(w)) * u128::from(banks)) >> 64) as u64
            }
            Split::Recip { .. } => w % banks,
        }) as usize
    }

    /// Row within the bank holding the word at `addr`.
    #[inline]
    pub fn row_of(&self, addr: Addr) -> u64 {
        let w = self.word_index(addr);
        match self.split {
            Split::Pow2 { shift } => w >> shift,
            Split::Recip { m } if w >> 32 == 0 => ((u128::from(m) * u128::from(w)) >> 64) as u64,
            Split::Recip { .. } => w / self.banks as u64,
        }
    }

    /// Returns `true` if this map needs modulo/divider hardware (bank count
    /// not a power of two).
    #[inline]
    pub fn needs_divider(&self) -> bool {
        !self.banks.is_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn primality() {
        let primes: Vec<usize> = (0..40).filter(|&n| is_prime(n)).collect();
        assert_eq!(primes, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]);
    }

    #[test]
    fn consecutive_words_hit_distinct_banks() {
        let map = BankMap::new(8, 4);
        let banks: Vec<usize> = (0..8u64).map(|w| map.bank_of(w * 4)).collect();
        assert_eq!(banks, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn bank_row_is_a_bijection_over_a_window() {
        // (bank, row) must uniquely identify every word.
        for banks in [8usize, 11, 16, 17, 31, 32] {
            let map = BankMap::new(banks, 4);
            let mut seen = HashSet::new();
            for w in 0..(banks as u64 * 50) {
                let addr = w * 4;
                assert!(
                    seen.insert((map.bank_of(addr), map.row_of(addr))),
                    "collision at word {w} with {banks} banks"
                );
            }
        }
    }

    #[test]
    fn power_of_two_stride_conflicts_on_power_of_two_banks() {
        // Stride 16 words on 16 banks: every access lands in one bank —
        // the pathology prime bank counts avoid.
        let pow2 = BankMap::new(16, 4);
        let prime = BankMap::new(17, 4);
        let pow2_banks: HashSet<usize> = (0..16u64).map(|k| pow2.bank_of(k * 16 * 4)).collect();
        let prime_banks: HashSet<usize> = (0..16u64).map(|k| prime.bank_of(k * 16 * 4)).collect();
        assert_eq!(pow2_banks.len(), 1);
        assert_eq!(prime_banks.len(), 16);
    }

    #[test]
    fn divider_need_matches_bank_count() {
        assert!(!BankMap::new(16, 4).needs_divider());
        assert!(BankMap::new(17, 4).needs_divider());
    }

    #[test]
    fn divide_free_split_matches_modulo_and_division() {
        // Word indices on both sides of 2^32 (where the reciprocal hands
        // over to `%`/`/`), at the edges of the 32-bit range and drawn
        // at random (splitmix64) below and above it.
        let mut state = 0x5eed_ba4e_u64;
        let mut draw = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut words: Vec<u64> = vec![0, 1, 2, u64::from(u32::MAX) / 3, 1 << 59];
        for k in 0..64u64 {
            words.push((1 << 32) - 1 - k);
            words.push((1 << 32) + k);
        }
        for _ in 0..256 {
            let r = draw();
            words.push(r >> 32);
            words.push(r >> 4);
        }
        for banks in 1..=64usize {
            for word_bytes in [1usize, 2, 4, 8, 16] {
                let map = BankMap::new(banks, word_bytes);
                for &w in &words {
                    // Every drawn index stays below 2^60, so even 16-B
                    // words keep the byte address in range.
                    let addr = w * word_bytes as u64 + (w % word_bytes as u64);
                    let ctx = format!("{banks} banks, {word_bytes}-B words, word {w:#x}");
                    assert_eq!(map.word_index(addr), w, "{ctx}");
                    assert_eq!(map.bank_of(addr), (w % banks as u64) as usize, "{ctx}");
                    assert_eq!(map.row_of(addr), w / banks as u64, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn sub_word_addresses_share_a_word() {
        let map = BankMap::new(8, 4);
        assert_eq!(map.word_index(0x101), map.word_index(0x103));
        assert_eq!(map.bank_of(0x101), map.bank_of(0x103));
    }
}
