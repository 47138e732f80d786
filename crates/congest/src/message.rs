//! Message payloads with exact bit accounting.
//!
//! The CONGEST model charges `B` bits per edge per round. Instead of
//! serializing every message, algorithms declare the exact number of bits a
//! message would occupy on the wire via [`BitSize`]; the engine enforces the
//! bandwidth bound and accumulates traffic statistics from these declared
//! sizes. Declared sizes must be faithful — the unit tests of each algorithm
//! check them against the information actually carried.
//!
//! A message moves by value from its sender's outbox into the engine's
//! staging arenas and reaches every receiver by reference (see
//! [`Inbox`](crate::Inbox)): a broadcast is stored once however many
//! neighbors hear it, and nothing is copied or reference-counted per
//! delivery. The one copy the engine makes is the one a fault damages
//! ([`BitSize::corrupt_bit`]), which goes to that receiver alone.

/// Number of bits a value occupies on the wire.
pub trait BitSize {
    /// Exact size of this message in bits.
    fn bit_size(&self) -> usize;

    /// Flips one on-the-wire bit in place (fault injection), returning
    /// whether the payload actually changed. The default is a no-op
    /// returning `false`: most message types are structured Rust values
    /// whose wire encoding is only declared, not materialized, so the
    /// engine delivers them intact (and counts no corruption). Types that
    /// carry literal bits (e.g. [`BitString`]) override this.
    fn corrupt_bit(&mut self, bit_index: usize) -> bool {
        let _ = bit_index;
        false
    }
}

/// Bits needed to address a value in a domain of the given size
/// (`ceil(log2(domain))`, and at least 1).
pub fn bits_for_domain(domain: usize) -> usize {
    if domain <= 2 {
        1
    } else {
        (usize::BITS - (domain - 1).leading_zeros()) as usize
    }
}

impl BitSize for () {
    fn bit_size(&self) -> usize {
        0
    }
}

impl BitSize for bool {
    fn bit_size(&self) -> usize {
        1
    }
}

impl BitSize for u8 {
    fn bit_size(&self) -> usize {
        8
    }
}

impl BitSize for u32 {
    fn bit_size(&self) -> usize {
        32
    }
}

impl BitSize for u64 {
    fn bit_size(&self) -> usize {
        64
    }
}

impl<T: BitSize> BitSize for Vec<T> {
    fn bit_size(&self) -> usize {
        self.iter().map(BitSize::bit_size).sum()
    }
}

impl<T: BitSize, U: BitSize> BitSize for (T, U) {
    fn bit_size(&self) -> usize {
        self.0.bit_size() + self.1.bit_size()
    }
}

impl<T: BitSize> BitSize for Option<T> {
    fn bit_size(&self) -> usize {
        1 + self.as_ref().map_or(0, BitSize::bit_size)
    }
}

/// A raw bit-string message: the payload used by the §4 fooling experiments,
/// where the *exact* bit count (not a word count) matters.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    bits: Vec<bool>,
}

impl BitString {
    /// The empty bit string.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from a slice of bits.
    pub fn from_bits(bits: &[bool]) -> Self {
        BitString {
            bits: bits.to_vec(),
        }
    }

    /// The low `width` bits of `value`, most significant first.
    pub fn from_uint(value: u64, width: usize) -> Self {
        assert!(width <= 64);
        let bits = (0..width).rev().map(|i| (value >> i) & 1 == 1).collect();
        BitString { bits }
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends another bit string.
    pub fn extend(&mut self, other: &BitString) {
        self.bits.extend_from_slice(&other.bits);
    }

    /// The bits, most significant first for uint-derived strings.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the string is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &BitString) -> bool {
        self.len() <= other.len() && self.bits == other.bits[..self.len()]
    }

    /// Interprets the bits as an unsigned integer (most significant first).
    pub fn to_uint(&self) -> u64 {
        assert!(self.len() <= 64);
        self.bits
            .iter()
            .fold(0u64, |acc, &b| (acc << 1) | (b as u64))
    }
}

impl BitSize for BitString {
    fn bit_size(&self) -> usize {
        self.len()
    }

    fn corrupt_bit(&mut self, bit_index: usize) -> bool {
        if self.bits.is_empty() {
            return false;
        }
        let i = bit_index % self.bits.len();
        self.bits[i] = !self.bits[i];
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_bits() {
        assert_eq!(bits_for_domain(2), 1);
        assert_eq!(bits_for_domain(3), 2);
        assert_eq!(bits_for_domain(4), 2);
        assert_eq!(bits_for_domain(5), 3);
        assert_eq!(bits_for_domain(1024), 10);
        assert_eq!(bits_for_domain(1025), 11);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((7u32, true).bit_size(), 33);
        assert_eq!(vec![1u8, 2, 3].bit_size(), 24);
        assert_eq!(Some(5u32).bit_size(), 33);
        assert_eq!(Option::<u32>::None.bit_size(), 1);
    }

    #[test]
    fn bitstring_roundtrip() {
        let b = BitString::from_uint(0b1011, 4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.to_uint(), 0b1011);
        assert_eq!(b.bits(), &[true, false, true, true]);
    }

    #[test]
    fn bitstring_width_pads() {
        let b = BitString::from_uint(1, 8);
        assert_eq!(b.len(), 8);
        assert_eq!(b.to_uint(), 1);
    }

    #[test]
    fn prefix_relation() {
        let a = BitString::from_bits(&[true, false]);
        let b = BitString::from_bits(&[true, false, true]);
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert!(BitString::new().is_prefix_of(&a));
    }

    #[test]
    fn extend_concatenates() {
        let mut a = BitString::from_uint(0b10, 2);
        a.extend(&BitString::from_uint(0b11, 2));
        assert_eq!(a.to_uint(), 0b1011);
    }

    #[test]
    fn corrupt_bit_flips_exactly_one_bit() {
        let orig = BitString::from_uint(0b1010, 4);
        let mut c = orig.clone();
        assert!(c.corrupt_bit(1));
        assert_ne!(c, orig);
        let differing = orig
            .bits()
            .iter()
            .zip(c.bits())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(differing, 1);
        // Flipping the same bit again restores the original.
        assert!(c.corrupt_bit(1));
        assert_eq!(c, orig);
    }

    #[test]
    fn corrupt_bit_wraps_index_and_handles_empty() {
        let mut b = BitString::from_uint(0b1, 1);
        assert!(b.corrupt_bit(7)); // 7 % 1 == 0
        assert_eq!(b.to_uint(), 0);
        let mut empty = BitString::new();
        assert!(!empty.corrupt_bit(3));

        // Structured payloads use the no-op default.
        let mut x = 5u32;
        assert!(!x.corrupt_bit(0));
        assert_eq!(x, 5);
    }
}
