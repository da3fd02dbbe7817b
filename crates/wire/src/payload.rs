//! Owned bit strings exchanged between nodes.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::small::Bits;

/// An immutable bit string, the unit of data carried by a single CONGEST
/// message (or by one fragment of a chunked transfer).
///
/// The payload knows its exact length in bits so that the simulator can
/// enforce the per-round bandwidth budget precisely; the backing storage is
/// byte-aligned for convenience but trailing padding bits are not counted.
/// A payload of up to 30 bytes — any single message — is stored in place
/// and costs no allocation to build, clone or drop.
#[derive(Clone, Default)]
pub struct Payload {
    bits: Bits,
}

impl Payload {
    /// Creates an empty payload (zero bits).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a payload from raw parts.
    ///
    /// Only the first `bit_len` bits of `bytes` are significant: surplus
    /// bytes are dropped and the padding bits of the last byte are
    /// zeroed, so two payloads with the same significant bits are equal
    /// (and hash equally) whatever the caller left behind them.
    ///
    /// # Panics
    ///
    /// Panics if `bit_len` exceeds the capacity of `bytes`.
    pub fn from_parts(mut bytes: Vec<u8>, bit_len: usize) -> Self {
        assert!(
            bit_len <= bytes.len() * 8,
            "bit length {} exceeds byte capacity {}",
            bit_len,
            bytes.len() * 8
        );
        bytes.truncate(bit_len.div_ceil(8));
        if !bit_len.is_multiple_of(8) {
            let last = bytes.last_mut().expect("a partial byte exists");
            *last &= 0xFF << (8 - bit_len % 8);
        }
        Payload {
            bits: Bits::from_vec(bytes, bit_len),
        }
    }

    /// Wraps a finished bit string.
    pub(crate) fn from_bits(bits: Bits) -> Self {
        Payload { bits }
    }

    /// Number of significant bits in the payload.
    pub fn bit_len(&self) -> usize {
        self.bits.bit_len()
    }

    /// Whether the payload carries no bits at all.
    pub fn is_empty(&self) -> bool {
        self.bit_len() == 0
    }

    /// Backing bytes: exactly `ceil(bit_len / 8)` of them, the padding
    /// bits of the last one zero.
    pub fn as_bytes(&self) -> &[u8] {
        self.bits.as_bytes()
    }

    /// Reads the bit at `index` (0 = first written bit).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.bit_len()`.
    pub fn bit(&self, index: usize) -> bool {
        assert!(index < self.bit_len(), "bit index {index} out of range");
        let byte = self.as_bytes()[index / 8];
        let shift = 7 - (index % 8);
        (byte >> shift) & 1 == 1
    }

    /// A copy of this payload with the bit at `index` inverted (what a
    /// noisy link does to a message in transit).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.bit_len()`.
    pub fn with_flipped_bit(&self, index: usize) -> Payload {
        assert!(index < self.bit_len(), "bit index {index} out of range");
        let mut flipped = self.clone();
        flipped.bits.as_bytes_mut()[index / 8] ^= 0x80 >> (index % 8);
        flipped
    }
}

/// Equality is by content — the length and the significant bits — whether
/// a string sits in place or, having grown through a writer, on the heap.
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.bit_len() == other.bit_len() && self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Payload {}

impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
        self.bit_len().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bits:", self.bit_len())?;
        let shown = self.bit_len().min(64);
        write!(f, " ")?;
        for i in 0..shown {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        if shown < self.bit_len() {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_payload() {
        let p = Payload::new();
        assert_eq!(p.bit_len(), 0);
        assert!(p.is_empty());
        assert!(p.as_bytes().is_empty());
    }

    #[test]
    fn from_parts_and_bit_access() {
        // 0b1010_0000 -> bits 1,0,1,0
        let p = Payload::from_parts(vec![0b1010_0000], 4);
        assert_eq!(p.bit_len(), 4);
        assert!(p.bit(0));
        assert!(!p.bit(1));
        assert!(p.bit(2));
        assert!(!p.bit(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let p = Payload::from_parts(vec![0xFF], 4);
        let _ = p.bit(4);
    }

    #[test]
    #[should_panic(expected = "exceeds byte capacity")]
    fn from_parts_validates_capacity() {
        let _ = Payload::from_parts(vec![0xFF], 9);
    }

    #[test]
    fn from_parts_ignores_dirty_padding_and_surplus_bytes() {
        let clean = Payload::from_parts(vec![0xF0], 4);
        assert_eq!(Payload::from_parts(vec![0xFF], 4), clean);
        assert_eq!(Payload::from_parts(vec![0xF3, 0xAA, 0x55], 4), clean);
        assert_eq!(clean.as_bytes(), &[0xF0]);
    }

    #[test]
    fn with_flipped_bit_inverts_exactly_one_bit() {
        let p = Payload::from_parts(vec![0b1010_1010, 0b1100_0000], 10);
        for index in 0..10 {
            let q = p.with_flipped_bit(index);
            assert_eq!(q.bit_len(), 10);
            for i in 0..10 {
                assert_eq!(q.bit(i) != p.bit(i), i == index);
            }
            assert_eq!(q.with_flipped_bit(index), p);
        }
    }

    #[test]
    fn debug_shows_bits() {
        let p = Payload::from_parts(vec![0b1100_0000], 2);
        let s = format!("{p:?}");
        assert!(s.contains("2 bits"));
        assert!(s.contains("11"));
    }
    #[test]
    fn a_payload_is_no_bigger_than_a_vec_and_a_length() {
        assert!(std::mem::size_of::<Payload>() <= 32);
    }

    #[test]
    fn from_parts_and_flips_work_in_place_and_on_the_heap() {
        // 30 bytes stay in the value, 31 do not; nothing observable
        // tells the two apart.
        for bytes in [1usize, 29, 30, 31, 32, 100] {
            for spare in [0, 3, 7] {
                let bit_len = bytes * 8 - spare;
                let raw: Vec<u8> = (0..bytes).map(|i| (i as u8).wrapping_mul(37) | 1).collect();
                let p = Payload::from_parts(raw.clone(), bit_len);
                assert_eq!(p.bit_len(), bit_len);
                assert_eq!(p.as_bytes().len(), bytes);
                assert_eq!(p.as_bytes()[..bytes - 1], raw[..bytes - 1]);
                assert_eq!(p.as_bytes()[bytes - 1], raw[bytes - 1] & (0xFF << spare));
                // Dirty padding and surplus bytes change nothing.
                let mut dirty = raw.clone();
                dirty[bytes - 1] |= !(0xFFu8 << spare);
                dirty.extend([0xAA; 40]);
                assert_eq!(Payload::from_parts(dirty, bit_len), p);
                for index in [0, bit_len / 2, bit_len - 1] {
                    let q = p.with_flipped_bit(index);
                    assert_ne!(q, p);
                    assert_eq!(q.bit(index), !p.bit(index));
                    assert_eq!(q.bit_len(), bit_len);
                    assert_eq!(q.with_flipped_bit(index), p);
                }
                assert_eq!(p.clone(), p);
            }
        }
    }
}
