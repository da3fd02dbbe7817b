//! The byte storage [`Payload`](crate::Payload) and
//! [`BitWriter`](crate::BitWriter) share.
//!
//! Almost every bit string the simulator moves is one CONGEST message —
//! a couple of dozen bits — so a string that fits [`INLINE_BYTES`] lives
//! inside the value and costs no allocation; a longer one spills to a
//! `Vec` and from then on grows exactly as a `Vec` does. The whole value is
//! 32 bytes, what a `Vec<u8>` and a length were.

/// The longest string, in bytes, held in place.
pub(crate) const INLINE_BYTES: usize = 30;

/// A bit string: exactly `ceil(bit_len / 8)` bytes, the padding bits of
/// the last one zero.
#[derive(Debug, Clone)]
pub(crate) enum Bits {
    /// `bit_len <= 8 * INLINE_BYTES`; the bytes past the string are zero.
    Inline {
        bit_len: u8,
        bytes: [u8; INLINE_BYTES],
    },
    /// `bytes` holds the string; its last `spare_bits` (0..8) bits are
    /// padding.
    Heap { spare_bits: u8, bytes: Vec<u8> },
}

impl Default for Bits {
    fn default() -> Self {
        Bits::Inline {
            bit_len: 0,
            bytes: [0; INLINE_BYTES],
        }
    }
}

impl Bits {
    /// Takes over `bytes`, of which the first `bit_len` bits count: exactly
    /// `ceil(bit_len / 8)` bytes with clean padding. A string that fits is
    /// moved in place (and the allocation released), so equal strings have
    /// equal representations unless one of them grew through a spill.
    pub(crate) fn from_vec(bytes: Vec<u8>, bit_len: usize) -> Self {
        debug_assert_eq!(bytes.len(), bit_len.div_ceil(8));
        if bytes.len() <= INLINE_BYTES {
            let mut inline = [0; INLINE_BYTES];
            inline[..bytes.len()].copy_from_slice(&bytes);
            Bits::Inline {
                bit_len: bit_len as u8,
                bytes: inline,
            }
        } else {
            Bits::Heap {
                spare_bits: (bytes.len() * 8 - bit_len) as u8,
                bytes,
            }
        }
    }

    pub(crate) fn bit_len(&self) -> usize {
        match self {
            Bits::Inline { bit_len, .. } => usize::from(*bit_len),
            Bits::Heap { spare_bits, bytes } => bytes.len() * 8 - usize::from(*spare_bits),
        }
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            Bits::Inline { bit_len, bytes } => &bytes[..usize::from(*bit_len).div_ceil(8)],
            Bits::Heap { bytes, .. } => bytes,
        }
    }

    pub(crate) fn as_bytes_mut(&mut self) -> &mut [u8] {
        match self {
            Bits::Inline { bit_len, bytes } => &mut bytes[..usize::from(*bit_len).div_ceil(8)],
            Bits::Heap { bytes, .. } => bytes,
        }
    }

    /// Appends the first `bits` bits of `source` — `ceil(bits / 8)` bytes,
    /// clean padding — to a string that ends on a byte boundary.
    pub(crate) fn push(&mut self, source: &[u8], bits: usize) {
        debug_assert!(
            self.bit_len().is_multiple_of(8),
            "push onto a byte boundary"
        );
        debug_assert_eq!(source.len(), bits.div_ceil(8));
        let spare = (source.len() * 8 - bits) as u8;
        match self {
            Bits::Inline { bit_len, bytes } => {
                let held = usize::from(*bit_len) / 8;
                let end = held + source.len();
                if end <= INLINE_BYTES {
                    bytes[held..end].copy_from_slice(source);
                    *bit_len += bits as u8;
                } else {
                    let mut spilled = Vec::with_capacity(end);
                    spilled.extend_from_slice(&bytes[..held]);
                    spilled.extend_from_slice(source);
                    *self = Bits::Heap {
                        spare_bits: spare,
                        bytes: spilled,
                    };
                }
            }
            Bits::Heap { spare_bits, bytes } => {
                bytes.extend_from_slice(source);
                *spare_bits = spare;
            }
        }
    }
}
