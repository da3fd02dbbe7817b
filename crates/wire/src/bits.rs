//! Bit-level writer and reader.

use crate::{Payload, WireError};

/// Append-only bit buffer, most-significant bit first.
///
/// Values are written with an explicit width; the writer packs them densely
/// so that the resulting [`Payload`] length is exactly the sum of the widths
/// written — this is what the simulator charges against the bandwidth
/// budget.
///
/// Bits move a byte at a time: a write of `width` bits costs
/// `O(width / 8 + 1)` steps, an [`append`](BitWriter::append) between
/// byte-aligned positions is one slice copy.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    /// Exactly `ceil(bit_len / 8)` bytes; the padding bits of the last
    /// one are zero, so a later write can OR into it.
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Appends the `width` low-order bits of `value`, most significant
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` does not fit in `width` bits;
    /// encoding a too-wide value is a programming error on the sender side,
    /// not a runtime condition to recover from.
    pub fn write_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "bit width {width} exceeds 64");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value} does not fit in {width} bits"
            );
        }
        // `remaining` counts the low-order bits of `value` still to go.
        let mut remaining = width;
        let used = self.bit_len % 8;
        if used != 0 && remaining > 0 {
            // Top up the partial last byte.
            let free = 8 - used;
            let take = free.min(remaining);
            remaining -= take;
            let chunk = (value >> remaining) as u8 & (0xFF >> (8 - take));
            *self.bytes.last_mut().expect("a partial byte exists") |= chunk << (free - take);
        }
        while remaining >= 8 {
            remaining -= 8;
            self.bytes.push((value >> remaining) as u8);
        }
        if remaining > 0 {
            // The tail starts a new byte, left-aligned over zero padding.
            self.bytes.push((value << (8 - remaining)) as u8);
        }
        self.bit_len += width;
    }

    /// Appends a single boolean as one bit.
    pub fn write_bool(&mut self, value: bool) {
        self.write_bits(u64::from(value), 1);
    }

    /// Appends all significant bits of another payload.
    pub fn write_payload(&mut self, payload: &Payload) {
        self.append(&mut BitReader::new(payload), payload.bit_len())
            .expect("a payload holds its own length");
    }

    /// Moves the next `len` bits of `reader` onto the end of this writer
    /// — the one bit-copy behind chunking, reassembly and
    /// [`write_payload`](BitWriter::write_payload). When both sides sit
    /// on a byte boundary the bits move as one slice copy.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::OutOfBits`] if fewer than `len` bits remain
    /// in `reader`; nothing is read or written in that case.
    pub fn append(&mut self, reader: &mut BitReader<'_>, len: usize) -> Result<(), WireError> {
        reader.require(len)?;
        if self.bit_len.is_multiple_of(8) && reader.cursor.is_multiple_of(8) {
            let start = reader.cursor / 8;
            let source = &reader.payload.as_bytes()[start..start + len.div_ceil(8)];
            self.bytes.extend_from_slice(source);
            if !len.is_multiple_of(8) {
                // The source's last byte carries bits past `len`.
                *self.bytes.last_mut().expect("len is positive") &= 0xFF << (8 - len % 8);
            }
            self.bit_len += len;
            reader.cursor += len;
            return Ok(());
        }
        let mut remaining = len;
        while remaining > 0 {
            let step = remaining.min(64);
            self.write_bits(reader.read_bits(step)?, step);
            remaining -= step;
        }
        Ok(())
    }

    /// Finalizes the writer into an immutable payload.
    pub fn finish(self) -> Payload {
        Payload::from_parts(self.bytes, self.bit_len)
    }
}

/// Sequential reader over a [`Payload`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    payload: &'a Payload,
    cursor: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `payload`.
    pub fn new(payload: &'a Payload) -> Self {
        Self { payload, cursor: 0 }
    }

    /// Number of bits that have not been consumed yet.
    pub fn remaining(&self) -> usize {
        self.payload.bit_len() - self.cursor
    }

    /// Whether every bit of the payload has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails, consuming nothing, unless `bits` more bits can be read.
    fn require(&self, bits: usize) -> Result<(), WireError> {
        if self.remaining() < bits {
            return Err(WireError::OutOfBits {
                requested: bits,
                available: self.remaining(),
            });
        }
        Ok(())
    }

    /// Reads `width` bits as an unsigned integer (most significant first).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::OutOfBits`] if fewer than `width` bits remain.
    pub fn read_bits(&mut self, width: usize) -> Result<u64, WireError> {
        assert!(width <= 64, "bit width {width} exceeds 64");
        self.require(width)?;
        let bytes = self.payload.as_bytes();
        let mut value = 0u64;
        let mut remaining = width;
        while remaining > 0 {
            // Take what is left of the current byte, or less.
            let available = 8 - self.cursor % 8;
            let take = available.min(remaining);
            let chunk = (bytes[self.cursor / 8] >> (available - take)) & (0xFF >> (8 - take));
            value = (value << take) | u64::from(chunk);
            self.cursor += take;
            remaining -= take;
        }
        Ok(value)
    }

    /// Reads a single bit as a boolean.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::OutOfBits`] if the payload is exhausted.
    pub fn read_bool(&mut self) -> Result<bool, WireError> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Moves past the next `bits` bits without decoding them, in `O(1)`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::OutOfBits`] if fewer than `bits` bits remain;
    /// the reader stays where it was.
    pub fn skip(&mut self, bits: usize) -> Result<(), WireError> {
        self.require(bits)?;
        self.cursor += bits;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bool(true);
        w.write_bits(1023, 10);
        w.write_bits(0, 5);
        w.write_bits(u64::MAX, 64);
        let p = w.finish();
        assert_eq!(p.bit_len(), 3 + 1 + 10 + 5 + 64);

        let mut r = BitReader::new(&p);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_bits(10).unwrap(), 1023);
        assert_eq!(r.read_bits(5).unwrap(), 0);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert!(r.is_exhausted());
    }

    #[test]
    fn zero_width_write_and_read() {
        let mut w = BitWriter::new();
        w.write_bits(0, 0);
        let p = w.finish();
        assert_eq!(p.bit_len(), 0);
        let mut r = BitReader::new(&p);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn out_of_bits_is_reported() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let p = w.finish();
        let mut r = BitReader::new(&p);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        let err = r.read_bits(4).unwrap_err();
        assert_eq!(
            err,
            WireError::OutOfBits {
                requested: 4,
                available: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn writing_too_wide_value_panics() {
        let mut w = BitWriter::new();
        w.write_bits(8, 3);
    }

    #[test]
    fn write_payload_concatenates() {
        let mut inner = BitWriter::new();
        inner.write_bits(0b1011, 4);
        let inner = inner.finish();

        let mut outer = BitWriter::new();
        outer.write_bits(0b0, 1);
        outer.write_payload(&inner);
        let p = outer.finish();
        assert_eq!(p.bit_len(), 5);
        let mut r = BitReader::new(&p);
        assert_eq!(r.read_bits(5).unwrap(), 0b01011);
    }

    #[test]
    fn append_after_skip_extracts_exact_ranges() {
        let mut w = BitWriter::new();
        w.write_bits(0b1_0110_1101, 9);
        let p = w.finish();
        // Each slice is followed by eight zero bits, which must land on
        // clean padding whichever path copied the slice.
        let slice = |start: usize, len: usize| {
            let mut r = BitReader::new(&p);
            r.skip(start).unwrap();
            let mut w = BitWriter::new();
            w.append(&mut r, len).unwrap();
            w.write_bits(0, 8);
            w.finish()
        };
        let s = slice(0, 4);
        assert_eq!(s.bit_len(), 12);
        assert_eq!(
            s.as_bytes(),
            &[0b1011_0000, 0],
            "aligned copy masks its tail"
        );
        let s = slice(4, 5);
        assert_eq!(BitReader::new(&s).read_bits(13).unwrap(), 0b01101 << 8);
        assert_eq!(slice(9, 0).bit_len(), 8);
    }

    #[test]
    fn skip_and_append_past_the_end_consume_nothing() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let p = w.finish();
        let mut r = BitReader::new(&p);
        let short = WireError::OutOfBits {
            requested: 4,
            available: 3,
        };
        assert_eq!(r.skip(4).unwrap_err(), short);
        let mut out = BitWriter::new();
        assert_eq!(out.append(&mut r, 4).unwrap_err(), short);
        assert_eq!((r.remaining(), out.bit_len()), (3, 0));
        r.skip(3).unwrap();
        assert!(r.is_exhausted());
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(3, 2);
        assert_eq!(w.bit_len(), 2);
        w.write_bool(false);
        assert_eq!(w.bit_len(), 3);
    }
}
