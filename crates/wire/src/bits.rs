//! Bit-level writer and reader.

use crate::small::Bits;
use crate::{Payload, WireError};

/// Append-only bit buffer, most-significant bit first.
///
/// Values are written with an explicit width; the writer packs them densely
/// so that the resulting [`Payload`] length is exactly the sum of the widths
/// written — this is what the simulator charges against the bandwidth
/// budget.
///
/// Bits gather in a 64-bit word and reach the buffer eight bytes at a
/// time: a write costs a shift and an OR, plus one eight-byte store each
/// time the word fills. An [`append`](BitWriter::append) of a long run
/// between byte-aligned positions is one slice copy. A string that ends
/// up no longer than a message never touches the heap (see [`Payload`]).
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    /// The whole bytes written out so far.
    flushed: Bits,
    /// The bits written since, in the low `pending` bits.
    word: u64,
    /// How many bits `word` holds: under 64 between calls.
    pending: u32,
}

/// [`BitWriter::append`] copies a byte-aligned run as a slice from this
/// many bits up; a shorter one is cheaper through the word.
const SLICE_COPY_MIN_BITS: usize = 64;

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.flushed.bit_len() + self.pending as usize
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
        let pending = self.pending as usize;
        if pending + width < 64 {
            self.word = (self.word << width) | value;
            self.pending = (pending + width) as u32;
            return;
        }
        // The word fills: its `room` free bits take the top of `value`,
        // the low `rest` bits of `value` start the next word.
        let room = 64 - pending;
        let rest = width - room;
        let full = if pending == 0 {
            value
        } else {
            (self.word << room) | (value >> rest)
        };
        self.flushed.push(&full.to_be_bytes(), 64);
        self.word = if rest == 0 {
            0
        } else {
            value & (u64::MAX >> (64 - rest))
        };
        self.pending = rest as u32;
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
    /// [`write_payload`](BitWriter::write_payload). A long run between
    /// byte boundaries moves as one slice copy.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::OutOfBits`] if fewer than `len` bits remain
    /// in `reader`; nothing is read or written in that case.
    pub fn append(&mut self, reader: &mut BitReader<'_>, len: usize) -> Result<(), WireError> {
        reader.require(len)?;
        let mut remaining = len;
        if len >= SLICE_COPY_MIN_BITS
            && self.pending.is_multiple_of(8)
            && reader.cursor.is_multiple_of(8)
        {
            self.flush_word();
            let start = reader.cursor / 8;
            let whole = len / 8;
            self.flushed
                .push(&reader.bytes[start..start + whole], whole * 8);
            reader.cursor += whole * 8;
            remaining -= whole * 8;
        }
        while remaining > 0 {
            let step = remaining.min(64);
            self.write_bits(reader.read_bits(step)?, step);
            remaining -= step;
        }
        Ok(())
    }

    /// Writes out what the word holds, left-aligned so that the padding
    /// bits of a partial last byte are zero. Only the last write may leave
    /// a partial byte behind: anywhere else the word must hold whole bytes.
    fn flush_word(&mut self) {
        let held = self.pending as usize;
        if held > 0 {
            let bytes = (self.word << (64 - held)).to_be_bytes();
            self.flushed.push(&bytes[..held.div_ceil(8)], held);
            self.word = 0;
            self.pending = 0;
        }
    }

    /// Finalizes the writer into an immutable payload.
    pub fn finish(mut self) -> Payload {
        self.flush_word();
        Payload::from_bits(self.flushed)
    }
}

/// Sequential reader over a [`Payload`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    /// The payload's bytes and length, looked up once.
    bytes: &'a [u8],
    bit_len: usize,
    cursor: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `payload`.
    pub fn new(payload: &'a Payload) -> Self {
        Self {
            bytes: payload.as_bytes(),
            bit_len: payload.bit_len(),
            cursor: 0,
        }
    }

    /// Number of bits that have not been consumed yet.
    pub fn remaining(&self) -> usize {
        self.bit_len - self.cursor
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
        if width == 0 {
            return Ok(0);
        }
        // The bits sit in at most nine bytes from the cursor's; one
        // big-endian window of sixteen holds them all, so a read is a
        // load and two shifts whatever its width and offset. Within
        // sixteen bytes of the end — all of a short message — the bytes
        // that hold the run are gathered one by one instead.
        let start = self.cursor / 8;
        let window = match self.bytes.get(start..start + 16) {
            Some(bytes) => u128::from_be_bytes(bytes.try_into().expect("sixteen bytes")),
            None => {
                let end = (self.cursor + width).div_ceil(8);
                self.bytes[start..end]
                    .iter()
                    .enumerate()
                    .fold(0, |window, (i, &byte)| {
                        window | u128::from(byte) << (120 - 8 * i)
                    })
            }
        };
        let value = (window << (self.cursor % 8)) >> (128 - width);
        self.cursor += width;
        Ok(value as u64)
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
    /// A bit string spelled out: the model the writer is held to.
    #[derive(Default)]
    struct Model(Vec<bool>);

    impl Model {
        fn write_bits(&mut self, value: u64, width: usize) {
            self.0
                .extend((0..width).rev().map(|bit| (value >> bit) & 1 == 1));
        }

        fn payload(&self) -> Payload {
            let mut bytes = vec![0u8; self.0.len().div_ceil(8)];
            for (i, _) in self.0.iter().enumerate().filter(|(_, &bit)| bit) {
                bytes[i / 8] |= 0x80 >> (i % 8);
            }
            Payload::from_parts(bytes, self.0.len())
        }
    }

    fn hash_of(p: &Payload) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        p.hash(&mut h);
        h.finish()
    }

    /// Same length, same bits, same bytes with clean padding, equal and
    /// hashing equally — however each side was built.
    fn assert_same(got: &Payload, model: &Model, what: &str) {
        let expected = model.payload();
        assert_eq!(got.bit_len(), model.0.len(), "{what}");
        assert_eq!(got.as_bytes(), expected.as_bytes(), "{what}");
        assert_eq!(got, &expected, "{what}");
        assert_eq!(hash_of(got), hash_of(&expected), "{what}");
    }

    /// A value of `width` bits with both ends set and a pattern between.
    fn pattern(width: usize, salt: u64) -> u64 {
        let raw = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt | 1) | 1 | (1 << 63);
        raw >> (64 - width)
    }

    /// The bit offsets of the bytes either side of where a string leaves
    /// the in-place buffer.
    fn offsets_around_the_spill() -> std::ops::RangeInclusive<usize> {
        let edge = crate::small::INLINE_BYTES * 8;
        edge - 24..=edge + 16
    }

    #[test]
    fn every_width_lands_on_every_offset_around_the_spill() {
        for offset in offsets_around_the_spill() {
            for width in 1..=64 {
                let (mut w, mut model) = (BitWriter::new(), Model::default());
                // Reach `offset` in uneven steps, so the word boundary
                // falls somewhere else each time.
                let mut at = 0;
                while at < offset {
                    let step = (offset - at).min(1 + (at + width) % 61);
                    w.write_bits(pattern(step, at as u64), step);
                    model.write_bits(pattern(step, at as u64), step);
                    at += step;
                }
                assert_eq!(w.bit_len(), offset);
                w.write_bits(pattern(width, 7), width);
                model.write_bits(pattern(width, 7), width);
                assert_eq!(w.bit_len(), offset + width);
                // What follows lands on clean padding.
                w.write_bits(0b101, 3);
                model.write_bits(0b101, 3);
                let what = format!("width {width} at bit {offset}");
                let p = w.finish();
                assert_same(&p, &model, &what);
                let mut r = BitReader::new(&p);
                r.skip(offset).unwrap();
                assert_eq!(r.read_bits(width).unwrap(), pattern(width, 7), "{what}");
                assert_eq!(r.read_bits(3).unwrap(), 0b101, "{what}");
            }
        }
    }

    #[test]
    fn word_reads_match_the_model_at_every_offset_and_near_the_end() {
        // 200 bits: reads from every offset, of every width that fits,
        // so the last ones end on the final bit with no bytes to spare.
        let mut model = Model::default();
        for i in 0..8 {
            model.write_bits(pattern(25, i), 25);
        }
        let p = model.payload();
        for offset in 0..p.bit_len() {
            for width in 0..=64.min(p.bit_len() - offset) {
                let mut r = BitReader::new(&p);
                r.skip(offset).unwrap();
                let expected = model.0[offset..offset + width]
                    .iter()
                    .fold(0u64, |acc, &bit| (acc << 1) | u64::from(bit));
                assert_eq!(r.read_bits(width).unwrap(), expected, "{width} at {offset}");
                assert_eq!(r.remaining(), p.bit_len() - offset - width);
            }
        }
    }

    #[test]
    fn append_crosses_the_spill_aligned_and_unaligned() {
        // A source long enough for the slice copy, read from byte-aligned
        // and unaligned positions, onto writers that are empty, aligned,
        // unaligned and already spilled.
        let mut source_model = Model::default();
        for i in 0..100 {
            source_model.write_bits(pattern(37, i), 37);
        }
        let source = source_model.payload();
        for writer_offset in [0, 8, 13, 64, 200, 236, 240, 244, 400] {
            for reader_offset in [0, 5, 8, 64, 67] {
                for len in [0, 1, 7, 8, 20, 63, 64, 65, 240, 255, 256, 257, 1000, 3001] {
                    let (mut w, mut model) = (BitWriter::new(), Model::default());
                    let mut at = 0;
                    while at < writer_offset {
                        let step = (writer_offset - at).min(29);
                        w.write_bits(pattern(step, at as u64), step);
                        model.write_bits(pattern(step, at as u64), step);
                        at += step;
                    }
                    let mut r = BitReader::new(&source);
                    r.skip(reader_offset).unwrap();
                    w.append(&mut r, len).unwrap();
                    model
                        .0
                        .extend_from_slice(&source_model.0[reader_offset..reader_offset + len]);
                    assert_eq!(r.remaining(), source.bit_len() - reader_offset - len);
                    w.write_bits(0b11, 2);
                    model.write_bits(0b11, 2);
                    let what = format!("{len} bits from {reader_offset} onto {writer_offset}");
                    assert_same(&w.finish(), &model, &what);
                }
            }
        }
    }

    #[test]
    fn in_place_and_spilled_strings_agree_with_from_parts() {
        // The same content three ways — one write a bit, one write a
        // word, `from_parts` — at every length around the spill.
        for bit_len in offsets_around_the_spill() {
            let mut model = Model::default();
            let (mut by_bit, mut by_word) = (BitWriter::new(), BitWriter::new());
            let mut at = 0;
            while at < bit_len {
                let step = (bit_len - at).min(64);
                let value = pattern(step, at as u64);
                model.write_bits(value, step);
                by_word.write_bits(value, step);
                for bit in (0..step).rev() {
                    by_bit.write_bool((value >> bit) & 1 == 1);
                }
                at += step;
            }
            let what = format!("{bit_len} bits");
            let (by_bit, by_word) = (by_bit.finish(), by_word.finish());
            assert_same(&by_bit, &model, &what);
            assert_same(&by_word, &model, &what);
            assert_eq!(by_bit, by_word, "{what}");
            // A clone of a writer in mid-word carries the word along.
            let mut first = BitWriter::new();
            first.write_bits(pattern(13, 1), 13);
            let mut second = first.clone();
            first.write_bits(1, 1);
            second.write_bits(0, 1);
            assert_ne!(first.finish(), second.finish());
        }
    }
}
