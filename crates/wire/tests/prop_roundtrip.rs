//! Property-based tests: every value written through the codec layer is
//! recovered exactly, and the declared bit lengths are exact.
//!
//! The second half is differential: [`RefWriter`] / [`ref_read`] are the
//! codec as it was when every bit moved on its own, kept here as the
//! reference the byte-at-a-time [`BitWriter`] / [`BitReader`] must match
//! byte for byte and value for value.

use congest_wire::{bits_for_count, BitReader, BitWriter, IdCodec, Payload, WireError};
use proptest::prelude::*;

/// Reference writer: one `push_bit` per bit.
#[derive(Default)]
struct RefWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl RefWriter {
    fn push_bit(&mut self, bit: bool) {
        if self.bit_len / 8 == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[self.bit_len / 8] |= 0x80 >> (self.bit_len % 8);
        }
        self.bit_len += 1;
    }

    fn write_bits(&mut self, value: u64, width: usize) {
        for i in (0..width).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    /// Copies `payload[start..start + len]`, one [`Payload::bit`] at a time.
    fn copy(&mut self, payload: &Payload, start: usize, len: usize) {
        for i in start..start + len {
            self.push_bit(payload.bit(i));
        }
    }
}

/// Reference reader: `width` single-bit reads starting at `cursor`.
fn ref_read(payload: &Payload, cursor: usize, width: usize) -> u64 {
    (cursor..cursor + width).fold(0, |value, i| (value << 1) | u64::from(payload.bit(i)))
}

fn mask(value: u64, width: usize) -> u64 {
    if width == 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Writes `fields` through both writers and checks they agree so far.
fn write_both(w: &mut BitWriter, reference: &mut RefWriter, fields: &[(u64, usize)]) {
    for &(value, width) in fields {
        w.write_bits(mask(value, width), width);
        reference.write_bits(mask(value, width), width);
    }
    assert_eq!(w.bit_len(), reference.bit_len);
}

fn assert_same(w: BitWriter, reference: RefWriter) -> Payload {
    let p = w.finish();
    assert_eq!(p.bit_len(), reference.bit_len);
    assert_eq!(p.as_bytes(), &reference.bytes[..]);
    p
}

/// A payload over `bytes` with `spare` bits of the last byte (and
/// whatever they hold) outside its length.
fn dirty_payload(bytes: Vec<u8>, spare: usize) -> Payload {
    let bit_len = (bytes.len() * 8).saturating_sub(spare);
    Payload::from_parts(bytes, bit_len)
}

proptest! {
    /// Writing an arbitrary sequence of (value, width) pairs — widths 0
    /// and 64 included — and reading it back yields the original values,
    /// the payload length is the sum of the widths, and bytes and values
    /// match the bit-at-a-time reference.
    #[test]
    fn bit_writer_reader_round_trip(
        fields in prop::collection::vec((any::<u64>(), 0usize..=64), 0..64),
    ) {
        let mut w = BitWriter::new();
        let mut reference = RefWriter::default();
        write_both(&mut w, &mut reference, &fields);
        let p = assert_same(w, reference);
        prop_assert_eq!(p.bit_len(), fields.iter().map(|f| f.1).sum::<usize>());
        let mut r = BitReader::new(&p);
        let mut cursor = 0;
        for &(value, width) in &fields {
            prop_assert_eq!(ref_read(&p, cursor, width), mask(value, width));
            prop_assert_eq!(r.read_bits(width).unwrap(), mask(value, width));
            cursor += width;
        }
        prop_assert!(r.is_exhausted());
    }

    /// Identifier lists survive a round trip for any domain and any subset.
    #[test]
    fn id_list_round_trip(domain in 1u64..5_000, raw in prop::collection::vec(any::<u64>(), 0..200)) {
        let codec = IdCodec::new(domain);
        let ids: Vec<u64> = raw.into_iter().map(|v| v % domain).collect();
        // encode_list requires |ids| <= domain, truncate accordingly.
        let ids: Vec<u64> = ids.into_iter().take(domain as usize).collect();
        let mut w = BitWriter::new();
        codec.encode_list(&mut w, &ids);
        let p = w.finish();
        prop_assert_eq!(p.bit_len(), codec.list_bit_len(ids.len()));
        let mut r = BitReader::new(&p);
        prop_assert_eq!(codec.decode_list(&mut r).unwrap(), ids);
    }

    /// The id width is exactly ceil(log2 domain) and is monotone in the
    /// domain size.
    #[test]
    fn id_width_is_ceil_log2(domain in 2u64..1_000_000) {
        let width = bits_for_count(domain);
        prop_assert!(1u64 << width >= domain);
        prop_assert!((1u64 << (width - 1)) < domain || width == 1);
    }

    /// Random payload bytes never cause a panic when decoded as an id list;
    /// decoding either succeeds with in-domain ids or reports a clean error.
    #[test]
    fn decoding_garbage_never_panics(domain in 1u64..500, bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let bit_len = bytes.len() * 8;
        let payload = Payload::from_parts(bytes, bit_len);
        let codec = IdCodec::new(domain);
        let mut r = BitReader::new(&payload);
        if let Ok(ids) = codec.decode_list(&mut r) {
            prop_assert!(ids.iter().all(|&id| id < domain));
        }
    }

    /// `append` of any bit range onto any writer alignment — and
    /// `write_payload`, its whole-payload form — matches a bit-by-bit
    /// copy, and later writes land on clean padding. The source is built
    /// by `from_parts` over dirty padding, which must never leak. Half
    /// the cases put both sides on a byte boundary (the slice-copy path).
    #[test]
    fn append_and_write_payload_match_the_reference_at_every_alignment(
        prefix in prop::collection::vec((any::<u64>(), 0usize..=17), 0..3),
        bytes in prop::collection::vec(any::<u8>(), 0..40),
        spare in 0usize..8,
        cut in (any::<u64>(), any::<u64>()),
        suffix in (any::<u64>(), 0usize..=64),
        aligned in any::<bool>(),
    ) {
        let source = dirty_payload(bytes, spare);
        let mut start = (cut.0 % (source.bit_len() as u64 + 1)) as usize;
        let mut prefix = prefix;
        if aligned {
            start -= start % 8;
            prefix = vec![(0xA5, 8); prefix.len()];
        }
        let len = (cut.1 % ((source.bit_len() - start) as u64 + 1)) as usize;

        let mut w = BitWriter::new();
        let mut reference = RefWriter::default();
        write_both(&mut w, &mut reference, &prefix);
        let mut r = BitReader::new(&source);
        r.skip(start).unwrap();
        w.append(&mut r, len).unwrap();
        reference.copy(&source, start, len);
        prop_assert_eq!(r.remaining(), source.bit_len() - start - len);
        w.write_payload(&source);
        reference.copy(&source, 0, source.bit_len());
        write_both(&mut w, &mut reference, &[suffix]);
        assert_same(w, reference);
    }

    /// `skip` to every offset leaves the reader exactly where discarding
    /// reads would; one bit too far fails and moves nothing.
    #[test]
    fn skip_to_every_offset_matches_discarding_reads(
        bytes in prop::collection::vec(any::<u8>(), 0..24),
        spare in 0usize..8,
    ) {
        let p = dirty_payload(bytes, spare);
        for offset in 0..=p.bit_len() {
            let mut r = BitReader::new(&p);
            r.skip(offset).unwrap();
            prop_assert_eq!(r.remaining(), p.bit_len() - offset);
            let width = r.remaining().min(64);
            prop_assert_eq!(r.read_bits(width).unwrap(), ref_read(&p, offset, width));
            let left = r.remaining();
            prop_assert_eq!(
                r.skip(left + 1).unwrap_err(),
                WireError::OutOfBits { requested: left + 1, available: left }
            );
            prop_assert_eq!(r.remaining(), left);
        }
    }

    /// Whatever sits in the padding bits and surplus bytes handed to
    /// `from_parts`, the payload equals the clean one bit for bit.
    #[test]
    fn from_parts_discards_dirty_padding(
        bytes in prop::collection::vec(any::<u8>(), 1..24),
        spare in 0usize..8,
        surplus in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let bit_len = bytes.len() * 8 - spare;
        let mut reference = RefWriter::default();
        let source = Payload::from_parts(bytes.clone(), bytes.len() * 8);
        reference.copy(&source, 0, bit_len);
        let mut padded = bytes;
        padded.extend(surplus);
        let p = Payload::from_parts(padded, bit_len);
        prop_assert_eq!(p.as_bytes(), &reference.bytes[..]);
        prop_assert_eq!(p, Payload::from_parts(reference.bytes, bit_len));
    }
}
