//! Decode-robustness property tests: truncated and bit-flipped
//! encodings of every payload kind the crate defines — single ids,
//! length-prefixed id lists, and the `Wire` primitives — must surface as
//! *typed* [`WireError`]s or as values still inside their declared
//! domain. Never a panic, never a wraparound accept. This is the
//! transport-level complement of the stream layer's checksum trailers:
//! a checksum catches a damaged stream wholesale, these tests pin down
//! that a damaged *message* cannot smuggle an out-of-domain value past
//! the codec even before any checksum runs.

use congest_wire::{BitReader, BitWriter, IdCodec, Payload, Wire, WireError};
use proptest::prelude::*;

/// Keeps only the first `bits` bits of a payload.
fn truncate(payload: &Payload, bits: usize) -> Payload {
    let bytes = payload.as_bytes()[..bits.div_ceil(8)].to_vec();
    Payload::from_parts(bytes, bits)
}

proptest! {
    /// Any strict truncation of an encoded id list fails with a typed
    /// error — the cut always lands inside the length prefix or inside
    /// an element, so nothing shorter than the full encoding decodes.
    #[test]
    fn truncated_id_list_is_a_typed_error(
        domain in 2u64..300,
        raw in prop::collection::vec(any::<u64>(), 1..40),
        cut in any::<u64>(),
    ) {
        let codec = IdCodec::new(domain);
        let ids: Vec<u64> = raw.iter().map(|v| v % domain).take(domain as usize).collect();
        let mut w = BitWriter::new();
        codec.encode_list(&mut w, &ids);
        let p = w.finish();
        let keep = (cut % p.bit_len() as u64) as usize; // 0..bit_len, strictly short
        let short = truncate(&p, keep);
        let mut r = BitReader::new(&short);
        let err = codec.decode_list(&mut r).unwrap_err();
        prop_assert!(matches!(
            err,
            WireError::OutOfBits { .. }
                | WireError::OutOfDomain { .. }
                | WireError::LengthOverflow { .. }
        ));
    }

    /// A single flipped bit in an encoded id list either fails typed or
    /// still decodes to a plausible list: every id in domain, length
    /// within the domain size. A flip may lawfully turn one valid id
    /// into another — what it can never do is smuggle an out-of-domain
    /// value or an implausible length through the codec.
    #[test]
    fn bit_flipped_id_list_never_escapes_the_domain(
        domain in 2u64..300,
        raw in prop::collection::vec(any::<u64>(), 1..40),
        flip in any::<u64>(),
    ) {
        let codec = IdCodec::new(domain);
        let ids: Vec<u64> = raw.iter().map(|v| v % domain).take(domain as usize).collect();
        let mut w = BitWriter::new();
        codec.encode_list(&mut w, &ids);
        let p = w.finish();
        let damaged = p.with_flipped_bit((flip % p.bit_len() as u64) as usize);
        let mut r = BitReader::new(&damaged);
        match codec.decode_list(&mut r) {
            Ok(decoded) => {
                prop_assert!(decoded.len() as u64 <= domain);
                prop_assert!(decoded.iter().all(|&id| id < domain));
            }
            Err(e) => prop_assert!(matches!(
                e,
                WireError::OutOfBits { .. }
                    | WireError::OutOfDomain { .. }
                    | WireError::LengthOverflow { .. }
            )),
        }
    }

    /// A flipped bit in a *single* encoded id decodes to an in-domain id
    /// or fails with `OutOfDomain` — fixed-width fields cannot shift the
    /// frame, so `OutOfBits` is impossible here.
    #[test]
    fn bit_flipped_single_id_stays_in_domain_or_fails_typed(
        domain in 2u64..100_000,
        seed in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let codec = IdCodec::new(domain);
        let id = seed % domain;
        let mut w = BitWriter::new();
        codec.encode(&mut w, id);
        let p = w.finish();
        let damaged = p.with_flipped_bit((flip % p.bit_len() as u64) as usize);
        let mut r = BitReader::new(&damaged);
        match codec.decode(&mut r) {
            Ok(v) => prop_assert!(v < domain),
            Err(e) => prop_assert!(matches!(e, WireError::OutOfDomain { .. })),
        }
    }

    /// The `Wire` primitives report exact truncation arithmetic: a `u64`
    /// cut to `k < 64` bits fails asking for 64 with `k` available, and
    /// a truncated-to-nothing `bool` fails asking for 1 with 0.
    #[test]
    fn truncated_primitives_report_exact_bit_counts(
        value in any::<u64>(),
        keep in 0usize..64,
    ) {
        let p = truncate(&value.to_payload(), keep);
        prop_assert_eq!(
            u64::from_payload(&p).unwrap_err(),
            WireError::OutOfBits { requested: 64, available: keep }
        );
        let empty = Payload::new();
        prop_assert_eq!(
            bool::from_payload(&empty).unwrap_err(),
            WireError::OutOfBits { requested: 1, available: 0 }
        );
    }

    /// A failed read consumes nothing: the reader's cursor is exactly
    /// where it was, so stream-layer callers can fall back to buffering
    /// the raw bits (the trailer path) after a typed decode failure.
    #[test]
    fn failed_reads_do_not_consume_bits(
        bits in 1usize..64,
        value in any::<u64>(),
    ) {
        let mut w = BitWriter::new();
        w.write_bits(value & ((1u64 << bits) - 1), bits);
        let p = w.finish();
        let mut r = BitReader::new(&p);
        prop_assert!(r.read_bits(bits + 1).is_err());
        prop_assert_eq!(r.remaining(), bits);
        // The payload is still fully readable after the failure.
        prop_assert_eq!(r.read_bits(bits).unwrap(), value & ((1u64 << bits) - 1));
        prop_assert!(r.is_exhausted());
    }

    /// Arbitrary garbage bytes interpreted as any payload kind never
    /// panic: every outcome is `Ok` within the declared domain or a
    /// typed error. (The id-list case extends the existing garbage test
    /// with the length-plausibility assertion.)
    #[test]
    fn garbage_never_panics_for_any_kind(
        domain in 1u64..500,
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        spare in 0usize..8,
    ) {
        let bit_len = (bytes.len() * 8).saturating_sub(spare);
        let payload = Payload::from_parts(bytes, bit_len);
        let codec = IdCodec::new(domain);
        if let Ok(ids) = codec.decode_list(&mut BitReader::new(&payload)) {
            prop_assert!(ids.len() as u64 <= domain);
            prop_assert!(ids.iter().all(|&id| id < domain));
        }
        if let Ok(id) = codec.decode(&mut BitReader::new(&payload)) {
            prop_assert!(id < domain);
        }
        let _ = u64::from_payload(&payload);
        let _ = bool::from_payload(&payload);
    }
}
