//! # congest-wire — bit-precise message encoding
//!
//! The CONGEST model allows each node to send **one `O(log n)`-bit message
//! per incident edge per round**. Round-complexity statements in the paper
//! (Izumi & Le Gall, PODC 2017) are therefore statements about how many
//! `O(log n)`-bit units of information have to cross each edge. To make the
//! simulator's round counts meaningful, messages are encoded into actual
//! bit strings and their length is checked against the per-round budget.
//!
//! This crate provides:
//!
//! * [`BitWriter`] / [`BitReader`] — append-only bit buffers with
//!   most-significant-bit-first packing; the writer gathers bits in a
//!   word and stores eight bytes at a time, the reader takes any run of up
//!   to 64 bits with one load from wherever it starts, and
//!   [`BitReader::skip`] / [`BitWriter::append`] seek and copy bit runs
//!   without decoding them — a run of at most 64 bits is one word read and
//!   one word written,
//! * [`Payload`] — the finished bit string; one that fits a message (30
//!   bytes) lives in the value itself, so building, cloning and dropping
//!   a message allocates nothing,
//! * the [`Wire`] trait — types that know how to encode and decode
//!   themselves and how many bits they occupy,
//! * ready-made codecs for the primitives the algorithms need: fixed-width
//!   unsigned integers, booleans, length-prefixed vertex-id lists.
//!
//! ```
//! use congest_wire::{BitReader, BitWriter};
//!
//! # fn main() -> Result<(), congest_wire::WireError> {
//! let mut w = BitWriter::new();
//! w.write_bits(5, 3); // value 5 in 3 bits
//! w.write_bits(1, 1);
//! let payload = w.finish();
//! assert_eq!(payload.bit_len(), 4);
//!
//! let mut r = BitReader::new(&payload);
//! assert_eq!(r.read_bits(3)?, 5);
//! assert_eq!(r.read_bits(1)?, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod codec;
mod error;
mod payload;
mod small;

pub use bits::{BitReader, BitWriter};
pub use codec::{bits_for_count, bits_for_value, IdCodec, Wire};
pub use error::WireError;
pub use payload::Payload;
