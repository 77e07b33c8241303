//! The compact binary wire codec every frame on the simulated network uses.
//!
//! One layout for everything: fixed-width little-endian integers, byte
//! strings as `len u32 | bytes`, sequences as `count u32 | item*`, options
//! and enum variants as one leading byte. Top-level frames start with a
//! [`FrameTag`] byte, so a receiver picks its decoder from the first byte
//! instead of trial-parsing.
//!
//! Decoding is total: [`Wire::decode`] returns `None` on truncation, on a
//! length or count larger than the remaining input (checked before anything
//! is allocated), on a non-canonical tag or flag byte, and on trailing bytes.

use recipe_crypto::{Ciphertext, MacTag, Nonce, Signature};
use recipe_kv::Timestamp;
use recipe_net::{ChannelId, NodeId};

/// A value with one canonical binary encoding.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out` (callers reuse one buffer).
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value from the front of `r`; `None` on malformed input.
    fn read(r: &mut Reader<'_>) -> Option<Self>;

    /// Decodes exactly one value from `bytes`: `None` on malformed input or
    /// trailing bytes.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        let value = Self::read(&mut r)?;
        r.is_empty().then_some(value)
    }

    /// The encoding in a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// The leading byte of every top-level frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameTag {
    /// A [`crate::ShieldedMessage`].
    Shielded = 1,
    /// A [`crate::BatchFrame`].
    Batch = 2,
    /// A [`crate::TxnFrame`].
    Txn = 3,
    /// A native (unshielded) single message.
    NativeSingle = 4,
    /// A native (unshielded) batch of messages.
    NativeBatch = 5,
}

impl FrameTag {
    /// The tag a frame starts with, if it names a known frame type.
    pub fn of(bytes: &[u8]) -> Option<FrameTag> {
        Some(match *bytes.first()? {
            1 => FrameTag::Shielded,
            2 => FrameTag::Batch,
            3 => FrameTag::Txn,
            4 => FrameTag::NativeSingle,
            5 => FrameTag::NativeBatch,
            _ => return None,
        })
    }
}

/// A cursor over wire bytes. Every read checks the remaining length first.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Consumes the next `n` bytes; `None` if fewer remain.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.bytes.len() {
            return None;
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Some(head)
    }

    /// Consumes a fixed-size array.
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// Consumes one byte.
    pub fn byte(&mut self) -> Option<u8> {
        Some(self.array::<1>()?[0])
    }

    /// Reads one value of type `T`.
    pub fn read<T: Wire>(&mut self) -> Option<T> {
        T::read(self)
    }

    /// Consumes the frame tag, which must be `tag`.
    pub fn expect_tag(&mut self, tag: FrameTag) -> Option<()> {
        (self.byte()? == tag as u8).then_some(())
    }

    /// Consumes a length prefix and returns the byte string it announces.
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.read::<u32>()? as usize;
        self.take(len)
    }

    /// Consumes `count u32 | item*`. A count larger than the remaining
    /// input is rejected before anything is allocated (every item encodes
    /// to at least one byte).
    fn seq<T: Wire>(&mut self) -> Option<Vec<T>> {
        let count = self.read::<u32>()? as usize;
        if count > self.bytes.len() {
            return None;
        }
        let mut items = Vec::new();
        for _ in 0..count {
            items.push(self.read()?);
        }
        Some(items)
    }
}

/// Appends `len u32 | bytes`.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    (bytes.len() as u32).encode(out);
    out.extend_from_slice(bytes);
}

/// Appends `count u32 | item*`.
pub fn put_seq<T: Wire>(out: &mut Vec<u8>, items: &[T]) {
    (items.len() as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

/// Implements [`Wire`] for a struct with named fields: an optional
/// [`FrameTag`] byte, then the listed fields in order.
///
/// ```text
/// wire_struct!(BatchOp { kind, payload });
/// wire_struct!(ShieldedMessage as Shielded { tuple, kind, confidential, payload, mac });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident $(as $tag:ident)? { $($field:ident),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $(out.push($crate::wire::FrameTag::$tag as u8);)?
                $($crate::wire::Wire::encode(&self.$field, out);)*
            }
            fn read(r: &mut $crate::wire::Reader<'_>) -> Option<Self> {
                $(r.expect_tag($crate::wire::FrameTag::$tag)?;)?
                Some($ty { $($field: r.read()?),* })
            }
        }
    };
}

/// Implements [`Wire`] for an enum: one variant byte, then the variant's
/// fields in the listed order. Unit variants are written `Name {}`.
///
/// ```text
/// wire_enum!(Operation { 0 => Put { key, value }, 1 => Get { key } });
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $variant:ident { $($field:ident),* $(,)? }),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant { $($field),* } => {
                        out.push($tag);
                        $($crate::wire::Wire::encode($field, out);)*
                    })+
                }
            }
            fn read(r: &mut $crate::wire::Reader<'_>) -> Option<Self> {
                Some(match r.byte()? {
                    $($tag => $ty::$variant { $($field: r.read()?),* },)+
                    _ => return None,
                })
            }
        }
    };
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read(r: &mut Reader<'_>) -> Option<Self> {
                Some(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

wire_int!(u16, u32, u64);

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// A byte string: `len u32 | bytes`.
impl Wire for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        Some(r.bytes()?.to_vec())
    }
}

/// A sequence: `count u32 | item*`.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_seq(out, self);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.seq()
    }
}

impl<const N: usize> Wire for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.array()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(None),
            1 => Some(Some(r.read()?)),
            _ => None,
        }
    }
}

/// Implements [`Wire`] for a newtype over a fixed-size byte array.
macro_rules! wire_bytes_newtype {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(self.as_bytes());
            }
            fn read(r: &mut Reader<'_>) -> Option<Self> {
                Some($ty::from_bytes(r.array()?))
            }
        }
    )*};
}

wire_bytes_newtype!(MacTag, Nonce, Signature);

impl Wire for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        Some(NodeId(r.read()?))
    }
}

wire_struct!(ChannelId { src, dst });
wire_struct!(Ciphertext { nonce, bytes, tag });
wire_struct!(Timestamp { logical, node });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_and_reject_trailing_bytes() {
        let value: (u64, Option<Vec<u8>>) = (7, Some(b"abc".to_vec()));
        let mut out = Vec::new();
        value.0.encode(&mut out);
        value.1.encode(&mut out);
        let mut r = Reader::new(&out);
        assert_eq!(r.read::<u64>(), Some(7));
        assert_eq!(r.read::<Option<Vec<u8>>>(), Some(Some(b"abc".to_vec())));
        assert!(r.is_empty());
        assert_eq!(Vec::<u8>::decode(&[1, 0, 0, 0, 9, 9]), None);
        assert_eq!(bool::decode(&[2]), None);
        assert_eq!(Option::<u16>::decode(&[2, 0, 0]), None);
    }

    #[test]
    fn oversized_lengths_and_counts_are_rejected() {
        assert_eq!(Vec::<u8>::decode(&u32::MAX.to_le_bytes()), None);
        let mut r = Reader::new(&[5, 0, 0, 0, 1, 2]);
        assert_eq!(r.seq::<u16>(), None);
    }

    #[test]
    fn frame_tags_are_read_from_the_first_byte() {
        assert_eq!(FrameTag::of(&[2, 0]), Some(FrameTag::Batch));
        assert_eq!(FrameTag::of(&[0]), None);
        assert_eq!(FrameTag::of(&[]), None);
    }
}
