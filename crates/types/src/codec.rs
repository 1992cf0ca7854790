//! The hand-rolled wire codec.
//!
//! The TCP transport (`contrarian-net`) moves protocol messages across real
//! sockets, so every message type needs a byte-level encoding. The paper's
//! implementation uses protobuf, where each message is declared once in a
//! schema and both directions are generated from it; this workspace builds
//! fully offline (no serde, no prost), so the codec is hand-rolled: a
//! [`Wire`] trait with `encode`/`decode`, fixed-width little-endian
//! integers, `u32` length-prefixed sequences, and one tag byte per enum
//! variant.
//!
//! Design rules:
//!
//! * **Declared once** — every enum that crosses the wire is declared
//!   through [`wire_enum!`](crate::wire_enum), which derives both
//!   directions from the declaration: a variant's tag is its index in
//!   declaration order and its fields follow in declaration order. The
//!   declaration order is the format, so reordering a variant or field is a
//!   format change (golden-bytes tests pin each enum's encoding).
//! * **Self-contained values** — decoding never needs out-of-band schema
//!   state; a [`Reader`] over the payload bytes is enough.
//! * **Total decoding** — every decode failure is a typed [`CodecError`],
//!   never a panic or an out-of-bounds read; corrupt and truncated frames
//!   are rejected, not trusted.
//! * **Bounded allocation** — a sequence length prefix is validated
//!   against the bytes actually remaining, using the element type's
//!   minimum encoded size ([`Wire::MIN_WIRE_SIZE`]), before any
//!   allocation, so a corrupt length cannot trigger a reservation larger
//!   than a small multiple of the frame itself.
//! * **Round-trip identity** — `decode(encode(x)) == x` for every value;
//!   property tests in each protocol crate enforce this for every message
//!   variant of every backend.
//!
//! The wire-size *estimates* used by the simulator's cost model live in
//! [`crate::wire`]; they predate this codec and intentionally stay separate
//! (they model the paper's protobuf encoding, not this one).

use crate::ids::{Addr, ClientId, DcId, NodeKind, PartitionId, TxId};
use crate::key::Key;
use crate::vector::DepVector;
use crate::version::VersionId;
use crate::Value;
use std::fmt;

/// Why a byte buffer failed to decode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// Bytes the decoder needed at the failure point.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// An enum tag byte outside the type's valid set.
    BadTag {
        /// The type whose tag was invalid (for diagnostics).
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A sequence length prefix larger than the bytes that remain — a
    /// corrupt frame, rejected before any allocation happens.
    BadLength { claimed: usize, remaining: usize },
    /// Decoding succeeded but bytes were left over (only reported by
    /// [`from_bytes`], which requires exact consumption).
    Trailing { unread: usize },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated: needed {needed} bytes, {remaining} left")
            }
            CodecError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag:#x}"),
            CodecError::BadLength { claimed, remaining } => {
                write!(f, "length {claimed} exceeds {remaining} remaining bytes")
            }
            CodecError::Trailing { unread } => write!(f, "{unread} trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over an encoded payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Validates a sequence length prefix: each element needs at least
    /// `min_elem_bytes` more bytes, so anything claiming more elements than
    /// could possibly fit is corrupt.
    #[inline]
    pub fn check_len(&self, claimed: usize, min_elem_bytes: usize) -> Result<(), CodecError> {
        if claimed.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::BadLength {
                claimed,
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Types with a hand-rolled byte encoding.
///
/// `decode(encode(x)) == x` must hold for every value (proptest-enforced
/// for every protocol message of every backend).
pub trait Wire: Sized {
    /// The smallest number of bytes any value of this type occupies on the
    /// wire. Used to validate sequence length prefixes *before* allocating
    /// (`claimed * MIN_WIRE_SIZE` must fit in the remaining bytes), so the
    /// tighter the bound, the smaller the worst-case reservation a corrupt
    /// frame can cause. `1` is always sound.
    const MIN_WIRE_SIZE: usize = 1;

    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value into a fresh buffer.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

/// Decodes a value that must span the whole buffer (trailing bytes are an
/// error — a frame carries exactly one value).
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::Trailing {
            unread: r.remaining(),
        });
    }
    Ok(v)
}

/// Declares an enum and derives its [`Wire`] impl from the declaration.
///
/// A variant's tag byte is its index in declaration order, and its fields
/// follow the tag in declaration order; any other tag byte decodes to
/// [`CodecError::BadTag`] naming the enum. Struct, tuple and unit variants
/// are accepted, with attributes and doc comments on the enum, its variants
/// and the fields of struct variants. A tuple variant names its fields for
/// the macro only: `Put(key: Key, value: Value)` declares `Put(Key, Value)`.
///
/// The declaration order is the wire format: reordering variants or
/// fields changes the bytes, and only a variant appended at the end keeps
/// every existing encoding.
///
/// ```
/// contrarian_types::wire_enum! {
///     #[derive(Debug, PartialEq)]
///     pub enum Shape {
///         Dot,
///         Line(len: u32),
///         Rect { w: u16, h: u16 },
///     }
/// }
/// use contrarian_types::codec::{from_bytes, to_bytes};
/// assert_eq!(to_bytes(&Shape::Line(7)), [1, 7, 0, 0, 0]);
/// assert_eq!(from_bytes::<Shape>(&[2, 3, 0, 4, 0]), Ok(Shape::Rect { w: 3, h: 4 }));
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $var:ident
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)? })?
                $(( $($tfield:ident: $tty:ty),* $(,)? ))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $var
                $({ $($(#[$fmeta])* $field: $fty),* })?
                $(( $($tty),* ))?
            ),*
        }

        const _: () = {
            // Each variant's tag is its index in declaration order.
            #[repr(u8)]
            enum Tag {
                $($var),*
            }

            impl $crate::codec::Wire for $name {
                fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                    match self {
                        $($name::$var $({ $($field),* })? $(( $($tfield),* ))? => {
                            out.push(Tag::$var as u8);
                            $($(<$fty as $crate::codec::Wire>::encode($field, out);)*)?
                            $($(<$tty as $crate::codec::Wire>::encode($tfield, out);)*)?
                        })*
                    }
                }

                // The match arms are the variants' tags as `u8` consts, so
                // the decoder compiles to one jump table.
                #[allow(non_upper_case_globals)]
                fn decode(
                    r: &mut $crate::codec::Reader<'_>,
                ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                    $(const $var: u8 = Tag::$var as u8;)*
                    ::std::result::Result::Ok(match r.take(1)?[0] {
                        $($var => $name::$var
                            $({ $($field: <$fty as $crate::codec::Wire>::decode(r)?),* })?
                            $(( $(<$tty as $crate::codec::Wire>::decode(r)?),* ))?,
                        )*
                        tag => {
                            return ::std::result::Result::Err($crate::codec::CodecError::BadTag {
                                what: stringify!($name),
                                tag,
                            })
                        }
                    })
                }
            }
        };
    };
}

// ---- primitives ----

macro_rules! impl_wire_le_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_WIRE_SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let b = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized take")))
            }
        }
    )*};
}
impl_wire_le_int!(u8, u16, u32, u64);

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_WIRE_SIZE: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u32::decode(r)? as usize;
        r.check_len(len, T::MIN_WIRE_SIZE)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_WIRE_SIZE: usize = A::MIN_WIRE_SIZE + B::MIN_WIRE_SIZE;

    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl Wire for Value {
    const MIN_WIRE_SIZE: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_slice());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u32::decode(r)? as usize;
        if len > r.remaining() {
            return Err(CodecError::BadLength {
                claimed: len,
                remaining: r.remaining(),
            });
        }
        Ok(Value::copy_from_slice(r.take(len)?))
    }
}

// ---- identifiers ----

impl Wire for DcId {
    const MIN_WIRE_SIZE: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(DcId(u8::decode(r)?))
    }
}

impl Wire for PartitionId {
    const MIN_WIRE_SIZE: usize = 2;

    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PartitionId(u16::decode(r)?))
    }
}

impl Wire for ClientId {
    const MIN_WIRE_SIZE: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ClientId(u32::decode(r)?))
    }
}

impl Wire for TxId {
    const MIN_WIRE_SIZE: usize = 8;

    fn encode(&self, out: &mut Vec<u8>) {
        self.client.encode(out);
        self.seq.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TxId {
            client: ClientId::decode(r)?,
            seq: u32::decode(r)?,
        })
    }
}

impl Wire for Key {
    const MIN_WIRE_SIZE: usize = 8;

    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Key(u64::decode(r)?))
    }
}

impl Wire for VersionId {
    const MIN_WIRE_SIZE: usize = 9;

    fn encode(&self, out: &mut Vec<u8>) {
        self.ts.encode(out);
        self.origin.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(VersionId {
            ts: u64::decode(r)?,
            origin: DcId::decode(r)?,
        })
    }
}

impl Wire for Addr {
    const MIN_WIRE_SIZE: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        self.dc.encode(out);
        self.kind.encode(out);
        self.idx.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Addr {
            dc: DcId::decode(r)?,
            kind: NodeKind::decode(r)?,
            idx: u16::decode(r)?,
        })
    }
}

// ---- compound domain types ----

impl Wire for DepVector {
    const MIN_WIRE_SIZE: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for i in 0..self.len() {
            self.get(i).encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u32::decode(r)? as usize;
        r.check_len(len, 8)?;
        DepVector::try_from_fn(len, || u64::decode(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn round_trip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        assert_eq!(from_bytes::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(u16::MAX - 1);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(true);
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![1u64, 2, 3]);
        round_trip((
            Key(9),
            Some((VersionId::new(3, DcId(1)), Value::from_static(b"x"))),
        ));
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(Addr::server(DcId(3), PartitionId(77)));
        round_trip(Addr::client(DcId(0), 12));
        round_trip(TxId::new(ClientId::new(DcId(2), 999), 31));
        round_trip(DepVector::from_vec(vec![0, u64::MAX, 42]));
        round_trip(Op::Rot(vec![Key(1), Key(2)]));
        round_trip(Op::Put(Key(5), Value::from(vec![0u8; 300])));
        round_trip(Value::new());
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let bytes = to_bytes(&u64::MAX);
        for cut in 0..bytes.len() {
            assert!(matches!(
                from_bytes::<u64>(&bytes[..cut]),
                Err(CodecError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&Key(7));
        bytes.push(0xAB);
        assert_eq!(
            from_bytes::<Key>(&bytes),
            Err(CodecError::Trailing { unread: 1 })
        );
    }

    #[test]
    fn corrupt_length_prefix_is_rejected_before_allocating() {
        // A Vec<u64> claiming u32::MAX elements with 4 bytes of payload.
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[1, 2, 3, 4]);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(CodecError::BadLength { .. })
        ));
        // Same for a Value's byte-length prefix.
        assert!(matches!(
            from_bytes::<Value>(&bytes),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn length_checks_use_the_element_minimum_not_one_byte() {
        // 44 payload bytes claiming 40 elements: with a 1-byte-per-element
        // bound this would pass the pre-allocation check (and only fail
        // later, after reserving 40 * size_of::<elem>()); the per-type
        // minimum (Key 8 + Option 1 = 9) rejects it before allocating.
        type Elem = (Key, Option<(VersionId, Value)>);
        assert_eq!(<Elem as Wire>::MIN_WIRE_SIZE, 9);
        let mut bytes = Vec::new();
        40u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0; 40]);
        assert!(matches!(
            from_bytes::<Vec<Elem>>(&bytes),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert!(matches!(
            from_bytes::<bool>(&[9]),
            Err(CodecError::BadTag { what: "bool", .. })
        ));
        assert!(matches!(
            from_bytes::<Op>(&[7]),
            Err(CodecError::BadTag { what: "Op", .. })
        ));
        // Addr with an invalid NodeKind byte.
        assert!(matches!(
            from_bytes::<Addr>(&[0, 5, 0, 0]),
            Err(CodecError::BadTag {
                what: "NodeKind",
                ..
            })
        ));
    }

    /// Every variant of `Op` and both `NodeKind`s inside an `Addr`, with
    /// their exact encodings: the tag byte, then the fields in declaration
    /// order. A reordered variant or field fails here.
    #[test]
    fn enum_encodings_match_their_golden_bytes() {
        fn hex<T: Wire>(v: &T) -> String {
            to_bytes(v).iter().map(|b| format!("{b:02x}")).collect()
        }
        assert_eq!(
            hex(&Op::Rot(vec![Key(4), Key(5)])),
            "000200000004000000000000000500000000000000"
        );
        assert_eq!(
            hex(&Op::Put(Key(4), Value::from_static(b"v"))),
            "0104000000000000000100000076"
        );
        assert_eq!(hex(&Addr::server(DcId(1), PartitionId(2))), "01000200");
        assert_eq!(hex(&Addr::client(DcId(1), 2)), "01010200");
    }

    crate::wire_enum! {
        /// Every variant shape `wire_enum!` accepts.
        #[derive(Clone, PartialEq, Eq, Debug)]
        enum Sample {
            /// A unit variant.
            Unit,
            /// A tuple variant.
            Pair(a: u8, b: Option<u64>),
            /// A struct variant.
            Named {
                /// A documented field.
                key: Key,
                vals: Vec<u16>,
            },
            Empty {},
            Last(flag: bool),
        }
    }

    /// One value of every `Sample` variant, in declaration order.
    fn samples() -> Vec<Sample> {
        vec![
            Sample::Unit,
            Sample::Pair(7, Some(u64::MAX)),
            Sample::Named {
                key: Key(9),
                vals: vec![1, 2, 3],
            },
            Sample::Empty {},
            Sample::Last(true),
        ]
    }

    #[test]
    fn wire_enum_tags_are_declaration_indices() {
        for (i, v) in samples().iter().enumerate() {
            assert_eq!(to_bytes(v)[0], i as u8, "{v:?}");
        }
        assert_eq!(<Sample as Wire>::MIN_WIRE_SIZE, 1);
    }

    #[test]
    fn wire_enum_variants_round_trip() {
        for v in samples() {
            round_trip(v);
        }
    }

    #[test]
    fn wire_enum_rejects_every_tag_past_the_last_variant() {
        for tag in samples().len() as u8..=u8::MAX {
            assert_eq!(
                from_bytes::<Sample>(&[tag]),
                Err(CodecError::BadTag {
                    what: "Sample",
                    tag
                })
            );
        }
    }

    #[test]
    fn wire_enum_rejects_every_strict_prefix() {
        for v in samples() {
            let bytes = to_bytes(&v);
            for cut in 0..bytes.len() {
                assert!(
                    from_bytes::<Sample>(&bytes[..cut]).is_err(),
                    "{v:?} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn errors_display_diagnostics() {
        let e = CodecError::BadTag {
            what: "Op",
            tag: 0x7f,
        };
        assert!(e.to_string().contains("Op"));
        assert!(CodecError::Truncated {
            needed: 8,
            remaining: 3
        }
        .to_string()
        .contains("8"));
    }
}
