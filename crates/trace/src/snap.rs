//! Binary snapshot codec for crash-safe checkpoint/restore.
//!
//! Every layer of the simulator (cores, caches, DRAM timers, fault
//! cursors, accumulated counters) serializes its state through the tiny
//! explicit codec in this module rather than through serde: the snapshot
//! format must be *byte-stable* across builds — a checkpoint written by an
//! interrupted campaign is read back by a fresh process and must restore
//! bit-identical state — so every field is written in a fixed order with a
//! fixed-width little-endian representation and read back with typed
//! errors instead of panics.
//!
//! The format rules, applied uniformly:
//!
//! - integers are fixed-width little-endian (`u64::to_le_bytes` and
//!   friends); lengths are `u64`;
//! - `bool` is one byte (0/1), any other value is a [`SnapError::BadTag`];
//! - `Option<T>` is a one-byte tag (0 = `None`, 1 = `Some`) followed by
//!   the payload;
//! - enums are a one-byte tag; unknown tags are a typed error, never UB.
//!
//! Counter structs declare their codec instead of writing it: a struct
//! written inside [`snap_struct!`](crate::snap_struct) gets a [`Codec`]
//! that writes its fields in declaration order (and, on request, a
//! field-by-field [`Merge`]), so its field list exists once and the
//! declaration order is the byte layout. Structural state whose restore
//! must check invariants across fields (ring buffers, cache arrays,
//! topology guards) keeps a hand-written `encode_snap`/`restore_snap`
//! pair over [`Enc`]/[`Dec`].
//!
//! Checksumming (FNV-1a 64) and the versioned envelope live with the
//! checkpoint manager in `cs-core`; this module provides the primitive
//! [`fnv1a64`] plus the [`Enc`]/[`Dec`] pair, the declared-codec traits
//! and codecs for the trace types ([`MicroOp`] et al.) that higher layers
//! embed in their snapshots.

use crate::op::{MemRef, MicroOp, OpKind, Privilege};

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the field being read.
    Truncated,
    /// An enum/bool/option tag byte had no defined meaning.
    BadTag(u8),
    /// The envelope magic did not match.
    BadMagic,
    /// The envelope carried an unsupported format version.
    Version(u32),
    /// The payload checksum did not match its header.
    Checksum,
    /// The snapshot is internally valid but inconsistent with the state
    /// being restored into (wrong topology, wrong config, …).
    Mismatch(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => f.write_str("snapshot truncated"),
            SnapError::BadTag(t) => write!(f, "snapshot contains undefined tag byte {t:#04x}"),
            SnapError::BadMagic => f.write_str("not a snapshot file (bad magic)"),
            SnapError::Version(v) => write!(f, "unsupported snapshot version {v}"),
            SnapError::Checksum => f.write_str("snapshot checksum mismatch"),
            SnapError::Mismatch(why) => write!(f, "snapshot does not match this run: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash — the snapshot payload checksum. Not cryptographic;
/// it guards against torn writes and bit rot, not adversaries.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only snapshot encoder.
#[derive(Debug, Default)]
pub struct Enc {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an `Option<u8>` as tag + payload.
    pub fn opt_u8(&mut self, v: Option<u8>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u8(x);
            }
        }
    }
}

/// Sequential snapshot decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a decoder over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a length written by [`Enc::len`]. Rejects lengths that cannot
    /// possibly fit in the remaining buffer, so corrupt snapshots fail
    /// fast instead of triggering huge allocations.
    // Not a container-length getter — it consumes a length *field* from
    // the stream — so `is_empty` would be meaningless here.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        let v = usize::try_from(v).map_err(|_| SnapError::Truncated)?;
        if v > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        Ok(v)
    }

    /// Reads a bool byte; anything other than 0/1 is a [`SnapError::BadTag`].
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag(t)),
        }
    }

    /// Reads an `Option<u8>`.
    pub fn opt_u8(&mut self) -> Result<Option<u8>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u8()?)),
            t => Err(SnapError::BadTag(t)),
        }
    }

    /// Asserts that every byte has been consumed — a decoded struct that
    /// leaves trailing garbage means the writer and reader disagree.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Mismatch(format!("{} trailing bytes after decode", self.remaining())))
        }
    }
}

// ---------------------------------------------------------------------
// Declared codecs: one field list per counter struct
// ---------------------------------------------------------------------

/// A value whose snapshot bytes follow from its declaration: the fields
/// of a [`snap_struct!`] struct in declaration order, each through its
/// own `Codec`.
pub trait Codec: Sized {
    /// Writes `self` into `e`.
    fn encode_snap(&self, e: &mut Enc);
    /// Reads a value written by [`Codec::encode_snap`].
    fn decode_snap(d: &mut Dec<'_>) -> Result<Self, SnapError>;
}

/// A counter that adds another counter of the same shape into itself —
/// how the sampling harness folds per-window statistics into run totals.
pub trait Merge {
    /// Adds every counter of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if a vector differs in length between the two sides:
    /// merging counters of differently-shaped machines is a harness bug.
    fn merge_from(&mut self, other: &Self);
}

impl Codec for u64 {
    fn encode_snap(&self, e: &mut Enc) {
        e.u64(*self);
    }
    fn decode_snap(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        d.u64()
    }
}

impl Merge for u64 {
    fn merge_from(&mut self, other: &Self) {
        *self += *other;
    }
}

impl Codec for bool {
    fn encode_snap(&self, e: &mut Enc) {
        e.bool(*self);
    }
    fn decode_snap(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        d.bool()
    }
}

/// Fixed-size arrays carry no length: the type fixes it.
impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn encode_snap(&self, e: &mut Enc) {
        for v in self {
            v.encode_snap(e);
        }
    }
    fn decode_snap(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::decode_snap(d)?;
        }
        Ok(out)
    }
}

impl<T: Merge, const N: usize> Merge for [T; N] {
    fn merge_from(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other) {
            a.merge_from(b);
        }
    }
}

/// Vectors are length-prefixed ([`Enc::len`]).
impl<T: Codec> Codec for Vec<T> {
    fn encode_snap(&self, e: &mut Enc) {
        e.len(self.len());
        for v in self {
            v.encode_snap(e);
        }
    }
    fn decode_snap(d: &mut Dec<'_>) -> Result<Self, SnapError> {
        (0..d.len()?).map(|_| T::decode_snap(d)).collect()
    }
}

impl<T: Merge> Merge for Vec<T> {
    fn merge_from(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "length mismatch in merge");
        for (a, b) in self.iter_mut().zip(other) {
            a.merge_from(b);
        }
    }
}

/// Declares a struct whose snapshot codec — and, with a leading `merge;`,
/// whose [`Merge`] — follow from its field list.
///
/// The macro takes the struct's own declaration, doc comments and
/// attributes included, emits it unchanged, and implements [`Codec`] by
/// writing every field in declaration order. So the declaration *is* the
/// byte layout: reordering, adding or removing a field changes the
/// checkpoint format. `merge;` also implements [`Merge`] field by field,
/// and `check = <fn(&Self) -> Result<(), SnapError>>;` rejects a decoded
/// value that breaks an invariant of the type.
///
/// ```
/// cs_trace::snap_struct! {
///     merge;
///     /// Hits and misses.
///     #[derive(Debug, Default)]
///     pub struct Counts {
///         pub hits: u64,
///         misses: [u64; 2],
///     }
/// }
/// ```
#[macro_export]
macro_rules! snap_struct {
    (merge; check = $check:expr; $($item:tt)*) => {
        $crate::snap_struct!(@item [merge] [$check] $($item)*);
    };
    (merge; $($item:tt)*) => {
        $crate::snap_struct!(@item [merge] [] $($item)*);
    };
    // Everything is forwarded as plain tokens, so derives on the struct
    // see the declaration exactly as written.
    (@item $merge:tt $check:tt
        $(#[$($attr:tt)*])*
        $(pub $(($($vis:tt)*))?)? struct $name:ident { $($body:tt)* }
    ) => {
        $(#[$($attr)*])*
        $(pub $(($($vis)*))?)? struct $name { $($body)* }
        $crate::snap_struct!(@fields $name $merge $check [] $($body)*);
    };
    // Collects the field names, skipping attributes and visibility.
    (@fields $name:ident $merge:tt $check:tt [$($f:ident)*]
        #[$($attr:tt)*] $($rest:tt)*
    ) => {
        $crate::snap_struct!(@fields $name $merge $check [$($f)*] $($rest)*);
    };
    (@fields $name:ident $merge:tt $check:tt [$($f:ident)*]
        pub ($($vis:tt)*) $($rest:tt)*
    ) => {
        $crate::snap_struct!(@fields $name $merge $check [$($f)*] $($rest)*);
    };
    (@fields $name:ident $merge:tt $check:tt [$($f:ident)*] pub $($rest:tt)*) => {
        $crate::snap_struct!(@fields $name $merge $check [$($f)*] $($rest)*);
    };
    (@fields $name:ident $merge:tt $check:tt [$($f:ident)*]
        $field:ident : $ty:ty $(, $($rest:tt)*)?
    ) => {
        $crate::snap_struct!(@fields $name $merge $check [$($f)* $field] $($($rest)*)?);
    };
    (@fields $name:ident $merge:tt [$($check:expr)?] [$($f:ident)*]) => {
        impl $crate::snap::Codec for $name {
            fn encode_snap(&self, e: &mut $crate::snap::Enc) {
                $($crate::snap::Codec::encode_snap(&self.$f, e);)*
            }
            fn decode_snap(
                d: &mut $crate::snap::Dec<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                // Struct-expression fields evaluate in the order written:
                // declaration order, the order they were encoded in.
                let v = Self { $($f: $crate::snap::Codec::decode_snap(d)?,)* };
                $(($check)(&v)?;)?
                Ok(v)
            }
        }
        $crate::snap_struct!(@merge $merge $name [$($f)*]);
    };
    (@merge [] $name:ident $fields:tt) => {};
    (@merge [merge] $name:ident [$($f:ident)*]) => {
        impl $crate::snap::Merge for $name {
            fn merge_from(&mut self, other: &Self) {
                $($crate::snap::Merge::merge_from(&mut self.$f, &other.$f);)*
            }
        }
    };
    ($(#[$($attr:tt)*])* $(pub $(($($vis:tt)*))?)? struct $($rest:tt)*) => {
        $crate::snap_struct!(@item [] [] $(#[$($attr)*])* $(pub $(($($vis)*))?)? struct $($rest)*);
    };
}

// ---------------------------------------------------------------------
// Trace-type codecs
// ---------------------------------------------------------------------

/// Encodes a [`Privilege`].
pub fn encode_privilege(e: &mut Enc, p: Privilege) {
    e.u8(match p {
        Privilege::User => 0,
        Privilege::Kernel => 1,
    });
}

/// Decodes a [`Privilege`].
pub fn decode_privilege(d: &mut Dec<'_>) -> Result<Privilege, SnapError> {
    match d.u8()? {
        0 => Ok(Privilege::User),
        1 => Ok(Privilege::Kernel),
        t => Err(SnapError::BadTag(t)),
    }
}

/// Encodes an [`OpKind`].
pub fn encode_op_kind(e: &mut Enc, k: OpKind) {
    e.u8(match k {
        OpKind::IntAlu => 0,
        OpKind::IntMul => 1,
        OpKind::IntDiv => 2,
        OpKind::Fp => 3,
        OpKind::Load => 4,
        OpKind::Store => 5,
        OpKind::Branch { mispredict: false } => 6,
        OpKind::Branch { mispredict: true } => 7,
    });
}

/// Decodes an [`OpKind`].
pub fn decode_op_kind(d: &mut Dec<'_>) -> Result<OpKind, SnapError> {
    match d.u8()? {
        0 => Ok(OpKind::IntAlu),
        1 => Ok(OpKind::IntMul),
        2 => Ok(OpKind::IntDiv),
        3 => Ok(OpKind::Fp),
        4 => Ok(OpKind::Load),
        5 => Ok(OpKind::Store),
        6 => Ok(OpKind::Branch { mispredict: false }),
        7 => Ok(OpKind::Branch { mispredict: true }),
        t => Err(SnapError::BadTag(t)),
    }
}

/// Encodes a full [`MicroOp`].
pub fn encode_op(e: &mut Enc, op: &MicroOp) {
    e.u64(op.pc);
    encode_op_kind(e, op.kind);
    match op.mem {
        None => e.u8(0),
        Some(MemRef { addr, size }) => {
            e.u8(1);
            e.u64(addr);
            e.u8(size);
        }
    }
    encode_privilege(e, op.privilege);
    e.u8(op.dep1);
    e.u8(op.dep2);
}

/// Decodes a full [`MicroOp`].
pub fn decode_op(d: &mut Dec<'_>) -> Result<MicroOp, SnapError> {
    let pc = d.u64()?;
    let kind = decode_op_kind(d)?;
    let mem = match d.u8()? {
        0 => None,
        1 => {
            let addr = d.u64()?;
            let size = d.u8()?;
            if !(1..=64).contains(&size) {
                return Err(SnapError::BadTag(size));
            }
            Some(MemRef { addr, size })
        }
        t => return Err(SnapError::BadTag(t)),
    };
    let privilege = decode_privilege(d)?;
    let dep1 = d.u8()?;
    let dep2 = d.u8()?;
    Ok(MicroOp { pc, kind, mem, privilege, dep1, dep2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        let mut e = Enc::new();
        e.u8(0xAB);
        e.u16(0xBEEF);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.i64(-42);
        e.bool(true);
        e.bool(false);
        e.opt_u8(None);
        e.opt_u8(Some(9));
        let mut d = Dec::new(&e.buf);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.i64().unwrap(), -42);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.opt_u8().unwrap(), None);
        assert_eq!(d.opt_u8().unwrap(), Some(9));
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut e = Enc::new();
        e.u64(1234);
        let mut d = Dec::new(&e.buf[..5]);
        assert_eq!(d.u64(), Err(SnapError::Truncated));
    }

    #[test]
    fn bad_bool_and_option_tags_are_rejected() {
        let buf = [2u8];
        assert_eq!(Dec::new(&buf).bool(), Err(SnapError::BadTag(2)));
        assert_eq!(Dec::new(&buf).opt_u8(), Err(SnapError::BadTag(2)));
    }

    #[test]
    fn oversized_length_fails_fast() {
        let mut e = Enc::new();
        e.u64(u64::MAX);
        assert_eq!(Dec::new(&e.buf).len(), Err(SnapError::Truncated));
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let buf = [0u8; 3];
        let mut d = Dec::new(&buf);
        d.u8().unwrap();
        assert!(matches!(d.finish(), Err(SnapError::Mismatch(_))));
    }

    #[test]
    fn micro_ops_roundtrip_exactly() {
        let ops = [
            MicroOp::alu(0x400000).with_deps(3, 250),
            MicroOp::load(0x400004, 0x1000, 8).with_privilege(Privilege::Kernel),
            MicroOp::store(0x400008, 0x2040, 64),
            MicroOp::branch(0x40000C, true),
            MicroOp::branch(0x400010, false),
            MicroOp::of_kind(0x400014, OpKind::IntDiv),
            MicroOp::of_kind(0x400018, OpKind::Fp),
            MicroOp::of_kind(0x40001C, OpKind::IntMul),
        ];
        let mut e = Enc::new();
        for op in &ops {
            encode_op(&mut e, op);
        }
        let mut d = Dec::new(&e.buf);
        for op in &ops {
            assert_eq!(&decode_op(&mut d).unwrap(), op);
        }
        d.finish().unwrap();
    }

    #[test]
    fn memref_size_is_validated() {
        let mut e = Enc::new();
        e.u64(0); // pc
        e.u8(4); // Load
        e.u8(1); // Some(mem)
        e.u64(0x1000);
        e.u8(0); // invalid size
        assert!(matches!(decode_op(&mut Dec::new(&e.buf)), Err(SnapError::BadTag(0))));
    }

    crate::snap_struct! {
        merge;
        check = |b: &Buckets| match b.counts.len() {
            0 => Err(SnapError::Mismatch("no buckets".into())),
            _ => Ok(()),
        };
        /// A nested counter with an invariant its decode checks.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Buckets {
            counts: Vec<u64>,
            overflow: u64,
        }
    }

    crate::snap_struct! {
        merge;
        /// One field of every mergeable kind.
        #[derive(Debug, Clone, PartialEq)]
        pub(crate) struct Counters {
            /// A plain counter.
            pub total: u64,
            pub(crate) pair: [u64; 2],
            buckets: Buckets,
            per_thread: Vec<[u64; 2]>,
        }
    }

    crate::snap_struct! {
        #[derive(Debug, PartialEq)]
        struct Record {
            done: bool,
            counters: Counters,
            history: Vec<Buckets>,
        }
    }

    fn record() -> Record {
        let buckets = |c: &[u64], overflow| Buckets { counts: c.to_vec(), overflow };
        Record {
            done: true,
            counters: Counters {
                total: 7,
                pair: [1, 1 << 40],
                buckets: buckets(&[3, 0, 5], 2),
                per_thread: vec![[4, 5], [6, 7]],
            },
            history: vec![buckets(&[1], 0), buckets(&[2, 9], 8)],
        }
    }

    #[test]
    fn declared_struct_writes_fields_in_declaration_order() {
        let r = record();
        let mut e = Enc::new();
        r.encode_snap(&mut e);
        let mut want = Enc::new();
        want.bool(true);
        for v in [7, 1, 1 << 40, 3, 3, 0, 5, 2, 2, 4, 5, 6, 7, 2, 1, 1, 0, 2, 2, 9, 8] {
            want.u64(v);
        }
        assert_eq!(e.buf, want.buf);

        let mut d = Dec::new(&e.buf);
        let back = Record::decode_snap(&mut d).expect("decode");
        d.finish().expect("no trailing bytes");
        assert_eq!(back, r);
        let mut again = Enc::new();
        back.encode_snap(&mut again);
        assert_eq!(again.buf, e.buf, "re-encoding must reproduce the bytes");
    }

    #[test]
    fn declared_struct_merges_field_by_field() {
        let mut a = record().counters;
        a.merge_from(&record().counters);
        assert_eq!(a.total, 14);
        assert_eq!(a.pair, [2, 1 << 41]);
        assert_eq!(a.buckets, Buckets { counts: vec![6, 0, 10], overflow: 4 });
        assert_eq!(a.per_thread, vec![[8, 10], [12, 14]]);
    }

    #[test]
    fn every_prefix_of_a_declared_struct_is_truncated() {
        let mut e = Enc::new();
        record().encode_snap(&mut e);
        for n in 0..e.buf.len() {
            let got = Record::decode_snap(&mut Dec::new(&e.buf[..n]));
            assert_eq!(got, Err(SnapError::Truncated), "prefix of {n} bytes");
        }
    }

    #[test]
    fn declared_check_rejects_a_broken_invariant() {
        let mut e = Enc::new();
        Buckets { counts: Vec::new(), overflow: 1 }.encode_snap(&mut e);
        let got = Buckets::decode_snap(&mut Dec::new(&e.buf));
        assert!(matches!(got, Err(SnapError::Mismatch(_))), "{got:?}");
    }

    #[test]
    #[should_panic(expected = "length mismatch in merge")]
    fn vector_merge_rejects_a_length_mismatch() {
        let mut a = record().counters;
        let mut b = record().counters;
        b.per_thread.pop();
        a.merge_from(&b);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a64_detects_single_bit_flips() {
        let data = b"snapshot payload bytes".to_vec();
        let h = fnv1a64(&data);
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] ^= 1;
            assert_ne!(fnv1a64(&flipped), h);
        }
    }
}
