//! The one binary codec: what every type looks like as bytes, on the
//! certifier's disk, on the wire and in a snapshot.
//!
//! A type's encoding is written once, as a [`Codec`] impl: `put` appends the
//! bytes to a buffer, `get` takes them back off a [`Reader`] — a slice and
//! an offset, every access bounds-checked. This module holds the impls for
//! the primitives and for this crate's vocabulary; a type defined in another
//! crate carries its impl beside its definition. The containers around the
//! encoded values — frames, the log file, manifest and chunks, with their
//! lengths and checksums — belong to the modules that own them.
//!
//! Encodings (all integers little-endian):
//!
//! ```text
//! bool:      u8 (0|1)
//! string:    u32 len | utf-8 bytes          (byte strings alike)
//! option<T>: u8 (0|1) [| T]
//! vec<T>:    u32 count | T*
//! id, version: the u32 or u64 it wraps
//! idem key:  u64 client | u64 seq
//! value:     u8 tag (0=null,1=int,2=float,3=text) | payload
//! writeset:  u32 entry_count
//!              per entry: u32 table | value key
//!                         | u8 op (0=ins,1=upd,2=del) [| vec<value> row]
//! mode:      u8 (0=eager,1=lazy-coarse,2=lazy-fine,3=session,4=baseline)
//! error:     u8 variant tag | string
//! ```
//!
//! Decoding is strict and never trusts a length: an unknown tag is
//! [`DecodeError::Malformed`], and a count or length that promises more than
//! the input still holds is [`DecodeError::Truncated`] *before* anything is
//! reserved or looped over ([`Reader::count`]). The one reservation sized by
//! decoded input is `Vec<T>`'s, and it is capped. A reader that runs out of
//! bytes says so by type, which is how the log tells a torn tail from a
//! record that is there but wrong.

use crate::{
    ClientId, ConsistencyMode, Error, IdemKey, ReplicaId, SessionId, TableId, TemplateId, TxnId,
    Value, Version, WriteOp, WriteSet, WriteSetEntry,
};
use std::fmt;
use std::sync::Arc;

/// Why a decode stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value did: `need` more bytes (at least)
    /// were called for at offset `at`, `have` remained.
    Truncated {
        /// Offset at which the input fell short.
        at: usize,
        /// Bytes the value called for.
        need: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The bytes are there and are not an encoding of the type.
    Malformed(String),
}

/// Result of a decode step.
pub type DecodeResult<T> = std::result::Result<T, DecodeError>;

/// Shorthand for [`DecodeError::Malformed`].
pub fn malformed(what: impl Into<String>) -> DecodeError {
    DecodeError::Malformed(what.into())
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { at, need, have } => {
                write!(
                    f,
                    "truncated: need {need} bytes at offset {at}, have {have}"
                )
            }
            DecodeError::Malformed(what) => f.write_str(what),
        }
    }
}

impl From<DecodeError> for Error {
    fn from(e: DecodeError) -> Self {
        Error::Codec(e.to_string())
    }
}

/// A type with one byte encoding.
///
/// The impls for primitives, ids, strings and values are `#[inline]`, as is
/// the reader's `take`: they are called per field from decoders other
/// crates instantiate, and an out-of-line call per integer cost the wire
/// path 5–15 % (EXPERIMENTS.md, "One codec").
pub trait Codec: Sized {
    /// Appends this value's encoding to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// Decodes one value off the front of `r` (inverse of [`Codec::put`]).
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self>;
}

/// Most elements a decode reserves room for before the elements themselves
/// have arrived to back the count.
const MAX_RESERVE: usize = 4096;

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes consumed so far. After an error: where the decode stopped.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.short(self.pos, n));
        }
        let bytes = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn short(&self, at: usize, need: usize) -> DecodeError {
        DecodeError::Truncated {
            at,
            need,
            have: self.remaining(),
        }
    }

    /// The next value of type `T`.
    #[inline]
    pub fn get<T: Codec>(&mut self) -> DecodeResult<T> {
        T::get(self)
    }

    /// A `u32` element count. Every element is at least one byte, so a
    /// count above what remains can never be honoured: it is refused here,
    /// before the caller reserves or loops.
    #[inline]
    pub fn count(&mut self) -> DecodeResult<usize> {
        let at = self.pos;
        let n = self.get::<u32>()? as usize;
        if n > self.remaining() {
            return Err(self.short(at, n));
        }
        Ok(n)
    }

    /// A length-prefixed byte string (inverse of [`put_bytes`]), borrowed
    /// from the input.
    #[inline]
    pub fn bytes(&mut self) -> DecodeResult<&'a [u8]> {
        let n = self.count()?;
        self.take(n)
    }

    /// Refuses bytes left over after the last value.
    pub fn finish(&self) -> DecodeResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(malformed(format!(
                "{n} trailing bytes after offset {}",
                self.pos
            ))),
        }
    }
}

/// Appends a length-prefixed byte string.
#[inline]
pub fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    (data.len() as u32).put(buf);
    buf.extend_from_slice(data);
}

/// Appends a counted sequence — `Vec<T>`'s encoding, for elements that do
/// not sit in a `Vec`.
pub fn put_seq<'t, T: Codec + 't>(buf: &mut Vec<u8>, items: impl ExactSizeIterator<Item = &'t T>) {
    (items.len() as u32).put(buf);
    items.for_each(|item| item.put(buf));
}

macro_rules! little_endian {
    ($($int:ty),*) => {$(
        impl Codec for $int {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
                let bytes = r.take(std::mem::size_of::<$int>())?;
                Ok(<$int>::from_le_bytes(bytes.try_into().expect("take gave the size asked")))
            }
        }
    )*};
}
little_endian!(u8, u16, u32, u64, i64, f64);

macro_rules! newtype {
    ($($id:ident),*) => {$(
        impl Codec for $id {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                self.0.put(buf);
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
                Ok($id(r.get()?))
            }
        }
    )*};
}
newtype!(Version, TxnId, ClientId, SessionId, ReplicaId, TableId, TemplateId);

impl Codec for bool {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self).put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(malformed(format!("bad bool tag {t}"))),
        }
    }
}

impl Codec for String {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        match std::str::from_utf8(r.bytes()?) {
            Ok(s) => Ok(s.to_owned()),
            Err(e) => Err(malformed(format!("bad utf-8 string: {e}"))),
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(v) = self {
            v.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(if r.get()? { Some(r.get()?) } else { None })
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self.iter());
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let n = r.count()?;
        let mut items = Vec::with_capacity(n.min(MAX_RESERVE));
        for _ in 0..n {
            items.push(r.get()?);
        }
        Ok(items)
    }
}

impl<T: Codec> Codec for Arc<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (**self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(Arc::new(r.get()?))
    }
}

impl Codec for IdemKey {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.client.put(buf);
        self.seq.put(buf);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(IdemKey {
            client: r.get()?,
            seq: r.get()?,
        })
    }
}

impl Codec for Value {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                i.put(buf);
            }
            Value::Float(f) => {
                buf.push(2);
                f.put(buf);
            }
            Value::Text(s) => {
                buf.push(3);
                s.put(buf);
            }
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(match r.get::<u8>()? {
            0 => Value::Null,
            1 => Value::Int(r.get()?),
            2 => Value::Float(r.get()?),
            3 => Value::Text(r.get()?),
            t => return Err(malformed(format!("bad value tag {t}"))),
        })
    }
}

impl Codec for WriteSetEntry {
    fn put(&self, buf: &mut Vec<u8>) {
        self.table.put(buf);
        self.key.put(buf);
        match &self.op {
            WriteOp::Insert(row) => {
                buf.push(0);
                row.put(buf);
            }
            WriteOp::Update(row) => {
                buf.push(1);
                row.put(buf);
            }
            WriteOp::Delete => buf.push(2),
        }
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(WriteSetEntry {
            table: r.get()?,
            key: r.get()?,
            op: match r.get::<u8>()? {
                0 => WriteOp::Insert(r.get()?),
                1 => WriteOp::Update(r.get()?),
                2 => WriteOp::Delete,
                t => return Err(malformed(format!("bad writeset op tag {t}"))),
            },
        })
    }
}

impl Codec for WriteSet {
    fn put(&self, buf: &mut Vec<u8>) {
        put_seq(buf, self.entries().iter());
    }
    /// Entries go back in through [`WriteSet::push`], as they first did.
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let mut ws = WriteSet::new();
        for _ in 0..r.count()? {
            let e: WriteSetEntry = r.get()?;
            ws.push(e.table, e.key, e.op);
        }
        Ok(ws)
    }
}

impl Codec for ConsistencyMode {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(match self {
            ConsistencyMode::Eager => 0,
            ConsistencyMode::LazyCoarse => 1,
            ConsistencyMode::LazyFine => 2,
            ConsistencyMode::Session => 3,
            ConsistencyMode::Baseline => 4,
        });
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        Ok(match r.get::<u8>()? {
            0 => ConsistencyMode::Eager,
            1 => ConsistencyMode::LazyCoarse,
            2 => ConsistencyMode::LazyFine,
            3 => ConsistencyMode::Session,
            4 => ConsistencyMode::Baseline,
            t => return Err(malformed(format!("bad consistency mode tag {t}"))),
        })
    }
}

impl Codec for Error {
    fn put(&self, buf: &mut Vec<u8>) {
        let (tag, msg) = match self {
            Error::UnknownTable(s) => (0u8, s),
            Error::UnknownColumn(s) => (1, s),
            Error::TableExists(s) => (2, s),
            Error::DuplicateKey(s) => (3, s),
            Error::SchemaMismatch(s) => (4, s),
            Error::CertificationConflict(s) => (5, s),
            Error::EarlyCertificationConflict(s) => (6, s),
            Error::NoSuchTransaction(s) => (7, s),
            Error::SqlParse(s) => (8, s),
            Error::SqlExecution(s) => (9, s),
            Error::Protocol(s) => (10, s),
            Error::Io(s) => (11, s),
            Error::Codec(s) => (12, s),
            Error::Timeout(s) => (13, s),
            Error::ConnectionClosed(s) => (14, s),
            Error::Unavailable(s) => (15, s),
        };
        tag.put(buf);
        msg.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> DecodeResult<Self> {
        let tag: u8 = r.get()?;
        let msg = r.get()?;
        Ok(match tag {
            0 => Error::UnknownTable(msg),
            1 => Error::UnknownColumn(msg),
            2 => Error::TableExists(msg),
            3 => Error::DuplicateKey(msg),
            4 => Error::SchemaMismatch(msg),
            5 => Error::CertificationConflict(msg),
            6 => Error::EarlyCertificationConflict(msg),
            7 => Error::NoSuchTransaction(msg),
            8 => Error::SqlParse(msg),
            9 => Error::SqlExecution(msg),
            10 => Error::Protocol(msg),
            11 => Error::Io(msg),
            12 => Error::Codec(msg),
            13 => Error::Timeout(msg),
            14 => Error::ConnectionClosed(msg),
            15 => Error::Unavailable(msg),
            t => return Err(malformed(format!("bad error tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(v: &impl Codec) -> Vec<u8> {
        let mut buf = Vec::new();
        v.put(&mut buf);
        buf
    }

    #[test]
    fn every_cut_of_a_writeset_is_truncated_never_malformed() {
        let mut ws = WriteSet::new();
        ws.push(
            TableId(1),
            Value::Text("k".into()),
            WriteOp::Insert(vec![Value::Int(1), Value::Null, Value::Float(0.5)]),
        );
        ws.push(TableId(2), Value::Int(9), WriteOp::Delete);
        let bytes = encoded(&ws);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get::<WriteSet>(), Ok(ws));
        assert_eq!(r.finish(), Ok(()));
        for cut in 0..bytes.len() {
            let got = Reader::new(&bytes[..cut]).get::<WriteSet>();
            assert!(
                matches!(got, Err(DecodeError::Truncated { .. })),
                "cut {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn a_count_beyond_the_input_is_refused_before_it_is_reserved() {
        let mut bytes = encoded(&vec![7u64, 8, 9]);
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.get::<Vec<u64>>(),
            Err(DecodeError::Truncated {
                at: 0,
                need: u32::MAX as usize,
                have: 24
            })
        );
        // The same words as a string length, and as a writeset's entries.
        assert!(matches!(
            Reader::new(&bytes).get::<String>(),
            Err(DecodeError::Truncated { .. })
        ));
        assert!(matches!(
            Reader::new(&bytes).get::<WriteSet>(),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn tags_are_strict() {
        fn refused<T: Codec + fmt::Debug>(bytes: &[u8]) {
            let got = Reader::new(bytes).get::<T>();
            assert!(matches!(got, Err(DecodeError::Malformed(_))), "{got:?}");
        }
        refused::<bool>(&[2]);
        refused::<Option<u8>>(&[2, 0xFF]);
        refused::<Value>(&[4]);
        refused::<WriteSet>(&[1, 0, 0, 0, 9, 0, 0, 0, 0, 3]);
        refused::<ConsistencyMode>(&[5]);
        refused::<Error>(&[16, 0, 0, 0, 0]);
        refused::<String>(&[2, 0, 0, 0, 0xC3, 0x28]);
        assert!(Reader::new(&[0]).finish().is_err());
    }
}
