//! The compact binary codec for user data types.
//!
//! Vertex values, edge values, messages, and global-aggregate values all
//! cross operator, network, and disk boundaries as raw bytes. The
//! [`Writable`] trait is the single codec used everywhere — the same role
//! Hadoop's `Writable` interface played in the Java Pregelix API.
//!
//! Encodings are little-endian and fixed-width for numeric scalars, and
//! `u32`-length-prefixed for variable-width values. The codec is
//! deliberately *not* self-describing: every dataflow edge has a known
//! schema, so tags would be pure overhead in the hot path.

use crate::error::{PregelixError, Result};

/// A value that can be written to / read from a byte stream.
///
/// Implementations must round-trip: `read(&write(v)) == v`.
pub trait Writable: Sized + Clone + Send + Sync + 'static {
    /// `Some(w)` when every value of the type encodes to exactly `w` bytes
    /// (numeric scalars, `bool`, `()` and tuples of such); `None`, the
    /// default, for anything length-prefixed or tagged. The sender-side
    /// fold table of `core::superstep` keeps one accumulator per vertex id
    /// only for message types that declare a width.
    const FIXED_WIDTH: Option<usize> = None;

    /// Append the encoding of `self` to `out`.
    fn write(&self, out: &mut Vec<u8>);

    /// Decode a value from the front of `buf`, advancing it past the
    /// consumed bytes.
    fn read(buf: &mut &[u8]) -> Result<Self>;

    /// Encode into a fresh buffer. Convenience for cold paths.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }

    /// Decode from a complete buffer, requiring full consumption.
    fn from_bytes(mut buf: &[u8]) -> Result<Self> {
        let v = Self::read(&mut buf)?;
        if !buf.is_empty() {
            return Err(PregelixError::corrupt(format!(
                "{} trailing bytes after decode",
                buf.len()
            )));
        }
        Ok(v)
    }
}

/// Width of a tuple whose fields all have one.
const fn sum_widths(widths: &[Option<usize>]) -> Option<usize> {
    let mut total = 0;
    let mut i = 0;
    while i < widths.len() {
        match widths[i] {
            Some(w) => total += w,
            None => return None,
        }
        i += 1;
    }
    Some(total)
}

#[inline]
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(PregelixError::corrupt(format!(
            "need {n} bytes, have {}",
            buf.len()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

macro_rules! impl_writable_num {
    ($($t:ty),*) => {$(
        impl Writable for $t {
            const FIXED_WIDTH: Option<usize> = Some(std::mem::size_of::<$t>());
            #[inline]
            fn write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read(buf: &mut &[u8]) -> Result<Self> {
                let b = take(buf, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().expect("sized slice")))
            }
        }
    )*};
}

impl_writable_num!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl Writable for bool {
    const FIXED_WIDTH: Option<usize> = Some(1);
    #[inline]
    fn write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn read(buf: &mut &[u8]) -> Result<Self> {
        match take(buf, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PregelixError::corrupt(format!("bad bool byte {b}"))),
        }
    }
}

impl Writable for () {
    const FIXED_WIDTH: Option<usize> = Some(0);
    #[inline]
    fn write(&self, _out: &mut Vec<u8>) {}
    #[inline]
    fn read(_buf: &mut &[u8]) -> Result<Self> {
        Ok(())
    }
}

impl Writable for String {
    fn write(&self, out: &mut Vec<u8>) {
        (self.len() as u32).write(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        let n = u32::read(buf)? as usize;
        let b = take(buf, n)?;
        String::from_utf8(b.to_vec())
            .map_err(|e| PregelixError::corrupt(format!("invalid utf-8: {e}")))
    }
}

impl<T: Writable> Writable for Vec<T> {
    fn write(&self, out: &mut Vec<u8>) {
        (self.len() as u32).write(out);
        for v in self {
            v.write(out);
        }
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        let n = u32::read(buf)? as usize;
        // Guard against corrupt huge lengths: each element costs >= 0 bytes,
        // but we cap the pre-allocation rather than trusting the header.
        let mut v = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            v.push(T::read(buf)?);
        }
        Ok(v)
    }
}

impl<T: Writable> Writable for Option<T> {
    fn write(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.write(out);
            }
        }
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        match take(buf, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::read(buf)?)),
            b => Err(PregelixError::corrupt(format!("bad option tag {b}"))),
        }
    }
}

impl<A: Writable, B: Writable> Writable for (A, B) {
    const FIXED_WIDTH: Option<usize> = sum_widths(&[A::FIXED_WIDTH, B::FIXED_WIDTH]);
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok((A::read(buf)?, B::read(buf)?))
    }
}

impl<A: Writable, B: Writable, C: Writable> Writable for (A, B, C) {
    const FIXED_WIDTH: Option<usize> =
        sum_widths(&[A::FIXED_WIDTH, B::FIXED_WIDTH, C::FIXED_WIDTH]);
    fn write(&self, out: &mut Vec<u8>) {
        self.0.write(out);
        self.1.write(out);
        self.2.write(out);
    }
    fn read(buf: &mut &[u8]) -> Result<Self> {
        Ok((A::read(buf)?, B::read(buf)?, C::read(buf)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Writable + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(3.5f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(true);
        roundtrip(());
        roundtrip("héllo".to_string());
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7.25f64));
        roundtrip(Option::<f64>::None);
        roundtrip((42u64, "edge".to_string()));
        roundtrip((1u64, 2.0f64, vec![3u32]));
    }

    fn width_matches<T: Writable>(v: T) {
        assert_eq!(T::FIXED_WIDTH, Some(v.to_bytes().len()));
    }

    #[test]
    fn fixed_width_is_the_encoded_length_or_absent() {
        width_matches(7u8);
        width_matches(-3i128);
        width_matches(2.5f32);
        width_matches(f64::MAX);
        width_matches(true);
        width_matches(());
        width_matches((1u64, 2u64));
        width_matches((1u8, 2.0f64, false));
        assert_eq!(String::FIXED_WIDTH, None);
        assert_eq!(Vec::<u64>::FIXED_WIDTH, None);
        assert_eq!(Option::<u64>::FIXED_WIDTH, None);
        assert_eq!(<(u64, String)>::FIXED_WIDTH, None);
        assert_eq!(<(u64, (), Vec<u8>)>::FIXED_WIDTH, None);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0xFF);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = u64::MAX.to_bytes();
        assert!(u64::from_bytes(&bytes[..4]).is_err());
        assert!(String::from_bytes(&[10, 0, 0, 0, b'a']).is_err());
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u8>::from_bytes(&[9]).is_err());
    }

    #[test]
    fn corrupt_vec_length_does_not_overallocate() {
        // Header claims 4 billion elements but the buffer is tiny: decoding
        // must fail gracefully rather than OOM on `with_capacity`.
        let bytes = (u32::MAX).to_bytes();
        assert!(Vec::<u64>::from_bytes(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_u64_roundtrip(v: u64) { roundtrip(v); }

        #[test]
        fn prop_f64_roundtrip(v in proptest::num::f64::ANY.prop_filter("nan", |f| !f.is_nan())) {
            roundtrip(v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".*") { roundtrip(s); }

        #[test]
        fn prop_vec_pairs_roundtrip(v in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..64)) {
            roundtrip(v);
        }

        #[test]
        fn prop_sequential_decode(a: u64, b: f64, c: bool) {
            prop_assume!(!b.is_nan());
            let mut out = Vec::new();
            a.write(&mut out);
            b.write(&mut out);
            c.write(&mut out);
            let mut buf = &out[..];
            prop_assert_eq!(u64::read(&mut buf).unwrap(), a);
            prop_assert_eq!(f64::read(&mut buf).unwrap(), b);
            prop_assert_eq!(bool::read(&mut buf).unwrap(), c);
            prop_assert!(buf.is_empty());
        }
    }
}
