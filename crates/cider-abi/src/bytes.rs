//! The one little-endian byte codec of the reproduction.
//!
//! Every binary format that crosses a boundary is written with
//! [`ByteWriter`] and read back with [`ByteReader`]: Mach-O, ELF and
//! dex images, Mach trap buffers, the input bridge and HID bodies, IPA
//! packages and checkpoint frames. Integers are little-endian with no
//! padding or alignment; a *bytes* or *str* field is a `u32` length
//! followed by that many bytes.
//!
//! A reader is built with the error its format reports on truncation
//! (`ENOEXEC` for an image, `EFAULT` for a trap buffer, ...), so a
//! decoder propagates it with `?` and cannot read out of bounds.
//! Bounds that belong to one format — string caps, count caps — stay
//! with that format's decoder.
//!
//! ```
//! use cider_abi::bytes::{ByteReader, ByteWriter};
//! use cider_abi::errno::Errno;
//!
//! let mut w = ByteWriter::new();
//! w.put_u16(7);
//! w.put_str("dyld");
//! let bytes = w.into_bytes();
//!
//! let mut r = ByteReader::new(&bytes, Errno::ENOEXEC);
//! assert_eq!(r.u16(), Ok(7));
//! assert_eq!(r.str().as_deref(), Ok("dyld"));
//! assert_eq!(r.u8(), Err(Errno::ENOEXEC));
//! ```

/// Appends little-endian values to a byte buffer. Its methods are
/// `#[inline]`: encoders in other crates call them once per field.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[inline]
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with room for `n` bytes.
    #[inline]
    pub fn with_capacity(n: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(n),
        }
    }

    /// Finishes and returns the encoded bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes with no length prefix (magics, fixed arrays).
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put_raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Reads little-endian values back out of a byte slice. A read that
/// would run past the end returns the error the reader was built with
/// and consumes nothing.
#[derive(Debug, Clone)]
pub struct ByteReader<'a, E> {
    rest: &'a [u8],
    err: E,
}

impl<'a, E: Clone> ByteReader<'a, E> {
    /// A reader over `buf` that fails with `err` on truncation.
    pub fn new(buf: &'a [u8], err: E) -> ByteReader<'a, E> {
        ByteReader { rest: buf, err }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], E> {
        let (out, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or_else(|| self.err.clone())?;
        self.rest = rest;
        Ok(out)
    }

    /// Reads a fixed-size byte array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], E> {
        let raw = self.raw(N)?;
        raw.try_into().map_err(|_| self.err.clone())
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], E> {
        let n = self.u32()? as usize;
        self.raw(n)
    }

    /// Reads a length-prefixed UTF-8 string; invalid UTF-8 is the
    /// reader's error too.
    pub fn str(&mut self) -> Result<String, E> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| self.err.clone())
    }
}

/// One `put_*` writer method and one reader method per integer type.
macro_rules! le_ints {
    ($($t:ident => $put:ident),* $(,)?) => {
        impl ByteWriter {
            $(
                #[doc = concat!("Appends a little-endian `", stringify!($t), "`.")]
                #[inline]
                pub fn $put(&mut self, v: $t) {
                    self.buf.extend_from_slice(&v.to_le_bytes());
                }
            )*
        }

        impl<E: Clone> ByteReader<'_, E> {
            $(
                #[doc = concat!("Reads a little-endian `", stringify!($t), "`.")]
                pub fn $t(&mut self) -> Result<$t, E> {
                    self.array().map($t::from_le_bytes)
                }
            )*
        }
    };
}

le_ints!(
    u8 => put_u8,
    u16 => put_u16,
    u32 => put_u32,
    i32 => put_i32,
    u64 => put_u64,
    i64 => put_i64,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives() {
        let mut w = ByteWriter::with_capacity(64);
        w.put_raw(b"CK");
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(7);
        w.put_i32(-7);
        w.put_u64(u64::MAX);
        w.put_i64(i64::MIN);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes, ());
        assert_eq!(r.raw(2), Ok(&b"CK"[..]));
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(7));
        assert_eq!(r.i32(), Ok(-7));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.i64(), Ok(i64::MIN));
        assert_eq!(r.str().as_deref(), Ok("héllo"));
        assert_eq!(r.bytes(), Ok(&[1u8, 2, 3][..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_reads_none_not_panic() {
        let mut w = ByteWriter::new();
        w.put_str("long enough payload");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut], "short");
            assert_eq!(r.str(), Err("short"), "cut at {cut}");
        }
        let mut r = ByteReader::new(&[0xFF, 0xFE][..], "short");
        assert_eq!(r.u32(), Err("short"));
        assert_eq!(r.raw(usize::MAX), Err("short"));
        assert_eq!(r.remaining(), 2, "a failed read consumes nothing");
        assert_eq!(r.u16(), Ok(0xFEFF));
        let mut r = ByteReader::new(&[1, 0, 0, 0, 0xFF][..], "bad");
        assert_eq!(r.str(), Err("bad"), "invalid UTF-8");
    }

    #[test]
    fn encoding_is_byte_stable() {
        let encode = || {
            let mut w = ByteWriter::new();
            w.put_u64(42);
            w.put_str("stable");
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
        let mut want = vec![42, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0];
        want.extend_from_slice(b"stable");
        assert_eq!(encode(), want);
    }
}
