//! Minimal little-endian binary wire format for index persistence.
//!
//! The paper's workflow builds indices offline and serves them online
//! (Appendix A.5 steps 7 vs 8); persistence is what connects the two.
//! The format is deliberately simple: length-prefixed primitives, no
//! self-description, a magic header with a version byte per container.
//! Buffers are plain `Vec<u8>` / `&[u8]` — no external byte crates.

use crate::Mat;

/// Errors produced while decoding a persisted index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the expected payload.
    Truncated,
    /// Magic bytes or version did not match.
    BadHeader {
        /// What the decoder expected.
        expected: &'static str,
    },
    /// A length or enum tag was out of range.
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::BadHeader { expected } => write!(f, "bad header, expected {expected}"),
            WireError::Corrupt(msg) => write!(f, "corrupt payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// 64-bit FNV-1a hash — the workspace's page/section checksum. Chosen
/// over CRC because it is a dozen lines of dependency-free code with
/// good avalanche on the byte-flip and truncation corruptions the
/// persistence layer must detect; it is *not* cryptographic.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Sequential writer over a growable buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Writes a magic tag (fixed 8 bytes, padded with zeros) + version.
    pub fn header(&mut self, magic: &str, version: u8) {
        let mut tag = [0u8; 8];
        for (dst, src) in tag.iter_mut().zip(magic.bytes()) {
            *dst = src;
        }
        self.buf.extend_from_slice(&tag);
        self.buf.push(version);
    }

    /// Writes a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32`.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed `f32` slice.
    pub fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        self.buf.reserve(4 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        self.buf.reserve(8 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Writes a matrix (rows, cols, row-major data).
    pub fn mat(&mut self, m: &Mat) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        self.buf.reserve(4 * m.rows() * m.cols());
        for &x in m.as_slice() {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Finishes and returns the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over an immutable buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn need(&self, n: usize) -> Result<(), WireError> {
        if self.buf.len() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Consumes and returns the next `n` bytes; caller must `need` first.
    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        head
    }

    /// Checks a magic tag + version written by [`Writer::header`].
    pub fn header(&mut self, magic: &'static str, version: u8) -> Result<(), WireError> {
        self.need(9)?;
        let tag = self.take(8);
        let mut expected = [0u8; 8];
        for (dst, src) in expected.iter_mut().zip(magic.bytes()) {
            *dst = src;
        }
        let v = self.take(1)[0];
        if tag != expected || v != version {
            return Err(WireError::BadHeader { expected: magic });
        }
        Ok(())
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.take(1)[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(u32::from_le_bytes(self.take(4).try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(u64::from_le_bytes(self.take(8).try_into().unwrap()))
    }

    /// Reads an `f32`.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        self.need(4)?;
        Ok(f32::from_le_bytes(self.take(4).try_into().unwrap()))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.need(8)?;
        Ok(f64::from_le_bytes(self.take(8).try_into().unwrap()))
    }

    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u64()? as usize;
        // Guard against hostile lengths before allocating.
        if n.checked_mul(elem_size)
            .is_none_or(|total| total > self.buf.len())
        {
            return Err(WireError::Corrupt(format!("length {n} exceeds buffer")));
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte vector.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.len_prefix(1)?;
        Ok(self.take(n).to_vec())
    }

    /// Reads a length-prefixed `f32` vector.
    pub fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.len_prefix(4)?;
        Ok(self
            .take(4 * n)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.len_prefix(8)?;
        Ok(self
            .take(8 * n)
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a matrix written by [`Writer::mat`].
    pub fn mat(&mut self) -> Result<Mat, WireError> {
        let rows = self.u64()? as usize;
        let cols = self.u64()? as usize;
        let total = rows
            .checked_mul(cols)
            .ok_or_else(|| WireError::Corrupt("matrix shape overflow".into()))?;
        if total.checked_mul(4).is_none_or(|b| b > self.buf.len()) {
            return Err(WireError::Corrupt(format!(
                "matrix {rows}x{cols} exceeds buffer"
            )));
        }
        let data = self
            .take(4 * total)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Mat::from_flat(rows, cols, data))
    }

    /// Whether the whole buffer was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Types that can append themselves to a [`Writer`].
pub trait WireEncode {
    /// Appends this value's encoding to `w`.
    fn encode_wire(&self, w: &mut Writer);
}

/// Types that can reconstruct themselves from a [`Reader`].
pub trait WireDecode: Sized {
    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation, bad tags or corrupt lengths.
    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl WireEncode for Mat {
    fn encode_wire(&self, w: &mut Writer) {
        w.mat(self);
    }
}

impl WireDecode for Mat {
    fn decode_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.mat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.header("TEST", 3);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f32(1.25);
        w.f64(-2.5);
        w.bytes(&[1, 2, 3]);
        w.f32s(&[0.5, -0.5]);
        w.u64s(&[9, 8]);
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        r.header("TEST", 3).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), 1.25);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.f32s().unwrap(), vec![0.5, -0.5]);
        assert_eq!(r.u64s().unwrap(), vec![9, 8]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn mat_round_trips() {
        let m = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut w = Writer::new();
        w.mat(&m);
        let buf = w.finish();
        let got = Reader::new(&buf).mat().unwrap();
        assert_eq!(got, m);
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut w = Writer::new();
        w.header("AAAA", 1);
        let buf = w.finish();
        let err = Reader::new(&buf).header("BBBB", 1).unwrap_err();
        assert!(matches!(err, WireError::BadHeader { .. }));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut w = Writer::new();
        w.header("AAAA", 1);
        let buf = w.finish();
        assert!(Reader::new(&buf).header("AAAA", 2).is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = Writer::new();
        w.u64s(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..10]);
        assert!(r.u64s().is_err());
    }

    #[test]
    fn checksum64_detects_single_byte_flips() {
        let base = b"hermes paged store".to_vec();
        let h = checksum64(&base);
        // Known FNV-1a property: empty input hashes to the offset basis.
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 0x01;
            assert_ne!(checksum64(&flipped), h, "flip at {i} undetected");
        }
        // Truncation by one byte changes the hash too.
        assert_ne!(checksum64(&base[..base.len() - 1]), h);
    }

    #[test]
    fn hostile_length_does_not_allocate() {
        let mut w = Writer::new();
        w.u64(u64::MAX); // absurd length prefix
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.f32s(), Err(WireError::Corrupt(_))));
    }
}
