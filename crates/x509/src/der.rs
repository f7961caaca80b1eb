//! DER-style TLV encoding.
//!
//! A compact subset of BER/DER: every value is `tag || length || content`
//! with definite lengths (short form < 128, long form otherwise), and
//! constructed values nest encoded children in their content octets. Tags
//! match the universal ASN.1 numbers for the types we use so encodings look
//! like real DER on the wire, without implementing the full ASN.1 zoo.

use std::fmt;

/// Universal tags used by the certificate encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Tag {
    /// BOOLEAN (0x01).
    Boolean = 0x01,
    /// INTEGER (0x02).
    Integer = 0x02,
    /// OCTET STRING (0x04).
    OctetString = 0x04,
    /// NULL (0x05).
    Null = 0x05,
    /// UTF8String (0x0C).
    Utf8String = 0x0C,
    /// SEQUENCE (constructed, 0x30).
    Sequence = 0x30,
    /// SET (constructed, 0x31).
    Set = 0x31,
    /// Context-specific `[0]`, constructed (0xA0) — used for explicit tags.
    Context0 = 0xA0,
    /// Context-specific `[1]`, constructed (0xA1).
    Context1 = 0xA1,
    /// Context-specific `[2]`, constructed (0xA2).
    Context2 = 0xA2,
}

impl Tag {
    fn from_byte(b: u8) -> Result<Tag, DerError> {
        Ok(match b {
            0x01 => Tag::Boolean,
            0x02 => Tag::Integer,
            0x04 => Tag::OctetString,
            0x05 => Tag::Null,
            0x0C => Tag::Utf8String,
            0x30 => Tag::Sequence,
            0x31 => Tag::Set,
            0xA0 => Tag::Context0,
            0xA1 => Tag::Context1,
            0xA2 => Tag::Context2,
            _ => return Err(DerError::UnknownTag(b)),
        })
    }
}

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerError {
    /// Input ended before a complete TLV.
    Truncated,
    /// Tag byte not in our subset.
    UnknownTag(u8),
    /// Length octets malformed (e.g. >8-byte length).
    BadLength,
    /// Expected one tag, found another.
    UnexpectedTag {
        /// What the caller wanted.
        expected: Tag,
        /// What was present.
        found: Tag,
    },
    /// Content bytes invalid for the tag (e.g. bad UTF-8, empty INTEGER).
    BadContent(&'static str),
    /// Trailing bytes after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for DerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DerError::Truncated => write!(f, "truncated DER input"),
            DerError::UnknownTag(b) => write!(f, "unknown DER tag 0x{b:02x}"),
            DerError::BadLength => write!(f, "malformed DER length"),
            DerError::UnexpectedTag { expected, found } => {
                write!(f, "expected {expected:?}, found {found:?}")
            }
            DerError::BadContent(what) => write!(f, "bad DER content: {what}"),
            DerError::TrailingBytes(n) => write!(f, "{n} trailing bytes after DER value"),
        }
    }
}

impl std::error::Error for DerError {}

/// Append a TLV with `tag` and raw `content` to `out`.
pub fn write_tlv(out: &mut Vec<u8>, tag: Tag, content: &[u8]) {
    out.push(tag as u8);
    let (octets, n) = length_octets(content.len());
    out.extend_from_slice(&octets[..n]);
    out.extend_from_slice(content);
}

/// The definite-length octets for `len` and how many of them are used:
/// the short form below 128, otherwise `0x80 | count` followed by the
/// minimal big-endian length.
fn length_octets(len: usize) -> ([u8; 9], usize) {
    let mut octets = [0u8; 9];
    if len < 0x80 {
        octets[0] = len as u8;
        return (octets, 1);
    }
    let bytes = (len as u64).to_be_bytes();
    let skip = bytes.iter().take_while(|&&b| b == 0).count();
    let sig = &bytes[skip..];
    octets[0] = 0x80 | sig.len() as u8;
    octets[1..=sig.len()].copy_from_slice(sig);
    (octets, sig.len() + 1)
}

/// An encoder for one constructed value; children append to the buffer and
/// the whole value is wrapped on [`Encoder::finish`]. Nested values are
/// written in place: [`Encoder::constructed`] reserves one length octet,
/// lets the children append after it, and patches the length in.
pub struct Encoder {
    buf: Vec<u8>,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Append an unsigned integer (minimal big-endian, leading 0x00 when
    /// the high bit is set, as DER requires).
    pub fn uint(&mut self, value: u128) -> &mut Self {
        let bytes = value.to_be_bytes();
        let skip = bytes.iter().take_while(|&&b| b == 0).count().min(15);
        let pad = bytes[skip] & 0x80 != 0;
        self.buf.push(Tag::Integer as u8);
        self.buf.push((16 - skip + usize::from(pad)) as u8);
        if pad {
            self.buf.push(0);
        }
        self.buf.extend_from_slice(&bytes[skip..]);
        self
    }

    /// Append a signed 64-bit integer.
    pub fn int(&mut self, value: i64) -> &mut Self {
        let bytes = value.to_be_bytes();
        // Trim redundant leading sign bytes.
        let mut start = 0;
        while start < 7 {
            let cur = bytes[start];
            let next = bytes[start + 1];
            let redundant = (cur == 0x00 && next & 0x80 == 0) || (cur == 0xFF && next & 0x80 != 0);
            if redundant {
                start += 1;
            } else {
                break;
            }
        }
        write_tlv(&mut self.buf, Tag::Integer, &bytes[start..]);
        self
    }

    /// Append a boolean.
    pub fn boolean(&mut self, value: bool) -> &mut Self {
        write_tlv(
            &mut self.buf,
            Tag::Boolean,
            &[if value { 0xFF } else { 0x00 }],
        );
        self
    }

    /// Append an octet string.
    pub fn octets(&mut self, value: &[u8]) -> &mut Self {
        write_tlv(&mut self.buf, Tag::OctetString, value);
        self
    }

    /// Append a UTF-8 string.
    pub fn utf8(&mut self, value: &str) -> &mut Self {
        write_tlv(&mut self.buf, Tag::Utf8String, value.as_bytes());
        self
    }

    /// Append NULL.
    pub fn null(&mut self) -> &mut Self {
        write_tlv(&mut self.buf, Tag::Null, &[]);
        self
    }

    /// Append a nested constructed value built by `f`. The children are
    /// written into this encoder's buffer after a one-octet length
    /// placeholder; content of 128 bytes or more shifts right to make
    /// room for the long-form length.
    pub fn constructed(&mut self, tag: Tag, f: impl FnOnce(&mut Encoder)) -> &mut Self {
        self.buf.push(tag as u8);
        self.buf.push(0);
        let start = self.buf.len();
        f(self);
        let end = self.buf.len();
        let (octets, n) = length_octets(end - start);
        if n > 1 {
            self.buf.resize(end + n - 1, 0);
            self.buf.copy_within(start..end, start + n - 1);
        }
        self.buf[start - 1..start - 1 + n].copy_from_slice(&octets[..n]);
        self
    }

    /// Append a pre-encoded value verbatim.
    pub fn raw(&mut self, der: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(der);
        self
    }

    /// Wrap everything encoded so far in `tag` and return the bytes.
    pub fn finish(self, tag: Tag) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + 4);
        write_tlv(&mut out, tag, &self.buf);
        out
    }

    /// Return the raw concatenated children without an outer wrapper.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

/// A borrowing decoder over DER bytes.
pub struct Decoder<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Decoder { input, pos: 0 }
    }

    /// Whether all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Peek at the next tag without consuming.
    pub fn peek_tag(&self) -> Result<Tag, DerError> {
        let b = *self.input.get(self.pos).ok_or(DerError::Truncated)?;
        Tag::from_byte(b)
    }

    fn read_header(&mut self) -> Result<(Tag, usize), DerError> {
        let tag = self.peek_tag()?;
        self.pos += 1;
        let first = *self.input.get(self.pos).ok_or(DerError::Truncated)?;
        self.pos += 1;
        let len = if first < 0x80 {
            first as usize
        } else {
            let n = (first & 0x7F) as usize;
            if n == 0 || n > 8 {
                return Err(DerError::BadLength);
            }
            let bytes = self
                .input
                .get(self.pos..self.pos + n)
                .ok_or(DerError::Truncated)?;
            self.pos += n;
            let mut v: u64 = 0;
            for &b in bytes {
                v = (v << 8) | b as u64;
            }
            usize::try_from(v).map_err(|_| DerError::BadLength)?
        };
        Ok((tag, len))
    }

    /// Consume the next TLV, returning `(tag, content)`.
    pub fn any(&mut self) -> Result<(Tag, &'a [u8]), DerError> {
        let (tag, len) = self.read_header()?;
        let end = self.pos.checked_add(len).ok_or(DerError::Truncated)?;
        let content = self.input.get(self.pos..end).ok_or(DerError::Truncated)?;
        self.pos = end;
        Ok((tag, content))
    }

    /// Consume a TLV, requiring `tag`.
    pub fn take(&mut self, tag: Tag) -> Result<&'a [u8], DerError> {
        let found = self.peek_tag()?;
        if found != tag {
            return Err(DerError::UnexpectedTag {
                expected: tag,
                found,
            });
        }
        Ok(self.any()?.1)
    }

    /// Consume a constructed value and return a decoder over its content.
    pub fn nested(&mut self, tag: Tag) -> Result<Decoder<'a>, DerError> {
        Ok(Decoder::new(self.take(tag)?))
    }

    /// Consume an INTEGER as u128.
    pub fn uint(&mut self) -> Result<u128, DerError> {
        let content = self.take(Tag::Integer)?;
        if content.is_empty() || content.len() > 17 {
            return Err(DerError::BadContent("integer size"));
        }
        let mut v: u128 = 0;
        for (i, &b) in content.iter().enumerate() {
            if i == 0 && b == 0 {
                continue; // sign pad
            }
            if v >> 120 != 0 {
                return Err(DerError::BadContent("integer overflow"));
            }
            v = (v << 8) | b as u128;
        }
        Ok(v)
    }

    /// Consume an INTEGER as i64.
    pub fn int(&mut self) -> Result<i64, DerError> {
        let content = self.take(Tag::Integer)?;
        if content.is_empty() || content.len() > 8 {
            return Err(DerError::BadContent("integer size"));
        }
        let negative = content[0] & 0x80 != 0;
        let mut v: i64 = if negative { -1 } else { 0 };
        for &b in content {
            v = (v << 8) | b as i64;
        }
        Ok(v)
    }

    /// Consume a BOOLEAN.
    pub fn boolean(&mut self) -> Result<bool, DerError> {
        let content = self.take(Tag::Boolean)?;
        match content {
            [0x00] => Ok(false),
            [_] => Ok(true),
            _ => Err(DerError::BadContent("boolean length")),
        }
    }

    /// Consume an OCTET STRING.
    pub fn octets(&mut self) -> Result<&'a [u8], DerError> {
        self.take(Tag::OctetString)
    }

    /// Consume a UTF8String.
    pub fn utf8(&mut self) -> Result<&'a str, DerError> {
        let content = self.take(Tag::Utf8String)?;
        std::str::from_utf8(content).map_err(|_| DerError::BadContent("invalid utf-8"))
    }

    /// Consume NULL.
    pub fn null(&mut self) -> Result<(), DerError> {
        let content = self.take(Tag::Null)?;
        if content.is_empty() {
            Ok(())
        } else {
            Err(DerError::BadContent("non-empty NULL"))
        }
    }

    /// Fail if any bytes remain.
    pub fn finish(&self) -> Result<(), DerError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DerError::TrailingBytes(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_uint(v: u128) {
        let mut e = Encoder::new();
        e.uint(v);
        let bytes = e.into_inner();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.uint().unwrap(), v);
        d.finish().unwrap();
    }

    #[test]
    fn uint_roundtrips() {
        for v in [
            0u128,
            1,
            127,
            128,
            255,
            256,
            0xDEADBEEF,
            u64::MAX as u128,
            u128::MAX >> 8,
        ] {
            roundtrip_uint(v);
        }
    }

    #[test]
    fn uint_minimal_encoding() {
        let mut e = Encoder::new();
        e.uint(127);
        assert_eq!(e.into_inner(), vec![0x02, 0x01, 0x7F]);
        // 128 needs a sign pad.
        let mut e = Encoder::new();
        e.uint(128);
        assert_eq!(e.into_inner(), vec![0x02, 0x02, 0x00, 0x80]);
    }

    #[test]
    fn int_roundtrips() {
        for v in [0i64, 1, -1, 127, 128, -128, -129, i64::MAX, i64::MIN, 19489] {
            let mut e = Encoder::new();
            e.int(v);
            let bytes = e.into_inner();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.int().unwrap(), v, "value {v}");
            d.finish().unwrap();
        }
    }

    #[test]
    fn long_form_length() {
        let payload = vec![0xAB; 300];
        let mut e = Encoder::new();
        e.octets(&payload);
        let bytes = e.into_inner();
        // 0x04, 0x82, 0x01, 0x2C then content.
        assert_eq!(&bytes[..4], &[0x04, 0x82, 0x01, 0x2C]);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.octets().unwrap(), &payload[..]);
    }

    #[test]
    fn nested_sequences() {
        let mut e = Encoder::new();
        e.constructed(Tag::Sequence, |s| {
            s.uint(7);
            s.utf8("foo.com");
            s.constructed(Tag::Context0, |c| {
                c.boolean(true);
            });
        });
        let bytes = e.into_inner();
        let mut d = Decoder::new(&bytes);
        let mut seq = d.nested(Tag::Sequence).unwrap();
        assert_eq!(seq.uint().unwrap(), 7);
        assert_eq!(seq.utf8().unwrap(), "foo.com");
        let mut ctx = seq.nested(Tag::Context0).unwrap();
        assert!(ctx.boolean().unwrap());
        ctx.finish().unwrap();
        seq.finish().unwrap();
        d.finish().unwrap();
    }

    /// `constructed` at content lengths on both sides of every length-form
    /// boundary, nested two deep, equals the `write_tlv` composition byte
    /// for byte and decodes back.
    #[test]
    fn constructed_matches_write_tlv_at_length_boundaries() {
        for len in [0usize, 127, 128, 255, 256, 65_535, 65_536] {
            // The [0] value holds one OCTET STRING whose whole TLV is
            // `len` bytes long (nothing at all for 0).
            let payload = (len > 0).then(|| {
                let n = (0..len)
                    .find(|&n| 1 + length_octets(n).1 + n == len)
                    .expect("an OCTET STRING of this total length exists");
                (0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>()
            });
            let mut e = Encoder::new();
            e.uint(9);
            e.constructed(Tag::Sequence, |outer| {
                outer.utf8("x");
                outer.constructed(Tag::Context0, |inner| {
                    if let Some(payload) = &payload {
                        inner.octets(payload);
                    }
                });
                outer.boolean(true);
            });
            let got = e.into_inner();

            let mut inner = Vec::new();
            if let Some(payload) = &payload {
                write_tlv(&mut inner, Tag::OctetString, payload);
            }
            assert_eq!(inner.len(), len, "inner content length");
            let mut outer = Vec::new();
            write_tlv(&mut outer, Tag::Utf8String, b"x");
            write_tlv(&mut outer, Tag::Context0, &inner);
            write_tlv(&mut outer, Tag::Boolean, &[0xFF]);
            let mut want = Vec::new();
            write_tlv(&mut want, Tag::Integer, &[9]);
            write_tlv(&mut want, Tag::Sequence, &outer);
            assert_eq!(got, want, "content length {len}");

            let mut d = Decoder::new(&got);
            assert_eq!(d.uint().unwrap(), 9);
            let mut seq = d.nested(Tag::Sequence).unwrap();
            assert_eq!(seq.utf8().unwrap(), "x");
            let mut ctx = seq.nested(Tag::Context0).unwrap();
            assert_eq!(ctx.remaining(), len);
            if let Some(payload) = &payload {
                assert_eq!(ctx.octets().unwrap(), &payload[..]);
            }
            ctx.finish().unwrap();
            assert!(seq.boolean().unwrap());
            seq.finish().unwrap();
            d.finish().unwrap();
        }
    }

    #[test]
    fn decode_errors() {
        assert_eq!(Decoder::new(&[]).peek_tag(), Err(DerError::Truncated));
        assert_eq!(
            Decoder::new(&[0x7E, 0x00]).peek_tag(),
            Err(DerError::UnknownTag(0x7E))
        );
        // Declared length exceeds input.
        let mut d = Decoder::new(&[0x04, 0x05, 0x01]);
        assert_eq!(d.octets(), Err(DerError::Truncated));
        // A long-form length near usize::MAX: the content end overflows.
        let huge = [0x04, 0x88, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff];
        assert_eq!(Decoder::new(&huge).any(), Err(DerError::Truncated));
        // Wrong tag.
        let mut e = Encoder::new();
        e.uint(1);
        let bytes = e.into_inner();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.octets(), Err(DerError::UnexpectedTag { .. })));
        // Trailing bytes.
        let mut two = bytes.clone();
        two.extend_from_slice(&bytes);
        let mut d = Decoder::new(&two);
        d.uint().unwrap();
        assert_eq!(d.finish(), Err(DerError::TrailingBytes(3)));
    }

    #[test]
    fn boolean_content_validation() {
        let mut d = Decoder::new(&[0x01, 0x02, 0x00, 0x00]);
        assert!(matches!(d.boolean(), Err(DerError::BadContent(_))));
        let mut d = Decoder::new(&[0x01, 0x01, 0xFF]);
        assert!(d.boolean().unwrap());
    }

    #[test]
    fn null_roundtrip() {
        let mut e = Encoder::new();
        e.null();
        let bytes = e.into_inner();
        let mut d = Decoder::new(&bytes);
        d.null().unwrap();
        d.finish().unwrap();
    }
}
