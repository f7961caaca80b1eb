//! Lowercase hex: the one codec for identifiers and DER bodies.
//!
//! Every audit decision and every world-log certificate is named by a
//! hex id, and the world log carries each certificate's DER as hex, so
//! a daemon's view rebuild or a cap rewrite renders hex for every
//! certificate it touches. [`Hex`] therefore writes the digits from a
//! 16-entry table into a stack buffer and hands the formatter one
//! `write_str` per 64 bytes, instead of one formatted write per byte.

use std::fmt;

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Bytes rendered per `write_str`: a 20-byte key id or a 32-byte
/// certificate id goes out in one call.
const CHUNK: usize = 64;

/// Lowercase hex [`Display`](fmt::Display) of a byte slice. It ignores
/// width and precision, so an id renders the same under any format spec.
pub struct Hex<'a>(pub &'a [u8]);

impl fmt::Display for Hex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; 2 * CHUNK];
        for chunk in self.0.chunks(CHUNK) {
            let digits = &mut buf[..2 * chunk.len()];
            for (b, pair) in chunk.iter().zip(digits.chunks_exact_mut(2)) {
                pair[0] = DIGITS[usize::from(b >> 4)];
                pair[1] = DIGITS[usize::from(b & 0x0f)];
            }
            f.write_str(std::str::from_utf8(digits).map_err(|_| fmt::Error)?)?;
        }
        Ok(())
    }
}

/// `bytes` as lowercase hex.
pub fn encode(bytes: &[u8]) -> String {
    use fmt::Write;
    let mut out = String::with_capacity(2 * bytes.len());
    // A `String` takes every write, and the table's digits are ASCII.
    let _ = write!(out, "{}", Hex(bytes));
    out
}

/// Whether `s` is lowercase hex: an even number of `0-9a-f` digits,
/// exactly the strings [`decode`] accepts.
pub fn is_lowercase(s: &str) -> bool {
    // A fold without early exit: the compiler vectorises it, where
    // `all` tested one byte per branch.
    s.len().is_multiple_of(2) && s.bytes().fold(true, |ok, b| ok & digit(b).is_some())
}

/// Decode lowercase hex; `None` on an odd length or any character
/// outside `0-9a-f`, uppercase digits included.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| Some((digit(pair[0])? << 4) | digit(pair[1])?))
        .collect()
}

/// The value of one lowercase hex digit. A byte of a multi-byte UTF-8
/// character is at least 0x80, so non-ASCII text is refused too.
fn digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CertId, KeyId, SerialNumber};
    use proptest::prelude::*;

    /// One formatted write per byte: the kernel's oracle.
    fn per_byte(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    proptest! {
        #[test]
        fn encode_matches_the_per_byte_formatter(
            bytes in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            let hex = encode(&bytes);
            prop_assert_eq!(&hex, &per_byte(&bytes));
            prop_assert!(is_lowercase(&hex));
            prop_assert_eq!(decode(&hex), Some(bytes));
        }

        #[test]
        fn ids_display_as_the_per_byte_formatter(
            cert in prop::array::uniform32(any::<u8>()),
            key in prop::array::uniform20(any::<u8>()),
        ) {
            prop_assert_eq!(CertId::from_bytes(cert).to_string(), per_byte(&cert));
            prop_assert_eq!(KeyId::from_bytes(key).to_string(), per_byte(&key));
            prop_assert_eq!(
                format!("{:?}", KeyId::from_bytes(key)),
                format!("KeyId({}…)", per_byte(&key[..4]))
            );
        }

        #[test]
        fn serials_display_as_32_digits(
            serial in prop_oneof![Just(0u128), Just(u128::MAX), any::<u128>()],
        ) {
            prop_assert_eq!(SerialNumber(serial).to_string(), format!("{serial:032x}"));
        }

        #[test]
        fn decode_accepts_exactly_the_lowercase_strings(s in "[0-9a-fA-Fgx é]{0,9}") {
            let decoded = decode(&s);
            prop_assert_eq!(decoded.is_some(), is_lowercase(&s));
            if let Some(bytes) = decoded {
                prop_assert_eq!(encode(&bytes), s);
            }
        }
    }

    #[test]
    fn display_ignores_width_and_precision() {
        let id = KeyId::from_bytes([0xab; 20]);
        assert_eq!(format!("{id:>50.3}"), "ab".repeat(20));
        assert_eq!(format!("{:>8}", Hex(&[1])), "01");
    }

    #[test]
    fn round_trip() {
        let data = [0u8, 1, 0x7f, 0x80, 0xff];
        let hex = encode(&data);
        assert_eq!(hex, "00017f80ff");
        assert_eq!(decode(&hex).as_deref(), Some(&data[..]));
        assert_eq!(decode(""), Some(Vec::new()));
    }

    #[test]
    fn decode_refuses_what_is_not_lowercase_hex() {
        for bad in [
            "0", "abc", "zz", "0g", "AB", "aB", "0x00", "é", "é0", "０0", " 00",
        ] {
            assert_eq!(decode(bad), None, "{bad:?}");
            assert!(!is_lowercase(bad), "{bad:?}");
        }
    }
}
