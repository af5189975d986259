//! The hex tokens of both wire codecs, through one nibble table each way.
//!
//! Every `f64` on the wire is its IEEE-754 bit pattern as exactly 16
//! lowercase hex digits (the `{:016x}` form), and every tree is its
//! checkpoint-codec bytes as two lowercase digits per byte. Encoders
//! append digits to the document being built, with no allocation per
//! token; decoders read bytes, never `&str` slices, so a token holding a
//! multibyte character is rejected like any other non-digit instead of
//! panicking on a char boundary. Only the canonical form is accepted: no
//! sign, no uppercase, no short or long tokens.

/// The digit of each nibble.
const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a canonical digit in [`NIBBLE`].
const NOT_HEX: u8 = 0xff;

/// The nibble of each byte, or [`NOT_HEX`].
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < DIGITS.len() {
        table[DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Appends `bits` as 16 digits, most significant first.
pub(crate) fn push_u64(out: &mut String, bits: u64) {
    for shift in (0..16).rev() {
        out.push(DIGITS[((bits >> (4 * shift)) & 0xf) as usize] as char);
    }
}

/// Appends each byte of `bytes` as two digits.
pub(crate) fn push_bytes(out: &mut String, bytes: &[u8]) {
    out.reserve(2 * bytes.len());
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xf)] as char);
    }
}

/// Parses exactly 16 digits, the form [`push_u64`] writes.
pub(crate) fn parse_u64(tok: &str) -> Option<u64> {
    let bytes = tok.as_bytes();
    if bytes.len() != 16 {
        return None;
    }
    let mut bits = 0u64;
    let mut seen = 0u8;
    for &b in bytes {
        let nibble = NIBBLE[usize::from(b)];
        seen |= nibble;
        bits = (bits << 4) | u64::from(nibble & 0xf);
    }
    (seen & 0xf0 == 0).then_some(bits)
}

/// Parses an even number of digits back to the bytes [`push_bytes`]
/// wrote.
pub(crate) fn parse_bytes(hex: &str) -> Option<Vec<u8>> {
    let digits = hex.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(digits.len() / 2);
    let mut seen = 0u8;
    for pair in digits.chunks_exact(2) {
        let (hi, lo) = (NIBBLE[usize::from(pair[0])], NIBBLE[usize::from(pair[1])]);
        seen |= hi | lo;
        out.push((hi << 4) | (lo & 0xf));
    }
    (seen & 0xf0 == 0).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_tokens_match_the_format_macro() {
        for bits in [
            0,
            1,
            0xf,
            0x3ff0_0000_0000_0000,
            0x0123_4567_89ab_cdef,
            u64::MAX,
        ] {
            let mut s = String::new();
            push_u64(&mut s, bits);
            assert_eq!(s, format!("{bits:016x}"));
            assert_eq!(parse_u64(&s), Some(bits));
        }
    }

    #[test]
    fn byte_tokens_match_the_format_macro() {
        let bytes: Vec<u8> = (0..=255).collect();
        let mut s = String::new();
        push_bytes(&mut s, &bytes);
        let expected: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(s, expected);
        assert_eq!(parse_bytes(&s), Some(bytes));
        assert_eq!(parse_bytes(""), Some(Vec::new()));
    }

    #[test]
    fn only_canonical_tokens_parse() {
        for tok in [
            "",
            "3ff",
            "3ff00000000000000",
            "+3ff000000000000",
            "-3ff000000000000",
            "3FF0000000000000",
            " 3ff000000000000",
            "3ff000000000000g",
            "3ff00000000000é",
        ] {
            assert_eq!(parse_u64(tok), None, "{tok:?}");
        }
        for hex in ["0", "abc", "+1", "0A", "0é0", "é0", "zz", "0 "] {
            assert_eq!(parse_bytes(hex), None, "{hex:?}");
        }
    }
}
