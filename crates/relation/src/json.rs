//! JSON string escaping, shared by every hand-rolled renderer.
//!
//! The workspace is offline (no serde), so several crates render JSON by
//! hand: the analyzer's diagnostic reports, the server's wire protocol, the
//! experiment harness. They must all escape strings *identically* — a
//! renderer that misses a control character produces output another
//! component cannot parse back — so the escaping lives here, in the one
//! crate they all already depend on.
//!
//! The escaper works on bytes. Every byte it rewrites (`"`, `\` and the
//! controls below 0x20) is ASCII, and the lead and continuation bytes of a
//! multi-byte UTF-8 scalar are all ≥ 0x80, so escaping byte by byte is
//! escaping character by character — and the unescaped runs between two
//! rewritten bytes are copied whole. That also makes the escaper usable on
//! a byte stream cut at arbitrary points ([`EscapingWriter`]).

/// The escape sequence for each control byte: the `\n` `\r` `\t`
/// shorthands, `\u00XX` for the rest.
const CONTROL: [&str; 32] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\t", "\\n", "\\u000b", "\\u000c", "\\r", "\\u000e", "\\u000f", "\\u0010",
    "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017", "\\u0018",
    "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// What byte `b` becomes inside a JSON string literal, or `None` when it
/// passes through verbatim.
#[inline]
fn escape_of(b: u8) -> Option<&'static str> {
    match b {
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        0..=0x1f => Some(CONTROL[b as usize]),
        _ => None,
    }
}

/// Eight copies of one byte value, for word-at-a-time scanning.
const fn splat(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// A word whose lowest set high bit marks the first of `w`'s eight
/// (little-endian) bytes that is a control character, `"` or `\`, and is
/// zero when there is none. Bits above the first hit may be spurious (a
/// borrow carries upward), so only the lowest one is read.
#[inline]
fn special_mask(w: u64) -> u64 {
    let below = |x: u64, n: u8| x.wrapping_sub(splat(n)) & !x & splat(0x80);
    below(w, 0x20) | below(w ^ splat(b'"'), 1) | below(w ^ splat(b'\\'), 1)
}

/// The one escaper: hand `emit` each unescaped run of `bytes` (as a range)
/// followed by the escape sequence that ends it (`""` after the final run).
/// Plain bytes are skipped a word at a time.
#[inline]
fn escape_runs(bytes: &[u8], mut emit: impl FnMut(std::ops::Range<usize>, &'static str)) {
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        if let Some(word) = bytes.get(i..i + 8) {
            let m = special_mask(u64::from_le_bytes(word.try_into().expect("eight bytes")));
            if m == 0 {
                i += 8;
                continue;
            }
            i += (m.trailing_zeros() / 8) as usize;
        }
        if let Some(esc) = escape_of(bytes[i]) {
            emit(start..i, esc);
            start = i + 1;
        }
        i += 1;
    }
    emit(start..bytes.len(), "");
}

/// Append the body of a JSON string literal for `bytes` (no quotes) to
/// `out`: `"`, `\` and every control character below 0x20 are escaped,
/// everything else — UTF-8 included — is copied verbatim.
pub fn escape_bytes_into(bytes: &[u8], out: &mut Vec<u8>) {
    escape_runs(bytes, |run, esc| {
        out.extend_from_slice(&bytes[run]);
        out.extend_from_slice(esc.as_bytes());
    });
}

/// Append `s` to `out` as a JSON string literal (quotes included).
///
/// Escapes `"`, `\`, the common control shorthands (`\n`, `\r`, `\t`), and
/// every remaining control character as `\u00XX`. Everything else — UTF-8
/// included — passes through verbatim, which every JSON parser accepts.
pub fn string_into(s: &str, out: &mut String) {
    out.push('"');
    // Runs start and end next to an ASCII byte (or at an end of `s`), so
    // every slice lands on a character boundary.
    escape_runs(s.as_bytes(), |run, esc| {
        out.push_str(&s[run]);
        out.push_str(esc);
    });
    out.push('"');
}

/// `s` as an owned JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    string_into(s, &mut out);
    out
}

/// An [`std::io::Write`] sink that appends the JSON escape of every byte
/// written to it — the body of a string literal, quotes not included — to
/// a byte buffer. A writer that renders text (a TSV dump) can stream
/// straight into a JSON reply through it, with no intermediate copy and no
/// second escaping pass. Writes may split a UTF-8 scalar anywhere: the
/// escaper never touches bytes ≥ 0x80.
pub struct EscapingWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> EscapingWriter<'a> {
    /// A sink appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        EscapingWriter { out }
    }
}

impl std::io::Write for EscapingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        escape_bytes_into(buf, self.out);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_strings_are_quoted_verbatim() {
        assert_eq!(string("hello"), "\"hello\"");
        assert_eq!(string(""), "\"\"");
        assert_eq!(string("π ⋈ σ"), "\"π ⋈ σ\"");
    }

    #[test]
    fn specials_escape() {
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
        assert_eq!(string("a\\b"), "\"a\\\\b\"");
        assert_eq!(string("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
    }

    #[test]
    fn control_characters_become_unicode_escapes() {
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("\u{1f}"), "\"\\u001f\"");
        // 0x20 (space) and above pass through.
        assert_eq!(string(" "), "\" \"");
    }

    #[test]
    fn string_into_appends() {
        let mut out = String::from("{\"k\":");
        string_into("v", &mut out);
        assert_eq!(out, "{\"k\":\"v\"");
    }

    /// The sink escapes exactly like the string escaper, however the input
    /// is cut — including inside a multi-byte scalar.
    #[test]
    fn escaping_writer_matches_string_escaper_across_splits() {
        use std::io::Write as _;
        let s = "a\t\"b\\\u{1}é⋈\u{2028}\n";
        let whole = string(s);
        for cut in 0..=s.len() {
            let mut out = vec![b'"'];
            let mut w = EscapingWriter::new(&mut out);
            w.write_all(&s.as_bytes()[..cut]).unwrap();
            w.write_all(&s.as_bytes()[cut..]).unwrap();
            out.push(b'"');
            assert_eq!(String::from_utf8(out).unwrap(), whole, "cut at {cut}");
        }
    }
}
