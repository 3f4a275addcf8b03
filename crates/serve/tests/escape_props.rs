//! Property tests for the one JSON escaper: the byte-level escaper shared by
//! the wire protocol, the streamed reply literals and the analyzer's
//! diagnostics agrees with a character-by-character reference, and what it
//! writes parses back to the original string.

use mjoin_relation::json::{self, EscapingWriter};
use mjoin_serve::Value as J;
use proptest::prelude::*;
use std::io::Write as _;

/// The escaper as it was written before it went byte-level: one `match` per
/// character.
fn reference(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Characters from every class the escaper treats differently: the two
/// quoted specials, every control character, plain ASCII, DEL, and
/// two-, three- (U+2028 included) and four-byte UTF-8.
fn character() -> impl Strategy<Value = char> {
    (0u8..8, 0u32..0x10_0000).prop_map(|(class, n)| {
        let c = match class {
            0 => ['"', '\\', '\u{2028}', '\u{7f}'][n as usize % 4] as u32,
            1 => n % 0x20,
            2 | 3 => 0x20 + n % 0x5f,
            4 => 0x80 + n % 0x780,
            5 => 0x800 + n % 0xf800,
            _ => 0x1_0000 + n,
        };
        char::from_u32(c).unwrap_or('\u{fffd}')
    })
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(character(), 0..40).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_escaper_matches_char_reference_and_round_trips(s in text(), cut in 0usize..200) {
        let literal = json::string(&s);
        prop_assert_eq!(&literal, &reference(&s));
        prop_assert_eq!(J::parse(&literal), Ok(J::str(s.as_str())));

        // The streaming sink writes the same literal, even when a write
        // ends inside a multi-byte character.
        let cut = cut % (s.len() + 1);
        let streamed = J::str_streamed(|w: &mut EscapingWriter<'_>| {
            w.write_all(&s.as_bytes()[..cut])?;
            w.write_all(&s.as_bytes()[cut..])
        })
        .unwrap()
        .render();
        prop_assert_eq!(&streamed, &literal);
        prop_assert_eq!(J::parse(&J::str(s.as_str()).render()), Ok(J::str(s.as_str())));
    }
}
