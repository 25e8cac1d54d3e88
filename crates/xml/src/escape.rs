//! Entity escaping and unescaping for the XML subset.

use crate::{Error, Result};

/// Escape a string for inclusion in XML text or attribute content.
///
/// The five predefined XML entities are produced: `&amp;`, `&lt;`, `&gt;`,
/// `&quot;` and `&apos;`. Control characters that are illegal even when
/// escaped (everything below `0x20` except tab, LF and CR) are emitted as
/// numeric character references so binary-ish payload never corrupts a swap
/// blob.
///
/// # Examples
///
/// ```
/// assert_eq!(obiwan_xml::escape("a<b & c"), "a&lt;b &amp; c");
/// ```
pub fn escape(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    escape_into(&mut out, input);
    out
}

/// Append the escaped form of `input` to `out` — [`escape`] without the
/// intermediate `String`.
///
/// # Examples
///
/// ```
/// let mut out = String::from("v=");
/// obiwan_xml::escape_into(&mut out, "\"a\u{1}\"");
/// assert_eq!(out, "v=&quot;a&#1;&quot;");
/// ```
pub fn escape_into(out: &mut String, input: &str) {
    // Every byte that needs escaping is ASCII, so each split point below is
    // a char boundary and unescaped runs are copied whole.
    let mut run = 0;
    for (i, &b) in input.as_bytes().iter().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&apos;",
            b'\t' | b'\n' | b'\r' => continue,
            0..=0x1f => CONTROL_REFS[usize::from(b)],
            _ => continue,
        };
        out.push_str(&input[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&input[run..]);
}

/// Numeric character references for the control characters below `0x20`
/// (tab, LF and CR are never looked up: they stay raw).
const CONTROL_REFS: [&str; 32] = [
    "&#0;", "&#1;", "&#2;", "&#3;", "&#4;", "&#5;", "&#6;", "&#7;", "&#8;", "&#9;", "&#10;",
    "&#11;", "&#12;", "&#13;", "&#14;", "&#15;", "&#16;", "&#17;", "&#18;", "&#19;", "&#20;",
    "&#21;", "&#22;", "&#23;", "&#24;", "&#25;", "&#26;", "&#27;", "&#28;", "&#29;", "&#30;",
    "&#31;",
];

/// Reverse of [`escape`]: resolve entities back to characters.
///
/// Supports the five predefined entities plus decimal (`&#65;`) and
/// hexadecimal (`&#x41;`) character references.
///
/// # Errors
///
/// Returns [`Error::UnknownEntity`] for any other `&name;` sequence, and
/// [`Error::Unexpected`] for a bare `&` that never closes with `;` or a
/// numeric reference that does not denote a valid scalar value.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), obiwan_xml::Error> {
/// assert_eq!(obiwan_xml::unescape("a&lt;b &amp; c")?, "a<b & c");
/// assert_eq!(obiwan_xml::unescape("&#x41;&#66;")?, "AB");
/// # Ok(())
/// # }
/// ```
pub fn unescape(input: &str) -> Result<String> {
    let mut out = String::with_capacity(input.len());
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Advance over a full UTF-8 character.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&input[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        let semi = input[i..].find(';').ok_or(Error::Unexpected {
            at: i,
            message: "entity beginning with `&` never terminated by `;`".into(),
        })? + i;
        let name = &input[i + 1..semi];
        match name {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if name.starts_with('#') => {
                let code = parse_char_ref(name, i)?;
                out.push(code);
            }
            _ => {
                return Err(Error::UnknownEntity {
                    at: i,
                    name: name.to_string(),
                })
            }
        }
        i = semi + 1;
    }
    Ok(out)
}

fn parse_char_ref(name: &str, at: usize) -> Result<char> {
    let digits = &name[1..];
    let value = if let Some(hex) = digits
        .strip_prefix('x')
        .or_else(|| digits.strip_prefix('X'))
    {
        u32::from_str_radix(hex, 16)
    } else {
        digits.parse::<u32>()
    }
    .map_err(|_| Error::Unexpected {
        at,
        message: format!("malformed character reference `&{name};`"),
    })?;
    char::from_u32(value).ok_or(Error::Unexpected {
        at,
        message: format!("character reference &{name}; is not a unicode scalar"),
    })
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn escapes_all_five_entities() {
        assert_eq!(escape(r#"<>&"'"#), "&lt;&gt;&amp;&quot;&apos;");
    }

    #[test]
    fn escape_leaves_plain_text_alone() {
        assert_eq!(escape("hello world"), "hello world");
    }

    #[test]
    fn escape_control_characters_as_numeric_refs() {
        assert_eq!(escape("\u{1}"), "&#1;");
        // Tab, LF and CR are legal raw.
        assert_eq!(escape("\t\n\r"), "\t\n\r");
    }

    #[test]
    fn escape_control_characters_cover_both_digit_counts() {
        assert_eq!(escape("\u{0}\u{9}\u{b}\u{1f}"), "&#0;\t&#11;&#31;");
    }

    #[test]
    fn escape_into_appends() {
        let mut out = String::from("x");
        escape_into(&mut out, "é<");
        escape_into(&mut out, "");
        assert_eq!(out, "xé&lt;");
    }

    #[test]
    fn unescape_roundtrips_entities() {
        assert_eq!(unescape("&lt;&gt;&amp;&quot;&apos;").unwrap(), "<>&\"'");
    }

    #[test]
    fn unescape_decimal_and_hex_refs() {
        assert_eq!(unescape("&#65;").unwrap(), "A");
        assert_eq!(unescape("&#x41;").unwrap(), "A");
        assert_eq!(unescape("&#X41;").unwrap(), "A");
    }

    #[test]
    fn unescape_rejects_unknown_entity() {
        assert!(matches!(
            unescape("&nbsp;"),
            Err(Error::UnknownEntity { name, .. }) if name == "nbsp"
        ));
    }

    #[test]
    fn unescape_rejects_unterminated_entity() {
        assert!(matches!(unescape("a&amp"), Err(Error::Unexpected { .. })));
    }

    #[test]
    fn unescape_rejects_surrogate_char_ref() {
        assert!(unescape("&#xD800;").is_err());
    }

    #[test]
    fn unescape_handles_multibyte_passthrough() {
        assert_eq!(unescape("héllo — ωorld").unwrap(), "héllo — ωorld");
    }

    proptest! {
        #[test]
        fn escape_then_unescape_is_identity(s in "\\PC*") {
            let escaped = escape(&s);
            prop_assert_eq!(unescape(&escaped).unwrap(), s);
        }

        #[test]
        fn escaped_text_contains_no_markup(s in "\\PC*") {
            let escaped = escape(&s);
            prop_assert!(!escaped.contains('<'));
            prop_assert!(!escaped.contains('"'));
        }
    }
}
