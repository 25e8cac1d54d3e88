//! Pull parser for the XML subset.

use crate::{unescape, Error, Result};
use std::borrow::Cow;

/// A parsing event produced by [`Reader::next_event`]: the owned form of
/// [`RawEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<name attr="v" ...>` or the `<name .../>` form (see `self_closing`).
    Start {
        /// Element name.
        name: String,
        /// Attributes in document order, values already unescaped.
        attrs: Vec<(String, String)>,
        /// True for `<name/>`; a matching [`Event::End`] is still emitted so
        /// consumers see a uniform begin/end stream.
        self_closing: bool,
    },
    /// `</name>` (also synthesized after a self-closing start).
    End {
        /// Element name.
        name: String,
    },
    /// Character data between tags, unescaped; contiguous text and CDATA are
    /// merged into one event. Whitespace-only text between elements is
    /// dropped.
    Text(String),
    /// End of the document.
    Eof,
}

/// A parsing event produced by [`Reader::next_raw`], borrowing the input.
///
/// The attributes of a `Start` are read through [`Reader::attrs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawEvent<'a> {
    /// `<name attr="v" ...>` or the `<name .../>` form (see `self_closing`).
    Start {
        /// Element name.
        name: &'a str,
        /// True for `<name/>`; a matching [`RawEvent::End`] is still
        /// emitted.
        self_closing: bool,
    },
    /// `</name>` (also synthesized after a self-closing start).
    End {
        /// Element name.
        name: &'a str,
    },
    /// Character data between tags, unescaped; contiguous text and CDATA are
    /// merged into one event, and whitespace-only text is dropped. Borrowed
    /// unless the text holds an entity or a CDATA section.
    Text(Cow<'a, str>),
    /// End of the document.
    Eof,
}

/// A pull parser over a complete in-memory document.
///
/// # Examples
///
/// ```
/// use obiwan_xml::{Reader, Event};
///
/// # fn main() -> Result<(), obiwan_xml::Error> {
/// let mut r = Reader::new("<a x=\"1\"><b/>hi</a>");
/// assert!(matches!(r.next_event()?, Event::Start { name, .. } if name == "a"));
/// assert!(matches!(r.next_event()?, Event::Start { self_closing: true, .. }));
/// assert!(matches!(r.next_event()?, Event::End { .. }));     // </b>
/// assert!(matches!(r.next_event()?, Event::Text(t) if t == "hi"));
/// assert!(matches!(r.next_event()?, Event::End { .. }));     // </a>
/// assert!(matches!(r.next_event()?, Event::Eof));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    /// Stack of open element names, used to validate close tags.
    open: Vec<&'a str>,
    /// A pending synthetic End event (after a self-closing tag).
    pending_end: Option<&'a str>,
    /// Attributes of the latest start tag; the buffer is reused.
    attrs: Vec<(&'a str, Cow<'a, str>)>,
}

impl<'a> Reader<'a> {
    /// Create a reader over `input`. Parsing is lazy; errors surface from
    /// [`next_raw`](Reader::next_raw) and [`next_event`](Reader::next_event).
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            open: Vec::new(),
            pending_end: None,
            attrs: Vec::new(),
        }
    }

    /// Current byte offset into the input, for error reporting by callers.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Attributes of the latest start tag, in document order, values
    /// unescaped (borrowed unless they held an entity).
    pub fn attrs(&self) -> &[(&'a str, Cow<'a, str>)] {
        &self.attrs
    }

    /// Pull the next event, owning its strings.
    ///
    /// # Errors
    ///
    /// As [`next_raw`](Reader::next_raw).
    pub fn next_event(&mut self) -> Result<Event> {
        let raw = self.next_raw()?;
        Ok(self.to_owned_event(raw))
    }

    /// The owned form of `raw`, taking a `Start`'s attributes from
    /// [`attrs`](Reader::attrs).
    pub(crate) fn to_owned_event(&self, raw: RawEvent<'a>) -> Event {
        match raw {
            RawEvent::Start { name, self_closing } => Event::Start {
                name: name.to_owned(),
                attrs: self.owned_attrs(),
                self_closing,
            },
            RawEvent::End { name } => Event::End {
                name: name.to_owned(),
            },
            RawEvent::Text(text) => Event::Text(text.into_owned()),
            RawEvent::Eof => Event::Eof,
        }
    }

    /// [`attrs`](Reader::attrs), owned.
    pub(crate) fn owned_attrs(&self) -> Vec<(String, String)> {
        self.attrs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.as_ref().to_owned()))
            .collect()
    }

    /// Pull the next event, borrowing names and plain text from the input.
    ///
    /// # Errors
    ///
    /// Any well-formedness violation in the subset: mismatched or unclosed
    /// tags, malformed attributes, unknown entities, trailing garbage.
    pub fn next_raw(&mut self) -> Result<RawEvent<'a>> {
        if let Some(name) = self.pending_end.take() {
            return Ok(RawEvent::End { name });
        }
        loop {
            let rest = &self.input[self.pos..];
            if rest.is_empty() {
                if let Some(unclosed) = self.open.last() {
                    return Err(Error::UnexpectedEof {
                        context: Box::leak(format!("element <{unclosed}>").into_boxed_str()),
                    });
                }
                return Ok(RawEvent::Eof);
            }
            if let Some(stripped) = rest.strip_prefix("<?") {
                // XML declaration / processing instruction: skip.
                let end = stripped.find("?>").ok_or(Error::UnexpectedEof {
                    context: "processing instruction",
                })?;
                self.pos += 2 + end + 2;
                continue;
            }
            if let Some(stripped) = rest.strip_prefix("<!--") {
                let end = stripped
                    .find("-->")
                    .ok_or(Error::UnexpectedEof { context: "comment" })?;
                self.pos += 4 + end + 3;
                continue;
            }
            if rest.starts_with("</") {
                return self.read_close_tag();
            }
            if rest.starts_with('<') && !rest.starts_with("<![CDATA[") {
                return self.read_open_tag();
            }
            if let Some(text) = self.read_text()? {
                return Ok(RawEvent::Text(text));
            }
            // Whitespace-only text: keep pulling.
        }
    }

    /// Convenience: pull events until (and including) `Eof`, collecting them.
    ///
    /// # Errors
    ///
    /// Propagates the first parse error.
    pub fn into_events(mut self) -> Result<Vec<Event>> {
        let mut events = Vec::new();
        loop {
            let e = self.next_event()?;
            let done = e == Event::Eof;
            events.push(e);
            if done {
                return Ok(events);
            }
        }
    }

    fn read_open_tag(&mut self) -> Result<RawEvent<'a>> {
        let input = self.input;
        let bytes = input.as_bytes();
        let start = self.pos;
        self.pos += 1; // '<'
        let name = self.read_name()?;
        self.attrs.clear();
        loop {
            self.skip_ws();
            match bytes.get(self.pos) {
                Some(b'/') if bytes.get(self.pos + 1) == Some(&b'>') => {
                    self.pos += 2;
                    self.pending_end = Some(name);
                    return Ok(RawEvent::Start {
                        name,
                        self_closing: true,
                    });
                }
                Some(b'>') => {
                    self.pos += 1;
                    self.open.push(name);
                    return Ok(RawEvent::Start {
                        name,
                        self_closing: false,
                    });
                }
                Some(_) => {}
                None => {
                    return Err(Error::UnexpectedEof {
                        context: "start tag",
                    })
                }
            }
            let attr_name = self.read_name().map_err(|_| Error::Unexpected {
                at: self.pos,
                message: format!("malformed attribute in <{name}> starting at byte {start}"),
            })?;
            self.skip_ws();
            if bytes.get(self.pos) != Some(&b'=') {
                return Err(Error::Unexpected {
                    at: self.pos,
                    message: format!("attribute `{attr_name}` missing `=`"),
                });
            }
            self.pos += 1;
            self.skip_ws();
            let quote = match bytes.get(self.pos) {
                Some(&quote @ (b'"' | b'\'')) => quote,
                Some(_) => {
                    return Err(Error::Unexpected {
                        at: self.pos,
                        message: format!("attribute `{attr_name}` value must be quoted"),
                    })
                }
                None => {
                    return Err(Error::UnexpectedEof {
                        context: "attribute value",
                    })
                }
            };
            let val_start = self.pos + 1;
            let mut end = val_start;
            let mut entity = false;
            loop {
                match bytes.get(end) {
                    Some(&b) if b == quote => break,
                    Some(&b) => entity |= b == b'&',
                    None => {
                        return Err(Error::UnexpectedEof {
                            context: "attribute value",
                        })
                    }
                }
                end += 1;
            }
            self.pos = end + 1;
            let raw = &input[val_start..end];
            // Entity offsets stay relative to the attribute value.
            let value = if entity {
                Cow::Owned(unescape(raw)?)
            } else {
                Cow::Borrowed(raw)
            };
            self.attrs.push((attr_name, value));
        }
    }

    fn read_close_tag(&mut self) -> Result<RawEvent<'a>> {
        let at = self.pos;
        self.pos += 2; // "</"
        let name = self.read_name()?;
        self.skip_ws();
        if !self.input[self.pos..].starts_with('>') {
            return Err(Error::Unexpected {
                at: self.pos,
                message: format!("malformed close tag </{name}"),
            });
        }
        self.pos += 1;
        match self.open.pop() {
            Some(expected) if expected == name => Ok(RawEvent::End { name }),
            Some(expected) => Err(Error::MismatchedTag {
                at,
                expected: expected.to_owned(),
                found: name.to_owned(),
            }),
            None => Err(Error::Unexpected {
                at,
                message: format!("close tag </{name}> with no open element"),
            }),
        }
    }

    /// The text run at the cursor, or `None` when it is whitespace only.
    fn read_text(&mut self) -> Result<Option<Cow<'a, str>>> {
        let input = self.input;
        let bytes = input.as_bytes();
        let start = self.pos;
        let mut end = start;
        let (mut entity, mut visible) = (false, false);
        while let Some(&b) = bytes.get(end) {
            match b {
                b'<' => break,
                b'&' => entity = true,
                b' ' | b'\t'..=b'\r' => {}
                _ => visible |= b.is_ascii(),
            }
            end += 1;
        }
        if !input[end..].starts_with("<![CDATA[") {
            // The common case: one chunk that a tag or the input ends.
            self.pos = end;
            let raw = &input[start..end];
            let text = if entity {
                Cow::Owned(unescape(raw).map_err(|e| shift_error(e, start))?)
            } else {
                Cow::Borrowed(raw)
            };
            // Without entities, one visible ASCII character settles it.
            let keep = (visible && !entity) || !text.trim().is_empty();
            return Ok(keep.then_some(text));
        }
        // A CDATA section joins the run: build it owned.
        let mut text = String::new();
        loop {
            let rest = &input[self.pos..];
            if let Some(stripped) = rest.strip_prefix("<![CDATA[") {
                let end = stripped.find("]]>").ok_or(Error::UnexpectedEof {
                    context: "CDATA section",
                })?;
                text.push_str(&stripped[..end]);
                self.pos += 9 + end + 3;
                continue;
            }
            if rest.is_empty() || rest.starts_with('<') {
                break;
            }
            let chunk_end = rest.find('<').unwrap_or(rest.len());
            text.push_str(&unescape(&rest[..chunk_end]).map_err(|e| shift_error(e, self.pos))?);
            self.pos += chunk_end;
        }
        Ok((!text.trim().is_empty()).then_some(Cow::Owned(text)))
    }

    fn read_name(&mut self) -> Result<&'a str> {
        let bytes = self.input.as_bytes();
        let start = self.pos;
        let mut end = start;
        if matches!(bytes.get(end), Some(&c) if c.is_ascii_alphabetic() || c == b'_') {
            end += 1;
            while matches!(bytes.get(end), Some(&c)
                if c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'.' | b':'))
            {
                end += 1;
            }
        }
        if end == start {
            return Err(Error::Unexpected {
                at: self.pos,
                message: "expected a name".into(),
            });
        }
        self.pos = end;
        Ok(&self.input[start..end])
    }

    fn skip_ws(&mut self) {
        let bytes = self.input.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b' ' | b'\t'..=b'\r' => self.pos += 1,
                0x80.. => {
                    // Unicode whitespace.
                    let rest = &self.input[self.pos..];
                    self.pos += rest.len() - rest.trim_start().len();
                    return;
                }
                _ => return,
            }
        }
    }
}

fn shift_error(e: Error, base: usize) -> Error {
    match e {
        Error::Unexpected { at, message } => Error::Unexpected {
            at: at + base,
            message,
        },
        Error::UnknownEntity { at, name } => Error::UnknownEntity {
            at: at + base,
            name,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn events(doc: &str) -> Vec<Event> {
        Reader::new(doc).into_events().unwrap()
    }

    #[test]
    fn parses_nested_elements() {
        let evs = events("<a><b><c/></b></a>");
        let starts = evs
            .iter()
            .filter(|e| matches!(e, Event::Start { .. }))
            .count();
        let ends = evs
            .iter()
            .filter(|e| matches!(e, Event::End { .. }))
            .count();
        assert_eq!(starts, 3);
        assert_eq!(ends, 3);
    }

    #[test]
    fn declaration_and_comments_are_skipped() {
        let evs = events("<?xml version=\"1.0\"?><!-- hi --><a/><!-- bye -->");
        assert!(matches!(&evs[0], Event::Start { name, .. } if name == "a"));
    }

    #[test]
    fn attributes_parse_with_both_quote_styles() {
        let evs = events("<a x=\"1\" y='2'/>");
        match &evs[0] {
            Event::Start { attrs, .. } => {
                assert_eq!(attrs[0], ("x".into(), "1".into()));
                assert_eq!(attrs[1], ("y".into(), "2".into()));
            }
            other => panic!("expected start, got {other:?}"),
        }
    }

    #[test]
    fn attribute_values_are_unescaped() {
        let evs = events("<a v=\"&lt;x&gt;\"/>");
        match &evs[0] {
            Event::Start { attrs, .. } => assert_eq!(attrs[0].1, "<x>"),
            other => panic!("expected start, got {other:?}"),
        }
    }

    #[test]
    fn text_is_unescaped_and_merged_with_cdata() {
        let evs = events("<a>one &amp; <![CDATA[<two>]]> three</a>");
        assert!(matches!(&evs[1], Event::Text(t) if t == "one & <two> three"));
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let evs = events("<a>\n  <b/>\n</a>");
        assert!(!evs.iter().any(|e| matches!(e, Event::Text(_))));
    }

    #[test]
    fn mismatched_tags_error() {
        let err = Reader::new("<a></b>").into_events().unwrap_err();
        assert!(matches!(err, Error::MismatchedTag { expected, found, .. }
            if expected == "a" && found == "b"));
    }

    #[test]
    fn unclosed_element_errors_at_eof() {
        let err = Reader::new("<a><b></b>").into_events().unwrap_err();
        assert!(matches!(err, Error::UnexpectedEof { .. }));
    }

    #[test]
    fn stray_close_tag_errors() {
        let err = Reader::new("</a>").into_events().unwrap_err();
        assert!(matches!(err, Error::Unexpected { .. }));
    }

    #[test]
    fn unquoted_attribute_errors() {
        let err = Reader::new("<a x=1/>").into_events().unwrap_err();
        assert!(matches!(err, Error::Unexpected { .. }));
    }

    #[test]
    fn self_closing_emits_synthetic_end() {
        let evs = events("<a/>");
        assert!(matches!(
            &evs[0],
            Event::Start {
                self_closing: true,
                ..
            }
        ));
        assert!(matches!(&evs[1], Event::End { name } if name == "a"));
    }

    #[test]
    fn eof_is_idempotent() {
        let mut r = Reader::new("<a/>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert_eq!(r.next_event().unwrap(), Event::Eof);
        assert_eq!(r.next_event().unwrap(), Event::Eof);
    }

    #[test]
    fn plain_text_and_attribute_values_are_borrowed() {
        let mut r = Reader::new("<a x=\"1\" y='v&amp;w' x=\"2\">plain text</a>");
        assert_eq!(
            r.next_raw().unwrap(),
            RawEvent::Start {
                name: "a",
                self_closing: false
            }
        );
        assert!(matches!(r.attrs()[0], ("x", Cow::Borrowed("1"))));
        assert!(matches!(&r.attrs()[1], ("y", Cow::Owned(v)) if v == "v&w"));
        assert!(matches!(r.attrs()[2], ("x", Cow::Borrowed("2"))));
        assert!(matches!(
            r.next_raw().unwrap(),
            RawEvent::Text(Cow::Borrowed("plain text"))
        ));
        assert_eq!(r.next_raw().unwrap(), RawEvent::End { name: "a" });
        assert_eq!(r.next_raw().unwrap(), RawEvent::Eof);
    }

    #[test]
    fn text_is_owned_when_it_holds_an_entity_or_cdata() {
        let text = |doc: &'static str| {
            let mut r = Reader::new(doc);
            r.next_raw().unwrap();
            match r.next_raw().unwrap() {
                RawEvent::Text(t) => t,
                other => panic!("expected text, got {other:?}"),
            }
        };
        assert!(matches!(text("<a>x &amp; y</a>"), Cow::Owned(t) if t == "x & y"));
        assert!(matches!(text("<a>one<![CDATA[two]]></a>"), Cow::Owned(t) if t == "onetwo"));
        assert!(matches!(text("<a><![CDATA[<raw>]]></a>"), Cow::Owned(t) if t == "<raw>"));
    }

    #[test]
    fn error_offsets_are_pinned() {
        let at = |doc: &str| match Reader::new(doc).into_events().unwrap_err() {
            Error::Unexpected { at, .. }
            | Error::UnknownEntity { at, .. }
            | Error::MismatchedTag { at, .. } => Some(at),
            _ => None,
        };
        assert_eq!(at("<a></b>"), Some(3));
        assert_eq!(at("</a>"), Some(0));
        assert_eq!(at("<a x=1/>"), Some(5));
        assert_eq!(at("<a x>"), Some(4));
        assert_eq!(at("<a 1=\"v\">"), Some(3));
        assert_eq!(at("<1/>"), Some(1));
        assert_eq!(at("<a></a  x>"), Some(8));
        assert_eq!(at("<a>xx&bogus;</a>"), Some(5));
        assert_eq!(at("<a>&amp</a>"), Some(3));
        // Entity offsets inside an attribute value stay value-relative.
        assert_eq!(at("<a v=\"xx&bogus;\"/>"), Some(2));
        assert_eq!(
            Reader::new("<a>").into_events().unwrap_err(),
            Error::UnexpectedEof {
                context: "element <a>"
            }
        );
    }

    #[test]
    fn unknown_entity_in_text_reports_offset() {
        let err = Reader::new("<a>xx&bogus;</a>").into_events().unwrap_err();
        match err {
            Error::UnknownEntity { at, name } => {
                assert_eq!(name, "bogus");
                assert_eq!(at, 5);
            }
            other => panic!("expected UnknownEntity, got {other:?}"),
        }
    }
}
