//! Event-style XML writer.

use crate::{escape_into, Error, Result};

/// Streaming XML writer with automatic nesting and escaping.
///
/// `Writer` enforces well-formedness dynamically: attributes may only be
/// added while the current element's start tag is still open, every
/// [`begin`](Writer::begin) must be matched by an [`end`](Writer::end), and
/// [`finish`](Writer::finish) refuses to produce a document with unclosed
/// elements.
///
/// The output is indented two spaces per depth level by default because the
/// blobs are meant to be human-inspectable on the storing device; call
/// [`compact`](Writer::compact) for wire-compact output.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), obiwan_xml::Error> {
/// let mut w = obiwan_xml::Writer::new();
/// w.begin("list")?;
/// for i in 0..2 {
///     w.begin("item")?.attr("n", i.to_string())?;
///     w.end()?;
/// }
/// w.end()?;
/// let doc = w.finish()?;
/// assert!(doc.contains("<item n=\"0\"/>"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Writer {
    out: String,
    stack: Vec<String>,
    /// Start tag of the innermost element is still open (`<name ...`).
    tag_open: bool,
    /// Per open element: whether it has child elements / comments, and
    /// whether it has text (text suppresses indentation so character data is
    /// never polluted with pretty-printing whitespace).
    content: Vec<ContentFlags>,
    pretty: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct ContentFlags {
    elements: bool,
    text: bool,
}

impl Default for Writer {
    fn default() -> Self {
        Self::new()
    }
}

impl Writer {
    /// Create a writer that emits an XML declaration and pretty-prints.
    pub fn new() -> Self {
        Writer {
            out: String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"),
            stack: Vec::new(),
            tag_open: false,
            content: Vec::new(),
            pretty: true,
        }
    }

    /// Switch to compact (no indentation, no newlines) output.
    ///
    /// Compact form is what the bandwidth model in `obiwan-net` should see;
    /// pretty form is for humans and tests.
    pub fn compact(mut self) -> Self {
        self.pretty = false;
        self
    }

    /// Open a child element.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadName`] if `name` is not a valid element name, and
    /// [`Error::WriterMisuse`] if a previous document was already finished.
    pub fn begin(&mut self, name: &str) -> Result<&mut Self> {
        validate_name(name)?;
        self.close_pending_tag(false);
        let parent_has_text = self
            .content
            .last_mut()
            .map(|flags| {
                flags.elements = true;
                flags.text
            })
            .unwrap_or(false);
        if self.pretty && !parent_has_text {
            self.indent();
        }
        self.out.push('<');
        self.out.push_str(name);
        self.stack.push(name.to_string());
        self.tag_open = true;
        self.content.push(ContentFlags::default());
        Ok(self)
    }

    /// Add an attribute to the element opened by the latest `begin`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WriterMisuse`] if the start tag was already closed
    /// (i.e. content was written since `begin`), and [`Error::BadName`] for an
    /// invalid attribute name.
    pub fn attr(&mut self, name: &str, value: impl AsRef<str>) -> Result<&mut Self> {
        validate_name(name)?;
        if !self.tag_open {
            return Err(Error::WriterMisuse {
                message: format!("attribute `{name}` added after element content"),
            });
        }
        self.out.push(' ');
        self.out.push_str(name);
        self.out.push_str("=\"");
        escape_into(&mut self.out, value.as_ref());
        self.out.push('"');
        Ok(self)
    }

    /// Write escaped character data inside the current element.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WriterMisuse`] when no element is open.
    pub fn text(&mut self, text: &str) -> Result<&mut Self> {
        if self.stack.is_empty() {
            return Err(Error::WriterMisuse {
                message: "text outside of any element".into(),
            });
        }
        self.close_pending_tag(true);
        // The emptiness check above makes `last_mut` infallible.
        #[allow(clippy::disallowed_methods)]
        {
            self.content.last_mut().expect("stack nonempty").text = true;
        }
        escape_into(&mut self.out, text);
        Ok(self)
    }

    /// Write a `name="value"` style leaf element: `<name>value</name>`.
    ///
    /// Shorthand for `begin`/`text`/`end`; used pervasively by the codec.
    ///
    /// # Errors
    ///
    /// Same conditions as [`begin`](Writer::begin).
    pub fn leaf(&mut self, name: &str, value: impl AsRef<str>) -> Result<&mut Self> {
        self.begin(name)?;
        // Keep leaf text on one line even in pretty mode.
        self.close_pending_tag(true);
        // `begin` above pushed onto both stacks, so neither pop can miss.
        #[allow(clippy::disallowed_methods)]
        {
            self.content.last_mut().expect("just pushed").text = true;
        }
        escape_into(&mut self.out, value.as_ref());
        #[allow(clippy::disallowed_methods)]
        let name = self.stack.pop().expect("just pushed");
        self.content.pop();
        self.out.push_str("</");
        self.out.push_str(&name);
        self.out.push('>');
        Ok(self)
    }

    /// Write an XML comment. Any `--` inside the text is replaced by `- -`
    /// to keep the document well-formed.
    ///
    /// # Errors
    ///
    /// Currently infallible but returns `Result` for signature uniformity.
    pub fn comment(&mut self, text: &str) -> Result<&mut Self> {
        self.close_pending_tag(false);
        let parent_has_text = self
            .content
            .last_mut()
            .map(|flags| {
                flags.elements = true;
                flags.text
            })
            .unwrap_or(false);
        if self.pretty && !parent_has_text {
            self.indent();
        }
        self.out.push_str("<!-- ");
        self.out.push_str(&text.replace("--", "- -"));
        self.out.push_str(" -->");
        Ok(self)
    }

    /// Close the most recently opened element.
    ///
    /// Elements with no content are emitted as self-closing tags.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WriterMisuse`] when there is nothing to close.
    pub fn end(&mut self) -> Result<&mut Self> {
        let name = self.stack.pop().ok_or(Error::WriterMisuse {
            message: "end() without matching begin()".into(),
        })?;
        // `stack` and `content` grow and shrink together; the successful
        // pop above guarantees this one succeeds too.
        #[allow(clippy::disallowed_methods)]
        let flags = self.content.pop().expect("stacks in sync");
        if self.tag_open {
            self.out.push_str("/>");
            self.tag_open = false;
        } else {
            if self.pretty && flags.elements && !flags.text {
                self.indent();
            }
            self.out.push_str("</");
            self.out.push_str(&name);
            self.out.push('>');
        }
        Ok(self)
    }

    /// Finish the document and return the XML text.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WriterMisuse`] if any element is still open.
    pub fn finish(mut self) -> Result<String> {
        if !self.stack.is_empty() {
            return Err(Error::WriterMisuse {
                message: format!("{} element(s) left open", self.stack.len()),
            });
        }
        if self.pretty {
            self.out.push('\n');
        }
        Ok(self.out)
    }

    /// Number of currently open elements. Useful for writer-driven codecs
    /// that need to assert balance at checkpoints.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn close_pending_tag(&mut self, _for_text: bool) {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
    }

    fn indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }
}

fn validate_name(name: &str) -> Result<()> {
    let mut chars = name.chars();
    let ok_first = matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_');
    let ok_rest = chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'));
    if ok_first && ok_rest {
        Ok(())
    } else {
        Err(Error::BadName { name: name.into() })
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::Element;

    #[test]
    fn empty_element_is_self_closing() {
        let mut w = Writer::new();
        w.begin("a").unwrap();
        w.end().unwrap();
        assert!(w.finish().unwrap().contains("<a/>"));
    }

    #[test]
    fn attributes_are_escaped() {
        let mut w = Writer::new();
        w.begin("a").unwrap().attr("v", "x\"<y>").unwrap();
        w.end().unwrap();
        let doc = w.finish().unwrap();
        assert!(doc.contains("v=\"x&quot;&lt;y&gt;\""));
    }

    #[test]
    fn attr_after_content_is_misuse() {
        let mut w = Writer::new();
        w.begin("a").unwrap();
        w.text("hi").unwrap();
        assert!(matches!(w.attr("k", "v"), Err(Error::WriterMisuse { .. })));
    }

    #[test]
    fn end_without_begin_is_misuse() {
        let mut w = Writer::new();
        assert!(matches!(w.end(), Err(Error::WriterMisuse { .. })));
    }

    #[test]
    fn finish_with_open_element_is_misuse() {
        let mut w = Writer::new();
        w.begin("a").unwrap();
        assert!(matches!(w.finish(), Err(Error::WriterMisuse { .. })));
    }

    #[test]
    fn text_outside_element_is_misuse() {
        let mut w = Writer::new();
        assert!(matches!(w.text("x"), Err(Error::WriterMisuse { .. })));
    }

    #[test]
    fn bad_element_name_is_rejected() {
        let mut w = Writer::new();
        assert!(matches!(w.begin("1bad"), Err(Error::BadName { .. })));
        assert!(matches!(w.begin("sp ace"), Err(Error::BadName { .. })));
        assert!(matches!(w.begin(""), Err(Error::BadName { .. })));
    }

    #[test]
    fn leaf_produces_single_line_element() {
        let mut w = Writer::new();
        w.begin("root").unwrap();
        w.leaf("k", "v").unwrap();
        w.end().unwrap();
        assert!(w.finish().unwrap().contains("<k>v</k>"));
    }

    #[test]
    fn comment_dashes_are_neutralized() {
        let mut w = Writer::new();
        w.begin("r").unwrap();
        w.comment("a--b").unwrap();
        w.end().unwrap();
        let doc = w.finish().unwrap();
        assert!(doc.contains("<!-- a- -b -->"));
    }

    #[test]
    fn compact_mode_has_no_newlines_after_declaration() {
        let mut w = Writer::new().compact();
        w.begin("a").unwrap();
        w.begin("b").unwrap();
        w.end().unwrap();
        w.end().unwrap();
        let doc = w.finish().unwrap();
        let body = doc.split_once('\n').unwrap().1;
        assert!(!body.contains('\n'));
    }

    #[test]
    fn written_document_parses_back() {
        let mut w = Writer::new();
        w.begin("root").unwrap().attr("a", "1").unwrap();
        w.begin("child").unwrap();
        w.text("hello & goodbye").unwrap();
        w.end().unwrap();
        w.comment("meta").unwrap();
        w.leaf("leafy", "<raw>").unwrap();
        w.end().unwrap();
        let doc = w.finish().unwrap();
        let root = Element::parse(&doc).unwrap();
        assert_eq!(root.attr("a"), Some("1"));
        assert_eq!(root.children().len(), 2);
        assert_eq!(root.children()[0].text(), "hello & goodbye");
        assert_eq!(root.children()[1].text(), "<raw>");
    }

    #[test]
    fn depth_tracks_nesting() {
        let mut w = Writer::new();
        assert_eq!(w.depth(), 0);
        w.begin("a").unwrap();
        w.begin("b").unwrap();
        assert_eq!(w.depth(), 2);
        w.end().unwrap();
        assert_eq!(w.depth(), 1);
    }
}
