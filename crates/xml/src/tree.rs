//! DOM-lite element tree built on the pull parser.

use crate::{Error, RawEvent, Reader, Result, Writer};

/// An in-memory XML element: name, attributes, child elements and text.
///
/// Mixed content is simplified: all text chunks directly inside the element
/// are concatenated into one string, which matches every document the OBIWAN
/// wire format produces (elements carry either text or children, never an
/// interleaving that matters).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), obiwan_xml::Error> {
/// let root = obiwan_xml::Element::parse(
///     "<cluster id=\"7\"><object oid=\"1\"/><object oid=\"2\"/></cluster>",
/// )?;
/// assert_eq!(root.require_attr("id")?, "7");
/// assert_eq!(root.children_named("object").count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Element>,
    text: String,
}

impl Element {
    /// Create an element with the given name and nothing else.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Parse a document and return its root element.
    ///
    /// # Errors
    ///
    /// Any parse error from [`Reader`], plus [`Error::Structure`] when the
    /// document has no root element or trailing content after it.
    pub fn parse(doc: &str) -> Result<Element> {
        let mut reader = Reader::new(doc);
        let root = match reader.next_raw()? {
            RawEvent::Start { name, self_closing } => build(&mut reader, name, self_closing)?,
            RawEvent::Eof => return Err(Error::structure("document contains no root element")),
            other => {
                return Err(Error::structure(format!(
                    "expected root element, found {:?}",
                    reader.to_owned_event(other)
                )))
            }
        };
        match reader.next_raw()? {
            RawEvent::Eof => Ok(root),
            other => Err(Error::structure(format!(
                "trailing content after root element: {:?}",
                reader.to_owned_event(other)
            ))),
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute value by name, if present.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Attribute value by name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Structure`] naming the element and attribute if it is
    /// absent — this is the workhorse of the swap-blob codec's validation.
    pub fn require_attr(&self, name: &str) -> Result<&str> {
        self.attr(name).ok_or_else(|| {
            Error::structure(format!(
                "element <{}> missing required attribute `{name}`",
                self.name
            ))
        })
    }

    /// Parse an attribute into any `FromStr` type.
    ///
    /// # Errors
    ///
    /// [`Error::Structure`] if the attribute is missing or fails to parse.
    pub fn parse_attr<T>(&self, name: &str) -> Result<T>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let raw = self.require_attr(name)?;
        raw.parse().map_err(|e| {
            Error::structure(format!(
                "element <{}> attribute `{name}`={raw:?}: {e}",
                self.name
            ))
        })
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> &[(String, String)] {
        &self.attrs
    }

    /// Child elements in document order.
    pub fn children(&self) -> &[Element] {
        &self.children
    }

    /// Iterator over child elements with a given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// First child with the given name, if any.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.children.iter().find(|c| c.name == name)
    }

    /// First child with the given name.
    ///
    /// # Errors
    ///
    /// [`Error::Structure`] naming both elements when absent.
    pub fn require_child(&self, name: &str) -> Result<&Element> {
        self.child(name).ok_or_else(|| {
            Error::structure(format!(
                "element <{}> missing required child <{name}>",
                self.name
            ))
        })
    }

    /// Concatenated text content directly inside this element.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Builder-style: set an attribute (replacing an existing one).
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Set an attribute, replacing any existing value.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
    }

    /// Builder-style: append a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(child);
        self
    }

    /// Append a child element.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(child);
    }

    /// Builder-style: set the text content.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Serialize this element (and subtree) to an XML document string.
    ///
    /// The output always parses back to an equal tree; see the property test.
    // A parsed tree always re-serializes: every `begin` is matched by an
    // `end`, so neither call can fail and `String` stays the right return
    // type for this infallible round-trip.
    #[allow(clippy::disallowed_methods)]
    pub fn to_xml(&self) -> String {
        let mut w = Writer::new();
        self.write_into(&mut w)
            .expect("tree is well-formed by construction");
        w.finish().expect("balanced by construction")
    }

    fn write_into(&self, w: &mut Writer) -> Result<()> {
        w.begin(&self.name)?;
        for (k, v) in &self.attrs {
            w.attr(k, v)?;
        }
        if !self.text.is_empty() {
            w.text(&self.text)?;
        }
        for c in &self.children {
            c.write_into(w)?;
        }
        w.end()?;
        Ok(())
    }
}

fn build<'a>(reader: &mut Reader<'a>, name: &'a str, self_closing: bool) -> Result<Element> {
    let mut el = Element {
        name: name.to_owned(),
        attrs: reader.owned_attrs(),
        children: Vec::new(),
        text: String::new(),
    };
    if self_closing {
        // Consume the synthetic End.
        return match reader.next_raw()? {
            RawEvent::End { .. } => Ok(el),
            other => Err(Error::structure(format!(
                "expected end, got {:?}",
                reader.to_owned_event(other)
            ))),
        };
    }
    loop {
        match reader.next_raw()? {
            RawEvent::Start { name, self_closing } => {
                el.children.push(build(reader, name, self_closing)?);
            }
            RawEvent::Text(t) => el.text.push_str(&t),
            RawEvent::End { .. } => return Ok(el),
            RawEvent::Eof => {
                return Err(Error::UnexpectedEof {
                    context: "element tree",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_and_navigate() {
        let root = Element::parse("<a k=\"v\"><b/><c n=\"2\">txt</c><b/></a>").unwrap();
        assert_eq!(root.name(), "a");
        assert_eq!(root.attr("k"), Some("v"));
        assert_eq!(root.children().len(), 3);
        assert_eq!(root.children_named("b").count(), 2);
        assert_eq!(root.child("c").unwrap().text(), "txt");
    }

    #[test]
    fn require_attr_reports_element_and_attribute() {
        let root = Element::parse("<thing/>").unwrap();
        let err = root.require_attr("oid").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("thing") && msg.contains("oid"));
    }

    #[test]
    fn parse_attr_converts_numbers() {
        let root = Element::parse("<a n=\"42\" f=\"2.5\"/>").unwrap();
        assert_eq!(root.parse_attr::<u64>("n").unwrap(), 42);
        assert_eq!(root.parse_attr::<f64>("f").unwrap(), 2.5);
        assert!(root.parse_attr::<u64>("f").is_err());
    }

    #[test]
    fn require_child_reports_both_names() {
        let root = Element::parse("<a/>").unwrap();
        let msg = root.require_child("b").unwrap_err().to_string();
        assert!(msg.contains("<a>") && msg.contains("<b>"));
    }

    #[test]
    fn empty_document_is_structure_error() {
        assert!(matches!(Element::parse(""), Err(Error::Structure { .. })));
        assert!(matches!(
            Element::parse("<?xml version=\"1.0\"?>"),
            Err(Error::Structure { .. })
        ));
    }

    #[test]
    fn trailing_root_sibling_is_structure_error() {
        assert!(matches!(
            Element::parse("<a/><b/>"),
            Err(Error::Structure { .. })
        ));
    }

    #[test]
    fn builder_roundtrip() {
        let el = Element::new("swap-cluster")
            .with_attr("id", "sc-9")
            .with_child(
                Element::new("object")
                    .with_attr("oid", "1")
                    .with_text("x&y"),
            );
        let doc = el.to_xml();
        let back = Element::parse(&doc).unwrap();
        assert_eq!(back, el);
    }

    #[test]
    fn set_attr_replaces_existing() {
        let mut el = Element::new("a").with_attr("k", "1");
        el.set_attr("k", "2");
        assert_eq!(el.attr("k"), Some("2"));
        assert_eq!(el.attrs().len(), 1);
    }

    fn arb_element(depth: u32) -> impl Strategy<Value = Element> {
        let name = "[a-z][a-z0-9]{0,6}";
        let attr = ("[a-z]{1,5}", "\\PC{0,12}");
        let leaf = (name, proptest::collection::vec(attr, 0..3), "\\PC{0,16}").prop_map(
            |(n, attrs, text)| {
                let mut el = Element::new(n).with_text(text);
                // Dedup attr names to keep equality semantics simple.
                for (k, v) in attrs {
                    el.set_attr(k, v);
                }
                el
            },
        );
        leaf.prop_recursive(depth, 24, 3, |inner| {
            ("[a-z][a-z0-9]{0,6}", proptest::collection::vec(inner, 0..3)).prop_map(
                |(n, children)| {
                    let mut el = Element::new(n);
                    for c in children {
                        el.push_child(c);
                    }
                    el
                },
            )
        })
    }

    proptest! {
        #[test]
        fn to_xml_parse_roundtrip(el in arb_element(3)) {
            let doc = el.to_xml();
            let back = Element::parse(&doc).unwrap();
            // Whitespace-only text is dropped by the reader; normalize.
            fn norm(e: &Element) -> Element {
                let mut c = e.clone();
                if c.text.trim().is_empty() { c.text.clear(); }
                c.children = c.children.iter().map(norm).collect();
                c
            }
            prop_assert_eq!(norm(&back), norm(&el));
        }
    }
}
