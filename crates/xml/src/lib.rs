//! Minimal, dependency-free XML for the OBIWAN Object-Swapping reproduction.
//!
//! The paper's central portability claim is that swapped-out object clusters
//! travel as *plain XML text*, so that the devices storing them need no
//! virtual machine or middleware — they only store, return, or drop keyed
//! text. This crate provides exactly the XML machinery that artifact needs:
//!
//! * [`escape`] / [`escape_into`] / [`unescape`] — entity handling for text
//!   and attributes,
//! * [`Writer`] — an event-style writer with automatic element nesting,
//! * [`Reader`] — a pull parser emitting borrowed [`RawEvent`]s (and owned
//!   [`Event`]s over them),
//! * [`Element`] — a DOM-lite tree built on top of the reader for the
//!   consumers that prefer random access (the policy engine). The swap
//!   codec pulls [`RawEvent`]s directly.
//!
//! The dialect is deliberately a subset of XML 1.0: elements, attributes,
//! text, comments, CDATA and the XML declaration. No namespaces, DTDs or
//! processing instructions — the OBIWAN wire format uses none of them.
//!
//! # Examples
//!
//! ```
//! use obiwan_xml::{Writer, Element};
//!
//! # fn main() -> Result<(), obiwan_xml::Error> {
//! let mut w = Writer::new();
//! w.begin("swap-cluster")?.attr("id", "sc-2")?;
//! w.begin("object")?.attr("oid", "42")?;
//! w.text("payload & more")?;
//! w.end()?; // object
//! w.end()?; // swap-cluster
//! let xml = w.finish()?;
//!
//! let root = Element::parse(&xml)?;
//! assert_eq!(root.name(), "swap-cluster");
//! assert_eq!(root.attr("id"), Some("sc-2"));
//! assert_eq!(root.children()[0].text(), "payload & more");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod escape;
mod reader;
mod tree;
mod writer;

pub use error::Error;
pub use escape::{escape, escape_into, unescape};
pub use reader::{Event, RawEvent, Reader};
pub use tree::Element;
pub use writer::Writer;

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, Error>;
