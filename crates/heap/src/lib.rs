//! A handle-based managed object heap for the OBIWAN reproduction.
//!
//! The paper's mechanism — detaching live sub-graphs, patching proxies,
//! letting the local garbage collector reclaim the detached replicas — is
//! formulated against a managed runtime (JVM / .NET CF). Rust's ownership
//! model famously "fights" a mutable, cyclic object graph, so this crate
//! provides the same observable semantics on top of a slab of slots indexed
//! by generational handles ([`ObjRef`]):
//!
//! * objects ([`Object`]) carry a class, a kind tag (application object,
//!   fault proxy, swap-cluster-proxy, replacement object) and a vector of
//!   [`Value`] fields;
//! * a precise **mark-sweep collector** ([`Heap::collect`]) reclaims
//!   everything unreachable from the global variables (the paper's
//!   *swap-cluster-0*) and pinned middleware anchors, and a **minor
//!   collection** ([`Heap::collect_minor`]) that traces only the objects
//!   adopted since the last collection, behind a write barrier;
//! * **weak references** ([`WeakRef`]) back the SwappingManager's proxy
//!   tables, exactly as the paper prescribes;
//! * **one death channel** replaces C# finalizers: the sweep hands each
//!   object it frees to the caller's hook ([`Heap::collect_with`]), which is
//!   how the middleware learns that, say, a replacement-object died and the
//!   storing device must be instructed to drop a blob;
//! * **byte-accurate accounting** with a hard capacity and watermarks powers
//!   the memory-pressure events that trigger swapping.
//!
//! # Examples
//!
//! ```
//! use obiwan_heap::{ClassBuilder, ClassRegistry, Heap, ObjectKind, Value};
//!
//! # fn main() -> Result<(), obiwan_heap::HeapError> {
//! let mut classes = ClassRegistry::new();
//! let node = classes.register(
//!     ClassBuilder::new("Node").ref_field("next").bytes_field("payload"),
//! );
//!
//! let mut heap = Heap::new(classes.clone(), 64 * 1024);
//! let a = heap.alloc(node, ObjectKind::App)?;
//! let b = heap.alloc(node, ObjectKind::App)?;
//! heap.set_field_by_name(a, "next", Value::Ref(b))?;
//! heap.set_global("head", Value::Ref(a));
//!
//! let collected = heap.collect();
//! assert_eq!(collected.freed_objects, 0); // both reachable from the global
//!
//! heap.set_global("head", Value::Null);
//! let collected = heap.collect();
//! assert_eq!(collected.freed_objects, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod error;
mod gc;
mod heap;
mod object;
mod stats;
mod value;
mod weak;

pub use class::{
    ClassBuilder, ClassDescriptor, ClassId, ClassRegistry, FieldDescriptor, FieldId, FieldKind,
};
pub use error::HeapError;
pub use gc::{CollectStats, Collection};
pub use heap::{Heap, ObjRef};
pub use object::{Object, ObjectHeader, ObjectKind, Oid};
pub use stats::HeapStats;
pub use value::Value;
pub use weak::WeakRef;

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, HeapError>;
