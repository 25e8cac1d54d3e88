//! Class descriptors: field layouts shared by server and device.
//!
//! In OBIWAN, application classes are distributed as class/assembly files and
//! the `obicomp` compiler augments them. Here a [`ClassRegistry`] plays the
//! role of the class files: it is built once and shared (cheaply, via
//! [`ClassRegistry::clone`]) by every process in the simulation. Method
//! *bodies* live in `obiwan-replication`'s method table, keeping this crate
//! purely about data layout.

use crate::{FieldKind::*, HeapError, Result, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a class inside a [`ClassRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub(crate) u32);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// Identifier of a field within its class (an index into the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub(crate) u16);

impl FieldId {
    /// The raw layout index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw layout index (middleware codecs iterate wire
    /// fields positionally).
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u16::MAX`.
    pub fn from_index(index: usize) -> Self {
        assert!(index <= u16::MAX as usize, "field index out of range");
        FieldId(index as u16)
    }
}

/// Static type of a field, used to validate stores and to drive the XML
/// codec's encoding choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// Reference to another object (or null).
    Ref,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Double,
    /// Boolean.
    Bool,
    /// Immutable string.
    Str,
    /// Opaque byte payload.
    Bytes,
}

impl FieldKind {
    /// Whether `value` is an acceptable store for this field kind.
    /// `Null` is acceptable everywhere (uninitialized field).
    pub fn accepts(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (Ref, Value::Ref(_))
                | (Int, Value::Int(_))
                | (Double, Value::Double(_))
                | (Bool, Value::Bool(_))
                | (Str, Value::Str(_))
                | (Bytes, Value::Bytes(_))
        )
    }

    /// Wire name used by the XML codec (`kind="ref"` etc.).
    pub fn wire_name(self) -> &'static str {
        match self {
            Ref => "ref",
            Int => "int",
            Double => "double",
            Bool => "bool",
            Str => "str",
            Bytes => "bytes",
        }
    }

    /// Parse a wire name back into a kind.
    ///
    /// # Errors
    ///
    /// [`HeapError::TypeMismatch`] for unknown names.
    pub fn from_wire_name(name: &str) -> Result<Self> {
        Ok(match name {
            "ref" => Ref,
            "int" => Int,
            "double" => Double,
            "bool" => Bool,
            "str" => Str,
            "bytes" => Bytes,
            _ => {
                return Err(HeapError::TypeMismatch {
                    expected: "a field kind name",
                    found: "unknown",
                })
            }
        })
    }
}

/// One field in a class layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDescriptor {
    name: String,
    kind: FieldKind,
}

impl FieldDescriptor {
    /// Field name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Field kind.
    pub fn kind(&self) -> FieldKind {
        self.kind
    }
}

/// A class: a name plus an ordered field layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDescriptor {
    name: String,
    fields: Vec<FieldDescriptor>,
    by_name: HashMap<String, FieldId>,
    variadic: bool,
}

impl ClassDescriptor {
    /// Class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered field layout.
    pub fn fields(&self) -> &[FieldDescriptor] {
        &self.fields
    }

    /// Number of fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Whether objects of this class may grow extra untyped fields beyond
    /// the declared layout (used by the replacement-object, which the paper
    /// describes as "simply an array of references").
    pub fn is_variadic(&self) -> bool {
        self.variadic
    }

    /// Resolve a field name to its id.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoSuchField`] naming class and field.
    pub fn field_id(&self, name: &str) -> Result<FieldId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| HeapError::NoSuchField {
                class: self.name.clone(),
                field: name.to_string(),
            })
    }

    /// Descriptor of the field with the given id.
    ///
    /// # Errors
    ///
    /// [`HeapError::FieldIndex`] if out of bounds.
    pub fn field(&self, id: FieldId) -> Result<&FieldDescriptor> {
        self.fields.get(id.index()).ok_or(HeapError::FieldIndex {
            class: self.name.clone(),
            index: id.0,
        })
    }
}

/// Fluent builder for a [`ClassDescriptor`].
///
/// # Examples
///
/// ```
/// use obiwan_heap::{ClassBuilder, ClassRegistry};
///
/// let mut reg = ClassRegistry::new();
/// let id = reg.register(
///     ClassBuilder::new("Photo")
///         .ref_field("album")
///         .str_field("title")
///         .bytes_field("pixels"),
/// );
/// assert_eq!(reg.class(id).unwrap().field_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ClassBuilder {
    name: String,
    fields: Vec<FieldDescriptor>,
    variadic: bool,
}

impl ClassBuilder {
    /// Start building a class with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ClassBuilder {
            name: name.into(),
            fields: Vec::new(),
            variadic: false,
        }
    }

    /// Allow objects of this class to carry extra untyped fields beyond the
    /// declared layout: build one with more fields than the layout
    /// ([`Object::with_field_count`](crate::Object::with_field_count)) and
    /// place it with [`Heap::adopt`](crate::Heap::adopt).
    pub fn variadic(mut self) -> Self {
        self.variadic = true;
        self
    }

    /// Add a field of an explicit kind.
    pub fn field(mut self, name: impl Into<String>, kind: FieldKind) -> Self {
        self.fields.push(FieldDescriptor {
            name: name.into(),
            kind,
        });
        self
    }

    /// Add a reference field.
    pub fn ref_field(self, name: impl Into<String>) -> Self {
        self.field(name, Ref)
    }

    /// Add an integer field.
    pub fn int_field(self, name: impl Into<String>) -> Self {
        self.field(name, Int)
    }

    /// Add a double field.
    pub fn double_field(self, name: impl Into<String>) -> Self {
        self.field(name, Double)
    }

    /// Add a boolean field.
    pub fn bool_field(self, name: impl Into<String>) -> Self {
        self.field(name, Bool)
    }

    /// Add a string field.
    pub fn str_field(self, name: impl Into<String>) -> Self {
        self.field(name, Str)
    }

    /// Add a bytes field.
    pub fn bytes_field(self, name: impl Into<String>) -> Self {
        self.field(name, Bytes)
    }

    fn build(self) -> ClassDescriptor {
        let by_name = self
            .fields
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FieldId(i as u16)))
            .collect();
        ClassDescriptor {
            name: self.name,
            fields: self.fields,
            by_name,
            variadic: self.variadic,
        }
    }
}

/// A shared, append-only registry of classes.
///
/// Cloning is cheap (`Arc` inside) *after* the registry is sealed by the
/// first clone; registration happens during setup while the registry is
/// still uniquely owned.
#[derive(Debug, Clone, Default)]
pub struct ClassRegistry {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    classes: Vec<ClassDescriptor>,
    by_name: HashMap<String, ClassId>,
}

impl ClassRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a class, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the registry has already been shared (cloned) — classes must
    /// all be registered during setup, mirroring class files being fixed
    /// before an application runs — or if the class name is already taken.
    pub fn register(&mut self, builder: ClassBuilder) -> ClassId {
        // The `# Panics` contract above is deliberate: registration after
        // sharing is a programming error, not a runtime condition.
        #[allow(clippy::disallowed_methods)]
        let inner = Arc::get_mut(&mut self.inner)
            .expect("ClassRegistry must not be modified after it has been shared");
        let desc = builder.build();
        assert!(
            !inner.by_name.contains_key(desc.name()),
            "duplicate class name `{}`",
            desc.name()
        );
        let id = ClassId(inner.classes.len() as u32);
        inner.by_name.insert(desc.name().to_string(), id);
        inner.classes.push(desc);
        id
    }

    /// Look up a class by id.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoSuchClass`] if the id is unknown.
    pub fn class(&self, id: ClassId) -> Result<&ClassDescriptor> {
        self.inner
            .classes
            .get(id.0 as usize)
            .ok_or(HeapError::NoSuchClass { class: id })
    }

    /// Look up a class id by name.
    ///
    /// # Errors
    ///
    /// [`HeapError::NoSuchClassName`] if the name is unknown.
    pub fn class_id(&self, name: &str) -> Result<ClassId> {
        self.inner
            .by_name
            .get(name)
            .copied()
            .ok_or_else(|| HeapError::NoSuchClassName {
                name: name.to_string(),
            })
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.inner.classes.len()
    }

    /// True when no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.classes.is_empty()
    }

    /// Iterate over `(id, descriptor)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, &ClassDescriptor)> {
        self.inner
            .classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u32), c))
    }
}

#[cfg(test)]
mod tests {
    // Tests assert on known-good setups; panicking on failure is the point.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn sample() -> (ClassRegistry, ClassId) {
        let mut reg = ClassRegistry::new();
        let id = reg.register(
            ClassBuilder::new("Node")
                .ref_field("next")
                .int_field("n")
                .bytes_field("payload"),
        );
        (reg, id)
    }

    #[test]
    fn register_and_lookup_by_name_and_id() {
        let (reg, id) = sample();
        assert_eq!(reg.class_id("Node").unwrap(), id);
        assert_eq!(reg.class(id).unwrap().name(), "Node");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn field_resolution_by_name_and_index() {
        let (reg, id) = sample();
        let class = reg.class(id).unwrap();
        let next = class.field_id("next").unwrap();
        assert_eq!(next.index(), 0);
        assert_eq!(class.field(next).unwrap().kind(), Ref);
        assert!(matches!(
            class.field_id("missing"),
            Err(HeapError::NoSuchField { .. })
        ));
        assert!(matches!(
            class.field(FieldId(99)),
            Err(HeapError::FieldIndex { .. })
        ));
    }

    #[test]
    fn unknown_class_lookups_fail() {
        let (reg, _) = sample();
        assert!(matches!(
            reg.class_id("Ghost"),
            Err(HeapError::NoSuchClassName { .. })
        ));
        assert!(matches!(
            reg.class(ClassId(42)),
            Err(HeapError::NoSuchClass { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate class name")]
    fn duplicate_names_panic() {
        let mut reg = ClassRegistry::new();
        reg.register(ClassBuilder::new("A"));
        reg.register(ClassBuilder::new("A"));
    }

    #[test]
    #[should_panic(expected = "must not be modified")]
    fn registering_after_share_panics() {
        let mut reg = ClassRegistry::new();
        let _shared = reg.clone();
        reg.register(ClassBuilder::new("A"));
    }

    #[test]
    fn field_kind_accepts_matching_values_and_null() {
        assert!(Ref.accepts(&Value::Null));
        assert!(Ref.accepts(&Value::Ref(crate::ObjRef::test_dummy(1))));
        assert!(!Ref.accepts(&Value::Int(1)));
        assert!(Int.accepts(&Value::Int(1)));
        assert!(Bool.accepts(&Value::Bool(false)));
    }

    #[test]
    fn wire_names_roundtrip() {
        for kind in [Ref, Int, Double, Bool, Str, Bytes] {
            assert_eq!(FieldKind::from_wire_name(kind.wire_name()).unwrap(), kind);
        }
        assert!(FieldKind::from_wire_name("float32").is_err());
    }

    #[test]
    fn iter_yields_ids_in_registration_order() {
        let mut reg = ClassRegistry::new();
        reg.register(ClassBuilder::new("A"));
        reg.register(ClassBuilder::new("B"));
        let names: Vec<_> = reg.iter().map(|(_, c)| c.name().to_string()).collect();
        assert_eq!(names, ["A", "B"]);
    }
}
