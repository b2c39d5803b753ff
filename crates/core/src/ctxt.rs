//! Execution context (`RMT_CTXT`).
//!
//! §3.1: match fields are "the 'execution context' … organized in a
//! key/value map of the type RMT_CTXT and can be retrieved using a match
//! key. In essence, the execution context is akin to today's kernel
//! monitoring data, but the pattern match strips away unnecessary
//! monitoring and only preserves monitors critical to decision making.
//! This is also constant-time in a system-wide manner."
//!
//! A [`CtxtSchema`] declares the fields a program may read or write; a
//! [`Ctxt`] is the flat, constant-time-indexed value vector a kernel
//! hook fills in before firing the RMT pipeline. Field reads and writes
//! compile to `RMT_LD_CTXT` / `RMT_ST_CTXT`.

/// Identifies a context field; indexes into the schema and value vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u16);

/// Declares one context field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Human-readable name (e.g. `"pid"`, `"last_page"`).
    pub name: String,
    /// Whether programs may write this field with `RMT_ST_CTXT`
    /// (monitoring scratch) or it is kernel-provided and read-only.
    pub writable: bool,
}

/// The declared set of context fields for a program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CtxtSchema {
    fields: Vec<FieldDef>,
}

impl CtxtSchema {
    /// Creates an empty schema.
    pub fn new() -> CtxtSchema {
        CtxtSchema::default()
    }

    /// Declares a field, returning its id. Names need not be unique at
    /// this layer; the verifier rejects duplicates program-wide.
    pub fn add(&mut self, name: &str, writable: bool) -> FieldId {
        self.fields.push(FieldDef {
            name: name.to_string(),
            writable,
        });
        FieldId((self.fields.len() - 1) as u16)
    }

    /// Declares a read-only (kernel-provided) field.
    pub fn add_readonly(&mut self, name: &str) -> FieldId {
        self.add(name, false)
    }

    /// Declares a writable (program scratch) field.
    pub fn add_scratch(&mut self, name: &str) -> FieldId {
        self.add(name, true)
    }

    /// Number of declared fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` if no fields are declared.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Looks up a field definition.
    pub fn get(&self, id: FieldId) -> Option<&FieldDef> {
        self.fields.get(id.0 as usize)
    }

    /// Finds a field id by name (first match).
    pub fn by_name(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| FieldId(i as u16))
    }

    /// Iterates `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &FieldDef)> {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, d)| (FieldId(i as u16), d))
    }

    /// Creates a zeroed context conforming to this schema.
    pub fn make_ctxt(&self) -> Ctxt {
        Ctxt {
            values: vec![0; self.fields.len()],
        }
    }
}

/// A populated execution context: one `i64` per schema field, indexed in
/// constant time by [`FieldId`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ctxt {
    values: Vec<i64>,
}

impl Ctxt {
    /// Creates a context with explicit values (mostly for tests; hooks
    /// normally start from [`CtxtSchema::make_ctxt`]).
    pub fn from_values(values: Vec<i64>) -> Ctxt {
        Ctxt { values }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the context has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Reads a field; `None` if out of range (verified programs never
    /// see this).
    #[inline]
    pub fn get(&self, id: FieldId) -> Option<i64> {
        self.values.get(id.0 as usize).copied()
    }

    /// Writes a field; returns `false` if out of range.
    #[inline]
    pub fn set(&mut self, id: FieldId, v: i64) -> bool {
        match self.values.get_mut(id.0 as usize) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }
    }

    /// Extracts the match-key values for a list of fields, as unsigned
    /// words (the match engine's key type), into a caller-owned buffer —
    /// the fire path reuses scratch buffers so it never allocates a key.
    /// Missing fields read as 0 so that key extraction is total.
    pub fn key_into(&self, fields: &[FieldId], out: &mut Vec<u64>) {
        out.clear();
        out.extend(fields.iter().map(|f| self.get(*f).unwrap_or(0) as u64));
    }

    /// Raw values (read-only).
    pub fn values(&self) -> &[i64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_declaration_and_lookup() {
        let mut s = CtxtSchema::new();
        let pid = s.add_readonly("pid");
        let hist = s.add_scratch("hist0");
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.by_name("pid"), Some(pid));
        assert_eq!(s.by_name("hist0"), Some(hist));
        assert_eq!(s.by_name("nope"), None);
        assert!(!s.get(pid).unwrap().writable);
        assert!(s.get(hist).unwrap().writable);
        assert!(s.get(FieldId(9)).is_none());
    }

    #[test]
    fn ctxt_read_write() {
        let mut s = CtxtSchema::new();
        let a = s.add_scratch("a");
        let b = s.add_scratch("b");
        let mut c = s.make_ctxt();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(a), Some(0));
        assert!(c.set(a, 42));
        assert!(c.set(b, -7));
        assert_eq!(c.get(a), Some(42));
        assert_eq!(c.get(b), Some(-7));
        assert!(!c.set(FieldId(5), 1));
        assert_eq!(c.get(FieldId(5)), None);
    }

    #[test]
    fn key_extraction_is_total() {
        let c = Ctxt::from_values(vec![10, -1]);
        let mut key = vec![99];
        c.key_into(&[FieldId(0), FieldId(1), FieldId(7)], &mut key);
        assert_eq!(key, vec![10, (-1i64) as u64, 0]);
    }

    #[test]
    fn iter_enumerates_in_order() {
        let mut s = CtxtSchema::new();
        s.add_readonly("x");
        s.add_readonly("y");
        let names: Vec<&str> = s.iter().map(|(_, d)| d.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y"]);
    }
}

rkd_testkit::impl_json_newtype!(FieldId(u16));

rkd_testkit::impl_json_struct!(FieldDef { name, writable });

impl rkd_testkit::json::ToJson for CtxtSchema {
    fn to_json(&self) -> rkd_testkit::json::Json {
        rkd_testkit::json::Json::Obj(vec![(
            "fields".to_string(),
            rkd_testkit::json::ToJson::to_json(&self.fields),
        )])
    }
}

impl rkd_testkit::json::FromJson for CtxtSchema {
    fn from_json(
        json: &rkd_testkit::json::Json,
    ) -> Result<CtxtSchema, rkd_testkit::json::JsonError> {
        Ok(CtxtSchema {
            fields: Vec::<FieldDef>::from_json(json.field("fields")?)
                .map_err(|e| e.context("fields"))?,
        })
    }
}

impl rkd_testkit::json::ToJson for Ctxt {
    fn to_json(&self) -> rkd_testkit::json::Json {
        rkd_testkit::json::Json::Obj(vec![(
            "values".to_string(),
            rkd_testkit::json::ToJson::to_json(&self.values),
        )])
    }
}

impl rkd_testkit::json::FromJson for Ctxt {
    fn from_json(json: &rkd_testkit::json::Json) -> Result<Ctxt, rkd_testkit::json::JsonError> {
        Ok(Ctxt {
            values: Vec::<i64>::from_json(json.field("values")?)
                .map_err(|e| e.context("values"))?,
        })
    }
}
