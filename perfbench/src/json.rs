//! A minimal JSON object writer: the package has no dependencies beyond the
//! repository's own crates.

use std::fmt::Write as _;

/// Builds one JSON object, fields in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        write!(self.body, "\"{k}\": ").expect("writing to a String cannot fail");
    }

    /// A number field; non-finite values become `null`.
    pub fn num(mut self, k: &str, v: f64) -> Obj {
        self.key(k);
        if v.is_finite() {
            write!(self.body, "{v}").expect("writing to a String cannot fail");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// An integer field.
    pub fn int(mut self, k: &str, v: u64) -> Obj {
        self.key(k);
        write!(self.body, "{v}").expect("writing to a String cannot fail");
        self
    }

    /// A boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Obj {
        self.key(k);
        self.body.push_str(if v { "true" } else { "false" });
        self
    }

    /// A string field (the callers pass identifiers: no escaping needed
    /// beyond quotes and backslashes).
    pub fn str(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        write!(self.body, "\"{escaped}\"").expect("writing to a String cannot fail");
        self
    }

    /// A field holding already-rendered JSON.
    pub fn raw(mut self, k: &str, json: &str) -> Obj {
        self.key(k);
        self.body.push_str(json);
        self
    }

    /// The rendered object.
    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON array of already-rendered values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}
