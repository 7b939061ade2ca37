//! The one JSON writer of the harness. Every `BENCH_*.json` document and the
//! `perfgate` baseline render through [`Object`], which owns string
//! escaping, separators and fixed decimal places. It builds objects and
//! arrays of objects — the only shapes the harness writes — and nothing
//! more, so the documents stay dependency-free and byte-stable across
//! commits.

use std::fmt::Write as _;

/// Integer types an [`Object`] renders verbatim with [`Object::int`].
pub trait Integer: std::fmt::Display {}
impl Integer for u32 {}
impl Integer for u64 {}
impl Integer for usize {}

/// A JSON object under construction. Fields render in insertion order.
#[derive(Debug, Default)]
pub struct Object {
    out: String,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the object or separates from the previous field, then writes
    /// `"key":`.
    fn key(&mut self, key: &str) -> &mut String {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        json_string(&mut self.out, key);
        self.out.push(':');
        &mut self.out
    }

    /// Adds a string field, escaped as a JSON string literal.
    pub fn string(mut self, key: &str, value: &str) -> Self {
        json_string(self.key(key), value);
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: impl Integer) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Adds a number field rendered with exactly `places` decimal places.
    pub fn num(mut self, key: &str, value: f64, places: usize) -> Self {
        let _ = write!(self.key(key), "{value:.places$}");
        self
    }

    /// Adds an array-of-objects field.
    pub fn array(mut self, key: &str, items: impl IntoIterator<Item = Object>) -> Self {
        let out = self.key(key);
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&item.finish());
        }
        out.push(']');
        self
    }

    /// Closes the object and returns its text.
    pub fn finish(mut self) -> String {
        if self.out.is_empty() {
            self.out.push('{');
        }
        self.out.push('}');
        self.out
    }
}

/// Appends `s` as a JSON string literal.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
