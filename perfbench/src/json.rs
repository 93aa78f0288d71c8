//! A minimal JSON writer for the benchmark's output lines.
//!
//! The benchmark prints flat objects of numbers, strings and nested
//! objects only; a hand-written encoder keeps its output format
//! independent of any codec inside the program under test.

use std::fmt::Write as _;

/// One JSON value the benchmark emits.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, keeping their order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Self {
        Self::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // Rust's `Display` for f64 prints the shortest representation
            // that round-trips, so every measured digit is kept.
            Self::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Self::Num(_) => out.push_str("null"),
            Self::Str(s) => write_str(out, s),
            Self::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_with_escapes() {
        let v = Json::obj([
            ("a", Json::Num(1.5)),
            ("b", Json::Str("x\"y\n".to_string())),
            (
                "c",
                Json::obj([("d", Json::Int(3)), ("e", Json::Bool(false))]),
            ),
            ("f", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a": 1.5, "b": "x\"y\u000a", "c": {"d": 3, "e": false}, "f": null}"#
        );
    }
}
