//! A minimal pretty-printing JSON writer.
//!
//! The repo commits a machine-readable capacity baseline
//! (`BENCH_scale.json`) and emits telemetry reports; each emitter used to
//! hand-roll its own `format!` JSON, which meant four slightly different
//! escaping and indentation dialects. This writer is the single
//! implementation: two-space indented, keys in call order, comma
//! bookkeeping handled by a container stack. `bench_scale` and
//! [`crate::TelemetryReport::to_json`] both use it.
//!
//! Not a serializer framework — no derive, no reflection, no
//! non-finite-float cleverness (non-finite writes `null`). A `raw`
//! escape hatch splices pre-formatted JSON (e.g. a committed baseline
//! block) without re-parsing it.

/// Incremental pretty-printed JSON builder.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: `true` once it has a member (so
    /// the next member needs a leading comma).
    stack: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn newline_indent(&mut self) {
        self.buf.push('\n');
        for _ in 0..self.stack.len() {
            self.buf.push_str("  ");
        }
    }

    /// Start a member: comma if needed, newline, indent.
    fn next_member(&mut self) {
        if let Some(has) = self.stack.last_mut() {
            if *has {
                self.buf.push(',');
            }
            *has = true;
            self.newline_indent();
        }
    }

    fn push_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// Open an object as the next value (root, array element, or after
    /// [`key`](Self::key)).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.buf.push('{');
        self.stack.push(false);
        self
    }

    /// Close the innermost object.
    pub fn end_obj(&mut self) -> &mut Self {
        let had_members = self.stack.pop().unwrap_or(false);
        if had_members {
            self.newline_indent();
        }
        self.buf.push('}');
        self
    }

    /// Open an array as the next value.
    pub fn begin_arr(&mut self) -> &mut Self {
        self.buf.push('[');
        self.stack.push(false);
        self
    }

    /// Close the innermost array.
    pub fn end_arr(&mut self) -> &mut Self {
        let had_members = self.stack.pop().unwrap_or(false);
        if had_members {
            self.newline_indent();
        }
        self.buf.push(']');
        self
    }

    /// Write `"k": ` — follow with a value or container call.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.next_member();
        self.push_escaped(k);
        self.buf.push_str(": ");
        self
    }

    /// Array-element separator: comma/newline before a bare value or
    /// container in an array.
    pub fn elem(&mut self) -> &mut Self {
        self.next_member();
        self
    }

    /// Bare string value (after `key`/`elem`).
    pub(crate) fn str_val(&mut self, v: &str) -> &mut Self {
        self.push_escaped(v);
        self
    }

    /// Bare unsigned value.
    pub(crate) fn u64_val(&mut self, v: u64) -> &mut Self {
        self.buf.push_str(&v.to_string());
        self
    }

    /// Bare float value with `decimals` fractional digits (non-finite
    /// floats become `null`).
    pub(crate) fn f64_val(&mut self, v: f64, decimals: usize) -> &mut Self {
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.decimals$}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Splice pre-formatted JSON verbatim as the next value. The caller
    /// owns its validity and indentation.
    pub(crate) fn raw_val(&mut self, raw: &str) -> &mut Self {
        self.buf.push_str(raw);
        self
    }

    /// `"k": "v"`.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).str_val(v)
    }

    /// `"k": 42`.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).u64_val(v)
    }

    /// `"k": 1.25` with fixed fractional digits.
    pub fn field_f64(&mut self, k: &str, v: f64, decimals: usize) -> &mut Self {
        self.key(k).f64_val(v, decimals)
    }

    /// `"k": <raw>`.
    pub fn field_raw(&mut self, k: &str, raw: &str) -> &mut Self {
        self.key(k).raw_val(raw)
    }

    /// Finish: all containers must be closed. Appends a trailing
    /// newline (committed baselines end in one).
    pub fn finish(mut self) -> String {
        assert!(self.stack.is_empty(), "unclosed JSON container");
        self.buf.push('\n');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_object_renders_two_space_indented() {
        let mut w = JsonWriter::new();
        w.begin_obj().field_str("bench", "demo").field_u64("n", 1024).key("rows").begin_arr();
        for n in [1u64, 2] {
            w.elem().begin_obj().field_u64("n", n).field_f64("rate", 0.5 * n as f64, 2).end_obj();
        }
        w.end_arr().end_obj();
        let out = w.finish();
        let expect = r#"{
  "bench": "demo",
  "n": 1024,
  "rows": [
    {
      "n": 1,
      "rate": 0.50
    },
    {
      "n": 2,
      "rate": 1.00
    }
  ]
}
"#;
        assert_eq!(out, expect);
    }

    #[test]
    fn strings_are_escaped() {
        let mut w = JsonWriter::new();
        w.begin_obj().field_str("msg", "a \"quoted\"\nline\t\\").end_obj();
        let out = w.finish();
        assert_eq!(out, "{\n  \"msg\": \"a \\\"quoted\\\"\\nline\\t\\\\\"\n}\n");
    }

    #[test]
    fn empty_containers_stay_compact() {
        let mut w = JsonWriter::new();
        w.begin_obj().key("rows").begin_arr().end_arr().key("meta").begin_obj().end_obj().end_obj();
        assert_eq!(w.finish(), "{\n  \"rows\": [],\n  \"meta\": {}\n}\n");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_obj().field_f64("bad", f64::NAN, 2).end_obj();
        assert_eq!(w.finish(), "{\n  \"bad\": null\n}\n");
    }

    #[test]
    fn raw_splices_verbatim() {
        let mut w = JsonWriter::new();
        w.begin_obj().field_raw("baseline", "{ \"x\": 1 }").end_obj();
        assert_eq!(w.finish(), "{\n  \"baseline\": { \"x\": 1 }\n}\n");
    }

    #[test]
    #[should_panic(expected = "unclosed JSON container")]
    fn finish_rejects_unclosed_containers() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        let _ = w.finish();
    }
}
