//! Spans recorded from outside the program: one around every call the
//! benchmark makes into a layer's public functions. Kept in memory, written
//! to `benchmark/out/trace.json` when the traced run ends.
//!
//! A disabled tracer records nothing and `begin`/`end` cost one branch, so
//! the untraced run shares the workload code with the traced one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Repetition the span belongs to: the identifier its spans share.
    pub rep: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    rep: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

/// Count, total time and self time of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, t0: Instant::now(), rep: 0, open: Vec::new(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans begun from now on belong to repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Time `f` under a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let o = self.begin(name);
        let r = f();
        self.end(o);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that its
    /// child spans cover. Children of one parent never overlap (one thread
    /// records them), so the covered part is the sum of their durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let d = s.end_ns - s.start_ns;
                own[p as usize] = own[p as usize].saturating_sub(d);
            }
        }
        own
    }

    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.end_ns - s.start_ns;
            e.self_ns += own;
        }
        out
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"rep\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.rep
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times, so self time is checked exactly.
    fn fixed(spans: &[(&'static str, u64, u64, Option<u32>)]) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                rep: 0,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let t = fixed(&[
            ("rep", 0, 100, None),
            ("run", 10, 70, Some(0)),
            ("slice", 10, 30, Some(1)),
            ("slice", 30, 65, Some(1)),
            ("check", 70, 95, Some(0)),
        ]);
        assert_eq!(t.self_times(), vec![100 - 60 - 25, 60 - 20 - 35, 20, 35, 25]);
        let by = t.totals_by_name();
        assert_eq!(by["slice"], NameTotals { count: 2, total_ns: 55, self_ns: 55 });
        assert_eq!(by["run"], NameTotals { count: 1, total_ns: 60, self_ns: 5 });
        // Self times partition the root's duration.
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn begin_end_nest_and_record_parents() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let a = t.begin("outer");
        let b = t.begin("inner");
        t.end(b);
        t.span("sibling", || ());
        t.end(a);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((s[2].name, s[2].parent), ("sibling", Some(0)));
        assert!(s.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("x");
        t.end(a);
        assert_eq!(t.span("y", || 7), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.to_json(), "[\n]\n");
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let t = fixed(&[("a", 0, 10, None), ("b", 2, 5, Some(0))]);
        let j = t.to_json();
        assert!(j.contains("{\"id\":0,\"name\":\"a\",\"start_ns\":0,\"end_ns\":10,\"parent\":null,\"rep\":0,\"self_ns\":7}"));
        assert!(j.contains("{\"id\":1,\"name\":\"b\",\"start_ns\":2,\"end_ns\":5,\"parent\":0,\"rep\":0,\"self_ns\":3}"));
    }
}
