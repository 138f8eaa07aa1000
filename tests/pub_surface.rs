//! `pub` means someone outside the crate uses it.
//!
//! rustc's `dead_code` lint cannot see a `pub` item nobody uses, so this
//! test does the census it cannot. It collects every `pub` item and every
//! named `pub` field declared in a library under `crates/*/src`, in each
//! file before its first `#[cfg(test)]` (`src/bin/` is not the library),
//! and fails on any whose name appears as a whole word in no `.rs` file
//! outside that crate's library: the other crates, every `tests/`,
//! `benches/`, `src/bin/` and `examples/`, the umbrella crate's `src/`,
//! and `benchmark/src/`. An item that must stay `pub` with no such user
//! (a type a public signature names, say) is listed in [`ALLOWED`] with
//! its reason; an entry that is used after all, or is no longer declared,
//! fails the test too, so the list cannot rot.
//!
//! The census is a lower bound on what is unused: it matches names, not
//! paths, so a name shared across crates (`new`, `len`, each host's
//! `dump_flight_recorders`) always counts as used, and so does one that
//! only a comment outside the crate mentions.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `pub` items with no user outside their crate, each with why it stays
/// `pub`: `crate::name`, where `crate` is the directory under `crates/`.
const ALLOWED: &[(&str, &str)] = &[
    ("bench::CompareRow", "returned by `experiments::compare_switchers`"),
    ("bench::MsgLatency", "returned by `stats::collect_latencies`"),
    ("core::DeliveryRecord", "returned by `Probe::delivered`"),
    ("core::Loan", "returned by `ShardPools::lend`"),
    ("core::Wakeup", "returned by `Stack::poll`"),
    ("repl::BuiltStack", "returned by `builder::build`"),
    ("repl::RunReport", "returned by `builder::check_run`"),
    ("sim::ShardStats", "the element type of `SimStats::per_shard`"),
    ("sim::WorkloadStats", "the element type of `SimStats::workloads`"),
    ("sim::bandwidth_bps", "`NetConfig { .., ..NetConfig::lan() }` outside needs every field"),
    ("sim::header_bytes", "`NetConfig { .., ..NetConfig::lan() }` outside needs every field"),
    ("telemetry::FlightEvent", "yielded by `FlightRecorder::events`"),
    ("telemetry::FlightRecorder", "the type of `TelemetrySet::deliveries`"),
    ("telemetry::SwitchRecord", "returned by `SwitchTimeline::pending`"),
    ("telemetry::SwitchSummary", "the type of `TelemetryReport::switches`"),
    ("telemetry::TelemetryState", "returned by `StackTelemetry::state`"),
];

/// Directories (relative to the workspace root) whose `.rs` files are
/// searched: every library and every user of one.
const ROOTS: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];

/// One `pub` declaration: the crate it is in, its name, where it is.
struct Decl {
    krate: String,
    name: String,
    at: String,
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The crate whose library `rel` (a `/`-separated path from the root) is
/// part of, or `None` for a file outside every library.
fn library_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (krate, path) = rest.split_once('/')?;
    (path.starts_with("src/") && !path.starts_with("src/bin/")).then_some(krate)
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The leading identifier of `s`, if it starts with one.
fn ident(s: &str) -> Option<&str> {
    let end = s.bytes().position(|b| !is_ident_byte(b)).unwrap_or(s.len());
    let id = &s[..end];
    (!id.is_empty() && !id.as_bytes()[0].is_ascii_digit()).then_some(id)
}

/// The name a line declares `pub`: an item (`pub fn`, `pub struct`,
/// `pub const`, …) or a named field (`pub name: T`). `pub(crate)`,
/// `pub use` and tuple fields declare nothing here.
fn pub_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?.trim_start();
    loop {
        let word = ident(rest)?;
        let after = rest[word.len()..].trim_start();
        match word {
            "async" | "unsafe" | "extern" => rest = after.trim_start_matches("\"C\"").trim_start(),
            "const" if after.starts_with("fn ") || after.starts_with("unsafe ") => rest = after,
            "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod" | "union" => {
                return ident(after.trim_start_matches("mut ").trim_start());
            }
            "use" | "crate" | "impl" => return None,
            _ => return (after.starts_with(':') && !after.starts_with("::")).then_some(word),
        }
    }
}

/// The library part of a source file: everything before its first
/// `#[cfg(test)]`.
fn library_part(text: &str) -> &str {
    text.find("#[cfg(test)]").map_or(text, |at| &text[..at])
}

fn words(text: &str, into: &mut BTreeSet<String>) {
    for w in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        if !w.is_empty() {
            into.insert(w.to_string());
        }
    }
}

struct Census {
    decls: Vec<Decl>,
    /// Words of each crate's library sources.
    library_words: BTreeMap<String, BTreeSet<String>>,
    /// Words of every file outside all libraries.
    other_words: BTreeSet<String>,
}

impl Census {
    fn take(root: &Path) -> Census {
        let mut files = Vec::new();
        for dir in ROOTS {
            rust_files(&root.join(dir), &mut files);
        }
        let mut census = Census {
            decls: Vec::new(),
            library_words: BTreeMap::new(),
            other_words: BTreeSet::new(),
        };
        for path in files {
            let text = fs::read_to_string(&path).expect("source files are UTF-8");
            let rel = path.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            if rel == file!() {
                continue; // the allowlist names what it exempts
            }
            let Some(krate) = library_of(&rel) else {
                words(&text, &mut census.other_words);
                continue;
            };
            words(&text, census.library_words.entry(krate.to_string()).or_default());
            for (i, line) in library_part(&text).lines().enumerate() {
                if let Some(name) = pub_name(line) {
                    census.decls.push(Decl {
                        krate: krate.to_string(),
                        name: name.to_string(),
                        at: format!("{rel}:{}", i + 1),
                    });
                }
            }
        }
        census
    }

    /// Whether `name` appears outside `krate`'s library.
    fn used_outside(&self, krate: &str, name: &str) -> bool {
        self.other_words.contains(name)
            || self.library_words.iter().any(|(k, w)| k != krate && w.contains(name))
    }
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn every_pub_item_has_a_user_outside_its_crate() {
    let census = Census::take(&workspace_root());
    assert!(census.decls.len() > 100, "the census found no declarations: wrong root?");
    let allowed: BTreeSet<&str> = ALLOWED.iter().map(|(k, _)| *k).collect();
    let mut problems = Vec::new();
    let mut declared = BTreeSet::new();
    for d in &census.decls {
        let key = format!("{}::{}", d.krate, d.name);
        if !census.used_outside(&d.krate, &d.name) && !allowed.contains(key.as_str()) {
            problems.push(format!("{key} ({}): no user outside its crate", d.at));
        }
        declared.insert(key);
    }
    for (key, _) in ALLOWED {
        let (krate, name) = key.split_once("::").expect("an entry is crate::name");
        if !declared.contains(*key) {
            problems.push(format!("{key}: allowed, but no longer declared pub"));
        } else if census.used_outside(krate, name) {
            problems.push(format!("{key}: allowed, but used outside its crate"));
        }
    }
    assert!(
        problems.is_empty(),
        "make an unused pub item pub(crate), or allow it with a reason; \
         drop an allowlist entry that no longer applies:\n  {}",
        problems.join("\n  "),
    );
}

#[test]
fn every_allowlist_entry_says_why() {
    assert!(ALLOWED.len() <= 25, "the allowlist is a short list");
    for (key, reason) in ALLOWED {
        assert!(!reason.trim().is_empty(), "{key} has no reason");
    }
}

#[test]
fn the_scanner_reads_declarations_not_uses() {
    let cases = [
        ("pub fn run(&mut self)", Some("run")),
        ("    pub const fn len(&self) -> usize {", Some("len")),
        ("pub unsafe fn raw()", Some("raw")),
        ("pub(crate) fn hidden()", None),
        ("pub struct Sim {", Some("Sim")),
        ("pub const MAX: u32 = 4;", Some("MAX")),
        ("pub static mut COUNT: u32 = 0;", Some("COUNT")),
        ("    pub seed: u64,", Some("seed")),
        ("pub use crate::stats::SimStats;", None),
        ("pub struct Id(pub u64);", Some("Id")),
        ("let x = y::pub_fn();", None),
        ("pub path: std::path::PathBuf,", Some("path")),
        ("pub type Wake = Arc<Waker>;", Some("Wake")),
    ];
    for (line, want) in cases {
        assert_eq!(pub_name(line), want, "{line}");
    }
    assert_eq!(library_of("crates/sim/src/lib.rs"), Some("sim"));
    assert_eq!(library_of("crates/bench/src/bin/fig5.rs"), None);
    assert_eq!(library_of("crates/sim/tests/par_equiv.rs"), None);
    assert_eq!(library_of("tests/soak.rs"), None);
}
