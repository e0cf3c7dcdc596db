//! The lint pass: every workspace invariant, checked against the scanned
//! sources.
//!
//! Each lint has a stable kebab-case name and can be suppressed at a single
//! site with a comment of the form
//!
//! ```text
//! // lint: allow(<name>) -- <reason>
//! ```
//!
//! on the offending line, or on the comment block immediately above the
//! offending statement.  The reason is mandatory; a suppression without one
//! (or naming an unknown lint) is itself reported under `suppression-syntax`,
//! which cannot be suppressed.

use crate::config::Config;
use crate::lexer::{find_word, find_words, SourceFile};

/// Every lint the pass knows, in reporting order.
pub const LINTS: &[&str] = &[
    "target-feature-parity",
    "lock-order",
    "guard-across-probe",
    "ordering-comment",
    "suppression-syntax",
];

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The lint name, from [`LINTS`].
    pub lint: &'static str,
    /// Workspace-relative path of the offending file.
    pub rel_path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel_path, self.line, self.lint, self.message
        )
    }
}

/// Whether `rel_path` is test-side code (integration tests, benches,
/// examples, fixtures) exempt from the library-perimeter lints.
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|part| matches!(part, "tests" | "benches" | "examples" | "fixtures"))
}

/// Runs every lint over `files` and applies suppressions.
pub fn run(files: &[SourceFile], cfg: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files.iter().filter(|f| !is_test_path(&f.rel_path)) {
        lint_target_feature_parity(file, &mut findings);
        lint_locks(file, cfg, &mut findings);
        lint_ordering_comment(file, &mut findings);
    }

    // Parse suppressions (reporting malformed ones) and filter.
    let mut suppressions: Vec<(String, usize, usize, String)> = Vec::new();
    for file in files {
        collect_suppressions(file, &mut suppressions, &mut findings);
    }
    findings.retain(|f| {
        if f.lint == "suppression-syntax" {
            return true;
        }
        !suppressions.iter().any(|(path, start, end, name)| {
            *path == f.rel_path && name == f.lint && f.line >= *start && f.line <= *end
        })
    });

    findings.sort_by(|a, b| (&a.rel_path, a.line, a.lint).cmp(&(&b.rel_path, b.line, b.lint)));
    findings
}

fn push(
    findings: &mut Vec<Finding>,
    lint: &'static str,
    file: &SourceFile,
    line: usize,
    message: String,
) {
    findings.push(Finding {
        lint,
        rel_path: file.rel_path.clone(),
        line,
        message,
    });
}

/// Whether the 1-based `line` holds only comments/whitespace in the code
/// view.
fn comment_only(file: &SourceFile, line: usize) -> bool {
    file.code_line(line).trim().is_empty() && file.comments_on(line).next().is_some()
}

// ---------------------------------------------------------------------------
// target-feature-parity
// ---------------------------------------------------------------------------

/// Every `*_avx2` kernel must have a scalar twin (same name, suffix
/// stripped) defined in the same file and *named* inside a test region — the
/// parity test that compares the two.
fn lint_target_feature_parity(file: &SourceFile, findings: &mut Vec<Finding>) {
    let mut seen: Vec<String> = Vec::new();
    let bytes = file.code.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphabetic() || b == b'_' {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = &file.code[start..i];
            if let Some(twin) = word.strip_suffix("_avx2") {
                if !twin.is_empty() && !seen.iter().any(|w| w == word) {
                    seen.push(word.to_string());
                    check_twin(file, twin, word, file.line_of(start), findings);
                }
            }
        } else {
            i += 1;
        }
    }
}

fn check_twin(
    file: &SourceFile,
    twin: &str,
    kernel: &str,
    line: usize,
    findings: &mut Vec<Finding>,
) {
    let defined = find_word(&file.code, &format!("fn {twin}")).is_some();
    if !defined {
        push(
            findings,
            "target-feature-parity",
            file,
            line,
            format!("accelerated kernel `{kernel}` has no scalar twin `fn {twin}` in this file"),
        );
        return;
    }
    let named_in_test = find_words(&file.code, twin)
        .iter()
        .any(|&off| file.in_test_region(file.line_of(off)));
    if !named_in_test {
        push(
            findings,
            "target-feature-parity",
            file,
            line,
            format!(
                "scalar twin `{twin}` of `{kernel}` is never named in a test region — \
                 the parity test must call both"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// lock-order / guard-across-probe
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct LiveGuard {
    name: String,
    rank: Option<u8>,
    receiver: String,
    depth: usize,
    line: usize,
}

/// Intra-function lock discipline: ranked guards must be acquired in
/// strictly increasing rank order, and no guard may be live across a
/// probe/run call.
fn lint_locks(file: &SourceFile, cfg: &Config, findings: &mut Vec<Finding>) {
    let sites: Vec<_> = cfg
        .lock_table
        .iter()
        .filter(|s| s.file == file.rel_path)
        .collect();
    let bytes = file.code.as_bytes();
    let mut depth = 0usize;
    let mut guards: Vec<LiveGuard> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            b'.' => {
                if let Some(call_len) = lock_call_at(&file.code, i) {
                    let line = file.line_of(i);
                    if !file.in_test_region(line) {
                        handle_acquisition(
                            file,
                            &sites,
                            &mut guards,
                            depth,
                            i,
                            call_len,
                            line,
                            findings,
                        );
                    }
                    i += call_len;
                    continue;
                }
            }
            // `drop(name)` releases a guard early.
            b'd' if file.code[i..].starts_with("drop(")
                && (i == 0 || !is_ident_byte(bytes[i - 1])) =>
            {
                let after = &file.code[i + 5..];
                let name: String = after
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                guards.retain(|g| g.name != name);
            }
            _ => {}
        }
        // Probe/run calls with a guard live.
        if !guards.is_empty() {
            let line = file.line_of(i);
            if !file.in_test_region(line) {
                for pat in &cfg.probe_calls {
                    if file.code[i..].starts_with(pat) && !is_fn_def(bytes, i, pat) {
                        let held: Vec<String> = guards
                            .iter()
                            .map(|g| format!("`{}` ({}:{})", g.name, g.receiver, g.line))
                            .collect();
                        push(
                            findings,
                            "guard-across-probe",
                            file,
                            line,
                            format!(
                                "probe-side call `{}…)` while lock guard(s) {} are live — \
                                 release before probing",
                                pat.trim_end_matches('('),
                                held.join(", ")
                            ),
                        );
                        i += pat.len() - 1;
                        break;
                    }
                }
            }
        }
        i += 1;
    }
}

/// If `code[dot..]` starts a zero-argument lock acquisition (`.lock()`,
/// `.read()`, `.write()`), returns the call's byte length.
fn lock_call_at(code: &str, dot: usize) -> Option<usize> {
    for call in [".lock()", ".read()", ".write()"] {
        if code[dot..].starts_with(call) {
            return Some(call.len());
        }
    }
    None
}

/// Whether the identifier starting at `at` is a `fn` definition's name
/// rather than a call (only relevant for dot-less probe patterns).
fn is_fn_def(bytes: &[u8], at: usize, pat: &str) -> bool {
    if pat.starts_with('.') {
        return false;
    }
    if at > 0 && is_ident_byte(bytes[at - 1]) {
        return true; // tail of a longer identifier
    }
    let mut j = at;
    while j > 0 && bytes[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    j >= 2 && &bytes[j - 2..j] == b"fn"
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[allow(clippy::too_many_arguments)]
fn handle_acquisition(
    file: &SourceFile,
    sites: &[&crate::config::LockSite],
    guards: &mut Vec<LiveGuard>,
    depth: usize,
    dot: usize,
    call_len: usize,
    line: usize,
    findings: &mut Vec<Finding>,
) {
    let receiver = receiver_before(&file.code, dot).unwrap_or_default();
    let rank = sites
        .iter()
        .find(|s| s.receiver == receiver)
        .map(|s| s.rank);
    if let Some(rank) = rank {
        for held in guards.iter() {
            if let Some(held_rank) = held.rank {
                if held_rank >= rank {
                    push(
                        findings,
                        "lock-order",
                        file,
                        line,
                        format!(
                            "acquiring `{receiver}` (rank {rank}) while `{}` (rank \
                             {held_rank}, line {}) is held — ranks must strictly \
                             increase along any nesting chain",
                            held.name, held.line
                        ),
                    );
                }
            }
        }
    }
    // A bound guard stays live to the end of its block; a chained call on
    // the guard (`.lock().push(…)`) is a temporary released immediately.
    let after = file.code[dot + call_len..].trim_start();
    if after.starts_with('.') {
        return;
    }
    if let Some(name) = binding_name(file, dot) {
        guards.push(LiveGuard {
            name,
            rank,
            receiver,
            depth,
            line,
        });
    }
}

/// The identifier immediately before the `.` of an acquisition, skipping a
/// trailing index expression (`self.shards[i].lock()` → `shards`) and any
/// interleaved whitespace/newlines (continuation lines).
fn receiver_before(code: &str, dot: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut j = dot;
    while j > 0 && bytes[j - 1].is_ascii_whitespace() {
        j -= 1;
    }
    if j > 0 && bytes[j - 1] == b']' {
        let mut depth = 0usize;
        while j > 0 {
            j -= 1;
            match bytes[j] {
                b']' => depth += 1,
                b'[' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let end = j;
    while j > 0 && is_ident_byte(bytes[j - 1]) {
        j -= 1;
    }
    if j == end {
        None
    } else {
        Some(code[j..end].to_string())
    }
}

/// If the statement containing the acquisition at `dot` is a `let` binding,
/// returns the bound name (the last identifier of the pattern).
fn binding_name(file: &SourceFile, dot: usize) -> Option<String> {
    let bytes = file.code.as_bytes();
    let mut start = dot;
    while start > 0 && !matches!(bytes[start - 1], b';' | b'{' | b'}') {
        start -= 1;
    }
    let stmt = &file.code[start..dot];
    let let_at = find_word(stmt, "let")?;
    let eq = stmt[let_at..].find('=')?;
    let pattern = &stmt[let_at + 3..let_at + eq];
    let mut last = None;
    for word in pattern.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
        if !word.is_empty() && word != "mut" {
            last = Some(word.to_string());
        }
    }
    last
}

// ---------------------------------------------------------------------------
// ordering-comment
// ---------------------------------------------------------------------------

/// Every `Ordering::Relaxed` needs an adjacent `// ORDERING:` comment
/// arguing why relaxed is enough (the stricter orderings document
/// themselves by pairing with an acquire/release partner).
fn lint_ordering_comment(file: &SourceFile, findings: &mut Vec<Finding>) {
    let mut from = 0usize;
    const NEEDLE: &str = "Ordering::Relaxed";
    while let Some(rel) = file.code[from..].find(NEEDLE) {
        let off = from + rel;
        from = off + NEEDLE.len();
        let line = file.line_of(off);
        if file.in_test_region(line) {
            continue;
        }
        if !ordering_comment_near(file, line) {
            push(
                findings,
                "ordering-comment",
                file,
                line,
                "bare `Ordering::Relaxed` — add an adjacent `// ORDERING:` comment \
                 arguing why relaxed is sufficient"
                    .into(),
            );
        }
    }
}

/// Whether a `// ORDERING:` comment sits on `line` or within the 12
/// preceding lines with no fully blank line in between (one comment may
/// cover a contiguous block of relaxed operations).
fn ordering_comment_near(file: &SourceFile, line: usize) -> bool {
    if file.comments_on(line).any(|c| c.contains("ORDERING:")) {
        return true;
    }
    let mut l = line;
    for _ in 0..12 {
        if l <= 1 {
            break;
        }
        l -= 1;
        let blank = file.code_line(l).trim().is_empty() && file.comments_on(l).next().is_none();
        if blank {
            break;
        }
        if file.comments_on(l).any(|c| c.contains("ORDERING:")) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// suppressions
// ---------------------------------------------------------------------------

/// Parses `// lint: allow(<name>) -- <reason>` comments.  Each suppression
/// covers its own line, any directly following comment-only lines, and the
/// statement that starts on the next code line (through the first line
/// containing `;` or `{`, capped at 8 lines).
fn collect_suppressions(
    file: &SourceFile,
    out: &mut Vec<(String, usize, usize, String)>,
    findings: &mut Vec<Finding>,
) {
    for (line, text) in &file.comments {
        // Doc comments only *describe* the syntax; live suppressions are
        // plain `//` comments.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let Some(at) = text.find("lint:") else {
            continue;
        };
        let spec = text[at + "lint:".len()..].trim();
        let parsed = (|| -> Option<(String, bool)> {
            let rest = spec.strip_prefix("allow(")?;
            let close = rest.find(')')?;
            let name = rest[..close].trim().to_string();
            let tail = rest[close + 1..].trim_start();
            let reason = tail.strip_prefix("--")?.trim();
            Some((name, !reason.is_empty()))
        })();
        let Some((name, has_reason)) = parsed else {
            push(
                findings,
                "suppression-syntax",
                file,
                *line,
                "malformed suppression — expected `// lint: allow(<name>) -- <reason>`".into(),
            );
            continue;
        };
        if !LINTS.contains(&name.as_str()) {
            push(
                findings,
                "suppression-syntax",
                file,
                *line,
                format!("suppression names unknown lint `{name}`"),
            );
            continue;
        }
        if name == "suppression-syntax" {
            push(
                findings,
                "suppression-syntax",
                file,
                *line,
                "`suppression-syntax` cannot be suppressed".into(),
            );
            continue;
        }
        if !has_reason {
            push(
                findings,
                "suppression-syntax",
                file,
                *line,
                format!("suppression of `{name}` is missing a reason after `--`"),
            );
            continue;
        }
        out.push((
            file.rel_path.clone(),
            *line,
            coverage_end(file, *line),
            name,
        ));
    }
}

/// The last 1-based line a suppression at `line` covers.
fn coverage_end(file: &SourceFile, line: usize) -> usize {
    let mut l = line;
    // Skip the rest of the comment block.
    while l < file.line_count() && comment_only(file, l + 1) {
        l += 1;
    }
    // Cover the following statement, through its first `;` or `{`.
    let mut budget = 8usize;
    while l < file.line_count() && budget > 0 {
        l += 1;
        budget -= 1;
        let code = file.code_line(l);
        if code.contains(';') || code.contains('{') {
            break;
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn check_one(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
        let file = SourceFile::scan(rel, src);
        run(&[file], cfg)
    }

    #[test]
    fn suppression_with_reason_silences_a_finding() {
        let cfg = Config::empty(PathBuf::from("."));
        let src = "fn f() {\n    \
                   // lint: allow(ordering-comment) -- a statistics counter.\n    \
                   x.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(check_one("src/o.rs", src, &cfg).is_empty());
    }

    #[test]
    fn malformed_suppression_is_reported_and_does_not_silence() {
        let cfg = Config::empty(PathBuf::from("."));
        let src = "fn f() {\n    \
                   // lint: allow(ordering-comment)\n    \
                   x.fetch_add(1, Ordering::Relaxed);\n}\n";
        let f = check_one("src/o.rs", src, &cfg);
        let lints: Vec<_> = f.iter().map(|x| x.lint).collect();
        assert!(lints.contains(&"suppression-syntax"), "{f:?}");
        assert!(lints.contains(&"ordering-comment"), "{f:?}");
    }

    #[test]
    fn lock_order_flags_inverted_ranks_only() {
        let mut cfg = Config::empty(PathBuf::from("."));
        cfg.lock_table.push(crate::config::LockSite {
            file: "src/l.rs",
            receiver: "low",
            rank: 10,
        });
        cfg.lock_table.push(crate::config::LockSite {
            file: "src/l.rs",
            receiver: "high",
            rank: 20,
        });
        let clean = "fn f() {\n    let a = low.lock();\n    let b = high.lock();\n}\n";
        assert!(check_one("src/l.rs", clean, &cfg).is_empty());
        let dirty = "fn f() {\n    let a = high.lock();\n    let b = low.lock();\n}\n";
        let f = check_one("src/l.rs", dirty, &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "lock-order");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn guard_dies_at_scope_end_and_on_drop() {
        let mut cfg = Config::empty(PathBuf::from("."));
        cfg.lock_table.push(crate::config::LockSite {
            file: "src/l.rs",
            receiver: "high",
            rank: 20,
        });
        cfg.lock_table.push(crate::config::LockSite {
            file: "src/l.rs",
            receiver: "low",
            rank: 10,
        });
        let scoped = "fn f() {\n    {\n        let a = high.lock();\n    }\n    \
                      let b = low.lock();\n}\n";
        assert!(check_one("src/l.rs", scoped, &cfg).is_empty());
        let dropped = "fn f() {\n    let a = high.lock();\n    drop(a);\n    \
                       let b = low.lock();\n}\n";
        assert!(check_one("src/l.rs", dropped, &cfg).is_empty());
    }

    #[test]
    fn chained_temporaries_are_not_live_guards() {
        let mut cfg = Config::empty(PathBuf::from("."));
        cfg.lock_table.push(crate::config::LockSite {
            file: "src/l.rs",
            receiver: "high",
            rank: 20,
        });
        cfg.lock_table.push(crate::config::LockSite {
            file: "src/l.rs",
            receiver: "low",
            rank: 10,
        });
        let src = "fn f() {\n    let n = high.lock().len();\n    let b = low.lock();\n}\n";
        assert!(check_one("src/l.rs", src, &cfg).is_empty());
    }

    #[test]
    fn probe_under_guard_is_flagged() {
        let cfg = Config::empty(PathBuf::from("."));
        let src = "fn f() {\n    let g = m.lock();\n    handle.query(&probe);\n}\n";
        let f = check_one("src/l.rs", src, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "guard-across-probe");
        // The direct probe routine is a free function, not a method.
        let src = "fn f() {\n    let g = m.lock();\n    probe_rows(n, 1, metrics, new, scan);\n}\n";
        let f = check_one("src/l.rs", src, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "guard-across-probe");
        // Its definition is not a call.
        let def = "fn f() {\n    let g = m.lock();\n}\nfn probe_rows(n: usize) {}\n";
        assert!(check_one("src/l.rs", def, &cfg).is_empty());
    }

    #[test]
    fn ordering_comment_covers_adjacent_relaxed_block() {
        let cfg = Config::empty(PathBuf::from("."));
        let clean = "fn f() {\n    // ORDERING: monotonic counter, no ordering needed.\n    \
                     x.fetch_add(1, Ordering::Relaxed);\n    \
                     y.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(check_one("src/o.rs", clean, &cfg).is_empty());
        let dirty = "fn f() {\n    x.fetch_add(1, Ordering::Relaxed);\n}\n";
        let f = check_one("src/o.rs", dirty, &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "ordering-comment");
    }

    #[test]
    fn parity_requires_twin_defined_and_tested() {
        let cfg = Config::empty(PathBuf::from("."));
        let clean = "fn dist(a: f64) -> f64 { a }\n\
                     /// # Safety\n\
                     /// Caller checks CPU features.\n\
                     #[target_feature(enable = \"avx2\")]\n\
                     unsafe fn dist_avx2(a: f64) -> f64 { a }\n\
                     #[cfg(test)]\n\
                     mod tests {\n    fn parity() { let _ = dist; }\n}\n";
        assert!(check_one("src/k.rs", clean, &cfg).is_empty());
        let no_twin = "/// # Safety\n\
                       /// Caller checks CPU features.\n\
                       #[target_feature(enable = \"avx2\")]\n\
                       unsafe fn dist_avx2(a: f64) -> f64 { a }\n";
        let f = check_one("src/k.rs", no_twin, &cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "target-feature-parity");
    }
}
