//! `asb-analyze` — workspace invariant lints.
//!
//! A dependency-free, source-level lint pass enforcing repo-specific rules
//! that neither clippy nor the type system can express (see [`RULES`] for
//! the catalog). What clippy *can* express lives in clippy: no panics in
//! `asb-core`/`asb-storage` (a crate-level `deny`), no wall clock
//! (`clippy.toml`'s `disallowed-methods`) and no `mem::forget`
//! (`-D clippy::mem_forget` in CI). What a type can express lives in the
//! type: page guards are `!Send`, so a pin cannot leave its thread. The
//! `evictions`/`failed_evictions` pair is held to the reference model in
//! `tests/pool_model.rs`. Sources are tokenized by a small real lexer
//! ([`lexer`]) — raw strings, nested block comments and lifetimes are
//! resolved once, correctly — and every rule then works over either the
//! per-line view or the token stream, whichever fits. The rules target
//! *patterns that should not appear at all* (outside justified spots)
//! rather than deep syntactic structure, so no type information is needed.
//!
//! ## Anatomy of a rule
//!
//! Each rule implements one check over a `PreparedFile`: the file split
//! into `Line`s, each carrying the code text with string/char literals
//! blanked and comments removed, the comment text itself (rules look for
//! justification markers there), and whether the line sits inside a
//! `#[cfg(test)]` region — plus the significant token stream (`Tok`)
//! for the structural rules (wal-order, lock-order). Violations carry
//! `file:line` and a message, and every one is fatal: the only exemption is
//! the rule's in-source marker.
//!
//! Adding a rule: add a variant to [`RULES`], implement its check in
//! [`check_source`], document it in `DESIGN.md` §11/§16, give it an
//! `explain` entry — the `explain` text is the contract reviewers hold the
//! rule to — and a seeded mutation of real workspace source that it
//! catches (`tests/seeded_mutations.rs`).

pub mod lexer;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::TokenKind;

/// Identifier, summary and rationale of one lint rule.
pub struct Rule {
    /// Stable id used in diagnostics (e.g. `wal-order`).
    pub id: &'static str,
    /// One-line summary shown by `list`.
    pub summary: &'static str,
    /// Full rationale shown by `explain`.
    pub explain: &'static str,
}

/// The rule catalog.
pub const RULES: &[Rule] = &[
    Rule {
        id: "sync-facade",
        summary: "no direct parking_lot/std::sync primitive use outside the sync facade",
        explain: "\
All locks and atomics must come from the sync facade (asb_storage::sync,
re-exported as asb_core::sync). The facade compiles to the parking_lot shim
normally and to the deterministic scheduler under --cfg asb_schedule; a
Mutex constructed directly from parking_lot or std::sync is invisible to
the model checker, so the interleaving suite would silently not explore
it. std::sync::Arc, mpsc and PoisonError are fine (they are not schedule
points); the facade itself and shims/ are exempt by construction.",
    },
    Rule {
        id: "relaxed-ok",
        summary: "every Ordering::Relaxed needs a `// relaxed-ok:` justification",
        explain: "\
Relaxed atomics are correct only when the value is independent of all other
memory (a lone counter or flag) — and that argument lives in the head of
whoever wrote it unless it is written down. Each use of Ordering::Relaxed
must carry a `// relaxed-ok: ...` comment on the same line or the line
above stating why no ordering is needed. If the justification feels hard
to write, the ordering is probably wrong: use Acquire/Release/SeqCst.",
    },
    Rule {
        id: "wal-order",
        summary: "WAL append must precede store write within a function that does both",
        explain: "\
The crash-consistency contract is write-ahead logging: a page image reaches
the log before the store write that makes it durable, so a crash between
the two is always recoverable. Within any single non-test function body
that both appends to the WAL (wal_append/append_image) and writes the
store (store_with_retry/io.store/store.write/inner.write), the first WAL
call must appear before the first store call in token order. This is a
source-order heuristic, not a data-flow proof — the interleaving suite's
WalOrderProbe checks the runtime property; this rule catches the obvious
regression of reordering the calls in a refactor. A deliberate exception
carries `// wal-order-ok: ...` on the store call.",
    },
    Rule {
        id: "lock-order",
        summary: "shard locks acquire first, above store and WAL; shard loops ascend",
        explain: "\
The pool's deadlock-freedom argument is a total lock order:
shard above store and WAL, and all-shard acquisition strictly in ascending
index order. Within any non-test function body in crates/core or
crates/storage, a shard-lock acquisition (`*shard*.lock()`) may not appear
after a store-lock (`*store*.read()` / `.write()`) or WAL (`*wal*.lock()`)
acquisition in the same body; and iterating shards with `.rev()` before
locking them inverts the ascending order. This is a source-order heuristic
over receiver names — the dynamic prong
(asb_schedule::lock_graph()) checks the runtime property across >=1000
schedules per scenario; this rule catches the obvious inversion in review.
A two-phase pattern (store lock released as a temporary before the shard
lock is taken) is legal: justify with `// lock-order-ok: ...` saying why
the earlier acquisition is not held.",
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (see [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the finding.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A source line after preprocessing.
#[derive(Debug, Default, Clone)]
struct Line {
    /// Code with comments removed and string/char contents blanked.
    code: String,
    /// Concatenated comment text of the line (line + block comments).
    comment: String,
    /// Inside a `#[cfg(test)]` item (module or function).
    in_test: bool,
}

/// A significant token (whitespace and comments dropped) with the 0-based
/// index of the [`Line`] it starts on. The structural rules walk these.
#[derive(Debug, Clone)]
struct Tok {
    kind: TokenKind,
    text: String,
    line: usize,
}

/// A file preprocessed for linting.
struct PreparedFile {
    rel_path: PathBuf,
    lines: Vec<Line>,
    toks: Vec<Tok>,
}

/// Lexes `source` once and derives both rule views from the token stream:
/// the per-[`Line`] view (comments separated out, string/char literal
/// contents blanked so tokens inside literals never match) and the
/// significant-token stream. `#[cfg(test)]` regions are then marked by
/// [`mark_test_regions`].
fn prepare(source: &str) -> (Vec<Line>, Vec<Tok>) {
    let mut lines: Vec<Line> = Vec::new();
    let mut cur = Line::default();
    let mut toks: Vec<Tok> = Vec::new();

    for t in lexer::lex(source) {
        if !matches!(
            t.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        ) {
            toks.push(Tok {
                kind: t.kind,
                text: t.text.to_string(),
                line: lines.len(),
            });
        }
        match t.kind {
            TokenKind::Whitespace => {
                for c in t.text.chars() {
                    if c == '\n' {
                        lines.push(std::mem::take(&mut cur));
                    } else {
                        cur.code.push(c);
                    }
                }
            }
            TokenKind::LineComment => cur.comment.push_str(&t.text[2..]),
            TokenKind::BlockComment => {
                let inner = t.text[2..].strip_suffix("*/").unwrap_or(&t.text[2..]);
                for c in inner.chars() {
                    if c == '\n' {
                        lines.push(std::mem::take(&mut cur));
                    } else {
                        cur.comment.push(c);
                    }
                }
            }
            TokenKind::StrLit | TokenKind::RawStrLit | TokenKind::CharLit => {
                // Keep the delimiting quotes (so the line still *looks*
                // like it holds a literal) and blank everything else.
                let n = t.text.chars().count();
                for (k, c) in t.text.chars().enumerate() {
                    if c == '\n' {
                        lines.push(std::mem::take(&mut cur));
                    } else if (c == '"' || c == '\'') && (k == 0 || k == n - 1) {
                        cur.code.push(c);
                    } else {
                        cur.code.push('_');
                    }
                }
            }
            _ => cur.code.push_str(t.text),
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    mark_test_regions(&mut lines);
    (lines, toks)
}

/// Tags lines inside `#[cfg(test)]` items: when the attribute is pending,
/// the next `{` opens a test region at the current brace depth, lasting
/// until its matching `}`. A pending attribute on a `use` item (no body)
/// cancels at the `;`. A line is test code if *any* of it sat inside an
/// open region — so the opening and closing brace lines both count.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut regions: Vec<i64> = Vec::new(); // depths at which a region opened
    let mut pending = false;
    for line in lines.iter_mut() {
        let mut in_region = !regions.is_empty();
        let mut acc = String::new();
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        regions.push(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                }
                ';' if pending && acc.trim_start().starts_with("use ") => {
                    pending = false;
                }
                _ => {}
            }
            acc.push(c);
            if !pending && (acc.ends_with("#[cfg(test)]") || acc.ends_with("#[cfg(all(test")) {
                pending = true;
            }
            if !regions.is_empty() {
                in_region = true;
            }
        }
        line.in_test = line.in_test || in_region;
    }
}

/// True when line `idx` — or the comment block directly above the statement
/// it belongs to — carries `marker` in a comment.
///
/// The upward walk skips continuation lines of the same multi-line
/// statement (code lines not ending in `;`, `{` or `}`), so a justification
/// above a wrapped method chain still counts; it stops at the previous
/// statement boundary, so justifications never leak across statements.
fn justified(lines: &[Line], idx: usize, marker: &str) -> bool {
    if lines[idx].comment.contains(marker) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let above = &lines[k];
        if above.comment.contains(marker) {
            return true;
        }
        let code = above.code.trim();
        if code.is_empty() {
            if above.comment.is_empty() {
                return false; // blank line ends the adjacent block
            }
            continue; // comment-only line: keep scanning upward
        }
        if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
            return false; // previous statement boundary
        }
        // Continuation line of the same statement: keep walking.
    }
    false
}

/// Is `path` (workspace-relative, forward slashes) inside crates/core or
/// crates/storage sources?
fn in_hardened_crates(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/storage/src/")
}

/// Files that *are* the facade (or re-export it): exempt from sync-facade.
fn is_facade_file(path: &str) -> bool {
    path == "crates/storage/src/sync.rs" || path == "crates/core/src/sync.rs"
}

/// Runs every rule over `source`, linted as if it lived at the
/// workspace-relative `rel_path` (which decides the path-scoped rules).
pub fn check_source(rel_path: &Path, source: &str) -> Vec<Violation> {
    let path_str = rel_path.to_string_lossy().replace('\\', "/");
    let (lines, toks) = prepare(source);
    let file = PreparedFile {
        rel_path: rel_path.to_path_buf(),
        lines,
        toks,
    };
    let mut out = Vec::new();
    rule_sync_facade(&file, &path_str, &mut out);
    rule_relaxed_ok(&file, &mut out);
    rule_wal_order(&file, &mut out);
    rule_lock_order(&file, &path_str, &mut out);
    out
}

fn rule_sync_facade(file: &PreparedFile, path_str: &str, out: &mut Vec<Violation>) {
    if is_facade_file(path_str) || path_str.starts_with("shims/") {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let mut hit: Option<String> = None;
        if code.contains("parking_lot") {
            hit = Some("parking_lot".to_string());
        } else if let Some(pos) = code.find("std::sync::") {
            let rest = &code[pos + "std::sync::".len()..];
            for banned in ["Mutex", "RwLock", "Condvar", "atomic", "Barrier", "Once"] {
                if rest.starts_with(banned) {
                    hit = Some(format!("std::sync::{banned}"));
                    break;
                }
            }
            // `use std::sync::{...}` groups: flag banned names inside.
            if hit.is_none() && rest.starts_with('{') {
                for banned in ["Mutex", "RwLock", "Condvar", "atomic", "Barrier", "Once"] {
                    let inside = &rest[1..rest.find('}').unwrap_or(rest.len())];
                    if inside
                        .split(',')
                        .any(|part| part.trim().starts_with(banned))
                    {
                        hit = Some(format!("std::sync::{{{banned}}}"));
                        break;
                    }
                }
            }
        }
        if let Some(what) = hit {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: idx + 1,
                rule: "sync-facade",
                message: format!(
                    "direct `{what}` use; import locks/atomics from the sync facade \
                     (asb_storage::sync / asb_core::sync) so the model checker sees them",
                ),
            });
        }
    }
}

fn rule_relaxed_ok(file: &PreparedFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if line.code.contains("Ordering::Relaxed") && !justified(&file.lines, idx, "relaxed-ok:") {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: idx + 1,
                rule: "relaxed-ok",
                message: "`Ordering::Relaxed` without a `// relaxed-ok:` justification \
                          comment on this line or the line above"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Token-stream helpers for the structural rules.

/// True when the tokens at `i` match `pat` exactly (by text).
fn seq_at(toks: &[Tok], i: usize, pat: &[&str]) -> bool {
    i + pat.len() <= toks.len() && pat.iter().enumerate().all(|(k, p)| toks[i + k].text == *p)
}

/// Function bodies as `(fn_kw, open_brace, close_brace)` token indices.
/// The body `{` is the first one at paren/bracket depth 0 after the `fn`
/// keyword; a `;` first means a bodyless trait method. Nested `fn` items
/// are folded into their enclosing body (their statements still get
/// walked, just not as a separate body).
fn fn_bodies(toks: &[Tok]) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokenKind::Ident && toks[i].text == "fn") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        let mut paren: i64 = 0;
        let mut open = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => {
                    open = Some(j);
                    break;
                }
                ";" if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let mut depth: i64 = 0;
        let mut k = open;
        let mut close = toks.len().saturating_sub(1);
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        out.push((i, open, close));
        i = close + 1;
    }
    out
}

/// Splits a token range into statement-ish slices on `;`/`{`/`}`. Nested
/// blocks' statements come out as separate slices in source order, which
/// is exactly what the source-order heuristics want.
fn statements(toks: &[Tok], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut s = start;
    for (k, tok) in toks.iter().enumerate().take(end).skip(start) {
        if matches!(tok.text.as_str(), ";" | "{" | "}") {
            if k > s {
                out.push((s, k));
            }
            s = k + 1;
        }
    }
    if end > s {
        out.push((s, end));
    }
    out
}

/// WAL appends and store writes as token sequences; [`seq_at`] matches
/// them at any receiver depth (`self.io.store(` contains `io . store (`).
const WAL_CALLS: &[&[&str]] = &[&["wal_append", "("], &["append_image", "("]];
const STORE_CALLS: &[&[&str]] = &[
    &["store_with_retry", "("],
    &["io", ".", "store", "("],
    &["store", ".", "write", "("],
    &["inner", ".", "write", "("],
];

/// wal-order: see [`RULES`]. In each non-test function body, the first
/// store write may not come before the first WAL append.
fn rule_wal_order(file: &PreparedFile, out: &mut Vec<Violation>) {
    let toks = &file.toks;
    let lines = &file.lines;
    for (fk, open, close) in fn_bodies(toks) {
        if lines.get(toks[fk].line).is_some_and(|l| l.in_test) {
            continue;
        }
        let first = |calls: &[&[&str]]| {
            (open + 1..close).find(|&k| calls.iter().any(|c| seq_at(toks, k, c)))
        };
        let (Some(wal), Some(store)) = (first(WAL_CALLS), first(STORE_CALLS)) else {
            continue;
        };
        let (wl, sl) = (toks[wal].line, toks[store].line);
        if store < wal && !justified(lines, sl, "wal-order-ok:") {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: sl + 1,
                rule: "wal-order",
                message: format!(
                    "store write at line {} precedes the WAL append at line {} in the \
                     same function; write-ahead logging requires the append first",
                    sl + 1,
                    wl + 1
                ),
            });
        }
    }
}

/// Lowercased identifier texts of the receiver chain ending just before
/// token `dot` (`self.inner.shards[i].lock` → `[self, inner, shards, i]`).
/// Walks back over idents, numbers, `.` and `[]`/`()` so field chains and
/// index/call results are both covered; anything else ends the chain.
fn receiver_idents(toks: &[Tok], dot: usize, stmt_start: usize) -> Vec<String> {
    let mut idents = Vec::new();
    let mut k = dot;
    while k > stmt_start {
        k -= 1;
        let t = &toks[k];
        match t.kind {
            TokenKind::Ident => idents.push(t.text.to_ascii_lowercase()),
            TokenKind::NumLit => {}
            _ => match t.text.as_str() {
                "." | "[" | "]" | "(" | ")" | "&" | "*" | "?" => {}
                _ => break,
            },
        }
    }
    idents
}

/// Does the statement mention an identifier containing `needle`?
fn stmt_names(toks: &[Tok], s: usize, e: usize, needle: &str) -> bool {
    toks[s..e]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text.to_ascii_lowercase().contains(needle))
}

/// Which class of lock an acquisition belongs to in the pool's total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockClass {
    Shard,
    Store,
    Wal,
}

fn class_name(c: LockClass) -> &'static str {
    match c {
        LockClass::Shard => "shard-lock",
        LockClass::Store => "store-lock",
        LockClass::Wal => "WAL-lock",
    }
}

/// Lock acquisitions in one statement, in source order, plus the token
/// index of a `.rev()` over a shard iteration if present.
fn stmt_acquisitions(toks: &[Tok], s: usize, e: usize) -> (Vec<(LockClass, usize)>, Option<usize>) {
    let mut acqs = Vec::new();
    let mut rev = None;
    let mut k = s;
    while k + 2 < e {
        if toks[k].text != "." || toks[k + 2].text != "(" {
            k += 1;
            continue;
        }
        let recv = receiver_idents(toks, k, s);
        let has = |needle: &str| recv.iter().any(|r| r.contains(needle));
        match toks[k + 1].text.as_str() {
            "lock" => {
                if has("shard") {
                    acqs.push((LockClass::Shard, k + 1));
                } else if has("wal") {
                    acqs.push((LockClass::Wal, k + 1));
                } else if stmt_names(toks, s, e, "shard") {
                    // `.map(|s| s.lock())` over the shard table: the
                    // receiver is a closure variable, but the statement
                    // names the shards.
                    acqs.push((LockClass::Shard, k + 1));
                }
            }
            "read" | "write" => {
                // Lock acquisitions take no arguments; store *I/O* writes
                // (`store.write(buf)`) do, and stay wal-order's business.
                let empty = toks.get(k + 3).is_some_and(|t| t.text == ")");
                if empty && has("store") {
                    acqs.push((LockClass::Store, k + 1));
                }
            }
            "rev" if has("shard") => {
                rev = Some(k + 1);
            }
            _ => {}
        }
        k += 1;
    }
    (acqs, rev)
}

/// lock-order: see [`RULES`]. Walks each non-test function body in the
/// hardened crates statement by statement, tracking the first store or
/// WAL acquisition; a shard acquisition after one is an inversion, and
/// a `.rev()` over a shard iteration breaks the ascending all-shard order.
fn rule_lock_order(file: &PreparedFile, path_str: &str, out: &mut Vec<Violation>) {
    if !in_hardened_crates(path_str) {
        return;
    }
    let toks = &file.toks;
    let lines = &file.lines;
    for (fk, open, close) in fn_bodies(toks) {
        if lines.get(toks[fk].line).is_some_and(|l| l.in_test) {
            continue;
        }
        let mut blocker: Option<(LockClass, usize)> = None; // (class, line idx)
        for (s, e) in statements(toks, open + 1, close) {
            if lines.get(toks[s].line).is_some_and(|l| l.in_test) {
                continue;
            }
            let (acqs, rev) = stmt_acquisitions(toks, s, e);
            if let Some(rt) = rev {
                let li = toks[rt].line;
                if !justified(lines, li, "lock-order-ok:") {
                    out.push(Violation {
                        file: file.rel_path.clone(),
                        line: li + 1,
                        rule: "lock-order",
                        message: "`.rev()` over a shard iteration inverts the ascending \
                                  all-shard lock order; iterate shards in ascending index \
                                  order (or justify with `// lock-order-ok:`)"
                            .to_string(),
                    });
                }
            }
            for &(class, at) in &acqs {
                let li = toks[at].line;
                match class {
                    LockClass::Shard => {
                        if let Some((bc, bl)) = blocker {
                            if !justified(lines, li, "lock-order-ok:") {
                                out.push(Violation {
                                    file: file.rel_path.clone(),
                                    line: li + 1,
                                    rule: "lock-order",
                                    message: format!(
                                        "shard lock acquired after the {} acquisition at line \
                                         {}; the lock order is shard above store and WAL \
                                         (justify released two-phase acquisitions with \
                                         `// lock-order-ok:`)",
                                        class_name(bc),
                                        bl + 1
                                    ),
                                });
                            }
                        }
                    }
                    other => {
                        if blocker.is_none() {
                            blocker = Some((other, li));
                        }
                    }
                }
            }
        }
    }
}

/// Recursively collects the `.rs` files the lint pass scans — under
/// `crates/`, the root `src/`, `examples/` and `tests/`, never `shims/`
/// (stand-ins for external crates play by external rules) or `target/` —
/// returning workspace-relative paths in sorted (deterministic) order.
fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        let mut entries: Vec<_> = std::fs::read_dir(dir)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(&path, out)?;
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for sub in ["crates", "src", "examples", "tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    for p in &mut out {
        if let Ok(rel) = p.strip_prefix(root) {
            *p = rel.to_path_buf();
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the workspace at `root`, returning every violation in file order.
pub fn check_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let files = collect_files(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let mut violations = Vec::new();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("reading {}: {e}", rel.display()))?;
        violations.extend(check_source(&rel, &source));
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        check_source(Path::new(path), src)
    }

    /// A load the relaxed-ok rule flags in any file unless justified: the
    /// probe the lexer regressions below plant in tricky sources.
    const RELAXED: &str = "n.load(Ordering::Relaxed)";

    #[test]
    fn sync_facade_flags_direct_primitives() {
        let pl = "use parking_lot::Mutex;\n";
        assert_eq!(lint("crates/core/src/a.rs", pl).len(), 1);
        let stdm = "use std::sync::Mutex;\n";
        assert_eq!(lint("crates/exp/src/a.rs", stdm).len(), 1);
        let grouped = "use std::sync::{Arc, Mutex};\n";
        assert_eq!(lint("crates/exp/src/a.rs", grouped).len(), 1);
        let arc_only = "use std::sync::Arc;\n";
        assert!(lint("crates/exp/src/a.rs", arc_only).is_empty());
        let atomics = "use std::sync::atomic::{AtomicU64, Ordering};\n";
        assert_eq!(lint("crates/exp/src/a.rs", atomics).len(), 1);
    }

    #[test]
    fn sync_facade_exempts_the_facade_and_shims() {
        let src = "pub use parking_lot::{Mutex, RwLock};\n";
        assert!(lint("crates/storage/src/sync.rs", src).is_empty());
        assert!(lint("shims/parking_lot/src/lib.rs", src).is_empty());
    }

    #[test]
    fn relaxed_requires_justification() {
        let bare = "fn f(a: &A) { a.n.load(Ordering::Relaxed); }\n";
        assert_eq!(lint("crates/storage/src/a.rs", bare).len(), 1);
        let ok = "fn f(a: &A) {\n // relaxed-ok: lone counter\n a.n.load(Ordering::Relaxed); }\n";
        assert!(lint("crates/storage/src/a.rs", ok).is_empty());
    }

    #[test]
    fn wal_order_flags_store_before_append() {
        let bad = "fn w(&mut self) -> R {\n io.store(&p)?;\n self.wal_append(&p)?;\n Ok(())\n}\n";
        let v = lint("crates/core/src/m.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wal-order");
        assert_eq!(v[0].line, 2);
        let good = "fn w(&mut self) -> R {\n self.wal_append(&p)?;\n io.store(&p)?;\n Ok(())\n}\n";
        assert!(lint("crates/core/src/m.rs", good).is_empty());
        let only_store = "fn w(&mut self) -> R { io.store(&p) }\n";
        assert!(lint("crates/core/src/m.rs", only_store).is_empty());
        let one_line = "fn w(&mut self) { self.inner.write(p)?; self.wal.append_image(&p)?; }\n";
        assert_eq!(
            lint("crates/storage/src/m.rs", one_line).len(),
            1,
            "order is by token, not by line"
        );
    }

    #[test]
    fn wal_order_honours_markers_test_code_and_function_bounds() {
        let ok = "fn w(&mut self) {\n // wal-order-ok: the mutation under test\n \
                  store.write(p)?;\n wal.append_image(&p)?;\n}\n";
        assert!(lint("tests/a.rs", ok).is_empty());
        let test_mod = "#[cfg(test)]\nmod t {\n fn w() { io.store(&p); wal_append(&p); }\n}\n";
        assert!(lint("crates/core/src/a.rs", test_mod).is_empty());
        let split = "fn a(&mut self) { io.store(&p)?; }\nfn b(&mut self) { wal_append(&p)?; }\n";
        assert!(
            lint("crates/core/src/a.rs", split).is_empty(),
            "a store write and an append in different functions are unordered"
        );
    }

    #[test]
    fn block_comments_and_raw_strings_are_stripped() {
        let src = "fn f() { /* n.load(Ordering::Relaxed) */ let s = r#\"Ordering::Relaxed\"#; }\n";
        assert!(lint("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src = format!("fn f<'a>(x: &'a str) -> &'a str {{ {RELAXED} }}\n");
        // The load must still be seen even with lifetimes around.
        assert_eq!(lint("crates/core/src/a.rs", &src).len(), 1);
    }

    #[test]
    fn cfg_test_region_ends_with_its_brace() {
        let src = format!(
            "#[cfg(test)]\nmod tests {{ fn f() {{ {RELAXED}; }} }}\nfn g() {{ {RELAXED}; }}\n"
        );
        let v = lint("crates/core/src/a.rs", &src);
        assert_eq!(v.len(), 1, "only the post-module load is flagged");
        assert_eq!(v[0].line, 3);
    }

    // --- lexer blind-spot regressions (the old char scanner got these
    // wrong for every rule; the token lexer pins them) ---

    #[test]
    fn multi_line_raw_strings_keep_line_numbers_honest() {
        let src =
            format!("fn f() {{\n let s = r##\"line\ntwo \"# still\nraw\"##;\n {RELAXED};\n}}\n");
        let v = lint("crates/core/src/a.rs", &src);
        assert_eq!(v.len(), 1, "only the load after the raw string fires");
        assert_eq!(v[0].line, 5, "line attribution must survive the literal");
    }

    #[test]
    fn nested_block_comment_tail_is_still_code() {
        let hidden = format!("fn f() {{ /* {RELAXED} /* inner */ {RELAXED} */ }}\n");
        assert!(lint("crates/core/src/a.rs", &hidden).is_empty());
        let after = format!("fn f() {{ /* /* inner */ still comment */ {RELAXED}; }}\n");
        assert_eq!(
            lint("crates/core/src/a.rs", &after).len(),
            1,
            "code after a nested comment closes is code again"
        );
    }

    #[test]
    fn lifetime_heavy_code_is_not_swallowed_as_char_literals() {
        let src =
            format!("impl<'a, 'b: 'a> F<'a> for G<'b> {{\n fn f(&'a self) {{ {RELAXED}; }}\n}}\n");
        let v = lint("crates/core/src/a.rs", &src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn cfg_test_inside_literals_opens_no_region() {
        let plain = format!("fn f() {{ let s = \"#[cfg(test)]\"; }}\nfn g() {{ {RELAXED}; }}\n");
        assert_eq!(lint("crates/core/src/a.rs", &plain).len(), 1);
        let raw = format!("fn f() {{ let s = r#\"#[cfg(test)]\"#; }}\nfn g() {{ {RELAXED}; }}\n");
        assert_eq!(lint("crates/core/src/a.rs", &raw).len(), 1);
    }

    // --- lock-order ---

    #[test]
    fn lock_order_flags_shard_after_store() {
        let bad =
            "fn f(&self) {\n let st = self.store.read();\n let sh = self.shards[0].lock();\n}\n";
        let v = lint("crates/core/src/a.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lock-order");
        assert_eq!(v[0].line, 3);
        let good =
            "fn f(&self) {\n let sh = self.shards[0].lock();\n let st = self.store.read();\n}\n";
        assert!(lint("crates/core/src/a.rs", good).is_empty());
        assert!(
            lint("crates/exp/src/a.rs", bad).is_empty(),
            "only the hardened crates carry the lock order"
        );
    }

    #[test]
    fn lock_order_flags_shard_after_wal() {
        let wal = "fn f(&self) {\n let w = self.wal.lock();\n let sh = self.shards[0].lock();\n}\n";
        let v = lint("crates/core/src/a.rs", wal);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("WAL-lock"));
        assert!(v[0].message.contains("shard above store and WAL"));
    }

    #[test]
    fn lock_order_flags_reversed_shard_iteration() {
        let bad = "fn f(&self) {\n let g: Vec<_> = self.shards.iter().rev().map(|s| s.lock()).collect();\n}\n";
        let v = lint("crates/core/src/a.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lock-order");
        assert!(v[0].message.contains("ascending"));
        let asc =
            "fn f(&self) {\n let g: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();\n}\n";
        assert!(lint("crates/core/src/a.rs", asc).is_empty());
    }

    #[test]
    fn lock_order_accepts_justified_two_phase_and_test_code() {
        let ok = "fn f(&self) {\n let id = self.store.write().alloc();\n \
                  // lock-order-ok: store lock is a released temporary\n \
                  let sh = self.shards[0].lock();\n}\n";
        assert!(lint("crates/core/src/a.rs", ok).is_empty());
        let test_mod = "#[cfg(test)]\nmod t {\n fn f(&self) { let s = self.store.read(); \
                        let sh = self.shards[0].lock(); }\n}\n";
        assert!(lint("crates/core/src/a.rs", test_mod).is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::lexer::lex;
    use proptest::prelude::*;

    /// Fragments chosen to collide: literal openers/closers, comment
    /// delimiters, escapes and lifetimes — concatenating random picks
    /// builds adversarial near-Rust sources.
    const FRAGS: &[&str] = &[
        "fn ",
        "f",
        "(",
        ")",
        "{",
        "}",
        ";",
        " ",
        "\n",
        "let ",
        "x",
        "=",
        "\"",
        "\\\"",
        "\\",
        "'",
        "'a",
        "'a'",
        "'\\n'",
        "r\"",
        "r#\"",
        "\"#",
        "#",
        "//",
        "/*",
        "*/",
        "*",
        "/",
        "b",
        "r",
        "br#\"",
        "0x1f",
        "1_000",
        ".unwrap()",
        "Ordering::Relaxed",
        "日本",
        "\t",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lexing_round_trips_byte_for_byte(
            picks in prop::collection::vec(0usize..FRAGS.len(), 0..40),
        ) {
            let src: String = picks.iter().map(|&i| FRAGS[i]).collect();
            let joined: String = lex(&src).iter().map(|t| t.text).collect();
            prop_assert_eq!(joined, src);
        }

        #[test]
        fn lexing_is_prefix_stable(
            picks in prop::collection::vec(0usize..FRAGS.len(), 0..24),
        ) {
            let src: String = picks.iter().map(|&i| FRAGS[i]).collect();
            let toks = lex(&src);
            for k in 0..=toks.len() {
                let prefix: String = toks[..k].iter().map(|t| t.text).collect();
                let again = lex(&prefix);
                prop_assert_eq!(again.len(), k, "prefix of {} tokens re-lexes to {}", k, again.len());
                for (a, b) in again.iter().zip(&toks[..k]) {
                    prop_assert_eq!(a.kind, b.kind);
                    prop_assert_eq!(a.text, b.text);
                }
            }
        }
    }
}
