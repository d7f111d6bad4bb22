//! `asb-analyze` — workspace invariant lints.
//!
//! A dependency-free, source-level lint pass enforcing repo-specific rules
//! that clippy cannot express (see [`RULES`] for the catalog). Sources are
//! tokenized by a small real lexer ([`lexer`]) — raw strings, nested block
//! comments and lifetimes are resolved once, correctly — and every rule
//! then works over either the per-line view or the token stream, whichever
//! fits. The design stays dependency-free: the rules target *patterns that
//! should not appear at all* (outside justified spots) rather than deep
//! syntactic structure, so no type information is needed.
//!
//! ## Anatomy of a rule
//!
//! Each rule implements one check over a `PreparedFile`: the file split
//! into `Line`s, each carrying the code text with string/char literals
//! blanked and comments removed, the comment text itself (rules look for
//! justification markers there), and whether the line sits inside a
//! `#[cfg(test)]` region — plus the significant token stream (`Tok`)
//! for the structural rules (lock-order, guard-send, counter-pair).
//! Violations carry `file:line` and a message; the driver subtracts the
//! allowlist (`crates/analyze/allowlist.txt`) and the remainder is fatal.
//!
//! Adding a rule: add a variant to [`RULES`], implement its check in
//! `check_file`, document it in `DESIGN.md` §11/§16, and give it an
//! `explain` entry — the `explain` text is the contract reviewers hold the
//! rule to.

pub mod lexer;

use std::fmt;
use std::path::{Path, PathBuf};

use lexer::TokenKind;

/// Identifier, summary and rationale of one lint rule.
pub struct Rule {
    /// Stable id used in diagnostics and the allowlist (e.g. `no-panic`).
    pub id: &'static str,
    /// One-line summary shown by `list`.
    pub summary: &'static str,
    /// Full rationale shown by `explain`.
    pub explain: &'static str,
}

/// The rule catalog.
pub const RULES: &[Rule] = &[
    Rule {
        id: "no-panic",
        summary: "no unwrap()/expect()/panic! in asb-core and asb-storage non-test code",
        explain: "\
Buffer and storage code sits under every index and experiment; a panic
there takes down the whole process where a typed StorageError would have
been retried, surfaced, or measured. Non-test code in crates/core and
crates/storage must return typed errors instead of calling .unwrap(),
.expect(), panic!, unreachable!, todo! or unimplemented!.

A genuinely unreachable expect is allowed when the invariant that makes it
unreachable is written down: put a `// invariant: ...` comment on the same
line or the line above, stating *why* the failure cannot happen (not just
that it doesn't). assert!/debug_assert! are out of scope: they check caller
contracts, and turning them into Results would hide caller bugs.",
    },
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
store (store_with_retry/io.store/store.write), the first WAL call must
appear before the first store call in source order. This is a source-order
heuristic, not a data-flow proof — the interleaving suite's WalOrderProbe
checks the runtime property; this rule catches the obvious regression of
reordering the calls in a refactor.",
    },
    Rule {
        id: "guard-scope",
        summary: "page guards must not be forgotten or held across checkpoint/flush",
        explain: "\
PageReadGuard/PageWriteGuard pin a frame until dropped: the pin is what
makes eviction safe, and the drop is what releases it. Two misuses defeat
the design. (1) `std::mem::forget` on a guard leaks the pin forever — the
frame can never be evicted and `with_store`/`try_into_store` stay refused;
guards must always be dropped, never forgotten. (2) Holding a guard across
a `.checkpoint(`/`.flush(` call in the same function inverts the intended
scope: flush-class operations want the pool quiescent, and a still-live
guard from the same function is almost always an overlong scope (drop the
guard first, or narrow its binding). Both checks are source-order
heuristics over non-test code; a deliberate exception carries a
`// guard-scope-ok: ...` comment explaining why the scope is right.",
    },
    Rule {
        id: "wall-clock",
        summary: "no Instant::now()/SystemTime outside the clock abstraction",
        explain: "\
Trace replay and the fault/crash harnesses reproduce runs bit-for-bit only
if nothing in the measured path reads the wall clock: the disk model keeps
*simulated* time precisely so results are machine-independent. Instant::now
and SystemTime are banned outside the explicitly allowlisted measurement
binaries (repro/probe report real elapsed time alongside simulated time,
which is their job). If code needs time, it needs the simulated clock.",
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
    Rule {
        id: "guard-send",
        summary: "no PinToken/page guard captured by thread::spawn or stored in a struct",
        explain: "\
PinToken and the page guards (PageReadGuard/PageWriteGuard) are scoped
capabilities: they pin a frame and are meant to die in the stack frame that
made them. Capturing one in a `thread::spawn` closure moves the pin to a
thread whose lifetime nothing bounds, and storing one in a struct field
lets it cross the sync facade and outlive the pool's reasoning about
eviction. Both are flagged in non-test code: a spawn whose closure mentions
a guard binding (or a guard type) from the enclosing function, and any
struct/enum whose fields name a guard type (the guard definitions
themselves, in crates/core/src/guard.rs, are exempt by construction). A
deliberate exception carries `// guard-send-ok: ...` explaining what bounds
the guard's lifetime.",
    },
    Rule {
        id: "counter-pair",
        summary: "paired BufferStats counters increment together, in one lock scope",
        explain: "\
Some stats counters are only meaningful as pairs: evictions with
failed_evictions, both counted under the shard lock in
crates/core/src/manager.rs (the lock order is shard above store and WAL).
Probes assert relations across a pair, so incrementing one member from a
function that never touches its sibling — or from outside the pair's home
file, where the lock scope that makes the pair atomic does not exist —
silently skews every experiment that reads them. Each increment of a paired counter must happen in the pair's home
file, inside a function body that also increments (or consciously accounts
for) the sibling; anything else needs a `// counter-ok: ...` marker saying
why the lone increment keeps the pair's invariant.",
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
    /// Whether an allowlist entry covered it.
    pub allowed: bool,
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

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

const WAL_TOKENS: &[&str] = &["wal_append(", "append_image("];
const STORE_TOKENS: &[&str] = &[
    "store_with_retry(",
    "io.store(",
    "store.write(",
    "inner.write(",
];

/// Runs every rule over one file. `rel_path` must use forward slashes.
fn check_file(rel_path: &Path, source: &str, out: &mut Vec<Violation>) {
    let path_str = rel_path.to_string_lossy().replace('\\', "/");
    let (lines, toks) = prepare(source);
    let file = PreparedFile {
        rel_path: rel_path.to_path_buf(),
        lines,
        toks,
    };

    rule_no_panic(&file, &path_str, out);
    rule_sync_facade(&file, &path_str, out);
    rule_relaxed_ok(&file, out);
    rule_wal_order(&file, out);
    rule_guard_scope(&file, out);
    rule_wall_clock(&file, out);
    rule_lock_order(&file, &path_str, out);
    rule_guard_send(&file, &path_str, out);
    rule_counter_pair(&file, &path_str, out);
}

fn rule_no_panic(file: &PreparedFile, path_str: &str, out: &mut Vec<Violation>) {
    if !in_hardened_crates(path_str) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for tok in PANIC_TOKENS {
            if let Some(pos) = line.code.find(tok) {
                // `.expect(` cannot match `.expect_err(` (the token ends at
                // `(`), but the bang macros need an identifier-boundary
                // guard so e.g. `debug_assert!` does not contain `assert!`.
                if !tok.starts_with('.') && pos > 0 {
                    let before = line.code.as_bytes()[pos - 1];
                    if before.is_ascii_alphanumeric() || before == b'_' {
                        continue;
                    }
                }
                if justified(&file.lines, idx, "invariant:") {
                    continue;
                }
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    rule: "no-panic",
                    message: format!(
                        "`{tok}` in non-test code; return a typed error or document \
                         the invariant with a `// invariant:` comment",
                    ),
                    allowed: false,
                });
            }
        }
    }
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
                allowed: false,
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
                allowed: false,
            });
        }
    }
}

/// Approximate function-body extraction: a line whose code contains `fn `
/// and ends (possibly later) with `{` opens a body that closes when brace
/// depth returns to the opening level.
fn rule_wal_order(file: &PreparedFile, out: &mut Vec<Violation>) {
    let lines = &file.lines;
    let mut idx = 0;
    while idx < lines.len() {
        let line = &lines[idx];
        let is_fn = !line.in_test
            && (line.code.contains("fn ") && !line.code.trim_start().starts_with("//"));
        if !is_fn {
            idx += 1;
            continue;
        }
        // Find the opening brace of the body (same line or a following one,
        // skipping pure signature lines); bail out on `;` (trait method).
        let mut depth: i64 = 0;
        let mut body_start = None;
        let mut j = idx;
        'find: while j < lines.len() && j < idx + 8 {
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        if depth == 1 {
                            body_start = Some(j);
                            break 'find;
                        }
                    }
                    ';' if depth == 0 => break 'find,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(start) = body_start else {
            idx += 1;
            continue;
        };
        // Walk the body, recording first WAL and first store call.
        let mut first_wal: Option<usize> = None;
        let mut first_store: Option<usize> = None;
        let mut d: i64 = 0;
        let mut k = start;
        'body: while k < lines.len() {
            let code = &lines[k].code;
            for tok in WAL_TOKENS {
                if code.contains(tok) && first_wal.is_none() {
                    first_wal = Some(k);
                }
            }
            for tok in STORE_TOKENS {
                if code.contains(tok) && first_store.is_none() {
                    first_store = Some(k);
                }
            }
            for c in code.chars() {
                match c {
                    '{' => d += 1,
                    '}' => {
                        d -= 1;
                        if d == 0 {
                            break 'body;
                        }
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        if let (Some(w), Some(s)) = (first_wal, first_store) {
            if s < w && !lines[idx].in_test && !justified(lines, s, "wal-order-ok:") {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: s + 1,
                    rule: "wal-order",
                    message: format!(
                        "store write at line {} precedes the WAL append at line {} in the \
                         same function; write-ahead logging requires the append first",
                        s + 1,
                        w + 1
                    ),
                    allowed: false,
                });
            }
        }
        idx = k.max(idx) + 1;
    }
}

/// Guard-scope hygiene, two checks over non-test code.
///
/// *Forget check* (per line): `mem::forget(` whose argument text mentions a
/// guard leaks the pin forever and is flagged wherever it appears.
///
/// *Hold-across check* (per function body, same extraction as
/// [`rule_wal_order`]): a `let` binding a guard (`.fetch(`/`.fetch_mut(`)
/// stays "live" until a `drop(` call or until brace depth falls back to the
/// binding's level; a `.checkpoint(`/`.flush(` reached while a binding is
/// live is flagged. Like wal-order this is a source-order heuristic — the
/// interleave suite checks the runtime property; this catches the obvious
/// overlong scope in a refactor.
fn rule_guard_scope(file: &PreparedFile, out: &mut Vec<Violation>) {
    let lines = &file.lines;

    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if let Some(pos) = line.code.find("mem::forget(") {
            let arg = line.code[pos..].to_ascii_lowercase();
            if arg.contains("guard") && !justified(lines, idx, "guard-scope-ok:") {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    rule: "guard-scope",
                    message: "`mem::forget` of a page guard leaks its frame pin forever; \
                              let the guard drop (or justify with `// guard-scope-ok:`)"
                        .to_string(),
                    allowed: false,
                });
            }
        }
    }

    let mut idx = 0;
    while idx < lines.len() {
        let line = &lines[idx];
        let is_fn = !line.in_test
            && (line.code.contains("fn ") && !line.code.trim_start().starts_with("//"));
        if !is_fn {
            idx += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut body_start = None;
        let mut j = idx;
        'find: while j < lines.len() && j < idx + 8 {
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        if depth == 1 {
                            body_start = Some(j);
                            break 'find;
                        }
                    }
                    ';' if depth == 0 => break 'find,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(start) = body_start else {
            idx += 1;
            continue;
        };
        // Walk the body: guard bindings enter `live` with the depth they
        // were bound at and leave on `drop(` or when their scope closes.
        let mut live: Vec<(usize, i64)> = Vec::new();
        let mut d: i64 = 0;
        let mut k = start;
        'body: while k < lines.len() {
            let code = &lines[k].code;
            let binds_guard =
                code.contains("let ") && (code.contains(".fetch(") || code.contains(".fetch_mut("));
            if code.contains("drop(") {
                live.clear();
            } else if !live.is_empty()
                && (code.contains(".checkpoint(") || code.contains(".flush("))
                && !lines[idx].in_test
                && !justified(lines, k, "guard-scope-ok:")
            {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: k + 1,
                    rule: "guard-scope",
                    message: format!(
                        "checkpoint/flush with the guard bound at line {} still live; \
                         drop the guard first or narrow its scope",
                        live[0].0 + 1
                    ),
                    allowed: false,
                });
                live.clear(); // one finding per overlong scope
            }
            for c in code.chars() {
                match c {
                    '{' => d += 1,
                    '}' => {
                        d -= 1;
                        if d == 0 {
                            break 'body;
                        }
                        live.retain(|&(_, bd)| bd <= d);
                    }
                    _ => {}
                }
            }
            if binds_guard {
                live.push((k, d));
            }
            k += 1;
        }
        idx = k.max(idx) + 1;
    }
}

fn rule_wall_clock(file: &PreparedFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for tok in ["Instant::now", "SystemTime"] {
            if line.code.contains(tok) {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    rule: "wall-clock",
                    message: format!(
                        "`{tok}` outside the clock abstraction breaks deterministic \
                         replay; use simulated time (or allowlist a measurement binary)",
                    ),
                    allowed: false,
                });
            }
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
                        allowed: false,
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
                                    allowed: false,
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

/// Guard types that pin frames; see the guard-send rule.
const GUARD_TYPES: &[&str] = &["PinToken", "PageReadGuard", "PageWriteGuard"];

/// guard-send: see [`RULES`]. Two checks — guard types in struct/enum
/// fields (outside the guard definitions themselves), and guard bindings
/// or guard types inside a `thread::spawn(...)` call's argument.
fn rule_guard_send(file: &PreparedFile, path_str: &str, out: &mut Vec<Violation>) {
    let toks = &file.toks;
    let lines = &file.lines;

    if path_str != "crates/core/src/guard.rs" {
        let mut i = 0;
        while i < toks.len() {
            let kw = &toks[i];
            if !(kw.kind == TokenKind::Ident && (kw.text == "struct" || kw.text == "enum"))
                || lines.get(kw.line).is_some_and(|l| l.in_test)
            {
                i += 1;
                continue;
            }
            // Body starts at `{` or `(` outside the generics (`->` in
            // Fn-trait bounds guards its `>`); `;` means a unit struct.
            let mut j = i + 1;
            let mut angle: i64 = 0;
            let mut body = None;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" if j > 0 && toks[j - 1].text != "-" => angle -= 1,
                    "{" | "(" if angle <= 0 => {
                        body = Some(j);
                        break;
                    }
                    ";" if angle <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = body else {
                i = j + 1;
                continue;
            };
            let (oc, cc) = if toks[open].text == "{" {
                ("{", "}")
            } else {
                ("(", ")")
            };
            let mut depth: i64 = 0;
            let mut k = open;
            while k < toks.len() {
                if toks[k].text == oc {
                    depth += 1;
                } else if toks[k].text == cc {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if toks[k].kind == TokenKind::Ident
                    && GUARD_TYPES.contains(&toks[k].text.as_str())
                {
                    let li = toks[k].line;
                    if !lines.get(li).is_some_and(|l| l.in_test)
                        && !justified(lines, li, "guard-send-ok:")
                    {
                        out.push(Violation {
                            file: file.rel_path.clone(),
                            line: li + 1,
                            rule: "guard-send",
                            message: format!(
                                "guard type `{}` stored in a struct/enum field escapes its \
                                 pin scope; hold guards on the stack (or justify with \
                                 `// guard-send-ok:`)",
                                toks[k].text
                            ),
                            allowed: false,
                        });
                    }
                }
                k += 1;
            }
            i = k + 1;
        }
    }

    for (fk, open, close) in fn_bodies(toks) {
        if lines.get(toks[fk].line).is_some_and(|l| l.in_test) {
            continue;
        }
        // Guard bindings: a `let` whose name says guard, or whose
        // initializer calls `.fetch(`/`.fetch_mut(` at the statement's own
        // bracket depth (a fetch inside a nested closure is that closure's
        // binding, not this statement's).
        let mut bindings: Vec<(String, usize)> = Vec::new();
        let mut k = open + 1;
        while k < close {
            if !(toks[k].kind == TokenKind::Ident && toks[k].text == "let") {
                k += 1;
                continue;
            }
            let mut depth: i64 = 0;
            let mut e = k + 1;
            while e < close {
                match toks[e].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth <= 0 => break,
                    _ => {}
                }
                e += 1;
            }
            let name = (k + 1..e)
                .find(|&x| toks[x].kind == TokenKind::Ident && toks[x].text != "mut")
                .map(|x| toks[x].text.clone());
            let mut is_guard = name
                .as_deref()
                .is_some_and(|n| n.to_ascii_lowercase().contains("guard"));
            let mut depth: i64 = 0;
            for x in k + 1..e {
                match toks[x].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "." if depth == 0
                        && x + 2 < e
                        && matches!(toks[x + 1].text.as_str(), "fetch" | "fetch_mut")
                        && toks[x + 2].text == "(" =>
                    {
                        is_guard = true;
                    }
                    _ => {}
                }
            }
            if is_guard {
                if let Some(n) = name {
                    bindings.push((n, k));
                }
            }
            k = e;
        }
        // Spawn sites whose argument mentions a guard binding or type.
        let mut k = open + 1;
        while k < close {
            let is_spawn = toks[k].kind == TokenKind::Ident
                && toks[k].text == "spawn"
                && toks.get(k + 1).is_some_and(|t| t.text == "(")
                && (k.saturating_sub(3)..k).any(|x| toks[x].text == "thread");
            if !is_spawn {
                k += 1;
                continue;
            }
            let mut depth: i64 = 0;
            let mut e = k + 1;
            while e < close {
                match toks[e].text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                e += 1;
            }
            let captured = (k + 2..e).find(|&x| {
                toks[x].kind == TokenKind::Ident
                    && (GUARD_TYPES.contains(&toks[x].text.as_str())
                        || bindings.iter().any(|(n, at)| *at < k && *n == toks[x].text))
            });
            if let Some(x) = captured {
                let li = toks[k].line;
                if !lines.get(li).is_some_and(|l| l.in_test)
                    && !justified(lines, li, "guard-send-ok:")
                {
                    out.push(Violation {
                        file: file.rel_path.clone(),
                        line: li + 1,
                        rule: "guard-send",
                        message: format!(
                            "`thread::spawn` closure captures guard `{}`; a frame pin must \
                             not cross to an unbounded thread (justify with \
                             `// guard-send-ok:`)",
                            toks[x].text
                        ),
                        allowed: false,
                    });
                }
            }
            k = e + 1;
        }
    }
}

/// A pair of stats counters that must move together, and the one file
/// whose lock scope makes the pair atomic.
struct CounterPair {
    a: &'static str,
    b: &'static str,
    home: &'static str,
}

/// The manifest of paired counters the counter-pair rule enforces.
const COUNTER_PAIRS: &[CounterPair] = &[CounterPair {
    a: "evictions",
    b: "failed_evictions",
    home: "crates/core/src/manager.rs",
}];

/// counter-pair: see [`RULES`]. An increment site is an exact identifier
/// match followed by `+=` or `.fetch_add(`; outside the pair's home file
/// it is flagged outright, inside it the sibling must be incremented in
/// the same function body.
fn rule_counter_pair(file: &PreparedFile, path_str: &str, out: &mut Vec<Violation>) {
    let toks = &file.toks;
    let lines = &file.lines;
    let mut sites: Vec<(usize, &'static str, usize)> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let Some((pi, member)) = COUNTER_PAIRS.iter().enumerate().find_map(|(pi, p)| {
            if t.text == p.a {
                Some((pi, p.a))
            } else if t.text == p.b {
                Some((pi, p.b))
            } else {
                None
            }
        }) else {
            continue;
        };
        let inc = seq_at(toks, k + 1, &["+", "="]) || seq_at(toks, k + 1, &[".", "fetch_add", "("]);
        if inc && !lines.get(t.line).is_some_and(|l| l.in_test) {
            sites.push((pi, member, k));
        }
    }
    if sites.is_empty() {
        return;
    }
    let bodies = fn_bodies(toks);
    let body_of = |k: usize| bodies.iter().position(|&(_, o, c)| o < k && k < c);
    for &(pi, member, k) in &sites {
        let pair = &COUNTER_PAIRS[pi];
        let li = toks[k].line;
        if justified(lines, li, "counter-ok:") {
            continue;
        }
        let sibling = if member == pair.a { pair.b } else { pair.a };
        if path_str != pair.home {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: li + 1,
                rule: "counter-pair",
                message: format!(
                    "`{member}` incremented outside its home file {}; the {}/{} pair is \
                     only atomic under the home lock scope (justify with `// counter-ok:`)",
                    pair.home, pair.a, pair.b
                ),
                allowed: false,
            });
            continue;
        }
        let body = body_of(k);
        let sibling_here = sites
            .iter()
            .any(|&(pi2, m2, k2)| pi2 == pi && m2 == sibling && body_of(k2) == body);
        if !sibling_here {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: li + 1,
                rule: "counter-pair",
                message: format!(
                    "`{member}` incremented without its paired `{sibling}` in the same \
                     function body; probes assert the pair moves together (justify with \
                     `// counter-ok:`)"
                ),
                allowed: false,
            });
        }
    }
}

/// One allowlist entry: `rule path-prefix reason...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id the entry silences.
    pub rule: String,
    /// Workspace-relative path prefix the entry covers.
    pub path_prefix: String,
    /// Why the violation is acceptable (required).
    pub reason: String,
}

/// Parses `allowlist.txt`: one entry per line, `#` comments, blank lines
/// ignored. Returns an error message for a malformed line.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(rule_id), Some(path), Some(reason)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "allowlist line {}: expected `rule path reason...`, got `{raw}`",
                no + 1
            ));
        };
        if rule(rule_id).is_none() {
            return Err(format!(
                "allowlist line {}: unknown rule `{rule_id}`",
                no + 1
            ));
        }
        entries.push(AllowEntry {
            rule: rule_id.to_string(),
            path_prefix: path.to_string(),
            reason: reason.trim().to_string(),
        });
    }
    Ok(entries)
}

/// Marks violations covered by the allowlist.
pub fn apply_allowlist(violations: &mut [Violation], allow: &[AllowEntry]) {
    for v in violations.iter_mut() {
        let path = v.file.to_string_lossy().replace('\\', "/");
        if allow
            .iter()
            .any(|a| a.rule == v.rule && path.starts_with(&a.path_prefix))
        {
            v.allowed = true;
        }
    }
}

/// Which workspace files the lint pass scans: Rust sources under `crates/`,
/// the root `src/`, `examples/` and `tests/` — never `shims/` (stand-ins
/// for external crates play by external rules) or `target/`.
pub fn scan_roots() -> &'static [&'static str] {
    &["crates", "src", "examples", "tests"]
}

/// Recursively collects `.rs` files under `root/<scan roots>`, returning
/// workspace-relative paths in sorted (deterministic) order.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
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
    for sub in scan_roots() {
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

/// Everything one `check` run produced: the violations (allowed ones
/// marked) and the parsed allowlist, so the driver can compute staleness.
pub struct CheckOutcome {
    /// All findings, in file order.
    pub violations: Vec<Violation>,
    /// The parsed allowlist entries (empty when no allowlist file exists).
    pub allowlist: Vec<AllowEntry>,
}

/// Lints the workspace at `root`, returning violations and the allowlist.
pub fn check_workspace_full(root: &Path) -> Result<CheckOutcome, String> {
    let allow_path = root.join("crates/analyze/allowlist.txt");
    let allow = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("reading {}: {e}", allow_path.display()))?;
        parse_allowlist(&text)?
    } else {
        Vec::new()
    };
    let files = collect_files(root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let mut violations = Vec::new();
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("reading {}: {e}", rel.display()))?;
        check_file(&rel, &source, &mut violations);
    }
    apply_allowlist(&mut violations, &allow);
    Ok(CheckOutcome {
        violations,
        allowlist: allow,
    })
}

/// Allowlist entries whose rule/path-prefix no longer matches any
/// violation — entries that would silence nothing and should be pruned
/// before they hide a future regression at the same path.
pub fn stale_entries(allow: &[AllowEntry], violations: &[Violation]) -> Vec<AllowEntry> {
    allow
        .iter()
        .filter(|a| {
            !violations.iter().any(|v| {
                v.rule == a.rule
                    && v.file
                        .to_string_lossy()
                        .replace('\\', "/")
                        .starts_with(&a.path_prefix)
            })
        })
        .cloned()
        .collect()
}

/// Rewrites allowlist text with the `stale` entries removed, preserving
/// comments, blank lines and the order of surviving entries byte-for-byte.
pub fn prune_allowlist_text(text: &str, stale: &[AllowEntry]) -> String {
    let mut out = String::new();
    for raw in text.lines() {
        let line = raw.trim();
        let keep = if line.is_empty() || line.starts_with('#') {
            true
        } else {
            let mut parts = line.splitn(3, char::is_whitespace);
            match (parts.next(), parts.next()) {
                (Some(rule_id), Some(path)) => !stale
                    .iter()
                    .any(|s| s.rule == rule_id && s.path_prefix == path),
                _ => true,
            }
        };
        if keep {
            out.push_str(raw);
            out.push('\n');
        }
    }
    out
}

/// Escapes `s` for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable `check --json` report: every violation
/// (with its allowlisted flag), the stale allowlist entries, and summary
/// counts. Hand-rolled — the report shape is small and stable, and the
/// lint pass stays dependency-free.
pub fn render_json(violations: &[Violation], stale: &[AllowEntry]) -> String {
    let mut out = String::from("{\n  \"violations\": [\n");
    for (i, v) in violations.iter().enumerate() {
        let path = v.file.to_string_lossy().replace('\\', "/");
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"allowed\": {}, \
             \"message\": \"{}\"}}{}\n",
            json_escape(&path),
            v.line,
            v.rule,
            v.allowed,
            json_escape(&v.message),
            if i + 1 < violations.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"stale_allowlist\": [\n");
    for (i, s) in stale.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": \"{}\", \"path_prefix\": \"{}\", \"reason\": \"{}\"}}{}\n",
            json_escape(&s.rule),
            json_escape(&s.path_prefix),
            json_escape(&s.reason),
            if i + 1 < stale.len() { "," } else { "" }
        ));
    }
    let fatal = violations.iter().filter(|v| !v.allowed).count();
    let allowed = violations.len() - fatal;
    out.push_str(&format!(
        "  ],\n  \"total\": {}, \"allowed\": {}, \"fatal\": {}, \"stale\": {}\n}}\n",
        violations.len(),
        allowed,
        fatal,
        stale.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        check_file(Path::new(path), src, &mut out);
        out
    }

    #[test]
    fn no_panic_flags_unwrap_in_hardened_crates_only() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint("crates/core/src/a.rs", src).len(), 1);
        assert_eq!(lint("crates/storage/src/a.rs", src).len(), 1);
        assert_eq!(lint("crates/exp/src/a.rs", src).len(), 0);
    }

    #[test]
    fn no_panic_accepts_invariant_comments() {
        let same = "fn f() { x.expect(\"y\"); // invariant: always present\n}\n";
        assert!(lint("crates/core/src/a.rs", same).is_empty());
        let above = "fn f() {\n // invariant: seeded in new()\n x.expect(\"y\");\n}\n";
        assert!(lint("crates/core/src/a.rs", above).is_empty());
    }

    #[test]
    fn no_panic_skips_test_code_and_strings_and_expect_err() {
        let test_mod = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}\n";
        assert!(lint("crates/core/src/a.rs", test_mod).is_empty());
        let in_string = "fn f() { let s = \"don't .unwrap() here\"; }\n";
        assert!(lint("crates/core/src/a.rs", in_string).is_empty());
        let err_probe = "fn f() { let e = r.expect_err(\"must fail\"); let _ = e; }\n";
        assert!(
            lint("crates/core/src/a.rs", err_probe).is_empty(),
            "expect_err is an error-path probe, not a panic on the happy path"
        );
    }

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
        let good = "fn w(&mut self) -> R {\n self.wal_append(&p)?;\n io.store(&p)?;\n Ok(())\n}\n";
        assert!(lint("crates/core/src/m.rs", good).is_empty());
        let only_store = "fn w(&mut self) -> R { io.store(&p) }\n";
        assert!(lint("crates/core/src/m.rs", only_store).is_empty());
    }

    #[test]
    fn guard_scope_flags_forgotten_guards() {
        let bad = "fn f(b: &B) { let guard = b.fetch(id, ctx)?; std::mem::forget(guard); }\n";
        let v = lint("crates/rtree/src/a.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "guard-scope");
        let ok = "fn f(x: Widget) { std::mem::forget(x); }\n";
        assert!(
            lint("crates/rtree/src/a.rs", ok).is_empty(),
            "forgetting a non-guard is someone else's problem"
        );
        let justified =
            "fn f(b: &B) {\n // guard-scope-ok: leak test fixture\n std::mem::forget(guard);\n}\n";
        assert!(lint("crates/rtree/src/a.rs", justified).is_empty());
    }

    #[test]
    fn guard_scope_flags_guards_held_across_flush() {
        let bad = "fn f(p: &P) -> R {\n let g = p.fetch(id, ctx)?;\n p.flush()?;\n Ok(())\n}\n";
        let v = lint("crates/exp/src/a.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "guard-scope");
        assert_eq!(v[0].line, 3);
        let dropped =
            "fn f(p: &P) -> R {\n let g = p.fetch(id, ctx)?;\n drop(g);\n p.checkpoint()?;\n Ok(())\n}\n";
        assert!(lint("crates/exp/src/a.rs", dropped).is_empty());
        let scoped =
            "fn f(p: &P) -> R {\n {\n let g = p.fetch(id, ctx)?;\n }\n p.flush()?;\n Ok(())\n}\n";
        assert!(
            lint("crates/exp/src/a.rs", scoped).is_empty(),
            "a guard whose scope closed is no longer held"
        );
        let in_test =
            "#[cfg(test)]\nmod t {\n fn f(p: &P) { let g = p.fetch(id, ctx); p.flush(); }\n}\n";
        assert!(lint("crates/exp/src/a.rs", in_test).is_empty());
    }

    #[test]
    fn wall_clock_flags_instant_and_systemtime() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(lint("crates/exp/src/a.rs", src).len(), 1);
        let st = "fn f() { let t = std::time::SystemTime::now(); }\n";
        assert_eq!(lint("examples/x.rs", st).len(), 1);
        let sim = "fn f() { let t = clock.simulated_ms(); }\n";
        assert!(lint("crates/exp/src/a.rs", sim).is_empty());
    }

    #[test]
    fn allowlist_parses_and_applies() {
        let text = "# comment\nwall-clock crates/exp/src/bin/repro.rs reports real time\n";
        let allow = parse_allowlist(text).expect("parse");
        assert_eq!(allow.len(), 1);
        let mut v = vec![Violation {
            file: PathBuf::from("crates/exp/src/bin/repro.rs"),
            line: 3,
            rule: "wall-clock",
            message: String::new(),
            allowed: false,
        }];
        apply_allowlist(&mut v, &allow);
        assert!(v[0].allowed);
        assert!(parse_allowlist("bogus-rule x y\n").is_err());
        assert!(parse_allowlist("no-panic onlytwo\n").is_err());
    }

    #[test]
    fn block_comments_and_raw_strings_are_stripped() {
        let src = "fn f() { /* .unwrap() in comment */ let s = r#\"panic!\"#; }\n";
        assert!(lint("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.unwrap() }\n";
        // The unwrap must still be seen even with lifetimes around.
        assert_eq!(lint("crates/core/src/a.rs", src).len(), 1);
    }

    #[test]
    fn cfg_test_region_ends_with_its_brace() {
        let src = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); } }\nfn g() { y.unwrap(); }\n";
        let v = lint("crates/core/src/a.rs", src);
        assert_eq!(v.len(), 1, "only the post-module unwrap is flagged");
        assert_eq!(v[0].line, 3);
    }

    // --- lexer blind-spot regressions (the old char scanner got these
    // wrong for every rule; the token lexer pins them) ---

    #[test]
    fn multi_line_raw_strings_keep_line_numbers_honest() {
        let src = "fn f() {\n let s = r##\"line\ntwo \"# still\nraw\"##;\n x.unwrap();\n}\n";
        let v = lint("crates/core/src/a.rs", src);
        assert_eq!(v.len(), 1, "only the unwrap after the raw string fires");
        assert_eq!(v[0].line, 5, "line attribution must survive the literal");
    }

    #[test]
    fn nested_block_comment_tail_is_still_code() {
        let hidden = "fn f() { /* x.unwrap() /* panic! */ todo! */ }\n";
        assert!(lint("crates/core/src/a.rs", hidden).is_empty());
        let after = "fn f() { /* /* inner */ still comment */ x.unwrap(); }\n";
        assert_eq!(
            lint("crates/core/src/a.rs", after).len(),
            1,
            "code after a nested comment closes is code again"
        );
    }

    #[test]
    fn lifetime_heavy_code_is_not_swallowed_as_char_literals() {
        let src = "impl<'a, 'b: 'a> F<'a> for G<'b> {\n fn f(&'a self) { s.unwrap(); }\n}\n";
        let v = lint("crates/core/src/a.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn cfg_test_inside_literals_opens_no_region() {
        let plain = "fn f() { let s = \"#[cfg(test)]\"; }\nfn g() { y.unwrap(); }\n";
        assert_eq!(lint("crates/core/src/a.rs", plain).len(), 1);
        let raw = "fn f() { let s = r#\"#[cfg(test)]\"#; }\nfn g() { y.unwrap(); }\n";
        assert_eq!(lint("crates/core/src/a.rs", raw).len(), 1);
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

    // --- guard-send ---

    #[test]
    fn guard_send_flags_guard_fields_outside_guard_rs() {
        let bad = "struct Held {\n token: PinToken,\n}\n";
        let v = lint("crates/rtree/src/a.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "guard-send");
        assert!(
            lint("crates/core/src/guard.rs", bad).is_empty(),
            "the guard definitions themselves are exempt"
        );
        let ok = "struct Held {\n // guard-send-ok: bounded by the session; dropped in close()\n \
                  guard: PageReadGuard,\n}\n";
        assert!(lint("crates/rtree/src/a.rs", ok).is_empty());
    }

    #[test]
    fn guard_send_flags_guards_crossing_spawn() {
        let bad = "fn f(p: &P) {\n let g = p.fetch(id, ctx)?;\n \
                   let h = thread::spawn(move || use_it(g));\n}\n";
        let v = lint("crates/exp/src/a.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "guard-send");
        assert_eq!(v[0].line, 3);
        let fine = "fn f(p: &P) {\n let g = p.fetch(id, ctx)?;\n \
                    let h = thread::spawn(move || other());\n drop(g);\n}\n";
        assert!(lint("crates/exp/src/a.rs", fine).is_empty());
        let inside =
            "fn f(p: &P) {\n let h = thread::spawn(move || { let g = p.fetch(id, ctx); g.id() });\n}\n";
        assert!(
            lint("crates/exp/src/a.rs", inside).is_empty(),
            "a guard born on the spawned thread stays there"
        );
    }

    // --- counter-pair ---

    #[test]
    fn counter_pair_requires_sibling_in_same_body() {
        let lone = "fn f(&mut self) {\n self.stats.evictions += 1;\n}\n";
        let v = lint("crates/core/src/manager.rs", lone);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "counter-pair");
        let both = "fn f(&mut self) {\n if bad {\n self.stats.failed_evictions += 1;\n } \
                    else {\n self.stats.evictions += 1;\n }\n}\n";
        assert!(lint("crates/core/src/manager.rs", both).is_empty());
        let ok = "fn f(&mut self) {\n // counter-ok: failure path counted by the caller\n \
                  self.stats.evictions += 1;\n}\n";
        assert!(lint("crates/core/src/manager.rs", ok).is_empty());
    }

    #[test]
    fn counter_pair_flags_increments_outside_home() {
        let src = "fn f(s: &mut Stats) {\n s.evictions += 1;\n s.failed_evictions += 1;\n}\n";
        let v = lint("crates/core/src/sharded.rs", src);
        assert_eq!(v.len(), 2, "both members are outside their home: {v:?}");
        assert!(v.iter().all(|v| v.rule == "counter-pair"));
        assert!(v[0].message.contains("home file"));
        assert!(lint("crates/core/src/manager.rs", src).is_empty());
    }

    // --- allowlist pruning and the JSON report ---

    #[test]
    fn stale_entries_and_prune_preserve_live_entries_and_comments() {
        let text = "# keep this comment\n\
                    wall-clock crates/exp/src/bin/repro.rs reports real time\n\
                    wall-clock crates/gone.rs file was deleted\n";
        let allow = parse_allowlist(text).expect("parse");
        let violations = vec![Violation {
            file: PathBuf::from("crates/exp/src/bin/repro.rs"),
            line: 1,
            rule: "wall-clock",
            message: String::new(),
            allowed: true,
        }];
        let stale = stale_entries(&allow, &violations);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path_prefix, "crates/gone.rs");
        let pruned = prune_allowlist_text(text, &stale);
        assert!(pruned.contains("# keep this comment"));
        assert!(pruned.contains("repro.rs"));
        assert!(!pruned.contains("gone.rs"));
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let v = vec![Violation {
            file: PathBuf::from("a.rs"),
            line: 7,
            rule: "no-panic",
            message: "quote \" backslash \\ newline \n".to_string(),
            allowed: false,
        }];
        let json = render_json(&v, &[]);
        assert!(json.contains("\"line\": 7"));
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n"));
        assert!(json.contains("\"fatal\": 1"));
        assert!(json.contains("\"stale\": 0"));
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
