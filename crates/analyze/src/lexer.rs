//! A small token-level lexer for Rust source.
//!
//! This replaces the old char-level scanner's guesswork with real tokens:
//! raw strings (`r#"…"#`, any hash depth, `br` prefixes), nested block
//! comments, and the `'a`-lifetime vs `'a'`-char-literal distinction are
//! all resolved here, once, instead of being approximated per rule.
//!
//! Two properties the rules (and the proptests) rely on:
//!
//! 1. **Round-trip**: concatenating `token.text` over [`lex`]'s output
//!    reconstructs the input byte-for-byte. Every byte of the source
//!    belongs to exactly one token; nothing is dropped or synthesized.
//! 2. **Prefix stability**: a token's kind and extent depend only on the
//!    bytes up to its end, never on later text — so lexing the
//!    concatenation of the first `k` tokens yields exactly those tokens.
//!
//! The lexer is deliberately coarse where the rules do not care: multi-char
//! operators are emitted as single-char [`TokenKind::Punct`] tokens
//! (`::` is two `:`), and numeric literals swallow any trailing
//! alphanumerics (`0x1f`, `1_000u64`). Unterminated literals and comments
//! extend to end-of-input rather than erroring: lints must degrade
//! gracefully on code mid-edit.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of whitespace (newlines included).
    Whitespace,
    /// `// …` up to (not including) the newline.
    LineComment,
    /// `/* … */`, nesting tracked; unterminated runs to end-of-input.
    BlockComment,
    /// Identifier or keyword (also bare `r`/`b` that start no literal).
    Ident,
    /// `'a`, `'static`, `'_` — a quote followed by an identifier with no
    /// closing quote.
    Lifetime,
    /// `'x'`, `'\n'`, `b'x'` — quote-delimited char (or byte) literal.
    CharLit,
    /// `"…"` or `b"…"` with escapes.
    StrLit,
    /// `r"…"`, `r#"…"#`, `br#"…"#` at any hash depth.
    RawStrLit,
    /// Numeric literal (digits plus trailing alphanumerics/underscores).
    NumLit,
    /// Any other single character (operators, brackets, `;`…).
    Punct,
}

/// One token: its kind and exact source text. Line numbers are the
/// caller's to count (the lint pass derives them while splitting lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'s> {
    /// What the token is.
    pub kind: TokenKind,
    /// The token's exact bytes from the source (round-trip property).
    pub text: &'s str,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Byte length of the UTF-8 char starting at `b` (1 for ASCII/continuation
/// garbage, so progress is always made).
fn utf8_len(b: u8) -> usize {
    match b {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

/// Splits `src` into [`Token`]s covering every byte exactly once.
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let start = i;
        let kind = match b[i] {
            c if c.is_ascii_whitespace() => {
                while i < b.len() && b[i].is_ascii_whitespace() {
                    i += 1;
                }
                TokenKind::Whitespace
            }
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                TokenKind::LineComment
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1u32;
                while i < b.len() && depth > 0 {
                    if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => {
                i = scan_string(b, i + 1);
                TokenKind::StrLit
            }
            b'r' | b'b' => match scan_literal_prefix(b, i) {
                Some((end, kind)) => {
                    i = end;
                    kind
                }
                None => {
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    TokenKind::Ident
                }
            },
            b'\'' => {
                let (end, kind) = scan_quote(b, i);
                i = end;
                kind
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && (is_ident_continue(b[i])) {
                    i += 1;
                }
                TokenKind::NumLit
            }
            c if is_ident_start(c) => {
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                TokenKind::Ident
            }
            c => {
                i += utf8_len(c);
                TokenKind::Punct
            }
        };
        debug_assert!(i > start, "lexer must always make progress");
        out.push(Token {
            kind,
            text: &src[start..i],
        });
    }
    out
}

/// Scans a (byte-)string body starting just past the opening quote;
/// returns the index just past the closing quote (or end-of-input).
fn scan_string(b: &[u8], mut i: usize) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 1 + b.get(i + 1).map_or(0, |&c| utf8_len(c)),
            b'"' => return i + 1,
            c => i += utf8_len(c),
        }
    }
    i
}

/// At an `r` or `b`: recognizes `r"…"`, `r#"…"#` (any depth), `br…`,
/// `b"…"` and `b'…'`. Returns the end index and kind, or `None` when the
/// run is a plain identifier (`radius`, `b`, `r2`, …).
fn scan_literal_prefix(b: &[u8], i: usize) -> Option<(usize, TokenKind)> {
    let mut j = i;
    if b[j] == b'b' {
        match b.get(j + 1) {
            Some(&b'"') => return Some((scan_string(b, j + 2), TokenKind::StrLit)),
            Some(&b'\'') => {
                // Byte char literal: always a char, never a lifetime.
                let (end, _) = scan_quote(b, j + 1);
                return Some((end, TokenKind::CharLit));
            }
            Some(&b'r') => j += 1,
            _ => return None,
        }
    }
    // At `r`: raw string if hashes-then-quote follows.
    debug_assert_eq!(b[j], b'r');
    let mut hashes = 0usize;
    let mut k = j + 1;
    while b.get(k) == Some(&b'#') {
        hashes += 1;
        k += 1;
    }
    if b.get(k) != Some(&b'"') {
        return None;
    }
    k += 1; // past the opening quote
    while k < b.len() {
        if b[k] == b'"' {
            let mut seen = 0usize;
            while seen < hashes && b.get(k + 1 + seen) == Some(&b'#') {
                seen += 1;
            }
            if seen == hashes {
                return Some((k + 1 + hashes, TokenKind::RawStrLit));
            }
        }
        k += utf8_len(b[k]);
    }
    Some((k, TokenKind::RawStrLit))
}

/// At a `'`: distinguishes lifetimes from char literals.
///
/// The rule mirrors rustc's lexer: after the quote, an identifier run that
/// is immediately closed by another `'` is a char literal (`'a'`); one that
/// is not is a lifetime (`'a`, `'static`, `'_`). An escape (`'\n'`) or a
/// non-identifier char (`' '`, `'+'`) is always a char literal. A quote
/// followed by nothing usable is emitted as a lone [`TokenKind::Punct`].
fn scan_quote(b: &[u8], i: usize) -> (usize, TokenKind) {
    match b.get(i + 1) {
        None => (i + 1, TokenKind::Punct),
        Some(&b'\\') => {
            // Escaped char literal: scan to the closing quote.
            let mut k = i + 2 + b.get(i + 2).map_or(0, |&c| utf8_len(c));
            while k < b.len() && b[k] != b'\'' && b[k] != b'\n' {
                k += utf8_len(b[k]);
            }
            if b.get(k) == Some(&b'\'') {
                k += 1;
            }
            (k, TokenKind::CharLit)
        }
        Some(&c) if is_ident_continue(c) => {
            let mut k = i + 1;
            while k < b.len() && is_ident_continue(b[k]) {
                k += utf8_len(b[k]);
            }
            if b.get(k) == Some(&b'\'') {
                (k + 1, TokenKind::CharLit)
            } else {
                (k, TokenKind::Lifetime)
            }
        }
        Some(&b'\'') => (i + 2, TokenKind::Punct), // `''`: empty, degenerate
        Some(&c) => {
            // Single non-identifier char: char literal when closed.
            let k = i + 1 + utf8_len(c);
            if b.get(k) == Some(&b'\'') {
                (k + 1, TokenKind::CharLit)
            } else {
                (i + 1, TokenKind::Punct)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    fn roundtrip(src: &str) {
        let joined: String = lex(src).iter().map(|t| t.text).collect();
        assert_eq!(joined, src, "tokens must reconstruct the source");
    }

    #[test]
    fn round_trips_basic_code() {
        for src in [
            "fn main() { let x = 1; }\n",
            "let s = \"a \\\" b\"; // trailing\n",
            "let r = r#\"raw \"quote\" inside\"#;\n",
            "let r = r##\"deeper \"# still inside\"##;\n",
            "/* outer /* nested */ still comment */ code();\n",
            "fn f<'a>(x: &'a str) -> &'a str { x }\n",
            "let c = 'x'; let nl = '\\n'; let lt: &'static str = \"\";\n",
            "let b = b\"bytes\"; let bc = b'q'; let br = br#\"raw\"#;\n",
            "let n = 0x1f_u64 + 1_000; let f = 1.5e3;\n",
            "日本語 = \"値\"; // コメント\n",
            "let unterminated = \"runs to eof",
            "/* unterminated comment",
            "r#\"unterminated raw",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn raw_strings_are_single_tokens() {
        let toks = kinds("r#\"has .unwrap() inside\"# + x");
        assert_eq!(
            toks[0],
            (TokenKind::RawStrLit, "r#\"has .unwrap() inside\"#")
        );
        assert!(toks.iter().any(|&(k, t)| k == TokenKind::Ident && t == "x"));
    }

    #[test]
    fn nested_block_comments_close_at_matching_depth() {
        let toks = kinds("/* a /* b */ c */x");
        assert_eq!(toks[0], (TokenKind::BlockComment, "/* a /* b */ c */"));
        assert_eq!(toks[1], (TokenKind::Ident, "x"));
    }

    #[test]
    fn lifetimes_and_char_literals_are_distinguished() {
        let toks = kinds("<'a> 'static '_ 'x' '\\n' b'z' ' '");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|&&(k, _)| k == TokenKind::Lifetime)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(lifetimes, ["'a", "'static", "'_"]);
        let chars: Vec<&str> = toks
            .iter()
            .filter(|&&(k, _)| k == TokenKind::CharLit)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(chars, ["'x'", "'\\n'", "b'z'", "' '"]);
    }

    #[test]
    fn bare_r_and_b_stay_identifiers() {
        let toks = kinds("let r = radius; let b = r2d2;");
        assert!(toks
            .iter()
            .all(|&(k, _)| k != TokenKind::RawStrLit && k != TokenKind::StrLit));
        assert!(toks
            .iter()
            .any(|&(k, t)| k == TokenKind::Ident && t == "radius"));
    }
}
