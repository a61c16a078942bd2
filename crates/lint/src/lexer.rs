//! A minimal Rust lexer: just enough to tell code from comments, strings,
//! and literals, with line/column tracking for diagnostics.
//!
//! This is deliberately not a full Rust grammar — the checks only need a
//! reliable token stream where `// comments`, `/* block comments */`,
//! `"strings"`, `r#"raw strings"#`, char literals, and lifetimes can never
//! be mistaken for code. Everything else is `Ident`, `Num`, or
//! single-character `Punct` tokens that the checks pattern-match.

/// Token class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `HashMap`, `K_TOKEN`, ...).
    Ident,
    /// Single punctuation character (`.`, `:`, `{`, ...). Multi-character
    /// operators arrive as consecutive tokens (`::` is two `:`).
    Punct(char),
    /// Numeric literal.
    Num,
    /// String literal of any flavour (`""`, `r""`, `r#""#`, `b""`, `c""`).
    Str,
    /// Char literal (`'a'`, `'\n'`).
    Char,
    /// Lifetime (`'a`) — kept distinct so it is never a char literal.
    Lifetime,
    /// Line or block comment, including doc comments.
    Comment,
}

/// One token with its span.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Class.
    pub kind: TokKind,
    /// Byte range in the source text.
    pub start: usize,
    /// Exclusive end byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based column (in bytes) of `start`.
    pub col: u32,
}

impl Tok {
    /// The token's text.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// Whether this is an identifier with exactly this text.
    pub fn is_ident(&self, src: &str, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text(src) == name
    }

    /// Whether this is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Tokenizes `src`. Never fails: unterminated constructs consume to EOF.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::with_capacity(src.len() / 6 + 8);
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_start = 0usize;

    macro_rules! push {
        ($kind:expr, $start:expr, $end:expr, $sline:expr, $scol:expr) => {
            toks.push(Tok {
                kind: $kind,
                start: $start,
                end: $end,
                line: $sline,
                col: $scol,
            })
        };
    }

    while i < b.len() {
        let c = b[i];
        let tline = line;
        let tcol = (i - line_start) as u32 + 1;
        match c {
            b'\n' => {
                i += 1;
                line += 1;
                line_start = i;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                push!(TokKind::Comment, start, i, tline, tcol);
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start = i;
                i += 2;
                let mut depth = 1u32;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        line_start = i + 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                push!(TokKind::Comment, start, i, tline, tcol);
            }
            b'"' => {
                let start = i;
                i = scan_string(b, i + 1, &mut line, &mut line_start);
                push!(TokKind::Str, start, i, tline, tcol);
            }
            b'r' | b'b' | b'c' if raw_or_byte_string(b, i).is_some() => {
                let (body, hashes) = raw_or_byte_string(b, i).unwrap();
                let start = i;
                i = if hashes == usize::MAX {
                    // plain b"..." / c"..." string
                    scan_string(b, body, &mut line, &mut line_start)
                } else {
                    scan_raw_string(b, body, hashes, &mut line, &mut line_start)
                };
                push!(TokKind::Str, start, i, tline, tcol);
            }
            b'\'' => {
                // Lifetime vs char literal: a lifetime is `'` + ident with no
                // closing quote right after the ident run.
                let start = i;
                let mut j = i + 1;
                if j < b.len() && (b[j].is_ascii_alphabetic() || b[j] == b'_') && b[j] != b'\\' {
                    let mut k = j;
                    while k < b.len() && (b[k].is_ascii_alphanumeric() || b[k] == b'_') {
                        k += 1;
                    }
                    if k < b.len() && b[k] == b'\'' && k > j {
                        // 'a' — single char in quotes: char literal.
                        if k == j + 1 {
                            i = k + 1;
                            push!(TokKind::Char, start, i, tline, tcol);
                            continue;
                        }
                    }
                    // lifetime
                    i = k;
                    push!(TokKind::Lifetime, start, i, tline, tcol);
                    continue;
                }
                // char literal with escape or punctuation: scan to closing '.
                while j < b.len() {
                    match b[j] {
                        b'\\' => j += 2,
                        b'\'' => {
                            j += 1;
                            break;
                        }
                        b'\n' => break, // unterminated; bail at line end
                        _ => j += 1,
                    }
                }
                i = j;
                push!(TokKind::Char, start, i, tline, tcol);
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                push!(TokKind::Ident, start, i, tline, tcol);
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    // Stop a float-looking scan at `..` (range operator).
                    if b[i] == b'.' && i + 1 < b.len() && b[i + 1] == b'.' {
                        break;
                    }
                    i += 1;
                }
                push!(TokKind::Num, start, i, tline, tcol);
            }
            _ => {
                // Punct or non-ASCII byte: emit one char.
                let ch_len = utf8_len(c);
                let ch = src[i..].chars().next().unwrap_or('?');
                push!(TokKind::Punct(ch), i, i + ch_len, tline, tcol);
                i += ch_len;
            }
        }
    }
    toks
}

/// If `b[i]` starts a raw/byte/c-string prefix, returns
/// `(body_start, hash_count)`; `hash_count == usize::MAX` marks a plain
/// (escaped) string body such as `b"..."`.
fn raw_or_byte_string(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    // optional b / c prefix before r or quote
    if b[j] == b'b' || b[j] == b'c' {
        j += 1;
        if j >= b.len() {
            return None;
        }
    }
    if b[j] == b'"' {
        return if j > i { Some((j + 1, usize::MAX)) } else { None };
    }
    if b[j] != b'r' {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j < b.len() && b[j] == b'"' {
        Some((j + 1, hashes))
    } else {
        None
    }
}

fn scan_string(b: &[u8], mut i: usize, line: &mut u32, line_start: &mut usize) -> usize {
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                *line_start = i + 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn scan_raw_string(
    b: &[u8],
    mut i: usize,
    hashes: usize,
    line: &mut u32,
    line_start: &mut usize,
) -> usize {
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            *line_start = i + 1;
            i += 1;
        } else if b[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text(src).to_string())).collect()
    }

    #[test]
    fn comments_strings_chars_lifetimes() {
        let src = r##"
// line comment with "unsafe" inside
/* block /* nested */ comment */
let s = "str with // not a comment";
let r = r#"raw "quoted" body"#;
let c = '\'';
fn f<'a>(x: &'a str) {}
"##;
        let ks = kinds(src);
        let comments: Vec<_> =
            ks.iter().filter(|(k, _)| *k == TokKind::Comment).collect();
        assert_eq!(comments.len(), 2);
        assert!(comments[0].1.contains("unsafe"));
        let strs: Vec<_> = ks.iter().filter(|(k, _)| *k == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[1].1.contains("raw"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Char && t == "'\\''"));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Lifetime && t == "'a"));
        // The word `unsafe` never appears as an Ident in this snippet.
        assert!(!ks.iter().any(|(k, t)| *k == TokKind::Ident && t == "unsafe"));
    }

    #[test]
    fn numbers_stop_at_a_range_operator() {
        let src = "const A: u16 = 65_535; const B: u16 = 0x10; let r = 1..=3;";
        let nums: Vec<&str> =
            lex(src).iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text(src)).collect();
        assert_eq!(nums, ["65_535", "0x10", "1", "3"]);
    }

    #[test]
    fn lines_and_columns() {
        let src = "a\n  bb\n";
        let toks = lex(src);
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn multiline_string_tracks_lines() {
        let src = "let s = \"one\ntwo\";\nnext";
        let toks = lex(src);
        let next = toks.iter().find(|t| t.is_ident(src, "next")).unwrap();
        assert_eq!(next.line, 3);
    }
}
