//! Lightweight item-structure layer on top of the lexer — just enough
//! shape for the protocol-flow checks: `fn` body spans, `match`-arm body
//! spans, call sites, and balanced-group scanning. This is
//! deliberately not a Rust grammar; it never fails, it only under-reports
//! on shapes it does not model (and the selftests pin the shapes the
//! checks rely on).
//!
//! All spans are ranges of **code-token indices** — indices into
//! [`ItemMap::code`], which lists the file's tokens with comments removed.
//! Working in code-token space makes adjacency tests ("is the next code
//! token a comparator?") trivial regardless of interleaved comments.

use crate::lexer::{Tok, TokKind};

/// A `fn <name> .. { body }` item (trait methods without bodies are not
/// recorded).
pub struct FnSpan {
    /// The function's name.
    pub name: String,
    /// Code-token indices of the body's `{` and its matching `}`.
    pub body: (usize, usize),
}

/// One `pattern [if guard] => body` arm of a `match`.
pub struct ArmSpan {
    /// Inclusive code-token range of the body (braces included for block
    /// bodies).
    pub body: (usize, usize),
}

/// Item-structure map of one source file.
pub struct ItemMap {
    /// Indices into the file's token stream, comments removed.
    pub code: Vec<usize>,
    /// Every `fn` with a body, in source order. Nested fns get their own
    /// entries; [`ItemMap::enclosing_fn`] resolves to the innermost.
    pub fns: Vec<FnSpan>,
    /// Every arm of every `match`, outer and nested alike;
    /// [`ItemMap::innermost_arm`] resolves containment.
    pub arms: Vec<ArmSpan>,
}

impl ItemMap {
    /// Builds the map for one token stream.
    pub fn build(toks: &[Tok], src: &str) -> ItemMap {
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();
        let mut fns = Vec::new();
        let mut arms = Vec::new();

        for w in 0..code.len().saturating_sub(1) {
            let t = &toks[code[w]];
            if t.is_ident(src, "fn") && toks[code[w + 1]].kind == TokKind::Ident {
                if let Some(body) = find_body_brace(toks, &code, w + 2) {
                    let close = close_delim(toks, &code, body, '{', '}');
                    fns.push(FnSpan {
                        name: toks[code[w + 1]].text(src).to_string(),
                        body: (body, close),
                    });
                }
            } else if t.is_ident(src, "match") {
                if let Some(open) = find_body_brace(toks, &code, w + 1) {
                    let close = close_delim(toks, &code, open, '{', '}');
                    parse_arms(toks, &code, open, close, &mut arms);
                }
            }
        }
        ItemMap { code, fns, arms }
    }

    /// The smallest match-arm body containing code-token index `ci`.
    pub fn innermost_arm(&self, ci: usize) -> Option<&ArmSpan> {
        self.arms
            .iter()
            .filter(|a| a.body.0 <= ci && ci <= a.body.1)
            .min_by_key(|a| a.body.1 - a.body.0)
    }

    /// The smallest fn body containing code-token index `ci`.
    pub fn enclosing_fn(&self, ci: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body.0 <= ci && ci <= f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }
}

/// Scans forward from code index `from` for the `{` that opens an item
/// body, at paren/bracket depth 0. Returns `None` on a `;` first (bodiless
/// item) or end of stream.
fn find_body_brace(toks: &[Tok], code: &[usize], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = from;
    while k < code.len() {
        match toks[code[k]].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct(';') if depth == 0 => return None,
            TokKind::Punct('{') if depth == 0 => return Some(k),
            _ => {}
        }
        k += 1;
    }
    None
}

/// Given `code[open]` is the opening delimiter, returns the code index of
/// its matching closer (or the last token on unbalanced input).
pub fn close_delim(toks: &[Tok], code: &[usize], open: usize, o: char, c: char) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < code.len() {
        if toks[code[k]].is_punct(o) {
            depth += 1;
        } else if toks[code[k]].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
        k += 1;
    }
    code.len().saturating_sub(1)
}

/// Parses the arms of one match block: `code[open]` is the block `{`,
/// `code[close]` its `}`.
fn parse_arms(toks: &[Tok], code: &[usize], open: usize, close: usize, out: &mut Vec<ArmSpan>) {
    let mut k = open + 1;
    while k < close {
        if toks[code[k]].is_punct(',') {
            k += 1;
            continue;
        }
        // Pattern: scan to `=>` at bracket depth 0 (struct patterns and
        // guards may nest all three bracket kinds).
        let mut depth = 0i32;
        let mut arrow = None;
        let mut j = k;
        while j < close {
            match toks[code[j]].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                TokKind::Punct('=')
                    if depth == 0 && j + 1 < close && toks[code[j + 1]].is_punct('>') =>
                {
                    arrow = Some(j);
                }
                _ => {}
            }
            if arrow.is_some() {
                break;
            }
            j += 1;
        }
        let Some(ar) = arrow else { break };
        let body_lo = ar + 2;
        if body_lo >= close {
            break;
        }
        let (body_hi, next) = if toks[code[body_lo]].is_punct('{') {
            let c = close_delim(toks, code, body_lo, '{', '}');
            (c, c + 1)
        } else {
            // Expression body: to the `,` at depth 0, or the match's `}`.
            let mut depth = 0i32;
            let mut j = body_lo;
            let mut hi = close - 1;
            while j < close {
                match toks[code[j]].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
                    TokKind::Punct(',') if depth == 0 => {
                        hi = j - 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            (hi, j + 1)
        };
        out.push(ArmSpan { body: (body_lo, body_hi) });
        k = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn map(src: &str) -> (Vec<Tok>, ItemMap) {
        let toks = lex(src);
        let im = ItemMap::build(&toks, src);
        (toks, im)
    }

    #[test]
    fn fn_spans_and_nesting() {
        let src = "fn outer(a: u32) -> Vec<u8> { fn inner() {} body(); }\nfn decl();\n";
        let (toks, im) = map(src);
        assert_eq!(im.fns.len(), 2, "bodiless decl not recorded");
        assert_eq!(im.fns[0].name, "outer");
        assert_eq!(im.fns[1].name, "inner");
        let body_ci = im
            .code
            .iter()
            .position(|&i| toks[i].is_ident(src, "body"))
            .unwrap();
        assert_eq!(im.enclosing_fn(body_ci).unwrap().name, "outer");
    }

    #[test]
    fn match_arms_block_expr_guard_and_struct_pattern() {
        let src = "fn f(k: u16) {\n\
            match k {\n\
                K_A => { one(); }\n\
                K_B | K_C => two(),\n\
                Foo { x } if x == K_D => three(),\n\
                _ => {}\n\
            }\n\
        }\n";
        let (toks, im) = map(src);
        assert_eq!(im.arms.len(), 4);
        // `two` is an expression body.
        let two = im
            .code
            .iter()
            .position(|&i| toks[i].is_ident(src, "two"))
            .unwrap();
        let arm = im.innermost_arm(two).unwrap();
        assert!(arm.body.0 <= two && two <= arm.body.1);
    }

    #[test]
    fn nested_match_resolves_innermost() {
        let src = "fn f(a: u16, b: u16) {\n\
            match a {\n\
                1 => match b {\n\
                    2 => inner_site(),\n\
                    _ => {}\n\
                },\n\
                _ => {}\n\
            }\n\
        }\n";
        let (toks, im) = map(src);
        let site = im
            .code
            .iter()
            .position(|&i| toks[i].is_ident(src, "inner_site"))
            .unwrap();
        let arm = im.innermost_arm(site).unwrap();
        // The innermost arm is `2 => inner_site()`, a short span.
        assert!(arm.body.1 - arm.body.0 <= 3, "resolved outer arm instead");
    }

    #[test]
    fn range_pattern_eq_is_not_an_arrow() {
        let src = "fn f(k: u16) { match k { 1..=5 => a(), _ => b() } }\n";
        let (_, im) = map(src);
        assert_eq!(im.arms.len(), 2);
    }
}
