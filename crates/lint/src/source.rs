//! Source-file model: tokens plus the lint's comment-level metadata —
//! `// lint: allow(<check>) -- <reason>` suppressions and `#[cfg(test)]`
//! regions (test code is exempt from the determinism and blocking-recv
//! checks).

use std::path::{Path, PathBuf};

use crate::lexer::{lex, Tok, TokKind};

/// A parsed `// lint: allow(<check>) -- <reason>` directive.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// Check name inside `allow(..)`.
    pub check: String,
    /// Text after `--`, if present. A missing reason is itself a finding.
    pub reason: Option<String>,
    /// Line of the comment.
    pub line: u32,
    /// Line the suppression applies to: the comment's own line when it
    /// trails code, otherwise the first code line after the comment.
    pub target_line: u32,
}

/// A malformed `// lint:` comment (bad directives must not pass silently).
#[derive(Clone, Debug)]
pub struct BadDirective {
    /// Why it failed to parse.
    pub message: String,
    /// Comment line.
    pub line: u32,
}

/// One lexed workspace file with its lint metadata.
pub struct SourceFile {
    /// Path relative to the analysis root, `/`-separated.
    pub path: String,
    /// Raw text.
    pub text: String,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Suppressions declared in this file.
    pub suppressions: Vec<Suppression>,
    /// Unparseable `lint:` directives.
    pub bad_directives: Vec<BadDirective>,
    /// Byte ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lexes `text` and extracts directives. `path` should be relative to
    /// the analysis root.
    pub fn parse(path: impl Into<String>, text: String) -> SourceFile {
        let path = path.into().replace('\\', "/");
        let toks = lex(&text);
        let mut f = SourceFile {
            path,
            text,
            toks,
            suppressions: Vec::new(),
            bad_directives: Vec::new(),
            test_ranges: Vec::new(),
        };
        f.extract_directives();
        f.find_test_ranges();
        f
    }

    /// Whether byte offset `pos` sits inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, pos: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| pos >= a && pos < b)
    }

    fn extract_directives(&mut self) {
        // Borrow dance: collect comment indices first.
        let comments: Vec<usize> = (0..self.toks.len())
            .filter(|&i| self.toks[i].kind == TokKind::Comment)
            .collect();
        for ci in comments {
            let (line, start) = (self.toks[ci].line, self.toks[ci].start);
            let text = self.toks[ci].text(&self.text).to_string();
            // A directive must open the comment (`// lint: ...`); the
            // marker appearing mid-comment is prose about the syntax, not
            // a directive.
            let head = text
                .trim_start_matches(['/', '*', '!'])
                .trim_start();
            let Some(body) = head.strip_prefix("lint:") else { continue };
            let body = body.trim();
            if let Some(rest) = body.strip_prefix("allow(") {
                match parse_allow(rest) {
                    Ok((check, reason)) => {
                        let target_line = self.suppression_target(ci, line, start);
                        self.suppressions.push(Suppression {
                            check,
                            reason,
                            line,
                            target_line,
                        });
                    }
                    Err(message) => self.bad_directives.push(BadDirective { message, line }),
                }
            } else {
                self.bad_directives.push(BadDirective {
                    message: format!(
                        "unknown lint directive {body:?} (expected `allow(<check>) -- <reason>`)"
                    ),
                    line,
                });
            }
        }
    }

    /// The line a suppression comment governs: its own line when code
    /// precedes the comment on that line (trailing comment), else the line
    /// of the next code token.
    fn suppression_target(&self, ci: usize, line: u32, start: usize) -> u32 {
        let trails_code = self.toks[..ci]
            .iter()
            .rev()
            .take_while(|t| t.line == line)
            .any(|t| t.kind != TokKind::Comment && t.start < start);
        if trails_code {
            return line;
        }
        self.toks[ci + 1..]
            .iter()
            .find(|t| t.kind != TokKind::Comment)
            .map(|t| t.line)
            .unwrap_or(line)
    }

    /// Records byte ranges of items annotated `#[cfg(test)]`.
    fn find_test_ranges(&mut self) {
        let src = &self.text;
        let toks = &self.toks;
        let mut ranges = Vec::new();
        let mut i = 0usize;
        while i + 5 < toks.len() {
            let is_cfg_test = toks[i].is_punct('#')
                && toks[i + 1].is_punct('[')
                && toks[i + 2].is_ident(src, "cfg")
                && toks[i + 3].is_punct('(')
                && toks[i + 4].is_ident(src, "test")
                && toks[i + 5].is_punct(')');
            if !is_cfg_test {
                i += 1;
                continue;
            }
            // Skip past this and any further attributes.
            let mut j = i;
            while j < toks.len() && toks[j].is_punct('#') {
                j += 1; // '#'
                if j < toks.len() && toks[j].is_punct('[') {
                    let mut depth = 0i32;
                    while j < toks.len() {
                        if toks[j].is_punct('[') {
                            depth += 1;
                        } else if toks[j].is_punct(']') {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
                while j < toks.len() && toks[j].kind == TokKind::Comment {
                    j += 1;
                }
            }
            // The annotated item: ends at the matching `}` of its first
            // brace, or at `;` if one comes first (e.g. `use` / fn decl).
            let item_start = toks[i].start;
            let mut end = None;
            let mut k = j;
            while k < toks.len() {
                if toks[k].is_punct(';') {
                    end = Some(toks[k].end);
                    break;
                }
                if toks[k].is_punct('{') {
                    let mut depth = 0i32;
                    while k < toks.len() {
                        if toks[k].is_punct('{') {
                            depth += 1;
                        } else if toks[k].is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                end = Some(toks[k].end);
                                break;
                            }
                        }
                        k += 1;
                    }
                    break;
                }
                k += 1;
            }
            let end = end.unwrap_or(src.len());
            ranges.push((item_start, end));
            i = j.max(i + 1);
        }
        self.test_ranges = ranges;
    }
}

/// Parses `<check>) -- <reason>` (the tail of `allow(`).
fn parse_allow(rest: &str) -> Result<(String, Option<String>), String> {
    let close = rest
        .find(')')
        .ok_or_else(|| "allow( without closing `)`".to_string())?;
    let check = rest[..close].trim().to_string();
    if check.is_empty() || !check.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return Err(format!("bad check name {check:?} in allow(..)"));
    }
    let after = rest[close + 1..].trim();
    let reason = after.strip_prefix("--").map(|r| r.trim().to_string());
    match &reason {
        Some(r) if r.is_empty() => Err("empty reason after `--`".to_string()),
        _ => Ok((check, reason)),
    }
}

/// The set of files under analysis.
pub struct Workspace {
    /// Parsed files, sorted by path (analysis must itself be deterministic).
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Builds a workspace from in-memory `(path, text)` pairs (fixtures).
    pub fn from_memory(files: Vec<(&str, &str)>) -> Workspace {
        let mut files: Vec<SourceFile> = files
            .into_iter()
            .map(|(p, t)| SourceFile::parse(p, t.to_string()))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Loads every `.rs` file under `root`, skipping `target/`, hidden
    /// directories, and this crate's own fixture corpora.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths: Vec<PathBuf> = Vec::new();
        collect_rs(root, &mut paths)?;
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for p in paths {
            let text = std::fs::read_to_string(&p)?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::parse(rel, text));
        }
        Ok(Workspace { files })
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_trailing_and_preceding() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = 1; // lint: allow(determinism) -- trailing\n\
             // lint: allow(blocking-recv) -- above\n\
             let b = 2;\n"
                .to_string(),
        );
        assert_eq!(f.suppressions.len(), 2);
        assert_eq!(f.suppressions[0].target_line, 1);
        assert_eq!(f.suppressions[1].target_line, 3);
        assert_eq!(f.suppressions[0].reason.as_deref(), Some("trailing"));
    }

    #[test]
    fn bad_directives_are_recorded() {
        let f = SourceFile::parse(
            "m.rs",
            "// lint: allow(determinism) --\n// lint: frobnicate\n".to_string(),
        );
        assert_eq!(f.bad_directives.len(), 2);
    }

    #[test]
    fn cfg_test_regions() {
        let src = "fn live() { now(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { now(); }\n}\n\
                   fn live2() {}\n";
        let f = SourceFile::parse("x.rs", src.to_string());
        let live2 = src.find("live2").unwrap();
        let inner = src.find("fn t()").unwrap();
        assert!(f.in_test_code(inner));
        assert!(!f.in_test_code(0));
        assert!(!f.in_test_code(live2));
    }
}
