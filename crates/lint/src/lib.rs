//! `graphlab-lint` — a dependency-free static-analysis pass that enforces
//! the protocol/determinism invariants the GraphLab engines bet on.
//!
//! The repo's headline guarantees — bit-identical SimNet/TcpNet fixpoints,
//! byte-identical fault-trace replay, serializable lock protocols — rest on
//! hand-maintained invariants that the compiler cannot see. This pass makes
//! them mechanically checkable and fails CI on violations:
//!
//! 1. **`determinism`** — no hash-order iteration (`.iter()`, `.keys()`,
//!    `.values()`, `.drain()`, `for .. in &map`, ...), `Instant::now` /
//!    `SystemTime::now`, or RNG construction in protocol-critical modules:
//!    `core/src/{messages,chromatic,locking,driver,local,snapshot,recovery}.rs`
//!    and `net/src/*`. Anything that orders sends, builds payloads, or
//!    feeds traces must be deterministic given the seed.
//! 2. **`codec-xref`** — every `impl Codec` in `core/src/messages.rs`
//!    appears in the `wire_codec` proptest suite in `tests/properties.rs`.
//! 3. **`blocking-recv`** — no untimed `.recv()` in engine/transport code
//!    outside the sites PR 5's termination audit blessed; engine loops use
//!    `recv_timeout` so recovery can interrupt waits.
//!
//! Three further checks are protocol-*flow* analyses, built on a
//! lightweight item-structure layer ([`parser`]: fn/match-arm spans, call
//! sites — no full Rust grammar):
//!
//! 4. **`era-fencing`** — any non-test code that decodes an era-carrying
//!    recovery/adoption message (`RollbackMsg`, `AdoptPlanMsg`, `DownMsg`,
//!    ...) must compare its era against the current fault era — or call a
//!    `RecoveryTracker` fence (`observe_era`, `note_ready`, ...) — before
//!    acting, either in the surrounding arm/fn body or one delegation hop
//!    away in a same-file fn that receives the decoded value.
//! 5. **`survivor-barrier`** — in `core/src/{chromatic,locking,recovery}.rs`,
//!    barrier/quorum comparisons must count `survivors()`/live membership,
//!    never the static `num_machines()` (directly or via a `let n =`
//!    alias). Ranges and arithmetic uses of `n` are fine.
//! 6. **`fenced-send`** — engine/transport code never calls
//!    `Endpoint::send` directly; the Batcher's `put`/`put_wire` path owns
//!    the fenced-mask that keeps dead destinations dark.
//!
//! What is *not* here any more is held by the compilers instead: the
//! message-kind registry and its send/handler cross-reference are the
//! `Kind` enums of `core/src/messages.rs` and the exhaustive matches over
//! them (a kind cannot lack a number, a name or a handler arm), and
//! undocumented `unsafe` is clippy's `undocumented_unsafe_blocks`, denied
//! in CI.
//!
//! Legitimate sites are annotated in place:
//!
//! ```text
//! let t0 = Instant::now(); // lint: allow(determinism) -- wall-clock metrics only
//! ```
//!
//! A suppression must carry a written reason after `--`, must name a known
//! check, and must actually suppress something — violations of any of
//! these are findings themselves (check `lint-allow`), so the allowlist
//! can never rot silently.
//!
//! The pass is a hand-rolled lexer/scanner over the workspace `.rs` files
//! (same no-deps idiom as `net/src/compress.rs`): no syn, no rustc — it
//! runs before anything else builds.

pub mod checks;
pub mod lexer;
pub mod parser;
pub mod source;

pub use source::{SourceFile, Workspace};

/// The six enforced checks (suppressible); the `lint-allow` meta-check
/// guards the suppressions themselves and is always on.
pub const CHECKS: &[&str] = &[
    "determinism",
    "codec-xref",
    "blocking-recv",
    "era-fencing",
    "survivor-barrier",
    "fenced-send",
];

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Check that produced it (one of [`CHECKS`] or `lint-allow`).
    pub check: &'static str,
    /// Path relative to the analysis root.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fm, "{}:{}:{}: [{}] {}", self.path, self.line, self.col, self.check, self.message)
    }
}

/// Runs `active` checks over the workspace, applies suppressions, audits
/// the suppressions themselves, and returns findings sorted by
/// `(path, line, col, check)`.
pub fn run_checks(ws: &Workspace, active: &[&str]) -> Vec<Finding> {
    let mut raw: Vec<Finding> = Vec::new();
    for &check in active {
        match check {
            "determinism" => checks::check_determinism(ws, &mut raw),
            "codec-xref" => checks::check_codec_xref(ws, &mut raw),
            "blocking-recv" => checks::check_blocking_recv(ws, &mut raw),
            "era-fencing" => checks::check_era_fencing(ws, &mut raw),
            "survivor-barrier" => checks::check_survivor_barrier(ws, &mut raw),
            "fenced-send" => checks::check_fenced_send(ws, &mut raw),
            other => panic!("unknown check {other:?}"),
        }
    }

    // Apply suppressions: a finding is dropped when the same file carries
    // `lint: allow(<check>)` targeting the finding's line.
    let mut used: Vec<Vec<bool>> =
        ws.files.iter().map(|f| vec![false; f.suppressions.len()]).collect();
    let mut out: Vec<Finding> = Vec::new();
    for finding in raw {
        let fi = ws.files.iter().position(|f| f.path == finding.path);
        let mut suppressed = false;
        if let Some(fi) = fi {
            for (si, s) in ws.files[fi].suppressions.iter().enumerate() {
                if s.check == finding.check && s.target_line == finding.line {
                    used[fi][si] = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            out.push(finding);
        }
    }

    // Meta-audit of the suppression layer itself.
    for (fi, f) in ws.files.iter().enumerate() {
        for b in &f.bad_directives {
            out.push(Finding {
                check: "lint-allow",
                path: f.path.clone(),
                line: b.line,
                col: 1,
                message: format!("malformed lint directive: {}", b.message),
            });
        }
        for (si, s) in f.suppressions.iter().enumerate() {
            if !CHECKS.contains(&s.check.as_str()) {
                out.push(Finding {
                    check: "lint-allow",
                    path: f.path.clone(),
                    line: s.line,
                    col: 1,
                    message: format!(
                        "allow({}) names an unknown check (known: {})",
                        s.check,
                        CHECKS.join(", ")
                    ),
                });
                continue;
            }
            if s.reason.is_none() {
                out.push(Finding {
                    check: "lint-allow",
                    path: f.path.clone(),
                    line: s.line,
                    col: 1,
                    message: format!(
                        "allow({}) without a reason — write `-- <why this site is sound>`",
                        s.check
                    ),
                });
            }
            // Only judge "unused" for checks that actually ran.
            if active.contains(&s.check.as_str()) && !used[fi][si] {
                out.push(Finding {
                    check: "lint-allow",
                    path: f.path.clone(),
                    line: s.line,
                    col: 1,
                    message: format!(
                        "unused suppression: allow({}) matched no finding on its target \
                         line {} — remove it",
                        s.check, s.target_line
                    ),
                });
            }
        }
    }

    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.check).cmp(&(b.path.as_str(), b.line, b.col, b.check))
    });
    out
}

/// Convenience: run every check.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    run_checks(ws, CHECKS)
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &std::path::Path) -> Option<std::path::PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
