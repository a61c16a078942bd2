//! The protocol-invariant checks.
//!
//! Each check walks the token streams of a [`Workspace`] and pushes
//! [`Finding`]s; suppression handling and ordering live in
//! [`crate::run_checks`]. Checks 1–3 are token-level scans; checks 4–6
//! (era-fencing, survivor-barrier, fenced-send) are protocol-flow analyses
//! over the [`crate::parser::ItemMap`] item structure.

use crate::lexer::{Tok, TokKind};
use crate::parser::{close_delim, ItemMap};
use crate::source::{SourceFile, Workspace};
use crate::Finding;

/// Core protocol modules covered by the determinism check: everything that
/// builds wire payloads, orders sends, or feeds traces.
const CORE_DETERMINISM_FILES: &[&str] = &[
    "messages.rs",
    "chromatic.rs",
    "locking.rs",
    "driver.rs",
    "local.rs",
    "snapshot.rs",
    "recovery.rs",
];

/// Whether `path` is protocol-critical for the determinism check.
pub fn determinism_scope(path: &str) -> bool {
    if let Some(rest) = path.strip_prefix("crates/core/src/") {
        return CORE_DETERMINISM_FILES.contains(&rest);
    }
    path.starts_with("crates/net/src/")
}

/// Whether `path` is in scope for the blocking-recv audit: all engine and
/// transport sources.
pub fn recv_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/") || path.starts_with("crates/net/src/")
}

fn finding(check: &'static str, f: &SourceFile, t: &Tok, message: String) -> Finding {
    Finding { check, path: f.path.clone(), line: t.line, col: t.col, message }
}

// ---------------------------------------------------------------- check 1

/// Iteration methods whose visit order is the hasher's, not the data's.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Type names whose iteration order is the hasher's: the std containers
/// and `IdMap`, `graphlab-graph`'s alias for a `HashMap` under its integer-id
/// hasher (point lookups by id are its only legitimate protocol use).
const HASH_CONTAINERS: &[&str] = &["HashMap", "HashSet", "IdMap"];

/// RNG constructors/seeders that demand a written justification in
/// protocol paths (seeded ones included: the reason documents the seed's
/// provenance).
const RNG_IDENTS: &[&str] =
    &["thread_rng", "from_entropy", "seed_from_u64", "from_seed", "StdRng", "SmallRng"];

/// Determinism lint: no hash-order iteration, wall-clock reads, or RNG
/// construction in protocol-critical modules.
pub fn check_determinism(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !determinism_scope(&f.path) {
            continue;
        }
        let src = &f.text;
        let toks = &f.toks;
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();
        let hash_names = collect_hash_names(f, &code);

        for (w, &i) in code.iter().enumerate() {
            let t = &toks[i];
            if f.in_test_code(t.start) {
                continue;
            }
            if t.kind == TokKind::Ident {
                let text = t.text(src);
                // `Instant::now` / `SystemTime::now`.
                if (text == "Instant" || text == "SystemTime")
                        && matches_path_call(toks, src, &code[w + 1..], "now")
                {
                    out.push(finding(
                        "determinism",
                        f,
                        t,
                        format!(
                            "`{text}::now` in protocol-critical module — wall-clock \
                             values must never influence wire contents or traces"
                        ),
                    ));
                    continue;
                }
                if RNG_IDENTS.contains(&text) {
                    out.push(finding(
                        "determinism",
                        f,
                        t,
                        format!(
                            "RNG construction `{text}` in protocol-critical module — \
                             randomness here must be seeded and justified"
                        ),
                    ));
                    continue;
                }
                if hash_names.contains(&text) {
                    // `for pat in [&[mut]] name` — hash-order loop.
                    if is_for_loop_target(toks, src, &code[..w]) {
                        out.push(finding(
                            "determinism",
                            f,
                            t,
                            format!(
                                "iteration over hash container `{text}` (for-loop) — \
                                 hash order is nondeterministic; use a BTreeMap or \
                                 sort before iterating"
                            ),
                        ));
                        continue;
                    }
                    if let Some(m) = hash_iter_method(toks, src, &code[w + 1..]) {
                        out.push(finding(
                            "determinism",
                            f,
                            t,
                            format!(
                                "`.{m}()` on hash container `{text}` — hash order is \
                                 nondeterministic; use a BTreeMap or sort before \
                                 iterating"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Names declared (outside test code) with a hash-container type
/// ([`HASH_CONTAINERS`]): struct fields / params `name: ..HashMap<..>`, and
/// `let [mut] name = HashMap::..` initialisations.
fn collect_hash_names<'a>(f: &'a SourceFile, code: &[usize]) -> Vec<&'a str> {
    let src = &f.text;
    let toks = &f.toks;
    let mut names: Vec<&str> = Vec::new();
    for (w, &i) in code.iter().enumerate() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if !HASH_CONTAINERS.contains(&t.text(src)) {
            continue;
        }
        if f.in_test_code(t.start) {
            continue;
        }
        // Walk back over wrapper idents and type punctuation to find
        // `name :` (field/param/let-annotation) or `name =` (let-init).
        let mut k = w;
        while k > 0 {
            k -= 1;
            let p = &toks[code[k]];
            match p.kind {
                TokKind::Punct('<') | TokKind::Punct('&') => continue,
                TokKind::Ident => {
                    let pt = p.text(src);
                    if matches!(pt, "Mutex" | "RwLock" | "Arc" | "Rc" | "Box" | "Option" | "mut")
                    {
                        continue;
                    }
                    break; // unexpected ident — not a declaration shape
                }
                TokKind::Punct(':') | TokKind::Punct('=') => {
                    // Skip a second ':' of a path `::` — that means
                    // `HashMap` appeared as `path::HashMap`; keep walking.
                    if p.is_punct(':') && k > 0 && toks[code[k - 1]].is_punct(':') {
                        k -= 1;
                        continue;
                    }
                    if k > 0 && toks[code[k - 1]].kind == TokKind::Ident {
                        let name = toks[code[k - 1]].text(src);
                        if name != "mut" && !names.contains(&name) {
                            names.push(name);
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
    }
    names
}

/// Whether the code tokens right before a name form `for .. in [&[mut]]`.
fn is_for_loop_target(toks: &[Tok], src: &str, before: &[usize]) -> bool {
    let mut k = before.len();
    while k > 0 {
        k -= 1;
        let t = &toks[before[k]];
        if t.is_punct('&') || t.is_ident(src, "mut") {
            continue;
        }
        return t.is_ident(src, "in");
    }
    false
}

/// Scans a method chain after a receiver name; returns the first
/// hash-order iteration method, skipping over benign calls like `.lock()`.
fn hash_iter_method<'a>(toks: &'a [Tok], src: &'a str, after: &[usize]) -> Option<&'a str> {
    let mut w = 0usize;
    for _hop in 0..4 {
        if !(w + 2 < after.len()
            && toks[after[w]].is_punct('.')
            && toks[after[w + 1]].kind == TokKind::Ident
            && toks[after[w + 2]].is_punct('('))
        {
            return None;
        }
        let method = toks[after[w + 1]].text(src);
        if ITER_METHODS.contains(&method) {
            return Some(method);
        }
        // Skip the balanced argument list, then continue the chain.
        let mut depth = 0i32;
        let mut k = w + 2;
        while k < after.len() {
            if toks[after[k]].is_punct('(') {
                depth += 1;
            } else if toks[after[k]].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        w = k + 1;
    }
    None
}

/// Whether the next code tokens are `::<name>(`-ish: `: : name`.
fn matches_path_call(toks: &[Tok], src: &str, after: &[usize], name: &str) -> bool {
    after.len() >= 3
        && toks[after[0]].is_punct(':')
        && toks[after[1]].is_punct(':')
        && toks[after[2]].is_ident(src, name)
}

// ---------------------------------------------------------------- check 2

/// Codec cross-reference: every `impl Codec for T` in
/// `core/src/messages.rs` must be exercised by the `wire_codec` proptest
/// suite in `tests/properties.rs`.
pub fn check_codec_xref(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some(msgs) = ws.files.iter().find(|f| f.path.ends_with("core/src/messages.rs")) else {
        return;
    };
    let src = &msgs.text;
    let toks = &msgs.toks;
    let code: Vec<usize> =
        (0..toks.len()).filter(|&i| toks[i].kind != TokKind::Comment).collect();
    let mut impls: Vec<(String, u32, u32)> = Vec::new();
    for w in 0..code.len().saturating_sub(2) {
        let [a, b, c] = [code[w], code[w + 1], code[w + 2]];
        if toks[a].is_ident(src, "Codec")
            && toks[b].is_ident(src, "for")
            && toks[c].kind == TokKind::Ident
        {
            // Require an `impl` a few tokens back (skipping generics).
            let lo = w.saturating_sub(8);
            if code[lo..w].iter().any(|&i| toks[i].is_ident(src, "impl")) {
                impls.push((
                    toks[c].text(src).to_string(),
                    toks[c].line,
                    toks[c].col,
                ));
            }
        }
    }
    if impls.is_empty() {
        return;
    }

    let props = ws.files.iter().find(|f| f.path.ends_with("tests/properties.rs"));
    let covered: Vec<&str> = match props {
        Some(p) => wire_codec_idents(p),
        None => Vec::new(),
    };
    if props.is_none() || covered.is_empty() {
        out.push(Finding {
            check: "codec-xref",
            path: msgs.path.clone(),
            line: impls[0].1,
            col: impls[0].2,
            message: "no `mod wire_codec` proptest suite found in tests/properties.rs \
                      to cross-reference Codec impls against"
                .to_string(),
        });
        return;
    }
    for (name, line, col) in impls {
        if !covered.contains(&name.as_str()) {
            out.push(Finding {
                check: "codec-xref",
                path: msgs.path.clone(),
                line,
                col,
                message: format!(
                    "`impl Codec for {name}` has no coverage in the wire_codec proptest \
                     suite (tests/properties.rs) — every wire type needs a roundtrip \
                     property"
                ),
            });
        }
    }
}

/// Identifiers appearing inside `mod wire_codec { .. }` of a file.
fn wire_codec_idents(f: &SourceFile) -> Vec<&str> {
    let src = &f.text;
    let toks = &f.toks;
    let code: Vec<usize> =
        (0..toks.len()).filter(|&i| toks[i].kind != TokKind::Comment).collect();
    for w in 0..code.len().saturating_sub(2) {
        if toks[code[w]].is_ident(src, "mod") && toks[code[w + 1]].is_ident(src, "wire_codec") {
            // Find the opening brace, then brace-match.
            let mut k = w + 2;
            while k < code.len() && !toks[code[k]].is_punct('{') {
                k += 1;
            }
            let mut depth = 0i32;
            let mut idents = Vec::new();
            while k < code.len() {
                let t = &toks[code[k]];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return idents;
                    }
                } else if t.kind == TokKind::Ident {
                    idents.push(t.text(src));
                }
                k += 1;
            }
            return idents;
        }
    }
    Vec::new()
}

// ---------------------------------------------------------------- check 3

/// Blocking-recv audit: untimed `.recv()` outside the transport layer's
/// blessed sites can deadlock termination/recovery (PR 5's audit replaced
/// every engine-side one with `recv_timeout` + death checks).
pub fn check_blocking_recv(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !recv_scope(&f.path) {
            continue;
        }
        let src = &f.text;
        let toks = &f.toks;
        let code: Vec<usize> =
            (0..toks.len()).filter(|&i| toks[i].kind != TokKind::Comment).collect();
        for w in 0..code.len().saturating_sub(3) {
            let [a, b, c, d] = [code[w], code[w + 1], code[w + 2], code[w + 3]];
            if toks[a].is_punct('.')
                && toks[b].is_ident(src, "recv")
                && toks[c].is_punct('(')
                && toks[d].is_punct(')')
                && !f.in_test_code(toks[b].start)
            {
                out.push(finding(
                    "blocking-recv",
                    f,
                    &toks[b],
                    "untimed blocking `.recv()` — engine loops must use `recv_timeout` \
                     so termination detection and fault recovery can interrupt waits"
                        .to_string(),
                ));
            }
        }
    }
}

// ------------------------------------------------------- checks 4-6 shared

/// The punct char of the code token at `w`, if in range and a punct.
fn punct_at(toks: &[Tok], code: &[usize], w: isize) -> Option<char> {
    if w < 0 || w as usize >= code.len() {
        return None;
    }
    match toks[code[w as usize]].kind {
        TokKind::Punct(c) => Some(c),
        _ => None,
    }
}

/// Whether the code token at `w` is immediately preceded by a comparison
/// operator (`<`, `>`, `<=`, `>=`, `==`, `!=`). Multi-char operators
/// arrive as consecutive single puncts; the match-arm arrow `=>` is not a
/// comparison.
fn cmp_before(toks: &[Tok], code: &[usize], w: usize) -> bool {
    let p1 = punct_at(toks, code, w as isize - 1);
    let p2 = punct_at(toks, code, w as isize - 2);
    match p1 {
        Some('<') => true,
        Some('>') => p2 != Some('='), // `=>` arrow
        Some('=') => matches!(p2, Some('=') | Some('!') | Some('<') | Some('>')),
        _ => false,
    }
}

/// Whether the code token at `w` is immediately followed by a comparison
/// operator.
fn cmp_after(toks: &[Tok], code: &[usize], w: usize) -> bool {
    let n1 = punct_at(toks, code, w as isize + 1);
    let n2 = punct_at(toks, code, w as isize + 2);
    match n1 {
        Some('<') | Some('>') => true,
        Some('=') | Some('!') => n2 == Some('='),
        _ => false,
    }
}

/// Walks back over a `seg :: seg ::` path prefix from the code token at
/// `w`; returns the code index of the path's first segment.
fn path_start(toks: &[Tok], code: &[usize], w: usize) -> usize {
    let mut s = w;
    while s >= 3
        && toks[code[s - 1]].is_punct(':')
        && toks[code[s - 2]].is_punct(':')
        && toks[code[s - 3]].kind == TokKind::Ident
    {
        s -= 3;
    }
    s
}

// ---------------------------------------------------------------- check 4

/// Wire messages that carry a fault-era field: stale copies from a
/// previous era must be fenced before they mutate engine state.
const ERA_MSG_TYPES: &[&str] = &[
    "RecoverReadyMsg",
    "RollbackMsg",
    "RecoverEraMsg",
    "AdoptPlanMsg",
    "AdoptDataMsg",
    "DownMsg",
    "UpMsg",
];

/// RecoveryTracker entry points that perform the era comparison
/// internally — calling one counts as fencing.
const ERA_FENCE_CALLS: &[&str] = &["observe_era", "note_ready", "note_mark", "note_recovered"];

/// Era-fencing: any non-test code that decodes an era-carrying
/// recovery/adoption message must compare its era against the current
/// fault era (or call a RecoveryTracker fence) before acting — either
/// directly in the surrounding arm/fn body, or one delegation hop away in
/// a same-file fn the decoded value is passed to.
pub fn check_era_fencing(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !f.path.contains("/src/") {
            continue;
        }
        let (src, toks) = (&f.text, &f.toks);
        let im = ItemMap::build(toks, src);
        let code = &im.code;
        for w in 0..code.len() {
            let t = &toks[code[w]];
            if t.kind != TokKind::Ident || f.in_test_code(t.start) {
                continue;
            }
            let name = t.text(src);
            if name != "dec" && name != "decode_from" {
                continue;
            }
            let Some((ty, binding)) = decode_type(toks, src, code, w) else { continue };
            if !ERA_MSG_TYPES.contains(&ty) {
                continue;
            }
            let region = im
                .innermost_arm(w)
                .map(|a| a.body)
                .or_else(|| im.enclosing_fn(w).map(|x| x.body));
            let Some(region) = region else { continue };
            if has_era_evidence(toks, src, code, region)
                || delegated_fence(&im, toks, src, binding, region)
            {
                continue;
            }
            out.push(finding(
                "era-fencing",
                f,
                t,
                format!(
                    "decodes era-carrying `{ty}` without comparing its era against the \
                     current fault era (or calling a RecoveryTracker fence such as \
                     `observe_era`) before acting on it — a stale pre-rollback copy \
                     would corrupt engine state"
                ),
            ));
        }
    }
}

/// For a decode callee at code index `w`, resolves the decoded type and
/// (when let-bound) the binding name. Handles `let [mut] b: T =
/// [path::]dec(..)`, `T::decode_from(..)`, and `dec::<T>(..)`. Returns
/// `None` when no call follows or no type is recoverable.
fn decode_type<'a>(
    toks: &'a [Tok],
    src: &'a str,
    code: &[usize],
    w: usize,
) -> Option<(&'a str, Option<&'a str>)> {
    let mut ty: Option<&str> = None;
    if punct_at(toks, code, w as isize + 1) == Some(':')
        && punct_at(toks, code, w as isize + 2) == Some(':')
        && punct_at(toks, code, w as isize + 3) == Some('<')
        && w + 4 < code.len()
        && toks[code[w + 4]].kind == TokKind::Ident
    {
        ty = Some(toks[code[w + 4]].text(src)); // turbofish
    } else if punct_at(toks, code, w as isize + 1) != Some('(') {
        return None; // not a call
    }
    let start = path_start(toks, code, w);
    if ty.is_none() && start < w {
        // `T::decode_from(..)` — the path's first segment is the type.
        ty = Some(toks[code[start]].text(src));
    }
    let mut binding: Option<&str> = None;
    if punct_at(toks, code, start as isize - 1) == Some('=') && start >= 2 {
        let annotated = start >= 4
            && toks[code[start - 2]].kind == TokKind::Ident
            && punct_at(toks, code, start as isize - 3) == Some(':')
            && punct_at(toks, code, start as isize - 4) != Some(':');
        if annotated {
            if ty.is_none() {
                ty = Some(toks[code[start - 2]].text(src));
            }
            if toks[code[start - 4]].kind == TokKind::Ident {
                binding = Some(toks[code[start - 4]].text(src));
            }
        } else if toks[code[start - 2]].kind == TokKind::Ident {
            binding = Some(toks[code[start - 2]].text(src));
        }
    }
    ty.map(|t| (t, binding))
}

/// Direct fencing evidence in a code-token span: an `era` ident adjacent
/// to a comparison, or a call to a RecoveryTracker fence method.
fn has_era_evidence(toks: &[Tok], src: &str, code: &[usize], span: (usize, usize)) -> bool {
    let hi = span.1.min(code.len().saturating_sub(1));
    for j in span.0..=hi {
        let t = &toks[code[j]];
        if t.kind != TokKind::Ident {
            continue;
        }
        let x = t.text(src);
        if x == "era" && (cmp_before(toks, code, j) || cmp_after(toks, code, j)) {
            return true;
        }
        if ERA_FENCE_CALLS.contains(&x) && punct_at(toks, code, j as isize + 1) == Some('(') {
            return true;
        }
    }
    false
}

/// One-hop delegation: a call inside `span` that receives the decoded
/// binding and resolves to a same-file fn whose body has direct fencing
/// evidence.
fn delegated_fence(
    im: &ItemMap,
    toks: &[Tok],
    src: &str,
    binding: Option<&str>,
    span: (usize, usize),
) -> bool {
    let Some(b) = binding else { return false };
    let code = &im.code;
    let hi = span.1.min(code.len().saturating_sub(1));
    for j in span.0..=hi {
        let t = &toks[code[j]];
        if t.kind != TokKind::Ident || punct_at(toks, code, j as isize + 1) != Some('(') {
            continue;
        }
        let callee = t.text(src);
        if callee == "dec" || callee == "decode_from" {
            continue;
        }
        let close = close_delim(toks, code, j + 1, '(', ')');
        if !(j + 2..close).any(|k| toks[code[k]].is_ident(src, b)) {
            continue;
        }
        if let Some(fs) = im.fns.iter().find(|f| f.name == callee) {
            if has_era_evidence(toks, src, code, fs.body) {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------- check 5

/// Files whose barrier/quorum logic must count live membership.
const BARRIER_FILES: &[&str] = &[
    "crates/core/src/chromatic.rs",
    "crates/core/src/locking.rs",
    "crates/core/src/recovery.rs",
];

/// Survivor-aware barriers: in recovery-bearing engine files, comparing a
/// counter against the static machine count `num_machines()` (directly or
/// through a `let n = self.num_machines();` alias) is a barrier that dead
/// machines can never satisfy — count `survivors()`/live membership
/// instead. Ranges (`0..n`) and arithmetic uses are fine.
pub fn check_survivor_barrier(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !BARRIER_FILES.iter().any(|p| f.path.ends_with(p)) {
            continue;
        }
        let (src, toks) = (&f.text, &f.toks);
        let im = ItemMap::build(toks, src);
        let code = &im.code;
        for w in 0..code.len() {
            let t = &toks[code[w]];
            if !t.is_ident(src, "num_machines") || f.in_test_code(t.start) {
                continue;
            }
            if punct_at(toks, code, w as isize + 1) != Some('(')
                || punct_at(toks, code, w as isize + 2) != Some(')')
            {
                continue;
            }
            // Receiver chain start (`self . rec . num_machines` etc.).
            let mut rs = w;
            while rs >= 2
                && punct_at(toks, code, rs as isize - 1) == Some('.')
                && toks[code[rs - 2]].kind == TokKind::Ident
            {
                rs -= 2;
            }
            // Rule A: the call itself sits next to a comparison.
            if cmp_before(toks, code, rs) || cmp_after(toks, code, w + 2) {
                out.push(finding(
                    "survivor-barrier",
                    f,
                    t,
                    "barrier/quorum comparison against static `num_machines()` — dead \
                     machines never vote, so this can hang after a failure; count \
                     `survivors()`/live membership instead"
                        .to_string(),
                ));
                continue;
            }
            // Rule B: `let [mut] n = self.num_machines();` then a
            // comparator-adjacent use of `n` in the same fn.
            if punct_at(toks, code, rs as isize - 1) == Some('=')
                && punct_at(toks, code, w as isize + 3) == Some(';')
                && rs >= 2
                && toks[code[rs - 2]].kind == TokKind::Ident
            {
                let alias = toks[code[rs - 2]].text(src);
                let Some(fs) = im.enclosing_fn(w) else { continue };
                let hi = fs.body.1.min(code.len().saturating_sub(1));
                for j in fs.body.0..=hi {
                    let u = &toks[code[j]];
                    if u.is_ident(src, alias)
                        && (cmp_before(toks, code, j) || cmp_after(toks, code, j))
                    {
                        out.push(finding(
                            "survivor-barrier",
                            f,
                            u,
                            format!(
                                "barrier/quorum comparison against `{alias}` (aliased from \
                                 `num_machines()`) — dead machines never vote, so this can \
                                 hang after a failure; count `survivors()`/live membership \
                                 instead"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- check 6

/// Fenced sends: engine/transport code must not call `Endpoint::send`
/// directly — the Batcher's `put`/`put_wire` path applies the fenced-mask
/// that drops traffic to dead destinations. Direct `ep.send(..)` outside
/// that path can resurrect a fenced machine's state.
pub fn check_fenced_send(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        if !(f.path.starts_with("crates/net/src/") || f.path.starts_with("crates/core/src/")) {
            continue;
        }
        let (src, toks) = (&f.text, &f.toks);
        let code: Vec<usize> =
            (0..toks.len()).filter(|&i| toks[i].kind != TokKind::Comment).collect();
        for w in 0..code.len() {
            let t = &toks[code[w]];
            if !t.is_ident(src, "send") || f.in_test_code(t.start) {
                continue;
            }
            if punct_at(toks, &code, w as isize + 1) != Some('(')
                || punct_at(toks, &code, w as isize - 1) != Some('.')
                || w < 2
            {
                continue;
            }
            let recv = toks[code[w - 2]].text(src);
            if recv == "ep" || recv == "endpoint" {
                out.push(finding(
                    "fenced-send",
                    f,
                    t,
                    "direct `Endpoint::send` bypasses the Batcher's fenced-mask path — \
                     dead destinations must stay fenced; route through `put`/`put_wire` \
                     or annotate why this site is fence-exempt"
                        .to_string(),
                ));
            }
        }
    }
}
