//! The protocol-invariant checks.
//!
//! Each check walks the token streams of a [`Workspace`] and pushes
//! [`Finding`]s; suppression handling and ordering live in
//! [`crate::run_checks`]. Checks 1–5 are token-level scans; checks 6–9
//! (msg-flow, era-fencing, survivor-barrier, fenced-send) are
//! protocol-flow analyses over the [`crate::parser::ItemMap`] item
//! structure.

use std::collections::BTreeMap;

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

/// One `pub const K_*: u16 = ..;` definition.
struct KindDef {
    file: usize,
    tok: usize,
    name: String,
    value: Option<u64>,
}

/// Kind-registry audit: global uniqueness, per-crate reserved ranges and
/// gaps (ground truth: `// lint: kind-map` comments), and liveness.
pub fn check_kind_registry(ws: &Workspace, out: &mut Vec<Finding>) {
    // Ground truth: collect kind-map declarations.
    let mut maps: BTreeMap<String, (usize, crate::source::KindMap)> = BTreeMap::new();
    for (fi, f) in ws.files.iter().enumerate() {
        for m in &f.kind_maps {
            if let Some((prev_fi, prev)) = maps.get(&m.krate) {
                out.push(Finding {
                    check: "kind-registry",
                    path: f.path.clone(),
                    line: m.line,
                    col: 1,
                    message: format!(
                        "duplicate kind-map for crate `{}` (first declared at {}:{})",
                        m.krate, ws.files[*prev_fi].path, prev.line
                    ),
                });
            } else {
                maps.insert(m.krate.clone(), (fi, m.clone()));
            }
        }
    }
    // Declared ranges must not overlap across crates.
    let entries: Vec<_> = maps.values().collect();
    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let (a, b) = (&entries[i].1, &entries[j].1);
            if a.lo <= b.hi && b.lo <= a.hi {
                out.push(Finding {
                    check: "kind-registry",
                    path: ws.files[entries[j].0].path.clone(),
                    line: b.line,
                    col: 1,
                    message: format!(
                        "kind-map ranges overlap: `{}` {}..={} vs `{}` {}..={}",
                        a.krate, a.lo, a.hi, b.krate, b.lo, b.hi
                    ),
                });
            }
        }
    }

    // Definitions: `pub const K_*: <ty> = <expr>;` outside test code.
    let mut defs: Vec<KindDef> = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        let toks = &f.toks;
        let src = &f.text;
        let code: Vec<usize> = (0..toks.len())
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();
        for w in 0..code.len().saturating_sub(3) {
            let [a, b, c, d] = [code[w], code[w + 1], code[w + 2], code[w + 3]];
            if !(toks[a].is_ident(src, "pub")
                && toks[b].is_ident(src, "const")
                && toks[c].kind == TokKind::Ident
                && toks[c].text(src).starts_with("K_")
                && toks[d].is_punct(':'))
            {
                continue;
            }
            if f.in_test_code(toks[c].start) {
                continue;
            }
            let name = toks[c].text(src).to_string();
            // Type must be u16 — kinds travel as a u16 header field.
            let ty = code.get(w + 4).map(|&i| &toks[i]);
            if !ty.map(|t| t.is_ident(src, "u16")).unwrap_or(false) {
                out.push(finding(
                    "kind-registry",
                    f,
                    &toks[c],
                    format!("kind constant `{name}` must have type u16"),
                ));
                continue;
            }
            let value = eval_kind_expr(toks, src, &code[w + 5..]);
            if value.is_none() {
                out.push(finding(
                    "kind-registry",
                    f,
                    &toks[c],
                    format!(
                        "kind constant `{name}` is not statically evaluable \
                         (expected an integer literal or `u16::MAX - n`)"
                    ),
                ));
            }
            defs.push(KindDef { file: fi, tok: c, name, value });
        }
    }

    // Range + gap membership per definition.
    for d in &defs {
        let f = &ws.files[d.file];
        let t = &f.toks[d.tok];
        let Some(v) = d.value else { continue };
        let krate = f.crate_name();
        match maps.get(krate) {
            None => out.push(finding(
                "kind-registry",
                f,
                t,
                format!(
                    "kind constant `{}` defined in crate `{krate}`, which has no \
                     `lint: kind-map` reservation",
                    d.name
                ),
            )),
            Some((_, m)) => {
                if v < m.lo || v > m.hi {
                    out.push(finding(
                        "kind-registry",
                        f,
                        t,
                        format!(
                            "kind `{}` = {v} outside crate `{krate}`'s reserved range \
                             {}..={}",
                            d.name, m.lo, m.hi
                        ),
                    ));
                } else if m.in_gap(v) {
                    out.push(finding(
                        "kind-registry",
                        f,
                        t,
                        format!(
                            "kind `{}` = {v} reuses a reserved/retired gap value of crate \
                             `{krate}`'s kind-map",
                            d.name
                        ),
                    ));
                }
            }
        }
    }

    // Global uniqueness.
    let mut by_value: BTreeMap<u64, &KindDef> = BTreeMap::new();
    for d in &defs {
        let Some(v) = d.value else { continue };
        if let Some(first) = by_value.get(&v) {
            let ff = &ws.files[first.file];
            let f = &ws.files[d.file];
            out.push(finding(
                "kind-registry",
                f,
                &f.toks[d.tok],
                format!(
                    "kind `{}` = {v} collides with `{}` ({}:{})",
                    d.name, first.name, ff.path, ff.toks[first.tok].line
                ),
            ));
        } else {
            by_value.insert(v, d);
        }
    }

    // Liveness: every kind needs at least one non-defining reference
    // outside `use` declarations.
    let mut refs: BTreeMap<&str, u64> = defs.iter().map(|d| (d.name.as_str(), 0)).collect();
    for (fi, f) in ws.files.iter().enumerate() {
        let src = &f.text;
        let mut in_use_decl = false;
        for (ti, t) in f.toks.iter().enumerate() {
            match t.kind {
                TokKind::Ident if t.is_ident(src, "use") => in_use_decl = true,
                TokKind::Punct(';') => in_use_decl = false,
                TokKind::Ident if !in_use_decl => {
                    let text = t.text(src);
                    if let Some(n) = refs.get_mut(text) {
                        let is_def_site =
                            defs.iter().any(|d| d.file == fi && d.tok == ti);
                        if !is_def_site {
                            *n += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    for d in &defs {
        if refs.get(d.name.as_str()) == Some(&0) {
            let f = &ws.files[d.file];
            out.push(finding(
                "kind-registry",
                f,
                &f.toks[d.tok],
                format!("dead kind: `{}` is never referenced outside its definition", d.name),
            ));
        }
    }
}

/// Evaluates the constant expression between `=` and `;`: an integer
/// literal, `u16::MAX`, or `u16::MAX - n`.
fn eval_kind_expr(toks: &[Tok], src: &str, code: &[usize]) -> Option<u64> {
    // code[0] should be '='.
    if code.is_empty() || !toks[code[0]].is_punct('=') {
        return None;
    }
    let expr: Vec<&Tok> = code[1..]
        .iter()
        .map(|&i| &toks[i])
        .take_while(|t| !t.is_punct(';'))
        .collect();
    match expr.as_slice() {
        [n] if n.kind == TokKind::Num => n.value,
        [u, c1, c2, m]
            if u.is_ident(src, "u16")
                && c1.is_punct(':')
                && c2.is_punct(':')
                && m.is_ident(src, "MAX") =>
        {
            Some(u16::MAX as u64)
        }
        [u, c1, c2, m, minus, n]
            if u.is_ident(src, "u16")
                && c1.is_punct(':')
                && c2.is_punct(':')
                && m.is_ident(src, "MAX")
                && minus.is_punct('-')
                && n.kind == TokKind::Num =>
        {
            Some(u16::MAX as u64 - n.value?)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------- check 2

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

// ---------------------------------------------------------------- check 3

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

// ---------------------------------------------------------------- check 4

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

// ---------------------------------------------------------------- check 5

/// Unsafe hygiene: every `unsafe` keyword carries a `SAFETY:` comment on
/// the same line or on the contiguous comment/attribute lines above it —
/// or above the call/macro whose argument list, opened on the lines in
/// between, the `unsafe` block is an argument of.
pub fn check_unsafe_hygiene(ws: &Workspace, out: &mut Vec<Finding>) {
    for f in &ws.files {
        let src = &f.text;
        // Per-line classification.
        let mut line_has_code: BTreeMap<u32, bool> = BTreeMap::new();
        let mut line_comment_safety: BTreeMap<u32, bool> = BTreeMap::new();
        let mut line_first_is_attr: BTreeMap<u32, bool> = BTreeMap::new();
        let mut line_opens_args: BTreeMap<u32, bool> = BTreeMap::new();
        for t in &f.toks {
            let entry = line_first_is_attr.entry(t.line).or_insert(t.is_punct('#'));
            let _ = entry;
            if t.kind != TokKind::Comment {
                line_opens_args.insert(t.line, t.is_punct('('));
            }
            match t.kind {
                TokKind::Comment => {
                    let has = t.text(src).to_ascii_lowercase().contains("safety");
                    let e = line_comment_safety.entry(t.line).or_insert(false);
                    *e |= has;
                    // A multi-line block comment marks every line it spans.
                    if has {
                        let extra = t.text(src).matches('\n').count() as u32;
                        for l in t.line..=t.line + extra {
                            *line_comment_safety.entry(l).or_insert(false) |= true;
                        }
                    }
                }
                _ => {
                    *line_has_code.entry(t.line).or_insert(false) |= true;
                }
            }
        }
        for t in &f.toks {
            if !t.is_ident(src, "unsafe") {
                continue;
            }
            let mut ok = line_comment_safety.get(&t.line).copied().unwrap_or(false);
            let mut l = t.line;
            while !ok && l > 1 {
                l -= 1;
                let code = line_has_code.get(&l).copied().unwrap_or(false);
                let attr = line_first_is_attr.get(&l).copied().unwrap_or(false);
                let opens_args = line_opens_args.get(&l).copied().unwrap_or(false);
                if code && !attr && !opens_args {
                    break; // hit a real code line without finding SAFETY
                }
                if line_comment_safety.get(&l).copied().unwrap_or(false) {
                    ok = true;
                }
            }
            if !ok {
                out.push(finding(
                    "unsafe-hygiene",
                    f,
                    t,
                    "`unsafe` without a `// SAFETY:` comment — state the invariant that \
                     makes this sound"
                        .to_string(),
                ));
            }
        }
    }
}

// ------------------------------------------------------- checks 6-9 shared

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

/// Whether the span `lo..=hi` of code tokens has `==`/`!=` immediately on
/// either side (equality tests only — used for kind-comparison handler
/// sites).
fn eq_adjacent(toks: &[Tok], code: &[usize], lo: usize, hi: usize) -> bool {
    let p1 = punct_at(toks, code, lo as isize - 1);
    let p2 = punct_at(toks, code, lo as isize - 2);
    let n1 = punct_at(toks, code, hi as isize + 1);
    let n2 = punct_at(toks, code, hi as isize + 2);
    (p1 == Some('=') && matches!(p2, Some('=') | Some('!')))
        || (matches!(n1, Some('=') | Some('!')) && n2 == Some('='))
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

// ---------------------------------------------------------------- check 6

/// Whether a callee name is a send-shaped call for the msg-flow check: a
/// kind constant in its argument list is a send site.
fn is_sendish(name: &str) -> bool {
    name.contains("send") || name.contains("broadcast") || name == "put" || name == "put_wire"
}

/// Message send/handler cross-reference. Ground truth is the per-kind
/// `// lint: kind K_X handlers: <file.rs>[, ..]` declarations next to the
/// kind registry: every registered kind must carry one, every declared
/// handler file must actually contain a handler site (match arm, guard, or
/// `==`/`!=` kind comparison) for that kind, and every kind must have at
/// least one non-test send site (a `*send*`/`*broadcast*`/`put`/`put_wire`
/// call carrying it, or a `kind: K_X` struct-literal field). Removing a
/// handler arm for a declared kind turns this check red.
pub fn check_msg_flow(ws: &Workspace, out: &mut Vec<Finding>) {
    // Kind definitions (non-test `pub const K_*: u16`).
    struct Def {
        file: usize,
        tok: usize,
        name: String,
    }
    let mut defs: Vec<Def> = Vec::new();
    for (fi, f) in ws.files.iter().enumerate() {
        let (src, toks) = (&f.text, &f.toks);
        let code: Vec<usize> =
            (0..toks.len()).filter(|&i| toks[i].kind != TokKind::Comment).collect();
        for w in 0..code.len().saturating_sub(3) {
            let [a, b, c, d] = [code[w], code[w + 1], code[w + 2], code[w + 3]];
            if toks[a].is_ident(src, "pub")
                && toks[b].is_ident(src, "const")
                && toks[c].kind == TokKind::Ident
                && toks[c].text(src).starts_with("K_")
                && toks[d].is_punct(':')
                && !f.in_test_code(toks[c].start)
            {
                defs.push(Def { file: fi, tok: c, name: toks[c].text(src).to_string() });
            }
        }
    }

    // Handler-provenance declarations; duplicates and unknown kinds are
    // findings themselves.
    let mut decls: BTreeMap<String, (usize, crate::source::KindFlow)> = BTreeMap::new();
    for (fi, f) in ws.files.iter().enumerate() {
        for d in &f.kind_flows {
            if let Some((pfi, prev)) = decls.get(&d.kind) {
                out.push(Finding {
                    check: "msg-flow",
                    path: f.path.clone(),
                    line: d.line,
                    col: 1,
                    message: format!(
                        "duplicate `kind {}` declaration (first at {}:{})",
                        d.kind, ws.files[*pfi].path, prev.line
                    ),
                });
            } else {
                decls.insert(d.kind.clone(), (fi, d.clone()));
            }
        }
    }
    for (name, (fi, d)) in &decls {
        if !defs.iter().any(|k| &k.name == name) {
            out.push(Finding {
                check: "msg-flow",
                path: ws.files[*fi].path.clone(),
                line: d.line,
                col: 1,
                message: format!(
                    "`kind {name}` declaration names a kind constant that is not defined \
                     anywhere in the workspace"
                ),
            });
        }
    }

    // Site scan: handler evidence per (file, kind) and global send evidence.
    let known = |name: &str| defs.iter().any(|d| d.name == name);
    let mut handled: std::collections::BTreeSet<(usize, String)> = Default::default();
    let mut sent: std::collections::BTreeSet<String> = Default::default();
    for (fi, f) in ws.files.iter().enumerate() {
        let (src, toks) = (&f.text, &f.toks);
        let im = ItemMap::build(toks, src);
        let code = &im.code;
        for w in 0..code.len() {
            let t = &toks[code[w]];
            if t.kind != TokKind::Ident || f.in_test_code(t.start) {
                continue;
            }
            let text = t.text(src);
            if text.starts_with("K_") && known(text) {
                let lo = path_start(toks, code, w);
                // Handler site: match-arm pattern/guard, or kind equality.
                if im.in_arm_pattern(w) || eq_adjacent(toks, code, lo, w) {
                    handled.insert((fi, text.to_string()));
                    continue;
                }
                // Send site: `kind: K_X` struct-literal field.
                if punct_at(toks, code, lo as isize - 1) == Some(':')
                    && punct_at(toks, code, lo as isize - 2) != Some(':')
                    && lo >= 2
                    && toks[code[lo - 2]].is_ident(src, "kind")
                {
                    sent.insert(text.to_string());
                }
            } else if is_sendish(text) && punct_at(toks, code, w as isize + 1) == Some('(') {
                // Send site: kind constants in a send-shaped call's args.
                let close = close_delim(toks, code, w + 1, '(', ')');
                for k in w + 2..close {
                    let a = &toks[code[k]];
                    if a.kind == TokKind::Ident {
                        let at = a.text(src);
                        if at.starts_with("K_") && known(at) {
                            sent.insert(at.to_string());
                        }
                    }
                }
            }
        }
    }

    // Every registered kind needs a declaration, live handler files, and a
    // send site.
    for d in &defs {
        let f = &ws.files[d.file];
        let t = &f.toks[d.tok];
        let Some((dfi, decl)) = decls.get(&d.name) else {
            out.push(finding(
                "msg-flow",
                f,
                t,
                format!(
                    "kind `{}` has no handler declaration — add \
                     `// lint: kind {} handlers: <file.rs>[, ..]` naming where it is \
                     legitimately received",
                    d.name, d.name
                ),
            ));
            continue;
        };
        let decl_path = ws.files[*dfi].path.clone();
        for h in &decl.handlers {
            let suffix = format!("/{h}");
            match ws.files.iter().position(|f| f.path.ends_with(&suffix) || &f.path == h) {
                None => out.push(Finding {
                    check: "msg-flow",
                    path: decl_path.clone(),
                    line: decl.line,
                    col: 1,
                    message: format!(
                        "kind `{}` declares handler file `{h}`, which is not in the workspace",
                        d.name
                    ),
                }),
                Some(hfi) => {
                    if !handled.contains(&(hfi, d.name.clone())) {
                        out.push(Finding {
                            check: "msg-flow",
                            path: decl_path.clone(),
                            line: decl.line,
                            col: 1,
                            message: format!(
                                "kind `{}` is declared handled in `{h}` but no match arm, \
                                 guard, or kind comparison references it there — dropped \
                                 handler or stale declaration",
                                d.name
                            ),
                        });
                    }
                }
            }
        }
        if !sent.contains(&d.name) {
            out.push(finding(
                "msg-flow",
                f,
                t,
                format!(
                    "kind `{}` is handled but never sent: no non-test \
                     send/broadcast/put/put_wire call or `kind:` struct field carries it",
                    d.name
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- check 7

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

// ---------------------------------------------------------------- check 8

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

// ---------------------------------------------------------------- check 9

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
