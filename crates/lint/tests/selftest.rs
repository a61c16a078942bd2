//! The lint lints itself: every check catches a seeded fixture violation,
//! an `allow` suppression with a reason silences it, the suppression
//! meta-audit catches rot, and the real workspace is pinned clean.
//!
//! Fixtures are in-memory strings (lib tests) or written to temp dirs (bin
//! exit-code tests) — never on-disk `.rs` files inside the repo, which the
//! workspace scan itself would flag.

use std::path::{Path, PathBuf};
use std::process::Command;

use graphlab_lint::{run_checks, Workspace, CHECKS};

fn findings_for(files: Vec<(&str, &str)>, active: &[&str]) -> Vec<String> {
    let ws = Workspace::from_memory(files);
    run_checks(&ws, active).iter().map(|f| f.to_string()).collect()
}

fn count_check(fs: &[String], check: &str) -> usize {
    fs.iter().filter(|f| f.contains(&format!("[{check}]"))).count()
}

// ---------------------------------------------------------- check fixtures

const DET_VIOLATIONS: &str = "\
use std::collections::HashMap;\n\
use std::time::Instant;\n\
pub fn f() {\n\
    let m: HashMap<u32, u32> = HashMap::new();\n\
    for (k, v) in &m {\n\
        let _ = (k, v);\n\
    }\n\
    let _ = Instant::now();\n\
}\n";

const DET_IDMAP_VIOLATION: &str = "\
pub struct Engine {\n\
    chain_index: IdMap<(u16, u64), u32>,\n\
}\n\
impl Engine {\n\
    pub fn drain(&mut self, out: &mut Vec<u32>) {\n\
        for (_, slot) in self.chain_index.drain() {\n\
            out.push(slot);\n\
        }\n\
        let local = IdMap::default();\n\
        out.extend(local.values());\n\
    }\n\
}\n";

const DET_IDMAP_CLEAN: &str = "\
pub struct Engine {\n\
    chain_index: IdMap<(u16, u64), u32>,\n\
}\n\
impl Engine {\n\
    pub fn release(&mut self, src: u16, reqid: u64) -> Option<u32> {\n\
        self.chain_index.insert((src, reqid + 1), 7);\n\
        let held = self.chain_index.get(&(src, reqid)).copied();\n\
        self.chain_index.remove(&(src, reqid)).or(held)\n\
    }\n\
}\n";

const RECV_VIOLATION: &str = "\
pub fn pump(rx: std::sync::mpsc::Receiver<u32>) {\n\
    let _ = rx.recv();\n\
}\n";

const MSGS_WITH_CODEC: &str = "\
pub struct FooMsg { pub x: u32 }\n\
impl Codec for FooMsg {\n\
    fn encode(&self, _b: &mut Vec<u8>) {}\n\
}\n\
pub struct BarMsg { pub y: u32 }\n\
impl Codec for BarMsg {\n\
    fn encode(&self, _b: &mut Vec<u8>) {}\n\
}\n";

const PROPS_COVER_FOO: &str = "\
mod wire_codec {\n\
    fn roundtrips() { rt(FooMsg { x: 1 }); }\n\
}\n";

// Era-fencing violation: an arm decodes an era-carrying message and acts
// without any fence.
const ERA_VIOLATION: &str = "\
pub fn handle(env: Env) {\n\
    match env.kind {\n\
        K_ROLLBACK => {\n\
            let msg: RollbackMsg = dec(env.payload);\n\
            apply(msg);\n\
        }\n\
        _ => {}\n\
    }\n\
}\n";

// Clean twin: all three accepted fencing shapes — direct era comparison,
// RecoveryTracker fence call, and one-hop delegation into a same-file fn
// that fences.
const ERA_CLEAN: &str = "\
pub fn direct(env: Env, cur: u64) {\n\
    let msg: RollbackMsg = dec(env.payload);\n\
    if msg.era < cur {\n\
        return;\n\
    }\n\
    apply(msg);\n\
}\n\
pub fn fence(env: Env, rec: &mut Tracker) {\n\
    let msg: AdoptPlanMsg = dec(env.payload);\n\
    rec.observe_era(msg.era);\n\
    apply(msg);\n\
}\n\
pub fn dispatch(env: Env) {\n\
    let msg: DownMsg = dec(env.payload);\n\
    on_down(msg);\n\
}\n\
fn on_down(msg: DownMsg) {\n\
    if msg.era != current_era() {\n\
        return;\n\
    }\n\
    act(msg);\n\
}\n";

// Survivor-barrier violations: a direct `num_machines()` quorum compare
// (rule A) and a `let n = ...` alias compare (rule B).
const BARRIER_VIOLATION: &str = "\
impl R {\n\
    fn barrier(&self) -> bool {\n\
        self.acks >= self.num_machines()\n\
    }\n\
    fn barrier2(&self) -> bool {\n\
        let n = self.num_machines();\n\
        self.done == n\n\
    }\n\
}\n";

// Clean twin: quorums count survivors; ranges/sizing uses of the static
// count are fine.
const BARRIER_CLEAN: &str = "\
impl R {\n\
    fn barrier(&self) -> bool {\n\
        self.acks >= self.survivors()\n\
    }\n\
    fn sizing(&self) -> Vec<u64> {\n\
        let n = self.num_machines();\n\
        let mut v = vec![0u64; n];\n\
        for i in 0..n {\n\
            v[i] = i as u64;\n\
        }\n\
        v\n\
    }\n\
}\n";

// Fenced-send violation: a raw `ep.send` outside the Batcher.
const FENCED_VIOLATION: &str = "\
impl B {\n\
    pub fn leak(&mut self, dst: M, k: u16, p: Bytes) {\n\
        self.ep.send(dst, k, p);\n\
    }\n\
}\n";

// Clean twin: the `put`/`put_wire` path, and non-endpoint `.send()`
// receivers (channels) stay out of the pattern.
const FENCED_CLEAN: &str = "\
impl B {\n\
    pub fn ok(&mut self, dst: M, k: u16, p: Bytes) {\n\
        self.put_wire(dst, k, p);\n\
        self.tx.send(p).unwrap();\n\
    }\n\
}\n";

// ----------------------------------------------------- each check catches

#[test]
fn determinism_catches_hash_iteration_and_wall_clock() {
    let fs = findings_for(vec![("crates/net/src/foo.rs", DET_VIOLATIONS)], &["determinism"]);
    assert_eq!(count_check(&fs, "determinism"), 2, "findings: {fs:#?}");
    assert!(fs.iter().any(|f| f.contains("hash")), "hash-order loop: {fs:#?}");
    assert!(fs.iter().any(|f| f.contains("Instant::now")), "wall clock: {fs:#?}");

    // Same code outside the protocol-critical scope is not flagged.
    let out = findings_for(vec![("crates/bench/src/foo.rs", DET_VIOLATIONS)], &["determinism"]);
    assert!(out.is_empty(), "out-of-scope file flagged: {out:#?}");
}

#[test]
fn determinism_treats_the_id_map_alias_as_a_hash_container() {
    let fs = findings_for(
        vec![("crates/core/src/locking.rs", DET_IDMAP_VIOLATION)],
        &["determinism"],
    );
    assert_eq!(count_check(&fs, "determinism"), 2, "findings: {fs:#?}");
    assert!(fs.iter().any(|f| f.contains("chain_index") && f.contains("drain")), "{fs:#?}");
    assert!(fs.iter().any(|f| f.contains("local") && f.contains("values")), "{fs:#?}");

    // Keyed inserts, lookups and removals are what the alias is for.
    let ok =
        findings_for(vec![("crates/core/src/locking.rs", DET_IDMAP_CLEAN)], &["determinism"]);
    assert!(ok.is_empty(), "point lookups flagged: {ok:#?}");
}

#[test]
fn codec_xref_catches_uncovered_impl() {
    let fs = findings_for(
        vec![
            ("crates/core/src/messages.rs", MSGS_WITH_CODEC),
            ("tests/properties.rs", PROPS_COVER_FOO),
        ],
        &["codec-xref"],
    );
    assert_eq!(count_check(&fs, "codec-xref"), 1, "findings: {fs:#?}");
    assert!(fs[0].contains("BarMsg"), "uncovered impl: {fs:#?}");
}

#[test]
fn blocking_recv_catches_untimed_recv() {
    let fs = findings_for(vec![("crates/core/src/driver.rs", RECV_VIOLATION)], &["blocking-recv"]);
    assert_eq!(count_check(&fs, "blocking-recv"), 1, "findings: {fs:#?}");

    // `recv_timeout` is fine.
    let ok = findings_for(
        vec![(
            "crates/core/src/driver.rs",
            "pub fn pump(rx: R) { let _ = rx.recv_timeout(T); }\n",
        )],
        &["blocking-recv"],
    );
    assert!(ok.is_empty(), "recv_timeout flagged: {ok:#?}");
}

#[test]
fn era_fencing_catches_unfenced_decode_and_accepts_all_fence_shapes() {
    let fs = findings_for(vec![("crates/core/src/engine.rs", ERA_VIOLATION)], &["era-fencing"]);
    assert_eq!(count_check(&fs, "era-fencing"), 1, "findings: {fs:#?}");
    assert!(fs[0].contains("RollbackMsg"), "{fs:#?}");

    let clean = findings_for(vec![("crates/core/src/engine.rs", ERA_CLEAN)], &["era-fencing"]);
    assert!(clean.is_empty(), "fenced twin flagged: {clean:#?}");

    // Decodes of non-era types are out of scope entirely.
    let other = "pub fn f(env: Env) { let m: ScheduleMsg = dec(env.payload); use_it(m); }\n";
    let out = findings_for(vec![("crates/core/src/engine.rs", other)], &["era-fencing"]);
    assert!(out.is_empty(), "non-era decode flagged: {out:#?}");
}

#[test]
fn survivor_barrier_catches_direct_and_aliased_compares() {
    let fs = findings_for(
        vec![("crates/core/src/recovery.rs", BARRIER_VIOLATION)],
        &["survivor-barrier"],
    );
    assert_eq!(count_check(&fs, "survivor-barrier"), 2, "findings: {fs:#?}");
    assert!(fs.iter().any(|f| f.contains("num_machines()` —")), "rule A: {fs:#?}");
    assert!(fs.iter().any(|f| f.contains("aliased")), "rule B: {fs:#?}");

    let clean = findings_for(
        vec![("crates/core/src/recovery.rs", BARRIER_CLEAN)],
        &["survivor-barrier"],
    );
    assert!(clean.is_empty(), "survivors()/range twin flagged: {clean:#?}");

    // The same code outside the recovery-bearing files is not in scope.
    let out = findings_for(
        vec![("crates/core/src/driver.rs", BARRIER_VIOLATION)],
        &["survivor-barrier"],
    );
    assert!(out.is_empty(), "out-of-scope file flagged: {out:#?}");
}

#[test]
fn fenced_send_catches_raw_endpoint_send() {
    let fs = findings_for(vec![("crates/net/src/batch.rs", FENCED_VIOLATION)], &["fenced-send"]);
    assert_eq!(count_check(&fs, "fenced-send"), 1, "findings: {fs:#?}");

    let clean = findings_for(vec![("crates/net/src/batch.rs", FENCED_CLEAN)], &["fenced-send"]);
    assert!(clean.is_empty(), "put_wire/channel twin flagged: {clean:#?}");
}

#[test]
fn test_code_is_exempt_from_protocol_checks() {
    let text = format!("#[cfg(test)]\nmod tests {{\n{DET_VIOLATIONS}{RECV_VIOLATION}}}\n");
    let fs = findings_for(
        vec![("crates/net/src/foo.rs", text.as_str())],
        &["determinism", "blocking-recv"],
    );
    assert!(fs.is_empty(), "{fs:#?}");
}

// ------------------------------------------------------------ suppression

#[test]
fn allow_with_reason_suppresses_each_check() {
    let det = "\
use std::time::Instant;\n\
pub fn f() {\n\
    let _ = Instant::now(); // lint: allow(determinism) -- fixture says so\n\
}\n";
    let fs = findings_for(vec![("crates/net/src/foo.rs", det)], &["determinism"]);
    assert!(fs.is_empty(), "suppressed finding survived: {fs:#?}");

    let recv = "\
pub fn pump(rx: R) {\n\
    // lint: allow(blocking-recv) -- fixture says so\n\
    let _ = rx.recv();\n\
}\n";
    let fs = findings_for(vec![("crates/core/src/driver.rs", recv)], &["blocking-recv"]);
    assert!(fs.is_empty(), "preceding-line suppression failed: {fs:#?}");
}

#[test]
fn allow_without_reason_is_itself_a_finding() {
    let det = "\
use std::time::Instant;\n\
pub fn f() {\n\
    let _ = Instant::now(); // lint: allow(determinism)\n\
}\n";
    let fs = findings_for(vec![("crates/net/src/foo.rs", det)], &["determinism"]);
    // The determinism finding is suppressed, but the reasonless allow is
    // flagged by the meta-audit.
    assert_eq!(count_check(&fs, "determinism"), 0, "{fs:#?}");
    assert_eq!(count_check(&fs, "lint-allow"), 1, "{fs:#?}");
    assert!(fs[0].contains("without a reason"), "{fs:#?}");
}

#[test]
fn unknown_check_and_unused_suppression_are_findings() {
    let text = "\
pub fn f() {} // lint: allow(nonsense) -- because\n\
pub fn g() {} // lint: allow(determinism) -- matches nothing\n";
    let fs = findings_for(vec![("crates/net/src/foo.rs", text)], &["determinism"]);
    assert_eq!(count_check(&fs, "lint-allow"), 2, "{fs:#?}");
    assert!(fs.iter().any(|f| f.contains("unknown check")), "{fs:#?}");
    assert!(fs.iter().any(|f| f.contains("unused suppression")), "{fs:#?}");
}

#[test]
fn unused_suppression_not_judged_when_check_inactive() {
    let text = "pub fn g() {} // lint: allow(determinism) -- matches nothing\n";
    let fs = findings_for(vec![("crates/net/src/foo.rs", text)], &["blocking-recv"]);
    assert!(fs.is_empty(), "inactive check judged unused: {fs:#?}");
}

#[test]
fn malformed_directive_is_a_finding() {
    let text = "pub fn f() {} // lint: allot(determinism) -- typo\n";
    let fs = findings_for(vec![("crates/net/src/foo.rs", text)], &["determinism"]);
    assert_eq!(count_check(&fs, "lint-allow"), 1, "{fs:#?}");
    assert!(fs[0].contains("unknown lint directive"), "{fs:#?}");
}

#[test]
fn directive_marker_mid_comment_is_prose_not_a_directive() {
    // Docs that *describe* the syntax (like the lint's own) must not be
    // parsed as directives.
    let text = "// write `lint: allow(determinism) -- why` at the site\npub fn f() {}\n";
    let fs = findings_for(vec![("crates/net/src/foo.rs", text)], CHECKS);
    assert!(fs.is_empty(), "prose parsed as directive: {fs:#?}");
}

// -------------------------------------------------------- bin exit codes

fn fixture_dir(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = std::env::temp_dir()
        .join(format!("graphlab-lint-selftest-{}-{name}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root).unwrap();
    }
    for (rel, text) in files {
        let p = root.join(rel);
        std::fs::create_dir_all(p.parent().unwrap()).unwrap();
        std::fs::write(&p, text).unwrap();
    }
    root
}

fn run_bin(args: &[&str], cwd: Option<&Path>) -> (i32, String) {
    let mut c = Command::new(env!("CARGO_BIN_EXE_graphlab-lint"));
    c.args(args);
    if let Some(d) = cwd {
        c.current_dir(d);
    }
    let out = c.output().expect("spawn graphlab-lint");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `(check, fixture name, fixture files)` for the bin exit-code matrix.
type BinCase = (&'static str, &'static str, &'static [(&'static str, &'static str)]);

#[test]
fn bin_exits_nonzero_on_each_seeded_violation() {
    let cases: &[BinCase] = &[
        ("determinism", "det", &[("crates/net/src/foo.rs", DET_VIOLATIONS)]),
        (
            "codec-xref",
            "codec",
            &[
                ("crates/core/src/messages.rs", MSGS_WITH_CODEC),
                ("tests/properties.rs", PROPS_COVER_FOO),
            ],
        ),
        ("blocking-recv", "recv", &[("crates/core/src/driver.rs", RECV_VIOLATION)]),
        ("era-fencing", "era", &[("crates/core/src/engine.rs", ERA_VIOLATION)]),
        (
            "survivor-barrier",
            "barrier",
            &[("crates/core/src/recovery.rs", BARRIER_VIOLATION)],
        ),
        ("fenced-send", "fenced", &[("crates/net/src/batch.rs", FENCED_VIOLATION)]),
    ];
    for (check, name, files) in cases {
        let dir = fixture_dir(name, files);
        let (code, stdout) =
            run_bin(&[dir.to_str().unwrap(), "--check", check], None);
        assert_eq!(code, 1, "{check}: expected exit 1, stdout:\n{stdout}");
        assert!(stdout.contains(&format!("[{check}]")), "{check}: stdout:\n{stdout}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn bin_exits_zero_on_clean_fixture_and_two_on_usage_errors() {
    let dir = fixture_dir(
        "clean",
        &[
            ("crates/core/src/recovery.rs", BARRIER_CLEAN),
            ("crates/net/src/batch.rs", FENCED_CLEAN),
        ],
    );
    let (code, _) = run_bin(&[dir.to_str().unwrap()], None);
    assert_eq!(code, 0);
    std::fs::remove_dir_all(&dir).ok();

    let (code, _) = run_bin(&[], None);
    assert_eq!(code, 2, "no args must be a usage error");
    let (code, _) = run_bin(&["--check", "not-a-check", "x"], None);
    assert_eq!(code, 2, "bad check name must be a usage error");
}

// ------------------------------------------------------ the real workspace

/// The pin that gives the CI step its teeth: the repo's own tree passes all
/// six checks, with every surviving suppression carrying a reason.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (code, stdout) = run_bin(&["--workspace"], Some(&root));
    assert_eq!(code, 0, "workspace not lint-clean:\n{stdout}");
}

/// `--json` emits per-check counts in the BENCH_lint schema.
#[test]
fn json_emission_counts_findings_per_check() {
    let dir = fixture_dir(
        "json",
        &[
            ("crates/core/src/recovery.rs", BARRIER_VIOLATION),
            ("crates/net/src/batch.rs", FENCED_VIOLATION),
        ],
    );
    let json = dir.join("out.json");
    let (code, _) = run_bin(
        &[
            dir.to_str().unwrap(),
            "--check",
            "survivor-barrier",
            "--check",
            "fenced-send",
            "--json",
            json.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(code, 1);
    let doc = std::fs::read_to_string(&json).unwrap();
    assert!(doc.contains("\"schema\": \"graphlab-lint-v1\""), "{doc}");
    assert!(doc.contains("\"survivor-barrier\": 2"), "{doc}");
    assert!(doc.contains("\"fenced-send\": 1"), "{doc}");
    assert!(doc.contains("\"total\": 3"), "{doc}");
    std::fs::remove_dir_all(&dir).ok();
}
