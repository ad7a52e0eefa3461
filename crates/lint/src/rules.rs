//! The nine deny-by-default rule families.
//!
//! * **L1** `safety-comment` — every `unsafe` keyword needs an adjacent
//!   `// SAFETY:` (or `/// # Safety` doc section) stating the invariant
//!   being relied on.
//! * **L2** `unsafe-allowlist` — `unsafe` may only appear in the small
//!   allowlisted set of files that *are* the unsafe boundary (the exec
//!   layer's job pointer). Anywhere else it is a finding, no matter how
//!   well commented.
//! * **L3** `determinism` — result-bearing crates must not reach for
//!   constructs that can perturb bit-identity or smuggle wall-clock /
//!   scheduling dependence into results: `HashMap`/`HashSet` (iteration
//!   order), `Instant` (wall clock), `Mutex`/`Condvar`/`RwLock` and
//!   `thread::spawn`/`thread::scope` (ad-hoc threading outside the
//!   deterministic exec layer), and `Ordering::Relaxed` (unsynchronised
//!   result flow). The exec layer itself, test code, and the bench/lint
//!   crates are out of scope — they are not result-bearing.
//! * **L4** `allow-hygiene` — module-scope `#![allow(...)]` is rejected
//!   outright; per-item `#[allow(...)]` must carry a justification
//!   comment (same line or immediately above the attribute stack).
//! * **L5** `float-cast` — result-bearing code must not write a
//!   float→int `as` cast in expression position (`(6.0 * n) as usize`,
//!   `x.ceil() as usize`, `1.5 as i32`): NaN truncates to zero and
//!   out-of-range values saturate, both silently. The sanctioned form —
//!   bind the float to a named local and pin its domain with a
//!   `debug_assert!` before converting (see `gap_slots` in
//!   `crates/particles/src/gpma.rs`) — is invisible to the rule by
//!   design: the named local *is* the escape hatch.
//! * **L6** `must-use-stats` — public structs named `*Stats` /
//!   `*Counters` must carry `#[must_use]`: they are the receipts of the
//!   emulated cost model, and dropping one on the floor silently
//!   discards work that was charged for.
//! * **L7** `raw-sync` — raw `std` synchronization primitives
//!   (`std::sync::atomic`, `Condvar`, thread parking) are confined to
//!   the sync facade (`machine/sync.rs`) and the model checker's
//!   scheduler (`check/sched.rs`). Everywhere else synchronization must go
//!   through the `SyncPrims` facade, so the model checker actually
//!   exercises the protocol production runs — a raw primitive on the
//!   side is a blind spot the checker cannot see.
//! * **L8** `ordering-justify` — every explicit memory-ordering
//!   selection (`Ordering::...`) in the files that are allowed atomics
//!   must carry an adjacent comment (same line or immediately above,
//!   L1-style adjacency) justifying why that ordering suffices. Test
//!   regions are *not* exempt: a copy-pasted `Relaxed` in a test is how
//!   unjustified orderings leak back into production code.
//! * **L9** `vector-width` — lane widths have exactly one source of
//!   truth: `crates/machine/src/vect.rs`. A lane-width-named constant
//!   (`W`, `VLANES`, `LANES`, `LANE_WIDTH`, `SIMD_WIDTH`) initialised
//!   from a *numeric literal* anywhere else drifts silently when the
//!   emulated VPU width changes — derive it (`= crate::vect::W`)
//!   instead, which the rule deliberately cannot see. Raw
//!   `std::arch`/`core::arch` reaches outside the vect module are
//!   denied for the same reason: platform intrinsics hard-code a width
//!   the portable wrappers abstract. Test regions are *not* exempt — a
//!   hard-coded `8` in a test is exactly how width assumptions fossilise.
//!
//! All rules run on the lexed token stream from [`crate::lexer`], so
//! string literals and comments can never produce false positives, and
//! comment *adjacency* (which L1 and L4 are about) is exact.

use crate::lexer::{lex, TokKind, Token};

/// One rule violation, reported as `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Stable rule id (`L1-safety-comment`, ...).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Files allowed to contain `unsafe` at all (rule L2). This is the
/// workspace's entire unsafe surface; growing it is a reviewed decision,
/// not a local convenience.
const UNSAFE_ALLOWLIST: &[&str] = &["crates/machine/src/exec.rs"];

/// The deterministic execution layer: the one place thread primitives
/// are legitimate (the worker pool's parking, the per-worker share
/// locks, and the sync facade that wraps the primitives), so rule L3
/// does not apply inside it.
const EXEC_LAYER: &[&str] = &["crates/machine/src/exec.rs", "crates/machine/src/sync.rs"];

/// Crates whose outputs feed simulation results and therefore fall
/// under the bit-identity determinism contract (rule L3). The bench and
/// lint crates are deliberately absent: wall-clock reads and ad-hoc
/// threads are their job.
const RESULT_BEARING_PREFIXES: &[&str] = &[
    "src/",
    "crates/machine/",
    "crates/grid/",
    "crates/particles/",
    "crates/deposit/",
    "crates/solver/",
    "crates/push/",
    "crates/core/",
];

/// Files allowed to touch raw `std` synchronization primitives (rule
/// L7): the production sync facade and the model checker's scheduler —
/// which *implements* the instrumented shims and must use real
/// primitives to do so. Everywhere else, synchronization goes through
/// the `SyncPrims` facade so the model checker sees it.
const RAW_SYNC_ALLOWLIST: &[&str] = &["crates/machine/src/sync.rs", "crates/check/src/sched.rs"];

/// Files under the ordering-justification contract (rule L8): exactly
/// the first-party files that use atomics at all. Every `Ordering::`
/// selection there needs an adjacent justification comment.
const ORDERING_JUSTIFY_FILES: &[&str] =
    &["crates/machine/src/sync.rs", "crates/machine/src/exec.rs"];

/// Thread-parking identifiers denied by rule L7 when path- or
/// method-qualified (`thread::park`, `handle.unpark()`).
const PARK_FNS: &[&str] = &["park", "park_timeout", "unpark"];

/// The one file allowed to define lane-width literals and touch
/// `std::arch`/`core::arch` (rule L9): the portable lane-pack module
/// that *is* the workspace's single source of vector width.
const VECT_MODULE: &[&str] = &["crates/machine/src/vect.rs"];

/// Constant names that denote a vector lane width (rule L9). Defining
/// one of these from a numeric literal outside the vect module forks
/// the width; deriving it (`= crate::vect::W`) is the sanctioned form.
const LANE_WIDTH_NAMES: &[&str] = &["W", "VLANES", "LANES", "LANE_WIDTH", "SIMD_WIDTH"];

/// Type names reserved for the vect module's lane-pack vocabulary (rule
/// L9): defining a shadow `Lanes` elsewhere forks the unfused per-lane
/// arithmetic contract the conformance suite pins on the real one.
const LANE_TYPE_NAMES: &[&str] = &["Lanes"];

/// A justification comment for rule L8 must actually talk about memory
/// ordering — any of these (case-insensitive) counts.
const ORDERING_WORDS: &[&str] = &[
    "ordering", "relaxed", "acquire", "release", "seqcst", "acqrel",
];

/// Integer target types of an `as` cast (rule L5).
const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Methods whose receiver/result is unambiguously floating-point, so a
/// call directly cast to an integer is a float→int crossing (rule L5).
/// Deliberately excludes `abs`/`min`/`max`/`clamp`, which are just as
/// common on integers.
const FLOAT_FNS: &[&str] = &[
    "floor",
    "ceil",
    "round",
    "trunc",
    "fract",
    "sqrt",
    "cbrt",
    "powf",
    "powi",
    "exp",
    "exp2",
    "ln",
    "log2",
    "log10",
    "hypot",
    "recip",
    "mul_add",
    "to_radians",
    "to_degrees",
];

/// Where a file sits in the workspace's trust taxonomy; drives which
/// rules apply.
#[derive(Debug, Clone, Copy)]
pub struct FileScope {
    /// May contain `unsafe` (rule L2 allowlist).
    pub unsafe_allowed: bool,
    /// Part of the exec layer (rule L3 exempt).
    pub exec_layer: bool,
    /// Feeds simulation results (rule L3 applies).
    pub result_bearing: bool,
    /// Integration test / example / bench harness file.
    pub test_file: bool,
    /// May touch raw `std` sync primitives (rule L7 allowlist).
    pub raw_sync_allowed: bool,
    /// Under the ordering-justification contract (rule L8).
    pub ordering_justify: bool,
    /// May define lane-width literals and use `std::arch`/`core::arch`
    /// (rule L9 allowlist — the vect module itself).
    pub lane_source: bool,
}

impl FileScope {
    /// Classifies a workspace-relative path (`/`-separated).
    pub fn classify(rel: &str) -> FileScope {
        FileScope {
            unsafe_allowed: UNSAFE_ALLOWLIST.contains(&rel),
            exec_layer: EXEC_LAYER.contains(&rel),
            result_bearing: RESULT_BEARING_PREFIXES.iter().any(|p| rel.starts_with(p)),
            test_file: rel.starts_with("tests/")
                || rel.starts_with("examples/")
                || rel.contains("/tests/")
                || rel.contains("/examples/")
                || rel.contains("/benches/"),
            raw_sync_allowed: RAW_SYNC_ALLOWLIST.contains(&rel),
            ordering_justify: ORDERING_JUSTIFY_FILES.contains(&rel),
            lane_source: VECT_MODULE.contains(&rel),
        }
    }
}

/// Lints one file; `rel` is its workspace-relative path.
pub fn lint_file(rel: &str, src: &str) -> Vec<Finding> {
    let scope = FileScope::classify(rel);
    let toks = lex(src);
    let lines: Vec<&str> = src.lines().collect();
    let regions = test_regions(&toks);
    // Non-comment tokens, for adjacency patterns like `Ordering::Relaxed`.
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect();

    let mut out = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Finding {
            file: rel.to_string(),
            line,
            rule,
            message,
        });
    };

    for (ci, &ti) in code.iter().enumerate() {
        let t = &toks[ti];
        let nxt = |k: usize| code.get(ci + k).map(|&j| &toks[j]);
        let punct = |tok: Option<&Token>, c: &str| {
            tok.is_some_and(|t| t.kind == TokKind::Punct && t.text == c)
        };
        let ident = |tok: Option<&Token>, names: &[&str]| {
            tok.is_some_and(|t| t.kind == TokKind::Ident && names.contains(&t.text.as_str()))
        };

        // L1 + L2: every `unsafe` keyword in the file.
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            if !scope.unsafe_allowed {
                push(
                    t.line,
                    "L2-unsafe-allowlist",
                    format!(
                        "`unsafe` is confined to the audited boundary files \
                         ({}); refactor through their checked APIs instead",
                        UNSAFE_ALLOWLIST.join(", ")
                    ),
                );
            }
            if !has_safety_comment(&toks, ti, &lines) {
                push(
                    t.line,
                    "L1-safety-comment",
                    "`unsafe` without an adjacent `// SAFETY:` comment \
                     stating the invariant it relies on"
                        .to_string(),
                );
            }
        }

        // L3: determinism lints in result-bearing, non-exec, non-test code.
        if scope.result_bearing
            && !scope.exec_layer
            && !scope.test_file
            && !in_test_region(&regions, ti)
            && t.kind == TokKind::Ident
        {
            match t.text.as_str() {
                "HashMap" | "HashSet" => push(
                    t.line,
                    "L3-determinism",
                    format!(
                        "{} has nondeterministic iteration order; use a Vec, \
                         sorted keys, or BTreeMap/BTreeSet",
                        t.text
                    ),
                ),
                "Instant" => push(
                    t.line,
                    "L3-determinism",
                    "wall-clock reads (`Instant`) must not influence \
                     result-bearing code; timing belongs in crates/bench"
                        .to_string(),
                ),
                "Mutex" | "Condvar" | "RwLock" => push(
                    t.line,
                    "L3-determinism",
                    format!(
                        "{} introduces scheduling-dependent behaviour; go \
                         through the deterministic exec layer instead",
                        t.text
                    ),
                ),
                "thread"
                    if punct(nxt(1), ":")
                        && punct(nxt(2), ":")
                        && ident(nxt(3), &["spawn", "scope"]) =>
                {
                    push(
                        t.line,
                        "L3-determinism",
                        "ad-hoc thread spawning bypasses the deterministic \
                         worker pool; use machine::exec"
                            .to_string(),
                    )
                }
                "Ordering"
                    if punct(nxt(1), ":") && punct(nxt(2), ":") && ident(nxt(3), &["Relaxed"]) =>
                {
                    push(
                        t.line,
                        "L3-determinism",
                        "`Ordering::Relaxed` on a result-carrying atomic \
                         cannot order result flow; results cross threads \
                         only through the exec layer's dispatch barrier"
                            .to_string(),
                    )
                }
                _ => {}
            }
        }

        // L7: raw std sync primitives outside the facade allowlist.
        // Test harness files and embedded test regions are exempt (the
        // production protocol is what the checker must see through the
        // facade; tests may scaffold freely).
        if !scope.raw_sync_allowed
            && !scope.test_file
            && !in_test_region(&regions, ti)
            && t.kind == TokKind::Ident
        {
            let prev_punct = |c: &str| {
                ci.checked_sub(1).is_some_and(|p| {
                    toks[code[p]].kind == TokKind::Punct && toks[code[p]].text == c
                })
            };
            let raw = if t.text == "Condvar" {
                Some("`Condvar`")
            } else if t.text == "sync"
                && punct(nxt(1), ":")
                && punct(nxt(2), ":")
                && ident(nxt(3), &["atomic"])
            {
                Some("`sync::atomic`")
            } else if PARK_FNS.contains(&t.text.as_str()) && (prev_punct(":") || prev_punct(".")) {
                Some("thread parking")
            } else {
                None
            };
            if let Some(what) = raw {
                push(
                    t.line,
                    "L7-raw-sync",
                    format!(
                        "raw {what} outside the sync facade ({}); go through \
                         machine::sync::SyncPrims so the model checker can \
                         see this synchronization",
                        RAW_SYNC_ALLOWLIST.join(", ")
                    ),
                );
            }
        }

        // L8: every explicit `Ordering::` selection in the atomic-using
        // files needs an adjacent justification comment. Test regions
        // are deliberately NOT exempt.
        if scope.ordering_justify
            && t.kind == TokKind::Ident
            && t.text == "Ordering"
            && punct(nxt(1), ":")
            && punct(nxt(2), ":")
            && !has_ordering_comment(&toks, ti, &lines)
        {
            push(
                t.line,
                "L8-ordering-justify",
                "`Ordering::` selection without an adjacent comment (same \
                 line or immediately above) justifying why this memory \
                 ordering suffices"
                    .to_string(),
            );
        }

        // L5: float→int `as` casts in expression position, in
        // result-bearing, non-exec, non-test code.
        if scope.result_bearing
            && !scope.exec_layer
            && !scope.test_file
            && !in_test_region(&regions, ti)
            && t.kind == TokKind::Ident
            && t.text == "as"
            && ident(nxt(1), INT_TYPES)
            && cast_source_is_float(&toks, &code, ci)
        {
            push(
                t.line,
                "L5-float-cast",
                "float→int `as` cast in expression position: NaN \
                 truncates to 0 and out-of-range saturates, silently; \
                 bind to a named local and pin its domain with a \
                 `debug_assert!` first (see `gap_slots` in \
                 crates/particles/src/gpma.rs)"
                    .to_string(),
            );
        }

        // L6: public stats/counters structs must be #[must_use].
        if !scope.test_file
            && !in_test_region(&regions, ti)
            && t.kind == TokKind::Ident
            && t.text == "pub"
            && ident(nxt(1), &["struct"])
        {
            if let Some(name_tok) = nxt(2) {
                let name = name_tok.text.clone();
                if (name.ends_with("Stats") || name.ends_with("Counters"))
                    && !attr_stack_has_must_use(&toks, &code, ci)
                {
                    push(
                        name_tok.line,
                        "L6-must-use-stats",
                        format!(
                            "public stats struct `{name}` must carry \
                             `#[must_use]`: dropping it silently discards \
                             counters the cost model charged for"
                        ),
                    );
                }
            }
        }

        // L4: allow-attribute hygiene (test harness files exempt).
        if t.kind == TokKind::Punct && t.text == "#" && !scope.test_file {
            if punct(nxt(1), "!") && punct(nxt(2), "[") && ident(nxt(3), &["allow"]) {
                push(
                    t.line,
                    "L4-allow-hygiene",
                    "blanket module-scope `#![allow(...)]` hides every \
                     future violation; use per-item allows with a \
                     justification comment"
                        .to_string(),
                );
            } else if punct(nxt(1), "[")
                && ident(nxt(2), &["allow"])
                && !allow_is_justified(&toks, ti, &lines)
            {
                push(
                    t.line,
                    "L4-allow-hygiene",
                    "`#[allow(...)]` without a justification comment (same \
                     line or immediately above the attribute stack)"
                        .to_string(),
                );
            }
        }

        // L9: vector-width hygiene. Lane widths have one source of
        // truth (the vect module); test regions are deliberately NOT
        // exempt — a hard-coded width in a test fossilises the
        // assumption the portable wrappers exist to prevent.
        if !scope.lane_source && t.kind == TokKind::Ident {
            if t.text == "const"
                && nxt(1).is_some_and(|n| {
                    n.kind == TokKind::Ident && LANE_WIDTH_NAMES.contains(&n.text.as_str())
                })
            {
                // Scan past the type annotation to the initialiser; a
                // numeric-literal RHS is the fork L9 denies, while a
                // derived RHS (`= crate::vect::W`) is invisible to the
                // rule by design. Generic `const W: usize` parameters
                // terminate at `>`/`,` and carry no `=` Num either.
                let mut k = 2;
                while k < 12 {
                    match nxt(k) {
                        Some(p) if p.kind == TokKind::Punct && p.text == "=" => break,
                        Some(p)
                            if p.kind == TokKind::Punct
                                && matches!(p.text.as_str(), ";" | "}" | ">" | ",") =>
                        {
                            k = 12;
                        }
                        Some(_) => k += 1,
                        None => k = 12,
                    }
                }
                if k < 12
                    && punct(nxt(k), "=")
                    && nxt(k + 1).is_some_and(|n| n.kind == TokKind::Num)
                {
                    push(
                        t.line,
                        "L9-vector-width",
                        format!(
                            "lane-width constant `{}` hard-codes a numeric \
                             width; derive it from the vect module \
                             (`crate::vect::W` / `mpic_machine::vect::W`) so \
                             the workspace has one lane-width source of truth",
                            nxt(1).map_or(String::new(), |n| n.text.clone())
                        ),
                    );
                }
            }
            if (t.text == "std" || t.text == "core")
                && punct(nxt(1), ":")
                && punct(nxt(2), ":")
                && ident(nxt(3), &["arch"])
            {
                push(
                    t.line,
                    "L9-vector-width",
                    format!(
                        "raw `{}::arch` intrinsics outside the vect module \
                         ({}) hard-code a platform vector width; use the \
                         portable lane-pack wrappers instead",
                        t.text,
                        VECT_MODULE.join(", ")
                    ),
                );
            }
            if matches!(t.text.as_str(), "struct" | "enum" | "type")
                && ident(nxt(1), LANE_TYPE_NAMES)
            {
                push(
                    t.line,
                    "L9-vector-width",
                    format!(
                        "defining `{}` outside the vect module ({}) shadows \
                         the lane-pack type whose masked-tail contract the \
                         conformance suite pins; import it from \
                         `mpic_machine` instead",
                        nxt(1).map_or(String::new(), |n| n.text.clone()),
                        VECT_MODULE.join(", ")
                    ),
                );
            }
        }
    }
    out
}

fn mentions_safety(text: &str) -> bool {
    text.contains("SAFETY") || text.contains("Safety")
}

/// L1 adjacency: a comment mentioning SAFETY on the same line, or an
/// unbroken run of comment/attribute/blank lines directly above that
/// contains one. The scan stops at the first code line — a SAFETY
/// comment elsewhere in the function does not cover this site.
fn has_safety_comment(toks: &[Token], ti: usize, lines: &[&str]) -> bool {
    let line = toks[ti].line;
    if toks
        .iter()
        .any(|t| t.is_comment() && t.line == line && mentions_safety(&t.text))
    {
        return true;
    }
    for ln in (1..line).rev().take(40) {
        let s = lines.get(ln - 1).map_or("", |l| l.trim_start());
        if s.is_empty() || s.starts_with("#[") || s.starts_with("#!") {
            continue;
        }
        if s.starts_with("//") || s.starts_with("/*") || s.starts_with('*') {
            if mentions_safety(s) {
                return true;
            }
            continue;
        }
        return false;
    }
    false
}

fn mentions_ordering(text: &str) -> bool {
    let lower = text.to_lowercase();
    ORDERING_WORDS.iter().any(|w| lower.contains(w))
}

/// L8 adjacency: a comment mentioning memory-ordering vocabulary on the
/// same line as the `Ordering::` selection, or in the unbroken run of
/// comment/attribute/blank lines directly above it. Same discipline as
/// the L1 SAFETY scan: a justification elsewhere in the function does
/// not cover this site.
fn has_ordering_comment(toks: &[Token], ti: usize, lines: &[&str]) -> bool {
    let line = toks[ti].line;
    if toks
        .iter()
        .any(|t| t.is_comment() && t.line == line && mentions_ordering(&t.text))
    {
        return true;
    }
    for ln in (1..line).rev().take(40) {
        let s = lines.get(ln - 1).map_or("", |l| l.trim_start());
        if s.is_empty() || s.starts_with("#[") || s.starts_with("#!") {
            continue;
        }
        if s.starts_with("//") || s.starts_with("/*") || s.starts_with('*') {
            if mentions_ordering(s) {
                return true;
            }
            continue;
        }
        return false;
    }
    false
}

/// L4 justification: any comment on the attribute's line, or the first
/// non-blank, non-attribute line above it is a comment.
fn allow_is_justified(toks: &[Token], ti: usize, lines: &[&str]) -> bool {
    let line = toks[ti].line;
    if toks.iter().any(|t| t.is_comment() && t.line == line) {
        return true;
    }
    for ln in (1..line).rev().take(40) {
        let s = lines.get(ln - 1).map_or("", |l| l.trim_start());
        if s.is_empty() || s.starts_with("#[") || s.starts_with("#!") {
            continue;
        }
        return s.starts_with("//") || s.starts_with("/*") || s.starts_with('*');
    }
    false
}

/// A numeric literal that is floating-point: has a fractional part, an
/// `f32`/`f64` suffix, or a decimal exponent (`1e9`; hex/binary/octal
/// digits can contain `e` but carry a base prefix).
fn is_float_literal(text: &str) -> bool {
    text.contains('.')
        || text.ends_with("f32")
        || text.ends_with("f64")
        || (!text.starts_with("0x")
            && !text.starts_with("0b")
            && !text.starts_with("0o")
            && (text.contains('e') || text.contains('E')))
}

/// L5 source detection for the `as` at code-position `ci`: is the
/// expression being cast evidently floating-point? True for a float
/// literal directly cast, a parenthesized expression containing a float
/// literal or an `f32`/`f64` ident, and a `.float_method(...)` call
/// directly cast. A named local cast (`slots as usize`) is deliberately
/// invisible — that is the sanctioned, debug_assert-pinned form.
fn cast_source_is_float(toks: &[Token], code: &[usize], ci: usize) -> bool {
    let tok = |k: usize| &toks[code[k]];
    let Some(pi) = ci.checked_sub(1) else {
        return false;
    };
    let prev = tok(pi);
    if prev.kind == TokKind::Num {
        return is_float_literal(&prev.text);
    }
    if prev.kind != TokKind::Punct || prev.text != ")" {
        return false;
    }
    // Scan back to the matching `(`.
    let mut depth = 1usize;
    let mut j = pi;
    while depth > 0 {
        let Some(k) = j.checked_sub(1) else {
            return false;
        };
        j = k;
        let t = tok(j);
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ")" => depth += 1,
                "(" => depth -= 1,
                _ => {}
            }
        }
    }
    // Float evidence inside the parentheses.
    for k in j + 1..pi {
        let t = tok(k);
        let float_num = t.kind == TokKind::Num && is_float_literal(&t.text);
        let float_ty = t.kind == TokKind::Ident && (t.text == "f32" || t.text == "f64");
        if float_num || float_ty {
            return true;
        }
    }
    // `.float_method(...)` directly cast.
    if let (Some(m), Some(d)) = (j.checked_sub(1), j.checked_sub(2)) {
        let method = tok(m);
        let dot = tok(d);
        if method.kind == TokKind::Ident
            && FLOAT_FNS.contains(&method.text.as_str())
            && dot.kind == TokKind::Punct
            && dot.text == "."
        {
            return true;
        }
    }
    false
}

/// L6: walks the attribute stack immediately above the `pub` at
/// code-position `ci`, looking for a `must_use` identifier in any
/// `#[...]` group (doc comments are not code tokens and are skipped
/// implicitly).
fn attr_stack_has_must_use(toks: &[Token], code: &[usize], ci: usize) -> bool {
    let tok = |k: usize| &toks[code[k]];
    let mut j = ci;
    loop {
        let Some(close) = j.checked_sub(1) else {
            return false;
        };
        let t = tok(close);
        if t.kind != TokKind::Punct || t.text != "]" {
            return false;
        }
        let mut depth = 1usize;
        let mut k = close;
        let mut found = false;
        while depth > 0 {
            let Some(p) = k.checked_sub(1) else {
                return false;
            };
            k = p;
            let t = tok(k);
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "]" => depth += 1,
                    "[" => depth -= 1,
                    _ => {}
                }
            } else if t.kind == TokKind::Ident && t.text == "must_use" {
                found = true;
            }
        }
        if found {
            return true;
        }
        // Step over the `#` introducing this attribute and keep walking
        // up the stack.
        let Some(hash) = k.checked_sub(1) else {
            return false;
        };
        if tok(hash).kind != TokKind::Punct || tok(hash).text != "#" {
            return false;
        }
        j = hash;
    }
}

/// Token-index ranges (inclusive) covered by `#[test]` functions and
/// `#[cfg(test)]` items, so rule L3 can exempt unit-test code embedded
/// in src files.
fn test_regions(toks: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect();
    let is_punct = |k: usize, c: &str| {
        code.get(k)
            .is_some_and(|&j| toks[j].kind == TokKind::Punct && toks[j].text == c)
    };
    let is_attr_start = |k: usize| is_punct(k, "#") && is_punct(k + 1, "[");

    let mut regions = Vec::new();
    let mut ci = 0usize;
    while ci < code.len() {
        if !is_attr_start(ci) {
            ci += 1;
            continue;
        }
        let (idents, attr_end) = parse_attr(toks, &code, ci);
        if !is_test_attr(&idents) {
            ci = attr_end + 1;
            continue;
        }
        let start_orig = code[ci];
        // Skip the rest of the item's attribute stack.
        let mut k = attr_end + 1;
        while k < code.len() && is_attr_start(k) {
            let (_, e) = parse_attr(toks, &code, k);
            k = e + 1;
        }
        // Consume the item: through its brace-balanced body, or to the
        // terminating `;` for brace-free items (e.g. a cfg'd `use`).
        let mut depth = 0usize;
        let mut end_orig = code.last().copied().unwrap_or(start_orig);
        while k < code.len() {
            let tk = &toks[code[k]];
            if tk.kind == TokKind::Punct {
                match tk.text.as_str() {
                    "{" => depth += 1,
                    "}" if depth > 0 => {
                        depth -= 1;
                        if depth == 0 {
                            end_orig = code[k];
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        end_orig = code[k];
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        regions.push((start_orig, end_orig));
        ci = k + 1;
    }
    regions
}

/// Parses the attribute whose `#` sits at code-position `ci`; returns
/// the identifiers inside it and the code-position of its closing `]`.
fn parse_attr(toks: &[Token], code: &[usize], ci: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut k = ci;
    while k < code.len() {
        let t = &toks[code[k]];
        if t.kind == TokKind::Punct && t.text == "[" {
            depth += 1;
        } else if t.kind == TokKind::Punct && t.text == "]" {
            depth -= 1;
            if depth == 0 {
                return (idents, k);
            }
        } else if t.kind == TokKind::Ident && depth > 0 {
            idents.push(t.text.clone());
        }
        k += 1;
    }
    (idents, code.len().saturating_sub(1))
}

/// `#[test]`, or a `#[cfg(...)]` that requires `test` (conservatively:
/// mentions `test`, does not mention `not`).
fn is_test_attr(idents: &[String]) -> bool {
    if idents.len() == 1 && idents[0] == "test" {
        return true;
    }
    idents.first().is_some_and(|f| f == "cfg")
        && idents.iter().any(|i| i == "test")
        && !idents.iter().any(|i| i == "not")
}

fn in_test_region(regions: &[(usize, usize)], ti: usize) -> bool {
    regions.iter().any(|&(s, e)| s <= ti && ti <= e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(rel: &str, src: &str) -> Vec<&'static str> {
        lint_file(rel, src).into_iter().map(|f| f.rule).collect()
    }

    const ALLOWED: &str = "crates/machine/src/exec.rs";
    const ORDINARY: &str = "crates/solver/src/maxwell.rs";

    // ---- L1 ----

    #[test]
    fn l1_undocumented_unsafe_is_a_finding() {
        let src = "fn f(p: *mut u8) { unsafe { *p = 1; } }\n";
        let fired = rules_fired(ALLOWED, src);
        assert!(fired.contains(&"L1-safety-comment"), "{fired:?}");
    }

    #[test]
    fn l1_safety_comment_above_satisfies() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: p is valid per caller contract.\n    unsafe { *p = 1; }\n}\n";
        assert!(rules_fired(ALLOWED, src).is_empty());
    }

    #[test]
    fn l1_trailing_same_line_safety_comment_satisfies() {
        let src = "fn f(p: *mut u8) {\n    unsafe { *p = 1; } // SAFETY: p valid.\n}\n";
        assert!(rules_fired(ALLOWED, src).is_empty());
    }

    #[test]
    fn l1_doc_safety_section_covers_unsafe_fn() {
        let src = "/// Does the thing.\n///\n/// # Safety\n///\n/// `p` must be valid.\n#[allow(unsafe_code)]\npub unsafe fn f(p: *mut u8) {\n    // SAFETY: caller contract, forwarded.\n    unsafe { *p = 1; }\n}\n";
        let fired = rules_fired(ALLOWED, src);
        assert!(!fired.contains(&"L1-safety-comment"), "{fired:?}");
    }

    #[test]
    fn l1_comment_does_not_leak_past_code_lines() {
        let src = "// SAFETY: this comment covers nothing below the let.\nfn f(p: *mut u8) {\n    let x = 1;\n    unsafe { *p = x; }\n}\n";
        let fired = rules_fired(ALLOWED, src);
        assert!(fired.contains(&"L1-safety-comment"), "{fired:?}");
    }

    // ---- L2 ----

    #[test]
    fn l2_unsafe_outside_allowlist_is_a_finding() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: well documented, still not allowed here.\n    unsafe { *p = 1; }\n}\n";
        let fired = rules_fired(ORDINARY, src);
        assert!(fired.contains(&"L2-unsafe-allowlist"), "{fired:?}");
    }

    #[test]
    fn l2_the_word_unsafe_in_strings_and_comments_is_ignored() {
        let src = "// unsafe is discussed here only.\nfn f() -> &'static str { \"unsafe\" }\n";
        assert!(rules_fired(ORDINARY, src).is_empty());
    }

    // ---- L3 ----

    #[test]
    fn l3_hash_collections_are_findings() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m; }\n";
        let fired = rules_fired(ORDINARY, src);
        assert_eq!(fired.iter().filter(|r| **r == "L3-determinism").count(), 3);
    }

    #[test]
    fn l3_instant_and_locks_are_findings() {
        let src = "fn f() { let t = Instant::now(); let m = Mutex::new(0); let r = RwLock::new(0); let c = Condvar::new(); }\n";
        let fired = rules_fired(ORDINARY, src);
        assert_eq!(fired.iter().filter(|r| **r == "L3-determinism").count(), 4);
    }

    #[test]
    fn l3_thread_spawn_and_relaxed_ordering_are_findings() {
        let src =
            "fn f() { let h = thread::spawn(|| 1); let _ = x.fetch_add(1, Ordering::Relaxed); }\n";
        let fired = rules_fired(ORDINARY, src);
        assert_eq!(fired.iter().filter(|r| **r == "L3-determinism").count(), 2);
    }

    #[test]
    fn l3_other_orderings_and_thread_idents_are_fine() {
        let src = "fn f() { let _ = x.load(Ordering::Acquire); let t = thread::current(); }\n";
        assert!(rules_fired(ORDINARY, src).is_empty());
    }

    #[test]
    fn l3_does_not_apply_to_exec_layer_bench_or_test_files() {
        let src = "fn f() { let t = Instant::now(); let m = Mutex::new(0); }\n";
        assert!(rules_fired("crates/machine/src/exec.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/bin/probe_parallel.rs", src).is_empty());
        assert!(rules_fired("tests/parallel_determinism.rs", src).is_empty());
    }

    #[test]
    fn l3_exempts_cfg_test_modules_and_test_fns_in_src_files() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n    #[test]\n    fn t() { let s: HashSet<u32> = HashSet::new(); let _ = s; }\n}\n";
        assert!(rules_fired(ORDINARY, src).is_empty());
        let src2 =
            "#[test]\nfn t() { let i = Instant::now(); }\nfn real() { let i = Instant::now(); }\n";
        let fired = rules_fired(ORDINARY, src2);
        assert_eq!(fired.iter().filter(|r| **r == "L3-determinism").count(), 1);
    }

    #[test]
    fn l3_cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn real() { let i = Instant::now(); }\n";
        let fired = rules_fired(ORDINARY, src);
        assert!(fired.contains(&"L3-determinism"), "{fired:?}");
    }

    // ---- L4 ----

    #[test]
    fn l4_blanket_module_allow_is_a_finding() {
        let src = "#![allow(dead_code)]\nfn f() {}\n";
        let fired = rules_fired(ORDINARY, src);
        assert!(fired.contains(&"L4-allow-hygiene"), "{fired:?}");
    }

    #[test]
    fn l4_bare_item_allow_is_a_finding() {
        let src = "fn g() {}\n#[allow(dead_code)]\nfn f() {}\n";
        let fired = rules_fired(ORDINARY, src);
        assert!(fired.contains(&"L4-allow-hygiene"), "{fired:?}");
    }

    #[test]
    fn l4_justified_allows_pass() {
        let trailing = "#[allow(dead_code)] // kept for the ffi table layout\nfn f() {}\n";
        assert!(rules_fired(ORDINARY, trailing).is_empty());
        let above = "// The extra arm keeps the jump table dense.\n#[allow(dead_code)]\n#[allow(clippy::match_like_matches_macro)]\nfn f() {}\n";
        assert!(rules_fired(ORDINARY, above).is_empty());
    }

    #[test]
    fn l4_deny_attributes_are_not_findings() {
        let src = "// Inner deny is encouraged, not rejected.\n#![deny(unsafe_op_in_unsafe_fn)]\nfn f() {}\n";
        assert!(rules_fired(ORDINARY, src).is_empty());
    }

    #[test]
    fn l4_exempts_test_harness_files() {
        let src = "#![allow(dead_code)]\n#[allow(unused)]\nfn f() {}\n";
        assert!(rules_fired("tests/property_tests.rs", src).is_empty());
    }

    // ---- L5 ----

    #[test]
    fn l5_parenthesized_float_arithmetic_cast_is_a_finding() {
        let src = "fn f(n: f64, m: &mut M) { m.s_ops((6.0 * n) as usize); }\n";
        let fired = rules_fired(ORDINARY, src);
        assert!(fired.contains(&"L5-float-cast"), "{fired:?}");
    }

    #[test]
    fn l5_float_method_call_cast_is_a_finding() {
        let src = "fn f(x: f64) -> usize { x.ceil() as usize }\n";
        let fired = rules_fired(ORDINARY, src);
        assert!(fired.contains(&"L5-float-cast"), "{fired:?}");
        let src2 = "fn g(x: f64) -> i64 { (x * 0.5).floor() as i64 }\n";
        assert!(rules_fired(ORDINARY, src2).contains(&"L5-float-cast"));
    }

    #[test]
    fn l5_float_literal_cast_is_a_finding() {
        let src = "fn f() -> i32 { 1.5 as i32 }\n";
        assert!(rules_fired(ORDINARY, src).contains(&"L5-float-cast"));
    }

    #[test]
    fn l5_named_local_with_domain_pin_is_the_sanctioned_form() {
        let src = "fn gap(count: usize, ratio: f64) -> usize {\n    let slots = (count as f64 * ratio).ceil();\n    debug_assert!(slots.is_finite() && slots >= 0.0);\n    slots as usize\n}\n";
        assert!(rules_fired(ORDINARY, src).is_empty());
    }

    #[test]
    fn l5_integer_casts_are_fine() {
        let src = "fn f(a: u64, b: u64, c: [i64; 3]) -> usize {\n    let x = (a + b) as usize;\n    let y = c[0] as usize;\n    let z = a.count_ones() as usize;\n    let w = ((a as i64 - b as i64).rem_euclid(8)) as usize;\n    x + y + z + w\n}\n";
        assert!(rules_fired(ORDINARY, src).is_empty());
    }

    #[test]
    fn l5_does_not_apply_to_exec_layer_tests_or_bench() {
        let src = "fn f(x: f64) -> usize { x.ceil() as usize }\n";
        assert!(rules_fired("crates/machine/src/exec.rs", src).is_empty());
        assert!(rules_fired("tests/snapshot.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/bin/probe_parallel.rs", src).is_empty());
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn f(x: f64) -> usize { x.ceil() as usize }\n}\n";
        assert!(rules_fired(ORDINARY, in_test).is_empty());
    }

    // ---- L6 ----

    #[test]
    fn l6_stats_struct_without_must_use_is_a_finding() {
        let src = "/// Counts things.\n#[derive(Debug, Clone, Copy, Default)]\npub struct SweepStats {\n    pub n: usize,\n}\n";
        let fired = rules_fired(ORDINARY, src);
        assert!(fired.contains(&"L6-must-use-stats"), "{fired:?}");
        let counters = "#[derive(Debug)]\npub struct PhaseCounters { pub n: usize }\n";
        assert!(rules_fired(ORDINARY, counters).contains(&"L6-must-use-stats"));
    }

    #[test]
    fn l6_must_use_anywhere_in_the_attribute_stack_passes() {
        let above = "/// Doc.\n#[derive(Debug, Clone, Copy, Default)]\n#[must_use]\npub struct SweepStats { pub n: usize }\n";
        assert!(rules_fired(ORDINARY, above).is_empty());
        let below = "#[must_use]\n#[derive(Debug)]\npub struct PhaseCounters { pub n: usize }\n";
        assert!(rules_fired(ORDINARY, below).is_empty());
        let reasoned = "#[must_use = \"receipts\"]\npub struct SweepStats { pub n: usize }\n";
        assert!(rules_fired(ORDINARY, reasoned).is_empty());
    }

    #[test]
    fn l6_ignores_private_structs_other_names_and_test_files() {
        let private = "struct SweepStats { n: usize }\n";
        assert!(rules_fired(ORDINARY, private).is_empty());
        let other = "pub struct SweepReport { pub n: usize }\n";
        assert!(rules_fired(ORDINARY, other).is_empty());
        let test_file = "pub struct SweepStats { pub n: usize }\n";
        assert!(rules_fired("tests/helpers.rs", test_file).is_empty());
    }

    // ---- L7 ----

    #[test]
    fn l7_raw_atomics_outside_the_facade_are_findings() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\nfn f() {}\n";
        let fired = rules_fired("crates/core/src/recovery.rs", src);
        assert!(fired.contains(&"L7-raw-sync"), "{fired:?}");
    }

    #[test]
    fn l7_condvar_and_parking_are_findings() {
        let src = "fn f(c: &Condvar, h: &H) { std::thread::park(); h.unpark(); let _ = c; }\n";
        let fired = rules_fired(ORDINARY, src);
        assert_eq!(fired.iter().filter(|r| **r == "L7-raw-sync").count(), 3);
    }

    #[test]
    fn l7_allowlisted_files_may_use_raw_primitives() {
        let src =
            "use std::sync::atomic::{AtomicU64, Ordering};\nstruct S { cv: std::sync::Condvar }\n";
        for rel in ["crates/machine/src/sync.rs", "crates/check/src/sched.rs"] {
            let fired = rules_fired(rel, src);
            assert!(!fired.contains(&"L7-raw-sync"), "{rel}: {fired:?}");
        }
    }

    #[test]
    fn l7_primitive_names_in_strings_and_comments_are_ignored() {
        let src = "// Condvar and std::sync::atomic and park() discussed here.\nfn f() -> &'static str { \"std::sync::atomic::Condvar park unpark\" }\n";
        assert!(rules_fired("crates/lint/src/other.rs", src).is_empty());
    }

    #[test]
    fn l7_unqualified_park_identifiers_are_not_findings() {
        // A local fn named `park` (no `::`/`.` qualifier) is not thread
        // parking; only qualified calls are.
        let src = "fn park(x: u32) -> u32 { x }\nfn f() -> u32 { park(3) }\n";
        assert!(rules_fired("crates/lint/src/other.rs", src).is_empty());
    }

    #[test]
    fn l7_exempts_test_files_and_test_regions() {
        let src = "use std::sync::atomic::AtomicU64;\nfn f(c: &Condvar) { let _ = c; }\n";
        assert!(!rules_fired("tests/helpers.rs", src).contains(&"L7-raw-sync"));
        let in_test = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n}\n";
        assert!(rules_fired("crates/check/src/lib.rs", in_test).is_empty());
    }

    // ---- L8 ----

    const SYNC_FACADE: &str = "crates/machine/src/sync.rs";

    #[test]
    fn l8_bare_ordering_selection_is_a_finding() {
        let src = "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
        let fired = rules_fired(SYNC_FACADE, src);
        assert!(fired.contains(&"L8-ordering-justify"), "{fired:?}");
    }

    #[test]
    fn l8_justified_orderings_pass() {
        let same_line =
            "fn f(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed) // Relaxed: debug counter, barrier orders reads\n}\n";
        assert!(rules_fired(SYNC_FACADE, same_line).is_empty());
        let above = "fn f(c: &AtomicU64) -> u64 {\n    // Acquire pairs with the Release store in `publish`.\n    c.load(Ordering::Acquire)\n}\n";
        assert!(rules_fired(SYNC_FACADE, above).is_empty());
    }

    #[test]
    fn l8_comment_must_talk_about_memory_ordering() {
        let src = "fn f(c: &AtomicU64) -> u64 {\n    // bump the counter\n    c.load(Ordering::Relaxed)\n}\n";
        let fired = rules_fired(SYNC_FACADE, src);
        assert!(fired.contains(&"L8-ordering-justify"), "{fired:?}");
    }

    #[test]
    fn l8_applies_inside_test_regions() {
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n}\n";
        let fired = rules_fired("crates/machine/src/exec.rs", in_test);
        assert!(fired.contains(&"L8-ordering-justify"), "{fired:?}");
    }

    #[test]
    fn l8_only_covers_the_atomic_using_files() {
        // SeqCst so rule L3 stays quiet: this checks L8 scope alone.
        let src = "fn f(c: &AtomicU64) -> u64 { c.load(Ordering::SeqCst) }\n";
        assert!(!rules_fired("crates/core/src/recovery.rs", src).contains(&"L8-ordering-justify"));
    }

    // ---- scope classification ----

    #[test]
    fn l9_hardcoded_lane_width_const_is_a_finding() {
        for name in ["W", "VLANES", "LANES", "LANE_WIDTH", "SIMD_WIDTH"] {
            let src = format!("pub const {name}: usize = 8;\n");
            let fired = rules_fired(ORDINARY, &src);
            assert!(fired.contains(&"L9-vector-width"), "{name}: {fired:?}");
        }
    }

    #[test]
    fn l9_derived_lane_width_is_sanctioned() {
        let src = "pub const VLANES: usize = crate::vect::W;\n";
        assert!(rules_fired("crates/machine/src/vreg.rs", src).is_empty());
        assert!(rules_fired(ORDINARY, src).is_empty());
    }

    #[test]
    fn l9_vect_module_may_define_the_width() {
        let src = "pub const W: usize = 8;\n";
        assert!(rules_fired("crates/machine/src/vect.rs", src).is_empty());
    }

    #[test]
    fn l9_other_consts_and_generic_width_params_are_fine() {
        let src = "pub const MAX_NODES: usize = 64;\nfn f<const W: usize>() {}\n";
        assert!(rules_fired(ORDINARY, src).is_empty());
    }

    #[test]
    fn l9_arch_intrinsics_outside_vect_are_findings() {
        let src = "use std::arch::x86_64::_mm512_add_pd;\nfn f() { core::arch::asm!(\"nop\"); }\n";
        let fired = rules_fired(ORDINARY, src);
        assert_eq!(
            fired.iter().filter(|r| **r == "L9-vector-width").count(),
            2,
            "{fired:?}"
        );
        assert!(rules_fired("crates/machine/src/vect.rs", src).is_empty());
    }

    #[test]
    fn l9_shadow_lane_pack_types_outside_vect_are_findings() {
        for src in [
            "pub struct Lanes(pub [f64; 8]);\n",
            "type Lanes = [f64; 8];\n",
        ] {
            let fired = rules_fired(ORDINARY, src);
            assert!(fired.contains(&"L9-vector-width"), "{src}: {fired:?}");
        }
        let defining = "pub struct Lanes(pub [f64; W]);\n";
        assert!(rules_fired("crates/machine/src/vect.rs", defining).is_empty());
    }

    #[test]
    fn l9_lane_pack_uses_and_lookalike_names_are_fine() {
        let src = "use mpic_machine::Lanes;\n\
                   fn f(a: Lanes) -> Lanes { a.mul_acc(a, a) }\n\
                   struct LanesFoo;\n";
        assert!(rules_fired(ORDINARY, src).is_empty());
    }

    #[test]
    fn l9_applies_inside_test_regions_too() {
        let src = "#[cfg(test)]\nmod tests {\n    const LANES: usize = 4;\n}\n";
        let fired = rules_fired(ORDINARY, src);
        assert!(fired.contains(&"L9-vector-width"), "{fired:?}");
    }

    #[test]
    fn l9_mentions_in_strings_and_comments_are_ignored() {
        let src = "// const W: usize = 8; and std::arch are discussed only.\nfn f() -> &'static str { \"const VLANES: usize = 8;\" }\n";
        assert!(rules_fired(ORDINARY, src).is_empty());
    }

    #[test]
    fn scope_taxonomy_matches_the_workspace_layout() {
        let exec = FileScope::classify("crates/machine/src/exec.rs");
        assert!(exec.unsafe_allowed && exec.exec_layer && exec.result_bearing);
        assert!(!exec.raw_sync_allowed && exec.ordering_justify);
        // The deleted partition module's path is ordinary result-bearing
        // code now: no unsafe, raw-sync or exec-layer allowance.
        let part = FileScope::classify("crates/machine/src/partition.rs");
        assert!(part.result_bearing && !part.unsafe_allowed && !part.exec_layer);
        assert!(!part.raw_sync_allowed && !part.ordering_justify);
        let sync = FileScope::classify("crates/machine/src/sync.rs");
        assert!(sync.raw_sync_allowed && sync.ordering_justify && sync.exec_layer);
        assert!(!sync.unsafe_allowed);
        let sched = FileScope::classify("crates/check/src/sched.rs");
        assert!(sched.raw_sync_allowed && !sched.ordering_justify);
        assert!(!sched.result_bearing && !sched.unsafe_allowed);
        let fields = FileScope::classify("crates/grid/src/fields.rs");
        assert!(!fields.unsafe_allowed && !fields.exec_layer && fields.result_bearing);
        let bench = FileScope::classify("crates/bench/src/bin/probe_parallel.rs");
        assert!(!bench.unsafe_allowed && !bench.result_bearing);
        let lint = FileScope::classify("crates/lint/src/rules.rs");
        assert!(!lint.unsafe_allowed && !lint.result_bearing);
        let test = FileScope::classify("tests/parallel_determinism.rs");
        assert!(test.test_file);
        let facade = FileScope::classify("src/lib.rs");
        assert!(facade.result_bearing && !facade.unsafe_allowed);
        let vect = FileScope::classify("crates/machine/src/vect.rs");
        assert!(vect.lane_source && vect.result_bearing && !vect.unsafe_allowed);
        assert!(!exec.lane_source && !facade.lane_source);
    }
}
