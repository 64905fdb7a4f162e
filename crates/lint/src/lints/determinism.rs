//! Lint 6: determinism in engine-reachable code.
//!
//! The house invariant — every configuration is bit-identical to the
//! baseline engine — dies the moment engine code observes an
//! iteration-order-, clock- or entropy-dependent value. In the library
//! code of `crates/{mem, clock, core, sim}` this pass therefore bans:
//!
//! * **iteration over `HashMap`/`HashSet`** (`.iter()`, `.keys()`,
//!   `.values()`, `.drain()`, `.retain()`, `for _ in &map`, ...): use
//!   `BTreeMap`/`BTreeSet`, or sort explicitly and justify with
//!   `// lint: allow(determinism) - <how order is restored>`;
//! * **ambient entropy** (`thread_rng`, `from_entropy`, `rand::random`,
//!   `RandomState`): all randomness flows from mc-fault's seeded
//!   SplitMix64 (or the workloads' own seeded generators);
//! * in `crates/core` only, **host threads** (`std::thread`) and
//!   **shared-mutable constructs** (`Mutex`, `RwLock`, `Atomic*`,
//!   `RefCell`, `Cell<`, `static mut`, `unsafe`): the policy owns its
//!   state and mutates it in place through `&mut self`, walking its
//!   lists in one fixed order, so nothing may run beside the walk or hide
//!   state behind interior mutability. Host parallelism belongs to
//!   whole-run sweeps (`SweepRunner` in `crates/bench`). These two rules
//!   take no suppression marker.
//!
//! Wall-clock sources (`Instant`, `SystemTime`) used to be banned here
//! too; they now have their own workspace-wide boundary pass
//! ([`super::wallclock`]) with an allow-list for the perf observability
//! module and the bench harness.
//!
//! Bindings are recognised lexically (`name: HashMap<...>` fields and
//! annotations, `name = HashMap::new()` initialisers), so a hash-typed
//! binding and a same-named deterministic binding in one file are
//! conflated — the escape hatch plus this being a per-file approximation
//! is documented in DESIGN.md §14.
//!
//! [`Nanos`]: ../../mc_mem/struct.Nanos.html

use crate::index::word_occurrences;
use crate::source::{is_ident_byte, SourceFile};
use crate::suppress::Suppressions;
use crate::{Diagnostic, Workspace};
use std::collections::BTreeSet;

const LINT: &str = "determinism";

/// Crates whose library code the pass covers.
const SCOPES: [&str; 5] = [
    "crates/mem/src/",
    "crates/clock/src/",
    "crates/core/src/",
    "crates/sim/src/",
    "crates/policies/src/",
];

/// Method calls on a hash container that observe iteration order.
const ORDER_METHODS: [&str; 10] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
];

/// Tokens that read ambient entropy.
const BANNED_TOKENS: [(&str, &str); 4] = [
    (
        "thread_rng",
        "ambient entropy; use mc-fault's seeded SplitMix64",
    ),
    ("from_entropy", "ambient entropy; use a fixed seed"),
    ("random", "ambient entropy; use a seeded generator"),
    (
        "RandomState",
        "per-process hash seeds; use BTree collections",
    ),
];

/// Constructs banned in `crates/core` library code: host threads, then
/// shared-mutable (or aliasing-escape) state. `thread` must be a whole
/// word (`threads` is a count, `thread_rng` is entropy); the rest match
/// as prefixes, so `Atomic` also catches `AtomicUsize`.
const CORE_BANNED: [&str; 8] = [
    "thread",
    "Mutex",
    "RwLock",
    "Atomic",
    "RefCell",
    "Cell<",
    "static mut",
    "unsafe",
];

/// Runs the determinism lint standalone (used by tests).
pub fn check(ws: &Workspace) -> Vec<Diagnostic> {
    let mut sup = Suppressions::collect(ws);
    check_with(ws, &mut sup)
}

/// Runs the determinism lint against the shared suppression registry.
pub fn check_with(ws: &Workspace, sup: &mut Suppressions) -> Vec<Diagnostic> {
    sup.activate(LINT);
    let mut diags = Vec::new();
    for file in &ws.files {
        if !SCOPES.iter().any(|s| file.rel.starts_with(s)) {
            continue;
        }
        let hashed = hash_bindings(&file.blanked);
        for ident in &hashed {
            for off in word_occurrences(&file.blanked, ident) {
                if file.in_test(off) {
                    continue;
                }
                let after = &file.blanked[off + ident.len()..];
                let ordered_call = ORDER_METHODS.iter().find(|m| after.starts_with(*m));
                let in_for = for_loop_iterated(&file.blanked, off);
                if ordered_call.is_none() && !in_for {
                    continue;
                }
                let line = file.line_of(off);
                if sup.check(&file.rel, line, LINT).is_some() {
                    continue;
                }
                let how = ordered_call.map_or("`for` iteration".to_string(), |m| {
                    format!("`{}`", m.trim_end_matches('('))
                });
                diags.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    lint: LINT,
                    message: format!(
                        "{how} over hash container `{ident}` has unspecified order in \
                         engine-reachable code; use BTreeMap/BTreeSet or sort explicitly \
                         (then justify with `// lint: allow(determinism) - <reason>`)"
                    ),
                });
            }
        }
        for (token, why) in BANNED_TOKENS {
            for off in word_occurrences(&file.blanked, token) {
                if file.in_test(off) {
                    continue;
                }
                let line = file.line_of(off);
                if sup.check(&file.rel, line, LINT).is_some() {
                    continue;
                }
                diags.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    lint: LINT,
                    message: format!("`{token}` in engine-reachable code: {why}"),
                });
            }
        }
        if file.rel.starts_with("crates/core/src/") {
            check_core_ownership(file, &mut diags);
        }
    }
    diags
}

/// Flags the [`CORE_BANNED`] constructs in `crates/core` library code.
fn check_core_ownership(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let bytes = file.blanked.as_bytes();
    for needle in CORE_BANNED {
        for (off, _) in file.blanked.match_indices(needle) {
            let end = off + needle.len();
            let starts_word = off == 0 || !is_ident_byte(bytes[off - 1]);
            let ends_word = bytes.get(end).is_none_or(|b| !is_ident_byte(*b));
            if !starts_word || (needle == "thread" && !ends_word) || file.in_test(off) {
                continue;
            }
            let why = if needle == "thread" {
                "the daemon scans its lists in place on the engine's one thread; \
                 host parallelism belongs to whole-run sweeps"
            } else {
                "shared-mutable state; the policy owns its state and mutates it \
                 in place through `&mut self`"
            };
            diags.push(Diagnostic {
                file: file.rel.clone(),
                line: file.line_of(off),
                lint: LINT,
                message: format!("`{needle}` in crates/core: {why}"),
            });
        }
    }
}

/// Identifiers bound to `HashMap`/`HashSet` in this file: struct fields
/// and annotations (`name: HashMap<...>`) and initialisers
/// (`name = HashMap::new()`).
fn hash_bindings(blanked: &str) -> BTreeSet<String> {
    let bytes = blanked.as_bytes();
    let mut out = BTreeSet::new();
    for ty in ["HashMap", "HashSet"] {
        for off in word_occurrences(blanked, ty) {
            // Walk back over whitespace to the binding operator.
            let mut i = off;
            while i > 0 && bytes[i - 1].is_ascii_whitespace() {
                i -= 1;
            }
            if i == 0 {
                continue;
            }
            let op = bytes[i - 1];
            if op != b':' && op != b'=' {
                continue;
            }
            // `::HashMap` is a path segment, not a binding.
            if op == b':' && i >= 2 && bytes[i - 2] == b':' {
                continue;
            }
            let mut e = i - 1;
            while e > 0 && bytes[e - 1].is_ascii_whitespace() {
                e -= 1;
            }
            let mut s = e;
            while s > 0 && is_ident_byte(bytes[s - 1]) {
                s -= 1;
            }
            if s < e {
                let ident = &blanked[s..e];
                if ident != "mut" && !ident.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                    out.insert(ident.to_string());
                }
            }
        }
    }
    out
}

/// Whether the identifier at `off` is the iterated expression of a `for`
/// loop (`for x in &ident {`, `for x in ident.___`), i.e. preceded by
/// `in` (modulo `&`/`&mut`) on the same statement.
fn for_loop_iterated(blanked: &str, off: usize) -> bool {
    let bytes = blanked.as_bytes();
    let mut i = off;
    while i > 0 && (bytes[i - 1] == b'&' || bytes[i - 1].is_ascii_whitespace()) {
        i -= 1;
        // Allow `&mut ident`.
        if i >= 3
            && &blanked[i - 3..i] == "mut"
            && !is_ident_byte(*bytes.get(i - 4).unwrap_or(&b' '))
        {
            i -= 3;
        }
    }
    i >= 2 && &blanked[i - 2..i] == "in" && (i == 2 || !is_ident_byte(bytes[i - 3]))
}
