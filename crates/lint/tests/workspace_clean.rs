//! Runs every mc-lint pass over the real workspace as `#[test]`s, so
//! `cargo test -q` fails with file:line diagnostics on any violation —
//! one test per lint class for readable failure output.

use mc_lint::{find_workspace_root, lints, Diagnostic, Workspace};
use std::path::Path;
use std::sync::OnceLock;

fn workspace() -> &'static Workspace {
    static WS: OnceLock<Workspace> = OnceLock::new();
    WS.get_or_init(|| {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("mc-lint lives inside the workspace");
        Workspace::load(&root).expect("workspace sources must be readable")
    })
}

fn assert_clean(diags: Vec<Diagnostic>) {
    assert!(
        diags.is_empty(),
        "\n{}\n{} violation(s); run `cargo run -p mc-lint` for the full report",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n"),
        diags.len(),
    );
}

#[test]
fn state_machine_is_exhaustive_and_fig4_complete() {
    assert_clean(lints::state_machine::check(workspace()));
}

#[test]
fn crate_layering_is_a_dag() {
    assert_clean(lints::layering::check(workspace()));
}

#[test]
fn list_mutation_stays_inside_core_machinery() {
    assert_clean(lints::boundary::check(workspace()));
}

#[test]
fn library_code_is_panic_free_or_justified() {
    assert_clean(lints::panics::check(workspace()));
}

#[test]
fn substrate_public_api_is_documented() {
    assert_clean(lints::docs::check(workspace()));
}

#[test]
fn engine_code_iterates_deterministically() {
    assert_clean(lints::determinism::check(workspace()));
}

#[test]
fn host_clocks_stay_inside_the_wallclock_boundary() {
    assert_clean(lints::wallclock::check(workspace()));
}

#[test]
fn engine_hot_loop_is_transitively_panic_free_or_justified() {
    assert_clean(lints::panic_reach::check(workspace()));
}

#[test]
fn library_code_does_not_discard_results() {
    assert_clean(lints::results::check(workspace()));
}

#[test]
fn all_passes_including_the_suppression_audit_are_clean() {
    assert_clean(mc_lint::run_all(workspace()));
}
