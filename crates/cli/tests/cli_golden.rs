//! Pinned regression outputs for the workload-registry refactor.
//!
//! The `golden/*.txt` files were captured from the **pre-registry**
//! implementation of the application figure/table subcommands (each case
//! study hand-wired through its own fixture/appenergy path). The
//! refactored commands are thin aliases over the `Workload` registry and
//! the `sweep_workload` driver, and this test proves their default
//! outputs are byte-identical to what the bespoke drivers printed —
//! seeds, scores, energy models, formatting, everything.
//!
//! `fig3`, `fig4` and `table1` (pure characterization exhibits, no
//! workload) were captured later, ahead of folding the ten exhibits into
//! one declarative table, so that fold is pinned on every exhibit.
//!
//! The captures use reduced sample counts so the whole suite stays fast;
//! every other flag is at its default, so the legacy per-command fixture
//! seeds (0xF17, 0x1E7A, 0xEC, 100…) are on the line too.

use std::process::Command;

/// Runs the compiled `apxperf` with `args` and returns stdout.
fn run(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_apxperf"))
        .args(args)
        .output()
        .expect("apxperf binary must spawn");
    assert!(output.status.success(), "{args:?}: {output:?}");
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// Asserts one command's stdout matches its pinned capture byte for byte.
fn assert_golden(golden: &str, args: &[&str]) {
    let actual = run(args);
    assert_eq!(
        actual, golden,
        "{args:?}: output drifted from the pre-refactor capture"
    );
}

#[test]
fn fig3_matches_the_pinned_output() {
    assert_golden(
        include_str!("golden/fig3.txt"),
        &[
            "fig3",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--no-cache",
        ],
    );
}

#[test]
fn fig4_matches_the_pinned_output() {
    assert_golden(
        include_str!("golden/fig4.txt"),
        &[
            "fig4",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--no-cache",
        ],
    );
}

#[test]
fn table1_matches_the_pinned_output() {
    assert_golden(
        include_str!("golden/table1.txt"),
        &[
            "table1",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--no-cache",
        ],
    );
}

#[test]
fn fig5_matches_the_pre_registry_output() {
    assert_golden(
        include_str!("golden/fig5.txt"),
        &[
            "fig5",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--no-cache",
        ],
    );
}

#[test]
fn fig6_matches_the_pre_registry_output() {
    assert_golden(
        include_str!("golden/fig6.txt"),
        &[
            "fig6",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--size",
            "64",
            "--no-cache",
        ],
    );
}

#[test]
fn table2_matches_the_pre_registry_output() {
    assert_golden(
        include_str!("golden/table2.txt"),
        &[
            "table2",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--no-cache",
        ],
    );
}

#[test]
fn table3_matches_the_pre_registry_output() {
    assert_golden(
        include_str!("golden/table3.txt"),
        &[
            "table3",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--size",
            "32",
            "--no-cache",
        ],
    );
}

#[test]
fn table4_matches_the_pre_registry_output() {
    assert_golden(
        include_str!("golden/table4.txt"),
        &[
            "table4",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--size",
            "32",
            "--no-cache",
        ],
    );
}

#[test]
fn table5_matches_the_pre_registry_output() {
    assert_golden(
        include_str!("golden/table5.txt"),
        &[
            "table5",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--sets",
            "2",
            "--points",
            "100",
            "--no-cache",
        ],
    );
}

#[test]
fn table6_matches_the_pre_registry_output() {
    assert_golden(
        include_str!("golden/table6.txt"),
        &[
            "table6",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--sets",
            "2",
            "--points",
            "100",
            "--no-cache",
        ],
    );
}

/// Pins the auto-tuner's per-site ledger (the `adds`/`muls` columns, in
/// the workload's first-recorded site order) and the `energy_pj` priced
/// from it, which none of the alias captures above cover.
#[test]
fn tune_fft_matches_the_pinned_output() {
    assert_golden(
        include_str!("golden/tune_fft.txt"),
        &[
            "tune",
            "--workload",
            "fft",
            "--budget",
            "<=1dB",
            "--samples",
            "2000",
            "--vectors",
            "100",
            "--no-cache",
        ],
    );
}
