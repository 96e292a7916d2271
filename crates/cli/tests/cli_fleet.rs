//! End-to-end tests of the cache fleet operations: pack → fetch
//! restores a pure-hit rerun with byte-identical stdout, mismatched
//! archives are rejected without writing anything, `gc` evicts
//! LRU-first down to the byte budget, N concurrent `apxperf` processes
//! sharing one cache directory never tear a blob or leak a temp file,
//! archives of the old file-per-blob layout still import, and an
//! in-process run stores the same blobs as the CLI.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The compiled `apxperf` binary under test.
fn apxperf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_apxperf"))
}

fn run(args: &[&str]) -> Output {
    apxperf()
        .args(args)
        .output()
        .expect("apxperf binary must spawn")
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("stderr is UTF-8")
}

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("apxperf_fleet_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        TempDir(dir)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is UTF-8")
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_str().unwrap().to_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The live blobs of a cache dir, as `cache stats` counts them.
fn blobs_in(dir: &std::path::Path) -> u64 {
    apx_cache::Cache::builder().dir(dir).open().stats().blobs
}

/// The `cache pack` archive of a whole cache dir, as bytes.
fn pack_bytes(dir: &TempDir) -> Vec<u8> {
    let archive = dir.0.with_extension("apxcache");
    let out = run(&[
        "cache",
        "pack",
        archive.to_str().unwrap(),
        "--cache-dir",
        dir.path(),
    ]);
    assert!(out.status.success(), "pack failed: {out:?}");
    let bytes = std::fs::read(&archive).expect("archive written");
    std::fs::remove_file(&archive).ok();
    bytes
}

/// Any leftover atomic-write temp files in a cache dir.
fn temps_in(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| apx_cache::classify(&e.path()) == apx_cache::RecordKind::Temp)
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn pack_fetch_restores_a_pure_hit_rerun_with_identical_stdout() {
    let warm = TempDir::new("pack_src");
    let fresh = TempDir::new("pack_dst");
    let archive = warm.file("warm.apxcache");
    let report = |dir: &str| {
        run(&[
            "report",
            "ACA(16,4)",
            "--samples",
            "1000",
            "--vectors",
            "50",
            "--cache-dir",
            dir,
        ])
    };

    let cold = report(warm.path());
    assert!(cold.status.success(), "cold run failed: {cold:?}");
    assert_eq!(blobs_in(&warm.0), 1);

    let packed = run(&["cache", "pack", &archive, "--cache-dir", warm.path()]);
    assert!(packed.status.success(), "pack failed: {packed:?}");
    assert!(stdout(&packed).contains("packed"), "{packed:?}");

    let fetched = run(&["cache", "fetch", &archive, "--cache-dir", fresh.path()]);
    assert!(fetched.status.success(), "fetch failed: {fetched:?}");
    // byte-identical restore: the same keys and bytes pack the same
    assert_eq!(blobs_in(&fresh.0), 1);
    assert_eq!(
        pack_bytes(&warm),
        pack_bytes(&fresh),
        "restored blob differs"
    );

    // the restored dir serves the rerun purely from cache, byte-identical
    let restored = report(fresh.path());
    assert!(
        restored.status.success(),
        "restored run failed: {restored:?}"
    );
    assert_eq!(stdout(&cold), stdout(&restored));
    let err = stderr(&restored);
    assert!(
        err.contains("1 hits, 0 misses, 0 writes"),
        "restored run must be a pure hit: {err}"
    );

    // fetching the same archive again is a no-op, not a conflict
    let again = run(&[
        "cache",
        "fetch",
        &archive,
        "--cache-dir",
        fresh.path(),
        "--format",
        "json",
    ]);
    assert!(again.status.success(), "re-fetch failed: {again:?}");
    let json = stdout(&again);
    assert!(json.contains("\"imported\": 0"), "{json}");
    assert!(json.contains("\"already_present\": 1"), "{json}");
}

#[test]
fn mismatched_archives_are_rejected_and_write_nothing() {
    let warm = TempDir::new("reject_src");
    let fresh = TempDir::new("reject_dst");
    let seeded = run(&[
        "report",
        "ADDt(16,12)",
        "--samples",
        "500",
        "--vectors",
        "30",
        "--cache-dir",
        warm.path(),
    ]);
    assert!(seeded.status.success());
    let archive = warm.file("warm.apxcache");
    let packed = run(&["cache", "pack", &archive, "--cache-dir", warm.path()]);
    assert!(packed.status.success());

    // a foreign library fingerprint in the stamp: structured rejection
    let text = std::fs::read_to_string(&archive).unwrap();
    let foreign = archive.replace(".apxcache", ".foreign.apxcache");
    std::fs::write(
        &foreign,
        text.replacen("\"library\": \"", "\"library\": \"feed", 1),
    )
    .unwrap();
    let rejected = run(&[
        "cache",
        "fetch",
        &foreign,
        "--cache-dir",
        fresh.path(),
        "--format",
        "json",
    ]);
    assert_eq!(rejected.status.code(), Some(1));
    let err = stderr(&rejected);
    assert!(err.contains("LibraryMismatch"), "{err}");
    assert_eq!(blobs_in(&fresh.0), 0, "rejected import wrote blobs");

    // a tampered blob body: checksum rejection, still nothing written
    let tampered = archive.replace(".apxcache", ".tampered.apxcache");
    std::fs::write(
        &tampered,
        text.replacen("\\\"verified\\\"", "\\\"verifiee\\\"", 1),
    )
    .unwrap();
    let rejected = run(&["cache", "fetch", &tampered, "--cache-dir", fresh.path()]);
    assert_eq!(rejected.status.code(), Some(1));
    let err = stderr(&rejected);
    assert!(
        err.contains("checksum") || err.contains("does not match"),
        "{err}"
    );
    assert_eq!(blobs_in(&fresh.0), 0, "tampered import wrote blobs");
}

#[test]
fn pack_selector_reports_the_sweep_closure_keys_it_cannot_find() {
    // the selector path end to end, without paying for a family sweep:
    // an empty cache has none of the `points` closure blobs, so a
    // selective pack reports every key as missing and packs nothing
    let dir = TempDir::new("selector");
    let archive = dir.file("sel.apxcache");
    let packed = run(&[
        "cache",
        "pack",
        &archive,
        "--cache-dir",
        dir.path(),
        "--family",
        "points",
        "--samples",
        "1000",
        "--vectors",
        "50",
        "--format",
        "json",
    ]);
    assert!(packed.status.success(), "{packed:?}");
    let json = stdout(&packed);
    assert!(json.contains("\"packed\": 0"), "{json}");
    // 9 configs + their sized partners: strictly more than 9 keys
    let missing: u64 = json
        .lines()
        .find(|l| l.contains("\"missing\""))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().trim_end_matches(',').parse().ok())
        .expect("missing count in pack summary");
    assert!(missing > 9, "points closure should exceed 9 keys: {json}");
}

#[test]
fn gc_evicts_lru_first_down_to_the_byte_budget() {
    let dir = TempDir::new("gc");
    let report = |spec: &str| {
        let output = run(&[
            "report",
            spec,
            "--samples",
            "500",
            "--vectors",
            "30",
            "--cache-dir",
            dir.path(),
        ]);
        assert!(output.status.success(), "{spec} failed: {output:?}");
        stderr(&output)
    };
    report("ACA(8,2)");
    report("ADDt(8,4)");
    // a later hit makes the first-written blob the most recently used
    assert!(report("ACA(8,2)").contains("1 hits, 0 misses"));
    assert_eq!(blobs_in(&dir.0), 2);

    let total = apx_cache::Cache::builder().dir(&dir.0).open().stats().bytes;
    let budget = total - 1; // forces exactly one eviction
    let gc = run(&[
        "cache",
        "gc",
        "--max-bytes",
        &budget.to_string(),
        "--cache-dir",
        dir.path(),
        "--format",
        "json",
    ]);
    assert!(gc.status.success(), "{gc:?}");
    let json = stdout(&gc);
    assert!(json.contains("\"evicted_blobs\": 1"), "{json}");

    assert_eq!(blobs_in(&dir.0), 1, "exactly one blob must survive");
    let remaining = apx_cache::Cache::builder().dir(&dir.0).open().stats().bytes;
    assert!(remaining <= budget, "{remaining} > budget {budget}");
    // the least recently used blob went, the touched one stayed
    assert!(
        report("ADDt(8,4)").contains("0 hits, 1 misses"),
        "gc must evict the LRU blob first"
    );
    assert!(report("ACA(8,2)").contains("1 hits, 0 misses"));

    // gc without a budget is a usage-level error, not a silent no-op
    let bad = run(&["cache", "gc", "--cache-dir", dir.path()]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(stderr(&bad).contains("--max-bytes"), "{bad:?}");
}

#[test]
fn concurrent_processes_sharing_a_cache_dir_never_tear_blobs_or_leak_temps() {
    // N racing `apxperf report` processes over one directory: half pile
    // onto the same config (write/write race on one key), half write
    // distinct configs. Every process must succeed, every stored blob
    // must be complete valid JSON, each key must have one live blob, and
    // no temp file may survive.
    let dir = TempDir::new("stress");
    let shared = "ACA(8,2)";
    let distinct = ["ADDt(8,4)", "RCAApx(8,3,2)", "ACA(8,3)"];
    let mut children = Vec::new();
    for index in 0..8 {
        let spec = if index % 2 == 0 {
            shared
        } else {
            distinct[(index / 2) % distinct.len()]
        };
        let child = apxperf()
            .args([
                "report",
                spec,
                "--samples",
                "500",
                "--vectors",
                "30",
                "--cache-dir",
                dir.path(),
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn racing apxperf");
        children.push((spec, child));
    }
    for (spec, child) in children {
        let output = child.wait_with_output().expect("racing child exits");
        assert!(output.status.success(), "{spec} failed under contention");
    }

    assert_eq!(blobs_in(&dir.0), 4, "one live blob per distinct config");
    // every blob reads back whole: the archive holds all four, each
    // body parses
    let archive = String::from_utf8(pack_bytes(&dir)).expect("the archive is UTF-8");
    let archive: serde::Value = serde_json::from_str(&archive).expect("the archive is JSON");
    let bodies: Vec<String> = archive_bodies(&archive);
    assert_eq!(bodies.len(), 4, "{archive:?}");
    for body in &bodies {
        assert!(
            serde_json::from_str::<serde::Value>(body).is_ok(),
            "torn blob: {body}"
        );
    }
    assert_eq!(temps_in(&dir.0), Vec::<String>::new(), "leaked temp files");

    // deterministic hit accounting: after the race, a rerun of the
    // contended config is a pure hit
    let warm = run(&[
        "report",
        shared,
        "--samples",
        "500",
        "--vectors",
        "30",
        "--cache-dir",
        dir.path(),
    ]);
    assert!(warm.status.success());
    let err = stderr(&warm);
    assert!(
        err.contains("1 hits, 0 misses, 0 writes"),
        "post-race rerun must be a pure hit: {err}"
    );
}

/// The `body` strings of an archive's blobs.
fn archive_bodies(archive: &serde::Value) -> Vec<String> {
    let field = |value: &serde::Value, name: &str| -> Option<serde::Value> {
        value
            .as_object()?
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, v)| v.clone())
    };
    match field(archive, "blobs") {
        Some(serde::Value::Array(blobs)) => blobs
            .iter()
            .filter_map(|blob| match field(blob, "body") {
                Some(serde::Value::String(body)) => Some(body),
                _ => None,
            })
            .collect(),
        other => panic!("no blob array: {other:?}"),
    }
}

#[test]
fn archives_of_the_file_per_blob_layout_still_import() {
    // packed from a directory of one `<key>.json` file per blob, before
    // the segment layout: `report ADDt(8,4) --samples 500 --vectors 30`
    let archive = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/file_per_blob_layout.apxcache"
    );
    let dir = TempDir::new("old_archive");
    let fetched = run(&[
        "cache",
        "fetch",
        archive,
        "--cache-dir",
        dir.path(),
        "--format",
        "json",
    ]);
    assert!(fetched.status.success(), "fetch failed: {fetched:?}");
    assert!(stdout(&fetched).contains("\"imported\": 1"), "{fetched:?}");
    let args = ["report", "ADDt(8,4)", "--samples", "500", "--vectors", "30"];
    let warm = run(&[&args[..], &["--cache-dir", dir.path()]].concat());
    assert!(
        stderr(&warm).contains("1 hits, 0 misses, 0 writes"),
        "{warm:?}"
    );
    let computed = run(&[&args[..], &["--no-cache"]].concat());
    assert_eq!(stdout(&warm), stdout(&computed));
    // and the restored directory packs back to the same archive bytes
    assert_eq!(pack_bytes(&dir), std::fs::read(archive).unwrap());
}

#[test]
fn an_in_process_run_stores_the_same_blobs_as_the_cli() {
    use apx_core::query::{self, QueryParams};
    let cli = TempDir::new("same_cli");
    let lib = TempDir::new("same_lib");
    let flags = ["--samples", "1000", "--vectors", "50", "--threads", "2"];
    for step in [&["fig3"][..], &["app", "fir"][..]] {
        let out = run(&[step, &flags[..], &["--cache-dir", cli.path()]].concat());
        assert!(out.status.success(), "{step:?} failed: {out:?}");
    }

    let params = QueryParams {
        samples: 1_000,
        vectors: 50,
        ..QueryParams::default()
    };
    let cells = apx_cells::Library::fdsoi28();
    let engine = apx_engine::Engine::new(2);
    let cache = apx_cache::Cache::builder().dir(&lib.0).open();
    let fig3 = apx_core::sweeps::all_adders_16bit();
    let _ = apx_core::sweeps::characterize_all_cached(
        &cells,
        params.settings(),
        &fig3,
        &engine,
        &cache,
    );
    let (workload, seed) = query::resolve_workload(&params, "fir").unwrap();
    let fir = (query::lookup_family("--family", "points").unwrap().configs)();
    let _ = apx_core::appenergy::sweep_workload_cached(
        workload.as_ref(),
        seed,
        &cells,
        params.settings(),
        &fir,
        &engine,
        &cache,
    );
    assert!(blobs_in(&cli.0) > 90);
    assert_eq!(pack_bytes(&cli), pack_bytes(&lib));
}
