//! mtlint — determinism lint + ranked-lock rule for the mtgpu workspace.
//!
//! ```text
//! mtlint [--deny] [--out DIR] [--root DIR] [FILE…]
//! ```
//!
//! With no `FILE` arguments it runs in *workspace mode*: lints every `.rs`
//! file under `crates/{api,cluster,core,gpusim,loadgen}/src` and writes
//! `mtlint.json` into `--out` (default `results/`). With explicit files it
//! lints just those files and writes nothing — the mode the fixture checks
//! use. The rank table itself needs no lint: it is one list in
//! `crates/simtime/src/sync.rs` whose order the build checks.
//!
//! Exit status: 0 when clean; 1 under `--deny` when any unsuppressed
//! finding or malformed allow exists.

use mtgpu_analysis::rules::RANKED_CRATES;
use mtgpu_analysis::{lint_file, report, Finding};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut out_dir = PathBuf::from("results");
    let mut root = PathBuf::from(".");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--out" => out_dir = PathBuf::from(args.next().expect("--out needs a directory")),
            "--root" => root = PathBuf::from(args.next().expect("--root needs a directory")),
            "--help" | "-h" => {
                println!("usage: mtlint [--deny] [--out DIR] [--root DIR] [FILE...]");
                return ExitCode::SUCCESS;
            }
            other => files.push(PathBuf::from(other)),
        }
    }

    let workspace_mode = files.is_empty();
    if workspace_mode {
        if !root.join("crates").is_dir() {
            eprintln!(
                "mtlint: {} has no crates/ directory (run from the workspace root or pass --root)",
                root.display()
            );
            return ExitCode::FAILURE;
        }
        // The crates the walk lints are the ranked-lock crates: `simtime`
        // is exempt, as it *implements* the clock and the ranked locks the
        // rules steer code toward.
        for krate in RANKED_CRATES {
            collect_rs_files(&root.join("crates").join(krate).join("src"), &mut files);
        }
        files.sort();
    }

    let mut findings: Vec<Finding> = Vec::new();
    for file in &files {
        match lint_file(file) {
            Ok(f) => findings.extend(f),
            Err(e) => {
                eprintln!("mtlint: {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        }
    }

    for f in findings.iter().filter(|f| !f.allowed) {
        println!("{}:{}: {}: {}", f.file, f.line, f.rule, f.message);
    }
    let violations = findings.iter().filter(|f| !f.allowed).count();
    println!(
        "mtlint: {} file(s), {} violation(s), {} allowed finding(s)",
        files.len(),
        violations,
        findings.len() - violations
    );

    if workspace_mode {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("mtlint: create {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
        let path = out_dir.join("mtlint.json");
        if let Err(e) = std::fs::write(&path, report::lint_json(files.len(), &findings)) {
            eprintln!("mtlint: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if deny && violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Recursively collects `.rs` files (sorted later for deterministic output).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
