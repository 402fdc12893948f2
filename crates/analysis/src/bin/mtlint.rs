//! mtlint — determinism lint + ranked-lock order checker for the mtgpu
//! workspace.
//!
//! ```text
//! mtlint [--deny] [--out DIR] [--root DIR] [FILE…]
//! ```
//!
//! With no `FILE` arguments it runs in *workspace mode*: lints every `.rs`
//! file under `crates/{api,cluster,core,gpusim,loadgen}/src`, extracts the
//! lock graph (rank declarations from `crates/simtime/src/sync.rs`,
//! construction sites from the ranked crates), and writes
//! `mtlint.json`, `lock_graph.json`, and `lock_graph.dot` into `--out`
//! (default `results/`). With explicit files it lints just those files and
//! writes nothing — the mode the fixture checks use.
//!
//! Exit status: 0 when clean; 1 under `--deny` when any unsuppressed
//! finding, malformed allow, or lock-graph error exists.

use mtgpu_analysis::rules::RANKED_CRATES;
use mtgpu_analysis::{lint_file, lock_graph, report, Finding};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose sources the workspace walk lints. `simtime` is exempt: it
/// *implements* the clock and the ranked locks the rules steer code toward.
const LINT_CRATES: &[&str] = &["api", "cluster", "core", "gpusim", "loadgen"];

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
        for krate in LINT_CRATES {
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

    let mut failed = false;
    for f in findings.iter().filter(|f| !f.allowed) {
        println!("{}:{}: {}: {}", f.file, f.line, f.rule, f.message);
        failed = true;
    }

    let graph = workspace_mode.then(|| extract_lock_graph(&root, &files));
    if let Some(graph) = &graph {
        for e in &graph.errors {
            println!("lock-graph: {e}");
            failed = true;
        }
    }

    let violations = findings.iter().filter(|f| !f.allowed).count();
    let allowed = findings.len() - violations;
    println!(
        "mtlint: {} file(s), {} violation(s), {} allowed finding(s){}",
        files.len(),
        violations,
        allowed,
        match &graph {
            Some(g) => format!(
                ", lock graph: {} rank(s), {} site(s), {}",
                g.nodes.len(),
                g.nodes.iter().map(|n| n.sites.len()).sum::<usize>(),
                if g.acyclic() { "acyclic" } else { "CYCLIC" }
            ),
            None => String::new(),
        }
    );

    if workspace_mode {
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("mtlint: create {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
        let lint_json = report::lint_json(files.len(), &findings);
        let graph = graph.expect("workspace mode builds the graph");
        for (name, content) in [
            ("mtlint.json", lint_json),
            ("lock_graph.json", graph.to_json()),
            ("lock_graph.dot", graph.to_dot()),
        ] {
            let path = out_dir.join(name);
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("mtlint: write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if deny && failed {
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

/// Builds the workspace lock graph: rank table from simtime's sync module,
/// construction sites from the ranked crates' lint file set.
fn extract_lock_graph(root: &Path, files: &[PathBuf]) -> lock_graph::LockGraph {
    let sync_path = root.join("crates/simtime/src/sync.rs");
    let ranks = match std::fs::read_to_string(&sync_path) {
        Ok(src) => lock_graph::parse_ranks(&src),
        Err(_) => Vec::new(),
    };
    let mut sites = Vec::new();
    for file in files {
        let path_str = file.to_string_lossy();
        let in_ranked_crate =
            RANKED_CRATES.iter().any(|k| path_str.contains(&format!("crates/{k}/")));
        if !in_ranked_crate {
            continue;
        }
        if let Ok(src) = std::fs::read_to_string(file) {
            let toks = mtgpu_analysis::lexer::lex(&src);
            lock_graph::collect_sites(&path_str, &toks, &mut sites);
        }
    }
    let mut graph = lock_graph::build(&ranks, sites);
    if graph.nodes.is_empty() {
        graph.errors.push(format!("no lock ranks found in {}", sync_path.display()));
    }
    graph
}
