//! `mtgpu-analysis`: static analysis for the workspace's determinism and
//! locking discipline.
//!
//! Two halves:
//!
//! 1. **mtlint** ([`lint_source`] / the `mtlint` binary) — a token-pattern
//!    lint over the runtime crates that flags determinism hazards (see
//!    [`rules`] for the rule list) with an inline, reason-carrying escape
//!    hatch (see [`allow`]).
//! 2. **mtcheck** (`check`, behind the `check` feature) — happens-before
//!    race detection and schedule exploration over the ranked locks.
//!
//! The lock-rank table needs neither: it is one list in `mtgpu-simtime`
//! whose strict order the build itself checks.
//!
//! The lint half has no dependencies and parses Rust with a deliberately small
//! hand-rolled lexer ([`lexer`]); it trades full-fidelity parsing for a
//! rule set whose patterns are robust at the token level.

pub mod allow;
#[cfg(feature = "check")]
pub mod check;
pub mod lexer;
pub mod report;
pub mod rules;

pub use rules::Finding;

/// Lints one file's source text. Returns every finding, with `allowed` set
/// on those suppressed by a well-formed `// mtlint: allow(…)` annotation;
/// malformed annotations surface as `bad-allow` findings.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let toks = lexer::strip_test_regions(lexer::lex(src));
    let allows = allow::parse(path, src);
    let mut findings = rules::scan(path, &toks);
    for f in &mut findings {
        if allows.permits(&f.rule, f.line) {
            f.allowed = true;
        }
    }
    // Dead-allow audit: a well-formed allow whose target line no longer
    // trips its rule is stale — the hazard it vouched for is gone, and a
    // lingering allow would silently mask a future regression. Surface it
    // as its own violation so `--deny` forces the cleanup.
    for a in allows.all() {
        let live =
            findings.iter().any(|f| f.rule == a.rule && (f.line == a.line || f.line == a.line + 1));
        if !live {
            findings.push(Finding {
                file: path.to_string(),
                line: a.line,
                rule: "dead-allow".to_string(),
                message: format!(
                    "allow({}) suppresses nothing: neither this line nor the next triggers the rule; delete the stale annotation",
                    a.rule
                ),
                allowed: false,
            });
        }
    }
    findings.extend(allows.bad);
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings
}

/// [`lint_source`] over a file on disk.
pub fn lint_file(path: &std::path::Path) -> std::io::Result<Vec<Finding>> {
    let src = std::fs::read_to_string(path)?;
    Ok(lint_source(&path.to_string_lossy(), &src))
}

#[cfg(test)]
mod fixture_tests {
    //! One test per rule over the checked-in fixture files: each fixture
    //! must trip its rule (mtlint exits non-zero on it under `--deny`),
    //! and the clean fixtures must not.

    use super::*;
    use std::path::PathBuf;

    fn fixture(name: &str) -> Vec<Finding> {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
        lint_file(&path).unwrap_or_else(|e| panic!("read fixture {name}: {e}"))
    }

    fn violations(findings: &[Finding]) -> Vec<(String, usize)> {
        findings.iter().filter(|f| !f.allowed).map(|f| (f.rule.clone(), f.line)).collect()
    }

    #[test]
    fn hashmap_iter_fixture() {
        let v = violations(&fixture("hashmap_iter.rs"));
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|(r, _)| r == "hashmap-iter"));
    }

    #[test]
    fn wall_clock_fixture() {
        let v = violations(&fixture("wall_clock.rs"));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|(r, _)| r == "wall-clock"));
    }

    #[test]
    fn thread_sleep_fixture() {
        let v = violations(&fixture("thread_sleep.rs"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].0, "thread-sleep");
    }

    #[test]
    fn notify_all_fixture() {
        let v = violations(&fixture("notify_all.rs"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].0, "notify-all");
    }

    #[test]
    fn non_det_rng_fixture() {
        let v = violations(&fixture("non_det_rng.rs"));
        assert!(v.len() >= 3, "{v:?}");
        assert!(v.iter().all(|(r, _)| r == "non-det-rng"));
    }

    #[test]
    fn unranked_lock_fixture() {
        let v = violations(&fixture("unranked_lock.rs"));
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|(r, _)| r == "unranked-lock"));
    }

    #[test]
    fn unranked_channel_fixture() {
        let findings = fixture("unranked_channel.rs");
        let v = violations(&findings);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|(r, _)| r == "unranked-lock"));
        assert!(findings.iter().any(|f| f.allowed && f.rule == "unranked-lock"));
    }

    #[test]
    fn allowed_fixture_is_clean() {
        let findings = fixture("allowed_clean.rs");
        assert!(violations(&findings).is_empty(), "{:?}", violations(&findings));
        assert!(findings.iter().any(|f| f.allowed), "allows should still be reported");
    }

    #[test]
    fn bad_allow_fixture_is_refused() {
        let v = violations(&fixture("bad_allow.rs"));
        assert!(v.iter().filter(|(r, _)| r == "bad-allow").count() >= 2, "{v:?}");
    }

    #[test]
    fn dead_allow_fixture_flags_only_the_stale_allows() {
        let v = violations(&fixture("dead_allow.rs"));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|(r, _)| r == "dead-allow"));
        // The live allow (thread-sleep over an actual sleep) stays allowed.
        let f = fixture("dead_allow.rs");
        assert!(f.iter().any(|f| f.allowed && f.rule == "thread-sleep"));
    }

    #[test]
    fn test_mod_fixture_is_exempt() {
        let v = violations(&fixture("test_mod_skip.rs"));
        assert!(v.is_empty(), "{v:?}");
    }
}
