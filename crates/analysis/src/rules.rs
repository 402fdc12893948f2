//! The determinism rules.
//!
//! Each rule flags a construct that can make a replayed run diverge from
//! the recorded one (§4.6 of the paper needs call streams to re-execute
//! byte-identically) or that breaks the workspace's concurrency discipline:
//!
//! - `hashmap-iter` — iterating a `HashMap`/`HashSet` observes allocator
//!   randomized order; scheduler, memory-manager, and replay paths must use
//!   `BTreeMap` or sort first.
//! - `wall-clock` — `Instant::now`/`SystemTime::now` outside `mtgpu-simtime`
//!   leaks real time into simulated control flow.
//! - `thread-sleep` — `thread::sleep` outside the `Clock` bypasses the
//!   scaled simulation clock.
//! - `notify-all` — broadcast wakeups hide lost-wakeup bugs and make wake
//!   order scheduler-dependent; each call site must justify why a targeted
//!   `notify_one` is wrong.
//! - `non-det-rng` — any randomness source other than the seeded `DetRng`.
//! - `unranked-lock` — in the [`RANKED_CRATES`], every lock must be a
//!   `Ranked*` wrapper constructed with a declared `lock_rank` constant so
//!   the runtime order checker can see it; a `std::sync::mpsc` channel,
//!   whose lock no checker sees, is flagged at its construction too.

use crate::lexer::{TokKind, Token};
use std::collections::BTreeSet;

/// Every lintable rule name, in the order reports list them.
pub const RULES: &[&str] =
    &["hashmap-iter", "wall-clock", "thread-sleep", "notify-all", "non-det-rng", "unranked-lock"];

/// One lint hit. `allowed` is set after matching against the file's
/// [`crate::allow::AllowSet`].
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: String,
    pub message: String,
    pub allowed: bool,
}

/// Methods whose call on a hash collection observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers that reach for a non-deterministic randomness source.
const RNG_IDENTS: &[&str] = &["thread_rng", "from_entropy", "StdRng", "SmallRng", "RandomState"];

/// The crates under the ranked-lock contract: every lock they construct is
/// a ranked wrapper (the `unranked-lock` rule). They are the runtime crates
/// `core` and `gpusim`, the client-facing `api` and workload `loadgen`
/// crates (their locks sit on the call paths the race detector audits),
/// and `cluster` (the head node's gate). They are also the crates
/// `mtlint`'s workspace walk lints.
pub const RANKED_CRATES: &[&str] = &["api", "cluster", "core", "gpusim", "loadgen"];

/// Whether the `unranked-lock` rule applies to `path`: the
/// [`RANKED_CRATES`] plus the lint's own fixtures.
fn ranked_lock_scope(path: &str) -> bool {
    RANKED_CRATES.iter().any(|k| path.contains(&format!("crates/{k}/")))
        || path.contains("fixtures")
}

/// Runs every rule over one file's (test-stripped) token stream.
pub fn scan(path: &str, toks: &[Token]) -> Vec<Finding> {
    let mut out = Vec::new();
    let hash_idents = collect_hash_idents(toks);
    let check_ranks = ranked_lock_scope(path);
    let text = |k: usize| toks.get(k).map(|t| t.text.as_str());
    let mut push = |line: usize, rule: &str, message: String| {
        out.push(Finding {
            file: path.to_string(),
            line,
            rule: rule.to_string(),
            message,
            allowed: false,
        });
    };

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident && t.text != "#" {
            continue;
        }
        let word = t.text.as_str();

        // hashmap-iter: `<hash ident>.<iter method>(…)`.
        if ITER_METHODS.contains(&word)
            && i >= 2
            && text(i - 1) == Some(".")
            && text(i + 1) == Some("(")
            && toks[i - 2].kind == TokKind::Ident
            && hash_idents.contains(toks[i - 2].text.as_str())
        {
            push(
                t.line,
                "hashmap-iter",
                format!(
                    "`{}.{}()` iterates a HashMap/HashSet in nondeterministic order; use a BTreeMap/BTreeSet or sort first",
                    toks[i - 2].text, word
                ),
            );
        }

        // hashmap-iter: `for … in <hash ident> {` (direct IntoIterator).
        if word == "in" {
            for j in (i + 1)..toks.len().min(i + 16) {
                if toks[j].text == "{" {
                    let recv = &toks[j - 1];
                    if recv.kind == TokKind::Ident && hash_idents.contains(recv.text.as_str()) {
                        push(
                            t.line,
                            "hashmap-iter",
                            format!(
                                "`for … in {}` iterates a HashMap/HashSet in nondeterministic order",
                                recv.text
                            ),
                        );
                    }
                    break;
                }
            }
        }

        // wall-clock: Instant::now / SystemTime::now.
        if (word == "Instant" || word == "SystemTime")
            && text(i + 1) == Some("::")
            && text(i + 2) == Some("now")
        {
            push(
                t.line,
                "wall-clock",
                format!("`{word}::now()` reads the wall clock; simulated control flow must go through mtgpu-simtime's Clock"),
            );
        }

        // thread-sleep: thread::sleep.
        if word == "thread" && text(i + 1) == Some("::") && text(i + 2) == Some("sleep") {
            push(
                t.line,
                "thread-sleep",
                "`thread::sleep` bypasses the scaled simulation clock; use Clock::sleep_sim or a condvar wait".to_string(),
            );
        }

        // notify-all: any call site (definitions `fn notify_all` are fine).
        if word == "notify_all" && (i == 0 || text(i - 1) != Some("fn")) {
            push(
                t.line,
                "notify-all",
                "`notify_all` broadcast wakeup: wake order becomes scheduler-dependent; prefer notify_one or justify the broadcast".to_string(),
            );
        }

        // non-det-rng.
        if RNG_IDENTS.contains(&word) {
            push(
                t.line,
                "non-det-rng",
                format!("`{word}` is a nondeterministic randomness source; use the seeded DetRng"),
            );
        }
        if word == "rand" && text(i + 1) == Some("::") {
            push(
                t.line,
                "non-det-rng",
                "`rand::…` is a nondeterministic randomness source; use the seeded DetRng"
                    .to_string(),
            );
        }

        // unranked-lock (runtime crates only).
        if check_ranks && matches!(word, "Mutex" | "RwLock" | "Condvar") {
            if text(i + 1) == Some("::") && text(i + 2) == Some("new") {
                push(
                    t.line,
                    "unranked-lock",
                    format!("raw `{word}::new` in a runtime crate; use Ranked{word} with a lock_rank constant"),
                );
            } else if i >= 1 && text(i - 1) == Some(":") {
                push(
                    t.line,
                    "unranked-lock",
                    format!("field declared as raw `{word}` in a runtime crate; use Ranked{word}"),
                );
            }
        }
        if check_ranks
            && word == "mpsc"
            && text(i + 1) == Some("::")
            && matches!(text(i + 2), Some("channel" | "sync_channel"))
        {
            push(
                t.line,
                "unranked-lock",
                "`mpsc` channel in a runtime crate: its lock is invisible to the rank checker and mtcheck; use a RankedMutex queue with a RankedCondvar".to_string(),
            );
        }
        if check_ranks
            && matches!(word, "RankedMutex" | "RankedRwLock")
            && text(i + 1) == Some("::")
            && text(i + 2) == Some("new")
            && text(i + 3) == Some("(")
            && text(i + 4) != Some("lock_rank")
        {
            push(
                t.line,
                "unranked-lock",
                format!("`{word}::new` without a `lock_rank::…` constant; every ranked lock must declare its rank at the construction site"),
            );
        }
    }
    out
}

/// Pass 1: identifiers bound to a `HashMap`/`HashSet` in this file, from
/// type annotations (`x: HashMap<…>` — fields, params, lets) and inferred
/// lets (`let [mut] x = HashMap::new()`).
fn collect_hash_idents(toks: &[Token]) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].text != "HashMap" && toks[i].text != "HashSet" {
            continue;
        }
        let prev = |k: usize| i.checked_sub(k).map(|j| toks[j].text.as_str());
        if prev(1) == Some(":") && i >= 2 && toks[i - 2].kind == TokKind::Ident {
            set.insert(toks[i - 2].text.clone());
        } else if prev(1) == Some("=") && i >= 2 && toks[i - 2].kind == TokKind::Ident {
            let binder = prev(3);
            if prev(3) == Some("let") || (binder == Some("mut") && prev(4) == Some("let")) {
                set.insert(toks[i - 2].text.clone());
            }
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        scan(path, &lexer::strip_test_regions(lexer::lex(src)))
    }

    fn rules_hit(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn btreemap_methods_are_clean() {
        let src = "struct S { m: BTreeMap<u32, u32> }\nfn f(s: &S) { for v in s.m.values() {} }";
        assert!(run("crates/core/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_field_iteration_is_flagged() {
        let src = "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) { for v in s.m.values() {} }";
        let f = run("crates/core/x.rs", src);
        assert_eq!(rules_hit(&f), ["hashmap-iter"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn hashmap_direct_for_loop_is_flagged() {
        let src = "fn f() { let mut m = HashMap::new(); m.insert(1, 2); for kv in &m {} }";
        let f = run("crates/core/x.rs", src);
        assert_eq!(rules_hit(&f), ["hashmap-iter"]);
    }

    #[test]
    fn hashmap_key_access_is_clean() {
        let src = "struct S { m: HashMap<u32, u32> }\nfn f(s: &S) -> Option<&u32> { s.m.get(&1) }";
        assert!(run("crates/core/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_and_sleep_are_flagged() {
        let src = "fn f() { let t = Instant::now(); std::thread::sleep(d); SystemTime::now(); }";
        let f = run("crates/core/x.rs", src);
        assert_eq!(rules_hit(&f), ["wall-clock", "thread-sleep", "wall-clock"]);
    }

    #[test]
    fn notify_all_definition_is_clean_call_is_flagged() {
        let src = "pub fn notify_all(&self) { self.cv.notify_all(); }";
        let f = run("crates/core/x.rs", src);
        assert_eq!(rules_hit(&f), ["notify-all"]);
    }

    #[test]
    fn rng_sources_are_flagged() {
        let src = "fn f() { let r = rand::thread_rng(); let s = StdRng::from_entropy(); }";
        let f = run("crates/core/x.rs", src);
        assert!(f.iter().all(|f| f.rule == "non-det-rng"));
        assert!(f.len() >= 3);
    }

    #[test]
    fn unranked_lock_only_in_runtime_crates() {
        let src =
            "struct S { m: Mutex<u32> }\nfn f() { let m = Mutex::new(0); let c = Condvar::new(); }";
        for krate in RANKED_CRATES {
            let hits = run(&format!("crates/{krate}/x.rs"), src);
            assert_eq!(rules_hit(&hits), ["unranked-lock"; 3], "{krate}");
        }
        assert!(run("crates/simtime/x.rs", src).is_empty());
    }

    #[test]
    fn ranked_lock_without_rank_is_flagged() {
        let ok = "static L: RankedMutex<u32> = RankedMutex::new(lock_rank::MM_STATE, 0);";
        assert!(run("crates/core/x.rs", ok).is_empty());
        let bad = "fn f() { let l = RankedMutex::new(some_rank(), 0); }";
        assert_eq!(rules_hit(&run("crates/core/x.rs", bad)), ["unranked-lock"]);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn f() { Instant::now(); cv.notify_all(); } }";
        assert!(run("crates/core/x.rs", src).is_empty());
    }
}
