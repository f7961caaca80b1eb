//! The reachability pass: scope every rule by the call graph, then run
//! the per-line sink checks of [`crate::source`] inside the reachable
//! function spans.
//!
//! This is the composition point of the crate. [`Analysis::new`] scans
//! and parses every graph-eligible file once ([`in_graph`] excludes
//! tests, benches, examples, fixtures and the vendored shims — the
//! trust boundary); [`Analysis::check`] then walks one BFS per rule from
//! the `entry(<class>)`-declared entry points, pruning at
//! `trusted(<rule>)` functions, and scans exactly the lines whose
//! innermost enclosing function is reachable. Every finding carries the
//! enclosing function's key and the shortest entry→function call chain
//! that proves the rule applies; [`Analysis::why`] answers the same
//! question interactively.

use crate::diagnostics::Diagnostic;
use crate::model::{parse_file, FileModel};
use crate::rules::{self, Rule};
use crate::scan::{scan, tokens, DirectiveKind, Scanned};
use crate::source::{
    blocking_io_sinks, cast_sinks, index_sinks, iteration_sinks, panic_sinks, rng_env_sinks,
    tracked_hash_names, wallclock_sinks,
};
use crate::Graph;
use std::collections::BTreeSet;

/// Whether a workspace-relative path participates in the call graph.
/// Test/bench/example/fixture trees, the vendored shims and the
/// `perfbench` harness (a package of its own that times the program
/// with wall clocks by design) are outside the trust boundary: they are
/// neither entry points nor sinks.
pub fn in_graph(rel_path: &str) -> bool {
    !rel_path.split('/').any(|seg| {
        matches!(
            seg,
            "tests" | "benches" | "examples" | "fixtures" | "target" | "shims" | "perfbench"
        ) || seg.starts_with('.')
    })
}

/// A fully scanned and parsed workspace, ready for reachability passes.
pub struct Analysis {
    scanned: Vec<Scanned>,
    toks: Vec<Vec<Vec<String>>>,
    hashes: Vec<BTreeSet<String>>,
    models: Vec<FileModel>,
}

impl Analysis {
    /// Scan and parse every graph-eligible `(rel_path, content)` file.
    pub fn new(files: &[(String, String)]) -> Analysis {
        let mut scanned = Vec::new();
        let mut toks = Vec::new();
        let mut hashes = Vec::new();
        let mut models = Vec::new();
        for (rel, content) in files {
            if !in_graph(rel) {
                continue;
            }
            let s = scan(content);
            let t: Vec<Vec<String>> = s.lines.iter().map(|l| tokens(&l.code)).collect();
            hashes.push(tracked_hash_names(&s.lines, &t));
            models.push(parse_file(rel, &s));
            scanned.push(s);
            toks.push(t);
        }
        Analysis {
            scanned,
            toks,
            hashes,
            models,
        }
    }

    /// Run every rule. With `respect_pragmas` off, `allow(...)`
    /// suppression is ignored and the meta rules (`unused-allow`,
    /// `bad-directive`) are skipped — the raw-finding mode the superset
    /// tests compare against the legacy oracle.
    pub fn check(&self, respect_pragmas: bool) -> Vec<Diagnostic> {
        let graph = Graph::build(&self.models);
        let mut out = Vec::new();
        // `(file idx, 1-based line, rule id)` of every allow that
        // suppressed (or would suppress) a finding.
        let mut used_allows: BTreeSet<(usize, usize, String)> = BTreeSet::new();

        for rule in rules::ALL.iter().filter(|r| !r.classes.is_empty()) {
            self.check_graph_rule(rule, &graph, respect_pragmas, &mut used_allows, &mut out);
        }
        self.check_declared_casts(respect_pragmas, &mut used_allows, &mut out);
        if respect_pragmas {
            self.check_directives(&used_allows, &mut out);
        }
        out
    }

    /// One reachability rule: BFS from its classes' entry points, then
    /// sink-scan the lines of reachable functions.
    fn check_graph_rule(
        &self,
        rule: &Rule,
        graph: &Graph<'_>,
        respect_pragmas: bool,
        used_allows: &mut BTreeSet<(usize, usize, String)>,
        out: &mut Vec<Diagnostic>,
    ) {
        let entries: Vec<crate::NodeId> = graph
            .node_ids()
            .filter(|&id| {
                graph
                    .fn_def(id)
                    .entries
                    .iter()
                    .any(|c| rule.classes.contains(&c.as_str()))
            })
            .collect();
        let parents = graph.reachable(&entries, |id| {
            graph.fn_def(id).trusted.iter().any(|t| t == rule.id)
        });
        for (fi, model) in self.models.iter().enumerate() {
            let trusted_file = model.trusted_file.iter().any(|t| t == rule.id);
            // `trusted-file` sanctions a file's sinks wholesale — except
            // for the wall-clock rule, where it only sanctions
            // `Instant::now` (the self-timing idiom); `SystemTime::now`
            // is never sanctionable by file.
            if trusted_file && rule.id != "wallclock-in-detector" {
                continue;
            }
            let panic_index = model.scopes.iter().any(|s| s == "panic-index");
            for (li, line) in self.scanned[fi].lines.iter().enumerate() {
                if line.in_test {
                    continue;
                }
                let Some(gi) = model.line_fn[li] else {
                    continue;
                };
                let Some(node) = graph.node_of(fi, gi) else {
                    continue;
                };
                if !parents.contains_key(&node.0) {
                    continue;
                }
                let tk = &self.toks[fi][li];
                if tk.is_empty() {
                    continue;
                }
                let msgs = match rule.id {
                    "nondeterministic-iteration" => iteration_sinks(tk, &self.hashes[fi]),
                    "panic-in-shard" => {
                        let mut m = panic_sinks(tk);
                        if panic_index {
                            m.extend(index_sinks(tk));
                        }
                        m
                    }
                    "wallclock-in-detector" => wallclock_sinks(tk, !trusted_file),
                    "rng-env-in-detector" => rng_env_sinks(tk),
                    "blocking-io-in-actor" => blocking_io_sinks(tk),
                    _ => Vec::new(),
                };
                if msgs.is_empty() {
                    continue;
                }
                if line.allow.iter().any(|a| a == rule.id) {
                    used_allows.insert((fi, li + 1, rule.id.to_string()));
                    if respect_pragmas {
                        continue;
                    }
                }
                let chain: Vec<String> = graph
                    .chain(&parents, node)
                    .into_iter()
                    .map(|id| graph.label(id))
                    .collect();
                for message in msgs {
                    let mut d =
                        Diagnostic::new(rule.id, rule.severity, &model.file, li + 1, message);
                    d.fn_key = model.fns[gi].key();
                    d.chain = chain.clone();
                    out.push(d);
                }
            }
        }
    }

    /// The declared-scope cast rule: every non-test line of a
    /// `scope(lossy-time-cast)` file, no reachability precondition (the
    /// hazard is in the module's arithmetic, not a call path).
    fn check_declared_casts(
        &self,
        respect_pragmas: bool,
        used_allows: &mut BTreeSet<(usize, usize, String)>,
        out: &mut Vec<Diagnostic>,
    ) {
        let rule = rules::LOSSY_TIME_CAST;
        for (fi, model) in self.models.iter().enumerate() {
            if !model.scopes.iter().any(|s| s == rule.id)
                || model.trusted_file.iter().any(|t| t == rule.id)
            {
                continue;
            }
            for (li, line) in self.scanned[fi].lines.iter().enumerate() {
                if line.in_test {
                    continue;
                }
                let msgs = cast_sinks(&self.toks[fi][li]);
                if msgs.is_empty() {
                    continue;
                }
                if line.allow.iter().any(|a| a == rule.id) {
                    used_allows.insert((fi, li + 1, rule.id.to_string()));
                    if respect_pragmas {
                        continue;
                    }
                }
                for message in msgs {
                    let mut d =
                        Diagnostic::new(rule.id, rule.severity, &model.file, li + 1, message);
                    if let Some(gi) = model.line_fn[li] {
                        d.fn_key = model.fns[gi].key();
                    }
                    out.push(d);
                }
            }
        }
    }

    /// The meta rules: malformed directives and dead `allow` pragmas.
    fn check_directives(
        &self,
        used_allows: &BTreeSet<(usize, usize, String)>,
        out: &mut Vec<Diagnostic>,
    ) {
        let bad = |file: &str, line: usize, why: String| {
            Diagnostic::new(
                rules::BAD_DIRECTIVE.id,
                rules::BAD_DIRECTIVE.severity,
                file,
                line,
                why,
            )
        };
        for (fi, model) in self.models.iter().enumerate() {
            for (line, why) in &model.bad_directives {
                out.push(bad(&model.file, *line, why.clone()));
            }
            for d in &self.scanned[fi].directives {
                if d.args.is_empty() {
                    if !matches!(d.kind, DirectiveKind::Unknown(_)) {
                        out.push(bad(
                            &model.file,
                            d.line,
                            "directive has no arguments".into(),
                        ));
                    }
                    continue;
                }
                match &d.kind {
                    DirectiveKind::Allow | DirectiveKind::Trusted | DirectiveKind::TrustedFile => {
                        for arg in &d.args {
                            if rules::by_id(arg).is_none() {
                                out.push(bad(&model.file, d.line, format!("unknown rule `{arg}`")));
                            }
                        }
                    }
                    DirectiveKind::Scope => {
                        for arg in &d.args {
                            if !rules::DECLARED_SCOPES.contains(&arg.as_str()) {
                                out.push(bad(
                                    &model.file,
                                    d.line,
                                    format!("unknown declared scope `{arg}`"),
                                ));
                            }
                        }
                    }
                    DirectiveKind::Entry => {
                        for arg in &d.args {
                            if !rules::ENTRY_CLASSES.contains(&arg.as_str()) {
                                out.push(bad(
                                    &model.file,
                                    d.line,
                                    format!("unknown entry class `{arg}`"),
                                ));
                            }
                        }
                    }
                    DirectiveKind::Unknown(_) => {} // already in bad_directives
                }
                if d.kind == DirectiveKind::Allow {
                    let target = pragma_target_line(&self.scanned[fi], d.line);
                    for arg in &d.args {
                        if rules::by_id(arg).is_none() {
                            continue; // already reported as bad-directive
                        }
                        let hit =
                            target.is_some_and(|t| used_allows.contains(&(fi, t, arg.clone())));
                        if !hit {
                            out.push(Diagnostic::new(
                                rules::UNUSED_ALLOW.id,
                                rules::UNUSED_ALLOW.severity,
                                &model.file,
                                d.line,
                                format!(
                                    "`allow({arg})` suppresses nothing — the finding it silenced is gone; remove the pragma"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Explain why `rule_id` applies to `target` (a function name or
    /// `Owner::name` key): the shortest entry→target call chain, as
    /// `file:line key` hops. Errors are human-readable explanations.
    pub fn why(&self, rule_id: &str, target: &str) -> Result<Vec<String>, String> {
        let rule = rules::by_id(rule_id).ok_or_else(|| format!("unknown rule `{rule_id}`"))?;
        if rule.classes.is_empty() {
            return Err(format!(
                "rule `{rule_id}` is not reachability-scoped (it uses declared scopes); \
                 `why` explains graph rules"
            ));
        }
        let graph = Graph::build(&self.models);
        let entries: Vec<crate::NodeId> = graph
            .node_ids()
            .filter(|&id| {
                graph
                    .fn_def(id)
                    .entries
                    .iter()
                    .any(|c| rule.classes.contains(&c.as_str()))
            })
            .collect();
        if entries.is_empty() {
            return Err(format!(
                "no entry points declare any of the classes {:?}",
                rule.classes
            ));
        }
        let matches: Vec<crate::NodeId> = graph
            .node_ids()
            .filter(|&id| {
                let f = graph.fn_def(id);
                f.key() == target || f.name == target
            })
            .collect();
        if matches.is_empty() {
            return Err(format!("no function named `{target}` in the call graph"));
        }
        let parents = graph.reachable(&entries, |id| {
            graph.fn_def(id).trusted.iter().any(|t| t == rule_id)
        });
        for &id in &matches {
            if parents.contains_key(&id.0) {
                return Ok(graph
                    .chain(&parents, id)
                    .into_iter()
                    .map(|n| graph.label(n))
                    .collect());
            }
        }
        Err(format!(
            "`{target}` is not reachable from any {:?} entry point — `{rule_id}` does not apply to it",
            rule.classes
        ))
    }
}

/// The code line an `allow` pragma on `directive_line` applies to: its
/// own line when that line carries code, otherwise the next
/// code-carrying line (mirroring [`crate::scan`]'s pragma resolution).
fn pragma_target_line(scanned: &Scanned, directive_line: usize) -> Option<usize> {
    scanned
        .lines
        .iter()
        .enumerate()
        .skip(directive_line - 1)
        .find(|(_, l)| !l.code.trim().is_empty())
        .map(|(idx, _)| idx + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(p, c)| (p.to_string(), c.to_string()))
            .collect()
    }

    fn check(list: &[(&str, &str)]) -> Vec<Diagnostic> {
        Analysis::new(&files(list)).check(true)
    }

    const ENTRY_FILE: &str = "crates/x/src/lib.rs";

    #[test]
    fn sink_reachable_from_entry_is_found_with_chain() {
        let d = check(&[(
            ENTRY_FILE,
            "// stale-lint: entry(shard)\n\
             fn shard_body() { helper(); }\n\
             fn helper() { x.unwrap(); }\n\
             fn unreached() { y.unwrap(); }\n",
        )]);
        let panics: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "panic-in-shard").collect();
        assert_eq!(panics.len(), 1, "{d:?}");
        assert_eq!(panics[0].line, 3);
        assert_eq!(panics[0].fn_key, "helper");
        assert_eq!(
            panics[0].chain,
            vec![
                format!("{ENTRY_FILE}:2 shard_body"),
                format!("{ENTRY_FILE}:3 helper"),
            ]
        );
    }

    #[test]
    fn trusted_fn_prunes_and_trusted_file_sanctions_instant_only() {
        let d = check(&[(
            ENTRY_FILE,
            "// stale-lint: trusted-file(wallclock-in-detector)\n\
             // stale-lint: entry(shard)\n\
             fn shard_body() { boundary(); timed(); }\n\
             // stale-lint: trusted(panic-in-shard)\n\
             fn boundary() { x.unwrap(); }\n\
             fn timed() { let t = Instant::now(); let s = SystemTime::now(); }\n",
        )]);
        assert!(
            !d.iter().any(|d| d.rule == "panic-in-shard"),
            "trusted fn prunes its subtree: {d:?}"
        );
        let wall: Vec<&Diagnostic> = d
            .iter()
            .filter(|d| d.rule == "wallclock-in-detector")
            .collect();
        assert_eq!(wall.len(), 1, "SystemTime survives trusted-file: {d:?}");
        assert!(wall[0].message.contains("SystemTime"));
    }

    #[test]
    fn cross_file_reachability_and_test_exclusion() {
        let d = check(&[
            (
                "crates/a/src/lib.rs",
                "// stale-lint: entry(serial)\n\
                 fn render() { util::emit(); }\n",
            ),
            (
                "crates/b/src/util.rs",
                "fn emit() { rows.iter(); }\n\
                 struct S { rows: HashMap<u32, u32> }\n\
                 fn emit2() { for r in &rows {} }\n\
                 #[cfg(test)]\n\
                 mod tests { fn t() { rows.iter(); } }\n",
            ),
            ("crates/b/tests/integration.rs", "fn t() { rows.iter(); }\n"),
        ]);
        let iter: Vec<&Diagnostic> = d
            .iter()
            .filter(|d| d.rule == "nondeterministic-iteration")
            .collect();
        assert_eq!(iter.len(), 1, "{d:?}");
        assert_eq!(iter[0].file, "crates/b/src/util.rs");
        assert_eq!(iter[0].line, 1, "emit2 is unreached, tests excluded");
    }

    #[test]
    fn panic_index_scope_widens_only_declaring_files() {
        let src = |scope: &str| {
            format!(
                "{scope}// stale-lint: entry(shard)\n\
                 fn body() {{ let x = v[i]; }}\n"
            )
        };
        let with = check(&[(ENTRY_FILE, &src("// stale-lint: scope(panic-index)\n"))]);
        assert_eq!(
            with.iter().filter(|d| d.rule == "panic-in-shard").count(),
            1,
            "{with:?}"
        );
        let without = check(&[(ENTRY_FILE, &src(""))]);
        assert!(!without.iter().any(|d| d.rule == "panic-in-shard"));
    }

    #[test]
    fn new_rules_fire_on_their_classes_only() {
        let d = check(&[(
            ENTRY_FILE,
            "// stale-lint: entry(actor)\n\
             fn actor_loop() { fs::write(p, b); thread_rng(); }\n\
             // stale-lint: entry(shard)\n\
             fn shard_body() { env::var(\"X\"); File::open(p); }\n",
        )]);
        let by_rule = |r: &str| d.iter().filter(|d| d.rule == r).count();
        // actor: blocking-io fires, rng-env does not (actor is not a
        // deterministic class).
        assert_eq!(by_rule("blocking-io-in-actor"), 1, "{d:?}");
        assert_eq!(by_rule("rng-env-in-detector"), 1, "{d:?}");
        let io = d.iter().find(|d| d.rule == "blocking-io-in-actor").unwrap();
        assert_eq!(io.fn_key, "actor_loop");
        let rng = d.iter().find(|d| d.rule == "rng-env-in-detector").unwrap();
        assert_eq!(rng.fn_key, "shard_body");
    }

    #[test]
    fn allow_suppresses_and_unused_allow_fires() {
        let d = check(&[(
            ENTRY_FILE,
            "// stale-lint: entry(shard)\n\
             fn body() {\n\
                 x.unwrap(); // stale-lint: allow(panic-in-shard)\n\
                 clean(); // stale-lint: allow(panic-in-shard)\n\
             }\n\
             fn clean() {}\n",
        )]);
        assert!(!d.iter().any(|d| d.rule == "panic-in-shard"), "{d:?}");
        let unused: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "unused-allow").collect();
        assert_eq!(unused.len(), 1, "{d:?}");
        assert_eq!(unused[0].line, 4);
    }

    #[test]
    fn raw_mode_ignores_allows_and_meta_rules() {
        let analysis = Analysis::new(&files(&[(
            ENTRY_FILE,
            "// stale-lint: entry(shard)\n\
             fn body() {\n\
                 x.unwrap(); // stale-lint: allow(panic-in-shard)\n\
                 dead(); // stale-lint: allow(panic-in-shard)\n\
             }\n\
             fn dead() {}\n",
        )]));
        let raw = analysis.check(false);
        assert_eq!(raw.iter().filter(|d| d.rule == "panic-in-shard").count(), 1);
        assert!(!raw.iter().any(|d| d.rule == "unused-allow"));
    }

    #[test]
    fn bad_directives_are_reported() {
        let d = check(&[(
            ENTRY_FILE,
            "// stale-lint: entry(warp)\n\
             fn f() {}\n\
             // stale-lint: frobnicate(x)\n\
             // stale-lint: allow(no-such-rule)\n\
             fn g() {}\n\
             // stale-lint: scope(panic-in-shard)\n",
        )]);
        let bad: Vec<&str> = d
            .iter()
            .filter(|d| d.rule == "bad-directive")
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(bad.len(), 4, "{d:?}");
        assert!(bad.iter().any(|m| m.contains("unknown entry class `warp`")));
        assert!(bad
            .iter()
            .any(|m| m.contains("unknown directive `frobnicate`")));
        assert!(bad
            .iter()
            .any(|m| m.contains("unknown rule `no-such-rule`")));
        assert!(bad
            .iter()
            .any(|m| m.contains("unknown declared scope `panic-in-shard`")));
    }

    #[test]
    fn declared_cast_scope_needs_no_entry() {
        let d = check(&[(
            "crates/t/src/time.rs",
            "// stale-lint: scope(lossy-time-cast)\n\
             fn days(x: i64) -> u8 { x as u8 }\n",
        )]);
        let casts: Vec<&Diagnostic> = d.iter().filter(|d| d.rule == "lossy-time-cast").collect();
        assert_eq!(casts.len(), 1, "{d:?}");
        assert_eq!(casts[0].fn_key, "days");
    }

    #[test]
    fn why_explains_chains_and_unreachability() {
        let analysis = Analysis::new(&files(&[(
            ENTRY_FILE,
            "// stale-lint: entry(shard)\n\
             fn shard_body() { mid(); }\n\
             fn mid() { leaf(); }\n\
             fn leaf() {}\n\
             fn island() {}\n",
        )]));
        let chain = analysis.why("panic-in-shard", "leaf").unwrap();
        assert_eq!(
            chain,
            vec![
                format!("{ENTRY_FILE}:2 shard_body"),
                format!("{ENTRY_FILE}:3 mid"),
                format!("{ENTRY_FILE}:4 leaf"),
            ]
        );
        assert!(analysis
            .why("panic-in-shard", "island")
            .unwrap_err()
            .contains("not reachable"));
        assert!(analysis
            .why("no-rule", "leaf")
            .unwrap_err()
            .contains("unknown rule"));
        assert!(analysis
            .why("lossy-time-cast", "leaf")
            .unwrap_err()
            .contains("not reachability-scoped"));
    }
}
