//! The workspace item model: a lightweight Rust item parser extracting
//! `fn` items, their `impl`/`trait` owners and their outgoing calls from
//! a scanned file — the nodes and edge candidates of the
//! [`crate::graph`] call graph.
//!
//! Like the rest of the crate this is hand-rolled and dependency-free:
//! it parses exactly the subset of Rust the reachability passes need
//! (function boundaries, owners, call sites, directives), not the whole
//! grammar. Where the grammar is ambiguous the parser errs toward
//! *over-approximation* — recording a call edge that might not exist is
//! safe (a finding can be reviewed), missing one is not (a sink goes
//! unproven).

use crate::scan::{tokens, Directive, DirectiveKind, Scanned};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee name (last path segment).
    pub name: String,
    /// Path qualifier directly before `::name` (`Type`, `module`,
    /// `Self`), or `self` for `self.name(…)` method calls.
    pub qualifier: Option<String>,
    /// Whether this is a `.name(…)` method call.
    pub method: bool,
    /// 1-based source line.
    pub line: usize,
}

/// One `fn` item (free function, impl method or trait default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// `impl`/`trait` owner type name, `None` for free functions.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based last line of the body (== `line` for bodyless
    /// signatures).
    pub end_line: usize,
    /// Whether the item sits inside `#[cfg(test)]` code.
    pub is_test: bool,
    /// `entry(<class>)` classes declared directly above the item.
    pub entries: Vec<String>,
    /// `trusted(<rule>)` rule ids declared directly above the item.
    pub trusted: Vec<String>,
    /// Outgoing call sites in the body.
    pub calls: Vec<Call>,
}

impl FnDef {
    /// The stable key used in findings, baselines and `why` lookups:
    /// `Owner::name` for methods, bare `name` for free functions.
    pub fn key(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed file: its functions plus file-level declarations.
#[derive(Debug, Clone, Default)]
pub struct FileModel {
    /// Path relative to the scanned root, `/`-separated.
    pub file: String,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnDef>,
    /// Innermost enclosing function per line (index into `fns`),
    /// index 0 = source line 1.
    pub line_fn: Vec<Option<usize>>,
    /// Rules this file declares itself in scope for (`scope(...)`).
    pub scopes: Vec<String>,
    /// Rules whose sinks are sanctioned file-wide (`trusted-file(...)`).
    pub trusted_file: Vec<String>,
    /// Malformed directives: unknown names, unknown args, or
    /// `entry`/`trusted` with no following `fn` (line, explanation).
    pub bad_directives: Vec<(usize, String)>,
}

impl FileModel {
    /// The functions named `name` (or keyed `Owner::name`).
    pub fn find(&self, name: &str) -> Vec<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.name == name || f.key() == name)
            .collect()
    }
}

/// Keywords that can never be a call-site name or an indexed base.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "async", "await", "box", "union",
];

fn is_keyword(t: &str) -> bool {
    KEYWORDS.contains(&t)
}

fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Parse one scanned file into its item model.
pub fn parse_file(rel_path: &str, scanned: &Scanned) -> FileModel {
    // Flatten to (line_idx_0based, token), skipping attribute contents
    // (`#[...]`) so `#[derive(Clone)]` never reads as a call.
    let per_line: Vec<Vec<String>> = scanned.lines.iter().map(|l| tokens(&l.code)).collect();
    let mut flat: Vec<(usize, String)> = Vec::new();
    for (idx, toks) in per_line.iter().enumerate() {
        for t in toks {
            flat.push((idx, t.clone()));
        }
    }
    let flat = skip_attributes(flat);

    let mut model = FileModel {
        file: rel_path.to_string(),
        line_fn: vec![None; scanned.lines.len()],
        ..FileModel::default()
    };

    // File-level directives.
    for d in &scanned.directives {
        match &d.kind {
            DirectiveKind::Scope => model.scopes.extend(d.args.iter().cloned()),
            DirectiveKind::TrustedFile => model.trusted_file.extend(d.args.iter().cloned()),
            DirectiveKind::Unknown(name) => model
                .bad_directives
                .push((d.line, format!("unknown directive `{name}`"))),
            _ => {}
        }
    }

    // Context stacks: impl/trait owners and open fns, each tagged with
    // the brace depth at which their block opened.
    let mut depth = 0usize;
    let mut owners: Vec<(String, usize)> = Vec::new();
    let mut open_fns: Vec<(usize, usize)> = Vec::new(); // (fn index, open depth)
    let mut pending_owner: Option<String> = None;

    let mut i = 0;
    while i < flat.len() {
        let (line_idx, tok) = (&flat[i].0, flat[i].1.as_str());
        let line_idx = *line_idx;
        // Record the innermost enclosing fn for this token's line.
        if let Some(&(fn_idx, _)) = open_fns.last() {
            model.line_fn[line_idx] = Some(fn_idx);
            model.fns[fn_idx].end_line = line_idx + 1;
        }
        match tok {
            "{" => {
                depth += 1;
                if let Some(owner) = pending_owner.take() {
                    owners.push((owner, depth));
                }
                i += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                while owners.last().is_some_and(|&(_, d)| d > depth) {
                    owners.pop();
                }
                while open_fns.last().is_some_and(|&(_, d)| d > depth) {
                    let (fn_idx, _) = open_fns.pop().unwrap_or_default();
                    model.fns[fn_idx].end_line = line_idx + 1;
                }
                i += 1;
            }
            "impl" | "trait" => {
                let (owner, next) = parse_owner(&flat, i);
                pending_owner = owner;
                i = next;
            }
            "fn" => {
                let Some((_, name)) = flat.get(i + 1) else {
                    i += 1;
                    continue;
                };
                if !is_ident(name) {
                    i += 1;
                    continue;
                }
                let def = FnDef {
                    name: name.clone(),
                    owner: owners.last().map(|(o, _)| o.clone()),
                    line: line_idx + 1,
                    end_line: line_idx + 1,
                    is_test: scanned.lines.get(line_idx).is_some_and(|l| l.in_test),
                    entries: Vec::new(),
                    trusted: Vec::new(),
                    calls: Vec::new(),
                };
                let fn_idx = model.fns.len();
                model.fns.push(def);
                // Walk the signature to its body `{` or terminating `;`.
                let (has_body, next) = skip_signature(&flat, i + 2);
                if has_body {
                    depth += 1;
                    open_fns.push((fn_idx, depth));
                }
                i = next;
            }
            _ => {
                if let Some(&(fn_idx, _)) = open_fns.last() {
                    if let Some(call) = call_at(&flat, i) {
                        model.fns[fn_idx].calls.push(call);
                    }
                }
                i += 1;
            }
        }
    }
    // Close any fn left open by unbalanced input.
    while let Some((fn_idx, _)) = open_fns.pop() {
        model.fns[fn_idx].end_line = scanned.lines.len();
    }

    attach_fn_directives(&mut model, &scanned.directives);
    model
}

/// Drop `#[...]` attribute token runs from the flattened stream.
fn skip_attributes(flat: Vec<(usize, String)>) -> Vec<(usize, String)> {
    let mut out = Vec::with_capacity(flat.len());
    let mut i = 0;
    while i < flat.len() {
        if flat[i].1 == "#" && flat.get(i + 1).is_some_and(|(_, t)| t == "[" || t == "!") {
            // `#[...]` or `#![...]`: skip to the matching `]`.
            let mut j = i + 1;
            if flat[j].1 == "!" {
                j += 1;
            }
            if flat.get(j).is_some_and(|(_, t)| t == "[") {
                let mut bdepth = 0usize;
                while j < flat.len() {
                    match flat[j].1.as_str() {
                        "[" => bdepth += 1,
                        "]" => {
                            bdepth -= 1;
                            if bdepth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        out.push(flat[i].clone());
        i += 1;
    }
    out
}

/// Parse the owner of an `impl`/`trait` header starting at `flat[at]`
/// (the keyword itself). Returns the owner type name (the `for` target
/// when present, else the first type path's last segment) and the index
/// of the opening `{` (or wherever parsing stopped).
fn parse_owner(flat: &[(usize, String)], at: usize) -> (Option<String>, usize) {
    let mut i = at + 1;
    let mut before_for: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut angle = 0usize;
    while i < flat.len() {
        let t = flat[i].1.as_str();
        match t {
            "<" => angle += 1,
            ">" => angle = angle.saturating_sub(1),
            "{" | ";" if angle == 0 => break,
            "where" if angle == 0 => {
                // Skip the where clause to the `{`.
                while i < flat.len() && flat[i].1 != "{" {
                    i += 1;
                }
                break;
            }
            "for" if angle == 0 => saw_for = true,
            t if angle == 0 && is_ident(t) && !is_keyword(t) => {
                if saw_for {
                    after_for = Some(t.to_string());
                } else {
                    before_for = Some(t.to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    (after_for.or(before_for), i)
}

/// Walk a `fn` signature from just past the name to its `{` body open or
/// `;` terminator. Returns (has_body, index just past the `{`/`;`).
fn skip_signature(flat: &[(usize, String)], mut i: usize) -> (bool, usize) {
    let mut angle = 0usize;
    let mut paren = 0usize;
    while i < flat.len() {
        match flat[i].1.as_str() {
            "<" => angle += 1,
            ">" => angle = angle.saturating_sub(1),
            "(" | "[" => paren += 1,
            ")" | "]" => paren = paren.saturating_sub(1),
            "{" if angle == 0 && paren == 0 => return (true, i + 1),
            ";" if angle == 0 && paren == 0 => return (false, i + 1),
            _ => {}
        }
        i += 1;
    }
    (false, i)
}

/// Recognise a call site at `flat[i]`: `name(`, `path::name(`,
/// `recv.name(`, including `name::<T>(` turbofish forms. Macro
/// invocations (`name!`) are not calls.
fn call_at(flat: &[(usize, String)], i: usize) -> Option<Call> {
    let (line_idx, tok) = flat.get(i).map(|(l, t)| (*l, t.as_str()))?;
    if !is_ident(tok) || is_keyword(tok) {
        return None;
    }
    // The token after the name: `(` directly, or a `::<…>` turbofish
    // then `(`.
    let mut j = i + 1;
    if flat.get(j).map(|(_, t)| t.as_str()) == Some("::")
        && flat.get(j + 1).map(|(_, t)| t.as_str()) == Some("<")
    {
        let mut angle = 0usize;
        j += 1;
        while j < flat.len() {
            match flat[j].1.as_str() {
                "<" => angle += 1,
                ">" => {
                    angle -= 1;
                    if angle == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j += 1;
    }
    if flat.get(j).map(|(_, t)| t.as_str()) != Some("(") {
        return None;
    }
    // Macro? `name!(…)` never reaches here (the `!` breaks adjacency),
    // but check the *previous* token to classify the call.
    let prev = i.checked_sub(1).map(|p| flat[p].1.as_str());
    match prev {
        Some("!") => None, // `macro_rules!`-style declaration heads
        Some(".") => {
            let receiver = i.checked_sub(2).map(|p| flat[p].1.as_str());
            let qualifier = match receiver {
                Some("self") if i.checked_sub(3).map(|p| flat[p].1.as_str()) != Some(".") => {
                    Some("self".to_string())
                }
                _ => None,
            };
            Some(Call {
                name: tok.to_string(),
                qualifier,
                method: true,
                line: line_idx + 1,
            })
        }
        Some("::") => {
            // Walk back over a `::<…>` turbofish so `Vec::<U>::new()`
            // still yields the `Vec` qualifier.
            let mut p = i.checked_sub(2);
            if let Some(mut k) = p.filter(|&k| flat[k].1 == ">") {
                let mut angle = 0usize;
                loop {
                    match flat[k].1.as_str() {
                        ">" => angle += 1,
                        "<" => {
                            angle -= 1;
                            if angle == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    let Some(prev) = k.checked_sub(1) else {
                        break;
                    };
                    k = prev;
                }
                p = k
                    .checked_sub(1)
                    .filter(|&q| flat[q].1 == "::")
                    .and_then(|q| q.checked_sub(1));
            }
            let qualifier = p
                .map(|p| flat[p].1.as_str())
                .filter(|t| is_ident(t))
                .map(|t| t.to_string());
            Some(Call {
                name: tok.to_string(),
                qualifier,
                method: false,
                line: line_idx + 1,
            })
        }
        Some("fn") => None, // a definition, not a call
        _ => Some(Call {
            name: tok.to_string(),
            qualifier: None,
            method: false,
            line: line_idx + 1,
        }),
    }
}

/// Attach `entry`/`trusted` directives to the next `fn` item at or
/// below their comment line; directives with no following item are
/// recorded as bad.
fn attach_fn_directives(model: &mut FileModel, directives: &[Directive]) {
    for d in directives {
        let (kind, label) = match &d.kind {
            DirectiveKind::Entry => (DirectiveKind::Entry, "entry"),
            DirectiveKind::Trusted => (DirectiveKind::Trusted, "trusted"),
            _ => continue,
        };
        let target = model
            .fns
            .iter_mut()
            .filter(|f| f.line >= d.line)
            .min_by_key(|f| f.line);
        match target {
            Some(f) => match kind {
                DirectiveKind::Entry => f.entries.extend(d.args.iter().cloned()),
                _ => f.trusted.extend(d.args.iter().cloned()),
            },
            None => model
                .bad_directives
                .push((d.line, format!("`{label}(…)` has no following `fn` item"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn model(src: &str) -> FileModel {
        parse_file("crates/x/src/lib.rs", &scan(src))
    }

    #[test]
    fn free_fns_methods_and_trait_methods_get_owners() {
        let src = "fn free() { helper(); }\n\
                   struct S;\n\
                   impl S {\n\
                       fn method(&self) { self.other(); }\n\
                       fn other(&self) {}\n\
                   }\n\
                   trait T {\n\
                       fn provided(&self) { free(); }\n\
                   }\n\
                   impl T for S {\n\
                       fn provided(&self) {}\n\
                   }\n";
        let m = model(src);
        let keys: Vec<String> = m.fns.iter().map(|f| f.key()).collect();
        assert_eq!(
            keys,
            [
                "free",
                "S::method",
                "S::other",
                "T::provided",
                "S::provided"
            ]
        );
        assert_eq!(m.fns[0].calls[0].name, "helper");
        assert_eq!(m.fns[1].calls[0].qualifier.as_deref(), Some("self"));
        assert!(m.fns[1].calls[0].method);
    }

    #[test]
    fn nested_fns_own_their_lines_and_calls() {
        let src = "fn outer() {\n\
                       fn inner() { deep(); }\n\
                       inner();\n\
                   }\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 2);
        let outer = &m.fns[0];
        let inner = &m.fns[1];
        assert_eq!(inner.calls[0].name, "deep");
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "inner");
        assert_eq!(m.line_fn[1], Some(1), "inner's body line belongs to inner");
        assert_eq!(m.line_fn[2], Some(0));
    }

    #[test]
    fn generics_where_clauses_and_turbofish() {
        let src = "fn gen<T: Clone, U>(x: T) -> Vec<U> where U: Default {\n\
                       let v = Vec::<U>::new();\n\
                       collect::<Vec<_>>();\n\
                       v\n\
                   }\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 1);
        let names: Vec<&str> = m.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["new", "collect"]);
        assert_eq!(m.fns[0].calls[0].qualifier.as_deref(), Some("Vec"));
    }

    #[test]
    fn macro_bodies_yield_calls_but_macro_names_do_not() {
        let src = "fn f() {\n\
                       let s = format!(\"{}\", table4());\n\
                       assert_eq!(g(), 3);\n\
                   }\n";
        let m = model(src);
        let names: Vec<&str> = m.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["table4", "g"]);
    }

    #[test]
    fn attributes_are_not_calls_and_cfg_test_is_marked() {
        let src = "#[derive(Clone, Debug)]\n\
                   struct S;\n\
                   fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() { prod(); }\n\
                   }\n";
        let m = model(src);
        assert_eq!(m.fns.len(), 2);
        assert!(!m.fns[0].is_test);
        assert!(m.fns[1].is_test);
    }

    #[test]
    fn directives_attach_to_next_fn_and_file() {
        let src = "// stale-lint: scope(lossy-time-cast)\n\
                   // stale-lint: trusted-file(wallclock-in-detector)\n\
                   // stale-lint: entry(shard)\n\
                   fn shard_body() {}\n\
                   // stale-lint: trusted(blocking-io-in-actor)\n\
                   fn save() {}\n\
                   // stale-lint: entry(orphan)\n";
        let m = model(src);
        assert_eq!(m.scopes, ["lossy-time-cast"]);
        assert_eq!(m.trusted_file, ["wallclock-in-detector"]);
        assert_eq!(m.fns[0].entries, ["shard"]);
        assert_eq!(m.fns[1].trusted, ["blocking-io-in-actor"]);
        assert_eq!(m.bad_directives.len(), 1, "{:?}", m.bad_directives);
    }

    #[test]
    fn impl_for_owner_is_the_implementing_type() {
        let src = "impl<'a> Display for Wrapper<'a> {\n\
                       fn fmt(&self) { self.render(); }\n\
                   }\n";
        let m = model(src);
        assert_eq!(m.fns[0].key(), "Wrapper::fmt");
    }

    #[test]
    fn path_calls_carry_their_qualifier() {
        let src = "fn f() {\n\
                       key_compromise::merge_shards();\n\
                       Self::helper();\n\
                       obs::Registry::new();\n\
                   }\n";
        let m = model(src);
        let c = &m.fns[0].calls;
        assert_eq!(
            (c[0].name.as_str(), c[0].qualifier.as_deref()),
            ("merge_shards", Some("key_compromise"))
        );
        assert_eq!(c[1].qualifier.as_deref(), Some("Self"));
        assert_eq!(
            (c[2].name.as_str(), c[2].qualifier.as_deref()),
            ("new", Some("Registry"))
        );
    }
}
