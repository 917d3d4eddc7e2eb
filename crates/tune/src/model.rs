//! Source-level directive model: extraction, mutation, and re-synthesis of
//! `#pragma omp` lines.
//!
//! The tuner mutates programs at the *source* level (the way MUPPET mutates
//! OpenMP directives), not by editing the AST: every candidate is a complete
//! C source text that goes through the full parse → Sema → analysis → codegen
//! pipeline, so a mutation can never bypass Sema's checking or the legality
//! analyses. This module provides the round trip: [`SourceModel::parse`]
//! finds the directive stacks, [`SourceModel::apply`] re-synthesizes the
//! program with a set of [`Mutation`]s applied.

use omplt_ast::OMPDirectiveKind;
use std::fmt::Write as _;

/// One clause on a pragma line, kept textually (`schedule(static, 4)` →
/// name `schedule`, args `static, 4`). Argument text is preserved verbatim
/// so clauses the tuner does not understand (e.g. `reduction(+: sum)`)
/// survive the round trip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clause {
    /// Clause name as written.
    pub name: String,
    /// Raw text between the clause's parentheses, `None` for bare clauses
    /// like `nowait` or `full`.
    pub args: Option<String>,
}

impl Clause {
    /// A clause with parenthesized arguments.
    pub fn with_args(name: &str, args: impl Into<String>) -> Clause {
        Clause {
            name: name.to_string(),
            args: Some(args.into()),
        }
    }

    /// A bare clause.
    pub fn bare(name: &str) -> Clause {
        Clause {
            name: name.to_string(),
            args: None,
        }
    }
}

/// One `#pragma omp …` line, structurally: directive name (possibly
/// multi-word, e.g. `parallel for simd`) plus clauses in source order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pragma {
    /// Directive name as written (`for`, `parallel for`, `tile`, …).
    pub directive: String,
    /// Clauses in source order.
    pub clauses: Vec<Clause>,
}

impl Pragma {
    /// A clause-less pragma.
    pub fn new(directive: &str) -> Pragma {
        Pragma {
            directive: directive.to_string(),
            clauses: Vec::new(),
        }
    }

    /// Builder: appends a clause.
    pub fn with(mut self, clause: Clause) -> Pragma {
        self.clauses.push(clause);
        self
    }

    /// Parses the text of one pragma line. Returns `None` when the line is
    /// not an OpenMP pragma or does not scan (unbalanced parentheses —
    /// such lines are left untouched by the model).
    pub fn parse(line: &str) -> Option<Pragma> {
        let rest = line.trim().strip_prefix("#pragma")?.trim_start();
        let rest = rest.strip_prefix("omp")?;
        // Require a word boundary after `omp` (reject `#pragma ompx…`).
        if !rest.is_empty() && !rest.starts_with(char::is_whitespace) {
            return None;
        }
        let mut toks = Tokenizer { rest: rest.trim() };
        // The directive name is the longest match of the leading words
        // against the catalog the compiler parses with; a name it does not
        // list stays a one-word directive the tuner leaves alone.
        let mut ahead = Tokenizer { rest: toks.rest };
        let words: Vec<&str> = std::iter::from_fn(|| ahead.ident()).collect();
        let n = OMPDirectiveKind::match_words(&words).map_or(1, |(_, n)| n);
        let directive = words.get(..n)?.join(" ");
        for _ in 0..n {
            toks.ident();
        }
        let mut clauses = Vec::new();
        while let Some(name) = toks.ident() {
            let name = name.to_string();
            let args = toks.paren_group()?;
            clauses.push(Clause { name, args });
        }
        if !toks.rest.is_empty() {
            return None; // trailing tokens we cannot model
        }
        Some(Pragma { directive, clauses })
    }

    /// The catalog directive this line names, if any.
    pub fn kind(&self) -> Option<OMPDirectiveKind> {
        OMPDirectiveKind::from_name(&self.directive)
    }

    /// Renders the pragma back to a source line (without trailing newline).
    pub fn render(&self, indent: &str) -> String {
        let mut out = format!("{indent}#pragma omp {}", self.directive);
        for c in &self.clauses {
            match &c.args {
                Some(a) => write!(out, " {}({a})", c.name).unwrap(),
                None => write!(out, " {}", c.name).unwrap(),
            }
        }
        out
    }

    /// First clause with the given name.
    pub fn clause(&self, name: &str) -> Option<&Clause> {
        self.clauses.iter().find(|c| c.name == name)
    }

    /// Replaces the first clause named `name` (or appends one).
    pub fn set_clause(&mut self, name: &str, args: Option<String>) {
        match self.clauses.iter_mut().find(|c| c.name == name) {
            Some(c) => c.args = args,
            None => self.clauses.push(Clause {
                name: name.to_string(),
                args,
            }),
        }
    }

    /// Removes every clause named `name`; reports whether any was present.
    pub fn remove_clause(&mut self, name: &str) -> bool {
        let before = self.clauses.len();
        self.clauses.retain(|c| c.name != name);
        self.clauses.len() != before
    }
}

/// Minimal scanner over the tail of a pragma line.
struct Tokenizer<'a> {
    rest: &'a str,
}

impl<'a> Tokenizer<'a> {
    fn skip_ws(&mut self) {
        self.rest = self.rest.trim_start();
    }

    fn ident(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let end = self
            .rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(self.rest.len());
        let (id, rest) = self.rest.split_at(end);
        self.rest = rest;
        (end > 0).then_some(id)
    }

    /// Consumes an optional `( … )` group (one level of nesting allowed),
    /// returning `Some(None)` when the next token is not a group and
    /// `None` when parentheses do not balance.
    #[allow(clippy::option_option)]
    fn paren_group(&mut self) -> Option<Option<String>> {
        self.skip_ws();
        if !self.rest.starts_with('(') {
            return Some(None);
        }
        let mut depth = 0usize;
        for (i, c) in self.rest.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        let inner = self.rest[1..i].trim().to_string();
                        self.rest = &self.rest[i + 1..];
                        return Some(Some(inner));
                    }
                }
                _ => {}
            }
        }
        None
    }
}

/// A maximal run of consecutive pragma lines — one directive *stack*
/// applying to the statement that follows it.
#[derive(Clone, Debug)]
pub struct Site {
    /// The stack, outermost directive first (source order).
    pub pragmas: Vec<Pragma>,
    /// Indentation copied from the first pragma line of the stack.
    pub indent: String,
    /// Line range `[start, end)` the stack occupies in the original source.
    pub line_start: usize,
    /// One past the last pragma line.
    pub line_end: usize,
}

/// A single edit to a program's directive configuration. Site and pragma
/// indices refer to the [`SourceModel`] the mutation was enumerated from.
#[derive(Clone, Debug)]
pub enum Mutation {
    /// Sets (or adds) a clause on an existing pragma.
    SetClause {
        /// Site index.
        site: usize,
        /// Pragma index within the site's stack.
        pragma: usize,
        /// Clause name.
        name: String,
        /// New argument text (`None` = bare clause).
        args: Option<String>,
    },
    /// Removes a clause from an existing pragma (no-op if absent).
    RemoveClause {
        /// Site index.
        site: usize,
        /// Pragma index within the site's stack.
        pragma: usize,
        /// Clause name.
        name: String,
    },
    /// Inserts a new pragma into a site's stack.
    InsertPragma {
        /// Site index.
        site: usize,
        /// Insertion position within the stack (`stack.len()` = innermost).
        at: usize,
        /// The pragma to insert.
        pragma: Pragma,
    },
    /// Removes a pragma from a site's stack.
    RemovePragma {
        /// Site index.
        site: usize,
        /// Pragma index within the site's stack.
        pragma: usize,
    },
}

/// A parsed program: the original lines plus every directive stack found.
#[derive(Clone, Debug)]
pub struct SourceModel {
    lines: Vec<String>,
    /// Directive stacks in source order.
    pub sites: Vec<Site>,
}

impl SourceModel {
    /// Scans `source` for `#pragma omp` stacks. Lines that look like OpenMP
    /// pragmas but do not scan are treated as opaque text (the real parser
    /// will diagnose them).
    pub fn parse(source: &str) -> SourceModel {
        let lines: Vec<String> = source.lines().map(str::to_string).collect();
        let mut sites = Vec::new();
        let mut i = 0;
        while i < lines.len() {
            match Pragma::parse(&lines[i]) {
                None => i += 1,
                Some(first) => {
                    let indent: String =
                        lines[i].chars().take_while(|c| c.is_whitespace()).collect();
                    let start = i;
                    let mut pragmas = vec![first];
                    i += 1;
                    while i < lines.len() {
                        match Pragma::parse(&lines[i]) {
                            Some(p) => {
                                pragmas.push(p);
                                i += 1;
                            }
                            None => break,
                        }
                    }
                    sites.push(Site {
                        pragmas,
                        indent,
                        line_start: start,
                        line_end: i,
                    });
                }
            }
        }
        SourceModel { lines, sites }
    }

    /// Number of pragma lines across all sites.
    pub fn num_pragmas(&self) -> usize {
        self.sites.iter().map(|s| s.pragmas.len()).sum()
    }

    /// Re-synthesizes the program with `mutations` applied. An empty
    /// mutation list returns the original text verbatim. Returns an error
    /// for out-of-range site/pragma indices (an enumerator bug, not a user
    /// error).
    pub fn apply(&self, mutations: &[Mutation]) -> Result<String, String> {
        if mutations.is_empty() {
            let mut out = self.lines.join("\n");
            out.push('\n');
            return Ok(out);
        }
        let mut sites = self.sites.clone();
        fn site_of(sites: &mut [Site], idx: usize) -> Result<&mut Site, String> {
            let n = sites.len();
            sites
                .get_mut(idx)
                .ok_or_else(move || format!("mutation references site {idx}, program has {n}"))
        }
        for m in mutations {
            match m {
                Mutation::SetClause {
                    site,
                    pragma,
                    name,
                    args,
                } => {
                    let s = site_of(&mut sites, *site)?;
                    let p = s
                        .pragmas
                        .get_mut(*pragma)
                        .ok_or_else(|| format!("mutation references pragma {pragma}"))?;
                    p.set_clause(name, args.clone());
                }
                Mutation::RemoveClause { site, pragma, name } => {
                    let s = site_of(&mut sites, *site)?;
                    let p = s
                        .pragmas
                        .get_mut(*pragma)
                        .ok_or_else(|| format!("mutation references pragma {pragma}"))?;
                    p.remove_clause(name);
                }
                Mutation::InsertPragma { site, at, pragma } => {
                    let s = site_of(&mut sites, *site)?;
                    let at = (*at).min(s.pragmas.len());
                    s.pragmas.insert(at, pragma.clone());
                }
                Mutation::RemovePragma { site, pragma } => {
                    let s = site_of(&mut sites, *site)?;
                    if *pragma < s.pragmas.len() {
                        s.pragmas.remove(*pragma);
                    }
                }
            }
        }
        Ok(self.render_with(&sites))
    }

    /// The program with every directive stack removed — the unannotated
    /// baseline the property suite compares order-preserving mutations
    /// against.
    pub fn strip_pragmas(&self) -> String {
        let empty: Vec<Site> = self
            .sites
            .iter()
            .map(|s| Site {
                pragmas: Vec::new(),
                ..s.clone()
            })
            .collect();
        self.render_with(&empty)
    }

    fn render_with(&self, sites: &[Site]) -> String {
        let mut out = String::new();
        let mut i = 0;
        let mut next_site = 0;
        while i < self.lines.len() {
            if next_site < sites.len() && sites[next_site].line_start == i {
                let s = &sites[next_site];
                for p in &s.pragmas {
                    out.push_str(&p.render(&s.indent));
                    out.push('\n');
                }
                i = s.line_end;
                next_site += 1;
            } else {
                out.push_str(&self.lines[i]);
                out.push('\n');
                i += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_round_trips() {
        let p = Pragma::parse("  #pragma omp parallel for reduction(+: sum) schedule(static, 4)")
            .unwrap();
        assert_eq!(p.directive, "parallel for");
        assert_eq!(
            p.clause("schedule").unwrap().args.as_deref(),
            Some("static, 4")
        );
        assert_eq!(
            p.render("  "),
            "  #pragma omp parallel for reduction(+: sum) schedule(static, 4)"
        );
    }

    #[test]
    fn composite_directive_names_round_trip() {
        for name in ["for simd", "parallel for simd"] {
            let line = format!("  #pragma omp {name} simdlen(4) nowait");
            let p = Pragma::parse(&line).unwrap();
            assert_eq!(p.directive, name);
            assert_eq!(p.clauses.len(), 2, "{:?}", p.clauses);
            assert_eq!(p.render("  "), line);
            let src = format!("void f(void) {{\n{line}\n  for (;;) ;\n}}\n");
            assert_eq!(SourceModel::parse(&src).apply(&[]).unwrap(), src);
        }
    }

    #[test]
    fn non_pragmas_are_opaque() {
        assert!(Pragma::parse("int main(void) {").is_none());
        assert!(Pragma::parse("#pragma once").is_none());
        assert!(Pragma::parse("#pragma omp tile sizes(4").is_none());
    }

    #[test]
    fn model_identity_is_verbatim() {
        let src = "int main(void) {\n  #pragma omp parallel for\n  #pragma omp tile sizes(4, 4)\n  for (;;) ;\n}\n";
        let m = SourceModel::parse(src);
        assert_eq!(m.sites.len(), 1);
        assert_eq!(m.sites[0].pragmas.len(), 2);
        assert_eq!(m.apply(&[]).unwrap(), src);
    }

    #[test]
    fn mutations_edit_the_stack() {
        let src = "  #pragma omp for\n  for (;;) ;\n";
        let m = SourceModel::parse(src);
        let out = m
            .apply(&[Mutation::SetClause {
                site: 0,
                pragma: 0,
                name: "schedule".into(),
                args: Some("dynamic, 2".into()),
            }])
            .unwrap();
        assert_eq!(
            out,
            "  #pragma omp for schedule(dynamic, 2)\n  for (;;) ;\n"
        );
        let stripped = m.strip_pragmas();
        assert_eq!(stripped, "  for (;;) ;\n");
    }
}
