//! The directive/clause catalog in `omplt-ast` is the one place a directive
//! or clause is spelled; these tests hold every layer that reads it to the
//! rows: the real parser and the tuner's source model resolve each
//! spelling to its row, `pragma_text` renders it back, Sema accepts exactly
//! the directive × clause pairs pinned below, and the README lists every
//! row.

use omplt::ast::{walk_stmt, Decl, OMPClauseKind, OMPDirective, OMPDirectiveKind, Stmt, StmtKind};
use omplt::ast::{StmtVisitor, P};
use omplt::tune::Pragma;
use omplt::{CompilerInstance, Options};

/// Which clauses each directive accepts — written out here, not read from
/// the table, so a row edit that changes the matrix has to change this too.
const DATA_SHARING: &str = "private firstprivate shared reduction";
const ACCEPTED: [(&str, &str); 12] = [
    ("parallel", "num_threads +"),
    ("for", "schedule collapse nowait +"),
    ("parallel for", "schedule collapse num_threads nowait +"),
    ("simd", "collapse safelen simdlen +"),
    ("for simd", "schedule collapse nowait safelen simdlen +"),
    (
        "parallel for simd",
        "schedule collapse num_threads nowait safelen simdlen +",
    ),
    ("taskloop", "collapse grainsize +"),
    ("unroll", "full partial"),
    ("tile", "sizes"),
    ("interchange", "permutation"),
    ("reverse", ""),
    ("fuse", ""),
];

/// A well-formed use of each clause (`x` is an `int` in scope).
fn clause_text(c: OMPClauseKind) -> String {
    let name = c.name();
    match name {
        "full" | "nowait" => name.to_string(),
        "schedule" => "schedule(static)".to_string(),
        "permutation" => "permutation(2, 1)".to_string(),
        "reduction" => "reduction(+: x)".to_string(),
        "private" | "firstprivate" | "shared" => format!("{name}(x)"),
        _ => format!("{name}(2)"),
    }
}

/// A function applying `pragma` to a statement every directive can take a
/// look at: a block of two 2-deep nests for `fuse`, one nest otherwise.
fn program(kind: OMPDirectiveKind, pragma: &str) -> String {
    let nest =
        "for (int i = 0; i < 8; i += 1)\n    for (int j = 0; j < 8; j += 1)\n      body(i + j);";
    let stmt = if kind == OMPDirectiveKind::Fuse {
        format!("{{\n  {nest}\n  {nest}\n  }}")
    } else {
        nest.to_string()
    };
    format!("void body(int v);\nvoid f(void) {{\n  int x = 0;\n  {pragma}\n  {stmt}\n}}\n")
}

fn first_directive(tu: &omplt::ast::TranslationUnit) -> Option<P<OMPDirective>> {
    struct Find(Option<P<OMPDirective>>);
    impl StmtVisitor for Find {
        fn visit_stmt(&mut self, s: &P<Stmt>) {
            match &s.kind {
                StmtKind::OMP(d) if self.0.is_none() => self.0 = Some(P::clone(d)),
                _ => walk_stmt(self, s),
            }
        }
    }
    let mut find = Find(None);
    for d in &tu.decls {
        if let Decl::Function(f) = d {
            if let Some(body) = f.body.borrow().as_ref() {
                find.visit_stmt(body);
            }
        }
    }
    find.0
}

#[test]
fn every_spelling_parses_to_its_row_and_renders_back() {
    for kind in OMPDirectiveKind::all() {
        // `tile` is the one directive that is an error without a clause.
        let required = if kind == OMPDirectiveKind::Tile {
            " sizes(4, 4)"
        } else {
            ""
        };
        let pragma = format!("#pragma omp {}{required}", kind.name());

        let mut ci = CompilerInstance::new(Options::default());
        let tu = ci
            .parse_source("row.c", &program(kind, &pragma))
            .unwrap_or_else(|e| panic!("'{pragma}' must parse cleanly:\n{e}"));
        let d = first_directive(&tu).expect("a directive node");
        assert_eq!(d.kind, kind, "real parser on '{pragma}'");
        assert_eq!(d.pragma_text(), pragma);

        let line = format!("  {pragma}");
        let p = Pragma::parse(&line).expect("the tuner scans every row");
        assert_eq!(p.kind(), Some(kind), "Pragma::parse on '{pragma}'");
        assert_eq!(p.directive, kind.name());
        assert_eq!(p.render("  "), line);
    }
}

#[test]
fn sema_accepts_exactly_the_pinned_directive_clause_pairs() {
    assert_eq!(OMPDirectiveKind::all().count(), ACCEPTED.len());
    for (directive, accepted) in ACCEPTED {
        let accepted = accepted.replace('+', DATA_SHARING);
        let accepted: Vec<&str> = accepted.split(' ').collect();
        let kind = OMPDirectiveKind::from_name(directive).expect("a catalog row");
        for clause in OMPClauseKind::all() {
            let pragma = format!("#pragma omp {directive} {}", clause_text(clause));
            let mut ci = CompilerInstance::new(Options::default());
            // Other diagnostics (a missing `sizes`, `full` with `partial`
            // absent, …) are beside the point: only this message is.
            let errors = ci
                .parse_source("pair.c", &program(kind, &pragma))
                .err()
                .unwrap_or_default();
            let refusal = format!(
                "clause '{}' is not valid on '#pragma omp {directive}'",
                clause.name()
            );
            assert_eq!(
                !errors.contains(&refusal),
                accepted.contains(&clause.name()),
                "'{pragma}':\n{errors}"
            );
            assert_eq!(kind.accepts(clause), accepted.contains(&clause.name()));
        }
    }
}

#[test]
fn readme_lists_every_row() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Supported OpenMP subset"))
        .expect("a 'Supported OpenMP subset' section");
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mentions = |name: &str| {
        section.match_indices(name).any(|(at, _)| {
            let before = section[..at].chars().next_back();
            let after = section[at + name.len()..].chars().next();
            !before.is_some_and(word) && !after.is_some_and(word)
        })
    };
    let directives = OMPDirectiveKind::all().map(OMPDirectiveKind::name);
    let clauses = OMPClauseKind::all().map(OMPClauseKind::name);
    for name in directives.chain(clauses) {
        assert!(
            mentions(name),
            "README's OpenMP subset section omits '{name}'"
        );
    }
}
