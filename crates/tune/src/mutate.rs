//! Mutation axes and candidate enumeration.
//!
//! The search space is factored into independent **axes**, one per tunable
//! degree of freedom the directive stacks expose: the schedule of each
//! worksharing directive, the sizes of each `tile`, the factor of each
//! `unroll`, the permutation of each `interchange`, presence toggles for the
//! order-changing transformations, and — when the program has a
//! simd-annotated loop — the `simdlen` hint and the VM's `--vector-width`.
//! Candidates run on the session's backend: an interpreter op and a VM op
//! are different units, so engines are never ranked against each other
//! (only a vector width, which exists only on the VM, implies it). Axis value 0
//! is always the *identity* (keep the original configuration), so the
//! all-identity candidate is the hand-annotated program itself and is always
//! enumerated first — the tuner can only ever report a configuration at
//! least as good as the one the programmer wrote.
//!
//! Two generators share the axes:
//!
//! * [`Enumerator`] — deterministic grid walk: identity, then every single-
//!   axis deviation (one-factor-at-a-time), then the full mixed-radix cross
//!   product. Budgets cut the walk off at a stable prefix, so reports are
//!   reproducible byte-for-byte.
//! * [`Sampler`] — seeded random walk over the same space; this is the
//!   randomized differential stress generator the test suites use.
//!
//! Candidates that would be *illegal* are enumerated anyway — pruning is the
//! legality analyses' job, and asserting that illegal candidates are pruned
//! (rather than silently skipped) is exactly what makes the enumerator a
//! stress corpus.

use crate::model::{Clause, Mutation, Pragma, SourceModel};
use omplt_ast::{OMPClauseKind, OMPDirectiveKind};

/// Which execution engine evaluates a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// Tree-walking interpreter.
    Interp,
    /// Bytecode VM (strict: a compile/verify failure fails the candidate
    /// instead of silently re-measuring on the interpreter).
    Vm,
}

impl BackendChoice {
    /// Flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Interp => "interp",
            BackendChoice::Vm => "vm",
        }
    }
}

/// Whether an axis can change the inter-iteration execution order of the
/// program (order-preserving mutations keep the output multiset of the
/// unannotated program; order-changing ones need dependence legality).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AxisKind {
    /// Schedule kind/chunk, tile sizes, unroll factors, vector widths.
    OrderPreserving,
    /// Interchange permutations, reverse/fuse toggles, stack insertions.
    OrderChanging,
}

/// One value an axis can take.
#[derive(Clone, Debug)]
pub struct AxisValue {
    /// Short label for reports (`sched=dynamic,2`).
    pub label: String,
    /// Source mutations realizing this value (empty = identity).
    pub mutations: Vec<Mutation>,
    /// `--vector-width` override (the vector-width axis only; implies the
    /// VM backend, since the widening pass lives in the bytecode tier).
    pub vector_width: Option<u8>,
}

impl AxisValue {
    fn identity() -> AxisValue {
        AxisValue {
            label: String::new(),
            mutations: Vec::new(),
            vector_width: None,
        }
    }

    /// A value realized by one source mutation (no global-axis override).
    fn mutating(label: String, mutation: Mutation) -> AxisValue {
        AxisValue {
            label,
            mutations: vec![mutation],
            ..AxisValue::identity()
        }
    }
}

/// One tunable degree of freedom. `values[0]` is always the identity.
#[derive(Clone, Debug)]
pub struct Axis {
    /// What the axis tunes (for reports).
    pub name: String,
    /// Order-preserving or order-changing.
    pub kind: AxisKind,
    /// Possible values, identity first.
    pub values: Vec<AxisValue>,
}

/// Knobs for axis construction.
#[derive(Clone, Debug)]
pub struct EnumConfig {
    /// `schedule(kind[, chunk])` variants tried on worksharing directives.
    pub schedules: Vec<&'static str>,
    /// Tile size candidates per dimension.
    pub tile_sizes: Vec<u32>,
    /// `unroll partial(f)` factors tried.
    pub unroll_factors: Vec<u32>,
    /// `--vector-width` values tried (and `simdlen` clause candidates) when
    /// the program has a simd-annotated loop; empty disables the axis.
    pub vector_widths: Vec<u8>,
    /// Whether to try *inserting* order-changing directives (`reverse`,
    /// `interchange`) that the original program does not have.
    pub insertions: bool,
    /// Drop every order-changing axis (the property suite's restriction).
    pub order_preserving_only: bool,
    /// Hard cap on enumerated candidates (bounds the mixed-radix walk).
    pub max_enumerated: usize,
}

impl Default for EnumConfig {
    fn default() -> EnumConfig {
        EnumConfig {
            schedules: vec![
                "static",
                "static, 2",
                "static, 4",
                "dynamic, 2",
                "dynamic, 4",
                "guided",
                "guided, 4",
            ],
            tile_sizes: vec![2, 4, 8],
            unroll_factors: vec![2, 4, 8],
            vector_widths: vec![2, 4, 8],
            insertions: true,
            order_preserving_only: false,
            max_enumerated: 4096,
        }
    }
}

/// A fully specified configuration to try: a set of source mutations plus
/// the vector width that executes it.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Stable enumeration index (ids are dense and deterministic).
    pub id: usize,
    /// Human-readable summary of the non-identity axis values
    /// (`"original"` for the all-identity candidate).
    pub label: String,
    /// Source mutations (empty for the original program).
    pub mutations: Vec<Mutation>,
    /// `--vector-width` for this candidate (which implies the VM); `None`
    /// inherits the session's width and backend.
    pub vector_width: Option<u8>,
}

/// Cartesian-product size guard: `k`-ary permutations enumerated for
/// `interchange` (depth ≤ 3 keeps this tiny).
fn permutations(n: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut idx: Vec<u32> = (1..=n as u32).collect();
    // Heap's algorithm, iterative; n ≤ 3 in practice.
    fn heap(k: usize, a: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if k <= 1 {
            out.push(a.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, a, out);
            if k.is_multiple_of(2) {
                a.swap(i, k - 1);
            } else {
                a.swap(0, k - 1);
            }
        }
    }
    heap(n, &mut idx, &mut out);
    out.sort();
    out
}

/// Builds the axes for `model` under `cfg`. Deterministic: axes appear in
/// (site, pragma) order, with the vector-width axis last. Which
/// axes a pragma gets is read off its catalog row in `omplt-ast`: the
/// worksharing flag brings the schedule axis, the simd flag the `simdlen`
/// axis, and each transformation its own.
pub fn axes_for(model: &SourceModel, cfg: &EnumConfig) -> Vec<Axis> {
    use OMPClauseKind as C;
    use OMPDirectiveKind as D;
    let joined = |vals: &[u32], sep: &str| -> String {
        let vals: Vec<String> = vals.iter().map(u32::to_string).collect();
        vals.join(sep)
    };
    let mut axes = Vec::new();
    for (site, stack) in model.sites.iter().enumerate() {
        for (pragma, p) in stack.pragmas.iter().enumerate() {
            let Some(kind) = p.kind() else { continue };
            let current = |c: C| p.clause(c.name());
            // Identity, then one value per candidate `(label, args)` of
            // clause `c` — skipping the candidate that restates the original.
            let clause_values = |c: C, candidates: Vec<(String, String)>| {
                let mut values = vec![AxisValue::identity()];
                for (label, args) in candidates {
                    if current(c).and_then(|c| c.args.as_deref()) == Some(&args[..]) {
                        continue;
                    }
                    let (name, args) = (c.name().into(), Some(args));
                    let set = Mutation::SetClause {
                        site,
                        pragma,
                        name,
                        args,
                    };
                    values.push(AxisValue::mutating(format!("s{site}.{label}"), set));
                }
                values
            };
            let without = |c: C, label: &str| {
                let name = c.name().into();
                let remove = Mutation::RemoveClause { site, pragma, name };
                AxisValue::mutating(format!("s{site}.{label}=none"), remove)
            };
            let off = || {
                let label = format!("s{site}.{}=off", kind.name());
                AxisValue::mutating(label, Mutation::RemovePragma { site, pragma })
            };
            let mut push = |name: &str, kind: AxisKind, values: Vec<AxisValue>| {
                let name = format!("s{site}.{name}");
                axes.push(Axis { name, kind, values });
            };
            if kind.is_worksharing() {
                let label = |s: &&str| format!("sched={}", s.replace(", ", ","));
                let schedules = cfg.schedules.iter().map(|s| (label(s), s.to_string()));
                let mut values = clause_values(C::Schedule, schedules.collect());
                if current(C::Schedule).is_some() {
                    values.push(without(C::Schedule, "sched"));
                }
                push(C::Schedule.name(), AxisKind::OrderPreserving, values);
            }
            if kind.has_simd() {
                // `simdlen` is a preferred-width hint the widening pass
                // clamps to, so it is order-preserving by construction.
                // Values that sema rejects (simdlen > safelen) are
                // enumerated anyway — classifying them is the legality
                // machinery's job, same as every other axis.
                let widths = cfg.vector_widths.iter();
                let widths = widths.map(|w| (format!("simdlen={w}"), w.to_string()));
                let mut values = clause_values(C::Simdlen, widths.collect());
                if current(C::Simdlen).is_some() {
                    values.push(without(C::Simdlen, C::Simdlen.name()));
                }
                if values.len() > 1 {
                    push(C::Simdlen.name(), AxisKind::OrderPreserving, values);
                }
            }
            // How many loops the clause's argument list names today.
            let dims = |c: C, default: usize| {
                let args = current(c).and_then(|c| c.args.as_ref());
                args.map_or(default, |a| a.split(',').count())
            };
            match kind {
                D::Tile => {
                    // tile_sizes^dims, the first dimension varying fastest.
                    let mut combos: Vec<Vec<u32>> = vec![Vec::new()];
                    for _ in 0..dims(C::Sizes, 1) {
                        let mut grown = Vec::new();
                        for &s in &cfg.tile_sizes {
                            grown.extend(combos.iter().map(|c| [&c[..], &[s]].concat()));
                        }
                        combos = grown;
                    }
                    let label = |c: &Vec<u32>| format!("tile={}", joined(c, "x"));
                    let sizes = combos.iter().map(|c| (label(c), joined(c, ", ")));
                    let mut values = clause_values(C::Sizes, sizes.collect());
                    values.push(off());
                    push(kind.name(), AxisKind::OrderPreserving, values);
                }
                D::Unroll => {
                    let factors = cfg.unroll_factors.iter();
                    let factors = factors.map(|f| (format!("unroll={f}"), f.to_string()));
                    let mut values = clause_values(C::Partial, factors.collect());
                    values.push(off());
                    push(kind.name(), AxisKind::OrderPreserving, values);
                }
                D::Interchange => {
                    let perms = permutations(dims(C::Permutation, 2).min(3));
                    let label = |p: &Vec<u32>| format!("perm={}", joined(p, ""));
                    let perms = perms.iter().map(|p| (label(p), joined(p, ", ")));
                    let mut values = clause_values(C::Permutation, perms.collect());
                    values.push(off());
                    push(kind.name(), AxisKind::OrderChanging, values);
                }
                D::Reverse | D::Fuse => {
                    let values = vec![AxisValue::identity(), off()];
                    push(kind.name(), AxisKind::OrderChanging, values);
                }
                _ => {}
            }
        }
        // Insertion axis: try appending an order-changing transformation at
        // the innermost position of the stack. Illegal insertions (wrong
        // nest depth, carried dependences) are the legality analyses' to
        // prune — generating them is the point.
        if cfg.insertions && !stack.pragmas.is_empty() {
            let at = stack.pragmas.len();
            let mut values = vec![AxisValue::identity()];
            let swap = Clause::with_args(C::Permutation.name(), "2, 1");
            for (kind, suffix, clauses) in
                [(D::Reverse, "", vec![]), (D::Interchange, "21", vec![swap])]
            {
                if stack.pragmas.iter().any(|p| p.kind() == Some(kind)) {
                    continue;
                }
                let mut pragma = Pragma::new(kind.name());
                pragma.clauses = clauses;
                let insert = Mutation::InsertPragma { site, at, pragma };
                let label = format!("s{site}.+{}{suffix}", kind.name());
                values.push(AxisValue::mutating(label, insert));
            }
            if values.len() > 1 {
                axes.push(Axis {
                    name: format!("s{site}.insert"),
                    kind: AxisKind::OrderChanging,
                    values,
                });
            }
        }
    }
    if cfg.order_preserving_only {
        axes.retain(|a| a.kind == AxisKind::OrderPreserving);
    }
    // Vector-width axis: lane counts the VM's widening pass tries on the
    // program's simd loops. Gated on a simd-annotated pragma actually being
    // present — on any other program every width is a no-op and the axis
    // would only inflate the grid with duplicates. Each value implies the
    // (strict) VM backend: the interpreter is the scalar oracle and has no
    // lanes to widen into.
    let has_simd = model
        .sites
        .iter()
        .flat_map(|site| &site.pragmas)
        .any(|p| p.kind().is_some_and(OMPDirectiveKind::has_simd));
    if has_simd && !cfg.vector_widths.is_empty() {
        let mut values = vec![AxisValue::identity()];
        for &w in &cfg.vector_widths {
            values.push(AxisValue {
                label: format!("vw={w}"),
                mutations: Vec::new(),
                vector_width: Some(w),
            });
        }
        axes.push(Axis {
            name: "vector-width".into(),
            kind: AxisKind::OrderPreserving,
            values,
        });
    }
    axes
}

/// Materializes the candidate for one axis-value selection.
fn build_candidate(axes: &[Axis], sel: &[usize], id: usize) -> Candidate {
    let mut mutations = Vec::new();
    let mut vector_width = None;
    let mut labels = Vec::new();
    for (a, &v) in axes.iter().zip(sel) {
        let val = &a.values[v];
        mutations.extend(val.mutations.iter().cloned());
        if val.vector_width.is_some() {
            vector_width = val.vector_width;
        }
        if v != 0 {
            labels.push(val.label.clone());
        }
    }
    let label = if labels.is_empty() {
        "original".to_string()
    } else {
        labels.join(" ")
    };
    Candidate {
        id,
        label,
        mutations,
        vector_width,
    }
}

/// Deterministic grid enumerator (see module docs for the order).
pub struct Enumerator {
    axes: Vec<Axis>,
    phase: Phase,
    emitted: usize,
    cap: usize,
}

enum Phase {
    Identity,
    /// One-factor-at-a-time: (axis index, value index ≥ 1).
    Single(usize, usize),
    /// Mixed-radix odometer over all axes.
    Cross(Vec<usize>),
    Done,
}

/// Starts the deterministic enumeration for `model`.
pub fn enumerate(model: &SourceModel, cfg: &EnumConfig) -> Enumerator {
    Enumerator {
        axes: axes_for(model, cfg),
        phase: Phase::Identity,
        emitted: 0,
        cap: cfg.max_enumerated,
    }
}

impl Enumerator {
    /// The axes being enumerated (for reports).
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    fn step_odometer(&self, sel: &mut [usize]) -> bool {
        for (slot, axis) in sel.iter_mut().zip(&self.axes) {
            *slot += 1;
            if *slot < axis.values.len() {
                return true;
            }
            *slot = 0;
        }
        false
    }
}

impl Iterator for Enumerator {
    type Item = Candidate;

    fn next(&mut self) -> Option<Candidate> {
        if self.emitted >= self.cap {
            return None;
        }
        loop {
            let phase = std::mem::replace(&mut self.phase, Phase::Done);
            let sel: Option<Vec<usize>> = match phase {
                Phase::Identity => {
                    self.phase = if self.axes.is_empty() {
                        Phase::Done
                    } else {
                        Phase::Single(0, 1)
                    };
                    Some(vec![0; self.axes.len()])
                }
                Phase::Single(a, v) => {
                    if a >= self.axes.len() {
                        self.phase = Phase::Cross(vec![0; self.axes.len()]);
                        continue;
                    }
                    if v >= self.axes[a].values.len() {
                        self.phase = Phase::Single(a + 1, 1);
                        continue;
                    }
                    self.phase = Phase::Single(a, v + 1);
                    let mut sel = vec![0; self.axes.len()];
                    sel[a] = v;
                    Some(sel)
                }
                Phase::Cross(prev) => {
                    let mut cur = prev;
                    let mut advanced = self.step_odometer(&mut cur);
                    // Skip combinations already emitted in earlier phases
                    // (≤ 1 non-identity axis).
                    while advanced && cur.iter().filter(|&&v| v != 0).count() <= 1 {
                        advanced = self.step_odometer(&mut cur);
                    }
                    if !advanced {
                        // self.phase is already Done.
                        continue;
                    }
                    self.phase = Phase::Cross(cur.clone());
                    Some(cur)
                }
                Phase::Done => None,
            };
            let sel = sel?;
            let c = build_candidate(&self.axes, &sel, self.emitted);
            self.emitted += 1;
            return Some(c);
        }
    }
}

/// xorshift64* — the same tiny deterministic PRNG the test suites use.
#[derive(Clone, Debug)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (0 is mapped to 1).
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Seeded random walk over the same axis space as [`Enumerator`] — the
/// randomized mutation generator the differential stress suites drive.
pub struct Sampler {
    axes: Vec<Axis>,
    rng: XorShift,
    emitted: usize,
    cap: usize,
}

/// Starts a seeded random sampler for `model`. The first candidate is still
/// the identity (so the stress corpus always covers the unmutated program);
/// subsequent candidates draw every axis independently, biased 50/50 between
/// identity and a uniformly random non-identity value so typical candidates
/// mutate a handful of axes rather than all of them.
pub fn sample(model: &SourceModel, cfg: &EnumConfig, seed: u64, count: usize) -> Sampler {
    Sampler {
        axes: axes_for(model, cfg),
        rng: XorShift::new(seed),
        emitted: 0,
        cap: count,
    }
}

impl Iterator for Sampler {
    type Item = Candidate;

    fn next(&mut self) -> Option<Candidate> {
        if self.emitted >= self.cap {
            return None;
        }
        let sel: Vec<usize> = if self.emitted == 0 {
            vec![0; self.axes.len()]
        } else {
            self.axes
                .iter()
                .map(|a| {
                    if a.values.len() <= 1 || self.rng.below(2) == 0 {
                        0
                    } else {
                        1 + self.rng.below(a.values.len() - 1)
                    }
                })
                .collect()
        };
        let c = build_candidate(&self.axes, &sel, self.emitted);
        self.emitted += 1;
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "long a[64];\nint main(void) {\n  #pragma omp parallel for schedule(static)\n  #pragma omp tile sizes(4)\n  for (int i = 0; i < 64; i += 1)\n    a[i] = i;\n  return 0;\n}\n";

    #[test]
    fn identity_comes_first_and_is_verbatim() {
        let m = SourceModel::parse(SRC);
        let mut e = enumerate(&m, &EnumConfig::default());
        let c0 = e.next().unwrap();
        assert_eq!(c0.label, "original");
        assert_eq!(m.apply(&c0.mutations).unwrap(), SRC);
        assert_eq!(
            c0.vector_width, None,
            "identity inherits the session backend"
        );
    }

    #[test]
    fn enumeration_is_deterministic_and_capped() {
        let m = SourceModel::parse(SRC);
        let cfg = EnumConfig {
            max_enumerated: 40,
            ..EnumConfig::default()
        };
        let a: Vec<String> = enumerate(&m, &cfg).map(|c| c.label).collect();
        let b: Vec<String> = enumerate(&m, &cfg).map(|c| c.label).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        let unique: std::collections::BTreeSet<&String> = a.iter().collect();
        assert_eq!(unique.len(), a.len(), "duplicate candidate labels: {a:?}");
    }

    #[test]
    fn sampler_is_seed_deterministic() {
        let m = SourceModel::parse(SRC);
        let cfg = EnumConfig::default();
        let a: Vec<String> = sample(&m, &cfg, 7, 16).map(|c| c.label).collect();
        let b: Vec<String> = sample(&m, &cfg, 7, 16).map(|c| c.label).collect();
        let c: Vec<String> = sample(&m, &cfg, 8, 16).map(|c| c.label).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a[0], "original");
    }

    #[test]
    fn order_preserving_only_drops_order_changing_axes() {
        let m = SourceModel::parse(SRC);
        let cfg = EnumConfig {
            order_preserving_only: true,
            ..EnumConfig::default()
        };
        for axis in axes_for(&m, &cfg) {
            assert_eq!(axis.kind, AxisKind::OrderPreserving, "{}", axis.name);
        }
    }

    #[test]
    fn composite_simd_directives_get_both_their_rows_axes() {
        // `for simd` is one directive, not `for` plus a bare `simd` clause:
        // its row carries the worksharing and the simd flag, so it gets the
        // schedule axis, the simdlen axis and the global vector-width axis.
        let src = "long a[64];\nint main(void) {\n  #pragma omp for simd simdlen(4)\n  for (int i = 0; i < 64; i += 1)\n    a[i] = i;\n  return 0;\n}\n";
        let m = SourceModel::parse(src);
        assert_eq!(m.sites[0].pragmas[0].directive, "for simd");
        let cfg = EnumConfig {
            insertions: false,
            ..EnumConfig::default()
        };
        let names: Vec<String> = axes_for(&m, &cfg).into_iter().map(|a| a.name).collect();
        assert_eq!(names, ["s0.schedule", "s0.simdlen", "vector-width"]);
    }
}
