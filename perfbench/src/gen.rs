//! Seeded input generators. Every program ships with the stdout it must
//! print, computed here by a native Rust mirror of its template — never by
//! `omplt`. The seed changes constants and function order only, never sizes
//! or trip counts, so counts such as `bytecode_bytes` and `ops_retired` stay
//! within a fraction of a percent across seeds while every source text (and
//! so every cache key and every expected output) differs.

/// SplitMix64: tiny, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// `stream` separates independent draws made from one `--seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as i64) as usize);
        }
    }
}

/// One generated input: a C source and the stdout it must produce.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub expected: String,
}

// ---------------------------------------------------------------------------
// compile_* translation units
// ---------------------------------------------------------------------------

/// Loop bodies of the generated functions. All are order-independent
/// (element-wise over distinct read/write arrays, or commutative sums), so
/// every legal directive stack — and no directive at all — gives the same
/// output, which is what lets `plain` share `wide`'s oracle.
#[derive(Clone, Copy, Debug)]
enum Body {
    /// `a[i][j] = b[i][j] + i * K + j + C`
    ElemAb,
    /// `b[i][j] = (a[j][i] + K) % C`
    ElemBa,
    /// `s += (b[i][R] * K) % C; acc += s`
    Red,
    /// `s += a[i][i] % K + C; acc += s` (the directive carries `reduction`)
    RedPar,
    /// `a[i][R] = b[i][R] * 2 + i + K`
    Col,
    /// two adjacent loops: `a[i][R] = i * K` and `b[j][R] = j + C`
    Fuse,
}

#[derive(Clone, Debug)]
struct Func {
    body: Body,
    pragmas: &'static [&'static str],
    k: i64,
    c: i64,
    r: usize,
}

const N: usize = 16;

/// The three arrays-and-accumulator state every generated function updates.
struct Grid {
    a: [[i64; N]; N],
    b: [[i64; N]; N],
    acc: i64,
}

impl Func {
    fn emit(&self, idx: usize, with_pragmas: bool, out: &mut String) {
        let (k, c, r) = (self.k, self.c, self.r);
        let mut pragmas = String::new();
        if with_pragmas {
            for p in self.pragmas {
                pragmas.push_str(&format!("  #pragma omp {p}\n"));
            }
        }
        let i_loop = "  for (int i = 0; i < 16; i += 1)\n";
        let ij_loops = "  for (int i = 0; i < 16; i += 1)\n    for (int j = 0; j < 16; j += 1)\n";
        out.push_str(&format!("void f{idx}(void) {{\n"));
        match self.body {
            Body::ElemAb => out.push_str(&format!(
                "{pragmas}{ij_loops}      a[i][j] = b[i][j] + i * {k} + j + {c};\n"
            )),
            Body::ElemBa => out.push_str(&format!(
                "{pragmas}{ij_loops}      b[i][j] = (a[j][i] + {k}) % {c};\n"
            )),
            Body::Red => out.push_str(&format!(
                "  long s = 0;\n{pragmas}{i_loop}    s = s + (b[i][{r}] * {k}) % {c};\n  acc = acc + s;\n"
            )),
            Body::RedPar => out.push_str(&format!(
                "  long s = 0;\n{pragmas}{i_loop}    s = s + a[i][i] % {k} + {c};\n  acc = acc + s;\n"
            )),
            Body::Col => out.push_str(&format!(
                "{pragmas}{i_loop}    a[i][{r}] = b[i][{r}] * 2 + i + {k};\n"
            )),
            Body::Fuse => out.push_str(&format!(
                "{pragmas}  {{\n    for (int i = 0; i < 16; i += 1)\n      a[i][{r}] = i * {k};\n    \
                 for (int j = 0; j < 12; j += 1)\n      b[j][{r}] = j + {c};\n  }}\n"
            )),
        }
        out.push_str("}\n");
    }

    fn apply(&self, g: &mut Grid) {
        let (k, c, r) = (self.k, self.c, self.r);
        match self.body {
            Body::ElemAb => {
                for i in 0..N {
                    for j in 0..N {
                        g.a[i][j] = g.b[i][j] + i as i64 * k + j as i64 + c;
                    }
                }
            }
            Body::ElemBa => {
                for i in 0..N {
                    for j in 0..N {
                        g.b[i][j] = (g.a[j][i] + k) % c;
                    }
                }
            }
            Body::Red => g.acc += (0..N).map(|i| (g.b[i][r] * k) % c).sum::<i64>(),
            Body::RedPar => g.acc += (0..N).map(|i| g.a[i][i] % k + c).sum::<i64>(),
            Body::Col => {
                for i in 0..N {
                    g.a[i][r] = g.b[i][r] * 2 + i as i64 + k;
                }
            }
            Body::Fuse => {
                for i in 0..N {
                    g.a[i][r] = i as i64 * k;
                }
                for j in 0..12 {
                    g.b[j][r] = j as i64 + c;
                }
            }
        }
    }
}

/// One directive per function: the four kinds ISSUE 11 names for `wide`.
const WIDE_KINDS: [(Body, &[&str]); 4] = [
    (Body::ElemAb, &["parallel for", "tile sizes(4)"]),
    (Body::Red, &["unroll partial(4)"]),
    (
        Body::RedPar,
        &["parallel for reduction(+: s) schedule(dynamic, 4)"],
    ),
    (Body::ElemBa, &["tile sizes(4, 4)"]),
];

/// Deep stacks, including the PR 6 order-changing directives.
const STACKED_KINDS: [(Body, &[&str]); 8] = [
    (Body::ElemAb, &["parallel for", "interchange"]),
    (Body::ElemBa, &["tile sizes(4, 4)", "interchange"]),
    (Body::Red, &["unroll partial(2)", "tile sizes(4)"]),
    (Body::Col, &["unroll partial(2)", "reverse"]),
    (
        Body::Col,
        &["parallel for schedule(dynamic, 2)", "unroll partial(2)"],
    ),
    (Body::Col, &["tile sizes(4)", "reverse"]),
    (Body::Fuse, &["fuse"]),
    (
        Body::RedPar,
        &[
            "parallel for reduction(+: s) schedule(dynamic, 4)",
            "unroll partial(2)",
        ],
    ),
];

fn draw_funcs(
    rng: &mut Rng,
    kinds: &[(Body, &'static [&'static str])],
    per_kind: usize,
) -> Vec<Func> {
    let mut funcs: Vec<Func> = kinds
        .iter()
        .flat_map(|&(body, pragmas)| std::iter::repeat_n((body, pragmas), per_kind))
        .map(|(body, pragmas)| Func {
            body,
            pragmas,
            // Two-digit constants and one-digit columns: every seed's source
            // has the same length and token count.
            k: rng.range(10, 99),
            c: rng.range(10, 99),
            r: rng.range(0, 9) as usize,
        })
        .collect();
    rng.shuffle(&mut funcs);
    funcs
}

fn translation_unit(name: &str, funcs: &[Func], with_pragmas: bool) -> Program {
    let mut src =
        String::from("void print_i64(long v);\nint a[16][16];\nint b[16][16];\nlong acc;\n");
    let mut grid = Grid {
        a: [[0; N]; N],
        b: [[0; N]; N],
        acc: 0,
    };
    for (idx, f) in funcs.iter().enumerate() {
        f.emit(idx, with_pragmas, &mut src);
        f.apply(&mut grid);
    }
    src.push_str("int main(void) {\n  acc = 0;\n");
    for idx in 0..funcs.len() {
        src.push_str(&format!("  f{idx}();\n"));
    }
    src.push_str(
        "  long s = 0;\n  for (int i = 0; i < 16; i += 1)\n    for (int j = 0; j < 16; j += 1)\n      \
         s = s + a[i][j] * 3 + b[i][j];\n  print_i64(acc);\n  print_i64(s);\n  return 0;\n}\n",
    );
    let mut s = 0i64;
    for i in 0..N {
        for j in 0..N {
            s += grid.a[i][j] * 3 + grid.b[i][j];
        }
    }
    Program {
        name: name.to_string(),
        source: src,
        expected: format!("{}\n{s}\n", grid.acc),
    }
}

/// The three translation units of `compile_classic` / `compile_irbuilder`:
/// `wide`, `stacked`, and `plain` (`wide`'s loops with no pragma).
pub fn translation_units(seed: u64, quick: bool) -> Vec<Program> {
    let (wide_per_kind, stacked_per_kind) = if quick { (2, 1) } else { (50, 6) };
    let wide = draw_funcs(&mut Rng::new(seed, 1), &WIDE_KINDS, wide_per_kind);
    let stacked = draw_funcs(&mut Rng::new(seed, 2), &STACKED_KINDS, stacked_per_kind);
    vec![
        translation_unit("wide", &wide, true),
        translation_unit("stacked", &stacked, true),
        translation_unit("plain", &wide, false),
    ]
}

// ---------------------------------------------------------------------------
// exec_* kernels
// ---------------------------------------------------------------------------

/// Names of the five execution kernels, in the order [`kernels`] returns them.
pub const KERNELS: [&str; 5] = [
    "tri_dynamic",
    "dense_serial",
    "stencil_tiled",
    "saxpy_simd",
    "unroll_partial",
];

/// Trip-count scale of the execution kernels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scale {
    /// `exec_vm`: sized so each kernel runs a few tens of milliseconds.
    Vm,
    /// `exec_interp`: a quarter of the VM's trip count.
    Interp,
    /// Unit tests and `--quick`.
    Tiny,
}

pub fn tri_dynamic(n: i64, m: i64, c: i64) -> Program {
    let source = format!(
        "void print_i64(long v);\nint main(void) {{\n  long sum = 0;\n  \
         #pragma omp parallel for reduction(+: sum) schedule(dynamic, 16)\n  \
         for (int i = 0; i < {n}; i += 1)\n    for (int j = 0; j < i; j += 1)\n      \
         sum = sum + (j % {m}) + {c};\n  print_i64(sum);\n  return 0;\n}}\n"
    );
    let mut sum = 0i64;
    for i in 0..n {
        for j in 0..i {
            sum += j % m + c;
        }
    }
    Program {
        name: "tri_dynamic".to_string(),
        source,
        expected: format!("{sum}\n"),
    }
}

pub fn dense_serial(n: i64, m1: i64, m2: i64) -> Program {
    let source = format!(
        "void print_i64(long v);\nint main(void) {{\n  long sum = 0;\n  \
         for (int i = 0; i < {n}; i += 1)\n    \
         sum = sum + (i % {m1}) * (i % {m2}) - (i % 3);\n  print_i64(sum);\n  return 0;\n}}\n"
    );
    let sum: i64 = (0..n).map(|i| (i % m1) * (i % m2) - i % 3).sum();
    Program {
        name: "dense_serial".to_string(),
        source,
        expected: format!("{sum}\n"),
    }
}

/// `sweeps` Jacobi double-sweeps over a `g`×`g` grid, workshared and tiled.
/// The mirror performs the same IEEE-754 operations in the same order per
/// element, so the result is bit-identical whatever order the tiles run in.
pub fn stencil_tiled(g: usize, sweeps: usize, p: i64, q: i64) -> Program {
    let hi = g - 1;
    let sweep = |dst: &str, src: &str| {
        format!(
            "    #pragma omp parallel for\n    #pragma omp tile sizes(8, 8)\n    \
             for (int i = 1; i < {hi}; i += 1)\n      for (int j = 1; j < {hi}; j += 1)\n        \
             {dst}[i][j] = 0.25 * ({src}[i - 1][j] + {src}[i + 1][j] + {src}[i][j - 1] + {src}[i][j + 1]);\n"
        )
    };
    let source = format!(
        "void print_i64(long v);\ndouble grid[{g}][{g}];\ndouble next[{g}][{g}];\n\
         int main(void) {{\n  for (int i = 0; i < {g}; i += 1)\n    for (int j = 0; j < {g}; j += 1)\n      \
         grid[i][j] = (i * {p} + j * {q}) % 97;\n  for (int t = 0; t < {sweeps}; t += 1) {{\n{}{}  }}\n  \
         double checksum = 0.0;\n  for (int i = 0; i < {g}; i += 1)\n    for (int j = 0; j < {g}; j += 1)\n      \
         checksum = checksum + grid[i][j] * (i + 2 * j + 1);\n  print_i64((long)checksum);\n  return 0;\n}}\n",
        sweep("next", "grid"),
        sweep("grid", "next"),
    );
    let mut grid = vec![vec![0.0f64; g]; g];
    let mut next = vec![vec![0.0f64; g]; g];
    for (i, row) in grid.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = ((i as i64 * p + j as i64 * q) % 97) as f64;
        }
    }
    let relax = |dst: &mut Vec<Vec<f64>>, src: &Vec<Vec<f64>>| {
        for i in 1..hi {
            for j in 1..hi {
                dst[i][j] = 0.25 * (src[i - 1][j] + src[i + 1][j] + src[i][j - 1] + src[i][j + 1]);
            }
        }
    };
    for _ in 0..sweeps {
        relax(&mut next, &grid);
        relax(&mut grid, &next);
    }
    let mut checksum = 0.0f64;
    for (i, row) in grid.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            checksum += cell * (i + 2 * j + 1) as f64;
        }
    }
    Program {
        name: "stencil_tiled".to_string(),
        source,
        expected: format!("{}\n", checksum as i64),
    }
}

/// `reps` passes of an integer saxpy with an integer checksum reduction; `n`
/// is not a multiple of the lane count, so the scalar epilogue runs too.
pub fn saxpy_simd(n: usize, reps: usize, a: i64) -> Program {
    let source = format!(
        "void print_i64(long v);\nint x[{n}];\nint y[{n}];\nint main(void) {{\n  \
         for (int i = 0; i < {n}; i += 1) {{\n    x[i] = i % 50 - 25;\n    y[i] = 3 * i + 1;\n  }}\n  \
         long checksum = 0;\n  for (int r = 0; r < {reps}; r += 1) {{\n    \
         #pragma omp simd reduction(+: checksum) simdlen(4)\n    \
         for (int i = 0; i < {n}; i += 1) {{\n      y[i] = y[i] + {a} * x[i];\n      checksum += y[i];\n    }}\n  }}\n  \
         print_i64(checksum);\n  return 0;\n}}\n"
    );
    let x: Vec<i64> = (0..n as i64).map(|i| i % 50 - 25).collect();
    let mut y: Vec<i64> = (0..n as i64).map(|i| 3 * i + 1).collect();
    let mut checksum = 0i64;
    for _ in 0..reps {
        for i in 0..n {
            y[i] += a * x[i];
            checksum += y[i];
        }
    }
    assert!(
        y.iter().all(|v| v.abs() < i64::from(i32::MAX)),
        "saxpy_simd sizes overflow the guest's int"
    );
    Program {
        name: "saxpy_simd".to_string(),
        source,
        expected: format!("{checksum}\n"),
    }
}

pub fn unroll_partial(n: i64, k: i64, m: i64) -> Program {
    let source = format!(
        "void print_i64(long v);\nint t[64];\nint main(void) {{\n  \
         for (int i = 0; i < 64; i += 1)\n    t[i] = (i * {k}) % {m};\n  long s = 0;\n  \
         #pragma omp unroll partial(4)\n  for (int i = 0; i < {n}; i += 1)\n    \
         s = s + t[i % 64] * (i % 5);\n  print_i64(s);\n  return 0;\n}}\n"
    );
    let t: Vec<i64> = (0..64).map(|i| (i * k) % m).collect();
    let s: i64 = (0..n).map(|i| t[(i % 64) as usize] * (i % 5)).sum();
    Program {
        name: "unroll_partial".to_string(),
        source,
        expected: format!("{s}\n"),
    }
}

/// The five execution kernels at `scale`, constants drawn from `seed`.
pub fn kernels(seed: u64, scale: Scale) -> Vec<Program> {
    let mut rng = Rng::new(seed, 3);
    // (tri n, dense n, stencil g, saxpy reps, unroll n): a quarter of the
    // trip count means n/2 for the triangular nest and g/2 for the 2-D grid.
    let (tri_n, dense_n, sten_g, saxpy_reps, unroll_n) = match scale {
        Scale::Vm => (840, 330_000, 98, 220, 280_000),
        Scale::Interp => (420, 82_500, 50, 55, 70_000),
        Scale::Tiny => (40, 500, 18, 3, 300),
    };
    vec![
        tri_dynamic(tri_n, rng.range(5, 9), rng.range(1, 9)),
        dense_serial(dense_n, rng.range(5, 9), rng.range(11, 19)),
        stencil_tiled(sten_g, 4, rng.range(11, 39), rng.range(11, 39)),
        saxpy_simd(1027, saxpy_reps, rng.range(2, 9)),
        unroll_partial(unroll_n, rng.range(11, 59), rng.range(11, 59)),
    ]
}

// ---------------------------------------------------------------------------
// daemon_mix jobs
// ---------------------------------------------------------------------------

/// Size of the hot set: programs the daemon is warmed with and that make up
/// four of every five jobs.
pub const HOT_SET: usize = 16;

/// A small `serial` VM job in the shape of `service::bench_job`, distinct
/// per `(k, c)`.
pub fn daemon_program(name: &str, k: i64, c: i64) -> Program {
    let source = format!(
        "void print_i64(long v);\nint a[128];\nint main(void) {{\n  \
         #pragma omp parallel for schedule(static)\n  for (int i = 0; i < 128; i += 1)\n    \
         a[i] = i * {k} + {c};\n  long s = 0;\n  for (int i = 0; i < 128; i += 1)\n    s += a[i];\n  \
         print_i64(s);\n  return 0;\n}}\n"
    );
    let s: i64 = (0..128).map(|i| i * k + c).sum();
    Program {
        name: name.to_string(),
        source,
        expected: format!("{s}\n"),
    }
}

/// The hot set: three-digit multipliers, all distinct.
pub fn hot_set(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed, 4);
    let mut ks: Vec<i64> = (100..=999).collect();
    rng.shuffle(&mut ks);
    ks.truncate(HOT_SET);
    ks.iter()
        .enumerate()
        .map(|(i, &k)| daemon_program(&format!("hot{i}"), k, rng.range(10, 99)))
        .collect()
}

/// What a connection sends next.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// Index into the hot set: a warm hit.
    Hot(usize),
    /// A source the daemon has never seen: a cold miss.
    Cold(Program),
}

/// One connection's seeded job stream: every block of five jobs holds four
/// hot jobs and, at a drawn position, one cold job (80 % / 20 %). Hot jobs
/// walk shuffled passes over the whole hot set, so at most `2 * HOT_SET`
/// hot draws (and a fifth as many cold inserts) separate two uses of one hot
/// program — far below the cache's capacity, which is why the harness can
/// assert that every hot job after warm-up is a `Hit`.
pub struct JobStream {
    rng: Rng,
    conn: u64,
    pass: Vec<usize>,
    in_block: usize,
    cold_at: usize,
    colds: u64,
}

impl JobStream {
    pub fn new(seed: u64, conn: u64) -> JobStream {
        JobStream {
            rng: Rng::new(seed, 100 + conn),
            conn,
            pass: Vec::new(),
            in_block: 0,
            cold_at: 0,
            colds: 0,
        }
    }
}

impl Iterator for JobStream {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        if self.in_block == 0 {
            self.cold_at = self.rng.range(0, 4) as usize;
        }
        let slot = self.in_block;
        self.in_block = (self.in_block + 1) % 5;
        if slot == self.cold_at {
            // Six-digit multipliers never collide with the hot set's three
            // digits; the connection index keeps the two streams apart.
            let k = 100_000 + self.conn as i64 * 400_000 + self.colds as i64 % 400_000;
            self.colds += 1;
            let c = self.rng.range(10, 99);
            return Some(JobSpec::Cold(daemon_program("cold", k, c)));
        }
        if self.pass.is_empty() {
            self.pass = (0..HOT_SET).collect();
            self.rng.shuffle(&mut self.pass);
        }
        Some(JobSpec::Hot(self.pass.pop().expect("pass refilled above")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omplt::{Backend, CompilerInstance, Options};

    fn run_interp(p: &Program, opts: Options) -> String {
        let mut ci = CompilerInstance::new(opts);
        ci.compile_and_run(&p.name, &p.source, true)
            .unwrap_or_else(|e| panic!("{} failed:\n{e}", p.name))
            .stdout
    }

    fn two_threads() -> Options {
        Options {
            num_threads: 2,
            ..Options::default()
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(translation_units(7, false), translation_units(7, false));
        assert_ne!(translation_units(7, false), translation_units(8, false));
        assert_eq!(kernels(7, Scale::Vm), kernels(7, Scale::Vm));
        assert_ne!(kernels(7, Scale::Vm), kernels(8, Scale::Vm));
        assert_eq!(hot_set(7), hot_set(7));
        assert_ne!(hot_set(7), hot_set(8));
        let stream = |seed| JobStream::new(seed, 0).take(200).collect::<Vec<_>>();
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn seeds_change_text_but_not_size() {
        for (a, b) in translation_units(1, false)
            .iter()
            .zip(&translation_units(2, false))
        {
            assert_ne!(a.source, b.source);
            assert_eq!(a.source.len(), b.source.len(), "{}", a.name);
        }
    }

    #[test]
    fn job_stream_is_one_fifth_cold_and_revisits_hot_programs_soon() {
        let jobs: Vec<JobSpec> = JobStream::new(3, 1).take(1000).collect();
        let colds = jobs
            .iter()
            .filter(|j| matches!(j, JobSpec::Cold(_)))
            .count();
        assert_eq!(colds, 200);
        let mut last_seen = [None::<usize>; HOT_SET];
        for (pos, job) in jobs.iter().enumerate() {
            if let JobSpec::Hot(i) = job {
                if let Some(prev) = last_seen[*i] {
                    assert!(pos - prev <= 2 * HOT_SET * 5 / 4 + 1, "gap {}", pos - prev);
                }
                last_seen[*i] = Some(pos);
            }
        }
        let cold_sources: std::collections::BTreeSet<_> = jobs
            .iter()
            .filter_map(|j| match j {
                JobSpec::Cold(p) => Some(p.source.clone()),
                JobSpec::Hot(_) => None,
            })
            .collect();
        assert_eq!(cold_sources.len(), 200, "cold sources never repeat");
    }

    #[test]
    fn translation_unit_mirrors_match_the_interpreter_on_both_paths() {
        for mode in [
            omplt::OpenMpCodegenMode::Classic,
            omplt::OpenMpCodegenMode::IrBuilder,
        ] {
            for p in translation_units(5, true) {
                let opts = Options {
                    codegen_mode: mode,
                    ..two_threads()
                };
                assert_eq!(run_interp(&p, opts), p.expected, "{} {mode:?}", p.name);
            }
        }
    }

    #[test]
    fn kernel_mirrors_match_the_interpreter_on_tiny_sizes() {
        for p in kernels(5, Scale::Tiny) {
            assert_eq!(run_interp(&p, two_threads()), p.expected, "{}", p.name);
        }
    }

    #[test]
    fn kernel_mirrors_match_the_widened_vm() {
        for p in kernels(6, Scale::Tiny) {
            let opts = Options {
                backend: Backend::VmStrict,
                vector_width: 4,
                ..two_threads()
            };
            assert_eq!(run_interp(&p, opts), p.expected, "{}", p.name);
        }
    }

    #[test]
    fn daemon_program_mirror_matches_the_interpreter() {
        let p = daemon_program("d", 123, 45);
        assert_eq!(run_interp(&p, Options::default()), p.expected);
    }
}
