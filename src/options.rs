//! Declare once: the job-option table and the flag scanner.
//!
//! Every option a compile/run job carries is one row of [`JOB_OPTIONS`]: its
//! wire key and JSON encoding, whether it changes the compiled artifact, its
//! command-line spelling with the help line and the wording of a rejected
//! value, and a text codec (`get`/`set`) onto [`JobRequest`]. Everything that
//! used to name the options by hand is derived from the rows: `ompltc`'s
//! argument parser and usage text, [`JobRequest::render`] and
//! [`Request::parse`](crate::protocol::Request::parse) (via [`render_job`] /
//! [`parse_job`]), and the artifact cache's fingerprint
//! ([`options_fingerprint`](crate::cache::options_fingerprint)). Adding an option is
//! adding a row (and a field for it to live in); a value is validated by the
//! same `set` whether it arrives on the command line or over the socket.
//!
//! [`scan`] is the one argv rule, shared by `ompltc` and `ompltd`.

use crate::compiler::Backend;
use crate::protocol::{schedule_to_string, JobRequest};
use omplt_ast::OpenMpCodegenMode;
use omplt_interp::RuntimeSchedule;
use omplt_trace::json::{Value, Writer};
use std::str::FromStr;

/// How a flag takes its value. [`scan`] applies one rule to every flag:
/// `Value` flags accept `--flag=V` and `--flag V`, `Optional` flags take only
/// the `=` form, switches take nothing.
#[derive(Clone, Copy)]
pub enum Arg {
    /// `--flag`
    Switch,
    /// `--flag=META`
    Value(&'static str),
    /// `--flag[=META]`
    Optional(&'static str),
}

/// One command-line flag: spelling, value form, help text (continuation
/// lines separated by `\n`).
#[derive(Clone, Copy)]
pub struct Flag {
    /// Spelling, with the leading dashes.
    pub name: &'static str,
    /// Value form.
    pub arg: Arg,
    /// Help text for the usage listing.
    pub help: &'static str,
}

/// Parses a flag value as a `T` that `ok` accepts, or words the usage error
/// (`invalid value 'V' for '--flag': expected …`).
pub fn parse_value<T: FromStr>(
    flag: &str,
    value: Option<&str>,
    expected: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let v = value.unwrap_or_default();
    (v.parse().ok().filter(ok))
        .ok_or_else(|| format!("invalid value '{v}' for '{flag}': expected {expected}"))
}

/// What [`scan`] found: the flags (as the caller's handle `H`, with the
/// value if one was given), and the positionals.
pub type Scanned<'a, H> = (Vec<(H, Option<&'a str>)>, Vec<&'a str>);

/// Splits `args` into flags and positionals (arguments not starting with
/// `-`). `find` resolves a flag name to the caller's handle and the flag's
/// value form. Errors are usage-error messages: an unknown option, or a
/// `Value` flag with nothing after it.
pub fn scan<H>(
    args: &[String],
    find: impl Fn(&str) -> Option<(H, Arg)>,
) -> Result<Scanned<'_, H>, String> {
    let (mut flags, mut positionals) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            positionals.push(a.as_str());
            continue;
        }
        let (name, inline) = match a.split_once('=') {
            Some((name, v)) => (name, Some(v)),
            None => (a.as_str(), None),
        };
        flags.push(match (find(name), inline) {
            (Some((h, Arg::Switch)), None) => (h, None),
            (Some((h, Arg::Optional(_))), v) | (Some((h, Arg::Value(_))), v @ Some(_)) => (h, v),
            (Some((h, Arg::Value(_))), None) => match it.next() {
                Some(v) => (h, Some(v.as_str())),
                None => return Err(format!("'{name}' requires a value")),
            },
            (None, _) | (Some((_, Arg::Switch)), Some(_)) => {
                return Err(format!("unknown option '{a}'"))
            }
        });
    }
    Ok((flags, positionals))
}

/// Renders the aligned option listing for `flags`, sorted by name.
pub fn help_text<'f>(flags: impl IntoIterator<Item = &'f Flag>) -> String {
    let mut flags: Vec<&Flag> = flags.into_iter().collect();
    flags.sort_by_key(|f| f.name);
    let mut out = String::new();
    for f in flags {
        let spelled = match f.arg {
            Arg::Switch => f.name.to_string(),
            Arg::Value(meta) => format!("{}={meta}", f.name),
            Arg::Optional(meta) => format!("{}[={meta}]", f.name),
        };
        for (i, line) in f.help.lines().enumerate() {
            let left = if i == 0 { spelled.as_str() } else { "" };
            out.push_str(&format!("  {left:<24} {line}\n"));
        }
    }
    out
}

/// JSON encoding of a job option in the request document. The `Opt*` forms
/// may be `null` or absent (the job keeps its default); the others are
/// required.
#[derive(Clone, Copy)]
pub enum Wire {
    /// `true` / `false`
    Bool,
    /// A non-negative integer.
    Num,
    /// A string.
    Str,
    /// An integer, `null`, or absent.
    OptNum,
    /// A string, `null`, or absent.
    OptStr,
}

/// How a job option is spelled on the `ompltc` command line.
#[derive(Clone, Copy)]
pub enum Cli {
    /// No flag: set from the environment (`OMP_SCHEDULE`) or by library
    /// callers only.
    None,
    /// A bare switch (or `[=V]` flag, whose value is the driver's business)
    /// that stores this text.
    Sets(Flag, &'static str),
    /// A valued flag; a value `set` rejects is diagnosed with this wording
    /// (`{v}` is the value).
    Takes(Flag, &'static str),
}

/// `get` and `set`: an option's text codec onto the job.
type Codec = (
    fn(&JobRequest) -> Option<String>,
    fn(&mut JobRequest, &str) -> bool,
);

/// One job option. See the module docs.
#[derive(Clone, Copy)]
pub struct OptionRow {
    /// Key in the request document.
    pub key: &'static str,
    /// JSON encoding.
    pub wire: Wire,
    /// `Some` iff the option changes the compiled artifact; maps the
    /// option's text to its cache-fingerprint token.
    pub artifact: Option<fn(&str) -> String>,
    /// Command-line spelling.
    pub cli: Cli,
    /// The option's current value as text; `None` renders as `null`.
    pub get: fn(&JobRequest) -> Option<String>,
    /// Validates and stores a value given as text; `false` = rejected.
    pub set: fn(&mut JobRequest, &str) -> bool,
}

impl OptionRow {
    const fn new(
        key: &'static str,
        wire: Wire,
        artifact: Option<fn(&str) -> String>,
        (get, set): Codec,
    ) -> OptionRow {
        let cli = Cli::None;
        OptionRow {
            key,
            wire,
            artifact,
            cli,
            get,
            set,
        }
    }

    /// Gives the row a switch-like flag that stores `text`.
    const fn sets(
        self,
        name: &'static str,
        arg: Arg,
        text: &'static str,
        help: &'static str,
    ) -> Self {
        let cli = Cli::Sets(Flag { name, arg, help }, text);
        OptionRow { cli, ..self }
    }

    /// Gives the row a valued flag; `reject` words a refused value.
    const fn takes(
        self,
        name: &'static str,
        meta: &'static str,
        reject: &'static str,
        help: &'static str,
    ) -> Self {
        let arg = Arg::Value(meta);
        let cli = Cli::Takes(Flag { name, arg, help }, reject);
        OptionRow { cli, ..self }
    }

    /// The row's flag, if it has one.
    pub fn flag(&self) -> Option<&Flag> {
        match &self.cli {
            Cli::None => None,
            Cli::Sets(flag, _) | Cli::Takes(flag, _) => Some(flag),
        }
    }

    /// Applies the row's flag as scanned from argv. `Err` is a usage-error
    /// message.
    pub fn apply_flag(&self, job: &mut JobRequest, value: Option<&str>) -> Result<(), String> {
        let (text, reject) = match self.cli {
            Cli::Sets(_, text) => (text, ""),
            Cli::Takes(_, reject) => (value.unwrap_or_default(), reject),
            Cli::None => unreachable!("'{}' has no flag to apply", self.key),
        };
        if (self.set)(job, text) {
            Ok(())
        } else {
            Err(reject.replace("{v}", text))
        }
    }
}

/// The artifact token of most options: the value itself.
const WHOLE: Option<fn(&str) -> String> = Some(|v| v.to_string());

/// The [`Codec`] of a job field: `$show(&field)` renders it, `$parse(text)`
/// yields the validated value. The short form is `Display` / `FromStr`.
macro_rules! field {
    ($($f:ident).+) => {
        field!($($f).+, |v: &str| v.parse().ok(), ToString::to_string)
    };
    ($($f:ident).+, $parse:expr, $show:expr) => {
        (
            |j| Some($show(&j.$($f).+).to_string()),
            |j, v| $parse(v).map(|x| j.$($f).+ = x).is_some(),
        )
    };
}

/// [`field!`] for an `Option` field: unset renders as `null`.
macro_rules! opt_field {
    ($($f:ident).+, $parse:expr, $show:expr) => {
        (
            |j| j.$($f).+.as_ref().map($show),
            |j, v| $parse(v).map(|x| j.$($f).+ = Some(x)).is_some(),
        )
    };
}

/// Parses an integer that `ok` accepts.
fn int<T: FromStr>(v: &str, ok: impl Fn(&T) -> bool) -> Option<T> {
    v.parse().ok().filter(ok)
}

fn mode_name(mode: &OpenMpCodegenMode) -> &'static str {
    match mode {
        OpenMpCodegenMode::Classic => "classic",
        OpenMpCodegenMode::IrBuilder => "irbuilder",
    }
}

fn parse_mode(v: &str) -> Option<OpenMpCodegenMode> {
    [OpenMpCodegenMode::Classic, OpenMpCodegenMode::IrBuilder]
        .into_iter()
        .find(|m| mode_name(m) == v)
}

/// `--diag-format` names the formats; the wire sends the boolean.
fn parse_json_diags(v: &str) -> Option<bool> {
    match v {
        "json" | "true" => Some(true),
        "text" | "false" => Some(false),
        _ => None,
    }
}

use Arg::{Optional, Switch};
use Wire::{Bool, Num, OptNum, OptStr, Str};

/// The table. Row order is the request document's key order (after `op`,
/// `id`, `name`, `source`) and the fingerprint's token order.
pub static JOB_OPTIONS: [OptionRow; 19] = [
    OptionRow::new("openmp", Bool, WHOLE, field!(opts.openmp)).sets(
        "--no-openmp",
        Switch,
        "false",
        "parse pragmas but ignore them",
    ),
    OptionRow::new(
        "mode",
        Str,
        WHOLE,
        field!(opts.codegen_mode, parse_mode, mode_name),
    )
    .sets(
        "--enable-irbuilder",
        Switch,
        "irbuilder",
        "use the OpenMPIRBuilder / OMPCanonicalLoop path",
    ),
    OptionRow::new(
        "threads",
        Num,
        None,
        field!(
            opts.num_threads,
            |v| int(v, |&n| n > 0),
            ToString::to_string
        ),
    )
    .takes(
        "--threads",
        "N",
        "invalid value '{v}' for '--threads': expected a positive integer",
        "thread-team size for `parallel` regions (default 4)",
    ),
    OptionRow::new("serial", Bool, None, field!(opts.serial)).sets(
        "--serial",
        Switch,
        "true",
        "run `parallel` regions on the calling thread (deterministic;\n\
         equivalent to a team of one executing every chunk in order)",
    ),
    // `u64` fuel travels as a string: the JSON number lane is f64 and would
    // silently round the default budget.
    OptionRow::new("max_steps", Str, None, field!(opts.max_steps)).takes(
        "--fuel",
        "N",
        "invalid value '{v}' for '--fuel': expected a non-negative integer",
        "cooperative op budget shared by the interpreter and the VM\n\
         (exhaustion is a runtime error, not a hang)",
    ),
    OptionRow::new("verify_each", Bool, WHOLE, field!(opts.verify_each)).sets(
        "--verify-each",
        Switch,
        "true",
        "re-verify IR (incl. canonical-loop skeletons) after every\n\
         transformation and mid-end pass",
    ),
    // No flag: the client resolves `OMP_SCHEDULE` into it.
    OptionRow::new(
        "schedule",
        OptStr,
        None,
        opt_field!(
            opts.runtime_schedule,
            |v| RuntimeSchedule::parse(v).ok(),
            schedule_to_string
        ),
    ),
    // `vm` and `vm:strict` run the same bytecode image: what the artifact
    // records is whether it carries one.
    OptionRow::new(
        "backend",
        Str,
        Some(|v| (v != "interp").to_string()),
        field!(opts.backend, Backend::parse, |b: &Backend| b.name()),
    )
    .takes(
        "--backend",
        "B",
        "unknown backend '{v}' for '--backend': expected 'interp', 'vm', or 'vm:strict'",
        "execution engine for --run: interp (default, tree-walking\n\
         oracle) | vm (bytecode VM; falls back to the interpreter with\n\
         a warning if bytecode compile/verify fails) | vm:strict (VM\n\
         with the fallback disabled)",
    ),
    // Optional on the wire: a frame from a client older than the option
    // means the scalar default.
    OptionRow::new(
        "vector_width",
        OptNum,
        WHOLE,
        field!(
            opts.vector_width,
            |v| int(v, |&n| n == 0 || (2..=8).contains(&n)),
            ToString::to_string
        ),
    )
    .takes(
        "--vector-width",
        "N",
        "invalid value '{v}' for '--vector-width': expected 0 (scalar) or a lane count \
         between 2 and 8",
        "widen loops to N lanes (2-8) in the VM backend; 0 (default)\n\
         stays scalar. A `simd` loop runs no more lanes than the\n\
         legality gate proved (its `safelen`); any other loop widens\n\
         only when the VM proves it stores, calls and allocates\n\
         nothing; a fault in a loop that only reads replays in the\n\
         scalar loop, so it fails where the scalar program does",
    ),
    OptionRow::new("log_chunks", Bool, None, field!(opts.log_chunks)),
    OptionRow::new(
        "deadline_ms",
        OptNum,
        None,
        opt_field!(
            opts.deadline_ms,
            |v| int(v, |&ms: &u64| ms > 0),
            ToString::to_string
        ),
    )
    .takes(
        "--exec-timeout",
        "MS",
        "invalid value '{v}' for '--exec-timeout': expected a positive number of \
         milliseconds",
        "hard wall-clock deadline for the whole invocation; on expiry\n\
         the process exits 1 with a diagnostic instead of hanging",
    ),
    OptionRow::new("optimize", Bool, WHOLE, field!(optimize)).sets(
        "--opt",
        Switch,
        "true",
        "run the mid-end pipeline (incl. LoopUnroll) first",
    ),
    OptionRow::new("run", Bool, None, field!(run)).sets(
        "--run",
        Switch,
        "true",
        "execute the module (calls `main`)",
    ),
    OptionRow::new("syntax_only", Bool, None, field!(syntax_only)).sets(
        "--syntax-only",
        Switch,
        "true",
        "stop after semantic analysis",
    ),
    OptionRow::new("emit_ir", Bool, None, field!(emit_ir)).sets(
        "--emit-ir",
        Switch,
        "true",
        "print generated IR",
    ),
    OptionRow::new(
        "json_diags",
        Bool,
        None,
        field!(json_diags, parse_json_diags, ToString::to_string),
    )
    .takes(
        "--diag-format",
        "FMT",
        "unknown diagnostics format '{v}' (text|json)",
        "diagnostics output format: text (default) | json",
    ),
    OptionRow::new("want_counters", Bool, None, field!(want_counters)).sets(
        "--counters-json",
        Optional("FILE"),
        "true",
        "dump the pipeline's named counters as JSON (stdout unless\n\
         FILE is given)",
    ),
    // The spec is validated where it is armed (`omplt_fault::arm`: the CLI
    // at parse time, the service per job), which also words the error.
    OptionRow::new(
        "inject_fault",
        OptStr,
        None,
        opt_field!(inject_fault, |v: &str| Some(v.to_string()), String::clone),
    )
    .takes(
        "--inject-fault",
        "SITE[:N]",
        "",
        "deterministic fault injection: force a failure at a registered\n\
         pipeline site on its N-th hit (default 1); see `omplt-fault`\n\
         for the catalog",
    ),
    // No flag: the warning, if any, from resolving `OMP_SCHEDULE`.
    OptionRow::new(
        "schedule_warning",
        OptStr,
        None,
        opt_field!(
            schedule_warning,
            |v: &str| Some(v.to_string()),
            String::clone
        ),
    ),
];

/// The row whose flag is spelled `name`, with the flag's value form: the
/// job-option half of a [`scan`] `find`.
pub fn job_flag(name: &str) -> Option<(&'static OptionRow, Arg)> {
    let flag = |r: &'static OptionRow| Some((r, r.flag().filter(|f| f.name == name)?.arg));
    JOB_OPTIONS.iter().find_map(flag)
}

/// Renders the request document: `op`, `id`, `name`, `source`, then one
/// member per row.
pub fn render_job(job: &JobRequest) -> String {
    let mut w = Writer::default();
    w.open('{').key("op").str("job").key("id").raw(job.id);
    w.key("name").str(&job.name).key("source").str(&job.source);
    for row in &JOB_OPTIONS {
        w.key(row.key);
        match ((row.get)(job), row.wire) {
            (None, _) => w.raw("null"),
            (Some(v), Str | OptStr) => w.str(&v),
            (Some(v), _) => w.raw(v),
        };
    }
    w.close('}').finish()
}

/// Parses a request document's job members. Every value passes the same
/// `set` (and so the same range check) as its command-line spelling.
pub fn parse_job(doc: &Value) -> Result<JobRequest, String> {
    let text = |key: &str| {
        let v = doc.get(key).and_then(Value::as_str);
        v.ok_or_else(|| format!("missing or non-string '{key}'"))
    };
    let id = doc.get("id").and_then(Value::as_u64);
    let id = id.ok_or("missing or non-integer 'id'")?;
    let mut job = JobRequest::new(id, text("name")?, text("source")?);
    for row in &JOB_OPTIONS {
        let key = row.key;
        let text = match (doc.get(key), row.wire) {
            (None | Some(Value::Null), OptNum | OptStr) => continue,
            (None, _) => return Err(format!("missing '{key}'")),
            (Some(Value::Bool(b)), Bool) => Some(b.to_string()),
            (Some(Value::Str(s)), Str | OptStr) => Some(s.clone()),
            (Some(n), Num | OptNum) => n.as_u64().map(|n| n.to_string()),
            _ => None,
        };
        if !text.is_some_and(|text| (row.set)(&mut job, &text)) {
            return Err(format!("invalid '{key}'"));
        }
    }
    Ok(job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::options_fingerprint;
    use crate::compiler::Options;
    use crate::protocol::Request;
    use std::fmt::Debug;

    /// Every `Options` field, by exhaustive destructuring: a new field is a
    /// compile error here until it is listed, and then
    /// `every_row_roundtrips_and_fingerprints_iff_artifact` demands its row.
    fn option_fields(o: &Options) -> [String; 11] {
        let Options {
            openmp,
            codegen_mode,
            num_threads,
            serial,
            max_steps,
            verify_each,
            runtime_schedule,
            backend,
            log_chunks,
            deadline_ms,
            vector_width,
        } = o;
        let fields: [&dyn Debug; 11] = [
            openmp,
            codegen_mode,
            num_threads,
            serial,
            max_steps,
            verify_each,
            runtime_schedule,
            backend,
            log_chunks,
            deadline_ms,
            vector_width,
        ];
        fields.map(|f| format!("{f:?}"))
    }

    /// Sets `row` to a non-default value: through its CLI spelling (flag
    /// scanned from argv) when it has one, through `set` otherwise.
    fn set_non_default(row: &OptionRow, job: &mut JobRequest) {
        let sample = match row.key {
            "threads" => "7",
            "max_steps" => "18446744073709551615",
            "schedule" => "dynamic,4",
            "backend" => "vm:strict",
            "vector_width" => "4",
            "deadline_ms" => "250",
            "json_diags" => "json",
            "inject_fault" => "parse.panic:2",
            "schedule_warning" => "a \"quoted\" warning",
            _ => "true",
        };
        let Some(flag) = row.flag() else {
            assert!((row.set)(job, sample), "{}", row.key);
            return;
        };
        let args = [flag.name.to_string(), sample.to_string()];
        let valued = matches!(flag.arg, Arg::Value(_));
        let (flags, _) = scan(&args[..1 + usize::from(valued)], job_flag).unwrap();
        for (row, value) in flags {
            row.apply_flag(job, value).unwrap();
        }
    }

    #[test]
    fn every_row_roundtrips_and_fingerprints_iff_artifact() {
        let base = JobRequest::new(3, "t.c", "int main(void){return 0;}\n\"quoted\"");
        let mut changed = [false; 11];
        for row in &JOB_OPTIONS {
            let mut job = base.clone();
            set_non_default(row, &mut job);
            assert_ne!(job, base, "'{}' did not leave its default", row.key);
            let parsed = Request::parse(&job.render());
            assert_eq!(
                parsed,
                Ok(Request::Job(Box::new(job.clone()))),
                "{}",
                row.key
            );
            assert_eq!(
                options_fingerprint(&job.opts, job.optimize)
                    != options_fingerprint(&base.opts, base.optimize),
                row.artifact.is_some(),
                "'{}': fingerprint must change iff artifact-affecting",
                row.key
            );
            let (before, after) = (option_fields(&base.opts), option_fields(&job.opts));
            for (i, flag) in changed.iter_mut().enumerate() {
                *flag |= before[i] != after[i];
            }
        }
        assert_eq!(changed, [true; 11], "an `Options` field has no row");
    }

    #[test]
    fn request_document_is_pinned_byte_for_byte() {
        let mut job = JobRequest::new(7, "dir/t.c", "int x;\n");
        for row in &JOB_OPTIONS {
            set_non_default(row, &mut job);
        }
        assert_eq!(
            job.render(),
            "{\"op\":\"job\",\"id\":7,\"name\":\"dir/t.c\",\"source\":\"int x;\\n\",\
             \"openmp\":false,\"mode\":\"irbuilder\",\"threads\":7,\"serial\":true,\
             \"max_steps\":\"18446744073709551615\",\"verify_each\":true,\
             \"schedule\":\"dynamic,4\",\"backend\":\"vm:strict\",\"vector_width\":4,\
             \"log_chunks\":true,\"deadline_ms\":250,\"optimize\":true,\"run\":true,\
             \"syntax_only\":true,\"emit_ir\":true,\"json_diags\":true,\
             \"want_counters\":true,\"inject_fault\":\"parse.panic:2\",\
             \"schedule_warning\":\"a \\\"quoted\\\" warning\"}"
        );
        // The default job pins the `null`s and the string-typed fuel.
        let plain = JobRequest::new(1, "a.c", "").render();
        assert!(
            plain.contains("\"max_steps\":\"500000000\",\"verify_each\":false,\"schedule\":null,")
        );
        assert!(plain.ends_with("\"inject_fault\":null,\"schedule_warning\":null}"));
    }

    #[test]
    fn wire_values_get_the_command_lines_range_checks() {
        let doc = JobRequest::new(1, "t.c", "").render();
        for (from, to) in [
            ("\"threads\":4", "\"threads\":0"),
            ("\"vector_width\":0", "\"vector_width\":9"),
            ("\"backend\":\"interp\"", "\"backend\":\"jit\""),
            ("\"openmp\":true", "\"openmp\":\"yes\""),
            ("\"serial\":false,", ""),
        ] {
            assert!(doc.contains(from), "{from}");
            let bad = doc.replace(from, to);
            assert!(Request::parse(&bad).is_err(), "{to:?} must be rejected");
        }
        // Absent `vector_width` (an older client) is the scalar default.
        let old = doc.replace("\"vector_width\":0,", "");
        assert!(matches!(Request::parse(&old), Ok(Request::Job(j)) if j.opts.vector_width == 0));
    }
}
