//! # secflow-cli
//!
//! The command-line front end. All behaviour lives here (unit-testable);
//! `main.rs` is a thin argument shim.
//!
//! ```text
//! secflow check  policy.sfl [--explain] [--certify] [--jobs N]
//!                                              # run every `require`
//! secflow audit  policy.sfl [--format=json]    # certified flaw-path report
//! secflow unfold policy.sfl --user clerk       # print S'(F)
//! secflow attack policy.sfl [--steps N]        # bounded concrete attacker
//! secflow fix    policy.sfl                    # minimal revocation repairs
//! secflow fmt    policy.sfl                    # parse + pretty-print
//! secflow serve  policy.sfl                    # resident NDJSON grant/revoke session
//! ```
//!
//! Every command also accepts `--metrics[=text|json]` (pipeline statistics
//! on stderr — phase timings, closure term/rule counters, fixpoint rounds,
//! batch list and steal counters) and `--trace[=FILE]` / `--trace-format=...`
//! (structured span/instant events, JSON Lines or Chrome `trace_event`
//! format). Metrics write to **stderr** only; trace events go to the
//! `--trace=FILE` target, falling back to stderr only when `--metrics` is
//! off — the two never interleave, and stdout stays byte-identical and
//! diff-stable either way.
//!
//! Exit codes are distinct per outcome class (see [`exit`]):
//! 0 = all requirements satisfied, 1 = at least one violated,
//! 2 = command-line usage error, 3 = input error (unreadable file,
//! parse/type/analysis failure, or output that cannot be written),
//! 4 = `--certify`/`audit` rejected a derivation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use oodb_lang::{check_schema, parse_schema, Schema};
use oodb_model::{FnRef, UserName};
use secflow::algorithm::{
    analyze_batch, analyze_batch_streaming, analyze_caps, effective_jobs, occurrences,
    AnalysisConfig, AnalysisSink, AnalysisStats, BatchGroup, BatchOptions, BatchOutcome,
    GroupRecord, StreamSummary,
};
use secflow::closure::Closure;
use secflow::incremental::IncrementalUser;
use secflow::provenance::{audit_witness, render_path, ProvenanceOptions, Severity, WalkMode};
use secflow::report::{render_derivation, render_term, Verdict};
use secflow::unfold::NProgram;
use secflow_dynamic::attack_requirement;
use secflow_dynamic::strategy::StrategySpec;
use secflow_dynamic::AttackerConfig;
use secflow_obs::{json, Json, MetricsSink, Phases, Recorder, TraceBuffer, TraceFormat};
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Process exit codes, one constant per outcome class. Scripts can rely on
/// these staying distinct: a missing input file (3) is distinguishable from
/// a policy violation (1) or a mistyped flag (2).
pub mod exit {
    /// Every requirement satisfied (or nothing to do).
    pub const OK: i32 = 0;
    /// At least one requirement violated / attack realised / repair needed.
    pub const VIOLATION: i32 = 1;
    /// Command-line usage error: unknown command, unknown flag, bad value.
    pub const USAGE: i32 = 2;
    /// Input error: unreadable policy file, parse or type errors, unknown
    /// user, or an analysis failure (e.g. the term budget aborting) — and
    /// output that cannot be written (a closed stdout), after which nothing
    /// more is written.
    pub const INPUT: i32 = 3;
    /// `--certify` found a recorded derivation the independent proof
    /// checker rejects.
    pub const CERTIFY: i32 = 4;
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `check <file> [--explain] [--certify] [--jobs N] [--stream]
    /// [--format=text|ndjson]`
    Check {
        /// Policy file path.
        file: String,
        /// Print derivations for each violation.
        explain: bool,
        /// Worker threads for the batch analysis driver (1 = serial,
        /// 0 = auto-detect the machine parallelism); runs use at most the
        /// machine parallelism.
        jobs: usize,
        /// Stream per-group verdict lines as groups complete instead of
        /// buffering the whole outcome — memory stays flat however many
        /// users the policy holds. Lines are tagged `[g<index>]` with the
        /// group's first-seen position; completion order is the pool's
        /// choice when `--jobs` exceeds 1.
        stream: bool,
        /// With `--stream`: emit each group record as one JSON object per
        /// line (NDJSON) instead of human-readable verdict lines, plus a
        /// final summary object. Machine-consumable streaming — schema
        /// pinned by `ndjson_stream_schema_is_pinned`.
        ndjson: bool,
        /// Re-validate every recorded derivation with the independent proof
        /// checker after analysis ([`Closure::certify`]); exit 4 if any
        /// derivation is rejected. Forces proof recording and full
        /// saturation.
        certify: bool,
    },
    /// `audit <file> [--format=text|json] [--severity=S] [--mode=M]
    /// [--max-depth N] [--max-paths N] [--jobs N]`
    Audit {
        /// Policy file path.
        file: String,
        /// Report rendering.
        format: AuditFormat,
        /// Drop flaw paths below this severity band (verdicts and the exit
        /// code are unaffected).
        severity: Option<Severity>,
        /// Walk direction/coverage for the path enumeration.
        mode: WalkMode,
        /// Maximum path length in proof-DAG edges.
        max_depth: usize,
        /// Enumeration cap per witness.
        max_paths: usize,
        /// Worker threads for the batch analysis driver (1 = serial,
        /// 0 = auto-detect the machine parallelism); runs use at most the
        /// machine parallelism.
        jobs: usize,
    },
    /// `unfold <file> --user <name>`
    Unfold {
        /// Policy file path.
        file: String,
        /// User whose capability list to unfold.
        user: String,
    },
    /// `attack <file> [--steps N]`
    Attack {
        /// Policy file path.
        file: String,
        /// Probe-sequence bound.
        steps: usize,
    },
    /// `fix <file>`
    Fix {
        /// Policy file path.
        file: String,
    },
    /// `fmt <file>`
    Fmt {
        /// Policy file path.
        file: String,
    },
    /// `serve <file>` — a long-lived resident session. Reads NDJSON
    /// requests (`check` / `grant` / `revoke` / `stats` / `shutdown`) from
    /// stdin and streams NDJSON responses — including per-requirement
    /// verdict *deltas* after each capability edit — to stdout. Edited
    /// users are maintained incrementally ([`secflow::IncrementalUser`]);
    /// un-edited users are answered from their capability list alone
    /// ([`analyze_caps`]).
    Serve {
        /// Policy file path.
        file: String,
    },
    /// `--help` or no arguments.
    Help,
}

/// How to render metrics on stderr.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Human-readable summary table.
    #[default]
    Text,
    /// Machine-readable JSON document.
    Json,
}

/// How `secflow audit` renders its report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AuditFormat {
    /// Human-readable path listings.
    #[default]
    Text,
    /// The versioned `secflow.audit/1` JSON document.
    Json,
}

/// Where `--trace` events go and how they are encoded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceOptions {
    /// `--trace=FILE`: write the encoded events here. `None` (bare
    /// `--trace`) falls back to stderr — but only when `--metrics` is off,
    /// so the two streams never interleave.
    pub file: Option<String>,
    /// `--trace-format=jsonl|chrome`.
    pub format: TraceFormat,
}

/// The observability flags, orthogonal to the command: `--metrics[=…]`,
/// `--trace[=FILE]` and `--trace-format=…`. Metrics emit to stderr only;
/// trace events go to the `--trace=FILE` target (stderr only as the
/// metrics-off fallback). stdout stays diff-stable in every combination.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsOptions {
    /// Emit a pipeline metrics summary after the command.
    pub metrics: Option<MetricsFormat>,
    /// Emit structured span/instant trace events.
    pub trace: Option<TraceOptions>,
}

impl ObsOptions {
    /// Are both facilities off (the plain, uninstrumented path)?
    pub fn is_off(&self) -> bool {
        self.metrics.is_none() && self.trace.is_none()
    }
}

/// Usage text.
pub const USAGE: &str = "\
secflow — static detection of security flaws in object-oriented databases
         (Tajima, SIGMOD 1996)

USAGE:
  secflow check  <policy-file> [--explain] [--certify] [--jobs N] [--stream]
                               [--format=text|ndjson]
                                             run every `require`; exit 1 on flaws
                                             (--jobs fans user groups across N threads
                                             under a work-stealing scheduler; N defaults
                                             to 1, at most the machine parallelism runs,
                                             and --jobs 0 auto-detects it; --stream
                                             prints each group's verdict lines as the
                                             group completes, tagged [g<index>] with
                                             its first-seen position, keeping memory
                                             flat however many users the policy holds —
                                             incompatible with --explain/--certify,
                                             which buffer per-group artifacts;
                                             --stream --format=ndjson emits
                                             one compact JSON object per group record
                                             plus a final summary object instead of
                                             text lines; --certify re-validates every
                                             recorded derivation with the independent
                                             proof checker and exits 4 on any rejection)
  secflow audit  <policy-file> [--format=text|json] [--severity=low|medium|high|critical]
                               [--mode=backward|forward|complete]
                               [--max-depth N] [--max-paths N] [--jobs N]
                                             run check + certify, then walk every
                                             violation's proof DAG and report the
                                             flaw paths from capability axioms
                                             (sources) to the violated requirement
                                             (sink), severity-scored; --format=json
                                             emits the versioned secflow.audit/1
                                             report; --severity filters paths below
                                             the band (verdicts and exit codes are
                                             unchanged); --jobs N as for check
  secflow unfold <policy-file> --user <u>    print the numbered unfolding S'(F)
  secflow attack <policy-file> [--steps N]   try to realise each flaw concretely
  secflow fix    <policy-file>               suggest minimal revocations per flaw
  secflow fmt    <policy-file>               parse and pretty-print the policy
  secflow serve  <policy-file>               resident incremental session: read one
                                             NDJSON request per stdin line —
                                             {\"op\":\"check\",\"user\":U},
                                             {\"op\":\"grant\"|\"revoke\",\"user\":U,\"fn\":F},
                                             {\"op\":\"stats\"}, {\"op\":\"shutdown\"} —
                                             and stream NDJSON responses; grant/revoke
                                             maintain the edited user's closure
                                             incrementally (proof-guided retraction +
                                             warm restart) and report only the verdicts
                                             that *changed*; malformed requests get an
                                             {\"error\":…} record and the session
                                             continues; exit 0 on shutdown/EOF

OBSERVABILITY (any command; stdout is unchanged):
  --metrics[=text|json]   pipeline statistics on stderr: per-phase timings,
                          closure term counts per capability kind, rule
                          firings, fixpoint rounds, worklist peak, dedup
                          rate, batch capability-list and work-steal
                          counts
  --trace[=FILE]          structured span/instant trace events (closure
                          phases, per-rule firings) with
                          monotonic timestamps; written to FILE, or to
                          stderr only when --metrics is off (the streams
                          never interleave — with --metrics on and no FILE,
                          events are dropped)
  --trace-format=jsonl|chrome
                          event encoding: JSON Lines (default) or Chrome
                          trace_event JSON, loadable in Perfetto /
                          about://tracing

EXIT CODES (distinct per outcome class, stable for scripting):
  0   every requirement satisfied (or nothing to do)
  1   at least one requirement violated / attack realised / repair needed
  2   command-line usage error (unknown command or flag, bad value)
  3   input error: unreadable file, parse/type error, analysis failure;
      or unwritable output (e.g. a closed pipe), which ends output at once
  4   --certify or audit rejected a recorded derivation

POLICY FILES contain class, fn, user and require declarations:

  class Broker { name: string, salary: int, budget: int }
  fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
  user clerk { checkBudget, w_budget }
  require (clerk, r_salary(x) : ti)
";

/// Parse a command line including the observability flags. `--metrics`,
/// `--metrics=text|json`, `--trace`, `--trace=FILE` and
/// `--trace-format=jsonl|chrome` are accepted anywhere on the line;
/// everything else goes through [`parse_args`].
pub fn parse_args_with_obs(args: &[String]) -> Result<(Command, ObsOptions), String> {
    let mut obs = ObsOptions::default();
    let mut trace_on = false;
    let mut trace_file: Option<String> = None;
    let mut trace_format: Option<TraceFormat> = None;
    let mut rest = Vec::with_capacity(args.len());
    for a in args {
        match a.as_str() {
            "--metrics" | "--metrics=text" => obs.metrics = Some(MetricsFormat::Text),
            "--metrics=json" => obs.metrics = Some(MetricsFormat::Json),
            "--trace" => trace_on = true,
            other if other.starts_with("--metrics=") => {
                let fmt = &other["--metrics=".len()..];
                return Err(format!("unknown metrics format `{fmt}` (use text or json)"));
            }
            other if other.starts_with("--trace-format=") => {
                let fmt = &other["--trace-format=".len()..];
                trace_format = Some(TraceFormat::parse(fmt).ok_or_else(|| {
                    format!("unknown trace format `{fmt}` (use jsonl or chrome)")
                })?);
            }
            other if other.starts_with("--trace=") => {
                let file = &other["--trace=".len()..];
                if file.is_empty() {
                    return Err("--trace= needs a file path (or use bare --trace)".into());
                }
                trace_on = true;
                trace_file = Some(file.to_owned());
            }
            _ => rest.push(a.clone()),
        }
    }
    if trace_on {
        obs.trace = Some(TraceOptions {
            file: trace_file,
            format: trace_format.unwrap_or_default(),
        });
    } else if trace_format.is_some() {
        return Err("--trace-format requires --trace or --trace=FILE".into());
    }
    Ok((parse_args(&rest)?, obs))
}

/// Parse a command line (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "-h" | "--help" | "help" => Ok(Command::Help),
        "check" => {
            let mut file = None;
            let mut explain = false;
            let mut jobs = 1usize;
            let mut stream = false;
            let mut ndjson = false;
            let mut certify = false;
            let mut args = it.peekable();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--explain" => explain = true,
                    "--stream" => stream = true,
                    "--format=ndjson" => ndjson = true,
                    "--format=text" => ndjson = false,
                    "--certify" => certify = true,
                    "--jobs" => {
                        // 0 is meaningful: auto-detect the machine
                        // parallelism (std::thread::available_parallelism).
                        jobs = args
                            .next()
                            .ok_or("check: --jobs needs a value")?
                            .parse()
                            .map_err(|_| "check: --jobs must be a number")?;
                    }
                    _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
                    other => {
                        return Err(format!(
                            "unexpected argument `{other}` (check accepts --explain, \
                             --certify, --jobs N, --stream, --format=text|ndjson)"
                        ))
                    }
                }
            }
            if stream && (explain || certify) {
                return Err(
                    "check: --stream cannot be combined with --explain or --certify \
                     (both need buffered per-group artifacts)"
                        .into(),
                );
            }
            if ndjson && !stream {
                return Err(
                    "check: --format=ndjson requires --stream (it is the streaming \
                     record format)"
                        .into(),
                );
            }
            let file = file.ok_or("check: missing policy file")?;
            Ok(Command::Check {
                file,
                explain,
                jobs,
                stream,
                ndjson,
                certify,
            })
        }
        "audit" => {
            let mut file = None;
            let mut format = AuditFormat::default();
            let mut severity = None;
            let mut mode = WalkMode::default();
            let defaults = ProvenanceOptions::default();
            let mut max_depth = defaults.max_depth;
            let mut max_paths = defaults.max_paths;
            let mut jobs = 1usize;
            let mut args = it.peekable();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--format=text" => format = AuditFormat::Text,
                    "--format=json" => format = AuditFormat::Json,
                    "--max-depth" => {
                        max_depth = args
                            .next()
                            .ok_or("audit: --max-depth needs a value")?
                            .parse()
                            .map_err(|_| "audit: --max-depth must be a number")?;
                        if max_depth == 0 {
                            return Err("audit: --max-depth must be at least 1".into());
                        }
                    }
                    "--max-paths" => {
                        max_paths = args
                            .next()
                            .ok_or("audit: --max-paths needs a value")?
                            .parse()
                            .map_err(|_| "audit: --max-paths must be a number")?;
                        if max_paths == 0 {
                            return Err("audit: --max-paths must be at least 1".into());
                        }
                    }
                    "--jobs" => {
                        // 0 auto-detects the machine parallelism, as in check.
                        jobs = args
                            .next()
                            .ok_or("audit: --jobs needs a value")?
                            .parse()
                            .map_err(|_| "audit: --jobs must be a number")?;
                    }
                    other if other.starts_with("--severity=") => {
                        let s = &other["--severity=".len()..];
                        severity = Some(Severity::parse(s).ok_or_else(|| {
                            format!(
                                "audit: unknown severity `{s}` (use low, medium, high or critical)"
                            )
                        })?);
                    }
                    other if other.starts_with("--mode=") => {
                        let m = &other["--mode=".len()..];
                        mode = WalkMode::parse(m).ok_or_else(|| {
                            format!("audit: unknown mode `{m}` (use backward, forward or complete)")
                        })?;
                    }
                    other if other.starts_with("--format=") => {
                        let f = &other["--format=".len()..];
                        return Err(format!("audit: unknown format `{f}` (use text or json)"));
                    }
                    _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
                    other => {
                        return Err(format!(
                            "unexpected argument `{other}` (audit accepts --format=text|json, \
                             --severity=S, --mode=M, --max-depth N, --max-paths N, --jobs N)"
                        ))
                    }
                }
            }
            Ok(Command::Audit {
                file: file.ok_or("audit: missing policy file")?,
                format,
                severity,
                mode,
                max_depth,
                max_paths,
                jobs,
            })
        }
        "unfold" => {
            let mut file = None;
            let mut user = None;
            let mut args = it.peekable();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--user" => {
                        user = Some(args.next().ok_or("unfold: --user needs a value")?.clone())
                    }
                    _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Unfold {
                file: file.ok_or("unfold: missing policy file")?,
                user: user.ok_or("unfold: missing --user")?,
            })
        }
        "attack" => {
            let mut file = None;
            let mut steps = 2usize;
            let mut args = it.peekable();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--steps" => {
                        steps = args
                            .next()
                            .ok_or("attack: --steps needs a value")?
                            .parse()
                            .map_err(|_| "attack: --steps must be a number")?;
                    }
                    _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
                    other => return Err(format!("unexpected argument `{other}`")),
                }
            }
            Ok(Command::Attack {
                file: file.ok_or("attack: missing policy file")?,
                steps,
            })
        }
        "fix" => Ok(Command::Fix {
            file: only_file("fix", it)?,
        }),
        "fmt" => Ok(Command::Fmt {
            file: only_file("fmt", it)?,
        }),
        "serve" => Ok(Command::Serve {
            file: only_file("serve", it)?,
        }),
        other => Err(format!("unknown command `{other}` (try --help)")),
    }
}

/// The policy file of a command that takes nothing else; any other
/// argument, or a second file, is a usage error.
fn only_file<'a>(cmd: &str, args: impl Iterator<Item = &'a String>) -> Result<String, String> {
    let mut file = None;
    for a in args {
        match a.as_str() {
            _ if file.is_none() && !a.starts_with('-') => file = Some(a.clone()),
            other => {
                return Err(format!(
                    "unexpected argument `{other}` ({cmd} takes only the policy file)"
                ))
            }
        }
    }
    file.ok_or_else(|| format!("{cmd}: missing policy file"))
}

/// Parse + type-check policy text (exposed for tests).
pub fn load_str(src: &str) -> Result<Schema, String> {
    let schema = parse_schema(src).map_err(|e| e.to_string())?;
    check_schema(&schema).map_err(|e| e.to_string())?;
    Ok(schema)
}

/// Run a command against policy *text*; returns (report, exit code).
pub fn run_on_source(cmd: &Command, src: &str) -> (String, i32) {
    let out = run_on_source_with_obs(cmd, src, &ObsOptions::default());
    (out.stdout, out.code)
}

/// Run a command end-to-end (file IO included); returns (report, exit code).
pub fn run(cmd: &Command) -> (String, i32) {
    let mut out = Vec::new();
    let (_, code) = run_with_obs(cmd, &ObsOptions::default(), &mut out);
    (String::from_utf8_lossy(&out).into_owned(), code)
}

/// Output of an instrumented run on policy text: the report (stdout), the
/// observability stream (stderr), the encoded trace document (when
/// `--trace=FILE` was given — the caller writes it) and the exit code.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CliOutput {
    /// The command's report — byte-identical to the uninstrumented run.
    pub stdout: String,
    /// The metrics summary and/or (only when `--metrics` is off) the
    /// encoded trace events; empty when both facilities are off.
    pub stderr: String,
    /// The encoded trace document destined for the `--trace=FILE` target;
    /// `None` unless a trace file was requested.
    pub trace_output: Option<String>,
    /// Process exit code.
    pub code: i32,
}

/// Per-group data captured for the trace timeline: the group's phase
/// durations, closure counters and per-requirement check spans.
#[derive(Default)]
struct GroupTrace {
    user: String,
    phases: Phases,
    terms: u64,
    rounds: u64,
    firings: Vec<(&'static str, u64)>,
    checks: Vec<(String, std::time::Duration)>,
}

/// Everything collected while an instrumented command runs.
#[derive(Default)]
struct Collected {
    /// The front end's and the command's phases, with every batch group's
    /// stats folded in.
    stats: AnalysisStats,
    requirements: u64,
    lists: u64,
    steals: u64,
    groups: Vec<GroupTrace>,
}

impl Collected {
    fn record_to(&self, sink: &mut dyn MetricsSink) {
        self.stats.phases.record_to(sink);
        if self.requirements > 0 {
            self.stats.closure.record_to(sink);
            sink.counter("analysis.requirements", self.requirements);
            sink.counter("analysis.program_nodes", self.stats.program_nodes);
            sink.counter("analysis.occurrences", self.stats.occurrences_checked);
            sink.counter("batch.lists", self.lists);
            sink.counter("batch.steals", self.steals);
        }
    }

    /// Synthesise the trace timeline from the collected durations: the
    /// driver phases on lane 0, each batch group on its own lane (so
    /// parallel groups render as parallel tracks in Perfetto), closure
    /// spans annotated with term/round counters and per-rule firings.
    fn build_trace(&self) -> TraceBuffer {
        let mut tb = TraceBuffer::new();
        let us = |d: std::time::Duration| d;
        let mut cursor = 0u64;
        let mut group_start = 0u64;
        for (name, d) in self.stats.phases.iter() {
            tb.span(name, "phase", 0, cursor, us(d), vec![]);
            cursor += d.as_micros() as u64;
            if name == "typecheck" {
                group_start = cursor;
            }
        }
        for (gi, g) in self.groups.iter().enumerate() {
            let tid = gi as u64 + 1;
            let mut t = group_start;
            for (name, d) in g.phases.iter() {
                let mut args = vec![("user".to_owned(), Json::str(&g.user))];
                if name == "closure" {
                    args.push(("terms".to_owned(), Json::count(g.terms)));
                    args.push(("rounds".to_owned(), Json::count(g.rounds)));
                    for (rule, n) in &g.firings {
                        args.push((format!("rule.{rule}"), Json::count(*n)));
                    }
                }
                tb.span(name, "group", tid, t, us(d), args);
                t += d.as_micros() as u64;
            }
            for (req, d) in &g.checks {
                tb.span(
                    "check",
                    "requirement",
                    tid,
                    t,
                    us(*d),
                    vec![("requirement".to_owned(), Json::str(req))],
                );
                t += d.as_micros() as u64;
            }
        }
        tb
    }
}

/// Run a command against policy text with observability. When both
/// facilities are off this is exactly [`run_on_source`] with empty stderr;
/// otherwise stdout is still byte-identical, stderr carries the metrics
/// summary (and the encoded trace only when `--metrics` is off), and
/// [`CliOutput::trace_output`] carries the trace document destined for the
/// `--trace=FILE` target.
pub fn run_on_source_with_obs(cmd: &Command, src: &str, obs: &ObsOptions) -> CliOutput {
    let mut stdout = Vec::new();
    let (stderr, trace_output, code) = run_observed(cmd, src, obs, &mut stdout);
    CliOutput {
        stdout: String::from_utf8_lossy(&stdout).into_owned(),
        stderr,
        trace_output,
        code,
    }
}

/// [`execute`] with observability, the report written to `out`: returns
/// the stderr text, the trace document for a `--trace=FILE` target and the
/// exit code.
fn run_observed(
    cmd: &Command,
    src: &str,
    obs: &ObsOptions,
    out: &mut (dyn Write + Send),
) -> (String, Option<String>, i32) {
    let mut col = Collected::default();
    let report = execute(cmd, src, (!obs.is_off()).then_some(&mut col), out);
    let (mut stderr, code) = finish(report, out);
    let mut trace_output = None;
    if let Some(trace) = &obs.trace {
        let encoded = col.build_trace().encode(trace.format);
        if trace.file.is_some() {
            trace_output = Some(encoded);
        } else if obs.metrics.is_none() {
            // Bare --trace without --metrics: stderr is free, use it.
            stderr.push_str(&encoded);
        }
        // With --metrics on and no file target the events are dropped:
        // the two streams must never interleave on stderr.
    }
    if let Some(format) = obs.metrics {
        let mut rec = Recorder::new();
        col.record_to(&mut rec);
        if let Some(kb) = peak_rss_kb() {
            rec.gauge("process.peak_rss_kb", kb as f64);
        }
        let report = rec.into_report();
        match format {
            MetricsFormat::Text => stderr.push_str(&report.render_table()),
            MetricsFormat::Json => stderr.push_str(&report.to_json().pretty()),
        }
    }
    (stderr, trace_output, code)
}

/// The process's peak resident set so far, in KiB: `VmHWM` in
/// `/proc/self/status`, where that file exists.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Flush `out` after a report was written to it. Returns the stderr text
/// and the exit code: a failed write or flush ended output, and the run
/// exits [`exit::INPUT`] with one line on stderr — exit 0 or 1 would tell
/// a script a verdict it never received.
fn finish(report: io::Result<i32>, out: &mut dyn Write) -> (String, i32) {
    match report.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => (String::new(), code),
        Err(e) => (format!("error: cannot write output: {e}\n"), exit::INPUT),
    }
}

/// Run a command end-to-end with observability: file IO included, the
/// report written to `out` and flushed (the binary passes a buffered
/// stdout, which the stream path writes from worker threads, hence `Send`),
/// and the `--trace=FILE` document written to its target. Returns the
/// stderr text and the exit code.
pub fn run_with_obs(
    cmd: &Command,
    obs: &ObsOptions,
    out: &mut (dyn Write + Send),
) -> (String, i32) {
    let file = match cmd {
        Command::Help => return finish(out.write_all(USAGE.as_bytes()).map(|()| exit::OK), out),
        Command::Check { file, .. }
        | Command::Audit { file, .. }
        | Command::Unfold { file, .. }
        | Command::Attack { file, .. }
        | Command::Fix { file }
        | Command::Fmt { file }
        | Command::Serve { file } => file,
    };
    let src = match std::fs::read_to_string(file) {
        Ok(src) => src,
        Err(e) => {
            let report = writeln!(out, "error: cannot read `{file}`: {e}");
            return finish(report.map(|()| exit::INPUT), out);
        }
    };
    let (mut stderr, trace_output, code) = run_observed(cmd, &src, obs, out);
    let path = obs.trace.as_ref().and_then(|t| t.file.as_ref());
    if let (Some(path), Some(doc)) = (path, trace_output) {
        if let Err(e) = std::fs::write(path, doc) {
            let _ = writeln!(stderr, "error: cannot write trace to `{path}`: {e}");
        }
    }
    (stderr, code)
}

/// The one command dispatcher behind every entry point: each report is
/// written into `out`, and the exit code returned; an error is a write
/// into `out` that failed. With a collector, phases are timed and the
/// analysis commands collect their batch statistics into it; the report
/// and exit code are the same either way.
fn execute(
    cmd: &Command,
    src: &str,
    mut col: Option<&mut Collected>,
    out: &mut (dyn Write + Send),
) -> io::Result<i32> {
    if let Command::Help = cmd {
        out.write_all(USAGE.as_bytes())?;
        return Ok(exit::OK);
    }
    let schema = match timed(&mut col, "parse", || parse_schema(src)) {
        Ok(s) => s,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(exit::INPUT);
        }
    };
    if let Err(e) = timed(&mut col, "typecheck", || check_schema(&schema)) {
        writeln!(out, "error: {e}")?;
        return Ok(exit::INPUT);
    }
    match cmd {
        Command::Help => unreachable!("--help is answered before the policy is parsed"),
        Command::Fmt { .. } => {
            write!(out, "{schema}")?;
            Ok(exit::OK)
        }
        &Command::Check {
            explain,
            jobs,
            stream,
            ndjson,
            certify,
            ..
        } => {
            let jobs = workers(jobs);
            if stream {
                check_report_stream(&schema, jobs, ndjson, col, out)
            } else {
                check_report(&schema, explain, jobs, certify, col, out)
            }
        }
        Command::Audit {
            file,
            format,
            severity,
            mode,
            max_depth,
            max_paths,
            jobs,
        } => {
            let opts = AuditOptions {
                policy: file.clone(),
                format: *format,
                severity: *severity,
                provenance: ProvenanceOptions {
                    max_depth: *max_depth,
                    max_paths: *max_paths,
                    mode: *mode,
                },
            };
            let outcome = audit_batch(&schema, workers(*jobs));
            if let Some(col) = col.as_deref_mut() {
                collect_batch(&schema, &outcome.summary, &outcome.groups, col);
            }
            let (report, code) =
                timed(&mut col, "audit", || render_audit(&schema, &outcome, &opts));
            out.write_all(report.as_bytes())?;
            Ok(code)
        }
        Command::Unfold { user, .. } => {
            timed(&mut col, "unfold", || unfold_report(&schema, user, out))
        }
        Command::Attack { steps, .. } => {
            timed(&mut col, "attack", || attack_report(&schema, *steps, out))
        }
        Command::Fix { .. } => timed(&mut col, "fix", || fix_report(&schema, out)),
        Command::Serve { .. } => timed(&mut col, "serve", || {
            serve(&schema, io::stdin().lock(), out)
        }),
    }
}

/// The worker count `check` and `audit` run for `--jobs N`: N, but no more
/// than the machine parallelism, which `0` leaves the batch analysis to
/// detect. Each worker is an OS thread, so a large N would otherwise
/// exhaust the thread limit. N ≤ 1 skips the query, which reads the
/// process's cgroup files.
fn workers(jobs: usize) -> usize {
    if jobs <= 1 {
        jobs
    } else {
        jobs.min(effective_jobs(0))
    }
}

/// Run `f`, timed as phase `name` when a collector is passed.
fn timed<T>(col: &mut Option<&mut Collected>, name: &str, f: impl FnOnce() -> T) -> T {
    match col {
        Some(col) => col.stats.phases.time(name, f),
        None => f(),
    }
}

/// Fold a batch into the metrics/trace collector: the summary's folded
/// group stats, requirement, list and steal counts, and one trace lane per
/// group a buffered batch kept (`groups`; none for a stream).
fn collect_batch(
    schema: &Schema,
    summary: &StreamSummary,
    groups: &[BatchGroup],
    col: &mut Collected,
) {
    col.stats.merge(&summary.stats);
    col.requirements = summary.requirements as u64;
    col.lists = summary.lists as u64;
    col.steals = summary.steals;
    for g in groups {
        col.groups.push(GroupTrace {
            user: g.user.to_string(),
            phases: g.stats.phases.clone(),
            terms: g.stats.closure.total_terms(),
            rounds: g.stats.closure.rounds,
            firings: g.stats.closure.firings.clone(),
            checks: g
                .req_indexes
                .iter()
                .zip(&g.check_times)
                .map(|(&i, d)| (schema.requirements[i].to_string(), *d))
                .collect(),
        });
    }
}

/// Run the batch driver over every `require` of the policy. `--explain`
/// needs proof-carrying closures (and keeps them as artifacts so the
/// rendering reuses the group's closure instead of recomputing it per
/// requirement); the plain path runs the demand-driven engine, which
/// saturates each distinct capability list once, instrumented or not.
/// `--certify` forces proof recording and kept artifacts — the proof
/// checker needs the whole derivation record.
fn check_batch(
    schema: &Schema,
    explain: bool,
    jobs: usize,
    certify: bool,
    stats: bool,
) -> BatchOutcome {
    let opts = BatchOptions {
        jobs,
        keep_artifacts: explain || certify,
        collect_stats: stats,
    };
    analyze_batch(
        schema,
        &schema.requirements,
        &AnalysisConfig::default(),
        &opts,
    )
}

/// The certification pass `check --certify` and `audit` share: the
/// independent proof checker re-validates every group's kept closure.
/// Groups whose shared phases failed kept no artifacts; their errors are
/// reported per requirement, so there is nothing to certify. Returns the
/// certificates and the `certified: …` summary line, or the failure line
/// naming the first rejected user's structured [`secflow::CheckError`].
fn certify_groups(outcome: &BatchOutcome) -> Result<(Vec<secflow::Certificate>, String), String> {
    let mut certs = Vec::with_capacity(outcome.groups.len());
    let mut derivations = 0usize;
    for g in &outcome.groups {
        let Some((prog, closure)) = g.artifacts.as_ref() else {
            continue;
        };
        let cert = closure
            .certify(prog, &secflow::rules::RuleConfig::default())
            .map_err(|e| format!("certification FAILED for user `{}`: {e}", g.user))?;
        derivations += cert.terms_checked;
        certs.push(cert);
    }
    let summary = format!(
        "certified: {derivations} derivation(s) re-validated across {} closure(s)",
        certs.len()
    );
    Ok((certs, summary))
}

/// The `--certify` pass of `check`: writes the summary line on success;
/// on a rejection writes the failure line and returns [`exit::CERTIFY`].
/// Returns the certificates so an instrumented run can absorb the per-rule
/// check counters into its metrics.
fn certify_outcome(
    outcome: &BatchOutcome,
    out: &mut dyn Write,
) -> io::Result<Result<Vec<secflow::Certificate>, i32>> {
    Ok(match certify_groups(outcome) {
        Ok((certs, summary)) => {
            writeln!(out, "{summary}")?;
            Ok(certs)
        }
        Err(failure) => {
            writeln!(out, "{failure}")?;
            Err(exit::CERTIFY)
        }
    })
}

/// Requirement index → group index, from a batch outcome.
fn group_of(outcome: &BatchOutcome, n_reqs: usize) -> Vec<usize> {
    let mut map = vec![0usize; n_reqs];
    for (gi, g) in outcome.groups.iter().enumerate() {
        for &i in &g.req_indexes {
            map[i] = gi;
        }
    }
    map
}

/// The versioned identifier of the audit JSON report shape. Bump the
/// suffix on any structural change — consumers pin on this string.
pub const AUDIT_SCHEMA: &str = "secflow.audit/1";

/// Rendering options for [`render_audit`].
#[derive(Clone, Debug)]
pub struct AuditOptions {
    /// The policy path echoed in the report header.
    pub policy: String,
    /// Text or versioned JSON.
    pub format: AuditFormat,
    /// Drop paths below this band (verdicts and exit codes unchanged).
    pub severity: Option<Severity>,
    /// Walk mode, depth limit and enumeration cap.
    pub provenance: ProvenanceOptions,
}

/// Run the batch driver configured for auditing: proof recording on,
/// artifacts kept (the certifier and the provenance walk both need them),
/// per-group stats collected for the report. No closure cache takes part,
/// so the report's `cache` is always `null`.
pub fn audit_batch(schema: &Schema, jobs: usize) -> BatchOutcome {
    let opts = BatchOptions {
        jobs,
        keep_artifacts: true,
        collect_stats: true,
    };
    analyze_batch(
        schema,
        &schema.requirements,
        &AnalysisConfig::default(),
        &opts,
    )
}

/// Render the audit report from a proof-carrying [`BatchOutcome`]:
/// re-certify every group's derivation record, walk each violation
/// witness's proof DAG into flaw paths, and emit either the human-readable
/// listing or the versioned [`AUDIT_SCHEMA`] JSON document. Exit codes
/// reuse the check classes: 0 clean, 1 violations, 3 analysis errors,
/// 4 when certification rejects a derivation (no paths are reported from
/// an uncertified proof store).
pub fn render_audit(schema: &Schema, outcome: &BatchOutcome, opts: &AuditOptions) -> (String, i32) {
    for (i, v) in outcome.verdicts.iter().enumerate() {
        if let Err(e) = v {
            return (
                format!("error {}: {e}\n", schema.requirements[i]),
                exit::INPUT,
            );
        }
    }
    // Certify first: flaw paths are only reported from a derivation record
    // the independent checker accepts.
    let (certs, certified) = match certify_groups(outcome) {
        Ok(pass) => pass,
        Err(failure) => return audit_rejected(opts, failure),
    };

    let group_idx = group_of(outcome, schema.requirements.len());
    let min = opts.severity;
    let mut text = String::new();
    let _ = write!(
        text,
        "AUDIT {} — mode {}, max depth {}",
        opts.policy,
        opts.provenance.mode.name(),
        opts.provenance.max_depth
    );
    if let Some(s) = min {
        let _ = write!(text, ", min severity {s}");
    }
    text.push('\n');

    let mut violations_json = Vec::new();
    let mut violated = 0usize;
    let mut total_paths = 0usize;
    let mut by_severity = [0usize; 4]; // indexed by Severity as usize
    let mut max_severity: Option<Severity> = None;

    for (i, req) in schema.requirements.iter().enumerate() {
        let g = &outcome.groups[group_idx[i]];
        let violations = match &outcome.verdicts[i] {
            Ok(Verdict::Satisfied) => {
                let _ = writeln!(text, "ok    {req}");
                continue;
            }
            Ok(Verdict::Violated(v)) => v,
            Err(_) => unreachable!("errors returned above"),
        };
        violated += 1;
        let Some((prog, closure)) = g.artifacts.as_ref() else {
            unreachable!("violated verdicts come from groups whose shared phases succeeded")
        };
        let mut witnesses_json = Vec::new();
        let mut req_score = 0u32;
        let mut witness_text = String::new();
        for v in violations {
            for w in &v.witnesses {
                let mut report = match audit_witness(closure, w, &opts.provenance) {
                    Ok(r) => r,
                    Err(e) => {
                        return audit_rejected(
                            opts,
                            format!("flaw-path walk FAILED for user `{}`: {e}", g.user),
                        )
                    }
                };
                req_score = req_score.max(report.score);
                if let Some(min) = min {
                    report.paths.retain(|p| p.severity >= min);
                }
                total_paths += report.paths.len();
                for p in &report.paths {
                    by_severity[p.severity as usize] += 1;
                    max_severity = Some(max_severity.map_or(p.severity, |m| m.max(p.severity)));
                }
                let _ = writeln!(
                    witness_text,
                    "  witness {}  — {} {} path(s), severity {} (score {})",
                    render_term(prog, w),
                    report.paths.len(),
                    opts.provenance.mode.name(),
                    report.severity,
                    report.score,
                );
                for (pi, p) in report.paths.iter().enumerate() {
                    let _ = writeln!(
                        witness_text,
                        "    path {}: {} (score {}), {} step(s){}",
                        pi + 1,
                        p.severity,
                        p.score,
                        p.steps.len(),
                        if p.truncated { ", truncated" } else { "" },
                    );
                    for line in render_path(prog, p).lines() {
                        let _ = writeln!(witness_text, "      {line}");
                    }
                }
                witnesses_json.push(witness_json(prog, &report));
            }
        }
        let req_severity = Severity::from_score(req_score);
        let _ = writeln!(
            text,
            "FLAW  {req}  ({} occurrence(s), severity {req_severity})",
            violations.len()
        );
        text.push_str(&witness_text);
        violations_json.push(Json::Obj(vec![
            ("requirement".to_owned(), Json::str(&req.to_string())),
            ("user".to_owned(), Json::str(req.user.as_ref())),
            ("severity".to_owned(), Json::str(req_severity.name())),
            ("score".to_owned(), Json::count(req_score as u64)),
            (
                "occurrences".to_owned(),
                Json::count(violations.len() as u64),
            ),
            ("witnesses".to_owned(), Json::Arr(witnesses_json)),
        ]));
    }

    let _ = write!(
        text,
        "{} requirement(s), {violated} violated; {total_paths} flaw path(s)",
        schema.requirements.len()
    );
    if let Some(s) = max_severity {
        let _ = write!(text, "; max severity {s}");
    }
    text.push('\n');
    let _ = writeln!(text, "{certified}");

    let code = if violated > 0 {
        exit::VIOLATION
    } else {
        exit::OK
    };
    match opts.format {
        AuditFormat::Text => (text, code),
        AuditFormat::Json => {
            let groups = outcome
                .groups
                .iter()
                .map(|g| {
                    Json::Obj(vec![
                        ("user".to_owned(), Json::str(g.user.as_ref())),
                        (
                            "requirements".to_owned(),
                            Json::count(g.req_indexes.len() as u64),
                        ),
                        (
                            "closure_terms".to_owned(),
                            Json::count(g.stats.closure.total_terms()),
                        ),
                        ("rounds".to_owned(), Json::count(g.stats.closure.rounds)),
                    ])
                })
                .collect();
            let doc = Json::Obj(vec![
                ("schema".to_owned(), Json::str(AUDIT_SCHEMA)),
                ("policy".to_owned(), Json::str(&opts.policy)),
                ("mode".to_owned(), Json::str(opts.provenance.mode.name())),
                (
                    "max_depth".to_owned(),
                    Json::count(opts.provenance.max_depth as u64),
                ),
                (
                    "max_paths".to_owned(),
                    Json::count(opts.provenance.max_paths as u64),
                ),
                (
                    "min_severity".to_owned(),
                    min.map_or(Json::Null, |s| Json::str(s.name())),
                ),
                (
                    "requirements".to_owned(),
                    Json::count(schema.requirements.len() as u64),
                ),
                ("violated".to_owned(), Json::count(violated as u64)),
                (
                    "certified".to_owned(),
                    Json::Obj(vec![
                        ("closures".to_owned(), Json::count(certs.len() as u64)),
                        (
                            "derivations".to_owned(),
                            Json::count(certs.iter().map(|c| c.terms_checked as u64).sum()),
                        ),
                    ]),
                ),
                ("violations".to_owned(), Json::Arr(violations_json)),
                ("groups".to_owned(), Json::Arr(groups)),
                ("cache".to_owned(), Json::Null),
                (
                    "summary".to_owned(),
                    Json::Obj(vec![
                        ("paths".to_owned(), Json::count(total_paths as u64)),
                        (
                            "max_severity".to_owned(),
                            max_severity.map_or(Json::Null, |s| Json::str(s.name())),
                        ),
                        (
                            "by_severity".to_owned(),
                            Json::Obj(
                                [
                                    Severity::Critical,
                                    Severity::High,
                                    Severity::Medium,
                                    Severity::Low,
                                ]
                                .iter()
                                .map(|s| {
                                    (
                                        s.name().to_owned(),
                                        Json::count(by_severity[*s as usize] as u64),
                                    )
                                })
                                .collect(),
                            ),
                        ),
                    ]),
                ),
            ]);
            (doc.pretty(), code)
        }
    }
}

/// The audit failure surface: certification (or the walk itself) rejected
/// the proof store, so no flaw paths are reported. Exit [`exit::CERTIFY`].
fn audit_rejected(opts: &AuditOptions, msg: String) -> (String, i32) {
    match opts.format {
        AuditFormat::Text => (format!("{msg}\n"), exit::CERTIFY),
        AuditFormat::Json => {
            let doc = Json::Obj(vec![
                ("schema".to_owned(), Json::str(AUDIT_SCHEMA)),
                ("policy".to_owned(), Json::str(&opts.policy)),
                ("certified".to_owned(), Json::Bool(false)),
                ("error".to_owned(), Json::str(&msg)),
            ]);
            (doc.pretty(), exit::CERTIFY)
        }
    }
}

/// One witness's JSON block: the rendered term, its aggregate severity and
/// every flaw path with rendered steps.
fn witness_json(prog: &NProgram, report: &secflow::WitnessReport) -> Json {
    let paths = report
        .paths
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("severity".to_owned(), Json::str(p.severity.name())),
                ("score".to_owned(), Json::count(p.score as u64)),
                (
                    "source".to_owned(),
                    Json::str(&render_term(prog, &p.source)),
                ),
                ("source_kind".to_owned(), Json::str(p.source_kind.name())),
                ("sink".to_owned(), Json::str(&render_term(prog, &p.sink))),
                ("truncated".to_owned(), Json::Bool(p.truncated)),
                (
                    "steps".to_owned(),
                    Json::Arr(
                        p.steps
                            .iter()
                            .map(|s| {
                                Json::Obj(vec![
                                    ("term".to_owned(), Json::str(&render_term(prog, &s.term))),
                                    ("rule".to_owned(), Json::str(s.rule)),
                                    ("depth".to_owned(), Json::count(s.depth as u64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "term".to_owned(),
            Json::str(&render_term(prog, &report.witness)),
        ),
        ("severity".to_owned(), Json::str(report.severity.name())),
        ("score".to_owned(), Json::count(report.score as u64)),
        ("paths_capped".to_owned(), Json::Bool(report.paths_capped)),
        ("paths".to_owned(), Json::Arr(paths)),
    ])
}

/// The buffered `check` loop. With `col` the batch driver collects
/// per-group phase timings and closure counters, which aggregate into the
/// metrics report and the trace timeline, and `--certify` adds the
/// checker's per-rule counts.
fn check_report(
    schema: &Schema,
    explain: bool,
    jobs: usize,
    certify: bool,
    mut col: Option<&mut Collected>,
    out: &mut dyn Write,
) -> io::Result<i32> {
    if schema.requirements.is_empty() {
        writeln!(
            out,
            "no `require` declarations in the policy — nothing to check"
        )?;
        return Ok(exit::OK);
    }
    let outcome = check_batch(schema, explain, jobs, certify, col.is_some());
    if let Some(col) = col.as_deref_mut() {
        collect_batch(schema, &outcome.summary, &outcome.groups, col);
    }
    let group_idx = group_of(&outcome, schema.requirements.len());
    let mut violated = 0usize;
    for (i, req) in schema.requirements.iter().enumerate() {
        match &outcome.verdicts[i] {
            Ok(Verdict::Satisfied) => writeln!(out, "ok    {req}")?,
            Ok(Verdict::Violated(violations)) => {
                violated += 1;
                writeln!(out, "FLAW  {req}  ({} occurrence(s))", violations.len())?;
                if explain {
                    if let Some((prog, closure)) = outcome.groups[group_idx[i]].artifacts.as_ref() {
                        render_explanations(prog, closure, violations, out)?;
                    }
                }
            }
            Err(e) => {
                writeln!(out, "error {req}: {e}")?;
                return Ok(exit::INPUT);
            }
        }
    }
    writeln!(
        out,
        "{} requirement(s), {} violated",
        schema.requirements.len(),
        violated
    )?;
    if certify {
        match certify_outcome(&outcome, out)? {
            Ok(certs) => {
                if let Some(col) = col {
                    for cert in &certs {
                        col.stats.closure.absorb_certificate(cert);
                    }
                }
            }
            Err(code) => return Ok(code),
        }
    }
    Ok(i32::from(violated > 0))
}

/// A requirement's verdict reduced to what the NDJSON records carry —
/// deliberately witness-free (status + occurrence count), so the resident
/// incremental path and the batch path (whose closures pick witnesses in
/// different orders) produce identical records.
#[derive(Clone, PartialEq, Eq)]
enum ReqStatus {
    Satisfied,
    Violated(u64),
    Error(String),
}

impl ReqStatus {
    fn of(v: &Result<Verdict, secflow::algorithm::AnalysisError>) -> ReqStatus {
        match v {
            Ok(Verdict::Satisfied) => ReqStatus::Satisfied,
            Ok(Verdict::Violated(vs)) => ReqStatus::Violated(vs.len() as u64),
            Err(e) => ReqStatus::Error(e.to_string()),
        }
    }
}

/// Append one verdict object to `out`: `requirement` (input index),
/// `require` (display form) and `status` of `"satisfied"`, `"violated"`
/// (plus `"occurrences"`) or `"error"` (plus the `"error"` message). The one
/// verdict encoder: the `check --stream --format=ndjson` records and every
/// `serve` verdict array are written with it, straight into their line —
/// fixed keys are literals, and strings go through
/// [`json::write_string`]'s escaping, so the bytes are exactly what
/// [`Json`]'s compact form prints for the same object.
fn write_verdict(out: &mut String, schema: &Schema, idx: usize, st: &ReqStatus) {
    // Writes into a `String` cannot fail: the `fmt::Result`s are dropped.
    let _ = write!(out, "{{\"requirement\":{idx},\"require\":");
    let _ = json::write_display(out, &schema.requirements[idx]);
    match st {
        ReqStatus::Satisfied => out.push_str(",\"status\":\"satisfied\"}"),
        ReqStatus::Violated(n) => {
            let _ = write!(out, ",\"status\":\"violated\",\"occurrences\":{n}}}");
        }
        ReqStatus::Error(e) => {
            out.push_str(",\"status\":\"error\",\"error\":");
            let _ = json::write_string(out, e);
            out.push('}');
        }
    }
}

/// Append a JSON array of [`write_verdict`] objects to `out`.
fn write_verdicts<S: std::borrow::Borrow<ReqStatus>>(
    out: &mut String,
    schema: &Schema,
    verdicts: impl IntoIterator<Item = (usize, S)>,
) {
    out.push('[');
    for (k, (i, st)) in verdicts.into_iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        write_verdict(out, schema, i, st.borrow());
    }
    out.push(']');
}

/// Append one streamed group record to `line` as a compact NDJSON line,
/// returning the record's `(violated, error)` verdict tallies. Free function
/// so the error arm is unit-testable without provoking a real budget blowout
/// through the binary path (the CLI runs on default budgets, which no
/// test-sized policy exhausts).
fn write_record(line: &mut String, schema: &Schema, record: &GroupRecord) -> (usize, usize) {
    let mut violated = 0usize;
    let mut errors = 0usize;
    let _ = write!(line, "{{\"group\":{},\"user\":", record.group_index);
    let _ = json::write_string(line, record.group.user.as_str());
    let _ = write!(
        line,
        ",\"occurrences_checked\":{},\"verdicts\":",
        record.group.stats.occurrences_checked
    );
    let statuses = record.verdicts.iter().map(|(i, verdict)| {
        let st = ReqStatus::of(verdict);
        match st {
            ReqStatus::Satisfied => {}
            ReqStatus::Violated(_) => violated += 1,
            ReqStatus::Error(_) => errors += 1,
        }
        (*i, st)
    });
    write_verdicts(line, schema, statuses);
    line.push_str("}\n");
    (violated, errors)
}

/// The `--stream` check path: each group's verdict lines are written into
/// `out` the moment the group completes, so nothing per-group is buffered
/// and memory stays flat however many users the policy holds. Each line is
/// tagged `[g<index>]` with the group's first-seen position (the streaming
/// determinism contract: records may complete in any order under a
/// parallel pool, but the index lets a consumer reassemble input order).
/// Unlike the buffered path, an analysis error does not short-circuit —
/// every group is still reported, and the run exits [`exit::INPUT`] when
/// any error occurred, else 1 on violations as usual. The first failed
/// write ends output and closes the sink, so the pool analyses no further
/// group. With `col` the run is instrumented: each list's saturation
/// reports its closure stats and the streaming summary is folded into the
/// metrics collector.
///
/// With `ndjson` each group record becomes exactly one compact JSON object
/// per line — `{"group":…,"user":…,"occurrences_checked":…,"verdicts":[…]}`
/// with per-verdict `requirement` (input index), `require` (display form)
/// and `status` of `"satisfied"`, `"violated"` (plus `"occurrences"`) or
/// `"error"` (plus `"error"` message) — followed by one final
/// `{"summary":{…}}` line. The schema is pinned by
/// `ndjson_stream_schema_is_pinned`.
fn check_report_stream(
    schema: &Schema,
    jobs: usize,
    ndjson: bool,
    col: Option<&mut Collected>,
    out: &mut (dyn Write + Send),
) -> io::Result<i32> {
    // An NDJSON reader gets records and the summary line, nothing else:
    // with no requirements the summary alone.
    if schema.requirements.is_empty() && !ndjson {
        writeln!(
            out,
            "no `require` declarations in the policy — nothing to check"
        )?;
        return Ok(exit::OK);
    }
    let opts = BatchOptions {
        jobs,
        keep_artifacts: false,
        collect_stats: col.is_some(),
    };

    /// Renders each record into verdict lines — or one NDJSON object —
    /// outside the sink lock, so parallel workers render in parallel, then
    /// writes them under it; violation/error tallies and the first write
    /// error ride along in the same mutex. The sink closes on that first
    /// error.
    struct LineSink<'a> {
        schema: &'a Schema,
        ndjson: bool,
        // (writer, violated, errors, first write error)
        out: Mutex<(&'a mut (dyn Write + Send), usize, usize, io::Result<()>)>,
        closed: AtomicBool,
    }
    impl AnalysisSink for LineSink<'_> {
        fn emit(&self, record: GroupRecord) {
            // A seed-7 `population_stream` record averages 155 B: one
            // allocation, not a chain of regrowths (≈ 0.4 µs a record).
            let mut lines = String::with_capacity(256);
            let mut violated = 0usize;
            let mut errors = 0usize;
            let gi = record.group_index;
            if self.ndjson {
                (violated, errors) = write_record(&mut lines, self.schema, &record);
            } else {
                for (i, verdict) in &record.verdicts {
                    let req = &self.schema.requirements[*i];
                    match verdict {
                        Ok(Verdict::Satisfied) => {
                            let _ = writeln!(lines, "[g{gi}] ok    {req}");
                        }
                        Ok(Verdict::Violated(violations)) => {
                            violated += 1;
                            let _ = writeln!(
                                lines,
                                "[g{gi}] FLAW  {req}  ({} occurrence(s))",
                                violations.len()
                            );
                        }
                        Err(e) => {
                            errors += 1;
                            let _ = writeln!(lines, "[g{gi}] error {req}: {e}");
                        }
                    }
                }
            }
            let mut guard = self.out.lock().expect("no panics hold the sink lock");
            let (out, v, e, written) = &mut *guard;
            if written.is_ok() {
                *written = out.write_all(lines.as_bytes());
                if written.is_err() {
                    self.closed.store(true, Ordering::Relaxed);
                }
            }
            *v += violated;
            *e += errors;
        }
        fn closed(&self) -> bool {
            self.closed.load(Ordering::Relaxed)
        }
    }

    let sink = LineSink {
        schema,
        ndjson,
        out: Mutex::new((&mut *out, 0, 0, Ok(()))),
        closed: AtomicBool::new(false),
    };
    let summary = analyze_batch_streaming(
        schema,
        &schema.requirements,
        &AnalysisConfig::default(),
        &opts,
        None,
        &sink,
    );
    if let Some(col) = col {
        collect_batch(schema, &summary, &[], col);
    }
    let (out, violated, errors, written) =
        sink.out.into_inner().expect("no panics hold the sink lock");
    written?;
    if ndjson {
        let obj = Json::Obj(vec![(
            "summary".to_owned(),
            Json::Obj(vec![
                (
                    "requirements".to_owned(),
                    Json::count(summary.requirements as u64),
                ),
                ("violated".to_owned(), Json::count(violated as u64)),
                ("errors".to_owned(), Json::count(errors as u64)),
                ("groups".to_owned(), Json::count(summary.groups as u64)),
                ("workers".to_owned(), Json::count(summary.jobs_used as u64)),
            ]),
        )]);
        writeln!(out, "{obj}")?;
    } else {
        writeln!(
            out,
            "{} requirement(s), {} violated — streamed {} group(s) on {} worker(s)",
            summary.requirements, violated, summary.groups, summary.jobs_used
        )?;
    }
    Ok(if errors > 0 {
        exit::INPUT
    } else {
        i32::from(violated > 0)
    })
}

/// Print Figure-1 style derivations for every witness of a violated
/// requirement (the `--explain` path), reusing the batch group's
/// proof-carrying program and closure.
fn render_explanations(
    prog: &NProgram,
    closure: &Closure,
    violations: &[secflow::Violation],
    out: &mut dyn Write,
) -> io::Result<()> {
    for v in violations {
        for w in &v.witnesses {
            writeln!(out, "  witness {}", render_term(prog, w))?;
            let derivation = render_derivation(prog, closure, w);
            for line in derivation.lines() {
                writeln!(out, "    {line}")?;
            }
        }
    }
    Ok(())
}

fn unfold_report(schema: &Schema, user: &str, out: &mut dyn Write) -> io::Result<i32> {
    let Some(caps) = schema.user_str(user) else {
        writeln!(out, "error: unknown user `{user}`")?;
        return Ok(exit::INPUT);
    };
    let prog = match NProgram::unfold(schema, caps) {
        Ok(prog) => prog,
        Err(e) => {
            writeln!(out, "error: {e}")?;
            return Ok(exit::INPUT);
        }
    };
    writeln!(out, "S'(F) for {user} = {caps}:")?;
    for outer in &prog.outers {
        writeln!(out, "  {}: {}", outer.fn_ref, prog.render(outer.root))?;
    }
    writeln!(out, "{} numbered occurrences", prog.len())?;
    // Also list the occurrences of every required target for this user, as
    // orientation.
    for req in schema
        .requirements
        .iter()
        .filter(|r| r.user.as_str() == user)
    {
        let occ = occurrences(&prog, &req.target);
        writeln!(out, "occurrences of {}: {}", req.target, occ.len())?;
    }
    Ok(exit::OK)
}

fn attack_report(schema: &Schema, steps: usize, out: &mut dyn Write) -> io::Result<i32> {
    if schema.requirements.is_empty() {
        writeln!(out, "no `require` declarations — nothing to attack")?;
        return Ok(exit::OK);
    }
    let cfg = AttackerConfig {
        strategies: StrategySpec {
            max_steps: steps,
            ..StrategySpec::default()
        },
        ..AttackerConfig::default()
    };
    let mut realised = 0usize;
    for req in &schema.requirements {
        match attack_requirement(schema, req, &cfg) {
            Ok(o) if o.achieved => {
                realised += 1;
                writeln!(
                    out,
                    "REALISED {req}\n  {}",
                    o.witness.map(|w| w.summary).unwrap_or_default()
                )?;
            }
            Ok(o) => {
                writeln!(
                    out,
                    "not realised {req}{}",
                    if o.skipped_shapes > 0 {
                        format!("  ({} shapes skipped by bounds)", o.skipped_shapes)
                    } else {
                        String::new()
                    }
                )?;
            }
            Err(e) => writeln!(out, "error {req}: {e}")?,
        }
    }
    writeln!(
        out,
        "{} requirement(s), {} realised within bounds",
        schema.requirements.len(),
        realised
    )?;
    Ok(i32::from(realised > 0))
}

fn fix_report(schema: &Schema, out: &mut dyn Write) -> io::Result<i32> {
    use secflow::advisor::{advise, Advice, AdvisorConfig};
    if schema.requirements.is_empty() {
        writeln!(out, "no `require` declarations — nothing to fix")?;
        return Ok(exit::OK);
    }
    let mut flawed = 0usize;
    for req in &schema.requirements {
        match advise(schema, req, &AdvisorConfig::default()) {
            Ok(Advice::AlreadySatisfied) => writeln!(out, "ok    {req}")?,
            Ok(Advice::Repairs(repairs)) => {
                flawed += 1;
                writeln!(out, "FLAW  {req} — minimal repairs:")?;
                for r in repairs {
                    writeln!(out, "        {r}")?;
                }
            }
            Ok(Advice::BudgetExhausted(repairs)) => {
                flawed += 1;
                writeln!(
                    out,
                    "FLAW  {req} — search budget exhausted; repairs found so far:"
                )?;
                for r in repairs {
                    writeln!(out, "        {r}")?;
                }
            }
            Ok(Advice::Unrepairable) => {
                flawed += 1;
                writeln!(out, "FLAW  {req} — no revocation subset helps")?;
            }
            Err(e) => {
                writeln!(out, "error {req}: {e}")?;
                return Ok(exit::INPUT);
            }
        }
    }
    Ok(i32::from(flawed > 0))
}

// ---------------------------------------------------------------------------
// serve — the resident incremental session
// ---------------------------------------------------------------------------

/// The state behind one `secflow serve` session: each user's requirement
/// indexes, per-user incremental closures materialised on first edit, and
/// the last-reported statuses the edit deltas are diffed against. Users
/// that were never edited are answered by [`analyze_caps`] on their
/// capability list, as the guard and the advisor answer theirs.
struct ServeState<'s> {
    schema: &'s Schema,
    config: AnalysisConfig,
    /// Every requirement's `(user, index into schema.requirements)`,
    /// sorted once, so each user's requirements are one contiguous run in
    /// declaration order and a request never scans the whole list. One
    /// sorted vector builds several times faster than a map of per-user
    /// vectors, and it is built before the session answers `ready`.
    reqs_by_user: Vec<(&'s UserName, usize)>,
    resident: std::collections::BTreeMap<UserName, IncrementalUser>,
    last: std::collections::BTreeMap<UserName, Vec<(usize, ReqStatus)>>,
    requests: u64,
    edits: u64,
}

impl<'s> ServeState<'s> {
    fn new(schema: &'s Schema) -> ServeState<'s> {
        let mut reqs_by_user: Vec<(&UserName, usize)> = schema
            .requirements
            .iter()
            .enumerate()
            .map(|(i, r)| (&r.user, i))
            .collect();
        reqs_by_user.sort_unstable();
        ServeState {
            schema,
            config: AnalysisConfig::default(),
            reqs_by_user,
            resident: std::collections::BTreeMap::new(),
            last: std::collections::BTreeMap::new(),
            requests: 0,
            edits: 0,
        }
    }

    fn ready_line(&self) -> String {
        let obj = Json::Obj(vec![(
            "ready".to_owned(),
            Json::Obj(vec![
                (
                    "users".to_owned(),
                    Json::count(self.schema.users.len() as u64),
                ),
                (
                    "requirements".to_owned(),
                    Json::count(self.schema.requirements.len() as u64),
                ),
            ]),
        )]);
        format!("{obj}\n")
    }

    fn shutdown_line(&self) -> String {
        let obj = Json::Obj(vec![(
            "shutdown".to_owned(),
            Json::Obj(vec![
                ("requests".to_owned(), Json::count(self.requests)),
                ("edits".to_owned(), Json::count(self.edits)),
            ]),
        )]);
        format!("{obj}\n")
    }

    /// `user`'s run of the index: their requirements in declaration order.
    fn reqs_of(&self, user: &UserName) -> &[(&'s UserName, usize)] {
        let start = self.reqs_by_user.partition_point(|&(u, _)| u < user);
        let run = &self.reqs_by_user[start..];
        &run[..run.partition_point(|&(u, _)| u == user)]
    }

    /// Current statuses of every requirement naming `user`, in declaration
    /// order: read through the maintained incremental closure when the user
    /// is resident, [`analyze_caps`] on their capability list otherwise.
    fn statuses(&self, user: &UserName) -> Vec<(usize, ReqStatus)> {
        let run = self.reqs_of(user);
        if let Some(inc) = self.resident.get(user) {
            run.iter()
                .map(|&(_, i)| {
                    let v = inc.check(&self.schema.requirements[i]);
                    (i, ReqStatus::of(&Ok(v)))
                })
                .collect()
        } else {
            let caps = self
                .schema
                .user(user)
                .expect("`user_named` admits only users of the schema");
            let reqs: Vec<_> = run
                .iter()
                .map(|&(_, i)| self.schema.requirements[i].clone())
                .collect();
            let verdicts = analyze_caps(self.schema, caps, &reqs, &self.config);
            run.iter()
                .zip(&verdicts)
                .map(|(&(_, i), v)| (i, ReqStatus::of(v)))
                .collect()
        }
    }

    fn field<'a>(fields: &'a [(String, String)], key: &str) -> Option<&'a str> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn need<'a>(fields: &'a [(String, String)], key: &str, op: &str) -> Result<&'a str, String> {
        Self::field(fields, key).ok_or_else(|| format!("`{op}` needs a `{key}` field"))
    }

    fn user_named(&self, name: &str) -> Result<UserName, String> {
        let user = UserName::new(name);
        if self.schema.users.contains_key(&user) {
            Ok(user)
        } else {
            Err(format!("unknown user `{name}`"))
        }
    }

    /// Handle one raw request line as read off the wire (line terminator
    /// already stripped). Returns the response text (empty for blank
    /// lines) and whether the session should end. A line that is not
    /// UTF-8 still counts as a request and answers an error; the session
    /// keeps running.
    fn handle(&mut self, raw: &[u8]) -> (String, bool) {
        let Ok(line) = std::str::from_utf8(raw) else {
            return (self.refuse("request is not valid UTF-8"), false);
        };
        if line.trim().is_empty() {
            return (String::new(), false);
        }
        self.requests += 1;
        match self.dispatch(line) {
            Ok(resp) => resp,
            Err(msg) => (self.error_line(&msg), false),
        }
    }

    /// Count a request that cannot be dispatched and answer its error.
    fn refuse(&mut self, msg: &str) -> String {
        self.requests += 1;
        self.error_line(msg)
    }

    /// The error response to the current request.
    fn error_line(&self, msg: &str) -> String {
        let obj = Json::Obj(vec![
            ("error".to_owned(), Json::str(msg)),
            ("request".to_owned(), Json::count(self.requests)),
        ]);
        format!("{obj}\n")
    }

    /// Answer one request line: a JSON object whose values are all
    /// strings, e.g. `{"op":"grant","user":"clerk","fn":"w_budget"}`.
    /// Anything else — nested values, numbers, trailing garbage — is a
    /// per-request error; the session keeps running.
    fn dispatch(&mut self, line: &str) -> Result<(String, bool), String> {
        let Json::Obj(obj) = Json::parse(line).map_err(|e| format!("bad request: {e}"))? else {
            return Err("bad request: expected a JSON object".into());
        };
        let fields = obj
            .into_iter()
            .map(|(key, value)| match value {
                Json::Str(v) => Ok((key, v)),
                _ => Err(format!(
                    "bad request value for `{key}` (string values only)"
                )),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let op = Self::need(&fields, "op", "request")?.to_owned();
        match op.as_str() {
            "check" => {
                let user = self.user_named(Self::need(&fields, "user", "check")?)?;
                let statuses = self.statuses(&user);
                let mut resp = String::from("{\"op\":\"check\",\"user\":");
                let _ = json::write_string(&mut resp, user.as_str());
                resp.push_str(",\"verdicts\":");
                write_verdicts(
                    &mut resp,
                    self.schema,
                    statuses.iter().map(|(i, st)| (*i, st)),
                );
                resp.push_str("}\n");
                self.last.insert(user, statuses);
                Ok((resp, false))
            }
            "grant" | "revoke" => {
                let user = self.user_named(Self::need(&fields, "user", &op)?)?;
                let f: FnRef = Self::need(&fields, "fn", &op)?.parse()?;
                self.edit(&op, user, &f)
            }
            "stats" => Ok((self.stats_line(), false)),
            "shutdown" => Ok((self.shutdown_line(), true)),
            other => Err(format!(
                "unknown op `{other}` (use check, grant, revoke, stats or shutdown)"
            )),
        }
    }

    /// Apply one grant/revoke: materialise the user's incremental state if
    /// this is their first edit, establish the delta baseline, run the
    /// edit, and report only the verdicts that changed.
    fn edit(&mut self, op: &str, user: UserName, f: &FnRef) -> Result<(String, bool), String> {
        if !self.resident.contains_key(&user) {
            let inc = IncrementalUser::new(self.schema, &user, &self.config)
                .map_err(|e| format!("cannot materialise `{}`: {e}", user.as_str()))?;
            self.resident.insert(user.clone(), inc);
        }
        // The delta baseline is what this session last reported for the
        // user — computed now, pre-edit, if they were never checked.
        if !self.last.contains_key(&user) {
            let base = self.statuses(&user);
            self.last.insert(user.clone(), base);
        }
        let inc = self.resident.get_mut(&user).expect("resident just ensured");
        let outcome = match op {
            "grant" => inc.grant(self.schema, f),
            _ => inc.revoke(self.schema, f),
        }
        .map_err(|e| format!("{op} {f} failed: {e}"))?;
        if outcome.changed {
            self.edits += 1;
        }
        let terms = inc.closure().len();
        let now = self.statuses(&user);
        let before = self.last.get(&user).expect("baseline just ensured");
        let deltas = now
            .iter()
            .filter(|(i, st)| {
                before
                    .iter()
                    .find(|(j, _)| j == i)
                    .is_none_or(|(_, old)| old != st)
            })
            .map(|(i, st)| (*i, st));
        let mut resp = String::from("{\"op\":");
        let _ = json::write_string(&mut resp, op);
        resp.push_str(",\"user\":");
        let _ = json::write_string(&mut resp, user.as_str());
        resp.push_str(",\"fn\":");
        let _ = json::write_display(&mut resp, f);
        let _ = write!(
            resp,
            ",\"changed\":{},\"deleted\":{},\"survivors\":{},\"rederived\":{},\
             \"terms\":{terms},\"deltas\":",
            outcome.changed, outcome.deleted, outcome.survivors, outcome.rederived
        );
        write_verdicts(&mut resp, self.schema, deltas);
        resp.push_str("}\n");
        self.last.insert(user, now);
        Ok((resp, false))
    }

    fn stats_line(&self) -> String {
        let resident_terms: u64 = self
            .resident
            .values()
            .map(|i| i.closure().len() as u64)
            .sum();
        let obj = Json::Obj(vec![(
            "stats".to_owned(),
            Json::Obj(vec![
                ("requests".to_owned(), Json::count(self.requests)),
                ("edits".to_owned(), Json::count(self.edits)),
                (
                    "resident".to_owned(),
                    Json::count(self.resident.len() as u64),
                ),
                ("resident_terms".to_owned(), Json::count(resident_terms)),
            ]),
        )]);
        format!("{obj}\n")
    }
}

/// [`serve_io`] over an in-memory request script, one request line per
/// item — the unit-testable core of `secflow serve`, with the binary's line
/// cap and byte handling. Returns the concatenated NDJSON response stream
/// and the exit code. The stream opens with a `{"ready":…}` line and always
/// ends with a `{"shutdown":…}` line, whether the script asked for it or
/// simply ran out (EOF). Each item is taken from `requests` only once the
/// session has answered the one before it.
pub fn serve_session<I>(schema: &Schema, requests: I) -> (String, i32)
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let script = ScriptReader {
        lines: requests.into_iter(),
        line: Vec::new(),
        pos: 0,
    };
    let mut out = Vec::new();
    let code = serve_io(schema, std::io::BufReader::new(script), &mut out);
    (String::from_utf8_lossy(&out).into_owned(), code)
}

/// A request script as a byte stream: each item becomes one `\n`-ended
/// line, pulled from the iterator only when the previous line has been
/// read to its end.
struct ScriptReader<I> {
    lines: I,
    line: Vec<u8>,
    pos: usize,
}

impl<I> std::io::Read for ScriptReader<I>
where
    I: Iterator,
    I::Item: AsRef<str>,
{
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.line.len() {
            let Some(next) = self.lines.next() else {
                return Ok(0);
            };
            self.line = format!("{}\n", next.as_ref()).into_bytes();
            self.pos = 0;
        }
        let n = std::io::Read::read(&mut &self.line[self.pos..], out)?;
        self.pos += n;
        Ok(n)
    }
}

/// The longest request line `serve` accepts, in bytes before its `\n`.
/// Longer lines are answered with an error and never buffered whole, so a
/// client that never sends a newline cannot grow the process.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// What [`read_request_line`] found.
enum RequestLine {
    /// End of input before the first byte of a line.
    Eof,
    /// A line, without its `\n`, is in the buffer.
    Line,
    /// The line was longer than [`MAX_REQUEST_LINE`]; it was read to its
    /// end and dropped.
    TooLong,
}

/// Read one request line into `buf`, without its `\n`, buffering at most
/// [`MAX_REQUEST_LINE`] bytes. The rest of an over-long line is consumed
/// chunk by chunk straight from `input`'s buffer and discarded.
fn read_request_line<R: std::io::BufRead>(
    input: &mut R,
    buf: &mut Vec<u8>,
) -> std::io::Result<RequestLine> {
    buf.clear();
    let mut too_long = false;
    loop {
        let chunk = match input.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let eof = chunk.is_empty();
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        if too_long || buf.len() + part.len() > MAX_REQUEST_LINE {
            too_long = true;
            buf.clear();
        } else {
            buf.extend_from_slice(part);
        }
        let used = part.len() + usize::from(newline.is_some());
        input.consume(used);
        if eof || newline.is_some() {
            return Ok(if too_long {
                RequestLine::TooLong
            } else if eof && buf.is_empty() {
                RequestLine::Eof
            } else {
                RequestLine::Line
            });
        }
    }
}

/// The `secflow serve` loop over any byte streams: NDJSON requests from
/// `input`, responses written (and flushed) to `out` line by line — a watch
/// mode or editor integration sees each verdict delta the moment the edit
/// lands. Lines are read as raw bytes, so a request that is not UTF-8
/// answers an error line instead of ending the session, and so does a line
/// longer than 64 KiB, which is discarded as it is read; only EOF, a
/// `shutdown` request or a read error ends it (each followed by the
/// matching final line), or a failed write, which ends it at once with
/// [`exit::INPUT`]. Returns the exit code.
pub fn serve_io<R: io::BufRead, W: Write>(schema: &Schema, input: R, out: W) -> i32 {
    serve(schema, input, out).unwrap_or(exit::INPUT)
}

/// [`serve_io`], returning the error of the write that ended the session.
fn serve<R: io::BufRead, W: Write>(schema: &Schema, mut input: R, mut out: W) -> io::Result<i32> {
    let mut state = ServeState::new(schema);
    out.write_all(state.ready_line().as_bytes())?;
    out.flush()?;
    let mut buf = Vec::new();
    loop {
        let (resp, done) = match read_request_line(&mut input, &mut buf) {
            Ok(RequestLine::Eof) | Err(_) => break,
            Ok(RequestLine::TooLong) => (
                state.refuse(&format!("request line exceeds {MAX_REQUEST_LINE} bytes")),
                false,
            ),
            // Strip a `\r` left by `\r\n`, exactly like `BufRead::lines`.
            Ok(RequestLine::Line) => state.handle(buf.strip_suffix(b"\r").unwrap_or(&buf)),
        };
        out.write_all(resp.as_bytes())?;
        out.flush()?;
        if done {
            return Ok(exit::OK);
        }
    }
    out.write_all(state.shutdown_line().as_bytes())?;
    out.flush()?;
    Ok(exit::OK)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-threshold variant: the attack subcommand's probe domain is
    // {0,1,2}, which can bracket `salary` but not `10 * salary`.
    const POLICY: &str = r#"
        class Broker { salary: int, budget: int }
        fn checkBudget(b: Broker): bool { r_budget(b) >= r_salary(b) }
        user clerk { checkBudget, w_budget }
        user safe_clerk { checkBudget }
        require (clerk, r_salary(x) : ti)
        require (safe_clerk, r_salary(x) : ti)
    "#;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        assert_eq!(parse_args(&[]), Ok(Command::Help));
        assert_eq!(parse_args(&s(&["--help"])), Ok(Command::Help));
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--explain"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: true,
                jobs: 1,
                certify: false,
                stream: false,
                ndjson: false,
            })
        );
        assert_eq!(
            parse_args(&s(&["unfold", "p.sfl", "--user", "clerk"])),
            Ok(Command::Unfold {
                file: "p.sfl".into(),
                user: "clerk".into()
            })
        );
        assert_eq!(
            parse_args(&s(&["attack", "p.sfl", "--steps", "3"])),
            Ok(Command::Attack {
                file: "p.sfl".into(),
                steps: 3
            })
        );
        assert!(parse_args(&s(&["bogus"])).is_err());
        assert!(parse_args(&s(&["unfold", "p.sfl"])).is_err());
        assert!(parse_args(&s(&["attack", "p.sfl", "--steps", "x"])).is_err());
    }

    #[test]
    fn jobs_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--jobs", "4"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 4,
                certify: false,
                stream: false,
                ndjson: false,
            })
        );
        assert!(parse_args(&s(&["check", "p.sfl", "--jobs"])).is_err());
        assert!(parse_args(&s(&["check", "p.sfl", "--jobs", "x"])).is_err());
        // 0 is not an error: it asks for auto-detected parallelism.
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--jobs", "0"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 0,
                certify: false,
                stream: false,
                ndjson: false,
            })
        );
    }

    #[test]
    fn stream_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--stream", "--jobs", "0"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 0,
                certify: false,
                stream: true,
                ndjson: false,
            })
        );
        // --stream buffers nothing, so the artifact-hungry flags conflict.
        let err = parse_args(&s(&["check", "p.sfl", "--stream", "--explain"])).unwrap_err();
        assert!(err.contains("--stream"), "{err}");
        assert!(parse_args(&s(&["check", "p.sfl", "--stream", "--certify"])).is_err());
    }

    #[test]
    fn ndjson_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--stream", "--format=ndjson"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 1,
                certify: false,
                stream: true,
                ndjson: true,
            })
        );
        // --format=text is the accepted default spelling.
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--stream", "--format=text"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 1,
                certify: false,
                stream: true,
                ndjson: false,
            })
        );
        // The record format only exists on the streaming path.
        let err = parse_args(&s(&["check", "p.sfl", "--format=ndjson"])).unwrap_err();
        assert!(err.contains("--stream"), "{err}");
        assert!(parse_args(&s(&["check", "p.sfl", "--format=xml"])).is_err());
    }

    /// The satellite golden test: the NDJSON stream's schema — key names,
    /// key order, status vocabulary, and the trailing summary object — is
    /// pinned byte for byte (serial run, so record order is first-seen
    /// group order).
    #[test]
    fn ndjson_stream_schema_is_pinned() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: false,
            stream: true,
            ndjson: true,
        };
        let (out, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1, "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            vec![
                "{\"group\":0,\"user\":\"clerk\",\"occurrences_checked\":1,\"verdicts\":\
                 [{\"requirement\":0,\"require\":\"(clerk, r_salary(x):ti)\",\
                 \"status\":\"violated\",\"occurrences\":1}]}",
                "{\"group\":1,\"user\":\"safe_clerk\",\"occurrences_checked\":1,\"verdicts\":\
                 [{\"requirement\":1,\"require\":\"(safe_clerk, r_salary(x):ti)\",\
                 \"status\":\"satisfied\"}]}",
                "{\"summary\":{\"requirements\":2,\"violated\":1,\"errors\":0,\
                 \"groups\":2,\"workers\":1}}",
            ],
        );
        // Every line is a standalone JSON document (the NDJSON contract),
        // and verdict counts agree with the buffered path's exit code.
        for line in &lines {
            Json::parse(line).expect("each stream line parses as JSON");
        }
    }

    #[test]
    fn ndjson_stream_reports_errors_per_group() {
        // An analysis error surfaces on the verdict object as status
        // "error" plus the error message. Exercised against the record
        // writer directly: the streaming path runs on default budgets, which
        // no test-sized policy can exhaust, and checks every user it is
        // given, so the record is built by hand with a budget-blowout
        // verdict and an unknown user whose name needs every kind of escape.
        let schema = parse_schema(POLICY).unwrap();
        check_schema(&schema).unwrap();
        let record = GroupRecord {
            group_index: 3,
            worker: 0,
            group: BatchGroup {
                user: oodb_model::UserName::new("clerk"),
                req_indexes: vec![1, 0],
                stats: AnalysisStats::default(),
                check_times: Vec::new(),
                artifacts: None,
            },
            verdicts: vec![
                (
                    1,
                    Err(secflow::algorithm::AnalysisError::Closure(
                        secflow::closure::ClosureError::TermLimit { limit: 64 },
                    )),
                ),
                (
                    0,
                    Err(secflow::algorithm::AnalysisError::UnknownUser(
                        "q\"b\\n\nt\tc\u{1}".to_owned(),
                    )),
                ),
            ],
        };
        let mut line = String::new();
        let (violated, errors) = write_record(&mut line, &schema, &record);
        assert_eq!((violated, errors), (0, 2));
        let line = line.strip_suffix('\n').expect("one newline-ended line");
        assert!(!line.contains('\n'), "{line}");
        let parsed = Json::parse(line).expect("record renders as one JSON object");
        assert_eq!(
            parsed.to_string(),
            line,
            "the writer is the canonical encoding"
        );
        assert_eq!(parsed.get("group").and_then(Json::as_u64), Some(3));
        let verdicts = parsed.get("verdicts").and_then(Json::as_arr).unwrap();
        assert_eq!(
            verdicts[0].get("status").and_then(Json::as_str),
            Some("error")
        );
        assert_eq!(
            verdicts[0].get("requirement").and_then(Json::as_u64),
            Some(1)
        );
        let msg = verdicts[0].get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("budget of 64 terms"), "{msg}");
        // The unknown user's name, escaped byte for byte.
        assert!(
            line.ends_with(
                ",{\"requirement\":0,\"require\":\"(clerk, r_salary(x):ti)\",\
                 \"status\":\"error\",\"error\":\"unknown user `q\\\"b\\\\n\\nt\\tc\\u0001`\"}]}"
            ),
            "{line}"
        );
        assert_eq!(
            verdicts[1].get("error").and_then(Json::as_str),
            Some("unknown user `q\"b\\n\nt\tc\u{1}`")
        );
    }

    /// With no `require`, the NDJSON stream is its summary line alone — a
    /// record reader gets nothing else to parse — and the run succeeds.
    #[test]
    fn ndjson_stream_without_requirements_prints_only_the_summary() {
        let policy = "class C { a: int }\nuser u { r_a }\n";
        for jobs in [1usize, 4] {
            let cmd = Command::Check {
                file: "-".into(),
                explain: false,
                jobs,
                certify: false,
                stream: true,
                ndjson: true,
            };
            let (out, code) = run_on_source(&cmd, policy);
            assert_eq!(code, exit::OK, "{out}");
            let lines: Vec<&str> = out.lines().collect();
            assert_eq!(lines.len(), 1, "{out}");
            let summary = Json::parse(lines[0]).expect("the line parses");
            let summary = summary.get("summary").expect("a summary object");
            for key in ["requirements", "violated", "errors", "groups"] {
                assert_eq!(summary.get(key).and_then(Json::as_u64), Some(0), "{key}");
            }
            assert_eq!(summary.get("workers").and_then(Json::as_u64), Some(1));
        }
        // The text stream and buffered `check` keep their message.
        for stream in [false, true] {
            let cmd = Command::Check {
                file: "-".into(),
                explain: false,
                jobs: 1,
                certify: false,
                stream,
                ndjson: false,
            };
            let (out, code) = run_on_source(&cmd, policy);
            assert_eq!(code, exit::OK);
            assert_eq!(
                out,
                "no `require` declarations in the policy — nothing to check\n"
            );
        }
    }

    #[test]
    fn streamed_check_matches_buffered_verdicts() {
        let buffered = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (plain, plain_code) = run_on_source(&buffered, POLICY);
        for jobs in [1usize, 4] {
            let streamed = Command::Check {
                file: "-".into(),
                explain: false,
                jobs,
                certify: false,
                stream: true,
                ndjson: false,
            };
            let (out, code) = run_on_source(&streamed, POLICY);
            assert_eq!(code, plain_code, "stream must keep the exit code\n{out}");
            // Strip the [g<i>] tags, sort by group index, and the verdict
            // lines must be exactly the buffered ones.
            let mut tagged: Vec<(usize, &str)> = Vec::new();
            let mut lines = out.lines().collect::<Vec<_>>();
            let summary = lines.pop().unwrap();
            assert!(
                summary.contains("2 requirement(s), 1 violated — streamed 2 group(s)"),
                "{summary}"
            );
            for line in lines {
                let rest = line.strip_prefix("[g").unwrap();
                let (gi, rest) = rest.split_once("] ").unwrap();
                tagged.push((gi.parse().unwrap(), rest));
            }
            tagged.sort_by_key(|(gi, _)| *gi);
            let reassembled: Vec<&str> = tagged.iter().map(|(_, l)| *l).collect();
            let buffered_lines: Vec<&str> =
                plain.lines().take_while(|l| !l.starts_with('2')).collect();
            assert_eq!(reassembled, buffered_lines);
        }
        // Instrumented streaming keeps stdout and surfaces batch metrics.
        let streamed = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 2,
            certify: false,
            stream: true,
            ndjson: false,
        };
        let obs = ObsOptions {
            metrics: Some(MetricsFormat::Json),
            trace: None,
        };
        let out = run_on_source_with_obs(&streamed, POLICY, &obs);
        assert_eq!(out.code, 1);
        assert!(out.stderr.contains("\"batch.steals\""), "{}", out.stderr);
        assert!(out.stderr.contains("\"batch.lists\""), "{}", out.stderr);
    }

    #[test]
    fn streamed_metrics_match_the_buffered_run_on_every_policy() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../policies");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("policies directory")
            .map(|e| e.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "sfl"))
            .collect();
        files.sort();
        assert!(!files.is_empty());
        let metrics = ObsOptions {
            metrics: Some(MetricsFormat::Json),
            trace: None,
        };
        for path in files {
            let src = std::fs::read_to_string(&path).expect("policy file reads");
            let doc = |stream| {
                let cmd = Command::Check {
                    file: "-".into(),
                    explain: false,
                    jobs: 1,
                    certify: false,
                    stream,
                    ndjson: false,
                };
                Json::parse(&run_on_source_with_obs(&cmd, &src, &metrics).stderr)
                    .expect("one metrics document")
            };
            let (buffered, streamed) = (doc(false), doc(true));
            let names = |doc: &Json, key: &str| match doc.get(key) {
                Some(Json::Obj(fields)) => {
                    let mut names: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
                    names.sort();
                    names
                }
                other => panic!("`{key}` is not an object: {other:?}"),
            };
            for key in ["counters", "spans_ms"] {
                assert_eq!(
                    names(&streamed, key),
                    names(&buffered, key),
                    "{key} of {}",
                    path.display()
                );
            }
            for counter in [
                "analysis.program_nodes",
                "analysis.occurrences",
                "closure.terms.total",
            ] {
                let value = |doc: &Json| {
                    doc.get("counters")
                        .and_then(|c| c.get(counter))
                        .and_then(Json::as_u64)
                };
                assert_eq!(
                    value(&streamed),
                    value(&buffered),
                    "{counter} of {}",
                    path.display()
                );
            }
        }
    }

    /// Records the first write it receives.
    #[derive(Default)]
    struct FirstWrite {
        first: Option<Vec<u8>>,
    }

    impl Write for FirstWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.first.get_or_insert_with(|| buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_writes_each_record_as_its_group_completes() {
        // Three users on three distinct lists: the first write carries the
        // first group's line alone, written as that group completed (the
        // library test `each_record_is_emitted_as_its_group_completes`
        // pins that no later list had saturated by then).
        let policy = r#"
            class Broker { salary: int, budget: int }
            fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
            user a { checkBudget, w_budget }
            user b { checkBudget }
            user c { w_budget }
            require (a, r_salary(x) : ti)
            require (b, r_salary(x) : ti)
            require (c, r_salary(x) : ti)
        "#;
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: false,
            stream: true,
            ndjson: false,
        };
        let mut out = FirstWrite::default();
        let code = execute(&cmd, policy, None, &mut out).unwrap();
        assert_eq!(code, exit::VIOLATION);
        let first = String::from_utf8(out.first.unwrap()).unwrap();
        assert_eq!(first, "[g0] FLAW  (a, r_salary(x):ti)  (1 occurrence(s))\n");
    }

    /// A writer whose every write fails, like a pipe whose reader exited.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn unwritable_output_exits_three_without_panicking() {
        let check = |stream, ndjson| Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: false,
            stream,
            ndjson,
        };
        // `serve` fails on its `ready` line, before it reads stdin.
        for cmd in [
            check(false, false),
            check(true, true),
            audit_cmd(),
            Command::Fmt { file: "-".into() },
            Command::Serve { file: "-".into() },
        ] {
            let (stderr, _, code) =
                run_observed(&cmd, POLICY, &ObsOptions::default(), &mut ClosedPipe);
            assert_eq!(code, exit::INPUT, "{cmd:?}");
            assert_eq!(stderr.lines().count(), 1, "{cmd:?}: {stderr}");
            assert!(
                stderr.starts_with("error: cannot write output: "),
                "{cmd:?}: {stderr}"
            );
        }
        let schema = load_str(POLICY).unwrap();
        let request = &b"{\"op\":\"check\",\"user\":\"clerk\"}\n"[..];
        assert_eq!(serve_io(&schema, request, ClosedPipe), exit::INPUT);
    }

    #[test]
    fn every_command_rejects_unexpected_arguments() {
        // Each is a usage error (the binary exits 2), never a file name to
        // read or a flag to ignore.
        for args in [
            &["check", "p.sfl", "--full-saturation"][..],
            &["check", "p.sfl", "q.sfl"],
            &["audit", "p.sfl", "--bogus"],
            &["unfold", "p.sfl", "--user", "clerk", "--bogus"],
            &["attack", "p.sfl", "--bogus"],
            &["fix", "p.sfl", "--bogus"],
            &["fix", "--jobs"],
            &["fix", "p.sfl", "q.sfl"],
            &["fmt", "p.sfl", "--bogus"],
            &["fmt", "--help"],
            &["serve", "p.sfl", "--bogus"],
        ] {
            let err = parse_args(&s(args)).unwrap_err();
            assert!(err.starts_with("unexpected argument `"), "{args:?}: {err}");
        }
        for cmd in ["fix", "fmt", "serve"] {
            let err = parse_args(&s(&[cmd])).unwrap_err();
            assert_eq!(err, format!("{cmd}: missing policy file"));
        }
        assert_eq!(
            parse_args(&s(&["fix", "p.sfl"])),
            Ok(Command::Fix {
                file: "p.sfl".into()
            })
        );
        assert_eq!(
            parse_args(&s(&["fmt", "p.sfl"])),
            Ok(Command::Fmt {
                file: "p.sfl".into()
            })
        );
    }

    #[test]
    fn jobs_run_at_most_the_machine_parallelism() {
        // Every worker is an OS thread: `--jobs 64` on 64 groups must not
        // ask for more threads than the machine runs at once.
        let mut policy = String::from(
            "class Broker { salary: int, budget: int }\n\
             fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }\n",
        );
        for i in 0..64 {
            let _ = writeln!(policy, "user u{i} {{ checkBudget, w_budget }}");
            let _ = writeln!(policy, "require (u{i}, r_salary(x) : ti)");
        }
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 64,
            certify: false,
            stream: true,
            ndjson: true,
        };
        let (out, code) = run_on_source(&cmd, &policy);
        assert_eq!(code, exit::VIOLATION);
        let summary = Json::parse(out.lines().last().expect("a summary line")).unwrap();
        let workers = summary
            .get("summary")
            .and_then(|s| s.get("workers"))
            .and_then(Json::as_u64)
            .expect("the summary counts its workers");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(
            (1..=cores as u64).contains(&workers),
            "{workers} workers on {cores} cores"
        );
    }

    #[test]
    fn parallel_check_is_byte_identical() {
        let serial = Command::Check {
            file: "-".into(),
            explain: true,
            jobs: 1,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let parallel = Command::Check {
            file: "-".into(),
            explain: true,
            jobs: 4,
            certify: false,
            stream: false,
            ndjson: false,
        };
        assert_eq!(
            run_on_source(&serial, POLICY),
            run_on_source(&parallel, POLICY),
            "--jobs must not change stdout or the exit code"
        );
        // Same under instrumentation (stderr timings differ, stdout not).
        let obs = ObsOptions {
            metrics: Some(MetricsFormat::Json),
            trace: Some(TraceOptions::default()),
        };
        let a = run_on_source_with_obs(&serial, POLICY, &obs);
        let b = run_on_source_with_obs(&parallel, POLICY, &obs);
        assert_eq!(a.stdout, b.stdout);
        assert_eq!(a.code, b.code);
    }

    #[test]
    fn obs_flag_parsing() {
        let (cmd, obs) =
            parse_args_with_obs(&s(&["check", "p.sfl", "--metrics=json", "--trace"])).unwrap();
        assert_eq!(
            cmd,
            Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 1,
                certify: false,
                stream: false,
                ndjson: false,
            }
        );
        assert_eq!(obs.metrics, Some(MetricsFormat::Json));
        assert_eq!(obs.trace, Some(TraceOptions::default()));

        let (_, obs) = parse_args_with_obs(&s(&["check", "p.sfl", "--metrics"])).unwrap();
        assert_eq!(obs.metrics, Some(MetricsFormat::Text));
        let (_, obs) = parse_args_with_obs(&s(&["check", "p.sfl", "--metrics=text"])).unwrap();
        assert_eq!(obs.metrics, Some(MetricsFormat::Text));

        // --trace=FILE routes to the file; --trace-format selects chrome.
        let (_, obs) = parse_args_with_obs(&s(&[
            "check",
            "p.sfl",
            "--trace=out.trace",
            "--trace-format=chrome",
        ]))
        .unwrap();
        assert_eq!(
            obs.trace,
            Some(TraceOptions {
                file: Some("out.trace".into()),
                format: TraceFormat::Chrome,
            })
        );
        let (_, obs) =
            parse_args_with_obs(&s(&["check", "p.sfl", "--trace", "--trace-format=jsonl"]))
                .unwrap();
        assert_eq!(
            obs.trace,
            Some(TraceOptions {
                file: None,
                format: TraceFormat::Jsonl,
            })
        );

        // No obs flags: defaults off, plain parsing unchanged.
        let (cmd, obs) = parse_args_with_obs(&s(&["--help"])).unwrap();
        assert_eq!(cmd, Command::Help);
        assert!(obs.is_off());

        assert!(parse_args_with_obs(&s(&["check", "p.sfl", "--metrics=xml"])).is_err());
        // An empty file, an unknown format, or --trace-format without
        // --trace are all usage errors.
        assert!(parse_args_with_obs(&s(&["check", "p.sfl", "--trace="])).is_err());
        assert!(
            parse_args_with_obs(&s(&["check", "p.sfl", "--trace", "--trace-format=xml"])).is_err()
        );
        assert!(parse_args_with_obs(&s(&["check", "p.sfl", "--trace-format=chrome"])).is_err());
    }

    #[test]
    fn metrics_go_to_stderr_and_stdout_is_stable() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (plain, plain_code) = run_on_source(&cmd, POLICY);
        // Metrics on + trace without a file: the trace is dropped, stderr
        // holds the metrics report alone — no interleaving.
        let out = run_on_source_with_obs(
            &cmd,
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Text),
                trace: Some(TraceOptions::default()),
            },
        );
        assert_eq!(out.stdout, plain, "stdout must stay diff-stable");
        assert_eq!(out.code, plain_code);
        assert!(out.stderr.contains("closure.terms.total"));
        assert!(out.stderr.contains("-- timings"));
        assert!(
            !out.stderr.contains("\"ph\""),
            "trace events must not interleave with metrics:\n{}",
            out.stderr
        );
        assert!(out.trace_output.is_none(), "no file target, no file output");
        // Trace alone (no file): stderr is pure JSONL trace events.
        let traced = run_on_source_with_obs(
            &cmd,
            POLICY,
            &ObsOptions {
                metrics: None,
                trace: Some(TraceOptions::default()),
            },
        );
        assert_eq!(traced.stdout, plain);
        assert!(!traced.stderr.is_empty());
        for line in traced.stderr.lines() {
            let ev = Json::parse(line).expect("each stderr line is one JSON trace event");
            assert!(ev.get("name").is_some() && ev.get("ph").is_some());
        }
        // Trace to a file: stderr empty, events in trace_output instead.
        let to_file = run_on_source_with_obs(
            &cmd,
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Text),
                trace: Some(TraceOptions {
                    file: Some("t.jsonl".into()),
                    format: TraceFormat::Jsonl,
                }),
            },
        );
        let blob = to_file
            .trace_output
            .expect("file target captures the trace");
        for line in blob.lines() {
            assert!(Json::parse(line).is_ok(), "bad trace line: {line}");
        }
        assert!(!to_file.stderr.contains("\"ph\""));
        // Off = byte-identical with empty stderr.
        let off = run_on_source_with_obs(&cmd, POLICY, &ObsOptions::default());
        assert_eq!(off.stdout, plain);
        assert!(off.stderr.is_empty());
    }

    #[test]
    fn metrics_json_is_valid_and_complete() {
        use secflow_obs::Json;
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let out = run_on_source_with_obs(
            &cmd,
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Json),
                trace: None,
            },
        );
        let doc = Json::parse(&out.stderr).expect("stderr is one valid JSON document");
        let counters = doc.get("counters").expect("counters object");
        // Per-capability term counts, rule firings, fixpoint rounds.
        assert!(
            counters
                .get("closure.terms.ti")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        assert!(
            counters
                .get("closure.terms.eq")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        assert!(
            counters
                .get("closure.rounds")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        assert!(
            counters
                .get("closure.rule.axiom")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        assert_eq!(
            counters.get("analysis.requirements").and_then(Json::as_u64),
            Some(2)
        );
        // Batch counters: clerk and safe_clerk hold two distinct lists,
        // and a serial run never steals.
        assert_eq!(counters.get("batch.lists").and_then(Json::as_u64), Some(2));
        assert_eq!(counters.get("batch.steals").and_then(Json::as_u64), Some(0));
        // Per-phase timings.
        let spans = doc.get("spans_ms").expect("spans object");
        for phase in ["parse", "typecheck", "unfold", "closure", "check"] {
            assert!(spans.get(phase).is_some(), "missing span {phase}");
        }
    }

    #[test]
    fn instrumented_check_saturates_a_shared_list_once() {
        // Three users hold one list: the plain run saturates it once for
        // all three groups, and so must the instrumented run, whose
        // counters count only that saturation.
        let policy = r#"
            class Broker { salary: int, budget: int }
            fn checkBudget(b: Broker): bool { r_budget(b) >= 10 * r_salary(b) }
            user a { checkBudget, w_budget }
            user b { checkBudget, w_budget }
            user c { checkBudget, w_budget }
            require (a, r_salary(x) : ti)
            require (b, r_salary(x) : ti)
            require (c, r_salary(x) : ti)
        "#;
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let mut plain = Vec::new();
        let code = execute(&cmd, policy, None, &mut plain).unwrap();
        let plain = (String::from_utf8(plain).unwrap(), code);
        let metrics = ObsOptions {
            metrics: Some(MetricsFormat::Json),
            trace: None,
        };
        let out = run_on_source_with_obs(&cmd, policy, &metrics);
        assert_eq!((out.stdout.as_str(), out.code), (plain.0.as_str(), plain.1));
        let doc = Json::parse(&out.stderr).expect("stderr is one valid JSON document");
        let counter = |name: &str| {
            doc.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Json::as_u64)
        };
        assert_eq!(counter("closure.terms.total"), Some(51));
        assert_eq!(counter("batch.lists"), Some(1));
        let trace = ObsOptions {
            metrics: None,
            trace: Some(TraceOptions::default()),
        };
        let traced = run_on_source_with_obs(&cmd, policy, &trace);
        assert_eq!(traced.stdout, plain.0);
        let closures = traced
            .stderr
            .lines()
            .map(|line| Json::parse(line).expect("each stderr line is one JSON trace event"))
            .filter(|ev| {
                ev.get("name").and_then(Json::as_str) == Some("closure")
                    && ev.get("cat").and_then(Json::as_str) == Some("group")
            })
            .count();
        assert_eq!(closures, 1, "{}", traced.stderr);
    }

    #[test]
    fn metrics_on_non_check_commands() {
        let cmd = Command::Unfold {
            file: "-".into(),
            user: "clerk".into(),
        };
        let (plain, _) = run_on_source(&cmd, POLICY);
        let out = run_on_source_with_obs(
            &cmd,
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Text),
                trace: None,
            },
        );
        assert_eq!(out.stdout, plain);
        assert!(out.stderr.contains("unfold"));
        // Parse errors still exit 3 with the metrics facility on.
        let bad = run_on_source_with_obs(
            &Command::Fmt { file: "-".into() },
            "class C { x: bogus_type }",
            &ObsOptions {
                metrics: Some(MetricsFormat::Text),
                trace: None,
            },
        );
        assert_eq!(bad.code, exit::INPUT);
        assert!(bad.stdout.contains("error"));
    }

    #[test]
    fn check_flags_the_flaw_and_exits_one() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1);
        assert!(report.contains("FLAW  (clerk, r_salary(x):ti)"));
        assert!(report.contains("ok    (safe_clerk, r_salary(x):ti)"));
        assert!(report.contains("2 requirement(s), 1 violated"));
    }

    #[test]
    fn check_explain_prints_a_derivation() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: true,
            jobs: 1,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1);
        assert!(report.contains("witness ti["));
        assert!(report.contains("(axiom for =)"));
    }

    #[test]
    fn unfold_prints_numbered_program() {
        let cmd = Command::Unfold {
            file: "-".into(),
            user: "clerk".into(),
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 0);
        assert!(report.contains("checkBudget: 5>="));
        assert!(report.contains("occurrences of r_salary: 1"));

        let cmd = Command::Unfold {
            file: "-".into(),
            user: "ghost".into(),
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, exit::INPUT);
        assert!(report.contains("unknown user"));
    }

    #[test]
    fn attack_realises_the_flaw() {
        // Total inference over unbounded integers needs bracketing probes:
        // two write+probe rounds, i.e. four steps.
        let cmd = Command::Attack {
            file: "-".into(),
            steps: 4,
        };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1);
        assert!(report.contains("REALISED (clerk, r_salary(x):ti)"));
        assert!(report.contains("not realised (safe_clerk, r_salary(x):ti)"));
    }

    #[test]
    fn fix_suggests_the_papers_repair() {
        let cmd = Command::Fix { file: "-".into() };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 1);
        assert!(report.contains("FLAW  (clerk, r_salary(x):ti)"));
        assert!(report.contains("revoke {w_budget}"));
        assert!(report.contains("ok    (safe_clerk, r_salary(x):ti)"));
    }

    #[test]
    fn fmt_round_trips() {
        let cmd = Command::Fmt { file: "-".into() };
        let (report, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, 0);
        // The pretty-printed policy re-parses and re-checks.
        load_str(&report).unwrap();
    }

    #[test]
    fn input_errors_exit_three() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let (report, code) = run_on_source(&cmd, "class C { x: bogus_type }");
        assert_eq!(code, exit::INPUT);
        assert!(report.contains("error"));
    }

    #[test]
    fn certify_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["check", "p.sfl", "--certify"])),
            Ok(Command::Check {
                file: "p.sfl".into(),
                explain: false,
                jobs: 1,
                certify: true,
                stream: false,
                ndjson: false,
            })
        );
        // Unknown check flags mention --certify among the accepted set.
        let err = parse_args(&s(&["check", "p.sfl", "--certify-all"])).unwrap_err();
        assert!(err.contains("--certify"), "{err}");
    }

    #[test]
    fn certify_revalidates_and_appends_a_summary() {
        let plain = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: false,
            stream: false,
            ndjson: false,
        };
        let certified = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 1,
            certify: true,
            stream: false,
            ndjson: false,
        };
        let (plain_out, plain_code) = run_on_source(&plain, POLICY);
        let (out, code) = run_on_source(&certified, POLICY);
        // Verdict lines and exit code are unchanged; one summary line is
        // appended.
        assert_eq!(code, plain_code);
        assert!(out.starts_with(&plain_out), "verdict lines must not change");
        assert!(
            out.contains("certified: ") && out.contains("across 2 closure(s)"),
            "missing certify summary: {out}"
        );
        // The instrumented path additionally surfaces per-rule check
        // counters in the metrics report.
        let obs = run_on_source_with_obs(
            &certified,
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Json),
                trace: None,
            },
        );
        assert_eq!(obs.stdout, out, "metrics must not change stdout");
        assert!(
            obs.stderr.contains("checker.rule.axiom"),
            "metrics missing checker counters: {}",
            obs.stderr
        );
    }

    #[test]
    fn corrupted_proofs_fail_certification_with_exit_four() {
        let schema = load_str(POLICY).unwrap();
        let mut outcome = check_batch(&schema, false, 1, true, false);
        // Corrupt one recorded derivation in the first group's closure: the
        // independent checker must reject it and the CLI must map that to
        // the dedicated exit code.
        let (_, closure) = outcome.groups[0].artifacts.as_mut().unwrap();
        let t = closure
            .iter()
            .find(|t| matches!(t, secflow::Term::Ta(_)))
            .expect("closure has a ta term");
        // `rule for =` can only conclude an equality, never a `ta` term.
        assert!(closure.replace_proof(&t, "rule for =", vec![]));
        let mut out = Vec::new();
        let certified = certify_outcome(&outcome, &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let code = match certified {
            Ok(_) => panic!("corrupted outcome certified: {out}"),
            Err(code) => code,
        };
        assert_eq!(code, exit::CERTIFY);
        assert!(
            out.contains("certification FAILED for user "),
            "missing failure report: {out}"
        );
    }

    #[test]
    fn certify_composes_with_explain_and_jobs() {
        let cmd = Command::Check {
            file: "-".into(),
            explain: true,
            jobs: 4,
            certify: true,
            stream: false,
            ndjson: false,
        };
        let (out, code) = run_on_source(&cmd, POLICY);
        assert_eq!(code, exit::VIOLATION);
        assert!(out.contains("witness ti["));
        assert!(out.contains("certified: "));
    }

    fn audit_cmd() -> Command {
        audit_cmd_with(AuditFormat::Text, None)
    }

    fn audit_cmd_with(format: AuditFormat, severity: Option<Severity>) -> Command {
        Command::Audit {
            file: "-".into(),
            format,
            severity,
            mode: WalkMode::Backward,
            max_depth: 64,
            max_paths: 16,
            jobs: 1,
        }
    }

    #[test]
    fn audit_flag_parsing() {
        assert_eq!(
            parse_args(&s(&["audit", "p.sfl"])),
            Ok(Command::Audit {
                file: "p.sfl".into(),
                format: AuditFormat::Text,
                severity: None,
                mode: WalkMode::Backward,
                max_depth: 64,
                max_paths: 16,
                jobs: 1,
            })
        );
        assert_eq!(
            parse_args(&s(&[
                "audit",
                "p.sfl",
                "--format=json",
                "--severity=high",
                "--mode=complete",
                "--max-depth",
                "8",
                "--max-paths",
                "4",
                "--jobs",
                "2",
            ])),
            Ok(Command::Audit {
                file: "p.sfl".into(),
                format: AuditFormat::Json,
                severity: Some(Severity::High),
                mode: WalkMode::Complete,
                max_depth: 8,
                max_paths: 4,
                jobs: 2,
            })
        );
        assert!(parse_args(&s(&["audit"])).is_err());
        assert!(parse_args(&s(&["audit", "p.sfl", "--format=yaml"])).is_err());
        assert!(parse_args(&s(&["audit", "p.sfl", "--severity=urgent"])).is_err());
        assert!(parse_args(&s(&["audit", "p.sfl", "--mode=sideways"])).is_err());
        // 0 auto-detects the machine parallelism, as in check.
        assert_eq!(
            parse_args(&s(&["audit", "p.sfl", "--jobs", "0"])),
            Ok(Command::Audit {
                file: "p.sfl".into(),
                format: AuditFormat::Text,
                severity: None,
                mode: WalkMode::Backward,
                max_depth: 64,
                max_paths: 16,
                jobs: 0,
            })
        );
        assert!(parse_args(&s(&["audit", "p.sfl", "--jobs", "x"])).is_err());
        let err = parse_args(&s(&["audit", "p.sfl", "--explain"])).unwrap_err();
        assert!(err.contains("--severity"), "{err}");
    }

    #[test]
    fn audit_text_reports_paths_and_exits_one() {
        let (out, code) = run_on_source(&audit_cmd(), POLICY);
        assert_eq!(code, exit::VIOLATION);
        assert!(out.contains("AUDIT"), "{out}");
        assert!(out.contains("FLAW  (clerk, r_salary(x):ti)"));
        assert!(out.contains("ok    (safe_clerk, r_salary(x):ti)"));
        assert!(out.contains("<- sink"));
        assert!(out.contains("<- source"));
        assert!(out.contains("severity "));
        assert!(out.contains("certified: "), "audit must certify: {out}");
    }

    #[test]
    fn audit_clean_policy_exits_zero() {
        let clean = r#"
            class Broker { salary: int, budget: int }
            fn checkBudget(b: Broker): bool { r_budget(b) >= r_salary(b) }
            user safe_clerk { checkBudget }
            require (safe_clerk, r_salary(x) : ti)
        "#;
        let (out, code) = run_on_source(&audit_cmd(), clean);
        assert_eq!(code, exit::OK, "{out}");
        assert!(out.contains("ok    "));
        assert!(out.contains("0 flaw path(s)"));
        // JSON agrees.
        let (out, code) = run_on_source(&audit_cmd_with(AuditFormat::Json, None), clean);
        assert_eq!(code, exit::OK);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("violated").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn audit_json_is_schema_versioned_and_complete() {
        let (out, code) = run_on_source(&audit_cmd_with(AuditFormat::Json, None), POLICY);
        assert_eq!(code, exit::VIOLATION);
        let doc = Json::parse(&out).expect("stdout is one valid JSON document");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(AUDIT_SCHEMA));
        assert_eq!(doc.get("requirements").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("violated").and_then(Json::as_u64), Some(1));
        let certified = doc.get("certified").expect("certified object");
        assert!(certified.get("derivations").and_then(Json::as_u64).unwrap() > 0);
        let violations = doc.get("violations").and_then(Json::as_arr).unwrap();
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(
            v.get("requirement").and_then(Json::as_str),
            Some("(clerk, r_salary(x):ti)")
        );
        let witnesses = v.get("witnesses").and_then(Json::as_arr).unwrap();
        assert!(!witnesses.is_empty());
        for w in witnesses {
            let paths = w.get("paths").and_then(Json::as_arr).unwrap();
            assert!(!paths.is_empty(), "violated witness must have provenance");
            for p in paths {
                let steps = p.get("steps").and_then(Json::as_arr).unwrap();
                assert!(!steps.is_empty());
                // Backward mode: first step is the sink, last the source.
                assert_eq!(
                    steps[0].get("term").and_then(Json::as_str),
                    p.get("sink").and_then(Json::as_str)
                );
                assert_eq!(
                    steps[steps.len() - 1].get("term").and_then(Json::as_str),
                    p.get("source").and_then(Json::as_str)
                );
            }
        }
        // The audit bypasses the closure cache, and says so.
        assert_eq!(doc.get("cache"), Some(&Json::Null));
        let summary = doc.get("summary").expect("summary object");
        assert!(summary.get("paths").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn audit_severity_filter_drops_paths_not_verdicts() {
        let all = audit_cmd_with(AuditFormat::Json, None);
        let filtered = audit_cmd_with(AuditFormat::Json, Some(Severity::Critical));
        let (out_all, code_all) = run_on_source(&all, POLICY);
        let (out_f, code_f) = run_on_source(&filtered, POLICY);
        assert_eq!(code_all, exit::VIOLATION);
        assert_eq!(code_f, code_all, "the filter must never change exit codes");
        let n = |out: &str| {
            Json::parse(out)
                .unwrap()
                .get("summary")
                .and_then(|s| s.get("paths"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert!(n(&out_f) <= n(&out_all));
        assert_eq!(
            Json::parse(&out_f)
                .unwrap()
                .get("violated")
                .and_then(Json::as_u64),
            Some(1),
            "verdicts are unaffected by the path filter"
        );
    }

    #[test]
    fn audit_bad_input_exits_three() {
        let (out, code) = run_on_source(&audit_cmd(), "class C { x: bogus }");
        assert_eq!(code, exit::INPUT);
        assert!(out.contains("error"));
    }

    #[test]
    fn audit_rejects_a_corrupted_proof_store() {
        let schema = load_str(POLICY).unwrap();
        let mut outcome = audit_batch(&schema, 1);
        let (_, closure) = outcome.groups[0].artifacts.as_mut().unwrap();
        let t = closure
            .iter()
            .find(|t| matches!(t, secflow::Term::Ta(_)))
            .expect("closure has a ta term");
        assert!(closure.replace_proof(&t, "rule for =", vec![]));
        let opts = AuditOptions {
            policy: "-".into(),
            format: AuditFormat::Json,
            severity: None,
            provenance: ProvenanceOptions::default(),
        };
        let (out, code) = render_audit(&schema, &outcome, &opts);
        assert_eq!(code, exit::CERTIFY);
        let doc = Json::parse(&out).unwrap();
        assert_eq!(doc.get("certified"), Some(&Json::Bool(false)));
        assert!(doc
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("certification FAILED"));
        // No flaw paths may be reported from an uncertified proof store.
        assert!(doc.get("violations").is_none());
    }

    #[test]
    fn audit_emits_trace_and_metrics_without_interleaving() {
        let out = run_on_source_with_obs(
            &audit_cmd(),
            POLICY,
            &ObsOptions {
                metrics: Some(MetricsFormat::Json),
                trace: Some(TraceOptions {
                    file: Some("t.json".into()),
                    format: TraceFormat::Chrome,
                }),
            },
        );
        assert_eq!(out.code, exit::VIOLATION);
        let trace = out.trace_output.expect("chrome trace captured");
        let doc = Json::parse(&trace).expect("chrome trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("audit")));
        // Metrics remain a single valid JSON document on stderr.
        let metrics = Json::parse(&out.stderr).expect("stderr is one JSON document");
        assert!(metrics.get("counters").is_some());
    }

    // -----------------------------------------------------------------
    // serve — the resident incremental session
    // -----------------------------------------------------------------

    #[test]
    fn serve_arg_parsing() {
        assert_eq!(
            parse_args(&s(&["serve", "p.sfl"])),
            Ok(Command::Serve {
                file: "p.sfl".into()
            })
        );
        assert!(parse_args(&s(&["serve"])).is_err());
        assert!(parse_args(&s(&["serve", "p.sfl", "--jobs", "2"])).is_err());
        assert!(parse_args(&s(&["serve", "p.sfl", "extra.sfl"])).is_err());
    }

    /// Run a request script through a fresh session, parsing every NDJSON
    /// response line.
    fn serve_lines(requests: &[&str]) -> (Vec<Json>, i32) {
        let schema = load_str(POLICY).expect("test policy loads");
        let (out, code) = serve_session(&schema, requests.iter().copied());
        let lines = out
            .lines()
            .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad NDJSON line `{l}`: {e}")))
            .collect();
        (lines, code)
    }

    fn delta_statuses(obj: &Json, key: &str) -> Vec<(u64, String)> {
        obj.get(key)
            .and_then(Json::as_arr)
            .expect("verdict array")
            .iter()
            .map(|v| {
                (
                    v.get("requirement").and_then(Json::as_u64).expect("index"),
                    v.get("status")
                        .and_then(Json::as_str)
                        .expect("status")
                        .to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn serve_streams_verdict_deltas_for_edits() {
        let (lines, code) = serve_lines(&[
            r#"{"op":"check","user":"clerk"}"#,
            r#"{"op":"revoke","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"grant","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"shutdown"}"#,
        ]);
        assert_eq!(code, exit::OK);
        assert_eq!(lines.len(), 6, "ready + 5 responses");
        assert!(lines[0].get("ready").is_some());

        // clerk holds {checkBudget, w_budget}: requirement 0 is violated.
        assert_eq!(
            delta_statuses(&lines[1], "verdicts"),
            vec![(0, "violated".to_owned())]
        );

        // Revoking w_budget makes clerk identical to safe_clerk: the
        // verdict flips, and the flip is the only delta reported.
        let revoke = &lines[2];
        assert_eq!(revoke.get("changed"), Some(&Json::Bool(true)));
        assert!(revoke.get("deleted").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(
            delta_statuses(revoke, "deltas"),
            vec![(0, "satisfied".to_owned())]
        );

        // Granting it back flips the verdict again, with occurrences.
        let grant = &lines[3];
        assert_eq!(grant.get("changed"), Some(&Json::Bool(true)));
        assert_eq!(
            delta_statuses(grant, "deltas"),
            vec![(0, "violated".to_owned())]
        );
        let delta = &grant.get("deltas").and_then(Json::as_arr).unwrap()[0];
        assert!(delta.get("occurrences").and_then(Json::as_u64).unwrap() > 0);

        let stats = lines[4].get("stats").expect("stats record");
        assert_eq!(stats.get("resident").and_then(Json::as_u64), Some(1));
        assert!(stats.get("resident_terms").and_then(Json::as_u64).unwrap() > 0);
        assert!(stats.get("cache").is_none());

        let shutdown = lines[5].get("shutdown").expect("shutdown record");
        assert_eq!(shutdown.get("requests").and_then(Json::as_u64), Some(5));
        assert_eq!(shutdown.get("edits").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn serve_noop_edit_reports_no_deltas() {
        let (lines, code) = serve_lines(&[
            r#"{"op":"check","user":"clerk"}"#,
            r#"{"op":"grant","user":"clerk","fn":"checkBudget"}"#,
        ]);
        assert_eq!(code, exit::OK);
        let grant = &lines[2];
        assert_eq!(grant.get("changed"), Some(&Json::Bool(false)));
        assert_eq!(grant.get("deltas").and_then(Json::as_arr), Some(&[][..]));
        // EOF without an explicit shutdown request still closes cleanly.
        assert!(lines[3].get("shutdown").is_some());
    }

    #[test]
    fn serve_bad_requests_error_and_session_continues() {
        let (lines, code) = serve_lines(&[
            "not json at all",
            r#"{"op":"zap"}"#,
            r#"{"op":"check"}"#,
            r#"{"op":"check","user":"nobody"}"#,
            r#"{"op":"grant","user":"clerk","fn":"no_such_fn"}"#,
            r#"{"op":"check","user":"clerk","extra":42}"#,
            r#"{"op":"check","user":"clerk"}"#,
        ]);
        assert_eq!(code, exit::OK, "request errors never kill the session");
        for (i, line) in lines[1..7].iter().enumerate() {
            let msg = line
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("line {} should be an error record", i + 1));
            assert!(!msg.is_empty());
            assert_eq!(
                line.get("request").and_then(Json::as_u64),
                Some(i as u64 + 1),
                "error records carry the request sequence number"
            );
        }
        // The failed grant was transactional: the follow-up check still
        // answers, and with the original (violated) verdict.
        assert_eq!(
            delta_statuses(&lines[7], "verdicts"),
            vec![(0, "violated".to_owned())]
        );
        assert!(lines[8].get("shutdown").is_some());
    }

    #[test]
    fn serve_edits_match_batch_verdicts_for_edited_caps() {
        // A session that revokes w_budget from clerk must report exactly
        // the statuses a from-scratch batch run over the edited policy
        // reports (safe_clerk *is* that edited policy, statically).
        let (lines, _) = serve_lines(&[
            r#"{"op":"revoke","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"check","user":"clerk"}"#,
            r#"{"op":"check","user":"safe_clerk"}"#,
        ]);
        let clerk = delta_statuses(&lines[2], "verdicts");
        let safe = delta_statuses(&lines[3], "verdicts");
        assert_eq!(clerk[0].1, safe[0].1, "edited clerk ≡ safe_clerk");
        assert_eq!(clerk[0].1, "satisfied");
    }

    #[test]
    fn request_lines_are_capped_at_their_bytes_before_the_newline() {
        for (len, too_long) in [(MAX_REQUEST_LINE, false), (MAX_REQUEST_LINE + 1, true)] {
            let mut input = vec![b'x'; len];
            input.extend_from_slice(b"\nnext");
            // A buffer smaller than the line: the cap holds across chunks.
            let mut reader = std::io::BufReader::with_capacity(1000, &input[..]);
            let mut buf = Vec::new();
            let first = read_request_line(&mut reader, &mut buf).unwrap();
            assert_eq!(matches!(first, RequestLine::TooLong), too_long, "len {len}");
            assert_eq!(buf.len(), if too_long { 0 } else { len });
            let next = read_request_line(&mut reader, &mut buf).unwrap();
            assert!(matches!(next, RequestLine::Line));
            assert_eq!(buf, b"next", "an unterminated last line still counts");
            let end = read_request_line(&mut reader, &mut buf).unwrap();
            assert!(matches!(end, RequestLine::Eof));
        }
        // An empty line is a line (the session skips it), not the end.
        let mut reader: &[u8] = b"\n";
        let mut buf = Vec::new();
        let blank = read_request_line(&mut reader, &mut buf).unwrap();
        assert!(matches!(blank, RequestLine::Line) && buf.is_empty());
        let end = read_request_line(&mut reader, &mut buf).unwrap();
        assert!(matches!(end, RequestLine::Eof));
    }
}
