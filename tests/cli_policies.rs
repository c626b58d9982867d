//! End-to-end CLI runs over the checked-in policy files in `policies/`.

use secflow_cli::{run, Command};

fn policy(name: &str) -> String {
    format!("{}/policies/{name}.sfl", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_stockbroker_policy_file() {
    let (report, code) = run(&Command::Check {
        file: policy("stockbroker"),
        explain: true,
        jobs: 1,
        certify: false,
        stream: false,
        ndjson: false,
    });
    assert_eq!(code, 1);
    assert!(report.contains("FLAW  (clerk, r_salary(x):ti)"));
    assert!(report.contains("ok    (safe_clerk, r_salary(x):ti)"));
    assert!(report.contains("FLAW  (payroll, w_salary(x, v:ta))"));
    assert!(report.contains("ok    (safe_payroll, w_salary(x, v:ta))"));
    // --explain prints a Figure-1 style derivation.
    assert!(report.contains("(axiom for =)"));
    assert!(report.contains("4 requirement(s), 2 violated"));
}

#[test]
fn check_hospital_policy_file() {
    let (report, code) = run(&Command::Check {
        file: policy("hospital"),
        explain: false,
        jobs: 1,
        certify: false,
        stream: false,
        ndjson: false,
    });
    assert_eq!(code, 1);
    assert!(report.contains("FLAW  (auditor, r_bill(x):ti)"));
    assert!(report.contains("ok    (safe_auditor, r_bill(x):ti)"));
}

#[test]
fn bank_policy_shows_pessimism() {
    // The static check flags the self-referential bumpLimit (the paper's
    // §3.3 always-equal assumption)…
    let (report, code) = run(&Command::Check {
        file: policy("bank"),
        explain: false,
        jobs: 1,
        certify: false,
        stream: false,
        ndjson: false,
    });
    assert_eq!(code, 1);
    assert!(report.contains("FLAW  (teller, r_balance(x):ti)"));
    assert!(report.contains("FLAW  (flawed_teller, r_balance(x):ti)"));
    assert!(report.contains("ok    (teller, w_limit(x, v:ta))"));

    // …while the bounded attacker only realises the raw-write variant.
    let (report, code) = run(&Command::Attack {
        file: policy("bank"),
        steps: 4,
    });
    assert_eq!(code, 1);
    assert!(report.contains("not realised (teller, r_balance(x):ti)"));
    assert!(report.contains("REALISED (flawed_teller, r_balance(x):ti)"));
}

#[test]
fn unfold_stockbroker_policy_file() {
    let (report, code) = run(&Command::Unfold {
        file: policy("stockbroker"),
        user: "clerk".into(),
    });
    assert_eq!(code, 0);
    assert!(report.contains("7>=(2r_budget(1broker), 6*(3:10, 5r_salary(4broker)))"));
}

#[test]
fn fix_stockbroker_policy_file() {
    let (report, code) = run(&Command::Fix {
        file: policy("stockbroker"),
    });
    assert_eq!(code, 1);
    assert!(report.contains("revoke {w_budget}"));
}

#[test]
fn deep_operator_chains_exit_three_instead_of_overflowing() {
    // A 30 000-`not` body overflowed the stack of `fmt` and `check`, and a
    // 5 000-term sum that of a 2 MiB batch worker. The parser now stops
    // both at its depth bound, an input error.
    let nots = format!("fn f(b: bool): bool {{ {}b }}", "not ".repeat(30_000));
    let sum = format!("fn f(b: int): int {{ {} }}", vec!["b"; 5_000].join(" + "));
    let users = "user u { f }\nuser v { f }\nrequire (u, f(x) : ti)\nrequire (v, f(x) : ti)\n";
    for def in [nots, sum] {
        let src = format!("{def}\n{users}");
        let check = Command::Check {
            file: "-".into(),
            explain: false,
            jobs: 2,
            certify: false,
            stream: false,
            ndjson: false,
        };
        for cmd in [Command::Fmt { file: "-".into() }, check] {
            let (report, code) = secflow_cli::run_on_source(&cmd, &src);
            assert_eq!(code, secflow_cli::exit::INPUT);
            assert_eq!(
                report,
                "error: parse error at line 1: nesting deeper than 200 levels\n"
            );
        }
    }
}

#[test]
fn metrics_report_the_peak_resident_set() {
    use secflow_cli::{run_with_obs, MetricsFormat, ObsOptions};
    let cmd = Command::Check {
        file: policy("stockbroker"),
        explain: false,
        jobs: 1,
        certify: false,
        stream: false,
        ndjson: false,
    };
    let obs = ObsOptions {
        metrics: Some(MetricsFormat::Json),
        trace: None,
    };
    let mut out = Vec::new();
    let (stderr, code) = run_with_obs(&cmd, &obs, &mut out);
    assert_eq!(code, 1);
    let doc = secflow_obs::Json::parse(&stderr).expect("metrics JSON");
    let peak = doc
        .get("gauges")
        .and_then(|g| g.get("process.peak_rss_kb"))
        .and_then(secflow_obs::Json::as_f64);
    if cfg!(target_os = "linux") {
        assert!(peak.is_some_and(|kb| kb > 0.0), "{stderr}");
    }
    // Metrics off: the same report, and nothing read or written to stderr.
    let mut plain = Vec::new();
    let (stderr, code) = run_with_obs(&cmd, &ObsOptions::default(), &mut plain);
    assert_eq!((stderr.as_str(), code), ("", 1));
    assert_eq!(plain, out);
}

#[test]
fn missing_file_exits_three() {
    // Input errors get their own exit code, distinct from usage errors (2)
    // and policy violations (1).
    let (report, code) = run(&Command::Check {
        file: policy("does_not_exist"),
        explain: false,
        jobs: 1,
        certify: false,
        stream: false,
        ndjson: false,
    });
    assert_eq!(code, secflow_cli::exit::INPUT);
    assert!(report.contains("cannot read"));
}

#[test]
fn exit_codes_are_distinct_per_outcome_class() {
    use secflow_cli::exit;
    // 0: a policy whose requirements are all satisfied.
    let (_, ok) = run(&Command::Check {
        file: policy("stockbroker_safe"),
        explain: false,
        jobs: 1,
        certify: false,
        stream: false,
        ndjson: false,
    });
    // 1: a policy with a flaw.
    let (_, violated) = run(&Command::Check {
        file: policy("stockbroker"),
        explain: false,
        jobs: 1,
        certify: false,
        stream: false,
        ndjson: false,
    });
    // 2: a usage error (unknown flag) — rejected at parse time; the binary
    // shim maps this to exit::USAGE.
    let usage = secflow_cli::parse_args(&["check".into(), "p.sfl".into(), "--bogus-flag".into()]);
    // 3: an unreadable input file.
    let (_, input) = run(&Command::Check {
        file: policy("does_not_exist"),
        explain: false,
        jobs: 1,
        certify: false,
        stream: false,
        ndjson: false,
    });
    assert_eq!(ok, exit::OK);
    assert_eq!(violated, exit::VIOLATION);
    assert!(usage.is_err(), "unknown flags must be usage errors");
    assert_eq!(input, exit::INPUT);
    // The five documented codes are pairwise distinct.
    let codes = [
        exit::OK,
        exit::VIOLATION,
        exit::USAGE,
        exit::INPUT,
        exit::CERTIFY,
    ];
    for (i, a) in codes.iter().enumerate() {
        for b in &codes[i + 1..] {
            assert_ne!(a, b, "exit codes must stay distinct");
        }
    }
}

/// Every checked-in policy file, sorted.
fn policy_files() -> Vec<std::path::PathBuf> {
    let dir = format!("{}/policies", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("policies/ is readable")
        .map(|e| e.expect("policies/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "sfl"))
        .collect();
    files.sort();
    assert!(files.len() >= 4, "expected the fixture policies in {dir}");
    files
}

/// `--certify` runs the full, proof-carrying closure and the plain run the
/// demand-driven one: on every policy file the verdict lines and the exit
/// code must agree, and every derivation must certify.
#[test]
fn certify_passes_on_every_policy_file() {
    for path in policy_files() {
        let name = path.display().to_string();
        let check = |certify| {
            run(&Command::Check {
                file: name.clone(),
                explain: false,
                jobs: 1,
                certify,
                stream: false,
                ndjson: false,
            })
        };
        let plain = check(false);
        let (report, code) = check(true);
        assert_eq!(code, plain.1, "{name}: --certify changed the exit code");
        assert!(
            report.starts_with(&plain.0),
            "{name}: --certify changed the verdict lines"
        );
        assert!(
            report.contains("certified: "),
            "{name}: missing certify summary"
        );
    }
}

/// Instrumented and plain `check` run one code path: for every policy file
/// and every valid flag set, `--metrics=json` with a trace file leaves
/// stdout and the exit code exactly as the plain run prints them, stderr is
/// one JSON document and every trace line parses.
#[test]
fn instrumented_check_agrees_with_plain_on_every_flag_set() {
    use secflow_cli::{
        run_on_source, run_on_source_with_obs, MetricsFormat, ObsOptions, TraceOptions,
    };
    use secflow_obs::{Json, TraceFormat};
    let obs = ObsOptions {
        metrics: Some(MetricsFormat::Json),
        trace: Some(TraceOptions {
            file: Some("check.trace.jsonl".into()),
            format: TraceFormat::Jsonl,
        }),
    };
    // (explain, certify, stream, ndjson)
    let flag_sets = [
        (false, false, false, false),
        (true, false, false, false),
        (false, true, false, false),
        (true, true, false, false),
        (false, false, true, false),
        (false, false, true, true),
    ];
    let sorted_lines = |text: &str| {
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines.sort();
        lines
    };
    for path in policy_files() {
        let src = std::fs::read_to_string(&path).expect("policy file is readable");
        for (explain, certify, stream, ndjson) in flag_sets {
            for jobs in [1, 4] {
                let cmd = Command::Check {
                    file: path.display().to_string(),
                    explain,
                    jobs,
                    certify,
                    stream,
                    ndjson,
                };
                let (plain, plain_code) = run_on_source(&cmd, &src);
                let out = run_on_source_with_obs(&cmd, &src, &obs);
                assert_eq!(out.code, plain_code, "{cmd:?}");
                if stream && jobs > 1 {
                    // Completion order is the pool's.
                    assert_eq!(sorted_lines(&out.stdout), sorted_lines(&plain), "{cmd:?}");
                } else {
                    assert_eq!(out.stdout, plain, "{cmd:?}");
                }
                Json::parse(&out.stderr)
                    .unwrap_or_else(|e| panic!("{cmd:?}: stderr is not one JSON document: {e}"));
                let trace = out
                    .trace_output
                    .unwrap_or_else(|| panic!("{cmd:?}: no trace for the file target"));
                for line in trace.lines() {
                    Json::parse(line)
                        .unwrap_or_else(|e| panic!("{cmd:?}: bad trace line {line}: {e}"));
                }
            }
        }
    }
}

/// The NDJSON stream's records are written straight into the output, not
/// built as `Json` values: every line, on every policy file and a
/// many-user policy, serial and parallel, must be exactly what `Json`'s
/// compact form prints for the value it parses to.
#[test]
fn ndjson_stream_lines_are_canonical_json() {
    use secflow_cli::run_on_source;
    use secflow_obs::Json;
    let mut sources: Vec<(String, String)> = policy_files()
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("policy file is readable");
            (p.display().to_string(), src)
        })
        .collect();
    sources.push(("many_user_policy".into(), many_user_policy()));
    for (name, src) in &sources {
        for jobs in [1, 4] {
            let cmd = Command::Check {
                file: name.clone(),
                explain: false,
                jobs,
                certify: false,
                stream: true,
                ndjson: true,
            };
            let (out, _) = run_on_source(&cmd, src);
            let lines: Vec<&str> = out.lines().collect();
            assert!(
                lines.len() >= 2,
                "{name} jobs={jobs}: records and a summary"
            );
            for line in lines {
                let doc = Json::parse(line)
                    .unwrap_or_else(|e| panic!("{name} jobs={jobs}: `{line}`: {e}"));
                assert_eq!(doc.to_string(), line, "{name} jobs={jobs}");
            }
        }
    }
}

#[test]
fn fmt_policy_files_round_trip() {
    for name in ["stockbroker", "hospital", "bank"] {
        let (report, code) = run(&Command::Fmt { file: policy(name) });
        assert_eq!(code, 0, "{name}");
        // The pretty-printed output re-parses and re-checks.
        secflow_cli::load_str(&report).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

fn audit(file: String, format: secflow_cli::AuditFormat) -> (String, i32) {
    run(&Command::Audit {
        file,
        format,
        severity: None,
        mode: secflow::WalkMode::Backward,
        max_depth: 64,
        max_paths: 16,
        jobs: 1,
    })
}

#[test]
fn audit_exit_codes_cover_every_outcome_class() {
    use secflow_cli::{exit, AuditFormat};
    // 0: clean policy, nothing to report.
    let (out, clean) = audit(policy("stockbroker_safe"), AuditFormat::Text);
    assert_eq!(clean, exit::OK, "{out}");
    assert!(out.contains("0 flaw path(s)"));
    // 1: the paper's flawed policy, with rendered provenance.
    let (out, flawed) = audit(policy("stockbroker"), AuditFormat::Text);
    assert_eq!(flawed, exit::VIOLATION);
    assert!(out.contains("FLAW  (clerk, r_salary(x):ti)"));
    assert!(out.contains("<- sink"));
    assert!(out.contains("<- source"));
    // 3: unreadable input.
    let (out, missing) = audit(policy("no_such_policy"), AuditFormat::Text);
    assert_eq!(missing, exit::INPUT);
    assert!(out.contains("error"));
    // 4: a corrupted proof store (driven through the library surface, the
    // only way to corrupt memory between analysis and rendering).
    let src = std::fs::read_to_string(policy("stockbroker")).unwrap();
    let schema = secflow_cli::load_str(&src).unwrap();
    let mut outcome = secflow_cli::audit_batch(&schema, 1);
    let (_, closure) = outcome.groups[0].artifacts.as_mut().unwrap();
    let t = closure
        .iter()
        .find(|t| matches!(t, secflow::Term::Ta(_)))
        .expect("closure has a ta term");
    assert!(closure.replace_proof(&t, "rule for =", vec![]));
    let opts = secflow_cli::AuditOptions {
        policy: policy("stockbroker"),
        format: AuditFormat::Text,
        severity: None,
        provenance: secflow::ProvenanceOptions::default(),
    };
    let (out, corrupted) = secflow_cli::render_audit(&schema, &outcome, &opts);
    assert_eq!(corrupted, exit::CERTIFY);
    assert!(out.contains("certification FAILED"));
    assert!(!out.contains("<- sink"), "no paths from uncertified proofs");
}

#[test]
fn audit_agrees_with_check_on_every_policy_file() {
    use secflow_cli::AuditFormat;
    for name in ["stockbroker", "stockbroker_safe", "hospital", "bank"] {
        let (_, check_code) = run(&Command::Check {
            file: policy(name),
            explain: false,
            jobs: 1,
            certify: false,
            stream: false,
            ndjson: false,
        });
        let (_, audit_code) = audit(policy(name), AuditFormat::Text);
        assert_eq!(
            audit_code, check_code,
            "{name}: audit and check verdicts diverge"
        );
    }
}

#[test]
fn usage_documents_audit() {
    assert!(secflow_cli::USAGE.contains("audit"));
    assert!(secflow_cli::USAGE.contains("--severity"));
    assert!(secflow_cli::USAGE.contains("--trace"));
}

#[test]
fn stream_ndjson_artifact_flags_stay_usage_errors() {
    // `--stream --format=ndjson` buffers no per-group artifacts, so the
    // artifact-hungry flags must keep being rejected at parse time — the
    // binary shim maps these to exit 2 (USAGE), never to a late runtime
    // failure with a different class.
    fn args(extra: &str) -> Vec<String> {
        ["check", "p.sfl", "--stream", "--format=ndjson", extra]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }
    let explain = secflow_cli::parse_args(&args("--explain"));
    let certify = secflow_cli::parse_args(&args("--certify"));
    assert!(explain.is_err(), "--stream --explain must be a usage error");
    assert!(certify.is_err(), "--stream --certify must be a usage error");
    // The message names the conflicting flag so scripts fail loudly.
    assert!(explain.unwrap_err().contains("--stream"));
    assert!(certify.unwrap_err().contains("--stream"));
    // `--format=ndjson` without `--stream` is equally a parse-time reject.
    let bare: Vec<String> = ["check", "p.sfl", "--format=ndjson"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert!(secflow_cli::parse_args(&bare).is_err());
}

#[test]
fn serve_exit_code_classes_are_preserved() {
    use secflow_cli::exit;
    // Usage errors (exit 2 via the shim): missing file, stray flag.
    assert!(secflow_cli::parse_args(&["serve".into()]).is_err());
    assert!(secflow_cli::parse_args(&["serve".into(), "p.sfl".into(), "--jobs".into()]).is_err());
    // Input error (exit 3): unreadable policy file.
    let (report, code) = run(&Command::Serve {
        file: policy("does_not_exist"),
    });
    assert_eq!(code, exit::INPUT);
    assert!(report.contains("cannot read"));
    // A bad *request* is not a process failure: the session answers with an
    // error record and still exits 0 on shutdown.
    let src = std::fs::read_to_string(policy("stockbroker")).unwrap();
    let schema = secflow_cli::load_str(&src).unwrap();
    let (out, code) =
        secflow_cli::serve_session(&schema, [r#"{"op":"frobnicate"}"#, r#"{"op":"shutdown"}"#]);
    assert_eq!(code, exit::OK);
    assert!(out.contains("\"error\":"));
    assert!(out.contains("\"shutdown\":"));
}

#[test]
fn serve_session_maintains_stockbroker_verdicts() {
    // Drive the real stockbroker policy through a grant/revoke session:
    // revoking the flaw-carrying capability flips the verdict delta, and
    // re-granting it flips it back — the scripted CI smoke runs the same
    // session through the binary.
    let src = std::fs::read_to_string(policy("stockbroker")).unwrap();
    let schema = secflow_cli::load_str(&src).unwrap();
    let (out, code) = secflow_cli::serve_session(
        &schema,
        [
            r#"{"op":"check","user":"clerk"}"#,
            r#"{"op":"revoke","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"grant","user":"clerk","fn":"w_budget"}"#,
            r#"{"op":"shutdown"}"#,
        ],
    );
    assert_eq!(code, secflow_cli::exit::OK);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5, "ready + 4 responses:\n{out}");
    assert!(lines[1].contains("\"status\":\"violated\""));
    assert!(lines[2].contains("\"changed\":true"));
    assert!(lines[2].contains("\"status\":\"satisfied\""));
    assert!(lines[3].contains("\"status\":\"violated\""));
}

#[test]
fn serve_answers_a_non_utf8_request_and_keeps_serving() {
    // An undecodable request line is one bad request, not the end of the
    // stream: it answers an error record and the requests after it are
    // still served, up to the EOF shutdown line.
    let src = std::fs::read_to_string(policy("stockbroker")).unwrap();
    let schema = secflow_cli::load_str(&src).unwrap();
    let input: &[u8] = b"{\"op\":\"check\",\"user\":\"clerk\"}\n\
        {\"op\":\"check\",\"user\":\"cl\xffrk\"}\n\
        {\"op\":\"check\",\"user\":\"clerk\"}\n\
        {\"op\":\"stats\"}\n";
    let mut out = Vec::new();
    let code = secflow_cli::serve_io(&schema, input, &mut out);
    assert_eq!(code, secflow_cli::exit::OK);
    let out = String::from_utf8(out).expect("responses are UTF-8");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 6, "ready + 4 responses + shutdown:\n{out}");
    assert!(lines[1].contains("\"op\":\"check\""));
    assert_eq!(
        lines[2],
        r#"{"error":"request is not valid UTF-8","request":2}"#
    );
    assert_eq!(lines[3], lines[1], "request 3 is served like request 1");
    assert!(lines[4].contains("\"stats\":{\"requests\":4"));
    assert_eq!(lines[5], r#"{"shutdown":{"requests":4,"edits":0}}"#);
}

#[test]
fn serve_bounds_request_lines_and_keeps_serving() {
    // A 1 MiB line is answered with one error and dropped as it is read;
    // the check after it is served and EOF still ends with the shutdown
    // line. The small buffer makes the reader discard the long line chunk
    // by chunk rather than find its end in one buffer.
    let src = std::fs::read_to_string(policy("stockbroker")).unwrap();
    let schema = secflow_cli::load_str(&src).unwrap();
    let mut input = vec![b'x'; 1 << 20];
    input.extend_from_slice(b"\n{\"op\":\"check\",\"user\":\"clerk\"}\n");
    let (expected_check, _) =
        secflow_cli::serve_session(&schema, [r#"{"op":"check","user":"clerk"}"#]);
    let expected_check = expected_check.lines().nth(1).unwrap().to_owned();
    for capacity in [None, Some(4096)] {
        let mut out = Vec::new();
        let cursor = std::io::Cursor::new(&input);
        let code = match capacity {
            None => secflow_cli::serve_io(&schema, cursor, &mut out),
            Some(c) => secflow_cli::serve_io(
                &schema,
                std::io::BufReader::with_capacity(c, cursor),
                &mut out,
            ),
        };
        assert_eq!(code, secflow_cli::exit::OK);
        let out = String::from_utf8(out).expect("responses are UTF-8");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "ready + 2 responses + shutdown:\n{out}");
        assert_eq!(
            lines[1],
            r#"{"error":"request line exceeds 65536 bytes","request":1}"#
        );
        assert_eq!(lines[2], expected_check);
        assert_eq!(lines[3], r#"{"shutdown":{"requests":2,"edits":0}}"#);
    }
}

/// The response stream of `serve_io` over `input`, which must exit 0.
fn serve_bytes(schema: &oodb_lang::Schema, input: &[u8]) -> String {
    let mut out = Vec::new();
    let code = secflow_cli::serve_io(schema, input, &mut out);
    assert_eq!(code, secflow_cli::exit::OK);
    String::from_utf8(out).expect("responses are UTF-8")
}

#[test]
fn serve_decodes_json_escapes_in_requests() {
    // `\u0063lerk` is `clerk`: a request any JSON encoder may write (Python's
    // `json.dumps` escapes every non-ASCII character this way) is answered
    // exactly like its unescaped twin.
    let src = std::fs::read_to_string(policy("stockbroker")).unwrap();
    let schema = secflow_cli::load_str(&src).unwrap();
    let plain = serve_bytes(&schema, b"{\"op\":\"check\",\"user\":\"clerk\"}\n");
    let escaped = serve_bytes(&schema, br#"{"op":"ch\u0065ck","user":"\u0063lerk"}"#);
    assert_eq!(escaped, plain);
    assert!(escaped.contains("\"status\":\"violated\""), "{escaped}");
}

#[test]
fn serve_answers_a_deeply_nested_request_and_keeps_serving() {
    // 32 000 nested arrays fit under the 64 KiB line cap; the request
    // parser must refuse them with one error line instead of overflowing
    // its stack, and the check after it is still served.
    let src = std::fs::read_to_string(policy("stockbroker")).unwrap();
    let schema = secflow_cli::load_str(&src).unwrap();
    let check = r#"{"op":"check","user":"clerk"}"#;
    let nested = format!("{{\"op\":{}{}}}", "[".repeat(32_000), "]".repeat(32_000));
    assert!(nested.len() > 64_000 && nested.len() < 65_536);
    let out = serve_bytes(&schema, format!("{nested}\n{check}\n").as_bytes());
    let expected = serve_bytes(&schema, check.as_bytes());
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "ready + 2 responses + shutdown:\n{out}");
    assert!(
        lines[1].starts_with(r#"{"error":"bad request: nesting deeper than 128 levels"#),
        "{}",
        lines[1]
    );
    assert!(lines[1].ends_with(r#""request":1}"#), "{}", lines[1]);
    assert_eq!(lines[2], expected.lines().nth(1).unwrap());
    assert_eq!(lines[3], r#"{"shutdown":{"requests":2,"edits":0}}"#);
}

/// A `serve_mixed`-shaped policy in miniature: 40 users over a pool of 8
/// probe functions. Users `n`, `n + 10`, `n + 20` and `n + 30` hold one
/// capability list, and so do `u0` and `u8`, `u1` and `u9`. Every user but
/// `u7` has one to three requirements, and each user's requirements are
/// interleaved with other users' in the file.
fn many_user_policy() -> String {
    use std::fmt::Write;
    const POOL: usize = 8;
    const USERS: usize = 40;
    let mut src = String::new();
    let attrs: Vec<String> = (0..POOL).map(|i| format!("a{i}: int")).collect();
    let _ = writeln!(src, "class C {{ {} }}", attrs.join(", "));
    for i in 0..POOL {
        let _ = writeln!(src, "fn p{i}(c: C): bool {{ r_a{i}(c) >= {i} }}");
    }
    for n in 0..USERS {
        let k = n % 10;
        let mut grants = vec![format!("p{}", k % POOL), format!("p{}", (3 * k + 1) % POOL)];
        if k % 2 == 0 {
            grants.push(format!("w_a{}", k % POOL));
        }
        let _ = writeln!(src, "user u{n} {{ {} }}", grants.join(", "));
    }
    let count = |n: usize| if n == 7 { 0 } else { 1 + n % 3 };
    for r in 0..3 {
        // 17 is coprime to 40: every round visits every user once, in an
        // order unrelated to their numbers.
        for n in (0..USERS).map(|j| j * 17 % USERS) {
            if r < count(n) {
                let cap = if r == 1 { "pi" } else { "ti" };
                let t = (n + 3 * r) % POOL;
                let _ = writeln!(src, "require (u{n}, r_a{t}(x) : {cap})");
            }
        }
    }
    src
}

#[test]
fn serve_checks_agree_with_batch_analysis_on_a_many_user_policy() {
    use oodb_model::{FnRef, UserName};
    use secflow::algorithm::{analyze_batch, AnalysisConfig, BatchOptions};
    use secflow::Verdict;
    use secflow_obs::Json;

    let schema = secflow_cli::load_str(&many_user_policy()).unwrap();
    let users: Vec<String> = (0..40).map(|n| format!("u{n}")).collect();
    let check = |u: &String| format!(r#"{{"op":"check","user":"{u}"}}"#);
    let edits = [
        ("revoke", "u0", "w_a0"),
        ("grant", "u0", "p6"),
        ("grant", "u13", "p0"),
        ("revoke", "u13", "p2"),
    ];
    let mut script: Vec<String> = users.iter().map(check).collect();
    for (op, user, f) in edits {
        script.push(format!(r#"{{"op":"{op}","user":"{user}","fn":"{f}"}}"#));
    }
    script.extend(users.iter().map(check));
    let (out, code) = secflow_cli::serve_session(&schema, &script);
    assert_eq!(code, secflow_cli::exit::OK);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(
        lines.len(),
        script.len() + 2,
        "ready + responses + shutdown"
    );

    // The oracle: uncached batch analysis of the whole policy, before and
    // after the same edits are applied to the capability lists.
    type Row = (u64, String, Option<u64>);
    let expected = |schema: &oodb_lang::Schema| -> Vec<(String, Row)> {
        let outcome = analyze_batch(
            schema,
            &schema.requirements,
            &AnalysisConfig::default(),
            &BatchOptions::default(),
        );
        schema
            .requirements
            .iter()
            .zip(&outcome.verdicts)
            .enumerate()
            .map(|(i, (r, v))| {
                let (status, occs) = match v {
                    Ok(Verdict::Satisfied) => ("satisfied", None),
                    Ok(Verdict::Violated(vs)) => ("violated", Some(vs.len() as u64)),
                    Err(e) => panic!("requirement {i}: {e}"),
                };
                (r.user.to_string(), (i as u64, status.to_owned(), occs))
            })
            .collect()
    };
    let before = expected(&schema);
    let mut edited = schema.clone();
    for (op, user, f) in edits {
        let caps = edited.users.get_mut(&UserName::new(user)).unwrap();
        let fn_ref: FnRef = f.parse().unwrap();
        let changed = if op == "grant" {
            caps.grant(fn_ref)
        } else {
            caps.revoke(&fn_ref)
        };
        assert!(changed, "{op} {f} on {user} changes the capability list");
    }
    let after = expected(&edited);
    assert!(
        before != after,
        "the edits flip at least one verdict, so the re-checks see them"
    );
    for statuses in [&before, &after] {
        assert!(statuses.iter().any(|(_, (_, s, _))| s == "satisfied"));
        assert!(statuses.iter().any(|(_, (_, s, _))| s == "violated"));
    }

    let mut checked = 0;
    for (line, resp) in script.iter().zip(&lines[1..]) {
        let req = Json::parse(line).unwrap();
        if req.get("op").and_then(Json::as_str) != Some("check") {
            assert!(resp.contains(r#""changed":true"#), "{line} -> {resp}");
            continue;
        }
        let user = req.get("user").and_then(Json::as_str).unwrap();
        let oracle = if checked < users.len() {
            &before
        } else {
            &after
        };
        checked += 1;
        let want: Vec<&Row> = oracle
            .iter()
            .filter(|(u, _)| u == user)
            .map(|(_, row)| row)
            .collect();
        let doc = Json::parse(resp).unwrap_or_else(|e| panic!("{resp}: {e}"));
        let got: Vec<Row> = doc
            .get("verdicts")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("no verdicts in {resp}"))
            .iter()
            .map(|v| {
                (
                    v.get("requirement").and_then(Json::as_u64).unwrap(),
                    v.get("status").and_then(Json::as_str).unwrap().to_owned(),
                    v.get("occurrences").and_then(Json::as_u64),
                )
            })
            .collect();
        assert_eq!(got.iter().collect::<Vec<_>>(), want, "check of {user}");
        assert_eq!(got.is_empty(), user == "u7", "only u7 has no requirements");
    }
    assert_eq!(checked, 2 * users.len());
}

/// One request of a random `serve` script on [`many_user_policy`].
#[derive(Clone, Debug)]
enum ServeRequest {
    Check(String),
    /// `(op, user, fn)`: a grant or a revoke.
    Edit(&'static str, String, String),
    Stats,
    /// A line the session must refuse: not JSON, or a non-string value.
    Malformed(String),
    /// An empty or all-space line: no response, not a request.
    Blank(String),
}

impl ServeRequest {
    /// Draw a request from `(kind, user, fn)`, each a uniform integer.
    /// Half the user draws land on `u0`–`u7`, so edited users get checked
    /// and edited again.
    fn from_draw((kind, u, f): (u32, usize, usize)) -> ServeRequest {
        let user = if u < 40 {
            format!("u{}", u % 8)
        } else {
            format!("u{}", u - 40)
        };
        let func = match f {
            0..=7 => format!("p{f}"),
            8..=15 => format!("r_a{}", f - 8),
            _ => format!("w_a{}", f - 16),
        };
        let op = if f % 2 == 0 { "grant" } else { "revoke" };
        match kind {
            0..=34 => ServeRequest::Check(user),
            35..=54 => ServeRequest::Edit("grant", user, func),
            55..=74 => ServeRequest::Edit("revoke", user, func),
            75..=78 => ServeRequest::Check("nobody".into()),
            79..=80 => ServeRequest::Edit(op, "nobody".into(), func),
            // `p9` is not defined: a grant fails, a revoke changes nothing.
            81..=84 => ServeRequest::Edit(op, user, "p9".into()),
            85..=88 => ServeRequest::Malformed(format!(r#"{{"op":"check","user":"{user}""#)),
            89..=92 => ServeRequest::Malformed(format!(r#"{{"op":"check","user":{u}}}"#)),
            93..=96 => ServeRequest::Blank(" ".repeat(f % 3)),
            _ => ServeRequest::Stats,
        }
    }

    fn line(&self) -> String {
        match self {
            ServeRequest::Check(user) => format!(r#"{{"op":"check","user":"{user}"}}"#),
            ServeRequest::Edit(op, user, f) => {
                format!(r#"{{"op":"{op}","user":"{user}","fn":"{f}"}}"#)
            }
            ServeRequest::Stats => r#"{"op":"stats"}"#.to_owned(),
            ServeRequest::Malformed(line) | ServeRequest::Blank(line) => line.clone(),
        }
    }
}

/// A requirement's serve status: `(index, status, occurrences)`.
type StatusRow = (u64, String, Option<u64>);

fn status_rows(doc: &secflow_obs::Json, key: &str) -> Result<Vec<StatusRow>, String> {
    use secflow_obs::Json;
    let rows = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or("no verdict array")?;
    rows.iter()
        .map(|v| {
            Ok((
                v.get("requirement")
                    .and_then(Json::as_u64)
                    .ok_or("no index")?,
                v.get("status")
                    .and_then(Json::as_str)
                    .ok_or("no status")?
                    .to_owned(),
                v.get("occurrences").and_then(Json::as_u64),
            ))
        })
        .collect()
}

/// What a `serve` session on `many_user_policy` must answer: the schema
/// with every accepted edit applied to its lists, and the statuses the
/// session last reported per user. Statuses come from `RefClosure`.
struct ServeModel {
    schema: oodb_lang::Schema,
    last: std::collections::BTreeMap<String, Vec<StatusRow>>,
    resident: std::collections::BTreeSet<String>,
    requests: u64,
    edits: u64,
}

impl ServeModel {
    fn statuses(&self, user: &str) -> Vec<StatusRow> {
        use secflow::Verdict;
        let config = secflow::algorithm::AnalysisConfig::default();
        self.schema
            .requirements
            .iter()
            .enumerate()
            .filter(|(_, r)| r.user.as_str() == user)
            .map(
                |(i, r)| match secflow::analyze_ref(&self.schema, r, &config) {
                    Ok(Verdict::Satisfied) => (i as u64, "satisfied".into(), None),
                    Ok(Verdict::Violated(vs)) => {
                        (i as u64, "violated".into(), Some(vs.len() as u64))
                    }
                    Err(e) => panic!("the oracle fails on requirement {i}: {e}"),
                },
            )
            .collect()
    }

    /// The response `req` must get, checked against `resp`; updates the
    /// model as the session updates itself.
    fn answer(&mut self, req: &ServeRequest, resp: &secflow_obs::Json) -> Result<(), String> {
        use oodb_model::UserName;
        use secflow_obs::Json;
        self.requests += 1;
        let error = |model: &ServeModel| match resp {
            Json::Obj(fields)
                if fields.len() == 2
                    && resp.get("error").and_then(Json::as_str).is_some()
                    && resp.get("request").and_then(Json::as_u64) == Some(model.requests) =>
            {
                Ok(())
            }
            _ => Err(format!("expected error for request {}", model.requests)),
        };
        let known = |user: &str| self.schema.users.contains_key(&UserName::new(user));
        match req {
            ServeRequest::Blank(_) => unreachable!("blank lines are not requests"),
            ServeRequest::Malformed(_) => error(self),
            ServeRequest::Check(user) if !known(user) => error(self),
            ServeRequest::Edit(_, user, _) if !known(user) => error(self),
            ServeRequest::Check(user) => {
                let want = self.statuses(user);
                if resp.get("op").and_then(Json::as_str) != Some("check")
                    || resp.get("user").and_then(Json::as_str) != Some(user)
                    || status_rows(resp, "verdicts")? != want
                {
                    return Err(format!("check of {user}: expected {want:?}"));
                }
                self.last.insert(user.clone(), want);
                Ok(())
            }
            ServeRequest::Edit(op, user, f) => {
                // The session materialises the user before it applies the
                // edit, and diffs against the pre-edit statuses if it never
                // reported any.
                self.resident.insert(user.clone());
                let before = match self.last.get(user) {
                    Some(rows) => rows.clone(),
                    None => self.statuses(user),
                };
                if *op == "grant" && f == "p9" {
                    self.last.insert(user.clone(), before);
                    return error(self);
                }
                let caps = self.schema.users.get_mut(&UserName::new(user)).unwrap();
                let fn_ref: oodb_model::FnRef = f.parse().unwrap();
                let changed = if *op == "grant" {
                    caps.grant(fn_ref)
                } else {
                    caps.revoke(&fn_ref)
                };
                self.edits += u64::from(changed);
                let now = self.statuses(user);
                let deltas: Vec<StatusRow> = now
                    .iter()
                    .filter(|r| !before.contains(r))
                    .cloned()
                    .collect();
                if resp.get("op").and_then(Json::as_str) != Some(*op)
                    || resp.get("user").and_then(Json::as_str) != Some(user)
                    || resp.get("changed") != Some(&Json::Bool(changed))
                    || status_rows(resp, "deltas")? != deltas
                {
                    return Err(format!(
                        "{op} {f} on {user}: expected changed {changed}, deltas {deltas:?}"
                    ));
                }
                self.last.insert(user.clone(), now);
                Ok(())
            }
            ServeRequest::Stats => {
                let stats = resp.get("stats").ok_or("no stats object")?;
                let count = |key: &str| stats.get(key).and_then(Json::as_u64);
                if count("requests") != Some(self.requests)
                    || count("edits") != Some(self.edits)
                    || count("resident") != Some(self.resident.len() as u64)
                    || count("resident_terms").is_none()
                    || stats.get("cache").is_some()
                {
                    return Err("stats disagree with the model".into());
                }
                Ok(())
            }
        }
    }
}

/// Drive `serve_session` on `many_user_policy()` with `script` and check
/// every response line against [`ServeModel`]: each is one JSON object,
/// each non-blank request gets exactly one, and the session ends with
/// exit 0 and a `shutdown` line whose counts match the model.
fn serve_script_agrees_with_the_oracle(script: &[ServeRequest]) -> Result<(), String> {
    use secflow_obs::Json;
    let schema = secflow_cli::load_str(&many_user_policy()).unwrap();
    let lines: Vec<String> = script.iter().map(ServeRequest::line).collect();
    let (out, code) = secflow_cli::serve_session(&schema, &lines);
    if code != secflow_cli::exit::OK {
        return Err(format!("exit code {code}"));
    }
    // Every response is one JSON object in its canonical compact form.
    let mut responses = out.lines().map(|line| {
        let doc = Json::parse(line).map_err(|e| format!("response `{line}` is not JSON: {e}"))?;
        if doc.to_string() != line {
            return Err(format!("response `{line}` is not canonical: `{doc}`"));
        }
        Ok(doc)
    });
    let mut next = || responses.next().ok_or("the stream ended early")?;
    let ready = next()?;
    let ready = ready.get("ready").ok_or("no ready line")?;
    if ready.get("users").and_then(Json::as_u64) != Some(40) {
        return Err("ready line does not count 40 users".into());
    }
    let mut model = ServeModel {
        schema: schema.clone(),
        last: Default::default(),
        resident: Default::default(),
        requests: 0,
        edits: 0,
    };
    for (req, line) in script.iter().zip(&lines) {
        if let ServeRequest::Blank(_) = req {
            continue;
        }
        let resp = next()?;
        model
            .answer(req, &resp)
            .map_err(|e| format!("{e}\n  request: {line}\n  response: {resp}"))?;
    }
    let shutdown = next()?;
    let counts = shutdown.get("shutdown").ok_or("no shutdown line")?;
    if counts.get("requests").and_then(Json::as_u64) != Some(model.requests)
        || counts.get("edits").and_then(Json::as_u64) != Some(model.edits)
    {
        return Err(format!("shutdown line {shutdown} disagrees with the model"));
    }
    match next() {
        Ok(extra) => Err(format!("a line after shutdown: {extra}")),
        Err(_) => Ok(()),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// Random scripts of checks, grants, revokes, unknown names, malformed
    /// and blank lines: never-edited users (`analyze_caps`) and resident
    /// ones (`IncrementalUser`) both answer what `RefClosure` does on the
    /// edited policy.
    #[test]
    fn random_serve_scripts_agree_with_the_oracle(
        draws in proptest::collection::vec((0u32..100, 0usize..80, 0usize..24), 1..41)
    ) {
        let script: Vec<ServeRequest> = draws.into_iter().map(ServeRequest::from_draw).collect();
        let verdict = serve_script_agrees_with_the_oracle(&script);
        proptest::prop_assert!(verdict.is_ok(), "{}\nscript: {:#?}", verdict.unwrap_err(), script);
    }
}

#[test]
fn usage_documents_serve() {
    assert!(secflow_cli::USAGE.contains("serve"));
    assert!(secflow_cli::USAGE.contains("shutdown"));
}
