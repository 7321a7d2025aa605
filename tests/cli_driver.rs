//! End-to-end tests of the `hirc` compiler driver binary.

use std::process::Command;

fn hirc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hirc"))
}

/// A valid design in the generic textual format, produced by printing the
/// transpose kernel.
fn transpose_source() -> String {
    let m = kernels::transpose::hir_transpose(4, 32);
    ir::print_module(&m)
}

#[test]
fn compiles_textual_ir_to_verilog() {
    let dir = std::env::temp_dir().join("hirc_test_ok");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("transpose.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let out = hirc().arg(&input).output().expect("run hirc");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let verilog = String::from_utf8_lossy(&out.stdout);
    assert!(verilog.contains("module hir_transpose"), "{verilog}");
    assert!(verilog.contains("always @(posedge clk)"));
}

#[test]
fn emit_pretty_and_ir_modes() {
    let dir = std::env::temp_dir().join("hirc_test_modes");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();

    let out = hirc().arg(&input).arg("--emit=pretty").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("hir.for"));

    let out = hirc().arg(&input).arg("--emit=ir").output().unwrap();
    assert!(out.status.success());
    // Canonical output must itself be parseable.
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(ir::parse_module(&text).is_ok());
}

#[test]
fn verify_only_rejects_schedule_errors() {
    let dir = std::env::temp_dir().join("hirc_test_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("bad.mlir");
    let bad = kernels::errors::figure1_array_add(false);
    std::fs::write(&input, ir::print_module(&bad)).unwrap();
    let out = hirc().arg(&input).arg("--verify-only").output().unwrap();
    assert!(!out.status.success(), "schedule error must fail the build");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mismatched delay (0 vs 1)"), "{err}");
}

#[test]
fn optimize_flag_runs_pipeline_and_output_still_compiles() {
    let dir = std::env::temp_dir().join("hirc_test_opt");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let outfile = dir.join("t.v");
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg("--timing")
        .arg("-o")
        .arg(&outfile)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("hirc timing"));
    let v = std::fs::read_to_string(&outfile).unwrap();
    assert!(v.contains("module hir_transpose"));
}

#[test]
fn parse_errors_have_positions() {
    let dir = std::env::temp_dir().join("hirc_test_parse");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("garbage.mlir");
    std::fs::write(&input, "not an ir module $$$").unwrap();
    let out = hirc().arg(&input).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn compiles_checked_in_pretty_designs() {
    // The .hir design files in designs/ are first-class inputs.
    let root = env!("CARGO_MANIFEST_DIR");
    let out = hirc()
        .arg(format!("{root}/designs/transpose.hir"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("module hir_transpose"));

    let out = hirc()
        .arg(format!("{root}/designs/mac.hir"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The deliberate Figure 1a error file must FAIL verification with the
    // paper's diagnostic.
    let out = hirc()
        .arg(format!("{root}/designs/err_add.hir"))
        .arg("--verify-only")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("mismatched delay (0 vs 1) in address 0"),
        "{err}"
    );
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let out = hirc().arg("--help").output().unwrap();
    assert!(out.status.success(), "--help must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: hirc"), "{stdout}");
    assert!(stdout.contains("--stats"), "{stdout}");
    assert!(out.stderr.is_empty(), "usage must go to stdout");

    let out = hirc().arg("-h").output().unwrap();
    assert!(out.status.success(), "-h must exit 0");
}

#[test]
fn stats_flag_reports_counters_from_all_stages() {
    let dir = std::env::temp_dir().join("hirc_test_stats");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg("--stats")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    for scope in ["parse", "verify", "passes", "codegen", "sim"] {
        assert!(err.contains(scope), "missing scope '{scope}' in:\n{err}");
    }
    assert!(err.contains("cycles"), "{err}");
    assert!(err.contains("values_analyzed"), "{err}");
}

#[test]
fn print_ir_after_all_dumps_round_trip() {
    let dir = std::env::temp_dir().join("hirc_test_dumps");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg("--print-ir-after-all")
        .arg("--emit=ir")
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    // One banner per pass in the standard pipeline.
    assert_eq!(err.matches("// ----- IR dump after ").count(), 8, "{err}");
    // Stripping banner lines leaves a sequence of parseable modules.
    for chunk in err.split("// ----- IR dump after ").skip(1) {
        let body: String = chunk
            .lines()
            .skip(1) // the rest of the banner line
            .map(|l| format!("{l}\n"))
            .collect();
        // Each dump runs until the next banner, which split removed.
        ir::parse_module(&body).unwrap_or_else(|e| panic!("dump not parseable: {e}\n{body}"));
    }
}

#[test]
fn profile_emits_valid_chrome_trace_with_one_span_per_pass() {
    let dir = std::env::temp_dir().join("hirc_test_profile");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let profile = dir.join("trace.json");
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg(format!("--profile={}", profile.display()))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&profile).unwrap();
    let doc = obs::json::parse(&text).expect("profile must be valid JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    let pass_spans: Vec<_> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("name")
                    .and_then(|n| n.as_str())
                    .is_some_and(|n| n.starts_with("pass "))
        })
        .collect();
    assert_eq!(pass_spans.len(), 8, "one span per executed pipeline pass");
    // All pass spans live on the same (opt) track, and stage tracks exist.
    let tids: std::collections::BTreeSet<String> = pass_spans
        .iter()
        .map(|e| format!("{:?}", e.get("tid").unwrap()))
        .collect();
    assert_eq!(tids.len(), 1, "pass spans share the opt track");
    let track_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .filter_map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
        })
        .collect();
    for stage in ["parse", "verify", "opt", "codegen", "sim"] {
        assert!(
            track_names.contains(&stage),
            "missing track '{stage}': {track_names:?}"
        );
    }
}

#[test]
fn checked_in_example_mlir_files_compile() {
    let root = env!("CARGO_MANIFEST_DIR");
    for name in ["transpose", "mac", "stencil", "multi_kernel"] {
        let out = hirc()
            .arg(format!("{root}/examples/{name}.mlir"))
            .arg("--opt")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "examples/{name}.mlir: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn compile_is_byte_identical_across_runs() {
    // The multi-kernel example has four functions; two identical compiles
    // must produce byte-identical output on both streams.
    let root = env!("CARGO_MANIFEST_DIR");
    let input = format!("{root}/examples/multi_kernel.mlir");
    let run = || {
        let out = hirc()
            .arg(&input)
            .arg("--opt")
            .arg("--verify-each")
            .arg("--emit=ir")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, out.stderr)
    };
    assert_eq!(run(), run(), "two identical runs diverged");

    // The pass pipeline is serial; --threads is no longer a flag.
    let out = hirc().arg(&input).arg("--threads=2").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn exit_codes_distinguish_usage_diagnostics_and_internal_errors() {
    let dir = std::env::temp_dir().join("hirc_test_exit_codes");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();

    // 2: bad flag.
    let out = hirc().arg("--definitely-not-a-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown flag is a usage error");

    // 2: unknown pass name.
    let out = hirc()
        .arg(&input)
        .arg("--pipeline=no-such-pass")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown pass is a usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown pass 'no-such-pass'"), "{err}");
    assert!(err.contains("known passes"), "{err}");

    // 1: input diagnostics (schedule error).
    let bad = dir.join("bad.mlir");
    std::fs::write(
        &bad,
        ir::print_module(&kernels::errors::figure1_array_add(false)),
    )
    .unwrap();
    let out = hirc().arg(&bad).arg("--verify-only").output().unwrap();
    assert_eq!(out.status.code(), Some(1), "diagnostics exit with 1");

    // 3: internal error (deliberately panicking pass).
    let out = hirc()
        .arg(&input)
        .arg("--pipeline=test-panic")
        .arg("--emit=ir")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "a pass panic is an internal error"
    );

    // 0: clean compile.
    let out = hirc().arg(&input).arg("--verify-only").output().unwrap();
    assert_eq!(out.status.code(), Some(0));

    // The exit-code contract is documented in --help.
    let out = hirc().arg("--help").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exit codes"), "{stdout}");
}

#[test]
fn panicking_pass_writes_reproducer_that_retriggers_the_crash() {
    let dir = std::env::temp_dir().join("hirc_test_reproducer");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();
    let repro = dir.join("repro.mlir");
    let _ = std::fs::remove_file(&repro);

    let out = hirc()
        .arg(&input)
        .arg("--pipeline=hir-cse,test-panic,hir-canonicalize")
        .arg(format!("--crash-reproducer={}", repro.display()))
        .arg("--emit=ir")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8_lossy(&out.stderr);
    // The diagnostic names the crashing pass...
    assert!(err.contains("pass 'test-panic' panicked"), "{err}");
    assert!(err.contains("crash reproducer written"), "{err}");

    // ...and the reproducer file records the IR the panicking pass saw
    // plus the rest of the pipeline from that pass on.
    let text = std::fs::read_to_string(&repro).unwrap();
    let parsed = ir::parse_reproducer(&text).expect("reproducer header");
    assert_eq!(parsed.pipeline, vec!["test-panic", "hir-canonicalize"]);
    assert!(
        parsed.error.contains("test-panic"),
        "reproducer must name the panicking pass: {}",
        parsed.error
    );
    assert!(
        parsed.ir.contains(r#"sym_name = "transpose""#),
        "{}",
        parsed.ir
    );

    // Feeding the reproducer back re-triggers the recorded crash (exit 3).
    let out = hirc().arg(&repro).arg("--emit=ir").output().unwrap();
    assert_eq!(out.status.code(), Some(3), "reproducer must re-trigger");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("input is a crash reproducer"), "{err}");
    assert!(err.contains("pass 'test-panic' panicked"), "{err}");
}

#[test]
fn recovering_parser_reports_every_error_through_the_cli() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = hirc()
        .arg(format!("{root}/tests/corpus/malformed/multi_errors.mlir"))
        .arg("--verify-only")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    let n = err.matches(": error: ").count();
    assert!(
        n >= 3,
        "expected >= 3 positioned diagnostics, got {n}:\n{err}"
    );
    // file:line:col prefixes make the errors clickable.
    assert!(err.contains("multi_errors.mlir:"), "{err}");
}

#[test]
fn error_limit_flag_caps_cli_diagnostics() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = hirc()
        .arg(format!("{root}/tests/corpus/malformed/multi_errors.mlir"))
        .arg("--error-limit=1")
        .arg("--verify-only")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.matches(": error: ").count(), 1, "{err}");
    assert!(err.contains("--error-limit"), "{err}");
}

#[test]
fn verify_each_localizes_and_sim_budget_flag_is_accepted() {
    let dir = std::env::temp_dir().join("hirc_test_veach");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();

    // --verify-each on a healthy pipeline is a no-op.
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg("--verify-each")
        .arg("--emit=ir")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // --sim-max-cycles bounds the smoke simulation under --stats.
    let out = hirc()
        .arg(&input)
        .arg("--stats")
        .arg("--sim-max-cycles=16")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sim"), "{err}");
}

#[test]
fn stencil_and_unrolled_designs_compile_and_run() {
    use hir_suite::hir::interp::{ArgValue, Interpreter};
    let root = env!("CARGO_MANIFEST_DIR");

    // The stencil design file: parse, verify, simulate against the kernels
    // crate's reference.
    let src = std::fs::read_to_string(format!("{root}/designs/stencil.hir")).unwrap();
    let m = hir_suite::hir::parse_pretty(&src).expect("parse stencil.hir");
    let mut diags = ir::DiagnosticEngine::new();
    hir_suite::hir_verify::verify_schedule(&m, &mut diags)
        .unwrap_or_else(|_| panic!("{}", diags.render()));
    let input: Vec<i128> = (0..64).map(|x| x * 5 % 37).collect();
    let r = Interpreter::new(&m)
        .run(
            "stencil_1d",
            &[ArgValue::tensor_from(&input), ArgValue::uninit_tensor(64)],
        )
        .expect("simulate");
    let expect = kernels::stencil::reference(64, &input);
    for (i, &e) in expect.iter().enumerate().take(64) {
        assert_eq!(r.tensors[&1][i], Some(e), "B[{i}]");
    }

    // Listing 4: all four lanes write in the same cycle.
    let src = std::fs::read_to_string(format!("{root}/designs/unrolled.hir")).unwrap();
    let m = hir_suite::hir::parse_pretty(&src).expect("parse unrolled.hir");
    let r = Interpreter::new(&m)
        .run("lanes", &[ArgValue::uninit_tensor(4)])
        .expect("simulate");
    assert_eq!(r.tensors[&0], vec![Some(0), Some(7), Some(14), Some(21)]);
    assert!(
        r.cycles <= 1,
        "lanes must run in parallel, took {}",
        r.cycles
    );
}

// ------------------------------------------------- translation validation

fn example(name: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join(name)
}

#[test]
fn verify_equiv_flag_validation() {
    let dir = std::env::temp_dir().join("hirc_test_equiv_flags");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("t.mlir");
    std::fs::write(&input, transpose_source()).unwrap();

    // --verify-equiv compares against the *optimized* module, so it needs
    // --opt or --pipeline.
    let out = hirc().arg(&input).arg("--verify-equiv").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "verify-equiv without passes");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--verify-equiv"), "{err}");

    // K = 0 proves nothing.
    let out = hirc()
        .arg(&input)
        .arg("--opt")
        .arg("--verify-equiv=0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "K=0 is a usage error");

    // Report and corpus flags are meaningless without the check itself.
    for flag in ["--verify-equiv-report=r.json", "--equiv-corpus-dir=corpus"] {
        let out = hirc().arg(&input).arg("--opt").arg(flag).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} without --verify-equiv");
    }
}

#[test]
fn verify_equiv_proves_optimized_example_and_writes_report() {
    let dir = std::env::temp_dir().join("hirc_test_equiv_prove");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("equiv.json");
    let out = hirc()
        .arg(example("transpose.mlir"))
        .arg("--opt")
        .arg("--verify-equiv=8")
        .arg(format!("--verify-equiv-report={}", report.display()))
        .arg("-o")
        .arg(dir.join("t.v"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("proved equivalent for K=8 cycles"),
        "proof must be reported: {err}"
    );
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"k\":8"), "{json}");
    assert!(json.contains("\"proved\":1"), "{json}");
    assert!(json.contains("\"counterexamples\":0"), "{json}");
    assert!(json.contains("\"status\":\"proved\""), "{json}");
}

#[test]
fn verify_equiv_refutes_miscompile_and_harvests_regression() {
    let dir = std::env::temp_dir().join("hirc_test_equiv_cex");
    let corpus = dir.join("harvest");
    let _ = std::fs::remove_dir_all(&corpus);
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("equiv.json");
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--pipeline=test-miscompile")
        .arg("--verify-equiv")
        .arg(format!("--verify-equiv-report={}", report.display()))
        .arg(format!("--equiv-corpus-dir={}", corpus.display()))
        .arg("-o")
        .arg(dir.join("t.v"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "a confirmed miscompile is a diagnostic, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("replay-confirmed"), "{err}");
    assert!(err.contains("counterexample stimulus for @mac"), "{err}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"counterexamples\":1"), "{json}");
    assert!(json.contains("\"status\":\"counterexample\""), "{json}");

    // The counterexample was ddmin-reduced into a fuzz regression, and the
    // reduced input still parses.
    let files: Vec<_> = std::fs::read_dir(&corpus)
        .expect("harvest dir created")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(
        files.len(),
        1,
        "exactly one harvested regression: {files:?}"
    );
    let name = files[0].file_name().unwrap().to_string_lossy().to_string();
    assert!(name.starts_with("equiv_miscompile_"), "{name}");
    let reduced = std::fs::read_to_string(&files[0]).unwrap();
    assert!(
        ir::parse_module(&reduced).is_ok(),
        "reduced case must parse"
    );
}

/// Zero the wall-clock fields of an equivalence report (`time_ms` and the
/// `phase_ms` entries); every other field is deterministic.
fn mask_equiv_times(json: &str) -> String {
    let mut out = json.to_string();
    for key in [
        "\"time_ms\":",
        "\"lower\":",
        "\"blast\":",
        "\"solve\":",
        "\"replay\":",
    ] {
        let mut masked = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(at) = rest.find(key) {
            let value = &rest[at + key.len()..];
            let digits = value.len() - value.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            masked.push_str(&rest[..at + key.len()]);
            masked.push('0');
            rest = &value[digits..];
        }
        masked.push_str(rest);
        out = masked;
    }
    out
}

#[test]
fn verify_equiv_miscompile_report_matches_golden_search_path() {
    // The golden pins the solver's whole search on the negative control:
    // decisions, conflicts, propagations, the decision-depth and
    // learnt-length histograms, and the replayed divergence. Any change to
    // branching order or clause layout shows up here.
    let golden = include_str!("golden/mac-miscompile.equiv.json");
    let dir = std::env::temp_dir().join("hirc_test_equiv_golden");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("miscompile-equiv.json");
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--pipeline=test-miscompile")
        .arg("--verify-equiv")
        .arg(format!("--verify-equiv-report={}", report.display()))
        .arg("-o")
        .arg(dir.join("t.v"))
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(
        err.contains("counterexample stimulus for @mac: 0, 0, -1073741824"),
        "{err}"
    );
    let json = std::fs::read_to_string(&report).unwrap();
    assert_eq!(
        mask_equiv_times(&json),
        golden,
        "search path drifted from tests/golden/mac-miscompile.equiv.json"
    );
}

#[test]
fn verify_equiv_budget_exhaustion_degrades_loudly() {
    let dir = std::env::temp_dir().join("hirc_test_equiv_budget");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("equiv.json");
    // A 1 ms wall-clock budget cannot complete a K=16 proof of the
    // transpose design; the driver must say so out loud, fall back to the
    // sampled differential, and still exit 0 (no divergence observed).
    let out = hirc()
        .arg(example("transpose.mlir"))
        .arg("--opt")
        .arg("--verify-equiv")
        .arg("--equiv-time-ms=1")
        .arg(format!("--verify-equiv-report={}", report.display()))
        .arg("-o")
        .arg(dir.join("t.v"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("hirc: remark:"), "degradation is loud: {err}");
    assert!(err.contains("NOT proved"), "{err}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"sampled\":1"), "{json}");
}

#[test]
fn verify_equiv_sim_budget_exhaustion_is_a_diagnostic_not_a_pass() {
    // The bugfix satellite: when --sim-max-cycles starves the replay of a
    // counterexample, the driver must exit 1 with a structured diagnostic —
    // never panic, and never silently report success.
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--pipeline=test-miscompile")
        .arg("--verify-equiv")
        .arg("--sim-max-cycles=2")
        .arg("-o")
        .arg(std::env::temp_dir().join("hirc_test_equiv_simbudget.v"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("simulation budget exhausted"), "{err}");
}

#[test]
fn emit_btor2_matches_golden_across_runs() {
    // mac has no step-tape `if` region; transpose and stencil have many.
    for (name, golden) in [
        ("mac", include_str!("golden/mac.btor2")),
        ("transpose", include_str!("golden/transpose.btor2")),
        ("stencil", include_str!("golden/stencil.btor2")),
    ] {
        let run = || {
            let out = hirc()
                .arg(example(&format!("{name}.mlir")))
                .arg("--emit=btor2")
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{name} stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8_lossy(&out.stdout).to_string()
        };
        let t1 = run();
        assert_eq!(t1, golden, "BTOR2 drifted from tests/golden/{name}.btor2");
        assert_eq!(
            t1,
            run(),
            "{name}: BTOR2 must be byte-identical across runs"
        );
    }
}

#[test]
fn sim_engine_flag_accepts_all_engines_and_rejects_unknown_names() {
    // Every engine produces the same run summary on the same input.
    let run = |engine: &str| {
        let out = hirc()
            .arg(example("mac.mlir"))
            .arg("--emit=sim")
            .arg(format!("--sim-engine={engine}"))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--sim-engine={engine} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let base = run("bytecode");
    assert!(base.contains("result0 ="), "{base}");
    for engine in ["treewalk", "event"] {
        assert_eq!(run(engine), base, "--sim-engine={engine} diverged");
    }
    // The batched engine's lane 0 reproduces the scalar run; later lanes
    // append their own summaries.
    let batched = run("batched");
    assert!(batched.starts_with(&base), "{batched}");
    assert!(batched.contains("lane 1:"), "{batched}");

    // Unknown engine names are usage errors listing the accepted values.
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--emit=sim")
        .arg("--sim-engine=verilator")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown engine is a usage error"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    for accepted in ["bytecode", "treewalk", "event", "batched"] {
        assert!(err.contains(accepted), "{err}");
    }
}

#[test]
fn sim_batch_flag_validation() {
    // --sim-batch without --emit=sim is a usage error.
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--sim-batch=4")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--sim-batch requires --emit=sim"), "{err}");

    // --sim-batch with a non-batched engine is a usage error.
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--emit=sim")
        .arg("--sim-batch=4")
        .arg("--sim-engine=event")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--sim-engine=batched"), "{err}");

    // Lane counts outside 1..=64 are usage errors.
    for bad in ["0", "65", "lots"] {
        let out = hirc()
            .arg(example("mac.mlir"))
            .arg("--emit=sim")
            .arg(format!("--sim-batch={bad}"))
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "--sim-batch={bad} must be rejected"
        );
    }

    // A valid lane count prints one summary block per lane.
    let out = hirc()
        .arg(example("mac.mlir"))
        .arg("--emit=sim")
        .arg("--sim-batch=3")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("lane 1:") && text.contains("lane 2:"),
        "{text}"
    );
    assert!(!text.contains("lane 3:"), "{text}");
}

#[test]
fn sim_engines_agree_on_vcd_and_telemetry_through_the_cli() {
    let dir = std::env::temp_dir().join("hirc_test_engine_matrix");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |engine: &str| {
        let vcd = dir.join(format!("{engine}.vcd"));
        let telem = dir.join(format!("{engine}.json"));
        let out = hirc()
            .arg(example("multi_kernel.mlir"))
            .arg("--emit=sim")
            .arg(format!("--sim-engine={engine}"))
            .arg(format!("--sim-vcd={}", vcd.display()))
            .arg(format!("--sim-telemetry={}", telem.display()))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--sim-engine={engine} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            std::fs::read(&vcd).expect("vcd written"),
            std::fs::read_to_string(&telem).expect("telemetry written"),
        )
    };
    let (base_out, base_vcd, base_telem) = run("bytecode");
    for engine in ["event", "batched"] {
        let (o, v, t) = run(engine);
        // Batched appends per-lane blocks after the (identical) lane-0 lines.
        assert!(
            o.starts_with(&base_out),
            "--sim-engine={engine}: summary diverged"
        );
        assert_eq!(v, base_vcd, "--sim-engine={engine}: VCD bytes diverged");
        assert_eq!(t, base_telem, "--sim-engine={engine}: telemetry diverged");
    }
}
