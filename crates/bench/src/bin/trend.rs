//! Trend gate over the committed bench baselines.
//!
//! ```text
//! trend --check              # CI gate: fresh fuzz sweep vs BENCH_detection.json
//! trend --check --jobs 8     # same, fanning the sweep over 8 workers
//! trend --write              # regenerate BENCH_detection.json from a fresh sweep
//! ```
//!
//! `--check` reruns the default fuzz corpus plus the static-precision
//! classification, renders a one-table trend report against the
//! committed baselines (`BENCH_detection.json`,
//! `BENCH_static_precision.json`), and exits non-zero when either
//! regresses:
//!
//! * any class's `detected` or `conforming` count drops,
//! * any class hangs,
//! * the class set or the per-class JSON key set drifts (schema drift —
//!   downstream consumers key on these),
//! * a benign control faults,
//! * the certificate prover's Type 1 count drops — overall, per workload,
//!   or in how many workloads improve over the seed analysis,
//! * the runtime auditor catches any certificate window lying.
//!
//! Simulator throughput is gated separately, by `throughput --smoke
//! --check BENCH_simcore.json`.

use gpushield_bench::experiments::precision::precision_summary;
use gpushield_bench::fuzzsweep::{run_sweep, Scoreboard};
use gpushield_bench::runner;
use gpushield_fuzzgen::{CORPUS_SEED, PER_CLASS};
use gpushield_runtime::report::Json;
use std::process::ExitCode;

const DETECTION_PATH: &str = "BENCH_detection.json";
const PRECISION_PATH: &str = "BENCH_static_precision.json";

fn usage() -> ExitCode {
    eprintln!("usage: trend [--check|--write] [--jobs N] [--sim-threads N]");
    ExitCode::from(2)
}

fn uint(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_f64).map(|v| v as u64)
}

/// Renders one trend row: name, baseline value, current value, delta.
fn row(out: &mut String, name: &str, baseline: String, current: String, note: &str) {
    out.push_str(&format!(
        "{name:<34} {baseline:>16} {current:>16}   {note}\n"
    ));
}

/// Compares the fresh scoreboard against the committed baseline; returns
/// the failure messages (empty = gate passes) and appends per-class rows
/// to the report.
fn check_detection(sb: &Scoreboard, baseline: &Json, report: &mut String) -> Vec<String> {
    let mut failures = Vec::new();
    let fresh = sb.to_json();
    if baseline.get("schema").and_then(Json::as_str) != fresh.get("schema").and_then(Json::as_str) {
        failures.push(format!(
            "schema drift: baseline {:?} vs current {:?}",
            baseline.get("schema").and_then(Json::as_str),
            fresh.get("schema").and_then(Json::as_str)
        ));
        return failures;
    }
    let empty: Vec<Json> = Vec::new();
    let base_classes = baseline
        .get("classes")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let cur_classes = fresh
        .get("classes")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);

    let names = |cs: &[Json]| -> Vec<String> {
        cs.iter()
            .filter_map(|c| c.get("class").and_then(Json::as_str).map(str::to_string))
            .collect()
    };
    let base_names = names(base_classes);
    let cur_names = names(cur_classes);
    if base_names != cur_names {
        failures.push(format!(
            "class-set drift: baseline {base_names:?} vs current {cur_names:?}"
        ));
        return failures;
    }

    for (b, c) in base_classes.iter().zip(cur_classes) {
        let class = b.get("class").and_then(Json::as_str).unwrap_or("?");
        // Key-set drift inside a class row is schema drift too.
        let keys = |j: &Json| -> Vec<String> {
            match j {
                Json::Obj(kvs) => kvs.iter().map(|(k, _)| k.clone()).collect(),
                _ => Vec::new(),
            }
        };
        if keys(b) != keys(c) {
            failures.push(format!(
                "{class}: scoreboard key drift: baseline {:?} vs current {:?}",
                keys(b),
                keys(c)
            ));
            continue;
        }
        let (bd, cd) = (uint(b, "detected"), uint(c, "detected"));
        let (bc, cc) = (uint(b, "conforming"), uint(c, "conforming"));
        let hang = uint(c, "hang").unwrap_or(0);
        let false_faults = uint(c, "false_fault").unwrap_or(0);
        let expected = b.get("expected").and_then(Json::as_str).unwrap_or("?");
        let mut note = "ok";
        if cd < bd {
            failures.push(format!(
                "{class}: detected dropped {} -> {}",
                bd.unwrap_or(0),
                cd.unwrap_or(0)
            ));
            note = "REGRESSED";
        }
        if cc < bc {
            failures.push(format!(
                "{class}: conforming dropped {} -> {}",
                bc.unwrap_or(0),
                cc.unwrap_or(0)
            ));
            note = "REGRESSED";
        }
        if hang > 0 {
            failures.push(format!("{class}: {hang} hang(s)"));
            note = "HUNG";
        }
        if class == "benign-control" && false_faults > 0 {
            failures.push(format!("{class}: {false_faults} false fault(s)"));
            note = "FALSE-FAULT";
        }
        row(
            report,
            &format!("detection/{class}"),
            format!(
                "{}/{} {}",
                bd.unwrap_or(0),
                uint(b, "specimens").unwrap_or(0),
                expected
            ),
            format!(
                "{}/{} conform {}",
                cd.unwrap_or(0),
                uint(c, "specimens").unwrap_or(0),
                cc.unwrap_or(0)
            ),
            note,
        );
    }
    failures
}

/// Compares the fresh static-precision summary against the committed
/// baseline. The gate fails on a Type-1-share regression — overall, per
/// workload, or in the improved-workload count — and on any certificate
/// the runtime auditor caught lying.
fn check_precision(fresh: &Json, baseline: &Json, report: &mut String) -> Vec<String> {
    let mut failures = Vec::new();
    if baseline.get("schema").and_then(Json::as_str) != fresh.get("schema").and_then(Json::as_str) {
        failures.push(format!(
            "precision schema drift: baseline {:?} vs current {:?}",
            baseline.get("schema").and_then(Json::as_str),
            fresh.get("schema").and_then(Json::as_str)
        ));
        return failures;
    }
    let (b_cert, c_cert) = (uint(baseline, "cert_t1"), uint(fresh, "cert_t1"));
    let (b_imp, c_imp) = (uint(baseline, "improved"), uint(fresh, "improved"));
    let violations = uint(fresh, "audit_violations").unwrap_or(0);
    let mut note = "ok";
    if c_cert < b_cert {
        failures.push(format!(
            "certified Type 1 sites dropped {} -> {}",
            b_cert.unwrap_or(0),
            c_cert.unwrap_or(0)
        ));
        note = "REGRESSED";
    }
    if c_imp < b_imp {
        failures.push(format!(
            "improved-workload count dropped {} -> {}",
            b_imp.unwrap_or(0),
            c_imp.unwrap_or(0)
        ));
        note = "REGRESSED";
    }
    if violations > 0 {
        failures.push(format!("{violations} certificate audit violation(s)"));
        note = "UNSOUND";
    }
    let empty: Vec<Json> = Vec::new();
    let b_rows = baseline
        .get("rows")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let c_rows = fresh.get("rows").and_then(Json::as_arr).unwrap_or(&empty);
    let name = |j: &Json| {
        j.get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    if b_rows.iter().map(name).collect::<Vec<_>>() != c_rows.iter().map(name).collect::<Vec<_>>() {
        failures.push("precision workload-set drift".to_string());
    } else {
        for (b, c) in b_rows.iter().zip(c_rows) {
            if uint(c, "cert_t1") < uint(b, "cert_t1") {
                failures.push(format!(
                    "{}: certified Type 1 sites dropped {} -> {}",
                    name(b),
                    uint(b, "cert_t1").unwrap_or(0),
                    uint(c, "cert_t1").unwrap_or(0)
                ));
                note = "REGRESSED";
            }
        }
    }
    row(
        report,
        "precision/cert-type1",
        format!(
            "{}/{} sites",
            b_cert.unwrap_or(0),
            uint(baseline, "sites").unwrap_or(0)
        ),
        format!(
            "{}/{} improved {}",
            c_cert.unwrap_or(0),
            uint(fresh, "sites").unwrap_or(0),
            c_imp.unwrap_or(0)
        ),
        note,
    );
    failures
}

fn main() -> ExitCode {
    let mut write = false;
    let mut jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => write = false,
            "--write" => write = true,
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => return usage(),
            },
            "--sim-threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => runner::set_sim_threads(n),
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    let sb = run_sweep(CORPUS_SEED, PER_CLASS, jobs);
    let precision = precision_summary(jobs);
    if write {
        for (path, doc) in [
            (DETECTION_PATH, sb.to_json().render()),
            (PRECISION_PATH, precision.render()),
        ] {
            if let Err(e) = std::fs::write(path, doc + "\n") {
                eprintln!("trend: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("wrote {path}");
        }
        return ExitCode::SUCCESS;
    }

    let read_baseline = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(doc) => Ok(doc),
            Err(e) => {
                eprintln!("trend: {path} is not valid JSON: {e}");
                Err(ExitCode::from(2))
            }
        },
        Err(e) => {
            eprintln!("trend: cannot read {path}: {e} (run `trend --write`)");
            Err(ExitCode::from(2))
        }
    };
    let baseline = match read_baseline(DETECTION_PATH) {
        Ok(doc) => doc,
        Err(code) => return code,
    };
    let precision_baseline = match read_baseline(PRECISION_PATH) {
        Ok(doc) => doc,
        Err(code) => return code,
    };

    let mut report = String::new();
    report.push_str(&format!(
        "{:<34} {:>16} {:>16}   {}\n",
        "trend", "baseline", "current", "status"
    ));
    let mut failures = check_detection(&sb, &baseline, &mut report);
    failures.extend(check_precision(
        &precision,
        &precision_baseline,
        &mut report,
    ));
    print!("{report}");

    if failures.is_empty() {
        println!("\ntrend: detection scoreboard matches or improves on the baseline");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("trend: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
