//! Telemetry CLI: stall-attribution tables, Chrome traces, and the metric
//! schema gate.
//!
//! ```text
//! profile                          # stall-attribution table (Fig. 13 analogue)
//! profile --jobs 4                 # same table, 4 worker threads (byte-identical)
//! profile --sim-threads 4          # shard each GPU's cores over 4 workers
//!                                  # inside the engine (also byte-identical)
//! profile --trace vectoradd --out trace.json   # Chrome trace for one workload
//! profile --schema                 # print the instrumented-run metric key set
//! profile --check-schema FIXTURE   # CI gate: key set must match the fixture
//! profile --openmetrics            # OpenMetrics text exposition of the
//!                                  # deterministic reference run
//! ```
//!
//! The schema is the *key set* of the telemetry registry after one
//! instrumented reference run (simulator + memory + driver metrics) plus a
//! verifier sweep (compiler pass metrics). Values are free to drift —
//! wall times and cycle counts change with the code — but a key
//! appearing or vanishing is a schema change consumers must see, so CI
//! pins the set against `tests/golden/telemetry_schema.json`.

use gpushield_bench::experiments::by_id;
use gpushield_bench::schema::{
    openmetrics_registry, reference_registry, schema_json, workload_timeline,
};
use gpushield_runtime::report::Json;
use std::process::ExitCode;

fn check_schema(fixture_path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(fixture_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {fixture_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot parse {fixture_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected: Vec<String> = doc
        .get("keys")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|k| k.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let reg = reference_registry();
    let actual: Vec<String> = reg.names().into_iter().map(str::to_string).collect();
    let missing: Vec<&String> = expected.iter().filter(|k| !actual.contains(k)).collect();
    let added: Vec<&String> = actual.iter().filter(|k| !expected.contains(k)).collect();
    if missing.is_empty() && added.is_empty() {
        eprintln!(
            "telemetry schema OK: {} keys match {fixture_path}",
            actual.len()
        );
        return ExitCode::SUCCESS;
    }
    eprintln!("TELEMETRY SCHEMA MISMATCH vs {fixture_path}:");
    for k in &missing {
        eprintln!("  - {k} (in fixture, not produced)");
    }
    for k in &added {
        eprintln!("  + {k} (produced, not in fixture)");
    }
    eprintln!("regenerate with: profile --schema > {fixture_path}");
    ExitCode::FAILURE
}

/// Runs `name` instrumented into a timeline ring and writes its Chrome
/// Trace Event Format JSON with one launch span per kernel launch.
fn trace_workload(name: &str, out: Option<&str>) -> ExitCode {
    let Some((chrome, host)) = workload_timeline(name) else {
        eprintln!("unknown workload {name}");
        return ExitCode::FAILURE;
    };
    let rendered = chrome.render();
    let ring = host.system().flight();
    eprintln!(
        "{name}: {} events ({} ring events, {} dropped), {} launches",
        chrome.len(),
        ring.map_or(0, |f| f.len()),
        ring.map_or(0, |f| f.events_dropped()),
        host.reports.len()
    );
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        None => println!("{rendered}"),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut jobs = gpushield_runtime::pool::available_parallelism();
    let mut trace: Option<String> = None;
    let mut out: Option<String> = None;
    let mut schema = false;
    let mut openmetrics = false;
    let mut check: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--sim-threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => gpushield_bench::runner::set_sim_threads(n),
                _ => {
                    eprintln!("--sim-threads needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => trace = args.next(),
            "--out" => out = args.next(),
            "--schema" => schema = true,
            "--openmetrics" => openmetrics = true,
            "--check-schema" => check = args.next(),
            other => {
                eprintln!("unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if schema {
        println!("{}", schema_json(&reference_registry()));
        return ExitCode::SUCCESS;
    }
    if openmetrics {
        print!("{}", openmetrics_registry().render_openmetrics());
        return ExitCode::SUCCESS;
    }
    if let Some(fixture) = check {
        return check_schema(&fixture);
    }
    if let Some(name) = trace {
        return trace_workload(&name, out.as_deref());
    }
    let e = by_id("profile").expect("profile exhibit registered");
    print!("{}", (e.run)(jobs));
    ExitCode::SUCCESS
}
