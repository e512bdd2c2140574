//! Chrome Trace Event Format export of a timeline ring: the JSON the
//! `profile --trace` path writes must be valid JSON carrying the viewer's
//! required keys (`ph`, `ts`, `pid`, `tid`, `name`) on every event.

use gpushield::{
    chrome_timeline, Arg, ConcurrentKernel, LaunchSpec, ObserveMode, Registry, System, SystemConfig,
};
use gpushield_isa::{KernelBuilder, MemSpace, MemWidth, Operand};
use gpushield_runtime::report::Json;
use std::sync::Arc;

fn iota() -> Arc<gpushield_isa::Kernel> {
    let mut b = KernelBuilder::new("iota");
    let out = b.param_buffer("out", false);
    let tid = b.global_thread_id();
    let off = b.shl(tid, Operand::Imm(2));
    b.st(MemSpace::Global, MemWidth::W4, b.base_offset(out, off), tid);
    b.ret();
    Arc::new(b.finish().expect("valid kernel"))
}

#[test]
fn chrome_export_carries_required_keys_on_every_event() {
    let mut sys = System::new(SystemConfig::nvidia_protected());
    sys.enable_observation(ObserveMode::Timeline { capacity: 4096 });
    let buf = sys.alloc(256 * 4).expect("alloc");
    let mut reg = Registry::new();
    let report = sys
        .submit(LaunchSpec {
            registry: Some(&mut reg),
            ..LaunchSpec::new(&[ConcurrentKernel::new(iota(), 8, 32, &[Arg::Buffer(buf)])])
        })
        .expect("launch")
        .report;
    assert!(report.completed());
    let ring = sys.flight().expect("recorder attached");
    let mut chrome = chrome_timeline(ring);
    assert!(!chrome.is_empty(), "the run produced timeline events");

    chrome.push_span("launch 0", "launch", 0, report.cycles, u32::MAX, 0);
    let rendered = chrome.render();

    let doc = Json::parse(&rendered).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), chrome.len());
    assert!(!events.is_empty());
    for (i, e) in events.iter().enumerate() {
        for key in ["ph", "ts", "pid", "tid", "name"] {
            assert!(
                e.get(key).is_some(),
                "event {i} is missing required key {key}"
            );
        }
        let ph = e.get("ph").and_then(Json::as_str).expect("ph is a string");
        assert!(
            ["X", "B", "E", "i"].contains(&ph),
            "event {i} has unexpected phase {ph}"
        );
        if ph == "X" {
            assert!(e.get("dur").is_some(), "complete event {i} needs dur");
        }
    }
    // The launch span rendered as a begin/end pair.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"launch 0"));
    let phases: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("launch 0"))
        .filter_map(|e| e.get("ph").and_then(Json::as_str))
        .collect();
    assert_eq!(phases, ["B", "E"]);
}

#[test]
fn instrumented_launch_populates_registry_and_trace_together() {
    let mut sys = System::new(SystemConfig::nvidia_protected());
    sys.enable_observation(ObserveMode::Timeline { capacity: 64 });
    let buf = sys.alloc(256 * 4).expect("alloc");
    let mut reg = Registry::new();
    let report = sys
        .submit(LaunchSpec {
            registry: Some(&mut reg),
            ..LaunchSpec::new(&[ConcurrentKernel::new(iota(), 8, 32, &[Arg::Buffer(buf)])])
        })
        .expect("launch")
        .report;
    assert!(report.completed());
    // The ring was fed in-run on the instrumented launch, and the
    // registry carries its count.
    let ring = sys.flight().expect("recorder attached");
    for kind in ["dispatch", "retire", "kernel_complete"] {
        assert!(
            ring.iter().any(|r| r.ev.kind_name() == kind),
            "no in-run {kind} event"
        );
    }
    assert_eq!(
        reg.value("sim.flight.events_recorded"),
        Some(ring.events_recorded())
    );
    // Both feeds saw the same run.
    assert_eq!(
        reg.value("sim.launch.instructions"),
        Some(report.instructions())
    );
    assert_eq!(reg.value("sim.run.launches"), Some(1));
    // Driver metadata gauges arrived through the same entry point.
    assert_eq!(reg.value("driver.launches_prepared"), Some(1));
    assert!(reg.value("driver.rbt_allocs").unwrap_or(0) >= 1);
}
