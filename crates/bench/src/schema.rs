//! The instrumented reference run behind the telemetry schema gate and
//! the OpenMetrics exposition: one `vectoradd` pass under default
//! GPUShield with full observation, so every metric family the stack can
//! produce — `sim.*`, `sim.flight.*`, `mem.*`, `driver.*`,
//! `driver.tenant.*`, `driver.audit.*` — lands in one registry. Also the
//! Chrome timeline of one instrumented workload run (`profile --trace`).

use crate::adapter::SystemHost;
use crate::runner::{config, Protection, Target};
use crate::verifysweep::verify_workload_telemetry;
use gpushield::{chrome_timeline, ChromeTrace, ObserveMode, Registry};
use gpushield_runtime::report::Json;
use gpushield_workloads::by_name;

/// The deterministic half of the reference run: every simulated-quantity
/// metric (no verifier sweep, whose pass timings are wall-clock). This is
/// what `profile --openmetrics` renders and the golden exposition pins.
pub fn openmetrics_registry() -> Registry {
    let w = by_name("vectoradd").expect("vectoradd registered");
    let mut host = SystemHost::new(config(Target::Nvidia, Protection::shield_default()));
    host.system_mut().enable_observation(ObserveMode::Full);
    host.attach_registry(Registry::new());
    w.run(&mut host);
    let mut reg = host.take_registry().expect("registry attached");
    gpushield::TenantTable::with_slices([(1u16, 2u16, 1u64)]).publish_telemetry(&mut reg);
    reg
}

/// The full reference registry: the deterministic run plus the verifier
/// sweep's `compiler.pass.*` metrics (wall-clock values; the schema gate
/// pins keys only).
pub fn reference_registry() -> Registry {
    let w = by_name("vectoradd").expect("vectoradd registered");
    let mut reg = openmetrics_registry();
    verify_workload_telemetry(&w, &mut reg);
    reg
}

/// Timeline ring capacity for [`workload_timeline`]: large enough for
/// every small workload; a longer run keeps its newest events and the
/// export leads with the drop count.
const TIMELINE_CAPACITY: usize = 200_000;

/// Runs workload `name` instrumented under default GPUShield into a
/// timeline ring and renders its Chrome trace, with one launch span per
/// kernel launch on a dedicated host lane, each placed at its launch's
/// epoch start on the ring's timeline. Returns the trace and the host it
/// ran on (reports, recorder), or `None` for an unknown workload.
pub fn workload_timeline(name: &str) -> Option<(ChromeTrace, SystemHost)> {
    let w = by_name(name)?;
    let mut host = SystemHost::new(config(Target::Nvidia, Protection::shield_default()));
    host.attach_registry(Registry::new());
    host.system_mut().enable_observation(ObserveMode::Timeline {
        capacity: TIMELINE_CAPACITY,
    });
    w.run(&mut host);
    let mut chrome = chrome_timeline(host.system().flight()?);
    let mut start = 0;
    for (i, r) in host.reports.iter().enumerate() {
        chrome.push_span(
            &format!("launch {i}"),
            "launch",
            start,
            start + r.cycles,
            u32::MAX,
            i as u32,
        );
        chrome.arg("cycles", &r.cycles.to_string());
        chrome.arg("instructions", &r.instructions().to_string());
        start += r.cycles;
    }
    Some((chrome, host))
}

/// The schema document: the sorted metric key set as a JSON array.
pub fn schema_json(reg: &Registry) -> String {
    let mut doc = Json::obj();
    doc.set(
        "keys",
        Json::Arr(
            reg.names()
                .into_iter()
                .map(|n| Json::Str(n.to_string()))
                .collect(),
        ),
    );
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_registry_covers_every_metric_family() {
        let reg = reference_registry();
        let names = reg.names();
        for prefix in [
            "sim.",
            "sim.flight.",
            "mem.",
            "driver.",
            "driver.tenant.",
            "driver.audit.",
            "compiler.pass.",
        ] {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "no {prefix}* metric in the reference registry"
            );
        }
    }

    #[test]
    fn openmetrics_registry_is_deterministic() {
        let a = openmetrics_registry().render_openmetrics();
        let b = openmetrics_registry().render_openmetrics();
        assert_eq!(a, b, "exposition must be reproducible run-to-run");
        assert!(a.contains("# TYPE"));
    }
}
