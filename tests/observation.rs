//! The flight recorder observes without perturbing: every observe mode
//! simulates the same instructions and cycles, and a timeline ring is a
//! superset of the full ring, so forensics reads the same story from
//! either.

use gpushield::{Arg, BufferHandle, ObserveMode, PostMortem, System, SystemConfig};
use gpushield_bench::adapter::SystemHost;
use gpushield_bench::runner::{config, Protection, Target};
use gpushield_fuzzgen::{corpus, Expected, Specimen, CORPUS_SEED};
use gpushield_telemetry::flight::DEFAULT_FLIGHT_CAPACITY;
use gpushield_workloads::by_name;

/// What one observe mode produced over the smoke set.
#[derive(Debug, PartialEq)]
struct Smoke {
    instructions: u64,
    cycles: u64,
    recorded: u64,
    dropped: u64,
    /// Every run report, for exact comparison between modes.
    reports: String,
}

/// `vectoradd` under {baseline, shield(1,3), shield(2,5)}, once each,
/// with `mode` applied (`None`: `enable_observation` never called).
fn smoke(mode: Option<ObserveMode>) -> Smoke {
    let w = by_name("vectoradd").expect("vectoradd registered");
    let mut s = Smoke {
        instructions: 0,
        cycles: 0,
        recorded: 0,
        dropped: 0,
        reports: String::new(),
    };
    for prot in [
        Protection::baseline(),
        Protection::shield_lat(1, 3),
        Protection::shield_lat(2, 5),
    ] {
        let mut host = SystemHost::new(config(Target::Nvidia, prot));
        if let Some(m) = mode {
            host.system_mut().enable_observation(m);
        }
        w.run(&mut host);
        assert!(!host.any_abort(), "false positive under {mode:?}");
        s.instructions += host.reports.iter().map(|r| r.instructions()).sum::<u64>();
        s.cycles += host.total_cycles();
        if let Some(f) = host.system().flight() {
            s.recorded += f.events_recorded();
            s.dropped += f.events_dropped();
        }
        s.reports.push_str(&format!("{:?}\n", host.reports));
    }
    s
}

#[test]
fn observe_modes_never_perturb_the_smoke_set() {
    // Exact totals of the smoke set: one repetition of the former
    // recorder-overhead sweep (its committed 20-rep totals / 20).
    const INSTRUCTIONS: u64 = 52_224;
    const CYCLES: u64 = 20_670;
    const FULL_EVENTS: u64 = 6_167;

    let none = smoke(None);
    let disabled = smoke(Some(ObserveMode::Disabled));
    assert_eq!(disabled, none, "Disabled must equal a run with no recorder");
    assert_eq!(
        (disabled.instructions, disabled.cycles),
        (INSTRUCTIONS, CYCLES)
    );
    assert_eq!((disabled.recorded, disabled.dropped), (0, 0));

    let counters = smoke(Some(ObserveMode::Counters));
    let full = smoke(Some(ObserveMode::Full));
    for (what, m) in [("counters", &counters), ("full", &full)] {
        assert_eq!(
            (m.instructions, m.cycles),
            (INSTRUCTIONS, CYCLES),
            "{what} perturbed the simulation"
        );
        assert_eq!(m.reports, none.reports, "{what} changed a run report");
    }
    assert_eq!(full.recorded, FULL_EVENTS, "full-mode event coverage");
    assert_eq!(full.dropped, 0, "the smoke set fits the full ring");
    assert_eq!(counters.recorded, FULL_EVENTS, "counters count every event");
    assert_eq!(counters.dropped, counters.recorded, "and store none");
}

/// Replays `s` with `mode` and returns its post-mortem, plus whether the
/// ring dropped anything.
fn replay(s: &Specimen, mode: ObserveMode) -> (Option<PostMortem>, bool) {
    let mut cfg = SystemConfig::nvidia_protected();
    cfg.driver.enable_type3 = true;
    let mut sys = System::new(cfg);
    sys.enable_observation(mode);
    let bufs: Vec<BufferHandle> = s
        .buffers
        .iter()
        .map(|&b| sys.alloc(b).expect("specimen buffer"))
        .collect();
    if s.heap_limit > 0 {
        sys.set_heap_limit(s.heap_limit).expect("heap limit");
    }
    let args: Vec<Arg> = bufs.iter().map(|&h| Arg::Buffer(h)).collect();
    let _ = sys.launch(s.kernel.clone(), s.grid, s.block, &args);
    let wrapped = sys.flight().is_some_and(|f| f.events_dropped() > 0);
    (sys.post_mortem(), wrapped)
}

#[test]
fn timeline_and_full_rings_render_the_same_post_mortem() {
    let timeline = ObserveMode::Timeline {
        capacity: DEFAULT_FLIGHT_CAPACITY,
    };
    let mut compared = 0;
    for s in corpus(CORPUS_SEED, 1)
        .iter()
        .filter(|s| s.bug.class.expected() == Expected::Detected)
    {
        let (full, _) = replay(s, ObserveMode::Full);
        let (tl, wrapped) = replay(s, timeline);
        if wrapped {
            // The timeline evicted older context a full ring keeps.
            continue;
        }
        let full = full.unwrap_or_else(|| panic!("{}: no post-mortem", s.name));
        let tl = tl.unwrap_or_else(|| panic!("{}: no timeline post-mortem", s.name));
        assert_eq!(tl.render_text(), full.render_text(), "{}", s.name);
        assert_eq!(tl.render_json(), full.render_json(), "{}", s.name);
        compared += 1;
    }
    assert!(compared >= 3, "only {compared} specimens fit the ring");
}
