//! The Chrome timeline export of a flight-recorder ring.
//!
//! A ring built with [`FlightRecorder::timeline`] holds the engine's
//! scheduling events (dispatch, memory instructions, barriers,
//! retirement) beside the forensics events. [`chrome_timeline`] renders
//! the scheduling kinds and aborts, in ring order, as Chrome Trace Event
//! Format: cores map to `pid` and `(wg, warp)` to `tid`, so the viewer
//! groups lanes per-SM, per-warp. Every other event kind stays out of the
//! export.

use gpushield_isa::{BlockId, MemSpace};
use gpushield_telemetry::chrome::ChromeTrace;
use gpushield_telemetry::flight::{FlightEvent, FlightRecorder, NO_SITE};

/// The flight-recorder code of a memory space.
pub fn mem_space_code(space: MemSpace) -> u8 {
    match space {
        MemSpace::Global => 0,
        MemSpace::Local => 1,
        MemSpace::Shared => 2,
        MemSpace::Const => 3,
        MemSpace::Texture => 4,
    }
}

/// Inverse of [`mem_space_code`].
pub fn mem_space_from_code(code: u8) -> Option<MemSpace> {
    Some(match code {
        0 => MemSpace::Global,
        1 => MemSpace::Local,
        2 => MemSpace::Shared,
        3 => MemSpace::Const,
        4 => MemSpace::Texture,
        _ => return None,
    })
}

/// The viewer lane of a warp: its workgroup in the high bits, its warp
/// index in the low six.
fn tid(wg: u32, warp: u16) -> u32 {
    (wg << 6) | (u32::from(warp) & 0x3f)
}

/// Renders `fr`'s scheduling events and kernel aborts as a Chrome trace.
/// Memory instructions become complete (`X`) slices lasting
/// `transactions + stall` cycles; everything else becomes an instant. An
/// abort renders on lane `(0, 0)`. When the ring has dropped events, one
/// leading `ring-wrapped` instant carries the count.
pub fn chrome_timeline(fr: &FlightRecorder) -> ChromeTrace {
    let mut chrome = ChromeTrace::new();
    if fr.events_dropped() > 0 {
        let t0 = fr.iter().next().map_or(0, |r| r.t);
        chrome.push_instant("ring-wrapped", "trace", t0, 0, 0);
        chrome.arg("dropped", &fr.events_dropped().to_string());
    }
    for rec in fr.iter() {
        let t = rec.t;
        match rec.ev {
            FlightEvent::Dispatch { core, wg } => {
                chrome.push_instant("dispatch", "sched", t, core.into(), tid(wg, 0));
                chrome.arg("wg", &wg.to_string());
            }
            FlightEvent::Mem {
                core,
                wg,
                warp,
                space,
                is_store,
                transactions,
                stall,
                block,
                idx,
            } => {
                let space =
                    mem_space_from_code(space).map_or("unknown".to_string(), |s| s.to_string());
                let name = format!("{} {space}", if is_store { "st" } else { "ld" });
                let dur = u64::from(transactions) + u64::from(stall);
                chrome.push_complete(&name, "mem", t, dur, core.into(), tid(wg, warp));
                chrome.arg("transactions", &transactions.to_string());
                chrome.arg("stall", &stall.to_string());
                if block != NO_SITE {
                    chrome.arg("site", &format!("{}:{idx}", BlockId(block)));
                }
            }
            FlightEvent::Barrier { core, wg, warp } => {
                chrome.push_instant("barrier", "sched", t, core.into(), tid(wg, warp));
            }
            FlightEvent::Retire { core, wg, warp } => {
                chrome.push_instant("retire", "sched", t, core.into(), tid(wg, warp));
            }
            FlightEvent::KernelAbort { .. } => chrome.push_instant("abort", "sched", t, 0, 0),
            _ => {}
        }
    }
    chrome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_codes_round_trip() {
        for s in [
            MemSpace::Global,
            MemSpace::Local,
            MemSpace::Shared,
            MemSpace::Const,
            MemSpace::Texture,
        ] {
            assert_eq!(mem_space_from_code(mem_space_code(s)), Some(s));
        }
        assert_eq!(mem_space_from_code(5), None);
    }

    #[test]
    fn export_renders_timeline_kinds_only() {
        let mut fr = FlightRecorder::timeline(16);
        fr.record(1, FlightEvent::Dispatch { core: 1, wg: 3 });
        fr.record(
            2,
            FlightEvent::CheckVerdict {
                kernel_id: 1,
                wg: 3,
                warp: 2,
                block: 1,
                idx: 4,
                path: 1,
                verdict: 0,
                is_store: true,
                lo: 0,
                hi: 4,
            },
        );
        fr.record(
            2,
            FlightEvent::Mem {
                core: 1,
                wg: 3,
                warp: 2,
                space: mem_space_code(MemSpace::Global),
                is_store: true,
                transactions: 2,
                stall: 1,
                block: 1,
                idx: 4,
            },
        );
        fr.record(
            3,
            FlightEvent::Mem {
                core: 1,
                wg: 3,
                warp: 2,
                space: mem_space_code(MemSpace::Shared),
                is_store: false,
                transactions: 1,
                stall: 0,
                block: NO_SITE,
                idx: 0,
            },
        );
        fr.record(
            9,
            FlightEvent::Retire {
                core: 1,
                wg: 3,
                warp: 2,
            },
        );
        fr.record(
            9,
            FlightEvent::KernelAbort {
                kernel_id: 1,
                wg: 3,
                warp: 2,
                reason: 0,
            },
        );
        let chrome = chrome_timeline(&fr);
        let names: Vec<&str> = chrome.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            ["dispatch", "st global", "ld shared", "retire", "abort"],
            "verdicts never render"
        );
        let st = &chrome.events[1];
        assert_eq!(
            (st.ts, st.dur, st.pid, st.tid),
            (2, Some(3), 1, (3 << 6) | 2)
        );
        let site = |i: usize| chrome.events[i].args.iter().any(|(k, _)| k == "site");
        assert!(site(1), "a global access names its site");
        assert!(!site(2), "a shared access has none");
        assert!(chrome.render().contains("\"site\": \"bb1:4\""));
        let abort = &chrome.events[4];
        assert_eq!((abort.pid, abort.tid), (0, 0));
    }

    #[test]
    fn a_wrapped_ring_leads_with_its_drop_count() {
        let mut fr = FlightRecorder::timeline(2);
        for i in 0..5u16 {
            fr.record(u64::from(i), FlightEvent::Dispatch { core: i, wg: 0 });
        }
        let chrome = chrome_timeline(&fr);
        assert_eq!(chrome.len(), 3);
        assert_eq!(chrome.events[0].name, "ring-wrapped");
        assert_eq!(chrome.events[0].ts, 3, "stamped at the oldest resident");
        assert!(chrome.render().contains("\"dropped\": \"3\""));
        let unwrapped = chrome_timeline(&FlightRecorder::timeline(8));
        assert!(unwrapped.is_empty());
    }
}
