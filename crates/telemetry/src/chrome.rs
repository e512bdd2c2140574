//! Chrome Trace Event Format writer.
//!
//! Emits the JSON object format understood by `chrome://tracing` and
//! Perfetto (<https://ui.perfetto.dev>): a top-level `traceEvents` array
//! whose elements each carry the required keys `ph`, `ts`, `pid`, `tid`
//! and `name`. Simulated cycles are written as microseconds, so one
//! trace-viewer microsecond equals one GPU cycle.
//!
//! The writer is deliberately small: duration (`X`), begin/end (`B`/`E`)
//! and instant (`i`) phases cover everything the simulator records. The
//! simulator-side converter (`gpushield_sim::chrome_timeline`, over a
//! timeline flight ring) maps cores to `pid` and warps to `tid`, so the
//! viewer groups lanes the way the paper discusses them (per-SM,
//! per-warp).

use crate::push_json_string;
use std::fmt::Write as _;

/// One trace event. Fields map 1:1 to the Trace Event Format keys.
#[derive(Debug, Clone)]
pub struct ChromeEvent {
    /// Event name (shown on the slice).
    pub name: String,
    /// Comma-separated categories.
    pub cat: String,
    /// Phase: `X` (complete), `B`/`E` (span begin/end), `i` (instant).
    pub ph: char,
    /// Timestamp in microseconds (we use simulated cycles).
    pub ts: u64,
    /// Duration in microseconds, for `X` events.
    pub dur: Option<u64>,
    /// Process id (we use the GPU core / SM index).
    pub pid: u32,
    /// Thread id (we use a warp identifier within the core).
    pub tid: u32,
    /// Extra key/value pairs rendered into `args`.
    pub args: Vec<(String, String)>,
}

/// An in-memory trace, rendered with [`ChromeTrace::render`].
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    /// Events in insertion order (viewers sort by `ts` themselves).
    pub events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    fn event(name: &str, cat: &str, ph: char, ts: u64, pid: u32, tid: u32) -> ChromeEvent {
        ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph,
            ts,
            dur: None,
            pid,
            tid,
            args: Vec::new(),
        }
    }

    /// Adds a complete (`X`) event spanning `[ts, ts + dur]`.
    pub fn push_complete(&mut self, name: &str, cat: &str, ts: u64, dur: u64, pid: u32, tid: u32) {
        let mut e = Self::event(name, cat, 'X', ts, pid, tid);
        e.dur = Some(dur.max(1));
        self.events.push(e);
    }

    /// Adds an instant (`i`) event.
    pub fn push_instant(&mut self, name: &str, cat: &str, ts: u64, pid: u32, tid: u32) {
        self.events.push(Self::event(name, cat, 'i', ts, pid, tid));
    }

    /// Adds a begin/end (`B` + `E`) span pair.
    pub fn push_span(&mut self, name: &str, cat: &str, begin: u64, end: u64, pid: u32, tid: u32) {
        self.events
            .push(Self::event(name, cat, 'B', begin, pid, tid));
        self.events
            .push(Self::event(name, cat, 'E', end.max(begin), pid, tid));
    }

    /// Attaches an `args` key/value pair to the most recently pushed
    /// event. No-op on an empty trace.
    pub fn arg(&mut self, key: &str, value: &str) {
        if let Some(e) = self.events.last_mut() {
            e.args.push((key.to_string(), value.to_string()));
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were pushed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the JSON object format: `{"traceEvents": [...],
    /// "displayTimeUnit": "ms"}`. Every event carries `ph`, `ts`, `pid`,
    /// `tid` and `name`.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"traceEvents\": [\n");
        let mut first = true;
        for e in &self.events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("    {\"name\": ");
            push_json_string(&mut out, &e.name);
            out.push_str(", \"cat\": ");
            push_json_string(&mut out, &e.cat);
            let _ = write!(
                out,
                ", \"ph\": \"{}\", \"ts\": {}, \"pid\": {}, \"tid\": {}",
                e.ph, e.ts, e.pid, e.tid
            );
            if let Some(d) = e.dur {
                let _ = write!(out, ", \"dur\": {d}");
            }
            if !e.args.is_empty() {
                out.push_str(", \"args\": {");
                let mut afirst = true;
                for (k, v) in &e.args {
                    if !afirst {
                        out.push_str(", ");
                    }
                    afirst = false;
                    push_json_string(&mut out, k);
                    out.push_str(": ");
                    push_json_string(&mut out, v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_carries_the_required_keys() {
        let mut t = ChromeTrace::new();
        t.push_complete("ld global", "mem", 10, 4, 0, 3);
        t.push_instant("retire", "sched", 40, 1, 7);
        t.push_span("kernel", "launch", 0, 100, 0, 0);
        let json = t.render();
        // One rendered object per event, each with the Trace Event
        // Format's required keys.
        assert_eq!(json.matches("\"ph\": ").count(), t.len());
        for key in ["\"name\": ", "\"ts\": ", "\"pid\": ", "\"tid\": "] {
            assert_eq!(json.matches(key).count(), t.len(), "missing {key}");
        }
        assert!(json.contains("\"traceEvents\""));
    }

    #[test]
    fn complete_events_have_nonzero_duration() {
        let mut t = ChromeTrace::new();
        t.push_complete("x", "c", 5, 0, 0, 0);
        assert_eq!(t.events[0].dur, Some(1));
    }

    #[test]
    fn span_end_never_precedes_begin() {
        let mut t = ChromeTrace::new();
        t.push_span("k", "c", 10, 5, 0, 0);
        assert_eq!(t.events[0].ts, 10);
        assert_eq!(t.events[1].ts, 10);
    }

    #[test]
    fn args_attach_to_last_event() {
        let mut t = ChromeTrace::new();
        t.push_instant("abort", "sim", 1, 0, 0);
        t.arg("reason", "oob \"store\"");
        let json = t.render();
        assert!(json.contains("\"args\": {\"reason\": \"oob \\\"store\\\"\"}"));
    }

    #[test]
    fn empty_trace_renders_a_valid_skeleton() {
        let t = ChromeTrace::new();
        assert!(t.is_empty());
        let json = t.render();
        assert_eq!(
            json,
            "{\n  \"traceEvents\": [\n\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n"
        );
        // arg() on an empty trace must be a no-op, not a panic.
        let mut t = ChromeTrace::new();
        t.arg("k", "v");
        assert!(t.is_empty());
    }

    #[test]
    fn zero_duration_spans_clamp_but_keep_both_phases() {
        let mut t = ChromeTrace::new();
        // A complete event with dur 0 is clamped to 1 so viewers draw a
        // visible slice.
        t.push_complete("x", "c", 5, 0, 0, 0);
        // A span whose end equals its begin keeps both B and E at the
        // same timestamp, in insertion order.
        t.push_span("k", "c", 7, 7, 1, 2);
        assert_eq!(t.events[0].dur, Some(1));
        assert_eq!((t.events[1].ph, t.events[1].ts), ('B', 7));
        assert_eq!((t.events[2].ph, t.events[2].ts), ('E', 7));
        let json = t.render();
        let b = json.find("\"ph\": \"B\"").unwrap();
        let e = json.find("\"ph\": \"E\"").unwrap();
        assert!(b < e, "begin must render before end at equal ts: {json}");
    }

    #[test]
    fn cross_thread_events_keep_insertion_order() {
        // Events from different cores/warps interleave in time; the
        // writer must preserve insertion order byte-for-byte (viewers
        // sort by ts themselves), so a parallel-engine drain that emits
        // canonical order produces a canonical file.
        let mut t = ChromeTrace::new();
        t.push_complete("a", "c", 100, 5, 0, 1);
        t.push_complete("b", "c", 50, 5, 1, 2);
        t.push_instant("c", "c", 75, 0, 3);
        let json = t.render();
        let pa = json.find("\"name\": \"a\"").unwrap();
        let pb = json.find("\"name\": \"b\"").unwrap();
        let pc = json.find("\"name\": \"c\"").unwrap();
        assert!(pa < pb && pb < pc, "insertion order not preserved: {json}");
        // Distinct (pid, tid) lanes survive the round trip.
        for lane in [
            "\"pid\": 0, \"tid\": 1",
            "\"pid\": 1, \"tid\": 2",
            "\"pid\": 0, \"tid\": 3",
        ] {
            assert!(json.contains(lane), "missing lane {lane}");
        }
        // Renders are deterministic.
        assert_eq!(json, t.render());
    }
}
