//! In-memory spans for the traced run. A span names one call into one
//! layer; its self time is its duration minus the time its children
//! cover. Children are either nested calls, or compiler entry points
//! re-timed on the same inputs just before the call that runs them
//! internally, whose durations are subtracted from that call's span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the spans file; later spans only feed the samples.
const KEPT_SPANS: usize = 20_000;

/// Self time of a span: its duration minus its children's durations.
/// Children run inside the span (nested) or are re-timed stand-ins for
/// work the span performs internally; either way they never overlap
/// each other, so their durations add.
pub fn self_ns(dur_ns: u64, children_ns: u64) -> u64 {
    dur_ns.saturating_sub(children_ns)
}

/// One closed span, as written out.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: usize,
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
}

struct Open {
    id: usize,
    name: &'static str,
    start: Instant,
    children_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    open: Vec<Open>,
    next_id: usize,
    kept: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            next_id: 0,
            kept: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Tags later spans with op identifier `op` (spans of one op share it).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        self.begin_with_retimed(name, &[]);
    }

    /// Opens a span whose self time excludes `retimed`: `(name, ns)`
    /// durations of work the call performs internally, measured by
    /// calling the same pure entry points on the same inputs beforehand.
    pub fn begin_with_retimed(&mut self, name: &'static str, retimed: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        let id = self.fresh_id();
        let start = Instant::now();
        let start_ns = self.ns_since_epoch(start);
        let mut children_ns = 0;
        for &(child, dur_ns) in retimed {
            let child_id = self.fresh_id();
            self.record(child_id, child, Some(id), start_ns, dur_ns, dur_ns);
            children_ns += dur_ns;
        }
        self.open.push(Open {
            id,
            name,
            start,
            children_ns,
        });
    }

    /// Closes the innermost open span, which must be `name`.
    pub fn end(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let o = self.open.pop().expect("end() matches a begin()");
        assert_eq!(o.name, name, "spans close in nesting order");
        let dur_ns = o.start.elapsed().as_nanos() as u64;
        let start_ns = self.ns_since_epoch(o.start);
        let parent = self.open.last_mut().map(|p| {
            p.children_ns += dur_ns;
            p.id
        });
        self.record(
            o.id,
            o.name,
            parent,
            start_ns,
            dur_ns,
            self_ns(dur_ns, o.children_ns),
        );
    }

    fn fresh_id(&mut self) -> usize {
        self.next_id += 1;
        self.next_id - 1
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn record(
        &mut self,
        id: usize,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        dur_ns: u64,
        self_ns: u64,
    ) {
        self.samples.entry(name).or_default().push(self_ns as f64);
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(Span {
                id,
                name,
                op: self.op,
                parent,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Self-time samples of every span called `name`, in nanoseconds.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The first kept spans as JSON lines, for writing out when the run
    /// ends.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{}}}",
                s.id, s.name, s.op, s.start_ns, s.dur_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_never_goes_negative() {
        assert_eq!(self_ns(100, 30), 70);
        assert_eq!(self_ns(100, 100), 0);
        assert_eq!(self_ns(10, 25), 0);
    }

    #[test]
    fn nested_and_retimed_children_leave_the_parent_its_own_time() {
        let mut t = Tracer::new(true);
        t.begin("launch");
        t.begin_with_retimed("prepare", &[("analyze", 40), ("prove", 60)]);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end("prepare");
        t.begin("run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end("run");
        t.end("launch");

        let one = |name| t.samples(name)[0];
        assert_eq!(t.samples("analyze"), &[40.0]);
        assert_eq!(t.samples("prove"), &[60.0]);
        let prepare_dur = t.kept.iter().find(|s| s.name == "prepare").unwrap().dur_ns;
        let run_dur = t.kept.iter().find(|s| s.name == "run").unwrap().dur_ns;
        let launch_dur = t.kept.iter().find(|s| s.name == "launch").unwrap().dur_ns;
        assert_eq!(one("prepare"), (prepare_dur - 100) as f64);
        assert_eq!(one("run"), run_dur as f64);
        assert_eq!(one("launch"), (launch_dur - prepare_dur - run_dur) as f64);
        // The re-timed children are not the launch's children: only the
        // prepare span's duration is subtracted from the launch.
        let launch = t.kept.iter().find(|s| s.name == "launch").unwrap();
        let prepare = t.kept.iter().find(|s| s.name == "prepare").unwrap();
        assert_eq!(prepare.parent, Some(launch.id));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("x");
        t.end("x");
        assert!(t.samples("x").is_empty());
        assert!(t.render().is_empty());
    }
}
