//! Spans recorded around calls into each layer's public functions.
//!
//! Spans live in memory and are written out once the run ends. A disabled
//! tracer runs the wrapped closures and records nothing, so the untraced
//! path pays one branch per call.

use crate::stats;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `flowchart.parse`.
    pub name: String,
    /// Start, nanoseconds since the run's epoch.
    pub start: u64,
    /// End, nanoseconds since the run's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The job the call belongs to.
    pub job: u64,
    /// Recorded by a probe of a layer the workload itself does not call.
    pub probe: bool,
    /// Work counted at the boundary (steps, records, classes), if any.
    pub count: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    /// Spans recorded from now on are probe spans.
    pub probe: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sibling_ns: u64,
}

impl Tracer {
    /// A tracer measuring from `epoch`; records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            probe: false,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            sibling_ns: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &str, job: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
            job,
            probe: self.probe,
            count: None,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        r
    }

    /// Attaches a count to the most recently opened span.
    pub fn count(&mut self, n: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.count = Some(n);
        }
    }

    /// Times a sibling replay of an inner layer (only when tracing). Its
    /// time is excluded from the job's latency, see [`Tracer::sibling_ns`].
    pub fn sibling<R>(&mut self, name: &str, job: u64, f: impl FnOnce() -> R) -> Option<R> {
        if !self.on {
            return None;
        }
        let t = Instant::now();
        let r = self.span(name, job, |_| f());
        self.sibling_ns += t.elapsed().as_nanos() as u64;
        Some(r)
    }

    /// Total time spent in sibling replays so far.
    pub fn sibling_ns(&self) -> u64 {
        self.sibling_ns
    }

    /// Moves another tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`: the workload's own if it made any, else the
    /// probe's.
    pub fn named(&self, name: &str) -> Vec<&Span> {
        let all: Vec<&Span> = self.spans.iter().filter(|s| s.name == name).collect();
        if all.iter().any(|s| !s.probe) {
            all.into_iter().filter(|s| !s.probe).collect()
        } else {
            all
        }
    }

    /// Median duration of spans named `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let d: Vec<f64> = self
            .named(name)
            .iter()
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        stats::median(&d)
    }

    /// Per job, `outer − inner` where both spans belong to that job, in
    /// microseconds: the outer layer's own share of a call that spans two
    /// layers, the inner one timed as a sibling on the same input. The two
    /// are separate runs, so where the outer layer adds little the
    /// difference is noise and may be negative; it stays signed so that the
    /// median over jobs is unbiased.
    pub fn self_samples_us(&self, outer: &str, inner: &str) -> Vec<f64> {
        let inner: std::collections::HashMap<(u64, bool), u64> = self
            .named(inner)
            .iter()
            .map(|s| ((s.job, s.probe), s.ns()))
            .collect();
        self.named(outer)
            .iter()
            .filter_map(|o| {
                let i = inner.get(&(o.job, o.probe))?;
                Some((o.ns() as f64 - *i as f64) / 1e3)
            })
            .collect()
    }

    /// Per span name: calls, total time and self time (total minus time
    /// covered by child spans), in microseconds, sorted by name.
    pub fn self_times(&self) -> Vec<(String, usize, f64, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, (usize, u64, u64)> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += stats::self_time(s.start, s.end, &children[i]);
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, st))| (n.to_string(), c, t as f64 / 1e3, st as f64 / 1e3))
            .collect()
    }

    /// The spans as JSON lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"job\":{},\"probe\":{}",
                s.name, s.start, s.end, s.job, s.probe
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(c) = s.count {
                let _ = write!(out, ",\"count\":{c}");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_siblings_are_excluded_from_latency() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.span("job", 7, |tr| {
            tr.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.sibling("replay", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(tr.sibling_ns() >= 2_000_000);
        let job = &tr.self_times()[0];
        assert_eq!(job.0, "inner");
        let (_, _, total, own) = tr.self_times().into_iter().find(|t| t.0 == "job").unwrap();
        assert!(own < total && own < 2_000.0);
        assert!(tr.self_samples_us("job", "inner")[0] >= 2_000.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        assert_eq!(tr.span("job", 1, |_| 5), 5);
        assert_eq!(tr.sibling("replay", 1, || 5), None);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn probe_spans_count_only_when_the_workload_made_none() {
        let mut tr = Tracer::new(true, Instant::now());
        tr.probe = true;
        tr.span("a", 1, |_| ());
        tr.span("b", 1, |_| ());
        tr.probe = false;
        tr.span("a", 2, |_| ());
        assert_eq!(tr.named("a").len(), 1);
        assert!(!tr.named("a")[0].probe);
        assert_eq!(tr.named("b").len(), 1);
    }
}
