//! Layer timing from outside the program: spans recorded around calls into
//! each layer's public functions, and a forwarding [`Scheduler`] that times
//! every scheduling decision the engine asks for.
//!
//! Nothing here can steer a run: the forwarding scheduler returns exactly
//! what the wrapped one returns, and the traced pass checks that it
//! reproduces the untimed pass's outcome.

use loongserve::prelude::*;
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// Spans kept in memory; later ones are counted but not stored, so a
/// traced pass stays bounded however many scheduler calls it makes.
const SPAN_CAP: usize = 50_000;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary, e.g. `engine.run` or `sched.schedule`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span store, written out once when the benchmark ends. Spans
/// opened with [`timed`] nest: a span's parent is whichever span was open
/// when it started.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    current: Option<usize>,
    dropped: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            current: None,
            dropped: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span under the open one; `None` past the cap.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant) -> Option<usize> {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.current,
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Writes every stored span as one JSON document.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"dropped\":{},\"spans\":[", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Runs `f` inside a span named `name` and returns its result with its
/// wall seconds. Spans recorded while `f` runs become its children. The
/// store is borrowed only around `f`, so `f` may record spans itself.
pub fn timed<T>(spans: &Rc<RefCell<Spans>>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let (index, outer) = {
        let mut s = spans.borrow_mut();
        let outer = s.current;
        let index = s.push(name, start, start);
        if index.is_some() {
            s.current = index;
        }
        (index, outer)
    };
    let out = f();
    let end = Instant::now();
    let mut s = spans.borrow_mut();
    if let Some(i) = index {
        s.spans[i].end_ns = s.ns(end);
    }
    s.current = outer;
    (out, (end - start).as_secs_f64())
}

/// What the forwarding scheduler saw, summed over every call.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedLedger {
    pub calls: u64,
    /// Wall seconds inside the wrapped scheduler.
    pub busy_s: f64,
    pub pending: u64,
    pub decoding: u64,
    pub actions: u64,
    /// Calls that returned nothing while an instance was idle and a
    /// request was waiting.
    pub idle_noop_calls: u64,
    pub prefills: u64,
    pub prefill_instances: u64,
    /// Prefills that kept their KV on fewer instances than they ran on.
    pub proactive_scale_downs: u64,
    pub decodes: u64,
    pub decode_instances: u64,
}

/// A [`Scheduler`] that forwards to another and records each call as a
/// `sched.schedule` span under whichever span is open.
pub struct Forwarding {
    inner: Box<dyn Scheduler>,
    ledger: Rc<RefCell<SchedLedger>>,
    spans: Rc<RefCell<Spans>>,
}

impl Forwarding {
    pub fn new(
        inner: Box<dyn Scheduler>,
        ledger: Rc<RefCell<SchedLedger>>,
        spans: Rc<RefCell<Spans>>,
    ) -> Self {
        Forwarding {
            inner,
            ledger,
            spans,
        }
    }
}

impl Scheduler for Forwarding {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SchedulerView<'_>) -> Vec<Action> {
        let start = Instant::now();
        let actions = self.inner.schedule(view);
        let end = Instant::now();
        self.spans.borrow_mut().push("sched.schedule", start, end);
        let mut l = self.ledger.borrow_mut();
        l.calls += 1;
        l.busy_s += (end - start).as_secs_f64();
        l.pending += view.pending.len() as u64;
        l.decoding += view.decoding.len() as u64;
        l.actions += actions.len() as u64;
        if actions.is_empty() && !view.idle_instances.is_empty() && !view.pending.is_empty() {
            l.idle_noop_calls += 1;
        }
        for action in &actions {
            match action {
                Action::Prefill {
                    instances,
                    retain_on,
                    ..
                } => {
                    l.prefills += 1;
                    l.prefill_instances += instances.len() as u64;
                    if retain_on.len() < instances.len() {
                        l.proactive_scale_downs += 1;
                    }
                }
                Action::Decode { instances, .. } => {
                    l.decodes += 1;
                    l.decode_instances += instances.len() as u64;
                }
                _ => {}
            }
        }
        actions
    }

    fn scaling_events(&self) -> &[ScalingEvent] {
        self.inner.scaling_events()
    }
}
