//! Outside-in tracing: spans recorded by the benchmark around the calls
//! it makes into each layer, plus a timing `Comm` wrapper whose
//! point-to-point spans are true children of the span that issued them.
//!
//! Spans live in memory (one log per rank thread) and are written out
//! when the run ends. A span's self time is its duration minus the part
//! of it that its children cover.

use intercom::{Comm, Result, Tag};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// The layer a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole benchmark call (the root of a call's tree).
    Call,
    /// `Communicator::auto_choice` (`intercom_cost` selection).
    Select,
    /// A `PlanCache::get_or_compile` lookup.
    Cache,
    /// `ir::lower` / `ir::lower_hier`.
    Lower,
    /// `ir::optimize`.
    Opt,
    /// The one-shot `Communicator` call (the recursive `algorithms`).
    Algorithms,
    /// `ir::execute` of the compiled program.
    Exec,
    /// One point-to-point operation on the backend.
    Comm,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Call => "call",
            Layer::Select => "select",
            Layer::Cache => "cache",
            Layer::Lower => "lower",
            Layer::Opt => "opt",
            Layer::Algorithms => "algorithms",
            Layer::Exec => "exec",
            Layer::Comm => "comm",
        }
    }
}

/// Marks a span with no parent.
pub const ROOT: u32 = u32::MAX;

/// One timed interval, in nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The call this span belongs to (shared by every span of a call).
    pub call: u32,
    /// Index of the parent span in the same log, or [`ROOT`].
    pub parent: u32,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    /// Bytes moved (point-to-point spans) or a flag (cache hit = 1).
    pub arg: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// One rank's span log.
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    call: Cell<u32>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            call: Cell::new(0),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts call `id`: spans recorded from here on carry it.
    pub fn begin_call(&self, id: u32) -> u32 {
        self.call.set(id);
        self.open(Layer::Call)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&self, layer: Layer) -> u32 {
        let start = self.now();
        let idx = self.record(layer, start, start, 0);
        self.open.borrow_mut().push(idx);
        idx
    }

    /// Closes span `idx` (the innermost open span).
    pub fn close(&self, idx: u32) {
        let end = self.now();
        let top = self.open.borrow_mut().pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans.borrow_mut()[idx as usize].end = end;
    }

    /// Times `f` as a span of `layer`.
    pub fn timed<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let idx = self.open(layer);
        let out = f();
        self.close(idx);
        out
    }

    /// Sets the `arg` of span `idx`.
    pub fn set_arg(&self, idx: u32, arg: u64) {
        self.spans.borrow_mut()[idx as usize].arg = arg;
    }

    fn record(&self, layer: Layer, start: u64, end: u64, arg: u64) -> u32 {
        let parent = self.open.borrow().last().copied().unwrap_or(ROOT);
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len() as u32;
        spans.push(Span {
            call: self.call.get(),
            parent,
            layer,
            start,
            end,
            arg,
        });
        idx
    }

    /// Records a completed point-to-point span under the innermost open
    /// span.
    fn comm(&self, start: u64, bytes: usize) {
        let end = self.now();
        self.record(Layer::Comm, start, end, bytes as u64);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// A `Comm` that forwards every trait method to `inner` and records a
/// span around each `send`/`recv`/`sendrecv`/`sendrecv_tagged`. The
/// accounting and recording hooks (`compute`, `local_reduce`,
/// `plan_step`, …) are forwarded untouched, so the backend takes its
/// usual eager and rendezvous paths.
pub struct TimedComm<'a, C: Comm + ?Sized> {
    pub inner: &'a C,
    pub log: &'a SpanLog,
}

impl<C: Comm + ?Sized> Comm for TimedComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, tag: Tag, data: &[u8]) -> Result<()> {
        let t = self.log.now();
        let r = self.inner.send(to, tag, data);
        self.log.comm(t, data.len());
        r
    }

    fn recv(&self, from: usize, tag: Tag, buf: &mut [u8]) -> Result<()> {
        let t = self.log.now();
        let len = buf.len();
        let r = self.inner.recv(from, tag, buf);
        self.log.comm(t, len);
        r
    }

    fn sendrecv(
        &self,
        to: usize,
        data: &[u8],
        from: usize,
        buf: &mut [u8],
        tag: Tag,
    ) -> Result<()> {
        let t = self.log.now();
        let len = data.len() + buf.len();
        let r = self.inner.sendrecv(to, data, from, buf, tag);
        self.log.comm(t, len);
        r
    }

    fn sendrecv_tagged(
        &self,
        to: usize,
        data: &[u8],
        stag: Tag,
        from: usize,
        buf: &mut [u8],
        rtag: Tag,
    ) -> Result<()> {
        let t = self.log.now();
        let len = data.len() + buf.len();
        let r = self.inner.sendrecv_tagged(to, data, stag, from, buf, rtag);
        self.log.comm(t, len);
        r
    }

    fn compute(&self, bytes: usize) {
        self.inner.compute(bytes)
    }

    fn call_overhead(&self) {
        self.inner.call_overhead()
    }

    fn local_copy(&self, src: &[u8], dst: &[u8]) {
        self.inner.local_copy(src, dst)
    }

    fn local_reduce(&self, acc: &[u8], other: &[u8]) {
        self.inner.local_reduce(acc, other)
    }

    fn plan_step(&self, plan: u64, step: u64) {
        self.inner.plan_step(plan, step)
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// A span log with the name of whoever kept it (`rank0`, `case3/host`).
pub type NamedLog = (String, Vec<Span>);

/// Writes span logs as CSV (`log,call,id,parent,layer,start_ns,end_ns,arg`;
/// `id` and `parent` index spans within their log).
pub fn write_csv(path: &std::path::Path, logs: &[NamedLog]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "log,call,id,parent,layer,start_ns,end_ns,arg")?;
    for (name, spans) in logs {
        for (id, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{name},{},{id},{parent},{},{},{},{}",
                s.call,
                s.layer.name(),
                s.start,
                s.end,
                s.arg
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let log = SpanLog::new(Instant::now());
        let root = log.begin_call(3);
        log.timed(Layer::Select, || std::hint::black_box(0));
        let a = log.open(Layer::Algorithms);
        log.comm(log.now(), 8);
        log.comm(log.now(), 8);
        log.close(a);
        log.close(root);
        let spans = log.take();
        assert!(spans.iter().all(|s| s.call == 3));
        let selfs = self_times(&spans);
        assert_eq!(selfs.iter().sum::<u64>(), spans[0].duration());
        assert_eq!(spans[3].parent, a);
    }
}
