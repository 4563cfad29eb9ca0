//! The traced pass's instruments: memory-buffered spans recorded around the
//! calls into each layer, and a model wrapper that stamps every forward.
//!
//! Spans live here, in the benchmark's own files; stage timing inside the
//! program is a later change (ROADMAP item 1). A span records its name, the
//! record that caused it, its parent and its start and end. A layer's self
//! time is its span's duration minus its children's.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use lejit_lm::{LanguageModel, TokenId, Vocab};

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The record id every span of one record shares.
    pub record: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span buffer. Single-threaded: the traced passes run on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    record: u64,
    /// Records below this id are warm-up: their spans are kept and written
    /// out, but stay out of the self times and the gaps.
    first_measured: u64,
}

impl Tracer {
    pub fn new(first_measured: u64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            record: 0,
            first_measured,
        }
    }

    /// The instant span times count from (shared with [`TimedLm`]).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of record `id`.
    pub fn begin_record(&mut self, id: u64) {
        self.record = id;
        self.enter("record");
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            record: self.record,
            parent: self.stack.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let i = self.stack.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Files the model's forward stamps as `lm.forward` children of the
    /// span that was just closed (the decode that made the calls).
    pub fn adopt_forwards(&mut self, stamps: Vec<(u64, u64)>) {
        let parent = self.spans.len() - 1;
        debug_assert!(self.spans[parent].name == "core.decode");
        for (start_ns, end_ns) in stamps {
            self.spans.push(Span {
                name: "lm.forward",
                record: self.record,
                parent: Some(parent),
                start_ns,
                end_ns,
            });
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the buffered spans out, one JSON object per line, each
    /// labelled with its workload.
    pub fn write_spans(
        &self,
        out: &mut impl std::io::Write,
        workload: &str,
    ) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"span\":{i},\"name\":\"{}\",\"record\":{},\
                 \"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.record, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }

    /// Total self time per span name, in nanoseconds, plus the count of
    /// spans under that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            if s.record < self.first_measured {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns().saturating_sub(kids);
            e.1 += 1;
        }
        out
    }

    /// Gaps between consecutive forward calls of one decode, in
    /// nanoseconds: the time the constraint side (mask, sample, fix) adds
    /// per decision.
    pub fn forward_gaps_ns(&self) -> Vec<u64> {
        let mut gaps = Vec::new();
        let mut prev: Option<&Span> = None;
        let measured = |s: &&Span| s.name == "lm.forward" && s.record >= self.first_measured;
        for s in self.spans.iter().filter(measured) {
            if let Some(p) = prev.filter(|p| p.parent == s.parent) {
                gaps.push(s.start_ns.saturating_sub(p.end_ns));
            }
            prev = Some(s);
        }
        gaps
    }
}

/// A by-reference [`LanguageModel`] adaptor that, when given an epoch,
/// stamps the start and end of every forward call.
///
/// Without an epoch it only delegates, which is how the in-process server
/// borrows the benchmark's model. The stamp buffer sits behind a `Mutex`
/// so the wrapper is `Sync` whenever the model is.
pub struct TimedLm<'a, M> {
    inner: &'a M,
    epoch: Option<Instant>,
    stamps: Mutex<Vec<(u64, u64)>>,
}

impl<'a, M> TimedLm<'a, M> {
    /// Delegates without stamping.
    pub fn untimed(inner: &'a M) -> Self {
        TimedLm {
            inner,
            epoch: None,
            stamps: Mutex::new(Vec::new()),
        }
    }

    /// Stamps every forward in nanoseconds since `epoch`.
    pub fn timed(inner: &'a M, epoch: Instant) -> Self {
        TimedLm {
            inner,
            epoch: Some(epoch),
            stamps: Mutex::new(Vec::new()),
        }
    }

    /// Takes the stamps recorded since the last call.
    pub fn drain(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.stamps.lock().expect("stamping never panics"))
    }

    fn stamped<T>(&self, f: impl FnOnce() -> T) -> T {
        let Some(epoch) = self.epoch else {
            return f();
        };
        let start = epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = epoch.elapsed().as_nanos() as u64;
        self.stamps
            .lock()
            .expect("stamping never panics")
            .push((start, end));
        out
    }
}

impl<M: LanguageModel> LanguageModel for TimedLm<'_, M> {
    fn vocab(&self) -> &Vocab {
        self.inner.vocab()
    }

    fn next_logits(&self, context: &[TokenId]) -> Vec<f32> {
        self.stamped(|| self.inner.next_logits(context))
    }

    fn forward_batch(&self, contexts: &[&[TokenId]]) -> Vec<Vec<f32>> {
        self.stamped(|| self.inner.forward_batch(contexts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            record: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(0);
        t.spans = vec![
            span("record", None, 0, 100),
            span("rules.ground", Some(0), 5, 25),
            span("core.decode", Some(0), 30, 90),
            span("lm.forward", Some(2), 35, 45),
            span("lm.forward", Some(2), 60, 70),
        ];
        let st = t.self_times();
        assert_eq!(st["record"], (20, 1));
        assert_eq!(st["rules.ground"], (20, 1));
        assert_eq!(st["core.decode"], (40, 1));
        assert_eq!(st["lm.forward"], (20, 2));
        assert_eq!(t.forward_gaps_ns(), vec![15]);
    }

    #[test]
    fn warm_up_records_stay_out_of_the_totals() {
        let mut t = Tracer::new(1);
        t.begin_record(0);
        t.span("core.decode", || ());
        t.adopt_forwards(vec![(1, 2), (3, 4)]);
        t.exit();
        assert!(t.self_times().is_empty());
        assert!(t.forward_gaps_ns().is_empty());
        t.begin_record(1);
        t.exit();
        assert_eq!(t.self_times()["record"].1, 1);
        assert_eq!(t.spans().len(), 5, "warm-up spans are still written out");
    }

    #[test]
    fn gaps_do_not_cross_decodes() {
        let mut t = Tracer::new(0);
        t.spans = vec![
            span("core.decode", None, 0, 50),
            span("lm.forward", Some(0), 10, 20),
            span("core.decode", None, 60, 100),
            span("lm.forward", Some(2), 70, 80),
            span("lm.forward", Some(2), 85, 90),
        ];
        assert_eq!(t.forward_gaps_ns(), vec![5]);
    }

    #[test]
    fn nesting_follows_enter_and_exit() {
        let mut t = Tracer::new(0);
        t.begin_record(7);
        t.span("core.decode", || ());
        t.adopt_forwards(vec![(1, 2)]);
        t.span("core.rollback", || ());
        t.exit();
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("record", None),
                ("core.decode", Some(0)),
                ("lm.forward", Some(1)),
                ("core.rollback", Some(0)),
            ]
        );
        assert!(t.spans().iter().all(|s| s.record == 7));
    }
}
