//! Observing a rank from outside: [`Timed`] wraps any [`Transport`] and
//! timestamps every call without touching what passes through it.
//!
//! Two levels of observation share one adapter:
//!
//! * the **step clock** (always on, cheap): one preallocated timestamp
//!   per training step, overwritten by each call whose tag encodes that
//!   step, so the last write is the end of the step's last transport
//!   call; serving ranks record per-batch service times instead;
//! * **spans** (traced runs only): every call becomes a [`Span`] in a
//!   preallocated [`SpanBuf`]; step spans are synthesized afterwards
//!   from the step clock and become the parents of the call spans, so a
//!   step span's self time is exactly the rank's work outside the
//!   transport.

use selsync_comm::collectives::tag_step;
use selsync_comm::ps::CTRL_SHUTDOWN;
use selsync_comm::{CommStats, Msg, Payload, Transport, TransportError};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Step key of a call that belongs to no training step.
pub const NO_STEP: u64 = u64::MAX;

/// What a transport call was doing, as seen from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Worker → worker flags bit (Alg. 1 line 12).
    FlagsSend,
    /// Worker blocked on a peer's flags bit.
    FlagsWait,
    /// Worker → PS push (`Params`, `Grads`, `Bucket` or a pull request).
    Push,
    /// Worker blocked on the PS round reply.
    RoundWait,
    /// The initial pull round.
    Init,
    /// The shutdown round.
    Shutdown,
    /// PS blocked on a worker.
    PsRecv,
    /// PS reply fan-out.
    PsReply,
    /// Serving rank blocked on the fabric.
    ServeRecv,
    /// Serving rank sending.
    ServeSend,
}

impl Phase {
    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::FlagsSend => "comm.flags_send",
            Phase::FlagsWait => "comm.flags_wait",
            Phase::Push => "comm.push",
            Phase::RoundWait => "comm.round_wait",
            Phase::Init => "comm.init",
            Phase::Shutdown => "comm.shutdown",
            Phase::PsRecv => "ps.recv",
            Phase::PsReply => "ps.reply",
            Phase::ServeRecv => "serve.recv",
            Phase::ServeSend => "serve.send",
        }
    }
}

/// One timed interval. Times are nanoseconds since the run's shared
/// origin, so spans of different ranks line up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Training step (or serving batch) the span belongs to, or
    /// [`NO_STEP`].
    pub step: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A fixed-capacity span buffer: allocated once, never grown, so
/// recording cannot allocate mid-run. Spans past capacity are counted
/// in `dropped` instead of stored.
#[derive(Debug)]
pub struct SpanBuf {
    /// Identifies the run every span belongs to.
    pub run_id: u64,
    spans: Vec<Span>,
    /// Spans that did not fit.
    pub dropped: u64,
}

impl SpanBuf {
    /// An empty buffer holding up to `capacity` spans.
    pub fn with_capacity(run_id: u64, capacity: usize) -> SpanBuf {
        SpanBuf {
            run_id,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Record a span; returns its index, or [`NO_PARENT`] if full.
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus the part of it its
    /// children cover (overlapping children are counted once).
    pub fn self_time_ns(&self, idx: u32) -> u64 {
        let parent = self.spans[idx as usize];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == idx)
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut cursor = parent.start_ns;
        for (a, b) in kids {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        parent.dur_ns() - covered
    }

    /// Synthesize one span per training step from the step clock and
    /// adopt every call span of that step as its child; a `rank` root
    /// span covering everything adopts the step spans and the calls
    /// that belong to no step. Step `s` runs from the end of step
    /// `s − 1`'s last call (the end of the initial pull for step 0) to
    /// the end of its own last call.
    pub fn link_steps(&mut self, clock: &StepClock) {
        let Some(first) = self.spans.iter().map(|s| s.start_ns).min() else {
            return;
        };
        let last = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(first);
        let root = self.push(Span {
            name: "rank",
            start_ns: first,
            end_ns: last,
            parent: NO_PARENT,
            step: NO_STEP,
        });
        let n_calls = self.spans.len().saturating_sub(1);
        let mut step_idx = vec![NO_PARENT; clock.step_end.len()];
        for (s, idx) in step_idx.iter_mut().enumerate() {
            if let Some((start, end)) = clock.step_window(s) {
                *idx = self.push(Span {
                    name: "step",
                    start_ns: start,
                    end_ns: end,
                    parent: root,
                    step: s as u64,
                });
            }
        }
        for span in &mut self.spans[..n_calls] {
            span.parent = match step_idx.get(span.step as usize) {
                Some(&idx) if idx != NO_PARENT => idx,
                _ => root,
            };
        }
    }

    /// Append the spans as JSON lines tagged with `rank`.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_jsonl(&self, rank: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let step = if s.step == NO_STEP { -1 } else { s.step as i64 };
            writeln!(
                out,
                "{{\"run\": {}, \"rank\": \"{rank}\", \"id\": {i}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"step\": {step}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-step timestamps of one worker: `step_end[s]` is the end of the
/// last transport call whose tag encodes step `s` (0 = never seen).
#[derive(Debug, Clone, Default)]
pub struct StepClock {
    /// End of the initial pull round, ns since the origin.
    pub init_end: u64,
    /// One slot per step, preallocated.
    pub step_end: Vec<u64>,
}

impl StepClock {
    /// The window `(start, end]` of step `s`, if both edges were seen.
    pub fn step_window(&self, s: usize) -> Option<(u64, u64)> {
        let start = if s == 0 {
            self.init_end
        } else {
            self.step_end[s - 1]
        };
        let end = self.step_end[s];
        (start > 0 && end > start).then_some((start, end))
    }

    /// Every step's period in ms (steps with a missing edge are skipped).
    pub fn periods_ms(&self) -> Vec<f64> {
        (0..self.step_end.len())
            .filter_map(|s| self.step_window(s))
            .map(|(a, b)| (b - a) as f64 / 1e6)
            .collect()
    }
}

/// Which rank the adapter observes — it decides how a call is
/// classified and which step its tag encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A training worker talking to the PS at rank `server`.
    Worker {
        /// The PS rank (`n_workers`).
        server: usize,
    },
    /// The parameter server.
    Server,
    /// A serving rank (router or replica); the tag is the batch or
    /// request id.
    Serve,
}

/// A [`Transport`] that observes every call of the one it wraps.
pub struct Timed<T> {
    inner: T,
    role: Role,
    origin: Instant,
    clock: StepClock,
    /// Serving replicas: the end of the last `Predict` receive, and
    /// per batch `(receive end, service time)` — receive end → reply
    /// send start, in ns.
    pending_batch: Option<u64>,
    service: Vec<(u64, u64)>,
    enabled: bool,
    spans: Option<SpanBuf>,
}

impl<T: Transport> Timed<T> {
    /// Wrap `inner`. `steps` sizes the step clock (0 for non-workers),
    /// `batches` the serving service-time log, and `spans` switches
    /// span recording on.
    pub fn new(
        inner: T,
        role: Role,
        origin: Instant,
        steps: usize,
        batches: usize,
        spans: Option<SpanBuf>,
    ) -> Timed<T> {
        Timed {
            inner,
            role,
            origin,
            clock: StepClock {
                init_end: 0,
                step_end: vec![0; steps],
            },
            pending_batch: None,
            service: Vec::with_capacity(batches),
            enabled: true,
            spans,
        }
    }

    /// Wrap `inner` without observing it: every call passes straight
    /// through (the untraced runs' unobserved ranks).
    pub fn plain(inner: T) -> Timed<T> {
        Timed {
            enabled: false,
            ..Timed::new(inner, Role::Server, Instant::now(), 0, 0, None)
        }
    }

    /// The step clock.
    pub fn clock(&self) -> &StepClock {
        &self.clock
    }

    /// Serving: per-batch `(receive end, service time)` in ns.
    pub fn service_log(&self) -> &[(u64, u64)] {
        &self.service
    }

    /// Take the span buffer, linking step spans first.
    pub fn take_spans(&mut self) -> Option<SpanBuf> {
        let mut buf = self.spans.take()?;
        buf.link_steps(&self.clock);
        Some(buf)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn classify_send(&self, to: usize, tag: u64, payload: &Payload) -> (Phase, u64) {
        match self.role {
            Role::Worker { server } if to == server => match payload {
                Payload::Control(CTRL_SHUTDOWN) => (Phase::Shutdown, NO_STEP),
                _ if tag == u64::MAX => (Phase::Init, NO_STEP),
                _ => (Phase::Push, tag),
            },
            Role::Worker { .. } => (Phase::FlagsSend, tag_step(tag)),
            Role::Server => (Phase::PsReply, tag),
            Role::Serve => (Phase::ServeSend, tag),
        }
    }

    fn classify_recv(&self, from: Option<usize>, msg: Option<&Msg>) -> (Phase, u64) {
        let tag = msg.map_or(NO_STEP, |m| m.tag);
        match self.role {
            Role::Worker { server } if from == Some(server) => {
                if tag == u64::MAX {
                    (Phase::Init, NO_STEP)
                } else {
                    (Phase::RoundWait, tag)
                }
            }
            Role::Worker { .. } if tag == NO_STEP => (Phase::FlagsWait, NO_STEP),
            Role::Worker { .. } => (Phase::FlagsWait, tag_step(tag)),
            Role::Server => (Phase::PsRecv, tag),
            Role::Serve => (Phase::ServeRecv, tag),
        }
    }

    fn observe(&mut self, phase: Phase, step: u64, start: u64) {
        let end = self.now_ns();
        if let Role::Worker { .. } = self.role {
            match phase {
                Phase::Init => self.clock.init_end = end,
                _ => {
                    if let Some(slot) = self.clock.step_end.get_mut(step as usize) {
                        *slot = end;
                    }
                }
            }
        }
        if let Some(buf) = &mut self.spans {
            buf.push(Span {
                name: phase.name(),
                start_ns: start,
                end_ns: end,
                parent: NO_PARENT,
                step,
            });
        }
    }

    fn observe_recv(&mut self, from: Option<usize>, start: u64, r: &Result<Msg, TransportError>) {
        let (phase, step) = self.classify_recv(from, r.as_ref().ok());
        self.observe(phase, step, start);
        if let Ok(Msg {
            payload: Payload::Predict { .. },
            ..
        }) = r
        {
            self.pending_batch = Some(self.now_ns());
        }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn id(&self) -> usize {
        self.inner.id()
    }

    fn fabric_size(&self) -> usize {
        self.inner.fabric_size()
    }

    fn stats(&self) -> &Arc<CommStats> {
        self.inner.stats()
    }

    fn send(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        if !self.enabled {
            return self.inner.send(to, tag, payload);
        }
        let (phase, step) = self.classify_send(to, tag, &payload);
        let start = self.now_ns();
        if matches!(payload, Payload::Logits { .. }) {
            if let Some(got) = self.pending_batch.take() {
                if self.service.len() < self.service.capacity() {
                    self.service.push((got, start.saturating_sub(got)));
                }
            }
        }
        let r = self.inner.send(to, tag, payload);
        self.observe(phase, step, start);
        r
    }

    fn recv_any(&mut self) -> Result<Msg, TransportError> {
        if !self.enabled {
            return self.inner.recv_any();
        }
        let start = self.now_ns();
        let r = self.inner.recv_any();
        self.observe_recv(None, start, &r);
        r
    }

    fn recv_tagged(&mut self, from: Option<usize>, tag: u64) -> Result<Msg, TransportError> {
        if !self.enabled {
            return self.inner.recv_tagged(from, tag);
        }
        let start = self.now_ns();
        let r = self.inner.recv_tagged(from, tag);
        self.observe_recv(from, start, &r);
        r
    }

    fn recv_deadline(
        &mut self,
        from: Option<usize>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<Msg, TransportError> {
        if !self.enabled {
            return self.inner.recv_deadline(from, tag, timeout);
        }
        let start = self.now_ns();
        let r = self.inner.recv_deadline(from, tag, timeout);
        self.observe_recv(from, start, &r);
        r
    }

    fn try_recv(&mut self) -> Option<Msg> {
        if !self.enabled {
            return self.inner.try_recv();
        }
        let start = self.now_ns();
        let r = self.inner.try_recv();
        let (phase, step) = self.classify_recv(None, r.as_ref());
        self.observe(phase, step, start);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            step: NO_STEP,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut b = SpanBuf::with_capacity(1, 8);
        let p = b.push(span("step", 0, 100, NO_PARENT));
        b.push(span("a", 10, 30, p));
        b.push(span("b", 20, 40, p)); // overlaps a: union 10..40
        b.push(span("c", 90, 120, p)); // clipped to the parent: 90..100
        assert_eq!(b.self_time_ns(p), 100 - 30 - 10);
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let mut b = SpanBuf::with_capacity(7, 2);
        assert_eq!(b.push(span("x", 0, 1, NO_PARENT)), 0);
        assert_eq!(b.push(span("x", 1, 2, NO_PARENT)), 1);
        assert_eq!(b.push(span("x", 2, 3, NO_PARENT)), NO_PARENT);
        assert_eq!((b.spans().len(), b.dropped), (2, 1));
    }

    #[test]
    fn step_spans_adopt_their_calls() {
        let clock = StepClock {
            init_end: 10,
            step_end: vec![50, 90],
        };
        let mut b = SpanBuf::with_capacity(3, 16);
        b.push(Span {
            step: NO_STEP,
            ..span("comm.init", 5, 10, NO_PARENT)
        });
        b.push(Span {
            step: 0,
            ..span("comm.flags_wait", 40, 50, NO_PARENT)
        });
        b.push(Span {
            step: 1,
            ..span("comm.flags_wait", 60, 90, NO_PARENT)
        });
        b.link_steps(&clock);
        let spans = b.spans();
        let steps: Vec<u32> = (0..spans.len() as u32)
            .filter(|&i| spans[i as usize].name == "step")
            .collect();
        assert_eq!(steps.len(), 2);
        assert_eq!(spans[1].parent, steps[0]);
        assert_eq!(spans[2].parent, steps[1]);
        assert_eq!(spans[0].parent, 3, "the init call hangs off the rank root");
        assert_eq!(b.self_time_ns(steps[0]), 40 - 10);
        assert_eq!(b.self_time_ns(steps[1]), 40 - 30);
        assert_eq!(clock.periods_ms(), vec![40e-6, 40e-6]);
    }
}
