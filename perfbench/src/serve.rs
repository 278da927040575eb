//! Serving: one replica and a router on the channel `Fabric`, driven
//! by one open-loop generator thread (the caller's) through the public
//! `run_router` / `run_replica` / `PredictEngine` entry points. The
//! served model comes from an SSV2 checkpoint written and loaded at
//! set-up.

use crate::report::{median, p99, per_window, Tally};
use crate::trace::{Role, SpanBuf, Timed};
use selsync_comm::fabric::{Endpoint, Fabric};
use selsync_comm::{Payload, Transport, TransportError};
use selsync_core::checkpoint::{load_state, save_state, TrainState};
use selsync_nn::models::ModelKind;
use selsync_serve::protocol::{CONTROL_TAG, CTRL_CLIENT_DONE};
use selsync_serve::{
    request_payload, run_replica, run_router, ModelSpec, PredictEngine, ReplicaConfig,
    ReplicaReport, RouterConfig, RouterReport,
};
use std::path::Path;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Per-sample input dims of every vision model (CHANNELS × 8 × 8).
pub const DIMS: [usize; 3] = [3, 8, 8];
/// Router flush size.
pub const MAX_BATCH: usize = 8;
/// Router flush deadline.
pub const BATCH_DEADLINE: Duration = Duration::from_millis(2);
/// Offered load of the reference stage, where latency is reported.
pub const REF_RATE: f64 = 1000.0;
/// Rates above the reference one, climbed until a rung fails.
/// Rates above the reference one, climbed until a rung fails. The rungs
/// sit clear of both served models' capacities on the 2-core reference
/// box, which drift with the box's speed from run to run (ResNetMini
/// 7400–11000 rows/s, VggMini 19000–32000): a rung inside that drift
/// would flip its verdict between runs. The ladder tops out at 16000,
/// which VggMini always sustained.
pub const LADDER: [f64; 4] = [2000.0, 4000.0, 6000.0, 16000.0];
/// A rung passes when its p99 latency stays within this budget...
pub const P99_BUDGET_MS: f64 = 20.0;
/// ...and the requests in flight grow by at most this many from the
/// first window's end to the last's (a tenth of a window).
pub const BACKLOG_GROWTH: usize = WINDOW / 10;
/// A reply matches the batch-1 reference predict of its row when every
/// logit is within `LOGIT_TOL · (1 + |reference|)`: batching may only
/// change float summation order.
pub const LOGIT_TOL: f32 = 1e-4;
/// How long a stage may wait for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(5);
/// Requests per latency window.
pub const WINDOW: usize = 1000;
/// A ladder rung offers at least this many windows...
const RUNG_WINDOWS: usize = 3;
/// ...and lasts at least this long, so growth has time to show.
const RUNG_MIN_S: f64 = 0.5;
/// A stage stops offering load once this many requests are in flight
/// (five growth allowances): the rate is plainly not sustained, and a
/// longer pile-up would only cost time and memory.
const RUNAWAY: usize = 5 * BACKLOG_GROWTH;

const REPLICA: usize = 0;
const ROUTER: usize = 1;
const GENERATOR: usize = 2;

/// Set-up products: the served engine and the batch-1 reference.
pub struct Prepared {
    engine: PredictEngine,
    reference: PredictEngine,
    /// Checkpoint write + load + engine build + warm-up, in seconds.
    pub setup_s: f64,
    /// Instant the checkpoint load began.
    pub load_start: Instant,
}

/// Write `params` as an SSV2 checkpoint at `path`, load it back, build
/// the served engine from the loaded vector and warm it up to
/// `MAX_BATCH` rows. The batch-1 reference engine the benchmark checks
/// replies against is built first, off the clock.
///
/// # Errors
/// Checkpoint I/O or a parameter-count mismatch.
pub fn prepare(
    kind: ModelKind,
    data_scale: usize,
    seed: u64,
    params: &[f32],
    path: &Path,
) -> Result<Prepared, String> {
    let spec = ModelSpec::Kind { kind, data_scale };
    let reference = PredictEngine::new(&spec, seed, params).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    save_state(path, &TrainState::fresh(1, params.to_vec())).map_err(|e| e.to_string())?;
    let load_start = Instant::now();
    let state = load_state(path).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(path);
    let mut engine = PredictEngine::new(&spec, seed, &state.params).map_err(|e| e.to_string())?;
    engine.warmup(MAX_BATCH, &DIMS);
    Ok(Prepared {
        engine,
        reference,
        setup_s: t0.elapsed().as_secs_f64(),
        load_start,
    })
}

/// The seeded initial parameters of `kind` — what `serve_resnet`
/// serves.
pub fn init_params(kind: ModelKind, data_scale: usize, seed: u64) -> Vec<f32> {
    let mut model = ModelSpec::Kind { kind, data_scale }.build(seed);
    selsync_nn::flat::flat_params(model.as_model())
}

type RankResult<R> = (Result<R, TransportError>, Timed<Endpoint>);

/// A running replica + router pair and the generator's endpoint.
pub struct Group {
    gen: Endpoint,
    reference: PredictEngine,
    seed: u64,
    next_id: u64,
    /// Ns since `origin` of the generator's stage windows.
    origin: Instant,
    router: JoinHandle<RankResult<RouterReport>>,
    replica: JoinHandle<(
        Result<ReplicaReport, TransportError>,
        Timed<Endpoint>,
        PredictEngine,
    )>,
}

/// What a finished group reports.
pub struct GroupEnd {
    /// Router counters.
    pub router: Option<RouterReport>,
    /// Replica counters.
    pub replica: Option<ReplicaReport>,
    /// Replica per-batch `(receive end ns, service ns)`.
    pub service: Vec<(u64, u64)>,
    /// Spans: `("router", ..)`, `("replica", ..)` (traced only).
    pub spans: Vec<(String, SpanBuf)>,
    /// Sum of `CommStats::total_bytes` over all three ranks.
    pub wire_bytes: u64,
    /// Transport errors.
    pub errors: Vec<String>,
}

/// One stage of offered load, cut into windows of [`WINDOW`]
/// consecutive requests. Latency percentiles and the backlog verdict
/// are medians over windows, so one scheduler stall spoils one window
/// rather than the stage.
#[derive(Debug, Default)]
pub struct Stage {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Latency of request `i` from its due time, ms (NaN: unanswered).
    pub lat_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub late_ms: Vec<f64>,
    /// Requests in flight as each window's last request went out.
    pub window_backlog: Vec<usize>,
    /// The backlog ran away and the stage stopped sending early.
    pub aborted: bool,
    /// First due time → last reply, s.
    pub span_s: f64,
    /// `[start, end]` ns since the group origin.
    pub window_ns: (u64, u64),
}

impl Stage {
    /// One stage out of several offered at the same rate: windows and
    /// samples concatenated, spans summed.
    pub fn concat(parts: Vec<Stage>) -> Stage {
        let mut out = Stage::default();
        for st in parts {
            out.rate = st.rate;
            out.sent += st.sent;
            out.lat_ms.extend(st.lat_ms);
            out.late_ms.extend(st.late_ms);
            out.window_backlog.extend(st.window_backlog);
            out.aborted |= st.aborted;
            out.span_s += st.span_s;
        }
        out
    }

    /// Requests answered.
    pub fn answered(&self) -> usize {
        self.lat_ms.iter().filter(|v| !v.is_nan()).count()
    }

    /// `stat` of each window's answered requests' latencies, ms.
    pub fn per_window(&self, stat: impl Fn(&[f64]) -> Option<f64>) -> Vec<f64> {
        per_window(&self.lat_ms, WINDOW, |w| {
            let answered: Vec<f64> = w.iter().copied().filter(|v| !v.is_nan()).collect();
            stat(&answered)
        })
    }

    /// Median over windows of the window's p50 latency, ms.
    pub fn p50(&self) -> f64 {
        median(&self.per_window(|w| (!w.is_empty()).then(|| median(w))))
    }

    /// Median over windows of the window's p99 latency, ms (a window of
    /// 1000 requests keeps ten samples beyond its p99).
    pub fn p99(&self) -> f64 {
        median(&self.per_window(p99))
    }

    /// Whether the rate was sustained: every request answered, the
    /// windows' median p99 within budget and no backlog growth.
    pub fn sustained(&self) -> bool {
        let first = self.window_backlog.first().copied().unwrap_or(0);
        let last = self.window_backlog.last().copied().unwrap_or(0);
        !self.aborted
            && self.answered() == self.sent
            && self.p99() <= P99_BUDGET_MS
            && last.saturating_sub(first) <= BACKLOG_GROWTH
    }

    /// Replies per second over the stage.
    pub fn achieved_rps(&self) -> f64 {
        self.answered() as f64 / self.span_s
    }
}

impl Group {
    /// Start the router and replica threads around a prepared engine.
    /// `trace` records spans on both (with that run id); `requests`, the
    /// most the generator will offer, sizes the replica's service-time
    /// log and the span buffers.
    pub fn start(prep: Prepared, seed: u64, trace: Option<u64>, requests: usize) -> Group {
        let mut eps = Fabric::new(3);
        let gen = eps.pop().expect("generator endpoint");
        let router_ep = eps.pop().expect("router endpoint");
        let replica_ep = eps.pop().expect("replica endpoint");
        debug_assert_eq!(
            (replica_ep.id(), router_ep.id(), gen.id()),
            (REPLICA, ROUTER, GENERATOR)
        );
        let origin = Instant::now();
        let heartbeat = Duration::from_millis(100);
        let router_cfg = RouterConfig {
            replicas: 1,
            clients: 1,
            max_batch: MAX_BATCH,
            deadline: BATCH_DEADLINE,
            heartbeat,
            // the benchmark's single replica is never evicted
            max_missed: 300,
        };
        let replica_cfg = ReplicaConfig {
            router: ROUTER,
            heartbeat,
            warmup_rows: MAX_BATCH,
            warmup_dims: DIMS.to_vec(),
            crash_after_batches: None,
        };
        let spans = |cap: usize| trace.map(|id| SpanBuf::with_capacity(id, cap));
        // per request the router receives it and sends its reply, per
        // batch it dispatches and collects, and it wakes on deadlines
        let router_spans = spans(requests * 4 + 4096);
        let replica_spans = spans(requests * 3 + 4096);
        let batches = requests + 64;
        let router = thread::spawn(move || {
            let mut t = Timed::new(router_ep, Role::Serve, origin, 0, 0, router_spans);
            let r = run_router(&mut t, &router_cfg);
            (r, t)
        });
        let mut engine = prep.engine;
        let replica = thread::spawn(move || {
            let mut t = Timed::new(replica_ep, Role::Serve, origin, 0, batches, replica_spans);
            let r = run_replica(&mut t, &mut engine, None, &replica_cfg);
            (r, t, engine)
        });
        Group {
            gen,
            reference: prep.reference,
            seed,
            next_id: 0,
            origin,
            router,
            replica,
        }
    }

    /// Send one request and wait for its reply; returns when it came
    /// back (verified against the reference) or why it did not.
    pub fn first_reply(&mut self, tally: &mut Tally) -> Result<Instant, String> {
        let stage = self.stage(1.0, 1, tally)?;
        if stage.answered() == 1 {
            Ok(Instant::now())
        } else {
            Err("first request unanswered".into())
        }
    }

    /// Offer `n` requests at `rate` requests/s, open loop: request
    /// `i` is due at `start + i / rate` whatever happened before. The
    /// generator blocks in `recv_deadline` until the next due time
    /// (never spinning), so replies are drained while it waits. Every
    /// reply is verified afterwards; each request sent is one attempted
    /// op. A runaway backlog stops the stage early.
    ///
    /// # Errors
    /// A transport fault on the generator's endpoint.
    pub fn stage(&mut self, rate: f64, mut n: usize, tally: &mut Tally) -> Result<Stage, String> {
        let feat: usize = DIMS.iter().product();
        let base = self.next_id;
        self.next_id += n as u64;
        let start = Instant::now() + Duration::from_millis(1);
        let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
        let mut replies: Vec<Option<Vec<f32>>> = vec![None; n];
        let mut st = Stage {
            rate,
            sent: 0,
            lat_ms: vec![f64::NAN; n],
            late_ms: Vec::with_capacity(n),
            ..Stage::default()
        };
        let mut answered = 0usize;
        let mut last_reply = start;
        let mut drain_deadline = due(n) + DRAIN;
        loop {
            while st.sent < n && due(st.sent) <= Instant::now() {
                let i = st.sent;
                let data = request_payload(self.seed, base + i as u64, feat);
                let payload = Payload::Predict {
                    data,
                    dims: DIMS.to_vec(),
                };
                self.gen
                    .send(ROUTER, base + i as u64, payload)
                    .map_err(|e| format!("generator send: {e}"))?;
                let now = Instant::now();
                st.late_ms.push(ms(now.duration_since(due(i))));
                st.sent += 1;
                if st.sent.is_multiple_of(WINDOW) || st.sent == n {
                    st.window_backlog.push(st.sent - answered);
                }
                if st.sent - answered > RUNAWAY {
                    // overloaded: stop offering, drain what is in flight
                    st.aborted = true;
                    n = st.sent;
                    drain_deadline = Instant::now() + DRAIN;
                }
            }
            if answered == n || Instant::now() >= drain_deadline {
                break;
            }
            let wake = if st.sent < n {
                due(st.sent)
            } else {
                drain_deadline
            };
            let wait = wake.saturating_duration_since(Instant::now());
            match self.gen.recv_deadline(Some(ROUTER), None, wait) {
                Ok(m) => {
                    let now = Instant::now();
                    let Some(i) = m.tag.checked_sub(base).map(|i| i as usize) else {
                        continue;
                    };
                    if i >= n || replies[i].is_some() {
                        continue;
                    }
                    if let Payload::Logits { rows, .. } = m.payload {
                        st.lat_ms[i] = ms(now.duration_since(due(i)));
                        replies[i] = Some(rows);
                        answered += 1;
                        last_reply = now;
                    }
                }
                Err(TransportError::RecvTimeout { .. }) => {}
                Err(e) => return Err(format!("generator receive: {e}")),
            }
        }
        st.span_s = last_reply.duration_since(start).as_secs_f64();
        st.window_ns = (self.ns(start), self.ns(last_reply));
        st.lat_ms.truncate(n);
        // verification happens off the clock
        for (i, reply) in replies.into_iter().take(n).enumerate() {
            let id = base + i as u64;
            tally.op(match reply {
                None => Err(format!("request {id} unanswered")),
                Some(rows) => self.verify(id, &rows),
            });
        }
        Ok(st)
    }

    fn verify(&mut self, id: u64, rows: &[f32]) -> Result<(), String> {
        let row = request_payload(self.seed, id, DIMS.iter().product());
        let want = self
            .reference
            .predict(&row, &DIMS)
            .map_err(|e| format!("reference predict: {e}"))?;
        if rows.len() != want.len() {
            return Err(format!(
                "request {id}: {} logits, expected {}",
                rows.len(),
                want.len()
            ));
        }
        for (a, b) in rows.iter().zip(&want) {
            if (a - b).abs() > LOGIT_TOL * (1.0 + b.abs()) {
                return Err(format!(
                    "request {id}: logit {a} differs from reference {b}"
                ));
            }
        }
        Ok(())
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Tell the router the generator is done and join both ranks.
    pub fn finish(self) -> GroupEnd {
        let mut end = GroupEnd {
            router: None,
            replica: None,
            service: Vec::new(),
            spans: Vec::new(),
            wire_bytes: 0,
            errors: Vec::new(),
        };
        if let Err(e) = self
            .gen
            .send(ROUTER, CONTROL_TAG, Payload::Control(CTRL_CLIENT_DONE))
        {
            end.errors.push(format!("generator done: {e}"));
        }
        end.wire_bytes += self.gen.stats().total_bytes();
        match self.router.join() {
            Ok((r, mut t)) => {
                end.wire_bytes += t.stats().total_bytes();
                match r {
                    Ok(rep) => end.router = Some(rep),
                    Err(e) => end.errors.push(format!("router: {e}")),
                }
                if let Some(b) = t.take_spans() {
                    end.spans.push(("router".into(), b));
                }
            }
            Err(_) => end.errors.push("router panicked".into()),
        }
        match self.replica.join() {
            Ok((r, mut t, _engine)) => {
                end.wire_bytes += t.stats().total_bytes();
                end.service = t.service_log().to_vec();
                match r {
                    Ok(rep) => end.replica = Some(rep),
                    Err(e) => end.errors.push(format!("replica: {e}")),
                }
                if let Some(b) = t.take_spans() {
                    end.spans.push(("replica".into(), b));
                }
            }
            Err(_) => end.errors.push("replica panicked".into()),
        }
        end
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Requests one rung at `rate` offers: whole windows, at least
/// [`RUNG_WINDOWS`] of them and [`RUNG_MIN_S`] seconds' worth.
fn rung_requests(rate: f64) -> usize {
    let windows = ((rate * RUNG_MIN_S) / WINDOW as f64).ceil() as usize;
    windows.max(RUNG_WINDOWS) * WINDOW
}

/// Climb the ladder above the reference rate and stop at the first rung
/// that is not sustained. A failed rung is offered once more before the
/// climb stops, so one scheduler stall cannot end it; a rate the system
/// cannot carry fails both attempts. Returns every stage run.
///
/// # Errors
/// A transport fault on the generator's endpoint.
pub fn climb(group: &mut Group, tally: &mut Tally) -> Result<Vec<Stage>, String> {
    let mut stages = Vec::new();
    for &rate in &LADDER {
        let mut ok = false;
        for _attempt in 0..2 {
            let st = group.stage(rate, rung_requests(rate), tally)?;
            ok = st.sustained();
            stages.push(st);
            if ok {
                break;
            }
        }
        if !ok {
            break;
        }
    }
    Ok(stages)
}

/// Most requests the ladder can offer (every rung tried twice).
pub fn ladder_requests() -> usize {
    LADDER.iter().map(|&r| 2 * rung_requests(r)).sum()
}

/// Seconds the ladder takes when every rung passes first time.
pub fn ladder_s() -> f64 {
    LADDER.iter().map(|&r| rung_requests(r) as f64 / r).sum()
}

/// `serve_max_rps`: replies per second achieved at the highest
/// sustained stage among `stages` (the reference stage included).
pub fn max_rps(stages: &[Stage]) -> f64 {
    stages
        .iter()
        .filter(|s| s.sustained())
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .map_or(0.0, Stage::achieved_rps)
}
