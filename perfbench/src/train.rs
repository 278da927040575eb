//! Training workloads: 2 workers + 1 PS, one thread per rank, over a
//! loopback mesh of `PollTcpEndpoint`s — the topology `selsync_dist`
//! gives separate OS processes, driven through the public
//! `run_worker_rank` / `run_server_rank` entry points.

use crate::report::median;
use crate::trace::{Role, SpanBuf, StepClock, Timed};
use selsync_bench::{paper_config, Scale};
use selsync_comm::Transport;
use selsync_core::prelude::*;
use selsync_core::trainer::{run_server_rank, run_worker_rank, WorkerOutput};
use selsync_net::{PollTcpEndpoint, TcpFabricConfig};
use std::io;
use std::net::TcpListener;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Workers per training workload (one compute thread per core of the
/// 2-core reference box; the PS is the third rank).
pub const WORKERS: usize = 2;

/// How long any rank may block on a receive before the run counts as
/// failed (keeps a wedged run well inside the 180 s exit budget).
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// One training workload.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Model.
    pub kind: ModelKind,
    /// Algorithm.
    pub strategy: Strategy,
    /// `RunConfig::overlap_buckets`.
    pub overlap_buckets: Option<usize>,
    /// Steps per episode (the LR schedule scales with it).
    pub steps: u64,
    /// Base learning rate replacing the recipe's (`None` keeps it); the
    /// recipe's decay boundaries stay.
    pub base_lr: Option<f32>,
    /// `Workload::for_kind` data scale.
    pub data_scale: usize,
    /// Worker-0 evaluation period.
    pub eval_every: u64,
    /// Top-1 the run must reach.
    pub target: f32,
}

impl TrainSpec {
    /// The run configuration at `seed`: the `paper_config` recipe
    /// (SelDP partitioning, per-model optimizer, scaled LR decay).
    pub fn config(&self, seed: u64) -> RunConfig {
        let scale = Scale {
            workers: WORKERS,
            steps: self.steps,
            data: self.data_scale,
            eval_every: self.eval_every,
        };
        let mut cfg = paper_config(self.kind, self.strategy, &scale);
        cfg.seed = seed;
        cfg.overlap_buckets = self.overlap_buckets;
        if let (Some(lr), LrSchedule::StepDecay { base_lr, .. }) = (self.base_lr, &mut cfg.lr) {
            *base_lr = lr;
        }
        cfg
    }

    /// The seeded dataset and model init.
    pub fn workload(&self, seed: u64) -> Workload {
        Workload::for_kind(self.kind, self.data_scale, seed)
    }

    /// Whether this workload runs the flags allgather.
    pub fn has_flags(&self) -> bool {
        matches!(self.strategy, Strategy::SelSync { .. })
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// One long-lived thread per rank, reused by every episode of a run —
/// as a rank process would serve job after job. Fresh threads per
/// episode would each draw a fresh allocator arena, so the process's
/// high-water RSS would depend on which arenas happened to host the
/// eval passes.
pub struct RankThreads {
    jobs: Vec<Sender<Job>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl RankThreads {
    /// Start `n` idle rank threads.
    pub fn new(n: usize) -> RankThreads {
        let (jobs, handles) = (0..n)
            .map(|rank| {
                let (tx, rx) = channel::<Job>();
                let h = thread::Builder::new()
                    .name(format!("perfbench-rank{rank}"))
                    .spawn(move || {
                        for job in rx {
                            job();
                        }
                    })
                    .expect("spawn rank thread");
                (tx, h)
            })
            .unzip();
        RankThreads { jobs, handles }
    }

    /// Run `f` on rank `rank`'s thread; the receiver yields its result,
    /// or an error if the job panicked.
    fn run<R: Send + 'static>(
        &self,
        rank: usize,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> Receiver<R> {
        let (tx, rx) = channel();
        let job: Job = Box::new(move || {
            let _ = tx.send(f());
        });
        if let Some(jobs) = self.jobs.get(rank) {
            // a dead rank thread drops the job, and with it `tx`
            let _ = jobs.send(job);
        }
        rx
    }
}

impl Drop for RankThreads {
    fn drop(&mut self) {
        self.jobs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Bind `n` ephemeral loopback ports and connect the full poll mesh.
///
/// # Errors
/// Bind, dial or handshake failures.
pub fn poll_mesh(n: usize) -> io::Result<Vec<PollTcpEndpoint>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let peers = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<io::Result<Vec<_>>>()?;
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, listener)| {
            let mut cfg = TcpFabricConfig::new(rank, peers.clone());
            cfg.connect_timeout = RECV_TIMEOUT;
            cfg.recv_timeout = RECV_TIMEOUT;
            thread::spawn(move || PollTcpEndpoint::connect_with_listener(cfg, listener))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| {
            h.join()
                .map_err(|_| io::Error::other("mesh thread panicked"))?
        })
        .collect()
}

/// Everything one training episode leaves behind.
pub struct Episode {
    /// Seed of the episode's workload.
    pub seed: u64,
    /// Workload generation + model build + mesh connect.
    pub setup_s: f64,
    /// Mesh up until every rank joined.
    pub wall_s: f64,
    /// Steps per worker.
    pub steps: u64,
    /// Per-worker batch size.
    pub batch: usize,
    /// Worker outputs in rank order (empty on failure).
    pub workers: Vec<WorkerOutput>,
    /// Final PS parameters.
    pub global: Vec<f32>,
    /// Worker 0's step clock (ns since the episode origin).
    pub clock0: StepClock,
    /// Sum of `CommStats::total_bytes` over all ranks.
    pub wire_bytes: u64,
    /// Sum of `CommStats::total_messages` over all ranks.
    pub messages: u64,
    /// Spans per rank, `("w0", ..)`, `("w1", ..)`, `("ps", ..)` (traced only).
    pub spans: Vec<(String, SpanBuf)>,
    /// Why the episode failed, if it did.
    pub errors: Vec<String>,
}

impl Episode {
    /// Train samples processed per second of wall time.
    pub fn samples_per_s(&self) -> f64 {
        let samples = self.steps as f64 * self.batch as f64 * WORKERS as f64;
        samples / self.wall_s
    }

    /// Seconds from training start until worker 0's eval curve first
    /// meets `target`: the crossing is interpolated linearly between the
    /// last eval below the target and the first one at or above it, each
    /// eval placed at the end of its step's last transport call.
    pub fn tta_s(&self, target: f32) -> Option<f64> {
        let evals = &self.workers.first()?.evals;
        let k = evals.iter().position(|e| e.metric >= target)?;
        let at = |i: usize| -> Option<f64> {
            let end = *self.clock0.step_end.get(evals[i].step as usize)?;
            (end > 0).then_some(end as f64 / 1e9)
        };
        let t_hit = at(k)?;
        if k == 0 {
            return Some(t_hit);
        }
        let (t_prev, a_prev, a_hit) = (at(k - 1)?, evals[k - 1].metric, evals[k].metric);
        let frac = f64::from((target - a_prev) / (a_hit - a_prev));
        Some(t_prev + frac * (t_hit - t_prev))
    }

    /// Worker-0 top-1 at the last eval.
    pub fn final_accuracy(&self) -> Option<f64> {
        let w0 = self.workers.first()?;
        w0.evals.last().map(|e| f64::from(e.metric))
    }

    /// Flat parameters a served checkpoint of this episode carries:
    /// worker 0's replica (with gradient aggregation the PS never
    /// advances its own copy).
    pub fn served_params(&self) -> Option<&[f32]> {
        self.workers.first().map(|w| w.final_params.as_slice())
    }
}

/// Run one training episode at `seed`. `trace` switches span recording
/// on for every rank (with that run id); without it only worker 0 is
/// observed, through its step clock.
pub fn run_episode(
    ranks: &RankThreads,
    spec: &TrainSpec,
    seed: u64,
    trace: Option<u64>,
) -> Episode {
    let t0 = Instant::now();
    let cfg = spec.config(seed);
    let wl = spec.workload(seed);
    // the model build every rank repeats on its own
    let n_params = wl.build_model().as_visitor().num_params();
    let mesh = poll_mesh(WORKERS + 1);
    let setup_s = t0.elapsed().as_secs_f64();
    let steps = spec.steps as usize;
    let mut ep = Episode {
        seed,
        setup_s,
        wall_s: f64::NAN,
        steps: spec.steps,
        batch: cfg.batch_size,
        workers: Vec::new(),
        global: Vec::new(),
        clock0: StepClock::default(),
        wire_bytes: 0,
        messages: 0,
        spans: Vec::new(),
        errors: Vec::new(),
    };
    let mut mesh = match mesh {
        Ok(m) => m,
        Err(e) => {
            ep.errors.push(format!("mesh connect: {e}"));
            return ep;
        }
    };
    let cfg = Arc::new(cfg);
    let wl = Arc::new(wl);
    // worst case per step: flags send + wait, every bucket of the push,
    // the round reply — plus the step spans and the root
    let buckets = spec.overlap_buckets.map_or(1, |b| n_params.div_ceil(b));
    let worker_cap = steps * (buckets + 6) + 16;
    let server_cap = steps * WORKERS * (buckets + 2) + 64;

    let origin = Instant::now();
    let server_ep = mesh.pop().expect("mesh has a PS rank");
    let server = {
        let (cfg, wl) = (Arc::clone(&cfg), Arc::clone(&wl));
        let spans = trace.map(|id| SpanBuf::with_capacity(id, server_cap));
        ranks.run(WORKERS, move || {
            let mut t = match spans {
                Some(buf) => Timed::new(server_ep, Role::Server, origin, 0, 0, Some(buf)),
                None => Timed::plain(server_ep),
            };
            let r = run_server_rank(&mut t, &cfg, &wl);
            (r, t)
        })
    };
    let workers: Vec<_> = mesh
        .into_iter()
        .enumerate()
        .map(|(w, wep)| {
            let (cfg, wl) = (Arc::clone(&cfg), Arc::clone(&wl));
            let spans = trace.map(|id| SpanBuf::with_capacity(id, worker_cap));
            ranks.run(w, move || {
                let role = Role::Worker { server: WORKERS };
                let mut t = if w == 0 || spans.is_some() {
                    Timed::new(wep, role, origin, steps, 0, spans)
                } else {
                    Timed::plain(wep)
                };
                let r = run_worker_rank(&mut t, &cfg, &wl);
                (r, t)
            })
        })
        .collect();

    let mut kept = Vec::new();
    for (w, h) in workers.into_iter().enumerate() {
        match h.recv() {
            Ok((Ok(out), t)) => {
                ep.workers.push(out);
                kept.push((format!("w{w}"), t));
            }
            Ok((Err(e), t)) => {
                ep.errors.push(format!("worker {w}: {e}"));
                kept.push((format!("w{w}"), t));
            }
            Err(_) => ep.errors.push(format!("worker {w} panicked")),
        }
    }
    match server.recv() {
        Ok((Ok(global), t)) => {
            ep.global = global;
            kept.push(("ps".to_string(), t));
        }
        Ok((Err(e), t)) => {
            ep.errors.push(format!("PS: {e}"));
            kept.push(("ps".to_string(), t));
        }
        Err(_) => ep.errors.push("PS panicked".to_string()),
    }
    ep.wall_s = origin.elapsed().as_secs_f64();
    if ep.errors.is_empty() && ep.workers.len() != WORKERS {
        ep.errors.push("a worker produced no output".to_string());
    }

    for (name, mut t) in kept {
        let stats = t.stats();
        ep.wire_bytes += stats.total_bytes();
        ep.messages += stats.total_messages();
        if name == "w0" {
            ep.clock0 = t.clock().clone();
        }
        if let Some(buf) = t.take_spans() {
            ep.spans.push((name, buf));
        }
        // dropping `t` tears the endpoint down once every rank is done
    }
    ep
}

/// Check one episode's outputs; `Err` says what is wrong.
pub fn check_episode(spec: &TrainSpec, ep: &Episode) -> Result<(), String> {
    if let Some(e) = ep.errors.first() {
        return Err(e.clone());
    }
    for w in &ep.workers {
        if !w.final_params.iter().all(|v| v.is_finite()) {
            return Err(format!("worker {} replica is not finite", w.worker));
        }
    }
    if !ep.global.iter().all(|v| v.is_finite()) {
        return Err("PS parameters are not finite".into());
    }
    if matches!(spec.strategy, Strategy::Bsp { .. }) {
        let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let first = bits(&ep.workers[0].final_params);
        if ep.workers.iter().any(|w| bits(&w.final_params) != first) {
            return Err("BSP worker replicas are not bit-identical".into());
        }
    }
    if ep.tta_s(spec.target).is_none() {
        return Err(format!(
            "seed {}: top-1 target {} missed (final {:.3})",
            ep.seed,
            spec.target,
            ep.final_accuracy().unwrap_or(f64::NAN)
        ));
    }
    let periods = ep.clock0.periods_ms().len();
    if periods != ep.steps as usize {
        return Err(format!("step clock saw {periods} of {} steps", ep.steps));
    }
    Ok(())
}

/// Median setup time over episodes.
pub fn median_setup(eps: &[Episode]) -> f64 {
    median(&eps.iter().map(|e| e.setup_s).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_core::prelude::EvalRecord;
    use selsync_stats::LssrCounter;

    fn tiny(strategy: Strategy, overlap_buckets: Option<usize>) -> TrainSpec {
        TrainSpec {
            kind: ModelKind::VggMini,
            strategy,
            overlap_buckets,
            base_lr: None,
            steps: 12,
            data_scale: 96,
            eval_every: 6,
            target: 0.0,
        }
    }

    /// The same run with every rank on a bare `PollTcpEndpoint`.
    fn unwrapped(spec: &TrainSpec, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>, u64, u64) {
        let cfg = Arc::new(spec.config(seed));
        let wl = Arc::new(spec.workload(seed));
        let mut mesh = poll_mesh(WORKERS + 1).unwrap();
        let stats: Vec<_> = mesh.iter().map(|ep| Arc::clone(ep.stats())).collect();
        let server_ep = mesh.pop().unwrap();
        let server = {
            let (cfg, wl) = (Arc::clone(&cfg), Arc::clone(&wl));
            thread::spawn(move || run_server_rank(server_ep, &cfg, &wl).unwrap())
        };
        let workers: Vec<_> = mesh
            .into_iter()
            .map(|ep| {
                let (cfg, wl) = (Arc::clone(&cfg), Arc::clone(&wl));
                thread::spawn(move || run_worker_rank(ep, &cfg, &wl).unwrap())
            })
            .collect();
        let params = workers
            .into_iter()
            .map(|h| h.join().unwrap().final_params)
            .collect();
        let global = server.join().unwrap();
        let bytes = stats.iter().map(|s| s.total_bytes()).sum();
        let msgs = stats.iter().map(|s| s.total_messages()).sum();
        (params, global, bytes, msgs)
    }

    fn bits(p: &[f32]) -> Vec<u32> {
        p.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn the_timing_adapter_only_observes() {
        let selsync = Strategy::SelSync {
            delta: 0.1,
            aggregation: Aggregation::Parameter,
        };
        let bsp = Strategy::Bsp {
            aggregation: Aggregation::Gradient,
        };
        for spec in [tiny(selsync, None), tiny(bsp, Some(512))] {
            let (params, global, bytes, msgs) = unwrapped(&spec, 5);
            let traced = run_episode(&RankThreads::new(WORKERS + 1), &spec, 5, Some(1));
            assert!(traced.errors.is_empty(), "{:?}", traced.errors);
            for (w, p) in traced.workers.iter().zip(&params) {
                assert_eq!(
                    bits(&w.final_params),
                    bits(p),
                    "worker {} diverged",
                    w.worker
                );
            }
            assert_eq!(bits(&traced.global), bits(&global));
            assert_eq!((traced.wire_bytes, traced.messages), (bytes, msgs));
            assert_eq!(traced.spans.len(), WORKERS + 1);
            for (rank, buf) in &traced.spans {
                assert_eq!(buf.dropped, 0, "{rank} overflowed");
                assert!(
                    buf.spans().iter().any(|s| s.name == "rank"),
                    "{rank} has no root"
                );
            }
            assert_eq!(traced.clock0.periods_ms().len(), 12);
        }
    }

    #[test]
    fn tta_interpolates_between_the_evals_around_the_crossing() {
        let evals = [(9, 0.5), (19, 0.7), (29, 0.9)]
            .iter()
            .map(|&(step, metric)| EvalRecord {
                step,
                epoch: 0.0,
                metric,
            })
            .collect();
        let mut step_end = vec![0; 30];
        step_end[9] = 1_000_000_000;
        step_end[19] = 2_000_000_000;
        step_end[29] = 4_000_000_000;
        let ep = Episode {
            seed: 0,
            setup_s: 0.0,
            wall_s: 4.0,
            steps: 30,
            batch: 8,
            workers: vec![WorkerOutput {
                worker: 0,
                final_params: vec![],
                lssr: LssrCounter::new(),
                records: vec![],
                evals,
                logical_sync_bytes: 0,
            }],
            global: vec![],
            clock0: StepClock {
                init_end: 1,
                step_end,
            },
            wire_bytes: 0,
            messages: 0,
            spans: vec![],
            errors: vec![],
        };
        let t = ep.tta_s(0.8).unwrap();
        assert!((t - 3.0).abs() < 1e-6, "{t}");
        assert!(
            (ep.tta_s(0.4).unwrap() - 1.0).abs() < 1e-9,
            "met at the first eval"
        );
        assert!(ep.tta_s(0.95).is_none());
        assert!((ep.samples_per_s() - 30.0 * 8.0 * 2.0 / 4.0).abs() < 1e-9);
    }
}
