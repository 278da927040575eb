//! The repository benchmark: one named workload at one seed, its
//! outputs checked, failed operations counted against attempted ones,
//! and every metric printed by name with its unit. The last line of
//! standard output is the JSON verdict; everything else goes to stderr.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload selsync_resnet --seed 1 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer metrics instead.
//! `perfbench/README.md` maps every metric to its layer and workload.

mod layers;
mod report;
mod serve;
mod trace;
mod train;

use report::{median, min_of, p99, per_window, tail_percentile, Metrics, Tally};
use selsync_core::prelude::*;
use serve::{Group, Stage};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{SpanBuf, NO_PARENT};
use train::{check_episode, run_episode, Episode, RankThreads, TrainSpec, WORKERS};

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [&str; 11] = [
    "samples_per_s",
    "step_ms_p50",
    "step_ms_p99",
    "tta_s",
    "final_accuracy",
    "wire_bytes_per_step",
    "serve_p50_ms",
    "serve_p99_ms",
    "serve_max_rps",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 30] = [
    "core.compute_ms",
    "core.unexplained_ms",
    "core.sync_fraction",
    "comm.flags_wait_ms",
    "comm.push_ms",
    "comm.round_wait_ms",
    "comm.ps_busy_ms",
    "comm.ps_idle_share",
    "comm.msgs_per_step",
    "nn.forward_ms",
    "nn.backward_ms",
    "nn.optim_step_ms",
    "nn.local_step_ms",
    "stats.relchange_us",
    "stats.relchange_share",
    "tensor.gemm_gflops",
    "data.batch_us",
    "net.encode_gbps",
    "net.decode_gbps",
    "net.crc32_gbps",
    "net.rtt_us",
    "net.bulk_mb_s",
    "serve.predict_ms_b1",
    "serve.predict_ms_b8",
    "serve.replica_busy_ms",
    "serve.router_busy_share",
    "serve.rows_per_batch",
    "serve.alloc_growth",
    "serve.gen_late_ms",
    "bench.trace_overhead",
];

/// The traced run fails when worker compute outside the transport and
/// the sum of its timed layer passes differ by more than this share of
/// the compute time.
const RECONCILE_TOL: f64 = 0.5;

/// Untraced/traced episode pairs behind `bench.trace_overhead`.
const OVERHEAD_PAIRS: usize = 3;

/// Data scale of every workload (`Workload::for_kind`).
const DATA_SCALE: usize = 768;

/// `selsync_resnet`: the paper's headline path.
const SELSYNC_RESNET: TrainSpec = TrainSpec {
    kind: ModelKind::ResNetMini,
    strategy: Strategy::SelSync {
        delta: 0.1,
        aggregation: Aggregation::Parameter,
    },
    overlap_buckets: None,
    base_lr: None,
    steps: 400,
    data_scale: DATA_SCALE,
    eval_every: 25,
    target: 0.80,
};

/// `bsp_vgg`: comm-bound BSP with bucketed gradient pushes. The recipe's
/// base LR of 0.01 leaves about one seed in sixty with every ReLU dead
/// after the first steps (loss stuck at ln 20); half of it trains every
/// seed surveyed, the slowest reaching the target by step 225.
const BSP_VGG: TrainSpec = TrainSpec {
    kind: ModelKind::VggMini,
    strategy: Strategy::Bsp {
        aggregation: Aggregation::Gradient,
    },
    overlap_buckets: Some(layers::BUCKET),
    base_lr: Some(0.005),
    steps: 400,
    data_scale: DATA_SCALE,
    eval_every: 25,
    target: 0.30,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SelSyncResnet,
    BspVgg,
    ServeResnet,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "selsync_resnet" => Some(Workload::SelSyncResnet),
            "bsp_vgg" => Some(Workload::BspVgg),
            "serve_resnet" => Some(Workload::ServeResnet),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SelSyncResnet => "selsync_resnet",
            Workload::BspVgg => "bsp_vgg",
            Workload::ServeResnet => "serve_resnet",
        }
    }

    /// The training workload, or for `serve_resnet` the SelSync run its
    /// training-side numbers come from.
    fn train_spec(self) -> TrainSpec {
        match self {
            Workload::BspVgg => BSP_VGG,
            Workload::SelSyncResnet | Workload::ServeResnet => SELSYNC_RESNET,
        }
    }

    fn model(self) -> ModelKind {
        self.train_spec().kind
    }

    /// Rough seconds one episode takes on the 2-core reference box;
    /// fixes how many episodes fit a run, so the episode seeds (and
    /// with them every quality number) depend on `--seed` only.
    fn episode_s(self) -> f64 {
        match self {
            Workload::BspVgg => 1.6,
            Workload::SelSyncResnet | Workload::ServeResnet => 1.7,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    });
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let seconds: f64 = seconds.unwrap_or(35.0);
        if !(1.0..=120.0).contains(&seconds) {
            return Err("--seconds must lie in 1..=120".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload selsync_resnet|bsp_vgg|serve_resnet \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    if args.trace {
        traced(&args, &mut m, &mut tally);
    } else {
        untraced(&args, &mut m, &mut tally);
    }
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let out = match m.select(wanted) {
        Ok(out) => out,
        Err(e) => {
            tally.check(false, || e.clone());
            let mut padded = Metrics::default();
            for name in wanted {
                padded.put(name, m.get(name).unwrap_or(f64::NAN), "missing");
            }
            padded
        }
    };
    eprintln!(
        "perfbench {} seed={} trace={} attempted={} failed={} broken_checks={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        tally.attempted,
        tally.failed,
        tally.broken_checks
    );
    for why in &tally.reasons {
        eprintln!("  FAIL {why}");
    }
    eprint!("{}", out.table());
    println!("{}", out.verdict_json(&tally));
    ExitCode::SUCCESS
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Seed of episode `k` of a run at `seed`.
fn episode_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

/// Episodes that fit in `secs` seconds at `per_episode_s` each, but
/// always enough for 1000 step samples (so ten lie beyond the p99).
fn episode_count(args: &Args, secs: f64, per_episode_s: f64) -> u64 {
    let min = 1000u64.div_ceil(args.workload.train_spec().steps);
    ((secs / per_episode_s) as u64).max(min)
}

/// Rough seconds a serving pass spends beyond its stages: set-up, first
/// reply, drains.
const SERVE_SLACK_S: f64 = 1.5;

/// Seconds one reference window takes.
fn window_s() -> f64 {
    serve::WINDOW as f64 / serve::REF_RATE
}

fn untraced(args: &Args, m: &mut Metrics, tally: &mut Tally) {
    match args.workload {
        Workload::SelSyncResnet | Workload::BspVgg => untraced_training(args, m, tally),
        Workload::ServeResnet => untraced_serving(args, m, tally),
    }
}

/// Training workloads: a fixed number of seeded episodes, each followed
/// by one reference window of serving the first episode's model from a
/// checkpoint (train → checkpoint → serve), then the rate climb.
fn untraced_training(args: &Args, m: &mut Metrics, tally: &mut Tally) {
    let spec = args.workload.train_spec();
    let per_episode_s = args.workload.episode_s() + window_s();
    let n = episode_count(
        args,
        args.seconds - serve::ladder_s() - SERVE_SLACK_S,
        per_episode_s,
    );
    let ranks = RankThreads::new(WORKERS + 1);
    let mut eps = Vec::new();
    let mut group = None;
    let mut windows = Vec::new();
    for k in 0..n {
        let ep = run_episode(&ranks, &spec, episode_seed(args.seed, k), None);
        tally.op(check_episode(&spec, &ep));
        // serve the first episode's model; one reference window follows
        // every episode, so the latency windows spread over the run
        if group.is_none() {
            if let Some(params) = ep.served_params() {
                let requests = n as usize * serve::WINDOW + serve::ladder_requests();
                match prepare_group(args, params, None, requests) {
                    Ok((g, _, _)) => group = Some(g),
                    Err(e) => tally.op(Err(e)),
                }
            }
        }
        if let Some(g) = &mut group {
            match g.stage(serve::REF_RATE, serve::WINDOW, tally) {
                Ok(st) => windows.push(st),
                Err(e) => tally.op(Err(e)),
            }
        }
        eps.push(ep);
    }
    let sps: Vec<f64> = eps.iter().map(Episode::samples_per_s).collect();
    m.put("samples_per_s", median(&sps), "samples/s");
    let periods: Vec<f64> = eps.iter().flat_map(|e| e.clock0.periods_ms()).collect();
    step_percentiles(&periods, m, tally);
    // quality varies with the episode seed and is bounded: the mean over
    // episodes is the steadier estimate
    let tta: Vec<f64> = eps.iter().filter_map(|e| e.tta_s(spec.target)).collect();
    m.put("tta_s", mean(&tta), "s");
    let acc: Vec<f64> = eps.iter().filter_map(Episode::final_accuracy).collect();
    m.put("final_accuracy", mean(&acc), "fraction");
    let bytes: u64 = eps.iter().map(|e| e.wire_bytes).sum();
    let steps: u64 = eps.iter().map(|e| e.steps).sum();
    m.put("wire_bytes_per_step", bytes as f64 / steps as f64, "bytes");
    m.put("setup_s", train::median_setup(&eps), "s");
    eprintln!("trained {n} episodes: samples/s {sps:.0?}, tta {tta:.3?} s, final top-1 {acc:.3?}");

    let Some(mut group) = group else {
        return;
    };
    let mut stages = vec![Stage::concat(windows)];
    match serve::climb(&mut group, tally) {
        Ok(rungs) => stages.extend(rungs),
        Err(e) => tally.op(Err(e)),
    }
    report_stages(&stages);
    let end = group.finish();
    check_group_end(&end, tally);
    serve_metrics(&stages, m);
}

/// Write, load and serve a checkpoint of `params` and wait for the
/// first verified reply; returns the group, its set-up seconds and the
/// seconds from the start of the checkpoint load to that reply.
fn prepare_group(
    args: &Args,
    params: &[f32],
    trace: Option<u64>,
    requests: usize,
) -> Result<(Group, f64, f64), String> {
    let path = scratch_dir()?.join(format!("serve-{}.ssv2", std::process::id()));
    let prep = serve::prepare(args.workload.model(), DATA_SCALE, args.seed, params, &path)?;
    let (setup_s, load_start) = (prep.setup_s, prep.load_start);
    let mut group = Group::start(prep, args.seed, trace, requests);
    let mut scratch = Tally::default();
    let ready = match (group.first_reply(&mut scratch), scratch.correct()) {
        (Ok(at), true) => Ok(at),
        (Err(e), _) => Err(e),
        (Ok(_), false) => Err(scratch.reasons.join("; ")),
    };
    match ready {
        Ok(at) => Ok((group, setup_s, at.duration_since(load_start).as_secs_f64())),
        Err(e) => {
            // join the ranks before reporting
            group.finish();
            Err(e)
        }
    }
}

/// The reference stage (latency, `ref_windows` windows) then the ladder
/// (max rate).
fn serve_stages(group: &mut Group, ref_windows: usize, tally: &mut Tally) -> Vec<Stage> {
    let mut stages = Vec::new();
    match group.stage(serve::REF_RATE, ref_windows * serve::WINDOW, tally) {
        Ok(st) => stages.push(st),
        Err(e) => {
            tally.op(Err(e));
            return stages;
        }
    }
    match serve::climb(group, tally) {
        Ok(rungs) => stages.extend(rungs),
        Err(e) => tally.op(Err(e)),
    }
    report_stages(&stages);
    stages
}

fn report_stages(stages: &[Stage]) {
    if let Some(reference) = stages.first() {
        eprintln!(
            "reference window p99s (ms): {:.2?}",
            reference.per_window(p99)
        );
    }
    for st in stages {
        eprintln!(
            "stage {:>6.0} req/s: sent {:>6} answered {:>6} p50 {:>7.3} ms p99 {:>7.3} ms \
             late p99 {:>6.3} ms backlog {:?} -> {}",
            st.rate,
            st.sent,
            st.answered(),
            st.p50(),
            st.p99(),
            p99(&st.late_ms).unwrap_or(f64::NAN),
            st.window_backlog,
            if st.sustained() {
                "sustained"
            } else {
                "not sustained"
            }
        );
    }
}

fn check_group_end(end: &serve::GroupEnd, tally: &mut Tally) {
    for e in &end.errors {
        tally.op(Err(e.clone()));
    }
    if let Some(r) = &end.replica {
        tally.check(r.alloc_final == r.alloc_after_warmup, || {
            format!(
                "replica allocated after warm-up ({} -> {})",
                r.alloc_after_warmup, r.alloc_final
            )
        });
    }
}

/// Serving latency is reported from the best reference window: the
/// shared box's scheduler stalls come in bursts that spoil some windows
/// and spare others, while a slower system is slower in every window.
fn serve_metrics(stages: &[Stage], m: &mut Metrics) {
    let (p50s, p99s) = stages.first().map_or((vec![], vec![]), |st| {
        (
            st.per_window(|w| (!w.is_empty()).then(|| median(w))),
            st.per_window(p99),
        )
    });
    m.put("serve_p50_ms", min_of(&p50s), "ms");
    m.put("serve_p99_ms", min_of(&p99s), "ms");
    m.put("serve_max_rps", serve::max_rps(stages), "req/s");
}

/// `serve_resnet`: several cold set-ups, then the reference stage and
/// the rate climb on the last group. Training-side metrics take their
/// serving analogues (README.md, "End-to-end metrics").
fn untraced_serving(args: &Args, m: &mut Metrics, tally: &mut Tally) {
    const SETUPS: usize = 9;

    let t0 = Instant::now();
    let params = serve::init_params(args.workload.model(), DATA_SCALE, args.seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let ref_windows =
        ((args.seconds - serve::ladder_s() - SERVE_SLACK_S) / window_s() - 1.0).max(3.0) as usize;
    let (mut setups, mut readies) = (Vec::new(), Vec::new());
    let mut group = None;
    for k in 0..SETUPS {
        let requests = ref_windows * serve::WINDOW + serve::ladder_requests();
        match prepare_group(args, &params, None, requests) {
            Ok((g, setup_s, ready_s)) => {
                setups.push(gen_s + setup_s);
                readies.push(ready_s);
                if k + 1 == SETUPS {
                    group = Some(g);
                } else {
                    check_group_end(&g.finish(), tally);
                }
            }
            Err(e) => tally.op(Err(e)),
        }
    }
    let Some(mut group) = group else {
        return;
    };
    let attempted_before = tally.attempted;
    let failed_before = tally.failed;
    let stages = serve_stages(&mut group, ref_windows, tally);
    let end = group.finish();
    check_group_end(&end, tally);
    let answered: usize = stages.iter().map(Stage::answered).sum();
    // the serving loop's "step" is one batch; its numbers come from the
    // reference stage
    let reference = stages.first();
    let service_ms: Vec<f64> = in_window(&end.service, reference)
        .map(|s| s as f64 / 1e6)
        .collect();
    let busy_s = service_ms.iter().sum::<f64>() / 1e3;
    let rows = reference.map_or(0, Stage::answered);
    m.put("samples_per_s", rows as f64 / busy_s, "samples/s");
    // like the latencies, from the best 1000-batch window
    let windows = |stat: fn(&[f64]) -> Option<f64>| per_window(&service_ms, serve::WINDOW, stat);
    m.put("step_ms_p50", min_of(&windows(|w| Some(median(w)))), "ms");
    m.put("step_ms_p99", min_of(&windows(p99)), "ms");
    // a cold start is short enough for one stall to double it; the best
    // of the set-ups moves only when every set-up slows
    eprintln!("cold starts (s): {readies:.4?}");
    m.put("tta_s", min_of(&readies), "s");
    let ops = tally.attempted - attempted_before;
    let ok = ops - (tally.failed - failed_before);
    m.put("final_accuracy", ok as f64 / ops.max(1) as f64, "fraction");
    m.put(
        "wire_bytes_per_step",
        end.wire_bytes as f64 / answered.max(1) as f64,
        "bytes",
    );
    m.put("setup_s", median(&setups), "s");
    serve_metrics(&stages, m);
}

/// Service times of batches whose receive fell inside `stage`'s window.
fn in_window<'a>(
    service: &'a [(u64, u64)],
    stage: Option<&Stage>,
) -> impl Iterator<Item = u64> + 'a {
    let (a, b) = stage.map_or((0, u64::MAX), |s| s.window_ns);
    service
        .iter()
        .filter(move |(at, _)| (a..=b).contains(at))
        .map(|(_, s)| *s)
}

fn step_percentiles(samples_ms: &[f64], m: &mut Metrics, tally: &mut Tally) {
    m.put("step_ms_p50", median(samples_ms), "ms");
    match tail_percentile(samples_ms, 99.0, 10) {
        Some(t) => {
            eprintln!(
                "step p{} = {:.3} ms over {} samples ({} beyond)",
                t.pct, t.value, t.samples, t.beyond
            );
            tally.check(t.pct >= 99.0, || {
                format!("only {} step samples: p99 lowered to p{}", t.samples, t.pct)
            });
            m.put("step_ms_p99", t.value, "ms");
        }
        None => {
            tally.check(false, || "too few step samples for a p99".into());
            m.put("step_ms_p99", f64::NAN, "ms");
        }
    }
}

/// The traced run: layer probes, an untraced and a traced episode of
/// the same seed (bit-identical by construction), per-layer numbers
/// from the traced episode's spans, and a traced serving stage.
fn traced(args: &Args, m: &mut Metrics, tally: &mut Tally) {
    let started = Instant::now();
    let run_id = run_id(args);
    let spec = args.workload.train_spec();
    let kind = args.workload.model();
    let seed = args.seed;

    layers::gemm(m);
    layers::codec(m, tally);
    layers::fabric(m, tally);
    layers::predict(kind, DATA_SCALE, seed, m, tally);

    // untraced and traced episodes of one seed alternate; the overhead
    // compares their medians, the last traced episode feeds the layers
    let ranks = RankThreads::new(WORKERS + 1);
    let (mut plain_sps, mut traced_sps) = (Vec::new(), Vec::new());
    let mut pair = None;
    for k in 0..OVERHEAD_PAIRS {
        let plain = run_episode(&ranks, &spec, seed, None);
        tally.op(check_episode(&spec, &plain));
        if k + 1 == OVERHEAD_PAIRS {
            // the layer passes the reconciliation gate compares against
            // are timed right before the traced episode: the shared box's
            // speed drifts over tens of seconds
            layers::step_passes(&spec, seed, m, tally);
        }
        let traced = run_episode(&ranks, &spec, seed, Some(run_id));
        tally.op(check_episode(&spec, &traced));
        transparency(&plain, &traced, tally);
        plain_sps.push(plain.samples_per_s());
        traced_sps.push(traced.samples_per_s());
        pair = Some((plain, traced));
    }
    let Some((plain, traced)) = pair else {
        return;
    };
    m.put(
        "bench.trace_overhead",
        median(&plain_sps) / median(&traced_sps) - 1.0,
        "fraction",
    );
    training_layers(&spec, &traced, m, tally);
    let mut all_spans: Vec<(String, &SpanBuf)> =
        traced.spans.iter().map(|(n, b)| (n.clone(), b)).collect();

    // a workload without a flags phase borrows it from a short SelSync
    // run on the same model
    let companion;
    if !spec.has_flags() {
        let flags_spec = TrainSpec {
            strategy: SELSYNC_RESNET.strategy,
            overlap_buckets: None,
            base_lr: None,
            steps: 100,
            target: 0.0,
            ..spec
        };
        companion = run_episode(&ranks, &flags_spec, seed, Some(run_id));
        tally.op(check_episode(&flags_spec, &companion));
        let per_step = phase_ms_per_step(&companion, "comm.flags_wait", companion.steps);
        m.put("comm.flags_wait_ms", per_step, "ms");
        all_spans.extend(
            companion
                .spans
                .iter()
                .map(|(n, b)| (format!("flags.{n}"), b)),
        );
    }

    let params = plain
        .served_params()
        .map(<[f32]>::to_vec)
        .unwrap_or_default();
    // the serving pass takes what is left of the run
    let left = args.seconds - started.elapsed().as_secs_f64() - SERVE_SLACK_S;
    let ref_windows = (left * serve::REF_RATE / serve::WINDOW as f64).max(2.0) as usize;
    let end = match prepare_group(args, &params, Some(run_id), ref_windows * serve::WINDOW) {
        Ok((mut group, _, _)) => {
            let stage = group.stage(serve::REF_RATE, ref_windows * serve::WINDOW, tally);
            let end = group.finish();
            check_group_end(&end, tally);
            match stage {
                Ok(st) => {
                    let late = p99(&st.late_ms).unwrap_or(f64::NAN);
                    m.put("serve.gen_late_ms", late, "ms");
                }
                Err(e) => tally.op(Err(e)),
            }
            Some(end)
        }
        Err(e) => {
            tally.op(Err(e));
            None
        }
    };
    if let Some(end) = &end {
        serving_layers(end, m, tally);
        all_spans.extend(end.spans.iter().map(|(n, b)| (format!("serve.{n}"), b)));
    }
    write_trace(args, run_id, &all_spans);
}

/// The traced episode must end exactly where the untraced one did: the
/// adapter only observes.
fn transparency(plain: &Episode, traced: &Episode, tally: &mut Tally) {
    let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let same_replicas = plain.workers.len() == traced.workers.len()
        && plain
            .workers
            .iter()
            .zip(&traced.workers)
            .all(|(a, b)| bits(&a.final_params) == bits(&b.final_params));
    tally.check(
        same_replicas && bits(&plain.global) == bits(&traced.global),
        || "traced parameters differ from the untraced run's".into(),
    );
    tally.check(
        (plain.wire_bytes, plain.messages) == (traced.wire_bytes, traced.messages),
        || "traced CommStats differ from the untraced run's".into(),
    );
}

/// Mean ms per step spent in spans named `name` across all workers.
fn phase_ms_per_step(ep: &Episode, name: &str, per: u64) -> f64 {
    let total: u64 = ep
        .spans
        .iter()
        .filter(|(rank, _)| rank.starts_with('w'))
        .flat_map(|(_, b)| b.spans())
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .sum();
    total as f64 / 1e6 / (per as f64 * WORKERS as f64)
}

/// Per-layer numbers of a traced training episode, plus the
/// reconciliation gate.
fn training_layers(spec: &TrainSpec, ep: &Episode, m: &mut Metrics, tally: &mut Tally) {
    let steps = ep.steps;
    let sync_steps = ep.workers.first().map_or(0, |w| w.lssr.sync_steps);
    let mut compute = Vec::new();
    let mut identity_err = 0u64;
    let mut dropped = 0u64;
    for (rank, buf) in &ep.spans {
        dropped += buf.dropped;
        if !rank.starts_with('w') {
            continue;
        }
        for (i, s) in buf.spans().iter().enumerate() {
            if s.name != "step" {
                continue;
            }
            let own = buf.self_time_ns(i as u32);
            let kids: u64 = buf
                .spans()
                .iter()
                .filter(|c| c.parent == i as u32)
                .map(|c| c.dur_ns())
                .sum();
            // compute + transport phases must add up to the step exactly
            identity_err = identity_err.max((own + kids).abs_diff(s.dur_ns()));
            compute.push(own as f64 / 1e6);
        }
    }
    tally.check(compute.len() == (steps as usize) * WORKERS, || {
        format!(
            "{} step spans for {} worker-steps",
            compute.len(),
            steps as usize * WORKERS
        )
    });
    tally.check(identity_err == 0, || {
        format!("compute + transport phases miss the step wall time by {identity_err} ns")
    });
    tally.check(dropped == 0, || {
        format!("{dropped} spans did not fit the buffers")
    });

    let compute_ms = median(&compute);
    m.put("core.compute_ms", compute_ms, "ms");
    let passes = ["nn.forward_ms", "nn.backward_ms", "nn.optim_step_ms"]
        .iter()
        .map(|n| m.get(n).unwrap_or(f64::NAN))
        .sum::<f64>()
        + m.get("data.batch_us").unwrap_or(f64::NAN) / 1e3
        + if spec.has_flags() {
            m.get("stats.relchange_us").unwrap_or(f64::NAN) / 1e3
        } else {
            0.0
        };
    let unexplained = compute_ms - passes;
    m.put("core.unexplained_ms", unexplained, "ms");
    eprintln!(
        "reconciliation: compute {compute_ms:.3} ms/step = layer passes {passes:.3} ms + \
         unexplained {unexplained:.3} ms (tolerance ±{:.0}%)",
        RECONCILE_TOL * 100.0
    );
    tally.check(unexplained.abs() <= RECONCILE_TOL * compute_ms, || {
        format!(
            "reconciliation gate: {unexplained:.3} ms of {compute_ms:.3} ms compute unexplained"
        )
    });

    if spec.has_flags() {
        m.put(
            "comm.flags_wait_ms",
            phase_ms_per_step(ep, "comm.flags_wait", steps),
            "ms",
        );
    }
    m.put(
        "comm.push_ms",
        phase_ms_per_step(ep, "comm.push", steps),
        "ms",
    );
    m.put(
        "comm.round_wait_ms",
        phase_ms_per_step(ep, "comm.round_wait", sync_steps.max(1)),
        "ms",
    );
    if let Some((_, ps)) = ep.spans.iter().find(|(rank, _)| rank == "ps") {
        let spans = ps.spans();
        let root = spans
            .iter()
            .position(|s| s.name == "rank" && s.parent == NO_PARENT);
        if let Some(root) = root {
            let wall = spans[root].dur_ns() as f64;
            let busy = ps.self_time_ns(root as u32) as f64;
            let idle: u64 = spans
                .iter()
                .filter(|s| s.name == "ps.recv")
                .map(|s| s.dur_ns())
                .sum();
            // rounds: every sync step plus the initial pull
            m.put(
                "comm.ps_busy_ms",
                busy / 1e6 / (sync_steps + 1) as f64,
                "ms",
            );
            m.put("comm.ps_idle_share", idle as f64 / wall, "fraction");
        }
    }
    m.put(
        "comm.msgs_per_step",
        ep.messages as f64 / steps as f64,
        "count",
    );
    let lssr = ep.workers.first().map_or(f64::NAN, |w| w.lssr.lssr());
    m.put("core.sync_fraction", 1.0 - lssr, "fraction");
}

fn serving_layers(end: &serve::GroupEnd, m: &mut Metrics, tally: &mut Tally) {
    let busy_of = |name: &str| -> Option<(f64, f64)> {
        let (_, buf) = end.spans.iter().find(|(n, _)| n == name)?;
        let root = buf.spans().iter().position(|s| s.name == "rank")?;
        Some((
            buf.self_time_ns(root as u32) as f64,
            buf.spans()[root].dur_ns() as f64,
        ))
    };
    let (router, replica) = (end.router.as_ref(), end.replica.as_ref());
    if let (Some((busy, _)), Some(r)) = (busy_of("replica"), replica) {
        m.put(
            "serve.replica_busy_ms",
            busy / 1e6 / r.served_batches.max(1) as f64,
            "ms",
        );
        m.put(
            "serve.alloc_growth",
            r.alloc_final.abs_diff(r.alloc_after_warmup) as f64,
            "count",
        );
    }
    if let Some((busy, wall)) = busy_of("router") {
        m.put("serve.router_busy_share", busy / wall, "fraction");
    }
    if let Some(r) = router {
        m.put(
            "serve.rows_per_batch",
            r.served_rows as f64 / r.batches.max(1) as f64,
            "count",
        );
    }
    let dropped: u64 = end.spans.iter().map(|(_, b)| b.dropped).sum();
    tally.check(dropped == 0, || {
        format!("{dropped} serving spans did not fit")
    });
}

/// One id per run, from the wall clock and the process id.
fn run_id(args: &Args) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    nanos ^ u64::from(std::process::id()) ^ args.seed.rotate_left(32)
}

/// Where the benchmark leaves run artifacts (the served checkpoint, the
/// span trace): a directory beside its own binary, i.e. inside the
/// build directory, never in the source tree.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("binary has no parent directory")?
        .join("perfbench-run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Write the spans of the traced run as JSON lines, one file per
/// workload, overwritten by the next traced run.
fn write_trace(args: &Args, run_id: u64, spans: &[(String, &SpanBuf)]) {
    let write = || -> Result<PathBuf, String> {
        let path = scratch_dir()?.join(format!("trace-{}.jsonl", args.workload.name()));
        let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        let mut out = std::io::BufWriter::new(file);
        for (rank, buf) in spans {
            buf.write_jsonl(rank, &mut out).map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())?;
        Ok(path)
    };
    match write() {
        Ok(path) => eprintln!("run {run_id}: spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written: {e}"),
    }
}

/// Process high-water resident set size, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for name in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(report::valid_metric_name(name), "{name}");
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        let declared = json.matches("\"name\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + 3,
            "3 workloads"
        );
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let a = Args::parse(
            [
                "--workload",
                "bsp_vgg",
                "--seed",
                "7",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::BspVgg, 7, 10.0, true)
        );
        assert!(Args::parse(["--workload", "nope"].into_iter().map(String::from)).is_err());
        assert!(Args::parse(["--trace", "2"].into_iter().map(String::from)).is_err());
    }

    #[test]
    fn episode_seeds_are_distinct_and_reproducible() {
        let a: Vec<u64> = (0..8).map(|k| episode_seed(3, k)).collect();
        let b: Vec<u64> = (0..8).map(|k| episode_seed(3, k)).collect();
        assert_eq!(a, b);
        let mut c = a.clone();
        c.dedup();
        assert_eq!(c.len(), a.len());
        assert_ne!(episode_seed(3, 0), episode_seed(4, 0));
    }
}
