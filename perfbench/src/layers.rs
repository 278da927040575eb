//! Per-layer probes: each layer's public functions timed in isolation,
//! every number the median of repeated samples.

use crate::report::{median, Metrics, Tally};
use crate::serve::{init_params, DIMS};
use crate::train::{poll_mesh, TrainSpec, WORKERS};
use selsync_comm::{Payload, Transport};
use selsync_core::prelude::OptimKind;
use selsync_core::workload::WorkloadData;
use selsync_data::{partition_indices, BatchCursor};
use selsync_net::{crc32, decode_frame, encode_frame};
use selsync_nn::loss::softmax_cross_entropy;
use selsync_nn::models::{ModelKind, VggMini};
use selsync_nn::module::ParamVisitor;
use selsync_nn::{Optimizer, Sgd};
use selsync_serve::{request_payload, ModelSpec, PredictEngine};
use selsync_stats::RelativeGradChange;
use selsync_tensor::matmul::matmul_into;
use selsync_tensor::reduce::sqnorm_slice;
use selsync_tensor::Tensor;
use std::thread;
use std::time::Instant;

/// Training-step samples per probe.
const STEP_SAMPLES: usize = 200;
/// ResNetMini's hottest conv GEMM: the `layer1_0` 3×3 convolutions'
/// backward input-gradient product at batch 8 — `dy[512×8] · W[8×72]`
/// (rows = 8 images × 8×8 positions, 72 = 8 channels × 3×3 taps).
const GEMM_MNK: (usize, usize, usize) = (512, 8, 72);
/// Gradient bucket size of `bsp_vgg`.
pub const BUCKET: usize = 4096;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Per-step timings of one probe thread, in seconds.
#[derive(Default)]
struct PassSamples {
    batch: Vec<f64>,
    forward: Vec<f64>,
    backward: Vec<f64>,
    delta_g: Vec<f64>,
    optim: Vec<f64>,
    step: Vec<f64>,
    finite: bool,
}

/// One worker's local training loop, timed pass by pass.
fn probe_passes(spec: &TrainSpec, seed: u64) -> PassSamples {
    let cfg = spec.config(seed);
    let wl = spec.workload(seed);
    let WorkloadData::Vision { train, .. } = &wl.data else {
        unreachable!("benchmark workloads are vision workloads");
    };
    let mut model = wl.build_model();
    let mut cursor = BatchCursor::new(
        partition_indices(train.len(), 1, 0, cfg.partition),
        cfg.batch_size,
    );
    let OptimKind::Sgd {
        momentum,
        weight_decay,
    } = cfg.optim
    else {
        unreachable!("both training recipes use SGD");
    };
    let mut opt = Sgd::with_momentum(cfg.lr.at(0), momentum, weight_decay);
    let mut relchange = RelativeGradChange::new(cfg.ewma_window, cfg.ewma_alpha);
    let mut s = PassSamples {
        finite: true,
        ..PassSamples::default()
    };
    for _ in 0..STEP_SAMPLES {
        let t_step = Instant::now();
        let t = Instant::now();
        let batch = cursor.next_batch(train);
        s.batch.push(secs(t));
        let t = Instant::now();
        let logits = model.as_model().forward(&batch.input, true);
        s.forward.push(secs(t));
        let (loss, dlogits) = softmax_cross_entropy(&logits, &batch.targets);
        model.as_model().zero_grad();
        let t = Instant::now();
        model.as_model().backward(&dlogits);
        s.backward.push(secs(t));
        let t = Instant::now();
        let mut sq = 0.0;
        model
            .as_visitor()
            .visit_params(&mut |p| sq += sqnorm_slice(p.grad.as_slice()));
        let dg = relchange.update(sq);
        s.delta_g.push(secs(t));
        let t = Instant::now();
        opt.step(model.as_model());
        s.optim.push(secs(t));
        s.step.push(secs(t_step));
        s.finite &= loss.is_finite() && !dg.is_nan();
    }
    s
}

/// Time the per-step layer passes of `spec`'s model at its batch size
/// and recipe: batch draw, forward, backward, Δ(g) tracking, optimizer
/// step, and a whole local step without communication. One probe thread
/// per worker runs at once, so the passes share the cores as they do in
/// training; the medians pool both threads.
pub fn step_passes(spec: &TrainSpec, seed: u64, m: &mut Metrics, tally: &mut Tally) {
    let threads: Vec<PassSamples> = thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| scope.spawn(|| probe_passes(spec, seed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let pooled = |f: fn(&PassSamples) -> &Vec<f64>| -> Vec<f64> {
        threads.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let (batch_s, fwd_s, bwd_s) = (
        pooled(|s| &s.batch),
        pooled(|s| &s.forward),
        pooled(|s| &s.backward),
    );
    let (dg_s, opt_s, step_s) = (
        pooled(|s| &s.delta_g),
        pooled(|s| &s.optim),
        pooled(|s| &s.step),
    );
    let finite = threads.iter().all(|s| s.finite);
    tally.check(finite, || "local training probe went non-finite".into());
    let ms = |v: &[f64]| median(v) * 1e3;
    m.put("data.batch_us", median(&batch_s) * 1e6, "us");
    m.put("nn.forward_ms", ms(&fwd_s), "ms");
    m.put("nn.backward_ms", ms(&bwd_s), "ms");
    m.put("stats.relchange_us", median(&dg_s) * 1e6, "us");
    m.put("nn.optim_step_ms", ms(&opt_s), "ms");
    m.put("nn.local_step_ms", ms(&step_s), "ms");
    let share = median(&dg_s) / median(&step_s);
    m.put("stats.relchange_share", share, "fraction");
    let paper = selsync_core::timing::paper_relchange_overhead(spec.kind);
    let paper_compute = selsync_core::timing::paper_compute_time(spec.kind);
    eprintln!(
        "Δ(g) overhead on {:?}: measured {:.2} µs = {:.3}% of the {:.3} ms local step; \
         paper (modeled, Fig. 8a constants): {:.1} ms = {:.1}% of {:.0} ms",
        spec.kind,
        median(&dg_s) * 1e6,
        share * 100.0,
        ms(&step_s),
        paper * 1e3,
        paper / paper_compute * 100.0,
        paper_compute * 1e3
    );
}

/// `matmul_into` GFLOP/s at [`GEMM_MNK`].
pub fn gemm(m: &mut Metrics) {
    let (rows, k, n) = GEMM_MNK;
    let a = Tensor::from_vec(
        (0..rows * k).map(|i| (i % 7) as f32 * 0.1).collect(),
        [rows, k],
    );
    let b = Tensor::from_vec((0..k * n).map(|i| (i % 5) as f32 * 0.2).collect(), [k, n]);
    let mut c = Tensor::zeros([rows, n]);
    let flops = 2.0 * (rows * k * n) as f64;
    let reps = 50;
    let samples: Vec<f64> = (0..40)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                matmul_into(&a, &b, &mut c);
            }
            flops * f64::from(reps) / secs(t) / 1e9
        })
        .collect();
    m.put("tensor.gemm_gflops", median(&samples), "GFLOP/s");
}

/// Codec GB/s on a VggMini-size `Grads` frame plus one `Bucket(4096)`
/// frame; every sample's decode must reproduce its payload exactly.
pub fn codec(m: &mut Metrics, tally: &mut Tally) {
    let n = vgg_params();
    let grads = Payload::Grads((0..n).map(|i| (i as f32 * 0.37).sin()).collect());
    let bucket = Payload::Bucket {
        bucket: 1,
        n_buckets: n.div_ceil(BUCKET) as u32,
        values: (0..BUCKET).map(|i| (i as f32 * 0.11).cos()).collect(),
    };
    let payloads = [grads, bucket];
    let (mut enc, mut dec, mut crc) = (vec![], vec![], vec![]);
    let mut exact = true;
    for i in 0..60u64 {
        let t = Instant::now();
        let frames: Vec<_> = payloads.iter().map(|p| encode_frame(1, i, p)).collect();
        let te = secs(t);
        let bytes: usize = frames.iter().map(|f| f.len()).sum();
        let t = Instant::now();
        let sums: u32 = frames.iter().map(|f| crc32(f)).fold(0, u32::wrapping_add);
        let tc = secs(t);
        let t = Instant::now();
        let decoded: Vec<_> = frames.iter().map(|f| decode_frame(f)).collect();
        let td = secs(t);
        for (d, p) in decoded.iter().zip(&payloads) {
            exact &= matches!(d, Ok(msg) if msg.payload == *p && msg.tag == i && msg.from == 1);
        }
        std::hint::black_box(sums);
        let gb = bytes as f64 / 1e9;
        enc.push(gb / te);
        crc.push(gb / tc);
        dec.push(gb / td);
    }
    tally.check(exact, || "decode(encode(p)) != p".into());
    m.put("net.encode_gbps", median(&enc), "GB/s");
    m.put("net.decode_gbps", median(&dec), "GB/s");
    m.put("net.crc32_gbps", median(&crc), "GB/s");
}

fn vgg_params() -> usize {
    VggMini::new(ModelKind::VggMini.default_classes(), 0).num_params()
}

/// Round-trip time of a 1-byte `Flags` frame and one-way bulk
/// throughput of VggMini-size gradient frames between two
/// `PollTcpEndpoint`s.
pub fn fabric(m: &mut Metrics, tally: &mut Tally) {
    const PINGS: u64 = 300;
    const ROUNDS: u64 = 10;
    const FRAMES: usize = 16;
    let mut mesh = match poll_mesh(2) {
        Ok(m) => m,
        Err(e) => {
            tally.op(Err(format!("fabric probe mesh: {e}")));
            return;
        }
    };
    let mut b = mesh.pop().expect("rank 1");
    let mut a = mesh.pop().expect("rank 0");
    let grads: Vec<f32> = (0..vgg_params()).map(|i| i as f32).collect();
    let echo = thread::spawn(move || -> Result<(), String> {
        for tag in 0..PINGS {
            let msg = b.recv_tagged(Some(0), tag).map_err(|e| e.to_string())?;
            b.send(0, tag, msg.payload).map_err(|e| e.to_string())?;
        }
        for round in 0..ROUNDS {
            let tag = PINGS + round;
            for _ in 0..FRAMES {
                b.recv_tagged(Some(0), tag).map_err(|e| e.to_string())?;
            }
            b.send(0, tag, Payload::Control(round))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    let mut rtt = Vec::new();
    let mut bulk = Vec::new();
    let mut run = || -> Result<(), String> {
        for tag in 0..PINGS {
            let t = Instant::now();
            a.send(1, tag, Payload::Flags(vec![1]))
                .map_err(|e| e.to_string())?;
            let back = a.recv_tagged(Some(1), tag).map_err(|e| e.to_string())?;
            rtt.push(secs(t) * 1e6);
            if back.payload != Payload::Flags(vec![1]) {
                return Err("flags frame came back altered".into());
            }
        }
        for round in 0..ROUNDS {
            let tag = PINGS + round;
            let payload = Payload::Grads(grads.clone());
            let bytes = payload.wire_bytes() as f64 * FRAMES as f64;
            let t = Instant::now();
            for _ in 0..FRAMES {
                a.send(1, tag, payload.clone()).map_err(|e| e.to_string())?;
            }
            a.recv_tagged(Some(1), tag).map_err(|e| e.to_string())?;
            bulk.push(bytes / secs(t) / 1e6);
        }
        Ok(())
    };
    let sent = run();
    let echoed = echo
        .join()
        .unwrap_or_else(|_| Err("echo thread panicked".into()));
    tally.op(sent.and(echoed).map_err(|e| format!("fabric probe: {e}")));
    m.put("net.rtt_us", median(&rtt), "us");
    m.put("net.bulk_mb_s", median(&bulk), "MB/s");
}

/// `PredictEngine::predict` at batch 1 and 8 on `kind`.
pub fn predict(kind: ModelKind, data_scale: usize, seed: u64, m: &mut Metrics, tally: &mut Tally) {
    let params = init_params(kind, data_scale, seed);
    let spec = ModelSpec::Kind { kind, data_scale };
    let mut engine = match PredictEngine::new(&spec, seed, &params) {
        Ok(e) => e,
        Err(e) => {
            tally.op(Err(format!("predict probe: {e}")));
            return;
        }
    };
    let feat: usize = DIMS.iter().product();
    for rows in [1usize, 8] {
        let data: Vec<f32> = (0..rows as u64)
            .flat_map(|r| request_payload(seed, r, feat))
            .collect();
        engine.warmup(rows, &DIMS);
        let samples: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                let out = engine.predict(&data, &DIMS);
                let dt = secs(t);
                std::hint::black_box(out.map(|v| v.len()).unwrap_or(0));
                dt * 1e3
            })
            .collect();
        m.put(&format!("serve.predict_ms_b{rows}"), median(&samples), "ms");
    }
}
