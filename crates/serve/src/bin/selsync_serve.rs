//! `selsync_serve` — multi-process inference serving: run one rank of a
//! router + replica-group + client deployment over the TCP fabric.
//!
//! Rank layout (fixed, see `selsync_serve::protocol::Ranks`): replicas
//! are ranks `0..R`, the router is rank `R`, clients are `R+1..`. All
//! ranks take the same `--peers` list in rank order.
//!
//! ```sh
//! P="127.0.0.1:7200,127.0.0.1:7201,127.0.0.1:7202,127.0.0.1:7203"
//! selsync_serve --role replica --rank 0 --replicas 2 --peers $P \
//!               --checkpoint run.ckpt --model mlp --mlp-dims 16,32,8 --dims 16 &
//! selsync_serve --role replica --rank 1 --replicas 2 --peers $P \
//!               --checkpoint run.ckpt --model mlp --mlp-dims 16,32,8 --dims 16 &
//! selsync_serve --role router  --rank 2 --replicas 2 --peers $P --deadline-ms 5 &
//! selsync_serve --role client  --rank 3 --replicas 2 --peers $P --requests 500 --dims 16
//! wait
//! ```
//!
//! Replicas watch `--checkpoint` for new generations (poll + header
//! probe) and swap parameters between batches — restartless rolling
//! reload. The router evicts replicas that stop heartbeating and
//! re-dispatches their in-flight batches to survivors.
//!
//! EXIT CODES: 0 ok (including a fault-plan crash) / 1 serving or
//! fabric fault / 2 usage error.

use selsync_chaos::{ChaosTransport, FaultPlan};
use selsync_core::checkpoint::{load_state_with_fallback, probe_state_generation, StateGeneration};
use selsync_net::{PollTcpEndpoint, TcpFabricConfig};
use selsync_serve::{
    run_client, run_replica, run_router, spawn_watcher, ClientConfig, ModelSpec, PredictEngine,
    Ranks, ReplicaConfig, RouterConfig,
};
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "\
selsync_serve — run one rank of a router + replica-group serving job

USAGE:
  selsync_serve --role router|replica|client --rank N --replicas R
                --peers host:port,...   [role flags]

COMMON:
  --role             router | replica | client          (required)
  --rank             this process's rank: replicas 0..R, router R,
                     clients R+1..                      (required)
  --replicas         replica count R                    (required)
  --peers            comma-separated host:port of every rank (required)
  --connect-timeout  seconds to keep redialing peers    (default 60)
  --ready-file PATH  write PATH once the fabric is connected (tests
                     use this to sequence fault injection)

REPLICA:
  --checkpoint FILE  SSV2 trainer checkpoint to serve   (required)
  --model NAME       mlp | resnet | vgg | alexnet | transformer
                     (default mlp)
  --mlp-dims W,W,..  MLP layer widths (required for --model mlp)
  --data-scale N     trainer's data scale for the paper workloads
                     (default 64)
  --seed N           architecture init seed; the checkpoint overwrites
                     every parameter, so this only seeds construction
                     (default 42)
  --dims D[,D..]     per-sample input dims; sizes the warmup batch so
                     steady-state serving is allocation-free (default:
                     no warmup)
  --max-batch N      warmup rows — match the router's (default 8)
  --heartbeat-ms MS  liveness beacon interval           (default 50)
  --reload-poll-ms   checkpoint probe interval; 0 serves the initial
                     generation forever                 (default 20)
  --fault-plan FILE  JSON FaultPlan (selsync-chaos); a scheduled crash
                     for this rank exits abruptly after that many
                     served batches

ROUTER:
  --max-batch N      flush a batch at N pending rows    (default 8)
  --deadline-ms MS   flush the oldest request after MS  (default 5)
  --heartbeat-ms MS  expected replica beacon interval   (default 50)
  --max-missed N     evict after N silent intervals     (default 3)

CLIENT:
  --requests N       total requests to issue            (default 100)
  --concurrency N    closed-loop window size            (default 4)
  --dims D[,D..]     per-sample input dims, one row per request
                     (default 16)
  --spacing-ms MS    pause after each send              (default 0)
  --seed N           request payload seed               (default 1)
  --fixed-input      send the identical payload every request
  --print-replies    one `reply=IDX fp=0x..` line per reply, in
                     arrival order
  --recv-timeout S   seconds before a missing reply is fatal
                     (default 30)
";

struct Args {
    role: String,
    rank: usize,
    replicas: usize,
    peers: Vec<String>,
    connect_timeout: Duration,
    ready_file: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    model: String,
    mlp_dims: Option<Vec<usize>>,
    data_scale: usize,
    seed: u64,
    dims: Vec<usize>,
    max_batch: usize,
    deadline: Duration,
    heartbeat: Duration,
    max_missed: u32,
    reload_poll: Duration,
    fault_plan: Option<PathBuf>,
    requests: u64,
    concurrency: usize,
    spacing: Duration,
    fixed_input: bool,
    print_replies: bool,
    recv_timeout: Duration,
}

fn parse_usize_list(s: &str, flag: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<usize>()
                .map_err(|_| format!("{flag} expects comma-separated integers, got '{p}'"))
        })
        .collect()
}

#[allow(clippy::too_many_lines)]
fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        role: String::new(),
        rank: usize::MAX,
        replicas: 0,
        peers: Vec::new(),
        connect_timeout: Duration::from_secs(60),
        ready_file: None,
        checkpoint: None,
        model: "mlp".to_string(),
        mlp_dims: None,
        data_scale: 64,
        seed: 42,
        dims: Vec::new(),
        max_batch: 8,
        deadline: Duration::from_millis(5),
        heartbeat: Duration::from_millis(50),
        max_missed: 3,
        reload_poll: Duration::from_millis(20),
        fault_plan: None,
        requests: 100,
        concurrency: 4,
        spacing: Duration::ZERO,
        fixed_input: false,
        print_replies: false,
        recv_timeout: Duration::from_secs(30),
    };
    let mut client_dims_set = false;
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        match key.as_str() {
            "--help" => return Err(USAGE.to_string()),
            "--fixed-input" => {
                a.fixed_input = true;
                continue;
            }
            "--print-replies" => {
                a.print_replies = true;
                continue;
            }
            _ => {}
        }
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {key}"))?;
        let int = |flag: &str| -> Result<u64, String> {
            val.parse::<u64>()
                .map_err(|_| format!("{flag} must be an integer, got '{val}'"))
        };
        match key.as_str() {
            "--role" => a.role = val.clone(),
            "--rank" => a.rank = int("--rank")? as usize,
            "--replicas" => a.replicas = int("--replicas")? as usize,
            "--peers" => a.peers = val.split(',').map(str::to_string).collect(),
            "--connect-timeout" => {
                a.connect_timeout = Duration::from_secs(int("--connect-timeout")?)
            }
            "--ready-file" => a.ready_file = Some(PathBuf::from(val)),
            "--checkpoint" => a.checkpoint = Some(PathBuf::from(val)),
            "--model" => a.model = val.clone(),
            "--mlp-dims" => a.mlp_dims = Some(parse_usize_list(val, "--mlp-dims")?),
            "--data-scale" => a.data_scale = int("--data-scale")? as usize,
            "--seed" => a.seed = int("--seed")?,
            "--dims" => {
                a.dims = parse_usize_list(val, "--dims")?;
                client_dims_set = true;
            }
            "--max-batch" => a.max_batch = int("--max-batch")? as usize,
            "--deadline-ms" => a.deadline = Duration::from_millis(int("--deadline-ms")?),
            "--heartbeat-ms" => a.heartbeat = Duration::from_millis(int("--heartbeat-ms")?),
            "--max-missed" => a.max_missed = int("--max-missed")? as u32,
            "--reload-poll-ms" => a.reload_poll = Duration::from_millis(int("--reload-poll-ms")?),
            "--fault-plan" => a.fault_plan = Some(PathBuf::from(val)),
            "--requests" => a.requests = int("--requests")?,
            "--concurrency" => a.concurrency = int("--concurrency")? as usize,
            "--spacing-ms" => a.spacing = Duration::from_millis(int("--spacing-ms")?),
            "--recv-timeout" => a.recv_timeout = Duration::from_secs(int("--recv-timeout")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.role.is_empty() {
        return Err("--role is required".to_string());
    }
    if a.rank == usize::MAX {
        return Err("--rank is required".to_string());
    }
    if a.replicas == 0 {
        return Err("--replicas is required (>= 1)".to_string());
    }
    if a.peers.is_empty() {
        return Err("--peers is required".to_string());
    }
    if a.rank >= a.peers.len() {
        return Err(format!(
            "--rank {} out of range for {} peers",
            a.rank,
            a.peers.len()
        ));
    }
    if a.peers.len() < a.replicas + 2 {
        return Err(
            "--peers must list every replica, the router, and at least one client".to_string(),
        );
    }
    if a.role == "client" && !client_dims_set {
        a.dims = vec![16];
    }
    if a.max_batch == 0 {
        return Err("--max-batch must be at least 1".to_string());
    }
    Ok(a)
}

fn fatal(msg: &str) -> ! {
    eprintln!("fatal: {msg}");
    std::process::exit(1);
}

fn run_replica_role(ep: PollTcpEndpoint, a: &Args) -> i32 {
    let Some(ckpt) = a.checkpoint.clone() else {
        eprintln!("fatal: --checkpoint is required for --role replica");
        return 2;
    };
    let spec = match ModelSpec::parse(&a.model, a.mlp_dims.as_deref(), a.data_scale) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fatal: {e}");
            return 2;
        }
    };
    let (state, fell_back) = match load_state_with_fallback(&ckpt) {
        Ok(v) => v,
        Err(e) => fatal(&format!("cannot load checkpoint {}: {e}", ckpt.display())),
    };
    if fell_back {
        eprintln!(
            "[rank {}] primary checkpoint damaged, serving .prev",
            a.rank
        );
    }
    let mut engine = match PredictEngine::new(&spec, a.seed, &state.params) {
        Ok(e) => e,
        Err(e) => fatal(&format!("checkpoint does not fit --model: {e}")),
    };
    let initial = probe_state_generation(&ckpt).unwrap_or(StateGeneration {
        step: state.step,
        syncs: state.syncs,
        file_len: 0,
    });
    let watcher = if a.reload_poll.is_zero() {
        None
    } else {
        Some(spawn_watcher(ckpt, initial, a.reload_poll))
    };
    let plan = a.fault_plan.as_ref().map(|p| match FaultPlan::load(p) {
        Ok(plan) => plan,
        Err(e) => fatal(&format!("bad --fault-plan: {e}")),
    });
    let cfg = ReplicaConfig {
        router: Ranks::new(a.replicas).router(),
        heartbeat: a.heartbeat,
        warmup_rows: a.max_batch,
        warmup_dims: a.dims.clone(),
        crash_after_batches: plan.as_ref().and_then(|p| p.crash_step(a.rank)),
    };
    let result = match plan {
        Some(plan) => {
            let mut cep = ChaosTransport::new(ep, plan);
            let r = run_replica(&mut cep, &mut engine, watcher.as_ref(), &cfg);
            if !matches!(r, Ok(ref rep) if rep.crashed) {
                drop(cep); // flush queued frames; process::exit skips destructors
            }
            r
        }
        None => {
            let mut inner = ep;
            let r = run_replica(&mut inner, &mut engine, watcher.as_ref(), &cfg);
            if !matches!(r, Ok(ref rep) if rep.crashed) {
                inner.close(); // a simulated crash deliberately skips the flush
            }
            r
        }
    };
    if let Some(w) = watcher {
        w.stop();
    }
    match result {
        Ok(rep) => {
            println!(
                "role=replica rank={} served_batches={} served_rows={} reloads={} \
                 alloc_after_warmup={} alloc_final={} crashed={}",
                a.rank,
                rep.served_batches,
                rep.served_rows,
                rep.reloads,
                rep.alloc_after_warmup,
                rep.alloc_final,
                u8::from(rep.crashed)
            );
            0
        }
        Err(e) => {
            eprintln!("fatal: replica {}: {e}", a.rank);
            1
        }
    }
}

fn run_router_role(ep: PollTcpEndpoint, a: &Args) -> i32 {
    let cfg = RouterConfig {
        replicas: a.replicas,
        clients: a.peers.len() - a.replicas - 1,
        max_batch: a.max_batch,
        deadline: a.deadline,
        heartbeat: a.heartbeat,
        max_missed: a.max_missed,
    };
    let mut inner = ep;
    let result = run_router(&mut inner, &cfg);
    inner.close();
    match result {
        Ok(rep) => {
            let evicted = if rep.evicted.is_empty() {
                "-".to_string()
            } else {
                rep.evicted
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            };
            println!(
                "role=router rank={} served_requests={} served_rows={} batches={} \
                 requeued={} evicted={}",
                a.rank,
                rep.served_requests,
                rep.served_rows,
                rep.batches,
                rep.requeued_batches,
                evicted
            );
            for (r, n) in rep.per_replica_batches.iter().enumerate() {
                println!("replica_batches_{r}={n}");
            }
            0
        }
        Err(e) => {
            eprintln!("fatal: router: {e}");
            1
        }
    }
}

fn run_client_role(ep: PollTcpEndpoint, a: &Args) -> i32 {
    let cfg = ClientConfig {
        router: Ranks::new(a.replicas).router(),
        requests: a.requests,
        concurrency: a.concurrency,
        dims: a.dims.clone(),
        spacing: a.spacing,
        seed: a.seed,
        fixed_input: a.fixed_input,
        recv_timeout: a.recv_timeout,
    };
    let mut inner = ep;
    let result = run_client(&mut inner, &cfg);
    inner.close();
    match result {
        Ok(rep) => {
            let lat_us: Vec<u128> = rep.replies.iter().map(|r| r.latency.as_micros()).collect();
            let mean_us = if lat_us.is_empty() {
                0
            } else {
                lat_us.iter().sum::<u128>() / lat_us.len() as u128
            };
            println!(
                "role=client rank={} completed={} mean_latency_us={mean_us}",
                a.rank, rep.completed
            );
            if a.print_replies {
                for r in &rep.replies {
                    println!("reply={} fp=0x{:016x}", r.request, r.fingerprint);
                }
            }
            0
        }
        Err(e) => {
            eprintln!("fatal: client {}: {e}", a.rank);
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if argv.contains(&"--help".to_string()) {
                0
            } else {
                2
            });
        }
    };
    let mut fabric = TcpFabricConfig::new(a.rank, a.peers.clone());
    fabric.connect_timeout = a.connect_timeout;
    eprintln!(
        "[rank {}] {} dialing {} peers on {}...",
        a.rank,
        a.role,
        a.peers.len(),
        a.peers[a.rank]
    );
    let ep = match PollTcpEndpoint::connect(fabric) {
        Ok(ep) => ep,
        Err(e) => fatal(&format!("fabric setup failed: {e}")),
    };
    if let Some(rf) = &a.ready_file {
        if let Err(e) = std::fs::write(rf, b"ready\n") {
            eprintln!("[rank {}] cannot write --ready-file: {e}", a.rank);
        }
    }
    let code = match a.role.as_str() {
        "replica" => run_replica_role(ep, &a),
        "router" => run_router_role(ep, &a),
        "client" => run_client_role(ep, &a),
        other => {
            eprintln!("unknown --role '{other}' (router | replica | client)");
            2
        }
    };
    std::process::exit(code);
}
