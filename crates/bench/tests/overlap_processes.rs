//! End-to-end acceptance for the pipelined bucketed push (DESIGN.md
//! §12): spawn real `selsync_dist` OS processes (2 workers + 1 PS on
//! localhost TCP) and check that the same-seed run is **bit-identical**
//! — fingerprint-for-fingerprint — whether pushes go out monolithic or
//! in buckets of either size. The bucketed pipeline is allowed to
//! change scheduling and frame boundaries; it is not allowed to change
//! a single bit of the result.

use std::net::TcpListener;
use std::process::{Child, Command, Stdio};

const TRAINING_FLAGS: &[&str] = &[
    "--model",
    "vgg",
    "--strategy",
    "bsp",
    "--aggregation",
    "ga",
    "--steps",
    "12",
    "--batch",
    "8",
    "--data",
    "96",
    "--eval-every",
    "12",
    "--seed",
    "42",
    "--workers",
    "2",
];

/// Reserve `n` distinct loopback ports below the kernel's ephemeral
/// range (see dist_processes.rs for why port-0 probing is unsafe here).
fn free_ports(n: usize) -> Vec<String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static PORT_CURSOR: AtomicUsize = AtomicUsize::new(0);
    let base = 33000 + (std::process::id() as usize % 4000);
    let mut held = Vec::new();
    let mut addrs = Vec::new();
    while addrs.len() < n {
        let port = base + PORT_CURSOR.fetch_add(1, Ordering::Relaxed) % 5000;
        if let Ok(l) = TcpListener::bind(("127.0.0.1", port as u16)) {
            addrs.push(format!("127.0.0.1:{port}"));
            held.push(l);
        }
    }
    addrs
}

fn spawn_rank(role: &str, rank: usize, peers: &str, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_selsync_dist"))
        .args([
            "--role",
            role,
            "--rank",
            &rank.to_string(),
            "--peers",
            peers,
        ])
        .args(TRAINING_FLAGS)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn selsync_dist")
}

fn stdout_field(stdout: &str, key: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("missing {key} in output:\n{stdout}"))
        .to_string()
}

/// One cluster run's observable identity: the PS's and worker 0's
/// `params_fingerprint` lines (FNV over the exact f32 bit patterns).
struct ClusterResult {
    ps_fingerprint: String,
    w0_fingerprint: String,
}

/// Run 2 workers + 1 PS to completion, every rank with `extra` flags.
fn run_cluster(extra: &[&str]) -> ClusterResult {
    let peers = free_ports(3).join(",");
    let ps = spawn_rank("ps", 2, &peers, extra);
    let w0 = spawn_rank("worker", 0, &peers, extra);
    let w1 = spawn_rank("worker", 1, &peers, extra);
    let ps_out = ps.wait_with_output().unwrap();
    let w0_out = w0.wait_with_output().unwrap();
    let w1_out = w1.wait_with_output().unwrap();
    for (name, out) in [
        ("ps", &ps_out),
        ("worker 0", &w0_out),
        ("worker 1", &w1_out),
    ] {
        assert!(
            out.status.success(),
            "{name} exited nonzero; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let ps_stdout = String::from_utf8(ps_out.stdout).unwrap();
    let w0_stdout = String::from_utf8(w0_out.stdout).unwrap();
    ClusterResult {
        ps_fingerprint: stdout_field(&ps_stdout, "params_fingerprint"),
        w0_fingerprint: stdout_field(&w0_stdout, "params_fingerprint"),
    }
}

fn assert_same(a: &ClusterResult, b: &ClusterResult, what: &str) {
    assert_eq!(
        a.ps_fingerprint, b.ps_fingerprint,
        "{what}: PS params diverged"
    );
    assert_eq!(
        a.w0_fingerprint, b.w0_fingerprint,
        "{what}: worker 0 params diverged"
    );
}

#[test]
fn bucketed_runs_are_bit_identical_to_the_monolithic_baseline() {
    let baseline = run_cluster(&[]);
    // bucketed pipelined pushes — the tentpole bit-identity claim,
    // across real OS processes, at two bucket sizes
    for buckets in ["1000", "500"] {
        let bucketed = run_cluster(&["--overlap-buckets", buckets]);
        assert_same(
            &baseline,
            &bucketed,
            &format!("{buckets}-value buckets vs monolithic"),
        );
    }
}
