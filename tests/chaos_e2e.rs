//! Chaos end-to-end: a 16-session fleet streamed through the
//! fault-injection proxy with **every** fault family armed must finish
//! bit-identical to a clean in-process run (exactly-once delivery under
//! arbitrary connection failures), and the `seqdrift load --chaos` CLI
//! scenario must leave healthy devices within latency bounds while the
//! victim half rides out the faults.
//!
//! Everything derives from fixed seeds: rerunning a failure replays the
//! same faults at the same byte offsets.

use seqdrift::core::{DetectorConfig, DriftPipeline};
use seqdrift::prelude::*;
use seqdrift::server::ServerReport;
use seqdrift_cli::{commands, Cli, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DIM: usize = 4;
const CHAOS_SEED: u64 = 4242;

fn checkpoint(seed: u64) -> Vec<u8> {
    let mut rng = Rng::seed_from(seed);
    let train: Vec<Vec<Real>> = (0..100)
        .map(|_| {
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, 0.3, 0.05);
            x
        })
        .collect();
    let mut model = MultiInstanceModel::new(1, OsElmConfig::new(DIM, 3).with_seed(seed)).unwrap();
    model.init_train_class(0, &train).unwrap();
    let pairs: Vec<(usize, &[Real])> = train.iter().map(|x| (0, x.as_slice())).collect();
    DriftPipeline::calibrate(model, DetectorConfig::new(1, DIM).with_window(16), &pairs)
        .unwrap()
        .to_bytes()
        .unwrap()
}

/// Deterministic per-session stream, flattened row-major.
fn stream(session: u64, rows: usize) -> Vec<Real> {
    let mut rng = Rng::seed_from(9000 + session);
    let mut out = Vec::with_capacity(rows * DIM);
    for _ in 0..rows {
        let mut x = vec![0.0; DIM];
        rng.fill_normal(&mut x, 0.3, 0.05);
        out.extend_from_slice(&x);
    }
    out
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("seqdrift-chaos-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_server(
    cfg: ServerConfig,
) -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<ServerReport>,
) {
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(move || flag.load(Ordering::Relaxed)));
    (addr, stop, handle)
}

/// The tentpole acceptance test: 16 concurrent device sessions stream
/// through a proxy injecting resets, short writes, stalls, jitter, and
/// blackholes from one fixed seed — and every session's final state is
/// bit-identical to a clean in-process run of the same rows. No row is
/// lost, none is applied twice, no matter where the faults cut.
#[test]
fn sixteen_sessions_through_every_fault_family_are_bit_identical() {
    const SESSIONS: u64 = 16;
    const ROWS: usize = 100;
    let blob = checkpoint(4001);
    let cfg = ServerConfig::new(FleetConfig::new(3)).with_reference(blob.clone());
    let (addr, stop, handle) = spawn_server(cfg);
    let proxy = ChaosProxy::spawn(addr, ChaosConfig::all_faults(CHAOS_SEED)).unwrap();
    let proxy_addr = proxy.local_addr();

    let devices: Vec<std::thread::JoinHandle<(u64, Vec<u8>, u64)>> = (0..SESSIONS)
        .map(|dev| {
            std::thread::spawn(move || {
                let policy = ReconnectPolicy {
                    max_attempts: 24,
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(250),
                    seed: CHAOS_SEED ^ dev.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                };
                let mut rc = ResilientClient::new(proxy_addr, dev, DIM as u32, policy).unwrap();
                // Shorter than the longest scheduled blackhole (300 ms),
                // so held connections surface as reconnects too.
                rc.read_timeout = Some(Duration::from_millis(150));
                let rows = stream(dev, ROWS);
                let report = rc.run_stream(&rows, 8).unwrap();
                assert_eq!(rc.acked_rows(), ROWS as u64, "session {dev}");
                // Verification snapshot: wait the remaining holds out.
                rc.read_timeout = Some(Duration::from_secs(2));
                let snap = rc.snapshot().unwrap();
                let _ = rc.bye();
                (dev, snap, report.reconnects)
            })
        })
        .collect();
    let mut results: Vec<(u64, Vec<u8>, u64)> = devices
        .into_iter()
        .map(|h| h.join().expect("device thread panicked"))
        .collect();
    results.sort_by_key(|(dev, _, _)| *dev);

    let faults = proxy.events();
    let conns = proxy.connections();
    assert!(
        !faults.is_empty(),
        "the all-faults schedule must have injected something over {conns} connections"
    );
    proxy.shutdown();
    stop.store(true, Ordering::Relaxed);
    let report = handle.join().unwrap();
    assert_eq!(
        report.net.samples_accepted,
        SESSIONS * ROWS as u64,
        "exactly-once across {conns} proxied connections and {} fault(s)",
        faults.len()
    );

    // Clean in-process reference over the identical streams.
    let fleet = FleetEngine::new(FleetConfig::new(3)).unwrap();
    for dev in 0..SESSIONS {
        fleet.create_from_bytes(SessionId(dev), &blob).unwrap();
    }
    for (dev, net_snap, _) in &results {
        for row in stream(*dev, ROWS).chunks_exact(DIM) {
            fleet.feed_blocking(SessionId(*dev), row).unwrap();
        }
        let clean = fleet.snapshot(SessionId(*dev)).unwrap();
        assert_eq!(
            &clean, net_snap,
            "session {dev}: state under chaos diverged from the clean run"
        );
    }
    fleet.shutdown();

    let total_reconnects: u64 = results.iter().map(|(_, _, r)| r).sum();
    assert!(
        total_reconnects >= 1,
        "with resets at p=0.5 some of the 16 sessions must have reconnected"
    );
}

/// The CLI scenario: `seqdrift load --chaos` routes the victim half of
/// the fleet through the proxy while healthy devices connect directly.
/// The run must finish (reconnect storm absorbed), verify bit-identity,
/// emit per-group `chaos_*` bench entries, and keep healthy-client p99
/// within an order of magnitude of the clean path.
#[test]
fn cli_load_chaos_bounds_healthy_latency_and_emits_bench_entries() {
    const CLI_DIM: usize = 6;
    let dir = tmp_dir("cli-load");
    let model = dir.join("model.sqdm");
    // The CLI path infers dim from the CSV; build a matching checkpoint.
    let blob = {
        let mut rng = Rng::seed_from(99);
        let train: Vec<Vec<Real>> = (0..120)
            .map(|_| {
                let mut x = vec![0.0; CLI_DIM];
                rng.fill_normal(&mut x, 0.3, 0.05);
                x
            })
            .collect();
        let mut model =
            MultiInstanceModel::new(1, OsElmConfig::new(CLI_DIM, 4).with_seed(3)).unwrap();
        model.init_train_class(0, &train).unwrap();
        let pairs: Vec<(usize, &[Real])> = train.iter().map(|x| (0, x.as_slice())).collect();
        DriftPipeline::calibrate(
            model,
            DetectorConfig::new(1, CLI_DIM).with_window(20),
            &pairs,
        )
        .unwrap()
        .to_bytes()
        .unwrap()
    };
    std::fs::write(&model, &blob).unwrap();

    let mut rng = Rng::seed_from(31);
    let mut csv = String::new();
    for _ in 0..60 {
        let mut x = vec![0.0; CLI_DIM];
        rng.fill_normal(&mut x, 0.3, 0.05);
        let row: Vec<String> = x.iter().map(|v| v.to_string()).collect();
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    let csv_path = dir.join("stream.csv");
    std::fs::write(&csv_path, csv).unwrap();

    // One fresh server instance per load run (sessions start at 0 in
    // both, so sharing a server would make the second run a no-op
    // resume instead of a stream).
    let spawn_serve = |port_file: &std::path::Path| {
        let line = format!(
            "serve --model {} --listen 127.0.0.1:0 --workers 2 --port-file {}",
            model.display(),
            port_file.display()
        );
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let cli = Cli::parse(&argv).unwrap();
        let Command::Serve(args) = cli.command else {
            panic!("parsed something other than serve");
        };
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                commands::serve_with_stop(&args, &mut buf, &stop).unwrap();
                String::from_utf8(buf).unwrap()
            })
        };
        let mut addr = String::new();
        for _ in 0..500 {
            if let Ok(s) = std::fs::read_to_string(port_file) {
                if !s.is_empty() {
                    addr = s;
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!addr.is_empty(), "server never wrote its port file");
        (addr, stop, server)
    };

    let bench_json = dir.join("BENCH_ingest.json");
    let run_load = |addr: &str, extra: &str| -> String {
        let line = format!(
            "load --csv {} --addr {addr} --sessions 8 --batch 8 --no-header \
             --verify --model {} --bench-json {} {extra}",
            csv_path.display(),
            model.display(),
            bench_json.display()
        );
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let cli = Cli::parse(&argv).unwrap();
        let mut buf = Vec::new();
        seqdrift_cli::run(&cli, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    };

    // Clean baseline.
    let (addr, stop, server) = spawn_serve(&dir.join("port-clean.txt"));
    let clean_out = run_load(&addr, "");
    assert!(
        clean_out.contains("8 device(s) bit-identical"),
        "{clean_out}"
    );
    stop.store(true, Ordering::Relaxed);
    server.join().unwrap();

    // Chaos run against a fresh server.
    let (addr, stop, server) = spawn_serve(&dir.join("port-chaos.txt"));
    let chaos_out = run_load(
        &addr,
        &format!("--chaos --chaos-seed {CHAOS_SEED} --chaos-victims 4"),
    );
    assert!(
        chaos_out.contains("chaos: seed 4242"),
        "chaos banner missing: {chaos_out}"
    );
    assert!(
        chaos_out.contains("8 device(s) bit-identical"),
        "chaos run must still verify exactly-once delivery: {chaos_out}"
    );
    stop.store(true, Ordering::Relaxed);
    let served = server.join().unwrap();
    assert!(served.contains("resilience:"), "{served}");

    let entries = seqdrift_cli::bench_json::parse(&std::fs::read_to_string(&bench_json).unwrap())
        .expect("BENCH_ingest.json must stay machine-readable");
    let clean = &entries["load_sessions_8_batch_8"];
    let healthy = &entries["chaos_healthy_sessions_8_batch_8"];
    let victim = &entries["chaos_victim_sessions_8_batch_8"];
    assert!(clean.p99_us > 0.0 && healthy.p99_us > 0.0 && victim.p99_us > 0.0);
    assert_eq!(healthy.samples + victim.samples, 8 * 60);
    // Healthy devices bypass the proxy; the chaos they feel is only
    // server-side contention from the victim half's storm. Bound: an
    // order of magnitude over the clean path (with a small absolute
    // floor so loopback-jitter microseconds cannot flake the suite).
    let bound = (clean.p99_us * 10.0).max(5_000.0);
    assert!(
        healthy.p99_us <= bound,
        "healthy p99 {:.1} us exceeds bound {:.1} us (clean p99 {:.1} us)",
        healthy.p99_us,
        bound,
        clean.p99_us
    );
    std::fs::remove_dir_all(&dir).ok();
}
