//! Client/server loopback end-to-end: streams ingested over TCP must
//! leave the fleet in *bit-identical* state to the same streams fed
//! in-process, backpressure must surface as BUSY and resolve, idle
//! connections must be evicted, and a graceful drain must flush every
//! session's final state to the durable store.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use seqdrift_core::{DetectorConfig, DriftPipeline};
use seqdrift_fleet::{Fault, FaultInjector, FleetConfig, FleetEngine, SessionId};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use seqdrift_server::{
    BatchReply, Client, ClientError, NackCode, ReconnectPolicy, ResilientClient, Server,
    ServerConfig, ServerReport,
};

const DIM: usize = 4;

fn checkpoint_with_dim(seed: u64, dim: usize) -> Vec<u8> {
    let mut rng = Rng::seed_from(seed);
    let train: Vec<Vec<Real>> = (0..100)
        .map(|_| {
            let mut x = vec![0.0; dim];
            rng.fill_normal(&mut x, 0.3, 0.05);
            x
        })
        .collect();
    let mut model = MultiInstanceModel::new(1, OsElmConfig::new(dim, 3).with_seed(seed)).unwrap();
    model.init_train_class(0, &train).unwrap();
    let pairs: Vec<(usize, &[Real])> = train.iter().map(|x| (0, x.as_slice())).collect();
    DriftPipeline::calibrate(model, DetectorConfig::new(1, dim).with_window(16), &pairs)
        .unwrap()
        .to_bytes()
        .unwrap()
}

fn checkpoint(seed: u64) -> Vec<u8> {
    checkpoint_with_dim(seed, DIM)
}

/// Deterministic per-session stream, flattened row-major.
fn stream(session: u64, rows: usize, mean: Real) -> Vec<Real> {
    let mut rng = Rng::seed_from(5000 + session);
    let mut out = Vec::with_capacity(rows * DIM);
    for _ in 0..rows {
        let mut x = vec![0.0; DIM];
        rng.fill_normal(&mut x, mean, 0.05);
        out.extend_from_slice(&x);
    }
    out
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdrift-server-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a server on an ephemeral port; returns its address, the stop
/// flag, and the join handle yielding the final report.
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

/// The tentpole acceptance test: the same streams produce bit-identical
/// per-session checkpoints whether they travel over TCP or are fed
/// directly into an in-process engine — including with one hostile
/// connection poisoning the server mid-run (blast radius one).
#[test]
fn networked_run_is_bit_identical_to_in_process_run() {
    const SESSIONS: u64 = 4;
    const ROWS: usize = 120;
    let blob = checkpoint(11);

    let cfg = ServerConfig::new(FleetConfig::new(2)).with_reference(blob.clone());
    let (addr, stop, handle) = spawn_server(cfg);

    // One garbage connection mid-run: must be NACKed away without
    // touching any session's stream.
    let poison = std::thread::spawn(move || {
        use std::io::Write;
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n");
        // Server answers with a fatal NACK and drops the connection.
        let mut buf = Vec::new();
        use std::io::Read;
        let _ = s.read_to_end(&mut buf);
    });

    // Networked run: one client per session, batched sends.
    let mut net_snapshots = Vec::new();
    let mut clients: Vec<Client> = (0..SESSIONS)
        .map(|dev| {
            let (c, hello) = Client::connect(addr, dev, DIM as u32).unwrap();
            assert!(!hello.existing);
            assert_eq!(hello.resume_from, 0);
            c
        })
        .collect();
    for c in clients.iter_mut() {
        let rows = stream(c.session(), ROWS, 0.3);
        // Uneven batch sizes exercise re-framing.
        for batch in rows.chunks(7 * DIM) {
            c.send_all(batch).unwrap();
        }
    }
    for mut c in clients {
        let dev = c.session();
        net_snapshots.push((dev, c.snapshot().unwrap()));
        c.bye().unwrap();
    }
    poison.join().unwrap();

    stop.store(true, Ordering::Relaxed);
    let report = handle.join().unwrap();
    assert_eq!(report.fleet.sessions.len(), SESSIONS as usize);
    assert_eq!(
        report.net.samples_accepted,
        SESSIONS * ROWS as u64,
        "every row must have been applied exactly once"
    );
    assert!(
        report.net.nacks_sent >= 1,
        "the poisoned connection must have been NACKed"
    );

    // In-process reference run over the identical streams.
    let fleet = FleetEngine::new(FleetConfig::new(2)).unwrap();
    for dev in 0..SESSIONS {
        fleet.create_from_bytes(SessionId(dev), &blob).unwrap();
    }
    for dev in 0..SESSIONS {
        let rows = stream(dev, ROWS, 0.3);
        for row in rows.chunks_exact(DIM) {
            fleet.feed_blocking(SessionId(dev), row).unwrap();
        }
    }
    for (dev, net_blob) in &net_snapshots {
        let local_blob = fleet.snapshot(SessionId(*dev)).unwrap();
        assert_eq!(
            &local_blob, net_blob,
            "session {dev}: networked state diverged from in-process state"
        );
    }
    fleet.shutdown();
}

/// A deliberately slow session builds real backpressure: the server's
/// feed deadline fires, BUSY replies surface the stalled queue depth, and
/// the client's retry loop still lands every sample exactly once.
#[test]
fn busy_backpressure_surfaces_and_retries_to_completion() {
    const ROWS: usize = 30;
    let blob = checkpoint(13);
    let injector = FaultInjector::new(vec![Fault::SlowSession {
        session: 0,
        every: 1,
        micros: 20_000,
    }]);
    let fleet_cfg = FleetConfig::new(1)
        .with_queue_capacity(1)
        .with_feed_timeout(Duration::from_millis(5))
        .with_fault_injector(injector);
    let cfg = ServerConfig::new(fleet_cfg).with_reference(blob);
    let (addr, stop, handle) = spawn_server(cfg);

    let (mut client, _) = Client::connect(addr, 0, DIM as u32).unwrap();
    let rows = stream(0, ROWS, 0.3);
    client.send_all(&rows).unwrap();
    let busy_retries = client.busy_retries;
    let snap = client.snapshot().unwrap();
    client.bye().unwrap();

    stop.store(true, Ordering::Relaxed);
    let report = handle.join().unwrap();
    assert!(
        busy_retries > 0,
        "a 20 ms/sample consumer behind a 1-deep queue and a 5 ms deadline must go BUSY"
    );
    assert_eq!(report.net.busy_replies, busy_retries);
    assert_eq!(report.net.samples_accepted, ROWS as u64);
    let pipeline = DriftPipeline::from_bytes(&snap).unwrap();
    assert_eq!(pipeline.samples_processed(), ROWS as u64);
}

/// A frame bigger than its shard's free room is admitted only as far as
/// the room goes: the reply is `Busy { accepted: k }`, exactly those k
/// rows are applied, and resending the rest ends bit-identical to
/// feeding the same rows one at a time in-process.
#[test]
fn oversized_frame_is_admitted_as_a_prefix_and_completes_on_resend() {
    const CAP: usize = 4;
    const ROWS: usize = 10;
    let blob = checkpoint(29);
    // Session 1 shares the only shard and sleeps on its first row, so the
    // queue cannot drain while session 0's frame waits for room.
    let injector = FaultInjector::new(vec![Fault::SlowSession {
        session: 1,
        every: u64::MAX,
        micros: 300_000,
    }]);
    let fleet_cfg = FleetConfig::new(1)
        .with_queue_capacity(CAP)
        .with_feed_timeout(Duration::from_millis(50))
        .with_fault_injector(injector);
    let cfg = ServerConfig::new(fleet_cfg).with_reference(blob.clone());
    let (addr, stop, handle) = spawn_server(cfg);

    let (mut gate, _) = Client::connect(addr, 1, DIM as u32).unwrap();
    let (mut client, _) = Client::connect(addr, 0, DIM as u32).unwrap();
    gate.send_batch(&stream(1, 1, 0.3)).unwrap();
    // Give the worker time to take the gate row and fall asleep on it.
    std::thread::sleep(Duration::from_millis(50));
    let rows = stream(0, ROWS, 0.3);
    let accepted = match client.send_batch(&rows).unwrap() {
        BatchReply::Busy {
            accepted,
            queue_depth,
        } => {
            assert!(queue_depth as usize <= CAP, "{queue_depth}");
            accepted as usize
        }
        other => panic!("expected Busy, got {other:?}"),
    };
    assert!(
        accepted > 0 && accepted <= CAP,
        "a {CAP}-row queue admitted {accepted} rows"
    );
    // The snapshot queues behind the admitted prefix: exactly those rows.
    let partial = DriftPipeline::from_bytes(&client.snapshot().unwrap()).unwrap();
    assert_eq!(partial.samples_processed(), accepted as u64);
    client.send_all(&rows[accepted * DIM..]).unwrap();
    let snap = client.snapshot().unwrap();
    client.bye().unwrap();
    gate.bye().unwrap();
    stop.store(true, Ordering::Relaxed);
    let report = handle.join().unwrap();
    assert_eq!(report.net.samples_accepted, ROWS as u64 + 1);

    let reference = FleetEngine::new(FleetConfig::new(1)).unwrap();
    reference.create_from_bytes(SessionId(0), &blob).unwrap();
    for row in rows.chunks_exact(DIM) {
        reference.feed_blocking(SessionId(0), row).unwrap();
    }
    assert_eq!(snap, reference.snapshot(SessionId(0)).unwrap());
}

/// Silent connections are evicted after the idle timeout; live ones on
/// the same server are untouched.
#[test]
fn idle_connection_is_evicted_without_collateral() {
    let blob = checkpoint(17);
    let cfg = ServerConfig::new(FleetConfig::new(1))
        .with_reference(blob)
        .with_idle_timeout(Duration::from_millis(150));
    let (addr, stop, handle) = spawn_server(cfg);

    let (mut idle, _) = Client::connect(addr, 1, DIM as u32).unwrap();
    let (mut live, _) = Client::connect(addr, 2, DIM as u32).unwrap();

    // Keep the live connection chatty across the idle window.
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(60));
        live.ping().unwrap();
    }
    // The idle connection is gone: its next request fails.
    assert!(idle.ping().is_err(), "idle connection should have been cut");
    live.send_all(&stream(2, 5, 0.3)).unwrap();
    live.bye().unwrap();

    stop.store(true, Ordering::Relaxed);
    let report = handle.join().unwrap();
    assert!(report.net.connections_evicted_idle >= 1);
    assert_eq!(report.net.samples_accepted, 5);
}

/// Graceful drain must flush every session's *final* state durably: a
/// fresh server over the same state dir resumes at exactly the sample
/// count reached over the network, with zero tail loss — even though the
/// rolling checkpoint cadence never covered the tail.
#[test]
fn graceful_drain_flushes_final_state_durably() {
    const ROWS: usize = 37; // far below the 1000-sample rolling cadence
    let dir = tmp_dir("drain-flush");
    let blob = checkpoint(19);

    let fleet_cfg = FleetConfig::new(1)
        .with_checkpoint_interval(1000)
        .with_state_dir(&dir);
    let cfg = ServerConfig::new(fleet_cfg).with_reference(blob.clone());
    let (addr, stop, handle) = spawn_server(cfg);
    let (mut client, hello) = Client::connect(addr, 9, DIM as u32).unwrap();
    assert!(!hello.existing);
    client.send_all(&stream(9, ROWS, 0.3)).unwrap();
    client.bye().unwrap();
    stop.store(true, Ordering::Relaxed);
    let report = handle.join().unwrap();
    assert_eq!(report.fleet.sessions.len(), 1);

    // Second server generation over the same state dir.
    let fleet_cfg = FleetConfig::new(1)
        .with_checkpoint_interval(1000)
        .with_state_dir(&dir);
    let cfg = ServerConfig::new(fleet_cfg).with_reference(blob);
    let (addr, stop, handle) = spawn_server(cfg);
    let (mut client, hello) = Client::connect(addr, 9, DIM as u32).unwrap();
    assert!(hello.existing, "session must have been resumed from disk");
    assert_eq!(
        hello.resume_from, ROWS as u64,
        "graceful drain must flush the tail: no samples may be lost"
    );
    let snap = client.snapshot().unwrap();
    assert_eq!(
        DriftPipeline::from_bytes(&snap)
            .unwrap()
            .samples_processed(),
        ROWS as u64
    );
    client.bye().unwrap();
    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reconnect mid-life must be told the session's *live* sample count:
/// replaying the stream from the acked `resume_from` must never
/// double-apply samples, whether the session was created after bind or
/// fed since it was resumed.
#[test]
fn reconnect_reports_live_resume_offset() {
    let blob = checkpoint(29);
    let cfg = ServerConfig::new(FleetConfig::new(1)).with_reference(blob);
    let (addr, stop, handle) = spawn_server(cfg);

    let (mut first, hello) = Client::connect(addr, 3, DIM as u32).unwrap();
    assert!(!hello.existing);
    assert_eq!(hello.resume_from, 0);
    first.send_all(&stream(3, 40, 0.3)).unwrap();
    first.bye().unwrap();

    // Reconnect (e.g. after a network blip): the ack must carry the 40
    // samples already applied, not a frozen bind-time offset of 0.
    let (mut second, hello) = Client::connect(addr, 3, DIM as u32).unwrap();
    assert!(hello.existing);
    assert_eq!(
        hello.resume_from, 40,
        "resume offset must track the live session, not bind-time state"
    );
    second.send_all(&stream(3, 25, 0.3)).unwrap();
    second.bye().unwrap();

    // And it keeps tracking as the session advances.
    let (third, hello) = Client::connect(addr, 3, DIM as u32).unwrap();
    assert!(hello.existing);
    assert_eq!(hello.resume_from, 65);
    third.bye().unwrap();

    stop.store(true, Ordering::Relaxed);
    let report = handle.join().unwrap();
    assert_eq!(report.net.samples_accepted, 65);
}

/// Batches larger than one frame never produce an un-sendable request:
/// `send_batch` rejects them client-side with a typed error before any
/// bytes hit the wire, and the send loop transparently splits them into
/// frame-sized chunks that all land exactly once — through `send_all` and
/// through the reconnecting client's `run_stream` alike.
#[test]
fn oversized_batches_are_split_client_side() {
    // A wide model keeps max_rows_per_frame (and so the test) small.
    const WIDE: usize = 64;
    let blob = checkpoint_with_dim(31, WIDE);
    for reconnecting in [false, true] {
        let cfg = ServerConfig::new(FleetConfig::new(1)).with_reference(blob.clone());
        let (addr, stop, handle) = spawn_server(cfg);

        let (mut client, _) = Client::connect(addr, 1, WIDE as u32).unwrap();
        let max_rows = client.max_rows_per_frame();
        let rows = max_rows + 3; // one full frame plus a remainder
        let big: Vec<Real> = {
            let mut rng = Rng::seed_from(6001);
            let mut out = vec![0.0; rows * WIDE];
            rng.fill_normal(&mut out, 0.3, 0.05);
            out
        };
        match client.send_batch(&big) {
            Err(ClientError::Oversized {
                rows: got,
                max_rows: m,
            }) => {
                assert_eq!(got, rows);
                assert_eq!(m, max_rows);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // Nothing was written, so the connection is still healthy — and
        // the send loop lands the whole batch by re-framing.
        let snap = if reconnecting {
            client.bye().unwrap();
            let policy = ReconnectPolicy::default();
            let mut rc = ResilientClient::new(addr, 1, WIDE as u32, policy).unwrap();
            rc.run_stream(&big, rows).unwrap();
            let snap = rc.snapshot().unwrap();
            rc.bye().unwrap();
            snap
        } else {
            client.send_all(&big).unwrap();
            let snap = client.snapshot().unwrap();
            client.bye().unwrap();
            snap
        };
        stop.store(true, Ordering::Relaxed);
        let report = handle.join().unwrap();
        assert_eq!(report.net.samples_accepted, rows as u64, "{reconnecting}");
        assert!(
            report.net.frames_rx > 2,
            "the oversized batch must have travelled as multiple frames"
        );
        assert_eq!(
            DriftPipeline::from_bytes(&snap)
                .unwrap()
                .samples_processed(),
            rows as u64
        );
    }
}

/// A shard that stops draining must not spin the send loop forever: once
/// BUSY replies make zero progress past the stall deadline, the client
/// gets a typed error carrying the rows this call applied and the depth
/// of the stalled queue — from `send_all` and from the reconnecting
/// client alike.
#[test]
fn send_all_surfaces_a_stalled_shard() {
    let blob = checkpoint(37);
    for reconnecting in [false, true] {
        let injector = FaultInjector::new(vec![Fault::SlowSession {
            session: 0,
            every: 1,
            micros: 400_000,
        }]);
        let fleet_cfg = FleetConfig::new(1)
            .with_queue_capacity(1)
            .with_feed_timeout(Duration::from_millis(2))
            .with_fault_injector(injector);
        let cfg = ServerConfig::new(fleet_cfg).with_reference(blob.clone());
        let (addr, stop, handle) = spawn_server(cfg);

        let rows = stream(0, 50, 0.3);
        let outcome = if reconnecting {
            let policy = ReconnectPolicy::default();
            let mut rc = ResilientClient::new(addr, 0, DIM as u32, policy).unwrap();
            rc.busy_stall_timeout = Duration::from_millis(100);
            rc.run_stream(&rows, 50).map(|_| ())
        } else {
            let (mut client, _) = Client::connect(addr, 0, DIM as u32).unwrap();
            client.busy_stall_timeout = Duration::from_millis(100);
            client.send_all(&rows).map(|_| ())
        };
        match outcome {
            Err(ClientError::Stalled {
                rows_sent,
                queue_depth,
            }) => {
                assert!(rows_sent < 50, "the stall must interrupt the batch");
                assert!(
                    queue_depth >= 1,
                    "the depth of the full 1-deep queue, got {queue_depth}"
                );
            }
            other => panic!("expected Stalled ({reconnecting}), got {other:?}"),
        }
        stop.store(true, Ordering::Relaxed);
        handle.join().unwrap();
    }
}

/// A BUSY resend is not a replay: with the server straight behind it, the
/// reconnecting client rides out backpressure on one connection, and
/// `replayed_rows` keeps its meaning of rows resent after a connection
/// loss.
#[test]
fn busy_resends_through_the_reconnecting_client_are_not_replays() {
    const ROWS: usize = 80;
    let blob = checkpoint(47);
    // A row every 4 ms frees queue room more slowly than the 2 ms feed
    // deadline, so every 16-row frame goes BUSY.
    let injector = FaultInjector::new(vec![Fault::SlowSession {
        session: 0,
        every: 1,
        micros: 4_000,
    }]);
    let fleet_cfg = FleetConfig::new(1)
        .with_queue_capacity(4)
        .with_feed_timeout(Duration::from_millis(2))
        .with_fault_injector(injector);
    let cfg = ServerConfig::new(fleet_cfg).with_reference(blob);
    let (addr, stop, handle) = spawn_server(cfg);

    let mut rc = ResilientClient::new(addr, 0, DIM as u32, ReconnectPolicy::default()).unwrap();
    let report = rc.run_stream(&stream(0, ROWS, 0.3), 16).unwrap();
    assert_eq!(rc.acked_rows(), ROWS as u64);
    rc.bye().unwrap();
    stop.store(true, Ordering::Relaxed);
    let server_report = handle.join().unwrap();
    assert_eq!(server_report.net.samples_accepted, ROWS as u64);
    assert_eq!(report.reconnects, 0);
    assert!(
        report.busy_retries >= 1,
        "16-row frames into a 4-deep queue drained at 4 ms/row must go BUSY"
    );
    assert_eq!(report.replayed_rows, 0, "BUSY resends counted as replays");
    assert_eq!(
        report.latencies_us.len(),
        ROWS / 16,
        "one latency per batch"
    );
}

/// A device with bursty send gaps arms the application-level keepalive
/// at half the server's idle-eviction window: its quiet-but-healthy
/// connection survives a gap several windows long, while an identical
/// client without keepalives is evicted.
#[test]
fn keepalive_outlives_idle_eviction() {
    let blob = checkpoint(41);
    let cfg = ServerConfig::new(FleetConfig::new(1))
        .with_reference(blob)
        .with_idle_timeout(Duration::from_millis(150));
    let (addr, stop, handle) = spawn_server(cfg);

    let (mut kept, _) = Client::connect(addr, 1, DIM as u32).unwrap();
    kept.set_keepalive_interval(Some(Duration::from_millis(75)));
    let (mut dropped, _) = Client::connect(addr, 2, DIM as u32).unwrap();

    // A 500 ms send gap: > 3 idle windows. The armed client ticks its
    // keepalive from its idle loop; the other stays silent.
    let mut pings = 0u32;
    for _ in 0..10 {
        std::thread::sleep(Duration::from_millis(50));
        if kept.keepalive_tick().unwrap() {
            pings += 1;
        }
    }
    assert!(pings >= 2, "the gap spans several keepalive intervals");
    // The armed connection still works; the silent one was evicted.
    kept.send_all(&stream(1, 5, 0.3)).unwrap();
    kept.bye().unwrap();
    assert!(
        dropped.ping().is_err(),
        "the silent connection should have been evicted"
    );

    stop.store(true, Ordering::Relaxed);
    let report = handle.join().unwrap();
    assert!(report.net.connections_evicted_idle >= 1);
    assert_eq!(report.net.samples_accepted, 5);
}

/// `Stalled` carries the partial progress, and a fresh `send_all` from
/// that offset finishes the stream with zero duplicated and zero lost
/// rows once the shard drains again.
#[test]
fn stalled_send_resumes_from_reported_offset_exactly_once() {
    const ROWS: usize = 50;
    let blob = checkpoint(43);
    // Every 10th sample of session 0 takes 400 ms; the rest are fast. A
    // 100 ms zero-progress budget trips on the first long pause, and the
    // resumed send (with a patient budget) rides out the remaining ones.
    let injector = FaultInjector::new(vec![Fault::SlowSession {
        session: 0,
        every: 10,
        micros: 400_000,
    }]);
    let fleet_cfg = FleetConfig::new(1)
        .with_queue_capacity(1)
        .with_feed_timeout(Duration::from_millis(2))
        .with_fault_injector(injector);
    let cfg = ServerConfig::new(fleet_cfg).with_reference(blob);
    let (addr, stop, handle) = spawn_server(cfg);

    let (mut client, _) = Client::connect(addr, 0, DIM as u32).unwrap();
    client.busy_stall_timeout = Duration::from_millis(100);
    let rows = stream(0, ROWS, 0.3);
    let rows_sent = match client.send_all(&rows) {
        Err(ClientError::Stalled { rows_sent, .. }) => {
            assert!(
                rows_sent > 0 && rows_sent < ROWS,
                "the stall must interrupt mid-stream, got {rows_sent}"
            );
            rows_sent
        }
        other => panic!("expected Stalled, got {other:?}"),
    };
    // The connection survived the typed error: resume the tail from the
    // reported offset on the same client, now with a patient budget.
    client.busy_stall_timeout = Duration::from_secs(10);
    client.send_all(&rows[rows_sent * DIM..]).unwrap();
    let snap = client.snapshot().unwrap();
    client.bye().unwrap();

    stop.store(true, Ordering::Relaxed);
    let report = handle.join().unwrap();
    assert_eq!(
        report.net.samples_accepted, ROWS as u64,
        "resume must neither duplicate nor lose rows"
    );
    assert_eq!(
        DriftPipeline::from_bytes(&snap)
            .unwrap()
            .samples_processed(),
        ROWS as u64
    );
}

/// Handshake rejections are typed: unknown session without a reference
/// model, wrong dimension, wrong scalar width, and samples before HELLO.
#[test]
fn handshake_rejections_are_typed() {
    let blob = checkpoint(23);

    // No reference model: unknown sessions cannot be auto-created.
    let (addr, stop, handle) = spawn_server(ServerConfig::new(FleetConfig::new(1)));
    match Client::connect(addr, 1, DIM as u32) {
        Err(ClientError::Nack { code, .. }) => assert_eq!(code, NackCode::UnknownSession),
        other => panic!("expected UnknownSession nack, got {other:?}"),
    }
    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();

    // With a reference model: a dim mismatch is named as such.
    let cfg = ServerConfig::new(FleetConfig::new(1)).with_reference(blob);
    let (addr, stop, handle) = spawn_server(cfg);
    match Client::connect(addr, 1, (DIM + 3) as u32) {
        Err(ClientError::Nack { code, .. }) => assert_eq!(code, NackCode::DimMismatch),
        other => panic!("expected DimMismatch nack, got {other:?}"),
    }
    // The connection itself survives a semantic NACK: a correct HELLO on
    // a fresh client still works against the same server.
    let (mut ok, _) = Client::connect(addr, 1, DIM as u32).unwrap();
    ok.ping().unwrap();
    ok.bye().unwrap();
    stop.store(true, Ordering::Relaxed);
    handle.join().unwrap();
}
