//! `net-ingest`: an in-process SQNP `Server` (2 workers, the fleet
//! reference) fed by two `Client` connections, one thread each, sending
//! 16-row SAMPLE batches.
//!
//! A closed-loop step measures capacity; open-loop steps send on a fixed
//! schedule and time every batch from when it was due, so a stall counts
//! against the batches queued behind it. Per row the pipeline work is
//! tiny: SQNP encode/CRC/decode, syscalls, the handler's per-row
//! `feed_blocking` and event pumping dominate.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use seqdrift_linalg::Real;
use seqdrift_server::proto::{decode_frame, HEADER_LEN};
use seqdrift_server::{BatchReply, Client, Message, Server, ServerConfig, ServerReport};

use crate::hist::Hist;
use crate::inputs::{Inputs, FLEET};
use crate::oracle::{self, PermAccuracy};
use crate::report::{us, Rep, Values, PREALLOCATED_NS};
use crate::trace::{Probe, Recorder};
use crate::Opts;

/// Rows per SAMPLE frame.
const BATCH: usize = 16;
/// Client connections, one thread each.
const CLIENTS: usize = 2;
/// Offered load of the latency step, rows/s in total.
const LATENCY_RATE: f64 = 80_000.0;
/// The traced run's rate ladder, rows/s in total.
const LADDER: [f64; 5] = [40_000.0, 80_000.0, 160_000.0, 240_000.0, 320_000.0];
/// A step counts as sustained when its p99 stays under this...
const P99_LIMIT_US: f64 = 1_000.0;
/// ...and the generator ends it less late than this.
const LAG_LIMIT: Duration = Duration::from_millis(10);
/// Encode/decode probes run on one batch in this many (traced only).
const CODEC_EVERY: u64 = 16;
/// Quality figures cover each session's first stream cycle.
const QUALITY_PREFIX: u64 = FLEET.samples as u64;

/// One step of a phase: closed loop, or open loop at a total rate.
#[derive(Debug, Clone, Copy)]
struct Step {
    rate: Option<f64>,
    secs: f64,
}

impl Step {
    fn name(&self) -> &'static str {
        match self.rate {
            None => "closed-loop",
            Some(r) if r == LATENCY_RATE => "open-80k",
            Some(_) => "open-loop",
        }
    }
}

/// A running server and its stop flag.
struct Running {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ServerReport>,
}

impl Running {
    fn start(inp: &Inputs) -> Result<Running, String> {
        let cfg = ServerConfig::new(crate::fleet::config(None))
            .with_reference(inp.reference.clone())
            // Step clients connect during set-up and may idle until their
            // step starts.
            .with_idle_timeout(Duration::from_secs(600));
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || server.run(move || flag.load(Ordering::Relaxed)));
        Ok(Running { addr, stop, handle })
    }

    fn finish(self) -> Result<ServerReport, String> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// Session id of client `c` in step `k`; its rows are the fleet stream of
/// the same id.
fn session_of(step: usize, c: usize) -> u64 {
    (step * CLIENTS + c) as u64
}

/// Connects every client of every step (the HELLO creates the session).
fn connect_all(
    addr: SocketAddr,
    steps: usize,
    dim: u32,
) -> Result<(Vec<Vec<Client>>, Vec<f64>), String> {
    let mut per_thread: Vec<Vec<Client>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    let mut connect_ms = Vec::new();
    for k in 0..steps {
        for (c, clients) in per_thread.iter_mut().enumerate() {
            let t = Instant::now();
            let (client, _) =
                Client::connect(addr, session_of(k, c), dim).map_err(|e| e.to_string())?;
            connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
            clients.push(client);
        }
    }
    Ok((per_thread, connect_ms))
}

/// One client thread's record of one step, allocated before the heap
/// mark.
struct StepLog {
    /// Every batch of the step, timed from when it was due.
    latency: Hist,
    /// Actual minus scheduled send time of every batch.
    lag: Hist,
    last_lag: Duration,
    /// Rows the server accepted.
    rows: u64,
    started: Option<Instant>,
    ended: Option<Instant>,
}

/// The step logs of every client thread for `steps`.
fn step_logs(steps: &[Step]) -> Vec<Vec<StepLog>> {
    (0..CLIENTS)
        .map(|_| {
            steps
                .iter()
                .map(|_| StepLog {
                    latency: Hist::with_range(PREALLOCATED_NS),
                    lag: Hist::with_range(PREALLOCATED_NS),
                    last_lag: Duration::ZERO,
                    rows: 0,
                    started: None,
                    ended: None,
                })
                .collect()
        })
        .collect()
}

/// One client thread's record of a phase.
struct ClientLog {
    steps: Vec<StepLog>,
    attempted: u64,
    failed: u64,
    rec: Recorder,
}

/// Sends one batch starting at row `*pos`; advances `*pos` by the rows
/// the server accepted. Returns whether the whole batch was accepted.
fn send(
    client: &mut Client,
    inp: &Inputs,
    session: u64,
    pos: &mut u64,
    buf: &mut Vec<Real>,
) -> Result<bool, String> {
    buf.clear();
    for r in 0..BATCH as u64 {
        buf.extend_from_slice(inp.row(session as usize, *pos + r));
    }
    match client.send_batch(buf) {
        Ok(BatchReply::Ack { accepted, .. }) => {
            *pos += u64::from(accepted);
            Ok(true)
        }
        Ok(BatchReply::Busy { accepted, .. }) => {
            *pos += u64::from(accepted);
            Ok(false)
        }
        Err(e) => Err(format!("session {session}: {e}")),
    }
}

/// Times a shadow encode and decode of the batch in `buf`.
fn codec_probe(rec: &mut Recorder, buf: &[Real], dim: u32, session: u64) {
    let msg = Message::Sample {
        dim,
        data: buf.to_vec(),
    };
    let t0 = Instant::now();
    let bytes = msg.encode(session);
    rec.record(Probe::Encode, t0, Instant::now(), 0, session);
    let Ok(header) = <[u8; HEADER_LEN]>::try_from(&bytes[..HEADER_LEN]) else {
        return;
    };
    let t0 = Instant::now();
    let ok = decode_frame(&header, &bytes[HEADER_LEN..])
        .and_then(|f| Message::decode(&f))
        .is_ok();
    if ok {
        rec.record(Probe::Decode, t0, Instant::now(), 0, session);
    }
}

/// Runs one client thread through every step of a phase. Step `k` runs
/// from `starts[k]` for its length; the threads share that schedule, so
/// one thread failing never stalls the other.
fn client_thread(
    c: usize,
    mut clients: Vec<Client>,
    steps: &[Step],
    starts: &[Instant],
    inp: &Inputs,
    mut log: ClientLog,
) -> Result<ClientLog, String> {
    let dim = inp.spec.dim as u32;
    let mut buf = Vec::with_capacity(BATCH * inp.spec.dim);
    let mut batch_id = 0u64;
    for (k, (step, &start)) in steps.iter().zip(starts).enumerate() {
        let session = session_of(k, c);
        let client = &mut clients[k];
        let mut pos = 0u64;
        wait_until(start);
        log.steps[k].started = Some(start);
        let length = Duration::from_secs_f64(step.secs);
        let period = step
            .rate
            .map(|r| Duration::from_secs_f64(BATCH as f64 * CLIENTS as f64 / r));
        // Clients interleave: client c is due half a period after c - 1.
        let offset = period.map_or(Duration::ZERO, |p| p * c as u32 / CLIENTS as u32);
        let mut n = 0u32;
        loop {
            let due = match period {
                Some(p) => start + offset + p * n,
                None => Instant::now(),
            };
            if due - start >= length {
                break;
            }
            wait_until(due);
            let sent_at = Instant::now();
            log.attempted += 1;
            let whole_batch = send(client, inp, session, &mut pos, &mut buf)?;
            let t1 = Instant::now();
            if !whole_batch {
                log.failed += 1;
            }
            let sl = &mut log.steps[k];
            sl.latency.record_duration(t1 - due);
            sl.lag.record_duration(sent_at - due);
            sl.last_lag = sent_at - due;
            if log.rec.traced() {
                let parent = (k + 1) as u32;
                log.rec
                    .record(Probe::BatchRtt, sent_at, t1, parent, batch_id);
                if period.is_some() {
                    log.rec
                        .record(Probe::GenLag, due, sent_at, parent, batch_id);
                }
                if batch_id.is_multiple_of(CODEC_EVERY) {
                    codec_probe(&mut log.rec, &buf, dim, session);
                }
            }
            batch_id += 1;
            n += 1;
        }
        log.steps[k].ended = Some(Instant::now());
        log.steps[k].rows = pos;
    }
    for client in clients {
        let _ = client.bye();
    }
    Ok(log)
}

/// Sleeps until shortly before `t`, then spins to it.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One step of a phase, merged over client threads.
struct StepResult {
    step: Step,
    latency: Hist,
    lag: Hist,
    last_lag: Duration,
    /// Rows the server accepted.
    rows: u64,
    /// First client's start to last client's end.
    span: (Instant, Instant),
}

/// What one phase produced, merged over client threads.
struct Phase {
    steps: Vec<StepResult>,
    /// Rows accepted per session id.
    rows: Vec<u64>,
    attempted: u64,
    failed: u64,
    rec: Recorder,
    report: ServerReport,
    epoch: Instant,
    ended: Instant,
}

fn measure(
    inp: &Inputs,
    prepared: Prepared,
    steps: Vec<Step>,
    traced: bool,
) -> Result<Phase, String> {
    let Prepared {
        server,
        clients,
        logs,
    } = prepared;
    let epoch = Instant::now();
    let mut starts = Vec::with_capacity(steps.len());
    let mut t = epoch;
    for s in &steps {
        starts.push(t);
        t += Duration::from_secs_f64(s.secs);
    }
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(logs)
            .enumerate()
            .map(|(c, (cl, steps_log))| {
                let (steps, starts) = (&steps, &starts);
                let log = ClientLog {
                    steps: steps_log,
                    attempted: 0,
                    failed: 0,
                    rec: Recorder::new(traced, epoch),
                };
                scope.spawn(move || client_thread(c, cl, steps, starts, inp, log))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let ended = Instant::now();
    let report = server.finish()?;
    let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut rows = vec![0u64; steps.len() * CLIENTS];
    let mut merged: Vec<StepResult> = steps
        .iter()
        .map(|&step| StepResult {
            step,
            latency: Hist::new(),
            lag: Hist::new(),
            last_lag: Duration::ZERO,
            rows: 0,
            span: (ended, epoch),
        })
        .collect();
    let mut rec = Recorder::new(traced, epoch);
    let (mut attempted, mut failed) = (0, 0);
    for (c, l) in logs.into_iter().enumerate() {
        for (k, (m, sl)) in merged.iter_mut().zip(&l.steps).enumerate() {
            m.latency.merge(&sl.latency);
            m.lag.merge(&sl.lag);
            m.last_lag = m.last_lag.max(sl.last_lag);
            m.rows += sl.rows;
            m.span.0 = m.span.0.min(sl.started.unwrap_or(epoch));
            m.span.1 = m.span.1.max(sl.ended.unwrap_or(ended));
            rows[session_of(k, c) as usize] = sl.rows;
        }
        attempted += l.attempted;
        failed += l.failed;
        rec.merge(l.rec);
    }
    Ok(Phase {
        steps: merged,
        rows,
        attempted,
        failed,
        rec,
        report,
        epoch,
        ended,
    })
}

/// Net quality: mean delay and accuracy over replays of every session.
struct NetQuality {
    delay: (u64, u64),
    accuracy: PermAccuracy,
    recon_share: f64,
    flops: f64,
}

/// Replays every session the phase fed and compares it with the
/// server's final state.
fn check(inp: &Inputs, ph: &Phase) -> Result<NetQuality, String> {
    let r = &ph.report;
    if !r.fleet.lost.is_empty() || !r.fleet.quarantined.is_empty() {
        return Err(format!(
            "{} session(s) lost or quarantined",
            r.fleet.lost.len() + r.fleet.quarantined.len()
        ));
    }
    let mut q = NetQuality {
        delay: (0, 0),
        accuracy: PermAccuracy::default(),
        recon_share: 0.0,
        flops: 0.0,
    };
    for (sid, &n) in ph.rows.iter().enumerate() {
        let system = r
            .fleet
            .sessions
            .iter()
            .find(|(id, _)| id.0 == sid as u64)
            .map(|(_, p)| p)
            .ok_or_else(|| format!("session {sid}: missing from the server's final report"))?;
        let replay = oracle::check_session(inp, sid, n, system, None, QUALITY_PREFIX)?;
        let limit = n.min(QUALITY_PREFIX);
        let (sum, count) =
            oracle::delays(&replay.detections, &oracle::onsets(inp, sid, limit), limit);
        q.delay.0 += sum;
        q.delay.1 += count;
        q.accuracy.merge(&replay.quality.accuracy);
        q.recon_share += replay.quality.ops.recon_share() / ph.rows.len() as f64;
        q.flops += replay.quality.ops.flops_per_sample() / ph.rows.len() as f64;
    }
    Ok(q)
}

/// A started server with every client of the phase connected, and the
/// client threads' step logs.
struct Prepared {
    server: Running,
    clients: Vec<Vec<Client>>,
    logs: Vec<Vec<StepLog>>,
}

/// One repetition of `net-ingest`: half the phase closed loop (its rows
/// per second are the throughput), half open loop at 80k rows/s (its
/// batch latencies are the latency). A traced repetition follows the
/// closed-loop half with the whole rate ladder.
pub fn rep(opts: &Opts, length: Duration, traced: bool) -> Result<Rep, String> {
    let half = length.as_secs_f64() / 2.0;
    let mut steps = vec![Step {
        rate: None,
        secs: half,
    }];
    if traced {
        steps.extend(LADDER.iter().map(|&r| Step {
            rate: Some(r),
            secs: length.as_secs_f64() / LADDER.len() as f64,
        }));
    } else {
        steps.push(Step {
            rate: Some(LATENCY_RATE),
            secs: half,
        });
    }
    let t = Instant::now();
    let inp = Inputs::synthesize(FLEET, opts.seed)?;
    let logs = step_logs(&steps);
    let heap_base = crate::alloc::mark();
    let server = Running::start(&inp)?;
    let (clients, mut connect_ms) = connect_all(server.addr, steps.len(), inp.spec.dim as u32)?;
    let setup_s = t.elapsed().as_secs_f64();

    let prepared = Prepared {
        server,
        clients,
        logs,
    };
    let ph = measure(&inp, prepared, steps, traced)?;
    let mem_mib = crate::alloc::peak_mib_since(heap_base);
    let verdict = check(&inp, &ph);
    let closed = &ph.steps[0];
    let open = ph
        .steps
        .iter()
        .find(|s| s.step.rate == Some(LATENCY_RATE))
        .ok_or("no latency step")?;
    let net = &ph.report.net;
    let mut rep = Rep {
        setup_s,
        work: closed.rows,
        secs: (closed.span.1 - closed.span.0).as_secs_f64(),
        mem_mib,
        attempted: ph.attempted,
        failed: ph.failed + net.nacks_sent,
        notes: vec![
            format!("input_digest {:016x}", inp.digest()),
            format!(
                "generator lag at the end of the {LATENCY_RATE} rows/s step {:.0} us",
                open.last_lag.as_secs_f64() * 1e6
            ),
        ],
        ..Rep::default()
    };
    match &verdict {
        Ok(q) => {
            rep.delay = q.delay.0 as f64 / q.delay.1.max(1) as f64;
            rep.accuracy = q.accuracy.value();
            rep.notes.push(format!(
                "{} onsets scored over {} replayed sessions",
                q.delay.1,
                ph.rows.len()
            ));
        }
        Err(e) => rep.mismatch = Some(e.clone()),
    }
    if traced {
        let rec = &ph.rec;
        let rows: u64 = ph.rows.iter().sum();
        let mut l = Values::new();
        l.insert("scenario.synth_s", inp.synth_s);
        l.insert("core.calibrate_s", inp.calibrate_s);
        l.insert("server.connect_ms", crate::report::median(&mut connect_ms));
        let (rtt, lag) = (rec.hist(Probe::BatchRtt), rec.hist(Probe::GenLag));
        l.insert("server.batch_rtt_us.p50", us(rtt.quantile(0.5)));
        l.insert("server.batch_rtt_us.p99", us(rtt.quantile(0.99)));
        l.insert("server.gen_lag_us.p99", us(lag.quantile(0.99)));
        l.insert("server.gen_lag_us.max", us(lag.max()));
        l.insert(
            "server.encode_us",
            us(rec.hist(Probe::Encode).quantile(0.5)),
        );
        l.insert(
            "server.decode_us",
            us(rec.hist(Probe::Decode).quantile(0.5)),
        );
        l.insert(
            "server.bytes_rx_per_row",
            net.bytes_rx as f64 / rows.max(1) as f64,
        );
        l.insert("server.busy_replies", net.busy_replies as f64);
        l.insert("server.nacks_sent", net.nacks_sent as f64);
        l.insert(
            "server.admission_rejections",
            net.admission_rejections as f64,
        );
        let sustained = ph
            .steps
            .iter()
            .filter(|s| {
                s.step.rate.is_some()
                    && s.latency.quantile(0.99) as f64 / 1e3 <= P99_LIMIT_US
                    && s.last_lag < LAG_LIMIT
            })
            .filter_map(|s| s.step.rate)
            .fold(0.0, f64::max);
        l.insert("server.max_rate_sps", sustained);
        let m = &ph.report.fleet.metrics;
        l.insert("fleet.samples_processed", m.samples_processed as f64);
        l.insert("fleet.samples_dropped", m.samples_dropped as f64);
        l.insert("fleet.busy_rejections", m.busy_rejections as f64);
        l.insert("fleet.feed_timeouts", m.feed_timeouts as f64);
        l.insert("fleet.drifts_flagged", m.drifts_flagged as f64);
        l.insert("fleet.reconstructions", m.reconstructions_completed as f64);
        if let Ok(q) = &verdict {
            l.insert("core.recon_share", q.recon_share);
            l.insert("linalg.flops_per_sample", q.flops);
        }
        rep.layer = l;
        for s in &ph.steps {
            if let Some(rate) = s.step.rate {
                rep.notes.push(format!(
                    "step {rate} rows/s: p50 {:.1} us, p99 {:.1} us, lag p99 {:.0} us, lag at end {:.0} us",
                    us(s.latency.quantile(0.5)),
                    us(s.latency.quantile(0.99)),
                    us(s.lag.quantile(0.99)),
                    s.last_lag.as_secs_f64() * 1e6
                ));
            }
        }
        let mut parents = vec![rec.parent_span("net-ingest", ph.epoch, ph.ended, 0)];
        for s in &ph.steps {
            parents.push(rec.parent_span(
                s.step.name(),
                s.span.0,
                s.span.1,
                s.step.rate.unwrap_or(0.0) as u64,
            ));
        }
        let path = opts.spans_path("net-ingest");
        rec.write_spans(&path, &parents)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        rep.notes.push(format!(
            "spans {} ({} dropped)",
            path.display(),
            rec.spans_dropped()
        ));
    }
    rep.latency = open.latency.clone();
    Ok(rep)
}
