//! Per-thread recording of the timed calls into each layer.
//!
//! Every benchmark thread owns a [`Recorder`]: one histogram per
//! [`Probe`] plus, in a traced run, a preallocated span buffer that keeps
//! one call in [`SPAN_EVERY`]. Recorders merge after the threads join and
//! the spans are written out once, when the workload ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::hist::Hist;

/// One call in this many also keeps a span.
pub const SPAN_EVERY: u64 = 64;

/// Spans one recorder keeps before it starts counting drops.
pub const SPAN_CAPACITY: usize = 1 << 18;

/// A public call the benchmark times, named after its layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// `DriftPipeline::process` returning `reconstructing == false`.
    ProcessStable,
    /// `DriftPipeline::process` returning `reconstructing == true`.
    ProcessRecon,
    /// `DriftPipeline::to_bytes`.
    ToBytes,
    /// `MultiInstanceModel::predict` on a shadow copy of the live model.
    Predict,
    /// `MultiInstanceModel::seq_train_label` on the shadow copy.
    SeqTrain,
    /// `FleetEngine::feed_blocking`, backpressure waits included.
    Feed,
    /// `Store::put` into a sibling store.
    StorePut,
    /// `Client::send_batch`.
    BatchRtt,
    /// Actual minus scheduled send time of an open-loop batch.
    GenLag,
    /// `Message::encode` of a sample frame.
    Encode,
    /// `proto::decode_frame` plus `Message::decode` of a sample frame.
    Decode,
}

const PROBES: usize = 11;

impl Probe {
    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Probe::ProcessStable => "core.process.stable",
            Probe::ProcessRecon => "core.process.recon",
            Probe::ToBytes => "core.to_bytes",
            Probe::Predict => "oselm.predict",
            Probe::SeqTrain => "oselm.seq_train",
            Probe::Feed => "fleet.feed_blocking",
            Probe::StorePut => "store.put",
            Probe::BatchRtt => "server.send_batch",
            Probe::GenLag => "server.gen_lag",
            Probe::Encode => "server.encode",
            Probe::Decode => "server.decode",
        }
    }
}

/// One recorded call. `parent` is the workload span (0) or a step span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Id of the enclosing workload or step span.
    pub parent: u32,
    /// Session or batch the call served.
    pub request: u64,
}

/// Histograms and sampled spans of one thread's timed calls.
#[derive(Debug)]
pub struct Recorder {
    traced: bool,
    epoch: Instant,
    hists: Vec<Hist>,
    spans: Vec<Span>,
    calls: u64,
    spans_dropped: u64,
}

fn since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

impl Recorder {
    /// A recorder; only a traced one allocates its span buffer.
    pub fn new(traced: bool, epoch: Instant) -> Recorder {
        Recorder {
            traced,
            epoch,
            hists: vec![Hist::new(); PROBES],
            spans: Vec::with_capacity(if traced { SPAN_CAPACITY } else { 0 }),
            calls: 0,
            spans_dropped: 0,
        }
    }

    /// Whether this run is traced.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Records a call to `probe` that ran from `start` to `end`.
    pub fn record(
        &mut self,
        probe: Probe,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u64,
    ) {
        self.hists[probe as usize].record_duration(end.saturating_duration_since(start));
        if !self.traced {
            return;
        }
        self.calls += 1;
        if !self.calls.is_multiple_of(SPAN_EVERY) {
            return;
        }
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(Span {
                name: probe.name(),
                start_ns: since(self.epoch, start),
                end_ns: since(self.epoch, end),
                parent,
                request,
            });
        } else {
            self.spans_dropped += 1;
        }
    }

    /// The histogram of `probe`.
    pub fn hist(&self, probe: Probe) -> &Hist {
        &self.hists[probe as usize]
    }

    /// Adds another thread's histograms and spans to this one.
    pub fn merge(&mut self, other: Recorder) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
        self.spans.extend(other.spans);
        self.spans_dropped += other.spans_dropped;
        self.calls += other.calls;
    }

    /// Spans that did not fit the preallocated buffer.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped
    }

    /// Writes `parents` (workload span first, then steps; a parent's id
    /// is its index) and every kept span as TSV.
    pub fn write_spans(&self, path: &Path, parents: &[Span]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, s) in parents.iter().enumerate() {
            let parent = if id == 0 {
                "-".to_string()
            } else {
                "0".to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        for (k, s) in self.spans.iter().enumerate() {
            let id = parents.len() + k;
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.parent, s.request
            )?;
        }
        out.flush()
    }

    /// A parent span from `start` to `end` for [`Recorder::write_spans`].
    pub fn parent_span(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
    ) -> Span {
        Span {
            name,
            start_ns: since(self.epoch, start),
            end_ns: since(self.epoch, end),
            parent: 0,
            request,
        }
    }
}
