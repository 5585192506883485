//! Lock-light fleet-wide aggregation.
//!
//! Workers bump plain atomic counters on their hot path; readers take a
//! consistent-enough snapshot without stopping the world. Only the event
//! log (rare: drifts, reconstructions, supervision lifecycle) takes a
//! mutex.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shared atomic counters. Internal; read through [`MetricsSnapshot`].
#[derive(Debug, Default)]
pub(crate) struct FleetMetrics {
    /// Samples fully processed by workers (not merely enqueued).
    pub samples_processed: AtomicU64,
    /// Drift detections flagged across all sessions.
    pub drifts_flagged: AtomicU64,
    /// Reconstructions completed across all sessions.
    pub reconstructions_completed: AtomicU64,
    /// Feeds rejected with `Busy` (queue full at the time of the call).
    pub busy_rejections: AtomicU64,
    /// Samples dropped by workers: fed to a session that no longer (or
    /// never) existed on the shard, rejected by the pipeline (e.g.
    /// non-finite input), or stranded on a dead worker's queue.
    pub samples_dropped: AtomicU64,
    /// Live session count.
    pub sessions: AtomicU64,
    /// Session pipeline-step panics caught by the supervision wrapper.
    pub panics_caught: AtomicU64,
    /// Sessions restored from a rolling checkpoint after a panic or a
    /// worker death.
    pub sessions_restored: AtomicU64,
    /// Sessions permanently quarantined.
    pub sessions_quarantined: AtomicU64,
    /// Dead worker threads detected and replaced.
    pub workers_respawned: AtomicU64,
    /// Checkpoint blobs deliberately damaged by the fault injector.
    pub checkpoints_corrupted: AtomicU64,
    /// Blocking feeds that gave up after `FleetConfig::feed_timeout`.
    pub feed_timeouts: AtomicU64,
    /// Pipelines that left `Healthy` (guard rejection/repair or a rolled-
    /// back model update).
    pub sessions_degraded: AtomicU64,
    /// Degraded pipelines that returned to `Healthy`.
    pub sessions_recovered: AtomicU64,
    /// Samples repaired (clamped/imputed) by pipeline guards and processed.
    pub samples_sanitized: AtomicU64,
    /// Checkpoints flushed to the durable state store.
    pub durable_flushes: AtomicU64,
    /// Checkpoints a newer one of the same session replaced before the
    /// flusher wrote them to disk (write-behind coalescing).
    pub checkpoints_superseded: AtomicU64,
    /// Durable-store writes (checkpoint or quarantine ledger) that failed;
    /// the fleet keeps running memory-only when the disk misbehaves.
    pub durable_flush_failures: AtomicU64,
    /// Transitions into degraded durability (first flush failure of an
    /// episode).
    pub durability_degraded: AtomicU64,
    /// Transitions back to durable (every buffered write drained).
    pub durability_recovered: AtomicU64,
    /// Background re-attempts of buffered durable writes.
    pub durable_flush_retries: AtomicU64,
    /// Durable writes buffered in memory while degraded instead of
    /// hitting the failing disk.
    pub durable_flushes_buffered: AtomicU64,
    /// Federation merge rounds that produced (and installed) a merged
    /// model.
    pub merge_rounds: AtomicU64,
    /// Per-session contributions accepted into a federated merge.
    pub contributions_accepted: AtomicU64,
    /// Contributions rejected by health gating (quarantined or degraded
    /// contributor, or stale beyond the staleness bound). Total across
    /// every reason; the per-reason split follows.
    pub contributions_rejected: AtomicU64,
    /// Contributions rejected because the contributor's pipeline was
    /// quarantined, degraded, or its snapshot undecodable.
    pub rejected_health: AtomicU64,
    /// Contributions rejected for staleness beyond the staleness bound.
    pub rejected_staleness: AtomicU64,
    /// Contributions whose statistics were non-finite / non-positive-
    /// definite (the merge validation path).
    pub rejected_non_pd: AtomicU64,
    /// Contributions scored outside the robust deviation bound by the
    /// two-pass merge (statistically plausible but wrong — the poisoning
    /// signature).
    pub rejected_deviation: AtomicU64,
    /// Contributions excluded because the session's reputation sat below
    /// the trust floor at round time.
    pub rejected_low_trust: AtomicU64,
    /// Merge rounds rejected wholesale (too few contributors survived
    /// gating, or merge validation failed); the baseline stayed put.
    pub merge_rounds_rejected: AtomicU64,
    /// Merged-model installs delivered to sessions through the shard
    /// FIFOs.
    pub redistributions: AtomicU64,
}

/// Per-reason breakdown of federation contribution rejections, bumped
/// alongside the `contributions_rejected` total so operators can tell
/// poisoning (deviation/low-trust) from flakiness (health/staleness).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RejectReasons {
    /// Quarantined/degraded contributor or undecodable snapshot.
    pub health: u64,
    /// Stale beyond the staleness bound.
    pub staleness: u64,
    /// Non-finite or non-positive-definite statistics.
    pub non_pd: u64,
    /// Outside the robust deviation bound.
    pub deviation: u64,
    /// Below the reputation trust floor.
    pub low_trust: u64,
}

impl RejectReasons {
    /// Sum across every reason.
    pub fn total(&self) -> u64 {
        self.health + self.staleness + self.non_pd + self.deviation + self.low_trust
    }
}

/// Per-shard ingress-queue depth, in sample rows. A producer reserves
/// room for a frame before it sends it, and the worker releases one row
/// as it takes each row, so the rows queued on a shard never exceed its
/// capacity. Control messages are not counted.
#[derive(Debug)]
pub(crate) struct QueueDepth {
    count: AtomicUsize,
    capacity: usize,
}

impl QueueDepth {
    pub fn new(capacity: usize) -> Self {
        QueueDepth {
            count: AtomicUsize::new(0),
            capacity,
        }
    }

    /// Reserves room for up to `rows` rows and returns how many it
    /// reserved (0 when none fit). With `whole`, a frame that fits in the
    /// queue is reserved all at once or not at all, so it stays one
    /// message; otherwise, and always for a frame larger than the queue,
    /// the prefix that fits is reserved, so a waiting frame always makes
    /// progress as rows free up.
    pub fn reserve(&self, rows: usize, whole: bool) -> usize {
        let whole = whole && rows <= self.capacity;
        let mut now = self.count.load(Ordering::Relaxed);
        loop {
            let take = rows.min(self.capacity.saturating_sub(now));
            if take == 0 || (whole && take < rows) {
                return 0;
            }
            match self.count.compare_exchange_weak(
                now,
                now + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(seen) => now = seen,
            }
        }
    }

    /// Gives back `rows` reserved or queued rows.
    pub fn release(&self, rows: usize) {
        self.count.fetch_sub(rows, Ordering::Relaxed);
    }

    pub fn get(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Zeroes the depth (the queue's rows died with its worker) and
    /// returns how many rows were stranded.
    pub fn reset(&self) -> usize {
        self.count.swap(0, Ordering::Relaxed)
    }
}

/// A point-in-time copy of the fleet's aggregate counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Samples fully processed by workers.
    pub samples_processed: u64,
    /// Drift detections flagged across all sessions.
    pub drifts_flagged: u64,
    /// Reconstructions completed across all sessions.
    pub reconstructions_completed: u64,
    /// Feeds rejected with `Busy`.
    pub busy_rejections: u64,
    /// Samples dropped (unknown session, pipeline rejection, or stranded
    /// on a dead worker's queue).
    pub samples_dropped: u64,
    /// Live session count.
    pub sessions: u64,
    /// Session panics caught by the supervision wrapper.
    pub panics_caught: u64,
    /// Sessions restored from a rolling checkpoint.
    pub sessions_restored: u64,
    /// Sessions permanently quarantined.
    pub sessions_quarantined: u64,
    /// Dead worker threads detected and replaced.
    pub workers_respawned: u64,
    /// Checkpoint blobs damaged by the fault injector.
    pub checkpoints_corrupted: u64,
    /// Blocking feeds that timed out under sustained backpressure.
    pub feed_timeouts: u64,
    /// Pipelines that left `Healthy` (degraded-episode starts).
    pub sessions_degraded: u64,
    /// Degraded pipelines that returned to `Healthy`.
    pub sessions_recovered: u64,
    /// Samples repaired by pipeline guards and processed.
    pub samples_sanitized: u64,
    /// Checkpoints flushed to the durable state store.
    pub durable_flushes: u64,
    /// Checkpoints superseded by a newer one before reaching disk.
    pub checkpoints_superseded: u64,
    /// Durable-store writes that failed (fleet degraded to memory-only).
    pub durable_flush_failures: u64,
    /// Transitions into degraded durability.
    pub durability_degraded: u64,
    /// Transitions back to durable.
    pub durability_recovered: u64,
    /// Background re-attempts of buffered durable writes.
    pub durable_flush_retries: u64,
    /// Durable writes buffered in memory while degraded.
    pub durable_flushes_buffered: u64,
    /// Federation merge rounds that produced a merged model.
    pub merge_rounds: u64,
    /// Contributions accepted into federated merges.
    pub contributions_accepted: u64,
    /// Contributions rejected by federation gating (all reasons).
    pub contributions_rejected: u64,
    /// Rejections: quarantined/degraded contributor or bad snapshot.
    pub rejected_health: u64,
    /// Rejections: stale beyond the staleness bound.
    pub rejected_staleness: u64,
    /// Rejections: non-finite / non-positive-definite statistics.
    pub rejected_non_pd: u64,
    /// Rejections: outside the robust deviation bound.
    pub rejected_deviation: u64,
    /// Rejections: below the reputation trust floor.
    pub rejected_low_trust: u64,
    /// Merge rounds rejected wholesale (baseline left untouched).
    pub merge_rounds_rejected: u64,
    /// Merged-model installs delivered to sessions.
    pub redistributions: u64,
    /// Ingress-queue depth per shard at snapshot time, in sample rows.
    pub queue_depths: Vec<usize>,
}

impl FleetMetrics {
    pub fn snapshot(&self, queue_depths: Vec<usize>) -> MetricsSnapshot {
        MetricsSnapshot {
            samples_processed: self.samples_processed.load(Ordering::Relaxed),
            drifts_flagged: self.drifts_flagged.load(Ordering::Relaxed),
            reconstructions_completed: self.reconstructions_completed.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            samples_dropped: self.samples_dropped.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
            panics_caught: self.panics_caught.load(Ordering::Relaxed),
            sessions_restored: self.sessions_restored.load(Ordering::Relaxed),
            sessions_quarantined: self.sessions_quarantined.load(Ordering::Relaxed),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
            checkpoints_corrupted: self.checkpoints_corrupted.load(Ordering::Relaxed),
            feed_timeouts: self.feed_timeouts.load(Ordering::Relaxed),
            sessions_degraded: self.sessions_degraded.load(Ordering::Relaxed),
            sessions_recovered: self.sessions_recovered.load(Ordering::Relaxed),
            samples_sanitized: self.samples_sanitized.load(Ordering::Relaxed),
            durable_flushes: self.durable_flushes.load(Ordering::Relaxed),
            checkpoints_superseded: self.checkpoints_superseded.load(Ordering::Relaxed),
            durable_flush_failures: self.durable_flush_failures.load(Ordering::Relaxed),
            durability_degraded: self.durability_degraded.load(Ordering::Relaxed),
            durability_recovered: self.durability_recovered.load(Ordering::Relaxed),
            durable_flush_retries: self.durable_flush_retries.load(Ordering::Relaxed),
            durable_flushes_buffered: self.durable_flushes_buffered.load(Ordering::Relaxed),
            merge_rounds: self.merge_rounds.load(Ordering::Relaxed),
            contributions_accepted: self.contributions_accepted.load(Ordering::Relaxed),
            contributions_rejected: self.contributions_rejected.load(Ordering::Relaxed),
            rejected_health: self.rejected_health.load(Ordering::Relaxed),
            rejected_staleness: self.rejected_staleness.load(Ordering::Relaxed),
            rejected_non_pd: self.rejected_non_pd.load(Ordering::Relaxed),
            rejected_deviation: self.rejected_deviation.load(Ordering::Relaxed),
            rejected_low_trust: self.rejected_low_trust.load(Ordering::Relaxed),
            merge_rounds_rejected: self.merge_rounds_rejected.load(Ordering::Relaxed),
            redistributions: self.redistributions.load(Ordering::Relaxed),
            queue_depths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_admits_whole_frames_or_the_prefix_that_fits() {
        let depth = QueueDepth::new(10);
        // Larger than the queue: the prefix that fits, even when whole.
        assert_eq!(depth.reserve(16, true), 10);
        assert_eq!(depth.reserve(1, true), 0);
        depth.release(3);
        // Room for 3: a whole 4-row frame waits, its prefix fits.
        assert_eq!(depth.reserve(4, true), 0);
        assert_eq!(depth.reserve(4, false), 3);
        depth.release(3);
        assert_eq!(depth.reserve(3, true), 3);
        depth.release(2);
        // Room for 2: a larger frame takes its first two rows.
        assert_eq!(depth.reserve(16, true), 2);
        assert_eq!(depth.get(), 10);
        assert_eq!(depth.reset(), 10);
        assert_eq!(depth.get(), 0);
    }
}
