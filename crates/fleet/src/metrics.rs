//! Lock-light fleet-wide aggregation.
//!
//! Workers bump plain atomic counters on their hot path; readers take a
//! consistent-enough snapshot without stopping the world. Only the event
//! log (rare: drifts, reconstructions, supervision lifecycle) takes a
//! mutex. Each counter is declared once, in a [`counter_table!`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Declares a layer's counters once: each entry is a doc comment and a
/// name. Generates the atomic struct (`AtomicU64` fields that hot paths
/// bump with relaxed `fetch_add`; `Debug` and `Default`), the snapshot
/// struct (one `u64` per counter in declaration order, then the extra
/// fields written in its braces), and `snapshot()`, which loads every
/// counter with `Relaxed` and leaves the extra fields at their defaults
/// for the caller to fill.
///
/// ```
/// seqdrift_fleet::counter_table! {
///     /// Live counters.
///     pub struct Counters;
///     /// A copy of [`Counters`].
///     #[derive(Debug)]
///     pub struct CountersSnapshot {}
///     /// Frames read.
///     frames,
/// }
/// let live = Counters::default();
/// live.frames.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(live.snapshot().frames, 2);
/// ```
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        $vis:vis struct $atomic:ident;
        $(#[$snap_meta:meta])*
        pub struct $snapshot:ident {
            $($(#[$extra_doc:meta])* pub $extra:ident: $extra_ty:ty,)*
        }
        $($(#[$doc:meta])* $name:ident,)+
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $atomic {
            $($(#[$doc])* pub $name: ::std::sync::atomic::AtomicU64,)+
        }
        $(#[$snap_meta])*
        pub struct $snapshot {
            $($(#[$doc])* pub $name: u64,)+
            $($(#[$extra_doc])* pub $extra: $extra_ty,)*
        }
        impl $atomic {
            /// Loads every counter with `Relaxed` ordering; any extra
            /// snapshot fields start at their defaults.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($name: self.$name.load(::std::sync::atomic::Ordering::Relaxed),)+
                    $($extra: ::std::default::Default::default(),)*
                }
            }
        }
    };
}

counter_table! {
    /// Shared atomic counters. Internal; read through [`MetricsSnapshot`].
    pub(crate) struct FleetMetrics;
    /// A point-in-time copy of the fleet's aggregate counters.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MetricsSnapshot {
        /// Contributions rejected by federation gating, all reasons: the
        /// [`RejectReasons::total`] of the five per-reason counters.
        pub contributions_rejected: u64,
        /// Ingress-queue depth per shard at snapshot time, in sample rows.
        pub queue_depths: Vec<usize>,
    }
    /// Samples fully processed by workers (not merely enqueued).
    samples_processed,
    /// Drift detections flagged across all sessions.
    drifts_flagged,
    /// Reconstructions completed across all sessions.
    reconstructions_completed,
    /// Feeds rejected with `Busy` (queue full at the time of the call).
    busy_rejections,
    /// Samples dropped by workers: unknown session or pipeline rejection
    /// (e.g. non-finite input). At shutdown, the rows left on the queue
    /// of a worker that died (a panic inside a restore) are added.
    samples_dropped,
    /// Live session count.
    sessions,
    /// Panics caught by the supervision boundary while a worker handled
    /// a live session's row or control message.
    panics_caught,
    /// Sessions restored from a rolling checkpoint after a caught panic.
    sessions_restored,
    /// Sessions permanently quarantined.
    sessions_quarantined,
    /// Checkpoint blobs deliberately damaged by the fault injector.
    checkpoints_corrupted,
    /// Blocking feeds that gave up after `FleetConfig::feed_timeout`,
    /// plus offset queries (`FleetEngine::samples_processed_within`)
    /// whose reply missed their deadline.
    feed_timeouts,
    /// Pipelines that left `Healthy` (input fault or rolled-back update).
    sessions_degraded,
    /// Degraded pipelines that returned to `Healthy`.
    sessions_recovered,
    /// Samples repaired (clamped/imputed) by pipeline guards and processed.
    samples_sanitized,
    /// Checkpoints flushed to the durable state store.
    durable_flushes,
    /// Checkpoints a newer one of the same session replaced before the
    /// flusher wrote them to disk (write-behind coalescing).
    checkpoints_superseded,
    /// Durable-store writes (checkpoint or quarantine ledger) that failed;
    /// the fleet keeps running memory-only when the disk misbehaves.
    durable_flush_failures,
    /// Transitions into degraded durability (an episode's first failure).
    durability_degraded,
    /// Transitions back to durable (every buffered write drained).
    durability_recovered,
    /// Background re-attempts of buffered durable writes.
    durable_flush_retries,
    /// Writes buffered in memory while degraded instead of hitting disk.
    durable_flushes_buffered,
    /// Federation rounds that produced (and installed) a merged model.
    merge_rounds,
    /// Per-session contributions accepted into a federated merge.
    contributions_accepted,
    /// Rejections: quarantined/degraded contributor or undecodable snapshot.
    rejected_health,
    /// Contributions rejected for staleness beyond the staleness bound.
    rejected_staleness,
    /// Rejections: non-finite or non-positive-definite statistics.
    rejected_non_pd,
    /// Rejections: outside the two-pass merge's robust deviation bound
    /// (statistically plausible but wrong — the poisoning signature).
    rejected_deviation,
    /// Rejections: the session's reputation sat below the trust floor.
    rejected_low_trust,
    /// Merge rounds rejected wholesale (no contributor survived the
    /// robust pass, or merge validation failed); the baseline stayed put.
    merge_rounds_rejected,
    /// Merged-model installs delivered to sessions via the shard FIFOs.
    redistributions,
}

/// Per-reason breakdown of federation contribution rejections, so
/// operators can tell poisoning (deviation/low-trust) from flakiness
/// (health/staleness). Its total is the snapshot's `contributions_rejected`.
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
    }
}
