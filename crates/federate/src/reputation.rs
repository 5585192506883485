//! Per-session contributor reputation, mirroring the quarantine-ledger
//! pattern at the learning layer.
//!
//! Health gating catches contributors that are *overtly* broken
//! (quarantined, degraded, stale, non-PD). The robust two-pass merge
//! catches statistically plausible but wrong deltas — but a device that
//! poisons every round should not get a fresh hearing every round. The
//! [`ReputationBook`] turns per-round outlier verdicts into persistent
//! trust: exponential decay on outlier rounds, partial recovery on clean
//! rounds, and a trust floor below which a session is excluded from
//! merging entirely. Excluded sessions are still *scored* each round, so
//! a repaired device earns its way back in — exclusion is reversible,
//! unlike quarantine.
//!
//! The book is durable: it persists through the store's reserved
//! `reputation/` manifest (atomic, generational, buffered under
//! `DegradedDurability`) and is restored by `Store::open`'s recovery
//! scan, so an adversarial device cannot launder its history through a
//! process restart.

use seqdrift_fleet::ReputationEntry;
use seqdrift_linalg::Real;
use std::collections::BTreeMap;

/// Multiplicative trust decay applied to a session's reputation on each
/// round it scores as an outlier.
pub const TRUST_DECAY: Real = 0.5;

/// Fraction of the gap to full trust recovered on each clean round:
/// `trust += (1 - trust) * TRUST_RECOVERY`.
pub const TRUST_RECOVERY: Real = 0.25;

/// Reputation floor: sessions whose trust sits below this are excluded
/// from merging (still scored, so they can recover).
pub const TRUST_FLOOR: Real = 0.3;

/// The federation trust ledger: one [`ReputationEntry`] per session that
/// has ever contributed to a merge round. Sessions without an entry are
/// fully trusted (trust 1.0) — reputation is earned downward.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReputationBook {
    entries: BTreeMap<u64, ReputationEntry>,
    /// Whether the book changed since the last persist.
    dirty: bool,
}

impl ReputationBook {
    /// An empty, fully-trusting book.
    pub fn new() -> Self {
        ReputationBook::default()
    }

    /// Restores a book from persisted entries (the durable manifest).
    pub fn from_entries(entries: BTreeMap<u64, ReputationEntry>) -> Self {
        ReputationBook {
            entries,
            dirty: false,
        }
    }

    /// The persistable entries.
    pub fn entries(&self) -> &BTreeMap<u64, ReputationEntry> {
        &self.entries
    }

    /// Current trust of a session (1.0 when never flagged).
    pub fn trust(&self, session: u64) -> Real {
        self.entries.get(&session).map(|e| e.trust).unwrap_or(1.0)
    }

    /// Whether the session's trust clears [`TRUST_FLOOR`].
    pub fn is_trusted(&self, session: u64) -> bool {
        self.trust(session) >= TRUST_FLOOR
    }

    /// Records an outlier round: trust decays multiplicatively.
    pub fn record_outlier(&mut self, session: u64) {
        let entry = self.entries.entry(session).or_default();
        entry.trust = (entry.trust * TRUST_DECAY).clamp(0.0, 1.0);
        entry.outlier_rounds += 1;
        self.dirty = true;
    }

    /// Records a clean round: trust recovers a fraction of the gap to 1.
    /// Sessions already at full trust stay untouched (and the book stays
    /// clean), so an honest fleet never churns the durable manifest.
    pub fn record_clean(&mut self, session: u64) {
        let Some(entry) = self.entries.get_mut(&session) else {
            return;
        };
        if entry.trust >= 1.0 {
            entry.clean_rounds += 1;
            self.dirty = true;
            return;
        }
        entry.trust = (entry.trust + (1.0 - entry.trust) * TRUST_RECOVERY).clamp(0.0, 1.0);
        entry.clean_rounds += 1;
        self.dirty = true;
    }

    /// Whether the book changed since the last [`ReputationBook::mark_persisted`].
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Marks the current state as persisted.
    pub fn mark_persisted(&mut self) {
        self.dirty = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trust_decays_below_floor_and_recovers_above() {
        let mut book = ReputationBook::new();
        assert!(book.is_trusted(7));
        book.record_outlier(7);
        assert_eq!(book.trust(7), TRUST_DECAY);
        assert!(book.is_trusted(7));
        book.record_outlier(7);
        assert_eq!(book.trust(7), TRUST_DECAY * TRUST_DECAY);
        assert!(!book.is_trusted(7), "below the floor");
        // A clean round closes `TRUST_RECOVERY` of the gap to 1.
        book.record_clean(7);
        let recovered =
            TRUST_DECAY * TRUST_DECAY + (1.0 - TRUST_DECAY * TRUST_DECAY) * TRUST_RECOVERY;
        assert!((book.trust(7) - recovered).abs() < 1e-6);
        assert!(book.is_trusted(7), "recovered past the floor");
        let entry = book.entries()[&7];
        assert_eq!(entry.outlier_rounds, 2);
        assert_eq!(entry.clean_rounds, 1);
    }

    #[test]
    fn clean_rounds_for_unflagged_sessions_do_not_dirty_the_book() {
        let mut book = ReputationBook::new();
        book.record_clean(3);
        assert!(!book.is_dirty());
        assert!(book.entries().is_empty());
        book.record_outlier(3);
        assert!(book.is_dirty());
        book.mark_persisted();
        assert!(!book.is_dirty());
    }

    #[test]
    fn roundtrips_through_entries() {
        let mut book = ReputationBook::new();
        book.record_outlier(1);
        book.record_clean(1);
        let restored = ReputationBook::from_entries(book.entries().clone());
        assert_eq!(restored.trust(1), book.trust(1));
        assert!(!restored.is_dirty());
    }
}
