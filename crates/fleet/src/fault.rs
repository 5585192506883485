//! Deterministic seeded fault injection for the fleet's recovery paths.
//!
//! Every failure mode the supervision layer handles — a panicking
//! pipeline step, a panic in the worker's own code after it, NaN sensor
//! bursts, corrupted checkpoint bytes, pathologically slow sessions — can
//! be triggered on purpose, at an exact (session, delivery-index)
//! coordinate, so recovery is exercised *reproducibly* in tests and from
//! `seqdrift fleet --inject-faults SEED`.
//!
//! Determinism model: a plan is either written out explicitly
//! ([`FaultInjector::new`]) or derived from a seed through the workspace's
//! own xoshiro generator ([`FaultInjector::from_seed`]). Decisions at
//! runtime are pure functions of the plan and the per-session delivery
//! counter; no randomness is drawn while the fleet runs. The one-shot
//! faults (the two panics) fire at most once, even for a session id that
//! is created again and counts its deliveries from 0 anew.

use seqdrift_linalg::{Real, Rng};
use std::sync::atomic::{AtomicBool, Ordering};

/// One planned failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the session's pipeline step when the session's
    /// `nth` delivered sample (0-based) arrives. Caught by the shard's
    /// supervision wrapper; exercises checkpoint restore.
    PanicOnSample {
        /// Victim session id.
        session: u64,
        /// 0-based delivery index that triggers the panic.
        nth: u64,
    },
    /// Panic in the worker's own code after the pipeline step, as the
    /// last thing the worker does for the session's `nth` delivered
    /// sample (0-based): after its metrics, events and checkpoint
    /// cadence. Caught like `PanicOnSample`, because the supervision
    /// boundary encloses the worker's whole handling of a row: the
    /// session restores from its checkpoint, the shard keeps draining.
    PanicInWorker {
        /// Victim session id.
        session: u64,
        /// 0-based delivery index that triggers the panic.
        nth: u64,
    },
    /// Overwrite every feature with NaN for `len` consecutive deliveries
    /// starting at `start` — a faulty sensor burst. The pipeline must
    /// reject each sample without losing the session.
    NanBurst {
        /// Victim session id.
        session: u64,
        /// First affected delivery index.
        start: u64,
        /// Number of consecutive poisoned samples.
        len: u64,
    },
    /// Flip a byte in every checkpoint blob the session writes, starting
    /// with its `from_nth` snapshot (0-based). A later restore attempt
    /// must fail cleanly into permanent quarantine.
    CorruptCheckpoint {
        /// Victim session id.
        session: u64,
        /// First corrupted snapshot ordinal.
        from_nth: u64,
    },
    /// Sleep `micros` before every `every`-th delivery of the session —
    /// an artificially slow consumer that builds real backpressure.
    SlowSession {
        /// Victim session id.
        session: u64,
        /// Period in deliveries (every `every`-th sample sleeps).
        every: u64,
        /// Sleep duration per affected sample, in microseconds.
        micros: u64,
    },
}

/// A fault plus its fired-once latch (for the one-shot kinds).
#[derive(Debug)]
struct Armed {
    fault: Fault,
    fired: AtomicBool,
}

impl Armed {
    /// Latches the fault as fired; returns whether this call won the race.
    fn fire_once(&self) -> bool {
        !self.fired.swap(true, Ordering::Relaxed)
    }
}

/// A deterministic fault plan shared by every shard of one engine.
#[derive(Debug)]
pub struct FaultInjector {
    faults: Vec<Armed>,
}

impl FaultInjector {
    /// Builds an injector from an explicit plan (the test-suite entry
    /// point: every coordinate is spelled out).
    pub fn new(plan: Vec<Fault>) -> Self {
        FaultInjector {
            faults: plan
                .into_iter()
                .map(|fault| Armed {
                    fault,
                    fired: AtomicBool::new(false),
                })
                .collect(),
        }
    }

    /// Derives a mixed plan from a seed: one mid-stream panic, one NaN
    /// burst, one corrupt-checkpoint victim and one slow session, spread
    /// over `sessions` session ids (the CLI entry point).
    pub fn from_seed(seed: u64, sessions: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let sessions = sessions.max(1);
        let plan = vec![
            Fault::PanicOnSample {
                session: rng.below(sessions),
                nth: 40 + rng.below(160),
            },
            Fault::NanBurst {
                session: rng.below(sessions),
                start: 20 + rng.below(100),
                len: 1 + rng.below(8),
            },
            Fault::CorruptCheckpoint {
                session: rng.below(sessions),
                from_nth: rng.below(3),
            },
            Fault::SlowSession {
                session: rng.below(sessions),
                every: 16 + rng.below(48),
                micros: 100 + rng.below(400),
            },
        ];
        FaultInjector::new(plan)
    }

    /// The planned faults, in plan order.
    pub fn plan(&self) -> Vec<Fault> {
        self.faults.iter().map(|a| a.fault).collect()
    }

    /// Human-readable plan summary (one fault per line), printed by the
    /// CLI so a seeded run documents what it injected.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for a in &self.faults {
            let line = match a.fault {
                Fault::PanicOnSample { session, nth } => {
                    format!("panic session {session} at its delivery {nth}")
                }
                Fault::PanicInWorker { session, nth } => {
                    format!("panic worker code on session {session} at its delivery {nth}")
                }
                Fault::NanBurst {
                    session,
                    start,
                    len,
                } => format!(
                    "NaN burst on session {session}: deliveries {start}..{}",
                    start + len
                ),
                Fault::CorruptCheckpoint { session, from_nth } => {
                    format!("corrupt session {session}'s checkpoints from snapshot {from_nth}")
                }
                Fault::SlowSession {
                    session,
                    every,
                    micros,
                } => format!("slow session {session}: +{micros}us every {every} deliveries"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Panics when the plan puts a `PanicInWorker` on this delivery: the
    /// last hook a worker runs for a row, after the pipeline step.
    pub(crate) fn panic_in_worker(&self, session: u64, delivered: u64) {
        let hit = self.faults.iter().any(|a| {
            matches!(
                a.fault,
                Fault::PanicInWorker { session: s, nth }
                    if s == session && nth == delivered
            ) && a.fire_once()
        });
        if hit {
            panic!(
                "injected fault: worker code panics on session {session} at delivery {delivered}"
            );
        }
    }

    /// Applies sample-level faults for this delivery: may sleep (slow
    /// session), overwrite the sample with NaN (sensor burst), or panic
    /// (the supervised failure path).
    pub(crate) fn before_process(&self, session: u64, delivered: u64, sample: &mut [Real]) {
        for a in &self.faults {
            match a.fault {
                Fault::SlowSession {
                    session: s,
                    every,
                    micros,
                } if s == session && every > 0 && delivered.is_multiple_of(every) => {
                    std::thread::sleep(std::time::Duration::from_micros(micros));
                }
                Fault::NanBurst {
                    session: s,
                    start,
                    len,
                } if s == session
                    && delivered >= start
                    && delivered < start.saturating_add(len) =>
                {
                    for v in sample.iter_mut() {
                        *v = Real::NAN;
                    }
                }
                Fault::PanicOnSample { session: s, nth }
                    if s == session && nth == delivered && a.fire_once() =>
                {
                    panic!("injected fault: session {session} panics at delivery {delivered}");
                }
                _ => {}
            }
        }
    }

    /// Corrupts a checkpoint blob in place when the plan targets this
    /// session's `nth` snapshot. Returns whether bytes were flipped.
    pub(crate) fn corrupt_checkpoint(&self, session: u64, nth: u64, blob: &mut [u8]) -> bool {
        let targeted = self.faults.iter().any(|a| {
            matches!(
                a.fault,
                Fault::CorruptCheckpoint { session: s, from_nth }
                    if s == session && nth >= from_nth
            )
        });
        if targeted {
            // Flip a byte past the header so the damage hits payload, not
            // magic (payload damage is the harder case for the decoder).
            if let Some(b) = blob.get_mut(blob.len() / 2) {
                *b ^= 0xA5;
            }
        }
        targeted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultInjector::from_seed(42, 16);
        let b = FaultInjector::from_seed(42, 16);
        assert_eq!(a.plan(), b.plan());
        let c = FaultInjector::from_seed(43, 16);
        assert_ne!(a.plan(), c.plan());
    }

    #[test]
    fn panic_fault_fires_exactly_once() {
        let inj = FaultInjector::new(vec![Fault::PanicOnSample { session: 3, nth: 5 }]);
        let mut x = vec![0.5; 4];
        inj.before_process(3, 4, &mut x); // miss
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.before_process(3, 5, &mut x)
        }));
        assert!(hit.is_err());
        // Re-delivery of the same index (a session created again) must
        // not re-fire.
        inj.before_process(3, 5, &mut x);
    }

    #[test]
    fn nan_burst_covers_its_range_only() {
        let inj = FaultInjector::new(vec![Fault::NanBurst {
            session: 1,
            start: 10,
            len: 2,
        }]);
        let mut x = vec![0.5; 3];
        inj.before_process(1, 9, &mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        inj.before_process(1, 10, &mut x);
        assert!(x.iter().all(|v| v.is_nan()));
        x = vec![0.5; 3];
        inj.before_process(1, 11, &mut x);
        assert!(x.iter().all(|v| v.is_nan()));
        x = vec![0.5; 3];
        inj.before_process(1, 12, &mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        // Other sessions untouched.
        x = vec![0.5; 3];
        inj.before_process(2, 10, &mut x);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn checkpoint_corruption_targets_from_nth() {
        let inj = FaultInjector::new(vec![Fault::CorruptCheckpoint {
            session: 7,
            from_nth: 1,
        }]);
        let clean = vec![1u8; 32];
        let mut blob = clean.clone();
        assert!(!inj.corrupt_checkpoint(7, 0, &mut blob));
        assert_eq!(blob, clean);
        assert!(inj.corrupt_checkpoint(7, 1, &mut blob));
        assert_ne!(blob, clean);
        let mut other = clean.clone();
        assert!(!inj.corrupt_checkpoint(8, 1, &mut other));
        assert_eq!(other, clean);
    }

    #[test]
    fn describe_mentions_every_fault() {
        let inj = FaultInjector::from_seed(7, 8);
        let text = inj.describe();
        assert_eq!(text.lines().count(), inj.plan().len());
    }
}
