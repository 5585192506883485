//! The storage fault boundary: a minimal filesystem trait the whole
//! store writes through, with a production passthrough ([`RealVfs`]) and
//! a seeded, deterministic fault injector ([`FaultVfs`]).
//!
//! This is the storage sibling of the server crate's `ChaosProxy`: where
//! the proxy corrupts a *network* between two healthy endpoints, the
//! `FaultVfs` corrupts the *disk* under a healthy store. The fault
//! families are the ones real edge flash actually produces:
//!
//! * **ENOSPC** — a full (or worn-out) partition rejecting writes;
//! * **transient / persistent EIO** — read or write failures that clear
//!   after one retry, or stick around for a streak of operations;
//! * **fsync latency spikes** — an fsync that succeeds but stalls, the
//!   signature of a flash translation layer doing garbage collection;
//! * **lying fsync + torn write** — fsync reports success but the data
//!   never reached stable storage; the next power loss reveals a torn
//!   frame. Undetectable at write time *by definition* — only the CRC
//!   recovery scan at the next open can catch it;
//! * **rename failures** — the commit step of an atomic write failing.
//!
//! **Determinism.** Every fault decision is a pure function of
//! `(seed, path, op, op-index)` where the op-index counts invocations of
//! that operation on that path. No wall clock, no global ordering: two
//! runs issuing the same per-path operation sequences under the same
//! seed inject byte-for-byte the same faults, which is what makes a
//! failing storage-chaos run replayable from a single number. Paths are
//! keyed relative to [`FaultVfs::with_base`] when set, so the schedule
//! survives relocating the store root.

use seqdrift_linalg::rng::mix64;
use std::collections::HashMap;
use std::fmt::Debug;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One directory entry as reported by [`Vfs::read_dir`].
#[derive(Debug, Clone)]
pub struct VfsEntry {
    /// Full path of the entry.
    pub path: PathBuf,
    /// Whether the entry is a regular file (as opposed to a directory).
    pub is_file: bool,
}

/// The filesystem operations the store needs. Everything the store (and
/// [`crate::atomic_write_with`]) touches on disk goes through this
/// trait, so a single injected implementation can fail any operation on
/// any path — there is no side door to the real filesystem.
pub trait Vfs: Debug + Send + Sync {
    /// Reads the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (truncating) `path` and writes all of `bytes`. No fsync.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes the file at `path` to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Flushes a directory so a rename inside it is durable. Directory
    /// handles are not fsyncable on all platforms; a no-op off Unix.
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Recursively removes the directory at `path`.
    fn remove_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Creates `path` and any missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists the entries of `dir`.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<VfsEntry>>;
}

/// The production filesystem: straight passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(bytes)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::remove_dir_all(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<VfsEntry>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let is_file = entry.file_type().map(|t| t.is_file()).unwrap_or(false);
            out.push(VfsEntry {
                path: entry.path(),
                is_file,
            });
        }
        Ok(out)
    }
}

/// Which operation a fault landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VfsOp {
    /// A whole-file read.
    Read,
    /// A create-and-write.
    Write,
    /// A file fsync.
    Fsync,
    /// A rename (the atomic-write commit step).
    Rename,
}

impl VfsOp {
    fn code(self) -> u64 {
        match self {
            VfsOp::Read => 1,
            VfsOp::Write => 2,
            VfsOp::Fsync => 3,
            VfsOp::Rename => 4,
        }
    }
}

/// A fault the [`FaultVfs`] injected, recorded in its event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A write failed with "no space left on device".
    Enospc,
    /// A read/write failed with an I/O error; `remaining` further
    /// operations of the same kind on the same path will also fail
    /// (0 = purely transient: the immediate retry succeeds).
    Eio {
        /// Streak length still ahead after this failure.
        remaining: u32,
    },
    /// An fsync stalled for the configured spike before succeeding.
    FsyncDelay,
    /// An fsync returned success without persisting: the file was torn
    /// down to `kept_bytes` to model what the next power loss exposes.
    LyingFsyncTornWrite {
        /// Bytes that actually reached "stable storage".
        kept_bytes: u64,
    },
    /// A rename failed (the atomic commit step).
    RenameFail,
}

/// One entry of the [`FaultVfs`] event log: which fault hit which
/// operation, where, at which per-path op index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Path the operation targeted (relative to the configured base).
    pub path: PathBuf,
    /// The operation.
    pub op: VfsOp,
    /// Invocation index of `(path, op)` at the time of the fault.
    pub index: u64,
    /// What was injected.
    pub fault: InjectedFault,
}

/// Fault probabilities, all expressed per 1024 draws (0 = never,
/// 1024 = always). Derived decisions are pure in `(seed, path, op,
/// op-index)`.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed of every derivation.
    pub seed: u64,
    /// Chance a write fails with ENOSPC.
    pub enospc_per_1024: u16,
    /// Chance a read/write starts an EIO streak.
    pub eio_per_1024: u16,
    /// Maximum EIO streak length (minimum 1; 1 = purely transient).
    pub eio_streak_max: u32,
    /// Chance an fsync lies (reports success, tears the file).
    pub lying_fsync_per_1024: u16,
    /// Chance an fsync stalls for [`FaultPlan::fsync_delay`].
    pub fsync_delay_per_1024: u16,
    /// Duration of an injected fsync latency spike.
    pub fsync_delay: Duration,
    /// Chance a rename fails.
    pub rename_fail_per_1024: u16,
}

impl FaultPlan {
    /// A plan with every fault disabled; enable families via `with_*`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            enospc_per_1024: 0,
            eio_per_1024: 0,
            eio_streak_max: 1,
            lying_fsync_per_1024: 0,
            fsync_delay_per_1024: 0,
            fsync_delay: Duration::from_millis(5),
            rename_fail_per_1024: 0,
        }
    }

    /// Enables ENOSPC on writes.
    pub fn with_enospc(mut self, per_1024: u16) -> Self {
        self.enospc_per_1024 = per_1024;
        self
    }

    /// Enables EIO streaks on reads/writes. `streak_max` of 1 makes every
    /// EIO transient; larger values mix in persistent failures.
    pub fn with_eio(mut self, per_1024: u16, streak_max: u32) -> Self {
        self.eio_per_1024 = per_1024;
        self.eio_streak_max = streak_max.max(1);
        self
    }

    /// Enables lying fsyncs (success reported, file torn).
    pub fn with_lying_fsync(mut self, per_1024: u16) -> Self {
        self.lying_fsync_per_1024 = per_1024;
        self
    }

    /// Enables fsync latency spikes of `delay`.
    pub fn with_fsync_delay(mut self, per_1024: u16, delay: Duration) -> Self {
        self.fsync_delay_per_1024 = per_1024;
        self.fsync_delay = delay;
        self
    }

    /// Enables rename failures.
    pub fn with_rename_fail(mut self, per_1024: u16) -> Self {
        self.rename_fail_per_1024 = per_1024;
        self
    }
}

/// Per-`(path, op)` derivation state: the invocation counter plus the
/// index an active EIO streak runs to.
#[derive(Debug, Default, Clone, Copy)]
struct OpState {
    next_index: u64,
    eio_fail_below: u64,
}

/// A [`Vfs`] that injects a deterministic, seeded fault schedule on top
/// of an inner filesystem (the real one by default). See the module docs
/// for the fault families and the determinism contract.
///
/// The schedule itself is pure; [`FaultVfs::set_active`] is the *fault
/// window*: while inactive every operation passes straight through (the
/// per-path op counters still advance, so reopening the window resumes
/// the same schedule). Tests flip it to model a disk that fails for a
/// while and then heals.
#[derive(Debug)]
pub struct FaultVfs {
    inner: RealVfs,
    plan: FaultPlan,
    base: Option<PathBuf>,
    active: AtomicBool,
    state: Mutex<FaultState>,
}

#[derive(Debug, Default)]
struct FaultState {
    ops: HashMap<(PathBuf, VfsOp), OpState>,
    events: Vec<FaultEvent>,
}

fn injected(kind: &str) -> io::Error {
    io::Error::other(format!("injected fault: {kind}"))
}

impl FaultVfs {
    /// A fault injector over the real filesystem.
    pub fn new(plan: FaultPlan) -> FaultVfs {
        FaultVfs {
            inner: RealVfs,
            plan,
            base: None,
            active: AtomicBool::new(true),
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Keys the schedule on paths relative to `base`, so the same seed
    /// replays the same faults regardless of where the store root lives.
    pub fn with_base(mut self, base: impl Into<PathBuf>) -> Self {
        self.base = Some(base.into());
        self
    }

    /// Opens/closes the fault window. Inactive, every operation passes
    /// through untouched (counters still advance).
    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::SeqCst);
    }

    /// Whether the fault window is open.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    /// Drains the log of injected faults so far.
    pub fn take_events(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.lock().events)
    }

    /// Number of faults injected so far (without draining the log).
    pub fn fault_count(&self) -> usize {
        self.lock().events.len()
    }

    fn lock(&self) -> MutexGuard<'_, FaultState> {
        // Poison tolerance: the map holds plain counters; no invariant
        // spans a panic window.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn key_path(&self, path: &Path) -> PathBuf {
        match &self.base {
            Some(base) => path.strip_prefix(base).unwrap_or(path).to_path_buf(),
            None => path.to_path_buf(),
        }
    }

    /// Uniform bits for `(seed, path, op, index, salt)`.
    fn draw(&self, key: &Path, op: VfsOp, index: u64, salt: u64) -> u64 {
        let mut h = self.plan.seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in key.to_string_lossy().as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= op.code().wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= salt << 17;
        mix64(h)
    }

    fn hit(&self, bits: u64, per_1024: u16) -> bool {
        per_1024 > 0 && (bits >> 32) % 1024 < u64::from(per_1024)
    }

    /// Advances the `(path, op)` counter and decides what (if anything)
    /// to inject at this invocation. EIO streaks are decided first: an
    /// index inside an active streak keeps failing; a fresh hit opens a
    /// streak whose length is itself derived.
    fn decide(&self, path: &Path, op: VfsOp) -> Option<(PathBuf, u64, InjectedFault)> {
        let key = self.key_path(path);
        let mut st = self.lock();
        let entry = st.ops.entry((key.clone(), op)).or_default();
        let index = entry.next_index;
        entry.next_index += 1;
        if !self.is_active() {
            return None;
        }
        if matches!(op, VfsOp::Read | VfsOp::Write) {
            if index < entry.eio_fail_below {
                let remaining = (entry.eio_fail_below - index - 1) as u32;
                let fault = InjectedFault::Eio { remaining };
                st.events.push(FaultEvent {
                    path: key.clone(),
                    op,
                    index,
                    fault,
                });
                return Some((key, index, fault));
            }
            let bits = self.draw(&key, op, index, 1);
            if self.hit(bits, self.plan.eio_per_1024) {
                let streak = 1 + (bits % u64::from(self.plan.eio_streak_max)) as u32;
                entry.eio_fail_below = index + u64::from(streak);
                let fault = InjectedFault::Eio {
                    remaining: streak - 1,
                };
                st.events.push(FaultEvent {
                    path: key.clone(),
                    op,
                    index,
                    fault,
                });
                return Some((key, index, fault));
            }
        }
        let fault = match op {
            VfsOp::Write => {
                let bits = self.draw(&key, op, index, 2);
                self.hit(bits, self.plan.enospc_per_1024)
                    .then_some(InjectedFault::Enospc)
            }
            VfsOp::Fsync => {
                let lie = self.draw(&key, op, index, 3);
                if self.hit(lie, self.plan.lying_fsync_per_1024) {
                    // Keep a derived fraction of the file: 10–90% of it.
                    Some(InjectedFault::LyingFsyncTornWrite {
                        kept_bytes: 10 + (lie >> 40) % 81,
                    })
                } else {
                    let spike = self.draw(&key, op, index, 4);
                    self.hit(spike, self.plan.fsync_delay_per_1024)
                        .then_some(InjectedFault::FsyncDelay)
                }
            }
            VfsOp::Rename => {
                let bits = self.draw(&key, op, index, 5);
                self.hit(bits, self.plan.rename_fail_per_1024)
                    .then_some(InjectedFault::RenameFail)
            }
            VfsOp::Read => None,
        }?;
        st.events.push(FaultEvent {
            path: key.clone(),
            op,
            index,
            fault,
        });
        Some((key, index, fault))
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if let Some((_, _, InjectedFault::Eio { .. })) = self.decide(path, VfsOp::Read) {
            return Err(injected("EIO on read"));
        }
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.decide(path, VfsOp::Write) {
            Some((_, _, InjectedFault::Enospc)) => {
                Err(injected("ENOSPC (no space left on device)"))
            }
            Some((_, _, InjectedFault::Eio { .. })) => Err(injected("EIO on write")),
            _ => self.inner.write(path, bytes),
        }
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        match self.decide(path, VfsOp::Fsync) {
            Some((_, _, InjectedFault::LyingFsyncTornWrite { kept_bytes })) => {
                // Report success but tear the file: only `kept_bytes`
                // percent of it "reached stable storage". The caller
                // proceeds to rename the torn frame into place; nothing
                // before the next recovery scan can know.
                if let Ok(full) = self.inner.read(path) {
                    let keep = (full.len() as u64 * kept_bytes / 100) as usize;
                    let _ = self.inner.write(path, &full[..keep]);
                }
                Ok(())
            }
            Some((_, _, InjectedFault::FsyncDelay)) => {
                std::thread::sleep(self.plan.fsync_delay);
                self.inner.fsync(path)
            }
            _ => self.inner.fsync(path),
        }
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.fsync_dir(dir)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some((_, _, InjectedFault::RenameFail)) = self.decide(to, VfsOp::Rename) {
            return Err(injected("rename failed"));
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<VfsEntry>> {
        self.inner.read_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A storage-fault seed replays the same schedule only while these
    /// draws stay fixed.
    #[test]
    fn draws_replay_the_documented_values() {
        let v = FaultVfs::new(FaultPlan::new(7));
        let p = Path::new("store/5/1.ckpt");
        let got = [
            v.draw(p, VfsOp::Write, 0, 0),
            v.draw(p, VfsOp::Fsync, 3, 1),
            v.draw(Path::new("ledger"), VfsOp::Rename, 11, 2),
        ];
        assert_eq!(
            got,
            [
                0x4ea8_1560_b2dc_401f,
                0x580f_4167_d5e5_eb64,
                0x650c_332f_c4ee_83db,
            ]
        );
    }

    #[test]
    fn schedule_is_pure_in_seed_path_and_index() {
        let a = FaultVfs::new(FaultPlan::new(7).with_enospc(512).with_eio(256, 3));
        let b = FaultVfs::new(FaultPlan::new(7).with_enospc(512).with_eio(256, 3));
        let p = Path::new("store/5/1.ckpt");
        let mut decisions_a = Vec::new();
        let mut decisions_b = Vec::new();
        for _ in 0..64 {
            decisions_a.push(a.decide(p, VfsOp::Write).map(|(_, i, f)| (i, f)));
            decisions_b.push(b.decide(p, VfsOp::Write).map(|(_, i, f)| (i, f)));
        }
        assert_eq!(decisions_a, decisions_b);
        // A different seed produces a different schedule.
        let c = FaultVfs::new(FaultPlan::new(8).with_enospc(512).with_eio(256, 3));
        let decisions_c: Vec<_> = (0..64)
            .map(|_| c.decide(p, VfsOp::Write).map(|(_, i, f)| (i, f)))
            .collect();
        assert_ne!(decisions_a, decisions_c);
    }

    #[test]
    fn inactive_window_injects_nothing_but_counts_on() {
        let v = FaultVfs::new(FaultPlan::new(3).with_enospc(1024));
        let p = Path::new("x/1.ckpt");
        v.set_active(false);
        for _ in 0..8 {
            assert!(v.decide(p, VfsOp::Write).is_none());
        }
        v.set_active(true);
        // Counters advanced while inactive: the next decision is index 8.
        let (_, index, _) = v.decide(p, VfsOp::Write).expect("always-on ENOSPC");
        assert_eq!(index, 8);
    }

    #[test]
    fn base_prefix_makes_schedules_location_independent() {
        let a = FaultVfs::new(FaultPlan::new(11).with_enospc(512)).with_base("/tmp/run-a");
        let b = FaultVfs::new(FaultPlan::new(11).with_enospc(512)).with_base("/var/run-b");
        let mut da = Vec::new();
        let mut db = Vec::new();
        for _ in 0..64 {
            da.push(
                a.decide(Path::new("/tmp/run-a/3/9.ckpt"), VfsOp::Write)
                    .map(|(_, i, f)| (i, f)),
            );
            db.push(
                b.decide(Path::new("/var/run-b/3/9.ckpt"), VfsOp::Write)
                    .map(|(_, i, f)| (i, f)),
            );
        }
        assert_eq!(da, db);
    }

    #[test]
    fn eio_streaks_fail_then_clear() {
        let v = FaultVfs::new(FaultPlan::new(5).with_eio(200, 4));
        let p = Path::new("s/2.ckpt");
        let mut saw_streak = false;
        let mut i = 0u64;
        while i < 512 {
            match v.decide(p, VfsOp::Read) {
                Some((_, _, InjectedFault::Eio { remaining })) if remaining > 0 => {
                    saw_streak = true;
                    // The streak must play out exactly `remaining` more times.
                    for left in (0..remaining).rev() {
                        i += 1;
                        match v.decide(p, VfsOp::Read) {
                            Some((_, _, InjectedFault::Eio { remaining: r })) => {
                                assert_eq!(r, left)
                            }
                            other => panic!("streak broke early: {other:?}"),
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
        assert!(saw_streak, "seed 5 never produced a multi-op streak");
    }
}
