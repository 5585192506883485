//! The generational on-disk store and its recovery scan.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/
//!   <session-id>/            one directory per session (decimal id)
//!     1.ckpt  2.ckpt  ...    CRC-framed checkpoint generations
//!   manifest/
//!     1.ckpt  2.ckpt  ...    CRC-framed quarantine-ledger generations
//! ```
//!
//! **Write path.** Every write — checkpoint or manifest — goes through
//! [`atomic_write`]: the frame is written to a `*.tmp` sibling, fsynced,
//! atomically renamed into place, and the directory fsynced so the rename
//! itself survives power loss. Generations are append-only (a new file
//! per write, never an in-place overwrite) and pruned to
//! [`StoreConfig::keep_generations`] afterwards, so at every instant at
//! least one fully-written previous generation exists on disk.
//!
//! **Recovery scan.** [`Store::open`] walks the tree: stale `*.tmp` files
//! (a writer died mid-write) are deleted; frames that fail CRC
//! validation (torn, truncated, bit-flipped) are deleted so they can
//! never shadow a good older generation; each session's newest surviving
//! generation is additionally decoded through
//! [`DriftPipeline::from_bytes`], falling back to older generations until
//! one decodes. A session generation's payload is its stream offset
//! followed by its pipeline blob ([`Store::put_checkpoint`]); a bare
//! pipeline blob, as written before offsets were persisted, still reads. The worst case after any crash is therefore the loss of
//! one checkpoint interval — never the model. What the scan found and
//! repaired is tallied in a [`RecoveryReport`] so callers can surface
//! disk trouble instead of hiding it.
//!
//! **Fault boundary.** Every filesystem operation goes through the
//! [`Vfs`] trait — [`crate::vfs::RealVfs`] in production,
//! [`crate::vfs::FaultVfs`] under storage-chaos tests — so a failing
//! disk is injectable at any single operation.

use crate::frame::{self, FrameError, STORE_VERSION};
use crate::vfs::{RealVfs, Vfs};
use seqdrift_core::DriftPipeline;
use seqdrift_linalg::wire::{Reader, Writer, MAGIC as WIRE_MAGIC, VERSION as WIRE_VERSION};
use seqdrift_linalg::Real;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Directory name of the store-level manifest (quarantine ledger).
const MANIFEST_DIR: &str = "manifest";
/// Directory name of the fleet-wide federated merged model. Non-numeric,
/// so the per-session recovery/resume scans never mistake it for a
/// session directory.
const FEDERATED_DIR: &str = "federated";
/// Directory name of the per-session federation reputation book. Like
/// `federated/`, non-numeric so session scans skip it.
const REPUTATION_DIR: &str = "reputation";
/// Payload kind of a serialised manifest (the session checkpoints inside
/// frames are `seqdrift_core::persist` blobs with their own kind).
const KIND_MANIFEST: u16 = 32;
/// Payload kind of a serialised reputation book.
const KIND_REPUTATION: u16 = 33;
/// Payload kind of a session checkpoint: the session's stream offset,
/// then its `seqdrift_core::persist` pipeline blob, verbatim.
const KIND_CHECKPOINT: u16 = 34;

/// Store-level failures.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed; `context` names what was being attempted.
    Io {
        /// What the store was doing.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A frame on disk was written by a newer store (or wire) version.
    /// Refusing to touch it: old code must not reinterpret or delete
    /// newer data.
    NewerVersion {
        /// The offending file.
        path: PathBuf,
        /// The version found on disk.
        found: u16,
    },
    /// Bad store configuration.
    InvalidConfig(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "{context}: {source}"),
            StoreError::NewerVersion { path, found } => write!(
                f,
                "{} was written by newer store/wire version {found} (this build supports {})",
                path.display(),
                STORE_VERSION
            ),
            StoreError::InvalidConfig(msg) => write!(f, "invalid store config: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(context: impl Into<String>) -> impl FnOnce(io::Error) -> StoreError {
    let context = context.into();
    move |source| StoreError::Io { context, source }
}

/// One quarantine-ledger entry, persisted in the store manifest so a
/// permanently quarantined session stays quarantined across process
/// restarts. The reason code is defined by the fleet layer
/// (`seqdrift_fleet::QuarantineReason`); the store treats it opaquely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Why the session was quarantined (fleet-defined code).
    pub reason_code: u8,
    /// Restart-budget restores consumed before quarantine.
    pub restarts_spent: u64,
}

/// One federation-reputation entry, persisted in a reserved store
/// manifest so contributor trust survives process restarts. The
/// semantics of `trust` (decay/recovery/floor) are defined by the
/// federation layer; the store persists it opaquely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReputationEntry {
    /// Trust score in `[0, 1]`; 1.0 is a contributor that has never been
    /// flagged as an outlier.
    pub trust: Real,
    /// Merge rounds in which this session was scored an outlier.
    pub outlier_rounds: u64,
    /// Merge rounds in which this session contributed cleanly.
    pub clean_rounds: u64,
}

impl Default for ReputationEntry {
    fn default() -> Self {
        ReputationEntry {
            trust: 1.0,
            outlier_rounds: 0,
            clean_rounds: 0,
        }
    }
}

/// Store tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Checkpoint generations kept per session (and for the manifest).
    /// At least 2, so one fully-written fallback always survives the
    /// newest write being torn by a crash.
    pub keep_generations: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            keep_generations: 2,
        }
    }
}

impl StoreConfig {
    /// Overrides the per-session generation keep-count (minimum 2).
    pub fn with_keep_generations(mut self, keep: usize) -> Self {
        self.keep_generations = keep;
        self
    }
}

/// What the [`Store::open`] recovery scan found and repaired. All zeros
/// after a clean shutdown on a healthy disk; anything else is real disk
/// trouble that the caller should surface, not hide.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sessions with at least one surviving, decodable checkpoint.
    pub sessions_recovered: usize,
    /// Frame generations that survived the scan (sessions + manifest +
    /// federated).
    pub generations_kept: usize,
    /// Torn/truncated/bit-flipped/mislabelled frames deleted.
    pub corrupt_frames_dropped: usize,
    /// Stale `*.tmp` files (writer died mid-write) deleted.
    pub stale_temps_deleted: usize,
}

impl RecoveryReport {
    /// Whether the scan had to repair anything.
    pub fn repaired_anything(&self) -> bool {
        self.corrupt_frames_dropped > 0 || self.stale_temps_deleted > 0
    }
}

/// Per-session bookkeeping discovered by the recovery scan.
#[derive(Debug, Default)]
struct Slot {
    /// Generation files present on disk (survivors of the scan).
    gens: BTreeSet<u64>,
    /// Newest generation that framed AND decoded at open (or was written
    /// by this process). `None` until the first successful write/decode.
    newest_valid: Option<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    sessions: HashMap<u64, Slot>,
    manifest_gens: BTreeSet<u64>,
    ledger: BTreeMap<u64, LedgerEntry>,
    federated_gens: BTreeSet<u64>,
    reputation_gens: BTreeSet<u64>,
    reputations: BTreeMap<u64, ReputationEntry>,
    recovery: RecoveryReport,
}

/// The crash-safe checkpoint store. All methods take `&self`; internal
/// state is mutex-guarded so worker threads can flush checkpoints
/// concurrently.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    keep: usize,
    vfs: Arc<dyn Vfs>,
    inner: Mutex<Inner>,
}

/// Writes `bytes` to `path` through the real filesystem. See
/// [`atomic_write_with`] for the contract.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(&RealVfs, path, bytes)
}

/// Writes `bytes` to `path` so that a crash at any instant leaves either
/// the old file or the new file — never a torn mix: the bytes go to a
/// `*.tmp` sibling first, are fsynced, renamed over the target, and the
/// parent directory is fsynced so the rename itself is on stable storage.
/// On any failure the temp sibling is removed before returning, so an
/// error never leaves an orphan behind.
pub fn atomic_write_with(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "atomic_write: path has no file name",
        )
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = dir.join(tmp_name);
    if let Err(e) = vfs.write(&tmp, bytes).and_then(|()| vfs.fsync(&tmp)) {
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = vfs.rename(&tmp, path) {
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    vfs.fsync_dir(&dir)
}

/// Returns the wire-format version claimed by a `seqdrift_core::persist`
/// payload, when the payload carries the wire magic. Used by the
/// recovery scan to distinguish "payload from a newer library" (a typed
/// hard error) from "payload corrupted before framing" (fall back).
fn payload_wire_version(payload: &[u8]) -> Option<u16> {
    if payload.len() >= 6 && &payload[0..4] == WIRE_MAGIC {
        Some(u16::from_le_bytes([payload[4], payload[5]]))
    } else {
        None
    }
}

/// Encodes a session checkpoint payload (see [`KIND_CHECKPOINT`]).
fn encode_checkpoint(offset: u64, blob: &[u8]) -> Vec<u8> {
    let mut w = Writer::new(KIND_CHECKPOINT);
    w.u64(offset);
    let mut payload = w.into_bytes();
    payload.extend_from_slice(blob);
    payload
}

/// Splits a session payload into its stream offset and pipeline blob. A
/// payload written before offsets were persisted is a bare pipeline blob,
/// so anything that is not a checkpoint payload comes back whole with no
/// offset (and then decodes as a pipeline or not at all).
fn decode_checkpoint(payload: &[u8]) -> (Option<u64>, &[u8]) {
    if let Ok(mut r) = Reader::new(payload, KIND_CHECKPOINT) {
        if let Ok(offset) = r.u64() {
            return (Some(offset), &payload[payload.len() - r.remaining()..]);
        }
    }
    (None, payload)
}

/// Whether a session payload holds a pipeline that decodes.
fn checkpoint_decodes(payload: &[u8]) -> bool {
    DriftPipeline::from_bytes(decode_checkpoint(payload).1).is_ok()
}

impl Store {
    /// Opens (creating if absent) a store at `root` with default config
    /// and runs the recovery scan.
    pub fn open(root: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::open_with(root, StoreConfig::default())
    }

    /// Opens a store with explicit configuration. See the module docs for
    /// the recovery-scan contract.
    pub fn open_with(root: impl AsRef<Path>, cfg: StoreConfig) -> Result<Store, StoreError> {
        Store::open_with_vfs(root, cfg, Arc::new(RealVfs))
    }

    /// Opens a store with an explicit filesystem — the injection point
    /// for storage-chaos testing with [`crate::vfs::FaultVfs`].
    pub fn open_with_vfs(
        root: impl AsRef<Path>,
        cfg: StoreConfig,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Store, StoreError> {
        if cfg.keep_generations < 2 {
            return Err(StoreError::InvalidConfig(
                "keep_generations must be at least 2 (one fallback must survive a torn write)",
            ));
        }
        let root = root.as_ref().to_path_buf();
        vfs.create_dir_all(&root)
            .map_err(io_err(format!("creating store root {}", root.display())))?;
        let store = Store {
            root,
            keep: cfg.keep_generations,
            vfs,
            inner: Mutex::new(Inner::default()),
        };
        store.recover()?;
        Ok(store)
    }

    /// Poison tolerance: the inner map holds plain bookkeeping whose
    /// invariants never span a panic window.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// What the open-time recovery scan found and repaired.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.lock().recovery
    }

    fn session_dir(&self, session: u64) -> PathBuf {
        self.root.join(session.to_string())
    }

    fn frame_path(dir: &Path, generation: u64) -> PathBuf {
        dir.join(format!("{generation}.ckpt"))
    }

    /// The recovery scan: delete stale temps, drop CRC-invalid frames,
    /// and find each session's newest generation that frames and decodes.
    fn recover(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        *inner = Inner::default();
        let mut report = RecoveryReport::default();
        let entries = self.vfs.read_dir(&self.root).map_err(io_err(format!(
            "scanning store root {}",
            self.root.display()
        )))?;
        for entry in entries {
            let path = entry.path;
            let name = match path.file_name() {
                Some(n) => n.to_string_lossy().into_owned(),
                None => continue,
            };
            if entry.is_file {
                // Only frames live in subdirectories; root-level files are
                // either stale temps or foreign — delete temps, skip the rest.
                if name.ends_with(".tmp") {
                    self.vfs
                        .remove_file(&path)
                        .map_err(io_err(format!("deleting stale temp {}", path.display())))?;
                    report.stale_temps_deleted += 1;
                }
                continue;
            }
            if name == MANIFEST_DIR {
                let gens = self.scan_frame_dir(
                    &path,
                    |payload| decode_manifest(payload).is_some(),
                    &mut report,
                )?;
                report.generations_kept += gens.0.len();
                inner.manifest_gens = gens.0;
                if let Some(newest) = gens.1 {
                    let frame_path = Store::frame_path(&path, newest);
                    let bytes = self
                        .vfs
                        .read(&frame_path)
                        .map_err(io_err(format!("reading manifest {}", frame_path.display())))?;
                    if let Ok((_, payload)) = frame::decode(&bytes) {
                        if let Some(ledger) = decode_manifest(payload) {
                            inner.ledger = ledger;
                        }
                    }
                }
                continue;
            }
            if name == REPUTATION_DIR {
                let gens = self.scan_frame_dir(
                    &path,
                    |payload| decode_reputations(payload).is_some(),
                    &mut report,
                )?;
                report.generations_kept += gens.0.len();
                inner.reputation_gens = gens.0;
                if let Some(newest) = gens.1 {
                    let frame_path = Store::frame_path(&path, newest);
                    let bytes = self.vfs.read(&frame_path).map_err(io_err(format!(
                        "reading reputation book {}",
                        frame_path.display()
                    )))?;
                    if let Ok((_, payload)) = frame::decode(&bytes) {
                        if let Some(book) = decode_reputations(payload) {
                            inner.reputations = book;
                        }
                    }
                }
                continue;
            }
            if name == FEDERATED_DIR {
                // Same payload contract as session checkpoints: the
                // merged model is a full pipeline blob.
                let (gens, _) = self.scan_frame_dir(
                    &path,
                    |payload| DriftPipeline::from_bytes(payload).is_ok(),
                    &mut report,
                )?;
                report.generations_kept += gens.len();
                inner.federated_gens = gens;
                continue;
            }
            let Ok(session) = name.parse::<u64>() else {
                // Not a session directory; leave foreign data alone.
                continue;
            };
            let (gens, newest_valid) =
                self.scan_frame_dir(&path, checkpoint_decodes, &mut report)?;
            report.generations_kept += gens.len();
            if newest_valid.is_some() {
                report.sessions_recovered += 1;
            }
            inner.sessions.insert(session, Slot { gens, newest_valid });
        }
        inner.recovery = report;
        Ok(())
    }

    /// Scans one generation directory: deletes `*.tmp` and CRC-invalid
    /// frames, and returns the surviving generation set plus the newest
    /// generation whose payload passes `validate`. A frame claiming a
    /// newer store version (with a clean checksum) or carrying a payload
    /// with a newer wire version is a typed hard error — recovery must
    /// not delete or reinterpret data from the future.
    fn scan_frame_dir(
        &self,
        dir: &Path,
        validate: impl Fn(&[u8]) -> bool,
        report: &mut RecoveryReport,
    ) -> Result<(BTreeSet<u64>, Option<u64>), StoreError> {
        let mut gens: BTreeSet<u64> = BTreeSet::new();
        let entries = self
            .vfs
            .read_dir(dir)
            .map_err(io_err(format!("scanning {}", dir.display())))?;
        for entry in entries {
            let path = entry.path;
            let name = match path.file_name() {
                Some(n) => n.to_string_lossy().into_owned(),
                None => continue,
            };
            if name.ends_with(".tmp") {
                self.vfs
                    .remove_file(&path)
                    .map_err(io_err(format!("deleting stale temp {}", path.display())))?;
                report.stale_temps_deleted += 1;
                continue;
            }
            let Some(stem) = name.strip_suffix(".ckpt") else {
                continue;
            };
            let Ok(generation) = stem.parse::<u64>() else {
                continue;
            };
            let bytes = self
                .vfs
                .read(&path)
                .map_err(io_err(format!("reading frame {}", path.display())))?;
            match frame::decode(&bytes) {
                Ok((frame_gen, payload)) => {
                    if let Some(v) = payload_wire_version(payload) {
                        if v > WIRE_VERSION {
                            return Err(StoreError::NewerVersion { path, found: v });
                        }
                    }
                    // The generation in the frame header is authoritative;
                    // a renamed file cannot smuggle an old payload forward.
                    if frame_gen == generation {
                        gens.insert(generation);
                    } else {
                        self.vfs.remove_file(&path).map_err(io_err(format!(
                            "deleting mislabelled frame {}",
                            path.display()
                        )))?;
                        report.corrupt_frames_dropped += 1;
                    }
                }
                Err(FrameError::NewerVersion(found)) => {
                    return Err(StoreError::NewerVersion { path, found });
                }
                Err(_) => {
                    // Torn, truncated or bit-flipped: delete so it can
                    // never shadow the good generation below it.
                    self.vfs
                        .remove_file(&path)
                        .map_err(io_err(format!("deleting corrupt frame {}", path.display())))?;
                    report.corrupt_frames_dropped += 1;
                }
            }
        }
        // Newest generation whose payload also validates (decodes).
        let mut newest_valid = None;
        for &generation in gens.iter().rev() {
            let path = Store::frame_path(dir, generation);
            let bytes = self
                .vfs
                .read(&path)
                .map_err(io_err(format!("reading frame {}", path.display())))?;
            if let Ok((_, payload)) = frame::decode(&bytes) {
                if validate(payload) {
                    newest_valid = Some(generation);
                    break;
                }
            }
        }
        Ok((gens, newest_valid))
    }

    /// Writes one checkpoint payload for `session` as a new generation.
    /// The write is atomic and durable (temp + fsync + rename + dir
    /// fsync); older generations beyond the keep-count are pruned only
    /// after the new one is safely in place. Returns the generation
    /// number written.
    pub fn put(&self, session: u64, payload: &[u8]) -> Result<u64, StoreError> {
        let mut inner = self.lock();
        let slot = inner.sessions.entry(session).or_default();
        let generation = slot.gens.iter().next_back().copied().unwrap_or(0) + 1;
        let dir = self.session_dir(session);
        self.vfs
            .create_dir_all(&dir)
            .map_err(io_err(format!("creating session dir {}", dir.display())))?;
        let path = Store::frame_path(&dir, generation);
        atomic_write_with(&*self.vfs, &path, &frame::encode(generation, payload))
            .map_err(io_err(format!("writing checkpoint {}", path.display())))?;
        slot.gens.insert(generation);
        slot.newest_valid = Some(generation);
        let excess: Vec<u64> = {
            let n = slot.gens.len().saturating_sub(self.keep);
            slot.gens.iter().take(n).copied().collect()
        };
        for old in excess {
            let old_path = Store::frame_path(&dir, old);
            self.vfs
                .remove_file(&old_path)
                .map_err(io_err(format!("pruning {}", old_path.display())))?;
            slot.gens.remove(&old);
        }
        Ok(generation)
    }

    /// Loads the newest frame-valid payload of `session`, walking older
    /// generations if the preferred one fails validation at read time
    /// (bit rot between open and load). `None` when the session has no
    /// surviving checkpoint.
    pub fn load(&self, session: u64) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        self.load_validated(session, |_| true)
    }

    /// Loads the newest payload of `session` that both frames and passes
    /// `validate`, walking generations newest to oldest.
    pub fn load_validated(
        &self,
        session: u64,
        validate: impl Fn(&[u8]) -> bool,
    ) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        let gens: Vec<u64> = {
            let inner = self.lock();
            match inner.sessions.get(&session) {
                Some(slot) => slot.gens.iter().rev().copied().collect(),
                None => return Ok(None),
            }
        };
        let dir = self.session_dir(session);
        for generation in gens {
            let path = Store::frame_path(&dir, generation);
            let bytes = match self.vfs.read(&path) {
                Ok(b) => b,
                Err(_) => continue,
            };
            if let Ok((_, payload)) = frame::decode(&bytes) {
                if validate(payload) {
                    return Ok(Some((generation, payload.to_vec())));
                }
            }
        }
        Ok(None)
    }

    /// Writes one session checkpoint as a new generation: the pipeline
    /// `blob` and the session's stream `offset` in one payload, so one
    /// frame carries both and a torn write cannot pair a blob with another
    /// generation's offset. See [`Store::put`] for the write contract.
    pub fn put_checkpoint(
        &self,
        session: u64,
        offset: u64,
        blob: &[u8],
    ) -> Result<u64, StoreError> {
        self.put(session, &encode_checkpoint(offset, blob))
    }

    /// Loads and decodes the newest generation of `session` that survives
    /// both the CRC frame and `DriftPipeline::from_bytes` — the full
    /// recovery contract in one call. Returns the generation, the
    /// pipeline and the stream offset written beside it by
    /// [`Store::put_checkpoint`]; the offset is `None` for a generation
    /// that holds a bare pipeline blob (written before offsets were
    /// persisted).
    pub fn load_pipeline(
        &self,
        session: u64,
    ) -> Result<Option<(u64, DriftPipeline, Option<u64>)>, StoreError> {
        let loaded = self.load_validated(session, checkpoint_decodes)?;
        Ok(loaded.and_then(|(generation, payload)| {
            let (offset, blob) = decode_checkpoint(&payload);
            DriftPipeline::from_bytes(blob)
                .ok()
                .map(|p| (generation, p, offset))
        }))
    }

    /// Sessions with at least one surviving checkpoint generation,
    /// sorted ascending.
    pub fn sessions(&self) -> Vec<u64> {
        let inner = self.lock();
        let mut out: Vec<u64> = inner
            .sessions
            .iter()
            .filter(|(_, slot)| !slot.gens.is_empty())
            .map(|(&id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Deletes every checkpoint generation of `session` and clears its
    /// ledger entry, persisting the updated manifest.
    pub fn remove_session(&self, session: u64) -> Result<(), StoreError> {
        let removed = {
            let mut inner = self.lock();
            inner.sessions.remove(&session);
            let dir = self.session_dir(session);
            match self.vfs.remove_dir_all(&dir) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(io_err(format!("removing session dir {}", dir.display()))(e));
                }
            }
            inner.ledger.remove(&session)
        };
        let Some(removed) = removed else {
            return Ok(());
        };
        let result = self.write_manifest();
        if result.is_err() {
            // Keep memory consistent with disk, so a later retry of this
            // call re-attempts the manifest write instead of no-opping on
            // the "already absent" fast path.
            self.lock().ledger.insert(session, removed);
        }
        result
    }

    /// The persisted quarantine ledger.
    pub fn ledger(&self) -> BTreeMap<u64, LedgerEntry> {
        self.lock().ledger.clone()
    }

    /// Records `session` as permanently quarantined and persists the
    /// manifest through the same atomic generational path as checkpoints.
    pub fn set_quarantined(&self, session: u64, entry: LedgerEntry) -> Result<(), StoreError> {
        let prev = {
            let mut inner = self.lock();
            if inner.ledger.get(&session) == Some(&entry) {
                return Ok(());
            }
            inner.ledger.insert(session, entry)
        };
        let result = self.write_manifest();
        if result.is_err() {
            // Roll back so a retry of the same entry is not swallowed by
            // the dedup fast path above while the disk copy still lacks it.
            let mut inner = self.lock();
            match prev {
                Some(p) => inner.ledger.insert(session, p),
                None => inner.ledger.remove(&session),
            };
        }
        result
    }

    /// Writes the fleet-wide federated merged model (a full pipeline
    /// blob) as a new durable generation under the non-numeric
    /// `federated/` directory, through the same atomic generational path
    /// as session checkpoints. Returns the generation written.
    pub fn put_federated(&self, payload: &[u8]) -> Result<u64, StoreError> {
        let mut inner = self.lock();
        let generation = inner
            .federated_gens
            .iter()
            .next_back()
            .copied()
            .unwrap_or(0)
            + 1;
        let dir = self.root.join(FEDERATED_DIR);
        self.vfs
            .create_dir_all(&dir)
            .map_err(io_err(format!("creating federated dir {}", dir.display())))?;
        let path = Store::frame_path(&dir, generation);
        atomic_write_with(&*self.vfs, &path, &frame::encode(generation, payload)).map_err(
            io_err(format!("writing federated model {}", path.display())),
        )?;
        inner.federated_gens.insert(generation);
        let excess: Vec<u64> = {
            let n = inner.federated_gens.len().saturating_sub(self.keep);
            inner.federated_gens.iter().take(n).copied().collect()
        };
        for old in excess {
            let old_path = Store::frame_path(&dir, old);
            self.vfs
                .remove_file(&old_path)
                .map_err(io_err(format!("pruning {}", old_path.display())))?;
            inner.federated_gens.remove(&old);
        }
        Ok(generation)
    }

    /// Loads the newest federated merged-model payload that frames and
    /// decodes as a pipeline, walking generations newest to oldest.
    /// `None` when no merged model has ever been persisted (or none
    /// survived).
    pub fn load_federated(&self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        let gens: Vec<u64> = {
            let inner = self.lock();
            inner.federated_gens.iter().rev().copied().collect()
        };
        let dir = self.root.join(FEDERATED_DIR);
        for generation in gens {
            let path = Store::frame_path(&dir, generation);
            let bytes = match self.vfs.read(&path) {
                Ok(b) => b,
                Err(_) => continue,
            };
            if let Ok((_, payload)) = frame::decode(&bytes) {
                if DriftPipeline::from_bytes(payload).is_ok() {
                    return Ok(Some((generation, payload.to_vec())));
                }
            }
        }
        Ok(None)
    }

    /// Persists the full federation reputation book as a new durable
    /// generation under the reserved `reputation/` directory — the same
    /// atomic generational path as the quarantine manifest. In-memory
    /// state is updated only after the write lands, so a failed write
    /// leaves the last durable book authoritative and a retry is never
    /// swallowed by a stale cache. Returns the generation written.
    pub fn put_reputations(
        &self,
        book: &BTreeMap<u64, ReputationEntry>,
    ) -> Result<u64, StoreError> {
        let mut inner = self.lock();
        let payload = encode_reputations(book);
        let generation = inner
            .reputation_gens
            .iter()
            .next_back()
            .copied()
            .unwrap_or(0)
            + 1;
        let dir = self.root.join(REPUTATION_DIR);
        self.vfs
            .create_dir_all(&dir)
            .map_err(io_err(format!("creating reputation dir {}", dir.display())))?;
        let path = Store::frame_path(&dir, generation);
        atomic_write_with(&*self.vfs, &path, &frame::encode(generation, &payload)).map_err(
            io_err(format!("writing reputation book {}", path.display())),
        )?;
        inner.reputations = book.clone();
        inner.reputation_gens.insert(generation);
        let excess: Vec<u64> = {
            let n = inner.reputation_gens.len().saturating_sub(self.keep);
            inner.reputation_gens.iter().take(n).copied().collect()
        };
        for old in excess {
            let old_path = Store::frame_path(&dir, old);
            self.vfs
                .remove_file(&old_path)
                .map_err(io_err(format!("pruning {}", old_path.display())))?;
            inner.reputation_gens.remove(&old);
        }
        Ok(generation)
    }

    /// The persisted federation reputation book (restored by the
    /// [`Store::open`] recovery scan; empty when never written).
    pub fn reputations(&self) -> BTreeMap<u64, ReputationEntry> {
        self.lock().reputations.clone()
    }

    fn write_manifest(&self) -> Result<(), StoreError> {
        let mut inner = self.lock();
        let payload = encode_manifest(&inner.ledger);
        let generation = inner.manifest_gens.iter().next_back().copied().unwrap_or(0) + 1;
        let dir = self.root.join(MANIFEST_DIR);
        self.vfs
            .create_dir_all(&dir)
            .map_err(io_err(format!("creating manifest dir {}", dir.display())))?;
        let path = Store::frame_path(&dir, generation);
        atomic_write_with(&*self.vfs, &path, &frame::encode(generation, &payload))
            .map_err(io_err(format!("writing manifest {}", path.display())))?;
        inner.manifest_gens.insert(generation);
        let excess: Vec<u64> = {
            let n = inner.manifest_gens.len().saturating_sub(self.keep);
            inner.manifest_gens.iter().take(n).copied().collect()
        };
        for old in excess {
            let old_path = Store::frame_path(&dir, old);
            self.vfs
                .remove_file(&old_path)
                .map_err(io_err(format!("pruning {}", old_path.display())))?;
            inner.manifest_gens.remove(&old);
        }
        Ok(())
    }
}

fn encode_manifest(ledger: &BTreeMap<u64, LedgerEntry>) -> Vec<u8> {
    let mut w = Writer::new(KIND_MANIFEST);
    w.u64(ledger.len() as u64);
    for (&session, entry) in ledger {
        w.u64(session);
        w.u8(entry.reason_code);
        w.u64(entry.restarts_spent);
    }
    w.into_bytes()
}

fn decode_manifest(payload: &[u8]) -> Option<BTreeMap<u64, LedgerEntry>> {
    let mut r = Reader::new(payload, KIND_MANIFEST).ok()?;
    let count = r.u64().ok()?;
    // Each entry is 17 bytes; reject length lies before looping.
    if count > (payload.len() as u64) / 17 + 1 {
        return None;
    }
    let mut ledger = BTreeMap::new();
    for _ in 0..count {
        let session = r.u64().ok()?;
        let reason_code = r.u8().ok()?;
        let restarts_spent = r.u64().ok()?;
        ledger.insert(
            session,
            LedgerEntry {
                reason_code,
                restarts_spent,
            },
        );
    }
    r.finish().ok()?;
    Some(ledger)
}

fn encode_reputations(book: &BTreeMap<u64, ReputationEntry>) -> Vec<u8> {
    let mut w = Writer::new(KIND_REPUTATION);
    w.u64(book.len() as u64);
    for (&session, entry) in book {
        w.u64(session);
        w.real(entry.trust);
        w.u64(entry.outlier_rounds);
        w.u64(entry.clean_rounds);
    }
    w.into_bytes()
}

fn decode_reputations(payload: &[u8]) -> Option<BTreeMap<u64, ReputationEntry>> {
    let mut r = Reader::new(payload, KIND_REPUTATION).ok()?;
    let count = r.u64().ok()?;
    // Each entry is at least 28 bytes (8 + 4 + 8 + 8 with f32 Real);
    // reject length lies before looping.
    if count > (payload.len() as u64) / 28 + 1 {
        return None;
    }
    let mut book = BTreeMap::new();
    for _ in 0..count {
        let session = r.u64().ok()?;
        let trust = r.real().ok()?;
        let outlier_rounds = r.u64().ok()?;
        let clean_rounds = r.u64().ok()?;
        if !(0.0..=1.0).contains(&trust) {
            return None;
        }
        book.insert(
            session,
            ReputationEntry {
                trust,
                outlier_rounds,
                clean_rounds,
            },
        );
    }
    r.finish().ok()?;
    Some(book)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_root(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("seqdrift-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_load_roundtrip_and_generations() {
        let root = tmp_root("roundtrip");
        let store = Store::open(&root).unwrap();
        assert_eq!(store.put(5, b"alpha").unwrap(), 1);
        assert_eq!(store.put(5, b"beta").unwrap(), 2);
        let (generation, payload) = store.load(5).unwrap().unwrap();
        assert_eq!(generation, 2);
        assert_eq!(payload, b"beta");
        assert_eq!(store.sessions(), vec![5]);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pruning_keeps_configured_generations() {
        let root = tmp_root("prune");
        let store =
            Store::open_with(&root, StoreConfig::default().with_keep_generations(3)).unwrap();
        for i in 0..10u8 {
            store.put(1, &[i]).unwrap();
        }
        let files: Vec<String> = fs::read_dir(root.join("1"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files.len(), 3, "{files:?}");
        // Reopen: the newest payload survives.
        drop(store);
        let store = Store::open(&root).unwrap();
        let (generation, payload) = store.load(1).unwrap().unwrap();
        assert_eq!(generation, 10);
        assert_eq!(payload, vec![9]);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn keep_count_below_two_is_rejected() {
        let root = tmp_root("badkeep");
        assert!(matches!(
            Store::open_with(&root, StoreConfig::default().with_keep_generations(1)),
            Err(StoreError::InvalidConfig(_))
        ));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn manifest_roundtrips_across_reopen() {
        let root = tmp_root("manifest");
        let store = Store::open(&root).unwrap();
        store
            .set_quarantined(
                9,
                LedgerEntry {
                    reason_code: 1,
                    restarts_spent: 3,
                },
            )
            .unwrap();
        store
            .set_quarantined(
                4,
                LedgerEntry {
                    reason_code: 2,
                    restarts_spent: 0,
                },
            )
            .unwrap();
        drop(store);
        let store = Store::open(&root).unwrap();
        let ledger = store.ledger();
        assert_eq!(ledger.len(), 2);
        assert_eq!(
            ledger[&9],
            LedgerEntry {
                reason_code: 1,
                restarts_spent: 3
            }
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reputation_book_roundtrips_across_reopen() {
        let root = tmp_root("reputation");
        let store = Store::open(&root).unwrap();
        assert!(store.reputations().is_empty());
        let mut book = BTreeMap::new();
        book.insert(
            3,
            ReputationEntry {
                trust: 0.25,
                outlier_rounds: 4,
                clean_rounds: 1,
            },
        );
        book.insert(7, ReputationEntry::default());
        assert_eq!(store.put_reputations(&book).unwrap(), 1);
        // Overwrite with an updated book: new generation, same contract.
        book.get_mut(&3).unwrap().clean_rounds = 2;
        assert_eq!(store.put_reputations(&book).unwrap(), 2);
        drop(store);
        let store = Store::open(&root).unwrap();
        let restored = store.reputations();
        assert_eq!(restored, book);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_reputation_generation_falls_back_to_older() {
        let root = tmp_root("reputation-corrupt");
        let store = Store::open(&root).unwrap();
        let mut book = BTreeMap::new();
        book.insert(1, ReputationEntry::default());
        store.put_reputations(&book).unwrap();
        book.insert(
            2,
            ReputationEntry {
                trust: 0.5,
                outlier_rounds: 1,
                clean_rounds: 0,
            },
        );
        store.put_reputations(&book).unwrap();
        drop(store);
        // Tear the newest generation; recovery must fall back to gen 1.
        let newest = root.join(REPUTATION_DIR).join("2.ckpt");
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let store = Store::open(&root).unwrap();
        let restored = store.reputations();
        assert_eq!(restored.len(), 1);
        assert!(restored.contains_key(&1));
        assert!(store.recovery_report().corrupt_frames_dropped >= 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn atomic_write_replaces_existing_content() {
        let root = tmp_root("atomic");
        fs::create_dir_all(&root).unwrap();
        let path = root.join("model.sqdm");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp residue.
        let leftovers: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn recovery_deletes_stale_temps_everywhere() {
        let root = tmp_root("temps");
        let store = Store::open(&root).unwrap();
        store.put(3, b"good").unwrap();
        drop(store);
        fs::write(root.join("orphan.tmp"), b"garbage").unwrap();
        fs::write(root.join("3").join("9.ckpt.tmp"), b"garbage").unwrap();
        let store = Store::open(&root).unwrap();
        assert!(!root.join("orphan.tmp").exists());
        assert!(!root.join("3").join("9.ckpt.tmp").exists());
        assert_eq!(store.load(3).unwrap().unwrap().1, b"good");
        // The scan tallied what it swept.
        let report = store.recovery_report();
        assert_eq!(report.stale_temps_deleted, 2);
        assert!(report.repaired_anything());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn mislabelled_frame_is_dropped() {
        let root = tmp_root("mislabel");
        let store = Store::open(&root).unwrap();
        store.put(2, b"one").unwrap();
        store.put(2, b"two").unwrap();
        drop(store);
        // An attacker (or a confused backup tool) renames generation 1
        // over a higher number; the frame header wins.
        fs::copy(root.join("2").join("1.ckpt"), root.join("2").join("7.ckpt")).unwrap();
        let store = Store::open(&root).unwrap();
        let (generation, payload) = store.load(2).unwrap().unwrap();
        assert_eq!(generation, 2);
        assert_eq!(payload, b"two");
        assert!(!root.join("2").join("7.ckpt").exists());
        assert_eq!(store.recovery_report().corrupt_frames_dropped, 1);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn clean_open_reports_nothing_repaired() {
        let root = tmp_root("cleanreport");
        let store = Store::open(&root).unwrap();
        store.put(1, b"x").unwrap();
        drop(store);
        let store = Store::open(&root).unwrap();
        let report = store.recovery_report();
        assert!(!report.repaired_anything(), "{report:?}");
        assert_eq!(report.generations_kept, 1);
        fs::remove_dir_all(&root).ok();
    }
}
