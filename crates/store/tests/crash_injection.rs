//! Deterministic crash-injection matrix for the durable store.
//!
//! Simulates every failure a power loss (or bit rot) can leave on disk —
//! truncation at every byte of the newest frame, single-bit flips in
//! header, payload and checksum, orphaned temp files, a deleted newest
//! generation, and a frame-valid-but-undecodable payload — and proves
//! that `Store::open` recovers the newest generation that both frames
//! and decodes, without panicking, in every case.

use seqdrift_core::{DetectorConfig, DriftPipeline};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use seqdrift_store::{frame, Store, StoreError, STORE_VERSION};
use std::fs;
use std::path::{Path, PathBuf};

const DIM: usize = 4;

fn calibrated_pipeline(seed: u64) -> DriftPipeline {
    let mut rng = Rng::seed_from(seed);
    let class0: Vec<Vec<Real>> = (0..80)
        .map(|_| {
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, 0.2, 0.05);
            x
        })
        .collect();
    let class1: Vec<Vec<Real>> = (0..80)
        .map(|_| {
            let mut x = vec![0.0; DIM];
            rng.fill_normal(&mut x, 0.8, 0.05);
            x
        })
        .collect();
    let mut model = MultiInstanceModel::new(2, OsElmConfig::new(DIM, 3).with_seed(seed)).unwrap();
    model.init_train_class(0, &class0).unwrap();
    model.init_train_class(1, &class1).unwrap();
    let train: Vec<(usize, &[Real])> = class0
        .iter()
        .map(|x| (0usize, x.as_slice()))
        .chain(class1.iter().map(|x| (1usize, x.as_slice())))
        .collect();
    DriftPipeline::calibrate(model, DetectorConfig::new(2, DIM).with_window(16), &train).unwrap()
}

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seqdrift-crash-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Seeds a store with two checkpoint generations of a real pipeline for
/// session 1 and returns (root, gen1 blob, gen2 blob, path of gen2).
fn seeded_store(name: &str) -> (PathBuf, Vec<u8>, Vec<u8>, PathBuf) {
    let root = tmp_root(name);
    let store = Store::open(&root).unwrap();
    let mut pipe = calibrated_pipeline(7);
    let blob1 = pipe.to_bytes().unwrap();
    store.put(1, &blob1).unwrap();
    let mut rng = Rng::seed_from(99);
    for _ in 0..16 {
        let mut x = vec![0.0; DIM];
        rng.fill_normal(&mut x, 0.2, 0.05);
        pipe.process(&x).unwrap();
    }
    let blob2 = pipe.to_bytes().unwrap();
    store.put(1, &blob2).unwrap();
    let newest = root.join("1").join("2.ckpt");
    assert!(newest.exists());
    (root, blob1, blob2, newest)
}

/// Reopens the store and asserts that session 1 recovers to `expected`
/// bit-for-bit via the full frame+decode validation path.
fn assert_recovers_to(root: &Path, expected: &[u8], expected_gen: u64, what: &str) {
    let store = Store::open(root).unwrap_or_else(|e| panic!("{what}: open failed: {e}"));
    let (generation, pipe, _) = store
        .load_pipeline(1)
        .unwrap_or_else(|e| panic!("{what}: load failed: {e}"))
        .unwrap_or_else(|| panic!("{what}: session lost entirely"));
    assert_eq!(generation, expected_gen, "{what}: wrong generation chosen");
    assert_eq!(
        pipe.to_bytes().unwrap(),
        expected,
        "{what}: recovered pipeline is not bit-identical"
    );
}

#[test]
fn truncation_at_every_byte_of_newest_frame_falls_back() {
    let (root, blob1, _, newest) = seeded_store("truncate");
    let full = fs::read(&newest).unwrap();
    // Cut at a spread of points covering every structural boundary plus
    // every byte of header and trailer (the payload interior points are
    // equivalent wrt the CRC; a stride keeps the matrix fast).
    let mut cuts: Vec<usize> = (0..=frame::HEADER_LEN + 8).collect();
    cuts.extend((frame::HEADER_LEN + 8..full.len()).step_by(97));
    cuts.extend(full.len().saturating_sub(frame::CRC_LEN + 2)..full.len());
    for cut in cuts {
        fs::write(&newest, &full[..cut]).unwrap();
        assert_recovers_to(&root, &blob1, 1, &format!("truncated at byte {cut}"));
        // Recovery deleted the torn frame; restore it for the next cut.
        fs::write(&newest, &full).unwrap();
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn bit_flips_in_header_payload_and_crc_fall_back() {
    let (root, blob1, _, newest) = seeded_store("bitflip");
    let full = fs::read(&newest).unwrap();
    // Every header byte, a stride through the payload, every CRC byte.
    let mut targets: Vec<usize> = (0..frame::HEADER_LEN).collect();
    targets.extend((frame::HEADER_LEN..full.len() - frame::CRC_LEN).step_by(211));
    targets.extend(full.len() - frame::CRC_LEN..full.len());
    for byte in targets {
        for bit in [0u8, 3, 7] {
            let mut bad = full.clone();
            bad[byte] ^= 1 << bit;
            fs::write(&newest, &bad).unwrap();
            assert_recovers_to(&root, &blob1, 1, &format!("bit flip at {byte}:{bit}"));
            fs::write(&newest, &full).unwrap();
        }
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn orphan_temps_are_swept_and_ignored() {
    let (root, _, blob2, _) = seeded_store("orphans");
    fs::write(root.join("stale.tmp"), b"writer died here").unwrap();
    fs::write(root.join("1").join("3.ckpt.tmp"), b"torn mid-write").unwrap();
    assert_recovers_to(&root, &blob2, 2, "orphan temps present");
    assert!(!root.join("stale.tmp").exists());
    assert!(!root.join("1").join("3.ckpt.tmp").exists());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn deleted_newest_generation_falls_back() {
    let (root, blob1, _, newest) = seeded_store("delete");
    fs::remove_file(&newest).unwrap();
    assert_recovers_to(&root, &blob1, 1, "newest generation deleted");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn frame_valid_but_undecodable_payload_falls_back() {
    let (root, blob1, _, newest) = seeded_store("undecodable");
    // A perfectly framed checkpoint whose payload is garbage: the CRC
    // passes (the garbage was framed after corruption, e.g. a buggy
    // writer), so only the decode-validation layer can catch it.
    fs::write(&newest, frame::encode(2, b"not a pipeline blob")).unwrap();
    assert_recovers_to(&root, &blob1, 1, "undecodable payload");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn all_generations_torn_loses_session_not_store() {
    let (root, _, _, newest) = seeded_store("total-loss");
    let oldest = root.join("1").join("1.ckpt");
    fs::write(&newest, b"garbage").unwrap();
    fs::write(&oldest, b"also garbage").unwrap();
    let store = Store::open(&root).unwrap();
    assert!(store.load_pipeline(1).unwrap().is_none());
    // The store itself stays usable: a fresh checkpoint re-homes the id.
    let pipe = calibrated_pipeline(3);
    store.put(1, &pipe.to_bytes().unwrap()).unwrap();
    assert!(store.load_pipeline(1).unwrap().is_some());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn newer_store_version_frame_is_a_typed_hard_error() {
    let (root, _, _, newest) = seeded_store("future-store");
    let mut bytes = fs::read(&newest).unwrap();
    bytes[4..6].copy_from_slice(&(STORE_VERSION + 1).to_le_bytes());
    // Re-seal the CRC so version skew is the only defect.
    let body_end = bytes.len() - frame::CRC_LEN;
    let crc = seqdrift_store::crc32::crc32(&bytes[..body_end]).to_le_bytes();
    bytes[body_end..].copy_from_slice(&crc);
    fs::write(&newest, &bytes).unwrap();
    match Store::open(&root) {
        Err(StoreError::NewerVersion { found, .. }) => {
            assert_eq!(found, STORE_VERSION + 1);
        }
        other => panic!("expected NewerVersion, got {other:?}"),
    }
    // The future frame must survive untouched — old code never deletes
    // data it cannot understand.
    assert_eq!(fs::read(&newest).unwrap(), bytes);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn newer_wire_version_payload_is_a_typed_hard_error() {
    let (root, _, _, newest) = seeded_store("future-wire");
    // A clean frame whose *payload* claims a newer seqdrift wire version:
    // the store must refuse rather than silently fall back past it.
    let mut payload = calibrated_pipeline(5).to_bytes().unwrap();
    payload[4..6].copy_from_slice(&2u16.to_le_bytes());
    fs::write(&newest, frame::encode(2, &payload)).unwrap();
    match Store::open(&root) {
        Err(StoreError::NewerVersion { found, .. }) => assert_eq!(found, 2),
        other => panic!("expected NewerVersion, got {other:?}"),
    }
    fs::remove_dir_all(&root).ok();
}

#[test]
fn crash_during_prune_leaves_recoverable_state() {
    // Pruning deletes oldest-first only after the new generation is
    // durable; simulate a crash "between put and prune" by hand-writing
    // extra generations and verifying recovery keeps the newest valid.
    let root = tmp_root("midprune");
    let store = Store::open(&root).unwrap();
    let pipe = calibrated_pipeline(11);
    let blob = pipe.to_bytes().unwrap();
    for _ in 0..2 {
        store.put(1, &blob).unwrap();
    }
    drop(store);
    // Extra stale generation below the keep window (as if prune died).
    fs::write(root.join("1").join("0.ckpt"), frame::encode(0, &blob)).unwrap();
    let store = Store::open(&root).unwrap();
    let (generation, got, _) = store.load_pipeline(1).unwrap().unwrap();
    assert_eq!(generation, 2);
    assert_eq!(got.to_bytes().unwrap(), blob);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn stream_offsets_travel_in_their_checkpoint_frame() {
    let root = tmp_root("offsets");
    let store = Store::open(&root).unwrap();
    let pipe = calibrated_pipeline(13);
    let blob = pipe.to_bytes().unwrap();
    store.put_checkpoint(1, 77, &blob).unwrap();
    store.put_checkpoint(1, 90, &blob).unwrap();
    drop(store);
    // Tear the newest frame: recovery falls back to generation 1 with
    // generation 1's offset, never generation 2's.
    let newest = root.join("1").join("2.ckpt");
    let full = fs::read(&newest).unwrap();
    fs::write(&newest, &full[..full.len() - 3]).unwrap();
    let store = Store::open(&root).unwrap();
    let (generation, got, offset) = store.load_pipeline(1).unwrap().unwrap();
    assert_eq!((generation, offset), (1, Some(77)));
    assert_eq!(got.to_bytes().unwrap(), blob);
    // A bare pipeline blob, as written before offsets were persisted,
    // still reads back, with no offset.
    store.put(1, &blob).unwrap();
    drop(store);
    let store = Store::open(&root).unwrap();
    let (generation, got, offset) = store.load_pipeline(1).unwrap().unwrap();
    assert_eq!((generation, offset), (2, None));
    assert_eq!(got.to_bytes().unwrap(), blob);
    fs::remove_dir_all(&root).ok();
}

/// Seeds a store with two manifest generations (one, then two ledger
/// entries) and returns the root plus the two entries.
fn seeded_manifest(
    name: &str,
) -> (
    PathBuf,
    seqdrift_store::LedgerEntry,
    seqdrift_store::LedgerEntry,
) {
    use seqdrift_store::LedgerEntry;
    let root = tmp_root(name);
    let store = Store::open(&root).unwrap();
    let first = LedgerEntry {
        reason_code: 1,
        restarts_spent: 3,
    };
    let second = LedgerEntry {
        reason_code: 2,
        restarts_spent: 0,
    };
    store.set_quarantined(6, first).unwrap();
    store.set_quarantined(8, second).unwrap();
    assert!(root.join("manifest").join("2.ckpt").exists());
    (root, first, second)
}

#[test]
fn torn_manifest_generation_falls_back_to_previous_ledger() {
    let (root, first, _) = seeded_manifest("manifest-torn");
    // Truncate the newest manifest generation mid-frame; recovery must
    // fall back to generation 1 (only the first verdict), not lose the
    // ledger or resurrect garbage.
    let newest = root.join("manifest").join("2.ckpt");
    let bytes = fs::read(&newest).unwrap();
    fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
    let store = Store::open(&root).unwrap();
    let ledger = store.ledger();
    assert_eq!(ledger.len(), 1);
    assert_eq!(ledger.get(&6), Some(&first));
    assert!(store.recovery_report().corrupt_frames_dropped >= 1);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn bit_flipped_manifest_generation_falls_back() {
    let (root, first, _) = seeded_manifest("manifest-flip");
    let newest = root.join("manifest").join("2.ckpt");
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(&newest, &bytes).unwrap();
    let store = Store::open(&root).unwrap();
    assert_eq!(store.ledger().get(&6), Some(&first));
    assert_eq!(store.ledger().len(), 1);
    fs::remove_dir_all(&root).ok();
}

#[test]
fn manifest_orphan_temps_are_swept() {
    let (root, first, second) = seeded_manifest("manifest-orphans");
    fs::write(root.join("manifest").join("3.ckpt.tmp"), b"died mid-write").unwrap();
    let store = Store::open(&root).unwrap();
    assert!(!root.join("manifest").join("3.ckpt.tmp").exists());
    assert!(store.recovery_report().stale_temps_deleted >= 1);
    // The intact ledger is untouched by the sweep.
    let ledger = store.ledger();
    assert_eq!(ledger.get(&6), Some(&first));
    assert_eq!(ledger.get(&8), Some(&second));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn all_manifest_generations_torn_loses_ledger_not_store() {
    let (root, _, second) = seeded_manifest("manifest-total-loss");
    fs::write(root.join("manifest").join("1.ckpt"), b"garbage").unwrap();
    fs::write(root.join("manifest").join("2.ckpt"), b"more garbage").unwrap();
    let store = Store::open(&root).unwrap();
    // Every verdict is gone (empty ledger), but the store is fully
    // usable: new verdicts persist and survive the next reopen.
    assert!(store.ledger().is_empty());
    store.set_quarantined(8, second).unwrap();
    drop(store);
    let store = Store::open(&root).unwrap();
    assert_eq!(store.ledger().get(&8), Some(&second));
    fs::remove_dir_all(&root).ok();
}

#[test]
fn federated_model_roundtrips_and_survives_reopen() {
    let root = tmp_root("federated");
    let store = Store::open(&root).unwrap();
    let blob = calibrated_pipeline(13).to_bytes().unwrap();
    assert!(store.load_federated().unwrap().is_none());
    assert_eq!(store.put_federated(&blob).unwrap(), 1);
    let blob2 = calibrated_pipeline(14).to_bytes().unwrap();
    assert_eq!(store.put_federated(&blob2).unwrap(), 2);
    let (generation, got) = store.load_federated().unwrap().unwrap();
    assert_eq!(generation, 2);
    assert_eq!(got, blob2);
    // The federated directory is not a session: the per-session scan and
    // resume paths must never see it.
    assert!(store.sessions().is_empty());
    drop(store);
    // Power loss + restart: the newest valid generation is restored.
    let store = Store::open(&root).unwrap();
    let (generation, got) = store.load_federated().unwrap().unwrap();
    assert_eq!(generation, 2);
    assert_eq!(got, blob2);
    assert!(store.sessions().is_empty());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn torn_federated_generation_falls_back_to_previous() {
    let root = tmp_root("federated-torn");
    let store = Store::open(&root).unwrap();
    let blob = calibrated_pipeline(15).to_bytes().unwrap();
    store.put_federated(&blob).unwrap();
    let blob2 = calibrated_pipeline(16).to_bytes().unwrap();
    store.put_federated(&blob2).unwrap();
    drop(store);
    // Truncate the newest federated generation mid-frame (torn write).
    let newest = root.join("federated").join("2.ckpt");
    let bytes = fs::read(&newest).unwrap();
    fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
    let store = Store::open(&root).unwrap();
    let (generation, got) = store.load_federated().unwrap().unwrap();
    assert_eq!(generation, 1);
    assert_eq!(got, blob);
    fs::remove_dir_all(&root).ok();
}
