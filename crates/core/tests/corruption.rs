//! Hostile-input hardening for `DriftPipeline::from_bytes`: truncated,
//! bit-flipped and length-lying blobs must all return `Err` — never panic,
//! never allocate unboundedly. Exercised over *real* snapshot blobs so the
//! corruption lands on every section of the wire format (configs, centroid
//! sets, model weights), at rest and in motion (an open detection window,
//! a running reconstruction).

use seqdrift_core::{DetectorConfig, DriftPipeline};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};

const DIM: usize = 5;

fn sample(rng: &mut Rng, mean: Real) -> Vec<Real> {
    let mut x = vec![0.0; DIM];
    rng.fill_normal(&mut x, mean, 0.05);
    x
}

fn calibrated(rng: &mut Rng) -> DriftPipeline {
    let class0: Vec<Vec<Real>> = (0..80).map(|_| sample(rng, 0.2)).collect();
    let class1: Vec<Vec<Real>> = (0..80).map(|_| sample(rng, 0.8)).collect();
    let mut model = MultiInstanceModel::new(2, OsElmConfig::new(DIM, 4).with_seed(11)).unwrap();
    model.init_train_class(0, &class0).unwrap();
    model.init_train_class(1, &class1).unwrap();
    let pairs: Vec<(usize, &[Real])> = class0
        .iter()
        .map(|x| (0usize, x.as_slice()))
        .chain(class1.iter().map(|x| (1usize, x.as_slice())))
        .collect();
    DriftPipeline::calibrate(
        model,
        DetectorConfig::new(2, DIM).with_window(WINDOW),
        &pairs,
    )
    .unwrap()
}

/// A realistic warmed-up snapshot: calibrated two-class pipeline with 150
/// streamed samples of detector state.
fn snapshot_blob() -> Vec<u8> {
    let mut rng = Rng::seed_from(404);
    let mut p = calibrated(&mut rng);
    for i in 0..150 {
        let mean = if i % 2 == 0 { 0.2 } else { 0.8 };
        p.process(&sample(&mut rng, mean)).unwrap();
    }
    p.to_bytes().unwrap()
}

/// Checkpoints of the same pipeline in motion: `(open window, running
/// reconstruction)`. The reconstruction blob is taken `RECON_STEPS`
/// samples into the default 200-sample schedule (search 20, refinement
/// 50), so its calibrator holds `RECON_STEPS - 50` distances.
fn in_motion_blobs() -> (Vec<u8>, Vec<u8>) {
    let mut rng = Rng::seed_from(405);
    let mut p = calibrated(&mut rng);
    let mut window = None;
    let mut steps = 0;
    for i in 0.. {
        let mean = if i % 2 == 0 { 0.6 } else { 1.2 };
        let out = p.process(&sample(&mut rng, mean)).unwrap();
        if window.is_none() && p.detector().is_checking() {
            window = Some(p.to_bytes().unwrap());
        }
        steps = if out.drift_detected { 0 } else { steps + 1 };
        if p.is_reconstructing() && steps == RECON_STEPS {
            break;
        }
        assert!(i < 2_000, "the shifted stream never reconstructed");
    }
    (window.expect("a window opened"), p.to_bytes().unwrap())
}

const WINDOW: usize = 20;
const RECON_STEPS: u64 = 60;

/// Decoding must return a `Result`, not unwind. Wrap in catch_unwind so a
/// panicking decoder fails the test with a precise message instead of
/// aborting the harness.
fn decode_must_err(blob: &[u8], what: &str) {
    let outcome = std::panic::catch_unwind(|| DriftPipeline::from_bytes(blob).is_err());
    match outcome {
        Ok(true) => {}
        Ok(false) => panic!("{what}: corrupted blob decoded successfully"),
        Err(_) => panic!("{what}: decoder panicked instead of returning Err"),
    }
}

fn all_blobs() -> [(&'static str, Vec<u8>); 3] {
    let (window, recon) = in_motion_blobs();
    [
        ("at rest", snapshot_blob()),
        ("open window", window),
        ("reconstruction", recon),
    ]
}

#[test]
fn every_truncation_point_errors_cleanly() {
    for (what, blob) in all_blobs() {
        DriftPipeline::from_bytes(&blob).unwrap();
        // Every prefix, stepping fine near the start (header/config
        // region) and the end (the in-motion section), and coarser
        // through the bulky weight section.
        let mut cut = 0usize;
        while cut < blob.len() {
            decode_must_err(&blob[..cut], &format!("{what}: truncated at {cut}"));
            cut += if cut < 256 || cut + 256 > blob.len() {
                1
            } else {
                37
            };
        }
    }
}

#[test]
fn seeded_bit_flips_never_panic_or_succeed_silently() {
    for (_, blob) in all_blobs() {
        bit_flips_never_panic(&blob);
    }
}

fn bit_flips_never_panic(blob: &[u8]) {
    let reference = DriftPipeline::from_bytes(blob).unwrap();
    let mut rng = Rng::seed_from(0xBADC0DE);
    for _ in 0..400 {
        let pos = rng.below(blob.len() as u64) as usize;
        let bit = 1u8 << rng.below(8);
        let mut bad = blob.to_vec();
        bad[pos] ^= bit;
        // A flip may land in a don't-care bit (e.g. float mantissa) and
        // still decode; that is fine. What is never fine is a panic.
        let outcome = std::panic::catch_unwind(|| {
            DriftPipeline::from_bytes(&bad).map(|p| p.samples_processed())
        });
        match outcome {
            Ok(Ok(n)) => {
                // If it decoded, it must be internally consistent enough
                // to report its counter (flips in scalar payloads).
                let _ = n;
            }
            Ok(Err(_)) => {}
            Err(_) => panic!("decoder panicked on bit flip at byte {pos} bit {bit:08b}"),
        }
    }
    // Sanity: the uncorrupted blob still decodes to the same state.
    assert_eq!(
        DriftPipeline::from_bytes(blob).unwrap().samples_processed(),
        reference.samples_processed()
    );
}

#[test]
fn newer_wire_version_is_a_typed_error_not_a_parse_attempt() {
    use seqdrift_core::CoreError;
    use seqdrift_linalg::wire;

    // A checkpoint written by a future library release: same magic, wire
    // version bumped past what this build understands. Decoding must fail
    // with the dedicated unsupported-version error — before any section
    // parsing — so old firmware reports "upgrade needed", never "corrupt".
    let blob = snapshot_blob();
    assert_eq!(&blob[..4], wire::MAGIC, "wire layout changed under us");
    for skew in [wire::VERSION + 1, wire::VERSION + 7, u16::MAX] {
        let mut future = blob.clone();
        future[4..6].copy_from_slice(&skew.to_le_bytes());
        match DriftPipeline::from_bytes(&future) {
            Err(CoreError::InvalidConfig(msg)) => {
                assert_eq!(
                    msg, "persist: unsupported version",
                    "version {skew}: wrong error message"
                );
            }
            Err(other) => panic!("version {skew}: wrong error type: {other}"),
            Ok(_) => panic!("version {skew}: future blob decoded on old code"),
        }
    }
    // Version 0 (never issued) is equally unsupported, not treated as "old
    // and therefore fine".
    let mut ancient = blob;
    ancient[4..6].copy_from_slice(&0u16.to_le_bytes());
    assert!(DriftPipeline::from_bytes(&ancient).is_err());
}

#[test]
fn length_lying_fields_error_without_huge_allocation() {
    let blob = snapshot_blob();
    let mut rng = Rng::seed_from(0x11E5);
    // Overwrite seeded 8-byte windows with absurd little-endian lengths.
    // Wherever they land (length prefix, dim field, count), the decoder
    // must reject by comparing against remaining bytes / dim caps before
    // allocating — if it tried to honour them, the test would OOM or take
    // forever rather than merely fail.
    for &lie in &[u64::MAX, u64::MAX / 2, 1 << 40, 1 << 33] {
        for _ in 0..60 {
            let pos = rng.below((blob.len() - 8) as u64) as usize;
            let mut bad = blob.clone();
            bad[pos..pos + 8].copy_from_slice(&lie.to_le_bytes());
            let outcome = std::panic::catch_unwind(|| DriftPipeline::from_bytes(&bad).is_err());
            match outcome {
                // Landing mid-scalar-run can leave the blob decodable or
                // not; both fine as long as nothing panicked or ballooned.
                Ok(_) => {}
                Err(_) => panic!("decoder panicked on length lie at byte {pos}"),
            }
        }
    }
    // The canonical attack: a centroid-set header claiming ~10^12 scalars
    // (classes=65536 x dim=16777216 passes the old per-field caps). The
    // detector-config section starts right after the 8-byte header with
    // classes/dim as the first two u64 fields; the trained centroid set
    // follows the pipeline scalars. Target it precisely by scanning for
    // the first occurrence of the legitimate classes/dim pair.
    let classes_bytes = 2u64.to_le_bytes();
    let dim_bytes = (DIM as u64).to_le_bytes();
    let mut hit = false;
    for pos in 8..blob.len().saturating_sub(16) {
        if blob[pos..pos + 8] == classes_bytes && blob[pos + 8..pos + 16] == dim_bytes {
            let mut bad = blob.clone();
            bad[pos..pos + 8].copy_from_slice(&65_536u64.to_le_bytes());
            bad[pos + 8..pos + 16].copy_from_slice(&16_777_216u64.to_le_bytes());
            decode_must_err(&bad, &format!("giant shape claim at {pos}"));
            hit = true;
        }
    }
    assert!(hit, "never found a classes/dim pair to corrupt");
}

/// Overwrites the little-endian `u64` that ends `from_end` bytes before
/// the end of `blob`.
fn with_u64_from_end(blob: &[u8], from_end: usize, v: u64) -> Vec<u8> {
    let mut bad = blob.to_vec();
    let at = bad.len() - from_end;
    bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
    bad
}

#[test]
fn hostile_open_window_state_is_rejected() {
    let (blob, _) = in_motion_blobs();
    // The section is the tag byte, then `win`, at the very end.
    assert_eq!(blob[blob.len() - 9], 1, "open-window tag moved");
    let at = blob.len() - 8;
    let win = u64::from_le_bytes(blob[at..].try_into().unwrap());
    assert!((1..WINDOW as u64).contains(&win));
    for lie in [0, WINDOW as u64, WINDOW as u64 + 1, u64::MAX] {
        decode_must_err(&with_u64_from_end(&blob, 8, lie), &format!("win {lie}"));
    }
    for tag in [0u8, 3, 255] {
        let mut bad = blob.clone();
        bad[at - 1] = tag;
        decode_must_err(&bad, &format!("tag {tag}"));
    }
}

#[test]
fn hostile_reconstruction_state_is_rejected() {
    use seqdrift_linalg::wire::REAL_BYTES;
    let (_, blob) = in_motion_blobs();
    // The section ends with seeded, count, and the calibrator's n, mean
    // and m2, eight bytes each.
    let (seeded, count, n, mean, m2) = (40, 32, 24, 16, 8);
    let field = |from_end: usize| {
        let at = blob.len() - from_end;
        u64::from_le_bytes(blob[at..at + 8].try_into().unwrap())
    };
    assert_eq!(
        (field(seeded), field(count), field(n)),
        (2, RECON_STEPS, RECON_STEPS - 50),
        "reconstruction section layout moved"
    );
    DriftPipeline::from_bytes(&blob).unwrap();

    // count past n_total, with the calibrator count kept consistent so
    // only the bound can reject it.
    let past = with_u64_from_end(&with_u64_from_end(&blob, count, 201), n, 151);
    decode_must_err(&past, "count past n_total");
    decode_must_err(&with_u64_from_end(&blob, count, u64::MAX), "count u64::MAX");
    decode_must_err(&with_u64_from_end(&blob, seeded, 3), "seeded > classes");
    decode_must_err(
        &with_u64_from_end(&blob, seeded, 1),
        "seeded < min(count, classes)",
    );
    decode_must_err(&with_u64_from_end(&blob, n, 9), "calibrator count");
    for (what, from_end, bits) in [
        ("NaN mean", mean, f64::NAN.to_bits()),
        ("infinite mean", mean, f64::INFINITY.to_bits()),
        ("NaN m2", m2, f64::NAN.to_bits()),
        ("infinite m2", m2, f64::INFINITY.to_bits()),
        ("negative m2", m2, (-1.0f64).to_bits()),
    ] {
        decode_must_err(&with_u64_from_end(&blob, from_end, bits), what);
    }

    // A `cor` of the wrong shape, re-encoded so it parses as a set.
    let cor_len = 16 + 2 * (8 + DIM * REAL_BYTES) + 8 + 2 * 8;
    let tag_at = blob.len() - 40 - cor_len - 1;
    assert_eq!(blob[tag_at], 2, "reconstruction tag moved");
    for (classes, dim) in [(3usize, DIM), (2, DIM + 1), (1, DIM)] {
        let mut bad = blob[..=tag_at].to_vec();
        bad.extend_from_slice(&(classes as u64).to_le_bytes());
        bad.extend_from_slice(&(dim as u64).to_le_bytes());
        for _ in 0..classes {
            bad.extend_from_slice(&(dim as u64).to_le_bytes());
            bad.extend(std::iter::repeat_n(0u8, dim * REAL_BYTES));
        }
        bad.extend_from_slice(&(classes as u64).to_le_bytes());
        bad.extend(std::iter::repeat_n(0u8, classes * 8));
        bad.extend_from_slice(&blob[blob.len() - 40..]);
        decode_must_err(&bad, &format!("cor {classes}x{dim}"));
    }
}
