//! Wire-compatibility goldens: byte-exact SQNP frames and the length and
//! CRC-32 of a fleet-shaped checkpoint blob, as the encoders wrote them
//! before the single-buffer frame codec and the bulk scalar-run codec.
//! The encoders must reproduce them byte for byte, and the decoders must
//! give back every scalar's exact bits (`-0.0`, NaN payloads,
//! subnormals, infinities).
//!
//! The goldens pin the shipped `f32` scalar width; a build with another
//! `Real` width has a different wire image and skips them.

use seqdrift_core::{DetectorConfig, DriftPipeline};
use seqdrift_linalg::{Real, Rng};
use seqdrift_oselm::{MultiInstanceModel, OsElmConfig};
use seqdrift_server::proto::{decode_frame, read_frame, Message, NackCode, HEADER_LEN};
use seqdrift_store::crc32::crc32;

fn f32_wire() -> bool {
    core::mem::size_of::<Real>() == 4
}

const SESSION: u64 = 0x0123_4567_89AB_CDEF;

/// Three rows of `dim` 3 covering every scalar class whose bits a lossy
/// codec could disturb.
fn golden_rows() -> Vec<Real> {
    [
        f32::from_bits(0x8000_0000), // -0.0
        f32::from_bits(0x7FC0_1234), // quiet NaN with payload bits
        f32::from_bits(0x0000_0001), // smallest subnormal
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.5,
        f32::from_bits(0xFFA5_5A01), // negative signalling-pattern NaN
        f32::MAX,
        -0.1,
    ]
    .iter()
    .map(|&v| v as Real)
    .collect()
}

/// `Message::Sample { dim: 3, data: golden_rows() }.encode(SESSION)`.
#[rustfmt::skip]
const SAMPLE_FRAME: [u8; 68] = [
    // magic "SQNP", version 1, type Sample, flags 0
    0x53, 0x51, 0x4E, 0x50, 0x01, 0x00, 0x02, 0x00,
    // session, payload length 44
    0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, 0x2C, 0x00, 0x00, 0x00,
    // count 3, dim 3
    0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    // the nine scalars of golden_rows()
    0x00, 0x00, 0x00, 0x80, 0x34, 0x12, 0xC0, 0x7F, 0x01, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x80, 0x7F, 0x00, 0x00, 0x80, 0xFF, 0x00, 0x00, 0xC0, 0x3F,
    0x01, 0x5A, 0xA5, 0xFF, 0xFF, 0xFF, 0x7F, 0x7F, 0xCD, 0xCC, 0xCC, 0xBD,
    // CRC-32 over header and payload
    0xBA, 0x36, 0xF4, 0x6E,
];

#[test]
fn sample_frame_is_byte_identical_and_decodes_to_the_same_bits() {
    if !f32_wire() {
        return;
    }
    let rows = golden_rows();
    let msg = Message::Sample {
        dim: 3,
        data: rows.clone(),
    };
    let bytes = msg.encode(SESSION);
    assert_eq!(bytes, SAMPLE_FRAME);

    let header: [u8; HEADER_LEN] = SAMPLE_FRAME[..HEADER_LEN].try_into().unwrap();
    let frame = decode_frame(&header, &SAMPLE_FRAME[HEADER_LEN..]).unwrap();
    assert_eq!(frame.session, SESSION);
    let Message::Sample { dim, data } = Message::decode(&frame).unwrap() else {
        panic!("golden frame decoded as another message");
    };
    assert_eq!(dim, 3);
    let bits = |v: &[Real]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&data), bits(&rows));
}

/// One of every message, encoded back to back.
fn every_message() -> Vec<u8> {
    let msgs = [
        Message::Hello {
            dim: 38,
            scalar_width: 4,
        },
        Message::Sample {
            dim: 3,
            data: golden_rows(),
        },
        Message::Sample {
            dim: 0,
            data: Vec::new(),
        },
        Message::Ping,
        Message::Drain,
        Message::Snapshot,
        Message::Bye,
        Message::HelloAck {
            existing: true,
            resume_from: 0x1122_3344_5566_7788,
        },
        Message::SampleAck {
            accepted: 16,
            events: vec!["DriftDetected { at: 3 }".into(), String::new()],
        },
        Message::Pong,
        Message::DrainAck {
            events: vec!["ReconstructionComplete { at: 203 }".into()],
        },
        Message::SnapshotAck {
            blob: (0u8..=40).collect(),
        },
        Message::Busy {
            accepted: 7,
            queue_depth: 256,
        },
        Message::Nack {
            code: NackCode::DimMismatch,
            detail: "batch dim 4 != handshake dim 38".into(),
        },
    ];
    let mut out = Vec::new();
    for (i, m) in msgs.iter().enumerate() {
        out.extend_from_slice(&m.encode_flagged(SESSION ^ i as u64, i as u8));
    }
    out
}

/// Length and CRC-32 of [`every_message`].
const EVERY_MESSAGE: (usize, u32) = (564, 0x39A7_41C3);

#[test]
fn every_message_type_encodes_byte_identically() {
    if !f32_wire() {
        return;
    }
    let bytes = every_message();
    assert_eq!((bytes.len(), crc32(&bytes)), EVERY_MESSAGE);
    // Every frame decodes and re-encodes to exactly its own bytes.
    let mut rest = bytes.as_slice();
    while !rest.is_empty() {
        let start = bytes.len() - rest.len();
        let frame = read_frame(&mut rest).unwrap();
        let end = bytes.len() - rest.len();
        let msg = Message::decode(&frame).unwrap();
        assert_eq!(
            msg.encode_flagged(frame.session, frame.flags),
            &bytes[start..end]
        );
    }
}

/// A calibrated pipeline in seqbench's fleet shape (38 features, 16
/// hidden nodes, window 32, two classes) that has processed 300 samples.
fn fleet_shaped_blob() -> Vec<u8> {
    const DIM: usize = 38;
    let mut rng = Rng::seed_from(0x5EED);
    let mut class = |mean: Real| -> Vec<Vec<Real>> {
        (0..100)
            .map(|_| {
                (0..DIM)
                    .map(|_| rng.uniform_range(mean - 0.1, mean + 0.1))
                    .collect()
            })
            .collect()
    };
    let class0 = class(0.2);
    let class1 = class(0.8);
    let mut model =
        MultiInstanceModel::new(2, OsElmConfig::new(DIM, 16).with_seed(0x5EED)).unwrap();
    model.init_train_class(0, &class0).unwrap();
    model.init_train_class(1, &class1).unwrap();
    let train: Vec<(usize, &[Real])> = class0
        .iter()
        .map(|x| (0, x.as_slice()))
        .chain(class1.iter().map(|x| (1, x.as_slice())))
        .collect();
    let mut pipeline =
        DriftPipeline::calibrate(model, DetectorConfig::new(2, DIM).with_window(32), &train)
            .unwrap();
    for i in 0..300 {
        let x = if i % 2 == 0 {
            &class0[i % 100]
        } else {
            &class1[i % 100]
        };
        pipeline.process(x).unwrap();
    }
    pipeline.to_bytes().unwrap()
}

/// Length and CRC-32 of [`fleet_shaped_blob`].
const FLEET_BLOB: (usize, u32) = (13_306, 0x4AB7_3D95);

#[test]
fn fleet_shaped_checkpoint_blob_is_byte_identical() {
    if !f32_wire() {
        return;
    }
    let blob = fleet_shaped_blob();
    assert_eq!((blob.len(), crc32(&blob)), FLEET_BLOB);
    let back = DriftPipeline::from_bytes(&blob).unwrap();
    assert_eq!(back.to_bytes().unwrap(), blob);
}
