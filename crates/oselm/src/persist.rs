//! Model serialisation over the workspace wire format
//! ([`seqdrift_linalg::wire`]).
//!
//! The deployment story of the paper is "train/calibrate wherever, run on
//! the device": weights must move between a host and an MCU whose firmware
//! cannot link a serde stack. Blobs are little-endian, explicitly
//! versioned, and self-describing enough for a C decoder on the device.
//! Deserialisation validates every length and re-derives buffer shapes
//! from the decoded config.

use crate::activation::Activation;
use crate::autoencoder::{Autoencoder, ScoreMetric};
use crate::multi_instance::MultiInstanceModel;
use crate::oselm::{OsElm, OsElmConfig};
use crate::{ModelError, Result};
use seqdrift_linalg::wire::{reals_len, Reader, WireError, Writer, REAL_BYTES};

/// Payload kind tags used by this crate.
mod kind {
    /// A bare [`super::OsElm`].
    pub const OSELM: u16 = 1;
    /// An [`super::Autoencoder`].
    pub const AUTOENCODER: u16 = 2;
    /// A [`super::MultiInstanceModel`].
    pub const MULTI_INSTANCE: u16 = 3;
}

fn wire_err(e: WireError) -> ModelError {
    ModelError::InvalidConfig(match e {
        WireError::BadMagic => "persist: bad magic",
        WireError::UnsupportedVersion(_) => "persist: unsupported version",
        WireError::WrongKind { .. } => "persist: wrong payload kind",
        WireError::Truncated => "persist: truncated blob",
        WireError::Invalid(w) => w,
    })
}

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Sigmoid => 0,
        Activation::Tanh => 1,
        Activation::Relu => 2,
        Activation::Identity => 3,
    }
}

fn activation_from(tag: u8) -> Result<Activation> {
    Ok(match tag {
        0 => Activation::Sigmoid,
        1 => Activation::Tanh,
        2 => Activation::Relu,
        3 => Activation::Identity,
        _ => return Err(ModelError::InvalidConfig("persist: activation tag")),
    })
}

fn metric_tag(m: ScoreMetric) -> u8 {
    match m {
        ScoreMetric::MeanSquared => 0,
        ScoreMetric::MeanAbsolute => 1,
    }
}

fn metric_from(tag: u8) -> Result<ScoreMetric> {
    Ok(match tag {
        0 => ScoreMetric::MeanSquared,
        1 => ScoreMetric::MeanAbsolute,
        _ => return Err(ModelError::InvalidConfig("persist: score metric tag")),
    })
}

/// Writes the body of an OS-ELM (everything after the header).
pub fn write_oselm_body(w: &mut Writer, m: &OsElm) {
    let cfg = m.config();
    w.u64(cfg.input_dim as u64);
    w.u64(cfg.hidden_dim as u64);
    w.u64(cfg.output_dim as u64);
    w.u8(activation_tag(cfg.activation));
    w.u64(cfg.seed);
    w.real(cfg.lambda);
    match cfg.forgetting {
        None => w.u8(0),
        Some(a) => {
            w.u8(1);
            w.real(a);
        }
    }
    w.real(cfg.weight_scale);
    w.u8(u8::from(m.is_initialized()));
    w.u64(m.samples_seen());
    w.reals(m.weights().as_slice());
    w.reals(m.biases());
    w.reals(m.p().as_slice());
    w.reals(m.beta().as_slice());
}

/// Bytes [`write_oselm_body`] writes for `m`.
pub fn oselm_body_len(m: &OsElm) -> usize {
    let forgetting = match m.config().forgetting {
        None => 1,
        Some(_) => 1 + REAL_BYTES,
    };
    3 * 8
        + 1
        + 8
        + REAL_BYTES
        + forgetting
        + REAL_BYTES
        + 1
        + 8
        + reals_len(m.weights().as_slice().len())
        + reals_len(m.biases().len())
        + reals_len(m.p().as_slice().len())
        + reals_len(m.beta().as_slice().len())
}

/// Reads the body of an OS-ELM (everything after the header).
pub fn read_oselm_body(r: &mut Reader<'_>) -> Result<OsElm> {
    let input_dim = r.u64().map_err(wire_err)? as usize;
    let hidden_dim = r.u64().map_err(wire_err)? as usize;
    let output_dim = r.u64().map_err(wire_err)? as usize;
    // Cap the shape before building any buffers: a hostile blob must not
    // be able to describe a terabyte-scale network (16M-wide layers are
    // already far beyond anything this workspace trains).
    const MAX_DIM: usize = 16_777_216;
    if input_dim > MAX_DIM || hidden_dim > MAX_DIM || output_dim > MAX_DIM {
        return Err(ModelError::InvalidConfig("persist: dimension too large"));
    }
    let activation = activation_from(r.u8().map_err(wire_err)?)?;
    let seed = r.u64().map_err(wire_err)?;
    let lambda = r.real().map_err(wire_err)?;
    let forgetting = match r.u8().map_err(wire_err)? {
        0 => None,
        1 => Some(r.real().map_err(wire_err)?),
        _ => return Err(ModelError::InvalidConfig("persist: forgetting tag")),
    };
    let weight_scale = r.real().map_err(wire_err)?;
    let initialized = r.u8().map_err(wire_err)? != 0;
    let samples_seen = r.u64().map_err(wire_err)?;
    let w = r.reals().map_err(wire_err)?;
    let b = r.reals().map_err(wire_err)?;
    let p = r.reals().map_err(wire_err)?;
    let beta = r.reals().map_err(wire_err)?;

    let mut cfg = OsElmConfig::new(input_dim, hidden_dim)
        .with_output_dim(output_dim)
        .with_activation(activation)
        .with_seed(seed)
        .with_lambda(lambda);
    if let Some(a) = forgetting {
        cfg = cfg.with_forgetting(a);
    }
    cfg.weight_scale = weight_scale;
    OsElm::from_parts(cfg, w, b, p, beta, initialized, samples_seen)
}

/// Writes an autoencoder body (metric + network).
pub fn write_autoencoder_body(w: &mut Writer, ae: &Autoencoder) {
    w.u8(metric_tag(ae.metric()));
    write_oselm_body(w, ae.network());
}

/// Reads an autoencoder body (metric + network).
pub fn read_autoencoder_body(r: &mut Reader<'_>) -> Result<Autoencoder> {
    let metric = metric_from(r.u8().map_err(wire_err)?)?;
    let net = read_oselm_body(r)?;
    Autoencoder::from_network(net, metric)
}

/// Writes a multi-instance model body (class count + instances).
pub fn write_multi_instance_body(w: &mut Writer, m: &MultiInstanceModel) {
    w.u64(m.classes() as u64);
    for c in 0..m.classes() {
        write_autoencoder_body(w, m.instance(c).expect("class in range"));
    }
}

/// Bytes [`write_multi_instance_body`] writes for `m`.
pub fn multi_instance_body_len(m: &MultiInstanceModel) -> usize {
    8 + (0..m.classes())
        .map(|c| 1 + oselm_body_len(m.instance(c).expect("class in range").network()))
        .sum::<usize>()
}

/// Reads a multi-instance model body.
pub fn read_multi_instance_body(r: &mut Reader<'_>) -> Result<MultiInstanceModel> {
    let classes = r.u64().map_err(wire_err)? as usize;
    if classes == 0 || classes > 4096 {
        return Err(ModelError::InvalidConfig("persist: class count"));
    }
    let mut instances = Vec::with_capacity(classes);
    for _ in 0..classes {
        instances.push(read_autoencoder_body(r)?);
    }
    MultiInstanceModel::from_instances(instances)
}

impl OsElm {
    /// Serialises the full model state to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(kind::OSELM);
        write_oselm_body(&mut w, self);
        w.into_bytes()
    }

    /// Restores a model written by [`OsElm::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<OsElm> {
        let mut r = Reader::new(data, kind::OSELM).map_err(wire_err)?;
        let m = read_oselm_body(&mut r)?;
        r.finish().map_err(wire_err)?;
        Ok(m)
    }
}

impl Autoencoder {
    /// Serialises the autoencoder (network + score metric).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(kind::AUTOENCODER);
        write_autoencoder_body(&mut w, self);
        w.into_bytes()
    }

    /// Restores an autoencoder written by [`Autoencoder::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<Autoencoder> {
        let mut r = Reader::new(data, kind::AUTOENCODER).map_err(wire_err)?;
        let ae = read_autoencoder_body(&mut r)?;
        r.finish().map_err(wire_err)?;
        Ok(ae)
    }
}

impl MultiInstanceModel {
    /// Serialises every instance.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(kind::MULTI_INSTANCE);
        write_multi_instance_body(&mut w, self);
        w.into_bytes()
    }

    /// Restores a model written by [`MultiInstanceModel::to_bytes`].
    pub fn from_bytes(data: &[u8]) -> Result<MultiInstanceModel> {
        let mut r = Reader::new(data, kind::MULTI_INSTANCE).map_err(wire_err)?;
        let m = read_multi_instance_body(&mut r)?;
        r.finish().map_err(wire_err)?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqdrift_linalg::{Real, Rng};

    fn data(n: usize, dim: usize, seed: u64) -> Vec<Vec<Real>> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|_| {
                let mut x = vec![0.0; dim];
                rng.fill_uniform(&mut x, 0.0, 1.0);
                x
            })
            .collect()
    }

    #[test]
    fn oselm_roundtrip_preserves_everything() {
        let xs = data(30, 5, 1);
        let mut m = OsElm::new(
            OsElmConfig::new(5, 4)
                .with_seed(7)
                .with_forgetting(0.97)
                .with_activation(Activation::Tanh),
        )
        .unwrap();
        m.init_train(&xs, &xs).unwrap();
        let blob = m.to_bytes();
        let mut restored = OsElm::from_bytes(&blob).unwrap();
        assert_eq!(restored.config(), m.config());
        assert_eq!(restored.samples_seen(), m.samples_seen());
        // Identical predictions and identical continued training.
        let probe = &xs[0];
        assert_eq!(m.predict(probe).unwrap(), restored.predict(probe).unwrap());
        m.seq_train(probe, probe).unwrap();
        restored.seq_train(probe, probe).unwrap();
        assert!(m.beta().approx_eq(restored.beta(), 0.0));
    }

    #[test]
    fn uninitialized_model_roundtrips() {
        let m = OsElm::new(OsElmConfig::new(3, 2)).unwrap();
        let restored = OsElm::from_bytes(&m.to_bytes()).unwrap();
        assert!(!restored.is_initialized());
    }

    #[test]
    fn autoencoder_roundtrip() {
        let xs = data(25, 4, 2);
        let mut ae = Autoencoder::new(OsElmConfig::new(4, 3).with_seed(5))
            .unwrap()
            .with_metric(ScoreMetric::MeanAbsolute);
        ae.init_train(&xs).unwrap();
        let mut restored = Autoencoder::from_bytes(&ae.to_bytes()).unwrap();
        assert_eq!(restored.metric(), ScoreMetric::MeanAbsolute);
        assert_eq!(ae.score(&xs[0]).unwrap(), restored.score(&xs[0]).unwrap());
    }

    #[test]
    fn multi_instance_roundtrip() {
        let mut m = MultiInstanceModel::new(3, OsElmConfig::new(4, 3).with_seed(9)).unwrap();
        for c in 0..3 {
            m.init_train_class(c, &data(20, 4, 10 + c as u64)).unwrap();
        }
        let mut restored = MultiInstanceModel::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(restored.classes(), 3);
        let probe = data(1, 4, 99).remove(0);
        assert_eq!(
            m.predict(&probe).unwrap(),
            restored.predict(&probe).unwrap()
        );
    }

    #[test]
    fn corrupted_blobs_are_rejected() {
        let m = OsElm::new(OsElmConfig::new(3, 2)).unwrap();
        let blob = m.to_bytes();
        // Bad magic.
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(OsElm::from_bytes(&bad).is_err());
        // Truncated.
        assert!(OsElm::from_bytes(&blob[..blob.len() - 3]).is_err());
        // Trailing bytes.
        let mut long = blob.clone();
        long.push(0);
        assert!(OsElm::from_bytes(&long).is_err());
        // Wrong kind.
        assert!(Autoencoder::from_bytes(&blob).is_err());
        // Future version.
        let mut future = blob;
        future[4] = 0xFF;
        assert!(OsElm::from_bytes(&future).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let xs = data(10, 3, 3);
        let mut m = OsElm::new(OsElmConfig::new(3, 2)).unwrap();
        m.init_train(&xs, &xs).unwrap();
        let mut blob = m.to_bytes();
        // Tamper with the hidden_dim field (bytes 16..24 after header 8 +
        // input_dim 8).
        blob[16] = 99;
        assert!(OsElm::from_bytes(&blob).is_err());
    }
}
