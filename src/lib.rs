#![warn(missing_docs)]

//! # seqdrift
//!
//! A lightweight, fully-sequential concept-drift detection library for
//! on-device learning, reproducing *"A Lightweight Concept Drift Detection
//! Method for On-Device Learning on Resource-Limited Edge Devices"*
//! (Yamada & Matsutani, 2023).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — the proposed detector (Algorithm 1), model reconstruction
//!   (Algorithms 2–4), threshold calibration (Eq. 1), and the coupled
//!   online pipeline;
//! * [`oselm`] — OS-ELM autoencoders, the per-label multi-instance
//!   discriminative model, and the ONLAD forgetting mechanism;
//! * [`baselines`] — Quant Tree, SPLL, DDM, ADWIN, Page–Hinkley, the
//!   AR(p)-residual detector and the k-means / GMM substrates;
//! * [`datasets`] — synthetic NSL-KDD-like and cooling-fan streams plus
//!   generic drift-type composition;
//! * [`edgesim`] — Raspberry Pi 4 / Pico device models, memory accounting
//!   and timing scaling;
//! * [`eval`] — the experiment harness regenerating every table and figure
//!   of the paper;
//! * [`fleet`] — the multi-tenant serving layer multiplexing many
//!   independent pipeline sessions across a supervised worker pool with
//!   panic isolation, checkpoint-based recovery and fault injection;
//! * [`federate`] — cooperative cross-session model merging: closed-form
//!   federated OS-ELM aggregation with health gating, transactional
//!   validation and durable merged generations;
//! * [`linalg`] — the shared dense/stack linear-algebra substrate;
//! * [`store`] — the crash-safe durable state store: CRC-framed
//!   generational checkpoints written atomically (temp + fsync + rename),
//!   recovery that survives torn writes, bit flips and power loss;
//! * [`server`] — the network ingest layer: a std-only TCP server
//!   multiplexing device connections into one fleet over the versioned,
//!   CRC-sealed `SQNP` wire protocol, plus the matching client;
//! * [`scenario`] — declarative `.sqsc` stream scenarios: drift shape ×
//!   schedule × per-session stagger × fault seeds, synthesized
//!   deterministically for eval/fleet/load, plus live-ingest recording
//!   into replayable bundles.
//!
//! ## Quickstart
//!
//! ```
//! use seqdrift::prelude::*;
//!
//! // 1. Build a tiny 2-class training set (two Gaussian blobs in 4-D).
//! let mut rng = Rng::seed_from(42);
//! let mut class0 = Vec::new();
//! let mut class1 = Vec::new();
//! for _ in 0..120 {
//!     let mut a = vec![0.0; 4];
//!     let mut b = vec![0.0; 4];
//!     rng.fill_normal(&mut a, 0.2, 0.05);
//!     rng.fill_normal(&mut b, 0.8, 0.05);
//!     class0.push(a);
//!     class1.push(b);
//! }
//!
//! // 2. Train one OS-ELM autoencoder instance per class.
//! let cfg = OsElmConfig::new(4, 3).with_seed(7);
//! let mut model = MultiInstanceModel::new(2, cfg).unwrap();
//! model.init_train_class(0, &class0).unwrap();
//! model.init_train_class(1, &class1).unwrap();
//!
//! // 3. Calibrate the drift detector on the training data and stream.
//! let train: Vec<(usize, &[f32])> = class0.iter().map(|x| (0usize, x.as_slice()))
//!     .chain(class1.iter().map(|x| (1usize, x.as_slice()))).collect();
//! let det_cfg = DetectorConfig::new(2, 4).with_window(16);
//! let mut pipeline = DriftPipeline::calibrate(model, det_cfg, &train).unwrap();
//!
//! // 4. Feed test samples; the pipeline predicts labels and watches for drift.
//! let mut x = vec![0.0; 4];
//! rng.fill_normal(&mut x, 0.2, 0.05);
//! let out = pipeline.process(&x).unwrap();
//! assert_eq!(out.predicted_label, Some(0));
//! ```

pub use seqdrift_baselines as baselines;
pub use seqdrift_core as core;
pub use seqdrift_datasets as datasets;
pub use seqdrift_edgesim as edgesim;
pub use seqdrift_eval as eval;
pub use seqdrift_federate as federate;
pub use seqdrift_fleet as fleet;
pub use seqdrift_linalg as linalg;
pub use seqdrift_oselm as oselm;
pub use seqdrift_scenario as scenario;
pub use seqdrift_server as server;
pub use seqdrift_store as store;

/// Convenient single-import surface for examples and quickstarts.
pub mod prelude {
    pub use seqdrift_core::{
        detector::{CentroidDetector, DetectorConfig},
        pipeline::{DriftPipeline, PipelineOutput},
        threshold::calibrate_drift_threshold,
    };
    pub use seqdrift_federate::{
        FederateError, Federator, PoisonInjector, PoisonMode, ReputationBook, RoundSummary,
    };
    pub use seqdrift_fleet::{
        DegradedReason, DurabilityHealth, Fault, FaultInjector, FederationConfig, FeedReply,
        FleetConfig, FleetEngine, FleetError, FleetEvent, MergeRejectReason, QuarantineReason,
        RecoveryReport, RejectReasons, ReputationEntry, SessionId, SessionStatus,
    };
    pub use seqdrift_linalg::{Matrix, Real, Rng};
    pub use seqdrift_oselm::{
        autoencoder::Autoencoder,
        multi_instance::MultiInstanceModel,
        oselm::{OsElm, OsElmConfig},
    };
    pub use seqdrift_scenario::{Recording, Scenario, ScenarioPlayer};
    pub use seqdrift_server::{
        AdmissionConfig, ChaosConfig, ChaosProxy, Client, ReconnectPolicy, ResilientClient, Server,
        ServerConfig,
    };
    pub use seqdrift_store::{FaultPlan, FaultVfs, RealVfs, Store, StoreConfig, StoreError, Vfs};
}
