//! Campus fleet tier for HAWC-CC: pole agents, a wire protocol, and
//! an occupancy aggregator.
//!
//! A blue light pole counts pedestrians by itself (`counting`), but a
//! campus deployment is a *fleet*: dozens of poles, each streaming
//! per-frame counts to a central aggregator that answers "how many
//! people are on campus right now, and where?". This crate is that
//! tier, split into three layers:
//!
//! - [`wire`] — a versioned, length-prefixed, checksummed binary
//!   framing for [`wire::PoleReport`]s and heartbeats. Decoding is
//!   strict and panic-free: a malformed byte stream yields a
//!   [`wire::WireError`], never a crash on the aggregator.
//! - [`transport`] — how frames move: a blocking [`transport::Transport`]
//!   pair over std TCP for real deployments, and a deterministic
//!   in-process loopback with seeded loss/latency/reorder for tests
//!   and benches.
//! - [`agent`] — the pole side: wraps a `counting::SupervisedCounter`,
//!   stamps its output into reports, batches them through a bounded
//!   drop-oldest queue, and reconnects with jittered exponential
//!   backoff when the uplink dies.
//! - [`aggregator`] — the campus side: per-pole liveness from
//!   heartbeat deadlines, centroid fusion that dedups people seen by
//!   two overlapping poles (via `world::PoleRegistry` poses), and
//!   time-windowed [`aggregator::CampusSnapshot`]s for dashboards.
//! - [`health`] — the ops surface derived from all of the above: a
//!   [`health::FleetHealth`] scoreboard of merged per-pole telemetry
//!   and end-to-end ingest latency percentiles, plus a bounded
//!   [`health::EventJournal`] of connects, liveness flips, and ladder
//!   transitions.
//! - [`sentinel`] — Byzantine-input hardening: per-pole semantic
//!   validation of every decoded message, a decaying violation score,
//!   and a Suspect → Quarantined → Banned trust ladder that keeps a
//!   compromised pole from poisoning the campus view.
//! - [`capture`] — wire capture and bit-exact replay: every inbound
//!   frame can be recorded with its arrival metadata and later fed
//!   back through the full decode → sentinel → fusion path, turning a
//!   live anomaly into a frozen regression fixture.
//! - [`checkpoint`] — crash-safe warm restart: the fused state is
//!   periodically serialised to a versioned, CRC'd snapshot file
//!   (written atomically), so a restarted aggregator resumes with
//!   poles still Live instead of flapping the campus Dead.
//!
//! The design invariant underneath all of it: fusion state is keyed
//! per pole and last-sequence-wins, so a campus snapshot is a pure
//! function of *which* reports arrived, not the order or thread they
//! arrived on. Tests pin this — fused counts are bit-identical across
//! one agent thread or eight, and across packet reorder.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod aggregator;
pub mod capture;
pub mod checkpoint;
pub mod health;
pub mod json;
pub mod reactor;
pub mod sentinel;
// The vendored dependency set has no `libc`, so the one syscall the
// reactor parks on (`poll(2)`) is hand-declared FFI, quarantined to
// this module. Everything else in the crate stays `deny(unsafe_code)`.
// Public: the serving tier (`crates/serve`) parks its HTTP reactor on
// the same primitive rather than re-declaring the FFI.
#[allow(unsafe_code)]
pub mod sys;
pub mod transport;
pub mod wire;

pub use agent::{AgentConfig, AgentStats, PoleAgent};
pub use aggregator::{
    Aggregator, AggregatorConfig, CampusSnapshot, FusedPerson, FusionConfig, FusionCore,
    FusionStats, IngestVerdict, Liveness, PoleStatus, PublishHook, ShardedFusion, SnapshotCell,
    ZoneOccupancy,
};
pub use capture::{
    load_capture, read_capture, replay, CaptureError, CaptureRecord, CaptureWriter, ReplayTransport,
};
pub use checkpoint::{Checkpoint, CheckpointError, SlotCheckpoint};
pub use health::{EventJournal, FleetEvent, FleetEventKind, FleetHealth, PoleHealth};
pub use reactor::{ReactorConfig, ReactorHandle};
pub use sentinel::{
    Disposition, Inspection, PoleTrust, Sentinel, SentinelConfig, TrustState, Violation,
};
pub use transport::{
    loopback_pair, Connector, LoopbackConfig, LoopbackHub, ReadySignal, TcpConnector, Transport,
    TransportError,
};
pub use wire::{
    decode, encode, ClusterObservation, FrameDecoder, Heartbeat, Message, PoleReport,
    TelemetryFrame, WireError,
};
