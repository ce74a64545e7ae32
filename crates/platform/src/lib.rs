//! # streamgate-platform
//!
//! Cycle-level simulator of the heterogeneous MPSoC of *"Real-Time
//! Multiprocessor Architecture for Sharing Stream Processing Accelerators"*
//! (Dekens et al., IPDPSW 2015, §IV): processor tiles with a budget
//! scheduler, accelerator tiles behind credit-flow-controlled network
//! interfaces, software C-FIFOs, and — the paper's contribution — the
//! **entry-/exit-gateway pairs** that multiplex blocks of data from several
//! real-time streams over a shared accelerator chain.
//!
//! The FPGA prototype is replaced by this discrete-time simulator: every
//! architectural rule that feeds the temporal analysis (posted writes,
//! guaranteed acceptance, 2-deep NI buffers, ε/δ per-sample gateway costs,
//! R_s reconfiguration, round-robin block scheduling, the check-for-space
//! admission test) is enforced cycle by cycle, so the CSDF/SDF bounds of
//! `streamgate-core` can be validated against observed timestamps.

#![warn(missing_docs)]

pub mod accel;
pub mod cfifo;
pub mod gateway;
pub mod processor;
pub mod system;
pub mod trace;
pub mod types;

pub use accel::{AccelId, AcceleratorTile};
pub use cfifo::{CFifo, FifoId};
pub use gateway::{BlockRecord, GatewayPair, StreamConfig};
pub use processor::{
    ProcessorTile, RateSource, SinkTask, SoftwareTask, StereoMatrixTask, TaskWake,
};
pub use system::{EngineStats, StepMode, StopWhen, System};
pub use trace::{chrome_trace_json, StallCause, TraceEvent, TraceNames, Tracer};
pub use types::{DownsampleKernel, PassthroughKernel, Sample, ScaleKernel, StreamKernel};
