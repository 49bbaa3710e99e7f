//! # loong-cluster
//!
//! Simulated GPU cluster substrate for LoongServe-RS.
//!
//! The original LoongServe runs on servers with eight NVIDIA A800 80GB GPUs
//! connected by 400 GB/s NVLink inside a node and four 200 Gbps InfiniBand
//! NICs across nodes. This crate models that hardware with just enough
//! fidelity for scheduling decisions to be meaningful:
//!
//! * [`gpu`] — device specs (peak FLOP/s, HBM bandwidth, memory) and
//!   point-to-point link specs,
//! * [`topology`] — nodes, GPU placement, and link selection between GPUs,
//! * [`comm`] — alpha-beta cost models for the collectives used by tensor
//!   parallelism, sequence parallelism and KV-cache migration,
//! * [`memory`] — per-GPU memory budgets that size the KV-cache pools.
//!
//! # Examples
//!
//! ```
//! use loong_cluster::prelude::*;
//!
//! let cluster = ClusterSpec::single_node_a800(8);
//! let comm = CommModel::new(cluster.intra_node_link);
//! // An 8-way all-reduce of 64 MiB takes well under a millisecond on NVLink.
//! assert!(comm.ring_allreduce(64.0 * 1024.0 * 1024.0, 8) < 1e-3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod comm;
pub mod gpu;
pub mod memory;
pub mod topology;

pub use comm::{CommModel, CommVolume};
pub use gpu::{GpuSpec, LinkSpec, GB, GIB};
pub use memory::{HostMemoryBudget, MemoryBudget};
pub use topology::ClusterSpec;

/// Convenient glob-import of the most commonly used types.
pub mod prelude {
    pub use crate::comm::{CommModel, CommVolume};
    pub use crate::gpu::{GpuSpec, LinkSpec, GB, GIB};
    pub use crate::memory::{HostMemoryBudget, MemoryBudget};
    pub use crate::topology::ClusterSpec;
}
