//! # loong-simcore
//!
//! Foundation crate for LoongServe-RS: a deterministic discrete-event
//! simulation core used by every other crate in the workspace.
//!
//! The crate provides:
//!
//! * [`time`] — simulated instants and durations,
//! * [`events`] — a deterministic event queue with FIFO tie-breaking,
//! * [`rng`] — a seedable, splittable PRNG so experiments reproduce exactly,
//! * [`distributions`] — the samplers behind workload generation
//!   (Poisson arrivals, Zipf mixtures, log-uniform/log-normal lengths),
//! * [`ids`] — strongly-typed identifiers shared across the workspace,
//! * [`table`] — a dense request table with incrementally maintained
//!   phase indices, the backbone of the engine's O(active) run loop,
//! * [`pool`] — a bounded, deterministic fork-join worker pool used by the
//!   fleet runners to execute independent replica segments in parallel,
//! * [`profile`] — wall-clock self-profiling counters (scheduling points,
//!   events popped, pool jobs per wall-second).
//!
//! # Examples
//!
//! Driving a tiny simulation loop:
//!
//! ```
//! use loong_simcore::events::EventQueue;
//! use loong_simcore::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::from_secs(0.5), Ev::Tick(0));
//! let mut ticks = 0;
//! while let Some(event) = queue.pop() {
//!     let Ev::Tick(n) = event.payload;
//!     ticks += 1;
//!     if n < 3 {
//!         queue.push(event.at + SimDuration::from_secs(0.5), Ev::Tick(n + 1));
//!     }
//! }
//! assert_eq!(ticks, 4);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod class;
pub mod distributions;
pub mod events;
pub mod ids;
pub mod pool;
pub mod profile;
pub mod rng;
pub mod table;
pub mod time;

pub use class::TrafficClass;
pub use distributions::{Empirical, Exponential, LogNormal, LogUniform, Zipf};
pub use events::{Event, EventQueue};
pub use ids::{BatchId, GpuId, GroupId, IdAllocator, InstanceId, NodeId, ReplicaId, RequestId};
pub use pool::{run_each_mut, run_indexed, worker_cap};
pub use profile::{ProfileCounters, ProfileReport, SelfProfile};
pub use rng::SimRng;
pub use table::{PhaseClass, RequestTable};
pub use time::{SimDuration, SimTime};
