//! The observation boundary: the [`TraceSink`] trait the execution stack
//! emits into.
//!
//! The engine and the fleet loop call sink methods at every request
//! lifecycle edge and scheduling point. A sink **observes** — it receives
//! copies of values the engine already computed and can influence nothing,
//! which is what makes the tier provably inert: a run with [`NoopSink`]
//! (or any sink) executes the exact same decision sequence as a run with
//! no sink at all, bit for bit. Every trait method has an empty default
//! body, so [`NoopSink`] is a unit struct and the disabled path costs one
//! virtual call per event.

use loong_simcore::class::TrafficClass;
use loong_simcore::ids::{ConversationId, RequestId};
use loong_simcore::time::SimTime;

/// Everything known about a request when the engine admits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitInfo {
    /// The request id (stable across retry attempts).
    pub id: RequestId,
    /// The traffic class the request arrived under.
    pub class: TrafficClass,
    /// The conversation this request belongs to, for multi-turn traffic.
    pub conversation: Option<ConversationId>,
    /// Prompt length in tokens.
    pub input_len: u64,
    /// Oracle output length in tokens.
    pub output_len: u64,
}

/// The coarse lifecycle phase a request span covers.
///
/// Engine phases map onto these spans many-to-one: `Pending` and
/// `DecodeReady`-before-the-first-token are both `Queued`, and
/// `DecodeReady` *between* decode iterations stays inside the `Decode`
/// span (recorders coalesce same-phase transitions), so an uninterrupted
/// decode stretch is one span rather than one per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanPhase {
    /// Waiting for admission or dispatch.
    Queued,
    /// Prefill (full or chunked) executing.
    Prefill,
    /// Decode iterations (including inter-iteration batch waits).
    Decode,
    /// Elastic KV migration in flight.
    Migrate,
    /// Swap-out transfer to the host tier in flight.
    SwapOut,
    /// KV parked on the host tier.
    SwappedOut,
    /// Swap-in transfer back to the device in flight.
    SwapIn,
}

impl SpanPhase {
    /// The Perfetto/report label.
    pub fn label(self) -> &'static str {
        match self {
            SpanPhase::Queued => "queued",
            SpanPhase::Prefill => "prefill",
            SpanPhase::Decode => "decode",
            SpanPhase::Migrate => "migrate",
            SpanPhase::SwapOut => "swap-out",
            SpanPhase::SwappedOut => "swapped",
            SpanPhase::SwapIn => "swap-in",
        }
    }
}

/// How a request's lifecycle (or one retry attempt of it) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Finished all output tokens.
    Completed,
    /// Rejected by the scheduler (oversize, admission policy).
    Rejected,
    /// In flight on a replica that crashed; may re-enter as a retry.
    Casualty,
    /// Terminally failed (retry budget exhausted).
    Failed,
    /// Still in flight when the run ended.
    Unfinished,
}

impl Terminal {
    /// The Perfetto/report label.
    pub fn label(self) -> &'static str {
        match self {
            Terminal::Completed => "completed",
            Terminal::Rejected => "rejected",
            Terminal::Casualty => "casualty",
            Terminal::Failed => "failed",
            Terminal::Unfinished => "unfinished",
        }
    }
}

/// Scheduler signals sampled at one scheduling point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauges {
    /// Requests waiting for prefill dispatch.
    pub queue_depth: u64,
    /// Decode-phase requests in flight.
    pub batch_size: u64,
    /// Active-working-set device KV utilisation in `[0, 1]`.
    pub kv_utilization: f64,
}

/// The observation interface the execution stack emits into.
///
/// All methods default to no-ops; implement only what you consume. Sim
/// times are absolute (the engine clock is the fleet clock), so sinks
/// never need offset arithmetic.
pub trait TraceSink {
    /// A request entered the engine (arrival event processed).
    fn on_admitted(&mut self, at: SimTime, info: AdmitInfo) {
        let _ = (at, info);
    }

    /// A request moved to a new lifecycle phase.
    fn on_phase(&mut self, at: SimTime, id: RequestId, phase: SpanPhase) {
        let _ = (at, id, phase);
    }

    /// A request's lifecycle ended (within this engine run).
    fn on_terminal(&mut self, at: SimTime, id: RequestId, terminal: Terminal) {
        let _ = (at, id, terminal);
    }

    /// A request was preempted (checkpointed back to pending).
    fn on_preempted(&mut self, at: SimTime, id: RequestId) {
        let _ = (at, id);
    }

    /// A request adopted `tokens` cached KV tokens from the prefix index.
    fn on_cache_adopt(&mut self, at: SimTime, id: RequestId, tokens: u64) {
        let _ = (at, id, tokens);
    }

    /// The prefix cache evicted `entries` entries totalling `tokens`.
    fn on_cache_evict(&mut self, at: SimTime, entries: u64, tokens: u64) {
        let _ = (at, entries, tokens);
    }

    /// Scheduler signals at one scheduling point.
    fn on_gauges(&mut self, at: SimTime, gauges: Gauges) {
        let _ = (at, gauges);
    }
}

/// The zero-cost default sink: observes nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {}
