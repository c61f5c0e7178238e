//! The fixed metric inventory.
//!
//! Every metric the engine records has a compile-time slot here. Recording
//! is one relaxed write to `slab.counters[c as usize]` — no hash lookup,
//! no registration protocol, no allocation. Adding a metric means adding a
//! variant, a name, and an `ALL` entry; the slab arrays size themselves
//! from `COUNT`.

/// Monotonic counters. One atomic slot per variant per shard slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// SIP packets accepted by the classifier (requests + responses).
    SipPackets,
    /// RTP packets accepted by the classifier.
    RtpPackets,
    /// Packets rejected as malformed (classifier or parser).
    Malformed,
    /// Packets the classifier declined to analyze (non-VoIP traffic).
    Ignored,
    /// RTP packets with no owning call in the media index.
    UnassociatedRtp,
    /// SIP requests with no owning call (ghost BYEs and friends).
    UnassociatedSipRequests,
    /// SIP responses with no owning call (DRDoS reflection candidates).
    UnassociatedSipResponses,
    /// EFSM transitions taken across all machines.
    Transitions,
    /// δ-sync events delivered between machines of one call network.
    SyncDeliveries,
    /// Timer sweeps executed (interval-gated maintenance passes).
    TimerSweeps,
    /// Call fact-base entries created.
    CallsCreated,
    /// Call fact-base entries evicted by the timer sweep.
    CallsEvicted,
    /// Batches ingested through the pool API.
    BatchesIngested,
    /// Packets ingested through the pool API.
    PacketsIngested,
    /// Alerts raised with kind `Attack` (post-dedup).
    AlertsAttack,
    /// Alerts raised with kind `Deviation` (post-dedup).
    AlertsDeviation,
    /// Alerts raised with kind `Nondeterminism` (post-dedup).
    AlertsNondeterminism,
    /// Nanoseconds spent in the pool's deterministic merge (wall clock).
    MergeNanos,
    /// Datagrams received from a wire source (socket or pcap replay).
    DatagramsRx,
    /// Datagrams the ingestion tier received but never handed to the
    /// engine: batches a receiver shed, already classified, because the
    /// hand-off to the coordinator stayed full or was gone.
    DatagramsDropped,
    /// Datagrams the demultiplexer declined to map to SIP or RTP/RTCP.
    DemuxUnknown,
    /// Forensic `.vdump` files written by the flight recorder.
    DumpsWritten,
    /// Flight-recorder ring slots overwritten before an alert claimed them
    /// (the window was shorter than the traffic burst).
    RingOverwrites,
    /// Times the pipeline coordinator found every per-shard epoch ring
    /// full and had to wait for the shard workers before publishing the
    /// next batch (receiver-side backpressure).
    PipelineStalls,
    /// Plain-IPv6 datagrams the ingest tier dropped because the engine
    /// models IPv4 addresses only (no IPv4-mapped form).
    DatagramsIpv6,
    /// INVITEs refused a new call-table entry because the fact base was at
    /// its configured `max_tracked_calls` quota.
    CallQuotaDrops,
    /// Alerts the pool's deterministic merge handed to a sink.
    AlertsMerged,
}

impl Counter {
    /// Number of counter slots; sizes the slab arrays.
    pub const COUNT: usize = 27;

    /// Every variant, in slot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::SipPackets,
        Counter::RtpPackets,
        Counter::Malformed,
        Counter::Ignored,
        Counter::UnassociatedRtp,
        Counter::UnassociatedSipRequests,
        Counter::UnassociatedSipResponses,
        Counter::Transitions,
        Counter::SyncDeliveries,
        Counter::TimerSweeps,
        Counter::CallsCreated,
        Counter::CallsEvicted,
        Counter::BatchesIngested,
        Counter::PacketsIngested,
        Counter::AlertsAttack,
        Counter::AlertsDeviation,
        Counter::AlertsNondeterminism,
        Counter::MergeNanos,
        Counter::DatagramsRx,
        Counter::DatagramsDropped,
        Counter::DemuxUnknown,
        Counter::DumpsWritten,
        Counter::RingOverwrites,
        Counter::PipelineStalls,
        Counter::DatagramsIpv6,
        Counter::CallQuotaDrops,
        Counter::AlertsMerged,
    ];

    /// Stable snake_case name used in JSON/CSV export.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SipPackets => "sip_packets",
            Counter::RtpPackets => "rtp_packets",
            Counter::Malformed => "malformed",
            Counter::Ignored => "ignored",
            Counter::UnassociatedRtp => "unassociated_rtp",
            Counter::UnassociatedSipRequests => "unassociated_sip_requests",
            Counter::UnassociatedSipResponses => "unassociated_sip_responses",
            Counter::Transitions => "transitions",
            Counter::SyncDeliveries => "sync_deliveries",
            Counter::TimerSweeps => "timer_sweeps",
            Counter::CallsCreated => "calls_created",
            Counter::CallsEvicted => "calls_evicted",
            Counter::BatchesIngested => "batches_ingested",
            Counter::PacketsIngested => "packets_ingested",
            Counter::AlertsAttack => "alerts_attack",
            Counter::AlertsDeviation => "alerts_deviation",
            Counter::AlertsNondeterminism => "alerts_nondeterminism",
            Counter::MergeNanos => "merge_nanos",
            Counter::DatagramsRx => "datagrams_rx",
            Counter::DatagramsDropped => "datagrams_dropped",
            Counter::DemuxUnknown => "demux_unknown",
            Counter::DumpsWritten => "dumps_written",
            Counter::RingOverwrites => "ring_overwrites",
            Counter::PipelineStalls => "pipeline_stalls",
            Counter::DatagramsIpv6 => "datagrams_ipv6",
            Counter::CallQuotaDrops => "call_quota_drops",
            Counter::AlertsMerged => "alerts_merged",
        }
    }

    /// Whether the slot is a pure function of the input trace.
    ///
    /// Wall-clock measurements vary run to run and across shard counts;
    /// [`crate::Snapshot::deterministic`] zeroes the non-deterministic
    /// slots so snapshots can be compared for shard-count invariance.
    pub fn is_deterministic(self) -> bool {
        // Ingestion drops depend on socket buffering and OS scheduling, so
        // the slot is zeroed alongside the wall-clock ones. Recorder slots
        // depend on ring sizing and how traffic interleaves across
        // receiver threads, not on the trace alone. Pipeline stalls depend
        // on how fast the shard workers drain relative to the coordinator,
        // i.e. on host scheduling.
        !matches!(
            self,
            Counter::MergeNanos
                | Counter::DatagramsDropped
                | Counter::DumpsWritten
                | Counter::RingOverwrites
                | Counter::PipelineStalls
        )
    }
}

/// Last-value gauges, refreshed from the fact base at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Gauge {
    /// Live call fact-base entries.
    LiveCalls,
    /// Estimated resident bytes of the fact base (plus media index for the
    /// pool-level slab).
    MemoryBytes,
    /// Bytes queued in the live receive sockets at snapshot time (0 when
    /// not serving or when the platform cannot report it).
    SocketBacklog,
    /// Payload bytes currently held live in the flight recorder's datagram
    /// rings (0 when recording is off).
    RingBytes,
    /// Batches published to the per-shard epoch rings but not yet merged
    /// (pipeline in-flight depth; 0 when ingesting synchronously).
    PipelineDepth,
}

impl Gauge {
    /// Number of gauge slots; sizes the slab arrays.
    pub const COUNT: usize = 5;

    /// Every variant, in slot order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::LiveCalls,
        Gauge::MemoryBytes,
        Gauge::SocketBacklog,
        Gauge::RingBytes,
        Gauge::PipelineDepth,
    ];

    /// Stable snake_case name used in JSON/CSV export.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::LiveCalls => "live_calls",
            Gauge::MemoryBytes => "memory_bytes",
            Gauge::SocketBacklog => "socket_backlog",
            Gauge::RingBytes => "ring_bytes",
            Gauge::PipelineDepth => "pipeline_depth",
        }
    }

    /// See [`Counter::is_deterministic`]. Memory is layout-dependent: when
    /// distinct calls publish identical media coordinates, each owning
    /// shard keeps its own media-index entry, so the merged byte count
    /// varies with the shard count even though detection does not. The
    /// socket backlog depends on OS buffering; the recorder's live byte
    /// count on ring sizing and receiver interleaving; the pipeline depth
    /// on how far the shard workers lag the coordinator at sample time.
    pub fn is_deterministic(self) -> bool {
        !matches!(
            self,
            Gauge::MemoryBytes | Gauge::SocketBacklog | Gauge::RingBytes | Gauge::PipelineDepth
        )
    }
}

/// Log₂-bucketed histograms. One [`crate::AtomicHistogram`] per variant
/// per slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum HistId {
    /// Packets per ingested batch.
    BatchSize,
    /// Nanoseconds per pool merge phase (wall clock).
    MergeNanos,
}

impl HistId {
    /// Number of histogram slots; sizes the slab arrays.
    pub const COUNT: usize = 2;

    /// Every variant, in slot order.
    pub const ALL: [HistId; HistId::COUNT] = [HistId::BatchSize, HistId::MergeNanos];

    /// Stable snake_case name used in JSON/CSV export.
    pub fn name(self) -> &'static str {
        match self {
            HistId::BatchSize => "batch_size",
            HistId::MergeNanos => "merge_nanos",
        }
    }

    /// See [`Counter::is_deterministic`].
    pub fn is_deterministic(self) -> bool {
        !matches!(self, HistId::MergeNanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_and_named() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "counter {:?} out of slot order", c);
            assert!(!c.name().is_empty());
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i);
            assert!(!g.name().is_empty());
        }
        for (i, h) in HistId::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i);
            assert!(!h.name().is_empty());
        }
    }

    #[test]
    fn wall_clock_slots_are_flagged() {
        assert!(!Counter::MergeNanos.is_deterministic());
        assert!(!Counter::DatagramsDropped.is_deterministic());
        assert!(!Counter::DumpsWritten.is_deterministic());
        assert!(!Counter::RingOverwrites.is_deterministic());
        assert!(!Counter::PipelineStalls.is_deterministic());
        assert!(!Gauge::RingBytes.is_deterministic());
        assert!(!Gauge::PipelineDepth.is_deterministic());
        assert!(Counter::Transitions.is_deterministic());
        assert!(Counter::DatagramsRx.is_deterministic());
        assert!(Counter::DemuxUnknown.is_deterministic());
        assert!(Counter::DatagramsIpv6.is_deterministic());
        assert!(Counter::CallQuotaDrops.is_deterministic());
        assert!(!HistId::MergeNanos.is_deterministic());
        assert!(HistId::BatchSize.is_deterministic());
        assert!(!Gauge::MemoryBytes.is_deterministic());
        assert!(!Gauge::SocketBacklog.is_deterministic());
        assert!(Gauge::LiveCalls.is_deterministic());
    }
}
