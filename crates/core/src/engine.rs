//! The Analysis Engine (Fig. 3): feeds classified events to the right
//! machines, collects attack-state entries and specification deviations,
//! and raises [`Alert`]s.
//!
//! Alerts flow through the push-based [`AlertSink`] API ([`Vids::process`]);
//! the legacy collect-into-a-`Vec` entry point ([`Vids::process`]) remains as a
//! deprecated shim. The packet path is decomposed into `ingest_*` parts so the
//! sharded [`crate::pool::VidsPool`] can route each part of a packet (per-call
//! machine, per-destination flood machine) to a different shard while reusing
//! exactly this engine's semantics.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use vids_efsm::network::NetworkOutcome;
use vids_efsm::{sym, Event, Sym, TransitionObserver};
use vids_netsim::packet::Packet;
use vids_netsim::time::SimTime;
use vids_telemetry::{
    Counter, Gauge, Registry, ShardSlab, Snapshot, TransitionRecord, TransitionRing,
};

use crate::alert::{Alert, AlertKind};
use crate::classify::{classify, ip_sym, Classified};
use crate::config::Config;
use crate::cost::{CostModel, CpuAccount};
use crate::factbase::{FactBase, FactBaseStats};
use crate::monitor::Monitor;
use crate::sink::AlertSink;

/// Traffic counters the engine maintains alongside the alert log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VidsCounters {
    /// SIP messages processed.
    pub sip_packets: u64,
    /// RTP packets processed.
    pub rtp_packets: u64,
    /// Unparseable SIP/RTP datagrams.
    pub malformed: u64,
    /// Non-VoIP traffic passed through unmonitored.
    pub ignored: u64,
    /// RTP packets matching no monitored call's media coordinates.
    pub unassociated_rtp: u64,
    /// SIP requests for calls vids does not know.
    pub unassociated_sip_requests: u64,
    /// SIP responses matching no monitored call (DRDoS symptom).
    pub unassociated_sip_responses: u64,
}

impl std::ops::AddAssign for VidsCounters {
    fn add_assign(&mut self, rhs: VidsCounters) {
        self.sip_packets += rhs.sip_packets;
        self.rtp_packets += rhs.rtp_packets;
        self.malformed += rhs.malformed;
        self.ignored += rhs.ignored;
        self.unassociated_rtp += rhs.unassociated_rtp;
        self.unassociated_sip_requests += rhs.unassociated_sip_requests;
        self.unassociated_sip_responses += rhs.unassociated_sip_responses;
    }
}

/// How often idle call networks are advanced and finished calls evicted.
/// Public so a cluster gateway can mirror the pool's sweep-interval gate
/// when accounting batch-level telemetry exactly once for a global batch.
pub const SWEEP_INTERVAL_MS: u64 = 100;

/// A SIP response that matched no monitored call. The pool detects the miss
/// on the call-owning shard and counts it on the destination-owning shard's
/// DRDoS reflection machine.
pub(crate) struct ResponseMiss {
    /// The responder (reflection source).
    pub src_ip: Sym,
}

/// The scope of a machine delivery: which call, registration or
/// destination the network belongs to. Carried by value on the clean warm
/// path; rendered only once an alert about it is known to be new.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Scope {
    /// A call-scoped delivery, rendered as the Call-ID text.
    Call(Sym),
    /// A registration delivery, rendered `aor:<aor>`.
    Aor(Sym),
    /// A destination-pinned flood delivery, rendered `dst:<ip-word>`.
    Dst(u32),
}

impl Scope {
    /// The symbol transitions of this scope are tagged with in the
    /// telemetry ring: a forensic tag, never a key, so a destination the
    /// full symbol table has no text for is tagged with the empty symbol.
    fn sym(self) -> Sym {
        match self {
            Scope::Call(sym) | Scope::Aor(sym) => sym,
            Scope::Dst(ip) => ip_sym(ip).unwrap_or(sym::EMPTY),
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Call(id) => f.write_str(id.as_str()),
            Scope::Aor(aor) => write!(f, "aor:{aor}"),
            Scope::Dst(ip) => write!(f, "dst:{ip}"),
        }
    }
}

/// What an alert is about: the first half of a dedup key. The rule is the
/// one the alert log has always followed — an alert is keyed by its
/// Call-ID when it has one and by its detail text otherwise, together with
/// its label — but held as the structure the text would be rendered from,
/// so asking "already raised?" formats nothing.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Subject {
    /// A machine scope (detail `scope <scope>`, or the Call-ID itself).
    Scope(Scope),
    /// Media coordinates no call negotiated (`unassociated-rtp`).
    Media { ip: Sym, port: u64 },
    /// A static parser diagnosis (`malformed-*`).
    Reason(&'static str),
    /// A deviating event rendered on a scope that is not a call: free text
    /// with no structure to key on. Cold — no shipped machine reaches it.
    Text(String),
}

/// An alert label before it is text: the second half of a dedup key.
/// `Display` renders exactly the label the alert carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Label {
    /// A machine's attack-state label, interned when its definition was
    /// built.
    Attack(Sym),
    /// `deviation:<event>`.
    Deviation(Sym),
    /// `nondeterministic-machine`.
    Nondeterminism,
    /// `unassociated-request:<event>`.
    UnassociatedRequest(Sym),
    /// `unassociated-rtp`.
    UnassociatedRtp,
    /// `malformed-<protocol, lower case>`.
    Malformed(&'static str),
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Attack(label) => f.write_str(label.as_str()),
            Label::Deviation(event) => write!(f, "deviation:{event}"),
            Label::Nondeterminism => f.write_str("nondeterministic-machine"),
            Label::UnassociatedRequest(event) => write!(f, "unassociated-request:{event}"),
            Label::UnassociatedRtp => f.write_str("unassociated-rtp"),
            Label::Malformed(protocol) => {
                write!(f, "malformed-{}", protocol.to_ascii_lowercase())
            }
        }
    }
}

/// Something the engine found, before it is known to be new. The key
/// halves are values; the text is borrowed and rendered only once the
/// dedup set has said this is a first sight.
struct Finding<'a> {
    subject: Subject,
    label: Label,
    time_ms: u64,
    kind: AlertKind,
    call_id: Option<Sym>,
    machine: &'a str,
    detail: &'a dyn fmt::Display,
}

/// The engine's telemetry attachment: one shard slab plus a transition
/// ring. Recording is relaxed-atomic (slab) or overwrite-in-place (ring),
/// so the warm packet path stays allocation-free with telemetry on.
pub(crate) struct Telemetry {
    /// Metric slot block shared with the owning [`Registry`].
    slab: Arc<ShardSlab>,
    /// Recent transitions, tagged by scope for alert forensics.
    ring: TransitionRing,
    /// Present only when this engine owns its registry (standalone use);
    /// pool shards record into slabs owned by the pool's registry.
    registry: Option<Arc<Registry>>,
}

/// Observer wired into the EFSM network for one ingest: counts transitions
/// on the slab and pushes scope-tagged records into the ring. Holding the
/// `Option` (rather than requiring telemetry) keeps the telemetry-off path
/// a single branch.
struct RingObserver<'a> {
    tel: Option<&'a mut Telemetry>,
    scope: Sym,
}

impl TransitionObserver for RingObserver<'_> {
    #[inline]
    fn on_transition(
        &mut self,
        time_ms: u64,
        machine: Sym,
        event: Sym,
        from: Sym,
        to: Sym,
        label: Option<Sym>,
    ) {
        if let Some(tel) = self.tel.as_deref_mut() {
            tel.slab.inc(Counter::Transitions);
            tel.ring.push(TransitionRecord {
                time_ms,
                scope: self.scope,
                machine,
                event,
                from,
                to,
                label,
            });
        }
    }
}

/// The vids intrusion detection system. Feed it every packet crossing the
/// monitoring point via [`Vids::process`]; read the persistent alert
/// log back with [`Vids::alerts`].
pub struct Vids {
    config: Config,
    cost: CostModel,
    factbase: FactBase,
    alerts: Vec<Alert>,
    dedup: HashSet<(Subject, Label)>,
    counters: VidsCounters,
    cpu: CpuAccount,
    last_sweep_ms: u64,
    telemetry: Option<Telemetry>,
}

impl Vids {
    /// Creates a monitor with the default cost model.
    pub fn new(config: Config) -> Self {
        Vids::with_cost(config, CostModel::default())
    }

    /// Creates a monitor with an explicit cost model.
    pub fn with_cost(config: Config, cost: CostModel) -> Self {
        Vids {
            factbase: FactBase::new(config),
            config,
            cost,
            alerts: Vec::new(),
            dedup: HashSet::new(),
            counters: VidsCounters::default(),
            cpu: CpuAccount::new(),
            last_sweep_ms: 0,
            telemetry: None,
        }
    }

    /// Enables telemetry on this standalone engine: allocates a one-shard
    /// [`Registry`] plus a transition ring of `ring_capacity` records and
    /// returns the registry for snapshotting. All storage is allocated
    /// here, up front; subsequent recording is allocation-free.
    pub fn enable_telemetry(&mut self, ring_capacity: usize) -> Arc<Registry> {
        let registry = Arc::new(Registry::new(1));
        self.telemetry = Some(Telemetry {
            slab: registry.shard_slab(0),
            ring: TransitionRing::new(ring_capacity),
            registry: Some(Arc::clone(&registry)),
        });
        registry
    }

    /// Attaches a pool-owned slab (shard engines record into the pool's
    /// registry; snapshots are taken by the pool, not per shard).
    pub(crate) fn attach_telemetry(&mut self, slab: Arc<ShardSlab>, ring_capacity: usize) {
        self.telemetry = Some(Telemetry {
            slab,
            ring: TransitionRing::new(ring_capacity),
            registry: None,
        });
    }

    /// Refreshes the gauges (live calls, memory) on this engine's slab.
    pub(crate) fn refresh_telemetry_gauges(&self) {
        if let Some(tel) = &self.telemetry {
            tel.slab
                .set_gauge(Gauge::LiveCalls, self.factbase.call_count() as u64);
            tel.slab
                .set_gauge(Gauge::MemoryBytes, self.factbase.memory_bytes() as u64);
        }
    }

    /// A snapshot of this engine's registry at engine time `now`, when
    /// telemetry was enabled via [`Vids::enable_telemetry`]. Engines inside
    /// a pool return `None`; snapshot through the pool instead.
    pub fn telemetry_snapshot(&self, now: SimTime) -> Option<Snapshot> {
        let registry = self.telemetry.as_ref()?.registry.as_ref()?;
        self.refresh_telemetry_gauges();
        Some(registry.snapshot(now.as_millis()))
    }

    /// One-branch counter mirror; a no-op with telemetry off.
    #[inline]
    fn tel_inc(&self, c: Counter) {
        if let Some(tel) = &self.telemetry {
            tel.slab.inc(c);
        }
    }

    /// Like [`Vids::tel_inc`] for bulk increments.
    #[inline]
    fn tel_add(&self, c: Counter, n: u64) {
        if let Some(tel) = &self.telemetry {
            tel.slab.add(c, n);
        }
    }

    /// Renders the ring records belonging to `scope`, oldest → newest.
    /// Called only on the suspicious path (an alert is being built), never
    /// for clean warm packets.
    fn render_trace(&self, scope: Sym) -> Vec<String> {
        match &self.telemetry {
            Some(tel) => tel
                .ring
                .iter()
                .filter(|r| r.scope == scope)
                .map(TransitionRecord::render)
                .collect(),
            None => Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The cost model (the inline tap charges holds from it).
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// All alerts raised so far, in order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Traffic counters.
    pub fn counters(&self) -> VidsCounters {
        self.counters
    }

    /// The number of calls currently monitored.
    pub fn monitored_calls(&self) -> usize {
        self.factbase.call_count()
    }

    /// Fact-base lifetime statistics.
    pub fn factbase_stats(&self) -> FactBaseStats {
        self.factbase.stats()
    }

    /// Current fact-base memory footprint (E5).
    pub fn memory_bytes(&self) -> usize {
        self.factbase.memory_bytes()
    }

    /// Direct fact-base access for introspection.
    pub fn factbase(&self) -> &FactBase {
        &self.factbase
    }

    /// Freezes the EFSM state of one monitored call — per-machine states,
    /// locals and call globals — for forensic dumps. `None` when the call
    /// is not (or no longer) monitored.
    pub fn call_snapshot(&self, call_id: &str) -> Option<crate::snapshot::CallSnapshot> {
        let record = self.factbase.call(call_id)?;
        Some(crate::snapshot::CallSnapshot::of_network(
            call_id,
            &record.network,
        ))
    }

    /// CPU busy time accumulated by the cost model.
    pub fn cpu_busy(&self) -> SimTime {
        self.cpu.busy()
    }

    /// CPU overhead fraction over an elapsed monitoring interval (§7.3).
    pub fn cpu_overhead(&self, elapsed: SimTime) -> f64 {
        self.cpu.overhead_fraction(elapsed)
    }

    /// Processes one packet at monitor time `now`, pushing any alerts it
    /// raises into `sink` (they are also appended to the persistent log).
    pub fn process<S: AlertSink + ?Sized>(&mut self, packet: &Packet, now: SimTime, sink: &mut S) {
        let now_ms = now.as_millis();
        self.cpu.charge(self.cost.cpu_for(packet));
        self.maintain(now_ms, sink);
        self.dispatch(classify(packet), now_ms, sink);
    }

    /// Advances idle timers and evicts finished calls, pushing timer-driven
    /// alerts into `sink`. Called automatically from the packet path every
    /// `SWEEP_INTERVAL_MS`; call explicitly to flush at the end of a run.
    pub fn tick<S: AlertSink + ?Sized>(&mut self, now: SimTime, sink: &mut S) {
        self.last_sweep_ms = 0; // force
        self.maintain(now.as_millis(), sink);
    }

    /// Routes one classified packet through the machinery. The pool calls
    /// the finer-grained `ingest_*` parts directly instead.
    fn dispatch<S: AlertSink + ?Sized>(
        &mut self,
        classified: Classified,
        now_ms: u64,
        sink: &mut S,
    ) {
        match classified {
            Classified::Sip {
                call_id,
                event,
                is_initial_invite,
                is_request,
                dst_ip,
            } => {
                if event.name == sym::SIP_REGISTER {
                    self.ingest_register(event, now_ms, sink);
                    return;
                }
                if event.name == sym::SIP_INVITE {
                    self.ingest_invite_flood(dst_ip, now_ms, sink);
                }
                if let Some(miss) = self.ingest_call_event(
                    call_id,
                    event,
                    is_initial_invite,
                    is_request,
                    now_ms,
                    sink,
                ) {
                    self.ingest_response_flood(dst_ip, miss.src_ip, now_ms, sink);
                }
            }
            Classified::Rtp { event } => self.ingest_rtp(event, now_ms, sink),
            Classified::Malformed { protocol, reason } => {
                self.ingest_malformed(protocol, reason, now_ms, sink)
            }
            Classified::Ignored => {
                self.counters.ignored += 1;
                self.tel_inc(Counter::Ignored);
            }
        }
    }

    /// REGISTER traffic crossing the perimeter, tracked per address-of-record
    /// by the registration machine (extension: the unregister /
    /// registration-hijack attack).
    pub(crate) fn ingest_register<S: AlertSink + ?Sized>(
        &mut self,
        event: Event,
        now_ms: u64,
        sink: &mut S,
    ) {
        self.counters.sip_packets += 1;
        self.tel_inc(Counter::SipPackets);
        let aor = event.sym_arg(sym::AOR).unwrap_or_default();
        let mut obs = RingObserver {
            tel: self.telemetry.as_mut(),
            scope: aor,
        };
        let net = self.factbase.registration_mut(aor);
        net.advance_time_observed(now_ms, &mut obs);
        let outcome = net.deliver_observed(event, now_ms, &mut obs);
        self.absorb(outcome, Scope::Aor(aor), now_ms, sink);
    }

    /// Fig. 4: every INVITE also feeds the per-destination flooding
    /// detector, attack or not. This is the destination-pinned part of an
    /// INVITE; [`Vids::ingest_call_event`] is the call-pinned part. The
    /// window counter reads no argument of the INVITE — it counts arrivals
    /// per destination — so this part takes the destination and the time,
    /// not the event.
    pub(crate) fn ingest_invite_flood<S: AlertSink + ?Sized>(
        &mut self,
        dst_ip: u32,
        now_ms: u64,
        sink: &mut S,
    ) {
        let scope = Scope::Dst(dst_ip);
        let mut obs = RingObserver {
            tel: self.telemetry.as_mut(),
            scope: scope.sym(),
        };
        let net = self.factbase.invite_flood_mut(dst_ip);
        net.advance_time_observed(now_ms, &mut obs);
        let outcome = net.deliver_observed(Event::data(sym::SIP_INVITE), now_ms, &mut obs);
        self.absorb(outcome, scope, now_ms, sink);
    }

    /// The call-pinned part of a non-REGISTER SIP packet: delivery to the
    /// per-call SIP machine, the unassociated-request deviation, or — for a
    /// response matching no monitored call — a [`ResponseMiss`] the caller
    /// must feed to the destination's DRDoS reflection detector.
    pub(crate) fn ingest_call_event<S: AlertSink + ?Sized>(
        &mut self,
        call_id: Sym,
        event: Event,
        is_initial_invite: bool,
        is_request: bool,
        now_ms: u64,
        sink: &mut S,
    ) -> Option<ResponseMiss> {
        self.counters.sip_packets += 1;
        self.tel_inc(Counter::SipPackets);
        let known = self.factbase.call_idx(call_id);
        // Per-engine state budget: at quota, new dialogs are refused (and
        // counted) while packets for already-tracked calls keep flowing.
        // The INVITE still feeds the destination's flood detector, which
        // runs before this call-pinned part.
        if known.is_none()
            && is_initial_invite
            && self.config.max_tracked_calls > 0
            && self.factbase.call_count() >= self.config.max_tracked_calls
        {
            self.tel_inc(Counter::CallQuotaDrops);
            return None;
        }
        if known.is_some() || is_initial_invite {
            let idx = match known {
                Some(idx) => idx,
                None => {
                    self.tel_inc(Counter::CallsCreated);
                    self.factbase.create_call_idx(call_id, now_ms)
                }
            };
            let sip = self.factbase.sip_machine();
            let mut obs = RingObserver {
                tel: self.telemetry.as_mut(),
                scope: call_id,
            };
            let record = self.factbase.record_mut(idx);
            // Cached deadline: scan the timer maps only when something is
            // actually due, not on every packet.
            let mut outcome = if record.next_timer_ms <= now_ms {
                record.network.advance_time_observed(now_ms, &mut obs)
            } else {
                NetworkOutcome::default()
            };
            outcome.merge(
                record
                    .network
                    .deliver_observed(sip, event, now_ms, &mut obs),
            );
            self.factbase.refresh_media_index_idx(idx);
            // The delivery may have armed/fired timers or changed finality:
            // re-file the call under its next wake deadline.
            self.factbase.reindex_idx(idx);
            self.absorb(outcome, Scope::Call(call_id), now_ms, sink);
        } else if is_request {
            // A non-dialog-forming request for an unknown call:
            // a specification anomaly worth an alert.
            self.counters.unassociated_sip_requests += 1;
            self.tel_inc(Counter::UnassociatedSipRequests);
            self.raise(
                Finding {
                    subject: Subject::Scope(Scope::Call(call_id)),
                    label: Label::UnassociatedRequest(event.name),
                    time_ms: now_ms,
                    kind: AlertKind::Deviation,
                    call_id: Some(call_id),
                    machine: "engine",
                    detail: &format_args!("request for unmonitored call {call_id}"),
                },
                |vids| vids.render_trace(call_id),
                sink,
            );
        } else {
            // A response matching no monitored call: DRDoS reflection
            // evidence, counted against its destination.
            self.counters.unassociated_sip_responses += 1;
            self.tel_inc(Counter::UnassociatedSipResponses);
            return Some(ResponseMiss {
                src_ip: event.sym_arg(sym::SRC_IP).unwrap_or_default(),
            });
        }
        None
    }

    /// Delivers one unassociated-response observation to the destination's
    /// response-flood machine.
    pub(crate) fn ingest_response_flood<S: AlertSink + ?Sized>(
        &mut self,
        dst_ip: u32,
        src_ip: Sym,
        now_ms: u64,
        sink: &mut S,
    ) {
        let scope = Scope::Dst(dst_ip);
        let mut obs = RingObserver {
            tel: self.telemetry.as_mut(),
            scope: scope.sym(),
        };
        let net = self.factbase.response_flood_mut(dst_ip);
        net.advance_time_observed(now_ms, &mut obs);
        let synthetic = Event::data(sym::SIP_RESPONSE_UNASSOCIATED).with_sym(sym::SRC_IP, src_ip);
        let outcome = net.deliver_observed(synthetic, now_ms, &mut obs);
        self.absorb(outcome, scope, now_ms, sink);
    }

    /// An RTP packet: grouped with its call via the media index published
    /// by the SIP machine, or flagged as unassociated.
    pub(crate) fn ingest_rtp<S: AlertSink + ?Sized>(
        &mut self,
        event: Event,
        now_ms: u64,
        sink: &mut S,
    ) {
        self.counters.rtp_packets += 1;
        self.tel_inc(Counter::RtpPackets);
        let dst_ip = event.sym_arg(sym::DST_IP).unwrap_or_default();
        let dst_port = event.uint_arg(sym::DST_PORT).unwrap_or(0);
        match self.factbase.media_lookup_idx(dst_ip, dst_port) {
            Some(idx) => {
                let call_id = self.factbase.id_of(idx);
                let rtp = self.factbase.rtp_machine();
                let mut obs = RingObserver {
                    tel: self.telemetry.as_mut(),
                    scope: call_id,
                };
                let record = self.factbase.record_mut(idx);
                // Cached deadline: scan the timer maps only when something
                // is actually due, not on every packet.
                let mut outcome = if record.next_timer_ms <= now_ms {
                    record.network.advance_time_observed(now_ms, &mut obs)
                } else {
                    NetworkOutcome::default()
                };
                outcome.merge(
                    record
                        .network
                        .deliver_observed(rtp, event, now_ms, &mut obs),
                );
                // Warm RTP packets take the active→active self-loop, which
                // re-arms nothing — this reindex is then a no-op compare,
                // keeping the warm path allocation-free.
                self.factbase.reindex_idx(idx);
                self.absorb(outcome, Scope::Call(call_id), now_ms, sink);
            }
            None => {
                self.counters.unassociated_rtp += 1;
                self.tel_inc(Counter::UnassociatedRtp);
                self.raise(
                    Finding {
                        subject: Subject::Media {
                            ip: dst_ip,
                            port: dst_port,
                        },
                        label: Label::UnassociatedRtp,
                        time_ms: now_ms,
                        kind: AlertKind::Deviation,
                        call_id: None,
                        machine: "engine",
                        detail: &format_args!("RTP to {dst_ip}:{dst_port} outside any session"),
                    },
                    |_| Vec::new(),
                    sink,
                );
            }
        }
    }

    /// An unparseable SIP/RTP datagram.
    pub(crate) fn ingest_malformed<S: AlertSink + ?Sized>(
        &mut self,
        protocol: &'static str,
        reason: &'static str,
        now_ms: u64,
        sink: &mut S,
    ) {
        self.counters.malformed += 1;
        self.tel_inc(Counter::Malformed);
        self.raise(
            Finding {
                subject: Subject::Reason(reason),
                label: Label::Malformed(protocol),
                time_ms: now_ms,
                kind: AlertKind::Deviation,
                call_id: None,
                machine: "classifier",
                detail: &reason,
            },
            |_| Vec::new(),
            sink,
        );
    }

    /// Forced sweep regardless of the interval gate; the pool applies its
    /// own batch-level gating and then calls this on every shard.
    pub(crate) fn force_maintain<S: AlertSink + ?Sized>(&mut self, now_ms: u64, sink: &mut S) {
        self.last_sweep_ms = now_ms;
        self.sweep_calls(now_ms, sink);
    }

    fn maintain<S: AlertSink + ?Sized>(&mut self, now_ms: u64, sink: &mut S) {
        if now_ms.saturating_sub(self.last_sweep_ms) < SWEEP_INTERVAL_MS {
            return;
        }
        self.last_sweep_ms = now_ms;
        // Pool shards are swept through `force_maintain`, where the pool
        // counts one batch-level sweep on its own slab; counting here would
        // make the total vary with shard count.
        self.tel_inc(Counter::TimerSweeps);
        self.sweep_calls(now_ms, sink);
    }

    fn sweep_calls<S: AlertSink + ?Sized>(&mut self, now_ms: u64, sink: &mut S) {
        // Only calls whose wake deadline fell due are visited: an armed
        // timer, a freshly-final network awaiting its eviction stamp, or a
        // grace period running out. A call with none of those would take no
        // transitions under `advance_time_observed` anyway, so skipping it
        // is alert-identical to the old full scan — at O(expiring) instead
        // of O(live calls · log). `due_calls` returns text order, keeping
        // sweep output independent of interning/hash order so single-engine
        // runs stay comparable with sharded ones.
        let due = self.factbase.due_calls(now_ms);
        for &idx in &due {
            let id = self.factbase.id_of(idx);
            let mut obs = RingObserver {
                tel: self.telemetry.as_mut(),
                scope: id,
            };
            let record = self.factbase.record_mut(idx);
            let outcome = record.network.advance_time_observed(now_ms, &mut obs);
            if outcome.transitions > 0 || outcome.is_suspicious() {
                self.absorb(outcome, Scope::Call(id), now_ms, sink);
            }
        }
        let evicted = self.factbase.sweep_due(&due, now_ms);
        self.tel_add(Counter::CallsEvicted, evicted.len() as u64);
    }

    /// Converts a network outcome into deduplicated alerts.
    fn absorb<S: AlertSink + ?Sized>(
        &mut self,
        outcome: NetworkOutcome,
        scope: Scope,
        now_ms: u64,
        sink: &mut S,
    ) {
        self.tel_add(Counter::SyncDeliveries, outcome.sync_deliveries as u64);
        if !outcome.is_suspicious() && !outcome.nondeterministic {
            return; // the common clean path
        }
        let call_id = match scope {
            Scope::Call(id) => Some(id),
            Scope::Aor(_) | Scope::Dst(_) => None,
        };
        // The scope's transition history out of the telemetry ring, for
        // alert forensics: rendered at most once, for the first alert of
        // this outcome that turns out to be new (the ring does not move
        // while they are raised).
        let mut history: Option<Vec<String>> = None;
        let mut trace = |vids: &Self| {
            history
                .get_or_insert_with(|| vids.render_trace(scope.sym()))
                .clone()
        };
        for a in outcome.alerts {
            self.raise(
                Finding {
                    subject: Subject::Scope(scope),
                    label: Label::Attack(a.label),
                    time_ms: a.time_ms, // keep machine time
                    kind: AlertKind::Attack,
                    call_id,
                    machine: a.machine.as_str(),
                    detail: &format_args!("scope {scope}"),
                },
                &mut trace,
                sink,
            );
        }
        for d in outcome.deviations {
            // Keyed by Call-ID when there is one; a call-less scope falls
            // back to its detail, the rendered event.
            let subject = match call_id {
                Some(_) => Subject::Scope(scope),
                None => Subject::Text(d.event.to_string()),
            };
            self.raise(
                Finding {
                    subject,
                    label: Label::Deviation(d.event.name),
                    time_ms: d.time_ms,
                    kind: AlertKind::Deviation,
                    call_id,
                    machine: d.machine.as_str(),
                    detail: &d.event,
                },
                &mut trace,
                sink,
            );
        }
        if outcome.nondeterministic {
            self.raise(
                Finding {
                    subject: Subject::Scope(scope),
                    label: Label::Nondeterminism,
                    time_ms: now_ms,
                    kind: AlertKind::Nondeterminism,
                    call_id,
                    machine: "engine",
                    detail: &format_args!("scope {scope}"),
                },
                &mut trace,
                sink,
            );
        }
    }

    /// Raises an alert unless the same `(subject, label)` was raised
    /// before. Ask, then format: label, detail, Call-ID and trace are built
    /// only after the dedup set has said the finding is new, so a repeated
    /// detection — the 120 000th INVITE of a flood re-entering
    /// `FLOOD_DETECTED` — costs one hash probe. The set is probed before it
    /// is inserted into because `HashSet::insert` may grow the table before
    /// it looks, and a repeat must never reach the allocator.
    fn raise<S: AlertSink + ?Sized>(
        &mut self,
        finding: Finding<'_>,
        trace: impl FnOnce(&Self) -> Vec<String>,
        sink: &mut S,
    ) {
        let key = (finding.subject, finding.label);
        if self.dedup.contains(&key) {
            return;
        }
        self.dedup.insert(key);
        self.tel_inc(match finding.kind {
            AlertKind::Attack => Counter::AlertsAttack,
            AlertKind::Deviation => Counter::AlertsDeviation,
            AlertKind::Nondeterminism => Counter::AlertsNondeterminism,
        });
        let alert = Alert {
            time_ms: finding.time_ms,
            kind: finding.kind,
            label: finding.label.to_string(),
            call_id: finding.call_id.map(String::from),
            machine: finding.machine.to_owned(),
            detail: finding.detail.to_string(),
            trace: trace(self),
        };
        self.alerts.push(alert.clone());
        sink.accept(alert);
    }
}

impl Monitor for Vids {
    fn process(&mut self, packet: &Packet, now: SimTime, sink: &mut dyn AlertSink) {
        self.process(packet, now, sink);
    }

    fn tick(&mut self, now: SimTime, sink: &mut dyn AlertSink) {
        self.tick(now, sink);
    }

    fn alerts(&self) -> &[Alert] {
        Vids::alerts(self)
    }

    fn counters(&self) -> VidsCounters {
        Vids::counters(self)
    }

    fn memory_bytes(&self) -> usize {
        Vids::memory_bytes(self)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::alert::labels;
    use crate::sink::{CollectSink, NullSink};
    use vids_netsim::packet::{Address, Payload};
    use vids_rtp::packet::RtpPacket;
    use vids_sdp::{Codec, SessionDescription};
    use vids_sip::message::Request;
    use vids_sip::{Method, SipUri, StatusCode};

    const CALLER: Address = Address::new(10, 1, 0, 10, 5060);
    const CALLEE: Address = Address::new(10, 2, 0, 10, 5060);

    /// Sink-API driver used throughout: collects what one packet raised.
    fn process(vids: &mut Vids, packet: &Packet, now: SimTime) -> Vec<Alert> {
        let mut sink = CollectSink::new();
        vids.process(packet, now, &mut sink);
        sink.into_alerts()
    }

    fn pkt(src: Address, dst: Address, payload: Payload) -> Packet {
        Packet {
            src,
            dst,
            payload,
            id: 0,
            sent_at: SimTime::ZERO,
        }
    }

    fn invite(call_id: &str) -> Request {
        let sdp = SessionDescription::audio_offer("alice", "10.1.0.10", 20_000, &[Codec::G729]);
        Request::invite(
            &SipUri::new("alice", "a.example.com"),
            &SipUri::new("bob", "b.example.com"),
            call_id,
        )
        .with_body(vids_sdp::MIME_TYPE, sdp.to_string())
    }

    /// Drives a full clean call through the engine.
    fn clean_call(vids: &mut Vids, call_id: &str) {
        let inv = invite(call_id);
        process(
            vids,
            &pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())),
            SimTime::from_millis(0),
        );
        let ringing = inv.response(StatusCode::RINGING).with_to_tag("tt");
        process(
            vids,
            &pkt(CALLEE, CALLER, Payload::Sip(ringing.to_string())),
            SimTime::from_millis(60),
        );
        let answer = SessionDescription::audio_offer("bob", "10.2.0.10", 30_000, &[Codec::G729]);
        let ok = inv
            .response(StatusCode::OK)
            .with_to_tag("tt")
            .with_body(vids_sdp::MIME_TYPE, answer.to_string());
        process(
            vids,
            &pkt(CALLEE, CALLER, Payload::Sip(ok.to_string())),
            SimTime::from_millis(120),
        );
        let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
        process(
            vids,
            &pkt(CALLER, CALLEE, Payload::Sip(ack.to_string())),
            SimTime::from_millis(180),
        );
        // A little media both ways.
        for i in 0..20u16 {
            let fwd = RtpPacket::new(18, 100 + i, (i as u32) * 80, 7).with_payload(vec![0; 10]);
            process(
                vids,
                &pkt(
                    CALLER.with_port(20_000),
                    CALLEE.with_port(30_000),
                    Payload::Rtp(fwd.to_bytes()),
                ),
                SimTime::from_millis(200 + i as u64 * 10),
            );
            let rev = RtpPacket::new(18, 500 + i, (i as u32) * 80, 9).with_payload(vec![0; 10]);
            process(
                vids,
                &pkt(
                    CALLEE.with_port(30_000),
                    CALLER.with_port(20_000),
                    Payload::Rtp(rev.to_bytes()),
                ),
                SimTime::from_millis(205 + i as u64 * 10),
            );
        }
        let bye = Request::in_dialog(Method::Bye, &inv, 2, Some("tt"));
        process(
            vids,
            &pkt(CALLER, CALLEE, Payload::Sip(bye.to_string())),
            SimTime::from_millis(500),
        );
        let bye_ok = bye.response(StatusCode::OK);
        process(
            vids,
            &pkt(CALLEE, CALLER, Payload::Sip(bye_ok.to_string())),
            SimTime::from_millis(560),
        );
    }

    #[test]
    fn clean_call_raises_no_alerts_and_gets_evicted() {
        let mut vids = Vids::new(Config::default());
        clean_call(&mut vids, "clean-1");
        assert!(vids.alerts().is_empty(), "alerts: {:?}", vids.alerts());
        assert_eq!(vids.monitored_calls(), 1);
        // Flush timers: the first tick marks the call final, the second
        // (past the eviction grace period) removes it.
        vids.tick(SimTime::from_secs(30), &mut NullSink);
        vids.tick(SimTime::from_secs(40), &mut NullSink);
        assert_eq!(vids.monitored_calls(), 0);
        assert_eq!(vids.factbase_stats().calls_evicted, 1);
        let c = vids.counters();
        assert_eq!(c.sip_packets, 6);
        assert_eq!(c.rtp_packets, 40);
        assert_eq!(c.malformed, 0);
        assert_eq!(c.unassociated_rtp, 0);
    }

    #[test]
    fn invite_flood_is_detected_across_calls() {
        let mut vids = Vids::new(Config::default());
        let n = vids.config().invite_flood_n;
        let mut raised = Vec::new();
        for i in 0..=n {
            let inv = invite(&format!("flood-{i}"));
            raised.extend(process(
                &mut vids,
                &pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())),
                SimTime::from_millis(i * 5),
            ));
        }
        assert!(
            raised.iter().any(|a| a.label == labels::INVITE_FLOOD),
            "alerts: {raised:?}"
        );
    }

    #[test]
    fn call_quota_refuses_new_dialogs_but_keeps_tracked_ones() {
        let mut cfg = Config::default();
        cfg.max_tracked_calls = 2;
        let mut vids = Vids::new(cfg);
        vids.enable_telemetry(16);
        let invites: Vec<_> = (0..4).map(|i| invite(&format!("quota-{i}"))).collect();
        for (i, inv) in invites.iter().enumerate() {
            process(
                &mut vids,
                &pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())),
                SimTime::from_millis(i as u64 * 2_000),
            );
        }
        assert_eq!(vids.monitored_calls(), 2, "quota caps tracked calls");
        // Packets for an already-tracked call still progress it: the 200 OK
        // answers call 0, which remains monitored.
        let ok = invites[0].response(StatusCode::OK).with_to_tag("tt");
        process(
            &mut vids,
            &pkt(CALLEE, CALLER, Payload::Sip(ok.to_string())),
            SimTime::from_millis(9_000),
        );
        assert_eq!(vids.monitored_calls(), 2);
        let snap = vids
            .telemetry_snapshot(SimTime::from_secs(10))
            .expect("telemetry enabled above");
        assert_eq!(snap.merged().counter(Counter::CallQuotaDrops), 2);
        assert_eq!(snap.merged().counter(Counter::CallsCreated), 2);
    }

    #[test]
    fn paced_invites_do_not_alert() {
        let mut vids = Vids::new(Config::default());
        for i in 0..30u64 {
            let inv = invite(&format!("paced-{i}"));
            let alerts = process(
                &mut vids,
                &pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())),
                SimTime::from_millis(i * 2_000),
            );
            assert!(alerts.is_empty(), "call {i}: {alerts:?}");
        }
    }

    #[test]
    fn rtp_after_bye_detected_through_cross_protocol_sync() {
        let mut vids = Vids::new(Config::default());
        clean_call(&mut vids, "byedos-1");
        // The call tore down at ~500 ms. After T (200 ms) expires, media
        // resumes — the BYE-DoS / billing-fraud signature.
        let spam = RtpPacket::new(18, 200, 9_999, 7).with_payload(vec![0; 10]);
        let alerts = process(
            &mut vids,
            &pkt(
                CALLER.with_port(20_000),
                CALLEE.with_port(30_000),
                Payload::Rtp(spam.to_bytes()),
            ),
            SimTime::from_millis(1_500),
        );
        assert!(
            alerts.iter().any(|a| a.label == labels::RTP_AFTER_BYE),
            "alerts: {alerts:?}"
        );
    }

    #[test]
    fn sync_disabled_ablation_misses_rtp_after_bye() {
        let mut cfg = Config::default();
        cfg.cross_protocol_sync = false;
        let mut vids = Vids::with_cost(cfg, CostModel::free());
        clean_call(&mut vids, "ablate-1");
        let spam = RtpPacket::new(18, 200, 9_999, 7).with_payload(vec![0; 10]);
        let alerts = process(
            &mut vids,
            &pkt(
                CALLER.with_port(20_000),
                CALLEE.with_port(30_000),
                Payload::Rtp(spam.to_bytes()),
            ),
            SimTime::from_millis(1_500),
        );
        assert!(
            !alerts.iter().any(|a| a.label == labels::RTP_AFTER_BYE),
            "without δ sync the RTP machine never armed timer T: {alerts:?}"
        );
    }

    #[test]
    fn media_spam_detected_mid_call() {
        let mut vids = Vids::new(Config::default());
        // Set up a call but don't tear it down: INVITE/200 then media.
        let inv = invite("spam-1");
        process(
            &mut vids,
            &pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())),
            SimTime::ZERO,
        );
        let answer = SessionDescription::audio_offer("bob", "10.2.0.10", 30_000, &[Codec::G729]);
        let ok = inv
            .response(StatusCode::OK)
            .with_to_tag("tt")
            .with_body(vids_sdp::MIME_TYPE, answer.to_string());
        process(
            &mut vids,
            &pkt(CALLEE, CALLER, Payload::Sip(ok.to_string())),
            SimTime::from_millis(50),
        );
        let legit = RtpPacket::new(18, 100, 800, 7).with_payload(vec![0; 10]);
        process(
            &mut vids,
            &pkt(
                CALLER.with_port(20_000),
                CALLEE.with_port(30_000),
                Payload::Rtp(legit.to_bytes()),
            ),
            SimTime::from_millis(100),
        );
        // Spoofed packet: same SSRC, big jumps (paper Fig. 6).
        let spam = RtpPacket::new(18, 100 + 200, 800 + 50_000, 7).with_payload(vec![0; 10]);
        let alerts = process(
            &mut vids,
            &pkt(
                CALLER.with_port(20_000),
                CALLEE.with_port(30_000),
                Payload::Rtp(spam.to_bytes()),
            ),
            SimTime::from_millis(110),
        );
        assert!(alerts.iter().any(|a| a.label == labels::MEDIA_SPAM));
    }

    #[test]
    fn unknown_call_bye_is_flagged() {
        let mut vids = Vids::new(Config::default());
        let inv = invite("ghost");
        let bye = Request::in_dialog(Method::Bye, &inv, 2, Some("tt"));
        let alerts = process(
            &mut vids,
            &pkt(CALLER, CALLEE, Payload::Sip(bye.to_string())),
            SimTime::ZERO,
        );
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::Deviation);
        assert!(alerts[0].label.contains("unassociated-request"));
        assert_eq!(vids.counters().unassociated_sip_requests, 1);
    }

    #[test]
    fn response_flood_triggers_drdos_alert() {
        let mut vids = Vids::new(Config::default());
        let n = vids.config().response_flood_n;
        let inv = invite("never-seen");
        let ok = inv.response(StatusCode::OK);
        let mut raised = Vec::new();
        for i in 0..=n {
            raised.extend(process(
                &mut vids,
                &pkt(CALLEE, CALLER, Payload::Sip(ok.to_string())),
                SimTime::from_millis(i * 5),
            ));
        }
        assert!(
            raised.iter().any(|a| a.label == labels::RESPONSE_FLOOD),
            "alerts: {raised:?}"
        );
        assert!(vids.counters().unassociated_sip_responses > n);
    }

    #[test]
    fn malformed_traffic_is_flagged_once() {
        let mut vids = Vids::new(Config::default());
        let junk = pkt(CALLER, CALLEE, Payload::Sip("garbage".to_owned()));
        let a1 = process(&mut vids, &junk, SimTime::ZERO);
        let a2 = process(&mut vids, &junk, SimTime::from_millis(1));
        assert_eq!(a1.len(), 1);
        assert!(a2.is_empty(), "dedup suppresses repeats");
        assert_eq!(vids.counters().malformed, 2);
    }

    fn register_packet(src: Address, contact_ip: &str, expires: u32) -> Packet {
        use vids_sip::headers::{CSeq as SipCSeq, Header, NameAddr, Via};
        let aor = SipUri::new("roamer", "b.example.com");
        let mut req = vids_sip::Request::new(Method::Register, SipUri::host_only("b.example.com"));
        req.headers
            .push(Header::Via(Via::udp(src.ip_string(), 5060, "z9hG4bK-r1")));
        req.headers
            .push(Header::From(NameAddr::new(aor.clone()).with_tag("rt")));
        req.headers.push(Header::To(NameAddr::new(aor)));
        req.headers.push(Header::CallId("reg-roamer".to_owned()));
        req.headers
            .push(Header::CSeq(SipCSeq::new(1, Method::Register)));
        req.headers.push(Header::Contact(NameAddr::new(SipUri::new(
            "roamer", contact_ip,
        ))));
        req.headers.push(Header::Expires(expires));
        req.headers.push(Header::ContentLength(0));
        pkt(src, CALLEE, Payload::Sip(req.to_string()))
    }

    #[test]
    fn perimeter_register_is_tracked_not_flagged() {
        let mut vids = Vids::new(Config::default());
        let owner = Address::new(10, 0, 0, 20, 5060);
        let alerts = process(
            &mut vids,
            &register_packet(owner, "10.0.0.20", 3600),
            SimTime::ZERO,
        );
        assert!(alerts.is_empty(), "{alerts:?}");
        // Refresh from the same source: still clean.
        let alerts = process(
            &mut vids,
            &register_packet(owner, "10.0.0.20", 3600),
            SimTime::from_secs(60),
        );
        assert!(alerts.is_empty());
        assert_eq!(vids.counters().unassociated_sip_requests, 0);
    }

    #[test]
    fn registration_hijack_from_foreign_source_is_detected() {
        let mut vids = Vids::new(Config::default());
        let owner = Address::new(10, 0, 0, 20, 5060);
        let attacker = Address::new(10, 0, 0, 66, 5060);
        process(
            &mut vids,
            &register_packet(owner, "10.0.0.20", 3600),
            SimTime::ZERO,
        );
        let alerts = process(
            &mut vids,
            &register_packet(attacker, "10.0.0.66", 3600),
            SimTime::from_secs(10),
        );
        assert!(
            alerts
                .iter()
                .any(|a| a.label == labels::REGISTRATION_HIJACK),
            "{alerts:?}"
        );
    }

    #[test]
    fn foreign_unregister_is_detected() {
        let mut vids = Vids::new(Config::default());
        let owner = Address::new(10, 0, 0, 20, 5060);
        let attacker = Address::new(10, 0, 0, 66, 5060);
        process(
            &mut vids,
            &register_packet(owner, "10.0.0.20", 3600),
            SimTime::ZERO,
        );
        let alerts = process(
            &mut vids,
            &register_packet(attacker, "10.0.0.20", 0),
            SimTime::from_secs(10),
        );
        assert!(
            alerts
                .iter()
                .any(|a| a.label == labels::REGISTRATION_HIJACK),
            "{alerts:?}"
        );
    }

    #[test]
    fn memory_is_accounted_per_call() {
        let mut vids = Vids::new(Config::default());
        let empty = vids.memory_bytes();
        for i in 0..50 {
            let inv = invite(&format!("mem-{i}"));
            process(
                &mut vids,
                &pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())),
                SimTime::from_millis(i * 2_000),
            );
        }
        let full = vids.memory_bytes();
        assert_eq!(vids.monitored_calls(), 50);
        let per_call = (full - empty) / 50;
        assert!((100..4_000).contains(&per_call), "per-call {per_call} B");
    }

    #[test]
    fn sink_receives_what_the_persistent_log_records() {
        let mut vids = Vids::new(Config::default());
        let junk = pkt(CALLER, CALLEE, Payload::Sip("garbage".to_owned()));
        let alerts = process(&mut vids, &junk, SimTime::ZERO);
        assert_eq!(alerts.len(), 1);
        assert_eq!(vids.alerts().len(), 1);
        assert_eq!(alerts[0].label, vids.alerts()[0].label);
    }

    #[test]
    fn telemetry_mirrors_counters_and_alerts_carry_traces() {
        let mut vids = Vids::new(Config::default());
        let registry = vids.enable_telemetry(64);
        clean_call(&mut vids, "tel-1");
        // RTP after the BYE: the cross-protocol attack signature.
        let spam = RtpPacket::new(18, 200, 9_999, 7).with_payload(vec![0; 10]);
        let alerts = process(
            &mut vids,
            &pkt(
                CALLER.with_port(20_000),
                CALLEE.with_port(30_000),
                Payload::Rtp(spam.to_bytes()),
            ),
            SimTime::from_millis(1_500),
        );
        let attack = alerts
            .iter()
            .find(|a| a.label == labels::RTP_AFTER_BYE)
            .expect("attack detected");
        assert!(
            !attack.trace.is_empty(),
            "alert should carry its call's transition history"
        );
        assert!(
            attack.trace.iter().all(|line| line.starts_with("t=")),
            "trace lines are rendered records: {:?}",
            attack.trace
        );

        let snap = vids
            .telemetry_snapshot(SimTime::from_millis(1_500))
            .expect("standalone engine owns its registry");
        let m = snap.merged();
        let c = vids.counters();
        assert_eq!(m.counter(Counter::SipPackets), c.sip_packets);
        assert_eq!(m.counter(Counter::RtpPackets), c.rtp_packets);
        assert!(m.counter(Counter::Transitions) > 0);
        assert!(
            m.counter(Counter::SyncDeliveries) > 0,
            "δ sync events flow in a clean call"
        );
        assert_eq!(m.counter(Counter::CallsCreated), 1);
        assert_eq!(m.counter(Counter::AlertsAttack), 1);
        assert_eq!(m.gauge(vids_telemetry::Gauge::LiveCalls), 1);
        assert!(m.gauge(vids_telemetry::Gauge::MemoryBytes) > 0);
        // Same registry handle sees the same totals.
        assert_eq!(
            registry.shard(0).get(Counter::Transitions),
            m.counter(Counter::Transitions)
        );
    }

    #[test]
    fn telemetry_off_engine_emits_empty_traces() {
        let mut vids = Vids::new(Config::default());
        let junk = pkt(CALLER, CALLEE, Payload::Sip("garbage".to_owned()));
        let alerts = process(&mut vids, &junk, SimTime::ZERO);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].trace.is_empty());
        assert!(vids.telemetry_snapshot(SimTime::ZERO).is_none());
    }

    #[test]
    fn monitor_trait_drives_the_engine() {
        let mut vids = Vids::new(Config::default());
        let monitor: &mut dyn Monitor = &mut vids;
        let mut sink = CollectSink::new();
        let junk = pkt(CALLER, CALLEE, Payload::Sip("garbage".to_owned()));
        monitor.process(&junk, SimTime::ZERO, &mut sink);
        monitor.tick(SimTime::from_secs(1), &mut sink);
        assert_eq!(sink.len(), 1);
        assert_eq!(monitor.alerts().len(), 1);
        assert_eq!(monitor.counters().malformed, 1);
        assert!(monitor.memory_bytes() < 1_000);
    }
}
