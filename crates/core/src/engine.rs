//! The Analysis Engine (Fig. 3): feeds classified events to the right
//! machines, collects attack-state entries and specification deviations,
//! and raises [`Alert`]s.
//!
//! Alerts flow through the push-based [`AlertSink`] API ([`Vids::process`]).
//! The packet path is decomposed into `ingest_*` parts so the
//! sharded [`crate::pool::VidsPool`] can route each part of a packet (per-call
//! machine, per-destination flood machine) to a different shard while reusing
//! exactly this engine's semantics.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

use vids_efsm::network::NetworkOutcome;
use vids_efsm::{sym, Event, Sym, TransitionObserver};
use vids_netsim::packet::Packet;
use vids_netsim::time::SimTime;
use vids_telemetry::{
    Counter, Gauge, Registry, ShardSlab, Snapshot, TransitionRecord, TransitionRing,
};

use crate::alert::{malformed_label, program_text, Alert, AlertKind, Detail};
use crate::classify::{classify, Classified};
use crate::config::Config;
use crate::cost::{CostModel, CpuAccount};
use crate::factbase::{FactBase, FactBaseStats};
use crate::machines::{MediaKey, RtpArgs, SipArgs};
use crate::sink::AlertSink;

/// Traffic counters the engine keeps beside the alerts it raises: a
/// read-out of the engines' telemetry slabs, which are the one store.
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

impl VidsCounters {
    /// The counts `slabs` hold between them.
    pub(crate) fn sum<'a>(slabs: impl Iterator<Item = &'a ShardSlab> + Clone) -> Self {
        let sum = |c: Counter| slabs.clone().map(|s| s.get(c)).sum();
        VidsCounters {
            sip_packets: sum(Counter::SipPackets),
            rtp_packets: sum(Counter::RtpPackets),
            malformed: sum(Counter::Malformed),
            ignored: sum(Counter::Ignored),
            unassociated_rtp: sum(Counter::UnassociatedRtp),
            unassociated_sip_requests: sum(Counter::UnassociatedSipRequests),
            unassociated_sip_responses: sum(Counter::UnassociatedSipResponses),
        }
    }
}

/// How often idle call networks are advanced and finished calls evicted.
pub(crate) const SWEEP_INTERVAL_MS: u64 = 100;

/// A SIP response that matched no monitored call. The pool detects the miss
/// on the call-owning shard and counts it on the destination-owning shard's
/// DRDoS reflection machine.
pub(crate) struct ResponseMiss {
    /// The responder (reflection source).
    pub src_ip: Option<Ipv4Addr>,
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
    /// The key transitions of this scope are tagged with in the telemetry
    /// ring. A call or registration keys on its symbol's id, a destination
    /// on its address word with bit 32 set: the two never collide, and
    /// tagging a flood delivery interns nothing.
    fn key(self) -> u64 {
        match self {
            Scope::Call(sym) | Scope::Aor(sym) => sym.id() as u64,
            Scope::Dst(ip) => (1 << 32) | ip as u64,
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
/// one alerts have always been deduplicated by — an alert is keyed by its
/// Call-ID when it has one and by its detail text otherwise, together with
/// its label — but held as the structure the text would be rendered from,
/// so asking "already raised?" formats nothing.
#[derive(Debug, PartialEq, Eq, Hash)]
enum Subject {
    /// A machine scope (detail `scope <scope>`, or the Call-ID itself).
    Scope(Scope),
    /// Media coordinates no call negotiated (`unassociated-rtp`).
    Media(MediaKey),
    /// A static parser diagnosis (`malformed-*`).
    Reason(&'static str),
    /// A deviating event rendered on a scope that is not a call: free text
    /// with no structure to key on. Cold — no shipped machine reaches it.
    Text(String),
}

/// An alert label before it is text: the second half of a dedup key.
/// [`Label::text`] renders exactly the label the alert carries.
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

impl Label {
    /// The label text. Static for attack states, the fixed deviation kinds
    /// and the built-in protocols; only labels naming an event are built.
    fn text(self) -> Cow<'static, str> {
        match self {
            Label::Attack(label) => program_text(label),
            Label::Deviation(event) => Cow::Owned(format!("deviation:{event}")),
            Label::Nondeterminism => Cow::Borrowed("nondeterministic-machine"),
            Label::UnassociatedRequest(event) => {
                Cow::Owned(format!("unassociated-request:{event}"))
            }
            Label::UnassociatedRtp => Cow::Borrowed("unassociated-rtp"),
            Label::Malformed(protocol) => malformed_label(protocol),
        }
    }
}

/// Something the engine found, before it is known to be new. The key
/// halves are values, and so is the detail: nothing is rendered until the
/// dedup set has said this is a first sight.
struct Finding<'a> {
    subject: Subject,
    label: Label,
    time_ms: u64,
    kind: AlertKind,
    call_id: Option<Sym>,
    /// The machine's name, from its definition or `sym::ENGINE` /
    /// `sym::CLASSIFIER`.
    machine: Sym,
    detail: Said<'a>,
}

/// A finding's detail before the alert exists: what [`Detail`] it becomes
/// once the alert's Call-ID block is there to share.
enum Said<'a> {
    /// `scope <scope>`.
    Scope(Scope),
    /// `request for unmonitored call <the finding's Call-ID>`.
    Unmonitored,
    /// Media coordinates no call negotiated.
    Media(MediaKey),
    /// A parser's diagnosis.
    Reason(&'static str),
    /// A deviating event, rendered.
    Event(&'a Event),
}

/// Observer wired into the EFSM network for one ingest: counts transitions
/// on the slab and, with telemetry on, pushes scope-tagged records into
/// the ring.
struct RingObserver<'a> {
    slab: &'a ShardSlab,
    ring: Option<&'a mut TransitionRing>,
    /// [`Scope::key`] of the delivery.
    scope: u64,
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
        self.slab.add_owned(Counter::Transitions, 1);
        if let Some(ring) = self.ring.as_deref_mut() {
            ring.push(TransitionRecord {
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
/// monitoring point via [`Vids::process`]; every alert it raises goes to
/// the caller's [`AlertSink`], which is the record — the engine keeps no
/// copy.
pub struct Vids {
    config: Config,
    cost: CostModel,
    factbase: FactBase,
    dedup: HashSet<(Subject, Label)>,
    /// Every count this engine keeps. Written by one thread at a time: the
    /// caller, a pool's ring worker, or its coordinator while the ring is
    /// quiesced.
    slab: Arc<ShardSlab>,
    cpu: CpuAccount,
    last_sweep_ms: u64,
    /// What telemetry adds beyond the counts: recent transitions, tagged by
    /// scope for alert forensics and overwritten in place, so the warm
    /// packet path stays allocation-free with telemetry on.
    ring: Option<TransitionRing>,
    /// Present only when this engine owns its registry (standalone use);
    /// pool shards' slabs belong to the pool's registry.
    registry: Option<Arc<Registry>>,
}

impl Vids {
    /// Creates a monitor with the default cost model.
    pub fn new(config: Config) -> Self {
        Vids::with_cost(config, CostModel::default())
    }

    /// Creates a monitor with an explicit cost model.
    pub fn with_cost(config: Config, cost: CostModel) -> Self {
        Vids::counting_into(config, cost, Arc::new(ShardSlab::new()))
    }

    /// An engine that counts into `slab`: a pool hands each engine its
    /// registry's shard slab.
    pub(crate) fn counting_into(config: Config, cost: CostModel, slab: Arc<ShardSlab>) -> Self {
        Vids {
            factbase: FactBase::new(config),
            config,
            cost,
            dedup: HashSet::new(),
            slab,
            cpu: CpuAccount::new(),
            last_sweep_ms: 0,
            ring: None,
            registry: None,
        }
    }

    /// Enables telemetry on this standalone engine: a transition ring of
    /// `ring_capacity` records, and a one-shard [`Registry`] over the
    /// engine's own slab, returned for snapshotting. The counts are kept
    /// with telemetry off too; the ring is what this adds. All storage is
    /// allocated here, up front; subsequent recording is allocation-free.
    pub fn enable_telemetry(&mut self, ring_capacity: usize) -> Arc<Registry> {
        let registry = Arc::new(Registry::over(vec![Arc::clone(&self.slab)]));
        self.enable_ring(ring_capacity);
        self.registry = Some(Arc::clone(&registry));
        registry
    }

    /// Gives a pool's engine its transition ring (its slab is the pool
    /// registry's already; snapshots are taken by the pool, not per shard).
    pub(crate) fn enable_ring(&mut self, ring_capacity: usize) {
        self.ring = Some(TransitionRing::new(ring_capacity));
    }

    /// The slab this engine counts into.
    pub(crate) fn slab(&self) -> &ShardSlab {
        &self.slab
    }

    /// The transition ring's capacity; 0 when telemetry is off.
    pub(crate) fn telemetry_ring(&self) -> usize {
        self.ring.as_ref().map_or(0, TransitionRing::capacity)
    }

    /// Refreshes the gauges (live calls, memory) on this engine's slab.
    pub(crate) fn refresh_telemetry_gauges(&self) {
        self.slab
            .set_gauge(Gauge::LiveCalls, self.factbase.call_count() as u64);
        self.slab
            .set_gauge(Gauge::MemoryBytes, self.factbase.memory_bytes() as u64);
    }

    /// A snapshot of this engine's registry at engine time `now`, when
    /// telemetry was enabled via [`Vids::enable_telemetry`]. Engines inside
    /// a pool return `None`; snapshot through the pool instead.
    pub fn telemetry_snapshot(&self, now: SimTime) -> Option<Snapshot> {
        let registry = self.registry.as_ref()?;
        self.refresh_telemetry_gauges();
        Some(registry.snapshot(now.as_millis()))
    }

    /// Counts one event on the engine's slab.
    #[inline]
    fn count(&self, c: Counter) {
        self.slab.add_owned(c, 1);
    }

    /// Renders the ring records belonging to `scope`, oldest → newest.
    /// Called only on the suspicious path (an alert is being built), never
    /// for clean warm packets.
    fn render_trace(&self, scope: Scope) -> Vec<String> {
        let key = scope.key();
        match &self.ring {
            Some(ring) => ring
                .iter()
                .filter(|r| r.scope == key)
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

    /// Traffic counters, read from the engine's slab.
    pub fn counters(&self) -> VidsCounters {
        VidsCounters::sum(std::iter::once(&*self.slab))
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
    /// raises into `sink`.
    pub fn process<S: AlertSink + ?Sized>(&mut self, packet: &Packet, now: SimTime, sink: &mut S) {
        let now_ms = now.as_millis();
        let classified = classify(packet);
        self.cpu.charge(self.cost.cpu_for_classified(&classified));
        self.maintain(now_ms, sink);
        self.dispatch(classified, now_ms, sink);
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
                let (miss, _) = self.ingest_call_event(
                    call_id,
                    event,
                    is_initial_invite,
                    is_request,
                    now_ms,
                    sink,
                );
                if let Some(miss) = miss {
                    self.ingest_response_flood(dst_ip, miss.src_ip, now_ms, sink);
                }
            }
            Classified::Rtp { event } => {
                if let Some(media) = self.ingest_rtp(event, now_ms, sink) {
                    self.raise_unassociated_rtp(media, now_ms, sink);
                }
            }
            Classified::Malformed { protocol, reason } => {
                self.ingest_malformed(protocol, reason, now_ms, sink)
            }
            Classified::Ignored => self.ingest_ignored(),
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
        self.count(Counter::SipPackets);
        let aor = event.get(SipArgs::get().aor).unwrap_or_default();
        let mut obs = RingObserver {
            slab: &self.slab,
            ring: self.ring.as_mut(),
            scope: Scope::Aor(aor).key(),
        };
        let outcome = self.factbase.registration(aor, |net| {
            net.advance_time_observed(now_ms, &mut obs);
            net.deliver_observed(event, now_ms, &mut obs)
        });
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
            slab: &self.slab,
            ring: self.ring.as_mut(),
            scope: scope.key(),
        };
        let outcome = self.factbase.invite_flood(dst_ip, |net| {
            net.advance_time_observed(now_ms, &mut obs);
            net.deliver_observed(Event::data(sym::SIP_INVITE), now_ms, &mut obs)
        });
        self.absorb(outcome, scope, now_ms, sink);
    }

    /// The call-pinned part of a non-REGISTER SIP packet: delivery to the
    /// per-call SIP machine, the unassociated-request deviation, or — for a
    /// response matching no monitored call — a [`ResponseMiss`] the caller
    /// must feed to the destination's DRDoS reflection detector. Also
    /// returns whether the call took a media coordinate the event's SDP
    /// named ([`FactBase::claim_media`]).
    pub(crate) fn ingest_call_event<S: AlertSink + ?Sized>(
        &mut self,
        call_id: Sym,
        event: Event,
        is_initial_invite: bool,
        is_request: bool,
        now_ms: u64,
        sink: &mut S,
    ) -> (Option<ResponseMiss>, bool) {
        self.count(Counter::SipPackets);
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
            self.count(Counter::CallQuotaDrops);
            return (None, false);
        }
        if known.is_some() || is_initial_invite {
            let idx = match known {
                Some(idx) => idx,
                None => {
                    self.count(Counter::CallsCreated);
                    self.factbase.create_call_idx(call_id, now_ms)
                }
            };
            let sip = self.factbase.sip_machine();
            let mut obs = RingObserver {
                slab: &self.slab,
                ring: self.ring.as_mut(),
                scope: Scope::Call(call_id).key(),
            };
            let sdp = SipArgs::get().sdp_media(&event);
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
            let claimed = self.factbase.claim_media(idx, sdp);
            // The delivery may have armed/fired timers or changed finality:
            // re-file the call under its next wake deadline.
            self.factbase.reindex_idx(idx);
            self.absorb(outcome, Scope::Call(call_id), now_ms, sink);
            return (None, claimed);
        } else if is_request {
            // A non-dialog-forming request for an unknown call:
            // a specification anomaly worth an alert.
            self.count(Counter::UnassociatedSipRequests);
            self.raise(
                Finding {
                    subject: Subject::Scope(Scope::Call(call_id)),
                    label: Label::UnassociatedRequest(event.name),
                    time_ms: now_ms,
                    kind: AlertKind::Deviation,
                    call_id: Some(call_id),
                    machine: sym::ENGINE,
                    detail: Said::Unmonitored,
                },
                |vids| vids.render_trace(Scope::Call(call_id)),
                sink,
            );
        } else {
            // A response matching no monitored call: DRDoS reflection
            // evidence, counted against its destination.
            self.count(Counter::UnassociatedSipResponses);
            let src_ip = event.get(SipArgs::get().src_ip);
            return (Some(ResponseMiss { src_ip }), false);
        }
        (None, false)
    }

    /// Delivers one unassociated-response observation to the destination's
    /// response-flood machine.
    pub(crate) fn ingest_response_flood<S: AlertSink + ?Sized>(
        &mut self,
        dst_ip: u32,
        src_ip: Option<Ipv4Addr>,
        now_ms: u64,
        sink: &mut S,
    ) {
        let scope = Scope::Dst(dst_ip);
        let mut obs = RingObserver {
            slab: &self.slab,
            ring: self.ring.as_mut(),
            scope: scope.key(),
        };
        let mut synthetic = SipArgs::event(sym::SIP_RESPONSE_UNASSOCIATED);
        if let Some(src_ip) = src_ip {
            synthetic.set(SipArgs::get().src_ip, src_ip);
        }
        let outcome = self.factbase.response_flood(dst_ip, |net| {
            net.advance_time_observed(now_ms, &mut obs);
            net.deliver_observed(synthetic, now_ms, &mut obs)
        });
        self.absorb(outcome, scope, now_ms, sink);
    }

    /// An RTP packet: grouped with its call via the media index published
    /// by the SIP machine, or counted as unassociated and its coordinates
    /// returned, for the caller to raise on the engine that deduplicates
    /// them ([`Vids::raise_unassociated_rtp`]).
    pub(crate) fn ingest_rtp<S: AlertSink + ?Sized>(
        &mut self,
        event: Event,
        now_ms: u64,
        sink: &mut S,
    ) -> Option<MediaKey> {
        self.count(Counter::RtpPackets);
        let dst = RtpArgs::get().dst(&event);
        match self.factbase.media_lookup_idx(dst) {
            Some(idx) => {
                let call_id = self.factbase.id_of(idx);
                let rtp = self.factbase.rtp_machine();
                let mut obs = RingObserver {
                    slab: &self.slab,
                    ring: self.ring.as_mut(),
                    scope: Scope::Call(call_id).key(),
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
                None
            }
            None => {
                self.count(Counter::UnassociatedRtp);
                Some(dst)
            }
        }
    }

    /// Raises `unassociated-rtp` for media no call negotiated, once per
    /// coordinate: the finding of [`Vids::ingest_rtp`] that returned it.
    pub(crate) fn raise_unassociated_rtp<S: AlertSink + ?Sized>(
        &mut self,
        media: MediaKey,
        now_ms: u64,
        sink: &mut S,
    ) {
        let finding = Finding {
            subject: Subject::Media(media),
            label: Label::UnassociatedRtp,
            time_ms: now_ms,
            kind: AlertKind::Deviation,
            call_id: None,
            machine: sym::ENGINE,
            detail: Said::Media(media),
        };
        self.raise(finding, |_| Vec::new(), sink);
    }

    /// Gives up a media coordinate a call on another engine of a pool has
    /// since claimed.
    pub(crate) fn release_media(&mut self, media: MediaKey) {
        self.factbase.release_media(media);
    }

    /// An unparseable SIP/RTP datagram.
    pub(crate) fn ingest_malformed<S: AlertSink + ?Sized>(
        &mut self,
        protocol: &'static str,
        reason: &'static str,
        now_ms: u64,
        sink: &mut S,
    ) {
        self.count(Counter::Malformed);
        self.raise(
            Finding {
                subject: Subject::Reason(reason),
                label: Label::Malformed(protocol),
                time_ms: now_ms,
                kind: AlertKind::Deviation,
                call_id: None,
                machine: sym::CLASSIFIER,
                detail: Said::Reason(reason),
            },
            |_| Vec::new(),
            sink,
        );
    }

    /// A datagram the classifier set aside (neither SIP nor RTP).
    pub(crate) fn ingest_ignored(&mut self) {
        self.count(Counter::Ignored);
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
        self.count(Counter::TimerSweeps);
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
        // runs stay comparable with sharded ones. The list is the fact
        // base's own scratch, lent out for the sweep and handed back.
        let due = self.factbase.due_calls(now_ms);
        for &idx in &due {
            let id = self.factbase.id_of(idx);
            let mut obs = RingObserver {
                slab: &self.slab,
                ring: self.ring.as_mut(),
                scope: Scope::Call(id).key(),
            };
            let record = self.factbase.record_mut(idx);
            let outcome = record.network.advance_time_observed(now_ms, &mut obs);
            if outcome.transitions > 0 || outcome.is_suspicious() {
                self.absorb(outcome, Scope::Call(id), now_ms, sink);
            }
        }
        let evicted = self.factbase.sweep_due(due, now_ms);
        self.slab.add_owned(Counter::CallsEvicted, evicted as u64);
        // Flood windows whose T1 fell due close here, as a call's timers
        // fire, and the fact base drops each counter the firing left fresh.
        // The outcome is dropped as the lazy fire before a delivery drops
        // it: a window closing raises nothing, and a flagged destination's
        // absorbing step repeats an alert its dedup entry already holds.
        let (slab, ring) = (&*self.slab, &mut self.ring);
        self.factbase.expire_windows(now_ms, |dst_ip, net| {
            let mut obs = RingObserver {
                slab,
                ring: ring.as_mut(),
                scope: Scope::Dst(dst_ip).key(),
            };
            net.advance_time_observed(now_ms, &mut obs);
        });
    }

    /// Converts a network outcome into deduplicated alerts.
    fn absorb<S: AlertSink + ?Sized>(
        &mut self,
        outcome: NetworkOutcome,
        scope: Scope,
        now_ms: u64,
        sink: &mut S,
    ) {
        self.slab
            .add_owned(Counter::SyncDeliveries, outcome.sync_deliveries as u64);
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
                .get_or_insert_with(|| vids.render_trace(scope))
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
                    machine: a.machine,
                    detail: Said::Scope(scope),
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
                    machine: d.machine,
                    detail: Said::Event(&d.event),
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
                    machine: sym::ENGINE,
                    detail: Said::Scope(scope),
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
    ///
    /// A new alert is built once and handed to the sink: label and machine
    /// borrow static text wherever the program chose it, and the detail is
    /// a value that shares the Call-ID, so a call-scoped first sight costs
    /// one block — the Call-ID text — and a destination, media or parser
    /// alert costs none.
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
        self.count(match finding.kind {
            AlertKind::Attack => Counter::AlertsAttack,
            AlertKind::Deviation => Counter::AlertsDeviation,
            AlertKind::Nondeterminism => Counter::AlertsNondeterminism,
        });
        let call_id: Option<Arc<str>> = finding.call_id.map(|id| id.as_str().into());
        let detail = match finding.detail {
            Said::Scope(Scope::Call(_)) => Detail::Call(
                call_id
                    .clone()
                    .expect("a call scope names the alert's call"),
            ),
            Said::Scope(Scope::Dst(ip)) => Detail::Dst(Ipv4Addr::from(ip)),
            Said::Scope(aor @ Scope::Aor(_)) => Detail::from(format!("scope {aor}")),
            Said::Unmonitored => {
                let call = finding
                    .call_id
                    .expect("an unmonitored request names its call");
                Detail::from(format!("request for unmonitored call {call}"))
            }
            Said::Media(media) => Detail::Media(media),
            Said::Reason(reason) => Detail::Reason(reason),
            Said::Event(event) => Detail::from(event.to_string()),
        };
        let alert = Alert {
            time_ms: finding.time_ms,
            kind: finding.kind,
            label: finding.label.text(),
            call_id,
            machine: program_text(finding.machine),
            detail,
            trace: trace(self),
        };
        sink.accept(alert);
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

    /// Drives a full clean call through the engine, returning what it
    /// raised.
    fn clean_call(vids: &mut Vids, call_id: &str) -> Vec<Alert> {
        let mut raised = Vec::new();
        let inv = invite(call_id);
        raised.extend(process(
            vids,
            &pkt(CALLER, CALLEE, Payload::Sip(inv.to_string())),
            SimTime::from_millis(0),
        ));
        let ringing = inv.response(StatusCode::RINGING).with_to_tag("tt");
        raised.extend(process(
            vids,
            &pkt(CALLEE, CALLER, Payload::Sip(ringing.to_string())),
            SimTime::from_millis(60),
        ));
        let answer = SessionDescription::audio_offer("bob", "10.2.0.10", 30_000, &[Codec::G729]);
        let ok = inv
            .response(StatusCode::OK)
            .with_to_tag("tt")
            .with_body(vids_sdp::MIME_TYPE, answer.to_string());
        raised.extend(process(
            vids,
            &pkt(CALLEE, CALLER, Payload::Sip(ok.to_string())),
            SimTime::from_millis(120),
        ));
        let ack = Request::in_dialog(Method::Ack, &inv, 1, Some("tt"));
        raised.extend(process(
            vids,
            &pkt(CALLER, CALLEE, Payload::Sip(ack.to_string())),
            SimTime::from_millis(180),
        ));
        // A little media both ways.
        for i in 0..20u16 {
            let fwd = RtpPacket::new(18, 100 + i, (i as u32) * 80, 7).with_payload(vec![0; 10]);
            raised.extend(process(
                vids,
                &pkt(
                    CALLER.with_port(20_000),
                    CALLEE.with_port(30_000),
                    Payload::Rtp(fwd.to_bytes()),
                ),
                SimTime::from_millis(200 + i as u64 * 10),
            ));
            let rev = RtpPacket::new(18, 500 + i, (i as u32) * 80, 9).with_payload(vec![0; 10]);
            raised.extend(process(
                vids,
                &pkt(
                    CALLEE.with_port(30_000),
                    CALLER.with_port(20_000),
                    Payload::Rtp(rev.to_bytes()),
                ),
                SimTime::from_millis(205 + i as u64 * 10),
            ));
        }
        let bye = Request::in_dialog(Method::Bye, &inv, 2, Some("tt"));
        raised.extend(process(
            vids,
            &pkt(CALLER, CALLEE, Payload::Sip(bye.to_string())),
            SimTime::from_millis(500),
        ));
        let bye_ok = bye.response(StatusCode::OK);
        raised.extend(process(
            vids,
            &pkt(CALLEE, CALLER, Payload::Sip(bye_ok.to_string())),
            SimTime::from_millis(560),
        ));
        raised
    }

    #[test]
    fn clean_call_raises_no_alerts_and_gets_evicted() {
        let mut vids = Vids::new(Config::default());
        let raised = clean_call(&mut vids, "clean-1");
        assert!(raised.is_empty(), "alerts: {raised:?}");
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
    fn a_malformed_alert_holds_its_diagnosis_and_no_text() {
        let mut vids = Vids::new(Config::default());
        let junk = pkt(CALLER, CALLEE, Payload::Sip("garbage".to_owned()));
        let alerts = process(&mut vids, &junk, SimTime::ZERO);
        assert_eq!(alerts.len(), 1);
        assert!(matches!(alerts[0].detail, Detail::Reason(_)), "{alerts:?}");
        assert!(process(&mut vids, &junk, SimTime::ZERO).is_empty());
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
        assert_eq!(vids.counters().malformed, 1, "counts need no telemetry");
    }
}
