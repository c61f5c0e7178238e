//! Communicating EFSMs (§4.2): machines wired together through reliable FIFO
//! synchronization channels, sharing call-global variables.
//!
//! Processing rule, verbatim from the paper: "The synchronization events
//! waiting in a FIFO queue have higher priority than the data packet
//! events." Every δ event a step emits is delivered — cascades included —
//! before the entry point that caused it returns, so by the time the next
//! data event arrives nothing is waiting: the FIFO is scratch of one
//! delivery, not state of the call.
//!
//! Two shapes own machines. A [`Network`] is a call: up to four machines
//! sharing one definition list, one frame holding every variable they
//! declare (the shared globals, then each machine's locals), their armed
//! timers. A [`SoloNetwork`] is one machine that has no peer — a
//! per-destination flood counter, a per-AOR registration — and pays for
//! neither a definition list nor a call-sized frame. Both run the same
//! stepping code over borrowed pieces and own no heap block for the
//! machines this repository ships.

use std::fmt;
use std::sync::Arc;

use crate::event::Event;
use crate::instance::MachineInstance;
use crate::intern::Sym;
use crate::machine::MachineDef;
use crate::value::InlineVec;
use crate::vars::{Frame, Schema, Slots, Var, VarType, Vars, NO_VARS};

/// Index of a machine within its [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(usize);

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An alert raised when some machine entered an attack state. Both names
/// are interned handles: raising one copies twenty-four bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttackAlert {
    /// Monitor time of the detection.
    pub time_ms: u64,
    /// Which machine detected it.
    pub machine: Sym,
    /// The attack state's label.
    pub label: Sym,
}

impl fmt::Display for AttackAlert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} ms] {}: ATTACK {}",
            self.time_ms, self.machine, self.label
        )
    }
}

/// A specification deviation: an event no transition accepted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Deviation {
    /// Monitor time of the deviation.
    pub time_ms: u64,
    /// Which machine rejected the event.
    pub machine: Sym,
    /// The offending event.
    pub event: Event,
}

impl fmt::Display for Deviation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} ms] {}: DEVIATION {}",
            self.time_ms, self.machine, self.event
        )
    }
}

/// Aggregated results of one network step (and its sync cascade). The
/// first alert and the first deviation are held inline; a step that finds
/// more than one of either is the only one that allocates for them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetworkOutcome {
    /// Attack states entered, in order.
    pub alerts: InlineVec<AttackAlert, 1>,
    /// Specification deviations observed, in order.
    pub deviations: InlineVec<Deviation, 1>,
    /// Whether any step had multiple enabled transitions.
    pub nondeterministic: bool,
    /// Total transitions taken across all machines.
    pub transitions: usize,
    /// δ synchronization events delivered.
    pub sync_deliveries: usize,
}

impl NetworkOutcome {
    /// Whether anything suspicious (attack or deviation) was observed.
    pub fn is_suspicious(&self) -> bool {
        !self.alerts.is_empty() || !self.deviations.is_empty()
    }

    /// Appends what a later step observed (a timer sweep followed by a
    /// delivery is reported as one outcome).
    pub fn merge(&mut self, other: NetworkOutcome) {
        self.alerts.extend(other.alerts);
        self.deviations.extend(other.deviations);
        self.nondeterministic |= other.nondeterministic;
        self.transitions += other.transitions;
        self.sync_deliveries += other.sync_deliveries;
    }
}

/// Hook invoked for every transition a network takes.
///
/// The observer receives only interned symbols and a clock — an
/// implementation can record telemetry or fill a ring buffer without
/// allocating, keeping the hot path on its zero-allocation budget. The
/// debugging [`crate::Trace`] is one that renders strings.
pub trait TransitionObserver {
    /// Called once per taken transition, after the step is applied.
    fn on_transition(
        &mut self,
        time_ms: u64,
        machine: Sym,
        event: Sym,
        from: Sym,
        to: Sym,
        label: Option<Sym>,
    );
}

/// Observer that discards everything; the plain `deliver`/`advance_time`
/// entry points use it.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl TransitionObserver for NoopObserver {
    #[inline]
    fn on_transition(&mut self, _: u64, _: Sym, _: Sym, _: Sym, _: Sym, _: Option<Sym>) {}
}

/// The most machines one [`Network`] runs.
pub const MAX_MACHINES: usize = 4;

/// Variables a [`Network`] holds inline: the shipped call's five globals,
/// six SIP locals and eight RTP locals. A network whose machines declare
/// more moves its whole frame to one heap block.
const NETWORK_WORDS: usize = 19;

/// Variables a [`SoloNetwork`] holds inline: a registration's two locals
/// (a flood counter has one).
const SOLO_WORDS: usize = 2;

/// What every network cloned from one prototype shares: the machine
/// definitions, in the order they were added, and the globals schema they
/// share. Replaced, never mutated, when a machine is added.
#[derive(Default)]
struct Shape {
    defs: Vec<Arc<MachineDef>>,
    globals: Option<Arc<Schema>>,
}

impl Shape {
    fn globals(&self) -> &Schema {
        self.globals.as_deref().unwrap_or(&NO_VARS)
    }

    /// Where machine `i`'s locals start in the frame.
    fn base(&self, i: usize) -> usize {
        locals_base(&self.defs, self.globals().len(), i)
    }

    fn words(&self) -> usize {
        self.base(self.defs.len())
    }
}

/// Where machine `i`'s locals start: after the globals and the locals of
/// every machine before it.
fn locals_base(defs: &[Arc<MachineDef>], globals: usize, i: usize) -> usize {
    globals + defs[..i].iter().map(|d| d.locals().len()).sum::<usize>()
}

/// One armed timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Timer {
    deadline: u64,
    name: Sym,
    machine: u32,
}

/// Every armed timer of one network: `N` inline, more on the heap. A
/// [`Network`] holds [`CALL_TIMERS`], a [`SoloNetwork`] [`SOLO_TIMERS`].
///
/// Firing order is part of the contract (alert order depends on it):
/// earliest deadline first; on a tie the lower machine index, then the
/// lower timer symbol.
#[derive(Default, Clone)]
struct Timers<const N: usize>(InlineVec<Timer, N>);

/// Timers a [`Network`] holds inline: a call arms at most three at once —
/// the SIP linger, the RTP drain window and the RTP rate window.
const CALL_TIMERS: usize = 4;

/// Timers a [`SoloNetwork`] holds inline: a flood counter arms one, its
/// window T1, and a registration none.
const SOLO_TIMERS: usize = 1;

impl<const N: usize> Timers<N> {
    fn position(&self, machine: usize, name: Sym) -> Option<usize> {
        self.0
            .iter()
            .position(|t| t.machine as usize == machine && t.name == name)
    }

    /// Arms `name` on `machine`, replacing its deadline if already armed.
    fn arm(&mut self, machine: usize, name: Sym, deadline: u64) {
        match self.position(machine, name) {
            Some(i) => self.0[i].deadline = deadline,
            None => self.0.push(Timer {
                deadline,
                name,
                machine: machine as u32,
            }),
        }
    }

    fn cancel(&mut self, machine: usize, name: Sym) {
        if let Some(i) = self.position(machine, name) {
            self.0.remove(i);
        }
    }

    fn next_deadline(&self) -> Option<u64> {
        self.0.iter().map(|t| t.deadline).min()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Disarms and returns the next timer due at or before `now_ms`.
    fn pop_due(&mut self, now_ms: u64) -> Option<Timer> {
        let (i, _) = self
            .0
            .iter()
            .enumerate()
            .filter(|(_, t)| t.deadline <= now_ms)
            .min_by_key(|(_, t)| (t.deadline, t.machine, t.name))?;
        Some(self.0.remove(i))
    }
}

/// A δ event emitted by a step and not yet delivered.
struct Queued {
    dest: usize,
    seq: u32,
    event: Event,
}

/// The δ FIFOs of one delivery, as one pool: `pop` hands out the oldest
/// event of the lowest-numbered machine that has any, which is what one
/// FIFO per destination machine drained in machine order gives. Two
/// events wait inline — one action sends at most two today, and each is
/// delivered before the next step emits more — so the pool lives on the
/// stack of the delivery that fills it, and setting it up writes two
/// `None`s.
#[derive(Default)]
struct Pending {
    next_seq: u32,
    inline: [Option<Queued>; 2],
    spill: Vec<Option<Queued>>,
}

impl Pending {
    fn push(&mut self, dest: usize, event: Event) {
        let queued = Some(Queued {
            dest,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = queued,
            None => self.spill.push(queued),
        }
    }

    fn pop(&mut self) -> Option<(usize, Event)> {
        let queued = self
            .inline
            .iter_mut()
            .chain(&mut self.spill)
            .filter(|slot| slot.is_some())
            .min_by_key(|slot| slot.as_ref().map(|q| (q.dest, q.seq)))?
            .take()?;
        Some((queued.dest, queued.event))
    }

    fn is_empty(&self) -> bool {
        self.inline.iter().chain(&self.spill).all(Option::is_none)
    }
}

/// One entry-point call in flight: the pieces borrowed from whichever
/// shape owns them, the δ events still to deliver, and what was observed
/// so far.
struct Run<'a, const N: usize> {
    defs: &'a [Arc<MachineDef>],
    instances: &'a mut [MachineInstance],
    /// The whole frame; each step views it from the stepping machine's
    /// locals.
    frame: Slots<'a>,
    globals: usize,
    timers: &'a mut Timers<N>,
    sync_enabled: bool,
    obs: &'a mut dyn TransitionObserver,
    pending: Pending,
    outcome: NetworkOutcome,
}

impl<const N: usize> Run<'_, N> {
    /// A data event, then the sync cascade it triggers.
    fn deliver(mut self, target: usize, event: &Event, now_ms: u64) -> NetworkOutcome {
        self.step(target, event, now_ms);
        self.drain(now_ms);
        self.finish()
    }

    /// Every timer due at or before `now_ms`, each at its own deadline and
    /// followed by its sync cascade.
    fn advance(mut self, now_ms: u64) -> NetworkOutcome {
        while let Some(timer) = self.timers.pop_due(now_ms) {
            let event = Event::timer(timer.name);
            self.step(timer.machine as usize, &event, timer.deadline);
            self.drain(timer.deadline);
        }
        self.finish()
    }

    fn finish(self) -> NetworkOutcome {
        debug_assert!(
            self.pending.is_empty(),
            "every δ event is delivered before an entry point returns"
        );
        self.outcome
    }

    fn drain(&mut self, now_ms: u64) {
        while let Some((dest, event)) = self.pending.pop() {
            self.outcome.sync_deliveries += 1;
            self.step(dest, &event, now_ms);
        }
    }

    fn step(&mut self, target: usize, event: &Event, now_ms: u64) {
        // The definitions are read-only while the instance and the frame
        // mutate, so no per-step `Arc` refcount traffic is needed.
        let defs = self.defs;
        let def = &defs[target];
        let mut vars = self.frame.at(locals_base(defs, self.globals, target));
        let step = self.instances[target].step_at(def, event, &mut vars, now_ms);
        let machine = def.name_sym();

        self.outcome.nondeterministic |= step.nondeterministic;
        if let Some((from, to, label)) = step.taken {
            self.outcome.transitions += 1;
            self.obs.on_transition(
                now_ms,
                machine,
                event.name,
                def.state_sym(from),
                def.state_sym(to),
                label,
            );
        }
        if let Some(label) = step.attack {
            self.outcome.alerts.push(AttackAlert {
                time_ms: now_ms,
                machine,
                label,
            });
        }
        if let Some(event) = step.deviation {
            self.outcome.deviations.push(Deviation {
                time_ms: now_ms,
                machine,
                event,
            });
        }

        // Apply requested effects.
        for (timer, delay) in step.effects.timers_set {
            self.timers.arm(target, timer, now_ms + delay);
        }
        for timer in step.effects.timers_cancelled {
            self.timers.cancel(target, timer);
        }
        if self.sync_enabled {
            for (dest_name, sync_event) in step.effects.sync_out {
                if let Some(dest) = position_of(self.defs, dest_name) {
                    self.pending.push(dest, sync_event);
                }
                // Unknown destination: dropped. The builder of the protocol
                // machines controls both sides, so this only happens in the
                // sync-disabled ablation or a misconfigured scenario.
            }
        }
    }
}

fn position_of(defs: &[Arc<MachineDef>], name: Sym) -> Option<usize> {
    defs.iter().position(|d| d.name_sym() == name)
}

/// A network of communicating EFSM instances for one monitored call.
///
/// Definitions are shared (`Arc`) across all concurrent calls — a network
/// cloned from a prototype shares the prototype's definition list; per-call
/// state is each machine's control state, one frame of variables and the
/// armed timers, all inline in this value for the shipped call, so a call
/// record that embeds a `Network` is one flat block of memory.
#[derive(Default, Clone)]
pub struct Network {
    shape: Arc<Shape>,
    instances: [MachineInstance; MAX_MACHINES],
    frame: Frame<NETWORK_WORDS>,
    timers: Timers<CALL_TIMERS>,
    /// Ablation switch (experiment E8): when true, δ messages are dropped
    /// instead of delivered, turning the cross-protocol monitor into a set
    /// of isolated single-protocol machines.
    sync_disabled: bool,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("machines", &self.shape.defs.len())
            .field("globals", &self.globals())
            .field("sync_enabled", &!self.sync_disabled)
            .finish()
    }
}

impl Network {
    /// Creates an empty network with synchronization enabled. To trace
    /// it, pass a [`crate::Trace`] to [`Network::deliver_observed`] and
    /// [`Network::advance_time_observed`].
    pub fn new() -> Self {
        Network::default()
    }

    /// Disables the synchronization channels (ablation experiment E8).
    pub fn disable_sync(&mut self) {
        self.sync_disabled = true;
    }

    /// Adds a machine instance running `def`, its locals after those of
    /// the machines already added. Build a network once and clone it to
    /// get more of the same shape without allocating.
    ///
    /// # Panics
    ///
    /// Past [`MAX_MACHINES`] machines or [`crate::vars::MAX_VARS`]
    /// variables, or when `def` shares a globals schema different from the
    /// one the network's other machines share.
    pub fn add_machine(&mut self, def: Arc<MachineDef>) -> MachineId {
        let id = self.shape.defs.len();
        assert!(
            id < MAX_MACHINES,
            "a network runs at most {MAX_MACHINES} machines"
        );
        let mut words = self.shape.words();
        let globals = match (&self.shape.globals, def.shared_globals()) {
            (Some(have), Some(add)) => {
                assert!(
                    have == add,
                    "the machines of one network share one globals schema"
                );
                Some(Arc::clone(have))
            }
            (None, Some(add)) => {
                // The first machine to share globals: they open in front of
                // the locals already laid out.
                self.frame.insert(0, add.len(), words);
                words += add.len();
                Some(Arc::clone(add))
            }
            (have, None) => have.clone(),
        };
        self.frame.insert(words, def.locals().len(), words);
        self.instances[id] = MachineInstance::new(&def);
        let mut defs = self.shape.defs.clone();
        defs.push(def);
        self.shape = Arc::new(Shape { defs, globals });
        MachineId(id)
    }

    /// Finds a machine by its definition name.
    pub fn machine_by_name(&self, name: &str) -> Option<MachineId> {
        let sym = Sym::lookup(name)?;
        self.machine_by_sym(sym)
    }

    /// Finds a machine by its interned name (allocation- and compare-free
    /// routing on the hot path: a `u32` scan over at most a few machines).
    pub fn machine_by_sym(&self, name: Sym) -> Option<MachineId> {
        position_of(&self.shape.defs, name).map(MachineId)
    }

    /// The instance for a machine id.
    pub fn instance(&self, id: MachineId) -> &MachineInstance {
        &self.instances[..self.shape.defs.len()][id.0]
    }

    /// The definition for a machine id.
    pub fn definition(&self, id: MachineId) -> &MachineDef {
        &self.shape.defs[id.0]
    }

    /// A machine's local variables, by name.
    pub fn locals(&self, id: MachineId) -> Vars<'_> {
        self.frame
            .scope(self.definition(id).locals(), self.shape.base(id.0))
    }

    /// The call-global shared variables, by name.
    pub fn globals(&self) -> Vars<'_> {
        self.frame.scope(self.shape.globals(), 0)
    }

    /// One of a machine's variables — a local of that machine or a global
    /// it shares — through its handle.
    pub fn get<T: VarType>(&self, id: MachineId, var: Var<T>) -> Option<T> {
        self.frame.slots_ref(self.shape.base(id.0)).get(var)
    }

    /// Sets one of a machine's variables (hosts seeding context, tests).
    pub fn set<T: VarType>(&mut self, id: MachineId, var: Var<T>, value: T) {
        let base = self.shape.base(id.0);
        self.frame.slots(base).set(var, value);
    }

    fn configs(&self) -> impl Iterator<Item = (&MachineDef, &MachineInstance)> {
        self.shape.defs.iter().map(Arc::as_ref).zip(&self.instances)
    }

    /// Every machine of the network with its definition and its locals, in
    /// the order the machines were added (forensic snapshots walk this).
    pub fn machines(&self) -> impl Iterator<Item = (&MachineDef, &MachineInstance, Vars<'_>)> {
        self.configs().enumerate().map(|(i, (def, instance))| {
            let locals = self.frame.scope(def.locals(), self.shape.base(i));
            (def, instance, locals)
        })
    }

    /// Whether every machine sits in a final state (the call completed and
    /// the fact base may evict this network).
    pub fn all_final(&self) -> bool {
        self.configs().all(|(d, m)| m.is_final(d))
    }

    /// Whether any machine sits in an attack state.
    pub fn any_attack(&self) -> bool {
        self.configs().any(|(d, m)| m.is_attack(d))
    }

    /// Heap bytes this network owns beyond its own `size_of`: a frame too
    /// wide to stay inline and timers past the fourth. Zero for a call
    /// running the shipped machines. The shared definitions are not
    /// charged.
    pub fn heap_bytes(&self) -> usize {
        self.frame.heap_bytes() + self.timers.0.heap_bytes()
    }

    /// Per-call memory footprint (configurations, variables and timers;
    /// definitions are shared and excluded): this value plus
    /// [`Network::heap_bytes`]. E5.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.heap_bytes()
    }

    fn run<'a>(&'a mut self, obs: &'a mut dyn TransitionObserver) -> Run<'a, CALL_TIMERS> {
        let shape = &*self.shape;
        Run {
            defs: &shape.defs,
            instances: &mut self.instances[..shape.defs.len()],
            frame: self.frame.slots(0),
            globals: shape.globals().len(),
            timers: &mut self.timers,
            sync_enabled: !self.sync_disabled,
            obs,
            pending: Pending::default(),
            outcome: NetworkOutcome::default(),
        }
    }

    /// Delivers a data-packet event to `target` at time `now_ms`, then drains
    /// the sync cascade it triggers. Returns everything observed.
    pub fn deliver(&mut self, target: MachineId, event: Event, now_ms: u64) -> NetworkOutcome {
        self.deliver_observed(target, event, now_ms, &mut NoopObserver)
    }

    /// [`Network::deliver`] with a [`TransitionObserver`] notified of every
    /// transition taken (including sync-cascade steps).
    pub fn deliver_observed(
        &mut self,
        target: MachineId,
        event: Event,
        now_ms: u64,
        obs: &mut dyn TransitionObserver,
    ) -> NetworkOutcome {
        self.run(obs).deliver(target.0, &event, now_ms)
    }

    /// The earliest armed timer deadline across all machines, if any.
    pub fn next_timer_deadline(&self) -> Option<u64> {
        self.timers.next_deadline()
    }

    /// Fires every timer due at or before `now_ms`, delivering expirations as
    /// [`Event::timer`] events (and draining any sync cascade).
    pub fn advance_time(&mut self, now_ms: u64) -> NetworkOutcome {
        self.advance_time_observed(now_ms, &mut NoopObserver)
    }

    /// [`Network::advance_time`] with a [`TransitionObserver`] notified of
    /// every transition taken.
    pub fn advance_time_observed(
        &mut self,
        now_ms: u64,
        obs: &mut dyn TransitionObserver,
    ) -> NetworkOutcome {
        self.run(obs).advance(now_ms)
    }
}

/// One machine with its timers and no peer: the per-destination flood
/// counters and the per-AOR registration machine. It steps exactly as a
/// one-machine [`Network`] does, but is a third of the size — it holds its
/// definition directly instead of a shared list, a frame sized for a
/// machine rather than a call, and room for one armed timer rather than
/// four.
pub struct SoloNetwork {
    def: Arc<MachineDef>,
    instance: MachineInstance,
    frame: Frame<SOLO_WORDS>,
    timers: Timers<SOLO_TIMERS>,
}

impl fmt::Debug for SoloNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoloNetwork")
            .field("machine", &self.def.name())
            .field("state", &self.instance.state())
            .finish()
    }
}

impl SoloNetwork {
    /// Creates the machine at its definition's initial state.
    pub fn new(def: Arc<MachineDef>) -> Self {
        SoloNetwork {
            instance: MachineInstance::new(&def),
            frame: Frame::new(def.globals().len() + def.locals().len()),
            timers: Timers::default(),
            def,
        }
    }

    /// The machine's configuration.
    pub fn instance(&self) -> &MachineInstance {
        &self.instance
    }

    /// The machine's definition.
    pub fn definition(&self) -> &MachineDef {
        &self.def
    }

    /// The machine's local variables, by name.
    pub fn locals(&self) -> Vars<'_> {
        self.frame
            .scope(self.def.locals(), self.def.globals().len())
    }

    /// The earliest armed timer deadline, if any.
    pub fn next_timer_deadline(&self) -> Option<u64> {
        self.timers.next_deadline()
    }

    /// Heap bytes owned beyond `size_of` (zero for the shipped machines).
    pub fn heap_bytes(&self) -> usize {
        self.frame.heap_bytes() + self.timers.0.heap_bytes()
    }

    /// Whether the machine is back where [`SoloNetwork::new`] put it: in
    /// its initial state, no variable set, no timer armed. Such a network
    /// steps exactly as a fresh one would, so its holder may drop it and
    /// make a new one when the next event comes.
    pub fn is_fresh(&self) -> bool {
        self.instance.state() == self.def.initial_state()
            && self.frame.is_empty()
            && self.timers.is_empty()
    }

    fn run<R>(
        &mut self,
        obs: &mut dyn TransitionObserver,
        f: impl FnOnce(Run<'_, SOLO_TIMERS>) -> R,
    ) -> R {
        f(Run {
            defs: std::slice::from_ref(&self.def),
            instances: std::slice::from_mut(&mut self.instance),
            frame: self.frame.slots(0),
            globals: self.def.globals().len(),
            timers: &mut self.timers,
            sync_enabled: true,
            obs,
            pending: Pending::default(),
            outcome: NetworkOutcome::default(),
        })
    }

    /// Delivers a data-packet event, as [`Network::deliver_observed`].
    pub fn deliver_observed(
        &mut self,
        event: Event,
        now_ms: u64,
        obs: &mut dyn TransitionObserver,
    ) -> NetworkOutcome {
        self.run(obs, |run| run.deliver(0, &event, now_ms))
    }

    /// Fires every due timer, as [`Network::advance_time_observed`].
    pub fn advance_time_observed(
        &mut self,
        now_ms: u64,
        obs: &mut dyn TransitionObserver,
    ) -> NetworkOutcome {
        self.run(obs, |run| run.advance(now_ms))
    }
}

// Sizes are facts: a fact base holds one of these per monitored call or
// destination, so a field added here has to argue with a number. The call
// slot that embeds a `Network` is pinned where it is defined
// (`vids-core::factbase`).
const _: () = assert!(std::mem::size_of::<Network>() <= 288);
const _: () = assert!(std::mem::size_of::<SoloNetwork>() <= 96);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineDef;
    use crate::trace::Trace;

    /// Two-machine network mirroring Fig. 2: the "sip" machine receives an
    /// INVITE and synchronizes the "rtp" machine, which opens using the
    /// media port the sip machine published in the globals.
    struct InviteArgs {
        schema: Schema,
        call_id: crate::vars::Arg<Sym>,
        media_port: crate::vars::Arg<u64>,
    }

    static INVITE_ARGS: std::sync::LazyLock<InviteArgs> = std::sync::LazyLock::new(|| {
        let mut schema = Schema::args();
        InviteArgs {
            call_id: schema.arg("call_id"),
            media_port: schema.arg("media_port"),
            schema,
        }
    });

    fn invite(call_id: &str, media_port: u64) -> Event {
        let a = &*INVITE_ARGS;
        Event::new("SIP.INVITE", &a.schema)
            .with(a.call_id, Sym::intern(call_id))
            .with(a.media_port, media_port)
    }

    fn fig2_network() -> (Network, MachineId, MachineId) {
        let a = &*INVITE_ARGS;
        let (arg_call_id, arg_media_port) = (a.call_id, a.media_port);
        let mut globals = Schema::globals();
        let media_port: Var<u64> = globals.declare("g_media_port");
        let globals = Arc::new(globals);

        let mut sip = MachineDef::new("sip");
        sip.share_globals(&globals);
        sip.reads(&a.schema);
        let call_id: Var<Sym> = sip.local("l_call_id");
        let init = sip.add_state("INIT");
        let rcvd = sip.add_state("INVITE_RCVD");
        sip.add_transition(init, "SIP.INVITE", rcvd)
            .action(move |ctx| {
                let port = ctx.event.get(arg_media_port).unwrap_or(0);
                ctx.set(media_port, port);
                let id = ctx.event.get(arg_call_id).unwrap_or_default();
                ctx.set(call_id, id);
                ctx.send_sync("rtp", Event::sync("δ_SIP→RTP"));
            });
        let sip = Arc::new(sip.build().unwrap());

        let mut rtp = MachineDef::new("rtp");
        rtp.share_globals(&globals);
        let local_port: Var<u64> = rtp.local("l_port");
        let rinit = rtp.add_state("INIT");
        let ropen = rtp.add_state("RTP_OPEN");
        rtp.add_transition(rinit, "δ_SIP→RTP", ropen)
            .action(move |ctx| {
                let port = ctx.get(media_port).unwrap_or(0);
                ctx.set(local_port, port);
            });
        let rtp = Arc::new(rtp.build().unwrap());

        let mut net = Network::new();
        let sid = net.add_machine(sip);
        let rid = net.add_machine(rtp);
        (net, sid, rid)
    }

    #[test]
    fn sync_message_propagates_global_state() {
        let (mut net, sid, rid) = fig2_network();
        let mut trace = Trace::new();
        let outcome = net.deliver_observed(sid, invite("c1", 49170), 5, &mut trace);
        assert_eq!(outcome.transitions, 2); // sip step + rtp sync step
        assert!(!outcome.is_suspicious());
        assert_eq!(net.locals(rid).uint("l_port"), Some(49170));
        assert_eq!(net.locals(sid).str("l_call_id"), Some("c1"));
        assert_eq!(net.globals().uint("g_media_port"), Some(49170));
        assert_eq!(
            net.instance(rid).state_name(net.definition(rid)),
            "RTP_OPEN"
        );
        assert_eq!(trace.path_of("sip"), vec!["INIT", "INVITE_RCVD"]);
        assert_eq!(trace.path_of("rtp"), vec!["INIT", "RTP_OPEN"]);
    }

    #[test]
    fn disabled_sync_isolates_machines() {
        let (mut net, sid, rid) = fig2_network();
        net.disable_sync();
        let outcome = net.deliver(sid, invite("c1", 49170), 5);
        assert_eq!(outcome.transitions, 1);
        assert_eq!(net.instance(rid).state_name(net.definition(rid)), "INIT");
    }

    #[test]
    fn timer_fires_through_advance_time() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        let b = def.add_state("B");
        let c = def.add_state("C");
        def.add_transition(a, "go", b)
            .action(|ctx| ctx.set_timer("T", 100));
        def.add_transition(b, "T", c);
        let def = Arc::new(def.build().unwrap());

        let mut net = Network::new();
        let id = net.add_machine(def);
        net.deliver(id, Event::data("go"), 0);
        assert_eq!(net.next_timer_deadline(), Some(100));

        // Not due yet.
        let o = net.advance_time(99);
        assert_eq!(o.transitions, 0);
        // Due now.
        let o = net.advance_time(100);
        assert_eq!(o.transitions, 1);
        assert_eq!(net.instance(id).state_name(net.definition(id)), "C");
        assert_eq!(net.next_timer_deadline(), None);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        let b = def.add_state("B");
        let c = def.add_state("C");
        def.add_transition(a, "go", b)
            .action(|ctx| ctx.set_timer("T", 100));
        def.add_transition(b, "stop", b)
            .action(|ctx| ctx.cancel_timer("T"));
        def.add_transition(b, "T", c);
        let def = Arc::new(def.build().unwrap());

        let mut net = Network::new();
        let id = net.add_machine(def);
        net.deliver(id, Event::data("go"), 0);
        net.deliver(id, Event::data("stop"), 50);
        let o = net.advance_time(1_000);
        assert_eq!(o.transitions, 0);
        assert_eq!(net.instance(id).state_name(net.definition(id)), "B");
    }

    #[test]
    fn alerts_and_deviations_surface_in_outcome() {
        let mut def = MachineDef::new("m");
        let a = def.add_state("A");
        let atk = def.add_state("ATTACK");
        def.mark_attack(atk, "bye-dos");
        def.add_transition(a, "bad", atk);
        let def = Arc::new(def.build().unwrap());

        let mut net = Network::new();
        let id = net.add_machine(def);
        let o = net.deliver(id, Event::data("bad"), 7);
        assert_eq!(o.alerts.len(), 1);
        assert_eq!(o.alerts[0].label, "bye-dos");
        assert_eq!(o.alerts[0].time_ms, 7);
        assert!(net.any_attack());

        let o = net.deliver(id, Event::data("unmodeled"), 8);
        assert_eq!(o.deviations.len(), 1);
        assert!(o.is_suspicious());
    }

    #[test]
    fn all_final_reflects_every_machine() {
        let mk = |name: &str| {
            let mut d = MachineDef::new(name);
            let a = d.add_state("A");
            let z = d.add_state("Z");
            d.mark_final(z);
            d.add_transition(a, "fin", z);
            Arc::new(d.build().unwrap())
        };
        let mut net = Network::new();
        let m1 = net.add_machine(mk("m1"));
        let m2 = net.add_machine(mk("m2"));
        assert!(!net.all_final());
        net.deliver(m1, Event::data("fin"), 0);
        assert!(!net.all_final());
        net.deliver(m2, Event::data("fin"), 0);
        assert!(net.all_final());
    }

    #[test]
    fn fifo_order_is_preserved() {
        // One machine sends two syncs in one action; receiver must see them
        // in order.
        let mut tx = MachineDef::new("tx");
        let a = tx.add_state("A");
        let b = tx.add_state("B");
        tx.add_transition(a, "go", b).action(|ctx| {
            ctx.send_sync("rx", Event::sync("first"));
            ctx.send_sync("rx", Event::sync("second"));
        });
        let tx = Arc::new(tx.build().unwrap());

        let mut rx = MachineDef::new("rx");
        let r0 = rx.add_state("R0");
        let r1 = rx.add_state("R1");
        let r2 = rx.add_state("R2");
        rx.add_transition(r0, "first", r1);
        rx.add_transition(r1, "second", r2);
        let rx = Arc::new(rx.build().unwrap());

        let mut net = Network::new();
        let t = net.add_machine(tx);
        let r = net.add_machine(rx);
        let o = net.deliver(t, Event::data("go"), 0);
        assert_eq!(o.transitions, 3);
        assert!(o.deviations.is_empty(), "out-of-order sync would deviate");
        assert_eq!(net.instance(r).state_name(net.definition(r)), "R2");
    }

    /// Records `(machine, event)` for every transition, in order.
    #[derive(Default)]
    struct Steps(Vec<(String, String)>);

    impl TransitionObserver for Steps {
        fn on_transition(
            &mut self,
            _: u64,
            machine: Sym,
            event: Sym,
            _: Sym,
            _: Sym,
            _: Option<Sym>,
        ) {
            self.0
                .push((machine.as_str().to_owned(), event.as_str().to_owned()));
        }
    }

    /// A one-state machine that accepts `events` as self-loops.
    fn sink_machine(name: &str, events: &[&str]) -> MachineDef {
        let mut def = MachineDef::new(name);
        let s = def.add_state("S");
        for e in events {
            def.add_transition(s, *e, s);
        }
        def
    }

    #[test]
    fn cascade_drains_lowest_machine_first_and_fifo_within_it() {
        // a --go--> sends c1 to c, then b1 to b; b on b1 sends c2 to c.
        // One FIFO per destination drained in machine order: b1 goes
        // first (lower index), its c2 queues behind c1, and c sees c1, c2.
        let mut a = sink_machine("a", &[]);
        let s = a.state_by_name("S").unwrap();
        a.add_transition(s, "go", s).action(|ctx| {
            ctx.send_sync("c", Event::sync("c1"));
            ctx.send_sync("b", Event::sync("b1"));
        });
        let mut b = sink_machine("b", &[]);
        let s = b.state_by_name("S").unwrap();
        b.add_transition(s, "b1", s)
            .action(|ctx| ctx.send_sync("c", Event::sync("c2")));
        let c = sink_machine("c", &["c1", "c2", "data"]);

        let mut net = Network::new();
        let ia = net.add_machine(Arc::new(a.build().unwrap()));
        net.add_machine(Arc::new(b.build().unwrap()));
        let ic = net.add_machine(Arc::new(c.build().unwrap()));

        let mut steps = Steps::default();
        let o = net.deliver_observed(ia, Event::data("go"), 0, &mut steps);
        let order: Vec<(&str, &str)> = steps
            .0
            .iter()
            .map(|(m, e)| (m.as_str(), e.as_str()))
            .collect();
        assert_eq!(order, [("a", "go"), ("b", "b1"), ("c", "c1"), ("c", "c2")]);
        assert_eq!(o.sync_deliveries, 3);
        assert_eq!(o.transitions, 4);
        assert!(!o.is_suspicious());
        // Nothing is left waiting for the next data event.
        let o = net.deliver(ic, Event::data("data"), 1);
        assert_eq!(o.sync_deliveries, 0);
        assert_eq!(o.transitions, 1);
    }

    #[test]
    fn more_syncs_than_wait_inline_keep_their_order() {
        let mut tx = sink_machine("tx", &[]);
        let s = tx.state_by_name("S").unwrap();
        tx.add_transition(s, "go", s).action(|ctx| {
            for name in ["s0", "s1", "s2", "s3", "s4"] {
                ctx.send_sync("rx", Event::sync(name));
            }
        });
        let mut rx = MachineDef::new("rx");
        let states: Vec<_> = (0..6).map(|i| rx.add_state(format!("R{i}"))).collect();
        for (i, name) in ["s0", "s1", "s2", "s3", "s4"].into_iter().enumerate() {
            rx.add_transition(states[i], name, states[i + 1]);
        }
        let mut net = Network::new();
        let t = net.add_machine(Arc::new(tx.build().unwrap()));
        let r = net.add_machine(Arc::new(rx.build().unwrap()));
        let o = net.deliver(t, Event::data("go"), 0);
        assert!(o.deviations.is_empty(), "out-of-order sync would deviate");
        assert_eq!(o.sync_deliveries, 5);
        assert_eq!(net.instance(r).state_name(net.definition(r)), "R5");
    }

    #[test]
    fn third_machine_and_fifth_timer_keep_working() {
        let timers = ["T0", "T1", "T2", "T3", "T4", "T5"];
        let mk = |name: &str| {
            let mut def = sink_machine(name, &timers);
            let s = def.state_by_name("S").unwrap();
            def.add_transition(s, "arm", s).action(|ctx| {
                // Deadlines descend with the timer index: T5 fires first.
                for (i, t) in ["T0", "T1", "T2", "T3", "T4", "T5"].into_iter().enumerate() {
                    ctx.set_timer(t, 60 - 10 * i as u64);
                }
            });
            Arc::new(def.build().unwrap())
        };
        let mut net = Network::new();
        let ids: Vec<_> = ["m0", "m1", "m2"]
            .into_iter()
            .map(|n| net.add_machine(mk(n)))
            .collect();
        assert_eq!(net.heap_bytes(), 0);
        assert_eq!(net.machine_by_name("m2"), Some(ids[2]));
        net.deliver(ids[2], Event::data("arm"), 0);
        assert!(net.heap_bytes() > 0, "the fifth timer spills");
        assert_eq!(net.next_timer_deadline(), Some(10));

        let mut steps = Steps::default();
        let o = net.advance_time_observed(35, &mut steps);
        assert_eq!(o.transitions, 3);
        let fired: Vec<&str> = steps.0.iter().map(|(_, e)| e.as_str()).collect();
        assert_eq!(fired, ["T5", "T4", "T3"]);
        assert_eq!(net.next_timer_deadline(), Some(40));
        assert_eq!(net.advance_time(1_000).transitions, 3);
        assert_eq!(net.next_timer_deadline(), None);
    }

    #[test]
    fn solo_network_steps_like_a_one_machine_network() {
        let def = || {
            let mut def = MachineDef::new("ctr");
            let n: Var<u64> = def.local("n");
            let idle = def.add_state("IDLE");
            let counting = def.add_state("COUNTING");
            let attack = def.add_state("ATTACK");
            def.mark_attack(attack, "burst");
            def.add_transition(idle, "pkt", counting)
                .action(move |ctx| {
                    ctx.set(n, 1);
                    ctx.set_timer("W", 100);
                });
            def.add_transition(counting, "pkt", counting)
                .predicate(move |ctx| ctx.get(n).unwrap_or(0) < 3)
                .action(move |ctx| {
                    ctx.increment(n);
                });
            def.add_transition(counting, "pkt", attack)
                .predicate(move |ctx| ctx.get(n).unwrap_or(0) >= 3);
            def.add_transition(counting, "W", idle);
            def.add_transition(attack, "*", attack);
            Arc::new(def.build().unwrap())
        };
        let mut net = Network::new();
        let id = net.add_machine(def());
        let mut solo = SoloNetwork::new(def());
        assert!(solo.is_fresh());
        // Two packets, the window expires, then a burst of five: the
        // fourth of the burst enters ATTACK and the fifth re-enters it.
        for t in [0, 10, 200, 201, 202, 203, 204] {
            let mut want = net.advance_time(t);
            want.merge(net.deliver(id, Event::data("pkt"), t));
            let mut got = solo.advance_time_observed(t, &mut NoopObserver);
            got.merge(solo.deliver_observed(Event::data("pkt"), t, &mut NoopObserver));
            assert_eq!(got, want, "at {t} ms");
            assert_eq!(solo.instance().state(), net.instance(id).state());
            assert_eq!(solo.next_timer_deadline(), net.next_timer_deadline());
            assert_eq!(solo.locals().uint("n"), net.locals(id).uint("n"));
        }
        assert!(solo.instance().is_attack(solo.definition()));
        assert!(!solo.is_fresh());
        assert_eq!(solo.heap_bytes(), 0);
    }
}
