//! Exhaustive interleaving checker for the pool's epoch-ring protocol.
//!
//! `vids_core::pool` has one threaded runtime: a `with_pipeline` session
//! publishes each batch as an *epoch* into per-shard lanes — a ring of
//! `UnsafeCell` slots guarded by three monotone counters (`tail`,
//! `drained`, `applied`) — drained by one worker per lane, with a
//! cross-lane barrier before the workers read each other's miss lists. Its
//! safety argument lives in `// SAFETY:` comments; this module turns the
//! argument into a checked artifact. The protocol is shrunk to a finite
//! world — worker program counters, the coordinator's script (room? →
//! harvest | write slot → store tail, per lane → harvest whatever is
//! finished, without waiting → … → flush → stop → join) and an explicit
//! slot-ownership ledger — and **every** interleaving of coordinator and
//! worker steps is enumerated by depth-first search with memoization.
//!
//! The decisions are not transcribed: every modeled wait or readiness
//! check calls the [`vids_core::pool::lane`] function the real
//! `pipeline_worker`, `submit`, `harvest_one` and `harvest_ready` call, so
//! if those drift the model drifts with them.
//!
//! Checked invariants:
//!
//! * **single slot ownership** — the coordinator writes or gathers a slot
//!   only while it holds it, never over an unharvested epoch; a worker
//!   drains and appends only between `tail` passing the epoch and its own
//!   `applied` store;
//! * **frozen miss lists** — a worker reads a peer's miss list only between
//!   that peer's `drained` store and the harvest;
//! * **no hang** — every reachable state has an enabled step or is the
//!   terminal "session guard dropped, every worker joined" state. The ring
//!   sleep-polls instead of parking, so a blocked thread is simply one whose
//!   awaited condition does not hold; this covers a panicking worker
//!   (poison, rethrow) and a coordinator that abandons the session with
//!   epochs in flight.
//!
//! The model assumes sequentially consistent interleavings; it checks the
//! protocol logic, not the `Acquire`/`Release` placement. Injectable bugs
//! ([`Bugs`]) exist so the test suite can prove the checker *fails* when the
//! protocol is broken in each tempting way.

use std::collections::HashMap;

use vids_core::pool::lane::{self, Step};

/// Most lanes a world may have: the state space is exponential in this.
pub const MAX_LANES: usize = 3;
/// Deepest ring a world may have.
pub const MAX_DEPTH: usize = 2;

/// Model configuration: the shrunken world the checker exhausts.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Lanes (shards, workers); at most [`MAX_LANES`].
    pub lanes: usize,
    /// Ring slots per lane; at most [`MAX_DEPTH`].
    pub depth: u64,
    /// Epochs the coordinator submits before flushing and stopping.
    pub epochs: u64,
    /// What goes wrong, if anything.
    pub fault: Fault,
    /// Injected protocol bugs — all `false` for the real protocol.
    pub bugs: Bugs,
}

/// The abnormal exits the session must survive without hanging or racing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Normal session: submit, flush, stop, join.
    None,
    /// This lane's worker panics on reaching this epoch (the poison path:
    /// peers wind down, the coordinator rethrows).
    WorkerPanics { lane: usize, epoch: u64 },
    /// The coordinator unwinds out of the session — no flush — when `epoch`
    /// has been published to `lanes` lanes (0 = between submits).
    Abandon { epoch: u64, lanes: usize },
}

/// Deliberate protocol mutations, each a way of calling the real seam
/// functions wrongly; the checker must reject every one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bugs {
    /// Store `tail` before the slot's queue is written.
    pub tail_before_write: bool,
    /// Harvest once `drained` (not `applied`) has passed the epoch.
    pub harvest_on_drained: bool,
    /// Test the ring for room against `depth + 1`.
    pub ring_full_off_by_one: bool,
    /// Read the peers' miss lists without the barrier.
    pub skip_barrier: bool,
    /// Take an epoch as finished once the first lane has finished it.
    pub ready_on_first_lane: bool,
}

impl Config {
    /// The real protocol, fault-free, at a given size.
    pub fn correct(lanes: usize, depth: u64, epochs: u64) -> Config {
        Config {
            lanes,
            depth,
            epochs,
            fault: Fault::None,
            bugs: Bugs::default(),
        }
    }
}

/// Who may touch a slot's buffers right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
enum Owner {
    #[default]
    Coordinator,
    Worker,
}

/// The ledger entry for one ring slot; initially free and the coordinator's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct Slot {
    owner: Owner,
    /// The epoch whose routed work or unharvested output the slot holds.
    holds: Option<u64>,
    /// That epoch's miss list is complete and may be read by any worker.
    frozen: bool,
}

/// A worker's program counter, mirroring `pipeline_worker`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
enum WorkerPc {
    /// Waiting on `lane::worker_observe`.
    #[default]
    Observe,
    /// Draining the slot's queue into its alert and miss lists.
    Drain,
    /// About to store `drained`, freezing the miss list.
    StoreDrained,
    /// At the barrier, waiting on this peer via `lane::barrier_observe`.
    Barrier(usize),
    /// Reading every lane's miss list, appending to the own slot.
    Apply,
    /// About to store `applied`, returning the slot.
    StoreApplied,
    /// Returned from the worker function.
    Exited,
}

/// The coordinator's program counter: `submit` per epoch, the final
/// `flush`, then the session guard's drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
enum CoordPc {
    /// Top of `submit` (of `flush` once every epoch is published): rethrow
    /// on poison, else publish, harvest for room, or finish.
    #[default]
    Pump,
    /// `harvest_one`: waiting on this lane via `lane::harvest_observe`.
    HarvestWait(usize),
    /// `harvest_one`: taking the epoch's slots back from every lane.
    Gather,
    /// `harvest_ready`, after every publish and harvest: looking at this
    /// lane via `lane::harvest_observe`, giving up (back to `Pump`) rather
    /// than waiting.
    Ready(usize),
    /// Publish: writing this lane's slot.
    Write(usize),
    /// Publish: storing this lane's `tail`.
    Tail(usize),
    /// Guard drop: storing `stop`.
    Stop,
    /// Guard drop: joining this lane's worker (enabled once it exited).
    Join(usize),
    /// `with_pipeline` returned (or finished unwinding).
    Done,
}

/// One global state of the model; the default is a session's start. Unused
/// lanes keep their initial values. A worker's current epoch is its lane's
/// `applied` count.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
struct State {
    tail: [u64; MAX_LANES],
    drained: [u64; MAX_LANES],
    applied: [u64; MAX_LANES],
    stop: bool,
    poisoned: bool,
    slots: [[Slot; MAX_DEPTH]; MAX_LANES],
    workers: [WorkerPc; MAX_LANES],
    coord: CoordPc,
    next: u64,
    harvested: u64,
}

/// A protocol violation, with the interleaving that reached it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What broke.
    pub kind: ViolationKind,
    /// The step labels from the initial state to the violation.
    pub trace: Vec<String>,
}

/// The invariant classes the checker enforces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A slot was touched by a thread that does not hold it, or written
    /// over an epoch nobody harvested.
    SlotRace {
        /// The offending lane.
        lane: usize,
        /// Which access collided.
        access: &'static str,
    },
    /// A worker read a miss list that was not frozen for its epoch.
    UnfrozenMisses {
        /// The reading worker.
        reader: usize,
        /// The lane whose list it read.
        peer: usize,
    },
    /// A non-terminal state with no enabled step: a wait nobody will ever
    /// satisfy, or a shutdown that never joins.
    Deadlock {
        /// Human-readable summary of the stuck state.
        state: String,
    },
}

/// One step taken: who moved, from which program counter.
#[derive(Debug, Clone, Copy)]
enum Move {
    Coord(CoordPc),
    Worker(usize, WorkerPc),
}

type Outcome = Result<State, ViolationKind>;

/// Enumerates every interleaving of `config` and checks all invariants,
/// returning the number of distinct states visited.
///
/// # Errors
///
/// Returns the first [`Violation`] found, with a step trace.
///
/// # Panics
///
/// Panics if the world is larger than [`MAX_LANES`] × [`MAX_DEPTH`].
pub fn explore(config: Config) -> Result<usize, Violation> {
    assert!((1..=MAX_LANES).contains(&config.lanes), "lane count");
    assert!((1..=MAX_DEPTH as u64).contains(&config.depth), "ring depth");
    let init = State::default();

    // Iterative DFS with a parent map so a violation can print the exact
    // interleaving that produced it.
    let mut index: HashMap<State, usize> = HashMap::new();
    let mut parents: Vec<(usize, Move)> = vec![(usize::MAX, Move::Coord(CoordPc::Pump))];
    let mut states: Vec<State> = vec![init.clone()];
    let mut stack: Vec<usize> = vec![0];
    index.insert(init, 0);

    while let Some(at) = stack.pop() {
        let state = states[at].clone();
        let mut steps: Vec<(Move, Outcome)> = Vec::new();
        if let Some(outcome) = coordinator_step(&config, &state) {
            steps.push((Move::Coord(state.coord), outcome));
        }
        for i in 0..config.lanes {
            if let Some(outcome) = worker_step(&config, &state, i) {
                steps.push((Move::Worker(i, state.workers[i]), outcome));
            }
        }
        let terminal = state.coord == CoordPc::Done
            && state.workers[..config.lanes]
                .iter()
                .all(|&w| w == WorkerPc::Exited);
        if steps.is_empty() && !terminal {
            return Err(Violation {
                kind: ViolationKind::Deadlock {
                    state: format!("{state:?}"),
                },
                trace: trace_to(&parents, at),
            });
        }
        for (step, outcome) in steps {
            let next = match outcome {
                Ok(next) => next,
                Err(kind) => {
                    let mut trace = trace_to(&parents, at);
                    trace.push(render(&step));
                    return Err(Violation { kind, trace });
                }
            };
            if !index.contains_key(&next) {
                let id = states.len();
                index.insert(next.clone(), id);
                states.push(next);
                parents.push((at, step));
                stack.push(id);
            }
        }
    }
    Ok(states.len())
}

fn render(step: &Move) -> String {
    match step {
        Move::Coord(pc) => format!("coord: {pc:?}"),
        Move::Worker(i, pc) => format!("worker {i}: {pc:?}"),
    }
}

fn trace_to(parents: &[(usize, Move)], mut at: usize) -> Vec<String> {
    let mut out = Vec::new();
    while at != 0 {
        let (parent, step) = &parents[at];
        out.push(render(step));
        at = *parent;
    }
    out.reverse();
    out
}

/// The coordinator's next step from `s`; `None` when it is blocked (a wait
/// whose condition does not hold, a join on a running worker) or done.
fn coordinator_step(config: &Config, s: &State) -> Option<Outcome> {
    let mut n = s.clone();
    let last_lane = config.lanes - 1;
    // The two halves of publishing one lane, in the (possibly bugged) order.
    type Half = fn(usize) -> CoordPc;
    let (first, second): (Half, Half) = if config.bugs.tail_before_write {
        (CoordPc::Tail, CoordPc::Write)
    } else {
        (CoordPc::Write, CoordPc::Tail)
    };
    let after_half = |pc: CoordPc, l: usize, n: &mut State| {
        n.coord = if pc == first(l) {
            second(l)
        } else if l < last_lane {
            first(l + 1)
        } else {
            n.next += 1;
            CoordPc::Ready(0)
        };
    };
    // The counter a harvest waits on, in the (possibly bugged) choice.
    let finished = |l: usize| {
        if config.bugs.harvest_on_drained {
            s.drained[l]
        } else {
            s.applied[l]
        }
    };
    match s.coord {
        CoordPc::Pump => {
            let depth = config.depth + u64::from(config.bugs.ring_full_off_by_one);
            n.coord = if s.poisoned {
                CoordPc::Stop // `rethrow` unwinds into the guard's drop
            } else if s.next < config.epochs {
                if lane::may_publish(s.next, s.harvested, depth) {
                    first(0)
                } else {
                    CoordPc::HarvestWait(0)
                }
            } else if s.harvested < s.next {
                CoordPc::HarvestWait(0)
            } else {
                CoordPc::Stop
            };
        }
        CoordPc::HarvestWait(l) => {
            n.coord = match lane::harvest_observe(finished(l), s.harvested, s.poisoned) {
                Step::Go if l < last_lane => CoordPc::HarvestWait(l + 1),
                Step::Go => CoordPc::Gather,
                Step::Quit => CoordPc::Stop,
                Step::Wait => return None,
            };
        }
        CoordPc::Ready(_) if s.harvested == s.next => n.coord = CoordPc::Pump,
        CoordPc::Ready(l) => {
            n.coord = match lane::harvest_observe(finished(l), s.harvested, s.poisoned) {
                Step::Go if l < last_lane && !config.bugs.ready_on_first_lane => {
                    CoordPc::Ready(l + 1)
                }
                Step::Go => CoordPc::Gather,
                Step::Quit => CoordPc::Stop,
                Step::Wait => CoordPc::Pump,
            };
        }
        CoordPc::Gather => {
            let slot = lane::slot(s.harvested, config.depth);
            for l in 0..config.lanes {
                let cell = &mut n.slots[l][slot];
                if cell.owner != Owner::Coordinator || cell.holds != Some(s.harvested) {
                    return Some(Err(ViolationKind::SlotRace {
                        lane: l,
                        access: "coordinator gathered a slot it does not hold",
                    }));
                }
                cell.holds = None;
                cell.frozen = false;
            }
            n.harvested += 1;
            n.coord = CoordPc::Ready(0);
        }
        CoordPc::Write(l) | CoordPc::Tail(l)
            if config.fault
                == (Fault::Abandon {
                    epoch: s.next,
                    lanes: l,
                })
                && s.coord == first(l) =>
        {
            n.coord = CoordPc::Stop;
        }
        CoordPc::Write(l) => {
            let cell = &mut n.slots[l][lane::slot(s.next, config.depth)];
            if cell.owner != Owner::Coordinator || cell.holds.is_some() {
                return Some(Err(ViolationKind::SlotRace {
                    lane: l,
                    access: "coordinator wrote a slot it does not hold, or an unharvested one",
                }));
            }
            cell.holds = Some(s.next);
            after_half(s.coord, l, &mut n);
        }
        CoordPc::Tail(l) => {
            n.tail[l] = s.next + 1;
            n.slots[l][lane::slot(s.next, config.depth)].owner = Owner::Worker;
            after_half(s.coord, l, &mut n);
        }
        CoordPc::Stop => {
            n.stop = true;
            n.coord = CoordPc::Join(0);
        }
        CoordPc::Join(l) => {
            if s.workers[l] != WorkerPc::Exited {
                return None;
            }
            n.coord = if l < last_lane {
                CoordPc::Join(l + 1)
            } else {
                CoordPc::Done
            };
        }
        CoordPc::Done => return None,
    }
    Some(Ok(n))
}

/// Worker `i`'s next step from `s`; `None` when it is blocked or has exited.
fn worker_step(config: &Config, s: &State, i: usize) -> Option<Outcome> {
    let mut n = s.clone();
    let epoch = s.applied[i];
    let slot = lane::slot(epoch, config.depth);
    let holds_slot = |s: &State| {
        let cell = s.slots[i][slot];
        cell.owner == Owner::Worker && cell.holds == Some(epoch)
    };
    let race = |access| Some(Err(ViolationKind::SlotRace { lane: i, access }));
    n.workers[i] = match s.workers[i] {
        WorkerPc::Observe => match lane::worker_observe(s.poisoned, s.tail[i], s.stop, epoch) {
            Step::Go => WorkerPc::Drain,
            Step::Quit => WorkerPc::Exited,
            Step::Wait => return None,
        },
        WorkerPc::Drain => {
            let panics = Fault::WorkerPanics { lane: i, epoch };
            if config.fault == panics {
                n.poisoned = true;
                WorkerPc::Exited
            } else if !holds_slot(s) {
                return race("worker drained a slot it does not hold");
            } else {
                WorkerPc::StoreDrained
            }
        }
        WorkerPc::StoreDrained => {
            n.drained[i] = epoch + 1;
            n.slots[i][slot].frozen = true;
            if config.bugs.skip_barrier {
                WorkerPc::Apply
            } else {
                WorkerPc::Barrier(0)
            }
        }
        WorkerPc::Barrier(peer) => {
            match lane::barrier_observe(s.drained[peer], epoch, s.poisoned || s.stop) {
                Step::Go if peer + 1 < config.lanes => WorkerPc::Barrier(peer + 1),
                Step::Go => WorkerPc::Apply,
                Step::Quit => {
                    n.poisoned = true; // the barrier panic is caught like any other
                    WorkerPc::Exited
                }
                Step::Wait => return None,
            }
        }
        WorkerPc::Apply => {
            if !holds_slot(s) {
                return race("slot changed hands while its worker was appending");
            }
            for peer in 0..config.lanes {
                let cell = s.slots[peer][slot];
                if cell.holds != Some(epoch) || !cell.frozen {
                    return Some(Err(ViolationKind::UnfrozenMisses { reader: i, peer }));
                }
            }
            WorkerPc::StoreApplied
        }
        WorkerPc::StoreApplied => {
            n.applied[i] = epoch + 1;
            n.slots[i][slot].owner = Owner::Coordinator;
            WorkerPc::Observe
        }
        WorkerPc::Exited => return None,
    };
    Some(Ok(n))
}
