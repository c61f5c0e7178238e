//! Exhaustive interleaving check of the pool's epoch-ring protocol.
//!
//! The model in `vids_harness::model` drives the *real* decision functions
//! (`vids_core::pool::lane::{may_publish, worker_observe, barrier_observe,
//! harvest_observe, slot}`) through every reachable interleaving of a
//! shrunken world — up to 3 lanes, ring depth up to 2, up to 3 epochs, with
//! a panicking worker and with a coordinator that abandons the session
//! mid-epoch — and asserts the safety properties the `UnsafeCell` slots
//! depend on:
//!
//! * single slot ownership (coordinator and worker never touch one slot's
//!   buffers concurrently, and no unharvested epoch is overwritten);
//! * miss lists are read only while frozen;
//! * every schedule terminates with every worker joined — deadlock-free,
//!   including over a poisoned or abandoned session.
//!
//! The negative tests flip one protocol knob at a time and assert the
//! checker *catches* the injected bug — otherwise a green sweep would
//! prove nothing about the checker's discriminating power.

use vids_harness::model::{explore, Bugs, Config, Fault, ViolationKind};

fn must_pass(config: Config) -> usize {
    let states = explore(config).unwrap_or_else(|v| {
        let trace = v.trace.join("\n  ");
        panic!(
            "correct protocol, {config:?}: {:?}\ntrace:\n  {trace}",
            v.kind
        )
    });
    eprintln!("{config:?}: {states} states");
    states
}

#[test]
fn correct_protocol_is_exhaustively_safe() {
    let mut worlds = 0usize;
    let mut total_states = 0usize;
    for lanes in 1..=3usize {
        for depth in 1..=2u64 {
            for epochs in 0..=3u64 {
                total_states += must_pass(Config::correct(lanes, depth, epochs));
                worlds += 1;
            }
        }
    }
    eprintln!("checked {worlds} worlds, {total_states} distinct states total");
    assert!(worlds >= 24, "sweep shrank: only {worlds} worlds checked");
}

#[test]
fn panicking_worker_poisons_and_everyone_still_joins() {
    for lanes in 1..=3usize {
        for lane in 0..lanes {
            for epoch in 0..3u64 {
                must_pass(Config {
                    fault: Fault::WorkerPanics { lane, epoch },
                    ..Config::correct(lanes, 2, 3)
                });
            }
        }
    }
}

#[test]
fn abandoned_session_stops_mid_epoch_and_still_joins() {
    // The coordinator unwinds with epochs in flight — between submits
    // (`lanes: 0`) and with an epoch published to only some lanes.
    for lanes in 1..=3usize {
        for epoch in 0..3u64 {
            for published in 0..lanes {
                must_pass(Config {
                    fault: Fault::Abandon {
                        epoch,
                        lanes: published,
                    },
                    ..Config::correct(lanes, 2, 3)
                });
            }
        }
    }
}

/// Flips one protocol knob at a time; the checker must report the matching
/// violation, with the interleaving that reaches it.
#[test]
fn checker_catches_every_injected_bug() {
    let on = Bugs::default;
    let slot_race = |k: &ViolationKind| matches!(k, ViolationKind::SlotRace { .. });
    let unfrozen = |k: &ViolationKind| matches!(k, ViolationKind::UnfrozenMisses { .. });
    type Case = (Bugs, usize, u64, fn(&ViolationKind) -> bool);
    let cases: [Case; 5] = [
        // Storing `tail` first hands the worker a slot the coordinator is
        // still writing into.
        (
            Bugs {
                tail_before_write: true,
                ..on()
            },
            1,
            1,
            slot_race,
        ),
        // `drained` only freezes the miss list; the worker is still
        // appending its DRDoS counts to the slot's alerts until `applied`.
        (
            Bugs {
                harvest_on_drained: true,
                ..on()
            },
            1,
            1,
            slot_race,
        ),
        // Publishing epoch `depth` while epoch 0 is unharvested reuses its
        // slot: needs more epochs than the ring is deep.
        (
            Bugs {
                ring_full_off_by_one: true,
                ..on()
            },
            1,
            3,
            slot_race,
        ),
        // Without the barrier a fast worker reads a slow peer's miss list
        // while the peer is still draining into it: needs two lanes.
        (
            Bugs {
                skip_barrier: true,
                ..on()
            },
            2,
            1,
            unfrozen,
        ),
        // The harvest after a submit must not wait, but it must still see
        // every lane finished: gathering on the first lane's word takes a
        // slot back from a peer worker still holding it. Needs two lanes.
        (
            Bugs {
                ready_on_first_lane: true,
                ..on()
            },
            2,
            1,
            slot_race,
        ),
    ];
    for (bugs, lanes, epochs, expected) in cases {
        let config = Config {
            bugs,
            ..Config::correct(lanes, 2, epochs)
        };
        let v = match explore(config) {
            Ok(states) => panic!("checker missed {bugs:?}: {states} states, all green"),
            Err(v) => v,
        };
        eprintln!(
            "caught {bugs:?} after {} steps: {:?}",
            v.trace.len(),
            v.kind
        );
        assert!(expected(&v.kind), "{bugs:?} reported as {:?}", v.kind);
        assert!(!v.trace.is_empty());
    }
}
