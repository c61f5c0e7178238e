//! The counter-plus-window pattern of Fig. 4.
//!
//! "On sniffing the first INVITE request … the state machine makes a
//! transition from the (INIT) state to the intermediate state (Packet Rcvd)
//! … It also starts a counter (pck_counter) to count the received INVITE
//! messages for the same destination within a certain amount of time (T1).
//! … If there is a sudden surge of INVITE requests that exceeds the
//! threshold N, it is a strong indication of a flooding attack."
//!
//! The same machine shape, instantiated with a different event name and
//! label, detects DRDoS response floods (§3.1) — a victim being swamped
//! with responses that belong to no monitored call.

use vids_efsm::machine::MachineDef;
use vids_efsm::{sym, Var};

use crate::alert::labels;
use crate::config::Config;

/// Timer name for the counting window (Fig. 4's T1).
pub const TIMER_T1: &str = "T1";

/// Builds a per-destination window-counter machine: more than `n` events
/// named `event_name` within `window_ms` drives the machine into an attack
/// state labelled `label`.
pub fn window_counter_machine(
    machine_name: &str,
    event_name: &str,
    n: u64,
    window_ms: u64,
    label: &str,
) -> MachineDef {
    let mut def = MachineDef::new(machine_name);
    let counter: Var<u64> = def.local(sym::PCK_COUNTER);
    let init = def.add_state("INIT");
    let counting = def.add_state("PACKET_RCVD");
    let attack = def.add_state("FLOOD_DETECTED");
    def.mark_attack(attack, label);

    // First event: start the counter and the T1 window.
    def.add_transition(init, event_name, counting)
        .action(move |ctx| {
            ctx.set(counter, 1);
            ctx.set_timer(TIMER_T1, window_ms);
        })
        .label("window opened");

    // Within the window and under the threshold: count.
    def.add_transition(counting, event_name, counting)
        .predicate(move |ctx| ctx.get(counter).unwrap_or(0) < n)
        .action(move |ctx| {
            ctx.increment(counter);
        })
        .label("counting");

    // Threshold crossed within the window: attack.
    def.add_transition(counting, event_name, attack)
        .predicate(move |ctx| ctx.get(counter).unwrap_or(0) + 1 > n)
        .label("threshold N exceeded within T1");

    // Window expired: back to INIT with no counter and no timer, a machine
    // equal to a fresh one — which is what lets the fact base drop the
    // destination's record at the sweep that fires T1 (the next event
    // opens a fresh window).
    def.add_transition(counting, TIMER_T1, init)
        .action(move |ctx| {
            ctx.remove(counter);
        })
        .label("window expired");

    // After detection: absorb. Idle windows end, attack states do not:
    // nothing re-arms the machine — no engine or operator path resets it —
    // so a destination flooded once keeps its record in this state, and
    // the engine's dedup set keeps it silent, for the life of the process.
    // Re-arming after a stated interval is ROADMAP item 3c.
    def.add_transition(attack, "*", attack);

    // Predicates partition on the counter value; verified by the busy-call
    // determinism test and the debug-build exhaustive scan.
    def.declare_deterministic();
    def.build().expect("flood machine definition is valid")
}

/// The INVITE-flooding machine of Fig. 4 for one destination.
pub fn invite_flood_machine(config: &Config) -> MachineDef {
    window_counter_machine(
        "flood",
        "SIP.INVITE",
        config.invite_flood_n,
        config.invite_flood_t1.as_millis(),
        labels::INVITE_FLOOD,
    )
}

/// The DRDoS response-flood machine for one destination. Fed with the
/// synthetic `SIP.response.unassociated` event the engine emits for
/// responses that match no monitored call.
pub fn response_flood_machine(config: &Config) -> MachineDef {
    window_counter_machine(
        "response-flood",
        "SIP.response.unassociated",
        config.response_flood_n,
        config.response_flood_window.as_millis(),
        labels::RESPONSE_FLOOD,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vids_efsm::network::{Network, SoloNetwork};
    use vids_efsm::Event;

    fn flood_net(n: u64, window: u64) -> (Network, vids_efsm::network::MachineId) {
        let def = Arc::new(window_counter_machine(
            "flood",
            "SIP.INVITE",
            n,
            window,
            "flood",
        ));
        let mut net = Network::new();
        let id = net.add_machine(def);
        (net, id)
    }

    #[test]
    fn surge_within_window_detected_at_n_plus_one() {
        let (mut net, id) = flood_net(5, 1_000);
        for i in 0..5u64 {
            let out = net.deliver(id, Event::data("SIP.INVITE"), i * 10);
            assert!(out.alerts.is_empty(), "INVITE {i} under threshold");
        }
        let out = net.deliver(id, Event::data("SIP.INVITE"), 60);
        assert_eq!(out.alerts.len(), 1);
        assert_eq!(out.alerts[0].label, "flood");
    }

    #[test]
    fn slow_arrivals_never_alert() {
        let (mut net, id) = flood_net(5, 1_000);
        // 3 per window for many windows.
        let mut t = 0u64;
        for _ in 0..10 {
            for _ in 0..3 {
                net.advance_time(t);
                let out = net.deliver(id, Event::data("SIP.INVITE"), t);
                assert!(out.alerts.is_empty());
                t += 100;
            }
            t += 1_000; // let T1 expire
        }
    }

    #[test]
    fn window_expiry_resets_counter() {
        let (mut net, id) = flood_net(5, 1_000);
        for i in 0..5u64 {
            net.deliver(id, Event::data("SIP.INVITE"), i);
        }
        // Window expires: the counter goes with it.
        net.advance_time(1_100);
        assert_eq!(net.instance(id).state_name(net.definition(id)), "INIT");
        assert_eq!(net.locals(id).uint(sym::PCK_COUNTER), None);
        assert_eq!(net.next_timer_deadline(), None);
        // Fresh window: another 5 are fine again.
        for i in 0..5u64 {
            let out = net.deliver(id, Event::data("SIP.INVITE"), 2_000 + i);
            assert!(out.alerts.is_empty());
        }
    }

    #[test]
    fn an_expired_window_is_a_fresh_machine_and_an_attack_is_not() {
        let def = Arc::new(window_counter_machine(
            "flood",
            "SIP.INVITE",
            2,
            1_000,
            "flood",
        ));
        let mut obs = vids_efsm::NoopObserver;
        let mut solo = SoloNetwork::new(Arc::clone(&def));
        assert!(solo.is_fresh());
        solo.deliver_observed(Event::data("SIP.INVITE"), 0, &mut obs);
        assert!(!solo.is_fresh(), "a window is open");
        solo.advance_time_observed(1_000, &mut obs);
        assert!(solo.is_fresh(), "T1 closed the window");

        // Past the threshold the machine absorbs; T1 still fires there, but
        // the destination stays flagged.
        for t in 0..3 {
            solo.deliver_observed(Event::data("SIP.INVITE"), 2_000 + t, &mut obs);
        }
        solo.advance_time_observed(5_000, &mut obs);
        assert!(solo.instance().is_attack(&def));
        assert_eq!(solo.next_timer_deadline(), None);
        assert!(!solo.is_fresh());
    }

    #[test]
    fn detection_delay_tracks_attack_rate() {
        // §7.5: detection sensitivity — a faster flood is detected sooner.
        let measure = |gap_ms: u64| -> u64 {
            let (mut net, id) = flood_net(10, 10_000);
            let mut t = 0;
            loop {
                let out = net.deliver(id, Event::data("SIP.INVITE"), t);
                if !out.alerts.is_empty() {
                    return t;
                }
                t += gap_ms;
            }
        };
        let fast = measure(5);
        let slow = measure(50);
        assert!(fast < slow, "fast {fast} ms vs slow {slow} ms");
        assert_eq!(fast, 50); // 11th INVITE at 10 × 5 ms
        assert_eq!(slow, 500);
    }
}
