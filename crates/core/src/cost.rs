//! The processing-cost model (§7.2–§7.4).
//!
//! The paper measures vids on a Sun Ultra 10 (333 MHz): ≈100 ms added to
//! call setup (dominated by per-message logging "at the granularity of a
//! millisecond", §7.3), ≈1.5 ms added to each RTP packet, and 3.6 % CPU
//! overhead. The reproduction separates the two effects:
//!
//! * **hold time** — how long a packet is delayed at the inline monitor
//!   before being forwarded (drives Figs. 9 and 10);
//! * **CPU time** — how much processor the packet consumes (drives the
//!   §7.3 overhead number).
//!
//! Both are configurable; the defaults are calibrated so the Fig. 7
//! workload reproduces the paper's three headline numbers. A call setup
//! crosses the monitor twice (INVITE in, 180 back), so the 50 ms default
//! SIP hold yields the paper's ≈100 ms setup penalty.

use vids_netsim::packet::{Packet, Payload};
use vids_netsim::time::SimTime;

use crate::classify::Classified;

/// Per-packet cost parameters of the inline monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Forwarding hold per SIP message (parse + state step + ms-granularity
    /// logging on 2006 hardware).
    pub sip_hold: SimTime,
    /// Forwarding hold per RTP packet.
    pub rtp_hold: SimTime,
    /// CPU consumed per SIP message.
    pub sip_cpu: SimTime,
    /// CPU consumed per RTP packet.
    pub rtp_cpu: SimTime,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            sip_hold: SimTime::from_millis(50),
            rtp_hold: SimTime::from_micros(1_500),
            sip_cpu: SimTime::from_micros(500),
            // 9 µs per RTP packet ≈ 3.6 % CPU at the testbed's ~20
            // concurrent G.729 calls (4000 packets/s through the monitor).
            rtp_cpu: SimTime::from_micros(9),
        }
    }
}

impl CostModel {
    /// A zero-cost model: the passive baseline ("without vids").
    pub fn free() -> Self {
        CostModel {
            sip_hold: SimTime::ZERO,
            rtp_hold: SimTime::ZERO,
            sip_cpu: SimTime::ZERO,
            rtp_cpu: SimTime::ZERO,
        }
    }

    /// The forwarding hold for a packet.
    pub fn hold_for(&self, packet: &Packet) -> SimTime {
        match packet.payload {
            Payload::Sip(_) => self.sip_hold,
            Payload::Rtp(_) => self.rtp_hold,
            Payload::Raw(_) => SimTime::ZERO,
        }
    }

    /// The CPU time a classified datagram consumes: malformed traffic is
    /// charged as the protocol the demux took it for, unmonitored traffic
    /// is free.
    pub fn cpu_for_classified(&self, c: &Classified) -> SimTime {
        match c {
            Classified::Sip { .. } => self.sip_cpu,
            Classified::Rtp { .. } => self.rtp_cpu,
            Classified::Malformed { protocol, .. } => {
                if *protocol == "SIP" {
                    self.sip_cpu
                } else {
                    self.rtp_cpu
                }
            }
            Classified::Ignored => SimTime::ZERO,
        }
    }
}

/// Accumulates CPU busy time to report the §7.3 overhead percentage.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuAccount {
    busy: SimTime,
}

impl CpuAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        CpuAccount::default()
    }

    /// Charges CPU time.
    pub fn charge(&mut self, t: SimTime) {
        self.busy += t;
    }

    /// Total busy time.
    pub fn busy(&self) -> SimTime {
        self.busy
    }

    /// Busy fraction over an elapsed interval (the paper's "increase of CPU
    /// overhead due to running vids").
    pub fn overhead_fraction(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vids_netsim::packet::Address;

    fn pkt(payload: Payload) -> Packet {
        Packet {
            src: Address::default(),
            dst: Address::default(),
            payload,
            id: 0,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn default_holds_match_paper_calibration() {
        let m = CostModel::default();
        // Two SIP crossings during setup: ≈100 ms (paper Fig. 9).
        assert_eq!(
            m.hold_for(&pkt(Payload::Sip("x".into()))) + m.hold_for(&pkt(Payload::Sip("y".into()))),
            SimTime::from_millis(100)
        );
        // RTP: 1.5 ms (paper Fig. 10).
        assert_eq!(
            m.hold_for(&pkt(Payload::Rtp(vec![0]))),
            SimTime::from_micros(1_500)
        );
        assert_eq!(m.hold_for(&pkt(Payload::Raw(vec![0]))), SimTime::ZERO);
    }

    #[test]
    fn cpu_overhead_of_testbed_workload_is_close_to_paper() {
        // ~20 concurrent G.729 calls = 4000 RTP packets/s through the
        // monitor plus a trickle of SIP.
        let m = CostModel::default();
        let mut acct = CpuAccount::new();
        for _ in 0..4_000 {
            acct.charge(m.rtp_cpu);
        }
        for _ in 0..10 {
            acct.charge(m.sip_cpu);
        }
        let overhead = acct.overhead_fraction(SimTime::from_secs(1));
        assert!(
            (0.025..0.05).contains(&overhead),
            "modeled CPU overhead {overhead} vs paper 3.6 %"
        );
    }

    #[test]
    fn free_model_costs_nothing() {
        let m = CostModel::free();
        assert_eq!(m.hold_for(&pkt(Payload::Sip("x".into()))), SimTime::ZERO);
        let rtp = Classified::Malformed {
            protocol: "RTP",
            reason: "",
        };
        assert_eq!(m.cpu_for_classified(&rtp), SimTime::ZERO);
    }

    #[test]
    fn overhead_fraction_handles_zero_elapsed() {
        let acct = CpuAccount::new();
        assert_eq!(acct.overhead_fraction(SimTime::ZERO), 0.0);
    }
}
