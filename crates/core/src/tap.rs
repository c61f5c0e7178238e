//! Inline deployment: vids as a [`Tap`] on the Fig. 7 topology's tap node
//! ("the online vids is located strategically between the edge router and
//! the firewall, monitoring all traffic traveling to and from both DMZ and
//! the internal network to the Internet", §2.2).

use vids_netsim::node::Tap;
use vids_netsim::packet::Packet;
use vids_netsim::time::SimTime;

use crate::alert::Alert;
use crate::config::Config;
use crate::cost::CostModel;
use crate::engine::{Vids, VidsCounters};
use crate::sink::{AlertSink, CollectSink, NullSink, Tee};

/// The inline vids monitor: observes every packet, charges the cost-model
/// hold (which the tap node applies before forwarding), and accumulates
/// alerts for post-run analysis.
pub struct VidsTap {
    vids: Vids,
    /// The testbed's record of every alert: the engine keeps none, so the
    /// tap tees what it raises into its own collector.
    log: CollectSink,
    packets_seen: u64,
    started_at: Option<SimTime>,
    last_seen: SimTime,
}

impl VidsTap {
    /// Creates an inline monitor with the default cost model.
    pub fn new(config: Config) -> Self {
        VidsTap::with_cost(config, CostModel::default())
    }

    /// Creates an inline monitor with an explicit cost model (use
    /// [`CostModel::free`] to measure pure detection without QoS impact).
    pub fn with_cost(config: Config, cost: CostModel) -> Self {
        VidsTap {
            vids: Vids::with_cost(config, cost),
            log: CollectSink::new(),
            packets_seen: 0,
            started_at: None,
            last_seen: SimTime::ZERO,
        }
    }

    /// The monitor itself (counters, fact base).
    pub fn vids(&self) -> &Vids {
        &self.vids
    }

    /// Mutable access to the engine. Alerts raised by driving it directly
    /// bypass the tap's record; flush timers through [`VidsTap::tick`].
    pub fn vids_mut(&mut self) -> &mut Vids {
        &mut self.vids
    }

    /// Enables telemetry on the wrapped engine; see
    /// [`Vids::enable_telemetry`].
    pub fn enable_telemetry(
        &mut self,
        ring_capacity: usize,
    ) -> std::sync::Arc<vids_telemetry::Registry> {
        self.vids.enable_telemetry(ring_capacity)
    }

    /// A telemetry snapshot at monitor time `now`; see
    /// [`Vids::telemetry_snapshot`].
    pub fn telemetry_snapshot(&self, now: SimTime) -> Option<vids_telemetry::Snapshot> {
        self.vids.telemetry_snapshot(now)
    }

    /// All alerts raised so far, whichever sink they were raised into.
    pub fn alerts(&self) -> &[Alert] {
        self.log.alerts()
    }

    /// Packets observed.
    pub fn packets_seen(&self) -> u64 {
        self.packets_seen
    }

    /// CPU overhead over the observed interval (§7.3's 3.6 %).
    pub fn cpu_overhead(&self) -> f64 {
        match self.started_at {
            Some(start) if self.last_seen > start => {
                self.vids.cpu_overhead(self.last_seen.saturating_sub(start))
            }
            _ => 0.0,
        }
    }
}

impl Tap for VidsTap {
    fn observe(&mut self, packet: &Packet, now: SimTime) -> SimTime {
        // Route through `process` so the observation-window bookkeeping
        // (started_at / last_seen) is identical whichever way the tap is
        // driven. Alerts stay in the tap's own record.
        self.process(packet, now, &mut NullSink);
        self.vids.cost().hold_for(packet)
    }
}

impl VidsTap {
    /// Feeds one packet observed at `now`, pushing its alerts into `sink`
    /// and the tap's own record.
    pub fn process(&mut self, packet: &Packet, now: SimTime, sink: &mut dyn AlertSink) {
        self.packets_seen += 1;
        self.started_at.get_or_insert(now);
        self.last_seen = now;
        let mut sink = Tee {
            copy: Some(&mut self.log),
            sink,
        };
        self.vids.process(packet, now, &mut sink);
    }

    /// Advances timers and evicts finished calls, pushing timer-driven
    /// alerts into `sink` and the tap's own record.
    pub fn tick(&mut self, now: SimTime, sink: &mut dyn AlertSink) {
        // Flushes timer-driven detections; the observation window stays at
        // the last packet so cpu_overhead keeps §7.3's traffic-interval
        // denominator.
        let mut sink = Tee {
            copy: Some(&mut self.log),
            sink,
        };
        self.vids.tick(now, &mut sink);
    }

    /// The engine's traffic counters.
    pub fn counters(&self) -> VidsCounters {
        self.vids.counters()
    }

    /// The engine's fact-base footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.vids.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vids_netsim::packet::{Address, Payload};

    fn sip_packet(text: &str) -> Packet {
        Packet {
            src: Address::new(10, 1, 0, 10, 5060),
            dst: Address::new(10, 2, 0, 10, 5060),
            payload: Payload::Sip(text.to_owned()),
            id: 0,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn observe_charges_the_configured_hold() {
        let mut tap = VidsTap::new(Config::default());
        let invite = "INVITE sip:bob@b.example.com SIP/2.0\r\n\
                      Via: SIP/2.0/UDP 10.1.0.10:5060;branch=z9hG4bK1\r\n\
                      From: <sip:alice@a.example.com>;tag=1\r\n\
                      To: <sip:bob@b.example.com>\r\n\
                      Call-ID: tap-1\r\nCSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n";
        let hold = tap.observe(&sip_packet(invite), SimTime::from_millis(5));
        assert_eq!(hold, CostModel::default().sip_hold);
        assert_eq!(tap.packets_seen(), 1);
        assert_eq!(tap.vids().monitored_calls(), 1);
    }

    #[test]
    fn free_model_holds_nothing() {
        let mut tap = VidsTap::with_cost(Config::default(), CostModel::free());
        let hold = tap.observe(&sip_packet("junk"), SimTime::ZERO);
        assert_eq!(hold, SimTime::ZERO);
        // Junk still produced a malformed-traffic alert.
        assert_eq!(tap.alerts().len(), 1);
    }

    #[test]
    fn cpu_overhead_reported_over_observed_window() {
        let mut tap = VidsTap::new(Config::default());
        let rtp = Packet {
            src: Address::new(10, 1, 0, 10, 20_000),
            dst: Address::new(10, 2, 0, 10, 30_000),
            payload: Payload::Rtp(
                vids_rtp::packet::RtpPacket::new(18, 1, 0, 7)
                    .with_payload(vec![0; 10])
                    .to_bytes(),
            ),
            id: 0,
            sent_at: SimTime::ZERO,
        };
        // 1000 RTP packets across 1 second of monitor time.
        for i in 0..1_000u64 {
            tap.observe(&rtp, SimTime::from_millis(i));
        }
        let overhead = tap.cpu_overhead();
        // 1000 packets × 6 µs over ~1 s ≈ 0.6 %.
        assert!((0.001..0.05).contains(&overhead), "overhead {overhead}");
    }
}
