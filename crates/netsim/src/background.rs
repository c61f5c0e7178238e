//! Background (non-VoIP) cross-traffic.
//!
//! The paper's opening observation is that VoIP "shares the network
//! resources with the regular Internet traffic". This module provides a
//! bulk-traffic application that loads the shared DS1/cloud path with raw
//! datagrams, creating the serialization queueing that gives RTP streams
//! their jitter — and letting experiments dial contention up and down.

use crate::node::{AppCtx, Application};
use crate::packet::{Address, Packet, Payload};
use crate::time::SimTime;
use crate::workload::exponential;

/// The port bulk datagrams leave from.
const DISCARD_PORT: u16 = 9;

/// Parameters of one background traffic source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackgroundSpec {
    /// Destination of the bulk flow.
    pub sink: Address,
    /// Mean offered load in bits per second.
    pub mean_bps: u64,
    /// Datagram payload size in bytes.
    pub packet_bytes: usize,
    /// When to start sending.
    pub start: SimTime,
    /// When to stop.
    pub stop: SimTime,
}

impl BackgroundSpec {
    /// A flow loading roughly `fraction` of a DS1 link (1.544 Mbit/s).
    pub fn ds1_fraction(sink: Address, fraction: f64, start: SimTime, stop: SimTime) -> Self {
        BackgroundSpec {
            sink,
            mean_bps: (1_544_000.0 * fraction) as u64,
            packet_bytes: 512,
            start,
            stop,
        }
    }
}

/// An application generating Poisson bulk traffic toward a sink.
///
/// Inter-departure gaps are exponential, so the offered load is `mean_bps`
/// on average with realistic burstiness.
pub struct BackgroundSource {
    spec: BackgroundSpec,
    sent_packets: u64,
    sent_bytes: u64,
}

impl BackgroundSource {
    /// Creates a source from its spec.
    pub fn new(spec: BackgroundSpec) -> Self {
        BackgroundSource {
            spec,
            sent_packets: 0,
            sent_bytes: 0,
        }
    }

    /// Packets sent so far.
    pub fn sent_packets(&self) -> u64 {
        self.sent_packets
    }

    /// Payload bytes sent so far.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    fn mean_gap_secs(&self) -> f64 {
        let bits_per_packet = (self.spec.packet_bytes + crate::packet::UDP_IP_OVERHEAD) * 8;
        bits_per_packet as f64 / self.spec.mean_bps as f64
    }

    fn schedule_next(&self, ctx: &mut AppCtx<'_, '_>) {
        let gap = exponential(ctx.rng(), self.mean_gap_secs());
        ctx.set_timer(SimTime::from_secs_f64(gap), 0);
    }
}

impl Application for BackgroundSource {
    fn on_start(&mut self, ctx: &mut AppCtx<'_, '_>) {
        let delay = self.spec.start.saturating_sub(ctx.now());
        ctx.set_timer(delay, 0);
    }

    fn on_datagram(&mut self, _packet: &Packet, _ctx: &mut AppCtx<'_, '_>) {
        // Bulk sinks discard; sources ignore replies.
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut AppCtx<'_, '_>) {
        if ctx.now() >= self.spec.stop {
            return;
        }
        if ctx.now() >= self.spec.start {
            let size = self.spec.packet_bytes;
            // Neither signaling nor media to a monitor that reads the
            // bytes: zeros (no RTP version), sent from the discard port
            // (RFC 863) rather than the host's SIP port.
            let payload = Payload::Raw(vec![0; size]);
            ctx.send_from_port(DISCARD_PORT, self.spec.sink, payload);
            self.sent_packets += 1;
            self.sent_bytes += size as u64;
        }
        self.schedule_next(ctx);
    }
}

/// A sink that counts what reaches it (attach anywhere).
#[derive(Debug, Default)]
pub struct BackgroundSink {
    received: u64,
}

impl BackgroundSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        BackgroundSink::default()
    }

    /// Datagrams received.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Application for BackgroundSink {
    fn on_datagram(&mut self, _packet: &Packet, _ctx: &mut AppCtx<'_, '_>) {
        self.received += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LinkSpec, Simulator};
    use crate::node::{Host, Hub};

    fn world(
        spec: BackgroundSpec,
        src_addr: Address,
        sink_addr: Address,
    ) -> (Simulator, crate::engine::NodeId, crate::engine::NodeId) {
        let mut sim = Simulator::new(5);
        let hub = sim.add_node(Box::new(Hub::new()));
        let lan = LinkSpec::lan_100base_t();
        let src = sim.add_node(Box::new(Host::new(
            src_addr,
            Box::new(BackgroundSource::new(spec)),
        )));
        let (su, sd) = sim.add_duplex_link(src, hub, lan);
        sim.node_as_mut::<Host>(src).set_uplink(su);
        sim.node_as_mut::<Hub>(hub).add_port(src_addr.ip, sd);
        let sink = sim.add_node(Box::new(Host::new(
            sink_addr,
            Box::new(BackgroundSink::new()),
        )));
        let (ku, kd) = sim.add_duplex_link(sink, hub, lan);
        sim.node_as_mut::<Host>(sink).set_uplink(ku);
        sim.node_as_mut::<Hub>(hub).add_port(sink_addr.ip, kd);
        (sim, src, sink)
    }

    #[test]
    fn offered_load_is_roughly_the_spec() {
        let sink_addr = Address::new(10, 1, 0, 2, 9);
        let spec = BackgroundSpec {
            sink: sink_addr,
            mean_bps: 400_000,
            packet_bytes: 500,
            start: SimTime::ZERO,
            stop: SimTime::from_secs(20),
        };
        let (mut sim, src, sink) = world(spec, Address::new(10, 1, 0, 1, 9), sink_addr);
        sim.run_until(SimTime::from_secs(21));
        let sent = sim
            .node_as::<Host>(src)
            .app_as::<BackgroundSource>()
            .sent_bytes();
        let bps = (sent
            + sim
                .node_as::<Host>(src)
                .app_as::<BackgroundSource>()
                .sent_packets()
                * 28) as f64
            * 8.0
            / 20.0;
        assert!((300_000.0..500_000.0).contains(&bps), "offered {bps} bps");
        let received = sim
            .node_as::<Host>(sink)
            .app_as::<BackgroundSink>()
            .received();
        assert!(received > 0);
    }

    #[test]
    fn respects_start_and_stop_window() {
        let sink_addr = Address::new(10, 1, 0, 2, 9);
        let spec = BackgroundSpec {
            sink: sink_addr,
            mean_bps: 1_000_000,
            packet_bytes: 500,
            start: SimTime::from_secs(5),
            stop: SimTime::from_secs(6),
        };
        let (mut sim, src, _) = world(spec, Address::new(10, 1, 0, 1, 9), sink_addr);
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(
            sim.node_as::<Host>(src)
                .app_as::<BackgroundSource>()
                .sent_packets(),
            0
        );
        sim.run_until(SimTime::from_secs(10));
        let sent = sim
            .node_as::<Host>(src)
            .app_as::<BackgroundSource>()
            .sent_packets();
        // ~1 s at 1 Mbit/s of 528-byte datagrams ≈ 236 packets.
        assert!((100..400).contains(&sent), "sent {sent}");
    }

    #[test]
    fn ds1_fraction_helper() {
        let spec = BackgroundSpec::ds1_fraction(
            Address::default(),
            0.5,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        assert_eq!(spec.mean_bps, 772_000);
    }
}
