//! The flight recorder proper: per-lane rings + alert-triggered dumps.
//!
//! A [`Recorder`] owns one [`DatagramRing`] per ingest lane: replay uses
//! one lane, `vids serve` one per receiver thread. Every method takes
//! `&self`, so receivers record concurrently through a shared reference.
//! Each lane's ring sits behind its own mutex, uncontended while one
//! thread feeds one lane; the cross-lane bookkeeping (global arrival
//! sequence, batch id, dump budget) lives in atomics touched with relaxed
//! ordering.
//!
//! The ingest tap calls [`Recorder::record`] for every datagram *before*
//! it reaches the engine — that call is allocation-free — and
//! [`Recorder::mark_batch`] once per batch the engine takes, so a dump can
//! reconstruct the engine's batch clocks. When a batch raises alerts, the
//! ingest path hands them to [`Recorder::dump_alerts`] while the engine is
//! quiescent; that freezes the window (all lanes, interleaved by the
//! global sequence number), the triggering call's machine/variable
//! snapshot and the engine counters into one `.vdump` file per alert.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use vids_core::alert::{Alert, AlertKind};
use vids_core::pool::VidsPool;
use vids_netsim::time::SimTime;
use vids_telemetry::metrics::{Counter, Gauge};
use vids_telemetry::slab::ShardSlab;

use crate::ring::{DatagramRing, RecordedClass, RingStats, SlotMeta};
use crate::vdump::{DumpCounters, RecordedPacket, Vdump};

/// Default slot capacity per ring.
pub const DEFAULT_SLOTS: usize = 4096;
/// Default payload-arena capacity per ring (4 MiB).
pub const DEFAULT_BYTES: usize = 4 << 20;
/// Default cap on dumps written over a recorder's lifetime, so a
/// pathological alert storm cannot fill the disk.
pub const DEFAULT_MAX_DUMPS: u64 = 64;

/// Aggregate statistics across every ring, plus dump accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderStats {
    /// Sum of the per-ring stats.
    pub rings: RingStats,
    /// `.vdump` files written so far.
    pub dumps_written: u64,
}

/// One ingest lane: a ring behind its own lock plus a mirror of the
/// ring's live byte count, readable without the lock.
struct Lane {
    ring: Mutex<DatagramRing>,
    bytes_live: AtomicU64,
}

/// The always-on flight recorder, shared by reference across ingest
/// threads. See the module docs for the protocol.
pub struct Recorder {
    lanes: Vec<Lane>,
    /// Next global arrival sequence number.
    seq: AtomicU64,
    /// Current ingest batch id (starts at 1; [`Recorder::mark_batch`]
    /// advances it).
    batch: AtomicU64,
    dumps_written: AtomicU64,
    max_dumps: u64,
    telemetry: Option<Arc<ShardSlab>>,
}

impl Recorder {
    /// A recorder with `lanes` rings of explicit capacity.
    pub fn new(lanes: usize, slots_per_lane: usize, bytes_per_lane: usize) -> Self {
        Recorder {
            lanes: (0..lanes.max(1))
                .map(|_| Lane {
                    ring: Mutex::new(DatagramRing::new(slots_per_lane, bytes_per_lane)),
                    bytes_live: AtomicU64::new(0),
                })
                .collect(),
            seq: AtomicU64::new(0),
            batch: AtomicU64::new(1),
            dumps_written: AtomicU64::new(0),
            max_dumps: DEFAULT_MAX_DUMPS,
            telemetry: None,
        }
    }

    /// A recorder with the default ring sizing.
    pub fn with_defaults(lanes: usize) -> Self {
        Recorder::new(lanes, DEFAULT_SLOTS, DEFAULT_BYTES)
    }

    /// Caps lifetime dump output (disk-fill guard).
    pub fn max_dumps(mut self, max: u64) -> Self {
        self.max_dumps = max;
        self
    }

    /// Mirrors ring occupancy and dump counts into a telemetry slab
    /// ([`Counter::RingOverwrites`], [`Gauge::RingBytes`],
    /// [`Counter::DumpsWritten`]).
    pub fn attach_telemetry(&mut self, slab: Arc<ShardSlab>) {
        self.telemetry = Some(slab);
    }

    /// Records one datagram into lane `lane` (clamped). Allocation-free:
    /// the payload is copied into the lane's preallocated arena under the
    /// lane's own lock, and telemetry updates are relaxed atomics.
    pub fn record(
        &self,
        lane: usize,
        at: SimTime,
        src: SocketAddr,
        dst: SocketAddr,
        class: RecordedClass,
        payload: &[u8],
    ) {
        let (class, src_ip, src_port, dst_ip, dst_port) = match (v4_parts(&src), v4_parts(&dst)) {
            (Some((si, sp)), Some((di, dp))) => (class, si, sp, di, dp),
            // Traffic the engine cannot address is recorded for the
            // window but replays as ignored, like the live path.
            _ => (RecordedClass::NonIp, 0, 0, 0, 0),
        };
        let meta = SlotMeta {
            seq: self.seq.fetch_add(1, Relaxed),
            at_ns: at.as_nanos(),
            batch: self.batch.load(Relaxed),
            src_ip,
            src_port,
            dst_ip,
            dst_port,
            class,
        };
        let lane = &self.lanes[lane % self.lanes.len()];
        let (evicted, live) = {
            let mut ring = lane.ring.lock().expect("lane ring poisoned");
            let evicted = ring.push(meta, payload);
            (evicted, ring.stats().bytes_live as u64)
        };
        lane.bytes_live.store(live, Relaxed);
        if let Some(slab) = &self.telemetry {
            slab.add(Counter::RingOverwrites, evicted);
            let total: u64 = self.lanes.iter().map(|l| l.bytes_live.load(Relaxed)).sum();
            slab.set_gauge(Gauge::RingBytes, total);
        }
    }

    /// Advances the batch id. The ingest paths call this once per batch
    /// handed to the engine, right after the engine takes it.
    pub fn mark_batch(&self) {
        self.batch.fetch_add(1, Relaxed);
    }

    /// The current capture window across all lanes, oldest → newest by
    /// global arrival order.
    pub fn window(&self) -> Vec<RecordedPacket> {
        let mut out: Vec<RecordedPacket> = Vec::new();
        for lane in &self.lanes {
            let ring = lane.ring.lock().expect("lane ring poisoned");
            out.extend(ring.iter().map(|(meta, payload)| RecordedPacket {
                meta: *meta,
                payload: payload.to_vec(),
            }));
        }
        out.sort_unstable_by_key(|p| p.meta.seq);
        out
    }

    /// Writes one `.vdump` per alert into `dir`, each freezing the current
    /// window, the triggering call's snapshot and the pool's counters. The
    /// caller must present a quiescent pool. Stops at the dump cap; returns
    /// the paths written, or the first write error.
    pub fn dump_alerts(
        &self,
        pool: &VidsPool,
        dir: &Path,
        alerts: &[Alert],
    ) -> std::io::Result<Vec<PathBuf>> {
        if alerts.is_empty() {
            return Ok(Vec::new());
        }
        let window = self.window();
        let mut written = Vec::new();
        for alert in alerts {
            match self.write_one(pool, dir, alert, &window)? {
                Some(path) => written.push(path),
                None => break, // dump cap reached
            }
        }
        Ok(written)
    }

    /// Writes one operator-requested `.vdump` of the current window (the
    /// `SIGUSR1` snapshot), under a synthetic alert labeled
    /// `operator-snapshot`. Returns `None` when the dump cap is reached.
    pub fn dump_snapshot(
        &self,
        pool: &VidsPool,
        dir: &Path,
        at: SimTime,
    ) -> std::io::Result<Option<PathBuf>> {
        let alert = Alert {
            time_ms: at.as_millis(),
            kind: AlertKind::Deviation,
            label: "operator-snapshot".into(),
            call_id: None,
            machine: "operator".into(),
            detail: "on-demand ring snapshot (SIGUSR1)".into(),
            trace: Vec::new(),
        };
        self.write_one(pool, dir, &alert, &self.window())
    }

    fn write_one(
        &self,
        pool: &VidsPool,
        dir: &Path,
        alert: &Alert,
        window: &[RecordedPacket],
    ) -> std::io::Result<Option<PathBuf>> {
        let index = self.dumps_written.load(Relaxed);
        if index >= self.max_dumps {
            return Ok(None);
        }
        let snapshot = alert
            .call_id
            .as_deref()
            .and_then(|id| pool.call_snapshot(id));
        let dump = Vdump {
            config: *pool.config(),
            tenants: pool.tenants().filter(|t| t.len() > 1).cloned(),
            // Replay enables telemetry identically, so alert traces
            // reproduce byte for byte.
            telemetry_ring: pool.telemetry_ring() as u32,
            packets: window.to_vec(),
            alert: alert.clone(),
            snapshot,
            counters: DumpCounters {
                counters: pool.counters(),
                alerts_total: pool.alerts_merged(),
            },
        };
        let path = dir.join(format!("{:06}-{}.vdump", index, sanitize(&alert.label)));
        dump.write_to(&path)?;
        self.dumps_written.store(index + 1, Relaxed);
        if let Some(slab) = &self.telemetry {
            slab.inc(Counter::DumpsWritten);
        }
        Ok(Some(path))
    }

    /// Aggregate statistics across every lane.
    pub fn stats(&self) -> RecorderStats {
        let mut rings = RingStats::default();
        for lane in &self.lanes {
            let s = lane.ring.lock().expect("lane ring poisoned").stats();
            rings.recorded += s.recorded;
            rings.overwritten += s.overwritten;
            rings.oversize += s.oversize;
            rings.bytes_live += s.bytes_live;
            rings.slots_live += s.slots_live;
        }
        RecorderStats {
            rings,
            dumps_written: self.dumps_written.load(Relaxed),
        }
    }
}

fn v4_parts(addr: &SocketAddr) -> Option<(u32, u16)> {
    match addr {
        SocketAddr::V4(v4) => Some((u32::from_be_bytes(v4.ip().octets()), v4.port())),
        SocketAddr::V6(v6) => v6
            .ip()
            .to_ipv4_mapped()
            .map(|ip| (u32::from_be_bytes(ip.octets()), v6.port())),
    }
}

fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .take(48)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vids_core::config::Config;
    use vids_core::sink::NullSink;

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::from(([10, 0, 0, last], port))
    }

    fn alert(label: &str) -> Alert {
        Alert {
            time_ms: 5,
            kind: AlertKind::Attack,
            label: label.to_owned().into(),
            call_id: None,
            machine: "flood".into(),
            detail: "".into(),
            trace: Vec::new(),
        }
    }

    #[test]
    fn lanes_share_one_global_sequence() {
        let r = Recorder::with_defaults(3);
        r.record(
            0,
            SimTime::from_millis(1),
            addr(1, 5060),
            addr(2, 5060),
            RecordedClass::Sip,
            b"a",
        );
        r.mark_batch();
        r.record(
            2,
            SimTime::from_millis(2),
            addr(1, 4000),
            addr(2, 4000),
            RecordedClass::Rtp,
            b"bb",
        );
        let w = r.window();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].meta.seq, w[0].meta.batch), (0, 1));
        assert_eq!((w[1].meta.seq, w[1].meta.batch), (1, 2));
        assert_eq!(w[0].meta.src_ip, u32::from_be_bytes([10, 0, 0, 1]));
        assert_eq!(w[1].payload, b"bb");
    }

    #[test]
    fn non_v4_traffic_is_downgraded_and_v4_mapped_keeps_its_address() {
        let r = Recorder::with_defaults(1);
        let v6: SocketAddr = "[2001:db8::1]:5060".parse().unwrap();
        let mapped: SocketAddr = "[::ffff:10.0.0.9]:5060".parse().unwrap();
        for src in [v6, mapped] {
            r.record(
                0,
                SimTime::ZERO,
                src,
                addr(2, 5060),
                RecordedClass::Sip,
                b"x",
            );
        }
        let w = r.window();
        assert_eq!(
            (w[0].meta.class, w[0].meta.src_ip),
            (RecordedClass::NonIp, 0)
        );
        assert_eq!(w[1].meta.class, RecordedClass::Sip);
        assert_eq!(w[1].meta.src_ip, u32::from_be_bytes([10, 0, 0, 9]));
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let r = Recorder::with_defaults(4);
        std::thread::scope(|scope| {
            for lane in 0..4usize {
                let r = &r;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        r.record(
                            lane,
                            SimTime::from_millis(i),
                            addr(lane as u8 + 1, 5060),
                            addr(9, 5060),
                            RecordedClass::Sip,
                            b"x",
                        );
                    }
                });
            }
        });
        let w = r.window();
        assert_eq!(w.len(), 800);
        // The global sequence is dense: every number 0..800 exactly once.
        let mut seqs: Vec<u64> = w.iter().map(|p| p.meta.seq).collect();
        seqs.sort_unstable();
        assert!(seqs.iter().enumerate().all(|(i, s)| i as u64 == *s));
    }

    #[test]
    fn dumps_write_one_file_per_alert_and_respect_the_cap() {
        let r = Recorder::with_defaults(1).max_dumps(4);
        r.record(
            0,
            SimTime::ZERO,
            addr(1, 5060),
            addr(2, 5060),
            RecordedClass::Sip,
            b"INVITE",
        );
        let mut pool = VidsPool::new(Config::default());
        pool.tick(SimTime::from_secs(1), &mut NullSink);
        let mut traced = VidsPool::new(Config::default());
        traced.enable_telemetry(128);
        let dir = std::env::temp_dir().join("vids-recorder-test");
        std::fs::remove_dir_all(&dir).ok();

        let written = r
            .dump_alerts(&pool, &dir, &[alert("one"), alert("two")])
            .unwrap();
        assert_eq!(written.len(), 2);
        assert!(written[0].ends_with("000000-one.vdump"));
        for p in &written {
            let d = Vdump::read_from(p).unwrap();
            assert_eq!(d.packets.len(), 1);
            assert_eq!(d.config, Config::default());
            assert_eq!(d.telemetry_ring, 0, "telemetry off freezes as 0");
        }
        let path = r
            .dump_snapshot(&pool, &dir, SimTime::from_secs(1))
            .unwrap()
            .expect("under the cap");
        let dump = Vdump::read_from(&path).unwrap();
        assert_eq!(dump.alert.label, "operator-snapshot");
        assert_eq!(dump.packets.len(), 1);
        // The dump freezes the ring capacity the pool's telemetry runs with.
        let written = r
            .dump_alerts(&traced, &dir, &[alert("three"), alert("four")])
            .unwrap();
        assert_eq!(written.len(), 1, "the fourth alert hits the cap");
        assert_eq!(Vdump::read_from(&written[0]).unwrap().telemetry_ring, 128);
        // At the cap an operator snapshot is declined, not an error.
        assert!(r
            .dump_snapshot(&pool, &dir, SimTime::from_secs(2))
            .unwrap()
            .is_none());
        assert_eq!(r.stats().dumps_written, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_mirrors_ring_occupancy() {
        let mut r = Recorder::new(1, 4, 64);
        let slab = Arc::new(ShardSlab::new());
        r.attach_telemetry(Arc::clone(&slab));
        for i in 0..6u8 {
            r.record(
                0,
                SimTime::from_millis(i as u64),
                addr(1, 5060),
                addr(2, 5060),
                RecordedClass::Sip,
                &[i; 20],
            );
        }
        // 64-byte arena, 20-byte payloads: at most 3 live, so overwrites
        // must have happened and the gauge tracks live bytes.
        assert!(slab.get(Counter::RingOverwrites) > 0);
        assert_eq!(
            slab.gauge(Gauge::RingBytes) as usize,
            r.stats().rings.bytes_live
        );
    }
}
