//! Offline replay: run a capture through the engine at full speed.
//!
//! Replay drives the exact pipeline the live daemon uses — pcap record →
//! UDP frame → demux → [`classify_datagram`] → the engine — with the
//! capture's own timestamps standing in for the wall clock. Because the
//! pool's batched merge is chunking-invariant, the alerts and counters
//! from a replay are byte-identical to what an in-process run over the
//! same traffic produces (`tests/replay_differential.rs` in the root
//! crate holds this at 1, 4 and 8 shards).
//!
//! One loop serves every thread count. It cuts the capture into
//! batches of `flush_packets` datagrams in capture order. At one thread
//! it classifies each batch inline and hands it to
//! [`VidsPool::process_wire_batch`]. At more, classifier threads classify
//! the batches in parallel and the calling thread re-sequences them into
//! the engine's pipelined ingest ([`VidsPool::with_pipeline`]), so the
//! output stays byte-identical to the single-thread run.
//!
//! An optional [`RecordTap`] mirrors every datagram into the flight
//! recorder just before the engine takes its batch, and dumps the
//! captured window for the alerts each batch (or the final timer sweep)
//! raised.

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};

use vids_core::classify::Classified;
use vids_core::pool::{PipelineIngress, PreRouted, VidsPool, WireEvent};
use vids_core::sink::AlertSink;
use vids_core::telemetry::{Counter, Registry, ShardSlab};
use vids_netsim::time::SimTime;

use crate::datagram::Datagram;
use crate::demux::{classify_datagram, demux, WireClass};
use crate::pcap::PcapReader;
use crate::record_tap::{recorded_class, teed, RecordTap};
use crate::source::IngestError;

/// What a replay processed: the pool slab's counts across the call, so a
/// pool that replays twice reports each capture on its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayReport {
    /// UDP datagrams decoded from the capture.
    pub datagrams: u64,
    /// Datagrams that demultiplexed to [`WireClass::Unknown`].
    pub demux_unknown: u64,
    /// Plain-IPv6 datagrams dropped because the engine models IPv4 only.
    pub datagrams_ipv6: u64,
    /// Batches handed to the engine.
    pub batches: u64,
    /// Timestamp of the last datagram (capture clock).
    pub last_at: SimTime,
}

/// Replays classic pcap capture bytes (see [`crate::pcap::PcapReader`]
/// for the supported formats) on the calling thread:
/// [`replay_pcap_parallel`] at one thread. `telemetry` is redundant, as
/// there.
pub fn replay_pcap<S: AlertSink + ?Sized>(
    capture: Vec<u8>,
    pool: &mut VidsPool,
    flush_packets: usize,
    telemetry: Option<&Registry>,
    tap: Option<&mut RecordTap<'_>>,
    sink: &mut S,
) -> Result<ReplayReport, IngestError> {
    replay_pcap_parallel(capture, pool, flush_packets, 1, telemetry, tap, sink)
}

/// Replays classic pcap capture bytes with `threads` classifier threads.
///
/// `threads <= 1` classifies inline and feeds
/// [`VidsPool::process_wire_batch`]; it opens no pipeline session, spawns
/// no thread and, dumps aside, allocates nothing per batch. Above that, the
/// classifier
/// threads demux, parse and shard-hash batches in parallel while the
/// calling thread decodes pcap records and drives the pipeline, so shard
/// workers overlap with the classification of later batches. Completed
/// batches are submitted strictly in capture order, so alerts, counters
/// and report are **byte-identical** across thread counts at the same
/// `flush_packets`.
///
/// With a [`RecordTap`], datagrams are recorded on the calling thread just
/// before their batch reaches the engine, so every thread count leaves
/// the same recorder layout (global sequence, batch ids). When the tap
/// has a dump directory, each dump freezes window and counters at the
/// alert's own batch; at more than one thread the replay therefore drains
/// the pipeline after every batch — classification stays parallel, only
/// the engine-side overlap is given up.
///
/// The replay counts datagrams, demux misses and IPv6 drops into the pool
/// slab of [`VidsPool::registry`]; `telemetry` is redundant, kept only for
/// existing callers (ROADMAP item 12 deletes it).
pub fn replay_pcap_parallel<S: AlertSink + ?Sized>(
    capture: Vec<u8>,
    pool: &mut VidsPool,
    flush_packets: usize,
    threads: usize,
    _telemetry: Option<&Registry>,
    tap: Option<&mut RecordTap<'_>>,
    sink: &mut S,
) -> Result<ReplayReport, IngestError> {
    let registry = Arc::clone(pool.registry());
    let before = registry.pool().counts();
    let mut run = Run {
        reader: PcapReader::new(&capture)?,
        flush_packets: flush_packets.max(1),
        slab: registry.pool(),
        last_at: SimTime::ZERO,
        tap,
    };
    if threads <= 1 {
        run.inline(pool, sink)?;
    } else {
        pool.with_pipeline(|p| {
            let fanned = run.fanned_out(p, threads, sink);
            // Batches a capture error left in flight still reach the sink:
            // the pool keeps no alert.
            p.flush(&mut teed(&mut run.tap, sink));
            fanned
        })?;
    }
    let end = run.last_at + pool.config().replay_grace;
    pool.tick(end, &mut teed(&mut run.tap, sink));
    run.dump(pool);
    let count = |c: Counter| run.slab.get(c) - before[c as usize];
    Ok(ReplayReport {
        datagrams: count(Counter::DatagramsRx),
        demux_unknown: count(Counter::DemuxUnknown),
        datagrams_ipv6: count(Counter::DatagramsIpv6),
        batches: count(Counter::BatchesIngested),
        last_at: run.last_at,
    })
}

/// A batch back from a classifier thread: its position in capture order,
/// the datagrams and their engine events.
type Done<'c> = (u64, Vec<Datagram<'c>>, Vec<PreRouted>);

/// One replay in progress.
struct Run<'c, 't, 'a, 'r> {
    reader: PcapReader<'c>,
    flush_packets: usize,
    /// The pool slab the replay counts into.
    slab: &'r ShardSlab,
    /// Timestamp of the last datagram so far.
    last_at: SimTime,
    tap: Option<&'t mut RecordTap<'a>>,
}

impl<'c> Run<'c, '_, '_, '_> {
    /// The single-thread body: decode, classify and record datagram by
    /// datagram, hand each full batch to the engine.
    fn inline<S: AlertSink + ?Sized>(
        &mut self,
        pool: &mut VidsPool,
        sink: &mut S,
    ) -> Result<(), IngestError> {
        let mut events: Vec<WireEvent> = Vec::with_capacity(self.flush_packets);
        let mut exhausted = false;
        while !exhausted {
            while events.len() < self.flush_packets {
                let Some(d) = self.next_datagram()? else {
                    exhausted = true;
                    break;
                };
                let (class, classified) = classify(&d, self.slab);
                self.record(&d, class);
                events.push(WireEvent {
                    classified,
                    at: d.at,
                });
            }
            if events.is_empty() {
                break;
            }
            // The batch clock is the batch's *first* timestamp: the engine
            // clamps each event's time up to at least the clock, so a later
            // time would collapse the intra-batch timing the window and
            // timer machines depend on.
            let (now, len) = (events[0].at, events.len());
            pool.process_wire_batch(&mut events, now, &mut teed(&mut self.tap, sink));
            self.batch_done(len);
            self.dump(pool);
        }
        Ok(())
    }

    /// The multi-thread body: batches go round-robin to `threads`
    /// classifier threads (chunk k → thread k mod N, at most two waiting
    /// per thread) and come back in any order; the calling thread submits
    /// them in capture order. The caller drains the pipeline into `sink`
    /// afterwards, whether this returns an error or not.
    fn fanned_out<S: AlertSink + ?Sized>(
        &mut self,
        p: &mut PipelineIngress<'_, '_>,
        threads: usize,
        sink: &mut S,
    ) -> Result<(), IngestError> {
        std::thread::scope(|scope| {
            // Classifiers never block on the calling thread: the done channel is
            // unbounded, while the bounded work queues cap what is in
            // flight.
            let (done_tx, done_rx) = mpsc::channel::<Done<'c>>();
            let slab = self.slab;
            let mut work: Vec<_> = (0..threads)
                .map(|_| {
                    let (tx, rx) = mpsc::sync_channel::<(u64, Vec<Datagram<'c>>)>(2);
                    let done = done_tx.clone();
                    scope.spawn(move || {
                        for (id, chunk) in rx {
                            let out = chunk
                                .iter()
                                .map(|d| PreRouted::new(classify(d, slab).1, d.at))
                                .collect();
                            if done.send((id, chunk, out)).is_err() {
                                break;
                            }
                        }
                    });
                    tx
                })
                .collect();
            drop(done_tx);

            let in_flight_cap = 2 * threads as u64;
            let (mut dispatched, mut submitted) = (0u64, 0u64);
            let mut ready: BTreeMap<u64, Done<'c>> = BTreeMap::new();
            let dumping = self.dumping();
            let mut exhausted = false;
            loop {
                // Decode and dispatch up to the in-flight cap.
                while !exhausted && dispatched - submitted < in_flight_cap {
                    let mut chunk = Vec::with_capacity(self.flush_packets);
                    while chunk.len() < self.flush_packets {
                        let Some(d) = self.next_datagram()? else {
                            exhausted = true;
                            break;
                        };
                        chunk.push(d);
                    }
                    if chunk.is_empty() {
                        break;
                    }
                    work[(dispatched % threads as u64) as usize]
                        .send((dispatched, chunk))
                        .expect("classifier thread exited early");
                    dispatched += 1;
                }
                if exhausted {
                    // Dropping the senders retires the classifiers once
                    // their queues drain.
                    work.clear();
                }
                if submitted == dispatched {
                    break;
                }
                // Re-sequence: wait for the oldest outstanding batch.
                let (_, chunk, mut events) = loop {
                    if let Some(done) = ready.remove(&submitted) {
                        break done;
                    }
                    let done = done_rx.recv().expect("classifier thread exited early");
                    ready.insert(done.0, done);
                };
                submitted += 1;
                if self.tap.is_some() {
                    for d in &chunk {
                        self.record(d, demux(d.src.port(), d.dst.port(), d.payload));
                    }
                }
                p.submit(&mut events, chunk[0].at, &mut teed(&mut self.tap, sink));
                self.batch_done(chunk.len());
                if dumping {
                    // A dump freezes window and counters at the alert's own
                    // batch, so the pipeline drains before the next batch
                    // is recorded.
                    p.flush(&mut teed(&mut self.tap, sink));
                    self.dump(p.pool());
                }
            }
            Ok(())
        })
    }

    fn next_datagram(&mut self) -> Result<Option<Datagram<'c>>, IngestError> {
        let d = self.reader.next_datagram()?;
        if let Some(d) = &d {
            self.last_at = self.last_at.max(d.at);
        }
        Ok(d)
    }

    fn record(&self, d: &Datagram<'_>, class: WireClass) {
        if let Some(t) = &self.tap {
            t.recorder
                .record(0, d.at, d.src, d.dst, recorded_class(class), d.payload);
        }
    }

    /// Closes a batch of `len` datagrams the engine has taken.
    fn batch_done(&mut self, len: usize) {
        self.slab.add(Counter::DatagramsRx, len as u64);
        if let Some(t) = &self.tap {
            t.recorder.mark_batch();
        }
    }

    fn dumping(&self) -> bool {
        self.tap.as_ref().is_some_and(|t| t.dump_dir.is_some())
    }

    /// Dumps the alerts raised since the last call; `pool` is quiescent.
    fn dump(&mut self, pool: &VidsPool) {
        if let Some(t) = self.tap.as_deref_mut() {
            t.dump_new(pool);
        }
    }
}

/// Demuxes and classifies one datagram, counting on `slab` what the
/// engine will not use.
fn classify(d: &Datagram<'_>, slab: &ShardSlab) -> (WireClass, Classified) {
    let (class, classified) = classify_datagram(d);
    match class {
        WireClass::Unknown => slab.inc(Counter::DemuxUnknown),
        WireClass::Ipv6 => slab.inc(Counter::DatagramsIpv6),
        _ => {}
    }
    (class, classified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::PcapWriter;
    use vids_core::config::Config;
    use vids_core::sink::CollectSink;
    use vids_record::Recorder;

    #[test]
    fn replays_a_capture_and_reports_totals() {
        let mut w = PcapWriter::new();
        let src = "10.1.0.10:5060".parse().unwrap();
        let dst = "10.2.0.10:5060".parse().unwrap();
        w.push_udp(SimTime::from_millis(1), src, dst, b"not really sip");
        w.push_udp(
            SimTime::from_millis(2),
            "10.1.0.10:9999".parse().unwrap(),
            "10.2.0.10:9998".parse().unwrap(),
            b"junk", // demuxes Unknown
        );
        let mut pool = VidsPool::new(Config::default());
        let mut sink = CollectSink::new();
        let report = replay_pcap(w.into_bytes(), &mut pool, 1, None, None, &mut sink).unwrap();
        assert_eq!(report.datagrams, 2);
        assert_eq!(report.demux_unknown, 1);
        assert_eq!(report.batches, 2);
        assert_eq!(report.last_at, SimTime::from_millis(2));
        // The SIP-port garbage is a malformed-signaling alert.
        assert_eq!(sink.alerts().len(), 1);
        assert_eq!(pool.counters().malformed, 1);
        assert_eq!(pool.counters().ignored, 1);
    }

    #[test]
    fn tapped_replay_records_the_window_and_dumps_on_alert() {
        let mut w = PcapWriter::new();
        let src = "10.1.0.10:5060".parse().unwrap();
        let dst = "10.2.0.10:5060".parse().unwrap();
        // Garbage on the SIP port raises a malformed-signaling alert.
        w.push_udp(SimTime::from_millis(1), src, dst, b"not really sip");
        let mut pool = VidsPool::new(Config::default());
        let mut sink = CollectSink::new();
        let recorder = Recorder::with_defaults(1);
        let dir = std::env::temp_dir().join("vids-ingest-tap-test");
        std::fs::remove_dir_all(&dir).ok();
        let mut tap = RecordTap::new(&recorder, Some(&dir));
        let report = replay_pcap(
            w.into_bytes(),
            &mut pool,
            1,
            None,
            Some(&mut tap),
            &mut sink,
        )
        .unwrap();
        assert_eq!(report.datagrams, 1);
        // The sink still sees the alert (tee, not redirect)...
        assert_eq!(sink.alerts().len(), 1);
        // ...and the tap wrote one dump for it.
        assert_eq!(tap.written.len(), 1);
        let dump = vids_record::Vdump::read_from(&tap.written[0]).unwrap();
        assert_eq!(dump.packets.len(), 1);
        assert_eq!(dump.packets[0].payload, b"not really sip");
        assert_eq!(recorder.stats().dumps_written, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
