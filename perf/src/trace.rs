//! The outside-in layer trace. No product code is instrumented: a traced
//! child rebuilds `replay_pcap`'s loop from the public layer calls, one
//! span per layer call per 256-datagram chunk, and then times single
//! layers in isolation on the same payloads (auxiliary spans, which do not
//! count towards the sum that must match the untraced pass).

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::net::{SocketAddr, UdpSocket};
use std::path::Path;
use std::str::FromStr;
use std::time::{Duration, Instant};

use vids_cluster::{Cluster, ClusterEvent, TenantMap};
use vids_core::{
    classify_wire, Alert, Classified, CollectSink, CostModel, FnSink, NullSink, PreRouted,
    VidsPool, WireEvent, WireProto,
};
use vids_efsm::Sym;
use vids_ingest::{demux, recorded_class, Datagram, PcapReader, UdpSource, WireClass};
use vids_netsim::time::SimTime;
use vids_record::Recorder;
use vids_rtp::packet::RtpHeader;
use vids_sdp::SessionDescription;
use vids_sip::view::parse_view;

use crate::child::{self, Report};
use crate::gen::{self, Shape, Workload};
use crate::manifest::alert_set;
use crate::setup::{engine_config, FLUSH_PACKETS};
use crate::sys;

/// One timed interval. `parent` and `root` are span ids; 0 means none.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub root: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the child ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for a root) and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let root = match parent {
            0 => id,
            p => self.spans[p as usize - 1].root,
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            root,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now_ns();
    }

    /// Self time per span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Total duration of the spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"root\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.root, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// A span's self time is its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Layer spans whose durations must add up to the untraced pass.
const LAYERS: [&str; 6] = [
    "ingest.pcap",
    "ingest.demux",
    "core.classify_rtp",
    "core.classify_sip",
    "core.pool",
    "core.tick",
];

/// Datagrams the isolated-layer measurements work on, at most.
const AUX_DGRAMS: usize = 100_000;

/// What a trace child is asked to do.
#[derive(Debug, Clone, Copy)]
pub enum TraceJob<'a> {
    /// The traced replay pass on `shards` shards; spans go to the file.
    Pass {
        shards: usize,
        spans_out: Option<&'a Path>,
    },
    /// The isolated-layer measurements; spans go to the file.
    Isolated { spans_out: &'a Path },
}

pub fn run_traced(workload: Workload, capture: &Path, job: TraceJob<'_>) -> Result<Report, String> {
    let (shards, isolated, spans) = match job {
        TraceJob::Pass { shards, spans_out } => (shards, "0", spans_out),
        TraceJob::Isolated { spans_out } => (1, "1", Some(spans_out)),
    };
    let mut args = vec![
        "child-trace".to_owned(),
        "--workload".into(),
        workload.name().into(),
        "--capture".into(),
        capture.display().to_string(),
        "--shards".into(),
        shards.to_string(),
        "--isolated".into(),
        isolated.into(),
    ];
    if let Some(p) = spans {
        args.push("--spans".into());
        args.push(p.display().to_string());
    }
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    child::spawn(&args)
}

fn to_engine(class: WireClass, d: &Datagram<'_>) -> Classified {
    let Some((src, dst)) = d.engine_addrs() else {
        return Classified::Ignored;
    };
    match class {
        WireClass::Sip => classify_wire(WireProto::Sip, d.payload, src, dst),
        WireClass::Rtp => classify_wire(WireProto::Rtp, d.payload, src, dst),
        _ => Classified::Ignored,
    }
}

/// The child side.
pub fn child_main(workload: Workload, capture: &Path, job: TraceJob<'_>) -> Result<Report, String> {
    let bytes = std::fs::read(capture).map_err(|e| format!("{}: {e}", capture.display()))?;
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let spans_out = match job {
        TraceJob::Pass { shards, spans_out } => {
            traced_pass(workload, &bytes, shards, &mut tracer, &mut report)?;
            spans_out
        }
        TraceJob::Isolated { spans_out } => {
            isolated_layers(workload, &bytes, &mut tracer, &mut report)?;
            Some(spans_out)
        }
    };
    if let Some(path) = spans_out {
        std::fs::write(path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    report.set("spans", tracer.spans.len());
    Ok(report)
}

/// `replay_pcap` rebuilt from its layers, chunk by chunk.
fn traced_pass(
    workload: Workload,
    bytes: &[u8],
    shards: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut pool = VidsPool::with_cost(engine_config(workload, shards), CostModel::free());
    let mut sink = CollectSink::new();
    let mut reader = PcapReader::new(bytes).map_err(|e| e.to_string())?;
    let mut dgrams: Vec<Datagram<'_>> = Vec::with_capacity(FLUSH_PACKETS);
    let mut classes: Vec<WireClass> = Vec::with_capacity(FLUSH_PACKETS);
    let mut slots: Vec<Classified> = Vec::with_capacity(FLUSH_PACKETS);
    let mut events: Vec<WireEvent> = Vec::with_capacity(FLUSH_PACKETS);
    let (mut n_dgrams, mut n_rtp, mut n_sip) = (0u64, 0u64, 0u64);
    let mut last_at = SimTime::ZERO;
    // Allocations per layer: [pcap, classify, pool].
    let mut layer_allocs = [0u64; 3];
    let mut peak = (0usize, 0usize); // (monitored calls, memory bytes)
    let mut chunks = 0u64;

    sys::count_allocs(true);
    let counted = |slot: &mut u64, before: u64| *slot += sys::alloc_counts().0 - before;
    let root = tracer.begin("pass", 0);
    loop {
        let chunk = tracer.begin("chunk", root);

        let a0 = sys::alloc_counts().0;
        let s = tracer.begin("ingest.pcap", chunk);
        dgrams.clear();
        while dgrams.len() < FLUSH_PACKETS {
            match reader.next_datagram().map_err(|e| e.to_string())? {
                Some(d) => dgrams.push(d),
                None => break,
            }
        }
        tracer.end(s);
        counted(&mut layer_allocs[0], a0);
        if dgrams.is_empty() {
            tracer.end(chunk);
            break;
        }

        let s = tracer.begin("ingest.demux", chunk);
        classes.clear();
        classes.extend(
            dgrams
                .iter()
                .map(|d| demux(d.src.port(), d.dst.port(), d.payload)),
        );
        tracer.end(s);

        slots.clear();
        slots.resize(dgrams.len(), Classified::Ignored);
        let a0 = sys::alloc_counts().0;
        let s = tracer.begin("core.classify_rtp", chunk);
        for (i, d) in dgrams.iter().enumerate() {
            if classes[i] == WireClass::Rtp {
                slots[i] = to_engine(WireClass::Rtp, d);
                n_rtp += 1;
            }
        }
        tracer.end(s);
        let s = tracer.begin("core.classify_sip", chunk);
        for (i, d) in dgrams.iter().enumerate() {
            if classes[i] == WireClass::Sip {
                slots[i] = to_engine(WireClass::Sip, d);
                n_sip += 1;
            }
        }
        tracer.end(s);
        counted(&mut layer_allocs[1], a0);

        events.clear();
        events.extend(
            slots
                .drain(..)
                .zip(&dgrams)
                .map(|(classified, d)| WireEvent {
                    classified,
                    at: d.at,
                }),
        );
        n_dgrams += dgrams.len() as u64;
        last_at = dgrams.iter().map(|d| d.at).fold(last_at, SimTime::max);
        // The batch clock rule: the batch's first timestamp.
        let now = dgrams[0].at;
        let a0 = sys::alloc_counts().0;
        let s = tracer.begin("core.pool", chunk);
        pool.process_wire_batch(&mut events, now, &mut sink);
        tracer.end(s);
        counted(&mut layer_allocs[2], a0);
        tracer.end(chunk);

        // Now and then sample the state size, keeping the sample taken
        // with the most calls in memory. `memory_bytes` walks every call,
        // so the sampling has its own span and is taken off the pass.
        chunks += 1;
        if chunks.is_multiple_of(64) {
            let s = tracer.begin("sample.state", root);
            let calls = pool.monitored_calls();
            if calls > peak.0 {
                peak = (calls, pool.memory_bytes());
            }
            tracer.end(s);
        }
    }
    let s = tracer.begin("core.tick", root);
    pool.tick(last_at + pool.config().replay_grace, &mut sink);
    tracer.end(s);
    tracer.end(root);
    sys::count_allocs(false);

    let per = |total: u64, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
    let layer_sum: u64 = LAYERS.iter().map(|l| tracer.total_ns(l)).sum();
    report.set("datagrams", n_dgrams);
    let pass_ns = tracer.spans[root as usize - 1].duration_ns() - tracer.total_ns("sample.state");
    report.set("pass_ns", pass_ns);
    report.set("layer_sum_ns", layer_sum);
    // What the rebuilt loop spends outside every layer call: the self
    // time of the pass and chunk spans.
    let glue: u64 = tracer
        .spans
        .iter()
        .zip(tracer.self_times())
        .filter(|(s, _)| s.name == "pass" || s.name == "chunk")
        .map(|(_, own)| own)
        .sum();
    report.set("glue_ns", glue);
    report.set(
        "ingest.pcap_ns_per_dgram",
        per(tracer.total_ns("ingest.pcap"), n_dgrams),
    );
    report.set(
        "ingest.demux_ns_per_dgram",
        per(tracer.total_ns("ingest.demux"), n_dgrams),
    );
    report.set(
        "core.classify_rtp_ns_per_pkt",
        per(tracer.total_ns("core.classify_rtp"), n_rtp),
    );
    report.set(
        "core.classify_sip_ns_per_msg",
        per(tracer.total_ns("core.classify_sip"), n_sip),
    );
    report.set(
        "core.pool_ns_per_dgram",
        per(tracer.total_ns("core.pool"), n_dgrams),
    );
    report.set("core.tick_us", tracer.total_ns("core.tick") as f64 / 1e3);
    report.set(
        "ingest.pcap_allocs_per_kdgram",
        per(layer_allocs[0] * 1000, n_dgrams),
    );
    report.set(
        "core.classify_allocs_per_kdgram",
        per(layer_allocs[1] * 1000, n_dgrams),
    );
    report.set(
        "core.pool_allocs_per_kdgram",
        per(layer_allocs[2] * 1000, n_dgrams),
    );
    report.set(
        "core.state_bytes_per_call",
        per(peak.1 as u64, peak.0 as u64),
    );
    report.alerts = alert_set(sink.alerts());
    Ok(())
}

/// Times `body` over `n` items as one auxiliary span and returns
/// nanoseconds per item (0 when there is nothing to time).
fn aux(tracer: &mut Tracer, name: &'static str, n: usize, body: impl FnOnce()) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let s = tracer.begin(name, 0);
    body();
    tracer.end(s);
    tracer.spans[s as usize - 1].duration_ns() as f64 / n as f64
}

/// Single layers on the capture's own payloads, each as an auxiliary root
/// span, in a process of their own. The interner starts cold and warms as
/// the measurements go; the intern probes make their own fresh strings.
fn isolated_layers(
    workload: Workload,
    bytes: &[u8],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let mut reader = PcapReader::new(bytes).map_err(|e| e.to_string())?;
    let mut dgrams: Vec<Datagram<'_>> = Vec::new();
    while dgrams.len() < AUX_DGRAMS {
        match reader.next_datagram().map_err(|e| e.to_string())? {
            Some(d) => dgrams.push(d),
            None => break,
        }
    }
    let class_of = |d: &Datagram<'_>| demux(d.src.port(), d.dst.port(), d.payload);
    let texts: Vec<&str> = dgrams
        .iter()
        .filter(|d| class_of(d) == WireClass::Sip)
        .filter_map(|d| std::str::from_utf8(d.payload).ok())
        .collect();
    let (sip, mut rejects): (Vec<&str>, Vec<&str>) =
        texts.iter().partition(|t| parse_view(t).is_ok());
    if rejects.is_empty() {
        // No damaged SIP in this capture: cut its own messages inside the
        // start line, the shape a truncating flood tool produces.
        rejects = sip.iter().map(|t| &t[..t.len().min(24)]).collect();
    }
    let rtp: Vec<&[u8]> = dgrams
        .iter()
        .filter(|d| class_of(d) == WireClass::Rtp)
        .map(|d| d.payload)
        .collect();
    let bodies: Vec<&str> = sip
        .iter()
        .filter_map(|t| t.split_once("\r\n\r\n").map(|(_, b)| b))
        .filter(|b| !b.is_empty())
        .collect();

    let v = aux(tracer, "aux.rtp.header", rtp.len(), || {
        for p in &rtp {
            black_box(RtpHeader::parse(black_box(p)).is_ok());
        }
    });
    report.set("rtp.header_ns_per_pkt", v);
    let v = aux(tracer, "aux.sip.parse_view", sip.len(), || {
        for t in &sip {
            black_box(parse_view(black_box(t)).is_ok());
        }
    });
    report.set("sip.parse_view_ns_per_msg", v);
    let v = aux(tracer, "aux.sip.reject", rejects.len(), || {
        for t in &rejects {
            black_box(parse_view(black_box(t)).is_err());
        }
    });
    report.set("sip.reject_ns_per_msg", v);
    let v = aux(tracer, "aux.sdp.parse", bodies.len(), || {
        for b in &bodies {
            black_box(SessionDescription::from_str(black_box(b)).is_ok());
        }
    });
    report.set("sdp.parse_ns_per_body", v);
    let mut scanned = 0usize;
    let ns_per_msg = aux(tracer, "aux.scan.find_seq", sip.len(), || {
        for t in &sip {
            let at = vids_scan::find_seq(black_box(t.as_bytes()), b"\r\n\r\n");
            scanned += at.map_or(t.len(), |i| i + 4);
        }
    });
    let mib_per_s = if ns_per_msg > 0.0 {
        (scanned as f64 / (1 << 20) as f64) / (ns_per_msg * sip.len() as f64 / 1e9)
    } else {
        0.0
    };
    report.set("scan.find_seq_mib_per_s", mib_per_s);

    // Interner: fresh strings shaped like Call-IDs, then the same again.
    let nonce = gen::mix(bytes.len() as u64, std::process::id() as u64);
    let fresh: Vec<String> = (0..50_000)
        .map(|i| format!("{:016x}-{i}@perf.invalid", gen::mix(nonce, i)))
        .collect();
    sys::count_allocs(true);
    let b0 = sys::alloc_counts().1;
    let miss = aux(tracer, "aux.efsm.intern_miss", fresh.len(), || {
        for s in &fresh {
            black_box(Sym::intern(s));
        }
    });
    let intern_bytes = sys::alloc_counts().1 - b0;
    sys::count_allocs(false);
    let hit = aux(tracer, "aux.efsm.intern_hit", fresh.len(), || {
        for s in &fresh {
            black_box(Sym::intern(s));
        }
    });
    report.set("efsm.intern_miss_ns", miss);
    report.set("efsm.intern_hit_ns", hit);
    report.set(
        "efsm.intern_bytes_per_sym",
        intern_bytes as f64 / fresh.len() as f64,
    );

    // Everything below works on classified events.
    let classified: Vec<(Classified, SimTime, u32, WireClass)> = dgrams
        .iter()
        .map(|d| {
            let class = class_of(d);
            let src_ip = d.engine_addrs().map_or(0, |(src, _)| src.ip);
            (to_engine(class, d), d.at, src_ip, class)
        })
        .collect();
    let n = classified.len();

    let copies: Vec<Classified> = classified.iter().map(|c| c.0.clone()).collect();
    let mut routed: Vec<PreRouted> = Vec::with_capacity(n);
    let v = aux(tracer, "aux.core.route", n, || {
        for (c, (_, at, _, _)) in copies.into_iter().zip(&classified) {
            routed.push(PreRouted::new(c, *at));
        }
    });
    report.set("core.route_ns_per_dgram", v);

    for (batch, key) in [
        (256usize, "core.pipeline_ns_per_dgram_b256"),
        (16, "core.pipeline_ns_per_dgram_b16"),
    ] {
        let mut batches: Vec<Vec<PreRouted>> = routed.chunks(batch).map(<[_]>::to_vec).collect();
        let mut pool = VidsPool::with_cost(engine_config(workload, 1), CostModel::free());
        let v = aux(tracer, "aux.core.pipeline", n, || {
            pool.with_pipeline(|p| {
                for b in &mut batches {
                    let now = b[0].at;
                    p.submit(b, now, &mut NullSink);
                }
                p.flush(&mut NullSink);
            });
        });
        report.set(key, v);
    }

    for (nodes, key) in [
        (1usize, "cluster.gateway_1n_ns_per_dgram"),
        (2, "cluster.gateway_2n_ns_per_dgram"),
    ] {
        let mut batches: Vec<Vec<ClusterEvent>> = classified
            .chunks(FLUSH_PACKETS)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|(c, at, src_ip, _)| ClusterEvent {
                        classified: c.clone(),
                        at: *at,
                        src_ip: *src_ip,
                    })
                    .collect()
            })
            .collect();
        let tenants = TenantMap::single(engine_config(workload, 1));
        let mut cluster = Cluster::with_cost(tenants, nodes, CostModel::free());
        let v = aux(tracer, "aux.cluster.gateway", n, || {
            for b in &mut batches {
                let now = b[0].at;
                cluster.process_batch(b, now, &mut NullSink);
            }
        });
        report.set(key, v);
    }

    let mut recorder = Recorder::with_defaults(1);
    let v = aux(tracer, "aux.record.tap", n, || {
        for (d, (_, _, _, class)) in dgrams.iter().zip(&classified) {
            recorder.record(0, d.at, d.src, d.dst, recorded_class(*class), d.payload);
        }
    });
    report.set("record.tap_ns_per_dgram", v);

    report.set("ingest.udp_poll_ns_per_dgram", udp_poll(tracer, &dgrams)?);
    report.set("core.pipeline_alert_lag_submits", alert_lag(tracer)?);
    Ok(())
}

/// `UdpSource::poll_batch` draining a socket that was filled beforehand:
/// the receive syscall and datagram hand-off, without waiting for traffic.
fn udp_poll(tracer: &mut Tracer, dgrams: &[Datagram<'_>]) -> Result<f64, String> {
    const PER_ROUND: usize = 64;
    const ROUNDS: usize = 100;
    let io = |what: &str, e: std::io::Error| format!("udp poll probe: {what}: {e}");
    let receiver = UdpSocket::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
    let local: SocketAddr = receiver.local_addr().map_err(|e| io("local_addr", e))?;
    let sender = UdpSocket::bind("127.0.0.1:0").map_err(|e| io("bind", e))?;
    sender.connect(local).map_err(|e| io("connect", e))?;
    let mut source = UdpSource::new(receiver, local, Instant::now(), Duration::from_millis(1));
    let mut total_ns = 0u64;
    let mut drained = 0usize;
    for round in 0..ROUNDS {
        for d in dgrams
            .iter()
            .cycle()
            .skip(round * PER_ROUND)
            .take(PER_ROUND)
        {
            sender.send(d.payload).map_err(|e| io("send", e))?;
        }
        let s = tracer.begin("aux.ingest.udp_poll", 0);
        let mut got = 0;
        while got < PER_ROUND {
            let n = source
                .poll_batch(&mut |d| {
                    black_box(d.payload.len());
                })
                .map_err(|e| format!("udp poll probe: {e}"))?;
            if n == 0 {
                break; // a datagram went missing on loopback; count what came
            }
            got += n;
        }
        tracer.end(s);
        total_ns += tracer.spans[s as usize - 1].duration_ns();
        drained += got;
    }
    if drained == 0 {
        return Err("udp poll probe: nothing received on loopback".into());
    }
    Ok(total_ns as f64 / drained as f64)
}

/// How many further submits pass before a probe's alert reaches the sink
/// when nothing flushes the pipeline: 16-datagram batches of the live
/// workload's own traffic, median over its probes.
fn alert_lag(tracer: &mut Tracer) -> Result<f64, String> {
    let shape = Shape::full(Workload::LiveTrickle).with_live_seconds(3);
    let mut batches: Vec<Vec<PreRouted>> = vec![Vec::new()];
    let mut probe_submit: HashMap<String, u64> = HashMap::new();
    gen::generate(&shape, gen::DEFAULT_SEED, |d| {
        if batches.last().is_some_and(|b| b.len() == 16) {
            batches.push(Vec::new());
        }
        if d.probe {
            let call_id = gen::call_id_of(d.payload).expect("a probe is a SIP BYE");
            probe_submit.insert(call_id.to_owned(), batches.len() as u64 - 1);
        }
        let v4 = |e: gen::Endpoint| SocketAddr::from((std::net::Ipv4Addr::from(e.ip), e.port));
        let dgram = Datagram {
            src: v4(d.src),
            dst: v4(d.dst),
            at: SimTime::from_micros(d.at_us),
            payload: d.payload,
        };
        let classified = to_engine(demux(d.src.port, d.dst.port, d.payload), &dgram);
        let last = batches.last_mut().expect("never empty");
        last.push(PreRouted::new(classified, dgram.at));
    });

    let submit_no = Cell::new(0u64);
    let mut lags: Vec<f64> = Vec::new();
    let mut sink = FnSink(|alert: Alert| {
        if let Some(at) = alert.call_id.as_deref().and_then(|c| probe_submit.get(c)) {
            lags.push((submit_no.get() - at) as f64);
        }
    });
    let mut pool = VidsPool::with_cost(engine_config(Workload::LiveTrickle, 1), CostModel::free());
    let s = tracer.begin("aux.core.pipeline_alert_lag", 0);
    pool.with_pipeline(|p| {
        for (i, b) in batches.iter_mut().enumerate() {
            submit_no.set(i as u64);
            let now = b[0].at;
            p.submit(b, now, &mut sink);
        }
        submit_no.set(batches.len() as u64);
        p.flush(&mut sink);
    });
    tracer.end(s);
    if lags.len() != probe_submit.len() {
        return Err(format!(
            "alert lag probe: {} of {} probes raised an alert",
            lags.len(),
            probe_submit.len()
        ));
    }
    Ok(crate::stats::median(&lags))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |id, parent, root, start_ns, end_ns| Span {
            id,
            parent,
            root,
            name: "x",
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, 0, 1, 0, 1_000),     // pass
            span(2, 1, 1, 100, 600),     // chunk
            span(3, 2, 1, 150, 250),     // layer a
            span(4, 2, 1, 300, 550),     // layer b
            span(5, 1, 1, 700, 900),     // tick
            span(6, 0, 6, 2_000, 2_500), // an auxiliary root
        ];
        assert_eq!(self_times(&spans), vec![300, 150, 100, 250, 200, 500]);
    }

    #[test]
    fn tracer_links_parent_and_root() {
        let mut t = Tracer::new();
        let pass = t.begin("pass", 0);
        let chunk = t.begin("chunk", pass);
        let layer = t.begin("core.pool", chunk);
        t.end(layer);
        t.end(chunk);
        t.end(pass);
        let aux = t.begin("aux.x", 0);
        t.end(aux);
        let s = &t.spans;
        assert_eq!((s[0].parent, s[0].root), (0, 1));
        assert_eq!((s[1].parent, s[1].root), (1, 1));
        assert_eq!((s[2].parent, s[2].root), (2, 1));
        assert_eq!((s[3].parent, s[3].root), (0, 4));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(t.to_jsonl().lines().count(), 4);
        assert!(t.self_times()[0] <= s[0].duration_ns());
    }
}
