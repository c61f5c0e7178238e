//! The `vids` command-line tool: run the reproduction's experiments from a
//! shell without writing Rust.
//!
//! ```text
//! vids simulate [--minutes N] [--seed S] [--uas N] [--no-vids] [--auth] [--csv FILE]
//!               [--telemetry FILE] [--telemetry-interval SECS]
//! vids serve --listen ADDR [--shards N] [--tenants FILE]
//!            [--telemetry FILE] [--record DIR]
//! vids replay FILE.pcap [--shards N] [--threads N] [--telemetry FILE] [--record DIR]
//! vids replay FILE.vdump
//! vids inspect FILE.vdump
//! vids top [--shards N] [--seconds S] [--seed S]
//! vids machines [--dot DIR]
//! vids sensitivity
//! ```
//!
//! Every mode parses its arguments strictly: unknown flags, missing
//! values and unparseable numbers are errors, not silence.

use std::io::Write as _;
use std::net::SocketAddr;
use std::str::FromStr;

use vids::core::alert::AlertKind;
use vids::core::report::AlertReport;
use vids::core::telemetry::Snapshot;
use vids::efsm::analysis::{attack_paths, to_dot};
use vids::netsim::stats::Summary;
use vids::netsim::time::SimTime;
use vids::run_report::{self, write_telemetry, RunSummary};
use vids::scenario::{Testbed, TestbedConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("simulate") => run(simulate, &args[1..]),
        Some("serve") => run(serve, &args[1..]),
        Some("replay") => run(replay, &args[1..]),
        Some("inspect") => run(inspect, &args[1..]),
        Some("top") => run(top, &args[1..]),
        Some("machines") => run(machines, &args[1..]),
        Some("sensitivity") => run(sensitivity, &args[1..]),
        Some("help") | Some("--help") | None => {
            usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command: {other}\n");
            usage();
            2
        }
    };
    std::process::exit(code);
}

fn run(cmd: fn(&mut Flags) -> Result<i32, String>, args: &[String]) -> i32 {
    let mut flags = Flags::new(args);
    match cmd(&mut flags).and_then(|code| flags.finish().map(|()| code)) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("run `vids help` for usage");
            2
        }
    }
}

fn usage() {
    println!(
        "vids — VoIP intrusion detection through interacting protocol state machines\n\
         \n\
         USAGE:\n\
         \x20 vids simulate [--minutes N] [--seed S] [--uas N] [--interarrival S] [--duration S]\n\
         \x20              [--no-vids] [--auth] [--csv FILE]\n\
         \x20              [--telemetry FILE] [--telemetry-interval SECS]\n\
         \x20     run the Fig. 7 enterprise testbed and print the evaluation summary;\n\
         \x20     --telemetry samples monitor metrics every SECS (default 10) of sim\n\
         \x20     time into FILE (JSON lines, or CSV when FILE ends in .csv)\n\
         \x20 vids serve --listen ADDR [--shards N] [--tenants FILE]\n\
         \x20            [--telemetry FILE] [--record DIR]\n\
         \x20     monitor live SIP/RTP traffic on UDP socket ADDR (e.g. 0.0.0.0:5060)\n\
         \x20     with N receiver shards; alerts stream to stdout; Ctrl-C drains,\n\
         \x20     runs a final timer sweep and writes the telemetry snapshot to FILE;\n\
         \x20     --record keeps a bounded ring of raw datagrams per receiver and\n\
         \x20     dumps the window around every alert into DIR as .vdump forensic\n\
         \x20     captures; with --record, SIGUSR1 snapshots the live rings into\n\
         \x20     DIR on demand without stopping the daemon;\n\
         \x20     --tenants FILE maps address prefixes to per-tenant thresholds\n\
         \x20     and call quotas, one engine group of N shards per tenant; a\n\
         \x20     datagram belongs to the longest prefix matching its source or\n\
         \x20     destination\n\
         \x20     (lines: tenant NAME A.B.C.D/LEN [invite_flood_n=.. max_calls=..])\n\
         \x20 vids replay FILE.pcap [--shards N] [--threads N] [--telemetry FILE] [--record DIR]\n\
         \x20     replay a classic pcap capture through the identical wire pipeline\n\
         \x20     at full speed and print the alert report and throughput;\n\
         \x20     --threads N classifies datagrams on N parallel threads while the\n\
         \x20     engine's shard workers run concurrently (output stays\n\
         \x20     byte-identical to --threads 1)\n\
         \x20 vids replay FILE.vdump\n\
         \x20     deterministically re-run a forensic dump through a fresh engine\n\
         \x20     and verify the recorded alert reproduces byte-identically\n\
         \x20     (exit 1 on divergence)\n\
         \x20 vids inspect FILE.vdump\n\
         \x20     print a forensic dump's header, packet window, alert and counters\n\
         \x20 vids top [--shards N] [--seconds S] [--seed S]\n\
         \x20     capture a short workload, replay it through a telemetry-enabled\n\
         \x20     N-shard pool and print the per-shard metric table\n\
         \x20 vids machines [--dot DIR]\n\
         \x20     print the specification machines' attack patterns; optionally write\n\
         \x20     Graphviz .dot files to DIR\n\
         \x20 vids sensitivity\n\
         \x20     print the E7 detection-sensitivity tables"
    );
}

/// Strict argument parsing: a mode pulls out the flags it understands,
/// then [`Flags::finish`] rejects whatever is left — unknown flags no
/// longer ride along silently.
struct Flags {
    args: Vec<String>,
    used: Vec<bool>,
}

impl Flags {
    fn new(args: &[String]) -> Self {
        Flags {
            args: args.to_vec(),
            used: vec![false; args.len()],
        }
    }

    /// Consumes a boolean flag; true if present.
    fn flag(&mut self, name: &str) -> bool {
        match self.args.iter().position(|a| a == name) {
            Some(i) => {
                self.used[i] = true;
                true
            }
            None => false,
        }
    }

    /// Consumes `name VALUE`; errors if the value is missing.
    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        self.used[i] = true;
        match self.args.get(i + 1) {
            Some(v) if !self.used[i + 1] => {
                self.used[i + 1] = true;
                Ok(Some(v.clone()))
            }
            _ => Err(format!("{name} needs a value")),
        }
    }

    /// Consumes `name VALUE` and parses it; errors on a bad value.
    fn parsed<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value for {name}: {v}")),
        }
    }

    /// Consumes the next bare (non-`--`) argument.
    fn positional(&mut self) -> Option<String> {
        for (i, a) in self.args.iter().enumerate() {
            if !self.used[i] && !a.starts_with("--") {
                self.used[i] = true;
                return Some(a.clone());
            }
        }
        None
    }

    /// Errors on the first argument nothing consumed.
    fn finish(&self) -> Result<(), String> {
        match (0..self.args.len()).find(|&i| !self.used[i]) {
            Some(i) => Err(format!("unexpected argument: {}", self.args[i])),
            None => Ok(()),
        }
    }
}

fn simulate(flags: &mut Flags) -> Result<i32, String> {
    let minutes: u64 = flags.parsed("--minutes")?.unwrap_or(5);
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    let uas: usize = flags.parsed("--uas")?.unwrap_or(20);
    let interarrival: f64 = flags.parsed("--interarrival")?.unwrap_or(180.0);
    let duration: f64 = flags.parsed("--duration")?.unwrap_or(120.0);
    let mut config = TestbedConfig::paper(seed);
    config.uas_per_site = uas;
    config.workload.callers = uas;
    config.workload.callees = uas;
    config.workload.mean_interarrival_secs = interarrival;
    config.workload.mean_duration_secs = duration;
    config.workload.horizon = SimTime::from_secs(minutes * 60);
    config.bye_auth = flags.flag("--auth");
    if flags.flag("--no-vids") {
        config = config.without_vids();
    }

    let telemetry_path = flags.value("--telemetry")?;
    let telemetry_interval: u64 = flags
        .parsed("--telemetry-interval")?
        .filter(|&s| s > 0)
        .unwrap_or(10);
    let csv_path = flags.value("--csv")?;

    eprintln!("simulating {uas} UAs/site for {minutes} min (seed {seed})...");
    let mut tb = Testbed::build(&config);
    let end = SimTime::from_secs(minutes * 60 + 60);
    let series = if telemetry_path.is_some() {
        if tb.enable_telemetry(256).is_none() {
            return Err("--telemetry requires the inline monitor (drop --no-vids)".to_owned());
        }
        tb.run_sampled(end, SimTime::from_secs(telemetry_interval))
    } else {
        tb.run_until(end);
        Vec::new()
    };

    let mut setup = Summary::new();
    let mut rtp_delay = Summary::new();
    let mut placed = 0u64;
    let mut completed = 0u64;
    for i in 0..uas {
        let s = tb.ua_a_stats(i);
        setup.merge(&s.setup_delays.summary());
        rtp_delay.merge(&s.rtp_delay);
        placed += s.calls_placed;
        completed += s.calls_completed;
    }
    println!("calls:        placed {placed}, completed {completed}");
    println!("setup delay:  {setup}");
    println!("rtp delay:    {rtp_delay}");

    if let Some(vids) = tb.vids() {
        println!("monitor:      {} packets seen", vids.packets_seen());
        println!("              {:?}", vids.vids().counters());
        println!("              {:?}", vids.vids().factbase_stats());
        println!("              memory {} B", vids.vids().memory_bytes());
        println!(
            "              CPU overhead {:.2} %",
            vids.cpu_overhead() * 100.0
        );
        let report = AlertReport::from_alerts(vids.alerts());
        print!("{report}");
        if report.count_kind(AlertKind::Attack) == 0 {
            println!("verdict: clean run, zero false positives");
        }
        if let Some(path) = csv_path {
            match std::fs::File::create(&path)
                .and_then(|mut f| f.write_all(report.to_csv().as_bytes()))
            {
                Ok(()) => println!("alert CSV written to {path}"),
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    return Ok(1);
                }
            }
        }
    } else {
        println!("monitor:      none (baseline run)");
    }
    if let Some(path) = telemetry_path {
        let snaps: Vec<Snapshot> = series.iter().map(|(_, s)| s.clone()).collect();
        match write_telemetry(&path, &snaps) {
            Ok(()) => println!(
                "telemetry:    {} samples (every {telemetry_interval} s) written to {path}",
                series.len()
            ),
            Err(e) => {
                eprintln!("{e}");
                return Ok(1);
            }
        }
    }
    Ok(0)
}

/// `vids serve`: the live daemon — bind UDP receiver sockets, demux
/// SIP/RTP off the wire, and stream the engine's alerts to stdout until
/// SIGINT drains the pipeline.
fn serve(flags: &mut Flags) -> Result<i32, String> {
    use vids::core::{Config, CostModel, FnSink, TenantMap, VidsPool};
    use vids::ingest::record_tap::RecordTap;
    use vids::ingest::server::{dump_flag_on_sigusr1, serve_on, stop_flag_on_sigint, ServeOptions};
    use vids::ingest::udp::{PoolMode, UdpPool};
    use vids::record::Recorder;

    let listen: SocketAddr = flags
        .parsed("--listen")?
        .ok_or("serve needs --listen ADDR (e.g. --listen 0.0.0.0:5060)")?;
    let shards: usize = flags.parsed("--shards")?.unwrap_or(4);
    let tenants_path = flags.value("--tenants")?;
    let telemetry_path = flags.value("--telemetry")?;
    let record_dir = flags.value("--record")?;
    flags.finish()?;

    let cfg = Config::builder()
        .shards(shards)
        .build()
        .map_err(|e| format!("bad --shards {shards}: {e}"))?;
    // Live serving measures real wall-clock cost; the simulated per-packet
    // CPU model would only skew the meter.
    let mut pool = match &tenants_path {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let tenants = TenantMap::parse(&text, cfg).map_err(|e| format!("{path}: {e}"))?;
            VidsPool::with_tenants(tenants, CostModel::free())
        }
        None => VidsPool::with_cost(cfg, CostModel::free()),
    };
    let registry = pool.enable_telemetry(256);
    let mut opts = ServeOptions::from_config(&cfg);
    let stop = stop_flag_on_sigint();
    if record_dir.is_some() {
        // SIGUSR1 asks the coordinator for an on-demand ring snapshot.
        opts.snapshot_flag = Some(dump_flag_on_sigusr1());
    }

    let udp =
        UdpPool::bind(listen, opts.receivers).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let mode = match udp.mode() {
        PoolMode::ReusePort => format!("{} SO_REUSEPORT sockets", opts.receivers),
        PoolMode::Single => "1 socket (reuseport unavailable)".to_owned(),
    };
    let tenants = pool
        .tenants()
        .map(|t| format!(", {} tenant(s)", t.len()))
        .unwrap_or_default();
    eprintln!(
        "listening on {} with {mode}, {} shard worker(s){tenants}; Ctrl-C to stop",
        udp.local_addr(),
        pool.shards(),
    );

    let printer = FnSink(|a: vids::core::Alert| {
        println!(
            "[{:>10} ms] {:?} {} — {}{}",
            a.time_ms,
            a.kind,
            a.machine,
            a.label,
            if a.detail.is_empty() {
                String::new()
            } else {
                format!(" ({})", a.detail)
            }
        );
    });
    let mut sink = run_report::TenantTally {
        counts: Vec::new(),
        sink: printer,
    };
    // The flight recorder rides along when asked: one datagram ring per
    // receiver lane (each receiver locks only its own ring), dumps
    // written into --record DIR as alerts fire or SIGUSR1 arrives.
    let recorder = record_dir.as_ref().map(|_| {
        let mut rec = Recorder::with_defaults(opts.receivers);
        rec.attach_telemetry(registry.pool_slab());
        rec
    });
    let mut tap = recorder
        .as_ref()
        .map(|rec| RecordTap::new(rec, record_dir.as_deref().map(std::path::Path::new)));

    let report = serve_on(
        &mut pool,
        udp,
        &opts,
        Some(&registry),
        stop,
        tap.as_mut(),
        &mut sink,
    )
    .map_err(|e| e.to_string())?;

    eprintln!("{}", RunSummary::from_serve(&report).render());
    eprintln!("{}", run_report::counters_line(&pool.counters()));
    eprint!("{}", run_report::tenant_lines(&pool, &sink.counts));
    if let Some(t) = &tap {
        eprintln!(
            "{}",
            run_report::recorder_summary(&t.recorder.stats(), &t.written, t.io_errors)
        );
    }
    if let Some(path) = telemetry_path {
        let snap = pool
            .telemetry_snapshot(report.ended_at)
            .expect("telemetry enabled above");
        write_telemetry(&path, std::slice::from_ref(&snap))?;
        eprintln!("telemetry snapshot written to {path}");
    }
    Ok(0)
}

/// `vids replay`: run a pcap capture through the same wire pipeline the
/// daemon uses, at full speed, on the capture's own clock — or, given a
/// `.vdump` forensic dump, deterministically verify its recorded alert.
fn replay(flags: &mut Flags) -> Result<i32, String> {
    use vids::core::{CollectSink, Config, CostModel, VidsPool};
    use vids::ingest::record_tap::RecordTap;
    use vids::ingest::replay::replay_pcap_parallel;
    use vids::ingest::server::FLUSH_PACKETS;
    use vids::record::Recorder;

    let file = flags
        .positional()
        .ok_or("replay needs a capture file: vids replay FILE.pcap|FILE.vdump")?;
    if file.ends_with(".vdump") {
        flags.finish()?;
        return replay_dump(&file);
    }
    let shards: usize = flags.parsed("--shards")?.unwrap_or(4);
    let threads: usize = flags.parsed("--threads")?.filter(|&n| n > 0).unwrap_or(1);
    let telemetry_path = flags.value("--telemetry")?;
    let record_dir = flags.value("--record")?;
    flags.finish()?;

    let cfg = Config::builder()
        .shards(shards)
        .build()
        .map_err(|e| format!("bad --shards {shards}: {e}"))?;
    let capture = std::fs::read(&file).map_err(|e| format!("cannot read {file}: {e}"))?;

    let mut pool = VidsPool::with_cost(cfg, CostModel::free());
    let registry = pool.enable_telemetry(256);
    let recorder = record_dir.as_ref().map(|_| {
        let mut rec = Recorder::with_defaults(1);
        rec.attach_telemetry(registry.pool_slab());
        rec
    });
    let mut tap = recorder
        .as_ref()
        .map(|rec| RecordTap::new(rec, record_dir.as_deref().map(std::path::Path::new)));
    let mut sink = CollectSink::new();
    let wall_start = std::time::Instant::now();
    let report = replay_pcap_parallel(
        capture,
        &mut pool,
        FLUSH_PACKETS,
        threads,
        Some(&registry),
        tap.as_mut(),
        &mut sink,
    )
    .map_err(|e| e.to_string())?;
    let wall = wall_start.elapsed().as_secs_f64();

    println!("{}", RunSummary::from_replay(&report, wall).render());
    println!("{}", run_report::counters_line(&pool.counters()));
    print!("{}", run_report::alert_report(sink.alerts()));
    if let Some(t) = &tap {
        println!(
            "{}",
            run_report::recorder_summary(&t.recorder.stats(), &t.written, t.io_errors)
        );
    }
    if let Some(path) = telemetry_path {
        let snap = pool
            .telemetry_snapshot(report.last_at)
            .expect("telemetry enabled above");
        write_telemetry(&path, std::slice::from_ref(&snap))?;
        println!("telemetry snapshot written to {path}");
    }
    Ok(0)
}

/// The `.vdump` arm of `vids replay`: re-run the captured window through
/// a fresh engine under the recorded configuration and batch clocks, and
/// check the alert reproduces byte-for-byte.
fn replay_dump(file: &str) -> Result<i32, String> {
    use vids::record::{replay_vdump, Vdump};

    let dump = Vdump::read_from(std::path::Path::new(file))
        .map_err(|e| format!("cannot load {file}: {e}"))?;
    print!("{}", dump.describe());
    let verdict = replay_vdump(&dump);
    println!(
        "replay: {} batches, {} packets, {} alert(s) raised",
        verdict.outcome.batches,
        verdict.outcome.packets,
        verdict.outcome.alerts.len()
    );
    println!(
        "alert byte-identical: {}; counters identical: {}; snapshot identical: {}",
        verdict.alert_identical, verdict.counters_identical, verdict.snapshot_identical
    );
    if verdict.identical() {
        println!("verdict: deterministic — the recorded alert reproduces exactly");
        Ok(0)
    } else {
        println!("verdict: DIVERGED — the dump does not reproduce on this build");
        Ok(1)
    }
}

/// `vids inspect`: decode a `.vdump` forensic dump and print its
/// self-description without replaying anything.
fn inspect(flags: &mut Flags) -> Result<i32, String> {
    use vids::record::Vdump;

    let file = flags
        .positional()
        .ok_or("inspect needs a dump file: vids inspect FILE.vdump")?;
    flags.finish()?;
    let dump = Vdump::read_from(std::path::Path::new(&file))
        .map_err(|e| format!("cannot load {file}: {e}"))?;
    print!("{}", dump.describe());
    Ok(0)
}

/// `vids top`: a one-shot metric table in the spirit of `top(1)` — capture
/// a short workload at the perimeter, replay it through a telemetry-enabled
/// sharded pool, and print where the packets, transitions and memory went.
fn top(flags: &mut Flags) -> Result<i32, String> {
    use vids::core::telemetry::{Counter, Gauge, HistId};
    use vids::core::{Config, CostModel, NullSink, VidsPool};
    use vids::netsim::node::TapNode;
    use vids::netsim::trace::{CaptureFilter, TraceTap};

    let shards: usize = flags.parsed("--shards")?.filter(|&n| n > 0).unwrap_or(4);
    let seconds: u64 = flags.parsed("--seconds")?.filter(|&s| s > 0).unwrap_or(60);
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(1);
    flags.finish()?;

    // Phase 1: record `seconds` of the small-testbed workload at the tap.
    let mut config = TestbedConfig::small(seed);
    config.workload.mean_interarrival_secs = 5.0;
    config.workload.mean_duration_secs = 15.0;
    config.workload.horizon = SimTime::from_secs(seconds);
    let mut tb = Testbed::build_capture(
        &config,
        Box::new(TraceTap::new(1_000_000).with_filter(CaptureFilter::VoipOnly)),
    );
    tb.run_until(SimTime::from_secs(seconds + 30));
    let tap = tb
        .ent
        .sim
        .node_as::<TapNode>(tb.ent.tap)
        .tap_as::<TraceTap>();
    let batch: Vec<_> = tap
        .captured()
        .iter()
        .map(|c| {
            let mut p = c.packet.clone();
            p.sent_at = c.at;
            p
        })
        .collect();
    eprintln!(
        "captured {} packets over {seconds} s (seed {seed})",
        batch.len()
    );

    // Phase 2: replay through a telemetry-enabled pool, 100 packets per
    // batch (timestamps ride along in `sent_at`).
    let cfg = Config::builder()
        .shards(shards)
        .build()
        .map_err(|e| format!("bad --shards {shards}: {e}"))?;
    let mut pool = VidsPool::with_cost(cfg, CostModel::free());
    pool.enable_telemetry(256);
    let mut end = SimTime::ZERO;
    for chunk in batch.chunks(100) {
        end = chunk.last().map(|p| p.sent_at).unwrap_or(end);
        pool.process_batch(chunk, end, &mut NullSink);
    }
    end += pool.config().replay_grace;
    pool.tick(end, &mut NullSink);
    let snap = pool
        .telemetry_snapshot(end)
        .expect("telemetry enabled above");

    const COLS: [Counter; 7] = [
        Counter::SipPackets,
        Counter::RtpPackets,
        Counter::Transitions,
        Counter::SyncDeliveries,
        Counter::CallsCreated,
        Counter::CallsEvicted,
        Counter::AlertsAttack,
    ];
    println!(
        "{:>6} {:>8} {:>8} {:>12} {:>8} {:>8} {:>8} {:>8} {:>6} {:>10}",
        "shard",
        "sip",
        "rtp",
        "transitions",
        "sync",
        "created",
        "evicted",
        "attacks",
        "live",
        "mem(B)"
    );
    for (i, s) in snap.shards.iter().enumerate() {
        print!("{i:>6}");
        for c in COLS {
            let w = if c == Counter::Transitions { 12 } else { 8 };
            print!(" {:>w$}", s.counter(c));
        }
        println!(
            " {:>6} {:>10}",
            s.gauge(Gauge::LiveCalls),
            s.gauge(Gauge::MemoryBytes)
        );
    }
    let merged = snap.merged();
    print!("{:>6}", "total");
    for c in COLS {
        let w = if c == Counter::Transitions { 12 } else { 8 };
        print!(" {:>w$}", merged.counter(c));
    }
    println!(
        " {:>6} {:>10}",
        merged.gauge(Gauge::LiveCalls),
        merged.gauge(Gauge::MemoryBytes)
    );
    println!("\n{}", run_report::pool_line(&snap));
    let sizes = snap.pool.hist(HistId::BatchSize);
    print!("batch sizes:");
    for (lo, n) in sizes.nonzero() {
        print!("  >={lo}: {n}");
    }
    println!();
    println!(
        "merge: {} ns total across {} merges",
        snap.pool.counter(Counter::MergeNanos),
        snap.pool.hist(HistId::MergeNanos).total(),
    );
    Ok(0)
}

fn machines(flags: &mut Flags) -> Result<i32, String> {
    let dot_dir = flags.value("--dot")?;
    let cfg = vids::core::Config::default();
    let defs = [
        vids::core::machines::sip::sip_call_machine(&cfg),
        vids::core::machines::rtp::rtp_session_machine(&cfg),
        vids::core::machines::flood::invite_flood_machine(&cfg),
        vids::core::machines::flood::response_flood_machine(&cfg),
        vids::core::machines::register::registration_machine(),
    ];
    for def in &defs {
        println!(
            "\n### `{}` — {} states, {} transitions",
            def.name(),
            def.state_count(),
            def.transition_count()
        );
        for p in attack_paths(def) {
            println!("{p}");
        }
    }
    if let Some(dir) = dot_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {dir}: {e}");
            return Ok(1);
        }
        for def in &defs {
            let path = format!("{dir}/{}.dot", def.name());
            if let Err(e) = std::fs::write(&path, to_dot(def)) {
                eprintln!("cannot write {path}: {e}");
                return Ok(1);
            }
            println!("wrote {path}");
        }
    }
    Ok(0)
}

fn sensitivity(_flags: &mut Flags) -> Result<i32, String> {
    use std::sync::Arc;
    use vids::core::machines::flood::window_counter_machine;
    use vids::efsm::network::Network;
    use vids::efsm::Event;

    println!("INVITE flooding: detection delay vs. attack rate (N=10, T1=1s)");
    println!("{:>12} {:>18}", "rate (pps)", "delay (ms)");
    for rate in [20.0, 50.0, 100.0, 200.0, 1000.0f64] {
        let def = Arc::new(window_counter_machine(
            "flood",
            "SIP.INVITE",
            10,
            1_000,
            "f",
        ));
        let mut net = Network::new();
        let id = net.add_machine(def);
        let gap = (1_000.0 / rate) as u64;
        let mut t = 0u64;
        let delay = loop {
            net.advance_time(t);
            if !net
                .deliver(id, Event::data("SIP.INVITE"), t)
                .alerts
                .is_empty()
            {
                break Some(t);
            }
            t += gap.max(1);
            if t > 600_000 {
                break None;
            }
        };
        println!(
            "{:>12} {:>18}",
            rate,
            delay
                .map(|d| d.to_string())
                .unwrap_or_else(|| "none".into())
        );
    }
    println!(
        "\n(see `cargo bench -p vids-bench --bench detection_sensitivity` for the full E7 tables)"
    );
    Ok(0)
}
