//! The live workload: one generator thread and one socket drive
//! `serve_on` over loopback UDP on an open-loop 1 ms schedule, and every
//! forged BYE is timed from the instant it was *due* to the instant its
//! alert reaches the sink.

use std::collections::HashMap;
use std::net::UdpSocket;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use vids_core::{Alert, CostModel, FnSink, VidsPool};
use vids_ingest::{serve_on, PcapReader, ServeOptions, UdpPool};

use crate::child::{self, Report};
use crate::gen::{Workload, LIVE_WARMUP_US};
use crate::manifest::{alert_set, Manifest};
use crate::setup::engine_config;
use crate::sys;

/// The generator wakes once per tick …
pub const TICK_US: u64 = 1_000;
/// … and sends at most this many datagrams per wake-up, so a late wake-up
/// is spread over the following ticks instead of leaving as one burst.
pub const BURST_CAP: usize = 8;
/// How long the monitor keeps serving after the last datagram, so the
/// last alerts are harvested (serve ticks every 100 ms).
const DRAIN: Duration = Duration::from_millis(700);

/// How many datagrams from index `next` on go out at `now_us`: the ones
/// already due, at most [`BURST_CAP`].
pub fn due_now(due_us: &[u64], next: usize, now_us: u64) -> usize {
    due_us[next..]
        .iter()
        .take(BURST_CAP)
        .take_while(|&&due| due <= now_us)
        .count()
}

/// Runs the live session in a fresh process.
pub fn run_session(plan: &Path, manifest: &Path) -> Result<Report, String> {
    child::spawn(&[
        "child-live",
        "--capture",
        &plan.display().to_string(),
        "--manifest",
        &manifest.display().to_string(),
    ])
}

/// What the generator thread hands back.
struct Sent {
    /// When datagram 0 was due.
    origin: Instant,
    /// Send lateness per datagram of the measured window, ms.
    late_ms: Vec<f64>,
    window_wall_ns: u64,
    window_monitor_cpu_ns: u64,
    window_dgrams: u64,
}

/// The child side.
pub fn child_main(plan: &Path, manifest: &Path) -> Result<Report, String> {
    let manifest = Manifest::read_from(manifest)?;
    let bytes = std::fs::read(plan).map_err(|e| format!("{}: {e}", plan.display()))?;
    let mut reader = PcapReader::new(&bytes).map_err(|e| e.to_string())?;
    let mut due_us = Vec::new();
    let mut payloads: Vec<&[u8]> = Vec::new();
    while let Some(d) = reader.next_datagram().map_err(|e| e.to_string())? {
        due_us.push(d.at.as_nanos() / 1_000);
        payloads.push(d.payload);
    }
    let probe_due: HashMap<&str, u64> = manifest
        .probes
        .iter()
        .map(|(idx, call_id)| (call_id.as_str(), due_us[*idx as usize]))
        .collect();

    let config = engine_config(Workload::LiveTrickle, 1);
    let mut pool = VidsPool::with_cost(config, CostModel::free());
    let opts = ServeOptions::from_config(&config);
    let udp = UdpPool::bind(
        "127.0.0.1:0".parse().expect("literal address"),
        opts.receivers,
    )
    .map_err(|e| format!("bind loopback: {e}"))?;
    let target = udp.local_addr();
    let stop = AtomicBool::new(false);

    // Reserved up front: the sink must not allocate inside the window.
    let mut seen: Vec<(Instant, Alert)> = Vec::with_capacity(manifest.probes.len() * 2 + 1024);
    let mut sink = FnSink(|alert: Alert| seen.push((Instant::now(), alert)));

    // Allocations are counted over the whole session, warm-up and drain
    // included: a window edge would cut through a batch in flight and make
    // the count depend on which side the batch fell. The generator and the
    // sink allocate nothing while it runs, so the count is the monitor's.
    sys::count_allocs(true);
    let (served, sent) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| generate(&due_us, &payloads, target, &stop));
        let served = serve_on(&mut pool, udp, &opts, None, &stop, None, &mut sink);
        (served, generator.join().expect("generator thread panicked"))
    });
    sys::count_allocs(false);
    let (allocs, alloc_bytes) = sys::alloc_counts();
    let served = served.map_err(|e| format!("serve failed: {e}"))?;
    let sent = sent?;

    // Detection delay of every probe in the measured window.
    let mut detect_ms = Vec::new();
    for (at, alert) in &seen {
        let Some(&due) = alert.call_id.as_deref().and_then(|c| probe_due.get(c)) else {
            continue;
        };
        if due >= LIVE_WARMUP_US {
            let due_at = sent.origin + Duration::from_micros(due);
            detect_ms.push(at.saturating_duration_since(due_at).as_secs_f64() * 1e3);
        }
    }

    let mut report = Report::default();
    report.set("datagrams_sent", due_us.len());
    report.set("datagrams", served.datagrams_rx);
    report.set("datagrams_dropped", served.datagrams_dropped);
    report.set("demux_unknown", served.demux_unknown);
    report.set("batches", served.batches);
    report.set("wall_ns", sent.window_wall_ns);
    report.set("cpu_ns", sent.window_monitor_cpu_ns);
    report.set("window_dgrams", sent.window_dgrams);
    report.set("allocs", allocs);
    report.set("alloc_bytes", alloc_bytes);
    report.set("peak_rss_kib", sys::peak_rss_kib());
    report.set("peak_calls", pool.factbase_stats().peak_concurrent);
    report.lists.insert("detect_ms".into(), detect_ms);
    report.lists.insert("late_ms".into(), sent.late_ms);
    report.alerts = alert_set(seen.iter().map(|(_, a)| a));
    Ok(report)
}

/// The generator thread: sends the plan on schedule, brackets the measured
/// window with CPU and wall readings, then stops the monitor.
fn generate(
    due_us: &[u64],
    payloads: &[&[u8]],
    target: std::net::SocketAddr,
    stop: &AtomicBool,
) -> Result<Sent, String> {
    let result = send_plan(due_us, payloads, target);
    std::thread::sleep(DRAIN);
    stop.store(true, Ordering::Relaxed);
    result
}

fn send_plan(
    due_us: &[u64],
    payloads: &[&[u8]],
    target: std::net::SocketAddr,
) -> Result<Sent, String> {
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind sender: {e}"))?;
    socket
        .connect(target)
        .map_err(|e| format!("connect sender: {e}"))?;
    let window_from = due_us.partition_point(|&due| due < LIVE_WARMUP_US);
    let mut late_ms = Vec::with_capacity(due_us.len() - window_from);

    // Monitor CPU = process CPU minus this thread's.
    let monitor_cpu = || sys::process_cpu_ns().saturating_sub(sys::thread_cpu_ns());
    let mut window_start: Option<(Instant, u64)> = None;

    // Let the receiver reach its first poll before datagram 0 is due.
    let origin = Instant::now() + Duration::from_millis(50);
    let mut next = 0;
    let mut tick = 0u64;
    while next < due_us.len() {
        let wake = origin + Duration::from_micros(tick * TICK_US);
        tick += 1;
        let now = Instant::now();
        if wake > now {
            std::thread::sleep(wake - now);
        }
        let now_us = Instant::now().saturating_duration_since(origin).as_micros() as u64;
        let burst = next..next + due_now(due_us, next, now_us);
        next = burst.end;
        for i in burst {
            if i == window_from {
                window_start = Some((Instant::now(), monitor_cpu()));
            }
            socket
                .send(payloads[i])
                .map_err(|e| format!("send datagram {i}: {e}"))?;
            if i >= window_from {
                let sent_us = Instant::now().saturating_duration_since(origin).as_micros() as u64;
                late_ms.push(sent_us.saturating_sub(due_us[i]) as f64 / 1e3);
            }
        }
    }
    let (started, cpu0) = window_start.ok_or("the plan ends inside its warm-up")?;
    Ok(Sent {
        origin,
        late_ms,
        window_wall_ns: started.elapsed().as_nanos() as u64,
        window_monitor_cpu_ns: monitor_cpu() - cpu0,
        window_dgrams: (due_us.len() - window_from) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Shape};

    #[test]
    fn plan_due_times_are_monotone_and_a_late_sender_never_bursts() {
        let shape = Shape::full(Workload::LiveTrickle).with_live_seconds(3);
        let mut due = Vec::new();
        generate(&shape, 11, |d| due.push(d.at_us));
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times monotone");

        // A sender that sleeps through 40 ms now and then: every wake-up
        // sends only what is due, never more than the cap, in order.
        let mut next = 0;
        let mut now_us = 0;
        let mut wakeups = 0u64;
        while next < due.len() {
            let n = due_now(&due, next, now_us);
            assert!(n <= BURST_CAP);
            assert!(due[next..next + n].iter().all(|&d| d <= now_us));
            if n < BURST_CAP {
                assert!(
                    due.get(next + n).is_none_or(|&d| d > now_us),
                    "sends all that is due"
                );
            }
            next += n;
            wakeups += 1;
            now_us += if wakeups.is_multiple_of(100) {
                40 * TICK_US
            } else {
                TICK_US
            };
        }
        // On time, the offered rate never needs the cap.
        let mut per_tick = HashMap::new();
        for d in &due {
            *per_tick.entry(d / TICK_US).or_insert(0usize) += 1;
        }
        assert!(per_tick.values().all(|&n| n <= BURST_CAP));
    }
}
