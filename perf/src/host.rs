//! Where a number was measured: host fingerprint, a fixed speed probe and
//! the hypervisor's steal counter, so a reader can tell a slow program
//! from a slow afternoon on a shared machine.

use std::time::Instant;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn field_after_colon(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// Static facts about the host, one `key value` pair each.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpuinfo = read("/proc/cpuinfo");
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        // The driver's checkout is not a git repository.
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        (
            "cpu_model",
            field_after_colon(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into()),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_owned(),
        ),
        (
            "loadavg",
            read("/proc/loadavg")
                .split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("git_commit", git),
    ]
}

/// `(steal, total)` jiffies summed over all CPUs since boot.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = read("/proc/stat");
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = f.get(7).copied().unwrap_or(0);
    (steal, f.iter().take(8).sum())
}

/// Share of CPU time the hypervisor gave to someone else between two
/// [`cpu_jiffies`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Fixed work — an FNV pass over 1 MiB plus a dependent walk through a
/// 4 MiB permutation — timed in milliseconds. Compare it between runs, not
/// between hosts: it moves when a neighbour takes cache or cycles.
pub fn speed_index_ms() -> f64 {
    const WORDS: usize = 1 << 19; // 4 MiB of u64
    let mut next: Vec<u64> = (0..WORDS as u64).collect();
    // Sattolo shuffle driven by a fixed LCG: one cycle through every slot.
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..WORDS).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (state >> 33) as usize % i;
        next.swap(i, j);
    }
    let bytes: Vec<u8> = (0..1 << 20).map(|i| (i * 31) as u8).collect();
    let started = Instant::now();
    let mut at = 0u64;
    for _ in 0..WORDS {
        at = next[at as usize];
    }
    let hash = crate::gen::fnv1a64(std::hint::black_box(&bytes));
    std::hint::black_box((at, hash));
    started.elapsed().as_secs_f64() * 1e3
}
