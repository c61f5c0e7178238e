//! E1 / Fig. 8 — call arrivals and durations observed at enterprise B's
//! proxy over the experiment horizon.
//!
//! The paper plots ~120 minutes of Poisson call arrivals and their random
//! durations. This harness replays the same generator at full scale for the
//! printed series.

use vids::netsim::time::SimTime;
use vids::netsim::workload::{CallPlan, WorkloadSpec};
use vids::scenario::{Testbed, TestbedConfig};
use vids_bench::{header, row};

fn print_figure() {
    // Full-scale plan: the paper's 20 callers over 120 minutes.
    let spec = WorkloadSpec::default();
    let plan = CallPlan::generate(&spec, 1);
    println!(
        "{}",
        header("E1 / Fig. 8: call arrivals & durations (120 min plan)")
    );
    println!(
        "{}",
        row("total call attempts", "~O(100s)", plan.len().to_string())
    );
    let durations: Vec<f64> = plan
        .calls()
        .iter()
        .map(|c| c.duration.as_secs_f64())
        .collect();
    let mean_dur = durations.iter().sum::<f64>() / durations.len() as f64;
    println!(
        "{}",
        row("mean call duration (s)", "random", format!("{mean_dur:.1}"))
    );
    println!("\narrivals per 10-minute bin:");
    let mut bins = [0u32; 12];
    for c in plan.calls() {
        let bin = (c.start.as_secs_f64() / 600.0) as usize;
        if bin < bins.len() {
            bins[bin] += 1;
        }
    }
    for (i, n) in bins.iter().enumerate() {
        println!(
            "  {:>3}-{:>3} min: {:>4} {}",
            i * 10,
            (i + 1) * 10,
            n,
            "#".repeat(*n as usize / 2)
        );
    }

    // A short actual simulation confirming proxy B observes the plan.
    let mut config = TestbedConfig::paper(1);
    config.workload.horizon = SimTime::from_secs(240);
    let mut tb = Testbed::build(&config);
    tb.run_until(SimTime::from_secs(360));
    let proxy = tb.proxy_b();
    println!("\n4-minute simulated slice at proxy B:");
    println!(
        "{}",
        row(
            "INVITEs observed",
            "= attempts",
            proxy.arrivals().len().to_string()
        )
    );
    println!(
        "{}",
        row(
            "durations logged",
            "completed calls",
            proxy.durations().len().to_string()
        )
    );
}

fn main() {
    print_figure();
}
