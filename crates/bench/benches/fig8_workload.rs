//! E1 / Fig. 8 — call arrivals and durations observed at enterprise B's
//! proxy over the experiment horizon.
//!
//! The paper plots ~120 minutes of Poisson call arrivals and their random
//! durations. This harness replays the same generator at full scale for the
//! printed series and benches plan generation.

use std::sync::Once;

use criterion::{criterion_group, criterion_main, Criterion};

use vids::netsim::time::SimTime;
use vids::netsim::workload::{CallPlan, WorkloadSpec};
use vids::scenario::{Testbed, TestbedConfig};
use vids_bench::{header, print_once, row};

static PRINTED: Once = Once::new();

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

fn bench(c: &mut Criterion) {
    print_once(&PRINTED, print_figure);
    let spec = WorkloadSpec::default();
    c.bench_function("fig8/generate_120min_call_plan", |b| {
        b.iter(|| CallPlan::generate(std::hint::black_box(&spec), 1).len())
    });

    // Monitoring the fig. 8 call mix through the sharded engine
    // (VIDS_SHARDS knob).
    let shards = vids_bench::shards_knob();
    let batch = vids_bench::synth_call_batch(120, 30);
    c.bench_function(&format!("fig8/monitor_call_mix_{shards}_shards"), |b| {
        use vids::core::{Config, CostModel, NullSink, VidsPool};
        b.iter(|| {
            let config = Config::builder().shards(shards).build().unwrap();
            let mut pool = VidsPool::with_cost(config, CostModel::free());
            pool.process_batch(std::hint::black_box(&batch), SimTime::ZERO, &mut NullSink);
            std::hint::black_box(pool.monitored_calls())
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
