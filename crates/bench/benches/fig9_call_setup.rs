//! E2 / Fig. 9 — call-setup delay (INVITE → 180 Ringing) with and without
//! vids, including the paper's per-caller series for callers 3 and 4.
//!
//! Paper result: vids adds ≈100 ms to call setup on average.

use vids_bench::{header, qos_workload, row, run_qos};

fn print_figure() {
    let with = run_qos(&qos_workload(9, 4));
    let without = run_qos(&qos_workload(9, 4).without_vids());

    println!("{}", header("E2 / Fig. 9: call setup delay"));
    println!(
        "{}",
        row(
            "setup delay without vids (s)",
            "(baseline)",
            format!("{:.4}", without.setup.mean())
        )
    );
    println!(
        "{}",
        row(
            "setup delay with vids (s)",
            "+0.100",
            format!("{:.4}", with.setup.mean())
        )
    );
    println!(
        "{}",
        row(
            "delay added by vids (s)",
            "~0.100",
            format!("{:.4}", with.setup.mean() - without.setup.mean())
        )
    );
    println!(
        "{}",
        row("calls measured", "-", format!("{}", with.setup.count()))
    );

    // Fig. 9 plots two representative callers (3 and 4): print both series.
    for caller in [3usize, 4] {
        println!("\ncaller {caller} setup-delay series (t s -> with vids s / without s):");
        let w = &with.per_caller_setup[caller];
        let wo = &without.per_caller_setup[caller];
        for (i, ((t, d_with), (_, d_without))) in w.iter().zip(wo.iter()).enumerate() {
            println!(
                "  call {:>2} @ {:>6.1}s: {:.4} / {:.4}",
                i + 1,
                t,
                d_with,
                d_without
            );
        }
        if w.is_empty() {
            println!("  (caller placed no calls in this horizon)");
        }
    }
}

fn main() {
    print_figure();
}
