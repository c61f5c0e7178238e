//! E3 / Fig. 10 — impact of vids on RTP streams: one-way delay and average
//! delay variation (jitter), with vs. without the inline monitor.
//!
//! Paper result: +1.5 ms delay, jitter higher by ~2·10⁻⁴ s — negligible
//! against the 150 ms one-way VoIP budget.

use vids_bench::{header, qos_workload, row, run_qos};

fn print_figure() {
    let with = run_qos(&qos_workload(10, 4));
    let without = run_qos(&qos_workload(10, 4).without_vids());

    println!("{}", header("E3 / Fig. 10: RTP QoS impact"));
    println!(
        "{}",
        row(
            "one-way RTP delay without vids (s)",
            "~0.052",
            format!("{:.5}", without.rtp_delay.mean())
        )
    );
    println!(
        "{}",
        row(
            "one-way RTP delay with vids (s)",
            "+0.0015",
            format!("{:.5}", with.rtp_delay.mean())
        )
    );
    println!(
        "{}",
        row(
            "delay added by vids (s)",
            "~0.0015",
            format!("{:.5}", with.rtp_delay.mean() - without.rtp_delay.mean())
        )
    );
    println!(
        "{}",
        row(
            "avg delay variation without (s)",
            "(baseline)",
            format!("{:.6}", without.jitter.mean())
        )
    );
    println!(
        "{}",
        row(
            "avg delay variation with (s)",
            "+2e-4",
            format!("{:.6}", with.jitter.mean())
        )
    );
    println!(
        "{}",
        row(
            "RTP packets measured",
            "-",
            format!("{}", with.rtp_delay.count())
        )
    );
    println!(
        "{}",
        row(
            "one-way budget (§7.4)",
            "< 0.150",
            format!("max {:.4}", with.rtp_delay.max())
        )
    );
}

fn main() {
    print_figure();
}
