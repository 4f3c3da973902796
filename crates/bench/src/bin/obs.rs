//! Observability overhead A/B: the cost of the `intercom-obs` layer on
//! the transport hot path, measured and gated.
//!
//! Five configurations of the 64 KiB planned broadcast hot loop on the
//! threaded backend:
//!
//! * **baseline** — `run_world`: no recorder attached, metrics switch
//!   off. This is the all-disabled production path (the per-execute
//!   metrics/flight hooks are always compiled in, guarded by one
//!   relaxed atomic load each).
//! * **disabled** — `run_world_observed` with `disabled_recorders`: a
//!   recorder is attached but off. This is the cost every user pays for
//!   the instrumentation hooks, and the first CI gate: the binary exits
//!   nonzero unless it stays within 3% of baseline;
//! * **metrics-off** — baseline with the metrics/flight switches
//!   asserted off. Second CI gate (the ISSUE's "disabled ≤3%"): the
//!   all-disabled path must stay within 3% of baseline. Today it runs
//!   the identical code, so the gate bounds harness noise and pins the
//!   contract that disabling telemetry costs nothing beyond the
//!   always-present atomic check;
//! * **metrics-on** — metrics registry + flight recorder globally
//!   enabled (no event recorder): per-execute latency histogram,
//!   per-step flight marks. Reported for information (not gated);
//! * **enabled** — `run_world_recorded`: full event + counter
//!   recording, reported for information (not gated).
//!
//! Every configuration is timed in pairs with a baseline run of its
//! own, and each ratio reported (and gated) is the median of the
//! per-pair ratios, with their quartiles; a mode's MB/s is the median
//! baseline's divided by that ratio.
//!
//! Run: `cargo run --release -p intercom-bench --bin obs`
//! (append `-- --smoke` for the shorter CI gate mode).
//! Emits `BENCH_obs.json` in the current directory.

use intercom::plan::BcastPlan;
use intercom::{Comm, Communicator};
use intercom_cost::MachineParams;
use intercom_obs::{disabled_recorders, flight, metrics, DEFAULT_RING_CAPACITY};
use intercom_runtime::{run_world, run_world_observed, run_world_recorded, ThreadComm};
use std::process::ExitCode;
use std::time::Instant;

const RANKS: usize = 8;
const BYTES: usize = 64 * 1024;

/// Hard ceiling on disabled-recorder and disabled-metrics overhead,
/// enforced in smoke mode.
const GATE_MAX_RATIO: f64 = 1.03;

/// One world: warm-up, then `iters` timed planned broadcasts. Returns
/// this rank's timed seconds; the slowest rank bounds the collective.
fn bcast_loop(c: &ThreadComm, iters: usize) -> f64 {
    let cc = Communicator::world(c, MachineParams::PARAGON);
    let plan = BcastPlan::<u8>::new(&cc, 0, BYTES);
    let mut buf = vec![c.rank() as u8; BYTES];
    plan.execute(&cc, &mut buf).unwrap(); // warm-up: pools, stashes
    let t0 = Instant::now();
    for _ in 0..iters {
        plan.execute(&cc, &mut buf).unwrap();
    }
    t0.elapsed().as_secs_f64()
}

#[derive(Clone, Copy)]
enum Mode {
    Baseline,
    Disabled,
    MetricsOff,
    MetricsOn,
    Enabled,
}

const MODES: [Mode; 5] = [
    Mode::Baseline,
    Mode::Disabled,
    Mode::MetricsOff,
    Mode::MetricsOn,
    Mode::Enabled,
];

fn run_once(mode: Mode, iters: usize) -> f64 {
    let secs = match mode {
        Mode::Baseline => run_world(RANKS, move |c| bcast_loop(c, iters)),
        Mode::Disabled => {
            run_world_observed(RANKS, disabled_recorders(RANKS), move |c| {
                bcast_loop(c, iters)
            })
            .0
        }
        Mode::MetricsOff => {
            assert!(
                !metrics::enabled() && !flight::enabled(),
                "metrics-off mode requires the telemetry switches off"
            );
            run_world(RANKS, move |c| bcast_loop(c, iters))
        }
        Mode::MetricsOn => {
            metrics::set_enabled(true);
            flight::set_enabled(true);
            let secs = run_world(RANKS, move |c| bcast_loop(c, iters));
            metrics::set_enabled(false);
            flight::set_enabled(false);
            secs
        }
        Mode::Enabled => {
            run_world_recorded(RANKS, DEFAULT_RING_CAPACITY, move |c| bcast_loop(c, iters)).0
        }
    };
    secs.into_iter().fold(0.0f64, f64::max)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

/// The lower quartile, median and upper quartile of `v` (nearest rank).
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    [v.len() / 4, v.len() / 2, 3 * v.len() / 4].map(|i| v[i])
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 400 } else { 1500 };
    // The two gated modes (slots 1 and 2) get 81 pairs; the
    // informational ones need no gate-grade precision.
    let (rounds, info_rounds) = (81, 9);

    // Every round times each mode in a pair with a baseline run of its
    // own, the order within the pair alternating between rounds, and
    // the gate reads the median of the per-pair ratios. Host noise
    // longer than one pair then shifts both halves alike, and a burst
    // inside a pair spoils that pair's ratio only. Only the paired
    // ratios are reported: medians of unpaired runs mix in the noise
    // the pairing cancels.
    let mut ratios: [Vec<f64>; MODES.len()] = Default::default();
    let mut baseline_secs = Vec::new();
    for round in 0..rounds {
        for slot in 1..MODES.len() {
            if slot > 2 && round >= info_rounds {
                continue;
            }
            let (base, other) = if round % 2 == 0 {
                let base = run_once(Mode::Baseline, iters);
                (base, run_once(MODES[slot], iters))
            } else {
                let other = run_once(MODES[slot], iters);
                (run_once(Mode::Baseline, iters), other)
            };
            baseline_secs.push(base);
            ratios[slot].push(other / base);
        }
    }
    let baseline = quartiles(baseline_secs)[1];
    let [disabled, metrics_off, metrics_on, enabled] =
        [1, 2, 3, 4].map(|slot| quartiles(std::mem::take(&mut ratios[slot])));
    let pass = disabled[1] <= GATE_MAX_RATIO && metrics_off[1] <= GATE_MAX_RATIO;

    // Each mode's throughput is the baseline's divided by its median
    // paired ratio.
    let mbs = |ratio: f64| (BYTES as f64 * iters as f64) / (baseline * ratio) / (1 << 20) as f64;
    let pct = |r: f64| (r - 1.0) * 100.0;
    let line = |name: &str, q: [f64; 3], note: &str| {
        println!(
            "  {name:<25} {:>8.1} MB/s  ({:+.2}% vs baseline, quartiles {:+.2}%..{:+.2}%, {note})",
            mbs(q[1]),
            pct(q[1]),
            pct(q[0]),
            pct(q[2])
        );
    };
    println!(
        "observability overhead, {RANKS} ranks, 64 KiB planned broadcast, \
         median of {rounds} ({info_rounds} informational) paired runs of {iters}:"
    );
    println!("  {:<25} {:>8.1} MB/s", "baseline (all off):", mbs(1.0));
    let gate = format!("gate <= +{:.0}%", pct(GATE_MAX_RATIO));
    line("disabled recorder:", disabled, &gate);
    line("metrics switch off:", metrics_off, &gate);
    line("metrics + flight on:", metrics_on, "informational");
    line("enabled recorder:", enabled, "informational");

    let ratio_json = |name: &str, q: [f64; 3]| {
        format!(
            "  \"{name}_overhead_ratio\": {},\n  \"{name}_ratio_q1\": {},\n  \"{name}_ratio_q3\": {},\n",
            json_num(q[1]),
            json_num(q[0]),
            json_num(q[2])
        )
    };
    let json = format!(
        "{{\n  \"ranks\": {RANKS},\n  \"bytes\": {BYTES},\n  \"iters\": {iters},\n  \
         \"rounds\": {rounds},\n  \"informational_rounds\": {info_rounds},\n  \"smoke\": {smoke},\n  \
         \"baseline_secs\": {},\n{}{}{}{}  \"gate_max_ratio\": {GATE_MAX_RATIO},\n  \
         \"pass\": {pass}\n}}\n",
        json_num(baseline),
        ratio_json("disabled", disabled),
        ratio_json("metrics_off", metrics_off),
        ratio_json("metrics_on", metrics_on),
        ratio_json("enabled", enabled),
    );
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");

    if !pass {
        eprintln!(
            "obs gate FAILED: disabled-recorder {:+.2}% / metrics-off {:+.2}% (limit +{:.0}%)",
            pct(disabled[1]),
            pct(metrics_off[1]),
            pct(GATE_MAX_RATIO)
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
