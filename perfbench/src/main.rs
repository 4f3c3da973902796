//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload, checks every collective's output, and prints one
//! JSON object as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! A full report (host fingerprint, seed, repeat counts, min/median/max
//! per metric, the per-case model-vs-simulation table) and, for traced
//! runs, the span log are written under `.perfbench_out/`. The exit
//! code is non-zero if any output was wrong. See `perfbench/README.md`.

mod calls;
mod gen;
mod host;
mod layers;
mod metrics;
mod sim;
mod stats;
mod threads;
mod trace;

use gen::{Machine, Mix};
use layers::{cross_rank_latency_ns, LayerSamples};
use metrics::{Metric, MetricSet};
use sim::{CaseStats, SimOutcome};
use stats::{geomean, median, quantile, sorted};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Layer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "threads-small",
    "threads-large",
    "paragon-sim",
    "cluster-sim",
];

/// Seconds spent on a threaded workload's simulated replay (at least
/// `MIN_REPLAY_PASSES` passes).
const REPLAY_SECONDS: f64 = 2.0;
const MIN_REPLAY_PASSES: usize = 5;
/// Most passes over a simulated workload's case list.
const MAX_SIM_PASSES: usize = 1000;
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything one run produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: MetricSet,
    cases: Vec<CaseStats>,
    /// Extra report fields: `(key, JSON value)`.
    notes: Vec<(String, String)>,
    spans: Vec<trace::NamedLog>,
    /// Calls whose span self times did not sum to the call span.
    unbalanced: usize,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Puts `call_p50_us` and `call_p99_us` from latency samples (in µs)
/// grouped into call classes (a call shape, or for fresh sizes an op).
/// p50 is the geometric mean over classes of the class median, so it
/// does not hinge on how a seed happens to mix fast and slow shapes;
/// p99 is the 99th percentile over all calls.
fn put_call_latency<K>(m: &mut MetricSet, classes: &BTreeMap<K, Vec<f64>>) {
    let medians: Vec<f64> = classes.values().map(|v| median(v)).collect();
    m.put("call_p50_us", geomean(&medians), &medians);
    let all = sorted(classes.values().flatten().copied().collect());
    m.put("call_p99_us", quantile(&all, 0.99), &all);
}

/// The end-to-end metrics every workload derives from its simulated
/// cases: virtual time and the simulator's cost. The cost is CPU time,
/// not wall time: on a shared host the hypervisor's steal moves the
/// simulator's wall time by up to 2x between runs.
fn put_sim_end_to_end(m: &mut MetricSet, cases: &[CaseStats]) {
    let virt: Vec<f64> = cases.iter().map(|c| c.virtual_s * 1e6).collect();
    m.put("virtual_gm_us", geomean(&virt), &virt);
    let cpu: Vec<f64> = cases.iter().map(|c| c.cpu_median() * 1e3).collect();
    m.put("sim_cpu_gm_ms", geomean(&cpu), &cpu);
}

/// The per-layer metrics every workload derives from its simulated
/// cases: selection quality, model accuracy and simulator counts.
fn put_sim_layers(m: &mut MetricSet, cases: &[CaseStats]) {
    let hier: Vec<f64> = cases.iter().map(|c| f64::from(u8::from(c.hier))).collect();
    m.put("selector.hier_share", mean(&hier), &hier);
    let regret: Vec<f64> = cases.iter().filter_map(|c| c.regret).collect();
    m.put("selector.regret", geomean(&regret), &regret);
    let ratio: Vec<f64> = cases.iter().map(|c| c.virtual_s / c.predicted_s).collect();
    m.put("costmodel.pred_ratio", geomean(&ratio), &ratio);
    let transfers: Vec<f64> = cases.iter().map(|c| c.transfers as f64).collect();
    m.put("meshsim.transfers", mean(&transfers), &transfers);
    let per: Vec<f64> = cases
        .iter()
        .map(|c| c.wall_median() * 1e6 / c.transfers.max(1) as f64)
        .collect();
    let total_us: f64 = cases.iter().map(|c| c.wall_median() * 1e6).sum();
    let total_transfers: f64 = transfers.iter().sum();
    m.put(
        "meshsim.us_per_transfer",
        total_us / total_transfers.max(1.0),
        &per,
    );
    let threads: Vec<f64> = cases.iter().map(|c| c.rank_threads as f64).collect();
    m.put(
        "meshsim.rank_threads",
        threads.iter().copied().fold(0.0, f64::max),
        &threads,
    );
}

/// The call-path per-layer metrics, from the span logs of the calls
/// the workload times: the threaded loop, or the traced simulations.
fn put_call_layers(
    m: &mut MetricSet,
    l: &LayerSamples,
    cache: intercom::ir::CacheStats,
    compiled: &[layers::Compiled],
) {
    m.put("selector.auto_ns", median(&l.select_ns), &l.select_ns);
    m.put(
        "cache.hit_ns",
        median_or_zero(&l.cache_hit_ns),
        &l.cache_hit_ns,
    );
    let rate = cache.hit_rate().unwrap_or(0.0);
    m.put("cache.hit_rate", rate, &[rate]);
    m.put("cache.misses", cache.misses as f64, &[cache.misses as f64]);
    m.put(
        "cache.entries",
        cache.entries as f64,
        &[cache.entries as f64],
    );
    m.put("lower.ns", median_or_zero(&l.lower_ns), &l.lower_ns);
    let steps: Vec<f64> = compiled.iter().map(|c| c.steps as f64).collect();
    m.put("lower.steps", median_or_zero(&steps), &steps);
    m.put("opt.ns", median_or_zero(&l.opt_ns), &l.opt_ns);
    let msgs_in: Vec<f64> = compiled.iter().map(|c| c.msgs_in as f64).collect();
    let msgs_out: Vec<f64> = compiled.iter().map(|c| c.msgs_out as f64).collect();
    m.put(
        "opt.msgs_in",
        msgs_in.iter().fold(0.0, |a, b| a + b),
        &msgs_in,
    );
    m.put(
        "opt.msgs_out",
        msgs_out.iter().fold(0.0, |a, b| a + b),
        &msgs_out,
    );
    m.put("exec.self_ns", median(&l.exec_self_ns), &l.exec_self_ns);
    m.put(
        "algorithms.self_ns",
        median(&l.algorithms_self_ns),
        &l.algorithms_self_ns,
    );
    m.put("runtime.comm_ns", median(&l.comm_ns), &l.comm_ns);
    m.put("runtime.msgs", mean(&l.msgs), &l.msgs);
    m.put("runtime.bytes", mean(&l.bytes), &l.bytes);
    let per_msg: Vec<f64> = l
        .comm_ns
        .iter()
        .zip(&l.msgs)
        .filter(|(_, &n)| n > 0.0)
        .map(|(&ns, &n)| ns / n)
        .collect();
    let total_msgs: f64 = l.msgs.iter().sum();
    m.put(
        "runtime.ns_per_msg",
        l.comm_ns.iter().sum::<f64>() / total_msgs.max(1.0),
        &per_msg,
    );
}

fn put_host_layers(m: &mut MetricSet) {
    let memcpy = host::memcpy_gbps();
    m.put("host.memcpy_gbps", memcpy, &[memcpy]);
    let combine = host::combine_gbps();
    m.put("op.combine_gbps", combine, &[combine]);
}

fn threads_workload(args: &Args, mix: Mix) -> Outcome {
    let cfg = threads::Config {
        mix,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let tr = threads::run(&cfg);
    // Peak memory of the threaded workload itself: before the simulated
    // replay (whose transient buffers vary with the allocator's state)
    // and before the analysis below allocates.
    let rss = host::peak_rss_mb();
    let replay = gen::replay_cases(mix, threads::P, threads::MACHINE, args.seed);
    let sim = if args.trace {
        sim::run_cases(&replay, 0.0, 2, 2, true)
    } else {
        sim::run_cases(
            &replay,
            REPLAY_SECONDS,
            MIN_REPLAY_PASSES,
            MAX_SIM_PASSES,
            false,
        )
    };
    let mut m = MetricSet::new(args.trace);
    // Latency classes: each recurring shape, and the fresh sizes per op.
    let recurring = gen::recurring_calls(mix, threads::P);
    let mut classes: BTreeMap<(&str, Option<usize>), Vec<f64>> = BTreeMap::new();
    let mut gbps = Vec::with_capacity(tr.lat_ns.len());
    let calls = gen::CallStream::new(mix, threads::P, args.seed).map(|i| i.call);
    for (c, &ns) in calls.zip(&tr.lat_ns) {
        let nominal = recurring
            .iter()
            .any(|r| (r.op, r.n) == (c.op, c.n))
            .then(|| c.payload_bytes(threads::P));
        let ns = f64::from(ns);
        classes
            .entry((c.op.name(), nominal))
            .or_default()
            .push(ns / 1e3);
        gbps.push(c.payload_bytes(threads::P) as f64 / ns);
    }
    let mut unbalanced = 0;
    if args.trace {
        let mut l = LayerSamples::default();
        for spans in &tr.spans {
            l.add_rank(spans, 0.0);
        }
        unbalanced = l.unbalanced_calls;
        let cache = tr.cache.expect("a traced loop reports its cache");
        put_call_layers(&mut m, &l, cache, &tr.compiled);
        let pool = tr.pool.hit_rate().unwrap_or(0.0);
        m.put("runtime.pool_hit_rate", pool, &[pool]);
        put_host_layers(&mut m);
        put_sim_layers(&mut m, &sim.cases);
        // Both loops issue the same call stream: compare like with like.
        let traced = cross_rank_latency_ns(&tr.spans, Layer::Algorithms);
        let n = traced.len().min(tr.lat_ns.len());
        let untraced: Vec<f64> = tr.lat_ns[..n].iter().map(|&ns| f64::from(ns)).collect();
        let overhead = median(&traced[..n]) / median(&untraced);
        m.put("trace.overhead", overhead, &[overhead]);
    } else {
        put_call_latency(&mut m, &classes);
        m.put("payload_gbps", median(&gbps), &gbps);
        put_sim_end_to_end(&mut m, &sim.cases);
        m.put("setup_s", median(&tr.setup_s), &tr.setup_s);
        m.put("peak_rss_mb", rss, &[rss]);
    }
    let table: Vec<String> = classes
        .iter()
        .map(|((op, bytes), v)| {
            let v = sorted(v.clone());
            format!(
                "{{\"op\": \"{op}\", \"bytes\": {}, \"calls\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
                bytes.map_or("\"fresh\"".into(), |b| b.to_string()),
                v.len(),
                quantile(&v, 0.5),
                quantile(&v, 0.99),
                v[v.len() - 1]
            )
        })
        .collect();
    Outcome {
        attempted: tr.attempted + sim.attempted,
        failed: tr.failed + sim.failed,
        metrics: m,
        notes: vec![
            ("calls".into(), tr.lat_ns.len().to_string()),
            ("fresh_shape_share".into(), tr.fresh_share.to_string()),
            ("replay_passes".into(), sim.passes.to_string()),
            ("setup_repeats".into(), tr.setup_s.len().to_string()),
            (
                "latency_by_shape".into(),
                format!("[\n    {}\n  ]", table.join(",\n    ")),
            ),
        ],
        cases: sim.cases,
        spans: tr
            .spans
            .into_iter()
            .enumerate()
            .map(|(r, spans)| (format!("rank{r}"), spans))
            .collect(),
        unbalanced,
    }
}

fn sim_workload(args: &Args, cases: Vec<gen::Case>) -> Outcome {
    let mut machines: Vec<Machine> = Vec::new();
    for c in &cases {
        if !machines.iter().any(|m| m.label() == c.machine.label()) {
            machines.push(c.machine.clone());
        }
    }
    let mut m = MetricSet::new(args.trace);
    // Set-up is sampled before and after the measured passes, so a
    // burst of interference on the host cannot own every sample.
    let setups = |budget: f64| {
        let mut times: Vec<f64> = Vec::new();
        while !args.trace
            && (times.len() < threads::MIN_SETUPS / 2 + 1
                || (times.len() < threads::MAX_SETUPS / 2 && times.iter().sum::<f64>() < budget))
        {
            times.push(sim::setup_once(&machines));
        }
        times
    };
    let mut setup = setups(threads::SETUP_BUDGET_S / 2.0);
    let min_passes = if args.trace { 2 } else { 1 };
    let SimOutcome {
        cases,
        attempted,
        failed,
        passes,
        layers,
        pool_hit_rates,
        cache,
        spans,
    } = sim::run_cases(&cases, args.seconds, min_passes, MAX_SIM_PASSES, args.trace);
    setup.extend(setups(threads::SETUP_BUDGET_S / 2.0));
    let rss = host::peak_rss_mb();
    if args.trace {
        let compiled: Vec<layers::Compiled> = cases.iter().filter_map(|c| c.compiled).collect();
        put_call_layers(&mut m, &layers, cache, &compiled);
        let pool = mean(&pool_hit_rates);
        m.put("runtime.pool_hit_rate", pool, &pool_hit_rates);
        put_host_layers(&mut m);
        put_sim_layers(&mut m, &cases);
        let ratios: Vec<f64> = cases
            .iter()
            .map(|c| median(&c.traced_call_s) / median(&c.call_s))
            .collect();
        m.put("trace.overhead", geomean(&ratios), &ratios);
    } else {
        // On a simulated machine a call's latency is its virtual time.
        let classes: BTreeMap<usize, Vec<f64>> = cases
            .iter()
            .enumerate()
            .map(|(i, c)| (i, vec![c.virtual_s * 1e6]))
            .collect();
        put_call_latency(&mut m, &classes);
        let gbps: Vec<f64> = cases
            .iter()
            .map(|c| c.payload_bytes as f64 / c.virtual_s / 1e9)
            .collect();
        m.put("payload_gbps", geomean(&gbps), &gbps);
        put_sim_end_to_end(&mut m, &cases);
        m.put("setup_s", median(&setup), &setup);
        m.put("peak_rss_mb", rss, &[rss]);
    }
    Outcome {
        attempted,
        failed,
        unbalanced: layers.unbalanced_calls,
        metrics: m,
        notes: vec![
            ("passes".into(), passes.to_string()),
            ("setup_repeats".into(), setup.len().to_string()),
        ],
        cases,
        spans,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (shortest round-trip form).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn report_json(args: &Args, out: &Outcome, metrics: &[Metric], fp: &host::Fingerprint) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", json_str(&args.workload));
    let _ = writeln!(
        s,
        "  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},",
        args.seed, args.seconds, args.trace
    );
    let _ = writeln!(
        s,
        "  \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"l2\": {}, \"l3\": {}, \"rustc\": {}, \"commit\": {}}},",
        fp.nproc,
        json_str(&fp.cpu_model),
        json_str(&fp.l2),
        json_str(&fp.l3),
        json_str(&fp.rustc),
        json_str(&fp.commit)
    );
    let _ = writeln!(
        s,
        "  \"attempted\": {},\n  \"failed\": {},",
        out.attempted, out.failed
    );
    for (k, v) in &out.notes {
        let _ = writeln!(s, "  {}: {},", json_str(k), v);
    }
    s.push_str("  \"metrics\": {\n");
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "    {}: {{\"value\": {}, \"unit\": {}, \"min\": {}, \"median\": {}, \"max\": {}, \"samples\": {}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit),
            json_num(m.spread.min),
            json_num(m.spread.median),
            json_num(m.spread.max),
            m.spread.count
        );
        s.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
    }
    s.push_str("  },\n  \"cases\": [\n");
    for (i, c) in out.cases.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"case\": {}, \"nominal_bytes\": {}, \"choice\": {}, \"virtual_us\": {}, \"predicted_us\": {}, \"virtual_over_predicted\": {}, \"wall_ms\": {}, \"wall_ms_min\": {}, \"wall_ms_max\": {}, \"cpu_ms\": {}, \"call_us\": {}, \"regret\": {}, \"msgs_in\": {}, \"msgs_out\": {}}}",
            json_str(&c.label),
            c.nominal_bytes,
            json_str(&c.choice),
            json_num(c.virtual_s * 1e6),
            json_num(c.predicted_s * 1e6),
            json_num(c.virtual_s / c.predicted_s),
            json_num(c.wall_median() * 1e3),
            json_num(c.wall_s.iter().copied().fold(f64::INFINITY, f64::min) * 1e3),
            json_num(c.wall_s.iter().copied().fold(0.0, f64::max) * 1e3),
            json_num(c.cpu_median() * 1e3),
            json_num(median(&c.call_s) * 1e6),
            c.regret.map_or("null".into(), json_num),
            c.compiled.map_or("null".into(), |x| x.msgs_in.to_string()),
            c.compiled.map_or("null".into(), |x| x.msgs_out.to_string()),
        );
        s.push_str(if i + 1 < out.cases.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn write_reports(args: &Args, out: &Outcome, metrics: &[Metric]) -> std::io::Result<PathBuf> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let fp = host::fingerprint();
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, report_json(args, out, metrics, &fp))?;
    if args.trace && !out.spans.is_empty() {
        trace::write_csv(&dir.join(format!("{stem}.spans.csv")), &out.spans)?;
    }
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks = host::cpu_ticks();
    let mut out = match args.workload.as_str() {
        "threads-small" => threads_workload(&args, Mix::Small),
        "threads-large" => threads_workload(&args, Mix::Large),
        "paragon-sim" => sim_workload(&args, gen::paragon_cases(args.seed)),
        "cluster-sim" => sim_workload(&args, gen::cluster_cases(args.seed)),
        _ => unreachable!("workload names are validated"),
    };
    // Time the hypervisor gave to other guests: the run's numbers are
    // only comparable with runs that saw a similar share.
    let (total, steal) = host::cpu_ticks();
    let stolen = (steal - ticks.1) as f64 / (total - ticks.0).max(1) as f64;
    out.notes
        .push(("host_steal_share".into(), json_num(stolen)));
    let metric_set = std::mem::replace(&mut out.metrics, MetricSet::new(args.trace));
    let (metrics, missing) = match metric_set.finish() {
        Ok(m) => (m, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    match write_reports(&args, &out, &metrics) {
        Ok(path) => eprintln!("perfbench: report in {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write the report: {e}"),
    }
    for m in &metrics {
        eprintln!(
            "  {:<26} {:>14.4} {:<6} (min {:.4}, median {:.4}, max {:.4}, n={})",
            m.name, m.value, m.unit, m.spread.min, m.spread.median, m.spread.max, m.spread.count
        );
    }
    if let Some(e) = &missing {
        eprintln!("perfbench: metrics not measured: {e}");
    }
    if out.unbalanced > 0 {
        eprintln!(
            "perfbench: {} traced calls whose self times do not sum to the call span",
            out.unbalanced
        );
    }
    if out.failed > 0 {
        eprintln!(
            "perfbench: {} of {} calls failed",
            out.failed, out.attempted
        );
    }
    let correct = out.failed == 0 && out.unbalanced == 0 && missing.is_none();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calls::Bufs;
    use crate::gen::{recurring_calls, Call, CallStream};
    use crate::trace::{SpanLog, TimedComm};
    use intercom::{Algo, Comm, Communicator};
    use intercom_cost::MachineParams;
    use std::time::Instant;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 5,
            seconds: 0.3,
            trace,
        }
    }

    fn names(out: Outcome) -> Vec<&'static str> {
        assert_eq!(out.failed, 0);
        assert_eq!(out.unbalanced, 0, "self times must sum to every call span");
        let metrics = out.metrics.finish().expect("every metric measured");
        metrics.iter().map(|m| m.name).collect()
    }

    #[test]
    fn every_workload_kind_emits_exactly_the_catalog() {
        let e2e: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.0).collect();
        let layers: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.0).collect();
        for trace in [false, true] {
            let want = if trace { &layers } else { &e2e };
            let threaded = threads_workload(&args("threads-small", trace), Mix::Small);
            assert_eq!(&names(threaded), want);
            let cases = gen::cluster_cases(5)[..3].to_vec();
            assert_eq!(
                &names(sim_workload(&args("cluster-sim", trace), cases)),
                want
            );
        }
    }

    /// Runs `calls` on a threaded world of `p` and returns every rank's
    /// outputs: one-shot plain, one-shot through the timing wrapper, or
    /// planned through the wrapper.
    fn thread_outputs(p: usize, calls: &[Call], wrapped: bool, planned: bool) -> Vec<Vec<Vec<u8>>> {
        let epoch = Instant::now();
        intercom_runtime::run_world(p, |c| {
            let log = SpanLog::new(epoch);
            let timed = TimedComm {
                inner: c,
                log: &log,
            };
            let plain = Communicator::world(c, MachineParams::PARAGON);
            let wrap = Communicator::world(&timed, MachineParams::PARAGON);
            let gc = intercom::GroupComm::world(&timed);
            let cache = intercom::ir::PlanCache::new();
            let mut bufs = Bufs::default();
            calls
                .iter()
                .enumerate()
                .map(|(k, call)| {
                    bufs.prepare(call, c.rank(), p, k as u64);
                    if planned {
                        let (_, prog, _) = layers::compile_path(&log, &wrap, &cache, call);
                        bufs.run_planned(&prog, &gc, call, sim::EXEC_TAG_BASE)
                    } else if wrapped {
                        bufs.run(&wrap, call, &Algo::Auto)
                    } else {
                        bufs.run(&plain, call, &Algo::Auto)
                    }
                    .expect("call runs");
                    assert!(bufs.check(call, c.rank(), p, k as u64), "{call:?}");
                    bufs.output_bytes(call, p)
                })
                .collect()
        })
    }

    #[test]
    fn outputs_are_byte_identical_with_and_without_the_wrapper() {
        let p = 3;
        let mut calls = recurring_calls(Mix::Small, p);
        calls.extend(CallStream::new(Mix::Small, p, 9).take(40).map(|i| i.call));
        let plain = thread_outputs(p, &calls, false, false);
        assert_eq!(plain, thread_outputs(p, &calls, true, false));
        assert_eq!(plain, thread_outputs(p, &calls, false, true));
        for case in gen::cluster_cases(2).iter().step_by(5) {
            assert_eq!(
                sim::case_outputs(case, &Algo::Auto, false),
                sim::case_outputs(case, &Algo::Auto, true),
                "{}",
                case.machine.label()
            );
        }
    }

    #[test]
    fn virtual_time_repeats_bit_for_bit() {
        for case in gen::cluster_cases(3).iter().step_by(4) {
            let a = sim::run_case(case, &Algo::Auto);
            let b = sim::run_case(case, &Algo::Auto);
            assert!(a.ok && b.ok);
            assert_eq!(a.virtual_s.to_bits(), b.virtual_s.to_bits());
        }
    }

    #[test]
    fn traced_self_times_sum_to_each_call_span() {
        let cfg = threads::Config {
            mix: Mix::Small,
            seed: 3,
            seconds: 0.2,
            trace: true,
        };
        let run = threads::run(&cfg);
        let mut calls = 0;
        for spans in &run.spans {
            assert!(spans.iter().any(|s| s.layer == Layer::Exec));
            let selfs = trace::self_times(spans);
            for root in spans.iter().filter(|s| s.layer == Layer::Call) {
                let total: u64 = spans
                    .iter()
                    .zip(&selfs)
                    .filter(|(s, _)| s.call == root.call)
                    .map(|(_, own)| own)
                    .sum();
                assert_eq!(total, root.duration());
                calls += 1;
            }
        }
        assert!(calls > 0);
    }
}
