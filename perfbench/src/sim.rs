//! Simulated cases: one collective call on a simulated Paragon mesh,
//! line or cluster, with its virtual time, the cost model's prediction
//! for the selected strategy, and (traced) per-layer spans.

use crate::calls::Bufs;
use crate::gen::{Case, Machine};
use crate::layers::{compile_path, cross_rank_latency_ns, Compiled, LayerSamples};
use crate::stats;
use crate::trace::{Layer, NamedLog, Span, SpanLog, TimedComm};
use intercom::ir::{CacheStats, CollectiveProgram, PlanCache};
use intercom::{Algo, Comm, CommError, Communicator, GroupComm, Tag};
use intercom_cost::{
    best_strategy, enumerate_mesh_strategies, enumerate_strategies, flat_on_cluster_cost,
    hier_cost, hybrid_cost, select_hier, ClusterShape, CostContext, HierChoice, Strategy,
};
use intercom_meshsim::{simulate, SimConfig};
use intercom_topology::Mesh2D;
use std::time::Instant;

/// Tag band of planned executions, disjoint from every one-shot call's.
pub const EXEC_TAG_BASE: Tag = 1 << 48;

/// Builds the communicator the case's machine calls for.
pub fn communicator<'a, C: Comm + ?Sized>(c: &'a C, m: &Machine) -> Communicator<'a, C> {
    match m {
        Machine::Mesh { mesh, params } => {
            Communicator::world_on_mesh(c, *params, *mesh).expect("mesh matches the world")
        }
        Machine::World { params, .. } => Communicator::world(c, *params),
        Machine::Cluster {
            cluster, params, ..
        } => Communicator::world_on_cluster(c, params.clone(), cluster)
            .expect("cluster matches the world"),
    }
}

fn sim_config(m: &Machine) -> SimConfig {
    match m {
        Machine::Mesh { mesh, params } => SimConfig::new(*mesh, *params),
        Machine::World { p, params } => SimConfig::new(Mesh2D::new(1, *p), *params),
        Machine::Cluster {
            cluster, params, ..
        } => SimConfig::cluster(*cluster, params),
    }
}

/// A stand-in endpoint of the right world size, so selection can be
/// timed on the host exactly as rank 0 would run it.
struct ShapeComm(usize);

impl Comm for ShapeComm {
    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        self.0
    }
    fn send(&self, _: usize, _: Tag, _: &[u8]) -> intercom::Result<()> {
        Err(CommError::Disconnected)
    }
    fn recv(&self, _: usize, _: Tag, _: &mut [u8]) -> intercom::Result<()> {
        Err(CommError::Disconnected)
    }
    fn sendrecv(&self, _: usize, _: &[u8], _: usize, _: &mut [u8], _: Tag) -> intercom::Result<()> {
        Err(CommError::Disconnected)
    }
}

/// What `Algo::Auto` picks for the case, and the model's prediction
/// for it in seconds.
pub fn choice_and_prediction(case: &Case) -> (HierChoice, f64) {
    let p = case.machine.ranks();
    let shape = ShapeComm(p);
    let cc = communicator(&shape, &case.machine);
    let (op, n) = (case.call.op.cost_op(), case.call.payload_bytes(p));
    let choice = cc.auto_choice(op, n);
    let predicted = match (&case.machine, &choice) {
        (Machine::Mesh { params, .. }, HierChoice::Flat(s)) => {
            hybrid_cost(op, s, CostContext::mesh_with(params)).eval(n, params)
        }
        (Machine::World { params, .. }, HierChoice::Flat(s)) => {
            hybrid_cost(op, s, CostContext::linear_with(params)).eval(n, params)
        }
        (Machine::Cluster { params, .. }, HierChoice::Flat(s)) => {
            flat_on_cluster_cost(op, s, n, params)
        }
        (Machine::Cluster { params, .. }, HierChoice::Hier(h)) => hier_cost(op, h, n, params),
        (_, HierChoice::Hier(_)) => unreachable!("only clusters select hierarchical hybrids"),
    };
    (choice, predicted)
}

/// How many runner-up strategies a flat machine's regret executes.
const RUNNER_UPS: usize = 2;

/// The executed alternatives `selector.regret` compares `Algo::Auto`
/// against: on a cluster, the selected hierarchical hybrid and the best
/// flat strategy; on a flat machine, the model's runner-up strategies
/// (the next cheapest after the one selected).
pub fn alternatives(case: &Case, choice: &HierChoice) -> Vec<Algo> {
    let p = case.machine.ranks();
    let (op, n) = (case.call.op.cost_op(), case.call.payload_bytes(p));
    let (candidates, ctx, params) = match &case.machine {
        Machine::Mesh { mesh, params } => (
            enumerate_mesh_strategies(mesh.rows(), mesh.cols(), 0),
            CostContext::mesh_with(params),
            params,
        ),
        Machine::World { p, params } => (
            enumerate_strategies(*p, 0),
            CostContext::linear_with(params),
            params,
        ),
        Machine::Cluster {
            cluster, params, ..
        } => {
            let shape = ClusterShape {
                inter_rows: cluster.inter().rows(),
                inter_cols: cluster.inter().cols(),
                ranks_per_node: cluster.ranks_per_node(),
            };
            let inter = params.inter();
            let flat = best_strategy(op, p, n, inter, CostContext::linear_with(inter));
            let mut algos = vec![Algo::Hybrid(flat)];
            algos.extend(select_hier(op, shape, n, params).map(Algo::HierHybrid));
            return algos;
        }
    };
    let mut ranked: Vec<(f64, Strategy)> = candidates
        .into_iter()
        .filter(|s| !matches!(choice, HierChoice::Flat(c) if c == s))
        .map(|s| (hybrid_cost(op, &s, ctx).eval(n, params), s))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked
        .into_iter()
        .take(RUNNER_UPS)
        .map(|(_, s)| Algo::Hybrid(s))
        .collect()
}

/// One simulation of a case, per call.
pub struct Run {
    pub virtual_s: f64,
    /// Wall time of the whole simulation.
    pub wall_s: f64,
    /// CPU time of the whole simulation, all threads.
    pub cpu_s: f64,
    /// Wall time from the first rank's entry into the first call to the
    /// last rank's return from the last.
    pub call_s: f64,
    /// Every rank's output checked out.
    pub ok: bool,
}

/// Simulates `case` once under `algo`, checking every rank's output
/// after every call.
pub fn run_case(case: &Case, algo: &Algo) -> Run {
    let cfg = sim_config(&case.machine);
    let (call, p) = (case.call, case.machine.ranks());
    let cpu = crate::host::process_cpu_s();
    let t = Instant::now();
    let rep = simulate(&cfg, |c| {
        let cc = communicator(c, &case.machine);
        let mut bufs = Bufs::default();
        let (mut ok, mut t_in, mut t_out) = (true, None, t.elapsed());
        for k in 0..case.calls {
            let salt = case.salt.wrapping_add(k as u64);
            bufs.prepare(&call, c.rank(), p, salt);
            t_in.get_or_insert(t.elapsed());
            ok &= bufs.run(&cc, &call, algo).is_ok();
            t_out = t.elapsed();
            ok &= bufs.check(&call, c.rank(), p, salt);
        }
        (ok, t_in.unwrap_or(t_out), t_out)
    });
    let calls = case.calls as f64;
    let wall_s = t.elapsed().as_secs_f64() / calls;
    let cpu_s = (crate::host::process_cpu_s() - cpu) / calls;
    let t_in = rep.results.iter().map(|r| r.1).min().unwrap_or_default();
    let t_out = rep.results.iter().map(|r| r.2).max().unwrap_or_default();
    Run {
        virtual_s: rep.elapsed / calls,
        wall_s,
        cpu_s,
        call_s: (t_out - t_in).as_secs_f64() / calls,
        ok: rep.results.iter().all(|r| r.0),
    }
}

/// The output bytes every rank holds after `case` under `algo`, with
/// or without the timing wrapper around the simulated endpoint.
#[cfg(test)]
pub fn case_outputs(case: &Case, algo: &Algo, wrapped: bool) -> Vec<Vec<u8>> {
    let cfg = sim_config(&case.machine);
    let (call, salt, p) = (case.call, case.salt, case.machine.ranks());
    let epoch = Instant::now();
    simulate(&cfg, |c| {
        let log = SpanLog::new(epoch);
        let timed = TimedComm {
            inner: c,
            log: &log,
        };
        let mut bufs = Bufs::default();
        bufs.prepare(&call, c.rank(), p, salt);
        if wrapped {
            bufs.run(&communicator(&timed, &case.machine), &call, algo)
        } else {
            bufs.run(&communicator(c, &case.machine), &call, algo)
        }
        .expect("case runs");
        bufs.output_bytes(&call, p)
    })
    .results
}

/// What a traced simulation of a case observed.
pub struct Traced {
    pub spans: Vec<Vec<Span>>,
    pub transfers: usize,
    pub rank_threads: usize,
    pub pool_hit_rate: Option<f64>,
    pub ok: bool,
}

/// Simulates `case` under `Algo::Auto` through the timing wrapper, then
/// executes the compiled program `prog` of the same call, with the
/// simulator's transfer log on. Spans carry call id `id`.
pub fn run_case_traced(case: &Case, prog: &CollectiveProgram, id: u32) -> Traced {
    let cfg = sim_config(&case.machine).with_trace();
    let (call, salt, p) = (case.call, case.salt, case.machine.ranks());
    let epoch = Instant::now();
    let threads_before = crate::host::threads_now();
    let rep = simulate(&cfg, |c| {
        let log = SpanLog::new(epoch);
        let timed = TimedComm {
            inner: c,
            log: &log,
        };
        let cc = communicator(&timed, &case.machine);
        let gc = GroupComm::world(&timed);
        let me = c.rank();
        let mut bufs = Bufs::default();
        bufs.prepare(&call, me, p, salt);
        // The last rank starts after every rank thread is spawned and
        // before any can finish (no transfer completes before the
        // engine loop, which starts after the last spawn).
        let threads = (me == p - 1).then(crate::host::threads_now);
        let root = log.begin_call(id);
        let mut ok = log
            .timed(Layer::Algorithms, || bufs.run(&cc, &call, &Algo::Auto))
            .is_ok()
            && bufs.check(&call, me, p, salt);
        bufs.prepare(&call, me, p, salt);
        ok &= log
            .timed(Layer::Exec, || {
                bufs.run_planned(prog, &gc, &call, EXEC_TAG_BASE)
            })
            .is_ok()
            && bufs.check(&call, me, p, salt);
        log.close(root);
        (ok, log.take(), threads, c.pool_stats().hit_rate())
    });
    // The one-shot call's transfers: the planned execution's carry its
    // plan id.
    let transfers = rep.trace.as_ref().map_or(0, |t| {
        t.records().iter().filter(|e| e.plan == 0).count()
    });
    let rank_threads = rep.results[p - 1]
        .2
        .unwrap_or(0)
        .saturating_sub(threads_before);
    let pool_hit_rate = rep.results[0].3;
    let ok = rep.results.iter().all(|r| r.0);
    Traced {
        spans: rep.results.into_iter().map(|r| r.1).collect(),
        transfers,
        rank_threads,
        pool_hit_rate,
        ok,
    }
}

/// Everything measured about one case over a run.
pub struct CaseStats {
    pub label: String,
    /// The size the case stands for, before the seeded nudge.
    pub nominal_bytes: usize,
    /// The strategy `Algo::Auto` selected.
    pub choice: String,
    pub hier: bool,
    pub virtual_s: f64,
    pub predicted_s: f64,
    pub payload_bytes: usize,
    /// Whole-simulation wall times, one per pass.
    pub wall_s: Vec<f64>,
    /// Whole-simulation CPU times, one per pass.
    pub cpu_s: Vec<f64>,
    /// In-simulation call latencies, one per pass.
    pub call_s: Vec<f64>,
    /// Traced runs only: virtual(Auto) over the best executed
    /// alternative.
    pub regret: Option<f64>,
    /// Traced runs only: call latencies through the timing wrapper.
    pub traced_call_s: Vec<f64>,
    pub compiled: Option<Compiled>,
    pub transfers: usize,
    pub rank_threads: usize,
}

impl CaseStats {
    pub fn wall_median(&self) -> f64 {
        stats::median(&self.wall_s)
    }

    pub fn cpu_median(&self) -> f64 {
        stats::median(&self.cpu_s)
    }
}

/// The outcome of simulating a case list.
pub struct SimOutcome {
    pub cases: Vec<CaseStats>,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
    pub layers: LayerSamples,
    pub pool_hit_rates: Vec<f64>,
    pub cache: CacheStats,
    /// Traced runs: the host's and every rank's span log per case.
    pub spans: Vec<NamedLog>,
}

fn case_stats(case: &Case) -> CaseStats {
    let (choice, predicted_s) = choice_and_prediction(case);
    let p = case.machine.ranks();
    CaseStats {
        label: format!(
            "{} {} {}B",
            case.machine.label(),
            case.call.op.name(),
            case.call.payload_bytes(p)
        ),
        nominal_bytes: case.nominal_bytes,
        hier: matches!(choice, HierChoice::Hier(_)),
        choice: match &choice {
            HierChoice::Flat(s) => s.to_string(),
            HierChoice::Hier(h) => h.to_string(),
        },
        virtual_s: f64::NAN,
        predicted_s,
        payload_bytes: case.call.payload_bytes(p),
        wall_s: Vec::new(),
        cpu_s: Vec::new(),
        call_s: Vec::new(),
        regret: None,
        traced_call_s: Vec::new(),
        compiled: None,
        transfers: 0,
        rank_threads: 0,
    }
}

/// Runs every case once per pass until `seconds` have passed (at least
/// `min_passes`, at most `max_passes`), checking outputs and that
/// virtual time repeats exactly. With `trace`, the first pass also
/// executes the regret alternatives, and every later pass times the
/// compile path on the host and runs the traced simulation.
pub fn run_cases(
    cases: &[Case],
    seconds: f64,
    min_passes: usize,
    max_passes: usize,
    trace: bool,
) -> SimOutcome {
    let mut out: Vec<CaseStats> = cases.iter().map(case_stats).collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut layers = LayerSamples::default();
    let mut pool_hit_rates = Vec::new();
    let mut logs = Vec::new();
    let cache = PlanCache::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass < max_passes && (pass < min_passes || start.elapsed().as_secs_f64() < seconds) {
        for (i, case) in cases.iter().enumerate() {
            let st = &mut out[i];
            let run = run_case(case, &Algo::Auto);
            attempted += 1;
            let repeats = pass == 0 || run.virtual_s.to_bits() == st.virtual_s.to_bits();
            failed += u64::from(!run.ok || !repeats);
            st.virtual_s = run.virtual_s;
            st.wall_s.push(run.wall_s);
            st.cpu_s.push(run.cpu_s);
            st.call_s.push(run.call_s);
            if !trace {
                continue;
            }
            if pass == 0 {
                let mut best = run.virtual_s;
                let (choice, _) = choice_and_prediction(case);
                for algo in alternatives(case, &choice) {
                    let alt = run_case(case, &algo);
                    attempted += 1;
                    failed += u64::from(!alt.ok);
                    best = best.min(alt.virtual_s);
                }
                st.regret = Some(run.virtual_s / best);
                continue;
            }
            // The compile path, timed on the host as rank 0 runs it.
            let p = case.machine.ranks();
            let shape = ShapeComm(p);
            let cc = communicator(&shape, &case.machine);
            let host = SpanLog::new(Instant::now());
            let root = host.begin_call(i as u32);
            for _ in 0..4 {
                host.timed(Layer::Select, || {
                    cc.auto_choice(case.call.op.cost_op(), case.call.payload_bytes(p))
                });
            }
            let (_, prog, compiled) = compile_path(&host, &cc, &cache, &case.call);
            host.close(root);
            st.compiled = st.compiled.or(compiled);
            let host_spans = host.take();
            let select: Vec<f64> = host_spans
                .iter()
                .filter(|s| s.layer == Layer::Select)
                .map(|s| s.duration() as f64)
                .collect();
            layers.add_rank(&host_spans, 0.0);
            logs.push((format!("case{i}/host"), host_spans));
            let traced = run_case_traced(case, &prog, i as u32);
            attempted += 1;
            failed += u64::from(!traced.ok);
            for spans in &traced.spans {
                layers.add_rank(spans, stats::median(&select));
            }
            st.traced_call_s.extend(
                cross_rank_latency_ns(&traced.spans, Layer::Algorithms)
                    .iter()
                    .map(|ns| ns * 1e-9),
            );
            logs.extend(
                traced
                    .spans
                    .into_iter()
                    .enumerate()
                    .map(|(r, spans)| (format!("case{i}/rank{r}"), spans)),
            );
            st.transfers = traced.transfers;
            st.rank_threads = traced.rank_threads;
            pool_hit_rates.extend(traced.pool_hit_rate);
        }
        pass += 1;
    }
    SimOutcome {
        cases: out,
        attempted,
        failed,
        passes: pass,
        layers,
        pool_hit_rates,
        cache: cache.stats(),
        spans: logs,
    }
}

/// Set-up time of a simulated workload: spawn every machine's world,
/// build its communicator and run an 8-byte broadcast warm-up.
pub fn setup_once(machines: &[Machine]) -> f64 {
    let t = Instant::now();
    for m in machines {
        simulate(&sim_config(m), |c| {
            let cc = communicator(c, m);
            let mut b = [0u8; 8];
            cc.bcast(0, &mut b).expect("warm-up broadcast");
        });
    }
    t.elapsed().as_secs_f64()
}
