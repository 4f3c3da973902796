//! `autotune` — closed-loop drift/refit selection-quality benchmark.
//!
//! Simulates a machine whose true β is 2× the configured Paragon model
//! (a link running at half its nominal bandwidth), streams residual
//! reports from simulated collectives into communicators with an
//! attached [`AutoTuner`], and measures selection quality before and
//! after the refit: for every tracked call shape, the strategy chosen
//! under the *stale* parameters and the one chosen under the *refit*
//! parameters are both priced under the **true** machine. The ratio is the real speedup the closed
//! loop buys.
//!
//! The run is also the CI drift-loop smoke gate (`--smoke` only trims
//! the report sweep; the gate always applies): the binary exits nonzero
//! unless
//!
//! * a [`DriftVerdict`] fires,
//! * the refit β̂ lands within 10% of the true β,
//! * at least one shape re-selects, invalidating cached plans, and
//! * every re-selection is no worse — and at least one strictly
//!   cheaper — under the true machine.
//!
//! Run: `cargo run --release -p intercom-bench --bin autotune`
//! Emits `BENCH_autotune.json` in the current directory.

use intercom::comm::GroupComm;
use intercom::ir::{self, PlanCache, PlanOp};
use intercom::selector::GroupShape;
use intercom::trace::RecordingComm;
use intercom::{algorithms, AutoTuner, Communicator, RetuneReport, TrackedShape};
use intercom_cost::{hybrid_cost, CollectiveOp, CostContext, MachineParams, Strategy};
use intercom_meshsim::{simulate, SimConfig};
use intercom_obs::{analyze, ResidualReport, RunRecord};
use intercom_topology::Mesh2D;
use std::process::ExitCode;

/// Refit accuracy the gate demands: |β̂ − β_true| / β_true ≤ 10%.
const REFIT_TOLERANCE: f64 = 0.10;

/// Records one broadcast on the simulated *true* machine and folds it
/// against the *configured* parameters — the production feedback
/// artifact the drift monitor consumes. Scatter-collect strategies give
/// the fit two independent stages, so α̂/β̂ are identifiable.
fn residual_on_true_machine(
    strategy: &Strategy,
    p: usize,
    n: usize,
    true_machine: MachineParams,
    configured: &MachineParams,
) -> ResidualReport {
    let cfg = SimConfig::new(Mesh2D::new(1, p), true_machine).with_trace();
    let rep = simulate(&cfg, |c| {
        use intercom::Comm as _;
        let gc = GroupComm::world(c);
        let mut buf = vec![0u8; n];
        if c.rank() == 0 {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
        }
        algorithms::broadcast(&gc, strategy, 0, &mut buf, 0).expect("simulated broadcast");
    });
    let trace = rep.trace.expect("tracing enabled");
    let run = RunRecord::from_transfers(trace.records(), p);
    analyze(
        &run,
        CollectiveOp::Broadcast,
        strategy,
        CostContext::linear_with(configured),
        configured,
        n,
    )
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.9}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reports = if smoke { 4 } else { 12 };

    let configured = MachineParams::PARAGON_MODEL;
    let mut true_machine = configured;
    true_machine.beta *= 2.0;

    // Call shapes near the MST / scatter-collect crossover, where the
    // β shift genuinely changes the best answer (found by sweeping the
    // selector under both parameter sets).
    let shapes = [
        (PlanOp::Broadcast { root: 0 }, 8usize, 16384usize),
        (PlanOp::AllReduce, 12usize, 8192usize),
    ];

    // One communicator per group size, each with its own tuner tracking
    // its shape. Selection never communicates, so a recording endpoint
    // stands in for the group.
    let endpoints: Vec<RecordingComm> = shapes
        .iter()
        .map(|&(_, p, _)| RecordingComm::new(0, p))
        .collect();
    let cache = PlanCache::new();
    let mut comms = Vec::new();
    for (&(plan_op, p, n), endpoint) in shapes.iter().zip(&endpoints) {
        let mut cc = Communicator::world(endpoint, configured);
        let mut tuner = AutoTuner::new(configured);
        tuner.track(TrackedShape {
            plan_op,
            shape: GroupShape::Linear(p),
            n_elems: n,
            elem_size: 1,
        });
        cc.attach_tuner(tuner);
        // Warm the cache with the stale choice, exactly as a production
        // process that planned before the link degraded would have.
        cache
            .warm_up([cc.auto_plan_key(plan_op, n, 1)])
            .expect("warm-up compiles");
        comms.push(cc);
    }
    let warmed_before = cache.stats().entries;

    // Stream residual reports from the degraded machine until every
    // monitor's confidence gate opens and its verdict fires.
    let fit_strategy = Strategy::pure_long(8);
    let mut retunes: Vec<Option<RetuneReport>> = comms.iter().map(|_| None).collect();
    let mut fed = 0usize;
    for _ in 0..reports {
        let report = residual_on_true_machine(&fit_strategy, 8, 16384, true_machine, &configured);
        fed += 1;
        for (cc, retune) in comms.iter_mut().zip(&mut retunes) {
            if retune.is_none() {
                *retune = cc.observe_with_cache(&report, &cache);
            }
        }
        if retunes.iter().all(Option::is_some) {
            break;
        }
    }

    let Some(retunes) = retunes.into_iter().collect::<Option<Vec<_>>>() else {
        eprintln!("autotune gate FAILED: no drift verdict after {fed} residual reports");
        return ExitCode::FAILURE;
    };
    let retune = &retunes[0];
    let invalidated: usize = retunes.iter().map(|r| r.invalidated).sum();
    let warmed: usize = retunes.iter().map(|r| r.warmed).sum();

    let refit_beta = retune.new_params.beta;
    let beta_rel_err = (refit_beta - true_machine.beta).abs() / true_machine.beta;

    // Score every re-selection under the TRUE machine: this is the
    // speedup the loop actually delivers, not the model's self-grade.
    let mut lines = Vec::new();
    let mut any_strictly_better = false;
    let mut all_no_worse = true;
    let reselections: Vec<_> = retunes.iter().flat_map(|r| &r.reselections).collect();
    for r in &reselections {
        // The tracked shapes are flat linear groups of byte elements
        // whose size parameter is the whole vector.
        let cost_op = ir::cost_op(r.shape.plan_op).expect("tracked ops have a cost model");
        let n = r.shape.n_elems;
        let ctx = CostContext::linear_with(&true_machine);
        let flat = |k: &ir::PlanKey| {
            k.strategy
                .clone()
                .expect("flat selection on a linear group")
        };
        let (old, new) = (flat(&r.old), flat(&r.new));
        let price = |s: &Strategy| hybrid_cost(cost_op, s, ctx).eval(n, &true_machine);
        let (old_true, new_true) = (price(&old), price(&new));
        if new_true < old_true {
            any_strictly_better = true;
        }
        if new_true > old_true {
            all_no_worse = false;
        }
        println!(
            "reselect {cost_op:?} p={} n={n}: {old} -> {new}  true-machine {:.3e}s -> {:.3e}s ({:.2}x), {} plans invalidated",
            r.shape.shape.nodes(),
            old_true,
            new_true,
            old_true / new_true,
            r.invalidated,
        );
        lines.push(format!(
            "    {{\"op\":\"{cost_op:?}\",\"p\":{},\"n\":{n},\"old\":\"{old}\",\"new\":\"{new}\",\
             \"old_true_secs\":{},\"new_true_secs\":{},\"invalidated\":{}}}",
            r.shape.shape.nodes(),
            json_num(old_true),
            json_num(new_true),
            r.invalidated,
        ));
    }

    let pass = beta_rel_err <= REFIT_TOLERANCE
        && !reselections.is_empty()
        && invalidated > 0
        && warmed > 0
        && any_strictly_better
        && all_no_worse;

    println!(
        "drift verdict after {fed} reports: β {:.3e} -> {:.3e} (true {:.3e}, err {:.1}%), \
         params v{}, {invalidated} invalidated, {warmed} re-warmed",
        configured.beta,
        refit_beta,
        true_machine.beta,
        beta_rel_err * 100.0,
        retune.version,
    );

    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"reports_fed\": {fed},\n  \
         \"configured_beta\": {},\n  \"true_beta\": {},\n  \"refit_beta\": {},\n  \
         \"refit_beta_rel_err\": {},\n  \"refit_tolerance\": {REFIT_TOLERANCE},\n  \
         \"params_version\": {},\n  \"warmed_before\": {warmed_before},\n  \
         \"invalidated\": {invalidated},\n  \"rewarmed\": {warmed},\n  \
         \"reselections\": [\n{}\n  ],\n  \
         \"pass\": {pass}\n}}\n",
        json_num(configured.beta),
        json_num(true_machine.beta),
        json_num(refit_beta),
        json_num(beta_rel_err),
        retune.version,
        lines.join(",\n"),
    );
    std::fs::write("BENCH_autotune.json", &json).expect("write BENCH_autotune.json");
    println!("wrote BENCH_autotune.json");

    if !pass {
        eprintln!(
            "autotune gate FAILED: β err {:.1}% (limit {:.0}%), {} reselections, \
             {invalidated} invalidated, strictly-better={any_strictly_better}, no-worse={all_no_worse}",
            beta_rel_err * 100.0,
            REFIT_TOLERANCE * 100.0,
            reselections.len(),
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
