//! Acceptance test for the closed observe→drift→refit→re-select loop
//! (the ROADMAP's "closed-loop autotuning from observed residuals").
//!
//! A simulated machine whose true β is 2× the configured Paragon model
//! runs production collectives; the residual reports stream into a
//! communicator's attached [`AutoTuner`]. The loop must: raise a
//! [`DriftVerdict`] once the confidence gate opens, refit β within 10%
//! of the truth, invalidate the stale cached plans, and re-select a
//! strategy the cost model prices cheaper than the stale choice — with
//! the whole transaction visible in the metrics registry. On a cluster
//! the re-selection is the communicator's hierarchical one, and the
//! warmed programs are exactly those the next plans compile.

use intercom_suite::cost::{
    hybrid_cost, CollectiveOp, CostContext, HierChoice, HierMachine, MachineParams, Strategy,
};
use intercom_suite::driver::{record_sim, residual_report};
use intercom_suite::intercom::ir::{OptLevel, PlanCache, PlanKey, PlanOp};
use intercom_suite::intercom::plan::{AllreducePlan, BcastPlan};
use intercom_suite::intercom::selector::{choose_strategy, GroupShape};
use intercom_suite::intercom::trace::RecordingComm;
use intercom_suite::intercom::{
    AutoTuner, Comm, Communicator, ReduceOp, RetuneReport, TrackedShape,
};
use intercom_suite::obs::metrics;
use intercom_suite::topology::{Cluster, Mesh2D};
use std::sync::Mutex;

/// Both tests drive the process-wide metrics registry; they run one at
/// a time so neither sees the other's counters.
static SERIAL: Mutex<()> = Mutex::new(());

/// Streams residual reports from a simulated machine whose β is twice
/// `configured`'s into `cc`'s tuner until the drift verdict fires.
fn feed_until_retune<C: Comm + ?Sized>(
    cc: &mut Communicator<'_, C>,
    configured: MachineParams,
    cache: &PlanCache,
) -> RetuneReport {
    let mut true_machine = configured;
    true_machine.beta *= 2.0;
    // The scatter-collect strategy gives the α̂/β̂ fit two independent
    // stages.
    let (p, n) = (8, 16384);
    let op = PlanOp::Broadcast { root: 0 };
    let fit_strategy = Strategy::pure_long(p);
    for fed in 1..=8 {
        let rec = record_sim(&op, Some(&fit_strategy), Mesh2D::new(1, p), n, true_machine);
        let report = residual_report(&rec, &op, &fit_strategy, &configured, n)
            .expect("broadcast has a cost-model counterpart");
        if let Some(r) = cc.observe_with_cache(&report, cache) {
            assert!(fed >= 3, "confidence gate must hold until min_samples");
            return r;
        }
    }
    panic!("2x beta must raise a drift verdict");
}

#[test]
fn doubled_beta_closes_the_loop_end_to_end() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    metrics::set_enabled(true);
    metrics::global().clear();

    let configured = MachineParams::PARAGON_MODEL;
    let mut true_machine = configured;
    true_machine.beta *= 2.0;

    // The call shape under test sits at the MST/SC crossover: under the
    // configured β the selector picks the minimum-spanning-tree
    // broadcast, under the doubled (degraded-bandwidth) β the
    // scatter-collect hybrid wins.
    let p = 8usize;
    let n = 16384usize;
    let stale = choose_strategy(
        CollectiveOp::Broadcast,
        GroupShape::Linear(p),
        n,
        &configured,
    );
    let fresh_truth = choose_strategy(
        CollectiveOp::Broadcast,
        GroupShape::Linear(p),
        n,
        &true_machine,
    );
    assert_ne!(stale, fresh_truth, "the shape must sit at a crossover");

    // Selection never communicates: a recording endpoint stands in for
    // the group.
    let endpoint = RecordingComm::new(0, p);
    let mut cc = Communicator::world(&endpoint, configured);
    let mut tuner = AutoTuner::new(configured);
    tuner.track(TrackedShape {
        plan_op: PlanOp::Broadcast { root: 0 },
        shape: GroupShape::Linear(p),
        n_elems: n,
        elem_size: 1,
    });
    cc.attach_tuner(tuner);
    let cache = PlanCache::new();
    cache
        .warm_up([PlanKey {
            op: PlanOp::Broadcast { root: 0 },
            p,
            n,
            elem_size: 1,
            strategy: Some(stale.clone()),
            hier: None,
            opt: OptLevel::Full,
        }])
        .expect("stale plan compiles");
    assert_eq!(cache.stats().entries, 1);

    // Production feedback: run the collective on the *true* (degraded)
    // simulated machine, fold against the *configured* parameters.
    let retune = feed_until_retune(&mut cc, configured, &cache);

    // Refit accuracy: β̂ within 10% of the true machine.
    let beta_err = (retune.new_params.beta - true_machine.beta).abs() / true_machine.beta;
    assert!(
        beta_err <= 0.10,
        "refit β {} vs true {} (err {:.1}%)",
        retune.new_params.beta,
        true_machine.beta,
        beta_err * 100.0
    );
    assert_eq!(retune.version, 2, "first refit bumps the params version");

    // The stale plan was invalidated and the new winner re-warmed.
    assert_eq!(retune.invalidated, 1, "the warmed stale plan is retired");
    assert_eq!(retune.warmed, 1, "the new choice is compiled eagerly");
    assert!(cache.stats().invalidations >= 1);

    // Re-selection: the new strategy matches what the selector would
    // choose with perfect knowledge, and the cost model prices it
    // strictly cheaper than the stale choice under the refit params.
    let r = retune
        .reselections
        .iter()
        .find(|r| r.shape.plan_op == PlanOp::Broadcast { root: 0 })
        .expect("the tracked broadcast shape re-selects");
    let (old, new) = (r.old.strategy.clone(), r.new.strategy.clone());
    let (old, new) = (old.expect("flat"), new.expect("flat"));
    assert_eq!(old, stale);
    assert_eq!(new, fresh_truth);
    let refit = retune.new_params;
    let price_under = |m: &MachineParams, s: &Strategy| {
        hybrid_cost(CollectiveOp::Broadcast, s, CostContext::linear_with(m)).eval(n, m)
    };
    assert!(
        price_under(&refit, &new) < price_under(&refit, &old),
        "re-selected {new} must beat stale {old} under the refit parameters"
    );
    // And under the *true* machine the switch is a real win too.
    assert!(price_under(&true_machine, &new) < price_under(&true_machine, &old));

    // The transaction is visible in the always-on telemetry.
    let snap = metrics::global().snapshot();
    assert_eq!(snap.counter_total("intercom_refits_total"), 1);
    assert!(snap.counter_total("intercom_drift_verdicts_total") >= 1);
    assert_eq!(
        snap.gauge("intercom_machine_params_version", &[]),
        Some(2.0)
    );
    assert!(
        snap.gauge("intercom_plancache_invalidations_total", &[])
            .unwrap_or(0.0)
            >= 1.0
    );
    // The sim runs themselves were metered while the switch was on.
    let sim_hist = snap
        .histogram("intercom_sim_elapsed_seconds", &[("p", "8")])
        .expect("sim elapsed histogram populated");
    assert!(sim_hist.count() >= 3, "one observation per fed report");

    metrics::set_enabled(false);
}

#[test]
fn cluster_retune_warms_the_programs_plans_compile() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let machine = HierMachine::delta_cluster();
    let configured = *machine.inter();
    let cluster = Cluster::new(Mesh2D::new(1, 8), 2);
    let endpoint = RecordingComm::new(0, cluster.ranks());
    let mut cc = Communicator::world_on_cluster(&endpoint, machine, &cluster).unwrap();

    // Under a doubled network β, combine-to-all of 4 KiB switches
    // between two hybrids and of 256 KiB from flat to a hybrid; a 64 B
    // broadcast keeps its choice.
    let shapes = [
        (PlanOp::AllReduce, 512),
        (PlanOp::AllReduce, 32768),
        (PlanOp::Broadcast { root: 0 }, 8),
    ];
    let mut tuner = AutoTuner::new(configured);
    for (plan_op, n_elems) in shapes {
        tuner.track(TrackedShape {
            plan_op,
            shape: cc.shape(),
            n_elems,
            elem_size: 8,
        });
    }
    cc.attach_tuner(tuner);
    let cache = PlanCache::new();
    let retune = feed_until_retune(&mut cc, configured, &cache);
    assert_eq!(cc.hier().unwrap().version, 2, "the network level is refit");

    let flipped: Vec<usize> = retune
        .reselections
        .iter()
        .map(|r| r.shape.n_elems)
        .collect();
    assert_eq!(flipped, [512, 32768]);
    assert_eq!(retune.warmed, 2);
    for r in &retune.reselections {
        // The warmed key is the one the next plan construction builds...
        let n = r.shape.n_elems;
        let plan_key = match r.shape.plan_op {
            PlanOp::AllReduce => AllreducePlan::<f64>::new(&cc, n, ReduceOp::Sum)
                .key()
                .clone(),
            _ => BcastPlan::<f64>::new(&cc, 0, n).key().clone(),
        };
        assert_eq!(plan_key, r.new, "warmed key for n={n}");
        let hits = cache.stats().hits;
        cache.get_or_compile(&plan_key).unwrap();
        assert_eq!(cache.stats().hits, hits + 1, "n={n} was warmed");
        // ...and runs what the one-shot call now picks: a hybrid.
        let HierChoice::Hier(h) = cc.auto_choice(CollectiveOp::CombineToAll, n * 8) else {
            panic!("the refit network level favours a hybrid at n={n}");
        };
        assert_eq!((&r.new.strategy, &r.new.hier), (&None, &Some(h)));
    }
}
