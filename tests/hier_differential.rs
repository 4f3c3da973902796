//! Differential tests for hierarchical hybrids: for every collective
//! with a two-level template, executing the selected hierarchical
//! strategy must produce **byte-identical** results to flat execution
//! of the same call — on the threaded runtime and on the mesh
//! simulator, across several cluster shapes (including a true 2-D
//! inter-node mesh, which exercises mesh-aware inter-stage selection).
//!
//! Integer payloads with exact reductions make "byte-identical" a
//! meaningful bar: any leader-plane indexing slip, tag collision
//! between stages, or node-major block permutation bug shows up as a
//! differing word, not a tolerance failure.
//!
//! The same bar holds between a cluster communicator's one-shot
//! [`Algo::Auto`](intercom::Algo::Auto) calls and its persistent plans,
//! which must compile exactly what the one-shot call selects.

use intercom::comm::GroupComm;
use intercom::ir::CollectiveProgram;
use intercom::plan::{AllreducePlan, BcastPlan, CollectPlan, ReducePlan, ReduceScatterPlan};
use intercom::{
    algorithms, hier_allreduce, hier_broadcast, hier_collect, hier_reduce, hier_reduce_scatter,
    Comm, Communicator, ReduceOp, CALL_TAG_STRIDE,
};
use intercom_cost::{
    best_strategy, select_hier, ClusterShape, CollectiveOp, CostContext, HierChoice, HierMachine,
};
use intercom_meshsim::{simulate, SimConfig};
use intercom_runtime::run_world;
use intercom_topology::{Cluster, Mesh2D};

/// Cluster shapes under test: linear inter-node arrays with fat and
/// thin nodes, plus a 2x3 inter mesh.
fn shapes() -> [ClusterShape; 4] {
    [
        ClusterShape {
            inter_rows: 1,
            inter_cols: 4,
            ranks_per_node: 4,
        },
        ClusterShape {
            inter_rows: 2,
            inter_cols: 2,
            ranks_per_node: 4,
        },
        ClusterShape {
            inter_rows: 1,
            inter_cols: 8,
            ranks_per_node: 2,
        },
        ClusterShape {
            inter_rows: 2,
            inter_cols: 3,
            ranks_per_node: 2,
        },
    ]
}

/// The cluster shapes of the benchmark's `cluster-sim` workload.
fn bench_shapes() -> [ClusterShape; 3] {
    [
        ClusterShape::linear(4, 4),
        ClusterShape {
            inter_rows: 2,
            inter_cols: 2,
            ranks_per_node: 4,
        },
        ClusterShape::linear(8, 2),
    ]
}

/// `(n, b)` for a call of `bytes` payload bytes on `p` ranks: vector
/// length and per-member block length in `u64` words.
fn words(bytes: usize, p: usize) -> (usize, usize) {
    (bytes / 8, (bytes / 8 / p).max(1))
}

/// Broadcast payload word `i`.
fn bcast_word(i: usize) -> u64 {
    (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Rank `r`'s contribution to element `i` of a combining op. Small
/// enough that sums over ≤ 16 ranks never wrap.
fn contrib_word(r: usize, i: usize) -> u64 {
    (r as u64 * 1_000_003 + i as u64 * 7 + 1) % 65_536
}

/// Rank `r`'s contribution to element `i` of the block destined for
/// rank `g` in a reduce-scatter.
fn rs_word(r: usize, g: usize, i: usize) -> u64 {
    (r as u64 * 131 + g as u64 * 17 + i as u64 * 3 + 5) % 4_096
}

/// Per-call `(label, hier result, flat result)` rows from one rank.
type CallRows = Vec<(&'static str, Vec<u64>, Vec<u64>)>;

/// Runs all five hierarchical collectives twice — the selected hybrid
/// and flat execution — and returns `(label, hier, flat)` per call.
/// Only the root's reduce output is defined, so non-roots report empty
/// vectors there.
fn differential<C: Comm + ?Sized>(c: &C, shape: ClusterShape, n: usize, b: usize) -> CallRows {
    let machine = HierMachine::paragon_cluster();
    let gc = GroupComm::world(c);
    let p = gc.len();
    let me = gc.me();
    let params = machine.inter();
    let ctx = CostContext::linear_with(params);
    let hs = |op: CollectiveOp, bytes: usize| select_hier(op, shape, bytes, &machine).unwrap();
    let flat = |op: CollectiveOp, bytes: usize| best_strategy(op, p, bytes, params, ctx);
    let mut out = Vec::new();
    let mut call = 0u64;
    let mut tag = || {
        call += 1;
        (call - 1) * CALL_TAG_STRIDE
    };

    // Broadcast from the last rank.
    let root = p - 1;
    let init: Vec<u64> = if me == root {
        (0..n).map(bcast_word).collect()
    } else {
        vec![0; n]
    };
    let mut h = init.clone();
    hier_broadcast(
        &gc,
        &hs(CollectiveOp::Broadcast, n * 8),
        root,
        &mut h,
        tag(),
    )
    .unwrap();
    let mut f = init;
    algorithms::broadcast(
        &gc,
        &flat(CollectiveOp::Broadcast, n * 8),
        root,
        &mut f,
        tag(),
    )
    .unwrap();
    out.push(("broadcast", h, f));

    // Combine-to-one (sum) at rank 0; only the root's buffer is defined.
    let init: Vec<u64> = (0..n).map(|i| contrib_word(me, i)).collect();
    let mut h = init.clone();
    hier_reduce(
        &gc,
        &hs(CollectiveOp::CombineToOne, n * 8),
        0,
        &mut h,
        ReduceOp::Sum,
        tag(),
    )
    .unwrap();
    let mut f = init;
    algorithms::reduce(
        &gc,
        &flat(CollectiveOp::CombineToOne, n * 8),
        0,
        &mut f,
        ReduceOp::Sum,
        tag(),
    )
    .unwrap();
    if me != 0 {
        h.clear();
        f.clear();
    }
    out.push(("reduce", h, f));

    // Combine-to-all (sum).
    let init: Vec<u64> = (0..n).map(|i| contrib_word(me, i)).collect();
    let mut h = init.clone();
    hier_allreduce(
        &gc,
        &hs(CollectiveOp::CombineToAll, n * 8),
        &mut h,
        ReduceOp::Sum,
        tag(),
    )
    .unwrap();
    let mut f = init;
    algorithms::allreduce(
        &gc,
        &flat(CollectiveOp::CombineToAll, n * 8),
        &mut f,
        ReduceOp::Sum,
        tag(),
    )
    .unwrap();
    out.push(("allreduce", h, f));

    // Collect (allgather) of b-word blocks.
    let mine: Vec<u64> = (0..b).map(|i| contrib_word(me, i)).collect();
    let mut h = vec![0u64; p * b];
    hier_collect(
        &gc,
        &hs(CollectiveOp::Collect, p * b * 8),
        &mine,
        &mut h,
        tag(),
    )
    .unwrap();
    let mut f = vec![0u64; p * b];
    algorithms::collect(
        &gc,
        &flat(CollectiveOp::Collect, p * b * 8),
        &mine,
        &mut f,
        tag(),
    )
    .unwrap();
    out.push(("collect", h, f));

    // Distributed combine (reduce-scatter) of b-word blocks.
    let contrib: Vec<u64> = (0..p * b).map(|k| rs_word(me, k / b, k % b)).collect();
    let mut h = vec![0u64; b];
    hier_reduce_scatter(
        &gc,
        &hs(CollectiveOp::DistributedCombine, p * b * 8),
        &contrib,
        &mut h,
        ReduceOp::Sum,
        tag(),
    )
    .unwrap();
    let mut f = vec![0u64; b];
    algorithms::reduce_scatter(
        &gc,
        &flat(CollectiveOp::DistributedCombine, p * b * 8),
        &contrib,
        &mut f,
        ReduceOp::Sum,
        tag(),
    )
    .unwrap();
    out.push(("reduce-scatter", h, f));

    out
}

/// Runs all five collectives as one-shot [`Algo::Auto`] calls and as
/// persistent plans on a cluster communicator, and returns
/// `(label, one-shot, planned)` per call in [`differential`]'s order.
/// Panics unless every plan's program carries the strategy or hybrid
/// the one-shot call's `auto_choice` picks.
///
/// [`Algo::Auto`]: intercom::Algo::Auto
fn plan_vs_one_shot<C: Comm + ?Sized>(
    c: &C,
    shape: ClusterShape,
    machine: &HierMachine,
    n: usize,
    b: usize,
) -> CallRows {
    let inter = Mesh2D::new(shape.inter_rows, shape.inter_cols);
    let cluster = Cluster::new(inter, shape.ranks_per_node);
    let cc = Communicator::world_on_cluster(c, machine.clone(), &cluster).unwrap();
    let p = cc.size();
    let me = cc.rank();
    let selected = |prog: &CollectiveProgram, op: CollectiveOp, bytes: usize| {
        let want = match cc.auto_choice(op, bytes) {
            HierChoice::Flat(s) => (Some(s), None),
            HierChoice::Hier(h) => (None, Some(h)),
        };
        assert_eq!(
            (prog.strategy.clone(), prog.hier.clone()),
            want,
            "{op:?} plan at {bytes} B on {shape}"
        );
    };
    let mut out = Vec::new();

    let root = p - 1;
    let init: Vec<u64> = if me == root {
        (0..n).map(bcast_word).collect()
    } else {
        vec![0; n]
    };
    let mut one = init.clone();
    cc.bcast(root, &mut one).unwrap();
    let plan = BcastPlan::new(&cc, root, n);
    selected(plan.program().unwrap(), CollectiveOp::Broadcast, n * 8);
    let mut planned = init;
    plan.execute(&cc, &mut planned).unwrap();
    out.push(("broadcast", one, planned));

    let init: Vec<u64> = (0..n).map(|i| contrib_word(me, i)).collect();
    let mut one = init.clone();
    cc.reduce(0, &mut one, ReduceOp::Sum).unwrap();
    let plan = ReducePlan::new(&cc, 0, n, ReduceOp::Sum);
    selected(plan.program().unwrap(), CollectiveOp::CombineToOne, n * 8);
    let mut planned = init;
    plan.execute(&cc, &mut planned).unwrap();
    if me != 0 {
        one.clear();
        planned.clear();
    }
    out.push(("reduce", one, planned));

    let init: Vec<u64> = (0..n).map(|i| contrib_word(me, i)).collect();
    let mut one = init.clone();
    cc.allreduce(&mut one, ReduceOp::Sum).unwrap();
    let plan = AllreducePlan::new(&cc, n, ReduceOp::Sum);
    selected(plan.program().unwrap(), CollectiveOp::CombineToAll, n * 8);
    let mut planned = init;
    plan.execute(&cc, &mut planned).unwrap();
    out.push(("allreduce", one, planned));

    let mine: Vec<u64> = (0..b).map(|i| contrib_word(me, i)).collect();
    let mut one = vec![0u64; p * b];
    cc.allgather(&mine, &mut one).unwrap();
    let plan = CollectPlan::new(&cc, b);
    selected(plan.program().unwrap(), CollectiveOp::Collect, p * b * 8);
    let mut planned = vec![0u64; p * b];
    plan.execute(&cc, &mine, &mut planned).unwrap();
    out.push(("collect", one, planned));

    let contrib: Vec<u64> = (0..p * b).map(|k| rs_word(me, k / b, k % b)).collect();
    let mut one = vec![0u64; b];
    cc.reduce_scatter(&contrib, &mut one, ReduceOp::Sum)
        .unwrap();
    let plan = ReduceScatterPlan::new(&cc, b, ReduceOp::Sum);
    selected(
        plan.program().unwrap(),
        CollectiveOp::DistributedCombine,
        p * b * 8,
    );
    let mut planned = vec![0u64; b];
    plan.execute(&cc, &contrib, &mut planned).unwrap();
    out.push(("reduce-scatter", one, planned));

    out
}

/// Checks every rank's hier/flat pair for equality, and spot-checks the
/// values themselves against independently computed expectations, so a
/// bug shared by both paths cannot hide behind agreement.
fn check(out: &[CallRows], shape: ClusterShape, n: usize, b: usize) {
    let p = shape.ranks();
    assert_eq!(out.len(), p);
    let bcast_exp: Vec<u64> = (0..n).map(bcast_word).collect();
    let sum_exp: Vec<u64> = (0..n)
        .map(|i| (0..p).map(|r| contrib_word(r, i)).sum())
        .collect();
    let collect_exp: Vec<u64> = (0..p)
        .flat_map(|r| (0..b).map(move |i| contrib_word(r, i)))
        .collect();
    for (rank, calls) in out.iter().enumerate() {
        for (label, h, f) in calls {
            assert_eq!(
                h, f,
                "{label} hier != flat at rank {rank} on {shape} (n={n}, b={b})"
            );
        }
        assert_eq!(
            out[rank][0].1, bcast_exp,
            "broadcast value at rank {rank} on {shape}"
        );
        if rank == 0 {
            assert_eq!(out[rank][1].1, sum_exp, "reduce value at root on {shape}");
        }
        assert_eq!(
            out[rank][2].1, sum_exp,
            "allreduce value at rank {rank} on {shape}"
        );
        assert_eq!(
            out[rank][3].1, collect_exp,
            "collect value at rank {rank} on {shape}"
        );
        let rs_exp: Vec<u64> = (0..b)
            .map(|i| (0..p).map(|r| rs_word(r, rank, i)).sum())
            .collect();
        assert_eq!(
            out[rank][4].1, rs_exp,
            "reduce-scatter value at rank {rank} on {shape}"
        );
    }
}

#[test]
fn hier_matches_flat_on_the_threaded_runtime() {
    for shape in shapes() {
        for (n, b) in [(2usize, 1usize), (1024, 16)] {
            let out = run_world(shape.ranks(), move |c| differential(c, shape, n, b));
            check(&out, shape, n, b);
        }
    }
}

#[test]
fn hier_matches_flat_on_the_mesh_simulator() {
    for shape in shapes() {
        let machine = HierMachine::paragon_cluster();
        let cluster = Cluster::new(
            Mesh2D::new(shape.inter_rows, shape.inter_cols),
            shape.ranks_per_node,
        );
        for (n, b) in [(2usize, 1usize), (1024, 16)] {
            let cfg = SimConfig::cluster(cluster, &machine);
            let rep = simulate(&cfg, move |c| differential(c, shape, n, b));
            check(&rep.results, shape, n, b);
        }
    }
}

#[test]
fn plans_match_one_shot_calls_on_the_threaded_runtime() {
    for shape in bench_shapes() {
        for machine in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
            for bytes in [64, 256 << 10] {
                let (n, b) = words(bytes, shape.ranks());
                let out = run_world(shape.ranks(), |c| {
                    plan_vs_one_shot(c, shape, &machine, n, b)
                });
                check(&out, shape, n, b);
            }
        }
    }
}

#[test]
fn plans_match_one_shot_calls_on_the_mesh_simulator() {
    for shape in bench_shapes() {
        let inter = Mesh2D::new(shape.inter_rows, shape.inter_cols);
        let cluster = Cluster::new(inter, shape.ranks_per_node);
        for machine in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
            for bytes in [64, 256 << 10] {
                let (n, b) = words(bytes, shape.ranks());
                let cfg = SimConfig::cluster(cluster, &machine);
                let rep = simulate(&cfg, |c| plan_vs_one_shot(c, shape, &machine, n, b));
                check(&rep.results, shape, n, b);
            }
        }
    }
}
