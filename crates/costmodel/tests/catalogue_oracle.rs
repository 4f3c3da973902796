//! Catalogue selection equals brute-force selection.
//!
//! `best_strategy`, `best_mesh_strategy` and `choose_hier` scan a
//! process-wide catalogue of pre-priced strategies. The oracles below are
//! the enumerate-and-price loops they replaced, run afresh on every call;
//! every choice must be the identical `Strategy`.

use intercom_cost::{
    best_mesh_strategy, best_strategy, choose_hier, enumerate_mesh_strategies,
    enumerate_strategies, flat_on_cluster_cost, hier_cost, hier_template, hybrid_cost,
    ClusterShape, CollectiveOp, CostContext, HierChoice, HierMachine, HierStage, HierStrategy,
    MachineParams, Strategy, TunedHier,
};

/// The pre-catalogue `best_strategy`: rank every enumerated strategy with
/// a stable sort and take the head.
fn oracle_best(
    op: CollectiveOp,
    p: usize,
    n: usize,
    machine: &MachineParams,
    ctx: CostContext,
) -> Strategy {
    let mut ranked: Vec<(f64, Strategy)> = enumerate_strategies(p, 0)
        .into_iter()
        .map(|s| (hybrid_cost(op, &s, ctx).eval(n, machine), s))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked.swap_remove(0).1
}

/// The pre-catalogue `best_mesh_strategy`: first strict minimum.
fn oracle_best_mesh(
    op: CollectiveOp,
    rows: usize,
    cols: usize,
    n: usize,
    machine: &MachineParams,
) -> Strategy {
    let ctx = CostContext::mesh_with(machine);
    let mut best: Option<(f64, Strategy)> = None;
    for s in enumerate_mesh_strategies(rows, cols, 0) {
        let t = hybrid_cost(op, &s, ctx).eval(n, machine);
        if best.as_ref().is_none_or(|(bt, _)| t < *bt) {
            best = Some((t, s));
        }
    }
    best.unwrap().1
}

/// The pre-catalogue `choose_hier`, every stage priced by the oracles.
fn oracle_choose_hier(
    op: CollectiveOp,
    shape: ClusterShape,
    n: usize,
    machine: &HierMachine,
) -> HierChoice {
    let inter = machine.inter();
    let flat = oracle_best(op, shape.ranks(), n, inter, CostContext::linear_with(inter));
    let flat_t = flat_on_cluster_cost(op, &flat, n, machine);
    let Some(specs) = hier_template(op, shape) else {
        return HierChoice::Flat(flat);
    };
    let mesh_2d = shape.inter_rows > 1 && shape.inter_cols > 1;
    let stages = specs
        .iter()
        .map(|spec| {
            let params = machine.level(spec.level as usize);
            let (cop, bytes) = (spec.role.cost_op(), spec.bytes(n));
            let strategy = if spec.level == 1 && mesh_2d {
                oracle_best_mesh(cop, shape.inter_rows, shape.inter_cols, bytes, params)
            } else {
                oracle_best(
                    cop,
                    spec.group,
                    bytes,
                    params,
                    CostContext::linear_with(params),
                )
            };
            HierStage {
                level: spec.level,
                role: spec.role,
                strategy,
            }
        })
        .collect();
    let h = HierStrategy { shape, stages };
    if hier_cost(op, &h, n, machine) < flat_t {
        HierChoice::Hier(h)
    } else {
        HierChoice::Flat(flat)
    }
}

/// `{0, 1} ∪ {2^k − 1, 2^k, 2^k + 1 : k ≤ 24}`, ascending.
fn lengths() -> Vec<usize> {
    let mut ns = vec![0, 1];
    for k in 0..=24 {
        let m = 1usize << k;
        ns.extend([m - 1, m, m + 1]);
    }
    ns.sort_unstable();
    ns.dedup();
    ns
}

/// The configured machine, an α/β refit of it, and the same machine
/// under a second link excess.
fn machines() -> [MachineParams; 3] {
    let base = MachineParams::PARAGON;
    [
        base,
        base.refit(base.alpha * 3.7, base.beta * 0.41),
        base.with_link_excess(base.link_excess + 3.0),
    ]
}

const MESHES: [(usize, usize); 4] = [(1, 8), (4, 6), (15, 30), (16, 32)];

fn check_linear(p: usize, machine: &MachineParams, ns: &[usize]) {
    for ctx in [CostContext::LINEAR, CostContext::linear_with(machine)] {
        for op in CollectiveOp::ALL {
            for &n in ns {
                assert_eq!(
                    best_strategy(op, p, n, machine, ctx),
                    oracle_best(op, p, n, machine, ctx),
                    "{op:?} p={p} n={n} {ctx:?}"
                );
            }
        }
    }
}

fn check_mesh(rows: usize, cols: usize, machine: &MachineParams, ns: &[usize]) {
    for op in CollectiveOp::ALL {
        for &n in ns {
            assert_eq!(
                best_mesh_strategy(op, rows, cols, n, machine),
                oracle_best_mesh(op, rows, cols, n, machine),
                "{op:?} {rows}x{cols} n={n}"
            );
        }
    }
}

#[test]
fn linear_selection_matches_brute_force() {
    let ns = lengths();
    for machine in &machines() {
        for p in 1..=64 {
            check_linear(p, machine, &ns);
        }
    }
}

#[test]
fn mesh_selection_matches_brute_force() {
    let ns = lengths();
    for machine in &machines() {
        for (rows, cols) in MESHES {
            check_mesh(rows, cols, machine, &ns);
        }
    }
}

#[test]
fn hierarchical_selection_matches_brute_force() {
    let ns = lengths();
    for preset in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
        // As configured, then after a drift refit of each level.
        let mut tuned = TunedHier::new(preset);
        let mut variants = vec![tuned.current.clone()];
        for level in 0..tuned.current.levels() {
            let m = *tuned.current.level(level);
            tuned.refit_level(level, m.alpha * 2.3, m.beta * 0.6);
            variants.push(tuned.current.clone());
        }
        for machine in &variants {
            for (r, c, rpn) in [(1, 4, 4), (2, 2, 4), (1, 8, 2)] {
                let shape = ClusterShape {
                    inter_rows: r,
                    inter_cols: c,
                    ranks_per_node: rpn,
                };
                for op in CollectiveOp::ALL {
                    for &n in &ns {
                        assert_eq!(
                            choose_hier(op, shape, n, machine),
                            oracle_choose_hier(op, shape, n, machine),
                            "{op:?} {shape} n={n}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn concurrent_selection_matches_brute_force() {
    // A link excess no other test uses, so the eight threads start on
    // cold catalogue entries and race to fill them.
    let machine = MachineParams::PARAGON.with_link_excess(5.25);
    let ns = lengths();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (machine, ns) = (&machine, &ns);
            scope.spawn(move || {
                for p in (1..=64).filter(|p| p % 8 == t) {
                    check_linear(p, machine, ns);
                }
                let (rows, cols) = MESHES[t % MESHES.len()];
                check_mesh(rows, cols, machine, ns);
                // Every thread also asks for the one shape all others ask for.
                check_linear(48, machine, ns);
            });
        }
    });
}
