//! `hier` — flat-vs-hierarchical A/B on simulated clusters.
//!
//! For PARAGON- and DELTA-backbone two-level machines (inter-node β
//! 15× / 10× the intra-node β), executes each collective twice on the
//! *same* simulated cluster fabric — the selected hierarchical hybrid
//! and the best flat strategy under the level-blind model — and
//! compares virtual completion times. This turns the two-level cost
//! model's claim into an executed measurement, not a self-grade.
//!
//! The CI gate (`--smoke` only trims the size sweep; the gate always
//! applies): on the **delta backbone** — inter β exactly 10× intra β
//! over pure §2-style links — the hybrid must **strictly** beat the
//! best flat strategy for broadcast and combine-to-all at ≥ 2 cluster
//! shapes at the long-vector point. The paragon backbone is reported
//! for contrast but not gated: its inter network inherits §7.1's
//! `link_excess = 2`, which halves inter-link contention, and combined
//! with the intra-node locality node-major placement hands every flat
//! ring (most hops of a world-rank ring stay inside a node), the
//! level-blind strategies keep up there — an honest limit of the
//! two-level model, visible only because this is an executed A/B and
//! not the model grading itself.
//!
//! Run: `cargo run --release -p intercom-bench --bin hier`
//! Emits `BENCH_hier.json` in the current directory.

use intercom::comm::GroupComm;
use intercom::{algorithms, hier_allreduce, hier_broadcast, hier_collect, ReduceOp};
use intercom_cost::{
    best_strategy, select_hier, ClusterShape, CollectiveOp, CostContext, HierMachine,
};
use intercom_meshsim::{simulate, SimConfig};
use intercom_topology::{Cluster, Mesh2D};
use std::process::ExitCode;

/// Cluster shapes under test (fat nodes, a 2x2 inter mesh, thin nodes).
fn shapes() -> [ClusterShape; 3] {
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
    ]
}

/// Simulated virtual times `(t_hier, t_flat)` plus the two strategy
/// strings, for one op × shape × machine × size.
fn ab(
    op: CollectiveOp,
    shape: ClusterShape,
    machine: &HierMachine,
    n: usize,
) -> (f64, f64, String, String) {
    let cluster = Cluster::new(
        Mesh2D::new(shape.inter_rows, shape.inter_cols),
        shape.ranks_per_node,
    );
    let p = shape.ranks();
    let hs = select_hier(op, shape, n, machine).expect("op has a two-level template");
    let inter = machine.inter();
    let flat = best_strategy(op, p, n, inter, CostContext::linear_with(inter));
    let run = |hier: bool| {
        let hs = hs.clone();
        let flat = flat.clone();
        let cfg = SimConfig::cluster(cluster, machine);
        simulate(&cfg, move |c| {
            let gc = GroupComm::world(c);
            match op {
                CollectiveOp::Broadcast => {
                    let mut buf = vec![1u8; n];
                    if hier {
                        hier_broadcast(&gc, &hs, 0, &mut buf, 0).unwrap();
                    } else {
                        algorithms::broadcast(&gc, &flat, 0, &mut buf, 0).unwrap();
                    }
                }
                CollectiveOp::CombineToAll => {
                    let mut buf = vec![1u8; n];
                    if hier {
                        hier_allreduce(&gc, &hs, &mut buf, ReduceOp::Max, 0).unwrap();
                    } else {
                        algorithms::allreduce(&gc, &flat, &mut buf, ReduceOp::Max, 0).unwrap();
                    }
                }
                CollectiveOp::Collect => {
                    let b = (n / p).max(1);
                    let mine = vec![1u8; b];
                    let mut all = vec![0u8; p * b];
                    if hier {
                        hier_collect(&gc, &hs, &mine, &mut all, 0).unwrap();
                    } else {
                        algorithms::collect(&gc, &flat, &mine, &mut all, 0).unwrap();
                    }
                }
                _ => unreachable!("op not in the A/B sweep"),
            }
        })
        .elapsed
    };
    (run(true), run(false), hs.to_string(), flat.to_string())
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.9e}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The long-vector point the win gate is evaluated at.
    const N_GATE: usize = 1 << 18;
    let sizes: &[usize] = if smoke { &[N_GATE] } else { &[1 << 13, N_GATE] };
    // (label, machine, whether the win gate applies): the delta
    // backbone is the gate; paragon is the reported contrast case (see
    // the module docs).
    let machines = [
        ("paragon", HierMachine::paragon_cluster(), false),
        ("delta", HierMachine::delta_cluster(), true),
    ];
    let ops = [
        ("broadcast", CollectiveOp::Broadcast),
        ("allreduce", CollectiveOp::CombineToAll),
        ("collect", CollectiveOp::Collect),
    ];

    let mut lines = Vec::new();
    let mut gate_lines = Vec::new();
    let mut pass = true;
    for (label, machine, gate_machine) in &machines {
        for (op_name, op) in &ops {
            let mut wins_at_gate = 0usize;
            for shape in shapes() {
                for &n in sizes {
                    let (t_hier, t_flat, hs, flat) = ab(*op, shape, machine, n);
                    if n == N_GATE && t_hier < t_flat {
                        wins_at_gate += 1;
                    }
                    println!(
                        "{label} {op_name} @{shape} n={n}: flat {flat} {:.3e}s, hier {hs} {:.3e}s ({:.2}x)",
                        t_flat,
                        t_hier,
                        t_flat / t_hier,
                    );
                    lines.push(format!(
                        "    {{\"machine\":\"{label}\",\"op\":\"{op_name}\",\"shape\":\"{shape}\",\
                         \"n\":{n},\"flat\":\"{flat}\",\"hier\":\"{hs}\",\
                         \"t_flat_secs\":{},\"t_hier_secs\":{},\"speedup\":{}}}",
                        json_num(t_flat),
                        json_num(t_hier),
                        json_num(t_flat / t_hier),
                    ));
                }
            }
            // The acceptance gate: broadcast and allreduce hybrids must
            // strictly win at >= 2 shapes; collect is reported only.
            let gated =
                *gate_machine && matches!(op, CollectiveOp::Broadcast | CollectiveOp::CombineToAll);
            if gated && wins_at_gate < 2 {
                eprintln!(
                    "hier gate FAILED: {label} {op_name} hybrid wins only {wins_at_gate}/3 shapes"
                );
                pass = false;
            }
            gate_lines.push(format!(
                "    {{\"machine\":\"{label}\",\"op\":\"{op_name}\",\
                 \"wins_at_gate\":{wins_at_gate},\"gated\":{gated}}}"
            ));
        }
    }

    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"n_gate\": {N_GATE},\n  \"cases\": [\n{}\n  ],\n  \
         \"gates\": [\n{}\n  ],\n  \"pass\": {pass}\n}}\n",
        lines.join(",\n"),
        gate_lines.join(",\n"),
    );
    std::fs::write("BENCH_hier.json", &json).expect("write BENCH_hier.json");
    println!("wrote BENCH_hier.json");

    if !pass {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
