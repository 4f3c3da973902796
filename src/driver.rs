//! Shared observability driver: runs any verifiable collective at base
//! tag 0 on either backend under a unified recorder, and folds the
//! recording against the cost model.
//!
//! The `trace-dump` binary, the `fig1_trace` example, the CI smoke gate
//! and the counter-vs-verifier byte cross-check all go through these
//! functions, so a trace produced by any of them is event-for-event
//! comparable with the symbolic schedule `intercom-verify` extracts —
//! same buffer shapes, same tags, same stage coordinates.

use intercom::comm::GroupComm;
use intercom::ir::{cost_op, PlanOp};
use intercom::primitives::pipelined_ring_bcast;
use intercom::{algorithms, Comm, ReduceOp, Result};
use intercom_cost::{CostContext, MachineParams, Strategy};
use intercom_meshsim::{simulate, SimConfig};
use intercom_obs::{analyze, ResidualReport, RunRecord};
use intercom_runtime::run_world_recorded;
use intercom_topology::Mesh2D;

/// Runs `op` once at base tag 0 with the exact buffer shapes
/// [`intercom_verify::extract_program`] replays symbolically, so the
/// recorded events line up one-to-one with the verifier's schedule.
/// `n` follows the [`PlanOp`] size convention (total vector length
/// for broadcast/combine ops, per-member block length for the rest).
pub fn run_collective<C: Comm + ?Sized>(
    comm: &C,
    op: &PlanOp,
    strategy: Option<&Strategy>,
    n: usize,
) -> Result<()> {
    let gc = GroupComm::world(comm);
    let p = comm.size();
    let rank = comm.rank();
    let fill = |buf: &mut [u8]| {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
    };
    let st = || strategy.unwrap_or_else(|| panic!("{} requires a strategy", op.name()));
    match *op {
        PlanOp::Broadcast { root } => {
            let mut buf = vec![0u8; n];
            if rank == root {
                fill(&mut buf);
            }
            algorithms::broadcast(&gc, st(), root, &mut buf, 0)
        }
        PlanOp::Reduce { root } => {
            let mut buf = vec![0u8; n];
            fill(&mut buf);
            algorithms::reduce(&gc, st(), root, &mut buf, ReduceOp::Max, 0)
        }
        PlanOp::AllReduce => {
            let mut buf = vec![0u8; n];
            fill(&mut buf);
            algorithms::allreduce(&gc, st(), &mut buf, ReduceOp::Max, 0)
        }
        PlanOp::ReduceScatter => {
            let mut contrib = vec![0u8; p * n];
            fill(&mut contrib);
            let mut mine = vec![0u8; n];
            algorithms::reduce_scatter(&gc, st(), &contrib, &mut mine, ReduceOp::Max, 0)
        }
        PlanOp::Collect => {
            let mut mine = vec![0u8; n];
            fill(&mut mine);
            let mut all = vec![0u8; p * n];
            algorithms::collect(&gc, st(), &mine, &mut all, 0)
        }
        PlanOp::Scatter { root } => {
            let mut full = vec![0u8; p * n];
            fill(&mut full);
            let mut mine = vec![0u8; n];
            let full = (rank == root).then_some(&full[..]);
            algorithms::scatter(&gc, root, full, &mut mine, 0)
        }
        PlanOp::Gather { root } => {
            let mut mine = vec![0u8; n];
            fill(&mut mine);
            let mut full = vec![0u8; p * n];
            let full = (rank == root).then_some(&mut full[..]);
            algorithms::gather(&gc, root, &mine, full, 0)
        }
        PlanOp::Alltoall => {
            let mut send = vec![0u8; p * n];
            fill(&mut send);
            let mut recv = vec![0u8; p * n];
            algorithms::alltoall(&gc, &send, &mut recv, 0)
        }
        PlanOp::PipelinedBcast { root, segments } => {
            let mut buf = vec![0u8; n];
            if rank == root {
                fill(&mut buf);
            }
            pipelined_ring_bcast(&gc, root, &mut buf, segments, 0)
        }
    }
}

/// One recorded collective run, backend-agnostic.
pub struct Recorded {
    /// Per-rank events and counters.
    pub run: RunRecord,
    /// Elapsed seconds: virtual clock for the simulator, latest event
    /// end for the threaded backend.
    pub elapsed: f64,
}

/// Records one collective on the threaded runtime (wall-clock
/// timestamps, per-rank ring capacity `capacity`).
pub fn record_threads(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    p: usize,
    n: usize,
    capacity: usize,
) -> Recorded {
    let op = *op;
    let strategy = strategy.cloned();
    let (_, run) = run_world_recorded(p, capacity, move |c| {
        run_collective(c, &op, strategy.as_ref(), n).expect("collective failed under recording")
    });
    let elapsed = run.all_events().map(|e| e.end).fold(0.0f64, f64::max);
    Recorded { run, elapsed }
}

/// Records one collective on the mesh simulator (virtual Paragon-model
/// timestamps; every transfer lands on its source rank's timeline).
pub fn record_sim(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    mesh: Mesh2D,
    n: usize,
    machine: MachineParams,
) -> Recorded {
    let p = mesh.nodes();
    let cfg = SimConfig::new(mesh, machine).with_trace();
    let op = *op;
    let strategy = strategy.cloned();
    let rep = simulate(&cfg, move |c| {
        run_collective(c, &op, strategy.as_ref(), n).expect("collective failed under simulation")
    });
    let trace = rep.trace.expect("tracing was enabled");
    Recorded {
        run: RunRecord::from_transfers(trace.records(), p),
        elapsed: rep.elapsed,
    }
}

/// Folds a recorded run against the cost model's per-stage predictions.
/// `None` when the op has no cost-model counterpart ([`cost_op`]).
/// `n` follows the [`PlanOp`] convention; the conversion to the cost
/// model's total vector length happens here.
pub fn residual_report(
    rec: &Recorded,
    op: &PlanOp,
    strategy: &Strategy,
    machine: &MachineParams,
    n: usize,
) -> Option<ResidualReport> {
    let cop = cost_op(*op)?;
    let ctx = CostContext::linear_with(machine);
    Some(analyze(
        &rec.run,
        cop,
        strategy,
        ctx,
        machine,
        op.vector_len(rec.run.p(), n),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_and_sim_move_the_same_bytes() {
        let p = 4;
        let n = 64;
        let op = PlanOp::Broadcast { root: 0 };
        let st = Strategy::pure_mst(p);
        let threads = record_threads(&op, Some(&st), p, n, 1024);
        let sim = record_sim(
            &op,
            Some(&st),
            Mesh2D::new(1, p),
            n,
            MachineParams::PARAGON_MODEL,
        );
        let a = threads.run.totals();
        let b = sim.run.totals();
        assert_eq!(a.bytes_out, b.bytes_out);
        assert_eq!(a.msgs_sent, b.msgs_sent);
        assert!(threads.elapsed > 0.0 && sim.elapsed > 0.0);
    }

    #[test]
    fn residual_report_covers_sim_stages() {
        let p = 9;
        let n = 900;
        let op = PlanOp::Collect;
        let st = Strategy::pure_long(p);
        let machine = MachineParams::PARAGON_MODEL;
        let rec = record_sim(&op, Some(&st), Mesh2D::new(1, p), n, machine);
        let report = residual_report(&rec, &op, &st, &machine, n).unwrap();
        assert_eq!(report.unattributed_events, 0, "every event maps to a stage");
        assert!(report.stages.iter().any(|s| s.events > 0));
    }
}
