//! Per-rank symbolic program extraction.
//!
//! Every collective in `intercom` branches only on
//! `(rank, size, n, strategy, root)` — never on received *values* — so
//! replaying one rank's algorithm against a
//! [`RecordingComm`](intercom::trace::RecordingComm) yields exactly the
//! operation sequence that rank would issue against a real backend.
//! Running the same call once per rank produces the full symbolic
//! schedule for the matcher in [`crate::schedule`].

use intercom::comm::GroupComm;
use intercom::ir::PlanOp;
use intercom::primitives::pipelined_ring_bcast;
use intercom::trace::{OpRecord, RecordingComm};
use intercom::{algorithms, ReduceOp, Result};
use intercom_cost::Strategy;

/// Extracts world rank `rank`'s symbolic program for one collective call
/// on a world of `p` ranks with size parameter `n` (see [`PlanOp`] for
/// its unit). The base tag is 0, so recorded tags encode the recursion
/// level directly (`tag / LEVEL_TAG_STRIDE`).
///
/// # Panics
///
/// Panics if `strategy` is `None` for an op where
/// [`PlanOp::takes_strategy`] is true.
pub fn extract_program(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    p: usize,
    n: usize,
    rank: usize,
) -> Result<Vec<OpRecord>> {
    let rec = RecordingComm::new(rank, p);
    {
        let gc = GroupComm::world(&rec);
        let st = || strategy.unwrap_or_else(|| panic!("{} requires a strategy", op.name()));
        match *op {
            PlanOp::Broadcast { root } => {
                let mut buf = vec![0u8; n];
                algorithms::broadcast(&gc, st(), root, &mut buf, 0)?;
            }
            PlanOp::Reduce { root } => {
                let mut buf = vec![0u8; n];
                algorithms::reduce(&gc, st(), root, &mut buf, ReduceOp::Sum, 0)?;
            }
            PlanOp::AllReduce => {
                let mut buf = vec![0u8; n];
                algorithms::allreduce(&gc, st(), &mut buf, ReduceOp::Sum, 0)?;
            }
            PlanOp::ReduceScatter => {
                let contrib = vec![0u8; p * n];
                let mut mine = vec![0u8; n];
                algorithms::reduce_scatter(&gc, st(), &contrib, &mut mine, ReduceOp::Sum, 0)?;
            }
            PlanOp::Collect => {
                let mine = vec![0u8; n];
                let mut all = vec![0u8; p * n];
                algorithms::collect(&gc, st(), &mine, &mut all, 0)?;
            }
            PlanOp::Scatter { root } => {
                let full = vec![0u8; p * n];
                let mut mine = vec![0u8; n];
                let full = (rank == root).then_some(&full[..]);
                algorithms::scatter(&gc, root, full, &mut mine, 0)?;
            }
            PlanOp::Gather { root } => {
                let mine = vec![0u8; n];
                let mut full = vec![0u8; p * n];
                let full = (rank == root).then_some(&mut full[..]);
                algorithms::gather(&gc, root, &mine, full, 0)?;
            }
            PlanOp::Alltoall => {
                let send = vec![0u8; p * n];
                let mut recv = vec![0u8; p * n];
                algorithms::alltoall(&gc, &send, &mut recv, 0)?;
            }
            PlanOp::PipelinedBcast { root, segments } => {
                let mut buf = vec![0u8; n];
                pipelined_ring_bcast(&gc, root, &mut buf, segments, 0)?;
            }
        }
    }
    Ok(rec.into_ops())
}

/// Extracts all `p` ranks' programs for one collective call.
pub fn extract_programs(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    p: usize,
    n: usize,
) -> Result<Vec<Vec<OpRecord>>> {
    (0..p)
        .map(|rank| extract_program(op, strategy, p, n, rank))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_programs_do_not_communicate() {
        let st = Strategy::pure_mst(1);
        for op in [
            PlanOp::Broadcast { root: 0 },
            PlanOp::AllReduce,
            PlanOp::Collect,
        ] {
            let progs = extract_programs(&op, Some(&st), 1, 16).unwrap();
            assert!(progs[0].iter().all(|r| matches!(
                r,
                OpRecord::Compute { .. }
                    | OpRecord::CallOverhead
                    | OpRecord::Copy { .. }
                    | OpRecord::Reduce { .. }
            )));
        }
        // Alltoall on a world of one is a single local own-block copy.
        let progs = extract_programs(&PlanOp::Alltoall, None, 1, 16).unwrap();
        assert!(progs[0].iter().all(|r| matches!(r, OpRecord::Copy { .. })));
    }

    #[test]
    fn mst_bcast_root_sends_log_times() {
        let st = Strategy::pure_mst(8);
        let prog = extract_program(&PlanOp::Broadcast { root: 0 }, Some(&st), 8, 64, 0).unwrap();
        let sends = prog
            .iter()
            .filter(|r| matches!(r, OpRecord::Send { .. }))
            .count();
        assert_eq!(sends, 3, "MST root sends once per halving level");
    }

    #[test]
    fn ring_collect_exchanges_p_minus_1_times() {
        let st = Strategy::pure_long(6);
        let prog = extract_program(&PlanOp::Collect, Some(&st), 6, 12, 2).unwrap();
        let xchg = prog
            .iter()
            .filter(|r| matches!(r, OpRecord::SendRecv { .. }))
            .count();
        assert_eq!(xchg, 5);
    }

    #[test]
    #[should_panic(expected = "requires a strategy")]
    fn missing_strategy_panics() {
        let _ = extract_program(&PlanOp::AllReduce, None, 4, 8, 0);
    }
}
