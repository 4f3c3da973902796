//! Lowering: from a symbolic per-rank replay to a [`CollectiveProgram`].
//!
//! Each rank's algorithm is replayed once against a
//! [`RecordingComm`](crate::trace::RecordingComm) with the argument
//! buffers registered as named regions, exactly as the verifier's
//! extraction does — the algorithms branch only on
//! `(rank, size, n, strategy, root)`, so the replayed operation stream
//! *is* the schedule. The recorded raw address spans are then resolved
//! into [`Loc`]s: spans inside a registered argument become
//! [`Buf::Arg`] offsets, and the remaining temporary allocations are
//! clustered by byte overlap (data can only flow between spans that
//! share bytes) and packed into a per-rank scratch arena.

use super::{
    fresh_plan_id, Buf, CollectiveProgram, Loc, PlanOp, RankProgram, StageId, Step, StepKind,
};
use crate::algorithms::{self, LEVEL_TAG_STRIDE};
use crate::comm::{GroupComm, Tag};
use crate::error::Result;
use crate::hier;
use crate::op::{Elem, ReduceOp};
use crate::primitives::pipelined_ring_bcast;
use crate::trace::{MemSpan, OpRecord, RecordingComm};
use intercom_cost::{HierStrategy, Strategy};
use std::collections::BTreeMap;

/// Scratch-arena alignment: every temporary cluster starts on a 16-byte
/// boundary, a multiple of every supported element size.
pub(super) const ARENA_ALIGN: usize = 16;

/// Lowers one collective call into a compiled program for all `p` ranks.
///
/// `n` is the size parameter in *elements* (unit per [`PlanOp::args`])
/// and `elem_size` the element width in bytes. The program is valid for
/// any scalar type of that width: lowering never branches on values,
/// only on element geometry.
///
/// # Panics
///
/// Panics if `strategy` is `None` for an op where
/// [`PlanOp::takes_strategy`] is true, or if `elem_size` is not one of
/// the supported scalar widths (1, 2, 4, 8).
pub fn lower(
    op: PlanOp,
    strategy: Option<&Strategy>,
    p: usize,
    n: usize,
    elem_size: usize,
) -> Result<CollectiveProgram> {
    let ranks = (0..p)
        .map(|rank| match elem_size {
            1 => lower_rank::<u8>(op, strategy, p, n, rank),
            2 => lower_rank::<u16>(op, strategy, p, n, rank),
            4 => lower_rank::<u32>(op, strategy, p, n, rank),
            8 => lower_rank::<u64>(op, strategy, p, n, rank),
            other => panic!("unsupported element size {other} (expected 1, 2, 4 or 8)"),
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(CollectiveProgram {
        plan_id: fresh_plan_id(),
        op,
        p,
        n,
        elem_size,
        strategy: strategy.cloned(),
        hier: None,
        ranks,
    })
}

/// Lowers one *hierarchical* collective call into a compiled program
/// for all `hs.shape.ranks()` ranks. The per-rank replay runs the
/// leader-based compositions of [`crate::hier`], so the resulting
/// program's steps land in per-stage [`StageId`] bands (stage `k` at
/// levels `k · HIER_STAGE_STRIDE / LEVEL_TAG_STRIDE` and up) — the
/// same IR, executors and verifier checks apply unchanged.
///
/// Supported ops are the five with a hierarchical template: broadcast,
/// reduce, allreduce, reduce-scatter and collect. Others err with
/// [`PlanMismatch`](crate::error::CommError::PlanMismatch).
///
/// # Panics
///
/// Panics if `elem_size` is not one of the supported scalar widths
/// (1, 2, 4, 8).
pub fn lower_hier(
    op: PlanOp,
    hs: &HierStrategy,
    n: usize,
    elem_size: usize,
) -> Result<CollectiveProgram> {
    let p = hs.shape.ranks();
    let ranks = (0..p)
        .map(|rank| match elem_size {
            1 => lower_hier_rank::<u8>(op, hs, p, n, rank),
            2 => lower_hier_rank::<u16>(op, hs, p, n, rank),
            4 => lower_hier_rank::<u32>(op, hs, p, n, rank),
            8 => lower_hier_rank::<u64>(op, hs, p, n, rank),
            other => panic!("unsupported element size {other} (expected 1, 2, 4 or 8)"),
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(CollectiveProgram {
        plan_id: fresh_plan_id(),
        op,
        p,
        n,
        elem_size,
        strategy: None,
        hier: Some(hs.clone()),
        ranks,
    })
}

/// Replays rank `rank`'s hierarchical composition at base tag 0 with
/// registered argument buffers, then resolves the recorded spans.
fn lower_hier_rank<T: Elem + Default>(
    op: PlanOp,
    hs: &HierStrategy,
    p: usize,
    n: usize,
    rank: usize,
) -> Result<RankProgram> {
    let rec = RecordingComm::new(rank, p);
    {
        let gc = GroupComm::world(&rec);
        match op {
            PlanOp::Broadcast { root } => {
                let mut buf = vec![T::default(); n];
                rec.register("buf", &buf);
                hier::hier_broadcast(&gc, hs, root, &mut buf, 0)?;
            }
            PlanOp::Reduce { root } => {
                let mut buf = vec![T::default(); n];
                rec.register("buf", &buf);
                hier::hier_reduce(&gc, hs, root, &mut buf, ReduceOp::Sum, 0)?;
            }
            PlanOp::AllReduce => {
                let mut buf = vec![T::default(); n];
                rec.register("buf", &buf);
                hier::hier_allreduce(&gc, hs, &mut buf, ReduceOp::Sum, 0)?;
            }
            PlanOp::ReduceScatter => {
                let contrib = vec![T::default(); p * n];
                let mut mine = vec![T::default(); n];
                rec.register("contrib", &contrib);
                rec.register("mine", &mine);
                hier::hier_reduce_scatter(&gc, hs, &contrib, &mut mine, ReduceOp::Sum, 0)?;
            }
            PlanOp::Collect => {
                let mine = vec![T::default(); n];
                let mut all = vec![T::default(); p * n];
                rec.register("mine", &mine);
                rec.register("all", &all);
                hier::hier_collect(&gc, hs, &mine, &mut all, 0)?;
            }
            _ => {
                return Err(crate::error::CommError::PlanMismatch {
                    what: "op has no hierarchical lowering",
                })
            }
        }
    }
    resolve_recorded::<T>(rec, op, p, n)
}

/// Replays rank `rank`'s algorithm at base tag 0 with registered
/// argument buffers, then resolves the recorded spans.
fn lower_rank<T: Elem + Default>(
    op: PlanOp,
    strategy: Option<&Strategy>,
    p: usize,
    n: usize,
    rank: usize,
) -> Result<RankProgram> {
    let rec = RecordingComm::new(rank, p);
    {
        let gc = GroupComm::world(&rec);
        let st = || strategy.unwrap_or_else(|| panic!("{} requires a strategy", op.name()));
        match op {
            PlanOp::Broadcast { root } => {
                let mut buf = vec![T::default(); n];
                rec.register("buf", &buf);
                algorithms::broadcast(&gc, st(), root, &mut buf, 0)?;
            }
            PlanOp::Reduce { root } => {
                let mut buf = vec![T::default(); n];
                rec.register("buf", &buf);
                algorithms::reduce(&gc, st(), root, &mut buf, ReduceOp::Sum, 0)?;
            }
            PlanOp::AllReduce => {
                let mut buf = vec![T::default(); n];
                rec.register("buf", &buf);
                algorithms::allreduce(&gc, st(), &mut buf, ReduceOp::Sum, 0)?;
            }
            PlanOp::ReduceScatter => {
                let contrib = vec![T::default(); p * n];
                let mut mine = vec![T::default(); n];
                rec.register("contrib", &contrib);
                rec.register("mine", &mine);
                algorithms::reduce_scatter(&gc, st(), &contrib, &mut mine, ReduceOp::Sum, 0)?;
            }
            PlanOp::Collect => {
                let mine = vec![T::default(); n];
                let mut all = vec![T::default(); p * n];
                rec.register("mine", &mine);
                rec.register("all", &all);
                algorithms::collect(&gc, st(), &mine, &mut all, 0)?;
            }
            PlanOp::Scatter { root } => {
                let full = vec![T::default(); p * n];
                let mut mine = vec![T::default(); n];
                if rank == root {
                    rec.register("full", &full);
                }
                rec.register("mine", &mine);
                let full = (rank == root).then_some(&full[..]);
                algorithms::scatter(&gc, root, full, &mut mine, 0)?;
            }
            PlanOp::Gather { root } => {
                let mine = vec![T::default(); n];
                let mut full = vec![T::default(); p * n];
                rec.register("mine", &mine);
                if rank == root {
                    rec.register("full", &full);
                }
                let full = (rank == root).then_some(&mut full[..]);
                algorithms::gather(&gc, root, &mine, full, 0)?;
            }
            PlanOp::Alltoall => {
                let send = vec![T::default(); p * n];
                let mut recv = vec![T::default(); p * n];
                rec.register("send", &send);
                rec.register("recv", &recv);
                algorithms::alltoall(&gc, &send, &mut recv, 0)?;
            }
            PlanOp::PipelinedBcast { root, segments } => {
                let mut buf = vec![T::default(); n];
                rec.register("buf", &buf);
                pipelined_ring_bcast(&gc, root, &mut buf, segments, 0)?;
            }
        }
    }
    resolve_recorded::<T>(rec, op, p, n)
}

/// Maps a finished recording's registered regions back to argument
/// slots by name (a non-root rank registers fewer regions than the op
/// has slots) and resolves the recorded spans into a [`RankProgram`].
fn resolve_recorded<T: Elem>(
    rec: RecordingComm,
    op: PlanOp,
    p: usize,
    n: usize,
) -> Result<RankProgram> {
    let specs = op.args(p, n);
    let args: Vec<(usize, usize, usize)> = rec
        .regions()
        .into_iter()
        .map(|rg| {
            let slot = specs
                .iter()
                .position(|s| s.name == rg.name)
                .expect("registered region matches an argument slot");
            (slot, rg.addr, rg.len)
        })
        .collect();
    let ops = rec.into_ops();
    Ok(resolve_rank(&ops, &args, std::mem::size_of::<T>()))
}

/// Resolves one rank's recorded spans into a [`RankProgram`].
fn resolve_rank(ops: &[OpRecord], args: &[(usize, usize, usize)], elem: usize) -> RankProgram {
    let arena = Arena::build(ops, args, elem);
    let mut steps = Vec::with_capacity(ops.len());
    let mut stage = StageId::default();
    // Each op's locations, in the order [`touched`] lists its spans.
    for (op, &[l0, l1]) in ops.iter().zip(&arena.locs) {
        let kind = match *op {
            OpRecord::Send { to, tag, .. } => {
                stage = stage_of(tag);
                StepKind::Send {
                    to,
                    tag_off: tag,
                    src: l0,
                }
            }
            OpRecord::Recv { from, tag, .. } => {
                stage = stage_of(tag);
                StepKind::Recv {
                    from,
                    tag_off: tag,
                    dst: l0,
                }
            }
            OpRecord::SendRecv {
                to,
                from,
                tag,
                rtag,
                ..
            } => {
                stage = stage_of(tag);
                StepKind::SendRecv {
                    to,
                    src: l0,
                    from,
                    dst: l1,
                    tag_off: tag,
                    rtag_off: rtag,
                }
            }
            OpRecord::Copy { .. } => StepKind::Copy { src: l0, dst: l1 },
            OpRecord::Reduce { .. } => StepKind::Reduce { other: l0, acc: l1 },
            OpRecord::Compute { bytes } => StepKind::Compute { bytes },
            OpRecord::CallOverhead => StepKind::CallOverhead,
        };
        steps.push(Step { kind, stage });
    }
    RankProgram {
        steps,
        scratch_bytes: arena.total_bytes,
    }
}

pub(super) fn stage_of(tag: Tag) -> StageId {
    StageId {
        level: tag / LEVEL_TAG_STRIDE,
        sub: tag % LEVEL_TAG_STRIDE,
    }
}

/// How an op touches one of its spans.
#[derive(Clone, Copy, PartialEq)]
enum Access {
    Read,
    Write,
    /// Read, then overwritten (a reduction's accumulator).
    Update,
}

/// The spans `op` touches, in a fixed order: what it reads before what
/// it writes.
fn touched(op: &OpRecord) -> [Option<(MemSpan, Access)>; 2] {
    match *op {
        OpRecord::Send { src, .. } => [Some((src, Access::Read)), None],
        OpRecord::Recv { dst, .. } => [Some((dst, Access::Write)), None],
        OpRecord::SendRecv { src, dst, .. } | OpRecord::Copy { src, dst } => {
            [Some((src, Access::Read)), Some((dst, Access::Write))]
        }
        OpRecord::Reduce { acc, other } => {
            [Some((other, Access::Read)), Some((acc, Access::Update))]
        }
        OpRecord::Compute { .. } | OpRecord::CallOverhead => [None, None],
    }
}

/// A group of temporary spans linked by data flow (see [`Arena`]).
struct Group {
    /// Address extent of the group's spans.
    start: usize,
    end: usize,
    /// Index of the first and last op touching the group.
    first_op: usize,
    last_op: usize,
    /// Arena offset of `start`.
    off: usize,
}

/// The scratch arena layout of one rank.
///
/// Temporary spans are grouped by data flow: a span that reads bytes
/// joins the group of the spans that last wrote them. Every group is a
/// region of one temporary allocation, so spans keep their relative
/// addresses within it. Groups are packed with aligned bases in the
/// order the op stream first touches them, each at the lowest offset
/// clear of the groups still live at its first op. Neither step looks
/// at where the allocator placed one temporary relative to another, so
/// the layout is a function of the op stream alone.
struct Arena {
    /// Per op, the locations of the spans [`touched`] lists.
    locs: Vec<[Loc; 2]>,
    total_bytes: usize,
}

impl Arena {
    fn build(ops: &[OpRecord], args: &[(usize, usize, usize)], elem: usize) -> Arena {
        const EMPTY: Loc = Loc {
            buf: Buf::Scratch,
            off: 0,
            len: 0,
        };
        let mut locs = vec![[EMPTY; 2]; ops.len()];
        // Temporary spans in touch order, as `(op, slot, span)`, with a
        // union-find forest over them.
        let mut temps: Vec<(usize, usize, MemSpan)> = Vec::new();
        let mut parent: Vec<usize> = Vec::new();
        fn root(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        // Disjoint byte ranges `start -> (end, temp)`: who wrote them last.
        let mut writer: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        let mut overlapping: Vec<(usize, usize, usize)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            for (slot, touch) in touched(op).into_iter().enumerate() {
                let Some((span, access)) = touch else {
                    continue;
                };
                if span.len == 0 {
                    // Canonical empty location: zero-length ring blocks
                    // from uneven partitions carry no data.
                    continue;
                }
                if let Some((arg, base)) = in_arg(&span, args) {
                    locs[i][slot] = Loc {
                        buf: Buf::Arg(arg),
                        off: span.addr - base,
                        len: span.len,
                    };
                    continue;
                }
                let id = temps.len();
                temps.push((i, slot, span));
                parent.push(id);
                let (start, end) = (span.addr, span.addr + span.len);
                overlapping.clear();
                overlapping.extend(
                    writer
                        .range(..end)
                        .rev()
                        .take_while(|(_, &(e, _))| e > start)
                        .map(|(&s, &(e, w))| (s, e, w)),
                );
                if access != Access::Write {
                    // Lowered algorithms write every temporary byte
                    // before reading it, which is what lets a group
                    // reuse a dead group's bytes below.
                    debug_assert_eq!(
                        overlapping
                            .iter()
                            .map(|&(s, e, _)| e.min(end) - s.max(start))
                            .sum::<usize>(),
                        span.len,
                        "temporary read before it was written"
                    );
                    for &(_, _, w) in &overlapping {
                        let (a, b) = (root(&mut parent, id), root(&mut parent, w));
                        parent[a.max(b)] = a.min(b);
                    }
                }
                if access != Access::Read {
                    for &(s, e, w) in &overlapping {
                        writer.remove(&s);
                        if s < start {
                            writer.insert(s, (start, w));
                        }
                        if e > end {
                            writer.insert(end, (e, w));
                        }
                    }
                    writer.insert(start, (end, id));
                }
            }
        }
        // Groups in first-touch order: union by smaller index keeps each
        // root its group's first-touched span, so ascending roots are
        // first-touch order. `group_of[root]` indexes `groups`.
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of = vec![usize::MAX; temps.len()];
        for (id, &(i, _, span)) in temps.iter().enumerate() {
            let r = root(&mut parent, id);
            if group_of[r] == usize::MAX {
                group_of[r] = groups.len();
                groups.push(Group {
                    start: span.addr,
                    end: span.addr,
                    first_op: i,
                    last_op: i,
                    off: 0,
                });
            }
            let g = &mut groups[group_of[r]];
            g.start = g.start.min(span.addr);
            g.end = g.end.max(span.addr + span.len);
            g.last_op = i;
        }
        // Pack in first-touch order, each group at the lowest offset
        // clear of the groups still live at its first op.
        let mut total = 0usize;
        let mut live: Vec<(usize, usize)> = Vec::new();
        for k in 0..groups.len() {
            let (len, first_op) = (groups[k].end - groups[k].start, groups[k].first_op);
            live.clear();
            live.extend(
                groups[..k]
                    .iter()
                    .filter(|g| g.last_op >= first_op)
                    .map(|g| (g.off, g.off + g.end - g.start)),
            );
            live.sort_unstable();
            let mut off = 0;
            for &(o, e) in &live {
                if off + len <= o {
                    break;
                }
                off = off.max(e.next_multiple_of(ARENA_ALIGN));
            }
            groups[k].off = off;
            total = total.max(off + len);
        }
        for (id, &(i, slot, span)) in temps.iter().enumerate() {
            let g = &groups[group_of[root(&mut parent, id)]];
            locs[i][slot] = Loc {
                buf: Buf::Scratch,
                off: g.off + (span.addr - g.start),
                len: span.len,
            };
        }
        for loc in locs.iter().flatten() {
            debug_assert!(
                loc.off % elem == 0 && loc.len % elem == 0,
                "span not element-aligned"
            );
        }
        Arena {
            locs,
            total_bytes: total,
        }
    }
}

/// `(slot, region base address)` if `span` lies wholly within a
/// registered argument region.
fn in_arg(span: &MemSpan, args: &[(usize, usize, usize)]) -> Option<(usize, usize)> {
    args.iter()
        .find(|(_, addr, len)| span.addr >= *addr && span.addr + span.len <= addr + len)
        .map(|(slot, addr, _)| (*slot, *addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{OptLevel, PlanCache, PlanKey};

    #[test]
    fn mst_broadcast_lowers_to_arg_only_steps() {
        let st = Strategy::pure_mst(8);
        let prog = lower(PlanOp::Broadcast { root: 0 }, Some(&st), 8, 64, 1).unwrap();
        assert_eq!(prog.p, 8);
        assert_eq!(prog.ranks.len(), 8);
        // A pure-MST broadcast needs no temporaries anywhere.
        for rp in &prog.ranks {
            assert_eq!(rp.scratch_bytes, 0);
            for s in &rp.steps {
                match s.kind {
                    StepKind::Send { src, .. } => assert_eq!(src.buf, Buf::Arg(0)),
                    StepKind::Recv { dst, .. } => assert_eq!(dst.buf, Buf::Arg(0)),
                    StepKind::CallOverhead => {}
                    ref other => panic!("unexpected step {other:?}"),
                }
            }
        }
        // Root sends ⌈log₂ 8⌉ = 3 times.
        let sends = prog.ranks[0]
            .steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Send { .. }))
            .count();
        assert_eq!(sends, 3);
    }

    #[test]
    fn reduce_lowering_allocates_scratch_and_is_op_agnostic() {
        let st = Strategy::pure_mst(4);
        let prog = lower(PlanOp::Reduce { root: 0 }, Some(&st), 4, 16, 8).unwrap();
        // The root folds received contributions out of a scratch buffer.
        let root = &prog.ranks[0];
        assert!(root.scratch_bytes >= 16 * 8);
        assert!(root
            .steps
            .iter()
            .any(|s| matches!(s.kind, StepKind::Reduce { .. })));
        // No ReduceOp appears anywhere in the IR: the ⊕ binds at
        // execution time.
    }

    #[test]
    fn stage_ids_follow_tag_discipline() {
        let st = Strategy::new(vec![3, 3], intercom_cost::StrategyKind::ScatterCollect);
        let prog = lower(PlanOp::AllReduce, Some(&st), 9, 18, 4).unwrap();
        let mut seen_level_1 = false;
        for rp in &prog.ranks {
            for s in &rp.steps {
                if let StepKind::SendRecv { tag_off, .. } = s.kind {
                    assert_eq!(s.stage.level, tag_off / LEVEL_TAG_STRIDE);
                    seen_level_1 |= s.stage.level == 1;
                }
            }
        }
        assert!(seen_level_1, "2-D hybrid must recurse one level down");
    }

    #[test]
    fn hier_lowering_bands_stages_and_keeps_arg_discipline() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let shape = ClusterShape::linear(3, 4);
        let hs = select_hier(
            CollectiveOp::CombineToAll,
            shape,
            64 * 8,
            &HierMachine::paragon_cluster(),
        )
        .unwrap();
        let prog = lower_hier(PlanOp::AllReduce, &hs, 64, 8).unwrap();
        assert_eq!(prog.p, 12);
        assert_eq!(prog.hier.as_ref(), Some(&hs));
        assert!(prog.strategy.is_none());
        // Stage k's steps sit in StageId level band [k·128, (k+1)·128):
        // hier stage tags stride 1024 and stage levels stride by 8.
        let band = crate::hier::HIER_STAGE_STRIDE / LEVEL_TAG_STRIDE;
        let mut bands = std::collections::BTreeSet::new();
        for rp in &prog.ranks {
            for s in &rp.steps {
                if let StepKind::Send { tag_off, .. }
                | StepKind::Recv { tag_off, .. }
                | StepKind::SendRecv { tag_off, .. } = s.kind
                {
                    assert_eq!(s.stage.level, tag_off / LEVEL_TAG_STRIDE);
                    bands.insert(s.stage.level / band);
                }
            }
        }
        assert_eq!(
            bands.into_iter().collect::<Vec<_>>(),
            vec![0, 1, 2],
            "reduce, allreduce and bcast stages all present"
        );
    }

    #[test]
    fn hier_lowering_rejects_non_hierarchical_ops() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let shape = ClusterShape::linear(2, 2);
        let hs = select_hier(
            CollectiveOp::Broadcast,
            shape,
            64,
            &HierMachine::paragon_cluster(),
        )
        .unwrap();
        assert!(lower_hier(PlanOp::Alltoall, &hs, 8, 4).is_err());
        assert!(lower_hier(PlanOp::Scatter { root: 0 }, &hs, 8, 4).is_err());
    }

    #[test]
    fn empty_vector_programs_still_schedule_messages() {
        let st = Strategy::pure_mst(3);
        let prog = lower(PlanOp::AllReduce, Some(&st), 3, 0, 8).unwrap();
        assert!(prog.comm_steps() > 0, "barrier-style allreduce still syncs");
        for rp in &prog.ranks {
            assert_eq!(rp.scratch_bytes, 0);
        }
    }

    /// A spread of flat and hierarchical keys whose lowerings use
    /// temporaries: every strategy-taking op under MST, SC and 2-D
    /// hybrids at uneven lengths, plus hierarchical programs.
    fn layout_keys() -> Vec<PlanKey> {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine, StrategyKind};
        let mut keys = Vec::new();
        let ops = [
            PlanOp::Broadcast { root: 1 },
            PlanOp::Reduce { root: 2 },
            PlanOp::AllReduce,
            PlanOp::ReduceScatter,
            PlanOp::Collect,
        ];
        for (p, dims) in [(6, vec![2, 3]), (8, vec![2, 2, 2]), (9, vec![3, 3])] {
            for kind in [StrategyKind::Mst, StrategyKind::ScatterCollect] {
                for st in [
                    Strategy::new(vec![p], kind),
                    Strategy::new(dims.clone(), kind),
                ] {
                    for op in ops {
                        for (n, elem_size) in [(5, 8), (37, 4), (1000, 1)] {
                            for opt in [OptLevel::None, OptLevel::Full] {
                                keys.push(PlanKey {
                                    op,
                                    p,
                                    n,
                                    elem_size,
                                    strategy: Some(st.clone()),
                                    hier: None,
                                    opt,
                                });
                            }
                        }
                    }
                }
            }
        }
        let shape = ClusterShape::linear(3, 4);
        for (op, cost_op) in [
            (PlanOp::AllReduce, CollectiveOp::CombineToAll),
            (PlanOp::Collect, CollectiveOp::Collect),
            (PlanOp::ReduceScatter, CollectiveOp::DistributedCombine),
        ] {
            for n in [6, 300] {
                let hs = select_hier(cost_op, shape, n * 8, &HierMachine::paragon_cluster());
                keys.push(PlanKey {
                    op,
                    p: shape.ranks(),
                    n,
                    elem_size: 8,
                    strategy: None,
                    hier: hs,
                    opt: OptLevel::Full,
                });
            }
        }
        keys
    }

    fn compile(key: &PlanKey) -> CollectiveProgram {
        let prog = PlanCache::new().get_or_compile(key).unwrap();
        CollectiveProgram {
            plan_id: 0,
            ..(*prog).clone()
        }
    }

    #[test]
    fn layout_is_a_function_of_the_key() {
        let keys = layout_keys();
        let first: Vec<CollectiveProgram> = keys.iter().map(compile).collect();
        // Perturb the heap: live blocks of assorted sizes with holes
        // between them, so the second lowering's temporaries land at
        // other addresses in another order.
        let mut held: Vec<Vec<u8>> = (1..400)
            .map(|i| vec![i as u8; (i * 37) % 3000 + 1])
            .collect();
        let mut i = 0;
        held.retain(|_| {
            i += 1;
            i % 3 != 0
        });
        for (key, want) in keys.iter().zip(&first) {
            assert_eq!(&compile(key), want, "relowering {key:?} changed its layout");
        }
        drop(held);
        let other = std::thread::scope(|s| {
            s.spawn(|| keys.iter().map(compile).collect::<Vec<_>>())
                .join()
                .unwrap()
        });
        for ((key, want), got) in keys.iter().zip(&first).zip(&other) {
            assert_eq!(
                got, want,
                "lowering {key:?} on another thread changed its layout"
            );
        }
    }
}
