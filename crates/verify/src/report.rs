//! The verification driver: extract → match → check → verdict.

use crate::checks::{
    analyze_links, check_buffer_safety, check_program_aliasing, check_single_port, Violation,
};
use crate::extract::extract_programs;
use crate::schedule::match_programs;
use intercom::hier::HIER_STAGE_STRIDE;
use intercom::ir::PlanOp;
use intercom::trace::OpRecord;
use intercom::Result;
use intercom_cost::{ConflictModel, HierStrategy, StageRole, Strategy};
use intercom_topology::{Cluster, Mesh2D};
use std::fmt;

/// Where the verified per-rank programs came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The compiled schedule IR ([`crate::ir::ir_programs`]): the audit
    /// proves properties of the artifact the runtime actually executes.
    Ir,
    /// The *optimized* schedule IR ([`crate::ir::ir_opt_programs`]):
    /// the same compiled artifact after the
    /// [`intercom::ir::optimize`] pass pipeline. Every rewrite the
    /// optimizer performs is re-proven against the same four
    /// invariants as the unoptimized program.
    IrOpt,
    /// Trace extraction against a recording backend
    /// ([`crate::extract::extract_programs`]): an independent
    /// cross-check on the lowering.
    Trace,
    /// The compiled **hierarchical** schedule IR
    /// ([`crate::ir::hier_ir_programs`]): a level-tagged composition
    /// verified over the cluster's physical mesh embedding.
    Hier,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Source::Ir => "ir",
            Source::IrOpt => "ir-opt",
            Source::Trace => "trace",
            Source::Hier => "hier",
        })
    }
}

/// Observed vs. cost-model-predicted link sharing for one recursion
/// level of a hybrid strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelConflict {
    /// Recursion level (`tag / LEVEL_TAG_STRIDE` = logical dim index).
    pub level: u64,
    /// Maximum same-step per-link sharing within any single stage (tag)
    /// of this level.
    pub observed: usize,
    /// `⌈conflict_factor⌉` for the level's dimension (§6).
    pub predicted: usize,
}

/// The result of verifying one collective call on one machine shape.
#[derive(Debug, Clone)]
pub struct Report {
    /// Display form of the verified collective.
    pub op: String,
    /// The hybrid strategy, for strategy collectives.
    pub strategy: Option<Strategy>,
    /// The hierarchical strategy, for cluster collectives
    /// ([`verify_schedule_hier`]).
    pub hier: Option<HierStrategy>,
    /// Physical mesh shape `(rows, cols)`.
    pub mesh: (usize, usize),
    /// Size parameter passed to the collective (see
    /// [`PlanOp`] for its unit).
    pub n: usize,
    /// Where the verified programs came from.
    pub source: Source,
    /// Synchronous steps in the matched schedule (0 when matching failed).
    pub steps: usize,
    /// Matched transfers in the schedule.
    pub event_count: usize,
    /// Maximum same-step sharing of any directed link.
    pub max_link_sharing: usize,
    /// Per-level observed vs. predicted sharing (strategy collectives).
    pub levels: Vec<LevelConflict>,
    /// Whether no two same-step messages ever shared a directed link
    /// (the §4 sense of "conflict-free"). Hybrids with a cost-model
    /// conflict factor above 1 may be valid without being conflict-free.
    pub conflict_free: bool,
    /// Every violated invariant; empty means the schedule is proven.
    pub violations: Vec<Violation>,
}

impl Report {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}x{} mesh, n={} [{}]",
            self.op, self.mesh.0, self.mesh.1, self.n, self.source
        )?;
        if let Some(st) = &self.strategy {
            write!(f, ", strategy {st}")?;
        }
        if let Some(hs) = &self.hier {
            write!(f, ", hier {hs}")?;
        }
        write!(
            f,
            ": {} steps, {} events, max link sharing {}{}",
            self.steps,
            self.event_count,
            self.max_link_sharing,
            if self.conflict_free {
                " (conflict-free)"
            } else {
                ""
            }
        )?;
        if self.violations.is_empty() {
            write!(f, " — OK")
        } else {
            for v in &self.violations {
                write!(f, "\n  VIOLATION: {v}")?;
            }
            Ok(())
        }
    }
}

/// Verifies one collective call statically from its **compiled
/// schedule IR**: lowers the call to a
/// [`CollectiveProgram`](intercom::ir::CollectiveProgram) — the very
/// artifact persistent plans execute — and checks the four invariants
/// on it. This is the audit's default path.
///
/// `Err` is returned only when the *lowering* itself fails (the
/// algorithm rejected its arguments); invariant failures land in
/// [`Report::violations`].
pub fn verify_schedule_ir(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    mesh: &Mesh2D,
    n: usize,
) -> Result<Report> {
    let programs = crate::ir::ir_programs(op, strategy, mesh.nodes(), n)?;
    Ok(verify_programs(
        op,
        strategy,
        mesh,
        n,
        &programs,
        Source::Ir,
    ))
}

/// Verifies one collective call statically from its **optimized
/// schedule IR**: lowers, runs the full
/// [`intercom::ir::optimize`] pass pipeline, and checks the four
/// invariants on the rewritten program. Returns the optimizer's
/// per-pass rewrite counts alongside the report so callers (the
/// audit) can aggregate how much work the pipeline actually did.
///
/// `Err` is returned only when the *lowering* itself fails; invariant
/// failures land in [`Report::violations`].
pub fn verify_schedule_ir_opt(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    mesh: &Mesh2D,
    n: usize,
) -> Result<(Report, intercom::ir::OptStats)> {
    let (programs, stats) = crate::ir::ir_opt_programs(op, strategy, mesh.nodes(), n)?;
    Ok((
        verify_programs(op, strategy, mesh, n, &programs, Source::IrOpt),
        stats,
    ))
}

/// Verifies one collective call statically from a **trace extraction**:
/// replays every rank's algorithm against a recording backend, matches
/// the records into a synchronous schedule, and checks
/// deadlock-freedom, single-port compliance, buffer-region safety and
/// link-conflict-freedom on the physical `mesh`. World rank `r` is
/// placed on mesh node `r` (row-major), matching
/// `runtime::Communicator::world_on_mesh`.
///
/// `Err` is returned only when the *extraction* itself fails (the
/// algorithm rejected its arguments); invariant failures land in
/// [`Report::violations`].
pub fn verify_schedule(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    mesh: &Mesh2D,
    n: usize,
) -> Result<Report> {
    let programs = extract_programs(op, strategy, mesh.nodes(), n)?;
    Ok(verify_programs(
        op,
        strategy,
        mesh,
        n,
        &programs,
        Source::Trace,
    ))
}

/// Verifies one **hierarchical** collective call statically from its
/// compiled schedule IR: lowers the stage-coordinated composition
/// ([`intercom::ir::lower_hier`]), places every global rank on the
/// physical node the cluster embedding assigns it, and checks the same
/// four invariants as the flat audit over the cluster's physical mesh.
///
/// Link conflicts are gated **per stage**: every hierarchical stage
/// occupies its own tag band ([`HIER_STAGE_STRIDE`]), and the sharing
/// among one band's same-level messages is bounded by *that stage's*
/// flat strategy's §6 conflict profile. Strategy-free stages (the
/// laminar gather/scatter legs) must be conflict-free. Sharing between
/// different stages or bands is pipeline skew — reported via
/// `max_link_sharing`/`conflict_free` but not a violation, exactly as
/// in the flat pipeline.
///
/// `Err` is returned only when the *lowering* itself fails (the op has
/// no hierarchical template, or the strategy failed validation);
/// invariant failures land in [`Report::violations`].
pub fn verify_schedule_hier(op: &PlanOp, hs: &HierStrategy, n: usize) -> Result<Report> {
    let programs = crate::ir::hier_ir_programs(op, hs, n)?;
    let cluster = Cluster::new(
        Mesh2D::new(hs.shape.inter_rows, hs.shape.inter_cols),
        hs.shape.ranks_per_node,
    );
    let phys = cluster.phys_mesh();
    let mut report = Report {
        op: op.to_string(),
        strategy: None,
        hier: Some(hs.clone()),
        mesh: (phys.rows(), phys.cols()),
        n,
        source: Source::Hier,
        steps: 0,
        event_count: 0,
        max_link_sharing: 0,
        levels: Vec::new(),
        conflict_free: false,
        violations: check_program_aliasing(&programs),
    };
    let schedule = match match_programs(&programs) {
        Ok(s) => s,
        Err(v) => {
            report.violations.push(v);
            return Ok(report);
        }
    };
    report.steps = schedule.steps;
    report.event_count = schedule.events.len();
    report.violations.extend(check_single_port(&schedule));
    report.violations.extend(check_buffer_safety(&schedule));

    // Node-major placement: global rank `node·rpn + local` lives on the
    // physical node the cluster embedding assigns it — not on row-major
    // node `rank` — so remap every endpoint before routing.
    let mut placed = schedule.clone();
    for e in &mut placed.events {
        e.src = cluster.phys_node(e.src);
        e.dst = cluster.phys_node(e.dst);
    }
    let la = analyze_links(&placed, &phys);
    report.max_link_sharing = la.max_sharing;
    report.conflict_free = la.max_sharing <= 1;

    // Tag = stage · HIER_STAGE_STRIDE + inner, where `inner` encodes the
    // stage strategy's own recursion levels. Stage subgroups embed with
    // their structure intact — an intra-node column segment and a
    // linear-inter leader plane are physical lines (LinearArray
    // profile); on a 2-D inter mesh the plane preserves the rows/cols
    // structure and selection picks mesh-mapped strategies, gated by
    // the MeshRowsCols profile, exactly as the flat audit gates them.
    let profiles: Vec<Option<Vec<f64>>> = hs
        .stages
        .iter()
        .map(|stage| match stage.role {
            StageRole::Gather | StageRole::Scatter => None,
            _ => {
                let model = if stage.strategy.mesh_split.is_some() {
                    ConflictModel::MeshRowsCols
                } else {
                    ConflictModel::LinearArray
                };
                Some(stage.strategy.conflict_profile(model, 1.0))
            }
        })
        .collect();
    let mut by_level: std::collections::BTreeMap<u64, LevelConflict> =
        std::collections::BTreeMap::new();
    for (&tag, &observed) in &la.per_tag_max {
        let stage_idx = (tag / HIER_STAGE_STRIDE) as usize;
        let inner = ((tag % HIER_STAGE_STRIDE) / intercom::algorithms::LEVEL_TAG_STRIDE) as usize;
        let predicted = match profiles.get(stage_idx) {
            Some(Some(profile)) => profile.get(inner).copied().unwrap_or(1.0).ceil() as usize,
            _ => 1,
        };
        let level = tag / intercom::algorithms::LEVEL_TAG_STRIDE;
        let lc = by_level.entry(level).or_insert(LevelConflict {
            level,
            observed: 0,
            predicted,
        });
        lc.observed = lc.observed.max(observed);
        if observed > predicted {
            report.violations.push(Violation::ConflictFactorExceeded {
                level,
                observed,
                predicted,
            });
        }
    }
    report.levels.extend(by_level.into_values());
    Ok(report)
}

/// The shared checking pipeline: match per-rank symbolic programs into
/// a synchronous schedule and run every invariant against the physical
/// `mesh`, regardless of whether the programs came from the compiled IR
/// or a trace.
pub fn verify_programs(
    op: &PlanOp,
    strategy: Option<&Strategy>,
    mesh: &Mesh2D,
    n: usize,
    programs: &[Vec<OpRecord>],
    source: Source,
) -> Report {
    let p = mesh.nodes();
    let mut report = Report {
        op: op.to_string(),
        strategy: strategy.cloned(),
        hier: None,
        mesh: (mesh.rows(), mesh.cols()),
        n,
        source,
        steps: 0,
        event_count: 0,
        max_link_sharing: 0,
        levels: Vec::new(),
        conflict_free: false,
        violations: check_program_aliasing(programs),
    };
    let schedule = match match_programs(programs) {
        Ok(s) => s,
        Err(v) => {
            report.violations.push(v);
            return report;
        }
    };
    report.steps = schedule.steps;
    report.event_count = schedule.events.len();
    report.violations.extend(check_single_port(&schedule));
    report.violations.extend(check_buffer_safety(&schedule));

    let la = analyze_links(&schedule, mesh);
    report.max_link_sharing = la.max_sharing;
    report.conflict_free = la.max_sharing <= 1;

    if op.takes_strategy() {
        let st = strategy.expect("strategy collectives are extracted with a strategy");
        // §6: the conflict factor bounds how many same-stage messages
        // interleave over one link. Mesh-mapped strategies use the
        // rows/columns model (§7.1); linear-array strategies the generic
        // stride model. `link_excess = 1` — one message per link per
        // direction, the Delta/Paragon assumption of §2.
        let model = if st.mesh_split.is_some() {
            ConflictModel::MeshRowsCols
        } else {
            ConflictModel::LinearArray
        };
        let profile = st.conflict_profile(model, 1.0);
        // Gate per *stage* (per tag): the §6 formulas account each
        // stage's β term separately, so its conflict factor bounds the
        // sharing among that stage's own messages. Sharing *between*
        // stages — a scatter tail overlapping a collect head when
        // blocking ranks drift apart (e.g. `(9, SC)` broadcast on a 3×3
        // mesh) — is transient pipeline skew inherent to blocking
        // execution, reported via `max_link_sharing`/`conflict_free`
        // but not a violation.
        let mut by_level: std::collections::BTreeMap<u64, LevelConflict> =
            std::collections::BTreeMap::new();
        for (&tag, &observed) in &la.per_tag_max {
            let level = tag / intercom::algorithms::LEVEL_TAG_STRIDE;
            let predicted = profile.get(level as usize).copied().unwrap_or(1.0).ceil() as usize;
            let lc = by_level.entry(level).or_insert(LevelConflict {
                level,
                observed: 0,
                predicted,
            });
            lc.observed = lc.observed.max(observed);
            if observed > predicted {
                report.violations.push(Violation::ConflictFactorExceeded {
                    level,
                    observed,
                    predicted,
                });
            }
        }
        report.levels.extend(by_level.into_values());
    } else {
        // Strategy-free collectives: scatter/gather (laminar MST) and
        // the pipelined ring broadcast are conflict-free primitives
        // (§4); the total exchange is an extension with inherent
        // sharing, bounded by p-1 messages crossing one link.
        let bound = match op {
            PlanOp::Alltoall => p.saturating_sub(1).max(1),
            _ => 1,
        };
        if la.max_sharing > bound {
            let (step, link, sharing) = la.worst.expect("sharing > 1 implies a worst link");
            report.violations.push(Violation::LinkConflict {
                step,
                link,
                sharing,
                bound,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use intercom_cost::StrategyKind;

    #[test]
    fn mst_broadcast_on_row_verifies_conflict_free() {
        let mesh = Mesh2D::new(1, 8);
        let st = Strategy::pure_mst(8);
        let r = verify_schedule(&PlanOp::Broadcast { root: 0 }, Some(&st), &mesh, 64).unwrap();
        assert!(r.ok(), "unexpected violations: {r}");
        assert!(r.conflict_free);
    }

    #[test]
    fn ring_collect_on_mesh_verifies_conflict_free() {
        let mesh = Mesh2D::new(3, 4);
        let st = Strategy::pure_long(12);
        let r = verify_schedule(&PlanOp::Collect, Some(&st), &mesh, 8).unwrap();
        assert!(r.ok(), "unexpected violations: {r}");
        assert!(r.conflict_free);
    }

    #[test]
    fn hybrid_allreduce_verifies() {
        let mesh = Mesh2D::new(1, 12);
        let st = Strategy::new(vec![3, 4], StrategyKind::Mst);
        let r = verify_schedule(&PlanOp::AllReduce, Some(&st), &mesh, 24).unwrap();
        assert!(r.ok(), "unexpected violations: {r}");
    }

    #[test]
    fn alltoall_verifies_within_bound() {
        let mesh = Mesh2D::new(2, 3);
        let r = verify_schedule(&PlanOp::Alltoall, None, &mesh, 4).unwrap();
        assert!(r.ok(), "unexpected violations: {r}");
    }

    #[test]
    fn sc_broadcast_phase_skew_is_not_a_violation() {
        // (9, SC) broadcast from the far corner of a 3×3 mesh: ranks
        // whose MST-scatter interval collapses early enter the ring
        // collect while others still scatter, and the two stages briefly
        // share link 1→W. Every stage stays within its own conflict
        // bound (observed == predicted == 1 per stage), so the schedule
        // verifies — but it is honestly reported as not conflict-free.
        let mesh = Mesh2D::new(3, 3);
        let st = Strategy::pure_long(9);
        let r = verify_schedule(&PlanOp::Broadcast { root: 8 }, Some(&st), &mesh, 947).unwrap();
        assert!(r.ok(), "cross-stage skew must not be a violation: {r}");
        assert!(!r.conflict_free, "skew sharing must still be reported");
        assert_eq!(r.max_link_sharing, 2);
        assert!(r.levels.iter().all(|l| l.observed <= l.predicted));
    }

    #[test]
    fn ir_source_verifies_and_matches_trace_verdict() {
        // The same call checked from both sources must agree on every
        // verdict-relevant quantity — including the subtle 3×3 skew
        // case where the schedule is valid but not conflict-free.
        let mesh = Mesh2D::new(3, 3);
        let st = Strategy::pure_long(9);
        let op = PlanOp::Broadcast { root: 8 };
        let ir = verify_schedule_ir(&op, Some(&st), &mesh, 947).unwrap();
        let tr = verify_schedule(&op, Some(&st), &mesh, 947).unwrap();
        assert_eq!(ir.source, Source::Ir);
        assert_eq!(tr.source, Source::Trace);
        assert!(ir.ok(), "unexpected violations: {ir}");
        assert_eq!(ir.steps, tr.steps);
        assert_eq!(ir.event_count, tr.event_count);
        assert_eq!(ir.max_link_sharing, tr.max_link_sharing);
        assert_eq!(ir.conflict_free, tr.conflict_free);
        assert_eq!(ir.levels, tr.levels);
    }

    #[test]
    fn ir_source_verifies_strategy_free_ops() {
        let mesh = Mesh2D::new(2, 3);
        for op in [
            PlanOp::Scatter { root: 0 },
            PlanOp::Gather { root: 5 },
            PlanOp::Alltoall,
            PlanOp::PipelinedBcast {
                root: 0,
                segments: 4,
            },
        ] {
            let r = verify_schedule_ir(&op, None, &mesh, 13).unwrap();
            assert!(r.ok(), "unexpected violations: {r}");
        }
    }

    #[test]
    fn hier_collectives_verify_over_cluster_shapes() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let m = HierMachine::paragon_cluster();
        for shape in [
            ClusterShape::linear(4, 4),
            ClusterShape {
                inter_rows: 2,
                inter_cols: 2,
                ranks_per_node: 4,
            },
            ClusterShape::linear(8, 2),
        ] {
            for (op, cost_op) in [
                (
                    PlanOp::Broadcast {
                        root: shape.ranks() - 1,
                    },
                    CollectiveOp::Broadcast,
                ),
                (PlanOp::AllReduce, CollectiveOp::CombineToAll),
                (PlanOp::Collect, CollectiveOp::Collect),
            ] {
                let hs = select_hier(cost_op, shape, 4096, &m).unwrap();
                let r = verify_schedule_hier(&op, &hs, 64).unwrap();
                assert_eq!(r.source, Source::Hier);
                assert!(r.ok(), "unexpected violations: {r}");
                assert!(r.event_count > 0);
                // Every stage band's sharing stayed within its own bound.
                assert!(r.levels.iter().all(|l| l.observed <= l.predicted));
            }
        }
    }

    #[test]
    fn hier_report_names_the_hierarchy() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let shape = ClusterShape::linear(2, 3);
        let hs = select_hier(
            CollectiveOp::CombineToAll,
            shape,
            1024,
            &HierMachine::delta_cluster(),
        )
        .unwrap();
        let r = verify_schedule_hier(&PlanOp::AllReduce, &hs, 16).unwrap();
        assert!(r.ok(), "unexpected violations: {r}");
        let s = r.to_string();
        assert!(s.contains("[hier]"), "{s}");
        assert!(s.contains("@1x2x3"), "{s}");
        // The cluster's physical embedding is a (rpn·rows)×cols mesh.
        assert_eq!(r.mesh, (3, 2));
    }

    #[test]
    fn hier_rejects_an_invalid_strategy_at_lowering() {
        use intercom_cost::{select_hier, ClusterShape, CollectiveOp, HierMachine};
        let hs = select_hier(
            CollectiveOp::Broadcast,
            ClusterShape::linear(2, 2),
            64,
            &HierMachine::paragon_cluster(),
        )
        .unwrap();
        // A broadcast strategy replayed as an allreduce disagrees with
        // the op's template: the error surfaces as Err, not a violation.
        assert!(verify_schedule_hier(&PlanOp::AllReduce, &hs, 16).is_err());
    }

    #[test]
    fn extraction_error_propagates() {
        // A strategy for the wrong node count is an argument error, not a
        // schedule violation.
        let mesh = Mesh2D::new(1, 6);
        let st = Strategy::pure_mst(5);
        assert!(verify_schedule(&PlanOp::AllReduce, Some(&st), &mesh, 8).is_err());
    }
}
