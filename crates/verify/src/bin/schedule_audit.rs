//! `schedule-audit` — the CI gate that statically verifies every
//! collective schedule the library can produce.
//!
//! Sweeps all seven collectives (plus the total-exchange and pipelined
//! extensions) × every enumerable strategy × a battery of node counts
//! (`1..=17`, `24`, `31`, `32`) × every mesh factorization of each
//! count, at degenerate, tiny and awkward (prime) message sizes. Every
//! combination must verify with zero violations: deadlock-free,
//! single-port compliant, buffer-safe, and link-conflict-free within
//! the §6 cost-model bounds.
//!
//! By default the sweep checks the **compiled schedule IR** — the very
//! step lists persistent plans execute (`--source=ir`) — *and* repeats
//! the full sweep on the **optimized IR** (`ir-opt`), proving that
//! every rewrite the [`intercom::ir::optimize`] pass pipeline performs
//! preserves all four invariants. Pass `--source=ir-opt` or
//! `--source=trace` to run a single sweep from that source instead.
//! When auditing the IR, a trace-sourced sweep over a subset of node
//! counts runs as an independent cross-check on the lowering.
//!
//! The sweep is sharded across worker threads over a shared worklist
//! of `(node count, mesh shape)` units, so auditing both the plain and
//! the optimized IR (~2× the schedule space) keeps a flat wall-time.
//!
//! The default run also sweeps a **multi-tenant scenario matrix**
//! through the concurrent analyzer (`--source=concurrent` runs only
//! it): disjoint rows/columns, rows *and* columns together,
//! overlapping submeshes, fully-overlapping distinct-tag-space
//! tenants, and interleaved groups sharing physical links — every
//! legitimate workload must prove non-interfering, and the composite
//! per-link contention is reported for the cost model.
//!
//! The default run also sweeps **hierarchical cluster schedules**
//! (`--source=hier` runs the full shape battery): every hierarchical
//! collective × candidate per-level strategy × size over a battery of
//! cluster shapes, each verified over the cluster's physical mesh
//! embedding with per-stage conflict gating.
//!
//! The audit then runs the *mutation probes* — deliberately broken
//! schedules and workloads (including colliding tag bases, shared
//! memory windows, a cross-tenant wait cycle and a duplicate-node
//! embedding) — and fails unless each probe is caught, guarding the
//! checkers themselves against silent rot.

use intercom::algorithms::LEVEL_TAG_STRIDE;
use intercom::groups::{col_members, row_members, submesh_members};
use intercom::ir::{OptStats, PlanOp};
use intercom::trace::{MemSpan, OpRecord};
use intercom::CommError;
use intercom_cost::{
    enumerate_hier_strategies, enumerate_mesh_strategies, enumerate_strategies, select_hier,
    ClusterShape, CollectiveOp, HierMachine, HierStrategy, Strategy,
};
use intercom_topology::Mesh2D;
use intercom_verify::{
    analyze_links, chaos_sweep, check_buffer_safety, check_single_port, extract_programs,
    hang_probe, hier_ir_programs, match_programs, stall_probe, tenant_tag_base, verify_concurrent,
    verify_schedule, verify_schedule_hier, verify_schedule_ir, verify_schedule_ir_opt, ChaosReport,
    ConcurrentViolation, Event, HangDiagnosis, Schedule, Source, Tenant, Violation, Workload,
};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Node counts: every size through 17 (covers all small parities and
/// primes), a composite with many factorizations, a large prime, and a
/// power of two.
const NODE_COUNTS: [usize; 20] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 31, 32,
];

/// Sizes for total-vector collectives: empty, single byte, and a prime
/// that divides into nothing evenly.
const VECTOR_SIZES: [usize; 3] = [0, 1, 947];

/// Sizes for per-block collectives (already multiplied by `p` inside).
const BLOCK_SIZES: [usize; 3] = [0, 1, 13];

/// Node counts of the trace-sourced cross-check sweep when the main
/// audit runs on the IR: composite sizes with hybrid-rich strategy
/// menus plus a prime, kept small so CI stays fast.
const CROSSCHECK_NODE_COUNTS: [usize; 3] = [8, 9, 12];

/// Summed [`OptStats`] across every `ir-opt` verification of a sweep:
/// how much work each optimizer pass actually did over the full
/// schedule space. `reverts` counts programs whose rewrite failed the
/// internal re-proof and fell back to the original (expected zero).
#[derive(Debug, Clone, Copy, Default)]
struct OptTotals {
    elided: usize,
    fused: usize,
    overlapped: usize,
    coalesced: usize,
    dead_copies: usize,
    reverts: usize,
}

impl OptTotals {
    fn add(&mut self, s: &OptStats) {
        self.elided += s.elided;
        self.fused += s.fused;
        self.overlapped += s.overlapped;
        self.coalesced += s.coalesced;
        self.dead_copies += s.dead_copies;
        self.reverts += usize::from(s.reverted);
    }

    fn merge(&mut self, o: &OptTotals) {
        self.elided += o.elided;
        self.fused += o.fused;
        self.overlapped += o.overlapped;
        self.coalesced += o.coalesced;
        self.dead_copies += o.dead_copies;
        self.reverts += o.reverts;
    }

    fn total(&self) -> usize {
        self.elided + self.fused + self.overlapped + self.coalesced + self.dead_copies
    }
}

struct Stats {
    source: Source,
    checks: usize,
    failures: Vec<String>,
    /// `(p, schedules verified at that node count)`, in sweep order.
    per_p: Vec<(usize, usize)>,
    /// Per-pass rewrite totals; all-zero unless `source` is `IrOpt`.
    opt: OptTotals,
    /// Worker threads the sweep was sharded over.
    threads: usize,
}

fn run(stats: &mut Stats, mesh: &Mesh2D, op: PlanOp, st: Option<&Strategy>, n: usize) {
    stats.checks += 1;
    let result = match stats.source {
        Source::Ir => verify_schedule_ir(&op, st, mesh, n),
        Source::IrOpt => verify_schedule_ir_opt(&op, st, mesh, n).map(|(rep, os)| {
            stats.opt.add(&os);
            rep
        }),
        Source::Trace => verify_schedule(&op, st, mesh, n),
        // Hierarchical schedules sweep through `hier_sweep`, never here.
        Source::Hier => unreachable!("hier programs are audited by hier_sweep"),
    };
    match result {
        Ok(rep) => {
            if !rep.ok() {
                stats.failures.push(rep.to_string());
            }
        }
        Err(e) => {
            let s = st.map(|s| format!(" strategy {s}")).unwrap_or_default();
            stats.failures.push(format!(
                "{op} on {}x{} n={n}{s} [{}]: extraction error: {e}",
                mesh.rows(),
                mesh.cols(),
                stats.source,
            ));
        }
    }
}

fn shapes(p: usize) -> Vec<(usize, usize)> {
    (1..=p)
        .filter(|&r| p.is_multiple_of(r))
        .map(|r| (r, p / r))
        .collect()
}

fn roots(p: usize) -> Vec<usize> {
    if p == 1 {
        vec![0]
    } else {
        vec![0, p - 1]
    }
}

/// Audits every collective × strategy × size on one mesh shape — the
/// unit of work the sharded sweep distributes across threads.
fn audit_shape(stats: &mut Stats, p: usize, r: usize, c: usize) {
    let mesh = Mesh2D::new(r, c);
    // A 1×c machine is a linear array: every ordered
    // factorization is a valid logical mesh. A true 2-D machine
    // uses the §7.1 mesh-aware strategies (plus the row-major
    // linear fallbacks they include).
    let strategies = if r == 1 {
        enumerate_strategies(p, 0)
    } else {
        enumerate_mesh_strategies(r, c, 0)
    };
    for st in &strategies {
        for n in VECTOR_SIZES {
            for root in roots(p) {
                run(stats, &mesh, PlanOp::Broadcast { root }, Some(st), n);
                run(stats, &mesh, PlanOp::Reduce { root }, Some(st), n);
            }
            run(stats, &mesh, PlanOp::AllReduce, Some(st), n);
        }
        for n in BLOCK_SIZES {
            run(stats, &mesh, PlanOp::ReduceScatter, Some(st), n);
            run(stats, &mesh, PlanOp::Collect, Some(st), n);
        }
    }
    for n in BLOCK_SIZES {
        for root in roots(p) {
            run(stats, &mesh, PlanOp::Scatter { root }, None, n);
            run(stats, &mesh, PlanOp::Gather { root }, None, n);
        }
        run(stats, &mesh, PlanOp::Alltoall, None, n);
    }
    for n in VECTOR_SIZES {
        for root in roots(p) {
            for segments in [1, 4] {
                run(
                    stats,
                    &mesh,
                    PlanOp::PipelinedBcast { root, segments },
                    None,
                    n,
                );
            }
        }
    }
}

fn audit(quiet: bool, source: Source, node_counts: &[usize]) -> Stats {
    // Worklist of (p, rows, cols) units; workers claim the next index
    // from a shared cursor, so a thread finishing a cheap shape
    // immediately picks up more work (no static partitioning skew).
    let units: Vec<(usize, usize, usize)> = node_counts
        .iter()
        .flat_map(|&p| shapes(p).into_iter().map(move |(r, c)| (p, r, c)))
        .collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(units.len().max(1));
    let cursor = AtomicUsize::new(0);
    // Per-unit fragments, indexed by worklist position so the merged
    // per-p totals are deterministic regardless of claim order.
    let fragments: Vec<std::sync::Mutex<Option<Stats>>> =
        units.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(p, r, c)) = units.get(i) else {
                    break;
                };
                let mut local = Stats {
                    source,
                    checks: 0,
                    failures: Vec::new(),
                    per_p: Vec::new(),
                    opt: OptTotals::default(),
                    threads,
                };
                audit_shape(&mut local, p, r, c);
                *fragments[i].lock().unwrap() = Some(local);
            });
        }
    });

    let mut stats = Stats {
        source,
        checks: 0,
        failures: Vec::new(),
        per_p: Vec::new(),
        opt: OptTotals::default(),
        threads,
    };
    for &p in node_counts {
        let before = stats.checks;
        for (i, &(up, _, _)) in units.iter().enumerate() {
            if up != p {
                continue;
            }
            let frag = fragments[i]
                .lock()
                .unwrap()
                .take()
                .expect("every unit was audited");
            stats.checks += frag.checks;
            stats.failures.extend(frag.failures);
            stats.opt.merge(&frag.opt);
        }
        stats.per_p.push((p, stats.checks - before));
        if !quiet {
            println!(
                "p={p} [{}]: {} schedules verified{}",
                source,
                stats.checks - before,
                if stats.failures.is_empty() {
                    ""
                } else {
                    " (failures pending)"
                }
            );
        }
    }
    stats
}

/// Probe 1: moving a send one step earlier must trip the single-port
/// check (the MST root would talk to two children at once).
fn probe_step_move() -> bool {
    let st = Strategy::pure_mst(8);
    let programs =
        extract_programs(&PlanOp::Broadcast { root: 0 }, Some(&st), 8, 64).expect("extract");
    let mut sched = match_programs(&programs).expect("valid schedule");
    let idx = sched
        .events
        .iter()
        .position(|e| e.src == 0 && e.step == 1)
        .expect("root sends at step 1");
    sched.events[idx].step = 0;
    sched.events.sort_by_key(|e| e.step);
    check_single_port(&sched)
        .iter()
        .any(|v| matches!(v, Violation::MultiPort { rank: 0, .. }))
}

/// Probe 2: bumping one rank's first tag must deadlock the matcher
/// (its partner waits on the original tag forever).
fn probe_tag_bump() -> bool {
    let st = Strategy::pure_mst(4);
    let mut programs =
        extract_programs(&PlanOp::Broadcast { root: 0 }, Some(&st), 4, 32).expect("extract");
    let bumped = programs[1].iter_mut().find_map(|op| match op {
        OpRecord::Send { tag, .. }
        | OpRecord::Recv { tag, .. }
        | OpRecord::SendRecv { tag, .. } => {
            *tag += 1;
            Some(())
        }
        _ => None,
    });
    bumped.expect("rank 1 communicates");
    matches!(match_programs(&programs), Err(Violation::Deadlock { .. }))
}

/// Probe 3: a receive landing inside a concurrently-sent span must trip
/// the buffer-safety check.
fn probe_buffer_overlap() -> bool {
    let sched = Schedule {
        p: 2,
        steps: 1,
        events: vec![
            Event {
                step: 0,
                src: 0,
                dst: 1,
                tag: 0,
                bytes: 8,
                read: MemSpan { addr: 100, len: 8 },
                write: MemSpan { addr: 500, len: 8 },
            },
            Event {
                step: 0,
                src: 1,
                dst: 0,
                tag: 0,
                bytes: 8,
                read: MemSpan { addr: 700, len: 8 },
                write: MemSpan { addr: 104, len: 8 },
            },
        ],
    };
    check_buffer_safety(&sched)
        .iter()
        .any(|v| matches!(v, Violation::BufferOverlap { rank: 0, .. }))
}

/// Probe 4: two same-step messages crossing the same east link must be
/// observed by the link analysis.
fn probe_link_conflict() -> bool {
    let mesh = Mesh2D::new(1, 4);
    let ev = |src: usize, dst: usize| Event {
        step: 0,
        src,
        dst,
        tag: LEVEL_TAG_STRIDE,
        bytes: 4,
        read: MemSpan { addr: 0, len: 4 },
        write: MemSpan { addr: 64, len: 4 },
    };
    let sched = Schedule {
        p: 4,
        steps: 1,
        events: vec![ev(0, 2), ev(1, 3)],
    };
    analyze_links(&sched, &mesh).max_sharing == 2
}

/// One row/column/submesh tenant for the concurrent scenario matrix.
fn row_tenant(mesh: &Mesh2D, r: usize, idx: usize) -> Tenant {
    let members = row_members(mesh, r);
    let st = Strategy::pure_long(members.len());
    Tenant::lowered(
        format!("row{r}"),
        &PlanOp::Collect,
        Some(&st),
        2 * members.len(),
        members,
        tenant_tag_base(idx),
    )
    .expect("row tenant lowers")
}

fn col_tenant(mesh: &Mesh2D, c: usize, idx: usize) -> Tenant {
    let members = col_members(mesh, c);
    let st = Strategy::pure_mst(members.len());
    Tenant::lowered(
        format!("col{c}"),
        &PlanOp::AllReduce,
        Some(&st),
        8,
        members,
        tenant_tag_base(idx),
    )
    .expect("col tenant lowers")
}

fn submesh_tenant(
    mesh: &Mesh2D,
    name: &str,
    (r0, c0, rows, cols): (usize, usize, usize, usize),
    idx: usize,
) -> Tenant {
    let members = submesh_members(mesh, r0, c0, rows, cols);
    let st = Strategy::pure_mst(members.len());
    Tenant::lowered(
        name,
        &PlanOp::Broadcast { root: 0 },
        Some(&st),
        32,
        members,
        tenant_tag_base(idx),
    )
    .expect("submesh tenant lowers")
}

/// The multi-tenant scenario matrix: every legitimate workload here
/// must verify with zero violations.
fn concurrent_scenarios() -> Vec<(String, Workload)> {
    let mut out = Vec::new();
    for (rows, cols) in [(3, 3), (4, 4), (2, 6)] {
        let mesh = Mesh2D::new(rows, cols);
        let row_set: Vec<Tenant> = (0..rows).map(|r| row_tenant(&mesh, r, r)).collect();
        out.push((
            format!("{rows}x{cols} disjoint rows"),
            Workload::new(Mesh2D::new(rows, cols), row_set.clone()),
        ));
        let col_set: Vec<Tenant> = (0..cols).map(|c| col_tenant(&mesh, c, c)).collect();
        out.push((
            format!("{rows}x{cols} disjoint columns"),
            Workload::new(Mesh2D::new(rows, cols), col_set),
        ));
        // Rows and columns at once: every node hosts two tenants.
        let mut both = row_set;
        for c in 0..cols {
            both.push(col_tenant(&mesh, c, rows + c));
        }
        out.push((
            format!("{rows}x{cols} rows + columns"),
            Workload::new(Mesh2D::new(rows, cols), both),
        ));
    }
    // Overlapping 2x2 submeshes sharing the center of a 3x3.
    let mesh = Mesh2D::new(3, 3);
    out.push((
        "3x3 overlapping submeshes".into(),
        Workload::new(
            Mesh2D::new(3, 3),
            vec![
                submesh_tenant(&mesh, "nw", (0, 0, 2, 2), 0),
                submesh_tenant(&mesh, "se", (1, 1, 2, 2), 1),
            ],
        ),
    ));
    // Two whole-mesh tenants, fully overlapping, isolated only by tag
    // bases and memory windows.
    let mesh = Mesh2D::new(4, 4);
    out.push((
        "4x4 full overlap, distinct tag spaces".into(),
        Workload::new(
            Mesh2D::new(4, 4),
            vec![
                submesh_tenant(&mesh, "whole0", (0, 0, 4, 4), 0),
                submesh_tenant(&mesh, "whole1", (0, 0, 4, 4), 1),
            ],
        ),
    ));
    // Interleaved pair groups on linear arrays: disjoint nodes, shared
    // links — contention is reported, not a violation.
    for cols in [4usize, 8] {
        let pairs = cols / 2;
        let tenants: Vec<Tenant> = (0..pairs)
            .map(|g| {
                Tenant::lowered(
                    format!("pair{g}"),
                    &PlanOp::Broadcast { root: 0 },
                    Some(&Strategy::pure_mst(2)),
                    16,
                    vec![g, g + pairs],
                    tenant_tag_base(g),
                )
                .expect("pair tenant lowers")
            })
            .collect();
        out.push((
            format!("1x{cols} interleaved pair groups"),
            Workload::new(Mesh2D::new(1, cols), tenants),
        ));
    }
    out
}

/// Results of the concurrent scenario sweep.
struct ConcStats {
    scenarios: usize,
    tenants: usize,
    failures: Vec<String>,
    /// Worst single-tenant per-link peak across all scenarios.
    solo_max: usize,
    /// Worst composite per-link sharing across all scenarios.
    composite_max: usize,
}

fn concurrent_sweep(quiet: bool) -> ConcStats {
    let mut stats = ConcStats {
        scenarios: 0,
        tenants: 0,
        failures: Vec::new(),
        solo_max: 0,
        composite_max: 0,
    };
    for (name, workload) in concurrent_scenarios() {
        stats.scenarios += 1;
        stats.tenants += workload.tenants.len();
        let report = verify_concurrent(&workload);
        stats.solo_max = stats.solo_max.max(report.contention.solo_max);
        stats.composite_max = stats.composite_max.max(report.contention.composite_max);
        if !report.ok() {
            stats.failures.push(format!("{name}: {report}"));
        } else if !quiet {
            println!("concurrent [{name}]: {report}");
        }
    }
    stats
}

/// Concurrent probe 1: two tenants on the same nodes with the same tag
/// base must be rejected as a tag collision (and the adversarial
/// matcher must realize an actual cross-tenant steal).
fn probe_concurrent_tag_collision() -> bool {
    let st = Strategy::pure_mst(4);
    let mk = |name: &str| {
        Tenant::lowered(
            name,
            &PlanOp::Broadcast { root: 0 },
            Some(&st),
            16,
            vec![0, 1, 2, 3],
            0,
        )
        .expect("probe tenant lowers")
    };
    let rep = verify_concurrent(&Workload::new(Mesh2D::new(2, 2), vec![mk("a"), mk("b")]));
    rep.violations.iter().any(|v| {
        matches!(v, ConcurrentViolation::TagCollision { tenant_a, tenant_b, .. }
            if tenant_a == "a" && tenant_b == "b")
    }) && rep
        .violations
        .iter()
        .any(|v| matches!(v, ConcurrentViolation::CrossTenantMatch { .. }))
}

/// Concurrent probe 2: two co-resident tenants declaring the same
/// memory window must be rejected for buffer overlap.
fn probe_concurrent_buffer_overlap() -> bool {
    let st = Strategy::pure_mst(4);
    let mk = |i: usize| {
        let mut t = Tenant::lowered(
            format!("t{i}"),
            &PlanOp::Broadcast { root: 0 },
            Some(&st),
            16,
            vec![0, 1, 2, 3],
            tenant_tag_base(i),
        )
        .expect("probe tenant lowers");
        t.mem_base = Some(0);
        t
    };
    let rep = verify_concurrent(&Workload::new(Mesh2D::new(2, 2), vec![mk(0), mk(1)]));
    rep.violations
        .iter()
        .any(|v| matches!(v, ConcurrentViolation::BufferOverlap { node: 0, .. }))
}

/// Concurrent probe 3: two tenants embedded head-to-tail with broken
/// send tags must deadlock with a wait cycle that *names both
/// tenants*.
fn probe_concurrent_cross_deadlock() -> bool {
    let span = |addr: usize| MemSpan { addr, len: 8 };
    let a = Tenant::from_programs(
        "a",
        vec![
            vec![OpRecord::Recv {
                from: 1,
                tag: 1,
                dst: span(0),
            }],
            vec![OpRecord::Send {
                to: 0,
                tag: 3,
                src: span(0),
            }],
        ],
        vec![0, 1],
        tenant_tag_base(0),
    );
    let b = Tenant::from_programs(
        "b",
        vec![
            vec![OpRecord::Send {
                to: 1,
                tag: 7,
                src: span(0),
            }],
            vec![OpRecord::Recv {
                from: 0,
                tag: 2,
                dst: span(0),
            }],
        ],
        vec![1, 0],
        tenant_tag_base(1),
    );
    let rep = verify_concurrent(&Workload::new(Mesh2D::new(1, 2), vec![a, b]));
    rep.violations.iter().any(|v| match v {
        ConcurrentViolation::CrossDeadlock { cycle: Some(c), .. } => {
            let mut tenants: Vec<&str> = c.iter().map(|x| x.tenant.as_str()).collect();
            tenants.sort_unstable();
            tenants.dedup();
            tenants.len() >= 2
        }
        _ => false,
    })
}

/// Concurrent probe 4: an embedding claiming one node twice must be
/// rejected before any analysis runs.
fn probe_concurrent_bad_embedding() -> bool {
    let t = Tenant::lowered(
        "dup",
        &PlanOp::Broadcast { root: 0 },
        Some(&Strategy::pure_mst(2)),
        8,
        vec![0, 0],
        0,
    )
    .expect("probe tenant lowers");
    let rep = verify_concurrent(&Workload::new(Mesh2D::new(1, 2), vec![t]));
    rep.violations
        .iter()
        .any(|v| matches!(v, ConcurrentViolation::BadEmbedding { .. }))
}

/// Chaos probe 1: a deliberately cyclic two-rank program run live under
/// a tight deadline must end in bounded-wait errors on every rank (no
/// hang), and the watchdog's residual-matcher diagnosis must name the
/// 0↔1 wait-for cycle.
fn probe_chaos_hang() -> bool {
    let probe = hang_probe();
    let bounded = probe.errors.iter().all(|e| {
        matches!(
            e,
            Some(CommError::Timeout { .. }) | Some(CommError::Disconnected)
        )
    });
    let diagnosed = match probe.diagnosis {
        HangDiagnosis::Deadlock(Violation::Deadlock {
            cycle: Some(ref c), ..
        }) => {
            let mut c = c.clone();
            c.sort_unstable();
            c == vec![0, 1]
        }
        _ => false,
    };
    bounded && diagnosed
}

/// Chaos probe 2: a mid-broadcast progress snapshot whose residual *can*
/// complete must be diagnosed as a straggler (rank 2, the rank that
/// stopped before forwarding) — not misreported as a deadlock.
fn probe_chaos_stall() -> bool {
    matches!(stall_probe(), HangDiagnosis::Stall { rank: 2, .. })
}

/// The watchdog-diagnosis probes run with the chaos sweep.
fn chaos_probes() -> [(&'static str, bool); 2] {
    [
        (
            "seeded hang -> bounded waits + wait-for cycle diagnosis",
            probe_chaos_hang(),
        ),
        (
            "mid-broadcast stall -> straggler diagnosis",
            probe_chaos_stall(),
        ),
    ]
}

/// Cluster shapes for the hierarchical sweep: linear and 2-D inter-node
/// meshes, fat and thin nodes, and the rpn=1 degenerate case. The
/// reduced set (default run) keeps the three shapes the differential
/// tests and the bench pin; `--source=hier` sweeps all of them.
fn hier_shapes(full: bool) -> Vec<ClusterShape> {
    let shape = |inter_rows, inter_cols, ranks_per_node| ClusterShape {
        inter_rows,
        inter_cols,
        ranks_per_node,
    };
    let mut out = vec![shape(1, 4, 4), shape(2, 2, 4), shape(1, 8, 2)];
    if full {
        out.extend([
            shape(1, 6, 1),
            shape(1, 2, 8),
            shape(2, 3, 2),
            shape(3, 3, 2),
            shape(1, 3, 3),
        ]);
    }
    out
}

/// The hierarchical strategies audited for one op × shape: every
/// two-level-model selection (both machine presets, short through long
/// vectors) plus the full single-dim-per-stage enumeration when the
/// cross product stays small.
fn hier_candidates(op: CollectiveOp, shape: ClusterShape) -> Vec<HierStrategy> {
    let mut out: Vec<HierStrategy> = Vec::new();
    let mut push = |h: HierStrategy| {
        if !out.contains(&h) {
            out.push(h);
        }
    };
    for machine in [HierMachine::paragon_cluster(), HierMachine::delta_cluster()] {
        for n in [1usize, 4096, 1 << 18] {
            if let Some(h) = select_hier(op, shape, n, &machine) {
                push(h);
            }
        }
    }
    let all = enumerate_hier_strategies(op, shape, 1);
    if all.len() <= 64 {
        for h in all {
            push(h);
        }
    }
    out
}

/// Results of the hierarchical sweep.
struct HierStats {
    shapes: usize,
    strategies: usize,
    checks: usize,
    failures: Vec<String>,
}

fn run_hier(stats: &mut HierStats, op: &PlanOp, hs: &HierStrategy, n: usize) {
    stats.checks += 1;
    match verify_schedule_hier(op, hs, n) {
        Ok(rep) => {
            if !rep.ok() {
                stats.failures.push(rep.to_string());
            }
        }
        Err(e) => stats
            .failures
            .push(format!("{op} n={n} hier {hs}: lowering error: {e}")),
    }
}

/// Sweeps every hierarchical collective × candidate strategy × size
/// over the cluster shapes. Every schedule must verify with zero
/// violations over the cluster's physical mesh embedding.
fn hier_sweep(quiet: bool, full: bool) -> HierStats {
    let mut stats = HierStats {
        shapes: 0,
        strategies: 0,
        checks: 0,
        failures: Vec::new(),
    };
    let vector_sizes: &[usize] = if full { &[0, 1, 947] } else { &[1, 947] };
    let block_sizes: &[usize] = if full { &[0, 1, 13] } else { &[1, 13] };
    for shape in hier_shapes(full) {
        stats.shapes += 1;
        let p = shape.ranks();
        let before = stats.checks;
        for cost_op in [
            CollectiveOp::Broadcast,
            CollectiveOp::CombineToOne,
            CollectiveOp::CombineToAll,
            CollectiveOp::Collect,
            CollectiveOp::DistributedCombine,
        ] {
            for hs in &hier_candidates(cost_op, shape) {
                stats.strategies += 1;
                match cost_op {
                    CollectiveOp::Broadcast => {
                        for &n in vector_sizes {
                            for root in roots(p) {
                                run_hier(&mut stats, &PlanOp::Broadcast { root }, hs, n);
                            }
                        }
                    }
                    CollectiveOp::CombineToOne => {
                        for &n in vector_sizes {
                            for root in roots(p) {
                                run_hier(&mut stats, &PlanOp::Reduce { root }, hs, n);
                            }
                        }
                    }
                    CollectiveOp::CombineToAll => {
                        for &n in vector_sizes {
                            run_hier(&mut stats, &PlanOp::AllReduce, hs, n);
                        }
                    }
                    CollectiveOp::Collect => {
                        for &n in block_sizes {
                            run_hier(&mut stats, &PlanOp::Collect, hs, n);
                        }
                    }
                    CollectiveOp::DistributedCombine => {
                        for &n in block_sizes {
                            run_hier(&mut stats, &PlanOp::ReduceScatter, hs, n);
                        }
                    }
                    _ => unreachable!("only the five hierarchical ops are swept"),
                }
            }
        }
        if !quiet {
            println!(
                "hier {shape} [hier]: {} schedules verified",
                stats.checks - before
            );
        }
    }
    stats
}

/// Hier probe 1: bumping one rank's first tag must deadlock the matcher
/// — hierarchical programs go through the same rendezvous matching as
/// flat ones, and their stage-band tags are load-bearing.
fn probe_hier_tag_bump() -> bool {
    let shape = ClusterShape::linear(2, 2);
    let hs = select_hier(
        CollectiveOp::CombineToAll,
        shape,
        4096,
        &HierMachine::paragon_cluster(),
    )
    .expect("allreduce has a hierarchy");
    let mut programs = hier_ir_programs(&PlanOp::AllReduce, &hs, 32).expect("hier lowers");
    let bumped = programs[1].iter_mut().find_map(|op| match op {
        OpRecord::Send { tag, .. }
        | OpRecord::Recv { tag, .. }
        | OpRecord::SendRecv { tag, .. } => {
            *tag += 1;
            Some(())
        }
        _ => None,
    });
    bumped.expect("rank 1 communicates");
    matches!(match_programs(&programs), Err(Violation::Deadlock { .. }))
}

/// Hier probe 2: pulling the root's intra fan-out send up into its
/// inter-stage step must trip the single-port check (the root would
/// talk to a leader peer and a node-local child at once).
fn probe_hier_step_move() -> bool {
    let shape = ClusterShape::linear(2, 4);
    let hs = select_hier(
        CollectiveOp::Broadcast,
        shape,
        4096,
        &HierMachine::paragon_cluster(),
    )
    .expect("broadcast has a hierarchy");
    let programs = hier_ir_programs(&PlanOp::Broadcast { root: 0 }, &hs, 64).expect("hier lowers");
    let mut sched = match_programs(&programs).expect("valid schedule");
    let sends: Vec<usize> = sched
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.src == 0)
        .map(|(i, _)| i)
        .collect();
    assert!(sends.len() >= 2, "root sends in both stages");
    let first_step = sched.events[sends[0]].step;
    sched.events[*sends.last().unwrap()].step = first_step;
    sched.events.sort_by_key(|e| e.step);
    check_single_port(&sched)
        .iter()
        .any(|v| matches!(v, Violation::MultiPort { rank: 0, .. }))
}

/// Hier probe 3: a strategy whose stage sequence disagrees with the
/// op's template must be rejected at lowering, before any check runs.
fn probe_hier_bad_strategy() -> bool {
    let hs = select_hier(
        CollectiveOp::Broadcast,
        ClusterShape::linear(2, 2),
        64,
        &HierMachine::paragon_cluster(),
    )
    .expect("broadcast has a hierarchy");
    verify_schedule_hier(&PlanOp::AllReduce, &hs, 16).is_err()
}

/// The hierarchical mutation probes run with the hier sweep.
fn hier_probes() -> [(&'static str, bool); 3] {
    [
        ("hier tag-bump -> deadlock", probe_hier_tag_bump()),
        ("hier step-move -> single-port", probe_hier_step_move()),
        (
            "mismatched hier template -> rejected",
            probe_hier_bad_strategy(),
        ),
    ]
}

fn hier_json(h: &HierStats) -> String {
    format!(
        "{{\"shapes\":{},\"strategies\":{},\"checks\":{},\"failure_count\":{}}}",
        h.shapes,
        h.strategies,
        h.checks,
        h.failures.len(),
    )
}

/// `--source=hier`: the full hierarchical sweep (every cluster shape ×
/// hierarchical op × candidate strategy × size) plus the hier probes.
fn run_hier_only(json: bool) -> ExitCode {
    let stats = hier_sweep(json, true);
    let probes = hier_probes();
    let ok = stats.failures.is_empty() && probes.iter().all(|(_, caught)| *caught);
    if json {
        let failures: Vec<String> = stats
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape_json(f)))
            .collect();
        println!(
            "{{\n  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"source\": \"hier\",\n  \
             \"hier\": {},\n  \"failure_count\": {},\n  \"failures\": [{}],\n  \
             \"mutation_probes\": [{}],\n  \"pass\": {ok}\n}}",
            hier_json(&stats),
            failures.len(),
            failures.join(","),
            probes_json(&probes),
        );
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!(
        "schedule-audit: {} hierarchical schedules verified ({} strategies over {} cluster shapes)",
        stats.checks, stats.strategies, stats.shapes
    );
    if !stats.failures.is_empty() {
        println!("{} FAILURES:", stats.failures.len());
        for (i, f) in stats.failures.iter().enumerate() {
            println!("[{i}] {f}");
        }
    }
    let mut probes_ok = true;
    for (name, caught) in probes {
        if caught {
            println!("mutation probe caught: {name}");
        } else {
            println!("MUTATION PROBE MISSED: {name}");
            probes_ok = false;
        }
    }
    if stats.failures.is_empty() && probes_ok {
        println!("schedule-audit: PASS");
        ExitCode::SUCCESS
    } else {
        println!("schedule-audit: FAIL");
        ExitCode::FAILURE
    }
}

/// Escapes a string for embedding in a JSON document (std-only — the
/// workspace ships no serde).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Bumped whenever the shape of the `--json` document changes, so CI
/// consumers can fail fast on a format drift instead of misreading it.
/// v2: added `source` and the `crosscheck` object. v3: added
/// `threads`, the `optsweep` object (the full optimized-IR sweep with
/// its per-pass `rewrites` counts) and, for `--source=ir-opt`, a
/// top-level `rewrites` object. v4: added the `concurrent` object (the
/// multi-tenant scenario sweep with its composite contention bounds),
/// the four concurrent entries in `mutation_probes`, and the
/// `--source=concurrent` mode that emits a concurrent-only document.
/// v5: added the `chaos` object (the fault-injection sweep: cases,
/// byte-identical recoveries, coordinated aborts, retransmissions and
/// the hang count, which must be zero), the two watchdog-diagnosis
/// entries in `mutation_probes`, and the `--source=chaos` mode that
/// runs the full scenario matrix on both backends. v6: added the
/// `hier` object (the hierarchical sweep: cluster shapes, candidate
/// strategies and per-stage-gated checks over each cluster's physical
/// mesh embedding), the three hier entries in `mutation_probes`, and
/// the `--source=hier` mode that runs the full cluster-shape sweep.
const JSON_SCHEMA_VERSION: u32 = 6;

fn chaos_json(c: &ChaosReport) -> String {
    format!(
        "{{\"cases\":{},\"recoveries\":{},\"aborts\":{},\"retries\":{},\
         \"hangs\":{},\"failure_count\":{}}}",
        c.cases,
        c.recoveries,
        c.aborts,
        c.retries,
        c.hangs,
        c.failures.len(),
    )
}

/// `--source=chaos`: the full fault-injection matrix (every scenario ×
/// every collective × both backends) plus the watchdog probes.
fn run_chaos_only(json: bool) -> ExitCode {
    let report = chaos_sweep(false);
    let probes = chaos_probes();
    let ok = report.ok() && probes.iter().all(|(_, caught)| *caught);
    if json {
        let failures: Vec<String> = report
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape_json(f)))
            .collect();
        println!(
            "{{\n  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"source\": \"chaos\",\n  \
             \"chaos\": {},\n  \"failure_count\": {},\n  \"failures\": [{}],\n  \
             \"mutation_probes\": [{}],\n  \"pass\": {ok}\n}}",
            chaos_json(&report),
            failures.len(),
            failures.join(","),
            probes_json(&probes),
        );
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!("schedule-audit: {report}");
    if !report.failures.is_empty() {
        println!("{} FAILURES:", report.failures.len());
        for (i, f) in report.failures.iter().enumerate() {
            println!("[{i}] {f}");
        }
    }
    let mut probes_ok = true;
    for (name, caught) in probes {
        if caught {
            println!("mutation probe caught: {name}");
        } else {
            println!("MUTATION PROBE MISSED: {name}");
            probes_ok = false;
        }
    }
    if ok && probes_ok {
        println!("schedule-audit: PASS");
        ExitCode::SUCCESS
    } else {
        println!("schedule-audit: FAIL");
        ExitCode::FAILURE
    }
}

fn concurrent_json(c: &ConcStats) -> String {
    format!(
        "{{\"scenarios\":{},\"tenants_checked\":{},\"failure_count\":{},\
         \"composite\":{{\"solo_max\":{},\"composite_max\":{}}}}}",
        c.scenarios,
        c.tenants,
        c.failures.len(),
        c.solo_max,
        c.composite_max,
    )
}

/// The concurrent mutation probes, each a deliberately broken workload
/// the analyzer must reject.
fn concurrent_probes() -> [(&'static str, bool); 4] {
    [
        (
            "tenant tag-base collision -> residue + cross-tenant match",
            probe_concurrent_tag_collision(),
        ),
        (
            "shared memory window -> buffer overlap",
            probe_concurrent_buffer_overlap(),
        ),
        (
            "cross-tenant wait cycle -> attributed deadlock",
            probe_concurrent_cross_deadlock(),
        ),
        (
            "duplicate-node embedding -> rejected",
            probe_concurrent_bad_embedding(),
        ),
    ]
}

fn probes_json(probes: &[(&str, bool)]) -> String {
    probes
        .iter()
        .map(|(name, caught)| format!("{{\"name\":\"{}\",\"caught\":{caught}}}", escape_json(name)))
        .collect::<Vec<_>>()
        .join(",")
}

/// `--source=concurrent`: only the multi-tenant scenario sweep and its
/// mutation probes.
fn run_concurrent_only(json: bool) -> ExitCode {
    let stats = concurrent_sweep(json);
    let probes = concurrent_probes();
    let ok = stats.failures.is_empty() && probes.iter().all(|(_, caught)| *caught);
    if json {
        let failures: Vec<String> = stats
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape_json(f)))
            .collect();
        println!(
            "{{\n  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"source\": \"concurrent\",\n  \
             \"concurrent\": {},\n  \"failure_count\": {},\n  \"failures\": [{}],\n  \
             \"mutation_probes\": [{}],\n  \"pass\": {ok}\n}}",
            concurrent_json(&stats),
            failures.len(),
            failures.join(","),
            probes_json(&probes),
        );
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!(
        "schedule-audit: {} concurrent scenarios ({} tenants) verified non-interfering; \
         composite link sharing {} (solo max {})",
        stats.scenarios, stats.tenants, stats.composite_max, stats.solo_max
    );
    if !stats.failures.is_empty() {
        println!("{} FAILURES:", stats.failures.len());
        for (i, f) in stats.failures.iter().enumerate() {
            println!("[{i}] {f}");
        }
    }
    let mut probes_ok = true;
    for (name, caught) in probes {
        if caught {
            println!("mutation probe caught: {name}");
        } else {
            println!("MUTATION PROBE MISSED: {name}");
            probes_ok = false;
        }
    }
    if stats.failures.is_empty() && probes_ok {
        println!("schedule-audit: PASS");
        ExitCode::SUCCESS
    } else {
        println!("schedule-audit: FAIL");
        ExitCode::FAILURE
    }
}

fn rewrites_json(o: &OptTotals) -> String {
    format!(
        "{{\"elided\":{},\"fused\":{},\"overlapped\":{},\"coalesced\":{},\
         \"dead_copies\":{},\"reverts\":{},\"total\":{}}}",
        o.elided,
        o.fused,
        o.overlapped,
        o.coalesced,
        o.dead_copies,
        o.reverts,
        o.total(),
    )
}

fn main() -> ExitCode {
    let json = std::env::args().any(|a| a == "--json");
    let source = match std::env::args().find(|a| a.starts_with("--source=")) {
        None => Source::Ir,
        Some(a) => match a.as_str() {
            "--source=ir" => Source::Ir,
            "--source=ir-opt" => Source::IrOpt,
            "--source=trace" => Source::Trace,
            "--source=concurrent" => return run_concurrent_only(json),
            "--source=chaos" => return run_chaos_only(json),
            "--source=hier" => return run_hier_only(json),
            other => {
                eprintln!(
                    "schedule-audit: unknown option {other} \
                     (expected ir, ir-opt, trace, concurrent, chaos or hier)"
                );
                return ExitCode::FAILURE;
            }
        },
    };
    let stats = audit(json, source, &NODE_COUNTS);
    // Auditing the compiled IR proves the deployed artifact. The
    // default run then repeats the *full* sweep on the optimized IR —
    // every pass-pipeline rewrite re-proven across the whole schedule
    // space — and a trace-sourced subset cross-checks the lowering
    // itself against the unmodified algorithm code.
    let optsweep = (source == Source::Ir).then(|| audit(true, Source::IrOpt, &NODE_COUNTS));
    let crosscheck =
        (source == Source::Ir).then(|| audit(true, Source::Trace, &CROSSCHECK_NODE_COUNTS));
    // The default run also proves the multi-tenant scenario matrix
    // non-interfering through the concurrent analyzer, and runs the
    // reduced chaos matrix (the full one backs `--source=chaos`).
    let concurrent = (source == Source::Ir).then(|| concurrent_sweep(true));
    let chaos = (source == Source::Ir).then(|| chaos_sweep(true));
    // The reduced hierarchical sweep (the full one backs `--source=hier`).
    let hier = (source == Source::Ir).then(|| hier_sweep(true, false));
    let mut probes = vec![
        ("step-move -> single-port", probe_step_move()),
        ("tag-bump -> deadlock", probe_tag_bump()),
        ("span-overlap -> buffer-safety", probe_buffer_overlap()),
        ("link-share -> conflict", probe_link_conflict()),
    ];
    if concurrent.is_some() {
        probes.extend(concurrent_probes());
    }
    if chaos.is_some() {
        probes.extend(chaos_probes());
    }
    if hier.is_some() {
        probes.extend(hier_probes());
    }
    // A revert is not a violation (the program that ran is the proven
    // original) but it breaks the pipeline's deadlock-monotonicity
    // contract, so the audit treats any revert as a failure.
    let reverts = stats.opt.reverts + optsweep.as_ref().map_or(0, |o| o.opt.reverts);
    let ok = stats.failures.is_empty()
        && optsweep.as_ref().is_none_or(|o| o.failures.is_empty())
        && crosscheck.as_ref().is_none_or(|c| c.failures.is_empty())
        && concurrent.as_ref().is_none_or(|c| c.failures.is_empty())
        && chaos.as_ref().is_none_or(ChaosReport::ok)
        && hier.as_ref().is_none_or(|h| h.failures.is_empty())
        && reverts == 0
        && probes.iter().all(|(_, caught)| *caught);

    if json {
        let per_p: Vec<String> = stats
            .per_p
            .iter()
            .map(|(p, checks)| format!("{{\"p\":{p},\"checks\":{checks}}}"))
            .collect();
        let mut failures: Vec<String> = stats
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape_json(f)))
            .collect();
        for extra in optsweep.iter().chain(crosscheck.iter()) {
            failures.extend(
                extra
                    .failures
                    .iter()
                    .map(|f| format!("\"{}\"", escape_json(f))),
            );
        }
        if let Some(c) = &concurrent {
            failures.extend(c.failures.iter().map(|f| format!("\"{}\"", escape_json(f))));
        }
        if let Some(c) = &chaos {
            failures.extend(c.failures.iter().map(|f| format!("\"{}\"", escape_json(f))));
        }
        if let Some(h) = &hier {
            failures.extend(h.failures.iter().map(|f| format!("\"{}\"", escape_json(f))));
        }
        let optsweep_json = match &optsweep {
            Some(o) => format!(
                "{{\"source\":\"ir-opt\",\"checks\":{},\"failure_count\":{},\"rewrites\":{}}}",
                o.checks,
                o.failures.len(),
                rewrites_json(&o.opt),
            ),
            None => "null".to_string(),
        };
        let rewrites_json = if source == Source::IrOpt {
            rewrites_json(&stats.opt)
        } else {
            "null".to_string()
        };
        let crosscheck_json = match &crosscheck {
            Some(c) => format!(
                "{{\"source\":\"trace\",\"checks\":{},\"failure_count\":{}}}",
                c.checks,
                c.failures.len()
            ),
            None => "null".to_string(),
        };
        let concurrent_json = match &concurrent {
            Some(c) => concurrent_json(c),
            None => "null".to_string(),
        };
        let chaos_json = match &chaos {
            Some(c) => chaos_json(c),
            None => "null".to_string(),
        };
        let hier_json = match &hier {
            Some(h) => hier_json(h),
            None => "null".to_string(),
        };
        println!(
            "{{\n  \"schema_version\": {JSON_SCHEMA_VERSION},\n  \"source\": \"{source}\",\n  \
             \"threads\": {},\n  \"checks\": {},\n  \
             \"failure_count\": {},\n  \"failures\": [{}],\n  \"per_p\": [{}],\n  \
             \"rewrites\": {rewrites_json},\n  \"optsweep\": {optsweep_json},\n  \
             \"crosscheck\": {crosscheck_json},\n  \"concurrent\": {concurrent_json},\n  \
             \"chaos\": {chaos_json},\n  \"hier\": {hier_json},\n  \
             \"mutation_probes\": [{}],\n  \"pass\": {ok}\n}}",
            stats.threads,
            stats.checks,
            failures.len(),
            failures.join(","),
            per_p.join(","),
            probes_json(&probes),
        );
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    println!(
        "schedule-audit: {} schedules verified from source {source} ({} threads)",
        stats.checks, stats.threads
    );
    if source == Source::IrOpt {
        let o = &stats.opt;
        println!(
            "schedule-audit: rewrites applied: {} (elided {}, fused {}, overlapped {}, \
             coalesced {}, dead copies {}), {} reverts",
            o.total(),
            o.elided,
            o.fused,
            o.overlapped,
            o.coalesced,
            o.dead_copies,
            o.reverts,
        );
    }
    let mut failures = stats.failures;
    if let Some(o) = optsweep {
        let t = &o.opt;
        println!(
            "schedule-audit: {} optimized-IR checks: {} rewrites re-proven (elided {}, \
             fused {}, overlapped {}, coalesced {}, dead copies {}), {} reverts",
            o.checks,
            t.total(),
            t.elided,
            t.fused,
            t.overlapped,
            t.coalesced,
            t.dead_copies,
            t.reverts,
        );
        failures.extend(o.failures);
    }
    if let Some(c) = crosscheck {
        println!(
            "schedule-audit: {} trace-sourced cross-checks (p in {CROSSCHECK_NODE_COUNTS:?})",
            c.checks
        );
        failures.extend(c.failures);
    }
    if let Some(c) = concurrent {
        println!(
            "schedule-audit: {} concurrent scenarios ({} tenants) verified non-interfering; \
             composite link sharing {} (solo max {})",
            c.scenarios, c.tenants, c.composite_max, c.solo_max
        );
        failures.extend(c.failures);
    }
    if let Some(c) = chaos {
        println!("schedule-audit: chaos smoke: {c}");
        if c.hangs > 0 {
            failures.push(format!(
                "chaos smoke: {} hangs (wait expired undiagnosed)",
                c.hangs
            ));
        }
        failures.extend(c.failures);
    }
    if let Some(h) = hier {
        println!(
            "schedule-audit: {} hierarchical schedules verified ({} strategies over {} \
             cluster shapes)",
            h.checks, h.strategies, h.shapes
        );
        failures.extend(h.failures);
    }
    if reverts > 0 {
        println!("schedule-audit: {reverts} optimizer REVERTS (deadlock-monotonicity broken)");
    }
    if !failures.is_empty() {
        println!("{} FAILURES:", failures.len());
        for (i, f) in failures.iter().enumerate().take(50) {
            println!("[{i}] {f}");
        }
        if failures.len() > 50 {
            println!("... and {} more", failures.len() - 50);
        }
    }
    let mut probes_ok = true;
    for (name, caught) in probes {
        if caught {
            println!("mutation probe caught: {name}");
        } else {
            println!("MUTATION PROBE MISSED: {name}");
            probes_ok = false;
        }
    }
    if failures.is_empty() && probes_ok && reverts == 0 {
        println!("schedule-audit: PASS");
        ExitCode::SUCCESS
    } else {
        println!("schedule-audit: FAIL");
        ExitCode::FAILURE
    }
}
