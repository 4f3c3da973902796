//! The compile path of one call, timed from outside as sibling spans,
//! and the folding of span logs into per-layer samples.

use crate::gen::Call;
use crate::trace::{self_times, Layer, Span, SpanLog, ROOT};
use intercom::ir::{self, CollectiveProgram, OptLevel, PlanCache, PlanKey};
use intercom::{Comm, Communicator};
use intercom_cost::HierChoice;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The cache key the library's persistent plans would compile `call`
/// under, for the strategy `choice` selected.
pub fn plan_key(call: &Call, p: usize, choice: &HierChoice) -> PlanKey {
    let (strategy, hier) = match choice {
        HierChoice::Flat(s) => (Some(s.clone()), None),
        HierChoice::Hier(h) => (None, Some(h.clone())),
    };
    PlanKey {
        op: call.plan_op(),
        p,
        n: call.n,
        elem_size: call.op.elem_size(),
        strategy,
        hier,
        opt: OptLevel::Full,
    }
}

fn lower_key(key: &PlanKey) -> CollectiveProgram {
    match &key.hier {
        Some(hs) => ir::lower_hier(key.op, hs, key.n, key.elem_size),
        None => ir::lower(key.op, key.strategy.as_ref(), key.p, key.n, key.elem_size),
    }
    .expect("every generated call shape lowers")
}

/// What lowering and optimizing one fresh call shape produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compiled {
    /// Steps of the lowered program, all ranks.
    pub steps: usize,
    /// Communication steps before `ir::optimize`.
    pub msgs_in: usize,
    /// Communication steps after `ir::optimize`.
    pub msgs_out: usize,
}

/// Times selection, the plan-cache lookup and — when the lookup missed
/// — lowering and optimization of `call`, each as its own span under
/// the innermost open span. Returns the choice, the cached program, and
/// the compile result on a miss.
pub fn compile_path<C: Comm + ?Sized>(
    log: &SpanLog,
    cc: &Communicator<'_, C>,
    cache: &PlanCache,
    call: &Call,
) -> (HierChoice, Arc<CollectiveProgram>, Option<Compiled>) {
    let p = cc.size();
    let choice = log.timed(Layer::Select, || {
        cc.auto_choice(call.op.cost_op(), call.payload_bytes(p))
    });
    let key = plan_key(call, p, &choice);
    let hits = cache.stats().hits;
    let span = log.open(Layer::Cache);
    let prog = cache
        .get_or_compile(&key)
        .expect("every generated call shape compiles");
    log.close(span);
    let hit = cache.stats().hits > hits;
    log.set_arg(span, hit as u64);
    let compiled = (!hit).then(|| {
        let lowered = log.timed(Layer::Lower, || lower_key(&key));
        let (optimized, _) = log.timed(Layer::Opt, || ir::optimize(&lowered));
        Compiled {
            steps: lowered.ranks.iter().map(|r| r.steps.len()).sum(),
            msgs_in: lowered.comm_steps(),
            msgs_out: optimized.comm_steps(),
        }
    });
    (choice, prog, compiled)
}

/// Per-layer samples folded from span logs.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub select_ns: Vec<f64>,
    pub cache_hit_ns: Vec<f64>,
    pub lower_ns: Vec<f64>,
    pub opt_ns: Vec<f64>,
    pub exec_self_ns: Vec<f64>,
    pub algorithms_self_ns: Vec<f64>,
    /// Time inside `Comm` per one-shot call.
    pub comm_ns: Vec<f64>,
    /// Point-to-point operations per one-shot call.
    pub msgs: Vec<f64>,
    /// Bytes moved per one-shot call.
    pub bytes: Vec<f64>,
    /// Calls whose self times did not sum to the call span (must be 0).
    pub unbalanced_calls: usize,
}

impl LayerSamples {
    /// Folds one rank's log. `outside_select_ns` is selection time
    /// measured outside the log for every call (the simulated workloads
    /// time selection on the host, not inside the rank threads).
    pub fn add_rank(&mut self, spans: &[Span], outside_select_ns: f64) {
        let selfs = self_times(spans);
        let mut comm = vec![(0u64, 0u64, 0u64); spans.len()];
        for s in spans
            .iter()
            .filter(|s| s.layer == Layer::Comm && s.parent != ROOT)
        {
            let c = &mut comm[s.parent as usize];
            c.0 += s.duration();
            c.1 += 1;
            c.2 += s.arg;
        }
        // Per call: root duration, sum of self times, selection time.
        let mut calls: BTreeMap<u32, (u64, u64, f64)> = BTreeMap::new();
        for (s, &own) in spans.iter().zip(&selfs) {
            let c = calls.entry(s.call).or_insert((0, 0, outside_select_ns));
            c.1 += own;
            match s.layer {
                Layer::Call => c.0 = s.duration(),
                Layer::Select => {
                    c.2 += s.duration() as f64;
                    self.select_ns.push(s.duration() as f64);
                }
                Layer::Cache if s.arg == 1 => self.cache_hit_ns.push(s.duration() as f64),
                Layer::Lower => self.lower_ns.push(s.duration() as f64),
                Layer::Opt => self.opt_ns.push(s.duration() as f64),
                Layer::Exec => self.exec_self_ns.push(own as f64),
                _ => {}
            }
        }
        for (i, s) in spans.iter().enumerate() {
            if s.layer == Layer::Algorithms {
                let select = calls[&s.call].2;
                self.algorithms_self_ns.push(selfs[i] as f64 - select);
                let (ns, n, bytes) = comm[i];
                self.comm_ns.push(ns as f64);
                self.msgs.push(n as f64);
                self.bytes.push(bytes as f64);
            }
        }
        self.unbalanced_calls += calls.values().filter(|c| c.0 != c.1).count();
    }
}

/// Cross-rank latency of every call's `layer` span: the first rank's
/// entry to the last rank's return. Logs must share one epoch.
pub fn cross_rank_latency_ns(ranks: &[Vec<Span>], layer: Layer) -> Vec<f64> {
    let mut per_call: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in ranks.iter().flatten().filter(|s| s.layer == layer) {
        let e = per_call.entry(s.call).or_insert((u64::MAX, 0));
        e.0 = e.0.min(s.start);
        e.1 = e.1.max(s.end);
    }
    per_call.values().map(|&(a, b)| (b - a) as f64).collect()
}
