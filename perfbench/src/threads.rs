//! The threaded workloads: `p` rank threads of the threaded runtime in a
//! closed loop, each rank one client with no think time.
//!
//! Before every call the ranks meet at an untimed spin barrier, so no
//! root runs ahead on eager sends; a call's latency runs from the first
//! rank's entry to the last rank's return on the host's monotonic clock.

use crate::calls::Bufs;
use crate::gen::{recurring_calls, Call, CallStream, Issued, Mix};
use crate::layers::{compile_path, plan_key, Compiled};
use crate::sim::EXEC_TAG_BASE;
use crate::trace::{Layer, Span, SpanLog, TimedComm};
use intercom::ir::{CacheStats, PlanCache};
use intercom::{Algo, Comm, Communicator, GroupComm, PoolStats, CALL_TAG_STRIDE};
use intercom_cost::MachineParams;
use intercom_runtime::{run_world, ThreadComm};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-up repetitions per run: at least `MIN_SETUPS`, then more while
/// they take under `SETUP_BUDGET_S` in total, up to `MAX_SETUPS`.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 201;
pub const SETUP_BUDGET_S: f64 = 1.0;
/// Most calls one measured loop records (storage is allocated and
/// touched before timing, so peak memory does not depend on run length).
const CAP: usize = 1 << 22;
/// Most calls one traced loop records.
const TRACE_CAP: u32 = 20_000;

/// A sense-counting spin barrier that also carries rank 0's stop
/// decision to every rank.
struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    stop: AtomicBool,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// Waits for every rank; returns the stop flag as set before the
    /// last rank arrived.
    fn wait(&self) -> bool {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins < 1 << 14 {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        self.stop.load(Ordering::Acquire)
    }

    fn set_stop(&self, stop: bool) {
        self.stop.store(stop, Ordering::Release);
    }
}

/// Shared state of one threaded world.
struct Control {
    barrier: SpinBarrier,
    /// Each rank's `(entry, return)` of its calls, ns since `epoch`, in
    /// two sets by call parity: a rank may publish call `k` before rank
    /// 0 has read call `k − 1`.
    slots: [Vec<[AtomicU64; 2]>; 2],
    epoch: Instant,
    abort: AtomicBool,
}

impl Control {
    fn new(p: usize) -> Self {
        Control {
            barrier: SpinBarrier::new(p),
            slots: [0, 1].map(|_| {
                (0..p)
                    .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
                    .collect()
            }),
            epoch: Instant::now(),
            abort: AtomicBool::new(false),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn publish(&self, k: usize, me: usize, t_in: u64, t_out: u64) {
        self.slots[k % 2][me][0].store(t_in, Ordering::Relaxed);
        self.slots[k % 2][me][1].store(t_out, Ordering::Relaxed);
    }

    /// First entry to last return of call `k` (read after the barrier
    /// that follows it, which orders the publishing stores).
    fn latency(&self, k: usize) -> u64 {
        let slots = &self.slots[k % 2];
        let t_in = slots.iter().map(|s| s[0].load(Ordering::Relaxed)).min();
        let t_out = slots.iter().map(|s| s[1].load(Ordering::Relaxed)).max();
        t_out.unwrap_or(0) - t_in.unwrap_or(0)
    }

    /// Meets every rank after a phase and clears the stop flag.
    fn end_phase(&self, me: usize) {
        self.barrier.wait();
        if me == 0 {
            self.barrier.set_stop(false);
        }
    }
}

/// Rank 0's record of a measured loop: the latency of every call, in
/// stream order (the calls themselves are regenerated from the seed).
struct Record {
    lat_ns: Vec<u32>,
    len: usize,
}

impl Record {
    fn touched() -> Self {
        Record {
            lat_ns: vec![1; CAP],
            len: 0,
        }
    }
}

/// Rank threads: one per core of the two-core host this benchmark was
/// built on; with more ranks than cores a threaded world mostly
/// measures the scheduler.
pub const P: usize = 2;
/// The machine parameters the threaded communicators select under.
pub const MACHINE: MachineParams = MachineParams::PARAGON;

/// How one threaded workload is driven.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub mix: Mix,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a threaded workload measured.
#[derive(Default)]
pub struct ThreadsRun {
    pub setup_s: Vec<f64>,
    /// Latency of every measured call, in stream order.
    pub lat_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
    /// Share of measured calls whose `(op, n, root)` had not occurred
    /// earlier in the run.
    pub fresh_share: f64,
    pub pool: PoolStats,
    /// Traced runs: every rank's span log, the rank-0 cache delta and
    /// the compile results of the shapes that missed.
    pub spans: Vec<Vec<Span>>,
    pub cache: Option<CacheStats>,
    pub compiled: Vec<Compiled>,
}

#[derive(Default)]
struct RankOut {
    setup_s: f64,
    attempted: u64,
    failed: u64,
    calls: usize,
    pool: PoolStats,
    spans: Vec<Span>,
    cache: Option<CacheStats>,
    compiled: Vec<Compiled>,
}

/// The largest call of each op the mix issues, for pre-sizing buffers.
fn largest_calls(mix: Mix, p: usize) -> Vec<Call> {
    let mut calls = recurring_calls(mix, p);
    if mix == Mix::Small {
        calls.extend(crate::gen::SMALL_OPS.iter().map(|&op| Call {
            op,
            n: op.n_for_bytes(crate::gen::SMALL_FRESH_MAX_BYTES, p),
            root: 0,
        }));
    }
    calls
}

/// The measured closed loop: returns (attempted, failed, calls).
fn closed_loop(
    c: &ThreadComm,
    cc: &Communicator<'_, ThreadComm>,
    bufs: &mut Bufs,
    ctl: &Control,
    cfg: &Config,
    deadline: Instant,
    mut rec: Option<&mut Record>,
) -> (u64, u64, usize) {
    let (me, p) = (c.rank(), P);
    let mut stream = CallStream::new(cfg.mix, p, cfg.seed);
    let (mut attempted, mut failed, mut k) = (0u64, 0u64, 0usize);
    loop {
        let Issued { call, salt } = stream.next().expect("endless stream");
        bufs.prepare(&call, me, p, salt);
        if me == 0 && (Instant::now() >= deadline || k >= CAP || ctl.abort.load(Ordering::Relaxed))
        {
            ctl.barrier.set_stop(true);
        }
        let stop = ctl.barrier.wait();
        if let (Some(r), true) = (rec.as_deref_mut(), k > 0) {
            r.lat_ns[r.len] = ctl.latency(k - 1).min(u64::from(u32::MAX)) as u32;
            r.len += 1;
        }
        if stop {
            break;
        }
        let t_in = ctl.now();
        let res = bufs.run(cc, &call, &Algo::Auto);
        let t_out = ctl.now();
        ctl.publish(k, me, t_in, t_out);
        attempted += 1;
        if res.is_err() {
            ctl.abort.store(true, Ordering::Relaxed);
        }
        failed += u64::from(res.is_err() || !bufs.check(&call, me, p, salt));
        k += 1;
    }
    ctl.end_phase(me);
    (attempted, failed, k)
}

/// The traced loop: every call times selection, the cache lookup, and
/// on a miss lowering and optimization as sibling spans; then the
/// one-shot call and the compiled program's execution, each through
/// the timing wrapper.
fn traced_loop(
    c: &ThreadComm,
    bufs: &mut Bufs,
    ctl: &Control,
    cfg: &Config,
    deadline: Instant,
    out: &mut RankOut,
) {
    let (me, p) = (c.rank(), P);
    let log = SpanLog::new(ctl.epoch);
    let timed = TimedComm {
        inner: c,
        log: &log,
    };
    let cc = Communicator::world(&timed, MACHINE);
    let gc = GroupComm::world(&timed);
    let cache = PlanCache::new();
    // An iterative application compiles its recurring shapes up front.
    let warm = recurring_calls(cfg.mix, p).into_iter().flat_map(|call| {
        let roots = if call.op == crate::gen::Op::Bcast {
            p
        } else {
            1
        };
        (0..roots).map(move |root| Call { root, ..call })
    });
    let keys: Vec<_> = warm
        .map(|call| {
            let choice = cc.auto_choice(call.op.cost_op(), call.payload_bytes(p));
            plan_key(&call, p, &choice)
        })
        .collect();
    cache.warm_up(keys).expect("recurring shapes compile");
    let before = cache.stats();
    let mut stream = CallStream::new(cfg.mix, p, cfg.seed);
    let mut k = 0u32;
    loop {
        let Issued { call, salt } = stream.next().expect("endless stream");
        bufs.prepare(&call, me, p, salt);
        if me == 0
            && (Instant::now() >= deadline || k >= TRACE_CAP || ctl.abort.load(Ordering::Relaxed))
        {
            ctl.barrier.set_stop(true);
        }
        if ctl.barrier.wait() {
            break;
        }
        let root = log.begin_call(k);
        let (_, prog, compiled) = compile_path(&log, &cc, &cache, &call);
        out.compiled.extend(compiled);
        ctl.barrier.wait();
        let res = log.timed(Layer::Algorithms, || bufs.run(&cc, &call, &Algo::Auto));
        let mut ok = res.is_ok() && bufs.check(&call, me, p, salt);
        bufs.prepare(&call, me, p, salt);
        ctl.barrier.wait();
        let tag = EXEC_TAG_BASE + u64::from(k) * CALL_TAG_STRIDE;
        let res2 = log.timed(Layer::Exec, || bufs.run_planned(&prog, &gc, &call, tag));
        ok &= res2.is_ok() && bufs.check(&call, me, p, salt);
        log.close(root);
        if res.is_err() || res2.is_err() {
            ctl.abort.store(true, Ordering::Relaxed);
        }
        out.attempted += 2;
        out.failed += u64::from(!ok);
        k += 1;
    }
    ctl.end_phase(me);
    out.cache = Some(cache.stats().delta(&before));
    out.spans = log.take();
}

/// One threaded world: set-up (spawn, communicator, warm-up pass), and
/// unless `setup_only`, the measured loop (and in trace mode the traced
/// loop after it).
fn world(cfg: &Config, setup_only: bool, rec: &Mutex<Record>) -> Vec<RankOut> {
    let ctl = Control::new(P);
    let t0 = Instant::now();
    run_world(P, |c| {
        let (me, p) = (c.rank(), P);
        let mut out = RankOut::default();
        let cc = Communicator::world(c, MACHINE);
        let mut bufs = Bufs::default();
        for call in largest_calls(cfg.mix, p) {
            bufs.reserve(&call, p);
        }
        for (k, call) in recurring_calls(cfg.mix, p).iter().enumerate() {
            bufs.prepare(call, me, p, k as u64);
            let ok = bufs.run(&cc, call, &Algo::Auto).is_ok() && bufs.check(call, me, p, k as u64);
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
        ctl.barrier.wait();
        out.setup_s = t0.elapsed().as_secs_f64();
        if setup_only {
            return out;
        }
        let measure = if cfg.trace {
            cfg.seconds / 2.0
        } else {
            cfg.seconds
        };
        let deadline = Instant::now() + Duration::from_secs_f64(measure);
        let pool_before = c.pool_stats();
        let mut guard = (me == 0).then(|| rec.lock().unwrap());
        let (a, f, calls) =
            closed_loop(c, &cc, &mut bufs, &ctl, cfg, deadline, guard.as_deref_mut());
        drop(guard);
        out.pool = c.pool_stats().delta(&pool_before);
        out.attempted += a;
        out.failed += f;
        out.calls = calls;
        if cfg.trace {
            let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds / 2.0);
            traced_loop(c, &mut bufs, &ctl, cfg, deadline, &mut out);
        }
        out
    })
}

/// Share of the first `calls` calls of the stream whose `(op, n, root)`
/// had not occurred before them.
pub fn fresh_share(cfg: &Config, calls: usize) -> f64 {
    let mut seen = HashSet::new();
    let fresh = CallStream::new(cfg.mix, P, cfg.seed)
        .take(calls)
        .filter(|i| seen.insert(i.call))
        .count();
    fresh as f64 / calls.max(1) as f64
}

/// Runs a threaded workload.
pub fn run(cfg: &Config) -> ThreadsRun {
    let mut run = ThreadsRun::default();
    let rec = Mutex::new(Record::touched());
    // Set-up-only worlds before and after the measured one, so a burst
    // of interference on the host cannot own every set-up sample.
    let setups = |budget: f64| {
        let mut worlds = Vec::new();
        let start = Instant::now();
        while worlds.len() < MIN_SETUPS / 2 + 1
            || (worlds.len() < MAX_SETUPS / 2 && start.elapsed().as_secs_f64() < budget)
        {
            worlds.push(world(cfg, true, &rec));
        }
        worlds
    };
    let mut worlds = setups(SETUP_BUDGET_S / 2.0);
    let measured = world(cfg, false, &rec);
    worlds.extend(setups(SETUP_BUDGET_S / 2.0));
    for outs in worlds.iter().chain([&measured]) {
        run.setup_s
            .push(outs.iter().map(|o| o.setup_s).fold(0.0, f64::max));
        for o in outs {
            run.attempted += o.attempted;
            run.failed += o.failed;
        }
    }
    let mut rec = rec.into_inner().unwrap();
    rec.lat_ns.truncate(rec.len);
    run.lat_ns = rec.lat_ns;
    run.fresh_share = fresh_share(cfg, measured[0].calls);
    for (rank, o) in measured.into_iter().enumerate() {
        run.pool.merge(&o.pool);
        if rank == 0 {
            run.compiled = o.compiled;
            run.cache = o.cache;
        }
        run.spans.push(o.spans);
    }
    run
}
