//! Seeded workload generation: the call model, the threaded call
//! streams and the simulated case lists.
//!
//! Everything a run feeds the library is derived here from `--seed`;
//! the library only ever sees the generated calls.

use intercom::ir::PlanOp;
use intercom_cost::{CollectiveOp, HierMachine, MachineParams};
use intercom_topology::{Cluster, Mesh2D};

/// SplitMix64: the benchmark's own deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The collectives the benchmark issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Broadcast of `u8` elements.
    Bcast,
    /// Combine-to-all, `f64` Sum.
    Allreduce,
    /// Collect of `u8` blocks.
    Allgather,
    /// Distributed combine, `f64` Sum.
    ReduceScatter,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Bcast => "broadcast",
            Op::Allreduce => "allreduce",
            Op::Allgather => "allgather",
            Op::ReduceScatter => "reduce_scatter",
        }
    }

    pub fn elem_size(self) -> usize {
        match self {
            Op::Bcast | Op::Allgather => 1,
            Op::Allreduce | Op::ReduceScatter => 8,
        }
    }

    pub fn cost_op(self) -> CollectiveOp {
        match self {
            Op::Bcast => CollectiveOp::Broadcast,
            Op::Allreduce => CollectiveOp::CombineToAll,
            Op::Allgather => CollectiveOp::Collect,
            Op::ReduceScatter => CollectiveOp::DistributedCombine,
        }
    }

    /// The size parameter `n` (in elements, per [`PlanOp::args`]) of a
    /// call whose whole vector is about `bytes` bytes on `p` ranks:
    /// the vector for broadcast and combine-to-all, the per-rank block
    /// for collect and distributed combine.
    pub fn n_for_bytes(self, bytes: usize, p: usize) -> usize {
        let elems = bytes / self.elem_size();
        match self {
            Op::Bcast | Op::Allreduce => elems.max(1),
            Op::Allgather | Op::ReduceScatter => (elems / p).max(1),
        }
    }
}

/// One collective call: what the library is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Call {
    pub op: Op,
    /// Size parameter in elements (see [`Op::n_for_bytes`]).
    pub n: usize,
    /// Broadcast root (0 for the other ops).
    pub root: usize,
}

impl Call {
    /// Elements of the full vector every rank holds after the call.
    pub fn full_elems(&self, p: usize) -> usize {
        match self.op {
            Op::Bcast | Op::Allreduce => self.n,
            Op::Allgather | Op::ReduceScatter => p * self.n,
        }
    }

    /// Payload bytes of the call: the full vector, which is also the
    /// length the `Communicator` prices the call at.
    pub fn payload_bytes(&self, p: usize) -> usize {
        self.full_elems(p) * self.op.elem_size()
    }

    pub fn plan_op(&self) -> PlanOp {
        match self.op {
            Op::Bcast => PlanOp::Broadcast { root: self.root },
            Op::Allreduce => PlanOp::AllReduce,
            Op::Allgather => PlanOp::Collect,
            Op::ReduceScatter => PlanOp::ReduceScatter,
        }
    }
}

/// A generated call plus the salt its input values are derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issued {
    pub call: Call,
    pub salt: u64,
}

/// The recurring message sizes of `threads-small`: an iterative solver's
/// fixed working set.
pub const SMALL_SIZES: [usize; 4] = [8, 64, 512, 4096];
/// Largest whole vector of a fresh `threads-small` call.
pub const SMALL_FRESH_MAX_BYTES: usize = 8192;
/// Share of `threads-small` calls drawn from the recurring set.
pub const SMALL_RECURRING_SHARE: f64 = 0.9;
pub const SMALL_OPS: [Op; 4] = [Op::Bcast, Op::Allreduce, Op::Allgather, Op::ReduceScatter];

/// `threads-large` sizes: every message takes the rendezvous path.
pub const LARGE_SIZES: [usize; 4] = [256 << 10, 1 << 20, 4 << 20, 16 << 20];
pub const LARGE_OPS: [Op; 3] = [Op::Allreduce, Op::Bcast, Op::Allgather];

/// Which threaded call mix to draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Small,
    Large,
}

/// An endless, seeded stream of calls for a threaded closed loop. Every
/// rank runs its own copy; the same seed yields the same stream.
pub struct CallStream {
    rng: Rng,
    mix: Mix,
    p: usize,
}

impl CallStream {
    pub fn new(mix: Mix, p: usize, seed: u64) -> Self {
        CallStream {
            rng: Rng::new(seed ^ 0xC0FF_EE00_D15E_A5E5),
            mix,
            p,
        }
    }

    fn fresh_n(&mut self, op: Op) -> usize {
        let recurring: Vec<usize> = SMALL_SIZES
            .iter()
            .map(|&b| op.n_for_bytes(b, self.p))
            .collect();
        let max_n = op.n_for_bytes(SMALL_FRESH_MAX_BYTES, self.p);
        loop {
            let n = 1 + self.rng.below(max_n);
            if !recurring.contains(&n) {
                return n;
            }
        }
    }
}

impl Iterator for CallStream {
    type Item = Issued;

    fn next(&mut self) -> Option<Issued> {
        let (op, n) = match self.mix {
            Mix::Small => {
                let op = SMALL_OPS[self.rng.below(SMALL_OPS.len())];
                if self.rng.unit() < SMALL_RECURRING_SHARE {
                    let bytes = SMALL_SIZES[self.rng.below(SMALL_SIZES.len())];
                    (op, op.n_for_bytes(bytes, self.p))
                } else {
                    (op, self.fresh_n(op))
                }
            }
            Mix::Large => {
                let op = LARGE_OPS[self.rng.below(LARGE_OPS.len())];
                let bytes = LARGE_SIZES[self.rng.below(LARGE_SIZES.len())];
                (op, op.n_for_bytes(bytes, self.p))
            }
        };
        let root = if op == Op::Bcast {
            self.rng.below(self.p)
        } else {
            0
        };
        let salt = self.rng.next_u64();
        Some(Issued {
            call: Call { op, n, root },
            salt,
        })
    }
}

/// The ops and recurring sizes of a threaded mix.
fn mix_shapes(mix: Mix) -> (&'static [Op], &'static [usize]) {
    match mix {
        Mix::Small => (&SMALL_OPS, &SMALL_SIZES),
        Mix::Large => (&LARGE_OPS, &LARGE_SIZES),
    }
}

/// The recurring shapes of a threaded mix (one call per op and size),
/// used for the warm-up pass and to classify measured calls.
pub fn recurring_calls(mix: Mix, p: usize) -> Vec<Call> {
    let (ops, sizes) = mix_shapes(mix);
    ops.iter()
        .flat_map(|&op| {
            sizes.iter().map(move |&b| Call {
                op,
                n: op.n_for_bytes(b, p),
                root: 0,
            })
        })
        .collect()
}

/// The simulated machine a case runs on.
#[derive(Debug, Clone)]
pub enum Machine {
    /// A physical mesh; the communicator knows the mesh shape.
    Mesh { mesh: Mesh2D, params: MachineParams },
    /// A line of ranks driven through `Communicator::world`, as the
    /// threaded workloads construct theirs.
    World { p: usize, params: MachineParams },
    /// A two-level cluster with per-level parameters.
    Cluster {
        cluster: Cluster,
        params: HierMachine,
        preset: &'static str,
    },
}

impl Machine {
    pub fn ranks(&self) -> usize {
        match self {
            Machine::Mesh { mesh, .. } => mesh.nodes(),
            Machine::World { p, .. } => *p,
            Machine::Cluster { cluster, .. } => cluster.ranks(),
        }
    }

    pub fn label(&self) -> String {
        match self {
            Machine::Mesh { mesh, .. } => format!("mesh{}x{}", mesh.rows(), mesh.cols()),
            Machine::World { p, .. } => format!("world{p}"),
            Machine::Cluster {
                cluster, preset, ..
            } => format!(
                "{preset}{}x{}x{}",
                cluster.inter().rows(),
                cluster.inter().cols(),
                cluster.ranks_per_node()
            ),
        }
    }
}

/// One simulated case: a call on a machine, with its input salt.
#[derive(Debug, Clone)]
pub struct Case {
    pub machine: Machine,
    pub call: Call,
    pub salt: u64,
    /// The nominal size the case stands for (before the seeded nudge).
    pub nominal_bytes: usize,
    /// Calls issued back to back in one simulated world; times are
    /// reported per call.
    pub calls: usize,
}

/// Nudges a nominal byte length up by a seeded fraction below 1/32, so
/// that virtual time is a function of the seed (bit-identical for one
/// seed, different across seeds) while every case stays at its
/// nominal size to within 3%.
fn nudge(bytes: usize, rng: &mut Rng) -> usize {
    bytes + (bytes as f64 * rng.unit() / 32.0) as usize
}

fn cases_for(
    machines: &[Machine],
    ops: &[Op],
    sizes: &[usize],
    calls: usize,
    rng: &mut Rng,
) -> Vec<Case> {
    let mut out = Vec::new();
    for machine in machines {
        let p = machine.ranks();
        for &op in ops {
            for &bytes in sizes {
                let n = op.n_for_bytes(nudge(bytes, rng), p);
                let root = if op == Op::Bcast { rng.below(p) } else { 0 };
                out.push(Case {
                    machine: machine.clone(),
                    call: Call { op, n, root },
                    salt: rng.next_u64(),
                    nominal_bytes: bytes,
                    calls,
                });
            }
        }
    }
    out
}

/// `paragon-sim`: the paper's Table 3 on 16x32 and 15x30 Paragon meshes.
pub fn paragon_cases(seed: u64) -> Vec<Case> {
    let machines: Vec<Machine> = [(16, 32), (15, 30)]
        .into_iter()
        .map(|(r, c)| Machine::Mesh {
            mesh: Mesh2D::new(r, c),
            params: MachineParams::PARAGON,
        })
        .collect();
    cases_for(
        &machines,
        &[Op::Bcast, Op::Allgather, Op::Allreduce],
        &[8, 1 << 10, 64 << 10, 1 << 20],
        1,
        &mut Rng::new(seed ^ 0x7A3B_1E55),
    )
}

/// The cluster shapes `cluster-sim` runs: `(inter rows, inter cols,
/// ranks per node)`.
pub const CLUSTER_SHAPES: [(usize, usize, usize); 3] = [(1, 4, 4), (2, 2, 4), (1, 8, 2)];

/// `cluster-sim`: hierarchical selection and lowering on two presets.
pub fn cluster_cases(seed: u64) -> Vec<Case> {
    let mut machines = Vec::new();
    for (preset, params) in [
        ("paragon", HierMachine::paragon_cluster()),
        ("delta", HierMachine::delta_cluster()),
    ] {
        for (r, c, rpn) in CLUSTER_SHAPES {
            machines.push(Machine::Cluster {
                cluster: Cluster::new(Mesh2D::new(r, c), rpn),
                params: params.clone(),
                preset,
            });
        }
    }
    cases_for(
        &machines,
        &[Op::Bcast, Op::Allreduce, Op::Allgather],
        &[64, 256 << 10],
        1,
        &mut Rng::new(seed ^ 0xC1A5_7E12),
    )
}

/// The simulated replay of a threaded mix: each recurring shape issued
/// back to back, as the closed loop issues it, on a simulated line of
/// `p` Paragon nodes driven exactly as the threaded world is. Repeating
/// the call amortizes the simulated world's spawn, so the replay times
/// the engine; the large mix repeats less, its calls being long.
pub fn replay_cases(mix: Mix, p: usize, params: MachineParams, seed: u64) -> Vec<Case> {
    let (ops, sizes) = mix_shapes(mix);
    let calls = match mix {
        Mix::Small => 16,
        Mix::Large => 4,
    };
    cases_for(
        &[Machine::World { p, params }],
        ops,
        sizes,
        calls,
        &mut Rng::new(seed ^ 0x5EED_CA5E),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_calls() {
        for mix in [Mix::Small, Mix::Large] {
            let a: Vec<Issued> = CallStream::new(mix, 2, 42).take(5000).collect();
            let b: Vec<Issued> = CallStream::new(mix, 2, 42).take(5000).collect();
            let c: Vec<Issued> = CallStream::new(mix, 2, 43).take(5000).collect();
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
        let a: Vec<String> = paragon_cases(7).iter().map(|c| format!("{c:?}")).collect();
        let b: Vec<String> = paragon_cases(7).iter().map(|c| format!("{c:?}")).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn small_mix_shape() {
        let calls: Vec<Issued> = CallStream::new(Mix::Small, 2, 1).take(20_000).collect();
        let recurring = recurring_calls(Mix::Small, 2);
        let is_recurring = |c: &Call| recurring.iter().any(|r| r.op == c.op && r.n == c.n);
        let share = calls.iter().filter(|i| is_recurring(&i.call)).count() as f64 / 20_000.0;
        assert!((0.88..0.92).contains(&share), "recurring share {share}");
        assert!(calls
            .iter()
            .all(|i| i.call.payload_bytes(2) <= SMALL_FRESH_MAX_BYTES));
    }

    #[test]
    fn nudged_cases_stay_near_nominal() {
        for case in paragon_cases(3).iter().chain(&cluster_cases(3)) {
            let p = case.machine.ranks();
            let bytes = case.call.payload_bytes(p) as f64;
            let nominal = case.nominal_bytes as f64;
            // Collect blocks round down to whole elements per rank and
            // up to one element each.
            let floor = (nominal / p as f64).floor().max(1.0) * p as f64 * 0.97;
            assert!(bytes >= floor.min(nominal * 0.97), "{case:?}");
            assert!(bytes <= nominal * 1.04 + p as f64, "{case:?}");
        }
    }
}
