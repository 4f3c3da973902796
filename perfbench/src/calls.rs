//! Per-rank call execution: input generation, the one-shot and planned
//! paths, and closed-form output checks.
//!
//! Inputs are integer-valued so that every expected output has a closed
//! form computed without communication:
//!
//! * broadcast: the root holds `pattern(salt, root, i)`, everyone else
//!   its bitwise complement; afterwards every rank holds the pattern;
//! * combine-to-all and distributed combine (f64 Sum): rank `r`
//!   contributes `a(r) + b(i)`, so element `i` sums to
//!   `Σ_r a(r) + p·b(i)` exactly;
//! * collect: block `r` of the result is rank `r`'s `pattern(salt, r, j)`.

use crate::gen::{Call, Op};
use intercom::ir::{self, ArgBuf, CollectiveProgram};
use intercom::{Algo, Comm, Communicator, GroupComm, ReduceOp, Tag};

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 32)
}

/// Word `j` of rank `r`'s byte pattern for a call with `salt`: the
/// pattern's bytes are the little-endian bytes of consecutive words.
fn pattern_words(salt: u64, r: usize) -> impl Fn(usize) -> u64 {
    let base = mix(salt ^ (r as u64).wrapping_mul(0x1000_0001));
    move |j| base.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fills `out` with rank `r`'s pattern, complemented if `invert`.
fn fill_pattern(out: &mut [u8], salt: u64, r: usize, invert: bool) {
    let word = pattern_words(salt, r);
    let flip = if invert { u64::MAX } else { 0 };
    let j = out.len() / 8;
    let mut chunks = out.chunks_exact_mut(8);
    for (j, c) in (&mut chunks).enumerate() {
        c.copy_from_slice(&(word(j) ^ flip).to_le_bytes());
    }
    let rest = chunks.into_remainder();
    rest.copy_from_slice(&(word(j) ^ flip).to_le_bytes()[..rest.len()]);
}

fn is_pattern(xs: &[u8], salt: u64, r: usize) -> bool {
    let word = pattern_words(salt, r);
    let chunks = xs.chunks_exact(8);
    let rest = chunks.remainder();
    chunks.enumerate().all(|(j, c)| c == word(j).to_le_bytes())
        && rest == &word(xs.len() / 8).to_le_bytes()[..rest.len()]
}

fn a_of(salt: u64, r: usize) -> f64 {
    ((salt as usize).wrapping_add(r.wrapping_mul(37)) % 16) as f64
}

fn b_of(salt: u64, i: usize) -> f64 {
    (((salt >> 8) as usize).wrapping_add(i.wrapping_mul(13)) % 16) as f64
}

/// `Σ_r a(r)` over `p` ranks.
fn a_sum(salt: u64, p: usize) -> f64 {
    (0..p).map(|r| a_of(salt, r)).sum()
}

/// One rank's reusable buffers. They only ever grow, so a warmed-up
/// loop allocates nothing per call.
#[derive(Default)]
pub struct Bufs {
    bytes_in: Vec<u8>,
    bytes_out: Vec<u8>,
    f64_in: Vec<f64>,
    f64_out: Vec<f64>,
    scratch_u8: Vec<u8>,
    scratch_f64: Vec<f64>,
}

fn grow<T: Default + Clone>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

impl Bufs {
    /// Pre-sizes the buffers for `call` on `p` ranks (untimed set-up).
    pub fn reserve(&mut self, call: &Call, p: usize) {
        let full = call.full_elems(p);
        match call.op {
            Op::Bcast => grow(&mut self.bytes_out, full),
            Op::Allgather => {
                grow(&mut self.bytes_in, call.n);
                grow(&mut self.bytes_out, full);
            }
            Op::Allreduce => grow(&mut self.f64_out, full),
            Op::ReduceScatter => {
                grow(&mut self.f64_in, full);
                grow(&mut self.f64_out, call.n);
            }
        }
    }

    /// Writes rank `me`'s inputs for `call` (and poisons its outputs so
    /// a result the library never wrote cannot pass the check).
    pub fn prepare(&mut self, call: &Call, me: usize, p: usize, salt: u64) {
        self.reserve(call, p);
        let n = call.n;
        match call.op {
            Op::Bcast => fill_pattern(&mut self.bytes_out[..n], salt, call.root, me != call.root),
            Op::Allgather => {
                fill_pattern(&mut self.bytes_in[..n], salt, me, false);
                for (r, block) in self.bytes_out[..p * n].chunks_exact_mut(n).enumerate() {
                    fill_pattern(block, salt, r, true);
                }
            }
            Op::Allreduce => {
                let a = a_of(salt, me);
                for (i, x) in self.f64_out[..n].iter_mut().enumerate() {
                    *x = a + b_of(salt, i);
                }
            }
            Op::ReduceScatter => {
                let a = a_of(salt, me);
                for (i, x) in self.f64_in[..p * n].iter_mut().enumerate() {
                    *x = a + b_of(salt, i);
                }
                self.f64_out[..n].fill(-1.0);
            }
        }
    }

    /// Checks rank `me`'s outputs against the closed form.
    pub fn check(&self, call: &Call, me: usize, p: usize, salt: u64) -> bool {
        let n = call.n;
        match call.op {
            Op::Bcast => is_pattern(&self.bytes_out[..n], salt, call.root),
            Op::Allgather => self.bytes_out[..p * n]
                .chunks_exact(n)
                .enumerate()
                .all(|(r, block)| is_pattern(block, salt, r)),
            Op::Allreduce => {
                let a = a_sum(salt, p);
                let pf = p as f64;
                self.f64_out[..n]
                    .iter()
                    .enumerate()
                    .all(|(i, &x)| x == a + pf * b_of(salt, i))
            }
            Op::ReduceScatter => {
                let a = a_sum(salt, p);
                let pf = p as f64;
                self.f64_out[..n]
                    .iter()
                    .enumerate()
                    .all(|(j, &x)| x == a + pf * b_of(salt, me * n + j))
            }
        }
    }

    /// The output bytes of the last call, for byte-identity comparisons.
    #[cfg(test)]
    pub fn output_bytes(&self, call: &Call, p: usize) -> Vec<u8> {
        let n = call.n;
        match call.op {
            Op::Bcast => self.bytes_out[..n].to_vec(),
            Op::Allgather => self.bytes_out[..p * n].to_vec(),
            Op::Allreduce | Op::ReduceScatter => self.f64_out[..n]
                .iter()
                .flat_map(|x| x.to_le_bytes())
                .collect(),
        }
    }

    /// Runs `call` through the public one-shot `Communicator` API.
    pub fn run<C: Comm + ?Sized>(
        &mut self,
        cc: &Communicator<'_, C>,
        call: &Call,
        algo: &Algo,
    ) -> intercom::Result<()> {
        let (n, p) = (call.n, cc.size());
        match call.op {
            Op::Bcast => cc.bcast_with(call.root, &mut self.bytes_out[..n], algo),
            Op::Allgather => {
                cc.allgather_with(&self.bytes_in[..n], &mut self.bytes_out[..p * n], algo)
            }
            Op::Allreduce => cc.allreduce_with(&mut self.f64_out[..n], ReduceOp::Sum, algo),
            Op::ReduceScatter => cc.reduce_scatter_with(
                &self.f64_in[..p * n],
                &mut self.f64_out[..n],
                ReduceOp::Sum,
                algo,
            ),
        }
    }

    /// Runs `call` by interpreting its compiled program.
    pub fn run_planned<C: Comm + ?Sized>(
        &mut self,
        prog: &CollectiveProgram,
        gc: &GroupComm<'_, C>,
        call: &Call,
        tag: Tag,
    ) -> intercom::Result<()> {
        let (n, p) = (call.n, gc.len());
        match call.op {
            Op::Bcast => ir::execute_scalar(
                prog,
                gc,
                &mut [ArgBuf::Out(&mut self.bytes_out[..n])],
                &mut self.scratch_u8,
                tag,
            ),
            Op::Allgather => ir::execute_scalar(
                prog,
                gc,
                &mut [
                    ArgBuf::In(&self.bytes_in[..n]),
                    ArgBuf::Out(&mut self.bytes_out[..p * n]),
                ],
                &mut self.scratch_u8,
                tag,
            ),
            Op::Allreduce => ir::execute(
                prog,
                gc,
                ReduceOp::Sum,
                &mut [ArgBuf::Out(&mut self.f64_out[..n])],
                &mut self.scratch_f64,
                tag,
            ),
            Op::ReduceScatter => ir::execute(
                prog,
                gc,
                ReduceOp::Sum,
                &mut [
                    ArgBuf::In(&self.f64_in[..p * n]),
                    ArgBuf::Out(&mut self.f64_out[..n]),
                ],
                &mut self.scratch_f64,
                tag,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_catch_a_wrong_output() {
        let call = Call {
            op: Op::Allreduce,
            n: 4,
            root: 0,
        };
        let mut b = Bufs::default();
        b.prepare(&call, 0, 1, 9);
        // World of one: the input is already the sum.
        assert!(b.check(&call, 0, 1, 9));
        b.f64_out[2] += 1.0;
        assert!(!b.check(&call, 0, 1, 9));
    }
}
