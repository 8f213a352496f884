//! Intra-procedural reaching definitions over the IR.

use firmres_ir::{BlockId, FnvBuildHasher, Function, PcodeOp, Varnode};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Position of an operation within a function: `(block, index in block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpRef {
    /// Containing basic block.
    pub block: BlockId,
    /// Index of the operation within the block.
    pub index: usize,
}

/// Reaching-definitions analysis for one function.
///
/// Definitions are operations whose `output` is a given varnode. The
/// analysis is a standard forward may-analysis with gen/kill per block,
/// solved with a worklist; queries then combine block-entry states with a
/// backward scan inside the block.
///
/// [`DefUse::compute`] solves with dense u64-word bitsets and a
/// dirty-block worklist. The original `BTreeSet` formulation survives as
/// the `#[cfg(test)]` oracle: both reach the same (unique) least
/// fixpoint, so [`DefUse::reaching_defs`] must answer identically.
///
/// # Examples
///
/// ```
/// use firmres_dataflow::DefUse;
/// use firmres_ir::{FunctionBuilder, Varnode};
///
/// let mut fb = FunctionBuilder::new("f", 0);
/// let x = fb.local("x", 4);
/// fb.copy(x.clone(), Varnode::constant(1, 4));
/// fb.copy(x.clone(), Varnode::constant(2, 4));
/// fb.ret();
/// let f = fb.finish();
/// let du = DefUse::compute(&f);
/// // At the ret (index 2), only the second copy reaches.
/// let defs = du.reaching_defs(
///     firmres_dataflow::OpRef { block: firmres_ir::BlockId(0), index: 2 },
///     &x,
/// );
/// assert_eq!(defs.len(), 1);
/// assert_eq!(defs[0].index, 1);
/// ```
#[derive(Debug)]
pub struct DefUse {
    /// All definition sites, in block order.
    defs: Vec<(OpRef, Varnode)>,
    /// Contiguous range of `defs` indices per block (defs are collected
    /// in block order, so each block's definitions form one run).
    block_def_ranges: Vec<(u32, u32)>,
    /// Per-block reaching-definition state at block entry: `stride`
    /// words per block, bit `d` of block `b`'s row set iff definition `d`
    /// reaches `b`'s entry.
    entry: Vec<u64>,
    stride: usize,
    /// Map from op address to position (first occurrence).
    addr_index: BTreeMap<u64, OpRef>,
    /// Block op lists are borrowed through the function; we keep block
    /// lengths for validation.
    block_lens: Vec<usize>,
}

/// The front half of the solver: definition sites, address index, block
/// lengths and per-block def ranges.
struct DefSites {
    defs: Vec<(OpRef, Varnode)>,
    block_def_ranges: Vec<(u32, u32)>,
    addr_index: BTreeMap<u64, OpRef>,
    block_lens: Vec<usize>,
}

fn collect_defs(f: &Function) -> DefSites {
    let nblocks = f.blocks().len();
    let mut defs: Vec<(OpRef, Varnode)> = Vec::new();
    let mut block_def_ranges = Vec::with_capacity(nblocks);
    let mut addr_index = BTreeMap::new();
    let mut block_lens = Vec::with_capacity(nblocks);
    for (bi, block) in f.blocks().iter().enumerate() {
        block_lens.push(block.ops.len());
        let start = defs.len() as u32;
        for (oi, op) in block.ops.iter().enumerate() {
            let r = OpRef {
                block: BlockId(bi as u32),
                index: oi,
            };
            addr_index.entry(op.addr).or_insert(r);
            if let Some(out) = &op.output {
                defs.push((r, out.clone()));
            }
        }
        block_def_ranges.push((start, defs.len() as u32));
    }
    DefSites {
        defs,
        block_def_ranges,
        addr_index,
        block_lens,
    }
}

impl DefUse {
    /// Run the analysis on `f`: per-block gen/kill masks over the
    /// definition index space, a dirty-block worklist, and word-wise
    /// transfer.
    pub fn compute(f: &Function) -> Self {
        let sites = collect_defs(f);
        let nblocks = f.blocks().len();
        let ndefs = sites.defs.len();
        let stride = ndefs.div_ceil(64).max(1);

        // Defs of the same varnode kill each other: group definition
        // indices by varnode once, then OR each group into the kill mask
        // of every block defining that varnode.
        let mut by_var: HashMap<&Varnode, Vec<u32>, FnvBuildHasher> = HashMap::default();
        for (i, (_, v)) in sites.defs.iter().enumerate() {
            by_var.entry(v).or_default().push(i as u32);
        }
        let mut gen_mask = vec![0u64; nblocks * stride];
        let mut kill_mask = vec![0u64; nblocks * stride];
        for (bi, &(start, end)) in sites.block_def_ranges.iter().enumerate() {
            let base = bi * stride;
            // Last def per varnode within the block generates; walking the
            // block's defs backward and skipping already-killed varnodes
            // finds exactly those.
            for i in (start..end).rev() {
                let v = &sites.defs[i as usize].1;
                let group = &by_var[v];
                let killed = group
                    .iter()
                    .any(|&g| kill_mask[base + (g as usize >> 6)] >> (g & 63) & 1 == 1);
                if !killed {
                    gen_mask[base + (i as usize >> 6)] |= 1u64 << (i & 63);
                    for &g in group {
                        kill_mask[base + (g as usize >> 6)] |= 1u64 << (g & 63);
                    }
                }
            }
        }

        let preds = f.predecessors();
        let successors: Vec<&[BlockId]> =
            f.blocks().iter().map(|b| b.successors.as_slice()).collect();
        let mut block_in = vec![0u64; nblocks * stride];
        let mut block_out = vec![0u64; nblocks * stride];
        let mut queued = vec![true; nblocks];
        let mut work: VecDeque<u32> = (0..nblocks as u32).collect();
        while let Some(b) = work.pop_front() {
            let b = b as usize;
            queued[b] = false;
            let base = b * stride;
            for w in 0..stride {
                block_in[base + w] = 0;
            }
            for p in &preds[b] {
                let pbase = p.0 as usize * stride;
                for w in 0..stride {
                    block_in[base + w] |= block_out[pbase + w];
                }
            }
            let mut changed = false;
            for w in 0..stride {
                let out = (block_in[base + w] & !kill_mask[base + w]) | gen_mask[base + w];
                if out != block_out[base + w] {
                    block_out[base + w] = out;
                    changed = true;
                }
            }
            if changed {
                for s in successors[b] {
                    let sb = s.0 as usize;
                    if !queued[sb] {
                        queued[sb] = true;
                        work.push_back(s.0);
                    }
                }
            }
        }
        DefUse {
            defs: sites.defs,
            block_def_ranges: sites.block_def_ranges,
            entry: block_in,
            stride,
            addr_index: sites.addr_index,
            block_lens: sites.block_lens,
        }
    }

    /// Position of the operation at machine address `addr`, if present.
    pub fn position_of(&self, addr: u64) -> Option<OpRef> {
        self.addr_index.get(&addr).copied()
    }

    /// All definition sites of `varnode` anywhere in the function.
    pub fn all_defs(&self, varnode: &Varnode) -> Vec<OpRef> {
        self.defs
            .iter()
            .filter(|(_, v)| v == varnode)
            .map(|(r, _)| *r)
            .collect()
    }

    /// Definitions of `varnode` that reach the program point just *before*
    /// `at` executes.
    pub fn reaching_defs(&self, at: OpRef, varnode: &Varnode) -> Vec<OpRef> {
        let b = at.block.0 as usize;
        if b >= self.block_lens.len() {
            return Vec::new();
        }
        // Backward scan within the block, restricted to the block's own
        // contiguous run of definitions.
        let (start, end) = self.block_def_ranges[b];
        for i in (start..end).rev() {
            let (r, v) = &self.defs[i as usize];
            if r.index < at.index && v == varnode {
                return vec![*r];
            }
        }
        // Fall back to block-entry state: walk the set bits in ascending
        // definition order.
        let row = &self.entry[b * self.stride..(b + 1) * self.stride];
        let mut out = Vec::new();
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let d = (w << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (r, v) = &self.defs[d];
                if v == varnode {
                    out.push(*r);
                }
            }
        }
        out
    }

    /// Total number of definition sites.
    pub fn def_count(&self) -> usize {
        self.defs.len()
    }
}

/// Fetch the operation at `r` in `f`.
///
/// # Panics
///
/// Panics when `r` does not index a valid operation of `f`; positions must
/// come from the same function the query targets.
pub fn op_at(f: &Function, r: OpRef) -> &PcodeOp {
    &f.block(r.block).ops[r.index]
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmres_ir::{FunctionBuilder, Opcode, Varnode};
    use std::collections::BTreeSet;

    /// The pre-optimization solver, verbatim: `BTreeSet` states and a
    /// `Vec` worklist with linear membership scans. The oracle
    /// [`DefUse::compute`]'s bitset solver is checked against.
    struct ReferenceDefUse {
        defs: Vec<(OpRef, Varnode)>,
        block_in: Vec<BTreeSet<usize>>,
    }

    impl ReferenceDefUse {
        fn compute(f: &Function) -> Self {
            let sites = collect_defs(f);
            let nblocks = f.blocks().len();
            let defs = &sites.defs;
            // gen[b]: last def index per varnode in block b.
            // kill handled implicitly: a def of v kills all other defs of v.
            let mut gen_last: Vec<BTreeMap<&Varnode, usize>> = vec![BTreeMap::new(); nblocks];
            let mut killed_vars: Vec<BTreeSet<&Varnode>> = vec![BTreeSet::new(); nblocks];
            for (i, (r, v)) in defs.iter().enumerate() {
                let b = r.block.0 as usize;
                gen_last[b].insert(v, i);
                killed_vars[b].insert(v);
            }
            let preds = f.predecessors();
            let mut block_in: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nblocks];
            let mut block_out: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nblocks];
            let mut work: Vec<usize> = (0..nblocks).collect();
            while let Some(b) = work.pop() {
                let mut input = BTreeSet::new();
                for p in &preds[b] {
                    input.extend(block_out[p.0 as usize].iter().copied());
                }
                let mut out: BTreeSet<usize> = input
                    .iter()
                    .copied()
                    .filter(|&d| !killed_vars[b].contains(&defs[d].1))
                    .collect();
                out.extend(gen_last[b].values().copied());
                let changed = out != block_out[b] || input != block_in[b];
                block_in[b] = input;
                if changed {
                    block_out[b] = out;
                    for sb in 0..nblocks {
                        // successors of b get re-queued
                        if f.blocks()[b].successors.iter().any(|s| s.0 as usize == sb)
                            && !work.contains(&sb)
                        {
                            work.push(sb);
                        }
                    }
                }
            }
            ReferenceDefUse {
                defs: sites.defs,
                block_in,
            }
        }

        /// The original query: a backward walk over every definition,
        /// then the block-entry set in ascending order.
        fn reaching_defs(&self, at: OpRef, varnode: &Varnode) -> Vec<OpRef> {
            let b = at.block.0 as usize;
            if b >= self.block_in.len() {
                return Vec::new();
            }
            for (r, v) in self.defs.iter().rev() {
                if r.block == at.block && r.index < at.index && v == varnode {
                    return vec![*r];
                }
            }
            self.block_in[b]
                .iter()
                .filter(|&&d| &self.defs[d].1 == varnode)
                .map(|&d| self.defs[d].0)
                .collect()
        }
    }

    /// x = 1; if (p) { x = 2 } ; use x
    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("f", 0);
        let p = fb.param("p", 4);
        let x = fb.local("x", 4);
        fb.copy(x.clone(), Varnode::constant(1, 4));
        let c = fb.cmp_ne(p, Varnode::constant(0, 4));
        let then_b = fb.new_block();
        let join = fb.new_block();
        fb.cbranch(c, then_b, join);
        fb.switch_to(then_b);
        fb.copy(x.clone(), Varnode::constant(2, 4));
        fb.jump(join);
        fb.switch_to(join);
        let t = fb.temp(4);
        fb.emit(Opcode::Copy, Some(t), vec![x]);
        fb.ret();
        fb.finish()
    }

    fn local_x(f: &Function) -> Varnode {
        f.symbols()
            .iter()
            .find(|(_, s)| s.name == "x")
            .map(|(v, _)| v.clone())
            .unwrap()
    }

    #[test]
    fn both_branch_defs_reach_join() {
        let f = diamond();
        let du = DefUse::compute(&f);
        let x = local_x(&f);
        // join block is block 2; the use of x is its first op.
        let defs = du.reaching_defs(
            OpRef {
                block: BlockId(2),
                index: 0,
            },
            &x,
        );
        assert_eq!(defs.len(), 2, "defs from both paths reach the join");
    }

    #[test]
    fn in_block_def_shadows_earlier_ones() {
        let f = diamond();
        let du = DefUse::compute(&f);
        let x = local_x(&f);
        // Inside the then-block, after `x = 2`, only that def reaches.
        let defs = du.reaching_defs(
            OpRef {
                block: BlockId(1),
                index: 1,
            },
            &x,
        );
        assert_eq!(defs.len(), 1);
        assert_eq!(
            defs[0],
            OpRef {
                block: BlockId(1),
                index: 0
            }
        );
    }

    #[test]
    fn no_defs_for_params() {
        let f = diamond();
        let du = DefUse::compute(&f);
        let p = f.params()[0].clone();
        let defs = du.reaching_defs(
            OpRef {
                block: BlockId(0),
                index: 1,
            },
            &p,
        );
        assert!(defs.is_empty(), "parameters have no defining op");
    }

    #[test]
    fn loop_defs_flow_around_back_edge() {
        // x = 0; loop: x = x + 1; if (c) goto loop; use x
        let mut fb = FunctionBuilder::new("g", 0);
        let c = fb.param("c", 4);
        let x = fb.local("x", 4);
        fb.copy(x.clone(), Varnode::constant(0, 4));
        let loop_b = fb.new_block();
        let exit = fb.new_block();
        fb.jump(loop_b);
        fb.switch_to(loop_b);
        let t = fb.add(x.clone(), Varnode::constant(1, 4));
        fb.copy(x.clone(), t);
        let cond = fb.cmp_ne(c, Varnode::constant(0, 4));
        fb.cbranch(cond, loop_b, exit);
        fb.switch_to(exit);
        fb.ret();
        let f = fb.finish();
        let du = DefUse::compute(&f);
        // At the top of the loop body, both the init and the loop def reach.
        let defs = du.reaching_defs(
            OpRef {
                block: BlockId(1),
                index: 0,
            },
            &x,
        );
        assert_eq!(defs.len(), 2);
    }

    #[test]
    fn position_and_counts() {
        let f = diamond();
        let du = DefUse::compute(&f);
        assert!(du.def_count() >= 4);
        let first = f.ops().next().unwrap();
        assert_eq!(
            du.position_of(first.addr),
            Some(OpRef {
                block: BlockId(0),
                index: 0
            })
        );
        assert_eq!(du.position_of(0xdead), None);
        let x = local_x(&f);
        assert_eq!(du.all_defs(&x).len(), 2);
    }

    /// Every query point of every varnode answers identically from the
    /// bitset and reference solvers.
    fn assert_same_analysis(f: &Function) {
        let fast = DefUse::compute(f);
        let slow = ReferenceDefUse::compute(f);
        assert_eq!(fast.def_count(), slow.defs.len());
        let vars: Vec<Varnode> = {
            let mut vs: Vec<Varnode> = f
                .ops()
                .flat_map(|op| op.inputs.iter().cloned().chain(op.output.clone()))
                .collect();
            vs.sort();
            vs.dedup();
            vs
        };
        for (bi, block) in f.blocks().iter().enumerate() {
            for oi in 0..=block.ops.len() {
                let at = OpRef {
                    block: BlockId(bi as u32),
                    index: oi,
                };
                for v in &vars {
                    assert_eq!(
                        fast.reaching_defs(at, v),
                        slow.reaching_defs(at, v),
                        "divergence at {at:?} for {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn bitset_matches_reference_on_branchy_functions() {
        assert_same_analysis(&diamond());
        // Loop shape.
        let mut fb = FunctionBuilder::new("g", 0);
        let c = fb.param("c", 4);
        let x = fb.local("x", 4);
        fb.copy(x.clone(), Varnode::constant(0, 4));
        let loop_b = fb.new_block();
        let exit = fb.new_block();
        fb.jump(loop_b);
        fb.switch_to(loop_b);
        let t = fb.add(x.clone(), Varnode::constant(1, 4));
        fb.copy(x.clone(), t);
        let cond = fb.cmp_ne(c, Varnode::constant(0, 4));
        fb.cbranch(cond, loop_b, exit);
        fb.switch_to(exit);
        fb.ret();
        assert_same_analysis(&fb.finish());
    }

    #[test]
    fn bitset_matches_reference_past_64_defs() {
        // More than 64 definitions forces the multi-word bitset path.
        let mut fb = FunctionBuilder::new("wide", 0);
        let p = fb.param("p", 4);
        let mut locals = Vec::new();
        for i in 0..40 {
            locals.push(fb.local(format!("l{i}"), 4));
        }
        for (i, l) in locals.iter().enumerate() {
            fb.copy(l.clone(), Varnode::constant(i as u64, 4));
        }
        let c = fb.cmp_ne(p, Varnode::constant(0, 4));
        let then_b = fb.new_block();
        let join = fb.new_block();
        fb.cbranch(c, then_b, join);
        fb.switch_to(then_b);
        for (i, l) in locals.iter().enumerate().take(20) {
            fb.copy(l.clone(), Varnode::constant(100 + i as u64, 4));
        }
        fb.jump(join);
        fb.switch_to(join);
        for l in &locals {
            let t = fb.temp(4);
            fb.emit(Opcode::Copy, Some(t), vec![l.clone()]);
        }
        fb.ret();
        let f = fb.finish();
        let du = DefUse::compute(&f);
        assert!(du.def_count() > 64, "need multi-word rows");
        assert_same_analysis(&f);
    }

    #[test]
    fn bitset_matches_reference_on_every_traced_corpus_function() {
        let mut checked = 0;
        for cp in crate::testkit::corpus() {
            for entry in cp.traced_functions() {
                let f = cp.program.function(entry).expect("traced function exists");
                assert_same_analysis(f);
                checked += 1;
            }
        }
        assert!(checked > 0, "no traced function to compare");
    }
}
