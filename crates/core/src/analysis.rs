//! The one control-flow and dataflow core the verifier and the
//! optimizer share.
//!
//! Everything that walks an action body's control flow comes from
//! here: the successor function ([`succs`]), basic-block leaders
//! ([`leaders`]), instruction reachability ([`reachable`]), the
//! block-level [`Cfg`] (reverse postorder, Cooper–Harvey–Kennedy
//! immediate dominators, natural loops and what each loop defines),
//! one forward solver ([`solve_forward`]) and one backward solver
//! ([`solve_backward`]) over the small [`Lattice`] trait. The
//! verifier's abstract state, the optimizer's constant and guard-fact
//! states and its liveness are instances of that trait; this is the
//! shape of SNIPPETS.md #1, where dataflow *checks* run in the same
//! driver as the rewrites.
//!
//! Both solvers run to a true fixpoint and keep no iteration cap:
//! every update meets the new value into the old one, so a block's
//! state only ever descends, and each lattice has finite height.

use crate::bytecode::Insn;
use crate::ctxt::FieldId;
use std::ops::Range;

/// The successors of instruction `pc`, as `[jump, fall-through]`: the
/// in-range target of a jump, and `pc + 1` when control can fall
/// through to an instruction that exists. At most two, no allocation.
pub(crate) fn succs(code: &[Insn], pc: usize) -> [Option<usize>; 2] {
    let n = code.len();
    let next = (pc + 1 < n).then_some(pc + 1);
    match code[pc] {
        Insn::Jmp { target } => [(target < n).then_some(target), None],
        Insn::JmpIf { target, .. } | Insn::JmpIfImm { target, .. } => {
            [(target < n).then_some(target), next]
        }
        Insn::Exit | Insn::TailCall { .. } => [None, None],
        _ => [None, next],
    }
}

/// Whether control continues past `insn` to the next instruction
/// (everything but terminators and unconditional jumps). At the last
/// instruction of a body this means falling off its end.
pub(crate) fn falls_through(insn: &Insn) -> bool {
    !insn.is_terminator() && !matches!(insn, Insn::Jmp { .. })
}

/// Marks basic-block leaders: instruction 0, every jump target, and
/// every instruction following a jump or terminator.
pub(crate) fn leaders(code: &[Insn]) -> Vec<bool> {
    let mut lead = vec![false; code.len()];
    if let Some(first) = lead.first_mut() {
        *first = true;
    }
    for (pc, insn) in code.iter().enumerate() {
        if insn.jump_target().is_some() || insn.is_terminator() {
            if let Some(next) = lead.get_mut(pc + 1) {
                *next = true;
            }
            if let [Some(t), _] = succs(code, pc) {
                lead[t] = true;
            }
        }
    }
    lead
}

/// Which instructions control can reach from instruction 0.
pub(crate) fn reachable(code: &[Insn]) -> Vec<bool> {
    let mut seen = vec![false; code.len()];
    let mut stack = Vec::new();
    if !code.is_empty() {
        stack.push(0);
    }
    while let Some(pc) = stack.pop() {
        if !seen[pc] {
            seen[pc] = true;
            stack.extend(succs(code, pc).into_iter().flatten());
        }
    }
    seen
}

/// Scalar registers an instruction may define, as a bitmask —
/// including the fixed `r0`/`r1` clobbers of map mutations, helper
/// calls, and ML calls. The optimizer's kill rules and loop widening
/// read it.
pub(crate) fn def_mask(insn: &Insn) -> u16 {
    match insn {
        Insn::LdImm { dst, .. }
        | Insn::Mov { dst, .. }
        | Insn::Alu { dst, .. }
        | Insn::AluImm { dst, .. }
        | Insn::LdCtxt { dst, .. }
        | Insn::MapLookup { dst, .. }
        | Insn::ScalarVal { dst, .. }
        | Insn::DpAggregate { dst, .. } => 1u16 << dst.0.min(15),
        Insn::MapUpdate { .. } | Insn::MapDelete { .. } | Insn::Call { .. } => 1,
        Insn::CallMl { .. } => 0b11,
        _ => 0,
    }
}

/// What a loop defines: the registers its instructions may write
/// ([`def_mask`]) and the context fields it stores. A forward analysis
/// widens these where control enters the loop.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct LoopDefs {
    /// Register def mask across the loop.
    pub(crate) regs: u16,
    /// Fields stored anywhere in the loop.
    pub(crate) fields: Vec<FieldId>,
}

/// A dataflow state. The solver a caller picks decides the direction
/// `step` runs in.
pub(crate) trait Lattice: Clone {
    /// Meets `other` into `self`, keeping what holds on both paths;
    /// returns whether `self` changed.
    fn meet(&mut self, other: &Self) -> bool;
    /// The transfer function of one instruction.
    fn step(&mut self, insn: &Insn);
    /// Refines the state leaving a block whose last instruction is
    /// `last`, along its jump edge (`taken`) or its fall-through edge.
    fn edge(&mut self, _last: &Insn, _taken: bool) {}
    /// Widens the state entering a loop header by what the loop
    /// defines. A lattice of finite height may leave this out: the
    /// solver then meets the back edges to the exact fixpoint.
    fn widen(&mut self, _defs: &LoopDefs) {}
}

/// Basic-block view of an action body: block boundaries from
/// [`leaders`], predecessor edges, reverse postorder from the entry,
/// immediate dominators (the iterative Cooper–Harvey–Kennedy scheme —
/// fine at action-body sizes), and the natural loops.
///
/// A back edge is an edge whose target dominates its source; the
/// natural loop of a header is the header plus everything that reaches
/// one of its back-edge sources without passing through the header.
/// An irreducible cycle (entered at more than one block, so no block
/// dominates the others) has no natural loop: a block that a
/// retreating edge enters without dominating its source widens by
/// every register and every field the body stores.
pub(crate) struct Cfg {
    /// Start instruction of each block, ascending.
    starts: Vec<usize>,
    /// Block index of every instruction.
    block_of: Vec<usize>,
    /// Block `b`'s predecessors are `preds[pred_at[b]..pred_at[b + 1]]`,
    /// ascending and deduplicated.
    pred_at: Vec<usize>,
    preds: Vec<usize>,
    /// Blocks reachable from block 0, in reverse postorder.
    rpo: Vec<usize>,
    /// `rpo_pos[b]` = position of `b` in `rpo`; `usize::MAX` when
    /// unreachable.
    rpo_pos: Vec<usize>,
    /// Immediate dominator of each reachable block (`idom[0] == 0`);
    /// `usize::MAX` for unreachable blocks.
    idom: Vec<usize>,
    /// Loop headers and irreducible entries, ascending, with what they
    /// widen by.
    loops: Vec<(usize, LoopDefs)>,
}

impl Cfg {
    pub(crate) fn build(code: &[Insn]) -> Cfg {
        let lead = leaders(code);
        let mut starts = Vec::new();
        let mut block_of = vec![0usize; code.len()];
        for (pc, b) in block_of.iter_mut().enumerate() {
            if lead[pc] {
                starts.push(pc);
            }
            *b = starts.len() - 1;
        }
        let nb = starts.len();
        let end = |b: usize| starts.get(b + 1).copied().unwrap_or(code.len());
        // Successor blocks of block `b`, deduplicated.
        let block_succs = |b: usize| {
            let [jump, fall] = succs(code, end(b) - 1).map(|s| s.map(|pc| block_of[pc]));
            [jump, fall.filter(|&f| Some(f) != jump)]
        };
        let mut pred_at = vec![0usize; nb + 1];
        for b in 0..nb {
            for s in block_succs(b).into_iter().flatten() {
                pred_at[s + 1] += 1;
            }
        }
        for b in 0..nb {
            pred_at[b + 1] += pred_at[b];
        }
        let mut fill = pred_at.clone();
        let mut preds = vec![0usize; pred_at[nb]];
        for b in 0..nb {
            for s in block_succs(b).into_iter().flatten() {
                preds[fill[s]] = b;
                fill[s] += 1;
            }
        }
        // Reverse postorder via an iterative DFS from the entry.
        let mut rpo = Vec::with_capacity(nb);
        let mut seen = vec![false; nb];
        if nb > 0 {
            let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
            seen[0] = true;
            while let Some(top) = stack.last_mut() {
                let b = top.0;
                let next = block_succs(b).get(top.1).copied();
                match next {
                    Some(s) => {
                        top.1 += 1;
                        if let Some(s) = s.filter(|&s| !seen[s]) {
                            seen[s] = true;
                            stack.push((s, 0));
                        }
                    }
                    None => {
                        rpo.push(b);
                        stack.pop();
                    }
                }
            }
            rpo.reverse();
        }
        let mut rpo_pos = vec![usize::MAX; nb];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = i;
        }
        let mut cfg = Cfg {
            starts,
            block_of,
            pred_at,
            preds,
            rpo,
            rpo_pos,
            idom: vec![usize::MAX; nb],
            loops: Vec::new(),
        };
        cfg.compute_idoms();
        for h in 0..nb {
            let mut natural = false;
            let mut irreducible = false;
            for &p in cfg.preds(h) {
                if cfg.dominates(h, p) {
                    natural = true;
                } else if cfg.is_reachable(p) && cfg.rpo_pos[p] >= cfg.rpo_pos[h] {
                    irreducible = true;
                }
            }
            if irreducible {
                // An irreducible cycle has no header to take a natural
                // loop from: its entries widen by every register and
                // every field the body stores.
                let mut all = cfg.defs_of(code, 0..nb);
                all.regs = u16::MAX;
                cfg.loops.push((h, all));
            } else if natural {
                let defs = cfg.defs_of(code, cfg.loop_blocks(h));
                cfg.loops.push((h, defs));
            }
        }
        cfg
    }

    /// Immediate dominators, iterated to fixpoint over RPO.
    fn compute_idoms(&mut self) {
        if self.rpo.is_empty() {
            return;
        }
        self.idom[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in self.rpo.iter().skip(1) {
                let mut new_idom = usize::MAX;
                for &p in self.preds(b) {
                    if self.idom[p] == usize::MAX {
                        continue;
                    }
                    new_idom = if new_idom == usize::MAX {
                        p
                    } else {
                        self.intersect(p, new_idom)
                    };
                }
                if new_idom != usize::MAX && self.idom[b] != new_idom {
                    self.idom[b] = new_idom;
                    changed = true;
                }
            }
        }
    }

    /// Nearest common dominator of `a` and `b` (CHK walk).
    fn intersect(&self, mut a: usize, mut b: usize) -> usize {
        while a != b {
            while self.rpo_pos[a] > self.rpo_pos[b] {
                a = self.idom[a];
            }
            while self.rpo_pos[b] > self.rpo_pos[a] {
                b = self.idom[b];
            }
        }
        a
    }

    /// Whether block `a` dominates block `b`.
    fn dominates(&self, a: usize, b: usize) -> bool {
        if self.rpo_pos[b] == usize::MAX || self.rpo_pos[a] == usize::MAX {
            return false;
        }
        let mut x = b;
        loop {
            if x == a {
                return true;
            }
            if x == 0 || self.idom[x] == usize::MAX {
                return false;
            }
            x = self.idom[x];
        }
    }

    fn preds(&self, b: usize) -> &[usize] {
        &self.preds[self.pred_at[b]..self.pred_at[b + 1]]
    }

    /// The natural loop of header `h`: `h` plus every block reaching a
    /// back-edge source of `h` without passing through `h`.
    fn loop_blocks(&self, h: usize) -> Vec<usize> {
        let mut inl = vec![false; self.len()];
        inl[h] = true;
        let mut out = vec![h];
        let mut stack: Vec<usize> = self
            .preds(h)
            .iter()
            .copied()
            .filter(|&p| self.dominates(h, p))
            .collect();
        while let Some(b) = stack.pop() {
            if inl[b] {
                continue;
            }
            inl[b] = true;
            out.push(b);
            stack.extend(self.preds(b).iter().filter(|&&p| !inl[p]));
        }
        out
    }

    /// What `blocks` define.
    fn defs_of(&self, code: &[Insn], blocks: impl IntoIterator<Item = usize>) -> LoopDefs {
        let mut defs = LoopDefs::default();
        for b in blocks {
            for insn in &code[self.range_in(b, code.len())] {
                defs.regs |= def_mask(insn);
                if let Insn::StCtxt { field, .. } = insn {
                    if !defs.fields.contains(field) {
                        defs.fields.push(*field);
                    }
                }
            }
        }
        defs
    }

    fn range_in(&self, b: usize, code_len: usize) -> Range<usize> {
        self.starts[b]..self.starts.get(b + 1).copied().unwrap_or(code_len)
    }

    /// Number of blocks.
    pub(crate) fn len(&self) -> usize {
        self.starts.len()
    }

    /// The instructions of block `b`.
    pub(crate) fn range(&self, b: usize) -> Range<usize> {
        self.range_in(b, self.block_of.len())
    }

    /// The block holding instruction `pc`.
    pub(crate) fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// Whether control can reach block `b` from the entry.
    pub(crate) fn is_reachable(&self, b: usize) -> bool {
        self.rpo_pos[b] != usize::MAX
    }

    /// What block `b` widens by, when it is a loop header or an
    /// irreducible entry.
    fn loop_at(&self, b: usize) -> Option<&LoopDefs> {
        self.loops
            .binary_search_by_key(&b, |&(h, _)| h)
            .ok()
            .map(|i| &self.loops[i].1)
    }
}

/// The forward fixpoint: the in-state of every block reachable from
/// the entry (`None` for unreachable blocks), starting from `entry` at
/// block 0. A block's in-state is the meet of the states its
/// predecessors send along each edge ([`Lattice::edge`]), widened at
/// loop headers ([`Lattice::widen`]). Back edges are met like any
/// other edge: on a reducible CFG the header widening makes that meet
/// a no-op, and without widening it is what reaches the exact
/// fixpoint on any CFG.
pub(crate) fn solve_forward<L: Lattice>(code: &[Insn], cfg: &Cfg, entry: L) -> Vec<Option<L>> {
    let mut ins: Vec<Option<L>> = vec![None; cfg.len()];
    let mut dirty = vec![false; cfg.len()];
    if cfg.len() == 0 {
        return ins;
    }
    // Meets `incoming` into block `b`'s in-state; marks `b` for a
    // revisit when that changed it.
    let merge = |ins: &mut Vec<Option<L>>, dirty: &mut Vec<bool>, b: usize, mut incoming: L| {
        if let Some(defs) = cfg.loop_at(b) {
            incoming.widen(defs);
        }
        let changed = match &mut ins[b] {
            Some(old) => old.meet(&incoming),
            slot => {
                *slot = Some(incoming);
                true
            }
        };
        dirty[b] |= changed;
    };
    merge(&mut ins, &mut dirty, 0, entry);
    let mut any = true;
    while any {
        any = false;
        for &b in &cfg.rpo {
            if !std::mem::take(&mut dirty[b]) {
                continue;
            }
            any = true;
            let mut st = ins[b].clone().expect("a dirty block has a state");
            let range = cfg.range(b);
            let last = range.end - 1;
            for insn in &code[range] {
                st.step(insn);
            }
            let [jump, fall] = succs(code, last);
            if let Some(t) = jump {
                let mut taken = st.clone();
                taken.edge(&code[last], true);
                merge(&mut ins, &mut dirty, cfg.block_of[t], taken);
            }
            if let Some(f) = fall {
                st.edge(&code[last], false);
                merge(&mut ins, &mut dirty, cfg.block_of[f], st);
            }
        }
    }
    ins
}

/// The backward fixpoint at instruction granularity: the out-state of
/// every instruction, the meet of its successors' in-states (the
/// default state where control leaves the body).
pub(crate) fn solve_backward<L: Lattice + Default>(code: &[Insn]) -> Vec<L> {
    let mut ins = vec![L::default(); code.len()];
    let mut outs = ins.clone();
    let mut stable = false;
    // The sweep that changes nothing computed every out-state from
    // final in-states.
    while !stable {
        stable = true;
        for pc in (0..code.len()).rev() {
            let mut st = L::default();
            for s in succs(code, pc).into_iter().flatten() {
                st.meet(&ins[s]);
            }
            outs[pc] = st.clone();
            st.step(&code[pc]);
            stable &= !ins[pc].meet(&st);
        }
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{CmpOp, Reg};

    fn br(target: usize) -> Insn {
        Insn::JmpIfImm {
            cmp: CmpOp::Eq,
            lhs: Reg(0),
            imm: 0,
            target,
        }
    }

    fn ld(r: u8) -> Insn {
        Insn::LdImm {
            dst: Reg(r),
            imm: 1,
        }
    }

    #[test]
    fn succs_are_jump_then_fall_through() {
        let code = vec![br(2), Insn::Jmp { target: 0 }, ld(0), Insn::Exit, ld(1)];
        assert_eq!(succs(&code, 0), [Some(2), Some(1)]);
        assert_eq!(succs(&code, 1), [Some(0), None]);
        assert_eq!(succs(&code, 2), [None, Some(3)]);
        assert_eq!(succs(&code, 3), [None, None]);
        // The last instruction falls off the end: no successor.
        assert_eq!(succs(&code, 4), [None, None]);
        assert!(falls_through(&code[4]));
        assert_eq!(reachable(&code), vec![true, true, true, true, false]);
    }

    /// Registers known defined on every path (meet = intersection),
    /// with or without loop widening.
    #[derive(Clone, Debug, PartialEq)]
    struct Defined {
        regs: u16,
        widens: bool,
    }

    impl Lattice for Defined {
        fn meet(&mut self, other: &Self) -> bool {
            let old = self.regs;
            self.regs &= other.regs;
            self.regs != old
        }
        fn step(&mut self, insn: &Insn) {
            self.regs |= def_mask(insn);
        }
        fn widen(&mut self, defs: &LoopDefs) {
            if self.widens {
                self.regs &= !defs.regs;
            }
        }
    }

    fn solve(code: &[Insn], widens: bool) -> impl Fn(usize) -> Option<u16> {
        let cfg = Cfg::build(code);
        let ins = solve_forward(code, &cfg, Defined { regs: 0, widens });
        move |pc| ins[cfg.block_of(pc)].as_ref().map(|d| d.regs)
    }

    #[test]
    fn forward_solver_meets_joins_and_widens_loop_headers() {
        // 0: ld r1; 1: br 3; 2: ld r2; 3: ld r3 (header); 4: br 3; 5: exit
        let code = vec![ld(1), br(3), ld(2), ld(3), br(3), Insn::Exit];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.loop_at(cfg.block_of(3)).map(|d| d.regs), Some(0b1000));
        // r2 is set on one arm only; r3 is defined inside the loop.
        let at = solve(&code, true);
        assert_eq!(at(3), Some(0b10));
        assert_eq!(at(5), Some(0b1010));
        // Without widening the back edge is met: same answer.
        assert_eq!(solve(&code, false)(3), Some(0b10));
    }

    #[test]
    fn irreducible_entries_widen_everything_and_exact_solves_meet() {
        // The cycle {2, 3} is entered at both blocks: 0 -> 3 by the
        // branch, 0 -> 2 by falling through.
        // 0: ld r1; 1: br 3; 2: ld r2; 3: br 2; 4: exit
        let code = vec![ld(1), br(3), ld(2), br(2), Insn::Exit];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.loop_at(cfg.block_of(3)).map(|d| d.regs), Some(u16::MAX));
        assert_eq!(solve(&code, true)(4), Some(0));
        let exact = solve(&code, false);
        assert_eq!([exact(2), exact(3), exact(4)], [Some(0b10); 3]);
    }

    /// Registers possibly read later (meet = union).
    #[derive(Clone, Debug, Default, PartialEq)]
    struct Read(u16);

    impl Lattice for Read {
        fn meet(&mut self, other: &Self) -> bool {
            let old = self.0;
            self.0 |= other.0;
            self.0 != old
        }
        fn step(&mut self, insn: &Insn) {
            self.0 &= !def_mask(insn);
            if let Insn::JmpIfImm { lhs, .. } = insn {
                self.0 |= 1 << lhs.0;
            }
        }
    }

    #[test]
    fn backward_solver_carries_reads_around_back_edges() {
        // 0: ld r0; 1: br 0 (reads r0); 2: exit
        let code = vec![ld(0), br(0), Insn::Exit];
        let outs = solve_backward::<Read>(&code);
        assert_eq!(outs[0], Read(1));
        assert_eq!(outs[1], Read(0));
        assert_eq!(outs[2], Read(0));
    }
}
