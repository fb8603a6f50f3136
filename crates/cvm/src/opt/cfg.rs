//! Small CFG analyses shared by the loop and global passes.

use crate::ir::*;

/// Successor and predecessor lists of a function's blocks, built once
/// per pass and kept current by [`insert_preheader`].
pub(super) struct Cfg {
    pub succs: Vec<Vec<usize>>,
    pub preds: Vec<Vec<usize>>,
}

impl Cfg {
    pub fn new(f: &FuncIr) -> Cfg {
        let n = f.blocks.len();
        let mut cfg = Cfg {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        };
        for (bi, b) in f.blocks.iter().enumerate() {
            for s in b.successors().into_iter().map(|s| s.0 as usize) {
                if s < n && !cfg.succs[bi].contains(&s) {
                    cfg.succs[bi].push(s);
                    cfg.preds[s].push(bi);
                }
            }
        }
        cfg
    }
}

/// Block dominance from gcsnap's Cooper–Harvey–Kennedy tree, numbered in
/// preorder so a query is two comparisons.
///
/// The tree hangs block 0 and every block without a predecessor off the
/// virtual root. A block no root reaches is dominated by every block:
/// the maximal fixpoint of `dom(b) = {b} ∪ ⋂ dom(pred)` leaves it the
/// full set.
pub(super) struct Dominance {
    /// Per block: preorder number in the tree, `u32::MAX` when unreached.
    pre: Vec<u32>,
    /// Per block: size of its dominator subtree.
    size: Vec<u32>,
}

impl Dominance {
    pub fn new(cfg: &Cfg) -> Dominance {
        Self::within(cfg, &vec![true; cfg.succs.len()])
    }

    /// Dominance on the subgraph where `mask` holds: masked blocks are
    /// unreached and ignored as predecessors, so an unreachable edge into
    /// a merge point does not dilute the dominators of the reachable path
    /// (SCCP queries this with its executable-block set).
    pub fn within(cfg: &Cfg, mask: &[bool]) -> Dominance {
        let n = cfg.succs.len();
        let roots: Vec<u32> = (0..n)
            .filter(|&b| mask[0] && (b == 0 || mask[b] && !cfg.preds[b].iter().any(|&p| mask[p])))
            .map(|b| b as u32)
            .collect();
        let tree = gcsnap::dominator_tree(n, &roots, |v| {
            let succs = cfg.succs[v as usize].iter();
            succs.filter(|&&s| mask[s]).map(|&s| s as u32)
        });
        // Fold subtree sizes up (reverse RPO), then hand each block the
        // next free preorder slot under its parent (RPO: parents first).
        // Slot `n` stands for the virtual root.
        let parent = |v: u32| (tree.idom[v as usize] as usize).min(n);
        let mut size = vec![1u32; n + 1];
        for &v in tree.rpo.iter().rev() {
            size[parent(v)] += size[v as usize];
        }
        let (mut pre, mut next) = (vec![u32::MAX; n], vec![0u32; n + 1]);
        for &v in &tree.rpo {
            pre[v as usize] = next[parent(v)];
            next[parent(v)] += size[v as usize];
            next[v as usize] = pre[v as usize] + 1;
        }
        Dominance { pre, size }
    }

    /// Whether every path from a root to `b` passes through `d`.
    pub fn dominates(&self, d: usize, b: usize) -> bool {
        let (pd, pb) = (self.pre[d], self.pre[b]);
        pb == u32::MAX || (pd != u32::MAX && pd <= pb && pb < pd + self.size[d])
    }
}

/// True back edges (latch, header): u→v with v dominating u (switch
/// lowering also produces harmless backward-numbered forward edges).
pub(super) fn back_edges(cfg: &Cfg, dom: &Dominance) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (bi, succs) in cfg.succs.iter().enumerate() {
        for &h in succs {
            if dom.dominates(h, bi) {
                edges.push((bi, h));
            }
        }
    }
    edges.sort();
    edges
}

/// Natural loop of the back edge latch→header: header plus every block
/// that reaches the latch without passing through the header.
pub(super) fn loop_blocks(cfg: &Cfg, latch: usize, header: usize) -> Vec<usize> {
    let n = cfg.preds.len();
    let mut in_loop = vec![false; n];
    in_loop[header] = true;
    let mut work = vec![latch];
    while let Some(b) = work.pop() {
        if in_loop[b] {
            continue;
        }
        in_loop[b] = true;
        work.extend(&cfg.preds[b]);
    }
    (0..n).filter(|&b| in_loop[b]).collect()
}

/// Appends a preheader block holding `instrs` followed by a jump to
/// `header`, and redirects every predecessor of `header` outside
/// `in_loop` to it, in `f` and in `cfg`. Returns the new block's id.
pub(super) fn insert_preheader(
    f: &mut FuncIr,
    cfg: &mut Cfg,
    header: usize,
    in_loop: impl Fn(usize) -> bool,
    mut instrs: Vec<Instr>,
) -> BlockId {
    let pre = f.blocks.len();
    let pre_id = BlockId(pre as u32);
    instrs.push(Instr::Jump {
        target: BlockId(header as u32),
    });
    f.blocks.push(Block { instrs });
    let (outside, inside): (Vec<usize>, Vec<usize>) =
        cfg.preds[header].iter().partition(|&&p| !in_loop(p));
    for &bi in &outside {
        match f.blocks[bi].instrs.last_mut() {
            Some(Instr::Jump { target }) => *target = pre_id,
            Some(Instr::Branch {
                if_true, if_false, ..
            }) => {
                for t in [if_true, if_false] {
                    if t.0 as usize == header {
                        *t = pre_id;
                    }
                }
            }
            _ => unreachable!("a predecessor ends in a jump or branch"),
        }
        cfg.succs[bi].retain(|&s| s != header);
        cfg.succs[bi].push(pre);
    }
    cfg.preds[header] = inside;
    cfg.preds[header].push(pre);
    cfg.preds.push(outside);
    cfg.succs.push(vec![header]);
    pre_id
}
