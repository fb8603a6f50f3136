//! `AsmLiveness::live_after` against a brute-force search over paths:
//! a register is live after an instruction exactly when some path from
//! there reads it before writing it.

use asmpost::peephole::AsmLiveness;
use asmpost::{codegen_program, postprocess, AsmFunc, AsmInstr, Machine, Reg};
use cvm::{compile, CompileOptions};
use std::collections::HashSet;

/// A successor function over instruction positions `(block, index)`.
type Next = fn(&AsmFunc, usize, usize) -> Vec<(usize, usize)>;

/// Control flow as the machine runs it: a `bcc` goes to its target or
/// on, a `ba` to its target, a `ret` nowhere, anything else on — off the
/// end of a block into the next one.
fn next_by_instruction(f: &AsmFunc, b: usize, i: usize) -> Vec<(usize, usize)> {
    let on = if i + 1 < f.blocks[b].instrs.len() {
        (b, i + 1)
    } else {
        (b + 1, 0)
    };
    match f.blocks[b].instrs[i] {
        AsmInstr::Bcc { target, .. } => vec![(target as usize, 0), on],
        AsmInstr::Ba { target } => vec![(target as usize, 0)],
        AsmInstr::Ret => vec![],
        _ => vec![on],
    }
}

/// Control flow as the postprocessor's block-level liveness sees it:
/// straight through a block, then to every `bcc` target in it plus the
/// closing `ba`'s target, or the next block unless it closes with `ba`
/// or `ret`.
fn next_by_block(f: &AsmFunc, b: usize, i: usize) -> Vec<(usize, usize)> {
    let instrs = &f.blocks[b].instrs;
    if i + 1 < instrs.len() {
        return vec![(b, i + 1)];
    }
    let mut out: Vec<(usize, usize)> = instrs
        .iter()
        .filter_map(|ins| match ins {
            AsmInstr::Bcc { target, .. } => Some((*target as usize, 0)),
            _ => None,
        })
        .collect();
    match instrs[i] {
        AsmInstr::Ba { target } => out.push((target as usize, 0)),
        AsmInstr::Ret => {}
        _ => out.push((b + 1, 0)),
    }
    out
}

/// Whether some path leaving instruction `idx` of block `bi` reads `r`
/// before writing it: a depth-first search over instruction positions.
fn read_before_written(f: &AsmFunc, next: Next, bi: usize, idx: usize, r: Reg) -> bool {
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut work = next(f, bi, idx);
    while let Some((b, i)) = work.pop() {
        if b >= f.blocks.len() || !seen.insert((b, i)) {
            continue;
        }
        let Some(ins) = f.blocks[b].instrs.get(i) else {
            work.push((b + 1, 0)); // an empty block falls through
            continue;
        };
        if ins.reads().contains(&r) {
            return true;
        }
        if ins.writes() != Some(r) {
            work.extend(next(f, b, i));
        }
    }
    false
}

/// Compares `live_after` with the path search at every instruction for
/// every register the function mentions: equal over the block-level
/// flow the analysis models, and never dead where the machine's own
/// flow can still read the register.
fn check(f: &AsmFunc, what: &str) {
    let lv = AsmLiveness::compute(f);
    let mut regs: Vec<Reg> = f
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .flat_map(|i| i.reads().into_iter().chain(i.writes()))
        .collect();
    regs.sort_by_key(|r| r.0);
    regs.dedup();
    for (bi, b) in f.blocks.iter().enumerate() {
        for idx in 0..b.instrs.len() {
            for &r in &regs {
                let live = lv.live_after(f, bi, idx, r);
                assert_eq!(
                    live,
                    read_before_written(f, next_by_block, bi, idx, r),
                    "{what}: is %r{} live after .LB{bi}[{idx}]?\n{}",
                    r.0,
                    f.listing()
                );
                assert!(
                    live || !read_before_written(f, next_by_instruction, bi, idx, r),
                    "{what}: %r{} is read after .LB{bi}[{idx}] but reported dead\n{}",
                    r.0,
                    f.listing()
                );
            }
        }
    }
}

/// Checks the codegen output of `src` under `opts` on all three
/// machines, before and after the postprocessor.
fn check_program(src: &str, opts: &CompileOptions, label: &str) {
    let prog = compile(src, opts).unwrap_or_else(|e| panic!("{label}: {e}"));
    for machine in Machine::all() {
        for mut f in codegen_program(&prog, &machine) {
            let what = format!("{label} {} {}", machine.name, f.name);
            check(&f, &what);
            postprocess(&mut f);
            check(&f, &format!("{what} postprocessed"));
        }
    }
}

#[test]
fn live_after_matches_path_search_on_workloads() {
    let modes = [
        ("O", CompileOptions::optimized()),
        ("O-safe", CompileOptions::optimized_safe()),
        ("g", CompileOptions::debug()),
        ("g-checked", CompileOptions::debug_checked()),
    ];
    for w in workloads::all() {
        for (mode, opts) in &modes {
            check_program(w.source, opts, &format!("{} {mode}", w.name));
        }
    }
}

#[test]
fn live_after_matches_path_search_on_generated_programs() {
    for seed in 1..=3 {
        for case in 0..40 {
            let src = gcfuzz::gen::generate(seed, case);
            let label = format!("gcfuzz seed {seed} case {case}");
            check_program(&src, &CompileOptions::optimized_safe(), &label);
        }
    }
}
