//! The pipeline called one layer at a time, with a span around each call.
//!
//! The traced run cannot time the layers inside `gc_safety::measure_source`
//! or `gcfuzz::check` from outside, so it repeats their work through each
//! layer's public function instead: `cfront::parse`, `cfront::analyze`,
//! `gcsafe::annotate`, `cvm::lower`, `cvm::opt::optimize_func_ledger`,
//! `cvm::verify_program`, `cvm::run_compiled`, `asmpost::codegen_func`,
//! `asmpost::postprocess` and `asmpost::measure` (the per-function forms
//! of `codegen_program` and `postprocess_program`, so each span knows
//! the size of the function it worked on).
//!
//! The compilation cache is mirrored by [`Memo`]: the untraced pipeline
//! serves `-O, safe+post` from the `-O, safe` compile and code-generator
//! output, so the traced one reuses them too, inside a `gccache` span.

use crate::spans::Recorder;
use asmpost::{AsmFunc, CostReport, Machine};
use cvm::{CompileOptions, ExecOutcome, ProgramIr, VmError, VmOptions};
use gc_safety::Mode;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Work counts recorded at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// IR instructions out of `cvm::lower`.
    pub ir_instrs: u64,
    /// `KEEP_LIVE` and `GC_same_obj` wraps the annotator inserted.
    pub annot_wraps: u64,
    /// Optimizer fixpoint sweeps.
    pub opt_sweeps: u64,
    /// Optimizer pass fires.
    pub opt_fires: u64,
    /// Assembly instructions out of the code generator.
    pub asm_instrs: u64,
    /// Registers the allocator spilled.
    pub spills: u64,
    /// Assembly instructions into the peephole postprocessor.
    pub peephole_instrs: u64,
    /// Peephole rewrites applied.
    pub peephole_rewrites: u64,
    /// VM instructions executed.
    pub vm_steps: u64,
    /// Collections.
    pub gc_collections: u64,
    /// Successful allocations.
    pub gc_allocations: u64,
    /// `GC_same_obj` checks executed.
    pub same_obj_checks: u64,
}

/// A compiled program with the lowered size of each function.
#[derive(Clone)]
pub struct Build {
    /// The optimized IR.
    pub ir: ProgramIr,
    /// IR instructions of each function right after lowering.
    pub sizes: Vec<usize>,
}

/// The last compile and its per-machine code-generator output, keyed by
/// source text and options — the slice of `gccache` one op can hit.
#[derive(Default)]
pub struct Memo {
    key: Option<(u64, CompileOptions)>,
    build: Option<Build>,
    asm: Vec<Option<Vec<AsmFunc>>>,
}

fn fingerprint(source: &str) -> u64 {
    let mut h = DefaultHasher::new();
    source.hash(&mut h);
    h.finish()
}

fn asm_instrs(f: &AsmFunc) -> u64 {
    f.blocks.iter().map(|b| b.instrs.len() as u64).sum()
}

/// Compiles `source` layer by layer (or takes it from `memo`).
///
/// # Errors
///
/// A rendered front-end or lowering error.
pub fn build(
    rec: &mut Recorder,
    memo: &mut Memo,
    counts: &mut Counts,
    source: &str,
    opts: &CompileOptions,
) -> Result<Build, String> {
    let parsed = rec.span("cfront.parse", 0, || cfront::parse(source));
    let mut program = parsed.map_err(|e| e.render(source))?;
    let key = (fingerprint(source), opts.clone());
    if memo.key.as_ref() == Some(&key) {
        if let Some(b) = rec.span("gccache", 0, || memo.build.clone()) {
            return Ok(b);
        }
    }
    let sema = match &opts.annotate {
        Some(cfg) => {
            let sema = rec.span("cfront.sema", 0, || cfront::analyze(&mut program));
            let sema = sema.map_err(|e| e.render(source))?;
            let result = rec.span("gcsafe.annotate", 0, || {
                let r = gcsafe::annotate(&mut program, &sema, cfg);
                // The memoized annotator also renders the preprocessor's
                // output text; do the same work here.
                let text = r.edits.apply(source);
                (r, text)
            });
            let (result, text) = result;
            text.map_err(|e| format!("edit application: {e}"))?;
            counts.annot_wraps += (result.stats.keep_lives + result.stats.checks) as u64;
            let sema = rec.span("cfront.sema", 0, || cfront::analyze(&mut program));
            sema.map_err(|e| e.render(source))?
        }
        None => {
            let sema = rec.span("cfront.sema", 0, || cfront::analyze(&mut program));
            sema.map_err(|e| e.render(source))?
        }
    };
    let lowered = rec.span("cvm.lower", 0, || cvm::lower(&program, &sema, opts.lower));
    let mut ir = lowered.map_err(|e| e.to_string())?;
    let sizes: Vec<usize> = ir.funcs.iter().map(cvm::FuncIr::instr_count).collect();
    counts.ir_instrs += sizes.iter().sum::<usize>() as u64;
    if opts.opt.enabled {
        for (f, &size) in ir.funcs.iter_mut().zip(&sizes) {
            let ledger = rec.span("cvm.opt", size, || cvm::optimize_func_ledger(f, opts.opt));
            counts.opt_sweeps += ledger.sweeps as u64;
            counts.opt_fires += ledger.fires.iter().map(|(_, n)| *n as u64).sum::<u64>();
        }
    }
    let b = Build { ir, sizes };
    rec.span("gccache", 0, || {
        memo.key = Some(key);
        memo.build = Some(b.clone());
        memo.asm = vec![None; Machine::all().len()];
    });
    Ok(b)
}

/// Runs `ir` under the VM in a `cvm.vm` span, with the collector's
/// reported pause time as its `gcheap` child.
///
/// # Errors
///
/// The VM's error.
pub fn run(
    rec: &mut Recorder,
    counts: &mut Counts,
    ir: &ProgramIr,
    opts: &VmOptions,
) -> Result<ExecOutcome, VmError> {
    let id = rec.open("cvm.vm", 0);
    let r = cvm::run_compiled(ir, opts);
    rec.close(id);
    if let Ok(o) = &r {
        rec.reported_child(id, "gcheap", o.heap.total_pause_ns);
        counts.vm_steps += o.steps;
        counts.gc_collections += o.heap.collections;
        counts.gc_allocations += o.heap.allocations;
        counts.same_obj_checks += o.heap.same_obj_checks;
    }
    r
}

/// Costs `asm` against `outcome`'s block profile in an `asmpost.cost` span.
pub fn cost(
    rec: &mut Recorder,
    asm: &[AsmFunc],
    outcome: &ExecOutcome,
    machine: &Machine,
) -> CostReport {
    rec.span("asmpost.cost", 0, || {
        asmpost::measure(asm, &outcome.profile, machine)
    })
}

/// The work of `gc_safety::measure_source(source, input, mode)`, one
/// layer at a time. Returns the run's outcome and the cost per machine
/// (in `Machine::all` order; empty when the run failed).
///
/// # Errors
///
/// A build failure.
pub fn measure_source(
    rec: &mut Recorder,
    memo: &mut Memo,
    counts: &mut Counts,
    source: &str,
    input: &[u8],
    mode: Mode,
) -> Result<(Result<ExecOutcome, VmError>, Vec<CostReport>), String> {
    let b = build(rec, memo, counts, source, &mode.compile_options())?;
    let vm_opts = VmOptions {
        input: input.to_vec(),
        ..VmOptions::default()
    };
    let outcome = run(rec, counts, &b.ir, &vm_opts);
    let mut costs = Vec::new();
    for (mi, machine) in Machine::all().iter().enumerate() {
        let cached = rec.span("gccache", 0, || memo.asm.get(mi).cloned().flatten());
        let mut asm = match cached {
            Some(asm) => asm,
            None => {
                let asm: Vec<AsmFunc> =
                    b.ir.funcs
                        .iter()
                        .zip(&b.sizes)
                        .map(|(f, &size)| {
                            rec.span("asmpost.codegen", size, || {
                                asmpost::codegen_func(f, machine)
                            })
                        })
                        .collect();
                counts.asm_instrs += asm.iter().map(asm_instrs).sum::<u64>();
                counts.spills += asm.iter().map(|f| u64::from(f.spill_count)).sum::<u64>();
                rec.span("gccache", 0, || {
                    if let Some(slot) = memo.asm.get_mut(mi) {
                        *slot = Some(asm.clone());
                    }
                });
                asm
            }
        };
        if matches!(mode, Mode::O | Mode::OSafePost) {
            for (f, &size) in asm.iter_mut().zip(&b.sizes) {
                counts.peephole_instrs += asm_instrs(f);
                let stats = rec.span("asmpost.peephole", size, || asmpost::postprocess(f));
                counts.peephole_rewrites += stats.total() as u64;
            }
        }
        if let Ok(out) = &outcome {
            costs.push(cost(rec, &asm, out, machine));
        }
    }
    Ok((outcome, costs))
}

fn fuzz_vm() -> VmOptions {
    VmOptions {
        max_steps: gcfuzz::oracle::MAX_STEPS,
        ..VmOptions::default()
    }
}

/// The work of `gcfuzz::check(source)`, one layer at a time: per mode a
/// build, the verifier on annotated builds, two runs (the first
/// profiled) and, for the safe modes, the paranoid and bounded-paranoid
/// collector runs.
///
/// # Errors
///
/// The first disagreement, in the oracle's mode order.
pub fn fuzz_check(
    rec: &mut Recorder,
    memo: &mut Memo,
    counts: &mut Counts,
    source: &str,
) -> Result<(), String> {
    let mut baseline: Option<(i64, Vec<u8>)> = None;
    for mode in Mode::all() {
        let opts = mode.compile_options();
        let b = build(rec, memo, counts, source, &opts)?;
        if opts.annotate.is_some() {
            let violations = rec.span("cvm.verify", 0, || cvm::verify_program(&b.ir, false));
            if let Some(v) = violations.first() {
                return Err(format!("[{}] verifier: {v}", mode.label()));
            }
        }
        let profiled = VmOptions {
            prof: gc_safety::ProfHandle::enabled(),
            ..fuzz_vm()
        };
        let r1 =
            run(rec, counts, &b.ir, &profiled).map_err(|e| format!("[{}] {e}", mode.label()))?;
        let r2 =
            run(rec, counts, &b.ir, &fuzz_vm()).map_err(|e| format!("[{}] {e}", mode.label()))?;
        if (r2.exit_code, &r2.output, &r2.profile.block_counts)
            != (r1.exit_code, &r1.output, &r1.profile.block_counts)
        {
            return Err(format!("[{}] two identical runs disagreed", mode.label()));
        }
        if mode.is_safe() {
            let paranoid = gcheap::HeapConfig {
                gc_threshold: 1,
                ..gcheap::HeapConfig::default()
            };
            let bounded = gcheap::HeapConfig {
                gc_threshold: 1,
                mark_budget_bytes: 64,
                ..gcheap::HeapConfig::bounded_pause()
            };
            for heap_config in [paranoid, bounded] {
                let opts = VmOptions {
                    heap_config,
                    snapshot_oracle: true,
                    ..fuzz_vm()
                };
                let rp = run(rec, counts, &b.ir, &opts)
                    .map_err(|e| format!("[{}] paranoid: {e}", mode.label()))?;
                if (rp.exit_code, &rp.output) != (r1.exit_code, &r1.output) {
                    return Err(format!("[{}] paranoid run differs", mode.label()));
                }
            }
        }
        match &baseline {
            None => baseline = Some((r1.exit_code, r1.output)),
            Some(base) if *base != (r1.exit_code, r1.output) => {
                return Err(format!("[{}] differs from -O", mode.label()));
            }
            Some(_) => {}
        }
    }
    Ok(())
}
