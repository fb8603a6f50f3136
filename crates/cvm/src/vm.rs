//! The executing virtual machine.
//!
//! Runs IR against the simulated address space with the conservative
//! collector attached. Collections are triggered inside allocation
//! builtins (the call-site model); the roots at a collection are:
//!
//! * the globals region and the live portion of the stack (frame slots),
//!   scanned conservatively word-by-word, and
//! * per suspended frame, exactly the temps *live across the active call*
//!   — the VM's "registers".
//!
//! Dead temps are not roots. That is what makes the paper's disguised-
//! pointer hazard reproducible: optimize away the last live copy of a
//! pointer and the object really is collected under your feet.
//!
//! Each run first decodes every function into one flat array of `Copy`
//! ops: blocks concatenated, jump targets resolved to a pc plus the
//! block index they count, operands resolved to frame slots (immediates
//! get slots of their own after the temps). Each call op names a call
//! site that carries its argument slots and its GC-root slots — the
//! temps [`crate::liveness::gc_root_maps`] finds live across it. All
//! frames share one register stack; a call appends the callee's slots
//! and writes the arguments straight into them. The collector asks for
//! roots only when an allocation runs collector work, and the root walk
//! then reads each frame's roots from the call site it is suspended at.
//!
//! The decoded form changes how fast the VM runs, never what it
//! reports: block counts, builtin counts, steps, output, errors and
//! collector statistics are those of executing the IR one instruction
//! at a time (`tests/vm_pin.rs` pins them).

use crate::ir::*;
use crate::liveness::for_each_gc_point;
use cfront::sema::Builtin;
use gcheap::{GcHeap, HeapConfig, HeapStats, MemFault, Memory, RootSet, GLOBAL_BASE, HEAP_BASE};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Collector configuration.
    pub heap_config: HeapConfig,
    /// Bytes served to `getchar`.
    pub input: Vec<u8>,
    /// Instruction budget (guards against runaway programs).
    pub max_steps: u64,
    /// Trap loads/stores that hit heap addresses outside any allocated
    /// object (observes premature collection deterministically).
    pub trap_uaf: bool,
    /// The Extensions-section dynamic check: verify that every pointer
    /// stored into the heap or statics is an object *base* (required by
    /// [`gcheap::PointerPolicy::InteriorFromRootsOnly`]).
    pub check_base_stores: bool,
    /// Heap region size in bytes.
    pub heap_bytes: usize,
    /// Stack region size in bytes.
    pub stack_bytes: usize,
    /// Trace sink shared with the attached collector: the heap emits its
    /// per-collection timeline events here, and the VM emits one
    /// `("vm", "run")` summary when execution completes. Disabled by
    /// default — the disabled handle adds no measurable overhead.
    pub trace: gctrace::TraceHandle,
    /// Profiling sink shared with the attached collector: pause/size
    /// histograms and the pause timeline are recorded by the heap,
    /// per-allocation-site counters (keyed by the VM's shadow call
    /// stack) by the VM, and a final heap census when the run ends.
    /// Disabled by default; the disabled handle never builds a stack key.
    pub prof: gcprof::ProfHandle,
    /// Snapshot sink: when enabled, the VM records a `begin` heap-graph
    /// snapshot at its first allocation and an `end` snapshot when the
    /// run completes (before the final sweep, so floating garbage is
    /// still visible). Disabled by default; the disabled handle never
    /// walks the heap.
    pub snap: gcsnap::SnapHandle,
    /// Cross-check the snapshot's reachable set against the collector's
    /// shadow liveness at the end of the run: after a full collection
    /// and sweep, every surviving object must be reachable in the
    /// snapshot graph (and vice versa, trivially). A divergence is a
    /// [`VmError::SnapshotOracle`]. Used by the fuzzer's paranoid modes.
    pub snapshot_oracle: bool,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            heap_config: HeapConfig::default(),
            input: Vec::new(),
            max_steps: 2_000_000_000,
            trap_uaf: true,
            check_base_stores: false,
            heap_bytes: 32 << 20,
            stack_bytes: 1 << 20,
            trace: gctrace::TraceHandle::disabled(),
            prof: gcprof::ProfHandle::disabled(),
            snap: gcsnap::SnapHandle::disabled(),
            snapshot_oracle: false,
        }
    }
}

/// Positional labels for the root ranges [`roots_of`] builds: the
/// globals region first, the live stack second. Precise root words
/// (live temps) are labeled `reg` by the snapshot walk itself.
const ROOT_LABELS: &[&str] = &["globals", "stack"];

/// Dynamic execution counts used for cycle accounting.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Executions of each basic block, per function.
    pub block_counts: Vec<Vec<u64>>,
    /// Builtin invocation counts.
    pub builtin_calls: HashMap<Builtin, u64>,
    /// Total bytes processed by block builtins (memcpy, strlen, …).
    pub builtin_byte_work: u64,
}

impl Profile {
    /// Total dynamic IR instructions implied by the block counts.
    pub fn dynamic_instrs(&self, prog: &ProgramIr) -> u64 {
        let mut total = 0;
        for (f, counts) in self.block_counts.iter().enumerate() {
            for (b, &c) in counts.iter().enumerate() {
                total += c * prog.funcs[f].blocks[b].instrs.len() as u64;
            }
        }
        total
    }
}

/// Successful execution result.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Bytes written by `putchar`/`putstr`/`putint`.
    pub output: Vec<u8>,
    /// `main`'s return value or the `exit` code.
    pub exit_code: i64,
    /// Execution profile.
    pub profile: Profile,
    /// Collector statistics.
    pub heap: HeapStats,
    /// Instructions executed.
    pub steps: u64,
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// Simulated memory fault.
    Fault(MemFault),
    /// A `GC_same_obj` / `GC_pre_incr` check failed: pointer arithmetic
    /// left its object.
    CheckFailed {
        /// Function in which the check fired.
        func: String,
        /// The derived pointer value.
        value: u64,
        /// The base pointer value.
        base: u64,
    },
    /// Load/store hit a heap address with no allocated object — the
    /// observable symptom of premature collection.
    UseAfterFree {
        /// Function performing the access.
        func: String,
        /// Offending address.
        addr: u64,
    },
    /// Heap exhausted even after collection.
    OutOfMemory,
    /// Stack exhausted.
    StackOverflow,
    /// Instruction budget exceeded.
    StepLimit,
    /// `abort()` was called.
    Aborted,
    /// The Extensions-mode base-store assertion failed: an interior
    /// pointer was stored into the heap or statically allocated memory.
    InteriorStored {
        /// Function performing the store.
        func: String,
        /// The interior pointer value.
        value: u64,
        /// The object base it points into.
        base: u64,
    },
    /// A caller expected a value but the callee returned without one
    /// (`return;` or fall-through in a function whose result is used).
    MissingReturn {
        /// The callee that produced no value.
        func: String,
    },
    /// Malformed program (bad function pointer, missing target, …).
    Malformed(String),
    /// The end-of-run snapshot oracle found a disagreement between the
    /// snapshot graph's reachable set and the collector's shadow
    /// liveness (objects that survived a full collection).
    SnapshotOracle(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Fault(e) => write!(f, "{e}"),
            VmError::CheckFailed { func, value, base } => write!(
                f,
                "pointer arithmetic check failed in '{func}': {value:#x} not in same object as {base:#x}"
            ),
            VmError::UseAfterFree { func, addr } => {
                write!(f, "access to unallocated heap memory at {addr:#x} in '{func}' (premature collection?)")
            }
            VmError::OutOfMemory => write!(f, "out of memory"),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::StepLimit => write!(f, "instruction budget exceeded"),
            VmError::Aborted => write!(f, "abort() called"),
            VmError::InteriorStored { func, value, base } => write!(
                f,
                "interior pointer {value:#x} (base {base:#x}) stored to collector-visible memory in '{func}' under base-only policy"
            ),
            VmError::MissingReturn { func } => {
                write!(f, "'{func}' returned no value but its caller uses one")
            }
            VmError::Malformed(m) => write!(f, "malformed program: {m}"),
            VmError::SnapshotOracle(m) => {
                write!(f, "snapshot oracle divergence: {m}")
            }
        }
    }
}

impl std::error::Error for VmError {}

impl From<MemFault> for VmError {
    fn from(e: MemFault) -> Self {
        VmError::Fault(e)
    }
}

/// Runs a lowered program to completion.
///
/// # Errors
///
/// See [`VmError`]; in particular `CheckFailed` reproduces the paper's
/// checking mode catching bad pointer arithmetic, and `UseAfterFree`
/// observes premature collection caused by disguised pointers.
pub fn run(prog: &ProgramIr, opts: &VmOptions) -> Result<ExecOutcome, VmError> {
    let code = decode(prog);
    Vm::new(prog, &code, opts)?.run()
}

/// No slot: the destination of a call whose result is unused and of
/// `main`'s frame, and the value of a `return;`.
const NO_SLOT: u32 = u32::MAX;

/// A jump or branch target: the pc of the block's first op, and the
/// block's index for its execution count.
#[derive(Debug, Clone, Copy)]
struct Target {
    pc: u32,
    block: u32,
}

/// One decoded instruction. Every operand is a slot of the current
/// frame: temps first, then the function's immediates, which every call
/// seeds from [`FuncCode::init`] — so an operand read is one indexed
/// load, with no temp/constant test.
#[derive(Debug, Clone, Copy)]
enum Op {
    Const {
        dst: u32,
        value: i64,
    },
    Mov {
        dst: u32,
        src: u32,
    },
    Bin {
        op: BinIr,
        dst: u32,
        a: u32,
        b: u32,
    },
    Load {
        dst: u32,
        addr: u32,
        width: u8,
        signed: bool,
    },
    Store {
        addr: u32,
        value: u32,
        width: u8,
    },
    FrameAddr {
        dst: u32,
        offset: u32,
    },
    MemCopy {
        dst: u32,
        src: u32,
        len: u64,
    },
    CheckSame {
        dst: u32,
        value: u32,
        base: u32,
    },
    /// `value` is [`NO_SLOT`] for `return;`.
    Ret {
        value: u32,
    },
    Jump {
        to: Target,
    },
    Branch {
        cond: u32,
        t: Target,
        f: Target,
    },
    /// Index into [`FuncCode::calls`].
    Call {
        call: u32,
    },
    /// A structural defect found by the decoder, reported as
    /// [`VmError::Malformed`] when (and only when) it executes. Index
    /// into [`FuncCode::malformed`].
    Malformed {
        msg: u32,
    },
}

#[derive(Debug, Clone, Copy)]
enum Callee {
    Func(u32),
    Builtin(Builtin),
    /// Through the function-pointer value in this slot.
    Indirect(u32),
}

/// One call site. `args` and `roots` are `start..end` ranges of
/// [`FuncCode::pool`]; `roots` are the temps live across the call (those
/// [`crate::liveness::gc_root_maps`] reports), the frame's GC roots
/// while it is suspended here.
#[derive(Debug, Clone, Copy)]
struct CallSite {
    callee: Callee,
    dst: u32,
    args: (u32, u32),
    roots: (u32, u32),
    site: Option<u32>,
}

/// A function decoded once per run: blocks concatenated into one op
/// array, targets resolved to pcs.
#[derive(Debug)]
struct FuncCode {
    ops: Vec<Op>,
    calls: Vec<CallSite>,
    /// Argument and root slots of every call site.
    pool: Vec<u32>,
    /// Register image of a fresh frame: zeroed temps, then immediates.
    init: Vec<i64>,
    /// Parameter slots, in order.
    params: Vec<u32>,
    frame_size: u64,
    /// Offset of this function's block 0 in [`Vm::counts`].
    counts: usize,
    blocks: usize,
    malformed: Vec<String>,
}

impl FuncCode {
    fn roots(&self, call: u32) -> &[u32] {
        let (s, e) = self.calls[call as usize].roots;
        &self.pool[s as usize..e as usize]
    }

    fn args(&self, call: u32) -> &[u32] {
        let (s, e) = self.calls[call as usize].args;
        &self.pool[s as usize..e as usize]
    }
}

/// The parameter count of `b`, from its C type.
fn builtin_arity(b: Builtin) -> usize {
    static ARITY: OnceLock<Vec<usize>> = OnceLock::new();
    ARITY.get_or_init(|| {
        Builtin::ALL
            .iter()
            .map(|&(_, b)| b.func_type().params.len())
            .collect()
    })[b as usize]
}

/// Decodes every function of `prog`, once per run. A function without
/// blocks still gets one count slot, so an entry count never lands in
/// the next function's.
fn decode(prog: &ProgramIr) -> Vec<FuncCode> {
    let mut counts = 0;
    prog.funcs
        .iter()
        .map(|f| {
            let code = decode_func(prog, f, counts);
            counts += f.blocks.len().max(1);
            code
        })
        .collect()
}

/// Decodes `f`, one function of `prog`; `counts` is the offset of its
/// block counts.
fn decode_func(prog: &ProgramIr, f: &FuncIr, counts: usize) -> FuncCode {
    // Every block ends in a terminator or in a `Malformed` op that
    // reports falling off it, so each block has a distinct start pc and
    // execution never runs past the end of `ops`.
    let mut starts = Vec::with_capacity(f.blocks.len());
    let mut pc = 0u32;
    for b in &f.blocks {
        starts.push(pc);
        pc += b.instrs.len() as u32 + u32::from(falls_off(b));
    }

    // `compile` never emits a temp at or past `temp_count` or a jump to
    // a missing block, but `run` takes any `ProgramIr`. Slots cover
    // every temp the function names (a second pass, once the first has
    // seen them all), and liveness then runs on a copy whose bad jumps
    // return instead: code past them never executes, so the roots
    // before them are exact.
    let temps = f
        .param_temps
        .iter()
        .fold(f.temp_count, |n, t| n.max(t.0 + 1));
    let (mut code, seen) = emit(prog, f, &starts, counts, temps);
    if seen > temps {
        code = emit(prog, f, &starts, counts, seen).0;
    }
    let bad_target = |ins: &Instr| match ins {
        Instr::Jump { target } => target.0 as usize >= f.blocks.len(),
        Instr::Branch {
            if_true, if_false, ..
        } => if_true.0.max(if_false.0) as usize >= f.blocks.len(),
        _ => false,
    };
    // A bad target always decodes to a `Malformed` op.
    let sane = seen == f.temp_count
        && (code.malformed.is_empty() || !f.blocks.iter().flat_map(|b| &b.instrs).any(bad_target));
    let mut record = |bi: usize, ii: usize, roots: &mut dyn Iterator<Item = Temp>| {
        if let Op::Call { call } = code.ops[starts[bi] as usize + ii] {
            let start = code.pool.len() as u32;
            code.pool.extend(roots.map(|t| t.0));
            code.calls[call as usize].roots = (start, code.pool.len() as u32);
        }
    };
    if sane {
        for_each_gc_point(f, &mut record);
    } else {
        let mut g = f.clone();
        g.temp_count = seen;
        for ins in g.blocks.iter_mut().flat_map(|b| &mut b.instrs) {
            if bad_target(ins) {
                *ins = Instr::Ret { value: None };
            }
        }
        for_each_gc_point(&g, &mut record);
    }
    code
}

fn falls_off(b: &Block) -> bool {
    !b.instrs.last().is_some_and(Instr::is_terminator)
}

/// Emits `f`'s ops with `temps` temp slots before the immediates;
/// returns them with the number of temp slots the function needs. Call
/// sites get their roots afterwards.
fn emit(
    prog: &ProgramIr,
    f: &FuncIr,
    starts: &[u32],
    counts: usize,
    temps: u32,
) -> (FuncCode, u32) {
    let mut code = FuncCode {
        ops: Vec::with_capacity(f.instr_count() + f.blocks.len()),
        calls: Vec::new(),
        pool: Vec::new(),
        init: vec![0; temps as usize],
        params: f.param_temps.iter().map(|t| t.0).collect(),
        frame_size: u64::from(f.frame_size),
        counts,
        blocks: f.blocks.len(),
        malformed: Vec::new(),
    };
    let mut seen = temps;
    let mut consts: HashMap<i64, u32> = HashMap::new();
    let mut slot = |o: Operand, init: &mut Vec<i64>| match o {
        Operand::Temp(t) => {
            seen = seen.max(t.0 + 1);
            t.0
        }
        Operand::Const(c) => *consts.entry(c).or_insert_with(|| {
            init.push(c);
            init.len() as u32 - 1
        }),
    };
    let malformed = |code: &mut FuncCode, msg: String| {
        code.malformed.push(msg);
        Op::Malformed {
            msg: code.malformed.len() as u32 - 1,
        }
    };
    if f.blocks.is_empty() {
        let op = malformed(&mut code, format!("'{}' has no blocks", f.name));
        code.ops.push(op);
    }
    let target = |t: BlockId| {
        starts
            .get(t.0 as usize)
            .map(|&pc| Target { pc, block: t.0 })
    };
    let bad_block = |t: BlockId| format!("jump to missing block {t} in '{}'", f.name);
    for (bi, b) in f.blocks.iter().enumerate() {
        for ins in &b.instrs {
            let op = match *ins {
                Instr::Const { dst, value } => Op::Const {
                    dst: slot(dst.into(), &mut code.init),
                    value,
                },
                Instr::Mov { dst, src }
                | Instr::KeepLive {
                    dst, value: src, ..
                } => {
                    // A base only extends a live range, but liveness
                    // still needs a slot count that covers it.
                    if let Instr::KeepLive {
                        base: Some(b @ Operand::Temp(_)),
                        ..
                    } = *ins
                    {
                        slot(b, &mut code.init);
                    }
                    match src {
                        Operand::Const(value) => Op::Const {
                            dst: slot(dst.into(), &mut code.init),
                            value,
                        },
                        Operand::Temp(_) => Op::Mov {
                            dst: slot(dst.into(), &mut code.init),
                            src: slot(src, &mut code.init),
                        },
                    }
                }
                Instr::Bin { dst, op, a, b } => Op::Bin {
                    op,
                    dst: slot(dst.into(), &mut code.init),
                    a: slot(a, &mut code.init),
                    b: slot(b, &mut code.init),
                },
                Instr::Load {
                    dst,
                    addr,
                    width,
                    signed,
                } => Op::Load {
                    dst: slot(dst.into(), &mut code.init),
                    addr: slot(addr, &mut code.init),
                    width,
                    signed,
                },
                Instr::Store { addr, value, width } => Op::Store {
                    addr: slot(addr, &mut code.init),
                    value: slot(value, &mut code.init),
                    width,
                },
                Instr::FrameAddr { dst, offset } => Op::FrameAddr {
                    dst: slot(dst.into(), &mut code.init),
                    offset,
                },
                Instr::MemCopy {
                    dst_addr,
                    src_addr,
                    len,
                } => Op::MemCopy {
                    dst: slot(dst_addr, &mut code.init),
                    src: slot(src_addr, &mut code.init),
                    len,
                },
                Instr::CheckSame { dst, value, base } => Op::CheckSame {
                    dst: slot(dst.into(), &mut code.init),
                    value: slot(value, &mut code.init),
                    base: slot(base, &mut code.init),
                },
                Instr::Ret { value: Some(v) } => Op::Ret {
                    value: slot(v, &mut code.init),
                },
                Instr::Ret { value: None } => Op::Ret { value: NO_SLOT },
                Instr::Jump { target: t } => match target(t) {
                    Some(to) => Op::Jump { to },
                    None => malformed(&mut code, bad_block(t)),
                },
                Instr::Branch {
                    cond,
                    if_true,
                    if_false,
                } => match (target(if_true), target(if_false)) {
                    (Some(t), Some(e)) => Op::Branch {
                        cond: slot(cond, &mut code.init),
                        t,
                        f: e,
                    },
                    (None, _) => malformed(&mut code, bad_block(if_true)),
                    (_, None) => malformed(&mut code, bad_block(if_false)),
                },
                Instr::Call {
                    dst,
                    target,
                    ref args,
                    site,
                } => 'call: {
                    let callee = match target {
                        CallTarget::Func(i) if i < prog.funcs.len() => Callee::Func(i as u32),
                        CallTarget::Func(i) => {
                            let msg = format!("call to missing function #{i} in '{}'", f.name);
                            break 'call malformed(&mut code, msg);
                        }
                        CallTarget::Builtin(b) => Callee::Builtin(b),
                        CallTarget::Indirect(o) => Callee::Indirect(slot(o, &mut code.init)),
                    };
                    let mut args = &args[..];
                    if let Callee::Builtin(b) = callee {
                        let arity = builtin_arity(b);
                        if args.len() < arity {
                            let msg =
                                format!("call to {b:?} with {} args, expected {arity}", args.len());
                            break 'call malformed(&mut code, msg);
                        }
                        // Surplus builtin arguments are evaluated by
                        // nothing and read by nothing.
                        args = &args[..arity];
                    }
                    let start = code.pool.len() as u32;
                    for &a in args {
                        let s = slot(a, &mut code.init);
                        code.pool.push(s);
                    }
                    code.calls.push(CallSite {
                        callee,
                        dst: dst.map_or(NO_SLOT, |d| slot(d.into(), &mut code.init)),
                        args: (start, code.pool.len() as u32),
                        roots: (0, 0),
                        site,
                    });
                    Op::Call {
                        call: code.calls.len() as u32 - 1,
                    }
                }
            };
            code.ops.push(op);
        }
        if falls_off(b) {
            let msg = format!("fell off block bb{bi} in '{}'", f.name);
            let op = malformed(&mut code, msg);
            code.ops.push(op);
        }
    }
    (code, seen)
}

/// A frame on the register stack: the function, the pc it is at (for a
/// suspended frame, its call), the base of its slots in [`Vm::regs`],
/// and the caller's slot that receives its result.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: u32,
    pc: u32,
    base: u32,
    dst: u32,
}

struct Vm<'a> {
    prog: &'a ProgramIr,
    opts: &'a VmOptions,
    code: &'a [FuncCode],
    mem: Memory,
    heap: GcHeap,
    /// The register stack: every frame's slots, innermost last.
    regs: Vec<i64>,
    /// Every active frame, innermost (the executing one) last.
    frames: Vec<Frame>,
    sp: u64,
    /// Heap bytes under the use-after-free trap: the heap's size, or 0
    /// when `trap_uaf` is off, so one unsigned compare decides it.
    uaf_span: u64,
    input_pos: usize,
    output: Vec<u8>,
    /// Block execution counts of every function, one flat array.
    counts: Vec<u64>,
    /// Calls per builtin, indexed by the `Builtin` discriminant.
    builtin_calls: [u64; Builtin::ALL.len()],
    builtin_byte_work: u64,
    steps: u64,
    exit: Option<i64>,
    /// Whether the `begin` heap-graph snapshot has been recorded.
    begin_snapped: bool,
}

impl<'a> Vm<'a> {
    fn new(
        prog: &'a ProgramIr,
        code: &'a [FuncCode],
        opts: &'a VmOptions,
    ) -> Result<Self, VmError> {
        let mut mem = Memory::new(
            (prog.globals_image.len() + 4096).max(1 << 16),
            opts.stack_bytes,
            opts.heap_bytes,
        );
        for (i, b) in prog.globals_image.iter().enumerate() {
            mem.write(GLOBAL_BASE + i as u64, 1, *b as u64)?;
        }
        let mut heap = GcHeap::new(&mem, opts.heap_config.clone());
        heap.set_trace(opts.trace.clone());
        heap.set_prof(opts.prof.clone());
        heap.set_snap_sites(opts.snap.is_enabled() || opts.snapshot_oracle);
        let sp = mem.stack_top();
        Ok(Vm {
            prog,
            opts,
            code,
            uaf_span: if opts.trap_uaf {
                mem.heap_size() as u64
            } else {
                0
            },
            mem,
            heap,
            regs: Vec::with_capacity(1 << 12),
            frames: Vec::with_capacity(1 << 8),
            sp,
            input_pos: 0,
            output: Vec::new(),
            counts: vec![0; code.iter().map(|c| c.blocks.max(1)).sum()],
            builtin_calls: [0; Builtin::ALL.len()],
            builtin_byte_work: 0,
            steps: 0,
            exit: None,
            begin_snapped: false,
        })
    }

    fn cur_func_name(&self) -> String {
        self.frames
            .last()
            .map(|f| self.prog.funcs[f.func as usize].name.clone())
            .unwrap_or_else(|| "<top>".into())
    }

    /// Enters `func` with the values of the caller's `args` slots (from
    /// `caller_base`) as its parameters.
    fn push_frame(
        &mut self,
        func: usize,
        caller_base: usize,
        args: &[u32],
        dst: u32,
    ) -> Result<(), VmError> {
        let f = &self.code[func];
        if args.len() != f.params.len() {
            return Err(VmError::Malformed(format!(
                "call to '{}' with {} args, expected {}",
                self.prog.funcs[func].name,
                args.len(),
                f.params.len()
            )));
        }
        if self.sp < gcheap::STACK_BASE + f.frame_size {
            return Err(VmError::StackOverflow);
        }
        self.sp -= f.frame_size;
        // Zero the frame so stale words cannot retain garbage.
        self.mem.fill(self.sp, 0, f.frame_size as usize)?;
        let base = self.regs.len();
        self.regs.extend_from_slice(&f.init);
        for (&p, &a) in f.params.iter().zip(args) {
            self.regs[base + p as usize] = self.regs[caller_base + a as usize];
        }
        self.counts[f.counts] += 1;
        self.frames.push(Frame {
            func: func as u32,
            pc: 0,
            base: base as u32,
            dst,
        });
        Ok(())
    }

    fn run(mut self) -> Result<ExecOutcome, VmError> {
        self.execute()?;
        // Heap-graph snapshots: `begin` was recorded at the first
        // allocation (or now, for a program that never allocated), `end`
        // before the final sweep so floating garbage is still visible.
        if self.opts.snap.is_enabled() {
            let roots = self.roots();
            if !self.begin_snapped {
                self.begin_snapped = true;
                self.opts.snap.record("begin", || {
                    self.heap.snapshot(&self.mem, &roots, ROOT_LABELS)
                });
            }
            self.opts
                .snap
                .record("end", || self.heap.snapshot(&self.mem, &roots, ROOT_LABELS));
        }
        if self.opts.snapshot_oracle {
            self.check_snapshot_oracle()?;
        }
        // End-of-run stats barrier: retire outstanding lazy-sweep debt so
        // the final HeapStats and census report no pending queue work.
        self.heap.sweep_all();
        // The end-of-run census: live objects/bytes per size class,
        // fragmentation, blacklist pressure. The walk only happens when
        // profiling is enabled.
        self.opts.prof.record_census(|| self.heap.census());
        let profile = Profile {
            block_counts: self
                .code
                .iter()
                .map(|c| self.counts[c.counts..c.counts + c.blocks].to_vec())
                .collect(),
            builtin_calls: Builtin::ALL
                .iter()
                .map(|&(_, b)| (b, self.builtin_calls[b as usize]))
                .filter(|&(_, n)| n > 0)
                .collect(),
            builtin_byte_work: self.builtin_byte_work,
        };
        let outcome = ExecOutcome {
            output: self.output,
            exit_code: self.exit.unwrap_or(0),
            profile,
            heap: self.heap.stats(),
            steps: self.steps,
        };
        // Unify the execution profile and the collector stats behind the
        // same sink as the per-collection timeline.
        self.opts.trace.emit(|| {
            let blocks_executed: u64 = outcome.profile.block_counts.iter().flatten().sum();
            let builtin_calls: u64 = outcome.profile.builtin_calls.values().sum();
            gctrace::Event::new("vm", "run")
                .field("exit_code", outcome.exit_code)
                .field("steps", outcome.steps)
                .field("output_bytes", outcome.output.len())
                .field("blocks_executed", blocks_executed)
                .field("dynamic_instrs", outcome.profile.dynamic_instrs(self.prog))
                .field("builtin_calls", builtin_calls)
                .field("builtin_byte_work", outcome.profile.builtin_byte_work)
                .field("collections", outcome.heap.collections)
                .field("pages_swept_lazily", outcome.heap.pages_swept_lazily)
                .field("total_pause_ns", outcome.heap.total_pause_ns)
        });
        Ok(outcome)
    }

    /// The interpreter: runs `main` until it returns or `exit` is
    /// called. The executing frame's function, pc and slot base live in
    /// locals; [`Frame::pc`] is written back only at calls, which is
    /// where the root walk and the site key read it.
    fn execute(&mut self) -> Result<(), VmError> {
        let code = self.code;
        let main = self.prog.main;
        if main >= code.len() {
            return Err(VmError::Malformed(format!("missing main function #{main}")));
        }
        self.push_frame(main, 0, &[], NO_SLOT)?;
        let mut f = &code[main];
        let mut ops = &f.ops[..];
        let mut pc = 0usize;
        let mut base = 0usize;
        let max_steps = self.opts.max_steps;
        let mut steps = 0u64;
        'run: loop {
            match ops[pc] {
                Op::Const { dst, value } => {
                    self.regs[base + dst as usize] = value;
                    pc += 1;
                }
                Op::Mov { dst, src } => {
                    self.regs[base + dst as usize] = self.regs[base + src as usize];
                    pc += 1;
                }
                Op::Bin { op, dst, a, b } => {
                    let (va, vb) = (self.regs[base + a as usize], self.regs[base + b as usize]);
                    self.regs[base + dst as usize] = op.eval(va, vb);
                    pc += 1;
                }
                Op::Load {
                    dst,
                    addr,
                    width,
                    signed,
                } => {
                    let a = self.regs[base + addr as usize] as u64;
                    self.check_heap_access(a)?;
                    let raw = self.mem.read(a, width as u32)?;
                    self.regs[base + dst as usize] = extend(raw, width, signed);
                    pc += 1;
                }
                Op::Store { addr, value, width } => {
                    let a = self.regs[base + addr as usize] as u64;
                    self.check_heap_access(a)?;
                    let v = self.regs[base + value as usize] as u64;
                    if self.opts.check_base_stores && width == 8 {
                        self.check_base_store(a, v)?;
                    }
                    self.mem.write(a, width as u32, v)?;
                    if self.heap.barrier_active() {
                        if width == 8 {
                            self.heap.write_barrier(a, v);
                        } else {
                            // A narrow store can still turn the containing
                            // word into something the conservative scan reads
                            // as a pointer — re-scan the touched bytes.
                            self.heap.write_barrier_range(&self.mem, a, width as u64);
                        }
                    }
                    pc += 1;
                }
                Op::FrameAddr { dst, offset } => {
                    self.regs[base + dst as usize] = (self.sp + offset as u64) as i64;
                    pc += 1;
                }
                Op::MemCopy { dst, src, len } => {
                    let d = self.regs[base + dst as usize] as u64;
                    let s = self.regs[base + src as usize] as u64;
                    self.check_heap_access(d)?;
                    self.check_heap_access(s)?;
                    self.mem.copy(d, s, len as usize)?;
                    if self.heap.barrier_active() {
                        self.heap.write_barrier_range(&self.mem, d, len);
                    }
                    pc += 1;
                }
                Op::CheckSame {
                    dst,
                    value,
                    base: b,
                } => {
                    let v = self.regs[base + value as usize] as u64;
                    let b = self.regs[base + b as usize] as u64;
                    self.exec_same_obj_check(v, b)?;
                    self.regs[base + dst as usize] = v as i64;
                    pc += 1;
                }
                Op::Jump { to } => {
                    self.counts[f.counts + to.block as usize] += 1;
                    pc = to.pc as usize;
                }
                Op::Branch { cond, t, f: e } => {
                    let to = if self.regs[base + cond as usize] != 0 {
                        t
                    } else {
                        e
                    };
                    self.counts[f.counts + to.block as usize] += 1;
                    pc = to.pc as usize;
                }
                Op::Call { call } => 'call: {
                    let cs = f.calls[call as usize];
                    self.frames.last_mut().expect("active frame").pc = pc as u32;
                    let callee = match cs.callee {
                        Callee::Func(g) => g as usize,
                        Callee::Indirect(s) => {
                            let v = self.regs[base + s as usize];
                            let idx = v.wrapping_sub(FUNC_PTR_BASE);
                            if idx < 0 || idx as usize >= code.len() {
                                return Err(VmError::Malformed(format!(
                                    "indirect call through bad function pointer {v:#x}"
                                )));
                            }
                            idx as usize
                        }
                        Callee::Builtin(b) => {
                            // No builtin takes more than three arguments,
                            // and the decoder trims surplus ones.
                            let mut argv = [0i64; 3];
                            let args = f.args(call);
                            for (v, &a) in argv.iter_mut().zip(args) {
                                *v = self.regs[base + a as usize];
                            }
                            let ret = self.builtin(b, &argv[..args.len()], cs.site)?;
                            if self.exit.is_some() {
                                steps += 1;
                                break 'run;
                            }
                            if cs.dst != NO_SLOT {
                                self.regs[base + cs.dst as usize] = ret;
                            }
                            pc += 1;
                            break 'call;
                        }
                    };
                    self.push_frame(callee, base, f.args(call), cs.dst)?;
                    f = &code[callee];
                    ops = &f.ops;
                    pc = 0;
                    base = self.regs.len() - f.init.len();
                }
                Op::Ret { value } => {
                    let v = (value != NO_SLOT).then(|| self.regs[base + value as usize]);
                    if self.pop_frame(v)? {
                        steps += 1;
                        break 'run;
                    }
                    let caller = *self.frames.last().expect("caller frame");
                    f = &code[caller.func as usize];
                    ops = &f.ops;
                    pc = caller.pc as usize + 1;
                    base = caller.base as usize;
                }
                Op::Malformed { msg } => {
                    return Err(VmError::Malformed(f.malformed[msg as usize].clone()));
                }
            }
            steps += 1;
            if steps > max_steps {
                return Err(VmError::StepLimit);
            }
        }
        // The step that ended the run counts against the budget too.
        if steps > max_steps {
            return Err(VmError::StepLimit);
        }
        self.steps = steps;
        Ok(())
    }

    /// Leaves the executing frame, handing `ret` to the caller's
    /// destination slot. Returns whether that was `main`'s frame.
    fn pop_frame(&mut self, ret: Option<i64>) -> Result<bool, VmError> {
        let frame = self.frames.pop().expect("pop with no frame");
        self.sp += self.code[frame.func as usize].frame_size;
        self.regs.truncate(frame.base as usize);
        let Some(caller) = self.frames.last() else {
            self.exit = Some(ret.unwrap_or(0));
            return Ok(true);
        };
        if frame.dst != NO_SLOT {
            // A caller-visible destination with no returned value would
            // silently become 0 — refuse, so miscompilations that drop
            // a return path surface instead of masking divergence.
            let Some(v) = ret else {
                return Err(VmError::MissingReturn {
                    func: self.prog.funcs[frame.func as usize].name.clone(),
                });
            };
            self.regs[caller.base as usize + frame.dst as usize] = v;
        }
        Ok(false)
    }

    /// The use-after-free trap. One compare against [`Vm::uaf_span`]
    /// passes every non-heap address (and every address when the trap
    /// is off); only heap addresses ask the page map.
    #[inline]
    fn check_heap_access(&self, addr: u64) -> Result<(), VmError> {
        if addr.wrapping_sub(HEAP_BASE) < self.uaf_span && !self.heap.is_allocated(addr) {
            return Err(VmError::UseAfterFree {
                func: self.cur_func_name(),
                addr,
            });
        }
        Ok(())
    }

    /// The Extensions-section assertion: a pointer-sized store into the
    /// heap or statics must store an object base (or a non-heap value).
    fn check_base_store(&mut self, addr: u64, value: u64) -> Result<(), VmError> {
        use gcheap::Region;
        let collector_visible = matches!(
            self.mem.region_of(addr),
            Some(Region::Heap | Region::Globals)
        );
        if !collector_visible || !self.mem.in_heap(value) {
            return Ok(());
        }
        match self.heap.base(value) {
            Some(b) if b != value => Err(VmError::InteriorStored {
                func: self.cur_func_name(),
                value,
                base: b,
            }),
            _ => Ok(()),
        }
    }

    /// `GC_same_obj` semantics: heap pointers must share an object; pairs
    /// outside the collected heap are not checked (the paper restricts
    /// attention to heap pointers).
    fn exec_same_obj_check(&mut self, value: u64, base: u64) -> Result<(), VmError> {
        if !self.mem.in_heap(base) {
            return Ok(());
        }
        if self.heap.same_obj(value, base) {
            Ok(())
        } else {
            Err(VmError::CheckFailed {
                func: self.cur_func_name(),
                value,
                base,
            })
        }
    }

    /// The address ranges scanned conservatively: the globals region
    /// and the live stack.
    fn root_ranges(&self) -> [(u64, u64); 2] {
        [
            (GLOBAL_BASE, GLOBAL_BASE + self.prog.globals_size + 4096),
            (self.sp, self.mem.stack_top()),
        ]
    }

    /// The current root set; see [`roots_of`].
    fn roots(&self) -> RootSet {
        roots_of(self.code, &self.frames, &self.regs, self.root_ranges())
    }

    /// The allocation-site key for `site` under the current shadow call
    /// stack: frame names joined with `;`, ending in the
    /// `primitive@line:col` site label — flamegraph-folded frame order.
    fn site_key(&self, site: Option<u32>) -> String {
        let mut key = String::new();
        for frame in &self.frames {
            key.push_str(&self.prog.funcs[frame.func as usize].name);
            key.push(';');
        }
        match site {
            Some(i) if (i as usize) < self.prog.alloc_sites.len() => {
                key.push_str(&self.prog.alloc_sites[i as usize].label())
            }
            _ => key.push_str("alloc@?"),
        }
        key
    }

    /// The snapshot's shadow-liveness cross-check: run a full collection
    /// and retire all sweep debt, so the heap holds exactly what the
    /// marker proves live, then snapshot it with the same roots. Every
    /// surviving object must be reachable in the snapshot graph — the
    /// snapshot resolves pointer words with the marker's own rules, so
    /// any floating node here means the two walks disagree about
    /// liveness. (The other direction is structural: reachable nodes are
    /// snapshot nodes, and every snapshot node survived the collection.)
    fn check_snapshot_oracle(&mut self) -> Result<(), VmError> {
        let roots = self.roots();
        // Two collections on purpose: the first one may merely *finish*
        // an in-flight incremental cycle, whose snapshot-at-the-beginning
        // marks (taken against mid-run roots, plus allocate-black births)
        // legitimately keep mid-cycle garbage alive. The second runs
        // against the retired heap, so afterwards the heap holds exactly
        // what the marker proves live from the end-of-run roots.
        self.heap.collect(&mut self.mem, &roots);
        self.heap.collect(&mut self.mem, &roots);
        self.heap.sweep_all();
        let snap = self.heap.snapshot(&self.mem, &roots, ROOT_LABELS);
        let a = gcsnap::analyze(&snap);
        if a.floating_objects != 0 {
            let first = snap
                .nodes
                .iter()
                .enumerate()
                .find(|&(i, _)| !a.reachable[i])
                .map(|(i, n)| {
                    let referrers: Vec<u32> = snap
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.edges.contains(&(i as u32)))
                        .map(|(j, _)| j as u32)
                        .collect();
                    format!(
                        "node {i} at {:#x} ({} bytes, marked={}, young={}, site={:?}, \
                         referrers={referrers:?})",
                        n.addr,
                        n.size,
                        n.marked,
                        n.young,
                        snap.site_of(i as u32)
                    )
                })
                .unwrap_or_default();
            return Err(VmError::SnapshotOracle(format!(
                "{} shadow-live objects ({} bytes) are unreachable in the \
                 snapshot graph; first: {first}",
                a.floating_objects, a.floating_bytes
            )));
        }
        Ok(())
    }

    fn allocate(&mut self, size: i64, site: Option<u32>) -> Result<i64, VmError> {
        let size = size.max(0) as u64;
        if self.opts.snap.is_enabled() && !self.begin_snapped {
            self.begin_snapped = true;
            let roots = self.roots();
            self.opts.snap.record("begin", || {
                self.heap.snapshot(&self.mem, &roots, ROOT_LABELS)
            });
        }
        // Build the site key eagerly only when an attached trace or
        // profile will consume it — it both attributes the allocation to
        // its stack and labels any collection this request triggers. The
        // uninstrumented hot path pays one branch and builds no string.
        let label = self.heap.attribution_enabled().then(|| self.site_key(site));
        // The roots are gathered only if this allocation runs collector
        // work; most allocations run none.
        let ranges = self.root_ranges();
        let (code, frames, regs) = (self.code, &self.frames, &self.regs);
        match self.heap.alloc_with_roots_sited(
            &mut self.mem,
            size,
            || roots_of(code, frames, regs, ranges),
            label.as_deref(),
        ) {
            Ok(addr) => {
                let prof = &self.opts.prof;
                match label {
                    Some(l) => prof.record_site(size, move || l),
                    // Unreachable in practice (an enabled profile implies
                    // attribution), kept so the closure contract is
                    // honoured whatever the handle combination.
                    None => prof.record_site(size, || self.site_key(site)),
                }
                Ok(addr as i64)
            }
            Err(_) => Err(VmError::OutOfMemory),
        }
    }

    fn builtin(&mut self, b: Builtin, args: &[i64], site: Option<u32>) -> Result<i64, VmError> {
        self.builtin_calls[b as usize] += 1;
        match b {
            Builtin::Malloc => self.allocate(args[0], site),
            Builtin::Calloc => self.allocate(args[0].saturating_mul(args[1]), site),
            Builtin::Realloc => {
                let old = args[0] as u64;
                let new_size = args[1];
                if old == 0 {
                    return self.allocate(new_size, site);
                }
                let old_extent = self.heap.extent(old).map(|(_, s)| s).unwrap_or(0);
                let new = self.allocate(new_size, site)? as u64;
                let n = old_extent.min(new_size.max(0) as u64) as usize;
                self.mem.copy(new, old, n)?;
                // The new object is allocated black mid-cycle but never
                // scanned: the copied-in pointers must be greyed.
                if self.heap.barrier_active() {
                    self.heap.write_barrier_range(&self.mem, new, n as u64);
                }
                Ok(new as i64)
            }
            Builtin::Free => Ok(0), // the collector reclaims
            Builtin::Strlen => {
                let s = self.mem.read_cstr(args[0] as u64)?;
                self.builtin_byte_work += s.len() as u64 + 1;
                Ok(s.len() as i64)
            }
            Builtin::Strcmp => {
                let a = self.mem.read_cstr(args[0] as u64)?;
                let b2 = self.mem.read_cstr(args[1] as u64)?;
                self.builtin_byte_work += (a.len().min(b2.len()) + 1) as u64;
                Ok(cmp_bytes(&a, &b2))
            }
            Builtin::Strncmp => {
                let n = args[2].max(0) as usize;
                let a = self.mem.read_cstr(args[0] as u64)?;
                let b2 = self.mem.read_cstr(args[1] as u64)?;
                let a = &a[..a.len().min(n)];
                let b2 = &b2[..b2.len().min(n)];
                self.builtin_byte_work += (a.len().min(b2.len()) + 1) as u64;
                Ok(cmp_bytes(a, b2))
            }
            Builtin::Strcpy => {
                let src = self.mem.read_cstr(args[1] as u64)?;
                let dst = args[0] as u64;
                self.check_heap_access(dst)?;
                for (i, byte) in src.iter().enumerate() {
                    self.mem.write(dst + i as u64, 1, *byte as u64)?;
                }
                self.mem.write(dst + src.len() as u64, 1, 0)?;
                if self.heap.barrier_active() {
                    self.heap
                        .write_barrier_range(&self.mem, dst, src.len() as u64 + 1);
                }
                self.builtin_byte_work += src.len() as u64 + 1;
                Ok(args[0])
            }
            Builtin::Memcpy => {
                let n = args[2].max(0) as usize;
                self.mem.copy(args[0] as u64, args[1] as u64, n)?;
                if self.heap.barrier_active() {
                    self.heap
                        .write_barrier_range(&self.mem, args[0] as u64, n as u64);
                }
                self.builtin_byte_work += n as u64;
                Ok(args[0])
            }
            Builtin::Memset => {
                let n = args[2].max(0) as usize;
                self.mem.fill(args[0] as u64, args[1] as u8, n)?;
                // No barrier: an 8-byte word of one repeated byte is 0 or
                // ≥ 0x0101…, never inside the heap range, and merely
                // overwriting pointers needs no Dijkstra barrier.
                self.builtin_byte_work += n as u64;
                Ok(args[0])
            }
            Builtin::Memcmp => {
                let n = args[2].max(0) as usize;
                self.builtin_byte_work += n as u64;
                let mut r = 0i64;
                for i in 0..n {
                    let x = self.mem.read(args[0] as u64 + i as u64, 1)? as i64;
                    let y = self.mem.read(args[1] as u64 + i as u64, 1)? as i64;
                    if x != y {
                        r = if x < y { -1 } else { 1 };
                        break;
                    }
                }
                Ok(r)
            }
            Builtin::Getchar => {
                if self.input_pos < self.opts.input.len() {
                    let c = self.opts.input[self.input_pos];
                    self.input_pos += 1;
                    Ok(c as i64)
                } else {
                    Ok(-1)
                }
            }
            Builtin::Putchar => {
                self.output.push(args[0] as u8);
                Ok(args[0])
            }
            Builtin::Putstr => {
                let s = self.mem.read_cstr(args[0] as u64)?;
                self.builtin_byte_work += s.len() as u64;
                self.output.extend_from_slice(&s);
                Ok(0)
            }
            Builtin::Putint => {
                self.output
                    .extend_from_slice(args[0].to_string().as_bytes());
                Ok(0)
            }
            Builtin::Exit => {
                self.exit = Some(args[0]);
                Ok(0)
            }
            Builtin::Abort => Err(VmError::Aborted),
            Builtin::GcCollect => {
                let roots = self.roots();
                self.heap.collect(&mut self.mem, &roots);
                Ok(0)
            }
            Builtin::GcHeapSize => Ok(self.heap.stats().bytes_live as i64),
            Builtin::GcBase => Ok(self.heap.base(args[0] as u64).unwrap_or(0) as i64),
            Builtin::GcSameObj => {
                let v = args[0] as u64;
                let base = args[1] as u64;
                self.exec_same_obj_check(v, base)?;
                Ok(args[0])
            }
            Builtin::KeepLiveFn => Ok(args[0]),
            Builtin::GcPreIncr | Builtin::GcPostIncr => {
                let pp = args[0] as u64;
                let delta = args[1];
                self.check_heap_access(pp)?;
                let old = self.mem.read(pp, 8)? as i64;
                let new = old.wrapping_add(delta);
                if self.mem.in_heap(old as u64) {
                    self.exec_same_obj_check(new as u64, old as u64)?;
                }
                self.mem.write(pp, 8, new as u64)?;
                if self.heap.barrier_active() {
                    self.heap.write_barrier(pp, new as u64);
                }
                Ok(if b == Builtin::GcPreIncr { new } else { old })
            }
        }
    }
}

/// The root set at an allocation: the conservatively scanned `ranges`,
/// then, frame by frame from `main` to the executing frame, the temps
/// live across the call each frame is at — for the executing frame, the
/// allocation's own call.
fn roots_of(code: &[FuncCode], frames: &[Frame], regs: &[i64], ranges: [(u64, u64); 2]) -> RootSet {
    let mut roots = RootSet::new();
    for (start, end) in ranges {
        roots.add_range(start, end);
    }
    for frame in frames {
        let f = &code[frame.func as usize];
        let Op::Call { call } = f.ops[frame.pc as usize] else {
            unreachable!("a frame is only observed while it is at a call");
        };
        let base = frame.base as usize;
        for &t in f.roots(call) {
            roots.add_word(regs[base + t as usize] as u64);
        }
    }
    roots
}

fn extend(raw: u64, width: u8, signed: bool) -> i64 {
    match (width, signed) {
        (1, true) => raw as u8 as i8 as i64,
        (1, false) => raw as u8 as i64,
        (2, true) => raw as u16 as i16 as i64,
        (2, false) => raw as u16 as i64,
        (4, true) => raw as u32 as i32 as i64,
        (4, false) => raw as u32 as i64,
        _ => raw as i64,
    }
}

fn cmp_bytes(a: &[u8], b: &[u8]) -> i64 {
    match a.cmp(b) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_widths() {
        assert_eq!(extend(0xFF, 1, true), -1);
        assert_eq!(extend(0xFF, 1, false), 255);
        assert_eq!(extend(0xFFFF_FFFF, 4, true), -1);
        assert_eq!(extend(0xFFFF_FFFF, 4, false), 0xFFFF_FFFF);
    }

    #[test]
    fn builtins_index_the_call_count_array() {
        // `Vm::builtin_calls` is indexed by discriminant and read back
        // through `Builtin::ALL`.
        for (i, &(_, b)) in Builtin::ALL.iter().enumerate() {
            assert_eq!(b as usize, i, "{b:?}");
        }
    }

    #[test]
    fn cmp_bytes_ordering() {
        assert_eq!(cmp_bytes(b"abc", b"abd"), -1);
        assert_eq!(cmp_bytes(b"abc", b"abc"), 0);
        assert_eq!(cmp_bytes(b"abd", b"abc"), 1);
        assert_eq!(cmp_bytes(b"ab", b"abc"), -1);
    }
}

#[cfg(test)]
mod vm_behavior_tests {
    use super::*;
    use crate::{compile_and_run, CompileOptions};

    fn run(src: &str, input: &[u8]) -> ExecOutcome {
        let v = VmOptions {
            input: input.to_vec(),
            ..VmOptions::default()
        };
        compile_and_run(src, &CompileOptions::optimized(), &v).expect("runs")
    }

    fn run_err(src: &str) -> VmError {
        compile_and_run(src, &CompileOptions::optimized(), &VmOptions::default())
            .expect_err("must fail")
    }

    #[test]
    fn using_the_result_of_a_valueless_return_is_an_error() {
        // `return;` in a non-void function is accepted by the front end
        // (ANSI C does), but a caller that *uses* the result must not get
        // a silent 0 — that would mask real miscompilations from the
        // differential oracle.
        let src = r#"
            int f(int x) {
                if (x > 0) return;
                return 7;
            }
            int main(void) { return f(1); }
        "#;
        match run_err(src) {
            VmError::MissingReturn { func } => assert_eq!(func, "f"),
            other => panic!("expected MissingReturn, got {other}"),
        }
    }

    #[test]
    fn valueless_return_is_fine_when_the_result_is_unused() {
        let src = r#"
            int f(int x) {
                if (x > 0) return;
                return 7;
            }
            int main(void) { f(1); return 4; }
        "#;
        assert_eq!(run(src, b"").exit_code, 4);
    }

    #[test]
    fn memcpy_memset_memcmp() {
        let src = r#"
            int main(void) {
                char *a = (char *) malloc(32);
                char *b = (char *) malloc(32);
                memset(a, 'x', 10);
                a[10] = 0;
                memcpy(b, a, 11);
                if (memcmp(a, b, 11) != 0) return 1;
                b[3] = 'y';
                if (memcmp(a, b, 11) >= 0) return 2;
                return (int) strlen(b);
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 10);
    }

    #[test]
    fn realloc_preserves_prefix() {
        let src = r#"
            int main(void) {
                long *a = (long *) malloc(2 * sizeof(long));
                a[0] = 11; a[1] = 22;
                a = (long *) realloc(a, 8 * sizeof(long));
                a[7] = 33;
                return (int)(a[0] + a[1] + a[7]);
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 66);
    }

    #[test]
    fn realloc_of_null_is_malloc() {
        let src = r#"
            int main(void) {
                char *p = 0;
                p = (char *) realloc(p, 8);
                p[0] = 5;
                return p[0];
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 5);
    }

    #[test]
    fn free_is_a_no_op_under_the_collector() {
        // "remove all calls to free" — we keep them as no-ops.
        let src = r#"
            int main(void) {
                char *p = (char *) malloc(8);
                p[0] = 9;
                free(p);
                return p[0];  /* still alive: the collector owns lifetime */
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 9);
    }

    #[test]
    fn strcpy_and_strncmp() {
        let src = r#"
            int main(void) {
                char *d = (char *) malloc(16);
                strcpy(d, "hello");
                if (strncmp(d, "help", 3) != 0) return 1;
                if (strncmp(d, "help", 4) == 0) return 2;
                return 0;
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 0);
    }

    #[test]
    fn gc_base_builtin() {
        let src = r#"
            int main(void) {
                char *p = (char *) malloc(100);
                char *interior = p + 57;
                char *base = (char *) GC_base(interior);
                if (base != p) return 1;
                if (GC_base((void *) 1234) != 0) return 2;
                return 0;
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 0);
    }

    #[test]
    fn gc_collect_and_heap_size() {
        let src = r#"
            int main(void) {
                long before;
                long after;
                long i;
                for (i = 0; i < 100; i++) { char *junk = (char *) malloc(64); junk[0] = 1; }
                before = gc_heap_size();
                gc_collect();
                after = gc_heap_size();
                return after < before ? 0 : 1;
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 0);
    }

    #[test]
    fn stack_overflow_detected() {
        let src = "int f(int n) { char big[2048]; big[0] = (char) n; return f(n + 1) + big[0]; }\n\
                   int main(void) { return f(0); }";
        assert_eq!(run_err(src), VmError::StackOverflow);
    }

    #[test]
    fn abort_reported() {
        assert_eq!(
            run_err("int main(void) { abort(); return 0; }"),
            VmError::Aborted
        );
    }

    #[test]
    fn exit_terminates_early_with_code() {
        let src = "int main(void) { putchar('a'); exit(42); putchar('b'); return 0; }";
        let out = run(src, b"");
        assert_eq!(out.exit_code, 42);
        assert_eq!(out.output, b"a");
    }

    #[test]
    fn null_dereference_faults() {
        let src = "int main(void) { char *p = 0; return *p; }";
        assert!(matches!(run_err(src), VmError::Fault(_)));
    }

    #[test]
    fn wild_pointer_write_faults() {
        let src = "int main(void) { long *p = (long *) 0x99999999; *p = 1; return 0; }";
        assert!(matches!(run_err(src), VmError::Fault(_)));
    }

    #[test]
    fn putint_handles_negatives_and_zero() {
        let src = "int main(void) { putint(0); putchar(' '); putint(-12345); return 0; }";
        assert_eq!(run(src, b"").output, b"0 -12345");
    }

    #[test]
    fn profile_reflects_builtin_calls() {
        let src = r#"
            int main(void) {
                long i;
                for (i = 0; i < 10; i++) { char *p = (char *) malloc(8); p[0] = 1; }
                return 0;
            }
        "#;
        let out = run(src, b"");
        assert_eq!(
            out.profile.builtin_calls.get(&Builtin::Malloc).copied(),
            Some(10)
        );
    }

    #[test]
    fn base_store_check_flags_interior_pointers() {
        let src = r#"
            struct h { char *p; };
            int main(void) {
                struct h *x = (struct h *) malloc(sizeof(struct h));
                char *obj = (char *) malloc(64);
                x->p = obj + 8;   /* interior pointer into the heap */
                return 0;
            }
        "#;
        let v = VmOptions {
            check_base_stores: true,
            ..VmOptions::default()
        };
        let r = compile_and_run(src, &CompileOptions::optimized(), &v);
        assert!(matches!(r, Err(VmError::InteriorStored { .. })), "{r:?}");
    }

    #[test]
    fn base_store_check_accepts_bases_and_non_heap() {
        let src = r#"
            struct h { char *p; long n; };
            char *global_slot;
            int main(void) {
                struct h *x = (struct h *) malloc(sizeof(struct h));
                char *obj = (char *) malloc(64);
                x->p = obj;        /* base pointer: fine */
                x->n = 123456;     /* plain integer: fine */
                global_slot = obj; /* base into statics: fine */
                return 0;
            }
        "#;
        let v = VmOptions {
            check_base_stores: true,
            ..VmOptions::default()
        };
        compile_and_run(src, &CompileOptions::optimized(), &v).expect("conforming program");
    }

    #[test]
    fn safe_mode_survives_the_bounded_pause_paranoid_collector() {
        // Pointer-churning list reversal: every `->next` store is a heap
        // pointer store, and with `gc_threshold: 1` under the bounded-pause
        // collector, marking is in flight at essentially every store. The
        // write barrier is what keeps the list intact; `trap_uaf` (on by
        // default) turns any lost node into a hard error.
        let src = r#"
            struct node { struct node *next; long v; };
            int main(void) {
                struct node *head = 0;
                struct node *prev = 0;
                struct node *n;
                struct node *nx;
                long i;
                long sum = 0;
                for (i = 0; i < 200; i++) {
                    n = (struct node *) malloc(sizeof(struct node));
                    n->next = head;
                    n->v = i;
                    head = n;
                }
                while (head) { nx = head->next; head->next = prev; prev = head; head = nx; }
                while (prev) { sum = sum + prev->v; prev = prev->next; }
                putint(sum);
                return 0;
            }
        "#;
        let v = VmOptions {
            heap_config: HeapConfig {
                gc_threshold: 1,
                ..HeapConfig::bounded_pause()
            },
            ..VmOptions::default()
        };
        let out = compile_and_run(src, &CompileOptions::debug(), &v).expect("runs");
        assert_eq!(out.output, b"19900");
        assert!(out.heap.collections_nursery > 0, "{:?}", out.heap);
        assert!(out.heap.collections_increment_finish > 0, "{:?}", out.heap);
    }

    #[test]
    fn varargs_style_indirect_calls_rejected_gracefully() {
        let src = r#"
            int main(void) {
                int (*f)(int, int);
                f = (int (*)(int, int)) 12345; /* not a function pointer */
                return f(1, 2);
            }
        "#;
        assert!(matches!(run_err(src), VmError::Malformed(_)));
    }
}

/// Hand-built IR that `compile` never produces: the decoder turns each
/// structural defect into an op that reports it when reached.
#[cfg(test)]
mod malformed_ir_tests {
    use super::*;

    fn program(main_blocks: Vec<Block>) -> ProgramIr {
        ProgramIr {
            funcs: vec![FuncIr {
                name: "main".into(),
                blocks: main_blocks,
                temp_count: 2,
                param_temps: vec![],
                frame_size: 0,
                returns_value: true,
            }],
            main: 0,
            globals_image: vec![],
            globals_size: 0,
            alloc_sites: vec![],
        }
    }

    fn block(instrs: Vec<Instr>) -> Block {
        Block { instrs }
    }

    fn ret(v: i64) -> Instr {
        Instr::Ret {
            value: Some(Operand::Const(v)),
        }
    }

    fn malformed(prog: &ProgramIr) -> String {
        match run(prog, &VmOptions::default()) {
            Err(VmError::Malformed(m)) => m,
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn a_call_to_a_missing_function_is_malformed_when_it_runs() {
        let call = Instr::Call {
            dst: Some(Temp(0)),
            target: CallTarget::Func(7),
            args: vec![],
            site: None,
        };
        let prog = program(vec![block(vec![call, ret(0)])]);
        assert_eq!(malformed(&prog), "call to missing function #7 in 'main'");
    }

    #[test]
    fn a_jump_to_a_missing_block_is_malformed_when_it_runs() {
        let prog = program(vec![block(vec![Instr::Jump { target: BlockId(9) }])]);
        assert_eq!(malformed(&prog), "jump to missing block bb9 in 'main'");
        let branch = Instr::Branch {
            cond: Operand::Const(0),
            if_true: BlockId(1),
            if_false: BlockId(5),
        };
        let prog = program(vec![block(vec![branch]), block(vec![ret(1)])]);
        assert_eq!(malformed(&prog), "jump to missing block bb5 in 'main'");
    }

    #[test]
    fn a_block_without_a_terminator_is_malformed_when_it_runs() {
        let prog = program(vec![block(vec![Instr::Const {
            dst: Temp(0),
            value: 3,
        }])]);
        assert_eq!(malformed(&prog), "fell off block bb0 in 'main'");
        let prog = program(vec![block(vec![])]);
        assert_eq!(malformed(&prog), "fell off block bb0 in 'main'");
        assert_eq!(malformed(&program(vec![])), "'main' has no blocks");
    }

    #[test]
    fn defects_on_paths_not_taken_are_harmless() {
        // bb0 branches to bb2 (taken) or to a missing block; bb1 has no
        // terminator; neither defect is reached.
        let branch = Instr::Branch {
            cond: Operand::Const(1),
            if_true: BlockId(2),
            if_false: BlockId(1),
        };
        let prog = program(vec![
            block(vec![branch]),
            block(vec![Instr::Jump {
                target: BlockId(40),
            }]),
            block(vec![ret(5)]),
        ]);
        let out = run(&prog, &VmOptions::default()).expect("runs");
        assert_eq!(out.exit_code, 5);
        assert_eq!(out.profile.block_counts, vec![vec![1, 0, 1]]);
        assert_eq!(out.steps, 2);
    }

    #[test]
    fn a_missing_main_is_malformed() {
        let mut prog = program(vec![block(vec![ret(0)])]);
        prog.main = 3;
        assert_eq!(malformed(&prog), "missing main function #3");
    }

    #[test]
    fn temps_past_temp_count_get_slots_and_roots() {
        // t5 is beyond `temp_count` (2) and live across the allocation;
        // t300, a keep-live base, is beyond one bitset word.
        let prog = program(vec![block(vec![
            Instr::Const {
                dst: Temp(5),
                value: 40,
            },
            Instr::KeepLive {
                dst: Temp(1),
                value: Temp(5).into(),
                base: Some(Temp(300).into()),
            },
            Instr::Call {
                dst: Some(Temp(0)),
                target: CallTarget::Builtin(Builtin::Malloc),
                args: vec![Operand::Const(8)],
                site: None,
            },
            Instr::Call {
                dst: None,
                target: CallTarget::Builtin(Builtin::GcCollect),
                args: vec![],
                site: None,
            },
            Instr::Bin {
                dst: Temp(1),
                op: BinIr::Add,
                a: Temp(5).into(),
                b: Operand::Const(2),
            },
            Instr::Ret {
                value: Some(Temp(1).into()),
            },
        ])]);
        assert_eq!(
            run(&prog, &VmOptions::default()).expect("runs").exit_code,
            42
        );
    }
}
