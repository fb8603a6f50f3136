//! The closed loop: one client, one op at a time, each op starting when
//! the previous one returns.
//!
//! Every run prepares a fixed set of ops from its seed. An untraced run
//! (`--trace 0`) sweeps over the set until `--seconds` of op time have
//! passed, each sweep from a cleared compilation cache; an op's time is
//! the least over its sweeps, which keeps out the time other load on
//! the machine takes from it. Input preparation and output checking stay
//! outside the timer, and the deterministic metrics come from the first
//! sweep.
//!
//! A traced run (`--trace 1`) runs pairs of passes over the same set
//! until `--seconds` have passed: a traced pass through
//! [`crate::pipeline`], with a span around every layer call, then the
//! same ops untraced. Work counts come from the first pass, so they
//! repeat exactly.

use crate::pipeline::{Counts, Memo};
use crate::spans::{Recorder, OP};
use crate::stats::{geomean, quantile, ratio};
use asmpost::Machine;
use gc_safety::Mode;
use std::collections::BTreeMap;
use std::time::Instant;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper-exec", "bigfn-compile", "fuzz-campaign"];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every op's output matched its reference.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output was wrong or that failed.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// The spans of the traced run's fastest pass as JSON Lines.
    pub spans: Option<String>,
}

impl Report {
    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The report as the one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    match (name, trace) {
        ("paper-exec", false) => Ok(untraced::<PaperExec>(seed, seconds)),
        ("paper-exec", true) => Ok(traced::<PaperExec>(seed, seconds)),
        ("bigfn-compile", false) => Ok(untraced::<BigfnCompile>(seed, seconds)),
        ("bigfn-compile", true) => Ok(traced::<BigfnCompile>(seed, seconds)),
        ("fuzz-campaign", false) => Ok(untraced::<FuzzCampaign>(seed, seconds)),
        ("fuzz-campaign", true) => Ok(traced::<FuzzCampaign>(seed, seconds)),
        _ => Err(format!(
            "unknown workload '{name}' (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// A workload: its set-up, its op, and the checks on the op's output.
trait Workload: Sized {
    /// An op's input, made outside the timer.
    type Prep;
    /// What an op returns, checked outside the timer.
    type Out;
    /// Set-ups per untraced run; `setup_s` is their median.
    const SETUP_REPS: usize;
    /// Ops in a run (whole groups of ops that share an input).
    const OPS: u64;

    fn setup(seed: u64) -> Self;
    fn prepare(&mut self, i: u64) -> Self::Prep;
    fn op(&self, p: &Self::Prep) -> Self::Out;
    fn op_traced(
        &self,
        p: &Self::Prep,
        rec: &mut Recorder,
        memo: &mut Memo,
        counts: &mut Counts,
    ) -> Self::Out;
    /// Checks an op's output against its independent reference.
    fn check(&self, p: &Self::Prep, out: &Self::Out) -> Result<(), String>;
    /// Records an op's costs for the deterministic metrics.
    fn record(&self, _facts: &mut Facts, _p: &Self::Prep, _out: &Self::Out) {}
    /// Adds any costs the ops themselves do not produce.
    fn finish(&self, _facts: &mut Facts) -> Result<(), String> {
        Ok(())
    }
}

/// Costs of the generated code: `(item, mode, machine)` → (cycles
/// summed over the item's inputs, code bytes).
#[derive(Default)]
struct Facts(BTreeMap<(u64, Mode, usize), (u64, u64)>);

impl Facts {
    fn add(&mut self, item: u64, mode: Mode, costs: &[asmpost::CostReport]) {
        for (mi, c) in costs.iter().enumerate() {
            let e = self.0.entry((item, mode, mi)).or_insert((0, c.size_bytes));
            e.0 += c.cycles;
        }
    }

    /// `sim_cycles.geomean`, `code_bytes.geomean`, `safe_overhead_ratio`.
    fn metrics(&self) -> Vec<Metric> {
        let sparc10 = Machine::all()
            .iter()
            .position(|m| m.name == Machine::sparc10().name)
            .expect("SPARC 10 is modelled");
        let overhead = geomean(self.0.iter().filter_map(|(&(item, mode, mi), &(post, _))| {
            let base = self.0.get(&(item, Mode::O, mi))?;
            (mode == Mode::OSafePost && mi == sparc10).then(|| post as f64 / base.0 as f64)
        }));
        vec![
            Metric {
                name: "sim_cycles.geomean",
                value: geomean(self.0.values().map(|v| v.0 as f64)),
                unit: "cycles",
            },
            Metric {
                name: "code_bytes.geomean",
                value: geomean(self.0.values().map(|v| v.1 as f64)),
                unit: "bytes",
            },
            Metric {
                name: "safe_overhead_ratio",
                value: overhead,
                unit: "ratio",
            },
        ]
    }
}

/// Records a failed check.
fn tally(failed: &mut u64, first: &mut Option<String>, what: String, r: Result<(), String>) {
    if let Err(e) = r {
        *failed += 1;
        first.get_or_insert(format!("{what}: {e}"));
    }
}

/// Sets `W` up from a cold cache; returns it and the time taken.
fn timed_setup<W: Workload>(seed: u64) -> (W, f64) {
    gc_safety::cache_clear();
    let t = Instant::now();
    let w = W::setup(seed);
    (w, t.elapsed().as_secs_f64())
}

fn untraced<W: Workload>(seed: u64, seconds: f64) -> Report {
    // The first set-up serves the run; the others are spread between
    // sweeps, so their median does not hang on one moment's machine load.
    let (mut w, first_setup) = timed_setup::<W>(seed);
    let mut setups = vec![first_setup];
    let preps: Vec<W::Prep> = (0..W::OPS).map(|i| w.prepare(i)).collect();

    let mut facts = Facts::default();
    let mut best = vec![f64::INFINITY; preps.len()];
    let (mut attempted, mut failed, mut first_failure) = (0, 0, None);
    let mut measured = 0.0;
    'sweeps: for sweep in 0.. {
        gc_safety::cache_clear();
        let start = Instant::now();
        for ((i, p), best) in (0..).zip(&preps).zip(&mut best) {
            if sweep > 0 && measured + start.elapsed().as_secs_f64() >= seconds {
                break 'sweeps;
            }
            let t = Instant::now();
            let out = w.op(p);
            *best = best.min(t.elapsed().as_secs_f64());
            attempted += 1;
            tally(
                &mut failed,
                &mut first_failure,
                format!("op {i}"),
                w.check(p, &out),
            );
            if sweep == 0 {
                w.record(&mut facts, p, &out);
            }
        }
        measured += start.elapsed().as_secs_f64();
        if setups.len() < W::SETUP_REPS {
            setups.push(timed_setup::<W>(seed).1);
        }
    }
    while setups.len() < W::SETUP_REPS {
        setups.push(timed_setup::<W>(seed).1);
    }
    let finished = w.finish(&mut facts);
    if let Err(e) = &finished {
        first_failure.get_or_insert(e.clone());
    }

    let op_ms: Vec<f64> = best.iter().map(|s| s * 1e3).collect();
    let mut metrics = vec![
        Metric {
            name: "setup_s",
            value: quantile(&setups, 0.5),
            unit: "s",
        },
        Metric {
            name: "ops_per_s",
            value: best.len() as f64 / best.iter().sum::<f64>(),
            unit: "1/s",
        },
        Metric {
            name: "op_ms.p50",
            value: quantile(&op_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "op_ms.p90",
            value: quantile(&op_ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "success_rate",
            value: 1.0 - failed as f64 / attempted as f64,
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: crate::stats::peak_rss_mb(),
            unit: "MiB",
        },
    ];
    metrics.extend(facts.metrics());
    Report {
        correct: failed == 0 && finished.is_ok(),
        attempted,
        failed,
        first_failure,
        metrics,
        spans: None,
    }
}

/// Hit and miss totals over every compilation cache.
fn cache_totals() -> (u64, u64) {
    gc_safety::cache_stats()
        .iter()
        .fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses))
}

fn traced<W: Workload>(seed: u64, seconds: f64) -> Report {
    gc_safety::cache_clear();
    let mut w = W::setup(seed);
    let preps: Vec<W::Prep> = (0..W::OPS).map(|i| w.prepare(i)).collect();
    let mut rec = Recorder::default();
    let (mut first_counts, mut first_cache) = (None, None);
    let (mut attempted, mut failed, mut first_failure) = (0, 0, None);
    let mut untraced_s = Vec::new();
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        gc_safety::cache_clear();
        let mut memo = Memo::default();
        let mut counts = Counts::default();
        for (i, p) in (0..).zip(&preps) {
            let id = rec.begin_op(passes * W::OPS + i);
            let out = w.op_traced(p, &mut rec, &mut memo, &mut counts);
            rec.close(id);
            tally(
                &mut failed,
                &mut first_failure,
                format!("traced op {i}"),
                w.check(p, &out),
            );
        }
        first_counts.get_or_insert(counts);

        gc_safety::cache_clear();
        let before = cache_totals();
        let mut pass_s = 0.0;
        for (i, p) in (0..).zip(&preps) {
            let t = Instant::now();
            let out = w.op(p);
            pass_s += t.elapsed().as_secs_f64();
            tally(
                &mut failed,
                &mut first_failure,
                format!("op {i}"),
                w.check(p, &out),
            );
        }
        untraced_s.push(pass_s);
        let after = cache_totals();
        first_cache.get_or_insert((after.0 - before.0, after.1 - before.1));
        passes += 1;
        attempted += 2 * W::OPS;
    }

    let c = first_counts.expect("at least one pass");
    let (hits, misses) = first_cache.expect("at least one pass");
    let per_op = |n: u64| n as f64 / W::OPS as f64;
    // Layer times come from the fastest traced pass and the overhead
    // from the fastest pass of each kind, so a pass slowed by other load
    // on the machine does not enter them.
    let mut traced_s = vec![0.0; passes as usize];
    for s in rec.spans().iter().filter(|s| s.name == OP) {
        traced_s[(s.op / W::OPS) as usize] += s.dur_ns() as f64 / 1e9;
    }
    let fastest = (0..passes)
        .min_by(|&a, &b| traced_s[a as usize].total_cmp(&traced_s[b as usize]))
        .expect("at least one pass");
    let fastest_ops = fastest * W::OPS..(fastest + 1) * W::OPS;
    let own = rec.self_ns_by_name(fastest_ops.clone());
    let self_ns = |name: &str| own.get(name).copied().unwrap_or(0) as f64;
    let ms = |name: &str| self_ns(name) / W::OPS as f64 / 1e6;
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let layers_ns: f64 = own
        .iter()
        .filter(|(n, _)| **n != OP)
        .map(|(_, v)| *v as f64)
        .sum();
    let growth = |name: &str| rec.growth_exponent(name).unwrap_or(0.0);
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("cfront.parse.ms", ms("cfront.parse"), "ms"),
        m("cfront.sema.ms", ms("cfront.sema"), "ms"),
        m("gcsafe.annotate.ms", ms("gcsafe.annotate"), "ms"),
        m("gcsafe.annotate.wraps", per_op(c.annot_wraps), "count"),
        m("cvm.lower.ms", ms("cvm.lower"), "ms"),
        m("cvm.lower.ir_instrs", per_op(c.ir_instrs), "count"),
        m("cvm.opt.ms", ms("cvm.opt"), "ms"),
        m("cvm.opt.sweeps", per_op(c.opt_sweeps), "count"),
        m("cvm.opt.fires", per_op(c.opt_fires), "count"),
        m("cvm.opt.growth_exp", growth("cvm.opt"), "exp"),
        m("cvm.verify.ms", ms("cvm.verify"), "ms"),
        m("cvm.vm.ms", ms("cvm.vm"), "ms"),
        m("cvm.vm.steps", per_op(c.vm_steps), "count"),
        m(
            "cvm.vm.ns_per_step",
            ratio(self_ns("cvm.vm"), c.vm_steps as f64),
            "ns",
        ),
        m("gcheap.pause_ms", ms("gcheap"), "ms"),
        m("gcheap.collections", per_op(c.gc_collections), "count"),
        m("gcheap.allocations", per_op(c.gc_allocations), "count"),
        m("gcheap.same_obj_checks", per_op(c.same_obj_checks), "count"),
        m("asmpost.codegen.ms", ms("asmpost.codegen"), "ms"),
        m("asmpost.codegen.asm_instrs", per_op(c.asm_instrs), "count"),
        m("asmpost.codegen.spills", per_op(c.spills), "count"),
        m(
            "asmpost.codegen.growth_exp",
            growth("asmpost.codegen"),
            "exp",
        ),
        m("asmpost.peephole.ms", ms("asmpost.peephole"), "ms"),
        m(
            "asmpost.peephole.rewrites",
            per_op(c.peephole_rewrites),
            "count",
        ),
        m(
            "asmpost.peephole.ns_per_instr",
            ratio(self_ns("asmpost.peephole"), c.peephole_instrs as f64),
            "ns",
        ),
        m(
            "asmpost.peephole.growth_exp",
            growth("asmpost.peephole"),
            "exp",
        ),
        m("asmpost.cost.ms", ms("asmpost.cost"), "ms"),
        m("gccache.ms", ms("gccache"), "ms"),
        m("gccache.hits", per_op(hits), "count"),
        m("gccache.misses", per_op(misses), "count"),
        m(
            "gccache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        m(
            "trace.overhead_pct",
            (ratio(min(&traced_s), min(&untraced_s)) - 1.0) * 100.0,
            "%",
        ),
        m(
            "trace.coverage_pct",
            ratio(layers_ns, traced_s[fastest as usize] * 1e9) * 100.0,
            "%",
        ),
    ];
    Report {
        correct: failed == 0,
        attempted,
        failed,
        first_failure,
        metrics,
        spans: Some(rec.to_jsonl(fastest_ops)),
    }
}

/// The run's outcome and its cost on each machine, in `Machine::all`
/// order (empty when the run failed).
type Measured = (
    Result<cvm::ExecOutcome, cvm::VmError>,
    Vec<asmpost::CostReport>,
);

/// `paper-exec`: the four paper programs in all five modes, compiled in
/// set-up; an op runs one cell on a fresh input and costs it.
struct PaperExec {
    seed: u64,
    cells: Vec<Cell>,
    /// The current round and its input for each program.
    inputs: Option<(u64, Vec<Vec<u8>>)>,
}

struct Cell {
    program: usize,
    mode: Mode,
    ir: cvm::ProgramIr,
    /// Final assembly per machine.
    asm: Vec<Vec<asmpost::AsmFunc>>,
}

struct CellInput {
    cell: usize,
    input: Vec<u8>,
}

const CELLS: u64 = (crate::paper::PROGRAMS.len() * 5) as u64;

/// `gc_safety::measure_source`'s costs in `Machine::all` order.
fn machine_costs(m: &gc_safety::Measured) -> Vec<asmpost::CostReport> {
    Machine::all()
        .iter()
        .filter_map(|mc| m.costs.get(mc.name).copied())
        .collect()
}

impl Workload for PaperExec {
    type Prep = CellInput;
    type Out = Measured;
    const SETUP_REPS: usize = 3;
    const OPS: u64 = 5 * CELLS;

    fn check(&self, p: &CellInput, out: &Measured) -> Result<(), String> {
        let cell = &self.cells[p.cell];
        let program = crate::paper::PROGRAMS[cell.program];
        let label = format!("{program} {}", cell.mode.label());
        if program == "gawk" && cell.mode == Mode::GChecked {
            // The paper's `<fails>` cell: the checker must catch gawk's
            // one-before-the-array pointer.
            return match &out.0 {
                Err(cvm::VmError::CheckFailed { .. }) => Ok(()),
                other => Err(format!(
                    "{label}: expected a pointer check failure, got {other:?}"
                )),
            };
        }
        let o = out.0.as_ref().map_err(|e| format!("{label}: {e}"))?;
        if o.exit_code != 0 {
            return Err(format!("{label}: exit code {}", o.exit_code));
        }
        crate::paper::check(program, &p.input, &o.output).map_err(|e| format!("{label}: {e}"))
    }

    fn setup(seed: u64) -> Self {
        let mut cells = Vec::new();
        for (pi, name) in crate::paper::PROGRAMS.iter().enumerate() {
            let w = workloads::by_name(name).expect("paper program exists");
            for mode in Mode::all() {
                let ir = cvm::compile(w.source, &mode.compile_options())
                    .expect("paper programs compile");
                let asm = Machine::all()
                    .iter()
                    .map(|m| {
                        let mut asm = asmpost::codegen_program(&ir, m);
                        // As gc_safety::measure_source: -O and -O safe+post
                        // are postprocessed.
                        if matches!(mode, Mode::O | Mode::OSafePost) {
                            asmpost::postprocess_program(&mut asm);
                        }
                        asm
                    })
                    .collect();
                cells.push(Cell {
                    program: pi,
                    mode,
                    ir,
                    asm,
                });
            }
        }
        PaperExec {
            seed,
            cells,
            inputs: None,
        }
    }

    fn prepare(&mut self, i: u64) -> CellInput {
        let round = i / CELLS;
        if self.inputs.as_ref().map(|(r, _)| *r) != Some(round) {
            let inputs = crate::paper::PROGRAMS
                .iter()
                .map(|p| crate::paper::input(p, self.seed, round))
                .collect();
            self.inputs = Some((round, inputs));
        }
        let cell = (i % CELLS) as usize;
        let (_, inputs) = self.inputs.as_ref().expect("inputs for this round");
        CellInput {
            cell,
            input: inputs[self.cells[cell].program].clone(),
        }
    }

    fn op(&self, p: &CellInput) -> Measured {
        let cell = &self.cells[p.cell];
        let opts = cvm::VmOptions {
            input: p.input.clone(),
            ..cvm::VmOptions::default()
        };
        let outcome = cvm::run_compiled(&cell.ir, &opts);
        let costs = match &outcome {
            Ok(o) => Machine::all()
                .iter()
                .zip(&cell.asm)
                .map(|(m, asm)| asmpost::measure(asm, &o.profile, m))
                .collect(),
            Err(_) => Vec::new(),
        };
        (outcome, costs)
    }

    fn op_traced(
        &self,
        p: &CellInput,
        rec: &mut Recorder,
        _memo: &mut Memo,
        counts: &mut Counts,
    ) -> Measured {
        let cell = &self.cells[p.cell];
        let opts = cvm::VmOptions {
            input: p.input.clone(),
            ..cvm::VmOptions::default()
        };
        let outcome = crate::pipeline::run(rec, counts, &cell.ir, &opts);
        let costs = match &outcome {
            Ok(o) => Machine::all()
                .iter()
                .zip(&cell.asm)
                .map(|(m, asm)| crate::pipeline::cost(rec, asm, o, m))
                .collect(),
            Err(_) => Vec::new(),
        };
        (outcome, costs)
    }

    fn record(&self, facts: &mut Facts, p: &CellInput, out: &Measured) {
        let cell = &self.cells[p.cell];
        facts.add(cell.program as u64, cell.mode, &out.1);
    }
}

/// `bigfn-compile`: each op is `gc_safety::measure_source` for one
/// generated program in one mode, the five modes of a program in a row.
struct BigfnCompile {
    programs: Vec<crate::bigfn::Program>,
}

struct BigfnOp {
    program: usize,
    mode: Mode,
}

impl Workload for BigfnCompile {
    type Prep = BigfnOp;
    type Out = Result<Measured, String>;
    const SETUP_REPS: usize = 15;
    const OPS: u64 = 5 * 20;

    fn setup(seed: u64) -> Self {
        BigfnCompile {
            programs: (0..Self::OPS / 5)
                .map(|k| crate::bigfn::generate(seed, k))
                .collect(),
        }
    }

    fn prepare(&mut self, i: u64) -> BigfnOp {
        BigfnOp {
            program: (i / 5) as usize,
            mode: Mode::all()[(i % 5) as usize],
        }
    }

    fn op(&self, p: &BigfnOp) -> Self::Out {
        let src = &self.programs[p.program].source;
        let m = gc_safety::measure_source(src, &[], p.mode)?;
        let costs = machine_costs(&m);
        Ok((m.outcome, costs))
    }

    fn op_traced(
        &self,
        p: &BigfnOp,
        rec: &mut Recorder,
        memo: &mut Memo,
        counts: &mut Counts,
    ) -> Self::Out {
        let src = &self.programs[p.program].source;
        crate::pipeline::measure_source(rec, memo, counts, src, &[], p.mode)
    }

    fn check(&self, p: &BigfnOp, out: &Self::Out) -> Result<(), String> {
        let label = format!("program {} {}", p.program, p.mode.label());
        let (outcome, costs) = out.as_ref().map_err(|e| format!("{label}: build: {e}"))?;
        let o = outcome.as_ref().map_err(|e| format!("{label}: {e}"))?;
        let want = &self.programs[p.program].expected;
        if o.exit_code != 0 || &o.output != want || costs.len() != Machine::all().len() {
            return Err(format!(
                "{label}: exit {} printed {:?}, reference {:?}",
                o.exit_code,
                String::from_utf8_lossy(&o.output),
                String::from_utf8_lossy(want)
            ));
        }
        Ok(())
    }

    fn record(&self, facts: &mut Facts, p: &BigfnOp, out: &Self::Out) {
        if let Ok((_, costs)) = out {
            facts.add(p.program as u64, p.mode, costs);
        }
    }
}

/// `fuzz-campaign`: each op is one `gcfuzz::check` of a generated case.
struct FuzzCampaign {
    sources: Vec<String>,
}

impl Workload for FuzzCampaign {
    type Prep = usize;
    type Out = Result<(), String>;
    const SETUP_REPS: usize = 15;
    const OPS: u64 = 200;

    fn setup(seed: u64) -> Self {
        FuzzCampaign {
            sources: (0..Self::OPS).map(|i| gcfuzz::generate(seed, i)).collect(),
        }
    }

    fn prepare(&mut self, i: u64) -> usize {
        i as usize
    }

    fn op(&self, &k: &usize) -> Self::Out {
        match gcfuzz::check(&self.sources[k]) {
            None => Ok(()),
            Some(d) => Err(d.to_string()),
        }
    }

    fn op_traced(
        &self,
        &k: &usize,
        rec: &mut Recorder,
        memo: &mut Memo,
        counts: &mut Counts,
    ) -> Self::Out {
        crate::pipeline::fuzz_check(rec, memo, counts, &self.sources[k])
    }

    fn check(&self, &k: &usize, out: &Self::Out) -> Result<(), String> {
        out.clone().map_err(|e| format!("case {k}: {e}"))
    }

    /// The campaign's ops build and run but never generate assembly, so
    /// its cases are costed here, after the timed ops.
    fn finish(&self, facts: &mut Facts) -> Result<(), String> {
        for (k, source) in (0..).zip(&self.sources) {
            for mode in Mode::all() {
                let costs = machine_costs(&gc_safety::measure_source(source, &[], mode)?);
                if costs.len() != Machine::all().len() {
                    return Err(format!("case {k} {}: run failed", mode.label()));
                }
                facts.add(k, mode, &costs);
            }
        }
        Ok(())
    }
}
