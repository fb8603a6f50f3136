//! Prints every table and figure of the paper.
//!
//! Usage: `tables [sparc2|sparc10|pentium90|codesize|postprocessor|analysis|all]
//!                [--tiny] [--jobs N] [--trace <file.jsonl>]
//!                [--prof <file.prom>] [--folded <file.txt>]
//!                [--bench-json <file.json>] [--repeat N]
//!                [--timeline <file.json>] [--bench-opt <file.json>]
//!                [--snap-dir <dir>]`
//!
//! The 4 workloads × 5 modes measurement matrix runs in parallel across
//! `--jobs N` worker threads (default: all cores); every table and trace
//! is byte-identical to a `--jobs 1` serial run.
//!
//! With `--trace`, every pipeline stage's events (annotation audit,
//! optimizer rewrites, verifier verdicts, GC timeline, peephole rewrites,
//! VM run summaries) are appended to `<file.jsonl>` as one JSON object
//! per line, and a human-readable summary is printed at the end.
//!
//! With `--prof`, every cell runs under gcprof instrumentation: the
//! Prometheus exposition is written to `<file.prom>` (validated before it
//! lands), the per-cell summary `BENCH_prof.json` is written next to the
//! working directory, and the human profile report is printed. `--folded`
//! additionally writes flamegraph-folded allocation stacks.
//!
//! With `--timeline`, the per-collection attribution log is exported as a
//! Chrome Trace Event Format document (load it at `ui.perfetto.dev`); the
//! clock is virtual, so the file is byte-identical at any `--jobs`.
//! `--timeline` implies profiling for the matrix cells.
//!
//! `--bench-json --repeat N` reruns the whole measurement N times and
//! writes the median of every wall-clock field (the minimum for
//! `max_pause_ns`, a per-run maximum that noise can only inflate) with a
//! `<field>_mad` noise estimate, asserting every deterministic count
//! identical across repeats. Cells that collected fewer than
//! `MIN_COLLECTIONS` times are reported on stderr.
//!
//! With `--snap-dir`, every matrix cell records deterministic heap-graph
//! snapshots at its first allocation (`begin`) and end of run (`end`),
//! and each is written to `<dir>/{workload}__{mode}__{label}.json` in
//! the versioned `snap/1` schema, round-trip validated before it lands.
//! Snapshots carry no wall-clock data, so the files are byte-identical
//! at any `--jobs` and across cold/warm build memos. Diff a pair
//! with `bench snap diff`.
//!
//! With `--bench-opt`, the optimizer benchmark writes `<file.json>`
//! (schema `opt/1`, gated by `bench compare --budgets budgets-opt.toml`):
//! per-pass fire totals over the matrix's optimizer modes, fixpoint
//! driver statistics, and seed-vs-full cycle comparisons per workload ×
//! machine. The document carries no wall-clock fields, so it is
//! byte-identical at any `--jobs` and across cold/warm build memos.

use gc_safety::{JsonlSink, Observe, ProfHandle, SnapHandle, TraceHandle};
use gcbench::*;
use std::sync::Arc;
use workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let scale = if args.iter().any(|a| a == "--tiny") {
        Scale::Tiny
    } else {
        Scale::Paper
    };
    let trace_path: Option<&str> = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let prof_path: Option<&str> = args
        .iter()
        .position(|a| a == "--prof")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let folded_path: Option<&str> = args
        .iter()
        .position(|a| a == "--folded")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let bench_json_path: Option<&str> = args
        .iter()
        .position(|a| a == "--bench-json")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let timeline_path: Option<&str> = args
        .iter()
        .position(|a| a == "--timeline")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let bench_opt_path: Option<&str> = args
        .iter()
        .position(|a| a == "--bench-opt")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    let snap_dir: Option<&str> = args
        .iter()
        .position(|a| a == "--snap-dir")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str);
    if folded_path.is_some() && prof_path.is_none() {
        eprintln!("error: --folded requires --prof (profiling must be enabled)");
        std::process::exit(2);
    }
    let repeat = match args
        .iter()
        .position(|a| a == "--repeat")
        .map(|i| args.get(i + 1))
    {
        Some(Some(n)) => match n.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --repeat takes a positive integer, got '{n}'");
                std::process::exit(2);
            }
        },
        Some(None) => {
            eprintln!("error: --repeat requires a value");
            std::process::exit(2);
        }
        None => 1,
    };
    let jobs = match args
        .iter()
        .position(|a| a == "--jobs")
        .map(|i| args.get(i + 1))
    {
        Some(Some(n)) => match n.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --jobs takes a positive integer, got '{n}'");
                std::process::exit(2);
            }
        },
        Some(None) => {
            eprintln!("error: --jobs requires a value");
            std::process::exit(2);
        }
        None => gc_safety::default_jobs(),
    };
    let trace = match trace_path {
        Some(path) => {
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot create trace file '{path}': {e}");
                    std::process::exit(1);
                }
            };
            TraceHandle::new(Arc::new(JsonlSink::new(Box::new(file))))
        }
        None => TraceHandle::disabled(),
    };

    if what == "analysis" {
        println!("{}", analysis_listing());
        return;
    }
    if what == "spills" {
        println!("{}", register_pressure_report());
        return;
    }
    // The timeline and the trajectory's attribution/MMU fields are built
    // from the per-collection log, so both exports profile the matrix
    // cells just like --prof does (the overhead is uniform across modes,
    // keeping the trajectory self-comparable).
    let prof_on = prof_path.is_some() || timeline_path.is_some() || bench_json_path.is_some();
    let snap_on = snap_dir.is_some();
    let observe = Observe {
        trace,
        prof: prof_on.then(ProfHandle::enabled).unwrap_or_default(),
        snap: snap_on.then(SnapHandle::enabled).unwrap_or_default(),
    };
    let data = match collect(scale, jobs, &observe) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    match what {
        "sparc2" => print!("{}", slowdown_table(&data, "sparc2")),
        "sparc10" => print!("{}", slowdown_table(&data, "sparc10")),
        "pentium90" => print!("{}", slowdown_table(&data, "pentium90")),
        "codesize" => print!("{}", codesize_table(&data)),
        "postprocessor" => print!("{}", postprocessor_table(&data)),
        "ablations" => print!("{}", ablation_table(scale)),
        "compare" => print!("{}", paper_comparison(&data)),
        "all" => {
            println!("Run-time slowdown relative to '-O' (E1-E3)\n");
            for key in ["sparc2", "sparc10", "pentium90"] {
                println!("{}", slowdown_table(&data, key));
            }
            println!("{}", codesize_table(&data));
            println!();
            println!("{}", postprocessor_table(&data));
            println!();
            println!("{}", ablation_table(scale));
            println!();
            println!(
                "Paper vs measured (shape verdicts):\n{}",
                paper_comparison(&data)
            );
            println!("{}", register_pressure_report());

            match opt_pass_fires() {
                Ok(sweep) => {
                    println!("{}", opt_report(&sweep));
                    let zero = zero_fire_passes(&sweep);
                    if !zero.is_empty() {
                        eprintln!(
                            "warning: {} registered pass(es) never fired across the matrix \
                             (regressed matching or an unexercised registry entry): {}",
                            zero.len(),
                            zero.join(", ")
                        );
                    }
                }
                Err(e) => eprintln!("warning: optimizer fire sweep failed: {e}"),
            }
            println!("Analysis listing (F1):\n{}", analysis_listing());
        }
        other => {
            eprintln!("unknown table '{other}'");
            std::process::exit(2);
        }
    }
    let micro = if bench_json_path.is_some() || timeline_path.is_some() {
        Some(gc_microbench(scale == Scale::Tiny))
    } else {
        None
    };
    if let Some(path) = bench_json_path {
        // The perf trajectory: matrix-cell collector stats plus the
        // heap-direct collection microbench, validated before it lands.
        let micro = micro
            .as_deref()
            .expect("micro runs whenever bench-json is requested");
        let mut text = bench_gc_json(&data, micro);
        if repeat > 1 {
            // Robust statistics: rerun the whole measurement and fold
            // the runs (median wall-clock fields, min for the per-run
            // maximum max_pause_ns, MAD as the noise estimate the
            // regression gate keys on). Deterministic counts must not
            // move between repeats; aggregate() enforces that.
            let mut runs = Vec::with_capacity(repeat);
            match gcwatch::stats::parse_cells(&text) {
                Ok(cells) => runs.push(cells),
                Err(e) => {
                    eprintln!("error: generated gc bench json does not parse: {e}");
                    std::process::exit(1);
                }
            }
            for r in 1..repeat {
                let untraced = Observe {
                    prof: observe.prof.clone(),
                    ..Observe::default()
                };
                let rerun = collect(scale, jobs, &untraced).and_then(|d| {
                    let m = gc_microbench(scale == Scale::Tiny);
                    gcwatch::stats::parse_cells(&bench_gc_json(&d, &m))
                });
                match rerun {
                    Ok(cells) => runs.push(cells),
                    Err(e) => {
                        eprintln!("error: repeat {r} failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            text = match gcwatch::aggregate(&runs) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: aggregating {repeat} repeats: {e}");
                    std::process::exit(1);
                }
            };
        }
        match validate_bench_gc_json(&text) {
            Ok(cells) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("error: cannot write gc bench json '{path}': {e}");
                    std::process::exit(1);
                }
                println!("\ngc perf trajectory: {cells} cells written to {path}");
            }
            Err(e) => {
                eprintln!("error: generated gc bench json does not validate: {e}");
                std::process::exit(1);
            }
        }
        match low_collection_cells(&text, MIN_COLLECTIONS) {
            Ok(low) if !low.is_empty() => {
                let cells: Vec<String> =
                    low.iter().map(|(key, n)| format!("{key} ({n})")).collect();
                eprintln!(
                    "warning: {} cell(s) collected fewer than {MIN_COLLECTIONS} times — \
                     their pause statistics are under-sampled: {}",
                    low.len(),
                    cells.join(", ")
                );
            }
            Ok(_) => {}
            Err(e) => eprintln!("warning: low-collection scan failed: {e}"),
        }
    }
    if let Some(path) = timeline_path {
        let micro = micro
            .as_deref()
            .expect("micro runs whenever timeline is requested");
        let text = gcwatch::chrome_trace(&timeline_cells(&data, micro));
        match gcwatch::validate_chrome_trace(&text) {
            Ok(events) => {
                if let Err(e) = std::fs::write(path, &text) {
                    eprintln!("error: cannot write timeline '{path}': {e}");
                    std::process::exit(1);
                }
                println!("\ncollection timeline: {events} trace events written to {path} (load at ui.perfetto.dev)");
            }
            Err(e) => {
                eprintln!("error: generated timeline does not validate: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = prof_path {
        let prom = prometheus_export(&data);
        match gc_safety::prom::validate(&prom) {
            Ok(samples) => {
                if let Err(e) = std::fs::write(path, &prom) {
                    eprintln!("error: cannot write prometheus export '{path}': {e}");
                    std::process::exit(1);
                }
                println!("\nprometheus export: {samples} samples written to {path}");
            }
            Err(e) => {
                eprintln!("error: generated prometheus text does not parse: {e}");
                std::process::exit(1);
            }
        }
        if let Err(e) = std::fs::write("BENCH_prof.json", bench_json(&data)) {
            eprintln!("error: cannot write BENCH_prof.json: {e}");
            std::process::exit(1);
        }
        println!("per-cell summary written to BENCH_prof.json");
        if let Some(folded) = folded_path {
            if let Err(e) = std::fs::write(folded, folded_export(&data)) {
                eprintln!("error: cannot write folded stacks '{folded}': {e}");
                std::process::exit(1);
            }
            println!("flamegraph folded stacks written to {folded}");
        }
        println!();
        print!("{}", prof_report(&data));
    }
    if let Some(dir) = snap_dir {
        // Heap-graph snapshots, one `snap/1` document per (cell, label),
        // each round-trip validated before it lands on disk.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create snapshot dir '{dir}': {e}");
            std::process::exit(1);
        }
        match snap_exports(&data) {
            Ok(exports) => {
                let n = exports.len();
                for (name, json) in exports {
                    let path = format!("{dir}/{name}");
                    if let Err(e) = std::fs::write(&path, &json) {
                        eprintln!("error: cannot write snapshot '{path}': {e}");
                        std::process::exit(1);
                    }
                }
                println!("\nheap snapshots: {n} snap/1 documents written to {dir}/");
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = bench_opt_path {
        // The optimizer trajectory: per-pass fire totals, fixpoint
        // statistics, and seed-vs-full cycle cells, all deterministic.
        match run_opt_bench(scale) {
            Ok(text) => match validate_bench_opt_json(&text) {
                Ok(cells) => {
                    if let Err(e) = std::fs::write(path, &text) {
                        eprintln!("error: cannot write opt bench json '{path}': {e}");
                        std::process::exit(1);
                    }
                    println!("\nopt trajectory: {cells} cells written to {path}");
                }
                Err(e) => {
                    eprintln!("error: generated opt bench json does not validate: {e}");
                    std::process::exit(1);
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    // The process-cumulative last-build memo counters, one
    // ("cache", "stats") event per memo, so traces record how many builds
    // were reused. Emitted last: the counters cover everything above.
    if observe.trace.is_enabled() {
        for s in gc_safety::cache_stats() {
            observe.trace.emit(|| {
                gc_safety::Event::new("cache", "stats")
                    .field("memo", s.stage)
                    .field("hits", s.hits)
                    .field("misses", s.misses)
            });
        }
    }
    if let Some(path) = trace_path {
        // `File` writes are unbuffered, so the JSONL is already on disk
        // even though `data` still holds handle clones.
        match std::fs::read_to_string(path) {
            Ok(jsonl) => {
                println!();
                print!("{}", trace_report(&jsonl));
                println!("trace written to {path}");
            }
            Err(e) => eprintln!("error: cannot read back trace '{path}': {e}"),
        }
    }
}
