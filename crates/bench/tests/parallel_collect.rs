//! The parallel measurement driver's determinism contract: a fanned-out
//! `collect` must be indistinguishable from a serial one — cell for cell
//! in the dataset, byte for byte in every rendered table, and event for
//! event in the merged trace stream (wall-clock pause fields aside,
//! which no table consumes).

use gc_safety::{Event, Mode, Observe, ProfHandle, SnapHandle, TraceHandle};
use gcbench::{
    bench_json, codesize_table, collect, folded_export, postprocessor_table, prof_report,
    prometheus_export, slowdown_table, Dataset,
};
use gctrace::Value;
use workloads::Scale;

/// The matrix at tiny scale, profiled per cell.
fn profiled_matrix(jobs: usize) -> Dataset {
    let observe = Observe {
        prof: ProfHandle::enabled(),
        ..Observe::default()
    };
    collect(Scale::Tiny, jobs, &observe).expect("profiled collect")
}

/// The matrix at tiny scale with heap snapshots per cell.
fn snapped_matrix(jobs: usize) -> Dataset {
    let observe = Observe {
        snap: SnapHandle::enabled(),
        ..Observe::default()
    };
    collect(Scale::Tiny, jobs, &observe).expect("snapped collect")
}

/// The matrix at tiny scale traced into memory; returns the merged stream.
fn traced_events(jobs: usize) -> Vec<Event> {
    let (trace, sink) = TraceHandle::memory();
    let observe = Observe {
        trace,
        ..Observe::default()
    };
    collect(Scale::Tiny, jobs, &observe).expect("traced collect");
    sink.snapshot()
}

#[test]
fn parallel_collect_equals_serial_cell_for_cell() {
    let serial = collect(Scale::Tiny, 1, &Observe::default()).expect("serial collect");
    let parallel = collect(Scale::Tiny, 4, &Observe::default()).expect("parallel collect");
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for ((sn, srow), (pn, prow)) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(sn, pn, "row order is the paper's");
        assert_eq!(srow.len(), prow.len(), "{sn}: same mode set");
        for mode in Mode::all() {
            let s = &srow[&mode];
            let p = &prow[&mode];
            let ctx = format!("{sn} in {}", mode.label());
            assert_eq!(
                s.output(),
                p.output(),
                "{ctx}: program output must not depend on scheduling"
            );
            assert_eq!(s.outcome.is_ok(), p.outcome.is_ok(), "{ctx}");
            assert_eq!(
                s.costs.keys().collect::<Vec<_>>(),
                p.costs.keys().collect::<Vec<_>>(),
                "{ctx}: same machines costed"
            );
            for (machine, sc) in &s.costs {
                let pc = &p.costs[machine];
                assert_eq!(sc.cycles, pc.cycles, "{ctx} on {machine}: cycles");
                assert_eq!(sc.size_bytes, pc.size_bytes, "{ctx} on {machine}: size");
            }
            assert_eq!(
                s.peephole.map(|st| st.total()),
                p.peephole.map(|st| st.total()),
                "{ctx}: peephole work"
            );
        }
    }
    // The acceptance criterion itself: E1–E5 render byte-identically.
    for key in ["sparc2", "sparc10", "pentium90"] {
        assert_eq!(
            slowdown_table(&serial, key),
            slowdown_table(&parallel, key),
            "slowdown table {key} differs"
        );
    }
    assert_eq!(codesize_table(&serial), codesize_table(&parallel));
    assert_eq!(postprocessor_table(&serial), postprocessor_table(&parallel));
}

/// Strips the wall-clock fields (collection pauses) that legitimately
/// differ between two runs of the same deterministic pipeline.
fn normalized(events: Vec<Event>) -> Vec<Event> {
    const WALL_CLOCK: [&str; 8] = [
        "pause_ns",
        "total_pause_ns",
        "max_pause_ns",
        "mark_ns",
        "sweep_ns",
        "root_scan_ns",
        "heap_scan_ns",
        "class_sweep_ns",
    ];
    events
        .into_iter()
        .map(|mut e| {
            e.fields.retain(|(k, _)| !WALL_CLOCK.contains(k));
            e
        })
        .collect()
}

/// Drops the Prometheus families that carry wall-clock timings
/// (`gcprof_pause*`, `gcprof_mark*`, `gcprof_sweep_ns*`, `gcprof_mmu*`,
/// `gc_pause*`) or process-cumulative run-history counters
/// (`gccache_*`, which depend on what compiled earlier in the process);
/// everything left must be byte-identical across schedules.
fn strip_timing_metrics(text: &str) -> String {
    const TIMING: [&str; 6] = [
        "gcprof_pause",
        "gcprof_mark",
        "gcprof_sweep_ns",
        "gcprof_mmu",
        "gc_pause",
        "gccache_",
    ];
    let mut out: String = text
        .lines()
        .filter(|l| {
            let name = l
                .strip_prefix("# HELP ")
                .or_else(|| l.strip_prefix("# TYPE "))
                .unwrap_or(l);
            !TIMING.iter().any(|p| name.starts_with(p))
        })
        .collect::<Vec<_>>()
        .join("\n");
    out.push('\n');
    out
}

/// Drops the wall-clock lines of the human profile report and the
/// wall-clock fields of the per-cell JSON summary.
fn strip_timing_report(text: &str) -> String {
    let mut out: String = text
        .lines()
        .filter(|l| !l.starts_with("pause:") && !l.starts_with("mmu:"))
        .collect::<Vec<_>>()
        .join("\n");
    out.push('\n');
    out
}

fn strip_timing_json(text: &str) -> String {
    text.lines()
        .map(|l| {
            l.split(',')
                .filter(|part| !part.contains("pause_ns"))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn instrumented_parallel_exports_match_serial_modulo_timing() {
    let serial = profiled_matrix(1);
    let parallel = profiled_matrix(4);
    // Flamegraph folded stacks are fully deterministic: compared raw.
    let folded = folded_export(&serial);
    assert!(!folded.is_empty(), "profiling produced allocation stacks");
    assert_eq!(folded, folded_export(&parallel), "folded stacks differ");
    // Prometheus exposition: valid under the independent parser, and
    // byte-identical once the wall-clock families are dropped.
    let s_prom = prometheus_export(&serial);
    let p_prom = prometheus_export(&parallel);
    gc_safety::prom::validate(&s_prom).expect("serial export parses");
    gc_safety::prom::validate(&p_prom).expect("parallel export parses");
    let s_stripped = strip_timing_metrics(&s_prom);
    assert_eq!(
        s_stripped,
        strip_timing_metrics(&p_prom),
        "deterministic metric families differ"
    );
    for needle in [
        "gcprof_site_bytes_total",
        "gcprof_census_live_bytes",
        "gcprof_alloc_size_bytes_bucket",
        "gcprof_collections_total",
    ] {
        assert!(s_stripped.contains(needle), "missing {needle}");
    }
    // Human report and per-cell JSON: identical modulo wall-clock lines.
    assert_eq!(
        strip_timing_report(&prof_report(&serial)),
        strip_timing_report(&prof_report(&parallel))
    );
    assert_eq!(
        strip_timing_json(&bench_json(&serial)),
        strip_timing_json(&bench_json(&parallel))
    );
}

#[test]
fn timeline_export_is_byte_identical_at_any_jobs() {
    use gcbench::{gc_microbench, timeline_cells};
    let serial = profiled_matrix(1);
    let parallel = profiled_matrix(4);
    // The microbench is rerun for each trace: its wall-clock fields move,
    // but the virtual-clock trace must not — only deterministic counters
    // reach the export.
    let s = gcwatch::chrome_trace(&timeline_cells(&serial, &gc_microbench(true)));
    let p = gcwatch::chrome_trace(&timeline_cells(&parallel, &gc_microbench(true)));
    let events = gcwatch::validate_chrome_trace(&s).expect("timeline is well-formed");
    assert!(events > 0, "timeline has events");
    assert_eq!(s, p, "timeline differs between --jobs 1 and --jobs 4");
    // Every collection slice carries its attribution. The microbench
    // schedules run bounded-pause, so the trajectory must show nursery
    // collections, finished incremental cycles, and their bounded mark
    // stops as first-class slices.
    assert!(
        s.contains("\"cause\":\"nursery\""),
        "nursery causes exported"
    );
    assert!(
        s.contains("\"cause\":\"increment-finish\""),
        "finished cycles exported"
    );
    assert!(
        s.contains("\"name\":\"mark-inc\""),
        "increment slices exported"
    );
    assert!(s.contains("\"site\":\"micro\""), "sites exported");
    assert!(s.contains("root-scan"), "phase sub-slices exported");
    assert!(
        s.contains("\"name\":\"process_name\"") && s.contains("\"name\":\"thread_name\""),
        "Perfetto process/thread metadata present"
    );
}

#[test]
fn warm_cache_exports_are_byte_identical_to_cold() {
    use gcbench::{gc_microbench, timeline_cells};
    // The first pass may or may not be cold (tests share the process-
    // global caches), but the second is fully warm for everything the
    // first compiled — so any divergence below is cache unsoundness.
    gc_safety::cache_clear();
    let cold = profiled_matrix(2);
    let warm = profiled_matrix(2);
    for key in ["sparc2", "sparc10", "pentium90"] {
        assert_eq!(
            slowdown_table(&cold, key),
            slowdown_table(&warm, key),
            "slowdown table {key} differs cold vs warm"
        );
    }
    assert_eq!(codesize_table(&cold), codesize_table(&warm));
    assert_eq!(postprocessor_table(&cold), postprocessor_table(&warm));
    let folded = folded_export(&cold);
    assert!(!folded.is_empty());
    assert_eq!(folded, folded_export(&warm), "folded stacks differ");
    assert_eq!(
        strip_timing_metrics(&prometheus_export(&cold)),
        strip_timing_metrics(&prometheus_export(&warm)),
        "deterministic metric families differ cold vs warm"
    );
    assert_eq!(
        strip_timing_report(&prof_report(&cold)),
        strip_timing_report(&prof_report(&warm))
    );
    assert_eq!(
        strip_timing_json(&bench_json(&cold)),
        strip_timing_json(&bench_json(&warm))
    );
    assert_eq!(
        gcwatch::chrome_trace(&timeline_cells(&cold, &gc_microbench(true))),
        gcwatch::chrome_trace(&timeline_cells(&warm, &gc_microbench(true))),
        "timeline differs cold vs warm"
    );
}

#[test]
fn warm_cache_replays_the_cold_trace_stream() {
    // Traced builds either run live or replay a stored stream captured
    // from an identical source — so modulo wall-clock fields the two
    // runs' merged streams must be event-for-event identical.
    let cold = normalized(traced_events(2));
    let warm = normalized(traced_events(2));
    assert!(!cold.is_empty());
    assert_eq!(cold.len(), warm.len(), "streams have the same event count");
    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!(c, w, "event #{i} differs between cold and warm runs");
    }
}

#[test]
fn merged_parallel_trace_matches_the_serial_stream() {
    let serial = normalized(traced_events(1));
    let parallel = normalized(traced_events(4));
    assert!(!serial.is_empty(), "the traced run produced events");
    assert_eq!(
        serial.len(),
        parallel.len(),
        "streams have the same event count"
    );
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "event #{i} differs between serial and merged");
    }
    // The audit-trail shape the serial driver guaranteed: each workload
    // marker precedes all of that workload's cell events.
    let marker_names: Vec<&Value> = serial
        .iter()
        .filter(|e| (e.stage, e.kind) == ("bench", "workload"))
        .map(|e| e.get("name").expect("marker carries the name"))
        .collect();
    let expected: Vec<Value> = workloads::all()
        .iter()
        .map(|w| Value::Str(w.name.to_string()))
        .collect();
    assert_eq!(
        marker_names,
        expected.iter().collect::<Vec<_>>(),
        "one marker per workload, in paper row order"
    );
}

#[test]
fn snapshot_exports_are_byte_identical_at_any_jobs() {
    use gcbench::snap_exports;
    let serial = snapped_matrix(1);
    let parallel = snapped_matrix(2);
    let s = snap_exports(&serial).expect("serial exports validate");
    let p = snap_exports(&parallel).expect("parallel exports validate");
    assert!(!s.is_empty(), "the matrix produced snapshots");
    assert_eq!(
        s.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        p.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same documents in the same order"
    );
    // Snapshots carry no wall-clock fields, so no stripping: the whole
    // document is the determinism contract.
    for ((name, sd), (_, pd)) in s.iter().zip(&p) {
        assert_eq!(sd, pd, "{name} differs between --jobs 1 and --jobs 2");
    }
}

#[test]
fn snapshot_exports_are_byte_identical_cold_vs_warm_cache() {
    use gcbench::snap_exports;
    gc_safety::cache_clear();
    let cold = snapped_matrix(2);
    let warm = snapped_matrix(2);
    let c = snap_exports(&cold).expect("cold exports validate");
    let w = snap_exports(&warm).expect("warm exports validate");
    assert!(!c.is_empty(), "the matrix produced snapshots");
    assert_eq!(c, w, "snapshot documents differ cold vs warm");
}

#[test]
fn all_observers_at_once_are_byte_identical_at_any_jobs() {
    // What `tables --trace … --prof … --snap-dir …` runs: every observer
    // enabled together. Only with both trace and prof on does the facade
    // mirror the profile into the trace, so this is the one pin that
    // covers the ("prof", "histogram") / ("prof", "census") events.
    use gcbench::snap_exports;
    let run = |jobs: usize| {
        let (trace, sink) = TraceHandle::memory();
        let all_on = Observe {
            trace,
            prof: ProfHandle::enabled(),
            snap: SnapHandle::enabled(),
        };
        let data = collect(Scale::Tiny, jobs, &all_on).expect("observed collect");
        (data, normalized(sink.snapshot()))
    };
    let (serial, serial_events) = run(1);
    let (parallel, parallel_events) = run(2);
    for kind in ["histogram", "census"] {
        assert!(
            serial_events
                .iter()
                .any(|e| (e.stage, e.kind) == ("prof", kind)),
            "profile mirrored into the trace as ({kind})"
        );
    }
    assert_eq!(serial_events, parallel_events, "merged traces differ");
    assert_eq!(
        strip_timing_metrics(&prometheus_export(&serial)),
        strip_timing_metrics(&prometheus_export(&parallel)),
        "deterministic metric families differ"
    );
    let folded = folded_export(&serial);
    assert!(!folded.is_empty());
    assert_eq!(folded, folded_export(&parallel), "folded stacks differ");
    let s = snap_exports(&serial).expect("serial exports validate");
    assert!(!s.is_empty(), "the matrix produced snapshots");
    assert_eq!(
        s,
        snap_exports(&parallel).expect("parallel exports validate"),
        "snapshot documents differ"
    );
}
