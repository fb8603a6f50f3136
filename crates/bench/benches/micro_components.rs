//! Component microbenchmarks: the substrates' hot paths (parser, sema,
//! annotator, collector, page-map lookups, VM dispatch in ns/step) plus
//! an ablation of the annotator's optimizations, and the end-to-end
//! `measure_workload` path with tracing disabled (the NullSink overhead
//! guard).

mod timing;

use gcheap::{GcHeap, Memory, RootSet};
use timing::bench;

fn main() {
    let src = workloads::by_name("gs").expect("exists").source;

    println!("== components ==");

    bench("parse_gs", 2, 20, || cfront::parse(src).expect("parses"));

    bench("annotate_gs_safe", 2, 20, || {
        gcsafe::annotate_program(src, &gcsafe::Config::gc_safe()).expect("annotates")
    });

    bench("annotate_gs_checked", 2, 20, || {
        gcsafe::annotate_program(src, &gcsafe::Config::checked()).expect("annotates")
    });

    // Ablation: optimization 1 (copy suppression) off.
    let no_opt1 = gcsafe::Config {
        skip_copies: false,
        ..gcsafe::Config::gc_safe()
    };
    bench("annotate_gs_no_opt1", 2, 20, || {
        gcsafe::annotate_program(src, &no_opt1).expect("annotates")
    });

    bench("gc_alloc_collect_cycle", 2, 20, || {
        let mut mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
        let mut heap = GcHeap::with_defaults(&mem);
        let mut keep = Vec::new();
        for i in 0..2000u64 {
            let a = heap.alloc(&mut mem, 32).expect("fits");
            if i % 7 == 0 {
                keep.push(a);
            }
        }
        let mut roots = RootSet::new();
        for &k in &keep {
            roots.add_word(k);
        }
        heap.collect(&mut mem, &roots);
        heap.stats().objects_live
    });

    {
        let mut mem = Memory::new(1 << 16, 1 << 16, 1 << 22);
        let mut heap = GcHeap::with_defaults(&mem);
        let objs: Vec<u64> = (0..512)
            .map(|_| heap.alloc(&mut mem, 48).expect("fits"))
            .collect();
        bench("page_map_base_lookup", 2, 20, || {
            let mut acc = 0u64;
            for &o in &objs {
                acc = acc.wrapping_add(heap.base(o + 17).expect("interior resolves"));
            }
            acc
        });
    }

    // VM dispatch: one `-O safe` run per paper workload on its tiny
    // input, reported per executed IR instruction so dispatch speed is
    // comparable across programs and machines.
    for w in workloads::all() {
        let prog =
            cvm::compile(w.source, &cvm::CompileOptions::optimized_safe()).expect("compiles");
        let vopts = cvm::VmOptions {
            input: (w.input)(workloads::Scale::Tiny),
            ..cvm::VmOptions::default()
        };
        let steps = cvm::run_compiled(&prog, &vopts).expect("runs").steps;
        let median = bench(&format!("vm_{}", w.name), 3, 30, || {
            cvm::run_compiled(&prog, &vopts).expect("runs")
        });
        println!(
            "{:<28} {:.2} ns/step ({steps} steps)",
            format!("vm_{}", w.name),
            median as f64 / steps as f64
        );
    }

    // NullSink guard: the traced pipeline with tracing disabled must
    // match the untraced seed path (<1% is the acceptance bar; compare
    // this number across commits).
    bench("measure_cordtest_nullsink", 1, 10, || {
        let w = workloads::by_name("cordtest").expect("exists");
        gc_safety::measure_workload(&w, workloads::Scale::Tiny).expect("runs")
    });
}
