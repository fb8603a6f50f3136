//! Golden pin of the VM's observable behaviour.
//!
//! The cycle tables are block profiles × per-machine cost models, so the
//! interpreter may change however it likes as long as everything it
//! reports stays bit-identical. Each cell below runs one program under
//! one compile option and one heap configuration and pins: `steps`; the
//! exit code or the error's `Display`; FNV-1a of the output and of the
//! block counts; the sorted builtin call counts and byte work; and every
//! `HeapStats` counter that is not a wall-clock `_ns` field.
//!
//! Cells: the four paper workloads at `Scale::Tiny` input, then every
//! `tests/corpus/*.c` with empty input; each under `-O`, `-O safe`, `-g`
//! and `-g checked`, and each under the default heap (`dflt`) and under
//! `HeapConfig::bounded_pause()` with `gc_threshold: 1` (`bp1`), which
//! keeps incremental marking, mark steps and the store barrier in
//! flight at nearly every allocation.

use cvm::{compile, run_compiled, CompileOptions, ExecOutcome, VmError, VmOptions};
use gcheap::{HeapConfig, HeapStats};
use std::fs;
use std::path::PathBuf;
use workloads::Scale;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn heap_counters(h: &HeapStats) -> String {
    let fields = [
        ("collections", h.collections),
        ("allocations", h.allocations),
        ("bytes_requested", h.bytes_requested),
        ("failed_allocations", h.failed_allocations),
        ("pages_reclaimed", h.pages_reclaimed),
        ("pages_swept_lazily", h.pages_swept_lazily),
        ("sweep_debt_pages", h.sweep_debt_pages),
        ("objects_freed", h.objects_freed),
        ("objects_live", h.objects_live),
        ("bytes_live", h.bytes_live),
        ("same_obj_checks", h.same_obj_checks),
        ("same_obj_failures", h.same_obj_failures),
        ("blacklisted_pages", h.blacklisted_pages),
        ("collections_threshold", h.collections_threshold),
        ("collections_emergency", h.collections_emergency),
        ("collections_explicit", h.collections_explicit),
        (
            "collections_increment_finish",
            h.collections_increment_finish,
        ),
        ("collections_nursery", h.collections_nursery),
        ("mark_increments", h.mark_increments),
        ("sweep_increments", h.sweep_increments),
        ("barrier_marks", h.barrier_marks),
        ("peak_bytes_live", h.peak_bytes_live),
    ];
    let parts: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(",")
}

fn describe(r: &Result<ExecOutcome, VmError>) -> String {
    let out = match r {
        Ok(out) => out,
        Err(e) => return format!("error={e}"),
    };
    let blocks = out
        .profile
        .block_counts
        .iter()
        .flat_map(|f| {
            // Function boundaries count too: a count moving between two
            // functions must change the hash.
            f.iter()
                .flat_map(|c| c.to_le_bytes())
                .chain(u64::MAX.to_le_bytes())
        })
        .collect::<Vec<u8>>();
    let mut calls: Vec<String> = out
        .profile
        .builtin_calls
        .iter()
        .map(|(b, n)| format!("{b:?}:{n}"))
        .collect();
    calls.sort();
    format!(
        "exit={} steps={} out={:016x} blocks={:016x} calls=[{}] byte_work={} heap=[{}]",
        out.exit_code,
        out.steps,
        fnv1a(out.output.iter().copied()),
        fnv1a(blocks),
        calls.join(","),
        out.profile.builtin_byte_work,
        heap_counters(&out.heap)
    )
}

fn programs() -> Vec<(String, String, Vec<u8>)> {
    let mut progs: Vec<(String, String, Vec<u8>)> = workloads::all()
        .into_iter()
        .map(|w| {
            (
                w.name.to_string(),
                w.source.to_string(),
                (w.input)(Scale::Tiny),
            )
        })
        .collect();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut corpus: Vec<(String, String, Vec<u8>)> = fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| {
            let name = p
                .file_stem()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            let src = fs::read_to_string(&p).expect("readable corpus file");
            (name, src, Vec::new())
        })
        .collect();
    corpus.sort();
    progs.extend(corpus);
    progs
}

fn cells() -> Vec<String> {
    let options = [
        ("O", CompileOptions::optimized()),
        ("O-safe", CompileOptions::optimized_safe()),
        ("g", CompileOptions::debug()),
        ("g-checked", CompileOptions::debug_checked()),
    ];
    let heaps = [
        ("dflt", HeapConfig::default()),
        (
            "bp1",
            HeapConfig {
                gc_threshold: 1,
                ..HeapConfig::bounded_pause()
            },
        ),
    ];
    let mut lines = Vec::new();
    for (name, src, input) in programs() {
        for (olabel, copts) in &options {
            let prog = compile(&src, copts).unwrap_or_else(|e| panic!("{name} {olabel}: {e}"));
            for (hlabel, heap_config) in &heaps {
                let vopts = VmOptions {
                    heap_config: heap_config.clone(),
                    input: input.clone(),
                    ..VmOptions::default()
                };
                let r = run_compiled(&prog, &vopts);
                lines.push(format!("{name} {olabel} {hlabel} {}", describe(&r)));
            }
        }
    }
    lines
}

#[test]
fn vm_observables_match_the_golden_pin() {
    let got = cells();
    let want: Vec<&str> = GOLDEN.lines().filter(|l| !l.is_empty()).collect();
    let mismatches: Vec<String> = got
        .iter()
        .zip(want.iter().copied().chain(std::iter::repeat("<missing>")))
        .filter(|(g, w)| g.as_str() != *w)
        .map(|(g, w)| format!("want {w}\n got {g}"))
        .collect();
    assert!(
        mismatches.is_empty() && got.len() == want.len(),
        "{} of {} cells differ ({} pinned):\n{}\n\nfull table:\n{}",
        mismatches.len(),
        got.len(),
        want.len(),
        mismatches.join("\n"),
        got.join("\n")
    );
}

const GOLDEN: &str = "
cordtest O dflt exit=0 steps=37103 out=06e6b708569c81c5 blocks=99e71167bce37e7f calls=[Getchar:5,Malloc:133,Memcpy:35,Putchar:1,Putint:1,Putstr:1,Strlen:47] byte_work=1003 heap=[collections=0,allocations=133,bytes_requested=3831,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=133,bytes_live=5520,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=5520]
cordtest O bp1 exit=0 steps=37103 out=06e6b708569c81c5 blocks=99e71167bce37e7f calls=[Getchar:5,Malloc:133,Memcpy:35,Putchar:1,Putint:1,Putstr:1,Strlen:47] byte_work=1003 heap=[collections=75,allocations=133,bytes_requested=3831,failed_allocations=0,pages_reclaimed=15,pages_swept_lazily=21,sweep_debt_pages=0,objects_freed=98,objects_live=35,bytes_live=1712,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=18,collections_nursery=57,mark_increments=57,sweep_increments=18,barrier_marks=0,peak_bytes_live=2400]
cordtest O-safe dflt exit=0 steps=45094 out=06e6b708569c81c5 blocks=99e71167bce37e7f calls=[Getchar:5,Malloc:133,Memcpy:35,Putchar:1,Putint:1,Putstr:1,Strlen:47] byte_work=1003 heap=[collections=0,allocations=133,bytes_requested=3831,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=133,bytes_live=5520,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=5520]
cordtest O-safe bp1 exit=0 steps=45094 out=06e6b708569c81c5 blocks=99e71167bce37e7f calls=[Getchar:5,Malloc:133,Memcpy:35,Putchar:1,Putint:1,Putstr:1,Strlen:47] byte_work=1003 heap=[collections=75,allocations=133,bytes_requested=3831,failed_allocations=0,pages_reclaimed=15,pages_swept_lazily=21,sweep_debt_pages=0,objects_freed=98,objects_live=35,bytes_live=1712,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=18,collections_nursery=57,mark_increments=57,sweep_increments=18,barrier_marks=0,peak_bytes_live=2400]
cordtest g dflt exit=0 steps=72125 out=06e6b708569c81c5 blocks=dfff933d494a8f5d calls=[Getchar:5,Malloc:133,Memcpy:35,Putchar:1,Putint:1,Putstr:1,Strlen:47] byte_work=1003 heap=[collections=0,allocations=133,bytes_requested=3831,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=133,bytes_live=5520,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=5520]
cordtest g bp1 exit=0 steps=72125 out=06e6b708569c81c5 blocks=dfff933d494a8f5d calls=[Getchar:5,Malloc:133,Memcpy:35,Putchar:1,Putint:1,Putstr:1,Strlen:47] byte_work=1003 heap=[collections=75,allocations=133,bytes_requested=3831,failed_allocations=0,pages_reclaimed=14,pages_swept_lazily=21,sweep_debt_pages=0,objects_freed=97,objects_live=36,bytes_live=1840,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=18,collections_nursery=57,mark_increments=57,sweep_increments=18,barrier_marks=0,peak_bytes_live=2400]
cordtest g-checked dflt exit=0 steps=91692 out=06e6b708569c81c5 blocks=dfff933d494a8f5d calls=[GcPostIncr:120,Getchar:5,Malloc:133,Memcpy:35,Putchar:1,Putint:1,Putstr:1,Strlen:47] byte_work=1003 heap=[collections=0,allocations=133,bytes_requested=3831,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=133,bytes_live=5520,same_obj_checks=6145,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=5520]
cordtest g-checked bp1 exit=0 steps=91692 out=06e6b708569c81c5 blocks=dfff933d494a8f5d calls=[GcPostIncr:120,Getchar:5,Malloc:133,Memcpy:35,Putchar:1,Putint:1,Putstr:1,Strlen:47] byte_work=1003 heap=[collections=75,allocations=133,bytes_requested=3831,failed_allocations=0,pages_reclaimed=14,pages_swept_lazily=21,sweep_debt_pages=0,objects_freed=97,objects_live=36,bytes_live=1840,same_obj_checks=6145,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=18,collections_nursery=57,mark_increments=57,sweep_increments=18,barrier_marks=0,peak_bytes_live=2400]
cfrac O dflt exit=0 steps=532871 out=c59924387d4d87aa blocks=0474261de96851a0 calls=[Getchar:29,Malloc:5433,Putchar:25,Putint:25,Putstr:4] byte_work=12 heap=[collections=0,allocations=5433,bytes_requested=22748,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=5433,bytes_live=87360,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=87360]
cfrac O bp1 exit=0 steps=532871 out=c59924387d4d87aa blocks=0474261de96851a0 calls=[Getchar:29,Malloc:5433,Putchar:25,Putint:25,Putstr:4] byte_work=12 heap=[collections=3104,allocations=5433,bytes_requested=22748,failed_allocations=0,pages_reclaimed=775,pages_swept_lazily=17,sweep_debt_pages=0,objects_freed=5428,objects_live=5,bytes_live=112,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=776,collections_nursery=2328,mark_increments=2328,sweep_increments=776,barrier_marks=0,peak_bytes_live=272]
cfrac O-safe dflt exit=0 steps=598691 out=c59924387d4d87aa blocks=0474261de96851a0 calls=[Getchar:29,Malloc:5433,Putchar:25,Putint:25,Putstr:4] byte_work=12 heap=[collections=0,allocations=5433,bytes_requested=22748,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=5433,bytes_live=87360,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=87360]
cfrac O-safe bp1 exit=0 steps=598691 out=c59924387d4d87aa blocks=0474261de96851a0 calls=[Getchar:29,Malloc:5433,Putchar:25,Putint:25,Putstr:4] byte_work=12 heap=[collections=3104,allocations=5433,bytes_requested=22748,failed_allocations=0,pages_reclaimed=775,pages_swept_lazily=17,sweep_debt_pages=0,objects_freed=5428,objects_live=5,bytes_live=112,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=776,collections_nursery=2328,mark_increments=2328,sweep_increments=776,barrier_marks=0,peak_bytes_live=272]
cfrac g dflt exit=0 steps=1057306 out=c59924387d4d87aa blocks=a5608b1e868a98e6 calls=[Getchar:29,Malloc:5433,Putchar:25,Putint:25,Putstr:4] byte_work=12 heap=[collections=0,allocations=5433,bytes_requested=22748,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=5433,bytes_live=87360,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=87360]
cfrac g bp1 exit=0 steps=1057306 out=c59924387d4d87aa blocks=a5608b1e868a98e6 calls=[Getchar:29,Malloc:5433,Putchar:25,Putint:25,Putstr:4] byte_work=12 heap=[collections=3104,allocations=5433,bytes_requested=22748,failed_allocations=0,pages_reclaimed=773,pages_swept_lazily=17,sweep_debt_pages=0,objects_freed=5424,objects_live=9,bytes_live=208,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=776,collections_nursery=2328,mark_increments=2328,sweep_increments=776,barrier_marks=0,peak_bytes_live=304]
cfrac g-checked dflt exit=0 steps=1232524 out=c59924387d4d87aa blocks=a5608b1e868a98e6 calls=[Getchar:29,Malloc:5433,Putchar:25,Putint:25,Putstr:4] byte_work=12 heap=[collections=0,allocations=5433,bytes_requested=22748,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=5433,bytes_live=87360,same_obj_checks=54699,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=87360]
cfrac g-checked bp1 exit=0 steps=1232524 out=c59924387d4d87aa blocks=a5608b1e868a98e6 calls=[Getchar:29,Malloc:5433,Putchar:25,Putint:25,Putstr:4] byte_work=12 heap=[collections=3104,allocations=5433,bytes_requested=22748,failed_allocations=0,pages_reclaimed=773,pages_swept_lazily=17,sweep_debt_pages=0,objects_freed=5424,objects_live=9,bytes_live=208,same_obj_checks=54699,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=776,collections_nursery=2328,mark_increments=2328,sweep_increments=776,barrier_marks=0,peak_bytes_live=304]
gawk O dflt exit=0 steps=29778 out=29854d7b7183b7ca blocks=ac1ce403825e5138 calls=[Getchar:484,Malloc:89,Putchar:1,Putint:5,Putstr:7,Strcmp:18,Strcpy:14,Strlen:14] byte_work=321 heap=[collections=0,allocations=89,bytes_requested=12197,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=89,bytes_live=18336,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=18336]
gawk O bp1 exit=0 steps=29778 out=29854d7b7183b7ca blocks=ac1ce403825e5138 calls=[Getchar:484,Malloc:89,Putchar:1,Putint:5,Putstr:7,Strcmp:18,Strcpy:14,Strlen:14] byte_work=321 heap=[collections=51,allocations=89,bytes_requested=12197,failed_allocations=0,pages_reclaimed=8,pages_swept_lazily=32,sweep_debt_pages=0,objects_freed=52,objects_live=37,bytes_live=3360,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=12,collections_nursery=39,mark_increments=37,sweep_increments=12,barrier_marks=0,peak_bytes_live=4464]
gawk O-safe dflt exit=0 steps=31244 out=29854d7b7183b7ca blocks=ac1ce403825e5138 calls=[Getchar:484,Malloc:89,Putchar:1,Putint:5,Putstr:7,Strcmp:18,Strcpy:14,Strlen:14] byte_work=321 heap=[collections=0,allocations=89,bytes_requested=12197,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=89,bytes_live=18336,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=18336]
gawk O-safe bp1 exit=0 steps=31244 out=29854d7b7183b7ca blocks=ac1ce403825e5138 calls=[Getchar:484,Malloc:89,Putchar:1,Putint:5,Putstr:7,Strcmp:18,Strcpy:14,Strlen:14] byte_work=321 heap=[collections=51,allocations=89,bytes_requested=12197,failed_allocations=0,pages_reclaimed=8,pages_swept_lazily=32,sweep_debt_pages=0,objects_freed=52,objects_live=37,bytes_live=3360,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=12,collections_nursery=39,mark_increments=37,sweep_increments=12,barrier_marks=0,peak_bytes_live=4464]
gawk g dflt exit=0 steps=48952 out=29854d7b7183b7ca blocks=3f54de422b20f8f6 calls=[Getchar:484,Malloc:89,Putchar:1,Putint:5,Putstr:7,Strcmp:18,Strcpy:14,Strlen:14] byte_work=321 heap=[collections=0,allocations=89,bytes_requested=12197,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=89,bytes_live=18336,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=18336]
gawk g bp1 exit=0 steps=48952 out=29854d7b7183b7ca blocks=3f54de422b20f8f6 calls=[Getchar:484,Malloc:89,Putchar:1,Putint:5,Putstr:7,Strcmp:18,Strcpy:14,Strlen:14] byte_work=321 heap=[collections=51,allocations=89,bytes_requested=12197,failed_allocations=0,pages_reclaimed=7,pages_swept_lazily=32,sweep_debt_pages=0,objects_freed=50,objects_live=39,bytes_live=3936,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=12,collections_nursery=39,mark_increments=37,sweep_increments=12,barrier_marks=0,peak_bytes_live=5040]
gawk g-checked dflt error=pointer arithmetic check failed in 'main': 0x10000ff8 not in same object as 0x10001000
gawk g-checked bp1 error=pointer arithmetic check failed in 'main': 0x10000ff8 not in same object as 0x10001000
gs O dflt exit=0 steps=48699 out=cedb2f65c4ee508e blocks=f2ae2ed7c6c223cc calls=[Getchar:891,Malloc:180,Memcpy:10,Putchar:1,Putint:2,Putstr:2,Realloc:1,Strcmp:819,Strcpy:21,Strlen:47] byte_work=3957 heap=[collections=0,allocations=181,bytes_requested=6637,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=181,bytes_live=8752,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=8752]
gs O bp1 exit=0 steps=48699 out=cedb2f65c4ee508e blocks=f2ae2ed7c6c223cc calls=[Getchar:891,Malloc:180,Memcpy:10,Putchar:1,Putint:2,Putstr:2,Realloc:1,Strcmp:819,Strcpy:21,Strlen:47] byte_work=3957 heap=[collections=95,allocations=181,bytes_requested=6637,failed_allocations=0,pages_reclaimed=15,pages_swept_lazily=22,sweep_debt_pages=0,objects_freed=142,objects_live=39,bytes_live=2464,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=23,collections_nursery=72,mark_increments=72,sweep_increments=36,barrier_marks=13,peak_bytes_live=2576]
gs O-safe dflt exit=0 steps=50838 out=cedb2f65c4ee508e blocks=f2ae2ed7c6c223cc calls=[Getchar:891,Malloc:180,Memcpy:10,Putchar:1,Putint:2,Putstr:2,Realloc:1,Strcmp:819,Strcpy:21,Strlen:47] byte_work=3957 heap=[collections=0,allocations=181,bytes_requested=6637,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=181,bytes_live=8752,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=8752]
gs O-safe bp1 exit=0 steps=50838 out=cedb2f65c4ee508e blocks=f2ae2ed7c6c223cc calls=[Getchar:891,Malloc:180,Memcpy:10,Putchar:1,Putint:2,Putstr:2,Realloc:1,Strcmp:819,Strcpy:21,Strlen:47] byte_work=3957 heap=[collections=95,allocations=181,bytes_requested=6637,failed_allocations=0,pages_reclaimed=15,pages_swept_lazily=22,sweep_debt_pages=0,objects_freed=142,objects_live=39,bytes_live=2464,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=23,collections_nursery=72,mark_increments=72,sweep_increments=36,barrier_marks=13,peak_bytes_live=2576]
gs g dflt exit=0 steps=75514 out=cedb2f65c4ee508e blocks=c3ae6597e5262639 calls=[Getchar:891,Malloc:180,Memcpy:10,Putchar:1,Putint:2,Putstr:2,Realloc:1,Strcmp:819,Strcpy:21,Strlen:47] byte_work=3957 heap=[collections=0,allocations=181,bytes_requested=6637,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=181,bytes_live=8752,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=8752]
gs g bp1 exit=0 steps=75514 out=cedb2f65c4ee508e blocks=c3ae6597e5262639 calls=[Getchar:891,Malloc:180,Memcpy:10,Putchar:1,Putint:2,Putstr:2,Realloc:1,Strcmp:819,Strcpy:21,Strlen:47] byte_work=3957 heap=[collections=95,allocations=181,bytes_requested=6637,failed_allocations=0,pages_reclaimed=12,pages_swept_lazily=23,sweep_debt_pages=0,objects_freed=136,objects_live=45,bytes_live=2752,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=23,collections_nursery=72,mark_increments=71,sweep_increments=37,barrier_marks=12,peak_bytes_live=2960]
gs g-checked dflt exit=0 steps=80166 out=cedb2f65c4ee508e blocks=c3ae6597e5262639 calls=[GcPostIncr:27,Getchar:891,Malloc:180,Memcpy:10,Putchar:1,Putint:2,Putstr:2,Realloc:1,Strcmp:819,Strcpy:21,Strlen:47] byte_work=3957 heap=[collections=0,allocations=181,bytes_requested=6637,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=181,bytes_live=8752,same_obj_checks=1660,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=8752]
gs g-checked bp1 exit=0 steps=80166 out=cedb2f65c4ee508e blocks=c3ae6597e5262639 calls=[GcPostIncr:27,Getchar:891,Malloc:180,Memcpy:10,Putchar:1,Putint:2,Putstr:2,Realloc:1,Strcmp:819,Strcpy:21,Strlen:47] byte_work=3957 heap=[collections=95,allocations=181,bytes_requested=6637,failed_allocations=0,pages_reclaimed=12,pages_swept_lazily=23,sweep_debt_pages=0,objects_freed=136,objects_live=45,bytes_live=2752,same_obj_checks=1660,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=23,collections_nursery=72,mark_increments=71,sweep_increments=37,barrier_marks=12,peak_bytes_live=2960]
barrier_churn O dflt exit=80 steps=15170 out=3d37cfe1ad62b1ac blocks=3e1fab2aed0ed5fc calls=[Malloc:160,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=160,bytes_requested=7360,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=160,bytes_live=9344,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=9344]
barrier_churn O bp1 exit=80 steps=15170 out=3d37cfe1ad62b1ac blocks=3e1fab2aed0ed5fc calls=[Malloc:160,Putchar:1,Putint:1] byte_work=0 heap=[collections=83,allocations=160,bytes_requested=7360,failed_allocations=0,pages_reclaimed=26,pages_swept_lazily=39,sweep_debt_pages=0,objects_freed=110,objects_live=50,bytes_live=1952,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=20,collections_nursery=63,mark_increments=76,sweep_increments=20,barrier_marks=30,peak_bytes_live=2080]
barrier_churn O-safe dflt exit=80 steps=17940 out=3d37cfe1ad62b1ac blocks=3e1fab2aed0ed5fc calls=[Malloc:160,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=160,bytes_requested=7360,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=160,bytes_live=9344,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=9344]
barrier_churn O-safe bp1 exit=80 steps=17940 out=3d37cfe1ad62b1ac blocks=3e1fab2aed0ed5fc calls=[Malloc:160,Putchar:1,Putint:1] byte_work=0 heap=[collections=83,allocations=160,bytes_requested=7360,failed_allocations=0,pages_reclaimed=26,pages_swept_lazily=39,sweep_debt_pages=0,objects_freed=110,objects_live=50,bytes_live=1952,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=20,collections_nursery=63,mark_increments=76,sweep_increments=20,barrier_marks=30,peak_bytes_live=2080]
barrier_churn g dflt exit=80 steps=28497 out=3d37cfe1ad62b1ac blocks=18ed55edb591a8f4 calls=[Malloc:160,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=160,bytes_requested=7360,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=160,bytes_live=9344,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=9344]
barrier_churn g bp1 exit=80 steps=28497 out=3d37cfe1ad62b1ac blocks=18ed55edb591a8f4 calls=[Malloc:160,Putchar:1,Putint:1] byte_work=0 heap=[collections=83,allocations=160,bytes_requested=7360,failed_allocations=0,pages_reclaimed=12,pages_swept_lazily=46,sweep_debt_pages=0,objects_freed=109,objects_live=51,bytes_live=2048,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=20,collections_nursery=63,mark_increments=76,sweep_increments=20,barrier_marks=30,peak_bytes_live=2208]
barrier_churn g-checked dflt exit=80 steps=36807 out=3d37cfe1ad62b1ac blocks=18ed55edb591a8f4 calls=[Malloc:160,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=160,bytes_requested=7360,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=160,bytes_live=9344,same_obj_checks=2770,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=9344]
barrier_churn g-checked bp1 exit=80 steps=36807 out=3d37cfe1ad62b1ac blocks=18ed55edb591a8f4 calls=[Malloc:160,Putchar:1,Putint:1] byte_work=0 heap=[collections=83,allocations=160,bytes_requested=7360,failed_allocations=0,pages_reclaimed=12,pages_swept_lazily=46,sweep_debt_pages=0,objects_freed=109,objects_live=51,bytes_live=2048,same_obj_checks=2770,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=20,collections_nursery=63,mark_increments=76,sweep_increments=20,barrier_marks=30,peak_bytes_live=2208]
cursor_last_use O dflt exit=170 steps=335 out=3175c1d88922f35f blocks=cb29e1d4d5f142a9 calls=[Malloc:13,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=13,bytes_requested=288,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=13,bytes_live=512,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=512]
cursor_last_use O bp1 exit=170 steps=335 out=3175c1d88922f35f blocks=cb29e1d4d5f142a9 calls=[Malloc:13,Putchar:1,Putint:1] byte_work=0 heap=[collections=7,allocations=13,bytes_requested=288,failed_allocations=0,pages_reclaimed=2,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=3,objects_live=10,bytes_live=416,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=1,collections_nursery=6,mark_increments=5,sweep_increments=1,barrier_marks=0,peak_bytes_live=416]
cursor_last_use O-safe dflt exit=170 steps=383 out=3175c1d88922f35f blocks=cb29e1d4d5f142a9 calls=[Malloc:13,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=13,bytes_requested=288,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=13,bytes_live=512,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=512]
cursor_last_use O-safe bp1 exit=170 steps=383 out=3175c1d88922f35f blocks=cb29e1d4d5f142a9 calls=[Malloc:13,Putchar:1,Putint:1] byte_work=0 heap=[collections=7,allocations=13,bytes_requested=288,failed_allocations=0,pages_reclaimed=2,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=3,objects_live=10,bytes_live=416,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=1,collections_nursery=6,mark_increments=5,sweep_increments=1,barrier_marks=0,peak_bytes_live=416]
cursor_last_use g dflt exit=170 steps=671 out=3175c1d88922f35f blocks=cb29e1d4d5f142a9 calls=[Malloc:13,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=13,bytes_requested=288,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=13,bytes_live=512,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=512]
cursor_last_use g bp1 exit=170 steps=671 out=3175c1d88922f35f blocks=cb29e1d4d5f142a9 calls=[Malloc:13,Putchar:1,Putint:1] byte_work=0 heap=[collections=7,allocations=13,bytes_requested=288,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=1,sweep_debt_pages=0,objects_freed=2,objects_live=11,bytes_live=448,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=1,collections_nursery=6,mark_increments=5,sweep_increments=1,barrier_marks=0,peak_bytes_live=448]
cursor_last_use g-checked dflt exit=170 steps=743 out=3175c1d88922f35f blocks=cb29e1d4d5f142a9 calls=[GcPostIncr:12,Malloc:13,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=13,bytes_requested=288,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=13,bytes_live=512,same_obj_checks=48,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=512]
cursor_last_use g-checked bp1 exit=170 steps=743 out=3175c1d88922f35f blocks=cb29e1d4d5f142a9 calls=[GcPostIncr:12,Malloc:13,Putchar:1,Putint:1] byte_work=0 heap=[collections=7,allocations=13,bytes_requested=288,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=1,sweep_debt_pages=0,objects_freed=2,objects_live=11,bytes_live=448,same_obj_checks=48,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=1,collections_nursery=6,mark_increments=5,sweep_increments=1,barrier_marks=0,peak_bytes_live=448]
dangling_else O dflt exit=11 steps=16 out=456c3318181f9c07 blocks=0b36db5a2e2d79fc calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
dangling_else O bp1 exit=11 steps=16 out=456c3318181f9c07 blocks=0b36db5a2e2d79fc calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
dangling_else O-safe dflt exit=11 steps=16 out=456c3318181f9c07 blocks=0b36db5a2e2d79fc calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
dangling_else O-safe bp1 exit=11 steps=16 out=456c3318181f9c07 blocks=0b36db5a2e2d79fc calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
dangling_else g dflt exit=11 steps=35 out=456c3318181f9c07 blocks=f3fd084555623f7c calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
dangling_else g bp1 exit=11 steps=35 out=456c3318181f9c07 blocks=f3fd084555623f7c calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
dangling_else g-checked dflt exit=11 steps=35 out=456c3318181f9c07 blocks=f3fd084555623f7c calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
dangling_else g-checked bp1 exit=11 steps=35 out=456c3318181f9c07 blocks=f3fd084555623f7c calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
displaced_base O dflt exit=0 steps=44025 out=07fc1e07b4bd2c5f blocks=7f700110ec3184cf calls=[Malloc:3,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=3,bytes_requested=4128,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=4288,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=4288]
displaced_base O bp1 exit=0 steps=44025 out=07fc1e07b4bd2c5f blocks=7f700110ec3184cf calls=[Malloc:3,Putchar:1,Putint:1] byte_work=0 heap=[collections=2,allocations=3,bytes_requested=4128,failed_allocations=0,pages_reclaimed=1,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=1,objects_live=2,bytes_live=4192,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=2,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=4192]
displaced_base O-safe dflt exit=0 steps=48029 out=07fc1e07b4bd2c5f blocks=7f700110ec3184cf calls=[Malloc:3,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=3,bytes_requested=4128,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=4288,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=4288]
displaced_base O-safe bp1 exit=0 steps=48029 out=07fc1e07b4bd2c5f blocks=7f700110ec3184cf calls=[Malloc:3,Putchar:1,Putint:1] byte_work=0 heap=[collections=2,allocations=3,bytes_requested=4128,failed_allocations=0,pages_reclaimed=1,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=1,objects_live=2,bytes_live=4192,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=2,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=4192]
displaced_base g dflt exit=0 steps=88059 out=07fc1e07b4bd2c5f blocks=7f700110ec3184cf calls=[Malloc:3,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=3,bytes_requested=4128,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=4288,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=4288]
displaced_base g bp1 exit=0 steps=88059 out=07fc1e07b4bd2c5f blocks=7f700110ec3184cf calls=[Malloc:3,Putchar:1,Putint:1] byte_work=0 heap=[collections=2,allocations=3,bytes_requested=4128,failed_allocations=0,pages_reclaimed=1,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=1,objects_live=2,bytes_live=4192,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=2,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=4192]
displaced_base g-checked dflt exit=0 steps=100071 out=07fc1e07b4bd2c5f blocks=7f700110ec3184cf calls=[Malloc:3,Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=3,bytes_requested=4128,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=4288,same_obj_checks=4004,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=4288]
displaced_base g-checked bp1 exit=0 steps=100071 out=07fc1e07b4bd2c5f blocks=7f700110ec3184cf calls=[Malloc:3,Putchar:1,Putint:1] byte_work=0 heap=[collections=2,allocations=3,bytes_requested=4128,failed_allocations=0,pages_reclaimed=1,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=1,objects_live=2,bytes_live=4192,same_obj_checks=4004,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=2,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=4192]
memcpy_chain O dflt exit=0 steps=412 out=07fc1e07b4bd2c5f blocks=f5642ea80046241d calls=[Malloc:3,Memcpy:3,Putchar:1,Putint:1] byte_work=256 heap=[collections=0,allocations=3,bytes_requested=384,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=576,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=576]
memcpy_chain O bp1 exit=0 steps=412 out=07fc1e07b4bd2c5f blocks=f5642ea80046241d calls=[Malloc:3,Memcpy:3,Putchar:1,Putint:1] byte_work=256 heap=[collections=2,allocations=3,bytes_requested=384,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=1,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=576,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=2,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=576]
memcpy_chain O-safe dflt exit=0 steps=462 out=07fc1e07b4bd2c5f blocks=f5642ea80046241d calls=[Malloc:3,Memcpy:3,Putchar:1,Putint:1] byte_work=256 heap=[collections=0,allocations=3,bytes_requested=384,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=576,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=576]
memcpy_chain O-safe bp1 exit=0 steps=462 out=07fc1e07b4bd2c5f blocks=f5642ea80046241d calls=[Malloc:3,Memcpy:3,Putchar:1,Putint:1] byte_work=256 heap=[collections=2,allocations=3,bytes_requested=384,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=1,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=576,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=2,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=576]
memcpy_chain g dflt exit=0 steps=905 out=07fc1e07b4bd2c5f blocks=d592b399718c8d5c calls=[Malloc:3,Memcpy:3,Putchar:1,Putint:1] byte_work=256 heap=[collections=0,allocations=3,bytes_requested=384,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=576,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=576]
memcpy_chain g bp1 exit=0 steps=905 out=07fc1e07b4bd2c5f blocks=d592b399718c8d5c calls=[Malloc:3,Memcpy:3,Putchar:1,Putint:1] byte_work=256 heap=[collections=2,allocations=3,bytes_requested=384,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=1,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=576,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=2,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=576]
memcpy_chain g-checked dflt exit=0 steps=1055 out=07fc1e07b4bd2c5f blocks=d592b399718c8d5c calls=[Malloc:3,Memcpy:3,Putchar:1,Putint:1] byte_work=256 heap=[collections=0,allocations=3,bytes_requested=384,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=576,same_obj_checks=50,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=576]
memcpy_chain g-checked bp1 exit=0 steps=1055 out=07fc1e07b4bd2c5f blocks=d592b399718c8d5c calls=[Malloc:3,Memcpy:3,Putchar:1,Putint:1] byte_work=256 heap=[collections=2,allocations=3,bytes_requested=384,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=1,sweep_debt_pages=0,objects_freed=0,objects_live=3,bytes_live=576,same_obj_checks=50,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=2,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=576]
valueless_return O dflt exit=4 steps=11 out=07f1fc07b4b49e14 blocks=792e339accb03cf6 calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
valueless_return O bp1 exit=4 steps=11 out=07f1fc07b4b49e14 blocks=792e339accb03cf6 calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
valueless_return O-safe dflt exit=4 steps=11 out=07f1fc07b4b49e14 blocks=792e339accb03cf6 calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
valueless_return O-safe bp1 exit=4 steps=11 out=07f1fc07b4b49e14 blocks=792e339accb03cf6 calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
valueless_return g dflt exit=4 steps=19 out=07f1fc07b4b49e14 blocks=792e339accb03cf6 calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
valueless_return g bp1 exit=4 steps=19 out=07f1fc07b4b49e14 blocks=792e339accb03cf6 calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
valueless_return g-checked dflt exit=4 steps=19 out=07f1fc07b4b49e14 blocks=792e339accb03cf6 calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
valueless_return g-checked bp1 exit=4 steps=19 out=07f1fc07b4b49e14 blocks=792e339accb03cf6 calls=[Putchar:1,Putint:1] byte_work=0 heap=[collections=0,allocations=0,bytes_requested=0,failed_allocations=0,pages_reclaimed=0,pages_swept_lazily=0,sweep_debt_pages=0,objects_freed=0,objects_live=0,bytes_live=0,same_obj_checks=0,same_obj_failures=0,blacklisted_pages=0,collections_threshold=0,collections_emergency=0,collections_explicit=0,collections_increment_finish=0,collections_nursery=0,mark_increments=0,sweep_increments=0,barrier_marks=0,peak_bytes_live=0]
";
