//! Trap hot-path microbenches (host time).
//!
//! The dispatch redesign replaced the `BTreeMap` syscall tables with
//! dense flat arrays indexed by syscall number. This bench measures the
//! resolver both ways — the dense [`SyscallTable`] against a faithful
//! `BTreeMap` mirror of the same entries — and drives full trap round
//! trips (null syscall, open+close, mach_msg) under all three personas.
//! Every run prints the dense and `BTreeMap` lookup medians side by
//! side; they are host time, so nothing is written to disk. The
//! deterministic virtual-time costs of the same [`Traps`] live in
//! `BENCH_dispatch.json`.

mod common;

use std::collections::BTreeMap;
use std::hint::black_box;

use cider_abi::syscall::{SyscallName, XnuSyscall};
use cider_bench::config::TestBed;
use cider_bench::dispatch::{Traps, PERSONAS};
use cider_core::xnu_abi::XnuPersonality;
use cider_kernel::dispatch::{SyscallHandler, SyscallTable};
use criterion::Criterion;

/// A faithful mirror of the *old* table representation: an ordered map
/// from syscall number to `(name, handler)`.
fn btreemap_mirror(
    table: &SyscallTable,
) -> BTreeMap<i32, (SyscallName, SyscallHandler)> {
    let mut map = BTreeMap::new();
    for (nr, name) in table.entries() {
        let handler = table.handler(nr).expect("entry has a handler");
        map.insert(nr, (name, handler));
    }
    map
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");

    // Dense table against the BTreeMap mirror: the null syscall alone,
    // then a walk over every installed number.
    let xnu = XnuPersonality::new();
    let table = xnu.unix_table();
    let mirror = btreemap_mirror(table);
    let numbers: Vec<i32> = table.entries().map(|(nr, _)| nr).collect();
    let null_nr = XnuSyscall::Getpid.number();
    group.bench_function("lookup_null/dense", |b| {
        b.iter(|| table.lookup(black_box(null_nr)))
    });
    group.bench_function("lookup_null/btreemap", |b| {
        b.iter(|| mirror.get(&black_box(null_nr)))
    });
    group.bench_function("lookup_walk/dense", |b| {
        b.iter(|| {
            for &nr in &numbers {
                black_box(table.lookup(black_box(nr)));
            }
        })
    });
    group.bench_function("lookup_walk/btreemap", |b| {
        b.iter(|| {
            for &nr in &numbers {
                black_box(mirror.get(&black_box(nr)));
            }
        })
    });

    for config in PERSONAS {
        let slug = config.slug();
        let mut t = Traps::new(TestBed::builder(config).build());
        group.bench_function(format!("null_syscall/{slug}"), |b| {
            b.iter(|| t.null_syscall())
        });
        group.bench_function(format!("open_close/{slug}"), |b| {
            b.iter(|| t.open_close())
        });
        if config.runs_ios_binary() {
            t.open_port();
            group.bench_function(format!("mach_msg/{slug}"), |b| {
                b.iter(|| t.mach_msg())
            });
            // Last in the loop, so flipping the bed to v2 taints
            // nothing above.
            t.bed.sys.enable_ipc_v2();
            group.bench_function(format!("mach_msg_v2/{slug}"), |b| {
                b.iter(|| t.mach_msg_v2())
            });
        }
    }
    group.finish();
}

fn main() {
    let mut c = common::criterion();
    bench(&mut c);
    c.final_summary();
}
