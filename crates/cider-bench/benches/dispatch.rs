//! Trap hot-path microbenches (host time) and the committed
//! `BENCH_dispatch.json` evidence file.
//!
//! The dispatch redesign replaced the `BTreeMap` syscall tables with
//! dense flat arrays indexed by syscall number. This bench measures the
//! resolver both ways — the dense [`SyscallTable`] against a faithful
//! `BTreeMap` mirror of the same entries — and drives full trap round
//! trips (null syscall, open+close, mach_msg) under all three personas.
//! Host-time medians go to stdout via criterion; the lookup comparison
//! and the deterministic virtual-time costs are written to
//! `BENCH_dispatch.json` at the repository root.

mod common;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use cider_abi::syscall::{MachTrap, SyscallName, XnuTrap};
use cider_bench::config::{SystemConfig, TestBed};
use cider_bench::lmbench::{
    fork_exec_lat, fork_exec_warm_lat, trap_number, Call,
};
use cider_core::wire;
use cider_core::xnu_abi::XnuPersonality;
use cider_kernel::dispatch::{
    SyscallArgs, SyscallData, SyscallHandler, SyscallTable,
};
use cider_xnu::ipc::UserMessage;
use criterion::Criterion;

/// The personas of the dispatch comparison: domestic Linux, translated
/// XNU on Cider, and native XNU.
const PERSONAS: [SystemConfig; 3] = [
    SystemConfig::VanillaAndroid,
    SystemConfig::CiderIos,
    SystemConfig::IpadMini,
];

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

/// Median host nanoseconds of `f` across `samples` runs.
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_nanos() as f64);
    }
    out.sort_by(f64::total_cmp);
    out[out.len() / 2]
}

/// Per-lookup cost of resolving the null syscall (getpid) and of a walk
/// over every installed number, dense vs `BTreeMap`.
struct LookupNumbers {
    null_dense_ns: f64,
    null_btreemap_ns: f64,
    walk_dense_ns: f64,
    walk_btreemap_ns: f64,
}

fn measure_lookups() -> LookupNumbers {
    const ROUNDS: usize = 64 * 1024;
    const SAMPLES: usize = 21;
    let xnu = XnuPersonality::new();
    let table = xnu.unix_table();
    let mirror = btreemap_mirror(table);
    let numbers: Vec<i32> = table.entries().map(|(nr, _)| nr).collect();
    let null_nr = cider_abi::syscall::XnuSyscall::Getpid.number();

    let null_dense_ns = median_ns(SAMPLES, || {
        for _ in 0..ROUNDS {
            black_box(table.lookup(black_box(null_nr)));
        }
    }) / ROUNDS as f64;
    let null_btreemap_ns = median_ns(SAMPLES, || {
        for _ in 0..ROUNDS {
            black_box(mirror.get(&black_box(null_nr)));
        }
    }) / ROUNDS as f64;

    let per_walk = numbers.len() as f64;
    let walk_dense_ns = median_ns(SAMPLES, || {
        for _ in 0..ROUNDS / 64 {
            for &nr in &numbers {
                black_box(table.lookup(black_box(nr)));
            }
        }
    }) / (ROUNDS / 64) as f64
        / per_walk;
    let walk_btreemap_ns = median_ns(SAMPLES, || {
        for _ in 0..ROUNDS / 64 {
            for &nr in &numbers {
                black_box(mirror.get(&black_box(nr)));
            }
        }
    }) / (ROUNDS / 64) as f64
        / per_walk;

    LookupNumbers {
        null_dense_ns,
        null_btreemap_ns,
        walk_dense_ns,
        walk_btreemap_ns,
    }
}

/// Virtual nanoseconds per call of a trap loop — deterministic, so the
/// committed JSON is stable across runs and machines.
fn virtual_ns_per_call<F: FnMut(&mut TestBed)>(
    bed: &mut TestBed,
    iters: u64,
    mut f: F,
) -> u64 {
    let t0 = bed.sys.kernel.clock.now_ns();
    for _ in 0..iters {
        f(bed);
    }
    (bed.sys.kernel.clock.now_ns() - t0) / iters
}

struct PersonaCosts {
    config: SystemConfig,
    null_syscall_ns: u64,
    open_close_ns: u64,
    mach_msg_ns: Option<u64>,
}

fn measure_persona(config: SystemConfig) -> PersonaCosts {
    let ios = config.runs_ios_binary();
    let mut bed = TestBed::builder(config).build();
    let (_, tid) = bed.spawn_measured().expect("bench binaries installed");
    bed.sys
        .kernel
        .vfs
        .write_file("/tmp/openme", vec![1])
        .expect("fresh fs");

    let nr_null = trap_number(ios, Call::Getpid);
    let null_syscall_ns = virtual_ns_per_call(&mut bed, 64, |bed| {
        bed.sys.trap(tid, nr_null, &SyscallArgs::none());
    });

    let nr_open = trap_number(ios, Call::Open);
    let nr_close = trap_number(ios, Call::Close);
    let open_close_ns = virtual_ns_per_call(&mut bed, 64, |bed| {
        let mut args = SyscallArgs::none();
        args.data = SyscallData::Path("/tmp/openme".into());
        let r = bed.sys.trap(tid, nr_open, &args);
        bed.sys.trap(
            tid,
            nr_close,
            &SyscallArgs::regs([r.reg, 0, 0, 0, 0, 0, 0]),
        );
    });

    let mach_msg_ns = ios.then(|| {
        let port = bed.sys.mach_port_allocate(tid).expect("ports zone");
        let send = bed.sys.mach_make_send(tid, port).expect("send right");
        let nr = XnuTrap::Mach(MachTrap::MachMsgTrap).encode();
        virtual_ns_per_call(&mut bed, 64, |bed| {
            let msg = UserMessage::simple(send, 7, &b"ping"[..]);
            let mut args = SyscallArgs::regs([1, 0, 0, 0, 0, 0, 0]);
            args.data =
                SyscallData::Bytes(wire::encode_user_message(&msg).into());
            let r = bed.sys.trap(tid, nr, &args);
            assert_eq!(r.reg, 0, "mach_msg send");
            let rcv =
                SyscallArgs::regs([2, 0, port.as_raw() as i64, 0, 0, 0, 0]);
            let r = bed.sys.trap(tid, nr, &rcv);
            assert_eq!(r.reg, 0, "mach_msg receive");
        })
    });

    PersonaCosts {
        config,
        null_syscall_ns,
        open_close_ns,
        mach_msg_ns,
    }
}

/// IPC v2 costs for one iOS persona, against the v1 row measured on
/// the same configuration with the feature off.
///
/// `mach_msg_ns` is the combined-option round trip —
/// `MACH_SEND_MSG|MACH_RCV_MSG` in one trap, with no subsystem mutex
/// crossings — where v1 pays two crossings and a subsystem mutex on
/// each. `ool_16k_ns`
/// round-trips a 16 KiB out-of-line descriptor, which v2 moves by
/// remapping four pages instead of copying 16384 bytes.
/// `ring_batch_per_msg_ns` round-trips [`RING_BATCH_MSGS`] messages as
/// interleaved send/receive ring submissions paying a single
/// `ring_flush` crossing for the whole batch.
struct IpcV2Costs {
    config: SystemConfig,
    v1_mach_msg_ns: u64,
    mach_msg_ns: u64,
    ool_16k_ns: u64,
    ring_batch_per_msg_ns: u64,
}

/// Messages per ring batch: 16 interleaved send/receive entries fill
/// the submission ring exactly once per flush.
const RING_BATCH_MSGS: u64 = 8;

/// Bytes of the out-of-line payload: four pages, comfortably past the
/// inline threshold so v2 takes the remap path.
const OOL_BYTES: usize = 16 * 1024;

fn measure_ipc_v2(config: SystemConfig, v1_mach_msg_ns: u64) -> IpcV2Costs {
    let mut bed = TestBed::builder(config).ipc_v2().build();
    let (_, tid) = bed.spawn_measured().expect("bench binaries installed");
    let port = bed.sys.mach_port_allocate(tid).expect("ports zone");
    let send = bed.sys.mach_make_send(tid, port).expect("send right");
    let nr = XnuTrap::Mach(MachTrap::MachMsgTrap).encode();

    let mach_msg_ns = virtual_ns_per_call(&mut bed, 64, |bed| {
        let msg = UserMessage::simple(send, 7, &b"ping"[..]);
        let mut args = SyscallArgs::regs([
            3, // MACH_SEND_MSG | MACH_RCV_MSG: one crossing, not two.
            0,
            port.as_raw() as i64,
            0,
            0,
            0,
            0,
        ]);
        args.data = SyscallData::Bytes(wire::encode_user_message(&msg).into());
        let r = bed.sys.trap(tid, nr, &args);
        assert_eq!(r.reg, 0, "mach_msg v2 combined round trip");
    });

    let ool_16k_ns = virtual_ns_per_call(&mut bed, 64, |bed| {
        let mut msg = UserMessage::simple(send, 8, &b"ool"[..]);
        msg.ool.push(vec![0xA5u8; OOL_BYTES].into());
        let mut args =
            SyscallArgs::regs([3, 0, port.as_raw() as i64, 0, 0, 0, 0]);
        args.data = SyscallData::Bytes(wire::encode_user_message(&msg).into());
        let r = bed.sys.trap(tid, nr, &args);
        assert_eq!(r.reg, 0, "mach_msg v2 OOL round trip");
    });

    let batch_ns = virtual_ns_per_call(&mut bed, 16, |bed| {
        for i in 0..RING_BATCH_MSGS {
            let msg = UserMessage::simple(send, 0x900 + i as i32, &b"b"[..]);
            let early =
                bed.sys.ring_submit(tid, cider_core::RingOp::Send(msg));
            assert!(early.expect("submit").is_empty(), "ring overflowed");
            bed.sys
                .ring_submit(tid, cider_core::RingOp::Recv(port))
                .expect("submit");
        }
        let cs = bed.sys.ring_flush(tid).expect("flush");
        assert_eq!(cs.len() as u64, 2 * RING_BATCH_MSGS);
        assert!(cs.iter().all(|c| c.kr.is_success()));
    });
    let ring_batch_per_msg_ns = batch_ns / RING_BATCH_MSGS;

    IpcV2Costs {
        config,
        v1_mach_msg_ns,
        mach_msg_ns,
        ool_16k_ns,
        ring_batch_per_msg_ns,
    }
}

/// One launch-storm cell: the virtual-time cost of a `fork+exec` app
/// launch on one configuration, cold (closure walk + eager PTE copy)
/// and warm (prelinked shared cache + copy-on-write fork).
struct LaunchStorm {
    config: SystemConfig,
    cold_launch_ns: u64,
    warm_launch_ns: u64,
}

impl LaunchStorm {
    fn launches_per_sec(ns: u64) -> f64 {
        1e9 / ns as f64
    }
}

fn measure_launch_storm(config: SystemConfig) -> LaunchStorm {
    let ios = config.runs_ios_binary();
    let mut bed = TestBed::builder(config).build();
    let (_, tid) = bed.spawn_measured().expect("bench binaries installed");
    let cold_launch_ns =
        fork_exec_lat(&mut bed, tid, ios).expect("cold launch").ns;
    let warm_launch_ns = fork_exec_warm_lat(&mut bed, tid, ios)
        .expect("warm launch")
        .ns;
    LaunchStorm {
        config,
        cold_launch_ns,
        warm_launch_ns,
    }
}

fn write_json(
    lookups: &LookupNumbers,
    personas: &[PersonaCosts],
    ipc_v2: &[IpcV2Costs],
    storms: &[LaunchStorm],
) {
    let mut s = String::from("{\n");
    s.push_str("  \"null_syscall_dispatch\": {\n");
    s.push_str(&format!(
        "    \"dense_ns_per_lookup\": {:.3},\n",
        lookups.null_dense_ns
    ));
    s.push_str(&format!(
        "    \"btreemap_ns_per_lookup\": {:.3},\n",
        lookups.null_btreemap_ns
    ));
    s.push_str(&format!(
        "    \"speedup\": {:.2}\n",
        lookups.null_btreemap_ns / lookups.null_dense_ns
    ));
    s.push_str("  },\n");
    s.push_str("  \"full_table_walk\": {\n");
    s.push_str(&format!(
        "    \"dense_ns_per_lookup\": {:.3},\n",
        lookups.walk_dense_ns
    ));
    s.push_str(&format!(
        "    \"btreemap_ns_per_lookup\": {:.3},\n",
        lookups.walk_btreemap_ns
    ));
    s.push_str(&format!(
        "    \"speedup\": {:.2}\n",
        lookups.walk_btreemap_ns / lookups.walk_dense_ns
    ));
    s.push_str("  },\n");
    s.push_str("  \"trap_round_trip_virtual_ns\": {\n");
    for (i, p) in personas.iter().enumerate() {
        s.push_str(&format!("    \"{}\": {{\n", p.config.slug()));
        s.push_str(&format!(
            "      \"null_syscall\": {},\n",
            p.null_syscall_ns
        ));
        match p.mach_msg_ns {
            Some(m) => {
                s.push_str(&format!(
                    "      \"open_close\": {},\n",
                    p.open_close_ns
                ));
                s.push_str(&format!("      \"mach_msg\": {}\n", m));
            }
            None => s.push_str(&format!(
                "      \"open_close\": {}\n",
                p.open_close_ns
            )),
        }
        let sep = if i + 1 == personas.len() { "" } else { "," };
        s.push_str(&format!("    }}{sep}\n"));
    }
    s.push_str("  },\n");
    s.push_str("  \"ipc_v2_virtual_ns\": {\n");
    for (i, v2) in ipc_v2.iter().enumerate() {
        s.push_str(&format!("    \"{}\": {{\n", v2.config.slug()));
        s.push_str(&format!("      \"mach_msg\": {},\n", v2.mach_msg_ns));
        s.push_str(&format!(
            "      \"mach_msg_speedup\": {:.2},\n",
            v2.v1_mach_msg_ns as f64 / v2.mach_msg_ns as f64
        ));
        s.push_str(&format!(
            "      \"mach_msg_ool_16k\": {},\n",
            v2.ool_16k_ns
        ));
        s.push_str(&format!(
            "      \"ring_batch_per_msg\": {},\n",
            v2.ring_batch_per_msg_ns
        ));
        s.push_str(&format!(
            "      \"ring_batch_msgs\": {}\n",
            RING_BATCH_MSGS
        ));
        let sep = if i + 1 == ipc_v2.len() { "" } else { "," };
        s.push_str(&format!("    }}{sep}\n"));
    }
    s.push_str("  },\n");
    s.push_str("  \"launch_storm\": {\n");
    for (i, storm) in storms.iter().enumerate() {
        s.push_str(&format!("    \"{}\": {{\n", storm.config.slug()));
        s.push_str(&format!(
            "      \"cold_launch_ns\": {},\n",
            storm.cold_launch_ns
        ));
        s.push_str(&format!(
            "      \"warm_launch_ns\": {},\n",
            storm.warm_launch_ns
        ));
        s.push_str(&format!(
            "      \"cold_launches_per_sec\": {:.1},\n",
            LaunchStorm::launches_per_sec(storm.cold_launch_ns)
        ));
        s.push_str(&format!(
            "      \"warm_launches_per_sec\": {:.1},\n",
            LaunchStorm::launches_per_sec(storm.warm_launch_ns)
        ));
        s.push_str(&format!(
            "      \"warm_speedup\": {:.2}\n",
            storm.cold_launch_ns as f64 / storm.warm_launch_ns as f64
        ));
        let sep = if i + 1 == storms.len() { "" } else { "," };
        s.push_str(&format!("    }}{sep}\n"));
    }
    s.push_str("  }\n}\n");
    let path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    std::fs::write(path, s).expect("write BENCH_dispatch.json");
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");

    let xnu = XnuPersonality::new();
    let table = xnu.unix_table();
    let mirror = btreemap_mirror(table);
    let numbers: Vec<i32> = table.entries().map(|(nr, _)| nr).collect();
    group.bench_function("lookup/dense", |b| {
        b.iter(|| {
            for &nr in &numbers {
                black_box(table.lookup(black_box(nr)));
            }
        })
    });
    group.bench_function("lookup/btreemap", |b| {
        b.iter(|| {
            for &nr in &numbers {
                black_box(mirror.get(&black_box(nr)));
            }
        })
    });

    for config in PERSONAS {
        let ios = config.runs_ios_binary();
        let mut bed = TestBed::builder(config).build();
        let (_, tid) = bed.spawn_measured().expect("bench binaries installed");
        bed.sys
            .kernel
            .vfs
            .write_file("/tmp/openme", vec![1])
            .expect("fresh fs");

        let nr_null = trap_number(ios, Call::Getpid);
        group.bench_function(format!("null_syscall/{}", config.slug()), |b| {
            b.iter(|| bed.sys.trap(tid, nr_null, &SyscallArgs::none()))
        });

        let nr_open = trap_number(ios, Call::Open);
        let nr_close = trap_number(ios, Call::Close);
        group.bench_function(format!("open_close/{}", config.slug()), |b| {
            b.iter(|| {
                let mut args = SyscallArgs::none();
                args.data = SyscallData::Path("/tmp/openme".into());
                let r = bed.sys.trap(tid, nr_open, &args);
                bed.sys.trap(
                    tid,
                    nr_close,
                    &SyscallArgs::regs([r.reg, 0, 0, 0, 0, 0, 0]),
                )
            })
        });

        if ios {
            let port = bed.sys.mach_port_allocate(tid).expect("ports zone");
            let send = bed.sys.mach_make_send(tid, port).expect("send right");
            let nr = XnuTrap::Mach(MachTrap::MachMsgTrap).encode();
            group.bench_function(format!("mach_msg/{}", config.slug()), |b| {
                b.iter(|| {
                    let msg = UserMessage::simple(send, 7, &b"ping"[..]);
                    let mut args = SyscallArgs::regs([1, 0, 0, 0, 0, 0, 0]);
                    args.data = SyscallData::Bytes(
                        wire::encode_user_message(&msg).into(),
                    );
                    bed.sys.trap(tid, nr, &args);
                    let rcv = SyscallArgs::regs([
                        2,
                        0,
                        port.as_raw() as i64,
                        0,
                        0,
                        0,
                        0,
                    ]);
                    bed.sys.trap(tid, nr, &rcv)
                })
            });
            // Host time of the v2 combined-option trap (last in the
            // loop, so flipping the bed to v2 taints nothing above).
            bed.sys.enable_ipc_v2();
            group.bench_function(
                format!("mach_msg_v2/{}", config.slug()),
                |b| {
                    b.iter(|| {
                        let msg = UserMessage::simple(send, 7, &b"ping"[..]);
                        let mut args = SyscallArgs::regs([
                            3,
                            0,
                            port.as_raw() as i64,
                            0,
                            0,
                            0,
                            0,
                        ]);
                        args.data = SyscallData::Bytes(
                            wire::encode_user_message(&msg).into(),
                        );
                        bed.sys.trap(tid, nr, &args)
                    })
                },
            );
        }
    }
    group.finish();
}

fn main() {
    let lookups = measure_lookups();
    let personas: Vec<PersonaCosts> =
        PERSONAS.into_iter().map(measure_persona).collect();
    let ipc_v2: Vec<IpcV2Costs> = personas
        .iter()
        .filter_map(|p| p.mach_msg_ns.map(|v1| measure_ipc_v2(p.config, v1)))
        .collect();
    let storms: Vec<LaunchStorm> =
        PERSONAS.into_iter().map(measure_launch_storm).collect();
    write_json(&lookups, &personas, &ipc_v2, &storms);
    println!(
        "dispatch lookup: dense {:.2}ns vs btreemap {:.2}ns ({:.1}x)",
        lookups.null_dense_ns,
        lookups.null_btreemap_ns,
        lookups.null_btreemap_ns / lookups.null_dense_ns,
    );
    for v2 in &ipc_v2 {
        println!(
            "ipc v2 {}: mach_msg {}ns (v1 {}ns, {:.2}x) ool16k {}ns \
             ring {}ns/msg",
            v2.config.slug(),
            v2.mach_msg_ns,
            v2.v1_mach_msg_ns,
            v2.v1_mach_msg_ns as f64 / v2.mach_msg_ns as f64,
            v2.ool_16k_ns,
            v2.ring_batch_per_msg_ns,
        );
        // The redesign's headline acceptance: halving the crossings
        // (and dropping the subsystem mutex) at least halves the
        // round trip, and a flushed batch beats the per-message trap.
        assert!(
            v2.mach_msg_ns * 2 <= v2.v1_mach_msg_ns,
            "{}: v2 mach_msg lost its 2x win",
            v2.config.slug()
        );
        assert!(
            v2.ring_batch_per_msg_ns < v2.mach_msg_ns,
            "{}: ring batch costs more than single traps",
            v2.config.slug()
        );
    }
    for storm in &storms {
        println!(
            "launch storm {}: cold {}ns warm {}ns ({:.1}x)",
            storm.config.slug(),
            storm.cold_launch_ns,
            storm.warm_launch_ns,
            storm.cold_launch_ns as f64 / storm.warm_launch_ns as f64,
        );
    }

    let mut c = common::criterion();
    bench(&mut c);
    c.final_summary();
}
