//! The traps the dispatch numbers time, and the virtual-time costs
//! behind `BENCH_dispatch.json`: v1 trap round trips per persona, the
//! IPC v2 rows, and the launch storm.
//!
//! [`Traps`] issues each trap; the `dispatch` Criterion bench times
//! the same calls in host time and prints the dense-table against
//! `BTreeMap` lookup comparison on each run. Every number here is
//! virtual nanoseconds, so [`DispatchCosts::to_json`] is byte-stable
//! across runs and machines.

use std::fmt::Write as _;

use cider_abi::ids::{PortName, Tid};
use cider_abi::syscall::{MachTrap, XnuTrap};
use cider_core::{wire, RingOp};
use cider_kernel::dispatch::{SyscallArgs, SyscallData};
use cider_xnu::ipc::UserMessage;

use crate::config::{SystemConfig, TestBed};
use crate::lmbench::{fork_exec_lat, fork_exec_warm_lat, trap_number, Call};

/// The personas of the dispatch comparison: domestic Linux, translated
/// XNU on Cider, and native XNU.
pub const PERSONAS: [SystemConfig; 3] = [
    SystemConfig::VanillaAndroid,
    SystemConfig::CiderIos,
    SystemConfig::IpadMini,
];

/// Messages per ring batch: 16 interleaved send/receive entries fill
/// the submission ring exactly once per flush.
const RING_BATCH_MSGS: u64 = 8;

/// Bytes of the out-of-line payload: four pages, comfortably past the
/// inline threshold so v2 takes the remap path.
const OOL_BYTES: usize = 16 * 1024;

/// A test bed with its measured process, issuing the benchmark traps.
pub struct Traps {
    /// The bed the traps run on.
    pub bed: TestBed,
    tid: Tid,
    ios: bool,
    /// Receive and send right of the `mach_msg` port.
    port: Option<(PortName, PortName)>,
}

impl Traps {
    /// Spawns `bed`'s measured process and creates the file
    /// [`Traps::open_close`] opens.
    pub fn new(mut bed: TestBed) -> Traps {
        let ios = bed.config.runs_ios_binary();
        let (_, tid) = bed.spawn_measured().expect("bench binaries installed");
        bed.sys
            .kernel
            .vfs
            .write_file("/tmp/openme", vec![1])
            .expect("fresh fs");
        Traps {
            bed,
            tid,
            ios,
            port: None,
        }
    }

    /// Allocates the port the `mach_msg` traps send to and receive
    /// from; iOS personas only.
    pub fn open_port(&mut self) {
        let sys = &mut self.bed.sys;
        let port = sys.mach_port_allocate(self.tid).expect("ports zone");
        let send = sys.mach_make_send(self.tid, port).expect("send right");
        self.port = Some((port, send));
    }

    fn port(&self) -> (PortName, PortName) {
        self.port.expect("open_port before mach_msg")
    }

    /// `getpid`.
    pub fn null_syscall(&mut self) {
        let nr = trap_number(self.ios, Call::Getpid);
        self.bed.sys.trap(self.tid, nr, &SyscallArgs::none());
    }

    /// `open` + `close` of one file.
    pub fn open_close(&mut self) {
        let mut args = SyscallArgs::none();
        args.data = SyscallData::Path("/tmp/openme".into());
        let open = trap_number(self.ios, Call::Open);
        let fd = self.bed.sys.trap(self.tid, open, &args).reg;
        let close = trap_number(self.ios, Call::Close);
        let args = SyscallArgs::regs([fd, 0, 0, 0, 0, 0, 0]);
        self.bed.sys.trap(self.tid, close, &args);
    }

    /// One `mach_msg` trap with `option` (1 send, 2 receive, 3 both
    /// in one crossing); returns the kernel return code.
    fn mach_msg_trap(&mut self, option: i64, msg: Option<UserMessage>) -> i64 {
        let rcv = if option & 2 == 0 {
            0
        } else {
            self.port().0.as_raw() as i64
        };
        let mut args = SyscallArgs::regs([option, 0, rcv, 0, 0, 0, 0]);
        if let Some(msg) = msg {
            args.data =
                SyscallData::Bytes(wire::encode_user_message(&msg).into());
        }
        let nr = XnuTrap::Mach(MachTrap::MachMsgTrap).encode();
        self.bed.sys.trap(self.tid, nr, &args).reg
    }

    /// v1 round trip: a send trap, then a receive trap.
    pub fn mach_msg(&mut self) {
        let msg = UserMessage::simple(self.port().1, 7, &b"ping"[..]);
        assert_eq!(self.mach_msg_trap(1, Some(msg)), 0, "mach_msg send");
        assert_eq!(self.mach_msg_trap(2, None), 0, "mach_msg receive");
    }

    /// v2 round trip: `MACH_SEND_MSG|MACH_RCV_MSG` in one trap.
    pub fn mach_msg_v2(&mut self) {
        let msg = UserMessage::simple(self.port().1, 7, &b"ping"[..]);
        let kr = self.mach_msg_trap(3, Some(msg));
        assert_eq!(kr, 0, "mach_msg v2 combined round trip");
    }

    /// v2 round trip of a 16 KiB out-of-line descriptor.
    fn mach_msg_v2_ool(&mut self) {
        let mut msg = UserMessage::simple(self.port().1, 8, &b"ool"[..]);
        msg.ool.push(vec![0xA5u8; OOL_BYTES].into());
        let kr = self.mach_msg_trap(3, Some(msg));
        assert_eq!(kr, 0, "mach_msg v2 OOL round trip");
    }

    /// [`RING_BATCH_MSGS`] interleaved send/receive ring submissions
    /// behind one `ring_flush` crossing.
    fn ring_batch(&mut self) {
        let (port, send) = self.port();
        let sys = &mut self.bed.sys;
        for i in 0..RING_BATCH_MSGS {
            let msg = UserMessage::simple(send, 0x900 + i as i32, &b"b"[..]);
            let early = sys.ring_submit(self.tid, RingOp::Send(msg));
            assert!(early.expect("submit").is_empty(), "ring overflowed");
            sys.ring_submit(self.tid, RingOp::Recv(port))
                .expect("submit");
        }
        let cs = sys.ring_flush(self.tid).expect("flush");
        assert_eq!(cs.len() as u64, 2 * RING_BATCH_MSGS);
        assert!(cs.iter().all(|c| c.kr.is_success()));
    }

    /// Virtual nanoseconds per call of `f`.
    fn virtual_ns(
        &mut self,
        iters: u64,
        mut f: impl FnMut(&mut Traps),
    ) -> u64 {
        let t0 = self.bed.sys.kernel.clock.now_ns();
        for _ in 0..iters {
            f(self);
        }
        (self.bed.sys.kernel.clock.now_ns() - t0) / iters
    }
}

/// v1 trap round trips on one persona.
struct PersonaCosts {
    config: SystemConfig,
    null_syscall_ns: u64,
    open_close_ns: u64,
    /// iOS personas only.
    mach_msg_ns: Option<u64>,
}

fn measure_persona(config: SystemConfig) -> PersonaCosts {
    let mut t = Traps::new(TestBed::builder(config).build());
    let null_syscall_ns = t.virtual_ns(64, Traps::null_syscall);
    let open_close_ns = t.virtual_ns(64, Traps::open_close);
    let mach_msg_ns = config.runs_ios_binary().then(|| {
        t.open_port();
        t.virtual_ns(64, Traps::mach_msg)
    });
    PersonaCosts {
        config,
        null_syscall_ns,
        open_close_ns,
        mach_msg_ns,
    }
}

/// IPC v2 costs for one iOS persona, against the v1 row measured on
/// the same configuration with the feature off. v1 pays two crossings
/// and a subsystem mutex on each; v2 pays one crossing, remaps the
/// pages of a large out-of-line region instead of copying its bytes,
/// and lets a ring batch share one `ring_flush` crossing.
pub struct IpcV2Costs {
    /// The measured configuration.
    pub config: SystemConfig,
    /// The v1 `mach_msg` round trip on the same configuration.
    pub v1_mach_msg_ns: u64,
    /// [`Traps::mach_msg_v2`].
    pub mach_msg_ns: u64,
    /// The same round trip carrying 16 KiB out of line.
    pub ool_16k_ns: u64,
    /// One message of a flushed ring batch.
    pub ring_batch_per_msg_ns: u64,
}

fn measure_ipc_v2(config: SystemConfig, v1_mach_msg_ns: u64) -> IpcV2Costs {
    let mut t = Traps::new(TestBed::builder(config).ipc_v2().build());
    t.open_port();
    IpcV2Costs {
        config,
        v1_mach_msg_ns,
        mach_msg_ns: t.virtual_ns(64, Traps::mach_msg_v2),
        ool_16k_ns: t.virtual_ns(64, Traps::mach_msg_v2_ool),
        ring_batch_per_msg_ns: t.virtual_ns(16, Traps::ring_batch)
            / RING_BATCH_MSGS,
    }
}

/// One launch-storm cell: the virtual-time cost of a `fork+exec` app
/// launch on one configuration, cold (closure walk + eager PTE copy)
/// and warm (prelinked shared cache + copy-on-write fork).
pub struct LaunchStorm {
    /// The measured configuration.
    pub config: SystemConfig,
    /// Cold launch.
    pub cold_launch_ns: u64,
    /// Warm launch.
    pub warm_launch_ns: u64,
}

impl LaunchStorm {
    /// Cold over warm launch time.
    pub fn warm_speedup(&self) -> f64 {
        self.cold_launch_ns as f64 / self.warm_launch_ns as f64
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

/// Every block of `BENCH_dispatch.json`.
pub struct DispatchCosts {
    personas: Vec<PersonaCosts>,
    /// v2 rows, one per iOS persona.
    pub ipc_v2: Vec<IpcV2Costs>,
    /// Launch storm, one per [`PERSONAS`] entry.
    pub storms: Vec<LaunchStorm>,
}

/// Measures every block of `BENCH_dispatch.json`.
pub fn measure() -> DispatchCosts {
    let personas: Vec<PersonaCosts> =
        PERSONAS.into_iter().map(measure_persona).collect();
    let ipc_v2 = personas
        .iter()
        .filter_map(|p| p.mach_msg_ns.map(|v1| measure_ipc_v2(p.config, v1)))
        .collect();
    let storms = PERSONAS.into_iter().map(measure_launch_storm).collect();
    DispatchCosts {
        personas,
        ipc_v2,
        storms,
    }
}

/// Writes the `"name": { "<slug>": { "key": value, … }, … }` block of
/// `items`, whose fields `fields` lists.
fn push_block<T>(
    s: &mut String,
    name: &str,
    items: &[T],
    last: bool,
    fields: impl Fn(&T) -> (SystemConfig, Vec<(&'static str, String)>),
) {
    let _ = writeln!(s, "  \"{name}\": {{");
    for (i, item) in items.iter().enumerate() {
        let (config, kvs) = fields(item);
        let _ = writeln!(s, "    \"{}\": {{", config.slug());
        for (j, (k, v)) in kvs.iter().enumerate() {
            let sep = if j + 1 == kvs.len() { "" } else { "," };
            let _ = writeln!(s, "      \"{k}\": {v}{sep}");
        }
        let sep = if i + 1 == items.len() { "" } else { "," };
        let _ = writeln!(s, "    }}{sep}");
    }
    let _ = writeln!(s, "  }}{}", if last { "" } else { "," });
}

impl DispatchCosts {
    /// Renders `BENCH_dispatch.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let block = "trap_round_trip_virtual_ns";
        push_block(&mut s, block, &self.personas, false, |p| {
            let mut kvs = vec![
                ("null_syscall", p.null_syscall_ns.to_string()),
                ("open_close", p.open_close_ns.to_string()),
            ];
            kvs.extend(p.mach_msg_ns.map(|m| ("mach_msg", m.to_string())));
            (p.config, kvs)
        });
        push_block(&mut s, "ipc_v2_virtual_ns", &self.ipc_v2, false, |v2| {
            let speedup = v2.v1_mach_msg_ns as f64 / v2.mach_msg_ns as f64;
            let per_msg = v2.ring_batch_per_msg_ns.to_string();
            (
                v2.config,
                vec![
                    ("mach_msg", v2.mach_msg_ns.to_string()),
                    ("mach_msg_speedup", format!("{speedup:.2}")),
                    ("mach_msg_ool_16k", v2.ool_16k_ns.to_string()),
                    ("ring_batch_per_msg", per_msg),
                    ("ring_batch_msgs", RING_BATCH_MSGS.to_string()),
                ],
            )
        });
        push_block(&mut s, "launch_storm", &self.storms, true, |storm| {
            let per_sec = |ns: u64| format!("{:.1}", 1e9 / ns as f64);
            (
                storm.config,
                vec![
                    ("cold_launch_ns", storm.cold_launch_ns.to_string()),
                    ("warm_launch_ns", storm.warm_launch_ns.to_string()),
                    ("cold_launches_per_sec", per_sec(storm.cold_launch_ns)),
                    ("warm_launches_per_sec", per_sec(storm.warm_launch_ns)),
                    ("warm_speedup", format!("{:.2}", storm.warm_speedup())),
                ],
            )
        });
        s.push_str("}\n");
        s
    }
}
