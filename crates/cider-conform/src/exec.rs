//! Executes one workload program under the three kernel
//! configurations and normalizes everything observable.
//!
//! The three configurations are the paper's comparison set:
//!
//! * **`xnu`** — a Cider kernel: multi-persona machinery enabled, the
//!   workload traps through the *translated* XNU persona.
//! * **`xnu-native`** — the same trap tables on a single-persona XNU
//!   personality (no persona checks, native Mach/Unix encode paths).
//! * **`linux`** — the domestic persona; ops with no domestic
//!   equivalent (Mach traps, psynch) are recorded as [`OpObs::Skip`].
//!
//! Observations are *normalized*: raw registers are decoded through
//! each ABI's result convention back into an ABI-neutral form, so a
//! translated `open` that fails with carry-flag + positive errno and a
//! domestic `open` failing with a negative errno both read `err:ENOENT`.
//! Divergence then means semantic divergence, not encoding difference.

use cider_abi::ids::{Pid, PortName, Tid};
use cider_abi::syscall::{LinuxSyscall, MachTrap, XnuSyscall, XnuTrap};
use cider_abi::{Persona, Signal, SyscallOutcome};
use cider_core::kqueue::{EvAction, EvFilter, KQueue, Kevent};
use cider_core::{attach_persona_ext, wire, with_state, CiderState, RingOp};
use cider_core::{XnuNativePersonality, XnuPersonality};
use cider_fault::{FaultLayer, FaultPlan};
use cider_kernel::dispatch::{SyscallArgs, SyscallData, UserTrapResult};
use cider_kernel::fdtable::FileObject;
use cider_kernel::profile::DeviceProfile;
use cider_kernel::Kernel;
use cider_trace::TraceSink;
use cider_xnu::ipc::UserMessage;
use cider_xnu::KernReturn;
use std::fmt;
use std::sync::Arc;

use cider_abi::hash::fnv1a;
use cider_abi::memorystatus::{AppState, LifecycleEvent};
use cider_frameworks::bundle::Bundle;
use cider_frameworks::lifecycle::AppLifecycle;

use crate::grammar::{
    Op, Program, BUNDLE_POOL, FLAG_COMBOS, PATH_POOL, SIGNAL_POOL,
};

/// Which kernel configuration an observation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConfigId {
    /// Cider kernel, translated XNU persona.
    XnuTranslated,
    /// Native XNU personality, single persona.
    XnuNative,
    /// Domestic Linux persona.
    Linux,
}

impl ConfigId {
    /// All configurations, in matrix order.
    pub const ALL: [ConfigId; 3] = [
        ConfigId::XnuTranslated,
        ConfigId::XnuNative,
        ConfigId::Linux,
    ];

    /// Stable label used in corpus files and reports.
    pub fn label(self) -> &'static str {
        match self {
            ConfigId::XnuTranslated => "xnu",
            ConfigId::XnuNative => "xnu-native",
            ConfigId::Linux => "linux",
        }
    }

    /// Parses a label back.
    pub fn from_label(s: &str) -> Option<ConfigId> {
        ConfigId::ALL.into_iter().find(|c| c.label() == s)
    }
}

impl fmt::Display for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The normalized observation of a single op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpObs {
    /// Op inexpressible under this configuration (Mach trap on Linux).
    Skip,
    /// Unix-convention success; `data` hashes any out-of-band bytes.
    Ok { v: i64, data: Option<u64> },
    /// Unix-convention failure, by errno name.
    Err(&'static str),
    /// Mach-convention result register (kern_return or a port name).
    Kern { v: i64, data: Option<u64> },
    /// kqueue poll delivery: event count and a hash of the event list.
    Events { n: usize, hash: u64 },
    /// Library-level failure (kqueue), by errno name.
    LibErr(&'static str),
}

impl OpObs {
    /// Single-token text form used in corpus `expect` lines.
    pub fn to_token(&self) -> String {
        match self {
            OpObs::Skip => "skip".into(),
            OpObs::Ok { v, data: None } => format!("ok:{v}"),
            OpObs::Ok { v, data: Some(h) } => format!("ok:{v}:+{h:016x}"),
            OpObs::Err(e) => format!("err:{e}"),
            OpObs::Kern { v, data: None } => format!("kern:{v}"),
            OpObs::Kern { v, data: Some(h) } => format!("kern:{v}:+{h:016x}"),
            OpObs::Events { n, hash } => format!("ev:{n}:{hash:016x}"),
            OpObs::LibErr(e) => format!("liberr:{e}"),
        }
    }
}

impl fmt::Display for OpObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_token())
    }
}

/// Observable end-of-program kernel state, normalized per dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinalState {
    /// Hash over the `/conform` and `/tmp` subtrees: paths, types,
    /// modes, sizes, regular-file contents. Inode numbers, timestamps
    /// and block counts are deliberately excluded — they are
    /// implementation artifacts, not ABI surface.
    pub vfs: u64,
    /// Descriptor-table shape: `fd:kind[*]` per entry (`*` marks
    /// close-on-exec), or `-` when the process is gone.
    pub fds: String,
    /// Working directory.
    pub cwd: String,
    /// Live Mach port count (`None` for the Linux configuration).
    pub ports: Option<usize>,
}

impl FinalState {
    /// Single-line text form used in corpus `expect` lines.
    pub fn to_token(&self) -> String {
        let ports = match self.ports {
            Some(n) => n.to_string(),
            None => "-".into(),
        };
        format!(
            "vfs={:016x} fds={} cwd={} ports={}",
            self.vfs, self.fds, self.cwd, ports
        )
    }
}

/// Everything observed from one configuration's run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Per-op normalized observations, one per program op.
    pub ops: Vec<OpObs>,
    /// End-of-program state.
    pub final_state: FinalState,
}

impl Observation {
    /// The corpus `expect` payload: space-joined op tokens, `;`, the
    /// final-state token.
    pub fn to_line(&self) -> String {
        let ops: Vec<String> = self.ops.iter().map(OpObs::to_token).collect();
        let ops = if ops.is_empty() {
            "-".to_string()
        } else {
            ops.join(" ")
        };
        format!("{ops} ; {}", self.final_state.to_token())
    }
}

/// The outcome of executing one program under all configurations.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// `(config, observation)` for each of [`ConfigId::ALL`], in order.
    pub per_config: Vec<(ConfigId, Observation)>,
    /// Dispatch sites the translated run exercised, from cider-trace
    /// per-syscall metrics (`"<class>/<name>"` form).
    pub covered_sites: Vec<String>,
}

impl ExecOutcome {
    /// The observation for one configuration.
    pub fn observation(&self, c: ConfigId) -> &Observation {
        &self.per_config.iter().find(|(id, _)| *id == c).unwrap().1
    }
}

/// Executes `program` under every configuration, each with its own
/// freshly booted kernel, optionally armed with the same fault plan.
pub fn execute(program: &Program, plan: Option<&FaultPlan>) -> ExecOutcome {
    let mut per_config = Vec::with_capacity(3);
    let mut covered_sites = Vec::new();
    for cfg in ConfigId::ALL {
        let mut driver = Driver::boot(cfg, plan);
        let obs = driver.run(program);
        if cfg == ConfigId::XnuTranslated {
            covered_sites = driver.covered_sites();
        }
        per_config.push((cfg, obs));
    }
    ExecOutcome {
        per_config,
        covered_sites,
    }
}

/// Mutex/cv/semaphore address pools (user-space addresses fed to
/// psynch and the Mach semaphore traps).
const MUTEX_BASE: u64 = 0x1000;
const CV_BASE: u64 = 0x2000;
const SEM_BASE: u64 = 0x5000;

/// Pages in the anonymous region the `fork_write`/`touch_pages` ops
/// target; operand indices wrap modulo this.
const HEAP_PAGES: u64 = 8;

pub(crate) struct Driver {
    cfg: ConfigId,
    k: Kernel,
    pid: Pid,
    tid: Tid,
    /// Port-name candidates observed from Mach traps, in order.
    ports: Vec<i64>,
    /// Forked children, oldest first.
    children: Vec<Pid>,
    /// Addresses returned by `vm_allocate`, LIFO for deallocate.
    vm: Vec<u64>,
    kq: KQueue,
    /// Base of the anonymous region `fork_write`/`touch_pages` target;
    /// mapped lazily so programs without those ops keep historical
    /// address-space shapes.
    heap: Option<u64>,
    /// App lifecycle machine for the root process, attached lazily by
    /// the first `app_background` op so programs without app ops keep
    /// the memorystatus table empty.
    app: Option<AppLifecycle>,
}

impl Driver {
    pub(crate) fn boot(cfg: ConfigId, plan: Option<&FaultPlan>) -> Driver {
        let mut k = Kernel::boot(DeviceProfile::nexus7());
        // Common VFS fixture, created before faults are armed so every
        // configuration starts from the identical tree.
        k.vfs.mkdir_p("/conform").expect("fresh fs");
        k.vfs
            .write_file(
                "/conform/seed",
                b"cider conformance seed 0123456789".to_vec(),
            )
            .expect("fresh fs");
        // Bundle fixture for the `bundle_open` op: one real app bundle
        // with an Info.plist; the other pool entries stay error paths.
        k.vfs.mkdir_p("/conform/app.app").expect("fresh fs");
        k.vfs
            .write_file(
                "/conform/app.app/Info.plist",
                b"CFBundleIdentifier=com.conform.app\nCFBundleName=Conform\n"
                    .to_vec(),
            )
            .expect("fresh fs");
        let (pid, tid) = match cfg {
            ConfigId::XnuTranslated => {
                k.extensions.insert(CiderState::new());
                let xnu =
                    k.register_personality(Arc::new(XnuPersonality::new()));
                k.enable_cider();
                // Coverage feedback comes from the translated run only.
                k.trace = TraceSink::enabled_default();
                let (pid, tid) = k.spawn_process();
                attach_persona_ext(&mut k, tid, Persona::Foreign, xnu)
                    .expect("fresh thread");
                (pid, tid)
            }
            ConfigId::XnuNative => {
                k.extensions.insert(CiderState::new());
                let nid = k.register_personality(Arc::new(
                    XnuNativePersonality::new(),
                ));
                let (pid, tid) = k.spawn_process();
                k.thread_mut(tid).expect("fresh thread").personality = nid;
                (pid, tid)
            }
            ConfigId::Linux => k.spawn_process(),
        };
        if let Some(p) = plan {
            k.faults = FaultLayer::with_plan(p.clone());
        }
        Driver {
            cfg,
            k,
            pid,
            tid,
            ports: Vec::new(),
            children: Vec::new(),
            vm: Vec::new(),
            kq: KQueue::new(),
            heap: None,
            app: None,
        }
    }

    fn run(&mut self, program: &Program) -> Observation {
        let ops = program.ops.iter().map(|&op| self.run_op(op)).collect();
        Observation {
            ops,
            final_state: self.final_state(),
        }
    }

    fn is_xnu(&self) -> bool {
        self.cfg != ConfigId::Linux
    }

    // ------------------------------------------------------------------
    // Trap helpers.
    // ------------------------------------------------------------------

    fn raw_trap(
        &mut self,
        tid: Tid,
        nr: i64,
        args: &SyscallArgs,
    ) -> UserTrapResult {
        self.k.trap(tid, nr, args)
    }

    /// Issues a Unix-class call under this configuration's numbering
    /// and decodes the result back through the matching convention.
    fn unix(
        &mut self,
        x: XnuSyscall,
        l: Option<LinuxSyscall>,
        args: SyscallArgs,
        data: DataMode,
    ) -> OpObs {
        self.unix_on(self.tid, x, l, args, data)
    }

    fn unix_on(
        &mut self,
        tid: Tid,
        x: XnuSyscall,
        l: Option<LinuxSyscall>,
        args: SyscallArgs,
        data: DataMode,
    ) -> OpObs {
        let (nr, is_xnu) = if self.is_xnu() {
            (XnuTrap::Unix(x).encode(), true)
        } else {
            match l {
                Some(l) => (l.number() as i64, false),
                None => return OpObs::Skip,
            }
        };
        let r = self.raw_trap(tid, nr, &args);
        let outcome = if is_xnu {
            SyscallOutcome::decode_xnu(r.reg, r.flags)
        } else {
            SyscallOutcome::decode_linux(r.reg)
        };
        match outcome.into_result() {
            Ok(v) => OpObs::Ok {
                v,
                data: data.digest(&r.out_data),
            },
            Err(e) => OpObs::Err(e.name()),
        }
    }

    /// Issues a Mach trap (XNU configurations only).
    fn mach(
        &mut self,
        m: MachTrap,
        args: SyscallArgs,
        data: DataMode,
    ) -> OpObs {
        if !self.is_xnu() {
            return OpObs::Skip;
        }
        let nr = XnuTrap::Mach(m).encode();
        let r = self.raw_trap(self.tid, nr, &args);
        OpObs::Kern {
            v: r.reg,
            data: data.digest(&r.out_data),
        }
    }

    /// A Mach trap whose success register is a port name worth tracking
    /// for later `slot` references.
    fn mach_port(&mut self, m: MachTrap, args: SyscallArgs) -> OpObs {
        let obs = self.mach(m, args, DataMode::Ignore);
        if let OpObs::Kern { v, .. } = obs {
            // Port names are small positive integers; kern error codes
            // sit far above this band. The cut is identical under both
            // XNU configurations, so tracking stays in lockstep.
            if v > 0 && v < 0x0010_0000 {
                self.ports.push(v);
            }
        }
        obs
    }

    fn port_arg(&self, slot: u8) -> i64 {
        if self.ports.is_empty() {
            0
        } else {
            self.ports[slot as usize % self.ports.len()]
        }
    }

    /// The signal's raw number under this configuration's ABI.
    fn sig_raw(&self, sig: u8) -> i64 {
        let linux = SIGNAL_POOL[sig as usize % SIGNAL_POOL.len()];
        let sig = Signal::from_raw(linux).expect("pool holds valid signals");
        if self.is_xnu() {
            sig.to_xnu().expect("pool maps to XNU").as_raw() as i64
        } else {
            sig.as_raw() as i64
        }
    }

    // ------------------------------------------------------------------
    // Op dispatch.
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    pub(crate) fn run_op(&mut self, op: Op) -> OpObs {
        use LinuxSyscall as L;
        use MachTrap as M;
        use XnuSyscall as X;
        match op {
            Op::Getpid => self.unix(
                X::Getpid,
                Some(L::Getpid),
                SyscallArgs::none(),
                DataMode::Ignore,
            ),
            Op::Open { path, flags } => {
                let (bsd, linux) =
                    FLAG_COMBOS[flags as usize % FLAG_COMBOS.len()];
                let raw = if self.is_xnu() { bsd } else { linux };
                let mut args =
                    SyscallArgs::regs([0, raw as i64, 0, 0, 0, 0, 0]);
                args.data = SyscallData::Path(pool_path(path).into());
                self.unix(X::Open, Some(L::Open), args, DataMode::Ignore)
            }
            Op::Close { fd } => self.unix(
                X::Close,
                Some(L::Close),
                SyscallArgs::regs([fd_arg(fd), 0, 0, 0, 0, 0, 0]),
                DataMode::Ignore,
            ),
            Op::Read { fd, len } => self.unix(
                X::Read,
                Some(L::Read),
                SyscallArgs::regs([fd_arg(fd), 0, 1 + len as i64, 0, 0, 0, 0]),
                DataMode::Hash,
            ),
            Op::Write { fd, len } => {
                let n = 1 + len as usize;
                let payload: Vec<u8> =
                    (0..n).map(|i| (0x20 + ((i * 7) % 64)) as u8).collect();
                let mut args =
                    SyscallArgs::regs([fd_arg(fd), 0, 0, 0, 0, 0, 0]);
                args.data = SyscallData::Bytes(payload.into());
                self.unix(X::Write, Some(L::Write), args, DataMode::Ignore)
            }
            Op::Dup { fd } => self.unix(
                X::Dup,
                Some(L::Dup),
                SyscallArgs::regs([fd_arg(fd), 0, 0, 0, 0, 0, 0]),
                DataMode::Ignore,
            ),
            Op::Pipe => self.unix(
                X::Pipe,
                Some(L::Pipe),
                SyscallArgs::none(),
                DataMode::Ignore,
            ),
            Op::Socketpair => self.unix(
                X::Socketpair,
                Some(L::Socketpair),
                SyscallArgs::none(),
                DataMode::Ignore,
            ),
            Op::Mkdir { path } => {
                let mut args = SyscallArgs::none();
                args.data = SyscallData::Path(pool_path(path).into());
                self.unix(X::Mkdir, Some(L::Mkdir), args, DataMode::Ignore)
            }
            Op::Unlink { path } => {
                let mut args = SyscallArgs::none();
                args.data = SyscallData::Path(pool_path(path).into());
                self.unix(X::Unlink, Some(L::Unlink), args, DataMode::Ignore)
            }
            Op::Stat { path } => {
                let mut args = SyscallArgs::none();
                args.data = SyscallData::Path(pool_path(path).into());
                // XNU returns `struct stat64`, Linux `struct stat64`
                // (Linux layout); only the leading 24 bytes — ino,
                // mode, nlink, size — are layout-identical ABI surface.
                self.unix(
                    X::Stat64,
                    Some(L::Stat64),
                    args,
                    DataMode::HashPrefix24,
                )
            }
            Op::Chdir { path } => {
                let mut args = SyscallArgs::none();
                args.data = SyscallData::Path(pool_path(path).into());
                self.unix(X::Chdir, Some(L::Chdir), args, DataMode::Ignore)
            }
            Op::Select { n } => {
                let fds: Vec<i32> = (0..=(n as i32 % 5)).collect();
                let mut args = SyscallArgs::none();
                args.data = SyscallData::FdSet(fds.into());
                self.unix(X::Select, Some(L::Select), args, DataMode::Ignore)
            }
            Op::Fork => {
                let obs = self.unix(
                    X::Fork,
                    Some(L::Fork),
                    SyscallArgs::none(),
                    DataMode::Ignore,
                );
                self.track_child(obs)
            }
            Op::ExitChild { code } => {
                let Some(&child) = self.children.last() else {
                    return OpObs::Skip;
                };
                let Some(ctid) = self.child_tid(child) else {
                    return OpObs::Skip;
                };
                self.unix_on(
                    ctid,
                    X::Exit,
                    Some(L::Exit),
                    SyscallArgs::regs([code as i64 % 4, 0, 0, 0, 0, 0, 0]),
                    DataMode::Ignore,
                )
            }
            Op::Waitpid => {
                let Some(&child) = self.children.last() else {
                    return OpObs::Skip;
                };
                let obs = self.unix(
                    X::Waitpid,
                    Some(L::Waitpid),
                    SyscallArgs::regs([
                        child.as_raw() as i64,
                        0,
                        0,
                        0,
                        0,
                        0,
                        0,
                    ]),
                    DataMode::Ignore,
                );
                if matches!(obs, OpObs::Ok { .. }) {
                    self.children.pop();
                }
                obs
            }
            Op::Kill { sig } => {
                let target = self
                    .children
                    .last()
                    .map(|p| p.as_raw() as i64)
                    .unwrap_or(9999);
                let raw = self.sig_raw(sig);
                self.unix(
                    X::Kill,
                    Some(L::Kill),
                    SyscallArgs::regs([target, raw, 0, 0, 0, 0, 0]),
                    DataMode::Ignore,
                )
            }
            Op::Sigaction { sig, disp } => {
                let raw = self.sig_raw(sig);
                let disp = match disp % 3 {
                    0 => 0,
                    1 => 1,
                    _ => 0x1000,
                };
                self.unix(
                    X::Sigaction,
                    Some(L::Sigaction),
                    SyscallArgs::regs([raw, disp, 0, 0, 0, 0, 0]),
                    DataMode::Ignore,
                )
            }
            Op::Nanosleep { ms } => {
                // Direct kernel path under every configuration — the
                // virtual clock, not the ABI, is what advances here.
                let ns = (1 + ms as u64 % 20) * 1_000_000;
                match self.k.sys_nanosleep(self.tid, ns) {
                    Ok(()) => OpObs::Ok { v: 0, data: None },
                    Err(e) => OpObs::Err(e.name()),
                }
            }
            Op::Execve { path } => {
                // No binary loaders are registered in the conformance
                // kernels, so exec always fails before image teardown
                // (ENOENT on missing paths, ENOEXEC on plain files) —
                // identically under every configuration.
                let mut args = SyscallArgs::none();
                args.data = SyscallData::Exec {
                    path: pool_path(path).into(),
                    argv: vec!["conform".to_string()],
                };
                self.unix(X::Execve, Some(L::Execve), args, DataMode::Ignore)
            }
            Op::Spawn { path } => {
                let mut args = SyscallArgs::none();
                args.data = SyscallData::Exec {
                    path: pool_path(path).into(),
                    argv: vec!["conform".to_string()],
                };
                let obs =
                    self.unix(X::PosixSpawn, None, args, DataMode::Ignore);
                self.track_child(obs)
            }
            Op::SchedYield => {
                // POSIX-only door into the shared run queues; the XNU
                // personas reach the same queues via thread_switch.
                if self.is_xnu() {
                    OpObs::Skip
                } else {
                    let r = self.raw_trap(
                        self.tid,
                        L::SchedYield.number() as i64,
                        &SyscallArgs::none(),
                    );
                    match SyscallOutcome::decode_linux(r.reg).into_result() {
                        Ok(v) => OpObs::Ok { v, data: None },
                        Err(e) => OpObs::Err(e.name()),
                    }
                }
            }
            Op::ThreadSwitch { opt } => self.mach(
                M::ThreadSwitch,
                SyscallArgs::regs([0, i64::from(opt % 3), 0, 0, 0, 0, 0]),
                DataMode::Ignore,
            ),
            Op::MutexWait { m } => self.unix(
                X::PsynchMutexwait,
                None,
                SyscallArgs::regs([mutex_addr(m), 0, 0, 0, 0, 0, 0]),
                DataMode::Ignore,
            ),
            Op::MutexDrop { m } => self.unix(
                X::PsynchMutexdrop,
                None,
                SyscallArgs::regs([mutex_addr(m), 0, 0, 0, 0, 0, 0]),
                DataMode::Ignore,
            ),
            Op::CvWait { cv, m } => self.unix(
                X::PsynchCvwait,
                None,
                SyscallArgs::regs([cv_addr(cv), mutex_addr(m), 0, 0, 0, 0, 0]),
                DataMode::Ignore,
            ),
            Op::CvSignal { cv } => self.unix(
                X::PsynchCvsignal,
                None,
                SyscallArgs::regs([cv_addr(cv), 0, 0, 0, 0, 0, 0]),
                DataMode::Ignore,
            ),
            Op::CvBroad { cv } => self.unix(
                X::PsynchCvbroad,
                None,
                SyscallArgs::regs([cv_addr(cv), 0, 0, 0, 0, 0, 0]),
                DataMode::Ignore,
            ),
            Op::TaskSelf => {
                self.mach_port(M::TaskSelfTrap, SyscallArgs::none())
            }
            Op::ThreadSelf => {
                self.mach_port(M::ThreadSelfTrap, SyscallArgs::none())
            }
            Op::HostSelf => {
                self.mach_port(M::HostSelfTrap, SyscallArgs::none())
            }
            Op::ReplyPort => {
                self.mach_port(M::MachReplyPort, SyscallArgs::none())
            }
            Op::PortAllocate => {
                self.mach_port(M::MachPortAllocate, SyscallArgs::none())
            }
            Op::PortDeallocate { slot } => {
                let name = self.port_arg(slot);
                self.mach(
                    M::MachPortDeallocate,
                    SyscallArgs::regs([name, 0, 0, 0, 0, 0, 0]),
                    DataMode::Ignore,
                )
            }
            Op::InsertRight { slot } => {
                let name = self.port_arg(slot);
                self.mach_port_args(
                    M::MachPortInsertRight,
                    SyscallArgs::regs([name, 0, 0, 0, 0, 0, 0]),
                )
            }
            Op::MsgSend { slot, len } => {
                if !self.is_xnu() {
                    return OpObs::Skip;
                }
                let dest = PortName(self.port_arg(slot) as u32);
                let body: Vec<u8> = vec![b'm'; 1 + len as usize % 32];
                let msg = UserMessage::simple(dest, 0x100 + len as i32, body);
                let mut args = SyscallArgs::regs([1, 0, 0, 0, 0, 0, 0]);
                args.data =
                    SyscallData::Bytes(wire::encode_user_message(&msg).into());
                self.mach(M::MachMsgTrap, args, DataMode::Ignore)
            }
            Op::MsgRecv { slot } => {
                let name = self.port_arg(slot);
                self.mach(
                    M::MachMsgTrap,
                    SyscallArgs::regs([2, 0, name, 0, 0, 0, 0]),
                    DataMode::Hash,
                )
            }
            Op::SemSignal { sem } => self.mach(
                M::SemaphoreSignalTrap,
                SyscallArgs::regs([sem_addr(sem), 0, 0, 0, 0, 0, 0]),
                DataMode::Ignore,
            ),
            Op::SemWait { sem } => self.mach(
                M::SemaphoreWaitTrap,
                SyscallArgs::regs([sem_addr(sem), 0, 0, 0, 0, 0, 0]),
                DataMode::Ignore,
            ),
            Op::VmAllocate { pages } => {
                let size = (1 + pages as i64 % 8) * 4096;
                let obs = self.mach(
                    M::MachVmAllocate,
                    SyscallArgs::regs([0, size, 0, 0, 0, 0, 0]),
                    DataMode::Ignore,
                );
                if let OpObs::Kern { v, .. } = obs {
                    if v > 0 {
                        self.vm.push(v as u64);
                    }
                }
                obs
            }
            Op::VmDeallocate => {
                let addr = self.vm.pop().unwrap_or(0) as i64;
                self.mach(
                    M::MachVmDeallocate,
                    SyscallArgs::regs([0, addr, 0, 0, 0, 0, 0]),
                    DataMode::Ignore,
                )
            }
            Op::MachDep { n } => {
                if !self.is_xnu() {
                    return OpObs::Skip;
                }
                let nr = XnuTrap::MachDep(n as i32 % 4).encode();
                let r = self.raw_trap(self.tid, nr, &SyscallArgs::none());
                OpObs::Kern {
                    v: r.reg,
                    data: None,
                }
            }
            Op::Diag { n } => {
                if !self.is_xnu() {
                    return OpObs::Skip;
                }
                let nr = XnuTrap::Diag(n as i32 % 2).encode();
                let r = self.raw_trap(self.tid, nr, &SyscallArgs::none());
                OpObs::Kern {
                    v: r.reg,
                    data: None,
                }
            }
            Op::KqAddRead { fd } => self.kq_apply(
                EvAction::Add,
                Kevent {
                    ident: (fd % 10) as u64,
                    filter: EvFilter::Read,
                    udata: 0xAB00 + fd as u64,
                    timer_ms: 0,
                },
            ),
            Op::KqDelRead { fd } => self.kq_apply(
                EvAction::Delete,
                Kevent {
                    ident: (fd % 10) as u64,
                    filter: EvFilter::Read,
                    udata: 0,
                    timer_ms: 0,
                },
            ),
            Op::KqAddTimer { t, ms } => self.kq_apply(
                EvAction::Add,
                Kevent {
                    ident: 0x40 + (t % 3) as u64,
                    filter: EvFilter::Timer,
                    udata: 0xCD00 + t as u64,
                    timer_ms: 1 + ms as u64 % 30,
                },
            ),
            Op::KqDelTimer { t } => self.kq_apply(
                EvAction::Delete,
                Kevent {
                    ident: 0x40 + (t % 3) as u64,
                    filter: EvFilter::Timer,
                    udata: 0,
                    timer_ms: 0,
                },
            ),
            Op::ForkWrite { page } => {
                // Fork through the ABI, then take a write fault in the
                // new child through the direct kernel path (faults have
                // no syscall number). Under CoW the first write
                // materializes exactly one deferred PTE (`ok:1`); an
                // eager fork already owns the page (`ok:0`) — the
                // observation is the differential signal.
                let heap = match self.ensure_heap() {
                    Ok(base) => base,
                    Err(e) => return OpObs::Err(e.name()),
                };
                let obs = self.unix(
                    X::Fork,
                    Some(L::Fork),
                    SyscallArgs::none(),
                    DataMode::Ignore,
                );
                let obs = self.track_child(obs);
                if !matches!(obs, OpObs::Ok { .. }) {
                    return obs;
                }
                let Some(&child) = self.children.last() else {
                    return obs;
                };
                let Some(ctid) = self.child_tid(child) else {
                    return obs;
                };
                let addr = heap
                    + u64::from(page) % HEAP_PAGES
                        * cider_kernel::mm::PAGE_SIZE;
                match self.k.sys_page_write(ctid, addr) {
                    Ok(n) => OpObs::Ok {
                        v: n as i64,
                        data: None,
                    },
                    Err(e) => OpObs::Err(e.name()),
                }
            }
            Op::TouchPages { n } => {
                // First-write each of `n` pages in the most recent
                // child (the process that can be carrying CoW debt),
                // or the root process when no child is alive. The
                // observed value is the number of PTEs materialized.
                let heap = match self.ensure_heap() {
                    Ok(base) => base,
                    Err(e) => return OpObs::Err(e.name()),
                };
                let tid = self
                    .children
                    .last()
                    .and_then(|&c| self.child_tid(c))
                    .unwrap_or(self.tid);
                let mut materialized = 0_i64;
                for i in 0..=u64::from(n) % HEAP_PAGES {
                    match self.k.sys_page_write(
                        tid,
                        heap + i * cider_kernel::mm::PAGE_SIZE,
                    ) {
                        Ok(m) => materialized += m as i64,
                        Err(e) => return OpObs::Err(e.name()),
                    }
                }
                OpObs::Ok {
                    v: materialized,
                    data: None,
                }
            }
            Op::ExecWarm { path } => {
                // Warm start is kernel policy, not ABI surface: toggle
                // it on, then execve. The trap still fails uniformly
                // (no binfmts here), pinning the entry path while every
                // *later* fork in the program runs copy-on-write.
                self.k.warm.set_enabled(true);
                let mut args = SyscallArgs::none();
                args.data = SyscallData::Exec {
                    path: pool_path(path).into(),
                    argv: vec!["conform".to_string()],
                };
                self.unix(X::Execve, Some(L::Execve), args, DataMode::Ignore)
            }
            Op::ExecCold { path } => {
                // The cold control: warm start off, same execve.
                self.k.warm.set_enabled(false);
                let mut args = SyscallArgs::none();
                args.data = SyscallData::Exec {
                    path: pool_path(path).into(),
                    argv: vec!["conform".to_string()],
                };
                self.unix(X::Execve, Some(L::Execve), args, DataMode::Ignore)
            }
            Op::MsgSendOol { slot, kb } => {
                if !self.is_xnu() {
                    return OpObs::Skip;
                }
                // IPC v2 is kernel policy, not ABI surface: the op
                // turns it on (mirroring exec_warm for warm start), so
                // above-threshold OOL regions move by page remap and
                // every later IPC op in the program runs the v2 path.
                with_state(&mut self.k, |_, st| st.machipc.set_v2(true));
                let dest = PortName(self.port_arg(slot) as u32);
                let pages = 1 + kb as usize % 4;
                let blob: Vec<u8> =
                    (0..pages * 4096).map(|i| (i % 251) as u8).collect();
                let mut msg =
                    UserMessage::simple(dest, 0x200 + kb as i32, &b"ool"[..]);
                msg.ool.push(blob.into());
                let mut args = SyscallArgs::regs([1, 0, 0, 0, 0, 0, 0]);
                args.data =
                    SyscallData::Bytes(wire::encode_user_message(&msg).into());
                self.mach(M::MachMsgTrap, args, DataMode::Ignore)
            }
            Op::RingSubmit { slot, len } => {
                if !self.is_xnu() {
                    return OpObs::Skip;
                }
                let dest = PortName(self.port_arg(slot) as u32);
                let body: Vec<u8> = vec![b'r'; 1 + len as usize % 32];
                let msg = UserMessage::simple(dest, 0x300 + len as i32, body);
                let mut args = SyscallArgs::none();
                args.data = SyscallData::Bytes(
                    wire::encode_ring_ops(&[RingOp::Send(msg)]).into(),
                );
                self.mach(M::RingSubmit, args, DataMode::Ignore)
            }
            Op::RingFlush => {
                // The completion block travels out-of-band; hashing it
                // pins the batched results into the observation.
                self.mach(M::RingFlush, SyscallArgs::none(), DataMode::Hash)
            }
            Op::PortRightDealloc { slot } => {
                if !self.is_xnu() {
                    return OpObs::Skip;
                }
                let name = PortName(self.port_arg(slot) as u32);
                let (pid, tid) = (self.pid, self.tid);
                let kr = with_state(&mut self.k, |k2, st| {
                    let space = st.task_space(pid);
                    // Typed validation first: only a name the space
                    // holds a genuine send right under deallocates.
                    match st.machipc.send_right(space, name) {
                        Ok(send) => match st.port_deallocate_for(
                            k2,
                            tid,
                            pid,
                            send.name(),
                        ) {
                            Ok(()) => KernReturn::Success,
                            Err(e) => e,
                        },
                        Err(e) => e,
                    }
                });
                OpObs::Kern {
                    v: kr.as_raw(),
                    data: None,
                }
            }
            Op::MemorystatusSetPriority { band } => {
                // Direct kernel path under every configuration: the
                // memorystatus table, like the virtual clock, sits
                // below the ABI translation layer.
                match self.k.sys_memorystatus_set_priority(
                    self.tid,
                    self.pid,
                    i64::from(band),
                ) {
                    Ok(b) => OpObs::Ok {
                        v: i64::from(b),
                        data: None,
                    },
                    Err(e) => OpObs::Err(e.name()),
                }
            }
            Op::BundleOpen { path } => {
                let dir = BUNDLE_POOL[path as usize % BUNDLE_POOL.len()];
                match Bundle::open(&mut self.k, self.tid, dir) {
                    Ok(b) => OpObs::Ok {
                        v: b.info.len() as i64,
                        data: None,
                    },
                    Err(e) => OpObs::Err(e.name()),
                }
            }
            Op::AppBackground => {
                let mut app = self.app.take().unwrap_or_else(|| {
                    AppLifecycle::attach(&mut self.k, self.pid)
                });
                // Complete a pending launch first (the machine only
                // backgrounds a foregrounded app), then deliver the
                // background event; illegal transitions are EINVAL.
                if app.state() == AppState::Launching {
                    let _ = app.apply(
                        &mut self.k,
                        LifecycleEvent::DidFinishLaunching,
                    );
                }
                let obs = match app
                    .apply(&mut self.k, LifecycleEvent::EnterBackground)
                {
                    Ok(next) => OpObs::Ok {
                        v: i64::from(next.jetsam_band()),
                        data: None,
                    },
                    Err(_) => OpObs::Err("EINVAL"),
                };
                self.app = Some(app);
                obs
            }
            Op::JetsamTick => match self.k.sys_jetsam_tick(self.tid) {
                Ok(killed) => {
                    if let Some(app) = &mut self.app {
                        if killed.contains(&app.pid) {
                            let _ =
                                app.apply(&mut self.k, LifecycleEvent::Jetsam);
                        }
                    }
                    OpObs::Ok {
                        v: killed.len() as i64,
                        data: None,
                    }
                }
                Err(e) => OpObs::Err(e.name()),
            },
            Op::KqPoll => match self.kq.poll(&mut self.k, self.tid) {
                Ok(evs) => {
                    let mut bytes = Vec::with_capacity(evs.len() * 18);
                    for e in &evs {
                        bytes.extend(e.ident.to_le_bytes());
                        bytes.push(matches!(e.filter, EvFilter::Timer) as u8);
                        bytes.extend(e.udata.to_le_bytes());
                    }
                    OpObs::Events {
                        n: evs.len(),
                        hash: fnv1a(&bytes),
                    }
                }
                Err(e) => OpObs::LibErr(e.name()),
            },
        }
    }

    fn mach_port_args(&mut self, m: MachTrap, args: SyscallArgs) -> OpObs {
        let obs = self.mach(m, args, DataMode::Ignore);
        if let OpObs::Kern { v, .. } = obs {
            if v > 0 && v < 0x0010_0000 {
                self.ports.push(v);
            }
        }
        obs
    }

    /// Tracks a fork/spawn child and rewrites the observed value to
    /// the child's *ordinal* in this run. Raw pid numbering is a
    /// kernel-internal artifact: a configuration that spawns helper
    /// processes the others cannot express (posix_spawn on XNU) shifts
    /// every later pid, which is not an ABI divergence.
    fn track_child(&mut self, obs: OpObs) -> OpObs {
        match obs {
            OpObs::Ok { v, data } if v > 0 => {
                self.children.push(Pid(v as u32));
                OpObs::Ok {
                    v: self.children.len() as i64,
                    data,
                }
            }
            other => other,
        }
    }

    fn kq_apply(&mut self, action: EvAction, change: Kevent) -> OpObs {
        match self.kq.apply(&self.k, action, change) {
            Ok(()) => OpObs::Ok { v: 0, data: None },
            Err(e) => OpObs::LibErr(e.name()),
        }
    }

    fn child_tid(&self, pid: Pid) -> Option<Tid> {
        self.k.process(pid).ok()?.threads.first().copied()
    }

    /// Maps the shared anonymous test region in the root process on
    /// first use. Forked children inherit it (eagerly or CoW), so the
    /// page ops address the same virtual range in every process.
    fn ensure_heap(&mut self) -> Result<u64, cider_abi::Errno> {
        if let Some(base) = self.heap {
            return Ok(base);
        }
        let base = self.k.process_mut(self.pid)?.mm.map(
            HEAP_PAGES * cider_kernel::mm::PAGE_SIZE,
            cider_kernel::mm::Prot::RW,
            cider_kernel::mm::MappingKind::Anonymous,
            "[conform-heap]",
        )?;
        self.heap = Some(base);
        Ok(base)
    }

    // ------------------------------------------------------------------
    // Final-state capture.
    // ------------------------------------------------------------------

    /// This configuration's virtual clock, for bisection timestamps.
    pub(crate) fn now_ns(&self) -> u64 {
        self.k.clock.now_ns()
    }

    /// The normalized observable state as checkpoint records: the same
    /// four dimensions [`FinalState`] pins (VFS digest, fd-table
    /// shape, cwd, live Mach ports), keyed for [`cider_ckpt`] images.
    /// Deliberately *normalized* rather than raw [`Kernel`] state —
    /// raw images differ across configurations by construction (clock,
    /// personality ids), which would make every cross-configuration
    /// bisection diverge at op 0.
    pub(crate) fn state_records(&mut self) -> Vec<(String, String)> {
        let fin = self.final_state();
        vec![
            ("vfs".to_string(), format!("{:016x}", fin.vfs)),
            ("fds".to_string(), fin.fds),
            ("cwd".to_string(), fin.cwd),
            (
                "ports".to_string(),
                match fin.ports {
                    Some(n) => n.to_string(),
                    None => "-".to_string(),
                },
            ),
        ]
    }

    fn final_state(&mut self) -> FinalState {
        let vfs = vfs_fingerprint(&self.k, &["/conform", "/tmp"]);
        let (fds, cwd) = match self.k.process(self.pid) {
            Ok(p) => {
                let mut parts = Vec::new();
                for (fd, obj) in p.fds.iter() {
                    let kind = match obj {
                        FileObject::File { .. } => "file",
                        FileObject::Pipe(_) => "pipe",
                        FileObject::Socket(_) => "sock",
                        FileObject::Device(_) => "dev",
                        FileObject::Console => "con",
                    };
                    let cx = if p.fds.cloexec(fd).unwrap_or(false) {
                        "*"
                    } else {
                        ""
                    };
                    parts.push(format!("{}:{kind}{cx}", fd.as_raw()));
                }
                let fds = if parts.is_empty() {
                    "-".to_string()
                } else {
                    parts.join(",")
                };
                (fds, p.cwd.clone())
            }
            Err(_) => ("-".to_string(), "-".to_string()),
        };
        let ports = if self.is_xnu() {
            Some(with_state(&mut self.k, |_k, st| st.machipc.live_ports()))
        } else {
            None
        };
        FinalState {
            vfs,
            fds,
            cwd,
            ports,
        }
    }

    /// Dispatch sites the run exercised, derived from the per-syscall
    /// latency metrics the kernel records for foreign traps.
    fn covered_sites(&self) -> Vec<String> {
        let Some(snap) = self.k.trace.snapshot() else {
            return Vec::new();
        };
        let mut sites = Vec::new();
        for (name, _) in
            snap.metrics.histograms_with_prefix("syscall/foreign/")
        {
            let op = &name["syscall/foreign/".len()..];
            sites.push(op.to_string());
        }
        sites
    }
}

/// Resolves a dispatch-site op name against the translated persona's
/// tables, returning the `"<class>/<name>"` form the coverage universe
/// uses, or `None` for names outside both tables (`machdep`, `diag`,
/// `nr<N>` fallbacks).
pub fn classify_site(xnu: &XnuPersonality, op_name: &str) -> Option<String> {
    if xnu.unix_table().entries().any(|(_, n)| n == op_name) {
        return Some(format!("unix/{op_name}"));
    }
    if xnu.mach_table().entries().any(|(_, n)| n == op_name) {
        return Some(format!("mach/{op_name}"));
    }
    None
}

fn pool_path(idx: u8) -> &'static str {
    PATH_POOL[idx as usize % PATH_POOL.len()]
}

fn fd_arg(fd: u8) -> i64 {
    (fd % 10) as i64
}

fn mutex_addr(m: u8) -> i64 {
    (MUTEX_BASE + (m as u64 % 2) * 0x10) as i64
}

fn cv_addr(cv: u8) -> i64 {
    (CV_BASE + (cv as u64 % 2) * 0x10) as i64
}

fn sem_addr(sem: u8) -> i64 {
    (SEM_BASE + (sem as u64 % 3) * 0x8) as i64
}

/// How much of a trap's out-of-band data belongs to the observation.
#[derive(Debug, Clone, Copy)]
enum DataMode {
    Ignore,
    Hash,
    /// Hash only the leading 24 bytes (the stat64 cross-ABI prefix).
    HashPrefix24,
}

impl DataMode {
    fn digest(self, data: &[u8]) -> Option<u64> {
        match self {
            DataMode::Ignore => None,
            DataMode::Hash => (!data.is_empty()).then(|| fnv1a(data)),
            DataMode::HashPrefix24 => {
                let n = data.len().min(24);
                (!data.is_empty()).then(|| fnv1a(&data[..n]))
            }
        }
    }
}

/// Order-stable fingerprint of the named subtrees: path, file type,
/// permission bits, size, and regular-file contents. Timestamps,
/// inode numbers and block counts are excluded by design.
fn vfs_fingerprint(k: &Kernel, roots: &[&str]) -> u64 {
    fn walk(k: &Kernel, path: &str, acc: &mut Vec<u8>) {
        let Ok(r) = k.vfs.resolve(path) else { return };
        let st = k.vfs.stat(r.ino);
        acc.extend(path.as_bytes());
        acc.push(0);
        acc.push(file_type_tag(st.file_type));
        acc.extend(st.mode.to_le_bytes());
        acc.extend(st.size.to_le_bytes());
        match st.file_type {
            cider_abi::types::FileType::Directory => {
                let mut names = k.vfs.readdir(path).unwrap_or_default();
                names.sort();
                names.dedup();
                for name in names {
                    let child = if path == "/" {
                        format!("/{name}")
                    } else {
                        format!("{path}/{name}")
                    };
                    walk(k, &child, acc);
                }
            }
            cider_abi::types::FileType::Regular => {
                if let Ok(data) = k.vfs.read_file(path) {
                    acc.extend(data);
                }
            }
            _ => {}
        }
    }
    let mut acc = Vec::new();
    for root in roots {
        walk(k, root, &mut acc);
    }
    fnv1a(&acc)
}

fn file_type_tag(t: cider_abi::types::FileType) -> u8 {
    use cider_abi::types::FileType as F;
    match t {
        F::Regular => 1,
        F::Directory => 2,
        F::Symlink => 3,
        F::CharDevice => 4,
        F::Fifo => 5,
        F::Socket => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{generate, Coverage};

    #[test]
    fn execution_is_deterministic() {
        let cov = Coverage::default();
        for i in 0..4 {
            let p = generate(11, i, &cov);
            let a = execute(&p, None);
            let b = execute(&p, None);
            for (x, y) in a.per_config.iter().zip(&b.per_config) {
                assert_eq!(x, y, "program {i}");
            }
            assert_eq!(a.covered_sites, b.covered_sites);
        }
    }

    #[test]
    fn xnu_and_linux_agree_on_a_vfs_program() {
        let p = Program::parse(
            "open path=0 flags=3\nwrite fd=3 len=5\nclose fd=3\nstat path=0\nread fd=3 len=4\n",
        )
        .unwrap();
        let out = execute(&p, None);
        let a = out.observation(ConfigId::XnuTranslated);
        let b = out.observation(ConfigId::XnuNative);
        let c = out.observation(ConfigId::Linux);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.ops, c.ops);
        assert_eq!(a.final_state.vfs, c.final_state.vfs);
        // The open really happened and the errno convention normalized:
        // fd 3 is the first free slot after the std triple.
        assert_eq!(a.ops[0], OpObs::Ok { v: 3, data: None });
        assert_eq!(a.ops[4], OpObs::Err("EBADF"));
    }

    #[test]
    fn diag_trap_diverges_between_translated_and_native() {
        // The translated persona fails diag traps with
        // KERN_INVALID_ARGUMENT; the native trampoline returns 0. This
        // is the engine's canonical known divergence.
        let p = Program::parse("diag n=1\n").unwrap();
        let out = execute(&p, None);
        let t = &out.observation(ConfigId::XnuTranslated).ops[0];
        let n = &out.observation(ConfigId::XnuNative).ops[0];
        assert_ne!(t, n);
        assert_eq!(out.observation(ConfigId::Linux).ops[0], OpObs::Skip);
    }

    #[test]
    fn translated_run_reports_covered_sites() {
        let p = Program::parse("getpid\nopen path=5 flags=0\ntask_self\n")
            .unwrap();
        let out = execute(&p, None);
        assert!(out.covered_sites.iter().any(|s| s == "getpid"));
        assert!(out.covered_sites.iter().any(|s| s == "open"));
        assert!(out.covered_sites.iter().any(|s| s == "task_self_trap"));
    }

    #[test]
    fn fault_plan_fires_identically_across_configs() {
        use cider_fault::{FaultPlan, FaultSite};
        let p = Program::parse(
            "open path=5 flags=0\nread fd=3 len=8\nread fd=3 len=8\nread fd=3 len=8\n",
        )
        .unwrap();
        let plan = FaultPlan::new(99).with(FaultSite::VfsRead, 1000);
        let out = execute(&p, Some(&plan));
        let a = out.observation(ConfigId::XnuTranslated);
        let c = out.observation(ConfigId::Linux);
        assert_eq!(a.ops, c.ops);
        assert!(a.ops[1..].contains(&OpObs::Err("EIO")));
    }
}
