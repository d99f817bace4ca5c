//! The kernel façade: processes, traps, signals, and virtual-time
//! accounting, tied together behind typed `sys_*` operations.
//!
//! Two usage levels coexist, mirroring a real system:
//!
//! * **trap level** — [`Kernel::trap`] takes a raw syscall number plus
//!   register arguments and routes them through the calling thread's
//!   [`Personality`](crate::dispatch::Personality), exactly as a binary's
//!   `svc` instruction would. This is the path benchmarks measure.
//! * **typed level** — the `sys_*` methods implement the operations
//!   themselves (and charge syscall entry/exit cost); personalities'
//!   dispatch tables bottom out here.
//!
//! A vanilla kernel has a single Linux personality and no persona
//! machinery; installing any additional personality flips
//! `cider_enabled`, which adds the per-trap persona check the paper
//! measured at 8.5 % of a null syscall.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use cider_abi::convention::CpuFlags;
use cider_abi::errno::Errno;
use cider_abi::ids::{Fd, Pid, Tid};
use cider_abi::memorystatus::PressureLevel;
use cider_abi::persona::Persona;
use cider_abi::signal::Signal;
use cider_abi::types::{OpenFlags, Stat};
use cider_fault::{FaultLayer, FaultSite};
use cider_sched::Scheduler;
use cider_trace::{EventKind, TraceContext, TraceSink};

use crate::binfmt::{BinaryLoaderRef, ExecImage};
use crate::clock::VirtualClock;
use crate::device::DeviceRegistry;
use crate::dispatch::{
    DispatchError, PersonalityRef, SyscallArgs, SyscallTable,
    SyscallTableBuilder, TrapResult, UserTrapResult,
};
use crate::fdtable::FileObject;
use crate::ipcobj::IpcObjects;
use crate::memorystatus::MemoryStatus;
use crate::process::{
    DeliveredSignal, PersonalityId, Process, ProcessState, SigDisposition,
    Thread, ThreadState, UserCallback, WaitChannel,
};
use crate::profile::DeviceProfile;
use crate::vfs::Vfs;
use crate::warm::WarmStart;

/// A registered program behaviour: the "main" of a simulated binary.
///
/// Behaviours are `Send + Sync` closures so a booted kernel — programs
/// and all — can be handed to a fleet worker thread.
pub type ProgramBehavior = Arc<dyn Fn(&mut Kernel, Tid) -> i32 + Send + Sync>;

/// Typed storage for kernel extensions — state that higher layers
/// (Cider's `CiderState`, the graphics stack) compile into the kernel.
/// Handlers reach it through [`Kernel::with_ext`], which takes the state
/// out, lends both it and the kernel mutably, and puts it back.
#[derive(Default)]
pub struct Extensions {
    map: HashMap<std::any::TypeId, Box<dyn std::any::Any + Send>>,
}

impl std::fmt::Debug for Extensions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Extensions({} entries)", self.map.len())
    }
}

impl Extensions {
    /// Stores a value, replacing any previous value of the same type.
    pub fn insert<T: Send + 'static>(&mut self, value: T) {
        self.map
            .insert(std::any::TypeId::of::<T>(), Box::new(value));
    }

    /// Removes and returns the value of type `T`.
    pub fn take<T: 'static>(&mut self) -> Option<T> {
        self.map
            .remove(&std::any::TypeId::of::<T>())
            .and_then(|b| b.downcast::<T>().ok())
            .map(|b| *b)
    }

    /// Borrows the value of type `T`.
    pub fn get<T: 'static>(&self) -> Option<&T> {
        self.map
            .get(&std::any::TypeId::of::<T>())
            .and_then(|b| b.downcast_ref::<T>())
    }

    /// Mutably borrows the value of type `T`.
    pub fn get_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.map
            .get_mut(&std::any::TypeId::of::<T>())
            .and_then(|b| b.downcast_mut::<T>())
    }
}

/// Hook invoked after every successful `fork` (Cider uses this for Mach
/// IPC task initialisation).
pub trait ForkHook: Send + Sync {
    /// Observe a completed fork.
    fn post_fork(&self, k: &mut Kernel, parent: Pid, child: Pid);
}

/// Event counters exposed for tests and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Traps dispatched through `Kernel::trap`.
    pub traps: u64,
    /// Typed syscalls executed.
    pub syscalls: u64,
    /// Successful forks.
    pub forks: u64,
    /// Successful execs.
    pub execs: u64,
    /// Process exits.
    pub exits: u64,
    /// Signals delivered to user space.
    pub signals_delivered: u64,
    /// atfork callbacks run.
    pub atfork_callbacks: u64,
    /// atexit callbacks run.
    pub atexit_callbacks: u64,
    /// Context switches.
    pub context_switches: u64,
    /// Persona checks performed on trap entry.
    pub persona_checks: u64,
}

/// The simulated domestic kernel.
pub struct Kernel {
    /// Virtual clock; all costs land here.
    pub clock: VirtualClock,
    /// Active device cost profile.
    pub profile: DeviceProfile,
    /// The filesystem.
    pub vfs: Vfs,
    /// Pipes and socketpairs.
    pub ipc: IpcObjects,
    /// Device registry with `device_add` hooks.
    pub devices: DeviceRegistry,
    /// Event counters.
    pub counters: KernelCounters,
    /// Extension state compiled into the kernel by higher layers.
    pub extensions: Extensions,
    /// Observability sink. Disabled (a no-op) by default; tracing reads
    /// the virtual clock but never charges it, so enabling it cannot
    /// perturb any measurement.
    pub trace: TraceSink,
    /// Deterministic fault-injection layer. Inactive (empty plan) by
    /// default; an inactive layer takes an early-out with zero side
    /// effects, so fault-free runs are bit-identical to a kernel
    /// without the layer.
    pub faults: FaultLayer,
    /// Virtual-time preemptive scheduler: per-priority run queues,
    /// quantum accounting, and the seeded tie-breaker. The kernel
    /// charges trap time against it and asks for preemption decisions;
    /// the scheduler itself never touches the clock.
    pub sched: Scheduler,
    /// Zygote-style warm-start state: the prelinked dyld shared cache
    /// and copy-on-write fork counters. Disabled by default — the cold
    /// machine the goldens describe; test beds opt in via
    /// [`crate::warm::WarmStart::set_enabled`].
    pub warm: WarmStart,
    /// Jetsam bands, footprint accounting, and pressure-driven kills.
    /// Pure bookkeeping: nothing is tracked (and no cost is charged)
    /// until the app-framework layer registers processes, so untracked
    /// workloads stay byte-identical to a kernel without it.
    pub memorystatus: MemoryStatus,
    /// Wait channels whose `wakeup` was swallowed by the
    /// [`FaultSite::SchedWakeup`] injection; flushed (threads finally
    /// woken) at the next scheduling point so virtual time cannot
    /// deadlock.
    deferred_wakeups: Vec<WaitChannel>,
    procs: BTreeMap<u32, Process>,
    threads: BTreeMap<u32, Thread>,
    next_pid: u32,
    next_tid: u32,
    next_wait_channel: u64,
    personalities: Vec<PersonalityRef>,
    binfmts: Vec<BinaryLoaderRef>,
    fork_hooks: Vec<Arc<dyn ForkHook>>,
    programs: HashMap<String, ProgramBehavior>,
    current: Option<Tid>,
    cider_enabled: bool,
    linux_personality: PersonalityId,
    /// Recycled out-of-band buffers. The simulator runs one trap at a
    /// time, so this kernel-level pool is the "per-thread" scratch
    /// space of a real kernel: handlers draw from it instead of
    /// allocating, and trap callers hand finished `out_data` buffers
    /// back with [`Kernel::recycle_scratch`].
    scratch: Vec<Vec<u8>>,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("profile", &self.profile.name)
            .field("clock", &self.clock)
            .field("procs", &self.procs.len())
            .field("threads", &self.threads.len())
            .field("personalities", &self.personalities.len())
            .finish()
    }
}

impl Kernel {
    /// Default scheduler tie-breaker seed. Every boot uses the same
    /// fixed seed so two identical workloads produce byte-identical
    /// context-switch sequences; experiments vary it via
    /// [`Scheduler::reseed`].
    pub const DEFAULT_SCHED_SEED: u64 = 0xC1DE_5EED;

    /// Boots a kernel with the given device profile and a single Linux
    /// personality. No processes exist yet; use [`Kernel::spawn_process`].
    pub fn boot(profile: DeviceProfile) -> Kernel {
        let mut k = Kernel {
            clock: VirtualClock::new(),
            profile,
            vfs: Vfs::new(),
            ipc: IpcObjects::new(),
            devices: DeviceRegistry::new(),
            counters: KernelCounters::default(),
            extensions: Extensions::default(),
            trace: TraceSink::disabled(),
            faults: FaultLayer::inactive(),
            sched: Scheduler::new(Kernel::DEFAULT_SCHED_SEED),
            warm: WarmStart::new(),
            memorystatus: MemoryStatus::new(),
            deferred_wakeups: Vec::new(),
            procs: BTreeMap::new(),
            threads: BTreeMap::new(),
            next_pid: 1,
            next_tid: 1,
            next_wait_channel: 1,
            personalities: Vec::new(),
            binfmts: Vec::new(),
            fork_hooks: Vec::new(),
            programs: HashMap::new(),
            current: None,
            cider_enabled: false,
            linux_personality: 0,
            scratch: Vec::new(),
        };
        let linux = Arc::new(LinuxPersonality::new());
        k.linux_personality = k.register_personality(linux);
        // Registering the first (native) personality does not make the
        // kernel a multi-persona kernel.
        k.cider_enabled = false;
        k.vfs.mkdir_p("/dev").expect("fresh fs");
        k.vfs.mkdir_p("/tmp").expect("fresh fs");
        k
    }

    // ------------------------------------------------------------------
    // Registration APIs used by higher layers.
    // ------------------------------------------------------------------

    /// Registers a personality and returns its id. Multi-persona
    /// bookkeeping costs start only once [`Kernel::enable_cider`] is
    /// called (a native XNU kernel has several trap tables but no
    /// persona machinery).
    pub fn register_personality(
        &mut self,
        p: PersonalityRef,
    ) -> PersonalityId {
        self.personalities.push(p);
        self.personalities.len() - 1
    }

    /// Turns on the per-trap persona check and per-delivery persona
    /// lookup — the costs the paper measured at 8.5 % (null syscall) and
    /// 3 % (signal delivery) on a Cider kernel.
    pub fn enable_cider(&mut self) {
        self.cider_enabled = true;
    }

    /// Turns the persona machinery back off (used when modelling a
    /// native single-persona kernel that still registers extra
    /// personalities for its own trap tables).
    pub fn disable_cider(&mut self) {
        self.cider_enabled = false;
    }

    /// The id of the built-in Linux personality.
    pub fn linux_personality(&self) -> PersonalityId {
        self.linux_personality
    }

    /// Whether multi-persona support (and its per-trap check) is active.
    pub fn cider_enabled(&self) -> bool {
        self.cider_enabled
    }

    /// Registers a binary-format loader (consulted in order).
    pub fn register_binfmt(&mut self, l: BinaryLoaderRef) {
        self.binfmts.push(l);
    }

    /// Registers a post-fork hook.
    pub fn register_fork_hook(&mut self, h: Arc<dyn ForkHook>) {
        self.fork_hooks.push(h);
    }

    /// Registers a program behaviour under a symbol name; binaries whose
    /// loader reports that `entry_symbol` will run it.
    pub fn register_program(
        &mut self,
        symbol: impl Into<String>,
        body: ProgramBehavior,
    ) {
        self.programs.insert(symbol.into(), body);
    }

    /// Runs `f` with the extension of type `T` taken out of
    /// [`Kernel::extensions`], so both can be borrowed mutably, and puts
    /// it back afterwards. `None` when no `T` is installed — which
    /// includes a nested `with_ext::<T>` inside `f`, since the outer
    /// call holds the value.
    pub fn with_ext<T: Send + 'static, R>(
        &mut self,
        f: impl FnOnce(&mut Kernel, &mut T) -> R,
    ) -> Option<R> {
        let mut ext = self.extensions.take::<T>()?;
        let r = f(self, &mut ext);
        self.extensions.insert(ext);
        Some(r)
    }

    // ------------------------------------------------------------------
    // Cost charging.
    // ------------------------------------------------------------------

    /// Charges CPU-bound virtual time, scaled by the device's CPU factor.
    pub fn charge_cpu(&mut self, ns: u64) {
        self.clock.advance(self.profile.cpu_ns(ns));
    }

    /// Charges unscaled virtual time (already device-absolute).
    pub fn charge_raw(&mut self, ns: u64) {
        self.clock.advance(ns);
    }

    fn charge_copy(&mut self, bytes: usize) {
        let ns = (bytes as f64 * self.profile.copy_byte_ns) as u64;
        self.charge_cpu(ns);
    }

    fn charge_path(&mut self, components: usize) {
        self.charge_cpu(self.profile.path_component_ns * components as u64);
    }

    fn enter_syscall(&mut self) {
        self.counters.syscalls += 1;
        self.charge_cpu(self.profile.syscall_entry_exit_ns);
    }

    // ------------------------------------------------------------------
    // Scratch buffers (zero-alloc out-of-band data).
    // ------------------------------------------------------------------

    /// Takes an empty buffer from the scratch pool, or a fresh one if
    /// the pool is dry. Handlers use this for `out_data` they build
    /// (pipe/socket reads, stat encodings, received Mach messages).
    pub fn take_scratch(&mut self) -> Vec<u8> {
        self.scratch.pop().unwrap_or_default()
    }

    /// Returns a finished buffer to the scratch pool. Trap callers that
    /// are done with `out_data` hand it back here so the next trap
    /// reuses the allocation instead of making a new one.
    pub fn recycle_scratch(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() > 0 && self.scratch.len() < 8 {
            buf.clear();
            self.scratch.push(buf);
        }
    }

    // ------------------------------------------------------------------
    // Tracing.
    // ------------------------------------------------------------------

    /// A trace context for a thread at the current virtual instant.
    /// Foreign means the thread's personality is not the built-in Linux
    /// one. Cheap, but only call under `trace.is_enabled()`.
    pub fn trace_ctx(&self, tid: Tid) -> TraceContext {
        match self.thread(tid) {
            Ok(t) => TraceContext::thread(
                self.clock.now_ns(),
                t.pid,
                tid,
                t.personality != self.linux_personality,
            ),
            Err(_) => TraceContext::kernel(self.clock.now_ns()),
        }
    }

    fn trace_vfs(&mut self, tid: Tid, op: &'static str, bytes: u64) {
        if self.trace.is_enabled() {
            self.trace
                .record(self.trace_ctx(tid), EventKind::VfsOp { op, bytes });
            self.trace.add(&format!("vfs/{op}/bytes"), bytes);
            self.trace.incr(&format!("vfs/{op}/ops"));
        }
    }

    // ------------------------------------------------------------------
    // Fault injection.
    // ------------------------------------------------------------------

    /// Consults the fault layer at a named site. Returns `true` when
    /// the scheduled fault should fire, recording it in the ledger and
    /// the trace. With an inactive layer this is a branch on an empty
    /// map and nothing else — no clock, no counters, no RNG.
    pub fn fault_at(&mut self, site: FaultSite) -> bool {
        if !self.faults.is_active() {
            return false;
        }
        let now = self.clock.now_ns();
        match self.faults.try_inject(site, now) {
            Some(seq) => {
                if self.trace.is_enabled() {
                    self.trace.record(
                        TraceContext::kernel(now),
                        EventKind::FaultInjected {
                            site: site.name(),
                            seq,
                        },
                    );
                    self.trace.incr("fault/injected");
                    self.trace.incr(&format!("fault/{}", site.name()));
                }
                true
            }
            None => false,
        }
    }

    /// Records a recovery action (supervisor respawn, watchdog kick,
    /// fence fallback) in the fault ledger and the trace.
    pub fn trace_recovery(&mut self, action: impl Into<String>) {
        let action = action.into();
        let now = self.clock.now_ns();
        if self.trace.is_enabled() {
            self.trace.record(
                TraceContext::kernel(now),
                EventKind::Recovery {
                    action: action.clone().into(),
                },
            );
            self.trace.incr("recovery/actions");
        }
        self.faults.record_recovery(action, now);
    }

    // ------------------------------------------------------------------
    // Threads and processes.
    // ------------------------------------------------------------------

    /// Creates a fresh process with one thread running the Linux
    /// personality. Returns `(pid, tid)`.
    pub fn spawn_process(&mut self) -> (Pid, Tid) {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let tid = Tid(self.next_tid);
        self.next_tid += 1;
        let mut proc = Process::new(pid, None);
        proc.threads.push(tid);
        self.procs.insert(pid.0, proc);
        self.threads.insert(
            tid.0,
            Thread {
                tid,
                pid,
                state: ThreadState::Runnable,
                personality: self.linux_personality,
                sigmask: 0,
                pending: Vec::new(),
                delivered: Vec::new(),
                ext: None,
            },
        );
        self.sched.register(tid, Persona::Domestic);
        if self.current.is_none() {
            self.current = Some(tid);
            self.sched.on_dispatch(tid);
        }
        (pid, tid)
    }

    /// Adds a thread to an existing process (`clone`). The new thread
    /// inherits the creating thread's personality and extension state.
    ///
    /// # Errors
    ///
    /// `ESRCH` if `tid` is unknown.
    pub fn spawn_thread(&mut self, tid: Tid) -> Result<Tid, Errno> {
        self.enter_syscall();
        let parent = self.thread(tid)?;
        let pid = parent.pid;
        let new = Thread {
            tid: Tid(self.next_tid),
            pid,
            state: ThreadState::Runnable,
            personality: parent.personality,
            sigmask: parent.sigmask,
            pending: Vec::new(),
            delivered: Vec::new(),
            ext: parent.ext.as_ref().map(|e| e.clone_ext()),
        };
        let ntid = new.tid;
        self.next_tid += 1;
        self.threads.insert(ntid.0, new);
        self.process_mut(pid)?.threads.push(ntid);
        let persona = self.sched.identity(tid).unwrap_or(Persona::Domestic);
        self.sched.register(ntid, persona);
        Ok(ntid)
    }

    /// Immutable thread lookup.
    ///
    /// # Errors
    ///
    /// `ESRCH` if unknown.
    pub fn thread(&self, tid: Tid) -> Result<&Thread, Errno> {
        self.threads.get(&tid.0).ok_or(Errno::ESRCH)
    }

    /// Mutable thread lookup.
    ///
    /// # Errors
    ///
    /// `ESRCH` if unknown.
    pub fn thread_mut(&mut self, tid: Tid) -> Result<&mut Thread, Errno> {
        self.threads.get_mut(&tid.0).ok_or(Errno::ESRCH)
    }

    /// Immutable process lookup.
    ///
    /// # Errors
    ///
    /// `ESRCH` if unknown.
    pub fn process(&self, pid: Pid) -> Result<&Process, Errno> {
        self.procs.get(&pid.0).ok_or(Errno::ESRCH)
    }

    /// Mutable process lookup.
    ///
    /// # Errors
    ///
    /// `ESRCH` if unknown.
    pub fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, Errno> {
        self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)
    }

    /// The process owning a thread.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn process_of(&self, tid: Tid) -> Result<&Process, Errno> {
        let pid = self.thread(tid)?.pid;
        self.process(pid)
    }

    fn process_of_mut(&mut self, tid: Tid) -> Result<&mut Process, Errno> {
        let pid = self.thread(tid)?.pid;
        self.process_mut(pid)
    }

    /// Currently scheduled thread.
    pub fn current(&self) -> Option<Tid> {
        self.current
    }

    /// Switches the CPU to another thread, charging a context switch.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown or exited.
    pub fn switch_to(&mut self, tid: Tid) -> Result<(), Errno> {
        let t = self.thread(tid)?;
        if t.state == ThreadState::Exited {
            return Err(Errno::ESRCH);
        }
        self.dispatch_switch(tid);
        Ok(())
    }

    /// The single place "current thread" changes: requeues the outgoing
    /// thread (if still runnable), charges exactly one context switch
    /// when the thread actually changes, and records the switch in the
    /// trace.
    fn dispatch_switch(&mut self, tid: Tid) {
        if self.current == Some(tid) {
            self.sched.on_dispatch(tid);
            return;
        }
        let prev = self.current;
        if let Some(p) = prev {
            if self
                .threads
                .get(&p.0)
                .is_some_and(|t| t.state == ThreadState::Runnable)
            {
                self.sched.requeue(p);
            }
        }
        self.counters.context_switches += 1;
        self.charge_cpu(self.profile.context_switch_ns);
        self.current = Some(tid);
        self.sched.on_dispatch(tid);
        if self.trace.is_enabled() {
            let ctx = self.trace_ctx(tid);
            self.trace.record(
                ctx,
                EventKind::ContextSwitch {
                    from: prev.map_or(0, |t| t.0),
                    to: tid.0,
                },
            );
            self.trace.incr("sched/ctx_switch");
            self.trace
                .observe("sched/runq_depth", self.sched.queued_depth() as u64);
        }
    }

    /// One scheduler step: flushes any fault-deferred wakeups, asks the
    /// run queues for the next thread, and switches to it. With nothing
    /// queued the current thread keeps the CPU. Returns the thread now
    /// running.
    pub fn schedule(&mut self) -> Option<Tid> {
        self.flush_deferred_wakeups();
        let now = self.clock.now_ns();
        if let Some(d) = self.sched.pick_next(now) {
            self.dispatch_switch(d.tid);
        }
        self.current
    }

    /// Allocates a fresh wait channel.
    pub fn new_wait_channel(&mut self) -> WaitChannel {
        let c = WaitChannel(self.next_wait_channel);
        self.next_wait_channel += 1;
        c
    }

    /// Parks a thread on a wait channel.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn block_thread(
        &mut self,
        tid: Tid,
        chan: WaitChannel,
    ) -> Result<(), Errno> {
        self.thread_mut(tid)?.state = ThreadState::Blocked(chan);
        self.sched.on_block(tid);
        Ok(())
    }

    /// Wakes every thread parked on a channel; returns how many.
    ///
    /// Under an armed [`FaultSite::SchedWakeup`] the wakeup is *lost*:
    /// sleepers stay parked and the channel is remembered, to be
    /// flushed at the next scheduling point (or the next wakeup call) —
    /// the supervised recovery that keeps virtual time from
    /// deadlocking.
    pub fn wakeup(&mut self, chan: WaitChannel) -> usize {
        self.flush_deferred_wakeups();
        if self.fault_at(FaultSite::SchedWakeup) {
            self.deferred_wakeups.push(chan);
            return 0;
        }
        self.wake_all(chan)
    }

    fn wake_all(&mut self, chan: WaitChannel) -> usize {
        let mut woken = Vec::new();
        for t in self.threads.values_mut() {
            if t.state == ThreadState::Blocked(chan) {
                t.state = ThreadState::Runnable;
                woken.push(t.tid);
            }
        }
        for &t in &woken {
            self.sched.on_wake(t, self.current);
        }
        woken.len()
    }

    fn flush_deferred_wakeups(&mut self) {
        if self.deferred_wakeups.is_empty() {
            return;
        }
        let chans = std::mem::take(&mut self.deferred_wakeups);
        let mut n = 0;
        for chan in chans {
            n += self.wake_all(chan);
        }
        if n > 0 {
            self.trace_recovery(format!("sched/deferred_wakeup_flush({n})"));
        }
    }

    // ------------------------------------------------------------------
    // Trap entry (register-level path).
    // ------------------------------------------------------------------

    /// Dispatches a raw trap from a thread, as its `svc` instruction
    /// would: persona check (on a Cider kernel), personality lookup, and
    /// personality-specific decode/dispatch/encode.
    pub fn trap(
        &mut self,
        tid: Tid,
        number: i64,
        args: &SyscallArgs,
    ) -> UserTrapResult {
        self.counters.traps += 1;
        let trap_start_ns = self.clock.now_ns();
        let enter_ctx = if self.trace.is_enabled() {
            Some(self.trace_ctx(tid))
        } else {
            None
        };
        if self.cider_enabled {
            // The paper's 8.5 % null-syscall overhead: every trap on a
            // Cider kernel checks the calling thread's persona.
            self.counters.persona_checks += 1;
            self.charge_cpu(self.profile.persona_check_ns);
        }
        let personality = match self.thread(tid) {
            Ok(t) => t.personality,
            Err(e) => {
                return UserTrapResult {
                    reg: -(e.as_raw() as i64),
                    flags: CpuFlags::default(),
                    out_data: Vec::new(),
                }
            }
        };
        let p = self.personalities[personality].clone();
        if let Some(ctx) = enter_ctx {
            self.trace.record(
                ctx,
                EventKind::SyscallEnter {
                    nr: number,
                    translated: p.translate_syscall(number),
                },
            );
        }
        let result = p.trap(self, tid, number, args);
        if let Some(ctx) = enter_ctx {
            let exit_ctx = TraceContext {
                ts_ns: self.clock.now_ns(),
                ..ctx
            };
            self.trace.record(
                exit_ctx,
                EventKind::SyscallExit {
                    nr: number,
                    ret: result.reg,
                },
            );
            // Per-persona, per-syscall virtual latency of the whole trap
            // (persona check included — that's what user space sees).
            let name = p
                .syscall_name(number)
                .map(|n| Cow::Borrowed(n.as_str()))
                .unwrap_or_else(|| Cow::Owned(format!("nr{number}")));
            self.trace.observe(
                &format!("syscall/{}/{name}", ctx.persona_label()),
                exit_ctx.ts_ns - ctx.ts_ns,
            );
            self.trace.incr("kernel/traps");
            if self.cider_enabled {
                self.trace.incr("kernel/persona_checks");
            }
        }
        // Trap-return boundary: charge the trap's elapsed virtual time
        // against the thread's quantum and preempt if the slice expired
        // or a strictly-higher-priority thread woke up during the trap.
        let now = self.clock.now_ns();
        self.sched
            .charge(tid, now.saturating_sub(trap_start_ns), now);
        if self.sched.take_resched() {
            self.schedule();
        }
        result
    }

    /// The personality object a thread traps into.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn personality_of(&self, tid: Tid) -> Result<PersonalityRef, Errno> {
        Ok(self.personalities[self.thread(tid)?.personality].clone())
    }

    /// Looks up a registered personality by id.
    pub fn personality(&self, id: PersonalityId) -> PersonalityRef {
        self.personalities[id].clone()
    }

    // ------------------------------------------------------------------
    // Typed syscall implementations.
    // ------------------------------------------------------------------

    /// `getpid`.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_getpid(&mut self, tid: Tid) -> Result<Pid, Errno> {
        self.enter_syscall();
        Ok(self.thread(tid)?.pid)
    }

    /// `gettid`.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_gettid(&mut self, tid: Tid) -> Result<Tid, Errno> {
        self.enter_syscall();
        self.thread(tid)?;
        Ok(tid)
    }

    /// `open`.
    ///
    /// # Errors
    ///
    /// VFS resolution errors; `EEXIST` with `CREAT|EXCL`.
    pub fn sys_open(
        &mut self,
        tid: Tid,
        path: &str,
        flags: OpenFlags,
    ) -> Result<Fd, Errno> {
        self.enter_syscall();
        self.charge_cpu(self.profile.vfs_op_ns);
        self.trace_vfs(tid, "open", 0);
        let resolved = self.vfs.resolve(path);
        let ino = match resolved {
            Ok(r) => {
                self.charge_path(r.components_walked);
                if flags.contains(OpenFlags::CREAT)
                    && flags.contains(OpenFlags::EXCL)
                {
                    return Err(Errno::EEXIST);
                }
                if flags.contains(OpenFlags::TRUNC) && flags.writable() {
                    let now = self.clock.now_ns();
                    self.vfs.set_time(now);
                    self.vfs.truncate(r.ino, 0)?;
                }
                r.ino
            }
            Err(Errno::ENOENT) if flags.contains(OpenFlags::CREAT) => {
                if self.fault_at(FaultSite::VfsCreate) {
                    return Err(Errno::ENOSPC);
                }
                let now = self.clock.now_ns();
                self.vfs.set_time(now);
                self.vfs.write_file(path, Vec::new())?
            }
            Err(e) => return Err(e),
        };
        if let Some(dev) = self.vfs.device_of(ino) {
            let proc = self.process_of_mut(tid)?;
            return Ok(proc.fds.insert(FileObject::Device(dev)));
        }
        let proc = self.process_of_mut(tid)?;
        Ok(proc.fds.insert(FileObject::File {
            ino,
            offset: 0,
            writable: flags.writable(),
            readable: flags.readable(),
        }))
    }

    /// `close`.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown descriptors.
    pub fn sys_close(&mut self, tid: Tid, fd: Fd) -> Result<(), Errno> {
        self.enter_syscall();
        self.charge_cpu(self.profile.vfs_op_ns / 2);
        self.trace_vfs(tid, "close", 0);
        let obj = self.process_of_mut(tid)?.fds.remove(fd)?;
        match obj {
            FileObject::Pipe(end) => self.ipc.pipe_close(end),
            FileObject::Socket(end) => self.ipc.socket_close(end),
            _ => {}
        }
        Ok(())
    }

    /// `read`. Returns the bytes read (the simulator's stand-in for the
    /// user buffer).
    ///
    /// # Errors
    ///
    /// `EBADF` on a non-readable descriptor; `EAGAIN` on an empty pipe or
    /// socket whose peer is still open.
    pub fn sys_read(
        &mut self,
        tid: Tid,
        fd: Fd,
        len: usize,
    ) -> Result<Vec<u8>, Errno> {
        self.enter_syscall();
        self.trace_vfs(tid, "read", len as u64);
        let obj = self.process_of(tid)?.fds.get(fd)?.clone();
        match obj {
            FileObject::File {
                ino,
                offset,
                readable,
                ..
            } => {
                if !readable {
                    return Err(Errno::EBADF);
                }
                if self.fault_at(FaultSite::VfsRead) {
                    return Err(Errno::EIO);
                }
                let data = self.vfs.read_at(ino, offset, len)?;
                self.charge_copy(data.len());
                if let FileObject::File { offset, .. } =
                    self.process_of_mut(tid)?.fds.get_mut(fd)?
                {
                    *offset += data.len() as u64;
                }
                Ok(data)
            }
            FileObject::Pipe(end) => {
                if end.write_end {
                    return Err(Errno::EBADF);
                }
                let mut buf = self.take_scratch();
                buf.resize(len, 0);
                let n = match self.ipc.pipe_read(end.id, &mut buf) {
                    Ok(n) => n,
                    Err(e) => {
                        self.recycle_scratch(buf);
                        return Err(e);
                    }
                };
                buf.truncate(n);
                self.charge_copy(n);
                Ok(buf)
            }
            FileObject::Socket(end) => {
                let mut buf = self.take_scratch();
                buf.resize(len, 0);
                let n = match self.ipc.socket_recv(end.id, end.side, &mut buf)
                {
                    Ok(n) => n,
                    Err(e) => {
                        self.recycle_scratch(buf);
                        return Err(e);
                    }
                };
                buf.truncate(n);
                self.charge_copy(n);
                Ok(buf)
            }
            FileObject::Device(_) => {
                // Devices deliver nothing by default; drivers that matter
                // (input, framebuffer) are accessed via their subsystems.
                Ok(Vec::new())
            }
            FileObject::Console => Err(Errno::EBADF),
        }
    }

    /// `write`. Returns bytes written.
    ///
    /// # Errors
    ///
    /// `EBADF` on a non-writable descriptor, `EPIPE` on a broken pipe.
    pub fn sys_write(
        &mut self,
        tid: Tid,
        fd: Fd,
        data: &[u8],
    ) -> Result<usize, Errno> {
        self.enter_syscall();
        self.trace_vfs(tid, "write", data.len() as u64);
        let obj = self.process_of(tid)?.fds.get(fd)?.clone();
        match obj {
            FileObject::File {
                ino,
                offset,
                writable,
                ..
            } => {
                if !writable {
                    return Err(Errno::EBADF);
                }
                if self.fault_at(FaultSite::VfsWrite) {
                    return Err(Errno::EIO);
                }
                self.charge_copy(data.len());
                let now = self.clock.now_ns();
                self.vfs.set_time(now);
                let n = self.vfs.write_at(ino, offset, data)?;
                if let FileObject::File { offset, .. } =
                    self.process_of_mut(tid)?.fds.get_mut(fd)?
                {
                    *offset += n as u64;
                }
                Ok(n)
            }
            FileObject::Pipe(end) => {
                if !end.write_end {
                    return Err(Errno::EBADF);
                }
                self.charge_copy(data.len());
                self.ipc.pipe_write(end.id, data)
            }
            FileObject::Socket(end) => {
                self.charge_copy(data.len());
                self.ipc.socket_send(end.id, end.side, data)
            }
            FileObject::Console => {
                self.charge_copy(data.len());
                self.process_of_mut(tid)?.console.extend_from_slice(data);
                Ok(data.len())
            }
            FileObject::Device(_) => Ok(data.len()),
        }
    }

    /// Direct (uncached) storage read of `len` bytes — the PassMark
    /// storage path. Charges flash bandwidth instead of copy cost.
    ///
    /// # Errors
    ///
    /// Same as [`Kernel::sys_read`].
    pub fn sys_read_direct(
        &mut self,
        tid: Tid,
        fd: Fd,
        len: usize,
    ) -> Result<Vec<u8>, Errno> {
        let cost = self.profile.storage_cost_ns(len as u64, false);
        self.charge_raw(cost);
        self.sys_read(tid, fd, len)
    }

    /// Direct (uncached) storage write — the PassMark storage path.
    ///
    /// # Errors
    ///
    /// Same as [`Kernel::sys_write`].
    pub fn sys_write_direct(
        &mut self,
        tid: Tid,
        fd: Fd,
        data: &[u8],
    ) -> Result<usize, Errno> {
        let cost = self.profile.storage_cost_ns(data.len() as u64, true);
        self.charge_raw(cost);
        self.sys_write(tid, fd, data)
    }

    /// `unlink`.
    ///
    /// # Errors
    ///
    /// VFS errors (`ENOENT`, `ENOTEMPTY`).
    pub fn sys_unlink(&mut self, tid: Tid, path: &str) -> Result<(), Errno> {
        self.enter_syscall();
        self.thread(tid)?;
        self.charge_cpu(self.profile.vfs_op_ns);
        self.trace_vfs(tid, "unlink", 0);
        if let Ok(r) = self.vfs.resolve(path) {
            self.charge_path(r.components_walked);
        }
        self.vfs.unlink(path)
    }

    /// `mkdir`.
    ///
    /// # Errors
    ///
    /// VFS errors.
    pub fn sys_mkdir(&mut self, tid: Tid, path: &str) -> Result<(), Errno> {
        self.enter_syscall();
        self.thread(tid)?;
        self.charge_cpu(self.profile.vfs_op_ns);
        self.trace_vfs(tid, "mkdir", 0);
        let now = self.clock.now_ns();
        self.vfs.set_time(now);
        self.vfs.mkdir_p(path).map(|_| ())
    }

    /// `stat`.
    ///
    /// # Errors
    ///
    /// VFS resolution errors.
    pub fn sys_stat(&mut self, tid: Tid, path: &str) -> Result<Stat, Errno> {
        self.enter_syscall();
        self.thread(tid)?;
        self.trace_vfs(tid, "stat", 0);
        let r = self.vfs.resolve(path)?;
        self.charge_path(r.components_walked);
        Ok(self.vfs.stat(r.ino))
    }

    /// `pipe`: returns `(read_fd, write_fd)`.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_pipe(&mut self, tid: Tid) -> Result<(Fd, Fd), Errno> {
        self.enter_syscall();
        self.charge_cpu(self.profile.vfs_op_ns);
        let id = self.ipc.create_pipe();
        let proc = self.process_of_mut(tid)?;
        let r = proc.fds.insert(FileObject::Pipe(crate::ipcobj::PipeEnd {
            id,
            write_end: false,
        }));
        let w = proc.fds.insert(FileObject::Pipe(crate::ipcobj::PipeEnd {
            id,
            write_end: true,
        }));
        Ok((r, w))
    }

    /// `socketpair(AF_UNIX)`.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_socketpair(&mut self, tid: Tid) -> Result<(Fd, Fd), Errno> {
        self.enter_syscall();
        self.charge_cpu(self.profile.vfs_op_ns);
        let id = self.ipc.create_socketpair();
        let proc = self.process_of_mut(tid)?;
        let a =
            proc.fds
                .insert(FileObject::Socket(crate::ipcobj::SocketEnd {
                    id,
                    side: 0,
                }));
        let b =
            proc.fds
                .insert(FileObject::Socket(crate::ipcobj::SocketEnd {
                    id,
                    side: 1,
                }));
        Ok((a, b))
    }

    /// `dup`.
    ///
    /// # Errors
    ///
    /// `EBADF`.
    pub fn sys_dup(&mut self, tid: Tid, fd: Fd) -> Result<Fd, Errno> {
        self.enter_syscall();
        let new = self.process_of_mut(tid)?.fds.dup(fd)?;
        match *self.process_of(tid)?.fds.get(new)? {
            FileObject::Pipe(end) => self.ipc.pipe_retain(end),
            FileObject::Socket(end) => self.ipc.socket_retain(end),
            _ => {}
        }
        Ok(new)
    }

    /// Passes an open descriptor to another process (the `SCM_RIGHTS`
    /// mechanism, used by CiderPress to hand the eventpump its bridge
    /// socket). The descriptor *moves*: it is closed in the sender and
    /// reopened in the receiver (descriptor objects are not refcounted
    /// across processes in the simulator). Returns the descriptor's
    /// number in the receiving process.
    ///
    /// # Errors
    ///
    /// `EBADF` if `fd` is not open in the sender, `ESRCH` for unknown
    /// threads.
    pub fn sys_pass_fd(
        &mut self,
        from: Tid,
        fd: Fd,
        to: Tid,
    ) -> Result<Fd, Errno> {
        self.enter_syscall();
        self.thread(to)?;
        let obj = self.process_of_mut(from)?.fds.remove(fd)?;
        Ok(self.process_of_mut(to)?.fds.insert(obj))
    }

    /// `select` over read descriptors: returns those currently readable.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown fds; `EINVAL` when this kernel's select
    /// implementation cannot handle the descriptor count (the XNU
    /// pathology at 250 fds).
    pub fn sys_select(
        &mut self,
        tid: Tid,
        read_fds: &[Fd],
    ) -> Result<Vec<Fd>, Errno> {
        self.enter_syscall();
        let Some(cost) = self.profile.select_cost_ns(read_fds.len()) else {
            // The implementation "simply failed to complete" (§6.2).
            self.charge_cpu(self.profile.select_per_fd_ns * 1000);
            return Err(Errno::EINVAL);
        };
        self.charge_raw(cost);
        let proc = self.process_of(tid)?;
        let mut ready = Vec::new();
        for &fd in read_fds {
            let obj = proc.fds.get(fd)?;
            let readable = match obj {
                FileObject::Pipe(end) => {
                    !end.write_end && self.ipc.pipe_readable(end.id) > 0
                }
                FileObject::Socket(end) => {
                    self.ipc.socket_readable(end.id, end.side) > 0
                }
                FileObject::File { .. } => true,
                FileObject::Device(_) => false,
                FileObject::Console => false,
            };
            if readable {
                ready.push(fd);
            }
        }
        Ok(ready)
    }

    /// `chdir`.
    ///
    /// # Errors
    ///
    /// VFS resolution errors; `ENOTDIR` if the target is not a directory.
    pub fn sys_chdir(&mut self, tid: Tid, path: &str) -> Result<(), Errno> {
        self.enter_syscall();
        let r = self.vfs.resolve(path)?;
        self.charge_path(r.components_walked);
        if self.vfs.stat(r.ino).file_type
            != cider_abi::types::FileType::Directory
        {
            return Err(Errno::ENOTDIR);
        }
        self.process_of_mut(tid)?.cwd = path.to_string();
        Ok(())
    }

    /// `getcwd`.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_getcwd(&mut self, tid: Tid) -> Result<String, Errno> {
        self.enter_syscall();
        Ok(self.process_of(tid)?.cwd.clone())
    }

    /// `nanosleep` — advances virtual time.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_nanosleep(&mut self, tid: Tid, ns: u64) -> Result<(), Errno> {
        self.enter_syscall();
        self.thread(tid)?;
        self.charge_raw(ns);
        // The sleeper gives up the CPU at expiry: requeue it at the
        // tail of its band so the scheduler arbitrates at the next
        // scheduling point (trap return, or an explicit `schedule`).
        self.sched.yield_now(tid);
        Ok(())
    }

    /// `sched_yield` / `thread_switch(SWITCH_OPTION_NONE)`: requeue the
    /// caller at the tail of its priority band and run the scheduler.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_sched_yield(&mut self, tid: Tid) -> Result<(), Errno> {
        self.enter_syscall();
        self.thread(tid)?;
        self.sched.yield_now(tid);
        self.sched.take_resched();
        self.schedule();
        Ok(())
    }

    /// `swtch_pri` / `thread_switch(SWITCH_OPTION_DEPRESS)`: depress the
    /// caller to the lowest user band until its next dispatch, yield,
    /// and reschedule. Returns whether another thread got the CPU.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_sched_depress(&mut self, tid: Tid) -> Result<bool, Errno> {
        self.enter_syscall();
        self.thread(tid)?;
        self.sched.depress(tid);
        self.sched.take_resched();
        self.schedule();
        Ok(self.current != Some(tid))
    }

    /// `swtch`: give up the CPU only if some other thread is runnable.
    /// Returns whether another thread got the CPU.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_swtch(&mut self, tid: Tid) -> Result<bool, Errno> {
        self.enter_syscall();
        self.thread(tid)?;
        if !self.sched.other_runnable(tid) {
            return Ok(false);
        }
        self.sched.yield_now(tid);
        self.sched.take_resched();
        self.schedule();
        Ok(self.current != Some(tid))
    }

    // ------------------------------------------------------------------
    // fork / exec / exit / wait.
    // ------------------------------------------------------------------

    /// `fork`: duplicates the calling thread's process. Runs atfork
    /// callbacks, duplicates every page-table entry and descriptor, and
    /// fires post-fork hooks. Returns the child pid (and its main tid).
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_fork(&mut self, tid: Tid) -> Result<(Pid, Tid), Errno> {
        self.enter_syscall();
        let parent_pid = self.thread(tid)?.pid;
        self.charge_cpu(self.profile.fork_base_ns);

        // User space: atfork prepare handlers run in the parent first.
        let prepare = self.process(parent_pid)?.callbacks.atfork_prepare.len();
        self.run_user_callbacks(prepare, true);

        // Kernel: duplicate the address space. Eagerly — visiting every
        // PTE now — on the cold machine; lazily when warm start is on:
        // no PTE is copied here, the child pays pte_copy_ns page by
        // page at first write (sys_page_write), and debt dropped by a
        // following exec/exit is never paid at all.
        if self.fault_at(FaultSite::ForkPteCopy) {
            return Err(Errno::ENOMEM);
        }
        let cow = self.warm.is_enabled();
        let (mm, ptes) = if cow {
            self.process(parent_pid)?.mm.fork_duplicate_cow()
        } else {
            self.process(parent_pid)?.mm.fork_duplicate()
        };
        if cow {
            self.warm.stats.cow_forks += 1;
            self.warm.stats.cow_deferred_ptes += ptes;
        } else {
            self.charge_cpu(self.profile.pte_copy_ns * ptes);
        }
        if self.trace.is_enabled() {
            self.trace.record(
                self.trace_ctx(tid),
                EventKind::PageTableCopy {
                    ptes: if cow { 0 } else { ptes },
                },
            );
            if cow {
                self.trace.add("mm/cow_deferred_ptes", ptes);
            } else {
                self.trace.add("mm/forked_ptes", ptes);
            }
            self.trace.incr("kernel/forks");
        }

        // Kernel: clone the descriptor table. Every cloned pipe/socket
        // descriptor is a new reference to the shared end, so the child's
        // later close (or exit) cannot tear the object out from under the
        // parent.
        let (fds, fd_count) = self.process(parent_pid)?.fds.fork_clone();
        for (_, obj) in fds.iter() {
            match *obj {
                FileObject::Pipe(end) => self.ipc.pipe_retain(end),
                FileObject::Socket(end) => self.ipc.socket_retain(end),
                _ => {}
            }
        }
        self.charge_cpu(self.profile.fd_clone_ns * fd_count as u64);

        let child_pid = Pid(self.next_pid);
        self.next_pid += 1;
        let child_tid = Tid(self.next_tid);
        self.next_tid += 1;

        let parent = self.process(parent_pid)?;
        let mut child = Process::new(child_pid, Some(parent_pid));
        child.mm = mm;
        child.fds = fds;
        child.cwd = parent.cwd.clone();
        child.callbacks = parent.callbacks.clone();
        child.program = parent.program.clone();
        child.sig_handlers = parent.sig_handlers.clone();
        child.threads.push(child_tid);

        let child_thread = self.thread(tid)?.fork_clone(child_tid, child_pid);
        self.procs.insert(child_pid.0, child);
        self.threads.insert(child_tid.0, child_thread);
        self.process_mut(parent_pid)?.children.push(child_pid);
        let persona = self.sched.identity(tid).unwrap_or(Persona::Domestic);
        self.sched.register(child_tid, persona);

        // User space: parent + child atfork handlers run after the fork.
        let parent_cbs =
            self.process(parent_pid)?.callbacks.atfork_parent.len();
        let child_cbs = self.process(child_pid)?.callbacks.atfork_child.len();
        self.run_user_callbacks(parent_cbs + child_cbs, true);

        for hook in self.fork_hooks.clone() {
            hook.post_fork(self, parent_pid, child_pid);
        }

        self.counters.forks += 1;
        Ok((child_pid, child_tid))
    }

    /// A user-level store to `addr`: the copy-on-write first-write
    /// fault path. If the containing page is CoW-pending (deferred by a
    /// warm-mode fork), the page materializes here — `pte_copy_ns` is
    /// charged now, and the elapsed time lands on the faulting thread's
    /// quantum exactly as trap time does, so preemption decisions are
    /// identical whether the copy was paid at fork or at fault. Writes
    /// to already-materialized or never-deferred pages are free.
    /// Returns the number of PTEs materialized (0 or 1).
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown, `EFAULT` if `addr` is not
    /// mapped.
    pub fn sys_page_write(
        &mut self,
        tid: Tid,
        addr: u64,
    ) -> Result<u64, Errno> {
        let fault_start_ns = self.clock.now_ns();
        let pid = self.thread(tid)?.pid;
        let materialized = self.process_mut(pid)?.mm.page_write(addr)?;
        if materialized > 0 {
            self.charge_cpu(self.profile.pte_copy_ns * materialized);
            self.warm.stats.cow_faults += materialized;
            if self.trace.is_enabled() {
                self.trace.record(
                    self.trace_ctx(tid),
                    EventKind::PageTableCopy { ptes: materialized },
                );
                self.trace.incr("mm/cow_faults");
            }
        }
        let now = self.clock.now_ns();
        self.sched
            .charge(tid, now.saturating_sub(fault_start_ns), now);
        if self.sched.take_resched() {
            self.schedule();
        }
        Ok(materialized)
    }

    fn run_user_callbacks(&mut self, count: usize, atfork: bool) {
        for _ in 0..count {
            self.charge_cpu(self.profile.user_callback_ns);
            if atfork {
                self.counters.atfork_callbacks += 1;
            } else {
                self.counters.atexit_callbacks += 1;
            }
        }
    }

    /// `execve`: replaces the calling process's image. The old address
    /// space and all registered user callbacks are discarded *without*
    /// running them (the mechanism behind fork+exec(android) being
    /// cheaper than fork+exit for an iOS parent, §6.2).
    ///
    /// # Errors
    ///
    /// `ENOENT` if the path is missing, `ENOEXEC` if no loader claims the
    /// image, plus loader-specific errors.
    pub fn sys_exec(
        &mut self,
        tid: Tid,
        path: &str,
        argv: &[&str],
    ) -> Result<(), Errno> {
        self.enter_syscall();
        self.charge_cpu(self.profile.exec_base_ns);
        let r = self.vfs.resolve(path)?;
        self.charge_path(r.components_walked);
        let bytes = self.vfs.read_file(path)?;
        self.charge_copy(bytes.len().min(4096)); // header inspection

        let loader = self
            .binfmts
            .iter()
            .find(|l| l.can_load(&bytes))
            .cloned()
            .ok_or(Errno::ENOEXEC)?;

        // Tear down the old image: mappings, user callbacks, and any
        // descriptor marked close-on-exec vanish.
        let closed = {
            let proc = self.process_of_mut(tid)?;
            proc.mm.clear();
            proc.callbacks = Default::default();
            proc.fds.close_on_exec()
        };
        for (_, obj) in closed {
            match obj {
                FileObject::Pipe(end) => self.ipc.pipe_close(end),
                FileObject::Socket(end) => self.ipc.socket_close(end),
                _ => {}
            }
        }

        let image = ExecImage {
            path: path.to_string(),
            bytes,
            argv: argv.iter().map(|s| s.to_string()).collect(),
        };
        let loaded = loader.load(self, tid, &image)?;

        let proc = self.process_of_mut(tid)?;
        proc.program.path = path.to_string();
        proc.program.argv = image.argv.clone();
        proc.program.entry_symbol = loaded.entry_symbol;
        proc.program.format = loaded.format;
        proc.program.dylib_count = loaded.dylib_count;
        self.counters.execs += 1;
        Ok(())
    }

    /// Runs the program behaviour of the calling thread's process (its
    /// "main"), then exits with the returned code. Returns the exit code.
    ///
    /// # Errors
    ///
    /// `ENOEXEC` if the process has no registered behaviour.
    pub fn run_entry(&mut self, tid: Tid) -> Result<i32, Errno> {
        let symbol = self
            .process_of(tid)?
            .program
            .entry_symbol
            .clone()
            .ok_or(Errno::ENOEXEC)?;
        let body =
            self.programs.get(&symbol).cloned().ok_or(Errno::ENOEXEC)?;
        let code = body(self, tid);
        // The program may have exec'd away or already exited.
        if let Ok(p) = self.process_of(tid) {
            if p.state == ProcessState::Running {
                self.sys_exit(tid, code)?;
            }
        }
        Ok(code)
    }

    /// `exit`: runs atexit handlers, closes descriptors, tears down the
    /// address space, and turns the process into a zombie.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the thread is unknown.
    pub fn sys_exit(&mut self, tid: Tid, code: i32) -> Result<(), Errno> {
        self.enter_syscall();
        self.charge_cpu(self.profile.exit_base_ns);
        let pid = self.thread(tid)?.pid;

        // User space: atexit handlers (one per dyld image on iOS).
        let atexit = self.process(pid)?.callbacks.atexit.len();
        self.run_user_callbacks(atexit, false);

        // Close descriptors.
        let fds: Vec<Fd> =
            self.process(pid)?.fds.iter().map(|(fd, _)| fd).collect();
        for fd in fds {
            if let Ok(obj) = self.process_mut(pid)?.fds.remove(fd) {
                match obj {
                    FileObject::Pipe(end) => self.ipc.pipe_close(end),
                    FileObject::Socket(end) => self.ipc.socket_close(end),
                    _ => {}
                }
            }
        }

        let threads = self.process(pid)?.threads.clone();
        for t in threads {
            self.thread_mut(t)?.state = ThreadState::Exited;
            self.sched.remove(t);
        }
        let proc = self.process_mut(pid)?;
        proc.mm.clear();
        proc.state = ProcessState::Zombie(code);
        let parent = proc.parent;
        self.memorystatus.untrack(pid);
        self.counters.exits += 1;

        if let Some(parent) = parent {
            let _ = self.post_signal_process(parent, Signal::SIGCHLD);
        }
        if self.current == Some(tid) {
            self.current = None;
        }
        Ok(())
    }

    /// `waitpid`: reaps a zombie child and returns its exit code.
    ///
    /// # Errors
    ///
    /// `ECHILD` if `child` is not a child of the caller; `EAGAIN` if the
    /// child has not exited yet (the scripted simulator never blocks).
    pub fn sys_waitpid(&mut self, tid: Tid, child: Pid) -> Result<i32, Errno> {
        self.enter_syscall();
        let pid = self.thread(tid)?.pid;
        if !self.process(pid)?.children.contains(&child) {
            return Err(Errno::ECHILD);
        }
        let code = match self.process(child)?.state {
            ProcessState::Zombie(code) => code,
            ProcessState::Running => return Err(Errno::EAGAIN),
        };
        // Reap: remove the zombie and its threads.
        let threads = self.process(child)?.threads.clone();
        for t in threads {
            self.threads.remove(&t.0);
            self.sched.remove(t);
        }
        self.procs.remove(&child.0);
        self.process_mut(pid)?.children.retain(|&c| c != child);
        Ok(code)
    }

    // ------------------------------------------------------------------
    // Memorystatus (jetsam).
    // ------------------------------------------------------------------

    /// `memorystatus_control(SET_PRIORITY)`: parks a running process
    /// in a jetsam band, registering it with the subsystem if needed.
    /// Returns the clamped band.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the caller or target is unknown, or the target is a
    /// zombie.
    pub fn sys_memorystatus_set_priority(
        &mut self,
        tid: Tid,
        target: Pid,
        band: i64,
    ) -> Result<u8, Errno> {
        self.enter_syscall();
        let _ = self.thread(tid)?;
        if self.process(target)?.state != ProcessState::Running {
            return Err(Errno::ESRCH);
        }
        let band = cider_abi::memorystatus::clamp_jetsam_band(band);
        self.memorystatus.track(target, band);
        Ok(band)
    }

    /// `memorystatus_control(GET_LEVEL)`: the current memory-pressure
    /// level derived from the device watermarks.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the calling thread is unknown.
    pub fn sys_memorystatus_get_level(
        &mut self,
        tid: Tid,
    ) -> Result<PressureLevel, Errno> {
        self.enter_syscall();
        let _ = self.thread(tid)?;
        Ok(self.memorystatus.level())
    }

    /// One pass of the memorystatus thread: while the pressure level
    /// leaves a kill window open, jetsam the lowest-band (then
    /// largest-footprint) victim; then consult the
    /// [`FaultSite::JetsamKill`] injection for a spurious kill under a
    /// transient spike. Returns the victims, in kill order.
    ///
    /// # Errors
    ///
    /// `ESRCH` if the calling thread is unknown.
    pub fn sys_jetsam_tick(&mut self, tid: Tid) -> Result<Vec<Pid>, Errno> {
        use cider_abi::memorystatus::JETSAM_PRIORITY_FOREGROUND;
        self.enter_syscall();
        let _ = self.thread(tid)?;
        self.memorystatus.stats.ticks += 1;
        let mut killed = Vec::new();
        while let Some(below) = self.memorystatus.level().kill_below() {
            let Some(victim) = self.memorystatus.select_victim(below) else {
                break;
            };
            self.jetsam_kill(victim, "pressure")?;
            self.memorystatus.stats.pressure_kills += 1;
            killed.push(victim);
        }
        if self.fault_at(FaultSite::JetsamKill) {
            // A transient spike the watermarks never saw: the window
            // reaches the foreground band inclusive.
            if let Some(victim) = self
                .memorystatus
                .select_victim(JETSAM_PRIORITY_FOREGROUND + 1)
            {
                self.jetsam_kill(victim, "fault")?;
                self.memorystatus.stats.fault_kills += 1;
                killed.push(victim);
            }
        }
        Ok(killed)
    }

    /// Kills one jetsam victim through the ordinary exit path (same
    /// zombie a SIGKILL leaves) and counts it in the trace.
    fn jetsam_kill(
        &mut self,
        victim: Pid,
        why: &'static str,
    ) -> Result<(), Errno> {
        let vtid =
            self.process(victim)?.threads.clone().into_iter().find(|t| {
                self.thread(*t)
                    .map(|th| th.state != ThreadState::Exited)
                    .unwrap_or(false)
            });
        match vtid {
            Some(vtid) => {
                self.sys_exit(vtid, 128 + Signal::SIGKILL.as_raw())?;
            }
            // No live thread: drop the bookkeeping entry directly.
            None => self.memorystatus.untrack(victim),
        }
        if self.trace.is_enabled() {
            self.trace.incr("app/jetsam_kill");
            self.trace.incr(&format!("app/jetsam_kill/{why}"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Signals.
    // ------------------------------------------------------------------

    /// `sigaction`: installs a disposition for a signal (internal Linux
    /// numbering).
    ///
    /// # Errors
    ///
    /// `EINVAL` for SIGKILL/SIGSTOP.
    pub fn sys_sigaction(
        &mut self,
        tid: Tid,
        sig: Signal,
        disp: SigDisposition,
    ) -> Result<(), Errno> {
        self.enter_syscall();
        if sig.is_uncatchable() && disp != SigDisposition::Default {
            return Err(Errno::EINVAL);
        }
        self.process_of_mut(tid)?
            .sig_handlers
            .insert(sig.as_raw(), disp);
        Ok(())
    }

    /// `kill`: posts a signal (internal numbering) to a process. If the
    /// target is the calling thread's own process, pending signals are
    /// delivered synchronously before return, as on syscall exit.
    ///
    /// # Errors
    ///
    /// `ESRCH` for unknown targets.
    pub fn sys_kill(
        &mut self,
        tid: Tid,
        target: Pid,
        sig: Signal,
    ) -> Result<(), Errno> {
        self.enter_syscall();
        self.post_signal_process(target, sig)?;
        if self.thread(tid)?.pid == target {
            self.deliver_pending(tid)?;
        }
        Ok(())
    }

    /// Queues a signal on a process's first live thread.
    ///
    /// # Errors
    ///
    /// `ESRCH` for unknown targets.
    pub fn post_signal_process(
        &mut self,
        target: Pid,
        sig: Signal,
    ) -> Result<(), Errno> {
        let tids = self.process(target)?.threads.clone();
        for t in tids {
            if self.thread(t)?.state != ThreadState::Exited {
                return self.post_signal_thread(t, sig);
            }
        }
        Err(Errno::ESRCH)
    }

    /// Queues a signal on a specific thread.
    ///
    /// # Errors
    ///
    /// `ESRCH` for unknown threads.
    pub fn post_signal_thread(
        &mut self,
        tid: Tid,
        sig: Signal,
    ) -> Result<(), Errno> {
        self.thread_mut(tid)?.pending.push(sig);
        Ok(())
    }

    /// Delivers all unmasked pending signals on a thread, performing the
    /// persona lookup, number translation, and frame construction that
    /// the paper's signal-handler microbenchmark measures. Returns how
    /// many signals reached user space.
    ///
    /// # Errors
    ///
    /// `ESRCH` for unknown threads.
    pub fn deliver_pending(&mut self, tid: Tid) -> Result<usize, Errno> {
        let pending = {
            let t = self.thread_mut(tid)?;
            let taken: Vec<Signal> = t
                .pending
                .iter()
                .copied()
                .filter(|s| t.sigmask & (1 << s.as_raw()) == 0)
                .collect();
            t.pending.retain(|s| t.sigmask & (1 << s.as_raw()) != 0);
            taken
        };
        if pending.is_empty() {
            return Ok(0);
        }
        let personality = self.personality_of(tid)?;
        let pid = self.thread(tid)?.pid;
        let mut delivered = 0;
        for sig in pending {
            if self.cider_enabled {
                // "the added cost of determining the persona of the
                // target thread" (§6.2).
                self.charge_cpu(self.profile.persona_signal_check_ns);
            }
            let disp = self
                .process(pid)?
                .sig_handlers
                .get(&sig.as_raw())
                .copied()
                .unwrap_or_default();
            match disp {
                SigDisposition::Ignore => continue,
                SigDisposition::Default => {
                    if sig == Signal::SIGCHLD || sig == Signal::SIGCONT {
                        continue; // default-ignored
                    }
                    // Default action: terminate the process.
                    self.sys_exit(tid, 128 + sig.as_raw())?;
                    return Ok(delivered);
                }
                SigDisposition::Handler(_) => {
                    let Some(user_number) = personality.signal_number(sig)
                    else {
                        continue; // no foreign equivalent: dropped
                    };
                    self.charge_cpu(self.profile.signal_base_ns);
                    self.charge_cpu(personality.signal_translation_ns());
                    let frame = personality.sigframe_bytes();
                    let frame_ns = (frame as f64
                        * self.profile.signal_frame_byte_ns)
                        as u64;
                    self.charge_cpu(frame_ns);
                    // Handler returns through sigreturn — one more trap.
                    self.charge_cpu(self.profile.syscall_entry_exit_ns);
                    if self.trace.is_enabled() {
                        let ctx = self.trace_ctx(tid);
                        if user_number != sig.as_raw() {
                            self.trace.record(
                                ctx,
                                EventKind::SignalTranslate {
                                    from: sig.as_raw(),
                                    to: user_number,
                                },
                            );
                            self.trace.incr("signal/translations");
                        }
                        self.trace.record(
                            ctx,
                            EventKind::SignalDeliver {
                                signal: user_number,
                                frame_bytes: frame as u64,
                            },
                        );
                        self.trace.incr(&format!(
                            "signal/{}/delivered",
                            ctx.persona_label()
                        ));
                        self.trace.observe(
                            &format!(
                                "signal/{}/frame_bytes",
                                ctx.persona_label()
                            ),
                            frame as u64,
                        );
                    }
                    self.thread_mut(tid)?.delivered.push(DeliveredSignal {
                        internal: sig,
                        user_number,
                        frame_bytes: frame,
                    });
                    self.counters.signals_delivered += 1;
                    delivered += 1;
                }
            }
        }
        Ok(delivered)
    }

    /// Console output captured for a process (its stdout).
    ///
    /// # Errors
    ///
    /// `ESRCH` for unknown processes.
    pub fn console_of(&self, pid: Pid) -> Result<&[u8], Errno> {
        Ok(&self.process(pid)?.console)
    }

    /// Registers user callbacks on a process, as dyld/libSystem do when
    /// loading images. `images` entries each register one atfork triple
    /// and one atexit handler.
    ///
    /// # Errors
    ///
    /// `ESRCH` for unknown processes.
    pub fn register_image_callbacks(
        &mut self,
        pid: Pid,
        images: &[String],
    ) -> Result<(), Errno> {
        let proc = self.process_mut(pid)?;
        for img in images {
            let cb = UserCallback { name: img.clone() };
            proc.callbacks.atfork_prepare.push(cb.clone());
            proc.callbacks.atfork_parent.push(cb.clone());
            proc.callbacks.atfork_child.push(cb.clone());
            proc.callbacks.atexit.push(cb);
        }
        Ok(())
    }

    /// Number of live (non-zombie) processes.
    pub fn live_processes(&self) -> usize {
        self.procs
            .values()
            .filter(|p| p.state == ProcessState::Running)
            .count()
    }

    /// Exports every kernel-owned piece of device state as named,
    /// ordered record sections for whole-device checkpointing
    /// (`cider-ckpt` assembles them into a `StateImage`). Two kernels
    /// that produce identical sections are observably identical: the
    /// records cover the virtual clock, event counters, allocator
    /// cursors, process and thread tables (including fd shapes, memory
    /// summaries, signal state, and console digests), the full VFS
    /// tree with file-content digests, in-flight pipe/socket bytes,
    /// scheduler bands, and fault-injection stream positions.
    ///
    /// Program behaviours (`register_program` closures) and
    /// personality dispatch tables are deliberately absent: they are
    /// code, not state, and are reconstructed by re-booting, which is
    /// why restore is replay-based.
    pub fn ckpt_sections(&self) -> Vec<(String, Vec<(String, String)>)> {
        vec![
            ("clock".to_string(), self.ckpt_clock()),
            ("kernel/counters".to_string(), self.ckpt_counters()),
            ("kernel/ids".to_string(), self.ckpt_ids()),
            ("kernel/procs".to_string(), self.ckpt_procs()),
            ("kernel/threads".to_string(), self.ckpt_threads()),
            ("kernel/vfs".to_string(), self.ckpt_vfs()),
            ("kernel/ipc".to_string(), self.ipc.ckpt_records()),
            ("kernel/warm".to_string(), self.ckpt_warm()),
            (
                "kernel/memorystatus".to_string(),
                vec![(
                    "memorystatus".to_string(),
                    self.memorystatus.ckpt_record(),
                )],
            ),
            ("sched".to_string(), self.sched.ckpt_records()),
            ("faults".to_string(), self.faults.ckpt_records()),
        ]
    }

    fn ckpt_warm(&self) -> Vec<(String, String)> {
        vec![("warm".to_string(), self.warm.ckpt_record())]
    }

    fn ckpt_clock(&self) -> Vec<(String, String)> {
        let m = self.clock.metrics();
        vec![
            ("now_ns".to_string(), self.clock.now_ns().to_string()),
            (
                "charges".to_string(),
                m.counter(crate::clock::CHARGES_COUNTER).to_string(),
            ),
            (
                "advanced_ns".to_string(),
                m.counter(crate::clock::ADVANCED_NS_COUNTER).to_string(),
            ),
            (
                "watchdog_limit_ns".to_string(),
                self.clock.watchdog_limit_ns().to_string(),
            ),
        ]
    }

    fn ckpt_counters(&self) -> Vec<(String, String)> {
        let c = &self.counters;
        [
            ("traps", c.traps),
            ("syscalls", c.syscalls),
            ("forks", c.forks),
            ("execs", c.execs),
            ("exits", c.exits),
            ("signals_delivered", c.signals_delivered),
            ("atfork_callbacks", c.atfork_callbacks),
            ("atexit_callbacks", c.atexit_callbacks),
            ("context_switches", c.context_switches),
            ("persona_checks", c.persona_checks),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
    }

    fn ckpt_ids(&self) -> Vec<(String, String)> {
        vec![
            ("next_pid".to_string(), self.next_pid.to_string()),
            ("next_tid".to_string(), self.next_tid.to_string()),
            (
                "next_wait_channel".to_string(),
                self.next_wait_channel.to_string(),
            ),
            (
                "current".to_string(),
                match self.current {
                    Some(t) => t.0.to_string(),
                    None => "-".to_string(),
                },
            ),
            ("cider_enabled".to_string(), self.cider_enabled.to_string()),
            (
                "linux_personality".to_string(),
                format!("{:?}", self.linux_personality),
            ),
            (
                "personalities".to_string(),
                self.personalities.len().to_string(),
            ),
            ("binfmts".to_string(), self.binfmts.len().to_string()),
            ("programs".to_string(), self.programs.len().to_string()),
            (
                "deferred_wakeups".to_string(),
                self.deferred_wakeups
                    .iter()
                    .map(|w| w.0.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ),
        ]
    }

    fn ckpt_procs(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (pid, p) in &self.procs {
            let fds: Vec<String> = p
                .fds
                .iter()
                .map(|(fd, obj)| {
                    let ce = p.fds.cloexec(fd).unwrap_or(false);
                    format!("{}={:?}{}", fd.0, obj, if ce { "*" } else { "" })
                })
                .collect();
            let handlers: Vec<String> = p
                .sig_handlers
                .iter()
                .map(|(sig, d)| format!("{sig}={d:?}"))
                .collect();
            // CoW debt is appended only when present, so processes on
            // the cold machine keep their exact historical record
            // bytes.
            let cow = if p.mm.cow_pending_ptes() + p.mm.cow_dirty_pages() > 0 {
                format!(
                    "+cow{}p/{}d",
                    p.mm.cow_pending_ptes(),
                    p.mm.cow_dirty_pages()
                )
            } else {
                String::new()
            };
            out.push((
                format!("pid:{pid:06}"),
                format!(
                    "state={:?} parent={} cwd={} threads={:?} \
                     children={:?} fds=[{}] mm={}/{}p/{}B{} \
                     prog={}({}) fmt={} dylibs={} sig=[{}] \
                     console={:016x}/{}",
                    p.state,
                    p.parent.map(|x| x.0 as i64).unwrap_or(-1),
                    p.cwd,
                    p.threads.iter().map(|t| t.0).collect::<Vec<_>>(),
                    p.children.iter().map(|c| c.0).collect::<Vec<_>>(),
                    fds.join(" "),
                    p.mm.mapping_count(),
                    p.mm.total_ptes(),
                    p.mm.total_bytes(),
                    cow,
                    p.program.path,
                    p.program.argv.join(","),
                    p.program.format,
                    p.program.dylib_count,
                    handlers.join(" "),
                    cider_abi::hash::fnv1a(&p.console),
                    p.console.len(),
                ),
            ));
        }
        out
    }

    fn ckpt_threads(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (tid, t) in &self.threads {
            out.push((
                format!("tid:{tid:06}"),
                format!(
                    "pid={} state={:?} persona={:?} sigmask={:#x} \
                     pending={:?} delivered={} ext={}",
                    t.pid.0,
                    t.state,
                    t.personality,
                    t.sigmask,
                    t.pending,
                    t.delivered.len(),
                    t.ext.is_some(),
                ),
            ));
        }
        out
    }

    fn ckpt_vfs(&self) -> Vec<(String, String)> {
        let mut out = vec![(
            "node_count".to_string(),
            self.vfs.node_count().to_string(),
        )];
        self.ckpt_vfs_walk("/", 0, &mut out);
        out
    }

    fn ckpt_vfs_walk(
        &self,
        path: &str,
        depth: usize,
        out: &mut Vec<(String, String)>,
    ) {
        // Symlinked directory cycles are impossible to build through
        // the public VFS API today, but a depth cap keeps the walk
        // total even if that ever changes.
        if depth > 32 {
            return;
        }
        let Ok(r) = self.vfs.resolve(path) else {
            return;
        };
        let st = self.vfs.stat(r.ino);
        use cider_abi::types::FileType;
        let detail = match st.file_type {
            FileType::Regular => {
                let digest = self
                    .vfs
                    .read_file(path)
                    .map(|d| cider_abi::hash::fnv1a(&d))
                    .unwrap_or(0);
                format!(
                    "file mode={:o} size={} digest={digest:016x}",
                    st.mode, st.size
                )
            }
            FileType::Directory => {
                format!("dir mode={:o} entries={}", st.mode, st.size)
            }
            other => format!("{other:?} mode={:o} size={}", st.mode, st.size),
        };
        out.push((path.to_string(), detail));
        if st.file_type == FileType::Directory {
            if let Ok(names) = self.vfs.readdir(path) {
                for name in names {
                    let child = if path == "/" {
                        format!("/{name}")
                    } else {
                        format!("{path}/{name}")
                    };
                    self.ckpt_vfs_walk(&child, depth + 1, out);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The vanilla Linux personality.
// ----------------------------------------------------------------------

/// The domestic kernel ABI: Linux syscall numbers, negative-errno error
/// convention, Linux signal numbers and frame.
#[derive(Debug)]
pub struct LinuxPersonality {
    table: SyscallTable,
}

impl Default for LinuxPersonality {
    fn default() -> Self {
        Self::new()
    }
}

/// Encodes a domestic [`Stat`] into the byte layout Linux user space
/// reads back from `stat64`: ino (8), mode (4), nlink (4), size (8),
/// blocks (8), mtime sec (8), mtime nsec (8) — 48 bytes. The 24-byte
/// identity prefix (ino/mode/nlink/size) matches the XNU `stat64`
/// layout so conformance diffs can compare the two shapes directly.
pub fn encode_linux_stat64(s: &Stat) -> Vec<u8> {
    use cider_abi::types::{bsd_mode, FileType};
    // Linux's S_IFMT values are numerically identical to BSD's, so the
    // shared constants serve both encodings.
    let type_bits = match s.file_type {
        FileType::Regular => bsd_mode::S_IFREG,
        FileType::Directory => bsd_mode::S_IFDIR,
        FileType::Symlink => bsd_mode::S_IFLNK,
        FileType::CharDevice => bsd_mode::S_IFCHR,
        FileType::Fifo => bsd_mode::S_IFIFO,
        FileType::Socket => bsd_mode::S_IFSOCK,
    };
    let mut out = Vec::with_capacity(48);
    out.extend_from_slice(&s.ino.to_le_bytes());
    out.extend_from_slice(&(type_bits | (s.mode & 0o7777)).to_le_bytes());
    out.extend_from_slice(&s.nlink.to_le_bytes());
    out.extend_from_slice(&s.size.to_le_bytes());
    out.extend_from_slice(&s.blocks.to_le_bytes());
    out.extend_from_slice(&s.mtime_sec.to_le_bytes());
    out.extend_from_slice(&(s.mtime_nsec as u64).to_le_bytes());
    out
}

impl LinuxPersonality {
    /// Builds the personality with its dispatch table.
    ///
    /// # Panics
    ///
    /// Panics if the static table has a collision (a bug by
    /// construction); fallible callers use [`LinuxPersonality::try_new`].
    pub fn new() -> LinuxPersonality {
        LinuxPersonality::try_new()
            .expect("static Linux dispatch table is collision-free")
    }

    /// Builds the personality, surfacing table collisions as
    /// [`DispatchError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`DispatchError::Collision`] if two handlers claim one number.
    pub fn try_new() -> Result<LinuxPersonality, DispatchError> {
        use cider_abi::syscall::LinuxSyscall as L;
        let mut t = SyscallTableBuilder::new();
        t.install(L::Getpid.number(), "getpid", |k, tid, _| {
            match k.sys_getpid(tid) {
                Ok(pid) => TrapResult::ok(pid.as_raw() as i64),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Gettid.number(), "gettid", |k, tid, _| {
            match k.sys_gettid(tid) {
                Ok(t) => TrapResult::ok(t.as_raw() as i64),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Read.number(), "read", |k, tid, args| {
            let fd = Fd(args.regs[0] as i32);
            let len = args.regs[2] as usize;
            match k.sys_read(tid, fd, len) {
                Ok(data) => TrapResult::with_data(data),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Write.number(), "write", |k, tid, args| {
            let fd = Fd(args.regs[0] as i32);
            let crate::dispatch::SyscallData::Bytes(data) = &args.data else {
                return TrapResult::err(Errno::EFAULT);
            };
            match k.sys_write(tid, fd, data) {
                Ok(n) => TrapResult::ok(n as i64),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Open.number(), "open", |k, tid, args| {
            let crate::dispatch::SyscallData::Path(path) = &args.data else {
                return TrapResult::err(Errno::EFAULT);
            };
            let flags = OpenFlags(args.regs[1] as u32);
            match k.sys_open(tid, path, flags) {
                Ok(fd) => TrapResult::ok(fd.as_raw() as i64),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Close.number(), "close", |k, tid, args| {
            match k.sys_close(tid, Fd(args.regs[0] as i32)) {
                Ok(()) => TrapResult::ok(0),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Fork.number(), "fork", |k, tid, _| {
            match k.sys_fork(tid) {
                Ok((pid, _)) => TrapResult::ok(pid.as_raw() as i64),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Exit.number(), "exit", |k, tid, args| {
            match k.sys_exit(tid, args.regs[0] as i32) {
                Ok(()) => TrapResult::ok(0),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Waitpid.number(), "waitpid", |k, tid, args| {
            match k.sys_waitpid(tid, Pid(args.regs[0] as u32)) {
                Ok(code) => TrapResult::ok(code as i64),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Execve.number(), "execve", |k, tid, args| {
            let crate::dispatch::SyscallData::Exec { path, argv } = &args.data
            else {
                return TrapResult::err(Errno::EFAULT);
            };
            let argv: Vec<&str> = argv.iter().map(|s| s.as_str()).collect();
            match k.sys_exec(tid, path, &argv) {
                Ok(()) => TrapResult::ok(0),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Sigaction.number(), "sigaction", |k, tid, args| {
            let Some(sig) = Signal::from_raw(args.regs[0] as i32) else {
                return TrapResult::err(Errno::EINVAL);
            };
            let disp = match args.regs[1] {
                0 => crate::process::SigDisposition::Default,
                1 => crate::process::SigDisposition::Ignore,
                h => crate::process::SigDisposition::Handler(h as u32),
            };
            match k.sys_sigaction(tid, sig, disp) {
                Ok(()) => TrapResult::ok(0),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Kill.number(), "kill", |k, tid, args| {
            let pid = Pid(args.regs[0] as u32);
            let Some(sig) = Signal::from_raw(args.regs[1] as i32) else {
                return TrapResult::err(Errno::EINVAL);
            };
            match k.sys_kill(tid, pid, sig) {
                Ok(()) => TrapResult::ok(0),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Pipe.number(), "pipe", |k, tid, _| {
            match k.sys_pipe(tid) {
                Ok((r, w)) => TrapResult::ok(
                    (r.as_raw() as i64) | ((w.as_raw() as i64) << 32),
                ),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Socketpair.number(), "socketpair", |k, tid, _| match k
            .sys_socketpair(tid)
        {
            Ok((a, b)) => TrapResult::ok(
                (a.as_raw() as i64) | ((b.as_raw() as i64) << 32),
            ),
            Err(e) => TrapResult::err(e),
        })?;
        t.install(L::Dup.number(), "dup", |k, tid, args| {
            match k.sys_dup(tid, Fd(args.regs[0] as i32)) {
                Ok(fd) => TrapResult::ok(fd.as_raw() as i64),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Select.number(), "select", |k, tid, args| {
            let crate::dispatch::SyscallData::FdSet(fds) = &args.data else {
                return TrapResult::err(Errno::EFAULT);
            };
            let fds: Vec<Fd> = fds.iter().map(|&f| Fd(f)).collect();
            match k.sys_select(tid, &fds) {
                Ok(ready) => TrapResult::ok(ready.len() as i64),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Unlink.number(), "unlink", |k, tid, args| {
            let crate::dispatch::SyscallData::Path(path) = &args.data else {
                return TrapResult::err(Errno::EFAULT);
            };
            match k.sys_unlink(tid, path) {
                Ok(()) => TrapResult::ok(0),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Mkdir.number(), "mkdir", |k, tid, args| {
            let crate::dispatch::SyscallData::Path(path) = &args.data else {
                return TrapResult::err(Errno::EFAULT);
            };
            match k.sys_mkdir(tid, path) {
                Ok(()) => TrapResult::ok(0),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::Chdir.number(), "chdir", |k, tid, args| {
            let crate::dispatch::SyscallData::Path(path) = &args.data else {
                return TrapResult::err(Errno::EFAULT);
            };
            match k.sys_chdir(tid, path) {
                Ok(()) => TrapResult::ok(0),
                Err(e) => TrapResult::err(e),
            }
        })?;
        t.install(L::SchedYield.number(), "sched_yield", |k, tid, _| match k
            .sys_sched_yield(tid)
        {
            Ok(()) => TrapResult::ok(0),
            Err(e) => TrapResult::err(e),
        })?;
        t.install(L::Nanosleep.number(), "nanosleep", |k, tid, args| match k
            .sys_nanosleep(tid, args.regs[0] as u64)
        {
            Ok(()) => TrapResult::ok(0),
            Err(e) => TrapResult::err(e),
        })?;
        t.install(L::Stat64.number(), "stat64", |k, tid, args| {
            let crate::dispatch::SyscallData::Path(path) = &args.data else {
                return TrapResult::err(Errno::EFAULT);
            };
            match k.sys_stat(tid, path) {
                Ok(stat) => {
                    let mut r = TrapResult::ok(0);
                    r.out_data = encode_linux_stat64(&stat);
                    r
                }
                Err(e) => TrapResult::err(e),
            }
        })?;
        Ok(LinuxPersonality { table: t.build() })
    }

    /// The dispatch table (exposed for introspection in tests).
    pub fn table(&self) -> &SyscallTable {
        &self.table
    }
}

impl crate::dispatch::Personality for LinuxPersonality {
    fn name(&self) -> &'static str {
        "linux"
    }

    fn syscall_name(&self, number: i64) -> Option<cider_abi::SyscallName> {
        self.table.name(number as i32)
    }

    fn trap(
        &self,
        k: &mut Kernel,
        tid: Tid,
        number: i64,
        args: &SyscallArgs<'_>,
    ) -> UserTrapResult {
        let Some(handler) = self.table.handler(number as i32) else {
            return UserTrapResult {
                reg: -(Errno::ENOSYS.as_raw() as i64),
                flags: CpuFlags::default(),
                out_data: Vec::new(),
            };
        };
        let result = handler(k, tid, args);
        let (reg, flags) =
            cider_abi::convention::SyscallOutcome::from(result.outcome)
                .encode_linux();
        UserTrapResult {
            reg,
            flags,
            out_data: result.out_data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_abi::syscall::LinuxSyscall as L;

    fn kernel() -> Kernel {
        Kernel::boot(DeviceProfile::nexus7())
    }

    #[test]
    fn boot_and_spawn() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        assert_eq!(k.sys_getpid(tid).unwrap(), pid);
        assert_eq!(k.current(), Some(tid));
        assert!(!k.cider_enabled());
    }

    #[test]
    fn null_syscall_charges_entry_cost() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        let before = k.clock.now_ns();
        k.sys_getpid(tid).unwrap();
        let cost = k.clock.now_ns() - before;
        assert_eq!(cost, 400);
    }

    #[test]
    fn trap_path_linux_getpid() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        let r = k.trap(tid, L::Getpid.number() as i64, &SyscallArgs::none());
        assert_eq!(r.reg, pid.as_raw() as i64);
        assert!(!r.flags.carry);
        assert_eq!(k.counters.traps, 1);
        // Vanilla kernel: no persona checks.
        assert_eq!(k.counters.persona_checks, 0);
    }

    #[test]
    fn trap_unknown_syscall_is_enosys() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        let r = k.trap(tid, 9876, &SyscallArgs::none());
        assert_eq!(r.reg, -(Errno::ENOSYS.as_raw() as i64));
    }

    #[test]
    fn file_io_through_syscalls() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        k.sys_mkdir(tid, "/data").unwrap();
        let fd = k
            .sys_open(tid, "/data/f", OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        assert_eq!(k.sys_write(tid, fd, b"hello").unwrap(), 5);
        k.sys_close(tid, fd).unwrap();
        let fd = k.sys_open(tid, "/data/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.sys_read(tid, fd, 16).unwrap(), b"hello");
        // Reading past EOF yields empty.
        assert!(k.sys_read(tid, fd, 16).unwrap().is_empty());
        k.sys_close(tid, fd).unwrap();
        assert_eq!(k.sys_stat(tid, "/data/f").unwrap().size, 5);
    }

    #[test]
    fn write_to_readonly_fd_fails() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        k.vfs.write_file("/tmp/f", vec![1]).unwrap();
        let fd = k.sys_open(tid, "/tmp/f", OpenFlags::RDONLY).unwrap();
        assert_eq!(k.sys_write(tid, fd, b"x"), Err(Errno::EBADF));
    }

    #[test]
    fn console_capture() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        k.sys_write(tid, Fd::STDOUT, b"hello, world\n").unwrap();
        assert_eq!(k.console_of(pid).unwrap(), b"hello, world\n");
    }

    #[test]
    fn pipe_between_processes() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        let (r, w) = k.sys_pipe(tid).unwrap();
        assert_eq!(k.sys_write(tid, w, b"ping").unwrap(), 4);
        assert_eq!(k.sys_read(tid, r, 16).unwrap(), b"ping");
        assert_eq!(k.sys_read(tid, r, 16), Err(Errno::EAGAIN));
    }

    #[test]
    fn select_reports_readable() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        let (r, w) = k.sys_pipe(tid).unwrap();
        assert!(k.sys_select(tid, &[r]).unwrap().is_empty());
        k.sys_write(tid, w, b"x").unwrap();
        assert_eq!(k.sys_select(tid, &[r]).unwrap(), vec![r]);
    }

    #[test]
    fn select_fails_on_xnu_at_250() {
        let mut k = Kernel::boot(DeviceProfile::ipad_mini());
        let (_, tid) = k.spawn_process();
        let fds: Vec<Fd> =
            (0..250).map(|_| k.sys_pipe(tid).unwrap().0).collect();
        assert_eq!(k.sys_select(tid, &fds), Err(Errno::EINVAL));
        assert!(k.sys_select(tid, &fds[..100]).is_ok());
    }

    #[test]
    fn fork_duplicates_process_state() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        k.sys_mkdir(tid, "/w").unwrap();
        k.sys_chdir(tid, "/w").unwrap();
        let (child_pid, child_tid) = k.sys_fork(tid).unwrap();
        assert_ne!(child_pid, pid);
        assert_eq!(k.sys_getcwd(child_tid).unwrap(), "/w");
        assert_eq!(k.process(child_pid).unwrap().parent, Some(pid));
        assert_eq!(k.counters.forks, 1);
    }

    #[test]
    fn fork_cost_scales_with_address_space() {
        let mut k = kernel();
        let (small_pid, small_tid) = k.spawn_process();
        let (_big_pid, big_tid) = k.spawn_process();
        // Give the big process 90 MB of mappings, like an iOS binary.
        {
            let p = k.process_mut(k.thread(big_tid).unwrap().pid).unwrap();
            p.mm.map(
                90 * 1024 * 1024,
                crate::mm::Prot::RX,
                crate::mm::MappingKind::Dylib,
                "frameworks",
            )
            .unwrap();
        }
        let _ = small_pid;
        let t0 = k.clock.now_ns();
        k.sys_fork(small_tid).unwrap();
        let small_cost = k.clock.now_ns() - t0;
        let t1 = k.clock.now_ns();
        k.sys_fork(big_tid).unwrap();
        let big_cost = k.clock.now_ns() - t1;
        // ~23 000 extra PTEs at 43 ns ≈ 1 ms extra (§6.2).
        let extra = big_cost - small_cost;
        assert!(
            (900_000..1_100_000).contains(&extra),
            "extra fork cost {extra} ns"
        );
    }

    #[test]
    fn atfork_and_atexit_callbacks_charged() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        let images: Vec<String> =
            (0..115).map(|i| format!("lib{i}.dylib")).collect();
        k.register_image_callbacks(pid, &images).unwrap();
        let t0 = k.clock.now_ns();
        let (child_pid, child_tid) = k.sys_fork(tid).unwrap();
        let fork_cost = k.clock.now_ns() - t0;
        assert_eq!(k.counters.atfork_callbacks, 345);
        // 345 × 5.4 µs ≈ 1.86 ms of user callback work.
        assert!(fork_cost > 1_800_000, "fork cost {fork_cost}");
        let t1 = k.clock.now_ns();
        k.sys_exit(child_tid, 0).unwrap();
        let exit_cost = k.clock.now_ns() - t1;
        assert_eq!(k.counters.atexit_callbacks, 115);
        assert!(exit_cost > 600_000, "exit cost {exit_cost}");
        assert_eq!(k.sys_waitpid(tid, child_pid).unwrap(), 0);
    }

    #[test]
    fn exec_discards_callbacks_without_running_them() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        k.register_image_callbacks(pid, &["a".into(), "b".into()])
            .unwrap();

        #[derive(Debug)]
        struct RawLoader;
        impl crate::binfmt::BinaryLoader for RawLoader {
            fn name(&self) -> &'static str {
                "raw"
            }
            fn can_load(&self, image: &[u8]) -> bool {
                image.starts_with(b"RAW")
            }
            fn load(
                &self,
                _k: &mut Kernel,
                _tid: Tid,
                _image: &ExecImage,
            ) -> Result<crate::binfmt::LoadedProgram, Errno> {
                Ok(crate::binfmt::LoadedProgram {
                    format: "raw",
                    ..Default::default()
                })
            }
        }
        k.register_binfmt(Arc::new(RawLoader));
        k.vfs.write_file("/tmp/prog", b"RAWdata".to_vec()).unwrap();
        k.sys_exec(tid, "/tmp/prog", &[]).unwrap();
        assert_eq!(k.counters.atexit_callbacks, 0);
        assert_eq!(k.process(pid).unwrap().callbacks.atexit.len(), 0);
        assert_eq!(k.process(pid).unwrap().program.format, "raw");
    }

    #[test]
    fn exec_unknown_format_is_enoexec() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        k.vfs.write_file("/tmp/junk", b"????".to_vec()).unwrap();
        assert_eq!(k.sys_exec(tid, "/tmp/junk", &[]), Err(Errno::ENOEXEC));
    }

    #[test]
    fn signal_handler_delivery_and_cost() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        k.sys_sigaction(tid, Signal::SIGUSR1, SigDisposition::Handler(1))
            .unwrap();
        let t0 = k.clock.now_ns();
        k.sys_kill(tid, pid, Signal::SIGUSR1).unwrap();
        let cost = k.clock.now_ns() - t0;
        let t = k.thread(tid).unwrap();
        assert_eq!(t.delivered.len(), 1);
        assert_eq!(t.delivered[0].user_number, Signal::SIGUSR1.as_raw());
        assert_eq!(
            t.delivered[0].frame_bytes,
            cider_abi::signal::sigframe::LINUX_FRAME_BYTES
        );
        // kill + delivery + frame + sigreturn ≈ 5 µs on the Nexus 7.
        assert!((4_000..8_000).contains(&cost), "signal cost {cost}");
    }

    #[test]
    fn default_sigterm_kills_process() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        k.sys_kill(tid, pid, Signal::SIGTERM).unwrap();
        assert_eq!(
            k.process(pid).unwrap().state,
            ProcessState::Zombie(128 + 15)
        );
    }

    #[test]
    fn masked_signals_stay_pending() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        k.sys_sigaction(tid, Signal::SIGUSR1, SigDisposition::Handler(1))
            .unwrap();
        k.thread_mut(tid).unwrap().sigmask = 1 << Signal::SIGUSR1.as_raw();
        k.sys_kill(tid, pid, Signal::SIGUSR1).unwrap();
        assert_eq!(k.thread(tid).unwrap().delivered.len(), 0);
        assert_eq!(k.thread(tid).unwrap().pending.len(), 1);
        k.thread_mut(tid).unwrap().sigmask = 0;
        k.deliver_pending(tid).unwrap();
        assert_eq!(k.thread(tid).unwrap().delivered.len(), 1);
    }

    #[test]
    fn sigchld_ignored_by_default() {
        let mut k = kernel();
        let (_pid, tid) = k.spawn_process();
        let (child_pid, child_tid) = k.sys_fork(tid).unwrap();
        k.sys_exit(child_tid, 3).unwrap();
        // Parent got SIGCHLD queued; delivering it is a no-op.
        k.deliver_pending(tid).unwrap();
        assert_eq!(k.sys_waitpid(tid, child_pid).unwrap(), 3);
    }

    #[test]
    fn waitpid_errors() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        assert_eq!(k.sys_waitpid(tid, Pid(99)), Err(Errno::ECHILD));
        let (child_pid, _) = k.sys_fork(tid).unwrap();
        assert_eq!(k.sys_waitpid(tid, child_pid), Err(Errno::EAGAIN));
    }

    #[test]
    fn program_registry_runs_entry() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        k.register_program(
            "hello",
            Arc::new(|k: &mut Kernel, tid| {
                let _ = k.sys_write(tid, Fd::STDOUT, b"hello, world\n");
                0
            }),
        );
        k.process_mut(pid).unwrap().program.entry_symbol =
            Some("hello".into());
        assert_eq!(k.run_entry(tid).unwrap(), 0);
        assert_eq!(k.console_of(pid).unwrap(), b"hello, world\n");
        assert_eq!(k.process(pid).unwrap().state, ProcessState::Zombie(0));
    }

    #[test]
    fn context_switch_charges_once_per_switch() {
        let mut k = kernel();
        let (_, t1) = k.spawn_process();
        let (_, t2) = k.spawn_process();
        k.switch_to(t1).unwrap();
        let before = k.counters.context_switches;
        k.switch_to(t1).unwrap(); // no-op
        k.switch_to(t2).unwrap();
        assert_eq!(k.counters.context_switches, before + 1);
    }

    #[test]
    fn wait_channels_block_and_wake() {
        let mut k = kernel();
        let (_, t1) = k.spawn_process();
        let (_, t2) = k.spawn_process();
        let c = k.new_wait_channel();
        k.block_thread(t1, c).unwrap();
        k.block_thread(t2, c).unwrap();
        assert_eq!(k.thread(t1).unwrap().state, ThreadState::Blocked(c));
        assert_eq!(k.wakeup(c), 2);
        assert_eq!(k.thread(t1).unwrap().state, ThreadState::Runnable);
    }

    #[test]
    fn spawn_thread_inherits_personality() {
        let mut k = kernel();
        let (pid, tid) = k.spawn_process();
        let t2 = k.spawn_thread(tid).unwrap();
        assert_eq!(k.thread(t2).unwrap().pid, pid);
        assert_eq!(
            k.thread(t2).unwrap().personality,
            k.thread(tid).unwrap().personality
        );
        assert_eq!(k.process(pid).unwrap().threads.len(), 2);
    }

    #[test]
    fn extensions_store_typed_state() {
        #[derive(Debug, PartialEq)]
        struct Marker(u32);
        let mut k = kernel();
        assert!(k.extensions.get::<Marker>().is_none());
        k.extensions.insert(Marker(7));
        assert_eq!(k.extensions.get::<Marker>(), Some(&Marker(7)));
        k.extensions.get_mut::<Marker>().unwrap().0 = 9;
        let taken = k.extensions.take::<Marker>().unwrap();
        assert_eq!(taken, Marker(9));
        assert!(k.extensions.get::<Marker>().is_none());
        // Re-insert replaces cleanly.
        k.extensions.insert(Marker(1));
        k.extensions.insert(Marker(2));
        assert_eq!(k.extensions.get::<Marker>(), Some(&Marker(2)));
        // with_ext lends the value and the kernel, then restores it.
        assert_eq!(k.with_ext::<u64, _>(|_, _| ()), None);
        let inner = k.with_ext(|k, m: &mut Marker| {
            m.0 += 1;
            k.with_ext::<Marker, _>(|_, _| ())
        });
        assert_eq!(inner, Some(None));
        assert_eq!(k.extensions.get::<Marker>(), Some(&Marker(3)));
    }

    #[test]
    fn pass_fd_moves_between_processes() {
        let mut k = kernel();
        let (_, t1) = k.spawn_process();
        let (p2, t2) = k.spawn_process();
        let (r, w) = k.sys_pipe(t1).unwrap();
        let moved = k.sys_pass_fd(t1, r, t2).unwrap();
        // Gone from the sender, live in the receiver.
        assert_eq!(k.sys_read(t1, r, 1), Err(Errno::EBADF));
        k.sys_write(t1, w, b"q").unwrap();
        assert_eq!(k.sys_read(t2, moved, 4).unwrap(), b"q");
        let _ = p2;
        // Errors: bad fd, bad target thread.
        assert_eq!(k.sys_pass_fd(t1, Fd(99), t2), Err(Errno::EBADF));
        assert_eq!(k.sys_pass_fd(t1, w, Tid(4242)), Err(Errno::ESRCH));
        // Failed pass must not have consumed the descriptor.
        assert!(k.sys_write(t1, w, b"still open").is_ok());
    }

    #[test]
    fn chdir_rejects_files_and_missing_paths() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        k.vfs.write_file("/tmp/f", vec![1]).unwrap();
        assert_eq!(k.sys_chdir(tid, "/tmp/f"), Err(Errno::ENOTDIR));
        assert_eq!(k.sys_chdir(tid, "/nope"), Err(Errno::ENOENT));
        assert_eq!(k.sys_getcwd(tid).unwrap(), "/");
    }

    #[test]
    fn nanosleep_advances_virtual_time_exactly() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        let t0 = k.clock.now_ns();
        k.sys_nanosleep(tid, 5_000_000).unwrap();
        let elapsed = k.clock.now_ns() - t0;
        // Sleep plus the syscall entry/exit.
        assert_eq!(elapsed, 5_000_000 + 400);
    }

    #[test]
    fn open_excl_and_trunc_semantics() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        let fd = k
            .sys_open(
                tid,
                "/tmp/x",
                OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::EXCL,
            )
            .unwrap();
        k.sys_write(tid, fd, b"12345").unwrap();
        k.sys_close(tid, fd).unwrap();
        // EXCL on an existing file fails.
        assert_eq!(
            k.sys_open(
                tid,
                "/tmp/x",
                OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::EXCL
            ),
            Err(Errno::EEXIST)
        );
        // TRUNC empties it.
        let fd = k
            .sys_open(tid, "/tmp/x", OpenFlags::RDWR | OpenFlags::TRUNC)
            .unwrap();
        k.sys_close(tid, fd).unwrap();
        assert_eq!(k.sys_stat(tid, "/tmp/x").unwrap().size, 0);
    }

    #[test]
    fn direct_storage_io_charges_bandwidth() {
        let mut k = kernel();
        let (_, tid) = k.spawn_process();
        let fd = k
            .sys_open(tid, "/tmp/big", OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        let data = vec![0u8; 1024 * 1024];
        let t0 = k.clock.now_ns();
        k.sys_write_direct(tid, fd, &data).unwrap();
        let direct_cost = k.clock.now_ns() - t0;
        let t1 = k.clock.now_ns();
        k.sys_write(tid, fd, &data).unwrap();
        let cached_cost = k.clock.now_ns() - t1;
        assert!(direct_cost > cached_cost * 10);
    }
}
