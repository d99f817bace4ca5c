//! Multi-persona integration: the §4 kernel ABI claims exercised across
//! crates — simultaneous personas in one process, cross-ecosystem
//! signals with renumbering, trap-level syscall translation, and the
//! diplomat TLS discipline.

use cider_abi::errno::Errno;
use cider_abi::persona::Persona;
use cider_abi::signal::{Signal, XnuSignal};
use cider_abi::syscall::{XnuSyscall, XnuTrap};
use cider_core::persona::{persona_ext_mut, persona_of, set_persona};
use cider_core::system::CiderSystem;
use cider_gfx::stack::{install_gfx, GfxConfig};
use cider_kernel::dispatch::{SyscallArgs, SyscallData};
use cider_kernel::process::SigDisposition;
use cider_kernel::profile::DeviceProfile;
use cider_loader::framework_set::FrameworkSet;
use cider_loader::MachOBuilder;

fn booted() -> CiderSystem {
    let mut sys = CiderSystem::new(DeviceProfile::nexus7());
    install_gfx(&mut sys, GfxConfig::default());
    sys.kernel
        .register_program("app_main", std::sync::Arc::new(|_, _| 0));
    sys
}

fn launch_ios(
    sys: &mut CiderSystem,
) -> (cider_abi::ids::Pid, cider_abi::ids::Tid) {
    let mut b = MachOBuilder::executable("app_main");
    for dep in FrameworkSet::app_default_deps() {
        b = b.depends_on(&dep);
    }
    sys.kernel
        .vfs
        .write_file_overlay("/Applications/mp.app/mp", b.build().to_bytes())
        .unwrap();
    sys.launch_ios_app("/Applications/mp.app/mp", &["mp"])
        .unwrap()
}

#[test]
fn one_process_two_simultaneous_personas() {
    let mut sys = booted();
    let (_, t_foreign) = launch_ios(&mut sys);
    let t_domestic = sys.kernel.spawn_thread(t_foreign).unwrap();
    let linux = sys.kernel.linux_personality();
    persona_ext_mut(&mut sys.kernel, t_domestic)
        .unwrap()
        .install(Persona::Domestic, linux);
    set_persona(&mut sys.kernel, t_domestic, Persona::Domestic).unwrap();

    // Both threads trap with their own ABIs, concurrently.
    let xnu_getpid = XnuTrap::Unix(XnuSyscall::Getpid).encode();
    let linux_getpid =
        cider_abi::syscall::LinuxSyscall::Getpid.number() as i64;
    let rf = sys.trap(t_foreign, xnu_getpid, &SyscallArgs::none());
    let rd = sys.trap(t_domestic, linux_getpid, &SyscallArgs::none());
    assert_eq!(rf.reg, rd.reg, "same process, same pid");
    assert_eq!(
        persona_of(&sys.kernel, t_foreign).unwrap(),
        Persona::Foreign
    );
    assert_eq!(
        persona_of(&sys.kernel, t_domestic).unwrap(),
        Persona::Domestic
    );
}

#[test]
fn signals_cross_ecosystems_with_renumbering() {
    let mut sys = booted();
    let (ios_pid, ios_tid) = launch_ios(&mut sys);
    let (android_pid, android_tid) = sys.spawn_process();

    // Both install a SIGUSR1 handler (internal numbering via typed API).
    sys.kernel
        .sys_sigaction(ios_tid, Signal::SIGUSR1, SigDisposition::Handler(9))
        .unwrap();
    sys.kernel
        .sys_sigaction(
            android_tid,
            Signal::SIGUSR1,
            SigDisposition::Handler(9),
        )
        .unwrap();

    // Android → iOS: posted with the Linux number, delivered as XNU 30.
    sys.kernel
        .sys_kill(android_tid, ios_pid, Signal::SIGUSR1)
        .unwrap();
    sys.kernel.deliver_pending(ios_tid).unwrap();
    let d = &sys.kernel.thread(ios_tid).unwrap().delivered;
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].user_number, XnuSignal::SIGUSR1.as_raw()); // 30
    assert_eq!(
        d[0].frame_bytes,
        cider_abi::signal::sigframe::XNU_FRAME_BYTES
    );

    // iOS → Android through the XNU kill trap (BSD numbering in, Linux
    // numbering out).
    let kill_nr = XnuTrap::Unix(XnuSyscall::Kill).encode();
    let args = SyscallArgs::regs([
        android_pid.as_raw() as i64,
        XnuSignal::SIGUSR1.as_raw() as i64, // 30, the BSD number
        0,
        0,
        0,
        0,
        0,
    ]);
    let r = sys.trap(ios_tid, kill_nr, &args);
    assert!(!r.flags.carry);
    sys.kernel.deliver_pending(android_tid).unwrap();
    let d = &sys.kernel.thread(android_tid).unwrap().delivered;
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].user_number, Signal::SIGUSR1.as_raw()); // 10
    assert_eq!(
        d[0].frame_bytes,
        cider_abi::signal::sigframe::LINUX_FRAME_BYTES
    );
}

#[test]
fn xnu_error_convention_on_the_wire() {
    let mut sys = booted();
    let (_, tid) = launch_ios(&mut sys);
    // Opening a missing path: carry flag set, BSD errno in the register.
    let open_nr = XnuTrap::Unix(XnuSyscall::Open).encode();
    let mut args = SyscallArgs::none();
    args.data = SyscallData::Path("/definitely/missing".into());
    let r = sys.trap(tid, open_nr, &args);
    assert!(r.flags.carry);
    assert_eq!(r.reg, 2, "ENOENT is 2 in both numberings");

    // EAGAIN-class errors renumber: read from an empty pipe.
    let (rfd, _w) = sys.kernel.sys_pipe(tid).unwrap();
    let read_nr = XnuTrap::Unix(XnuSyscall::Read).encode();
    let args = SyscallArgs::regs([rfd.as_raw() as i64, 0, 1, 0, 0, 0, 0]);
    let r = sys.trap(tid, read_nr, &args);
    assert!(r.flags.carry);
    assert_eq!(r.reg, 35, "EAGAIN is 35 on XNU, not Linux's 11");
}

#[test]
fn stat64_translates_struct_layout() {
    let mut sys = booted();
    let (_, tid) = launch_ios(&mut sys);
    sys.kernel
        .vfs
        .write_file("/tmp/st", vec![9u8; 1234])
        .unwrap();
    let nr = XnuTrap::Unix(XnuSyscall::Stat64).encode();
    let mut args = SyscallArgs::none();
    args.data = SyscallData::Path("/tmp/st".into());
    let r = sys.trap(tid, nr, &args);
    assert!(!r.flags.carry);
    // Decode the returned stat64: size at offset 16, birthtime present.
    let size = u64::from_le_bytes(r.out_data[16..24].try_into().unwrap());
    assert_eq!(size, 1234);
    assert_eq!(r.out_data.len(), 64, "stat64 layout with birthtime");
}

#[test]
fn posix_spawn_via_clone_and_exec() {
    let mut sys = booted();
    let (_, tid) = launch_ios(&mut sys);
    sys.kernel.register_program(
        "hello_world",
        std::sync::Arc::new(|k, tid| {
            let _ = k.sys_write(tid, cider_abi::ids::Fd::STDOUT, b"spawned\n");
            0
        }),
    );
    let hello = cider_loader::ElfBuilder::executable("hello_world")
        .needs("libc.so")
        .build();
    sys.kernel
        .vfs
        .write_file("/system/bin/hello", hello.to_bytes())
        .unwrap();

    let nr = XnuTrap::Unix(XnuSyscall::PosixSpawn).encode();
    let mut args = SyscallArgs::none();
    args.data = SyscallData::Exec {
        path: "/system/bin/hello".into(),
        argv: vec!["hello".into()],
    };
    let r = sys.trap(tid, nr, &args);
    assert!(!r.flags.carry, "posix_spawn failed: {}", r.reg);
    let child_pid = cider_abi::ids::Pid(r.reg as u32);
    let child = sys.kernel.process(child_pid).unwrap();
    assert_eq!(child.program.format, "elf", "child execed the ELF");
    // The child's thread dropped to the domestic persona.
    let child_tid = child.threads[0];
    assert_eq!(
        persona_of(&sys.kernel, child_tid).unwrap(),
        Persona::Domestic
    );
    sys.kernel.run_entry(child_tid).unwrap();
    assert_eq!(sys.kernel.console_of(child_pid).unwrap(), b"spawned\n");
    assert_eq!(sys.kernel.sys_waitpid(tid, child_pid).unwrap(), 0);
}

#[test]
fn diplomat_updates_foreign_errno_tls() {
    let mut sys = booted();
    let (_, tid) = launch_ios(&mut sys);
    // IOSurfaceCreate with zero dimensions fails with EINVAL in the
    // domestic library; the diplomat converts it into the foreign TLS.
    let r = sys.diplomat_call(
        tid,
        "IOSurface.framework/IOSurface",
        "IOSurfaceCreate",
        &[0, 0],
    );
    assert_eq!(r, Err(Errno::EINVAL));
    let ext = persona_ext_mut(&mut sys.kernel, tid).unwrap();
    assert_eq!(
        ext.state(Persona::Foreign).unwrap().tls.errno_raw(),
        22,
        "EINVAL visible to foreign code"
    );
    // And the thread is back in its foreign persona.
    assert_eq!(persona_of(&sys.kernel, tid).unwrap(), Persona::Foreign);
}

#[test]
fn psynch_traps_park_and_wake_threads() {
    let mut sys = booted();
    let (_, t1) = launch_ios(&mut sys);
    let t2 = sys.kernel.spawn_thread(t1).unwrap();

    const MUTEX: i64 = 0xA000;
    let wait_nr = XnuTrap::Unix(XnuSyscall::PsynchMutexwait).encode();
    let drop_nr = XnuTrap::Unix(XnuSyscall::PsynchMutexdrop).encode();
    let args = SyscallArgs::regs([MUTEX, 0, 0, 0, 0, 0, 0]);

    // t1 acquires; t2 blocks.
    let r = sys.trap(t1, wait_nr, &args);
    assert!(!r.flags.carry);
    let r = sys.trap(t2, wait_nr, &args);
    assert!(r.flags.carry, "contended: EAGAIN via carry");
    assert!(matches!(
        sys.kernel.thread(t2).unwrap().state,
        cider_kernel::process::ThreadState::Blocked(_)
    ));

    // t1 drops: ownership hands off and t2 wakes.
    let r = sys.trap(t1, drop_nr, &args);
    assert!(!r.flags.carry);
    assert_eq!(
        sys.kernel.thread(t2).unwrap().state,
        cider_kernel::process::ThreadState::Runnable
    );
    cider_core::with_state(&mut sys.kernel, |_, st| {
        assert_eq!(
            st.psynch.mutex_owner(MUTEX as u64),
            Some(cider_xnu::ForeignThread(t2.as_raw() as u64))
        );
    });
}
