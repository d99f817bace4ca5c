//! Mach IPC and I/O Kit integration at the trap level: the wire-encoded
//! `mach_msg_trap`, the bootstrap/notifyd protocols, and the framebuffer
//! user client an iOS app queries through the registry.

use bytes::Bytes;
use cider_abi::ids::PortName;
use cider_abi::syscall::{MachTrap, XnuTrap};
use cider_core::services::msg_ids;
use cider_core::system::CiderSystem;
use cider_core::wire;
use cider_gfx::fbdriver::selectors;
use cider_gfx::stack::{install_gfx, GfxConfig};
use cider_kernel::dispatch::{SyscallArgs, SyscallData};
use cider_kernel::profile::DeviceProfile;
use cider_loader::framework_set::FrameworkSet;
use cider_loader::MachOBuilder;
use cider_xnu::ipc::UserMessage;

fn booted_with_app() -> (CiderSystem, cider_abi::ids::Pid, cider_abi::ids::Tid)
{
    let mut sys = CiderSystem::new(DeviceProfile::nexus7());
    install_gfx(&mut sys, GfxConfig::default());
    sys.kernel
        .register_program("app_main", std::sync::Arc::new(|_, _| 0));
    let mut b = MachOBuilder::executable("app_main");
    for dep in FrameworkSet::app_default_deps() {
        b = b.depends_on(&dep);
    }
    sys.kernel
        .vfs
        .write_file_overlay("/Applications/ms.app/ms", b.build().to_bytes())
        .unwrap();
    let (pid, tid) = sys
        .launch_ios_app("/Applications/ms.app/ms", &["ms"])
        .unwrap();
    (sys, pid, tid)
}

fn mach_trap(
    sys: &mut CiderSystem,
    tid: cider_abi::ids::Tid,
    trap: MachTrap,
    args: SyscallArgs,
) -> cider_kernel::dispatch::UserTrapResult {
    sys.trap(tid, XnuTrap::Mach(trap).encode(), &args)
}

#[test]
fn task_self_and_reply_port_traps() {
    let (mut sys, _, tid) = booted_with_app();
    let r1 =
        mach_trap(&mut sys, tid, MachTrap::TaskSelfTrap, SyscallArgs::none());
    let r2 =
        mach_trap(&mut sys, tid, MachTrap::TaskSelfTrap, SyscallArgs::none());
    assert_eq!(r1.reg, r2.reg, "task self port is stable");
    let reply =
        mach_trap(&mut sys, tid, MachTrap::MachReplyPort, SyscallArgs::none());
    assert_ne!(reply.reg, r1.reg);
    assert!(reply.reg > 0);
}

#[test]
fn wire_level_mach_msg_roundtrip() {
    let (mut sys, _, tid) = booted_with_app();
    // Allocate a port and a send right through the traps.
    let port = mach_trap(
        &mut sys,
        tid,
        MachTrap::MachPortAllocate,
        SyscallArgs::none(),
    )
    .reg;
    let send = mach_trap(
        &mut sys,
        tid,
        MachTrap::MachPortInsertRight,
        SyscallArgs::regs([port, 0, 0, 0, 0, 0, 0]),
    )
    .reg;

    // SEND.
    let msg = UserMessage::simple(
        PortName(send as u32),
        77,
        Bytes::from(&b"wire payload"[..]),
    );
    let mut args = SyscallArgs::regs([1, 0, 0, 0, 0, 0, 0]);
    args.data = SyscallData::Bytes(wire::encode_user_message(&msg).into());
    let r = mach_trap(&mut sys, tid, MachTrap::MachMsgTrap, args);
    assert_eq!(r.reg, 0, "KERN_SUCCESS");

    // RECEIVE.
    let rcv = SyscallArgs::regs([2, 0, port, 0, 0, 0, 0]);
    let r = mach_trap(&mut sys, tid, MachTrap::MachMsgTrap, rcv);
    assert_eq!(r.reg, 0);
    let got = wire::decode_received_message(&r.out_data).unwrap();
    assert_eq!(got.msg_id, 77);
    assert_eq!(&got.body[..], b"wire payload");

    // Receive again: empty queue reports MACH_RCV_TIMED_OUT.
    let rcv = SyscallArgs::regs([2, 0, port, 0, 0, 0, 0]);
    let r = mach_trap(&mut sys, tid, MachTrap::MachMsgTrap, rcv);
    assert_eq!(r.reg, 0x1000_4003_i64);
}

#[test]
fn ios_app_talks_to_notifyd_like_on_ios() {
    // "every app monitors a Mach IPC port for incoming low-level event
    // notifications" (§5.2) — here the full register/post/deliver cycle.
    // notifyd's delivery fan-out rides the IPC v2 trap ring, so the
    // ring-batch counter must rise across the post.
    let (mut sys, _, tid) = booted_with_app();
    sys.kernel.trace = cider_trace::TraceSink::enabled_default();
    let notify_port = sys
        .bootstrap_look_up(tid, "com.apple.system.notification_center")
        .unwrap();
    let delivery = sys.mach_port_allocate(tid).unwrap();
    let mut reg = UserMessage::simple(
        notify_port,
        msg_ids::NOTIFY_REGISTER,
        Bytes::from(&b"com.apple.springboard.ready"[..]),
    );
    reg.ports.push(cider_xnu::ipc::PortDescriptor {
        name: delivery,
        disposition: cider_xnu::ipc::PortDisposition::MakeSend,
    });
    sys.mach_msg_send(tid, reg).unwrap();
    sys.run_services();

    let post = UserMessage::simple(
        notify_port,
        msg_ids::NOTIFY_POST,
        Bytes::from(&b"com.apple.springboard.ready"[..]),
    );
    let flushes_before = sys
        .kernel
        .trace
        .snapshot()
        .map(|s| s.metrics.counter("ipc/ring_flush"))
        .unwrap_or(0);
    sys.mach_msg_send(tid, post).unwrap();
    sys.run_services();

    let got = sys.mach_msg_receive(tid, delivery).unwrap();
    assert_eq!(got.msg_id, msg_ids::NOTIFY_DELIVER);
    let flushes_after = sys
        .kernel
        .trace
        .snapshot()
        .map(|s| s.metrics.counter("ipc/ring_flush"))
        .unwrap();
    assert!(
        flushes_after > flushes_before,
        "notifyd delivery did not go through a ring batch \
         ({flushes_before} -> {flushes_after})"
    );
    cider_core::with_state(&mut sys.kernel, |_, st| {
        st.machipc.check_invariants()
    });
}

#[test]
fn framebuffer_reachable_from_the_registry() {
    // §5.1's AppleM2CLCD story: the app locates the display through the
    // I/O Kit registry and drives it via external methods. (The driver
    // class was registered at install_gfx time — on kernel boot.)
    let (mut sys, _, _) = booted_with_app();
    cider_core::with_state(&mut sys.kernel, |_, st| {
        assert!(
            st.iokit.find_service("AppleM2CLCD").is_some(),
            "driver instance attached at boot"
        );
        let nub = st.iokit.find_service("IODisplayNub").expect("bridged");
        assert_eq!(
            st.iokit.property_string(nub, "IOLinuxDevice"),
            Some("/dev/fb0"),
            "the registry entry points at the Linux device node"
        );
        let conn = st.iokit.service_open(nub).unwrap();
        let (size, _) = st
            .iokit
            .connect_call_method(conn, selectors::GET_SIZE, &[], &[])
            .unwrap();
        assert_eq!(size, vec![1280, 800]);
        let mut last = 0;
        for _ in 0..3 {
            let (out, _) = st
                .iokit
                .connect_call_method(conn, selectors::SWAP_SUBMIT, &[], &[])
                .unwrap();
            last = out[0];
        }
        assert_eq!(last, 3, "frame counter advanced per swap");
        st.iokit.service_close(conn).unwrap();
    });
}

#[test]
fn task_teardown_returns_all_ports() {
    let (mut sys, pid, tid) = booted_with_app();
    for _ in 0..5 {
        mach_trap(
            &mut sys,
            tid,
            MachTrap::MachPortAllocate,
            SyscallArgs::none(),
        );
    }
    let live_before = cider_core::with_state(&mut sys.kernel, |_, st| {
        st.machipc.live_ports()
    });
    assert!(live_before >= 5);
    // XNU exit tears the task's IPC space down.
    let exit_nr = XnuTrap::Unix(cider_abi::syscall::XnuSyscall::Exit).encode();
    sys.trap(tid, exit_nr, &SyscallArgs::regs([0, 0, 0, 0, 0, 0, 0]));
    cider_core::with_state(&mut sys.kernel, |_, st| {
        assert!(!st.has_task_space(pid));
        st.machipc.check_invariants();
    });
}
