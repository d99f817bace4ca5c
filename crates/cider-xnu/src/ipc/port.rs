//! Mach ports and port rights.

use crate::ipc::message::Message;
use crate::queue::XnuQueue;

/// Global identifier of a port object (kernel-internal, not a name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u64);

/// Identifier of an IPC space (one per task).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpaceId(pub u64);

/// The kind of right a name denotes within a space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RightType {
    /// The (unique) receive right.
    Receive,
    /// A send right (user-reference counted).
    Send,
    /// A send-once right.
    SendOnce,
    /// A dead name left behind when the port died.
    DeadName,
}

/// The kernel object a port may represent — how Mach IPC doubles as the
/// syscall surface for kernel services (tasks, I/O Kit connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelObject {
    /// A plain message queue.
    #[default]
    None,
    /// A task's self port; carries the (simulator) pid.
    Task(u64),
    /// A thread's self port.
    Thread(u64),
    /// The host port.
    Host,
    /// An I/O Kit service registry entry.
    IoService(u32),
    /// An open I/O Kit user-client connection.
    IoUserClient(u32),
    /// A bootstrap/launchd service endpoint (index into the service
    /// registry).
    BootstrapService(u32),
    /// A notification endpoint (notifyd).
    Notification(u32),
}

/// Default per-port message queue limit (`MACH_PORT_QLIMIT_DEFAULT`).
pub const QLIMIT_DEFAULT: usize = 5;
/// Maximum configurable queue limit (`MACH_PORT_QLIMIT_MAX`).
pub const QLIMIT_MAX: usize = 16;

/// A Mach port: one receive right, counted send rights, a message queue.
#[derive(Debug)]
pub struct Port {
    /// Global id.
    pub id: PortId,
    /// Space holding the receive right; `None` once the port is dead.
    pub receiver: Option<SpaceId>,
    /// Outstanding send rights, system-wide (space entries' user refs
    /// plus rights in transit inside queued messages).
    pub srights: u32,
    /// Outstanding send-once rights, system-wide.
    pub sorights: u32,
    /// Times a send right was made from the receive right
    /// (`mscount` — consulted by no-senders notifications).
    pub make_send_count: u32,
    /// Queued messages, delivered in FIFO order.
    pub msgs: XnuQueue<Message>,
    /// Queue limit.
    pub qlimit: usize,
    /// Kernel object binding.
    pub kobject: KernelObject,
    /// Armed no-senders notification target: `(space, name)` identifying
    /// a send-once right to fire when `srights` drops to zero.
    pub ns_notify: Option<(SpaceId, cider_abi::ids::PortName)>,
}

impl Port {
    /// Creates a live port with its receive right in `receiver`.
    pub fn new(id: PortId, receiver: SpaceId) -> Port {
        Port {
            id,
            receiver: Some(receiver),
            srights: 0,
            sorights: 0,
            make_send_count: 0,
            msgs: XnuQueue::new(),
            qlimit: QLIMIT_DEFAULT,
            kobject: KernelObject::None,
            ns_notify: None,
        }
    }

    /// Whether the port is dead (receive right destroyed).
    pub fn is_dead(&self) -> bool {
        self.receiver.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_port_is_live_with_no_rights() {
        let p = Port::new(PortId(1), SpaceId(1));
        assert!(!p.is_dead());
        assert_eq!(p.srights, 0);
        assert_eq!(p.qlimit, QLIMIT_DEFAULT);
        assert!(p.msgs.queue_empty());
    }

    #[test]
    fn qlimits_ordered() {
        const { assert!(QLIMIT_DEFAULT < QLIMIT_MAX) };
    }
}
