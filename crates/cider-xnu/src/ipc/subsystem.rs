//! The Mach IPC engine: spaces, ports, rights transfer, message queues,
//! and no-senders notifications.
//!
//! This is the reproduction's equivalent of the XNU `osfmk/ipc` directory
//! that Cider duct-tapes into Linux — "a rich and complicated API
//! providing inter-process communication and memory sharing" (§4.2). All
//! locking and allocation goes through the [`ForeignKernelApi`], so the
//! code itself never touches the domestic kernel.
//!
//! # One message path, two cost policies
//!
//! Every port keeps plain send/send-once counts and one FIFO
//! [`XnuQueue`](crate::queue::XnuQueue) of messages. [`MachIpc::set_v2`]
//! selects only what a message operation charges at the duct-tape
//! boundary:
//!
//! * **v1** (default): the subsystem mutex is taken through the duct
//!   tape (two `lck_mtx` crossings per op) and all payload is inline.
//! * **v2**: no mutex crossings; inline payload is charged through
//!   `copyin`, and out-of-line regions at or above
//!   [`OOL_INLINE_THRESHOLD`] move by page-table remap
//!   (`vm_remap_pages`), falling back to an inline copy when the host
//!   refuses the remap.
//!
//! Queueing, right accounting and delivery order are identical under
//! both policies, so the switch may be flipped mid-run.

use std::collections::BTreeMap;

use bytes::Bytes;
use cider_abi::ids::PortName;
use cider_abi::rights::{ReceiveRight, SendOnceRight, SendRight};

use crate::api::{Event, ForeignKernelApi, ZoneHandle};
use crate::ipc::message::{
    notify_ids, Message, PortDescriptor, PortDisposition, ReceivedMessage,
    TransitKind, TransitRight, UserMessage, OOL_INLINE_THRESHOLD,
    OOL_PAGE_BYTES,
};
use crate::ipc::port::{KernelObject, Port, PortId, RightType, SpaceId};
use crate::ipc::space::IpcSpace;
use crate::kern_return::{KernResult, KernReturn};

/// Counters the benchmarks and tests observe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IpcStats {
    /// Messages successfully queued.
    pub msgs_sent: u64,
    /// Messages successfully received.
    pub msgs_received: u64,
    /// Payload bytes moved.
    pub bytes_moved: u64,
    /// Port rights transferred in message bodies.
    pub rights_transferred: u64,
    /// No-senders notifications fired.
    pub no_senders_fired: u64,
    /// Out-of-line bytes moved by page remap instead of copy (v2 only).
    pub ool_bytes_remapped: u64,
}

/// The Mach IPC subsystem state.
#[derive(Debug)]
pub struct MachIpc {
    ports: BTreeMap<u64, Port>,
    spaces: BTreeMap<u64, IpcSpace>,
    next_port: u64,
    next_space: u64,
    lock: Option<crate::api::LckMtx>,
    ports_zone: Option<ZoneHandle>,
    v2: bool,
    /// Observable statistics.
    pub stats: IpcStats,
}

impl Default for MachIpc {
    fn default() -> Self {
        Self::new()
    }
}

impl MachIpc {
    /// Creates the subsystem without kernel resources; call
    /// [`MachIpc::bootstrap`] before use.
    pub fn new() -> MachIpc {
        MachIpc {
            ports: BTreeMap::new(),
            spaces: BTreeMap::new(),
            next_port: 1,
            next_space: 1,
            lock: None,
            ports_zone: None,
            v2: false,
            stats: IpcStats::default(),
        }
    }

    /// Acquires kernel resources (zones, locks) through the foreign API —
    /// XNU's `ipc_bootstrap`.
    pub fn bootstrap(&mut self, api: &mut dyn ForeignKernelApi) {
        self.lock = Some(api.lck_mtx_alloc());
        self.ports_zone = Some(api.zinit("ipc.ports", 168));
        api.kprintf("mach_ipc: bootstrap complete");
    }

    /// Switches the cost policy between v1 (subsystem mutex, copy-always)
    /// and v2 (`copyin` plus OOL remap). Off by default; flipping it
    /// mid-run only changes what subsequent operations charge.
    pub fn set_v2(&mut self, on: bool) {
        self.v2 = on;
    }

    /// Whether the v2 cost policy is active.
    pub fn v2_enabled(&self) -> bool {
        self.v2
    }

    fn with_lock<R>(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        f: impl FnOnce(&mut Self, &mut dyn ForeignKernelApi) -> R,
    ) -> R {
        if let Some(l) = self.lock {
            api.lck_mtx_lock(l);
        }
        let r = f(self, api);
        if let Some(l) = self.lock {
            api.lck_mtx_unlock(l);
        }
        r
    }

    // ------------------------------------------------------------------
    // Spaces and ports.
    // ------------------------------------------------------------------

    /// Creates an IPC space (one per task).
    pub fn create_space(&mut self) -> SpaceId {
        let id = SpaceId(self.next_space);
        self.next_space += 1;
        self.spaces.insert(id.0, IpcSpace::new(id));
        id
    }

    /// Tears down a space: all its receive rights die, all its send
    /// references are released.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for unknown spaces.
    pub fn destroy_space(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        space: SpaceId,
    ) -> KernResult<()> {
        let entries: Vec<(PortName, crate::ipc::space::NameEntry)> =
            self.space(space)?.iter().collect();
        for (name, entry) in entries {
            match entry.right {
                RightType::Receive => {
                    let _ = self.port_destroy(api, space, name);
                }
                RightType::Send => {
                    for _ in 0..entry.urefs {
                        let _ = self.port_deallocate(api, space, name);
                    }
                }
                RightType::SendOnce | RightType::DeadName => {
                    let _ = self.port_deallocate(api, space, name);
                }
            }
        }
        self.spaces.remove(&space.0);
        Ok(())
    }

    fn space(&self, id: SpaceId) -> KernResult<&IpcSpace> {
        self.spaces.get(&id.0).ok_or(KernReturn::InvalidArgument)
    }

    fn space_mut(&mut self, id: SpaceId) -> KernResult<&mut IpcSpace> {
        self.spaces
            .get_mut(&id.0)
            .ok_or(KernReturn::InvalidArgument)
    }

    fn port(&self, id: PortId) -> KernResult<&Port> {
        self.ports.get(&id.0).ok_or(KernReturn::InvalidName)
    }

    fn port_mut(&mut self, id: PortId) -> KernResult<&mut Port> {
        self.ports.get_mut(&id.0).ok_or(KernReturn::InvalidName)
    }

    /// `mach_port_allocate(MACH_PORT_RIGHT_RECEIVE)`: creates a port and
    /// returns its typed receive right.
    ///
    /// # Errors
    ///
    /// `InvalidArgument` for unknown spaces, `ResourceShortage` on zone
    /// exhaustion.
    pub fn alloc_receive(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        space: SpaceId,
    ) -> KernResult<ReceiveRight> {
        self.with_lock(api, |ipc, api| {
            ipc.space(space)?;
            if let Some(z) = ipc.ports_zone {
                // NULL from zalloc is zone exhaustion: no port element
                // can be built, the classic XNU resource failure.
                if api.zalloc(z) == 0 {
                    return Err(KernReturn::ResourceShortage);
                }
            }
            let id = PortId(ipc.next_port);
            ipc.next_port += 1;
            ipc.ports.insert(id.0, Port::new(id, space));
            Ok(ReceiveRight::from_name(
                ipc.space_mut(space)
                    .expect("checked above")
                    .insert_new(id, RightType::Receive),
            ))
        })
    }

    /// Resolves a raw name (from trap registers or the wire) into a
    /// validated [`ReceiveRight`].
    ///
    /// # Errors
    ///
    /// `InvalidName` for unknown names, `InvalidRight` when the name does
    /// not denote a receive right.
    pub fn receive_right(
        &self,
        space: SpaceId,
        name: PortName,
    ) -> KernResult<ReceiveRight> {
        let entry = self.space(space)?.lookup(name)?;
        if entry.right != RightType::Receive {
            return Err(KernReturn::InvalidRight);
        }
        Ok(ReceiveRight::from_name(name))
    }

    /// Resolves a raw name into a validated [`SendRight`].
    ///
    /// # Errors
    ///
    /// `InvalidName` for unknown names, `InvalidRight` when the name does
    /// not denote a send right.
    pub fn send_right(
        &self,
        space: SpaceId,
        name: PortName,
    ) -> KernResult<SendRight> {
        let entry = self.space(space)?.lookup(name)?;
        if entry.right != RightType::Send {
            return Err(KernReturn::InvalidRight);
        }
        Ok(SendRight::from_name(name))
    }

    /// Binds a kernel object to a port (task self, I/O Kit connection).
    ///
    /// # Errors
    ///
    /// `InvalidName` for unknown names.
    pub fn set_kobject(
        &mut self,
        space: SpaceId,
        name: PortName,
        ko: KernelObject,
    ) -> KernResult<()> {
        let entry = self.space(space)?.lookup(name)?;
        self.port_mut(entry.port)?.kobject = ko;
        Ok(())
    }

    /// The kernel object bound to the port a name denotes.
    ///
    /// # Errors
    ///
    /// `InvalidName` for unknown names.
    pub fn kobject_of(
        &self,
        space: SpaceId,
        name: PortName,
    ) -> KernResult<KernelObject> {
        let entry = self.space(space)?.lookup(name)?;
        Ok(self.port(entry.port)?.kobject)
    }

    /// Sets a port's queue limit (`mach_port_set_attributes`).
    ///
    /// # Errors
    ///
    /// `InvalidRight` if the name is not a receive right; `InvalidArgument`
    /// for limits above `QLIMIT_MAX`.
    pub fn set_qlimit(
        &mut self,
        space: SpaceId,
        name: PortName,
        qlimit: usize,
    ) -> KernResult<()> {
        if qlimit > crate::ipc::port::QLIMIT_MAX {
            return Err(KernReturn::InvalidArgument);
        }
        let entry = self.space(space)?.lookup(name)?;
        if entry.right != RightType::Receive {
            return Err(KernReturn::InvalidRight);
        }
        self.port_mut(entry.port)?.qlimit = qlimit;
        Ok(())
    }

    /// Mints a send right from a receive right in the same space
    /// (`mach_port_insert_right(..., MACH_MSG_TYPE_MAKE_SEND)`).
    ///
    /// # Errors
    ///
    /// `InvalidName`/`InvalidRight` if the receive right is stale.
    pub fn insert_send(
        &mut self,
        space: SpaceId,
        recv: ReceiveRight,
    ) -> KernResult<SendRight> {
        let entry = self.space(space)?.lookup(recv.name())?;
        if entry.right != RightType::Receive {
            return Err(KernReturn::InvalidRight);
        }
        let port = self.port_mut(entry.port)?;
        port.srights += 1;
        port.make_send_count += 1;
        Ok(SendRight::from_name(
            self.space_mut(space)?.add_send_right(entry.port),
        ))
    }

    /// Mints a send-once right from a receive right in the same space
    /// (`MACH_MSG_TYPE_MAKE_SEND_ONCE`).
    ///
    /// # Errors
    ///
    /// `InvalidName`/`InvalidRight` if the receive right is stale.
    pub fn insert_send_once(
        &mut self,
        space: SpaceId,
        recv: ReceiveRight,
    ) -> KernResult<SendOnceRight> {
        let entry = self.space(space)?.lookup(recv.name())?;
        if entry.right != RightType::Receive {
            return Err(KernReturn::InvalidRight);
        }
        self.port_mut(entry.port)?.sorights += 1;
        Ok(SendOnceRight::from_name(
            self.space_mut(space)?.add_send_once_right(entry.port),
        ))
    }

    /// Copies a send right from one space into another — how launchd
    /// hands service ports to clients.
    ///
    /// # Errors
    ///
    /// `InvalidRight` if the right is stale, `InvalidCapability` if the
    /// port died.
    pub fn copy_send(
        &mut self,
        from: SpaceId,
        send: SendRight,
        to: SpaceId,
    ) -> KernResult<SendRight> {
        let entry = self.space(from)?.lookup(send.name())?;
        if entry.right != RightType::Send {
            return Err(KernReturn::InvalidRight);
        }
        if self.port(entry.port)?.is_dead() {
            return Err(KernReturn::InvalidCapability);
        }
        self.port_mut(entry.port)?.srights += 1;
        Ok(SendRight::from_name(
            self.space_mut(to)?.add_send_right(entry.port),
        ))
    }

    /// Releases one user reference on a send/send-once/dead name
    /// (`mach_port_deallocate`).
    ///
    /// # Errors
    ///
    /// `InvalidName`/`InvalidRight` per the space's rules.
    pub fn port_deallocate(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        space: SpaceId,
        name: PortName,
    ) -> KernResult<()> {
        let before = self.space_mut(space)?.release(name)?;
        match before.right {
            RightType::Send => {
                let pid = before.port;
                {
                    let port = self.port_mut(pid)?;
                    if !port.is_dead() {
                        port.srights = port.srights.saturating_sub(1);
                    }
                }
                self.maybe_fire_no_senders(api, pid);
            }
            RightType::SendOnce => {
                let port = self.port_mut(before.port)?;
                if !port.is_dead() {
                    port.sorights = port.sorights.saturating_sub(1);
                }
            }
            RightType::DeadName => {}
            RightType::Receive => unreachable!("release rejects receive"),
        }
        Ok(())
    }

    /// Destroys a receive right, killing the port: queued messages are
    /// destroyed (their carried rights released) and every other space's
    /// rights become dead names.
    ///
    /// # Errors
    ///
    /// `InvalidRight` if `name` is not a receive right.
    pub fn port_destroy(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        space: SpaceId,
        name: PortName,
    ) -> KernResult<()> {
        let entry = self.space(space)?.lookup(name)?;
        if entry.right != RightType::Receive {
            return Err(KernReturn::InvalidRight);
        }
        self.space_mut(space)?.remove(name)?;
        self.kill_port(api, entry.port);
        Ok(())
    }

    fn kill_port(&mut self, api: &mut dyn ForeignKernelApi, pid: PortId) {
        // Drain the queue, destroying carried rights (may cascade).
        let mut msgs = {
            let Ok(port) = self.port_mut(pid) else { return };
            port.receiver = None;
            std::mem::take(&mut port.msgs)
        };
        while let Some(m) = msgs.dequeue_head() {
            self.destroy_message_rights(api, m);
        }
        // Convert all rights across spaces into dead names.
        let space_ids: Vec<u64> = self.spaces.keys().copied().collect();
        for sid in space_ids {
            if let Some(s) = self.spaces.get_mut(&sid) {
                s.make_dead(pid);
            }
        }
        if let Ok(port) = self.port_mut(pid) {
            port.srights = 0;
            port.sorights = 0;
            port.ns_notify = None;
        }
        api.kprintf("mach_ipc: port died");
    }

    fn destroy_message_rights(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        m: Message,
    ) {
        let mut rights = m.ports;
        if let Some(r) = m.reply {
            rights.push(r);
        }
        for r in rights {
            match r.kind {
                TransitKind::Send => {
                    let fire = {
                        if let Ok(p) = self.port_mut(r.port) {
                            if !p.is_dead() {
                                p.srights = p.srights.saturating_sub(1);
                            }
                            true
                        } else {
                            false
                        }
                    };
                    if fire {
                        self.maybe_fire_no_senders(api, r.port);
                    }
                }
                TransitKind::SendOnce => {
                    if let Ok(p) = self.port_mut(r.port) {
                        if !p.is_dead() {
                            p.sorights = p.sorights.saturating_sub(1);
                        }
                    }
                }
                TransitKind::Receive => {
                    // A receive right destroyed in transit kills its port.
                    self.kill_port(api, r.port);
                }
            }
        }
    }

    /// Arms a no-senders notification on a receive right: when the port's
    /// send-right count drops to zero, a `MACH_NOTIFY_NO_SENDERS` message
    /// is sent using the provided send-once right.
    ///
    /// # Errors
    ///
    /// `InvalidRight` if `recv_name` is not a receive right or
    /// `notify_name` is not a send-once right.
    pub fn arm_no_senders(
        &mut self,
        space: SpaceId,
        recv_name: PortName,
        notify_name: PortName,
    ) -> KernResult<()> {
        let recv = self.space(space)?.lookup(recv_name)?;
        if recv.right != RightType::Receive {
            return Err(KernReturn::InvalidRight);
        }
        let notify = self.space(space)?.lookup(notify_name)?;
        if notify.right != RightType::SendOnce {
            return Err(KernReturn::InvalidRight);
        }
        self.port_mut(recv.port)?.ns_notify = Some((space, notify_name));
        Ok(())
    }

    fn maybe_fire_no_senders(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        pid: PortId,
    ) {
        let fire = {
            let Ok(port) = self.port(pid) else { return };
            port.srights == 0 && !port.is_dead() && port.ns_notify.is_some()
        };
        if !fire {
            return;
        }
        let (sid, notify_name) = {
            let port = self.port_mut(pid).expect("checked above");
            port.ns_notify.take().expect("checked above")
        };
        // Consume the armed send-once right by sending the notification.
        let notify = UserMessage {
            remote_port: notify_name,
            remote_disposition: PortDisposition::MoveSendOnce,
            local_port: PortName::NULL,
            local_disposition: PortDisposition::MakeSendOnce,
            msg_id: notify_ids::NO_SENDERS,
            body: Bytes::new(),
            ports: Vec::new(),
            ool: Vec::new(),
        };
        if self.send(api, sid, notify).is_ok() {
            self.stats.no_senders_fired += 1;
        }
    }

    // ------------------------------------------------------------------
    // Message transfer.
    // ------------------------------------------------------------------

    fn take_right(
        &mut self,
        space: SpaceId,
        desc: PortDescriptor,
    ) -> KernResult<TransitRight> {
        let entry = self.space(space)?.lookup(desc.name)?;
        match desc.disposition {
            PortDisposition::CopySend => {
                if entry.right != RightType::Send {
                    return Err(KernReturn::InvalidRight);
                }
                self.port_mut(entry.port)?.srights += 1;
                Ok(TransitRight {
                    port: entry.port,
                    kind: TransitKind::Send,
                })
            }
            PortDisposition::MoveSend => {
                if entry.right != RightType::Send {
                    return Err(KernReturn::InvalidRight);
                }
                // The reference moves from the space into the message;
                // the system-wide count is unchanged.
                self.space_mut(space)?.release(desc.name)?;
                Ok(TransitRight {
                    port: entry.port,
                    kind: TransitKind::Send,
                })
            }
            PortDisposition::MakeSend => {
                if entry.right != RightType::Receive {
                    return Err(KernReturn::InvalidRight);
                }
                let port = self.port_mut(entry.port)?;
                port.srights += 1;
                port.make_send_count += 1;
                Ok(TransitRight {
                    port: entry.port,
                    kind: TransitKind::Send,
                })
            }
            PortDisposition::MakeSendOnce => {
                if entry.right != RightType::Receive {
                    return Err(KernReturn::InvalidRight);
                }
                self.port_mut(entry.port)?.sorights += 1;
                Ok(TransitRight {
                    port: entry.port,
                    kind: TransitKind::SendOnce,
                })
            }
            PortDisposition::MoveSendOnce => {
                if entry.right != RightType::SendOnce {
                    return Err(KernReturn::InvalidRight);
                }
                self.space_mut(space)?.release(desc.name)?;
                Ok(TransitRight {
                    port: entry.port,
                    kind: TransitKind::SendOnce,
                })
            }
            PortDisposition::MoveReceive => {
                if entry.right != RightType::Receive {
                    return Err(KernReturn::InvalidRight);
                }
                self.space_mut(space)?.remove(desc.name)?;
                self.port_mut(entry.port)?.receiver = None;
                Ok(TransitRight {
                    port: entry.port,
                    kind: TransitKind::Receive,
                })
            }
        }
    }

    /// `mach_msg(MACH_SEND_MSG)`: validates the destination right,
    /// processes dispositions, and queues the message.
    ///
    /// Under v2 the subsystem mutex crossings are not charged, inline
    /// payload is charged through `copyin`, and out-of-line regions at
    /// or above [`OOL_INLINE_THRESHOLD`] move by page remap with
    /// inline-copy fallback.
    ///
    /// # Errors
    ///
    /// `SendInvalidDest` for dead or invalid destinations,
    /// `SendTooLarge` when the queue is at its limit,
    /// `InvalidRight` for disposition mismatches.
    pub fn send(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        space: SpaceId,
        msg: UserMessage,
    ) -> KernResult<()> {
        if self.v2 {
            self.send_inner(api, space, msg, true)
        } else {
            self.with_lock(api, |ipc, api| {
                ipc.send_inner(api, space, msg, false)
            })
        }
    }

    fn send_inner(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        space: SpaceId,
        msg: UserMessage,
        v2: bool,
    ) -> KernResult<()> {
        let dest = self
            .space(space)?
            .lookup(msg.remote_port)
            .map_err(|_| KernReturn::SendInvalidDest)?;
        let dest_port = dest.port;
        match dest.right {
            RightType::Send | RightType::SendOnce => {}
            RightType::DeadName => return Err(KernReturn::SendInvalidDest),
            RightType::Receive => return Err(KernReturn::InvalidRight),
        }
        if self.port(dest_port)?.is_dead() {
            return Err(KernReturn::SendInvalidDest);
        }
        if self.port(dest_port)?.msgs.len() >= self.port(dest_port)?.qlimit {
            return Err(KernReturn::SendTooLarge);
        }

        // Reply port.
        let reply = if msg.local_port.is_valid() {
            Some(self.take_right(
                space,
                PortDescriptor {
                    name: msg.local_port,
                    disposition: msg.local_disposition,
                },
            )?)
        } else {
            None
        };

        // Body descriptors.
        let mut ports = Vec::with_capacity(msg.ports.len());
        for desc in &msg.ports {
            ports.push(self.take_right(space, *desc)?);
        }
        self.stats.rights_transferred +=
            (ports.len() + reply.is_some() as usize) as u64;

        // Destination disposition: send-once rights are consumed by the
        // send; moved send rights leave the sender's table.
        match msg.remote_disposition {
            PortDisposition::MoveSend => {
                self.space_mut(space)?.release(msg.remote_port)?;
                let port = self.port_mut(dest_port)?;
                port.srights = port.srights.saturating_sub(1);
            }
            PortDisposition::MoveSendOnce => {
                if dest.right != RightType::SendOnce {
                    return Err(KernReturn::InvalidRight);
                }
                self.space_mut(space)?.release(msg.remote_port)?;
                let port = self.port_mut(dest_port)?;
                port.sorights = port.sorights.saturating_sub(1);
            }
            _ => {
                if dest.right == RightType::SendOnce {
                    // Send-once rights are always consumed.
                    self.space_mut(space)?.release(msg.remote_port)?;
                    let port = self.port_mut(dest_port)?;
                    port.sorights = port.sorights.saturating_sub(1);
                }
            }
        }

        if v2 {
            // v2 pays its boundary costs explicitly: inline payload is
            // copied in; OOL regions over the threshold move by remapping
            // whole pages, falling back to a copy if the host refuses.
            api.copyin(msg.body.len() as u64);
            for blob in &msg.ool {
                let len = blob.len() as u64;
                if blob.len() >= OOL_INLINE_THRESHOLD {
                    let pages = len.div_ceil(OOL_PAGE_BYTES);
                    if api.vm_remap_pages(pages) {
                        self.stats.ool_bytes_remapped += len;
                        continue;
                    }
                }
                api.copyin(len);
            }
        }

        let queued = Message {
            msg_id: msg.msg_id,
            body: msg.body,
            reply,
            ports,
            ool: msg.ool,
            sender: space.0,
        };
        self.stats.bytes_moved += queued.size() as u64;
        self.stats.msgs_sent += 1;
        self.port_mut(dest_port)?.msgs.enqueue_tail(queued);
        api.thread_wakeup(Event(0x1000_0000 + dest_port.0));
        // A moved send right may have been the last one.
        if msg.remote_disposition == PortDisposition::MoveSend {
            self.maybe_fire_no_senders(api, dest_port);
        }
        Ok(())
    }

    /// `mach_msg(MACH_RCV_MSG)` with zero timeout: dequeues the next
    /// message on the receive right, materialising carried rights as
    /// names in the receiving space. Under v2 the subsystem mutex
    /// crossings are not charged and the body copy-out is charged
    /// through `copyin`.
    ///
    /// # Errors
    ///
    /// `RcvInvalidName` if the right is stale;
    /// `RcvTimedOut` when the queue is empty (callers block through the
    /// foreign API and retry).
    pub fn receive(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        space: SpaceId,
        recv: ReceiveRight,
    ) -> KernResult<ReceivedMessage> {
        if self.v2 {
            let got = self.msg_receive_locked(api, space, recv.name())?;
            api.copyin(got.body.len() as u64);
            Ok(got)
        } else {
            self.with_lock(api, |ipc, api| {
                ipc.msg_receive_locked(api, space, recv.name())
            })
        }
    }

    fn msg_receive_locked(
        &mut self,
        api: &mut dyn ForeignKernelApi,
        space: SpaceId,
        recv_name: PortName,
    ) -> KernResult<ReceivedMessage> {
        let entry = self
            .space(space)?
            .lookup(recv_name)
            .map_err(|_| KernReturn::RcvInvalidName)?;
        if entry.right != RightType::Receive {
            return Err(KernReturn::RcvInvalidName);
        }
        let pid = entry.port;
        let Some(msg) = self.port_mut(pid)?.msgs.dequeue_head() else {
            api.assert_wait(Event(0x1000_0000 + pid.0));
            let _ = api.thread_block();
            return Err(KernReturn::RcvTimedOut);
        };

        let reply_port = match msg.reply {
            Some(r) => self.materialise(space, r)?,
            None => PortName::NULL,
        };
        let mut names = Vec::with_capacity(msg.ports.len());
        for r in msg.ports {
            names.push(self.materialise(space, r)?);
        }
        self.stats.msgs_received += 1;
        Ok(ReceivedMessage {
            msg_id: msg.msg_id,
            body: msg.body,
            reply_port,
            ports: names,
            ool: msg.ool,
        })
    }

    fn materialise(
        &mut self,
        space: SpaceId,
        r: TransitRight,
    ) -> KernResult<PortName> {
        if r.kind == TransitKind::Receive {
            // A port whose receive right is in transit reads as
            // receiver-less, but it is alive: the right lands here.
            self.port_mut(r.port)?.receiver = Some(space);
            return Ok(self
                .space_mut(space)?
                .insert_new(r.port, RightType::Receive));
        }
        if self.port(r.port)?.is_dead() {
            // The right died in transit: the receiver gets a dead name.
            return Ok(self
                .space_mut(space)?
                .insert_new(r.port, RightType::DeadName));
        }
        Ok(match r.kind {
            TransitKind::Send => self.space_mut(space)?.add_send_right(r.port),
            TransitKind::SendOnce => {
                self.space_mut(space)?.add_send_once_right(r.port)
            }
            TransitKind::Receive => unreachable!("handled above"),
        })
    }

    // ------------------------------------------------------------------
    // Observability.
    // ------------------------------------------------------------------

    /// Messages currently queued on the port a receive-right name denotes.
    ///
    /// # Errors
    ///
    /// `RcvInvalidName` if the name is not a receive right.
    pub fn queued(&self, space: SpaceId, name: PortName) -> KernResult<usize> {
        let entry = self.space(space)?.lookup(name)?;
        if entry.right != RightType::Receive {
            return Err(KernReturn::RcvInvalidName);
        }
        Ok(self.port(entry.port)?.msgs.len())
    }

    /// The names and right kinds held by a space (empty for unknown
    /// spaces) — observability for tests and debuggers.
    pub fn space_names(&self, space: SpaceId) -> Vec<(PortName, RightType)> {
        self.spaces
            .get(&space.0)
            .map(|s| s.iter().map(|(n, e)| (n, e.right)).collect())
            .unwrap_or_default()
    }

    /// Number of live (non-dead) ports.
    pub fn live_ports(&self) -> usize {
        self.ports.values().filter(|p| !p.is_dead()).count()
    }

    /// Verifies the port-right conservation invariant: for every live
    /// port, its system-wide send / send-once counts equal the sum of
    /// space entries plus rights in transit inside queued messages.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if any port's books don't balance — used
    /// by tests and property tests.
    pub fn check_invariants(&self) {
        for port in self.ports.values() {
            if port.is_dead() {
                continue;
            }
            let mut send = 0u32;
            let mut sonce = 0u32;
            for s in self.spaces.values() {
                for (_, e) in s.iter() {
                    if e.port == port.id {
                        match e.right {
                            RightType::Send => send += e.urefs,
                            RightType::SendOnce => sonce += e.urefs,
                            _ => {}
                        }
                    }
                }
            }
            for p in self.ports.values() {
                for m in p.msgs.iter() {
                    for r in m.ports.iter().chain(m.reply.as_ref()) {
                        if r.port == port.id {
                            match r.kind {
                                TransitKind::Send => send += 1,
                                TransitKind::SendOnce => sonce += 1,
                                TransitKind::Receive => {}
                            }
                        }
                    }
                }
            }
            assert_eq!(
                port.srights, send,
                "send-right count mismatch on {:?}",
                port.id
            );
            assert_eq!(
                port.sorights, sonce,
                "send-once count mismatch on {:?}",
                port.id
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MockForeignKernel;

    fn setup() -> (MachIpc, MockForeignKernel) {
        let mut api = MockForeignKernel::new();
        let mut ipc = MachIpc::new();
        ipc.bootstrap(&mut api);
        (ipc, api)
    }

    #[test]
    fn allocate_and_send_receive() {
        let (mut ipc, mut api) = setup();
        let server = ipc.create_space();
        let client = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, server).unwrap();
        let send_srv = ipc.insert_send(server, recv).unwrap();
        let send_cli = ipc.copy_send(server, send_srv, client).unwrap();

        let msg = UserMessage::simple(send_cli.name(), 42, &b"hello"[..]);
        ipc.send(&mut api, client, msg).unwrap();
        assert_eq!(ipc.queued(server, recv.name()).unwrap(), 1);

        let got = ipc.receive(&mut api, server, recv).unwrap();
        assert_eq!(got.msg_id, 42);
        assert_eq!(&got.body[..], b"hello");
        assert_eq!(got.reply_port, PortName::NULL);
        ipc.check_invariants();
    }

    #[test]
    fn receive_empty_times_out_and_blocks() {
        let (mut ipc, mut api) = setup();
        let s = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, s).unwrap();
        assert_eq!(
            ipc.receive(&mut api, s, recv).unwrap_err(),
            KernReturn::RcvTimedOut
        );
        // The caller was parked on the port's wait event.
        assert_eq!(api.sleepers.len(), 1);
    }

    #[test]
    fn reply_port_roundtrip() {
        let (mut ipc, mut api) = setup();
        let server = ipc.create_space();
        let client = ipc.create_space();
        let srv_recv = ipc.alloc_receive(&mut api, server).unwrap();
        let srv_send = ipc.insert_send(server, srv_recv).unwrap();
        let cli_send = ipc.copy_send(server, srv_send, client).unwrap();
        let cli_reply = ipc.alloc_receive(&mut api, client).unwrap();

        let mut msg = UserMessage::simple(cli_send.name(), 7, &b"req"[..]);
        msg.local_port = cli_reply.name();
        ipc.send(&mut api, client, msg).unwrap();
        ipc.check_invariants();

        let req = ipc.receive(&mut api, server, srv_recv).unwrap();
        assert!(req.reply_port.is_valid());

        // Server answers through the send-once right.
        let mut resp = UserMessage::simple(req.reply_port, 8, &b"resp"[..]);
        resp.remote_disposition = PortDisposition::MoveSendOnce;
        ipc.send(&mut api, server, resp).unwrap();
        let got = ipc.receive(&mut api, client, cli_reply).unwrap();
        assert_eq!(got.msg_id, 8);
        assert_eq!(&got.body[..], b"resp");
        ipc.check_invariants();
    }

    #[test]
    fn port_right_transfer_in_body() {
        let (mut ipc, mut api) = setup();
        let a = ipc.create_space();
        let b = ipc.create_space();
        // a creates a port and sends b a send right to it.
        let chan = ipc.alloc_receive(&mut api, a).unwrap();
        let b_recv = ipc.alloc_receive(&mut api, b).unwrap();
        let b_send_in_b = ipc.insert_send(b, b_recv).unwrap();
        let b_send_in_a = ipc.copy_send(b, b_send_in_b, a).unwrap();

        let mut msg = UserMessage::simple(b_send_in_a.name(), 1, &b""[..]);
        msg.ports.push(PortDescriptor {
            name: chan.name(),
            disposition: PortDisposition::MakeSend,
        });
        ipc.send(&mut api, a, msg).unwrap();
        ipc.check_invariants();

        let got = ipc.receive(&mut api, b, b_recv).unwrap();
        assert_eq!(got.ports.len(), 1);
        // b can now send to a's port.
        ipc.send(
            &mut api,
            b,
            UserMessage::simple(got.ports[0], 2, &b"via right"[..]),
        )
        .unwrap();
        let m = ipc.receive(&mut api, a, chan).unwrap();
        assert_eq!(m.msg_id, 2);
        ipc.check_invariants();
    }

    #[test]
    fn move_receive_right() {
        let (mut ipc, mut api) = setup();
        let a = ipc.create_space();
        let b = ipc.create_space();
        let chan = ipc.alloc_receive(&mut api, a).unwrap();
        let b_recv = ipc.alloc_receive(&mut api, b).unwrap();
        let to_b = {
            let s = ipc.insert_send(b, b_recv).unwrap();
            ipc.copy_send(b, s, a).unwrap()
        };
        let mut msg = UserMessage::simple(to_b.name(), 9, &b""[..]);
        msg.ports.push(PortDescriptor {
            name: chan.name(),
            disposition: PortDisposition::MoveReceive,
        });
        ipc.send(&mut api, a, msg).unwrap();
        let got = ipc.receive(&mut api, b, b_recv).unwrap();
        let new_recv = ipc.receive_right(b, got.ports[0]).unwrap();
        // b now owns the receive right; a's name is gone.
        assert!(ipc.queued(b, new_recv.name()).is_ok());
        assert!(ipc.queued(a, chan.name()).is_err());
        ipc.check_invariants();
    }

    #[test]
    fn qlimit_enforced() {
        let (mut ipc, mut api) = setup();
        let s = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, s).unwrap();
        let send = ipc.insert_send(s, recv).unwrap();
        for i in 0..crate::ipc::port::QLIMIT_DEFAULT {
            ipc.send(
                &mut api,
                s,
                UserMessage::simple(send.name(), i as i32, &b""[..]),
            )
            .unwrap();
        }
        assert_eq!(
            ipc.send(
                &mut api,
                s,
                UserMessage::simple(send.name(), 99, &b""[..])
            )
            .unwrap_err(),
            KernReturn::SendTooLarge
        );
        ipc.set_qlimit(s, recv.name(), crate::ipc::port::QLIMIT_MAX)
            .unwrap();
        ipc.send(&mut api, s, UserMessage::simple(send.name(), 99, &b""[..]))
            .unwrap();
        ipc.check_invariants();
    }

    #[test]
    fn dead_port_send_fails_and_names_go_dead() {
        let (mut ipc, mut api) = setup();
        let srv = ipc.create_space();
        let cli = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, srv).unwrap();
        let s0 = ipc.insert_send(srv, recv).unwrap();
        let s1 = ipc.copy_send(srv, s0, cli).unwrap();
        ipc.port_destroy(&mut api, srv, recv.name()).unwrap();
        assert_eq!(
            ipc.send(
                &mut api,
                cli,
                UserMessage::simple(s1.name(), 0, &b""[..])
            )
            .unwrap_err(),
            KernReturn::SendInvalidDest
        );
        ipc.check_invariants();
    }

    #[test]
    fn no_senders_notification_fires() {
        let (mut ipc, mut api) = setup();
        let srv = ipc.create_space();
        let service = ipc.alloc_receive(&mut api, srv).unwrap();
        let notify = ipc.alloc_receive(&mut api, srv).unwrap();
        // Arm: mint a send-once right targeting the notify port.
        let sonce = ipc.insert_send_once(srv, notify).unwrap();
        ipc.arm_no_senders(srv, service.name(), sonce.name())
            .unwrap();

        // One send right exists, then is dropped.
        let send = ipc.insert_send(srv, service).unwrap();
        ipc.port_deallocate(&mut api, srv, send.name()).unwrap();

        assert_eq!(ipc.stats.no_senders_fired, 1);
        let got = ipc.receive(&mut api, srv, notify).unwrap();
        assert_eq!(got.msg_id, notify_ids::NO_SENDERS);
        ipc.check_invariants();
    }

    #[test]
    fn destroy_space_releases_everything() {
        let (mut ipc, mut api) = setup();
        let a = ipc.create_space();
        let b = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, a).unwrap();
        let s = ipc.insert_send(a, recv).unwrap();
        ipc.copy_send(a, s, b).unwrap();
        assert_eq!(ipc.live_ports(), 1);
        ipc.destroy_space(&mut api, a).unwrap();
        // Port died with its receive right.
        assert_eq!(ipc.live_ports(), 0);
        ipc.check_invariants();
    }

    #[test]
    fn copy_send_disposition_preserves_sender_right() {
        let (mut ipc, mut api) = setup();
        let s = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, s).unwrap();
        let send = ipc.insert_send(s, recv).unwrap();
        ipc.send(&mut api, s, UserMessage::simple(send.name(), 1, &b""[..]))
            .unwrap();
        // CopySend: the sender still holds its right.
        assert!(ipc.send_right(s, send.name()).is_ok());
        ipc.check_invariants();
    }

    #[test]
    fn stats_track_traffic() {
        let (mut ipc, mut api) = setup();
        let s = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, s).unwrap();
        let send = ipc.insert_send(s, recv).unwrap();
        ipc.send(
            &mut api,
            s,
            UserMessage::simple(send.name(), 1, &b"xyz"[..]),
        )
        .unwrap();
        ipc.receive(&mut api, s, recv).unwrap();
        assert_eq!(ipc.stats.msgs_sent, 1);
        assert_eq!(ipc.stats.msgs_received, 1);
        assert_eq!(ipc.stats.bytes_moved, 3);
    }

    #[test]
    fn typed_resolvers_reject_wrong_kinds() {
        let (mut ipc, mut api) = setup();
        let s = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, s).unwrap();
        let send = ipc.insert_send(s, recv).unwrap();
        assert_eq!(
            ipc.receive_right(s, send.name()).unwrap_err(),
            KernReturn::InvalidRight
        );
        assert_eq!(
            ipc.send_right(s, recv.name()).unwrap_err(),
            KernReturn::InvalidRight
        );
        assert!(ipc.receive_right(s, recv.name()).is_ok());
        assert!(ipc.send_right(s, send.name()).is_ok());
    }

    #[test]
    fn v2_send_receive_skips_the_subsystem_mutex() {
        let (mut ipc, mut api) = setup();
        ipc.set_v2(true);
        let s = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, s).unwrap();
        let send = ipc.insert_send(s, recv).unwrap();
        let locks_before = api.lock_ops.len();
        ipc.send(
            &mut api,
            s,
            UserMessage::simple(send.name(), 5, &b"fast"[..]),
        )
        .unwrap();
        let got = ipc.receive(&mut api, s, recv).unwrap();
        assert_eq!(got.msg_id, 5);
        // No lck_mtx traffic on the v2 message path.
        assert_eq!(api.lock_ops.len(), locks_before);
        // Inline payload was charged through copyin (send + receive).
        assert_eq!(api.copied_bytes, 8);
        ipc.check_invariants();
    }

    #[test]
    fn v2_large_ool_remaps_instead_of_copying() {
        let (mut ipc, mut api) = setup();
        ipc.set_v2(true);
        let s = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, s).unwrap();
        let send = ipc.insert_send(s, recv).unwrap();
        let mut msg = UserMessage::simple(send.name(), 1, &b""[..]);
        msg.ool.push(Bytes::from(vec![0xAB; 16 * 1024]));
        ipc.send(&mut api, s, msg).unwrap();
        assert_eq!(api.remapped_pages, 4);
        assert_eq!(ipc.stats.ool_bytes_remapped, 16 * 1024);
        assert_eq!(api.copied_bytes, 0);
        let got = ipc.receive(&mut api, s, recv).unwrap();
        assert_eq!(got.ool[0].len(), 16 * 1024);
    }

    #[test]
    fn v2_ool_falls_back_to_copy_when_remap_refused() {
        let (mut ipc, mut api) = setup();
        ipc.set_v2(true);
        api.refuse_remap = true;
        let s = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, s).unwrap();
        let send = ipc.insert_send(s, recv).unwrap();
        let mut msg = UserMessage::simple(send.name(), 1, &b""[..]);
        msg.ool.push(Bytes::from(vec![0xCD; 8192]));
        ipc.send(&mut api, s, msg).unwrap();
        // Degraded gracefully: bytes were copied inline, none remapped.
        assert_eq!(api.remapped_pages, 0);
        assert_eq!(ipc.stats.ool_bytes_remapped, 0);
        assert_eq!(api.copied_bytes, 8192);
        let got = ipc.receive(&mut api, s, recv).unwrap();
        assert_eq!(got.ool[0].len(), 8192);
    }

    #[test]
    fn delivery_stays_fifo_across_senders_and_a_mid_run_v2_flip() {
        let (mut ipc, mut api) = setup();
        let srv = ipc.create_space();
        let a = ipc.create_space();
        let b = ipc.create_space();
        let recv = ipc.alloc_receive(&mut api, srv).unwrap();
        ipc.set_qlimit(srv, recv.name(), crate::ipc::port::QLIMIT_MAX)
            .unwrap();
        let send = ipc.insert_send(srv, recv).unwrap();
        let to_a = ipc.copy_send(srv, send, a).unwrap();
        let to_b = ipc.copy_send(srv, send, b).unwrap();
        let mut sent = Vec::new();
        for id in 0..8 {
            if id == 4 {
                ipc.set_v2(true);
            }
            // Alternate senders; odd ids also carry a reply right so
            // rights in transit are covered by the invariant check.
            let (space, dest) =
                if id % 2 == 0 { (a, to_a) } else { (b, to_b) };
            let mut msg = UserMessage::simple(dest.name(), id, &b"m"[..]);
            if id % 2 == 1 {
                msg.local_port =
                    ipc.alloc_receive(&mut api, b).unwrap().name();
            }
            ipc.send(&mut api, space, msg).unwrap();
            sent.push(id);
            ipc.check_invariants();
        }
        let mut got = Vec::new();
        while let Ok(m) = ipc.receive(&mut api, srv, recv) {
            got.push(m.msg_id);
            ipc.check_invariants();
        }
        assert_eq!(got, sent);
    }
}
