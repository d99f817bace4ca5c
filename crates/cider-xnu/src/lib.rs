//! The foreign (XNU-flavoured) kernel source corpus for the Cider
//! reproduction.
//!
//! Cider's *duct tape* mechanism compiles unmodified foreign kernel code
//! into the domestic kernel (paper §4.2). This crate plays the role of
//! that foreign source tree: the three subsystems the paper imports —
//! kernel-side pthread support ([`psynch`]), Mach IPC ([`ipc`]), and
//! Apple's I/O Kit driver framework ([`iokit`]) — plus the `queue.h`
//! structures ([`queue`]) and `kern_return_t` codes ([`kern_return`])
//! they rely on.
//!
//! **Zone discipline.** Nothing here references the domestic kernel.
//! Every kernel service (locking, zone allocation, thread block/wakeup,
//! time) is reached through the [`api::ForeignKernelApi`] trait — the set
//! of "external symbols" that the duct-tape layer (`cider-ducttape`)
//! remaps onto domestic primitives. Unit tests exercise the subsystems
//! against [`api::MockForeignKernel`], proving the code is genuinely
//! host-independent.
//!
//! **One IPC data model.** Every Mach port keeps plain send/send-once
//! counts and one FIFO [`queue::XnuQueue`] of messages, reached only
//! through the typed rights API below. IPC v2
//! ([`ipc::MachIpc::set_v2`]) is a cost policy, not a second path: it
//! swaps the subsystem-mutex crossings for `copyin` and out-of-line
//! page remap charges.
//!
//! # Example
//!
//! ```
//! use cider_xnu::api::MockForeignKernel;
//! use cider_xnu::ipc::{MachIpc, UserMessage};
//!
//! let mut api = MockForeignKernel::new();
//! let mut ipc = MachIpc::new();
//! ipc.bootstrap(&mut api);
//! let task = ipc.create_space();
//! // The typed rights API: allocation yields a ReceiveRight, minting a
//! // SendRight requires one — mismatches are compile errors, not traps.
//! let recv = ipc.alloc_receive(&mut api, task)?;
//! let send = ipc.insert_send(task, recv)?;
//! let msg = UserMessage::simple(send.name(), 1, &b"hi"[..]);
//! ipc.send(&mut api, task, msg)?;
//! let got = ipc.receive(&mut api, task, recv)?;
//! assert_eq!(&got.body[..], b"hi");
//! # Ok::<(), cider_xnu::kern_return::KernReturn>(())
//! ```

pub mod api;
pub mod iokit;
pub mod ipc;
pub mod kern_return;
pub mod psynch;
pub mod queue;

pub use api::{ForeignKernelApi, ForeignThread};
pub use kern_return::{KernResult, KernReturn};
