//! Wire encoding of Mach messages across the user/kernel boundary.
//!
//! `mach_msg` takes a message *buffer*; the trap-level interface
//! therefore serialises [`UserMessage`]s into bytes (what user space
//! hands the kernel) and [`ReceivedMessage`]s back (what the kernel
//! writes into the caller's buffer). A short buffer decodes to
//! `EFAULT`, as any truncated user-space buffer does.

use bytes::Bytes;
use cider_abi::bytes::{ByteReader, ByteWriter};
use cider_abi::errno::Errno;
use cider_abi::ids::PortName;
use cider_xnu::ipc::{
    PortDescriptor, PortDisposition, ReceivedMessage, UserMessage,
};
use cider_xnu::kern_return::KernReturn;

use crate::ring::{RingCompletion, RingOp};

fn disp_to_u8(d: PortDisposition) -> u8 {
    match d {
        PortDisposition::MoveReceive => 16,
        PortDisposition::MoveSend => 17,
        PortDisposition::MoveSendOnce => 18,
        PortDisposition::CopySend => 19,
        PortDisposition::MakeSend => 20,
        PortDisposition::MakeSendOnce => 21,
    }
}

/// Reads a disposition byte; an unknown one is `EINVAL`.
fn disp(r: &mut ByteReader<'_, Errno>) -> Result<PortDisposition, Errno> {
    Ok(match r.u8()? {
        16 => PortDisposition::MoveReceive,
        17 => PortDisposition::MoveSend,
        18 => PortDisposition::MoveSendOnce,
        19 => PortDisposition::CopySend,
        20 => PortDisposition::MakeSend,
        21 => PortDisposition::MakeSendOnce,
        _ => return Err(Errno::EINVAL),
    })
}

/// Reads a length-prefixed blob; anything over 16 MiB is `EMSGSIZE`.
fn blob<'a>(r: &mut ByteReader<'a, Errno>) -> Result<&'a [u8], Errno> {
    let len = r.u32()? as usize;
    if len > 16 * 1024 * 1024 {
        return Err(Errno::EMSGSIZE);
    }
    r.raw(len)
}

/// Reads a descriptor or OOL count; more than 64 is `EMSGSIZE`.
fn count(r: &mut ByteReader<'_, Errno>) -> Result<usize, Errno> {
    let n = r.u32()?;
    if n > 64 {
        return Err(Errno::EMSGSIZE);
    }
    Ok(n as usize)
}

fn put_ool(w: &mut ByteWriter, ool: &[Bytes]) {
    w.put_u32(ool.len() as u32);
    for o in ool {
        w.put_bytes(o);
    }
}

fn ool(r: &mut ByteReader<'_, Errno>) -> Result<Vec<Bytes>, Errno> {
    let n = count(r)?;
    let mut ool = Vec::with_capacity(n);
    for _ in 0..n {
        ool.push(Bytes::copy_from_slice(blob(r)?));
    }
    Ok(ool)
}

/// Encodes a user message into its trap buffer form.
pub fn encode_user_message(m: &UserMessage) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + m.body.len());
    w.put_u32(m.remote_port.as_raw());
    w.put_u8(disp_to_u8(m.remote_disposition));
    w.put_u32(m.local_port.as_raw());
    w.put_u8(disp_to_u8(m.local_disposition));
    w.put_i32(m.msg_id);
    w.put_bytes(&m.body);
    w.put_u32(m.ports.len() as u32);
    for p in &m.ports {
        w.put_u32(p.name.as_raw());
        w.put_u8(disp_to_u8(p.disposition));
    }
    put_ool(&mut w, &m.ool);
    w.into_bytes()
}

/// Decodes a trap buffer back into a user message.
///
/// # Errors
///
/// `EFAULT` on truncation, `EINVAL` on bad dispositions, `EMSGSIZE` on
/// absurd lengths.
pub fn decode_user_message(bytes: &[u8]) -> Result<UserMessage, Errno> {
    let r = &mut ByteReader::new(bytes, Errno::EFAULT);
    let remote_port = PortName(r.u32()?);
    let remote_disposition = disp(r)?;
    let local_port = PortName(r.u32()?);
    let local_disposition = disp(r)?;
    let msg_id = r.i32()?;
    let body = Bytes::copy_from_slice(blob(r)?);
    let nports = count(r)?;
    let mut ports = Vec::with_capacity(nports);
    for _ in 0..nports {
        let name = PortName(r.u32()?);
        let disposition = disp(r)?;
        ports.push(PortDescriptor { name, disposition });
    }
    Ok(UserMessage {
        remote_port,
        remote_disposition,
        local_port,
        local_disposition,
        msg_id,
        body,
        ports,
        ool: ool(r)?,
    })
}

/// Encodes a received message into the caller's buffer form.
pub fn encode_received_message(m: &ReceivedMessage) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32 + m.body.len());
    w.put_i32(m.msg_id);
    w.put_u32(m.reply_port.as_raw());
    w.put_bytes(&m.body);
    w.put_u32(m.ports.len() as u32);
    for p in &m.ports {
        w.put_u32(p.as_raw());
    }
    put_ool(&mut w, &m.ool);
    w.into_bytes()
}

/// Decodes a received-message buffer (used by user-space stand-ins).
///
/// # Errors
///
/// `EFAULT` on truncation.
pub fn decode_received_message(
    bytes: &[u8],
) -> Result<ReceivedMessage, Errno> {
    let r = &mut ByteReader::new(bytes, Errno::EFAULT);
    let msg_id = r.i32()?;
    let reply_port = PortName(r.u32()?);
    let body = Bytes::copy_from_slice(blob(r)?);
    let nports = count(r)?;
    let mut ports = Vec::with_capacity(nports);
    for _ in 0..nports {
        ports.push(PortName(r.u32()?));
    }
    Ok(ReceivedMessage {
        msg_id,
        body,
        reply_port,
        ports,
        ool: ool(r)?,
    })
}

/// Encodes a batch of ring submissions into the `ring_submit` trap
/// buffer form.
pub fn encode_ring_ops(ops: &[RingOp]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(8 + 16 * ops.len());
    w.put_u32(ops.len() as u32);
    for op in ops {
        match op {
            RingOp::Send(m) => {
                w.put_u8(1);
                w.put_bytes(&encode_user_message(m));
            }
            RingOp::Recv(name) => {
                w.put_u8(2);
                w.put_u32(name.as_raw());
            }
        }
    }
    w.into_bytes()
}

/// Decodes a `ring_submit` trap buffer back into ring submissions.
///
/// # Errors
///
/// `EFAULT` on truncation, `EINVAL` on unknown tags, `EMSGSIZE` on
/// absurd batch sizes.
pub fn decode_ring_ops(bytes: &[u8]) -> Result<Vec<RingOp>, Errno> {
    let r = &mut ByteReader::new(bytes, Errno::EFAULT);
    let n = r.u32()?;
    if n as usize > 4 * crate::ring::RING_CAPACITY {
        return Err(Errno::EMSGSIZE);
    }
    let mut ops = Vec::with_capacity(n as usize);
    for _ in 0..n {
        match r.u8()? {
            1 => ops.push(RingOp::Send(decode_user_message(blob(r)?)?)),
            2 => ops.push(RingOp::Recv(PortName(r.u32()?))),
            _ => return Err(Errno::EINVAL),
        }
    }
    Ok(ops)
}

/// Encodes a batch of ring completions into the `ring_flush` result
/// buffer form.
pub fn encode_ring_completions(cs: &[RingCompletion]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(8 + 16 * cs.len());
    w.put_u32(cs.len() as u32);
    for c in cs {
        w.put_u64(c.seq);
        w.put_i32(c.kr.as_raw() as i32);
        match &c.received {
            Some(m) => {
                w.put_u8(1);
                w.put_bytes(&encode_received_message(m));
            }
            None => w.put_u8(0),
        }
    }
    w.into_bytes()
}

/// Decodes a `ring_flush` result buffer back into completions (used by
/// user-space stand-ins).
///
/// # Errors
///
/// `EFAULT` on truncation, `EINVAL` on unknown codes or flags.
pub fn decode_ring_completions(
    bytes: &[u8],
) -> Result<Vec<RingCompletion>, Errno> {
    let r = &mut ByteReader::new(bytes, Errno::EFAULT);
    let n = r.u32()?;
    if n > 4096 {
        return Err(Errno::EMSGSIZE);
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let seq = r.u64()?;
        let kr = KernReturn::from_raw(r.i32()? as i64).ok_or(Errno::EINVAL)?;
        let received = match r.u8()? {
            0 => None,
            1 => Some(decode_received_message(blob(r)?)?),
            _ => return Err(Errno::EINVAL),
        };
        out.push(RingCompletion { seq, kr, received });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_message_roundtrip() {
        let mut m = UserMessage::simple(PortName(0x103), 42, &b"payload"[..]);
        m.local_port = PortName(0x107);
        m.ports.push(PortDescriptor {
            name: PortName(0x10b),
            disposition: PortDisposition::MakeSend,
        });
        m.ool.push(Bytes::from(vec![9u8; 300]));
        let bytes = encode_user_message(&m);
        assert_eq!(decode_user_message(&bytes).unwrap(), m);
    }

    #[test]
    fn received_message_roundtrip() {
        let m = ReceivedMessage {
            msg_id: -7,
            body: Bytes::from(&b"resp"[..]),
            reply_port: PortName(0x203),
            ports: vec![PortName(0x207), PortName(0x20b)],
            ool: vec![Bytes::from(&b"ool"[..])],
        };
        let bytes = encode_received_message(&m);
        assert_eq!(decode_received_message(&bytes).unwrap(), m);
    }

    #[test]
    fn truncation_is_efault() {
        let m = UserMessage::simple(PortName(1), 0, &b"x"[..]);
        let bytes = encode_user_message(&m);
        assert_eq!(
            decode_user_message(&bytes[..bytes.len() - 1]),
            Err(Errno::EFAULT)
        );
    }

    #[test]
    fn ring_ops_roundtrip() {
        let ops = vec![
            RingOp::Send(UserMessage::simple(PortName(0x103), 9, &b"rq"[..])),
            RingOp::Recv(PortName(0x107)),
        ];
        let bytes = encode_ring_ops(&ops);
        assert_eq!(decode_ring_ops(&bytes).unwrap(), ops);
        assert_eq!(decode_ring_ops(&bytes[..3]), Err(Errno::EFAULT));
    }

    #[test]
    fn ring_completions_roundtrip() {
        let cs = vec![
            RingCompletion {
                seq: 0,
                kr: KernReturn::Success,
                received: None,
            },
            RingCompletion {
                seq: 1,
                kr: KernReturn::Success,
                received: Some(ReceivedMessage {
                    msg_id: 9,
                    body: Bytes::from(&b"rq"[..]),
                    reply_port: PortName::NULL,
                    ports: Vec::new(),
                    ool: Vec::new(),
                }),
            },
            RingCompletion {
                seq: 2,
                kr: KernReturn::RcvTimedOut,
                received: None,
            },
        ];
        let bytes = encode_ring_completions(&cs);
        assert_eq!(decode_ring_completions(&bytes).unwrap(), cs);
    }

    #[test]
    fn bad_disposition_is_einval() {
        let m = UserMessage::simple(PortName(1), 0, &b""[..]);
        let mut bytes = encode_user_message(&m);
        bytes[4] = 99; // remote disposition byte
        assert_eq!(decode_user_message(&bytes), Err(Errno::EINVAL));
    }
}
