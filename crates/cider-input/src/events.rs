//! Input event formats on both sides of the bridge, and the translation
//! between them.
//!
//! Android delivers `MotionEvent`s from the kernel input subsystem;
//! iOS apps expect IOHID-style events on a Mach port (paper §5.2).
//! Cider "simply reads events from the Android input system, translates
//! them as necessary into a format understood by iOS apps".

use cider_abi::bytes::{ByteReader, ByteWriter};
use cider_abi::errno::Errno;

/// Android motion-event actions. The discriminant is the bridge wire
/// code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MotionAction {
    /// First finger down.
    Down = 0,
    /// Any pointer moved.
    Move = 1,
    /// Last finger up.
    Up = 2,
    /// An additional finger down.
    PointerDown = 3,
    /// A non-last finger up.
    PointerUp = 4,
}

/// One touch point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pointer {
    /// Stable pointer id.
    pub id: u8,
    /// X in screen pixels.
    pub x: i32,
    /// Y in screen pixels.
    pub y: i32,
}

/// An event from the Android input subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AndroidEvent {
    /// A multi-touch motion event.
    Motion {
        /// Action.
        action: MotionAction,
        /// Active pointers.
        pointers: Vec<Pointer>,
        /// Event time, virtual ns.
        time_ns: u64,
    },
    /// An accelerometer sample (milli-g per axis).
    Accelerometer {
        /// X axis.
        x: i32,
        /// Y axis.
        y: i32,
        /// Z axis.
        z: i32,
        /// Sample time, virtual ns.
        time_ns: u64,
    },
    /// A key/button event.
    Key {
        /// Key code.
        code: u32,
        /// Pressed (true) or released.
        down: bool,
        /// Event time, virtual ns.
        time_ns: u64,
    },
}

/// IOHID-style event phases iOS gesture recognisers consume. The
/// discriminant is the HID body wire code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TouchPhase {
    /// Touch began.
    Began = 0,
    /// Touch moved.
    Moved = 1,
    /// Touch ended.
    Ended = 2,
}

/// An event in the format iOS apps expect on their event port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IosHidEvent {
    /// A touch-collection event.
    Touch {
        /// Phase.
        phase: TouchPhase,
        /// Touches (pointer id, x, y).
        touches: Vec<Pointer>,
        /// Mach absolute time.
        timestamp: u64,
    },
    /// An accelerometer sample in micro-g (iOS uses finer units).
    Accelerometer {
        /// X axis.
        x: i64,
        /// Y axis.
        y: i64,
        /// Z axis.
        z: i64,
        /// Mach absolute time.
        timestamp: u64,
    },
    /// A button event.
    Button {
        /// HID usage code.
        usage: u32,
        /// Pressed?
        down: bool,
        /// Mach absolute time.
        timestamp: u64,
    },
}

/// Translates an Android event into the iOS format.
pub fn translate(e: &AndroidEvent) -> IosHidEvent {
    match e {
        AndroidEvent::Motion {
            action,
            pointers,
            time_ns,
        } => {
            let phase = match action {
                MotionAction::Down | MotionAction::PointerDown => {
                    TouchPhase::Began
                }
                MotionAction::Move => TouchPhase::Moved,
                MotionAction::Up | MotionAction::PointerUp => {
                    TouchPhase::Ended
                }
            };
            IosHidEvent::Touch {
                phase,
                touches: pointers.clone(),
                timestamp: *time_ns,
            }
        }
        AndroidEvent::Accelerometer { x, y, z, time_ns } => {
            IosHidEvent::Accelerometer {
                x: *x as i64 * 1000,
                y: *y as i64 * 1000,
                z: *z as i64 * 1000,
                timestamp: *time_ns,
            }
        }
        AndroidEvent::Key {
            code,
            down,
            time_ns,
        } => IosHidEvent::Button {
            usage: *code,
            down: *down,
            timestamp: *time_ns,
        },
    }
}

// ----------------------------------------------------------------------
// Wire format across the CiderPress → eventpump BSD socket.
// ----------------------------------------------------------------------

/// Touch points on the wire: a `u8` count, then id, x, y per point.
fn put_pointers(w: &mut ByteWriter, pointers: &[Pointer]) {
    w.put_u8(pointers.len() as u8);
    for p in pointers {
        w.put_u8(p.id);
        w.put_i32(p.x);
        w.put_i32(p.y);
    }
}

fn pointers(r: &mut ByteReader<'_, Errno>) -> Result<Vec<Pointer>, Errno> {
    let n = r.u8()?;
    let mut pointers = Vec::with_capacity(n as usize);
    for _ in 0..n {
        pointers.push(Pointer {
            id: r.u8()?,
            x: r.i32()?,
            y: r.i32()?,
        });
    }
    Ok(pointers)
}

/// Encodes an Android event for the bridge socket.
pub fn encode(e: &AndroidEvent) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32);
    match e {
        AndroidEvent::Motion {
            action,
            pointers,
            time_ns,
        } => {
            w.put_u8(1);
            w.put_u8(*action as u8);
            w.put_u64(*time_ns);
            put_pointers(&mut w, pointers);
        }
        AndroidEvent::Accelerometer { x, y, z, time_ns } => {
            w.put_u8(2);
            w.put_u64(*time_ns);
            w.put_i32(*x);
            w.put_i32(*y);
            w.put_i32(*z);
        }
        AndroidEvent::Key {
            code,
            down,
            time_ns,
        } => {
            w.put_u8(3);
            w.put_u64(*time_ns);
            w.put_u32(*code);
            w.put_u8(u8::from(*down));
        }
    }
    let body = w.as_slice();
    let mut framed = ByteWriter::with_capacity(body.len() + 2);
    framed.put_u16(body.len() as u16);
    framed.put_raw(body);
    framed.into_bytes()
}

/// Decodes one framed event from the socket stream; returns the event
/// and bytes consumed, or `Ok(None)` when the buffer holds a partial
/// frame.
///
/// # Errors
///
/// `EINVAL` for corrupt frames.
pub fn decode(buf: &[u8]) -> Result<Option<(AndroidEvent, usize)>, Errno> {
    let mut frame = ByteReader::new(buf, ());
    let Ok(len) = frame.u16() else {
        return Ok(None);
    };
    let Ok(body) = frame.raw(len as usize) else {
        return Ok(None);
    };
    let mut r = ByteReader::new(body, Errno::EINVAL);
    let ev = match r.u8()? {
        1 => AndroidEvent::Motion {
            action: match r.u8()? {
                0 => MotionAction::Down,
                1 => MotionAction::Move,
                2 => MotionAction::Up,
                3 => MotionAction::PointerDown,
                4 => MotionAction::PointerUp,
                _ => return Err(Errno::EINVAL),
            },
            time_ns: r.u64()?,
            pointers: pointers(&mut r)?,
        },
        2 => AndroidEvent::Accelerometer {
            time_ns: r.u64()?,
            x: r.i32()?,
            y: r.i32()?,
            z: r.i32()?,
        },
        3 => AndroidEvent::Key {
            time_ns: r.u64()?,
            code: r.u32()?,
            down: r.u8()? != 0,
        },
        _ => return Err(Errno::EINVAL),
    };
    Ok(Some((ev, 2 + body.len())))
}

// ----------------------------------------------------------------------
// Wire format of translated events inside Mach messages (eventpump →
// app event port).
// ----------------------------------------------------------------------

/// Encodes an iOS HID event into a Mach message body.
pub fn encode_ios(e: &IosHidEvent) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(32);
    match e {
        IosHidEvent::Touch {
            phase,
            touches,
            timestamp,
        } => {
            w.put_u8(1);
            w.put_u8(*phase as u8);
            w.put_u64(*timestamp);
            put_pointers(&mut w, touches);
        }
        IosHidEvent::Accelerometer { x, y, z, timestamp } => {
            w.put_u8(2);
            w.put_u64(*timestamp);
            w.put_i64(*x);
            w.put_i64(*y);
            w.put_i64(*z);
        }
        IosHidEvent::Button {
            usage,
            down,
            timestamp,
        } => {
            w.put_u8(3);
            w.put_u64(*timestamp);
            w.put_u32(*usage);
            w.put_u8(u8::from(*down));
        }
    }
    w.into_bytes()
}

/// Decodes an iOS HID event from a Mach message body.
///
/// # Errors
///
/// `EINVAL` for corrupt bodies.
pub fn decode_ios(b: &[u8]) -> Result<IosHidEvent, Errno> {
    let mut r = ByteReader::new(b, Errno::EINVAL);
    Ok(match r.u8()? {
        1 => IosHidEvent::Touch {
            phase: match r.u8()? {
                0 => TouchPhase::Began,
                1 => TouchPhase::Moved,
                2 => TouchPhase::Ended,
                _ => return Err(Errno::EINVAL),
            },
            timestamp: r.u64()?,
            touches: pointers(&mut r)?,
        },
        2 => IosHidEvent::Accelerometer {
            timestamp: r.u64()?,
            x: r.i64()?,
            y: r.i64()?,
            z: r.i64()?,
        },
        3 => IosHidEvent::Button {
            timestamp: r.u64()?,
            usage: r.u32()?,
            down: r.u8()? != 0,
        },
        _ => return Err(Errno::EINVAL),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_motion() -> AndroidEvent {
        AndroidEvent::Motion {
            action: MotionAction::Move,
            pointers: vec![
                Pointer {
                    id: 0,
                    x: 100,
                    y: 200,
                },
                Pointer {
                    id: 1,
                    x: -5,
                    y: 700,
                },
            ],
            time_ns: 123_456,
        }
    }

    #[test]
    fn translate_touch_phases() {
        let ios = translate(&sample_motion());
        let IosHidEvent::Touch { phase, touches, .. } = ios else {
            panic!("expected touch")
        };
        assert_eq!(phase, TouchPhase::Moved);
        assert_eq!(touches.len(), 2);
    }

    #[test]
    fn translate_accelerometer_scales_units() {
        let a = AndroidEvent::Accelerometer {
            x: 10,
            y: -20,
            z: 1000,
            time_ns: 5,
        };
        let IosHidEvent::Accelerometer { x, z, .. } = translate(&a) else {
            panic!("expected accel")
        };
        assert_eq!(x, 10_000);
        assert_eq!(z, 1_000_000);
    }

    #[test]
    fn wire_roundtrip_all_kinds() {
        for ev in [
            sample_motion(),
            AndroidEvent::Accelerometer {
                x: 1,
                y: 2,
                z: 3,
                time_ns: 9,
            },
            AndroidEvent::Key {
                code: 24,
                down: true,
                time_ns: 77,
            },
        ] {
            let bytes = encode(&ev);
            let (decoded, consumed) = decode(&bytes).unwrap().unwrap();
            assert_eq!(decoded, ev);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn partial_frames_wait_for_more() {
        let bytes = encode(&sample_motion());
        assert_eq!(decode(&bytes[..1]).unwrap(), None);
        assert_eq!(decode(&bytes[..bytes.len() - 1]).unwrap(), None);
    }

    #[test]
    fn stream_of_frames_decodes_sequentially() {
        let a = sample_motion();
        let b = AndroidEvent::Key {
            code: 1,
            down: false,
            time_ns: 2,
        };
        let mut stream = encode(&a);
        stream.extend(encode(&b));
        let (d1, c1) = decode(&stream).unwrap().unwrap();
        assert_eq!(d1, a);
        let (d2, _) = decode(&stream[c1..]).unwrap().unwrap();
        assert_eq!(d2, b);
    }

    #[test]
    fn corrupt_frame_rejected() {
        let mut bytes = encode(&sample_motion());
        bytes[2] = 99; // bogus kind
        assert_eq!(decode(&bytes), Err(Errno::EINVAL));
    }

    #[test]
    fn ios_wire_roundtrip() {
        let events = [
            translate(&sample_motion()),
            IosHidEvent::Accelerometer {
                x: 1,
                y: -2,
                z: 3,
                timestamp: 10,
            },
            IosHidEvent::Button {
                usage: 7,
                down: true,
                timestamp: 20,
            },
        ];
        for e in events {
            let bytes = encode_ios(&e);
            assert_eq!(decode_ios(&bytes).unwrap(), e);
        }
        assert_eq!(decode_ios(&[99]), Err(Errno::EINVAL));
    }
}
