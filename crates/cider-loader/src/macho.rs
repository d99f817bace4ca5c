//! The simulated Mach-O container format.
//!
//! iOS apps "are loaded directly by a kernel-level Mach-O loader which
//! interprets the binary, loads its text and data segments, and jumps to
//! the app entry point" (paper §2). Real Mach-O is a well-documented
//! Apple format; this module defines a faithful *miniature*: the same
//! magic, CPU type, file types, and load-command structure (segments,
//! dylib dependencies, entry point, encryption info, UUID), with a
//! compact binary serialisation so images can live in the simulated VFS
//! and be parsed — and rejected — the way the kernel loader would.

use cider_abi::bytes::{ByteReader, ByteWriter};
use cider_abi::errno::Errno;

/// `MH_MAGIC` for 32-bit ARM Mach-O.
pub const MH_MAGIC: u32 = 0xFEED_FACE;
/// `CPU_TYPE_ARM`.
pub const CPU_TYPE_ARM: u32 = 12;

/// Mach-O file types we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// `MH_EXECUTE` — a main binary.
    Execute,
    /// `MH_DYLIB` — a dynamic library.
    Dylib,
}

impl FileType {
    fn as_raw(self) -> u32 {
        match self {
            FileType::Execute => 2,
            FileType::Dylib => 6,
        }
    }

    fn from_raw(raw: u32) -> Option<FileType> {
        match raw {
            2 => Some(FileType::Execute),
            6 => Some(FileType::Dylib),
            _ => None,
        }
    }
}

/// A load command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadCommand {
    /// `LC_SEGMENT`: a mapped segment.
    Segment {
        /// Segment name (`__TEXT`, `__DATA`, ...).
        name: String,
        /// Virtual size in bytes (what the loader maps).
        vmsize: u64,
        /// Writable segment?
        writable: bool,
        /// Executable segment?
        executable: bool,
    },
    /// `LC_LOAD_DYLIB`: a dependency.
    LoadDylib {
        /// Install path of the dependency.
        path: String,
    },
    /// `LC_MAIN`: the entry point, named symbolically for the simulator's
    /// program registry.
    Main {
        /// Behaviour key in the kernel program registry.
        entry_symbol: String,
    },
    /// `LC_ENCRYPTION_INFO`: App Store FairPlay encryption state.
    EncryptionInfo {
        /// Non-zero = encrypted (`cryptid`).
        cryptid: u32,
    },
    /// `LC_UUID`.
    Uuid {
        /// The image UUID.
        uuid: [u8; 16],
    },
}

/// A parsed (or to-be-serialised) Mach-O image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachO {
    /// CPU type (must be ARM to load).
    pub cpu_type: u32,
    /// File type.
    pub filetype: FileType,
    /// Load commands in order.
    pub commands: Vec<LoadCommand>,
}

impl MachO {
    /// Total virtual size of all segments.
    pub fn total_vmsize(&self) -> u64 {
        self.commands
            .iter()
            .map(|c| match c {
                LoadCommand::Segment { vmsize, .. } => *vmsize,
                _ => 0,
            })
            .sum()
    }

    /// Dependency install paths in order.
    pub fn dylib_deps(&self) -> Vec<&str> {
        self.commands
            .iter()
            .filter_map(|c| match c {
                LoadCommand::LoadDylib { path } => Some(path.as_str()),
                _ => None,
            })
            .collect()
    }

    /// The entry symbol, if an `LC_MAIN` is present.
    pub fn entry_symbol(&self) -> Option<&str> {
        self.commands.iter().find_map(|c| match c {
            LoadCommand::Main { entry_symbol } => Some(entry_symbol.as_str()),
            _ => None,
        })
    }

    /// Whether the image carries a non-zero `cryptid` (App Store
    /// encrypted; must be decrypted on a jailbroken device first, §6.1).
    pub fn is_encrypted(&self) -> bool {
        self.commands.iter().any(|c| {
            matches!(c, LoadCommand::EncryptionInfo { cryptid } if *cryptid != 0)
        })
    }

    /// Serialises to the simulator's on-disk representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(MH_MAGIC);
        w.put_u32(self.cpu_type);
        w.put_u32(self.filetype.as_raw());
        w.put_u32(self.commands.len() as u32);
        for cmd in &self.commands {
            match cmd {
                LoadCommand::Segment {
                    name,
                    vmsize,
                    writable,
                    executable,
                } => {
                    w.put_u32(1);
                    w.put_str(name);
                    w.put_u64(*vmsize);
                    w.put_u8(u8::from(*writable));
                    w.put_u8(u8::from(*executable));
                }
                LoadCommand::LoadDylib { path } => {
                    w.put_u32(12);
                    w.put_str(path);
                }
                LoadCommand::Main { entry_symbol } => {
                    w.put_u32(0x28);
                    w.put_str(entry_symbol);
                }
                LoadCommand::EncryptionInfo { cryptid } => {
                    w.put_u32(0x21);
                    w.put_u32(*cryptid);
                }
                LoadCommand::Uuid { uuid } => {
                    w.put_u32(0x1b);
                    w.put_raw(uuid);
                }
            }
        }
        w.into_bytes()
    }

    /// Whether a byte slice starts with the Mach-O magic.
    pub fn sniff(bytes: &[u8]) -> bool {
        ByteReader::new(bytes, ()).u32() == Ok(MH_MAGIC)
    }

    /// Parses the on-disk representation.
    ///
    /// # Errors
    ///
    /// `ENOEXEC` for anything malformed: wrong magic, unknown file type
    /// or command, or truncation.
    pub fn parse(bytes: &[u8]) -> Result<MachO, Errno> {
        let mut r = ByteReader::new(bytes, Errno::ENOEXEC);
        if r.u32()? != MH_MAGIC {
            return Err(Errno::ENOEXEC);
        }
        let cpu_type = r.u32()?;
        let filetype = FileType::from_raw(r.u32()?).ok_or(Errno::ENOEXEC)?;
        let ncmds = r.u32()?;
        if ncmds > 10_000 {
            return Err(Errno::ENOEXEC);
        }
        let mut commands = Vec::with_capacity(ncmds as usize);
        for _ in 0..ncmds {
            let cmd = match r.u32()? {
                1 => LoadCommand::Segment {
                    name: load_str(&mut r)?,
                    vmsize: r.u64()?,
                    writable: r.u8()? != 0,
                    executable: r.u8()? != 0,
                },
                12 => LoadCommand::LoadDylib {
                    path: load_str(&mut r)?,
                },
                0x28 => LoadCommand::Main {
                    entry_symbol: load_str(&mut r)?,
                },
                0x21 => LoadCommand::EncryptionInfo { cryptid: r.u32()? },
                0x1b => LoadCommand::Uuid { uuid: r.array()? },
                _ => return Err(Errno::ENOEXEC),
            };
            commands.push(cmd);
        }
        Ok(MachO {
            cpu_type,
            filetype,
            commands,
        })
    }
}

/// Reads a load-command string: length-prefixed UTF-8 of at most
/// 4 KiB, `ENOEXEC` otherwise. ELF's `DT_NEEDED` names share it.
pub(crate) fn load_str(
    r: &mut ByteReader<'_, Errno>,
) -> Result<String, Errno> {
    let len = r.u32()? as usize;
    if len > 4096 {
        return Err(Errno::ENOEXEC);
    }
    String::from_utf8(r.raw(len)?.to_vec()).map_err(|_| Errno::ENOEXEC)
}

/// Builder for test and framework images.
#[derive(Debug, Clone)]
pub struct MachOBuilder {
    macho: MachO,
}

impl MachOBuilder {
    /// Starts an `MH_EXECUTE` image with a text segment.
    pub fn executable(entry_symbol: &str) -> MachOBuilder {
        MachOBuilder {
            macho: MachO {
                cpu_type: CPU_TYPE_ARM,
                filetype: FileType::Execute,
                commands: vec![
                    LoadCommand::Segment {
                        name: "__TEXT".into(),
                        vmsize: 256 * 1024,
                        writable: false,
                        executable: true,
                    },
                    LoadCommand::Segment {
                        name: "__DATA".into(),
                        vmsize: 64 * 1024,
                        writable: true,
                        executable: false,
                    },
                    LoadCommand::Main {
                        entry_symbol: entry_symbol.into(),
                    },
                ],
            },
        }
    }

    /// Starts an `MH_DYLIB` image of a given mapped size.
    pub fn dylib(vmsize: u64) -> MachOBuilder {
        MachOBuilder {
            macho: MachO {
                cpu_type: CPU_TYPE_ARM,
                filetype: FileType::Dylib,
                commands: vec![LoadCommand::Segment {
                    name: "__TEXT".into(),
                    vmsize,
                    writable: false,
                    executable: true,
                }],
            },
        }
    }

    /// Adds a dylib dependency.
    pub fn depends_on(mut self, path: &str) -> MachOBuilder {
        self.macho
            .commands
            .push(LoadCommand::LoadDylib { path: path.into() });
        self
    }

    /// Marks the image App Store encrypted.
    pub fn encrypted(mut self) -> MachOBuilder {
        self.macho
            .commands
            .push(LoadCommand::EncryptionInfo { cryptid: 1 });
        self
    }

    /// Overrides the CPU type (for negative tests).
    pub fn cpu_type(mut self, cpu: u32) -> MachOBuilder {
        self.macho.cpu_type = cpu;
        self
    }

    /// Finishes the image.
    pub fn build(self) -> MachO {
        self.macho
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_executable() {
        let m = MachOBuilder::executable("main")
            .depends_on("/usr/lib/libSystem.B.dylib")
            .build();
        let bytes = m.to_bytes();
        assert!(MachO::sniff(&bytes));
        let parsed = MachO::parse(&bytes).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.entry_symbol(), Some("main"));
        assert_eq!(parsed.dylib_deps(), vec!["/usr/lib/libSystem.B.dylib"]);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert_eq!(MachO::parse(b"\x7fELF----"), Err(Errno::ENOEXEC));
        let m = MachOBuilder::executable("main").build();
        let bytes = m.to_bytes();
        assert_eq!(
            MachO::parse(&bytes[..bytes.len() - 3]),
            Err(Errno::ENOEXEC)
        );
        assert!(!MachO::sniff(b"\x7fEL"));
    }

    #[test]
    fn encryption_detected() {
        let plain = MachOBuilder::executable("main").build();
        assert!(!plain.is_encrypted());
        let enc = MachOBuilder::executable("main").encrypted().build();
        assert!(enc.is_encrypted());
        let parsed = MachO::parse(&enc.to_bytes()).unwrap();
        assert!(parsed.is_encrypted());
    }

    #[test]
    fn vmsize_sums_segments() {
        let m = MachOBuilder::executable("main").build();
        assert_eq!(m.total_vmsize(), (256 + 64) * 1024);
        let d = MachOBuilder::dylib(1024 * 1024).build();
        assert_eq!(d.total_vmsize(), 1024 * 1024);
        assert_eq!(d.filetype, FileType::Dylib);
    }

    #[test]
    fn uuid_roundtrip() {
        let mut m = MachOBuilder::dylib(4096).build();
        m.commands.push(LoadCommand::Uuid { uuid: [7u8; 16] });
        let parsed = MachO::parse(&m.to_bytes()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn absurd_ncmds_rejected() {
        let mut w = ByteWriter::new();
        for v in [MH_MAGIC, CPU_TYPE_ARM, 2, 1_000_000] {
            w.put_u32(v);
        }
        assert_eq!(MachO::parse(&w.into_bytes()), Err(Errno::ENOEXEC));
    }
}
