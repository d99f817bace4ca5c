//! The simulated ELF container format (domestic binaries).

use cider_abi::bytes::{ByteReader, ByteWriter};
use cider_abi::errno::Errno;

use crate::macho::load_str;

/// ELF magic bytes.
pub const ELF_MAGIC: [u8; 4] = [0x7f, b'E', b'L', b'F'];
/// `EM_ARM`.
pub const EM_ARM: u16 = 40;

/// ELF object kinds we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElfType {
    /// `ET_EXEC` / `ET_DYN` main binary.
    Executable,
    /// `ET_DYN` shared object used as a library.
    SharedObject,
}

impl ElfType {
    fn as_raw(self) -> u16 {
        match self {
            ElfType::Executable => 2,
            ElfType::SharedObject => 3,
        }
    }

    fn from_raw(raw: u16) -> Option<ElfType> {
        match raw {
            2 => Some(ElfType::Executable),
            3 => Some(ElfType::SharedObject),
            _ => None,
        }
    }
}

/// A loadable program header (`PT_LOAD`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramHeader {
    /// Mapped size in bytes.
    pub memsz: u64,
    /// Writable?
    pub writable: bool,
    /// Executable?
    pub executable: bool,
}

/// A parsed ELF image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Elf {
    /// Machine type (must be ARM to load).
    pub machine: u16,
    /// Object kind.
    pub elf_type: ElfType,
    /// Loadable segments.
    pub segments: Vec<ProgramHeader>,
    /// `DT_NEEDED` dependencies.
    pub needed: Vec<String>,
    /// Entry behaviour key for the program registry.
    pub entry_symbol: Option<String>,
}

impl Elf {
    /// Total mapped size.
    pub fn total_memsz(&self) -> u64 {
        self.segments.iter().map(|s| s.memsz).sum()
    }

    /// Serialises to the simulator's on-disk representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_raw(&ELF_MAGIC);
        w.put_u16(self.machine);
        w.put_u16(self.elf_type.as_raw());
        w.put_u32(self.segments.len() as u32);
        for s in &self.segments {
            w.put_u64(s.memsz);
            w.put_u8(u8::from(s.writable));
            w.put_u8(u8::from(s.executable));
        }
        w.put_u32(self.needed.len() as u32);
        for n in &self.needed {
            w.put_str(n);
        }
        match &self.entry_symbol {
            Some(e) => {
                w.put_u8(1);
                w.put_str(e);
            }
            None => w.put_u8(0),
        }
        w.into_bytes()
    }

    /// Whether a byte slice starts with the ELF magic.
    pub fn sniff(bytes: &[u8]) -> bool {
        bytes.starts_with(&ELF_MAGIC)
    }

    /// Parses the on-disk representation.
    ///
    /// # Errors
    ///
    /// `ENOEXEC` for malformed input.
    pub fn parse(bytes: &[u8]) -> Result<Elf, Errno> {
        let mut r = ByteReader::new(bytes, Errno::ENOEXEC);
        if r.array()? != ELF_MAGIC {
            return Err(Errno::ENOEXEC);
        }
        let machine = r.u16()?;
        let elf_type = ElfType::from_raw(r.u16()?).ok_or(Errno::ENOEXEC)?;
        let nseg = r.u32()?;
        if nseg > 64 {
            return Err(Errno::ENOEXEC);
        }
        let mut segments = Vec::with_capacity(nseg as usize);
        for _ in 0..nseg {
            segments.push(ProgramHeader {
                memsz: r.u64()?,
                writable: r.u8()? != 0,
                executable: r.u8()? != 0,
            });
        }
        let nneeded = r.u32()?;
        if nneeded > 1024 {
            return Err(Errno::ENOEXEC);
        }
        let mut needed = Vec::with_capacity(nneeded as usize);
        for _ in 0..nneeded {
            needed.push(load_str(&mut r)?);
        }
        let entry_symbol = if r.u8()? != 0 {
            Some(load_str(&mut r)?)
        } else {
            None
        };
        Ok(Elf {
            machine,
            elf_type,
            segments,
            needed,
            entry_symbol,
        })
    }
}

/// Builder for domestic binaries and shared objects.
#[derive(Debug, Clone)]
pub struct ElfBuilder {
    elf: Elf,
}

impl ElfBuilder {
    /// Starts an executable with conventional text + data segments.
    pub fn executable(entry_symbol: &str) -> ElfBuilder {
        ElfBuilder {
            elf: Elf {
                machine: EM_ARM,
                elf_type: ElfType::Executable,
                segments: vec![
                    ProgramHeader {
                        memsz: 128 * 1024,
                        writable: false,
                        executable: true,
                    },
                    ProgramHeader {
                        memsz: 32 * 1024,
                        writable: true,
                        executable: false,
                    },
                ],
                needed: Vec::new(),
                entry_symbol: Some(entry_symbol.into()),
            },
        }
    }

    /// Starts a shared object of the given size.
    pub fn shared_object(memsz: u64) -> ElfBuilder {
        ElfBuilder {
            elf: Elf {
                machine: EM_ARM,
                elf_type: ElfType::SharedObject,
                segments: vec![ProgramHeader {
                    memsz,
                    writable: false,
                    executable: true,
                }],
                needed: Vec::new(),
                entry_symbol: None,
            },
        }
    }

    /// Adds a `DT_NEEDED` dependency.
    pub fn needs(mut self, soname: &str) -> ElfBuilder {
        self.elf.needed.push(soname.into());
        self
    }

    /// Finishes the image.
    pub fn build(self) -> Elf {
        self.elf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let e = ElfBuilder::executable("hello_world")
            .needs("libc.so")
            .needs("libm.so")
            .build();
        let parsed = Elf::parse(&e.to_bytes()).unwrap();
        assert_eq!(parsed, e);
        assert_eq!(parsed.needed, vec!["libc.so", "libm.so"]);
        assert_eq!(parsed.entry_symbol.as_deref(), Some("hello_world"));
    }

    #[test]
    fn sniff_and_reject() {
        let e = ElfBuilder::shared_object(4096).build();
        assert!(Elf::sniff(&e.to_bytes()));
        assert!(!Elf::sniff(b"\xFE\xED\xFA\xCE"));
        assert_eq!(Elf::parse(b"\x7fELF"), Err(Errno::ENOEXEC));
    }

    #[test]
    fn shared_object_has_no_entry() {
        let e = ElfBuilder::shared_object(8192).build();
        assert_eq!(e.entry_symbol, None);
        assert_eq!(e.total_memsz(), 8192);
        assert_eq!(e.elf_type, ElfType::SharedObject);
    }
}
