//! A register-based bytecode virtual machine — the Dalvik stand-in.
//!
//! Android apps "are interpreted by the Dalvik VM, not loaded as native
//! binaries" (paper §2), and that interpretation gap is the entire story
//! of Figure 6's CPU and memory groups: the same PassMark workload runs
//! several times faster as a native iOS binary than as interpreted
//! bytecode. This VM makes the gap mechanical: every instruction pays a
//! real dispatch (decode + branch) in the interpreter loop *and* a
//! virtual-time dispatch cost, while the native path (in
//! `workloads`) pays only the operation itself.

use cider_abi::bytes::{ByteReader, ByteWriter};
use cider_abi::errno::Errno;
use cider_kernel::kernel::Kernel;

/// Virtual-time cost of dispatching one bytecode instruction, ns
/// (Dalvik's interpreter loop on a Cortex-A9: fetch, decode, indirect
/// branch).
pub const VM_DISPATCH_NS: f64 = 6.5;
/// Virtual-time cost of one simple ALU op's work itself, ns.
pub const OP_WORK_NS: f64 = 1.9;
/// Extra virtual-time cost of float ops, ns.
pub const FLOAT_EXTRA_NS: f64 = 1.3;
/// Extra virtual-time cost of an array access (bounds check + index), ns.
pub const ARRAY_EXTRA_NS: f64 = 2.6;

/// A register index.
pub type Reg = u8;

/// VM instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Insn {
    /// `rd = imm`.
    ConstI(Reg, i64),
    /// `rd = imm` (float).
    ConstF(Reg, f64),
    /// `rd = rs`.
    Move(Reg, Reg),
    /// `rd = ra + rb`.
    Add(Reg, Reg, Reg),
    /// `rd = ra - rb`.
    Sub(Reg, Reg, Reg),
    /// `rd = ra * rb`.
    Mul(Reg, Reg, Reg),
    /// `rd = ra / rb`.
    Div(Reg, Reg, Reg),
    /// `rd = ra % rb`.
    Rem(Reg, Reg, Reg),
    /// `rd = ra ^ rb`.
    Xor(Reg, Reg, Reg),
    /// `rd = ra & rb`.
    And(Reg, Reg, Reg),
    /// `rd = ra | rb`.
    Or(Reg, Reg, Reg),
    /// `rd = ra << (rb & 63)`.
    Shl(Reg, Reg, Reg),
    /// `rd = ra >> (rb & 63)` (logical).
    Shr(Reg, Reg, Reg),
    /// `fd = fa + fb` (float registers).
    FAdd(Reg, Reg, Reg),
    /// `fd = fa * fb`.
    FMul(Reg, Reg, Reg),
    /// `fd = fa / fb`.
    FDiv(Reg, Reg, Reg),
    /// `rd = (ra < rb) as i64`.
    CmpLt(Reg, Reg, Reg),
    /// `rd = (ra == rb) as i64`.
    CmpEq(Reg, Reg, Reg),
    /// Unconditional jump to instruction index.
    Jmp(u32),
    /// Jump if `r == 0`.
    Jz(Reg, u32),
    /// Jump if `r != 0`.
    Jnz(Reg, u32),
    /// Allocates the array (one per VM) with `r` elements.
    ArrNew(Reg),
    /// `rd = arr[ri]`.
    ALoad(Reg, Reg),
    /// `arr[ri] = rs`.
    AStore(Reg, Reg),
    /// Terminates, yielding `r`.
    Halt(Reg),
}

/// The result of a program run.
#[derive(Debug, Clone, PartialEq)]
pub struct VmResult {
    /// Value of the register named by `Halt`.
    pub value: i64,
    /// Instructions executed.
    pub executed: u64,
    /// Virtual nanoseconds charged.
    pub charged_ns: u64,
}

/// Interpreter errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmError {
    /// Integer division by zero.
    DivisionByZero,
    /// Array access out of bounds.
    OutOfBounds,
    /// Jump target past the end of the program.
    BadJump,
    /// Executed the instruction budget without halting.
    Timeout,
    /// Program ran off the end without `Halt`.
    MissingHalt,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VmError::DivisionByZero => "integer division by zero",
            VmError::OutOfBounds => "array index out of bounds",
            VmError::BadJump => "jump target out of range",
            VmError::Timeout => "instruction budget exhausted",
            VmError::MissingHalt => "program fell off the end",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VmError {}

/// Maximum instructions per run (runaway-loop guard).
pub const INSN_BUDGET: u64 = 200_000_000;

/// The interpreter.
#[derive(Debug)]
pub struct Vm {
    iregs: [i64; 32],
    fregs: [f64; 16],
    array: Vec<i64>,
}

impl Default for Vm {
    fn default() -> Self {
        Self::new()
    }
}

impl Vm {
    /// Fresh VM with zeroed registers.
    pub fn new() -> Vm {
        Vm {
            iregs: [0; 32],
            fregs: [0.0; 16],
            array: Vec::new(),
        }
    }

    /// Pre-loads the VM array (workload input data).
    pub fn set_array(&mut self, data: Vec<i64>) {
        self.array = data;
    }

    /// The VM array after a run (workload output data).
    pub fn array(&self) -> &[i64] {
        &self.array
    }

    /// Reads an integer register.
    pub fn ireg(&self, i: usize) -> i64 {
        self.iregs[i]
    }

    /// Reads a float register.
    pub fn freg(&self, i: usize) -> f64 {
        self.fregs[i]
    }

    /// Runs a program to completion, charging interpretation costs to
    /// the kernel clock.
    ///
    /// # Errors
    ///
    /// [`VmError`] on faults; well-formed workloads never fault.
    pub fn run(
        &mut self,
        k: &mut Kernel,
        program: &[Insn],
    ) -> Result<VmResult, VmError> {
        let mut pc = 0usize;
        let mut executed = 0u64;
        let mut ns = 0.0f64;
        loop {
            if executed >= INSN_BUDGET {
                return Err(VmError::Timeout);
            }
            let Some(insn) = program.get(pc) else {
                return Err(VmError::MissingHalt);
            };
            executed += 1;
            ns += VM_DISPATCH_NS + OP_WORK_NS;
            pc += 1;
            match *insn {
                Insn::ConstI(d, v) => self.iregs[d as usize] = v,
                Insn::ConstF(d, v) => self.fregs[d as usize] = v,
                Insn::Move(d, s) => {
                    self.iregs[d as usize] = self.iregs[s as usize]
                }
                Insn::Add(d, a, b) => {
                    self.iregs[d as usize] = self.iregs[a as usize]
                        .wrapping_add(self.iregs[b as usize])
                }
                Insn::Sub(d, a, b) => {
                    self.iregs[d as usize] = self.iregs[a as usize]
                        .wrapping_sub(self.iregs[b as usize])
                }
                Insn::Mul(d, a, b) => {
                    self.iregs[d as usize] = self.iregs[a as usize]
                        .wrapping_mul(self.iregs[b as usize])
                }
                Insn::Div(d, a, b) => {
                    let bv = self.iregs[b as usize];
                    if bv == 0 {
                        return Err(VmError::DivisionByZero);
                    }
                    ns += 8.0; // divide latency
                    self.iregs[d as usize] =
                        self.iregs[a as usize].wrapping_div(bv);
                }
                Insn::Rem(d, a, b) => {
                    let bv = self.iregs[b as usize];
                    if bv == 0 {
                        return Err(VmError::DivisionByZero);
                    }
                    ns += 8.0;
                    self.iregs[d as usize] =
                        self.iregs[a as usize].wrapping_rem(bv);
                }
                Insn::Xor(d, a, b) => {
                    self.iregs[d as usize] =
                        self.iregs[a as usize] ^ self.iregs[b as usize]
                }
                Insn::And(d, a, b) => {
                    self.iregs[d as usize] =
                        self.iregs[a as usize] & self.iregs[b as usize]
                }
                Insn::Or(d, a, b) => {
                    self.iregs[d as usize] =
                        self.iregs[a as usize] | self.iregs[b as usize]
                }
                Insn::Shl(d, a, b) => {
                    self.iregs[d as usize] = self.iregs[a as usize]
                        .wrapping_shl(self.iregs[b as usize] as u32 & 63)
                }
                Insn::Shr(d, a, b) => {
                    self.iregs[d as usize] = ((self.iregs[a as usize] as u64)
                        >> (self.iregs[b as usize] as u32 & 63))
                        as i64
                }
                Insn::FAdd(d, a, b) => {
                    ns += FLOAT_EXTRA_NS;
                    self.fregs[d as usize] =
                        self.fregs[a as usize] + self.fregs[b as usize]
                }
                Insn::FMul(d, a, b) => {
                    ns += FLOAT_EXTRA_NS;
                    self.fregs[d as usize] =
                        self.fregs[a as usize] * self.fregs[b as usize]
                }
                Insn::FDiv(d, a, b) => {
                    ns += FLOAT_EXTRA_NS + 10.0;
                    self.fregs[d as usize] =
                        self.fregs[a as usize] / self.fregs[b as usize]
                }
                Insn::CmpLt(d, a, b) => {
                    self.iregs[d as usize] = i64::from(
                        self.iregs[a as usize] < self.iregs[b as usize],
                    )
                }
                Insn::CmpEq(d, a, b) => {
                    self.iregs[d as usize] = i64::from(
                        self.iregs[a as usize] == self.iregs[b as usize],
                    )
                }
                Insn::Jmp(t) => {
                    if t as usize > program.len() {
                        return Err(VmError::BadJump);
                    }
                    pc = t as usize;
                }
                Insn::Jz(r, t) => {
                    if self.iregs[r as usize] == 0 {
                        if t as usize > program.len() {
                            return Err(VmError::BadJump);
                        }
                        pc = t as usize;
                    }
                }
                Insn::Jnz(r, t) => {
                    if self.iregs[r as usize] != 0 {
                        if t as usize > program.len() {
                            return Err(VmError::BadJump);
                        }
                        pc = t as usize;
                    }
                }
                Insn::ArrNew(r) => {
                    let len = self.iregs[r as usize].max(0) as usize;
                    ns += len as f64 * 0.25;
                    self.array = vec![0; len];
                }
                Insn::ALoad(d, i) => {
                    ns += ARRAY_EXTRA_NS;
                    let idx = self.iregs[i as usize];
                    let v = self
                        .array
                        .get(idx as usize)
                        .copied()
                        .ok_or(VmError::OutOfBounds)?;
                    self.iregs[d as usize] = v;
                }
                Insn::AStore(i, s) => {
                    ns += ARRAY_EXTRA_NS;
                    let idx = self.iregs[i as usize] as usize;
                    let v = self.iregs[s as usize];
                    let slot =
                        self.array.get_mut(idx).ok_or(VmError::OutOfBounds)?;
                    *slot = v;
                }
                Insn::Halt(r) => {
                    let charged = ns as u64;
                    k.charge_cpu(charged);
                    return Ok(VmResult {
                        value: self.iregs[r as usize],
                        executed,
                        charged_ns: charged,
                    });
                }
            }
        }
    }
}

/// Serialises a program into a "dex" blob for `.apk` packages.
pub fn assemble(program: &[Insn]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(program.len() * 8 + 8);
    w.put_raw(b"dex\n");
    w.put_u32(program.len() as u32);
    for insn in program {
        match *insn {
            Insn::ConstI(d, v) => {
                w.put_raw(&[0, d]);
                w.put_i64(v);
            }
            Insn::ConstF(d, v) => {
                w.put_raw(&[1, d]);
                w.put_u64(v.to_bits());
            }
            Insn::Move(d, s) => w.put_raw(&[2, d, s]),
            Insn::Add(d, a, b) => w.put_raw(&[3, d, a, b]),
            Insn::Sub(d, a, b) => w.put_raw(&[4, d, a, b]),
            Insn::Mul(d, a, b) => w.put_raw(&[5, d, a, b]),
            Insn::Div(d, a, b) => w.put_raw(&[6, d, a, b]),
            Insn::Rem(d, a, b) => w.put_raw(&[7, d, a, b]),
            Insn::Xor(d, a, b) => w.put_raw(&[8, d, a, b]),
            Insn::And(d, a, b) => w.put_raw(&[9, d, a, b]),
            Insn::Or(d, a, b) => w.put_raw(&[10, d, a, b]),
            Insn::Shl(d, a, b) => w.put_raw(&[11, d, a, b]),
            Insn::Shr(d, a, b) => w.put_raw(&[12, d, a, b]),
            Insn::FAdd(d, a, b) => w.put_raw(&[13, d, a, b]),
            Insn::FMul(d, a, b) => w.put_raw(&[14, d, a, b]),
            Insn::FDiv(d, a, b) => w.put_raw(&[15, d, a, b]),
            Insn::CmpLt(d, a, b) => w.put_raw(&[16, d, a, b]),
            Insn::CmpEq(d, a, b) => w.put_raw(&[17, d, a, b]),
            Insn::Jmp(t) => {
                w.put_u8(18);
                w.put_u32(t);
            }
            Insn::Jz(r, t) => {
                w.put_raw(&[19, r]);
                w.put_u32(t);
            }
            Insn::Jnz(r, t) => {
                w.put_raw(&[20, r]);
                w.put_u32(t);
            }
            Insn::ArrNew(r) => w.put_raw(&[21, r]),
            Insn::ALoad(d, i) => w.put_raw(&[22, d, i]),
            Insn::AStore(i, s) => w.put_raw(&[23, i, s]),
            Insn::Halt(r) => w.put_raw(&[24, r]),
        }
    }
    w.into_bytes()
}

/// Parses a "dex" blob back into a program.
///
/// # Errors
///
/// `ENOEXEC` for anything malformed.
pub fn disassemble(bytes: &[u8]) -> Result<Vec<Insn>, Errno> {
    let mut r = ByteReader::new(bytes, Errno::ENOEXEC);
    if r.raw(4)? != b"dex\n" {
        return Err(Errno::ENOEXEC);
    }
    let count = r.u32()? as usize;
    if count > 10_000_000 {
        return Err(Errno::ENOEXEC);
    }
    let mut program = Vec::with_capacity(count);
    for _ in 0..count {
        let op = r.u8()?;
        let insn = match op {
            0 => Insn::ConstI(r.u8()?, r.i64()?),
            1 => Insn::ConstF(r.u8()?, f64::from_bits(r.u64()?)),
            2 => Insn::Move(r.u8()?, r.u8()?),
            3..=17 => {
                let [d, a, b] = r.array()?;
                match op {
                    3 => Insn::Add(d, a, b),
                    4 => Insn::Sub(d, a, b),
                    5 => Insn::Mul(d, a, b),
                    6 => Insn::Div(d, a, b),
                    7 => Insn::Rem(d, a, b),
                    8 => Insn::Xor(d, a, b),
                    9 => Insn::And(d, a, b),
                    10 => Insn::Or(d, a, b),
                    11 => Insn::Shl(d, a, b),
                    12 => Insn::Shr(d, a, b),
                    13 => Insn::FAdd(d, a, b),
                    14 => Insn::FMul(d, a, b),
                    15 => Insn::FDiv(d, a, b),
                    16 => Insn::CmpLt(d, a, b),
                    _ => Insn::CmpEq(d, a, b),
                }
            }
            18 => Insn::Jmp(r.u32()?),
            19 => Insn::Jz(r.u8()?, r.u32()?),
            20 => Insn::Jnz(r.u8()?, r.u32()?),
            21 => Insn::ArrNew(r.u8()?),
            22 => Insn::ALoad(r.u8()?, r.u8()?),
            23 => Insn::AStore(r.u8()?, r.u8()?),
            24 => Insn::Halt(r.u8()?),
            _ => return Err(Errno::ENOEXEC),
        };
        program.push(insn);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cider_kernel::profile::DeviceProfile;

    fn kernel() -> Kernel {
        Kernel::boot(DeviceProfile::nexus7())
    }

    #[test]
    fn arithmetic_program() {
        // r2 = (7 * 6) + 3
        let prog = [
            Insn::ConstI(0, 7),
            Insn::ConstI(1, 6),
            Insn::Mul(2, 0, 1),
            Insn::ConstI(3, 3),
            Insn::Add(2, 2, 3),
            Insn::Halt(2),
        ];
        let mut vm = Vm::new();
        let r = vm.run(&mut kernel(), &prog).unwrap();
        assert_eq!(r.value, 45);
        assert_eq!(r.executed, 6);
        assert!(r.charged_ns > 0);
    }

    #[test]
    fn loop_sums_to_n() {
        // sum 1..=100
        let prog = [
            Insn::ConstI(0, 0),   // sum
            Insn::ConstI(1, 100), // i
            Insn::ConstI(2, 1),
            // loop:
            Insn::Add(0, 0, 1), // 3
            Insn::Sub(1, 1, 2), // 4
            Insn::Jnz(1, 3),    // 5
            Insn::Halt(0),
        ];
        let mut vm = Vm::new();
        let r = vm.run(&mut kernel(), &prog).unwrap();
        assert_eq!(r.value, 5050);
    }

    #[test]
    fn float_ops() {
        let prog = [
            Insn::ConstF(0, 1.5),
            Insn::ConstF(1, 4.0),
            Insn::FMul(2, 0, 1),
            Insn::FDiv(3, 2, 1),
            Insn::ConstI(5, 1),
            Insn::Halt(5),
        ];
        let mut vm = Vm::new();
        vm.run(&mut kernel(), &prog).unwrap();
        assert_eq!(vm.freg(2), 6.0);
        assert_eq!(vm.freg(3), 1.5);
    }

    #[test]
    fn array_ops_and_bounds() {
        let prog = [
            Insn::ConstI(0, 4),
            Insn::ArrNew(0),
            Insn::ConstI(1, 2),  // index
            Insn::ConstI(2, 99), // value
            Insn::AStore(1, 2),
            Insn::ALoad(3, 1),
            Insn::Halt(3),
        ];
        let mut vm = Vm::new();
        assert_eq!(vm.run(&mut kernel(), &prog).unwrap().value, 99);

        let oob = [
            Insn::ConstI(0, 2),
            Insn::ArrNew(0),
            Insn::ConstI(1, 5),
            Insn::ALoad(2, 1),
            Insn::Halt(2),
        ];
        assert_eq!(
            Vm::new().run(&mut kernel(), &oob),
            Err(VmError::OutOfBounds)
        );
    }

    #[test]
    fn faults_detected() {
        let div0 = [
            Insn::ConstI(0, 1),
            Insn::ConstI(1, 0),
            Insn::Div(2, 0, 1),
            Insn::Halt(2),
        ];
        assert_eq!(
            Vm::new().run(&mut kernel(), &div0),
            Err(VmError::DivisionByZero)
        );
        let nohalt = [Insn::ConstI(0, 1)];
        assert_eq!(
            Vm::new().run(&mut kernel(), &nohalt),
            Err(VmError::MissingHalt)
        );
        let badjmp = [Insn::Jmp(99)];
        assert_eq!(
            Vm::new().run(&mut kernel(), &badjmp),
            Err(VmError::BadJump)
        );
    }

    #[test]
    fn interpretation_charges_dispatch_per_insn() {
        let mut k = kernel();
        let prog = [
            Insn::ConstI(0, 0),
            Insn::ConstI(1, 1000),
            Insn::ConstI(2, 1),
            Insn::Add(0, 0, 1),
            Insn::Sub(1, 1, 2),
            Insn::Jnz(1, 3),
            Insn::Halt(0),
        ];
        let r = Vm::new().run(&mut k, &prog).unwrap();
        // ~3 insns per iteration × 1000 iterations × ~8.4 ns.
        let per_insn = r.charged_ns as f64 / r.executed as f64;
        assert!(per_insn >= VM_DISPATCH_NS, "per insn {per_insn}");
    }

    #[test]
    fn dex_roundtrip() {
        let prog = vec![
            Insn::ConstI(0, -5),
            Insn::ConstF(1, 2.75),
            Insn::Move(2, 0),
            Insn::Add(3, 0, 2),
            Insn::FDiv(1, 1, 1),
            Insn::CmpLt(4, 0, 3),
            Insn::Jz(4, 8),
            Insn::ArrNew(0),
            Insn::AStore(0, 3),
            Insn::ALoad(5, 0),
            Insn::Jnz(5, 2),
            Insn::Halt(5),
        ];
        let blob = assemble(&prog);
        assert_eq!(disassemble(&blob).unwrap(), prog);
        assert_eq!(disassemble(b"nope"), Err(Errno::ENOEXEC));
        assert_eq!(disassemble(&blob[..blob.len() - 1]), Err(Errno::ENOEXEC));
    }
}
