//! Binary serialization for compiled bytecode ([`VmModule`]).
//!
//! The daemon's artifact cache stores compiled modules as flat byte strings
//! so cache sizing is exact (the LRU budget counts real bytes) and so cached
//! artifacts survive any future move to an on-disk or remote cache tier.
//! The format is a private, versioned, little-endian encoding:
//!
//! ```text
//! "OMPLTBC\x03"  magic + format version (bump on any layout change)
//! u32            function count
//! per function:  name, ret, params, reg classes, vreg classes/widths,
//!                const pool, call args, call targets, block starts, ops
//! ```
//!
//! Every value crosses the boundary through its type's `Wire` impl. An op
//! is its tag byte followed by its fields in the order its row in `ops.rs`
//! declares them — both directions are generated from that row, so they
//! cannot disagree — and a fieldless enum is its `as u8`, read back through
//! the enum's `ALL` table. Adding an op or an enum variant therefore needs
//! no edit here; it does need a new version byte, because images written
//! before it decode differently. [`decode`] validates tags and lengths and
//! fails with a message — never panics — because cached bytes, like anything
//! a server reads back, are treated as untrusted input.

use crate::ops::{CallTarget, PoolConst, Reg, RegClass, VmFunction, VmModule};
use omplt_ir::{BinOpKind, CastOp, CmpPred, IrType, SymbolId};

/// Magic prefix: 7 identifying bytes plus a 1-byte format version.
const MAGIC: &[u8; 8] = b"OMPLTBC\x03";

/// A malformed or version-incompatible bytecode image.
#[derive(Debug, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bytecode image: {}", self.0)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError(msg.into()))
}

/// A value with one wire form: how it is appended to an image and read back.
pub(crate) trait Wire: Sized {
    /// Appends `self` to the image.
    fn put(self, e: &mut Enc);
    /// Reads one value, or says why the bytes at the cursor are not one.
    fn get(d: &mut Dec) -> Result<Self, DecodeError>;
}

/// The image being written.
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn put<T: Wire>(&mut self, v: T) {
        v.put(self);
    }

    /// A sequence: `u32` length, then the items.
    fn seq<T: Wire + Copy>(&mut self, items: &[T]) {
        self.put(items.len() as u32);
        for &item in items {
            self.put(item);
        }
    }
}

/// A read cursor over an untrusted image.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.at < n {
            return err("truncated");
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub(crate) fn get<T: Wire>(&mut self) -> Result<T, DecodeError> {
        T::get(self)
    }

    /// A length prefix used to size a preallocation; bounded so a corrupt
    /// image cannot request an absurd reservation before truncation is hit.
    fn len(&mut self) -> Result<usize, DecodeError> {
        let n = self.get::<u32>()? as usize;
        if n > self.buf.len() - self.at {
            return err(format!("length {n} exceeds remaining image"));
        }
        Ok(n)
    }

    /// A sequence as [`Enc::seq`] wrote it.
    fn seq<T: Wire>(&mut self) -> Result<Vec<T>, DecodeError> {
        let n = self.len()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(self.get()?);
        }
        Ok(items)
    }
}

/// Little-endian integers.
macro_rules! wire_int {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn put(self, e: &mut Enc) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec) -> Result<$t, DecodeError> {
                let bytes = d.take(std::mem::size_of::<$t>())?;
                Ok($t::from_le_bytes(bytes.try_into().unwrap()))
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64);

/// Fieldless enums with an `ALL` table in declaration order: the tag is the
/// variant's `as u8`, which is its index in `ALL`.
macro_rules! wire_enum {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn put(self, e: &mut Enc) {
                e.put(self as u8);
            }
            fn get(d: &mut Dec) -> Result<$t, DecodeError> {
                let tag = d.get::<u8>()?;
                match $t::ALL.get(tag as usize) {
                    Some(&v) => Ok(v),
                    None => err(format!(concat!("bad ", stringify!($t), " tag {}"), tag)),
                }
            }
        }
    )*};
}
wire_enum!(IrType, BinOpKind, CmpPred, CastOp, RegClass);

impl Wire for Option<Reg> {
    fn put(self, e: &mut Enc) {
        match self {
            None => e.put(0u8),
            Some(r) => {
                e.put(1u8);
                e.put(r);
            }
        }
    }
    fn get(d: &mut Dec) -> Result<Option<Reg>, DecodeError> {
        match d.get::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(d.get()?)),
            other => err(format!("bad Option<Reg> tag {other}")),
        }
    }
}

impl Wire for PoolConst {
    fn put(self, e: &mut Enc) {
        match self {
            // The class is the tag: 0 int, 1 float, 2 pointer.
            PoolConst::Val(class, v) => {
                e.put(class);
                e.put(v);
            }
            PoolConst::Global(s) => {
                e.put(3u8);
                e.put(s.0);
            }
            PoolConst::FnPtr(s) => {
                e.put(4u8);
                e.put(s.0);
            }
        }
    }
    fn get(d: &mut Dec) -> Result<PoolConst, DecodeError> {
        let tag = d.get::<u8>()?;
        Ok(match (tag, RegClass::ALL.get(tag as usize)) {
            (_, Some(&class)) => PoolConst::Val(class, d.get()?),
            (3, _) => PoolConst::Global(SymbolId(d.get()?)),
            (4, _) => PoolConst::FnPtr(SymbolId(d.get()?)),
            _ => return err(format!("bad PoolConst tag {tag}")),
        })
    }
}

impl Wire for CallTarget {
    fn put(self, e: &mut Enc) {
        match self {
            CallTarget::Bytecode(i) => {
                e.put(0u8);
                e.put(i);
            }
            CallTarget::Runtime(s) => {
                e.put(1u8);
                e.put(s.0);
            }
        }
    }
    fn get(d: &mut Dec) -> Result<CallTarget, DecodeError> {
        Ok(match d.get::<u8>()? {
            0 => CallTarget::Bytecode(d.get()?),
            1 => CallTarget::Runtime(SymbolId(d.get()?)),
            other => return err(format!("bad CallTarget tag {other}")),
        })
    }
}

/// Serializes a compiled module to its canonical byte image.
pub fn encode(m: &VmModule) -> Vec<u8> {
    let mut e = Enc {
        buf: Vec::with_capacity(64 + m.num_ops() * 12),
    };
    e.buf.extend_from_slice(MAGIC);
    e.put(m.funcs.len() as u32);
    for f in &m.funcs {
        e.seq(f.name.as_bytes());
        e.put(f.ret);
        e.put(f.num_regs);
        e.seq(&f.params);
        e.seq(&f.reg_class);
        e.put(f.num_vregs);
        e.seq(&f.vreg_class);
        e.seq(&f.vreg_width);
        e.seq(&f.consts);
        e.seq(&f.call_args);
        e.seq(&f.call_targets);
        e.seq(&f.block_starts);
        e.seq(&f.ops);
    }
    e.buf
}

/// Reconstructs a module from a byte image produced by [`encode`].
///
/// The result is structurally valid but *semantically* untrusted — callers
/// that execute it should run it through `verify_module` once (the daemon
/// verifies at insert time instead, and trusts its own process memory).
pub fn decode(bytes: &[u8]) -> Result<VmModule, DecodeError> {
    let mut d = Dec { buf: bytes, at: 0 };
    if d.take(MAGIC.len())? != MAGIC {
        return err("bad magic or unsupported version");
    }
    let nfuncs = d.get::<u32>()?;
    let mut funcs = Vec::new();
    for _ in 0..nfuncs {
        // Field initializers run in the order written: the wire order.
        funcs.push(VmFunction {
            name: String::from_utf8(d.seq()?).or_else(|_| err("invalid UTF-8 in name"))?,
            ret: d.get()?,
            num_regs: d.get()?,
            params: d.seq()?,
            reg_class: d.seq()?,
            num_vregs: d.get()?,
            vreg_class: d.seq()?,
            vreg_width: d.seq()?,
            consts: d.seq()?,
            call_args: d.seq()?,
            call_targets: d.seq()?,
            block_starts: d.seq()?,
            ops: d.seq()?,
        });
    }
    if d.at != bytes.len() {
        return err(format!(
            "{} trailing bytes after module",
            bytes.len() - d.at
        ));
    }
    Ok(VmModule { funcs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::tests::one_of_each;
    use crate::ops::Op;

    /// A module that holds every op of the table at least once: the ops
    /// below (real-looking code) followed by `one_of_each()`.
    fn sample() -> VmModule {
        let mut f = VmFunction {
            name: "main".to_string(),
            params: vec![0, 1],
            num_regs: 6,
            reg_class: vec![
                RegClass::Int,
                RegClass::Int,
                RegClass::Float,
                RegClass::Ptr,
                RegClass::Int,
                RegClass::Int,
            ],
            ops: vec![
                Op::Const { dst: 0, idx: 0 },
                Op::Alloca { dst: 3, bytes: 16 },
                Op::Store {
                    src: 0,
                    addr: 3,
                    ty: IrType::I64,
                },
                Op::Load {
                    dst: 4,
                    addr: 3,
                    ty: IrType::I64,
                },
                Op::Bin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 4,
                    lhs: 4,
                    rhs: 0,
                },
                Op::Cast {
                    op: CastOp::SiToFp,
                    from: IrType::I64,
                    to: IrType::F64,
                    dst: 2,
                    src: 4,
                },
                Op::CmpBr {
                    pred: CmpPred::Slt,
                    ty: IrType::I64,
                    lhs: 4,
                    rhs: 0,
                    then_t: 1,
                    else_t: 7,
                },
                Op::Call {
                    target: 0,
                    args_at: 0,
                    nargs: 2,
                    ret: IrType::Void,
                    dst: None,
                },
                Op::VBroadcast {
                    dst: 0,
                    src: 0,
                    w: 4,
                },
                Op::VIota {
                    dst: 1,
                    base: 0,
                    w: 4,
                },
                Op::VLoad {
                    dst: 2,
                    addr: 3,
                    ty: IrType::I64,
                    w: 2,
                },
                Op::VBin {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 2,
                    lhs: 2,
                    rhs: 0,
                    w: 2,
                },
                Op::VGather {
                    dst: 2,
                    base: 3,
                    idx: 1,
                    ty: IrType::I64,
                    elem_size: 8,
                    w: 2,
                },
                Op::VScatter {
                    src: 2,
                    base: 3,
                    idx: 1,
                    ty: IrType::I64,
                    elem_size: 8,
                    w: 2,
                },
                Op::VStore {
                    src: 2,
                    addr: 3,
                    ty: IrType::I64,
                    w: 2,
                },
                Op::VCast {
                    op: CastOp::SiToFp,
                    from: IrType::I64,
                    to: IrType::F64,
                    dst: 3,
                    src: 2,
                    w: 2,
                },
                Op::VMov {
                    dst: 2,
                    src: 1,
                    w: 4,
                },
                Op::VReduce {
                    op: BinOpKind::Add,
                    ty: IrType::I64,
                    dst: 5,
                    src: 2,
                    w: 4,
                },
                Op::VExtract {
                    dst: 5,
                    src: 1,
                    lane: 3,
                },
                Op::VEpi { src: 5 },
                Op::Ret { src: Some(4) },
            ],
            consts: vec![
                PoolConst::Val(RegClass::Int, -7i64 as u64),
                PoolConst::Val(RegClass::Float, 1.5f64.to_bits()),
                PoolConst::Global(SymbolId(3)),
                PoolConst::FnPtr(SymbolId(4)),
            ],
            call_args: vec![0, 1],
            call_targets: vec![CallTarget::Runtime(SymbolId(9)), CallTarget::Bytecode(0)],
            num_vregs: 4,
            vreg_class: vec![RegClass::Int, RegClass::Int, RegClass::Int, RegClass::Float],
            vreg_width: vec![4, 4, 2, 2],
            block_starts: vec![0, 1, 7],
            ret: IrType::I32,
        };
        f.ops.extend(one_of_each().iter().map(|row| row.op));
        VmModule { funcs: vec![f] }
    }

    #[test]
    fn roundtrips_structurally() {
        let m = sample();
        let bytes = encode(&m);
        let back = decode(&bytes).expect("decode");
        assert_eq!(back.funcs.len(), 1);
        let (a, b) = (&m.funcs[0], &back.funcs[0]);
        assert_eq!(a.name, b.name);
        assert_eq!(a.params, b.params);
        assert_eq!(a.num_regs, b.num_regs);
        assert_eq!(a.reg_class, b.reg_class);
        assert_eq!(a.num_vregs, b.num_vregs);
        assert_eq!(a.vreg_class, b.vreg_class);
        assert_eq!(a.vreg_width, b.vreg_width);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.consts, b.consts);
        assert_eq!(a.call_args, b.call_args);
        assert_eq!(a.call_targets, b.call_targets);
        assert_eq!(a.block_starts, b.block_starts);
        assert_eq!(a.ret, b.ret);
        // And the image itself is canonical: re-encoding reproduces it.
        assert_eq!(bytes, encode(&back));
    }

    #[test]
    fn every_row_of_the_op_table_round_trips_in_table_order() {
        for (tag, row) in one_of_each().iter().enumerate() {
            let mut e = Enc { buf: Vec::new() };
            e.put(row.op);
            assert_eq!(e.buf[0] as usize, tag, "{:?} is out of tag order", row.op);
            let mut d = Dec { buf: &e.buf, at: 0 };
            assert_eq!(d.get::<Op>(), Ok(row.op));
            assert_eq!(d.at, e.buf.len(), "{:?} left bytes unread", row.op);
        }
    }

    #[test]
    fn rejects_corruption_without_panicking() {
        let bytes = encode(&sample());
        // Truncation at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(decode(&bad).is_err());
        // The previous format version and a future one.
        for version in [2, 4] {
            let mut vers = bytes.clone();
            vers[7] = version;
            assert!(decode(&vers).is_err(), "version {version} accepted");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode(&long).is_err());
    }
}
