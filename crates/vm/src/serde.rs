//! Binary serialization for compiled bytecode ([`VmModule`]).
//!
//! The daemon's artifact cache stores compiled modules as flat byte strings
//! so cache sizing is exact (the LRU budget counts real bytes) and so cached
//! artifacts survive any future move to an on-disk or remote cache tier.
//! The format is a private, versioned encoding. Unsigned integers wider than
//! a byte (lengths, registers, targets, block starts) are LEB128 varints,
//! seven bits a byte, low group first; an `i32` and an integer constant are
//! zig-zag varints, so a small negative number is one byte too. A tag byte
//! and a float constant's bits keep their fixed width:
//!
//! ```text
//! "OMPLTBC\x09"  magic + format version (bump on any layout change)
//! u32            function count
//! per function:  name, ret, params, reg classes, vreg classes/widths,
//!                const pool, call args, call targets,
//!                fault pads (start, end, target), ops
//! ```
//!
//! A function's block starts are not stored: they are op 0 and each op
//! after a terminator, because a function the verifier accepts ends every
//! block in a terminator and has none anywhere else. [`decode`] derives
//! them; an image whose ops break that rule decodes into blocks the
//! verifier then refuses.
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

use crate::ops::{CallTarget, Op, Pad, PoolConst, Reg, RegClass, VmFunction, VmModule};
use omplt_ir::{BinOpKind, CastOp, CmpPred, IrType, SymbolId};

/// Magic prefix: 7 identifying bytes plus a 1-byte format version.
const MAGIC: &[u8; 8] = b"OMPLTBC\x09";

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

    /// LEB128: seven bits a byte, low group first, the high bit set on
    /// every byte but the last.
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
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

    /// A varint as [`Enc::varint`] wrote it: at most ten bytes, the tenth
    /// holding only the top bit of a `u64`.
    fn varint(&mut self) -> Result<u64, DecodeError> {
        let rest = &self.buf[self.at..];
        let mut v = 0u64;
        for (group, &byte) in rest.iter().take(10).enumerate() {
            if group == 9 && byte > 1 {
                return err("varint longer than 64 bits");
            }
            v |= u64::from(byte & 0x7f) << (7 * group);
            if byte & 0x80 == 0 {
                self.at += group + 1;
                return Ok(v);
            }
        }
        err("truncated")
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

/// Zig-zag: a signed value as an unsigned one whose magnitude grows with
/// the value's, `0, -1, 1, -2, …` as `0, 1, 2, 3, …`.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

impl Wire for u8 {
    fn put(self, e: &mut Enc) {
        e.buf.push(self);
    }
    fn get(d: &mut Dec) -> Result<u8, DecodeError> {
        Ok(d.take(1)?[0])
    }
}

/// Integers as varints (`signed` through [`zigzag`]), refused when the
/// value read does not fit the type.
macro_rules! wire_int {
    ($($t:ident: $signed:expr),*) => {$(
        impl Wire for $t {
            fn put(self, e: &mut Enc) {
                e.varint(if $signed { zigzag(self as i64) } else { self as u64 });
            }
            fn get(d: &mut Dec) -> Result<$t, DecodeError> {
                let u = d.varint()?;
                let fits = if $signed { $t::try_from(unzigzag(u)).ok() } else { $t::try_from(u).ok() };
                match fits {
                    Some(v) => Ok(v),
                    None => err(format!(concat!("varint out of range for ", stringify!($t)))),
                }
            }
        }
    )*};
}
wire_int!(u16: false, u32: false, u64: false, i32: true);

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
            // The class is the tag: 0 int, 1 float, 2 pointer. An integer
            // is its sign-extended payload, zig-zagged; a float keeps its
            // eight bytes.
            PoolConst::Val(class, v) => {
                e.put(class);
                match class {
                    RegClass::Int => e.varint(zigzag(v as i64)),
                    RegClass::Float => e.buf.extend_from_slice(&v.to_le_bytes()),
                    RegClass::Ptr => e.put(v),
                }
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
            (_, Some(&class)) => PoolConst::Val(
                class,
                match class {
                    RegClass::Int => unzigzag(d.varint()?) as u64,
                    RegClass::Float => u64::from_le_bytes(d.take(8)?.try_into().unwrap()),
                    RegClass::Ptr => d.get()?,
                },
            ),
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

impl Wire for Pad {
    fn put(self, e: &mut Enc) {
        e.put(self.start);
        e.put(self.end);
        e.put(self.target);
    }

    fn get(d: &mut Dec) -> Result<Pad, DecodeError> {
        Ok(Pad {
            start: d.get()?,
            end: d.get()?,
            target: d.get()?,
        })
    }
}

/// The block starts of a function whose blocks each end in its only
/// terminator: op 0, then every op after a terminator.
fn block_starts(ops: &[Op]) -> Vec<u32> {
    let after = ops.iter().enumerate().filter(|(_, op)| op.is_terminator());
    std::iter::once(0)
        .chain(after.map(|(pc, _)| pc as u32 + 1))
        .filter(|&pc| (pc as usize) < ops.len())
        .collect()
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
        debug_assert_eq!(
            f.block_starts,
            block_starts(&f.ops),
            "@{}: block starts are not the ones its terminators give",
            f.name
        );
        e.seq(&f.pads);
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
        let mut f = VmFunction {
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
            block_starts: Vec::new(),
            pads: d.seq()?,
            ops: d.seq()?,
        };
        f.block_starts = block_starts(&f.ops);
        funcs.push(f);
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
                Op::VEpi {
                    pred: CmpPred::Ult,
                    ty: IrType::I64,
                    iv: 5,
                    bound: 4,
                    target: 7,
                },
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
            block_starts: vec![],
            pads: vec![Pad {
                start: 1,
                end: 5,
                target: 7,
            }],
            ret: IrType::I32,
        };
        f.ops.extend(one_of_each().iter().map(|row| row.op));
        f.block_starts = block_starts(&f.ops);
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
        assert_eq!(a.pads, b.pads);
        assert_eq!(a.ret, b.ret);
        // And the image itself is canonical: re-encoding reproduces it.
        assert_eq!(bytes, encode(&back));
    }

    #[test]
    fn block_starts_are_derived_not_stored() {
        let m = sample();
        let f = &m.funcs[0];
        assert_eq!(&f.block_starts[..3], [0, 7, 18], "after `cmpbr` and `vepi`");
        assert_eq!(
            decode(&encode(&m)).unwrap().funcs[0].block_starts,
            f.block_starts
        );
        // An image whose last op is no terminator still decodes: its last
        // block is the verifier's to refuse.
        let open = VmFunction {
            ops: f.ops[..5].to_vec(),
            block_starts: vec![0],
            pads: vec![],
            ..f.clone()
        };
        let back = decode(&encode(&VmModule { funcs: vec![open] })).unwrap();
        assert_eq!(back.funcs[0].block_starts, [0]);
        let errs = crate::verify::verify_function(&back.funcs[0], &back.funcs);
        assert!(
            errs.iter()
                .any(|e| e.what == "block 0 does not end in a terminator"),
            "{errs:?}"
        );
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
        for version in [8, 10] {
            let mut vers = bytes.clone();
            vers[7] = version;
            assert!(decode(&vers).is_err(), "version {version} accepted");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode(&long).is_err());
    }

    #[test]
    fn any_byte_rewritten_decodes_or_fails_without_panicking() {
        let bytes = encode(&sample());
        for at in MAGIC.len()..bytes.len() {
            for v in [0x00, 0x01, 0x7f, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[at] = v;
                let _ = decode(&bad);
            }
        }
    }

    #[test]
    fn varints_round_trip_at_every_width_and_sign() {
        let mut e = Enc { buf: Vec::new() };
        let (wide, narrow) = (
            [0, 1, 127, 128, 16_383, 16_384, u64::MAX],
            [0, -1, 1, -64, 64, i32::MIN, i32::MAX],
        );
        wide.iter().for_each(|&v| e.put(v));
        narrow.iter().for_each(|&v| e.put(v));
        e.put(u16::MAX);
        let mut d = Dec { buf: &e.buf, at: 0 };
        for v in wide {
            assert_eq!(d.get::<u64>(), Ok(v));
        }
        for v in narrow {
            assert_eq!(d.get::<i32>(), Ok(v));
        }
        assert_eq!(d.get::<u16>(), Ok(u16::MAX));
        assert_eq!(d.at, e.buf.len());
        // One byte for a small value of either sign, ten for the widest.
        let size = |put: &dyn Fn(&mut Enc)| {
            let mut e = Enc { buf: Vec::new() };
            put(&mut e);
            e.buf.len()
        };
        assert_eq!(size(&|e| e.put(-1i32)), 1);
        assert_eq!(
            size(&|e| e.put(PoolConst::Val(RegClass::Int, -7i64 as u64))),
            2
        );
        assert_eq!(size(&|e| e.put(u64::MAX)), 10);
    }

    #[test]
    fn refuses_a_truncated_overlong_or_out_of_range_varint() {
        let refused = |bytes: &[u8], get: fn(&mut Dec) -> Result<(), DecodeError>| {
            let mut d = Dec { buf: bytes, at: 0 };
            get(&mut d).unwrap_err().0
        };
        let as_u32 = |d: &mut Dec| d.get::<u32>().map(drop);
        assert_eq!(refused(&[0x80, 0x80], as_u32), "truncated");
        let eleven = [0xff; 11];
        assert_eq!(
            refused(&eleven, |d| d.get::<u64>().map(drop)),
            "varint longer than 64 bits"
        );
        assert_eq!(
            refused(&[0x80, 0x80, 0x04], |d| d.get::<u16>().map(drop)),
            "varint out of range for u16"
        );
        assert_eq!(
            refused(&[0xff, 0xff, 0xff, 0xff, 0x10], as_u32),
            "varint out of range for u32"
        );
        assert_eq!(
            refused(&[0x80, 0x80, 0x80, 0x80, 0x10], |d| d
                .get::<i32>()
                .map(drop)),
            "varint out of range for i32"
        );
        // In an image: the pad table ends inside its one pad.
        let m = sample();
        let f = &m.funcs[0];
        let mut image = encode(&VmModule {
            funcs: vec![VmFunction {
                ops: vec![],
                block_starts: vec![],
                ..f.clone()
            }],
        });
        assert_eq!(image.pop(), Some(0), "the empty op sequence ends the image");
        let pad_at = image.len() - 3;
        assert_eq!(image[pad_at - 1], 1, "one pad");
        let refused = |cut: usize| decode(&image[..cut]).unwrap_err().to_string();
        assert_eq!(
            refused(pad_at),
            "bytecode image: length 1 exceeds remaining image"
        );
        for cut in pad_at + 1..image.len() {
            assert_eq!(refused(cut), "bytecode image: truncated");
        }
        // In an image: the function count's varint never ends.
        let mut image = MAGIC.to_vec();
        image.push(0x80);
        assert_eq!(
            decode(&image).unwrap_err().to_string(),
            "bytecode image: truncated"
        );
    }
}
