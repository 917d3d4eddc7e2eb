//! Shared guest memory for the IR interpreter.
//!
//! Built from `AtomicU64` word cells so `parallel` regions can execute on
//! real OS threads without the *interpreter* exhibiting undefined behaviour:
//! racy guest programs degrade to relaxed-atomic semantics (each 8-byte word
//! access is atomic; sub-word and straddling accesses use CAS
//! read-modify-write), which is strictly more defined than the C they model.
//!
//! Pointers are 64-bit handles: `region_index << 32 | byte_offset`. Region 0
//! is reserved so the null pointer stays invalid. Function pointers use a
//! tag bit (see [`Memory::encode_fn_ptr`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const FN_PTR_TAG: u64 = 1 << 63;

/// A single allocation.
struct Region {
    words: Box<[AtomicU64]>,
    size_bytes: u64,
}

/// Lock-free append-only region table: segment `k` holds `2^k` slots, so
/// lookups are two data-dependent loads and **no lock** — guest loads/stores
/// happen on every interpreted memory instruction and would otherwise
/// serialize the thread team on the table lock.
const NUM_SEGMENTS: usize = 32;

struct SegmentedArena {
    segments: [OnceLock<Box<[OnceLock<Region>]>>; NUM_SEGMENTS],
    len: AtomicU64,
}

impl SegmentedArena {
    fn new() -> SegmentedArena {
        SegmentedArena {
            segments: [const { OnceLock::new() }; NUM_SEGMENTS],
            len: AtomicU64::new(0),
        }
    }

    /// (segment index, offset within segment) for a flat index.
    fn locate(idx: u64) -> (usize, usize) {
        // segment k covers indices [2^k - 1, 2^(k+1) - 1)
        let seg = (64 - (idx + 1).leading_zeros() - 1) as usize;
        let start = (1u64 << seg) - 1;
        (seg, (idx - start) as usize)
    }

    /// Appends a region, returning its flat index.
    fn push(&self, region: Region) -> u64 {
        let idx = self.len.fetch_add(1, Ordering::Relaxed);
        let (seg, off) = Self::locate(idx);
        assert!(seg < NUM_SEGMENTS, "guest region space exhausted");
        let slab = self.segments[seg].get_or_init(|| {
            let cap = 1usize << seg;
            let mut v = Vec::with_capacity(cap);
            v.resize_with(cap, OnceLock::new);
            v.into_boxed_slice()
        });
        slab[off]
            .set(region)
            .ok()
            .expect("region slot written twice");
        idx
    }

    /// Wait-free lookup.
    fn get(&self, idx: u64) -> Option<&Region> {
        if idx >= self.len.load(Ordering::Acquire) {
            return None;
        }
        let (seg, off) = Self::locate(idx);
        self.segments.get(seg)?.get()?.get(off)?.get()
    }
}

/// Replaces the `len`-byte field `shift` bits into `cell` with the low bytes
/// of `f(old field)`; returns the old field. A CAS read-modify-write, so
/// concurrent writers of the word's other bytes stay intact.
#[inline]
fn update_field(cell: &AtomicU64, shift: u64, len: u64, mut f: impl FnMut(u64) -> u64) -> u64 {
    let mask = if len == 8 {
        u64::MAX
    } else {
        ((1u64 << (len * 8)) - 1) << shift
    };
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let old = (cur & mask) >> shift;
        let next = (cur & !mask) | ((f(old) << shift) & mask);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return old,
            Err(c) => cur = c,
        }
    }
}

/// The interpreter's address space. Allocation is append-only; everything is
/// freed when the `Memory` is dropped (per-run arena).
pub struct Memory {
    regions: SegmentedArena,
}

/// Error kind for bad guest accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemError {
    /// Human-readable description.
    pub what: String,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    /// Creates an address space with the null region reserved.
    pub fn new() -> Memory {
        let m = Memory {
            regions: SegmentedArena::new(),
        };
        m.regions.push(Region {
            words: Box::new([]),
            size_bytes: 0,
        });
        m
    }

    /// Allocates `bytes` zero-initialized bytes; returns the guest pointer.
    pub fn alloc(&self, bytes: u64) -> u64 {
        let words = bytes.div_ceil(8) as usize;
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        let idx = self.regions.push(Region {
            words: v.into_boxed_slice(),
            size_bytes: bytes,
        });
        assert!(idx < u32::MAX as u64, "guest region space exhausted");
        idx << 32
    }

    /// Encodes a function symbol as a tagged pointer.
    pub fn encode_fn_ptr(sym: u32) -> u64 {
        FN_PTR_TAG | sym as u64
    }

    /// Decodes a tagged function pointer back to its symbol.
    pub fn decode_fn_ptr(ptr: u64) -> Option<u32> {
        (ptr & FN_PTR_TAG != 0).then_some((ptr & 0xFFFF_FFFF) as u32)
    }

    fn check(&self, ptr: u64, len: u64) -> Result<(&Region, u64), MemError> {
        if ptr & FN_PTR_TAG != 0 {
            return Err(MemError {
                what: format!("data access through function pointer {ptr:#x}"),
            });
        }
        let region = (ptr >> 32) as u32;
        let offset = ptr & 0xFFFF_FFFF;
        if region == 0 {
            return Err(MemError {
                what: "null pointer dereference".to_string(),
            });
        }
        match self.regions.get(region as u64) {
            Some(reg) if offset + len <= reg.size_bytes => Ok((reg, offset)),
            Some(reg) => Err(MemError {
                what: format!(
                    "out-of-bounds access: offset {offset}+{len} in region of {} bytes",
                    reg.size_bytes
                ),
            }),
            None => Err(MemError {
                what: format!("dangling pointer {ptr:#x}"),
            }),
        }
    }

    /// Loads `len` (1/2/4/8) bytes, zero-extended into a `u64`.
    pub fn load(&self, ptr: u64, len: u64) -> Result<u64, MemError> {
        let (reg, offset) = self.check(ptr, len)?;
        let word_idx = (offset / 8) as usize;
        let in_word = offset % 8;
        if in_word + len <= 8 {
            let w = reg.words[word_idx].load(Ordering::Relaxed);
            let shifted = w >> (in_word * 8);
            Ok(if len == 8 {
                shifted
            } else {
                shifted & ((1u64 << (len * 8)) - 1)
            })
        } else {
            // Straddles two words: assemble byte-wise.
            let mut out = 0u64;
            for i in 0..len {
                let o = offset + i;
                let w = reg.words[(o / 8) as usize].load(Ordering::Relaxed);
                let b = (w >> ((o % 8) * 8)) & 0xFF;
                out |= b << (i * 8);
            }
            Ok(out)
        }
    }

    /// Stores the low `len` bytes of `val`.
    pub fn store(&self, ptr: u64, len: u64, val: u64) -> Result<(), MemError> {
        let (reg, offset) = self.check(ptr, len)?;
        let word_idx = (offset / 8) as usize;
        let in_word = offset % 8;
        if len == 8 && in_word == 0 {
            reg.words[word_idx].store(val, Ordering::Relaxed);
            return Ok(());
        }
        if in_word + len <= 8 {
            update_field(&reg.words[word_idx], in_word * 8, len, |_| val);
            return Ok(());
        }
        // Straddling store: byte-wise CAS.
        for i in 0..len {
            let o = offset + i;
            update_field(&reg.words[(o / 8) as usize], (o % 8) * 8, 1, |_| {
                val >> (i * 8)
            });
        }
        Ok(())
    }

    /// Atomically replaces the naturally aligned `len`-byte (1/2/4/8) value
    /// at `ptr` with `f` of it and returns the old value (used by
    /// `reduction`). `f` may run more than once under contention.
    pub fn fetch_update(
        &self,
        ptr: u64,
        len: u64,
        f: impl FnMut(u64) -> u64,
    ) -> Result<u64, MemError> {
        let (reg, offset) = self.check(ptr, len)?;
        if offset % len.max(1) != 0 {
            return Err(MemError {
                what: "unaligned atomic".to_string(),
            });
        }
        let cell = &reg.words[(offset / 8) as usize];
        Ok(update_field(cell, (offset % 8) * 8, len, f))
    }

    /// Number of live regions (diagnostic).
    pub fn num_regions(&self) -> usize {
        self.regions.len.load(Ordering::Acquire) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_round_trip() {
        let m = Memory::new();
        let p = m.alloc(16);
        m.store(p, 8, 0x1122334455667788).unwrap();
        assert_eq!(m.load(p, 8).unwrap(), 0x1122334455667788);
        m.store(p + 8, 4, 0xDEADBEEF).unwrap();
        assert_eq!(m.load(p + 8, 4).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn sub_word_stores_do_not_clobber_neighbors() {
        let m = Memory::new();
        let p = m.alloc(8);
        m.store(p, 8, u64::MAX).unwrap();
        m.store(p + 2, 2, 0).unwrap();
        assert_eq!(m.load(p, 8).unwrap(), 0xFFFF_FFFF_0000_FFFF);
        assert_eq!(m.load(p + 2, 2).unwrap(), 0);
        assert_eq!(m.load(p, 2).unwrap(), 0xFFFF);
    }

    #[test]
    fn straddling_access() {
        let m = Memory::new();
        let p = m.alloc(16);
        // 4-byte store at offset 6 crosses the word boundary
        m.store(p + 6, 4, 0xAABBCCDD).unwrap();
        assert_eq!(m.load(p + 6, 4).unwrap(), 0xAABBCCDD);
        assert_eq!(m.load(p + 6, 2).unwrap(), 0xCCDD);
        assert_eq!(m.load(p + 8, 2).unwrap(), 0xAABB);
    }

    #[test]
    fn null_and_oob_rejected() {
        let m = Memory::new();
        assert!(m.load(0, 8).is_err());
        let p = m.alloc(4);
        assert!(m.load(p, 8).is_err());
        assert!(m.load(p + 4, 1).is_err());
        assert!(m.store(p, 4, 0).is_ok());
    }

    #[test]
    fn fn_ptr_tagging() {
        let p = Memory::encode_fn_ptr(7);
        assert_eq!(Memory::decode_fn_ptr(p), Some(7));
        assert_eq!(Memory::decode_fn_ptr(1 << 32), None);
        let m = Memory::new();
        assert!(m.load(p, 8).is_err(), "function pointers are not data");
    }

    #[test]
    fn fetch_update_atomicity_across_threads() {
        let m = std::sync::Arc::new(Memory::new());
        let p = m.alloc(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.fetch_update(p, 8, |v| v + 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.load(p, 8).unwrap(), 8000);
    }

    #[test]
    fn concurrent_subword_neighbors_survive() {
        // Two threads hammering adjacent bytes of the same word must not
        // lose each other's writes (the CAS loop guarantees it).
        let m = std::sync::Arc::new(Memory::new());
        let p = m.alloc(8);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..500u64 {
                        m.store(p + t, 1, i & 0xFF).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.load(p, 1).unwrap(), 499 & 0xFF);
        assert_eq!(m.load(p + 1, 1).unwrap(), 499 & 0xFF);
    }

    #[test]
    fn fetch_update_subword_counts_exactly_beside_a_hammered_neighbor() {
        // A 4-byte counter in the lower half of a word, incremented from
        // four threads while a fifth rewrites the upper half: no increment
        // is lost, the neighbor keeps its last value, and the counter wraps
        // at its own width — racing and, checked last on a quiet word,
        // without carrying into the neighbor.
        let m = std::sync::Arc::new(Memory::new());
        let p = m.alloc(8);
        m.store(p, 4, 0xFFFF_FF00).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..500 {
                        m.fetch_update(p, 4, |v| v + 1).unwrap();
                    }
                });
            }
            let m = std::sync::Arc::clone(&m);
            s.spawn(move || {
                for i in 0..=500u64 {
                    m.store(p + 4, 4, i).unwrap();
                }
            });
        });
        assert_eq!(m.load(p, 4).unwrap(), 2000 - 0x100, "wrapped at 32 bits");
        assert_eq!(m.load(p + 4, 4).unwrap(), 500);
        assert_eq!(m.fetch_update(p, 4, |v| v).unwrap(), 2000 - 0x100);
        m.store(p, 4, u32::MAX as u64).unwrap();
        assert_eq!(m.fetch_update(p, 4, |v| v + 1).unwrap(), u32::MAX as u64);
        assert_eq!(
            m.load(p, 8).unwrap(),
            500 << 32,
            "no carry out of the field"
        );
        assert!(m.fetch_update(p + 2, 4, |v| v).is_err(), "unaligned");
        assert!(m.fetch_update(p + 8, 4, |v| v).is_err(), "out of bounds");
    }
}
