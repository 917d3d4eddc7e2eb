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
//!
//! Every access is checked — region, bounds, null, function pointer — by
//! [`Memory::load`] / [`Memory::store`] / [`Memory::fetch_update`], which the
//! interpreter and the runtime call. The bytecode VM's frames make the same
//! accesses through a [`RegionCache`] (`load_via`, `store_via`, and the
//! unit-stride `load_span` / `store_span`): a hit replaces the walk through
//! the region table, never the bounds test, and everything that is not a
//! valid access misses into the full check and its message.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const FN_PTR_TAG: u64 = 1 << 63;

/// A single allocation.
struct Region {
    words: Box<[AtomicU64]>,
    size_bytes: u64,
}

impl Region {
    /// The `len` (1/2/4/8) bytes at `offset`, zero-extended. The caller has
    /// checked `offset + len <= size_bytes`.
    #[inline(always)]
    fn read(&self, offset: u64, len: u64) -> u64 {
        let word_idx = (offset / 8) as usize;
        let in_word = offset % 8;
        if in_word + len <= 8 {
            let w = self.words[word_idx].load(Ordering::Relaxed);
            let shifted = w >> (in_word * 8);
            if len == 8 {
                shifted
            } else {
                shifted & ((1u64 << (len * 8)) - 1)
            }
        } else {
            // Straddles two words: assemble byte-wise.
            let mut out = 0u64;
            for i in 0..len {
                let o = offset + i;
                let w = self.words[(o / 8) as usize].load(Ordering::Relaxed);
                let b = (w >> ((o % 8) * 8)) & 0xFF;
                out |= b << (i * 8);
            }
            out
        }
    }

    /// Replaces the `len` bytes at `offset` with the low bytes of `val`. The
    /// caller has checked `offset + len <= size_bytes`.
    #[inline(always)]
    fn write(&self, offset: u64, len: u64, val: u64) {
        let word_idx = (offset / 8) as usize;
        let in_word = offset % 8;
        if len == 8 && in_word == 0 {
            self.words[word_idx].store(val, Ordering::Relaxed);
        } else if in_word + len <= 8 {
            update_field(&self.words[word_idx], in_word * 8, len, |_| val);
        } else {
            // Straddling store: byte-wise CAS.
            for i in 0..len {
                let o = offset + i;
                update_field(&self.words[(o / 8) as usize], (o % 8) * 8, 1, |_| {
                    val >> (i * 8)
                });
            }
        }
    }
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

/// Slots of a [`RegionCache`]. A constant: one slot thrashes on a stencil's
/// two grids, four hold every region a measured kernel's inner loop touches.
const CACHE_SLOTS: usize = 4;

/// A frame's direct-mapped cache from region index to region, for the
/// `*_via` accessors: an access whose region is in its slot skips the walk
/// through the table (`Memory::check`) and goes straight to the bounds
/// test.
///
/// Sound because the table is append-only for the life of the `Memory` (a
/// region, once published, is never moved, resized or freed), a slot is only
/// ever filled with what a full `check` of a real access returned, and the
/// hit path still compares `offset + len` with the region's size. Null,
/// function pointers, dangling pointers and out-of-bounds offsets can never
/// hit — they take `check`'s path to `check`'s message. The cache belongs to
/// one frame of one thread; a region another thread allocates later is a
/// miss here and is found in the table like any other.
pub struct RegionCache<'m> {
    /// Per slot: `pointer >> 32`, the region, and the region's size (capped
    /// at the 4 GiB a pointer's offset field can address, so that no lane of
    /// a span that fits can carry into the region index). Slot = region
    /// index modulo [`CACHE_SLOTS`]; an empty slot holds a key no pointer has.
    slots: [(u64, &'m Region, u64); CACHE_SLOTS],
}

impl<'m> RegionCache<'m> {
    /// The region and offset `ptr` names, if that region is cached and
    /// `bytes` from the offset on lie inside it.
    #[inline(always)]
    fn hit(&self, ptr: u64, bytes: u64) -> Option<(&'m Region, u64)> {
        let (key, offset) = (ptr >> 32, ptr & 0xFFFF_FFFF);
        let (cached, reg, limit) = self.slots[key as usize % CACHE_SLOTS];
        (cached == key && offset + bytes <= limit).then_some((reg, offset))
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
        Ok(reg.read(offset, len))
    }

    /// Stores the low `len` bytes of `val`.
    pub fn store(&self, ptr: u64, len: u64, val: u64) -> Result<(), MemError> {
        let (reg, offset) = self.check(ptr, len)?;
        reg.write(offset, len, val);
        Ok(())
    }

    /// An empty cache for one frame's accesses.
    pub fn region_cache(&self) -> RegionCache<'_> {
        let null = self.regions.get(0).expect("region 0 exists from `new`");
        // Region indices are below 2^32, so no `ptr >> 32` equals the key.
        RegionCache {
            slots: [(u64::MAX, null, 0); CACHE_SLOTS],
        }
    }

    /// [`Memory::check`] through `cache`: a hit costs one key compare and
    /// the bounds test; anything else is checked in full and, if it is a
    /// valid access, admitted.
    #[inline(always)]
    fn check_via<'m>(
        &'m self,
        cache: &mut RegionCache<'m>,
        ptr: u64,
        len: u64,
    ) -> Result<(&'m Region, u64), MemError> {
        match cache.hit(ptr, len) {
            Some(found) => Ok(found),
            None => self.admit(cache, ptr, len),
        }
    }

    #[cold]
    #[inline(never)]
    fn admit<'m>(
        &'m self,
        cache: &mut RegionCache<'m>,
        ptr: u64,
        len: u64,
    ) -> Result<(&'m Region, u64), MemError> {
        let (reg, offset) = self.check(ptr, len)?;
        let key = ptr >> 32;
        cache.slots[key as usize % CACHE_SLOTS] = (key, reg, reg.size_bytes.min(1 << 32));
        Ok((reg, offset))
    }

    /// [`Memory::load`] through a frame's region cache.
    #[inline(always)]
    pub fn load_via<'m>(
        &'m self,
        cache: &mut RegionCache<'m>,
        ptr: u64,
        len: u64,
    ) -> Result<u64, MemError> {
        let (reg, offset) = self.check_via(cache, ptr, len)?;
        Ok(reg.read(offset, len))
    }

    /// [`Memory::store`] through a frame's region cache.
    #[inline(always)]
    pub fn store_via<'m>(
        &'m self,
        cache: &mut RegionCache<'m>,
        ptr: u64,
        len: u64,
        val: u64,
    ) -> Result<(), MemError> {
        let (reg, offset) = self.check_via(cache, ptr, len)?;
        reg.write(offset, len, val);
        Ok(())
    }

    /// Unit-stride lane load: `out[l] = load(base + l * len, len)`. The span
    /// is bounds-checked once; when that fails the lanes go one by one, so
    /// the lanes before a fault are loaded and the error is the first bad
    /// lane's own.
    #[inline(always)]
    pub fn load_span<'m>(
        &'m self,
        cache: &mut RegionCache<'m>,
        base: u64,
        len: u64,
        out: &mut [u64],
    ) -> Result<(), MemError> {
        if let Some((reg, offset)) = cache.hit(base, len * out.len() as u64) {
            for (l, o) in out.iter_mut().enumerate() {
                *o = reg.read(offset + l as u64 * len, len);
            }
            return Ok(());
        }
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.load_via(cache, base.wrapping_add(l as u64 * len), len)?;
        }
        Ok(())
    }

    /// Unit-stride lane store: `store(base + l * len, len, vals[l])`, with
    /// [`Memory::load_span`]'s one check and lane-by-lane fallback.
    #[inline(always)]
    pub fn store_span<'m>(
        &'m self,
        cache: &mut RegionCache<'m>,
        base: u64,
        len: u64,
        vals: &[u64],
    ) -> Result<(), MemError> {
        if let Some((reg, offset)) = cache.hit(base, len * vals.len() as u64) {
            for (l, &v) in vals.iter().enumerate() {
                reg.write(offset + l as u64 * len, len, v);
            }
            return Ok(());
        }
        for (l, &v) in vals.iter().enumerate() {
            self.store_via(cache, base.wrapping_add(l as u64 * len), len, v)?;
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

    /// Every way an access can be refused, through the cache and not: the
    /// error is `check`'s own, byte for byte, whatever the cache holds.
    #[test]
    fn cached_accesses_fault_with_the_uncached_message() {
        let m = Memory::new();
        let p = m.alloc(12);
        let mut cache = m.region_cache();
        let dangling = 77u64 << 32;
        let bad = [
            (0, 8),                        // null
            (4, 1),                        // null, nonzero offset
            (Memory::encode_fn_ptr(3), 8), // function pointer
            (dangling, 4),                 // no such region
            (p + 12, 1),                   // one past the end
            (p + 8, 8),                    // straddles the end
            (p + 0xFFFF_FFFF, 1),          // largest offset
        ];
        // Cold cache, then with `p`'s region cached.
        for warm in [false, true] {
            if warm {
                assert_eq!(m.load_via(&mut cache, p, 4), Ok(0));
            }
            for (ptr, len) in bad {
                let want = m.load(ptr, len).unwrap_err();
                assert_eq!(m.load_via(&mut cache, ptr, len), Err(want.clone()));
                assert_eq!(m.store(ptr, len, 1), Err(want.clone()));
                assert_eq!(m.store_via(&mut cache, ptr, len, 1), Err(want.clone()));
                let mut lanes = [0u64; 2];
                assert_eq!(
                    m.load_span(&mut cache, ptr, len, &mut lanes),
                    Err(want.clone())
                );
                assert_eq!(m.store_span(&mut cache, ptr, len, &lanes), Err(want));
            }
        }
        assert_eq!(
            m.load(p + 12, 1).unwrap_err().what,
            "out-of-bounds access: offset 12+1 in region of 12 bytes"
        );
        // The last in-bounds byte is still served.
        m.store_via(&mut cache, p + 11, 1, 0xAB).unwrap();
        assert_eq!(m.load(p + 11, 1), Ok(0xAB));
    }

    /// Regions that share a slot evict each other; a hit is only ever the
    /// region the pointer names. Four regions fill the four slots, a fifth
    /// aliases the first.
    #[test]
    fn cache_never_serves_another_regions_words() {
        let m = Memory::new();
        let regions: Vec<u64> = (0..CACHE_SLOTS as u64 + 1).map(|_| m.alloc(16)).collect();
        let (first, alias) = (regions[0], regions[CACHE_SLOTS]);
        assert_eq!(
            (first >> 32) as usize % CACHE_SLOTS,
            (alias >> 32) as usize % CACHE_SLOTS,
            "the fifth region must share the first one's slot"
        );
        let mut cache = m.region_cache();
        for (i, &r) in regions.iter().enumerate() {
            m.store_via(&mut cache, r + 8, 8, 100 + i as u64).unwrap();
        }
        for round in 0..3 {
            for (i, &r) in regions.iter().enumerate() {
                assert_eq!(m.load_via(&mut cache, r + 8, 8), Ok(100 + i as u64));
                assert_eq!(m.load(r + 8, 8), Ok(100 + i as u64), "round {round}");
            }
            // The two aliases, back to back.
            for _ in 0..2 {
                assert_eq!(m.load_via(&mut cache, first + 8, 8), Ok(100));
                assert_eq!(
                    m.load_via(&mut cache, alias + 8, 8),
                    Ok(100 + CACHE_SLOTS as u64)
                );
            }
        }
        // A smaller region in the same slot as a larger one that is cached:
        // the bounds test is the named region's, not the cached one's.
        let big = m.alloc(64);
        let small = (0..CACHE_SLOTS).map(|_| m.alloc(4)).last().unwrap();
        assert_eq!(
            (big >> 32) as usize % CACHE_SLOTS,
            (small >> 32) as usize % CACHE_SLOTS
        );
        assert_eq!(m.load_via(&mut cache, big + 56, 8), Ok(0));
        assert_eq!(
            m.load_via(&mut cache, small + 8, 4),
            Err(m.load(small + 8, 4).unwrap_err())
        );
    }

    /// A unit-stride span is checked once; when the check fails the lanes go
    /// one by one, so those before the fault are served and the error names
    /// the first bad lane's own offset.
    #[test]
    fn span_faults_at_the_first_bad_lane() {
        let m = Memory::new();
        let p = m.alloc(8 * 4 + 2 * 4); // ten `i32`s
        for i in 0..10 {
            m.store(p + 4 * i, 4, 1000 + i).unwrap();
        }
        let mut cache = m.region_cache();
        // In bounds, cold (lane by lane, which fills the cache) and warm
        // (one span check).
        for _ in 0..2 {
            let mut lanes = [0u64; 4];
            m.load_span(&mut cache, p + 8, 4, &mut lanes).unwrap();
            assert_eq!(lanes, [1002, 1003, 1004, 1005]);
        }
        // Lanes 8, 9 exist; lane 10 does not.
        let mut lanes = [7u64; 4];
        let e = m.load_span(&mut cache, p + 32, 4, &mut lanes).unwrap_err();
        assert_eq!(lanes, [1008, 1009, 7, 7], "lanes before the fault loaded");
        assert_eq!(e, m.load(p + 40, 4).unwrap_err());
        assert_eq!(
            e.what,
            "out-of-bounds access: offset 40+4 in region of 40 bytes"
        );
        let e = m
            .store_span(&mut cache, p + 32, 4, &[1, 2, 3, 4])
            .unwrap_err();
        assert_eq!(e, m.load(p + 40, 4).unwrap_err());
        assert_eq!((m.load(p + 32, 4), m.load(p + 36, 4)), (Ok(1), Ok(2)));
        // A span that starts in one region and runs off it never reads the
        // next region's words.
        let q = m.alloc(16);
        m.store(q, 8, u64::MAX).unwrap();
        let mut lanes = [0u64; 2];
        assert!(m.load_span(&mut cache, p + 36, 4, &mut lanes).is_err());
        assert_eq!(lanes, [2, 0]);
    }

    /// The cache belongs to one frame; the table it fronts is shared. A
    /// region another thread allocates after the cache has filled is found.
    #[test]
    fn region_allocated_by_another_thread_after_the_cache_filled_is_found() {
        let m = Memory::new();
        let mut cache = m.region_cache();
        let mine: Vec<u64> = (0..CACHE_SLOTS).map(|_| m.alloc(8)).collect();
        for &r in &mine {
            m.store_via(&mut cache, r, 8, 1).unwrap();
        }
        let theirs = std::thread::scope(|s| {
            let t = s.spawn(|| {
                let r = m.alloc(8);
                m.store(r, 8, 0xFEED).unwrap();
                r
            });
            t.join().unwrap()
        });
        assert_eq!(m.load_via(&mut cache, theirs, 8), Ok(0xFEED));
        assert_eq!(m.load_via(&mut cache, mine[0], 8), Ok(1));
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
