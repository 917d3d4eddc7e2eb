//! The daemon's content-addressed artifact cache.
//!
//! Compiled artifacts (the optimized IR module plus, for the VM backends,
//! serialized verified bytecode) are keyed by a 128-bit hash of the source
//! text crossed with a canonical fingerprint of the *compile-relevant*
//! options. Runtime-only options — thread count, serial mode, fuel, the
//! resolved `schedule(runtime)`, chunk logging — deliberately stay out of
//! the key: two jobs that run the same compiled code under different runtime
//! configurations share one artifact. Which options are compile-relevant is
//! a column of the option table (`crate::options`); flag order never matters
//! because the fingerprint is derived from the parsed options, not from argv.
//!
//! Only *clean* compiles are cached (no diagnostics at all), which keeps
//! replay trivially byte-exact: a warm hit has no compile diagnostics to
//! reproduce, and every diagnostic-producing compile takes the cold path.
//!
//! Eviction is least-recently-used under a byte budget; sizes are real
//! serialized bytes (source + printed IR + bytecode image), so the budget
//! bounds actual memory, not entry counts. All traffic is recorded in
//! `daemon.cache.{hits,misses,evictions}` counters.

use crate::compiler::Options;
use crate::options::{OptionRow, JOB_OPTIONS};
use crate::protocol::JobRequest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// 128-bit FNV-1a — not cryptographic, but content-addressing within one
/// trusted process only needs collision resistance against accident, and the
/// wide variant makes birthday collisions astronomically unlikely.
pub fn hash128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The canonical compile-options fingerprint: one `key=token;` per
/// artifact-affecting row of the option table, in table order. Runtime-only
/// rows are excluded so equivalent requests converge on one cache line.
pub fn options_fingerprint(opts: &Options, optimize: bool) -> String {
    let mut job = JobRequest::new(0, "", "");
    job.opts = *opts;
    job.optimize = optimize;
    let token = |row: &OptionRow| {
        let token = row.artifact?(&(row.get)(&job).unwrap_or_default());
        Some(format!("{}={token};", row.key))
    };
    JOB_OPTIONS.iter().filter_map(token).collect()
}

/// A cache key: source content hash × options fingerprint.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// 128-bit content hash of the source text.
    pub source: u128,
    /// Canonical options fingerprint ([`options_fingerprint`]).
    pub options: String,
}

impl CacheKey {
    /// Builds the key for a compile request.
    pub fn new(source: &str, opts: &Options, optimize: bool) -> CacheKey {
        CacheKey {
            source: hash128(source.as_bytes()),
            options: options_fingerprint(opts, optimize),
        }
    }
}

/// One cached compile result. Cheap to clone — the heavy members are shared.
#[derive(Clone)]
pub struct Artifact {
    /// The post-codegen (and post-mid-end, if requested) IR module. Engines
    /// need it even when executing bytecode (symbol names, globals).
    pub module: Arc<omplt_ir::Module>,
    /// Serialized, verifier-approved bytecode image (`omplt_vm::encode`);
    /// `None` when the job's backend never wanted bytecode.
    pub bytecode: Option<Arc<Vec<u8>>>,
    /// Accounted size in bytes (computed once at insert).
    pub size: usize,
}

impl Artifact {
    /// Integrity checksum over the serialized bytecode image — the part of
    /// the artifact that is replayed bit-for-bit into an engine. Artifacts
    /// without bytecode checksum to a fixed sentinel and trivially verify.
    fn checksum(&self) -> u128 {
        match &self.bytecode {
            Some(bc) => hash128(bc),
            None => 0,
        }
    }
}

struct Entry {
    artifact: Artifact,
    /// [`Artifact::checksum`] recorded at insert; re-verified on every hit.
    checksum: u128,
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    bytes: usize,
    tick: u64,
}

/// The shared LRU artifact cache. `Send + Sync`; one per [`crate::service::Service`].
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    integrity_failures: AtomicU64,
}

/// Default byte budget (`ompltd --cache-bytes` overrides): 64 MiB.
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

impl ArtifactCache {
    /// An empty cache with the given byte budget.
    pub fn new(budget: usize) -> ArtifactCache {
        ArtifactCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            integrity_failures: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency. Records a hit or miss.
    ///
    /// Every hit is integrity-checked against the checksum recorded at
    /// insert. A mismatch means the in-memory artifact was corrupted after
    /// insertion (injected via `daemon.cache-corrupt`, or a real memory
    /// fault): the entry is quarantined — removed so it can never serve
    /// again — `daemon.cache.integrity_failures` is bumped, and the call
    /// reports a miss so the caller recompiles and re-inserts a clean copy.
    pub fn lookup(&self, key: &CacheKey) -> Option<Artifact> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                if entry.artifact.checksum() != entry.checksum {
                    let dead = inner.map.remove(key).expect("entry just observed");
                    inner.bytes -= dead.artifact.size;
                    self.integrity_failures.fetch_add(1, Ordering::Relaxed);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.artifact.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Fault-injection hook for `daemon.cache-corrupt`: flips one byte in
    /// the cached bytecode image for `key`, cloning the buffer first so
    /// outstanding `Artifact` clones keep their pristine copy. Returns
    /// `false` when the key is absent or carries no bytecode (nothing to
    /// corrupt). The next [`ArtifactCache::lookup`] for the key detects the
    /// mismatch and quarantines the entry.
    pub fn corrupt(&self, key: &CacheKey) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let Some(entry) = inner.map.get_mut(key) else {
            return false;
        };
        let Some(bc) = &entry.artifact.bytecode else {
            return false;
        };
        let mut bytes = bc.as_ref().clone();
        if bytes.is_empty() {
            return false;
        }
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
        entry.artifact.bytecode = Some(Arc::new(bytes));
        true
    }

    /// Inserts an artifact, evicting least-recently-used entries until the
    /// budget holds. An artifact larger than the whole budget is not cached.
    pub fn insert(&self, key: CacheKey, artifact: Artifact) {
        if artifact.size > self.budget {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.artifact.size;
        }
        inner.bytes += artifact.size;
        let checksum = artifact.checksum();
        inner.map.insert(
            key,
            Entry {
                artifact,
                checksum,
                last_used: tick,
            },
        );
        while inner.bytes > self.budget {
            // O(entries) scan per eviction: entry counts are small (tens to
            // low thousands) and eviction is off the hit path.
            let Some(lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            let e = inner.map.remove(&lru).expect("lru key just observed");
            inner.bytes -= e.artifact.size;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current `daemon.cache.*` counter values, sorted by name — the shape
    /// the drift guard pins.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let inner = self.inner.lock().unwrap();
        vec![
            ("daemon.cache.bytes", inner.bytes as u64),
            ("daemon.cache.entries", inner.map.len() as u64),
            (
                "daemon.cache.evictions",
                self.evictions.load(Ordering::Relaxed),
            ),
            ("daemon.cache.hits", self.hits.load(Ordering::Relaxed)),
            (
                "daemon.cache.integrity_failures",
                self.integrity_failures.load(Ordering::Relaxed),
            ),
            ("daemon.cache.misses", self.misses.load(Ordering::Relaxed)),
        ]
    }

    /// Renders [`ArtifactCache::counters`] in the same deterministic
    /// document shape as `TraceData::to_counters_json`.
    pub fn counters_json(&self) -> String {
        omplt_trace::json::counters_doc(self.counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Backend;

    fn artifact(size: usize) -> Artifact {
        Artifact {
            module: Arc::new(omplt_ir::Module::default()),
            bytecode: None,
            size,
        }
    }

    fn key(src: &str) -> CacheKey {
        CacheKey::new(src, &Options::default(), true)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ArtifactCache::new(1000);
        assert!(c.lookup(&key("a")).is_none());
        c.insert(key("a"), artifact(10));
        assert!(c.lookup(&key("a")).is_some());
        let counters: std::collections::HashMap<_, _> = c.counters().into_iter().collect();
        assert_eq!(counters["daemon.cache.hits"], 1);
        assert_eq!(counters["daemon.cache.misses"], 1);
    }

    #[test]
    fn single_token_mutation_misses() {
        // The cache is content-addressed: any textual difference is a
        // different key, even one character.
        let a = key("int main(void) { return 1; }");
        let b = key("int main(void) { return 2; }");
        assert_ne!(a, b);
    }

    #[test]
    fn runtime_options_do_not_split_the_key() {
        let mut runtime_variant = Options {
            num_threads: 9,
            serial: true,
            max_steps: 123,
            log_chunks: true,
            deadline_ms: Some(5),
            ..Options::default()
        };
        runtime_variant.runtime_schedule = Some(omplt_interp::RuntimeSchedule::default_static());
        assert_eq!(
            CacheKey::new("src", &Options::default(), false),
            CacheKey::new("src", &runtime_variant, false)
        );
        // Compile-relevant options do split it.
        let vm = Options {
            backend: Backend::Vm,
            ..Options::default()
        };
        assert_ne!(
            CacheKey::new("src", &Options::default(), false),
            CacheKey::new("src", &vm, false)
        );
        assert_ne!(
            CacheKey::new("src", &Options::default(), false),
            CacheKey::new("src", &Options::default(), true)
        );
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let c = ArtifactCache::new(100);
        c.insert(key("a"), artifact(40));
        c.insert(key("b"), artifact(40));
        // Touch "a" so "b" is the LRU entry.
        assert!(c.lookup(&key("a")).is_some());
        c.insert(key("c"), artifact(40));
        assert!(c.lookup(&key("b")).is_none(), "LRU entry evicted");
        assert!(c.lookup(&key("a")).is_some());
        assert!(c.lookup(&key("c")).is_some());
        let counters: std::collections::HashMap<_, _> = c.counters().into_iter().collect();
        assert_eq!(counters["daemon.cache.evictions"], 1);
        assert!(counters["daemon.cache.bytes"] <= 100);
    }

    #[test]
    fn oversized_artifacts_are_not_cached() {
        let c = ArtifactCache::new(10);
        c.insert(key("a"), artifact(11));
        assert!(c.lookup(&key("a")).is_none());
    }

    fn bytecode_artifact(image: &[u8]) -> Artifact {
        Artifact {
            module: Arc::new(omplt_ir::Module::default()),
            bytecode: Some(Arc::new(image.to_vec())),
            size: image.len(),
        }
    }

    #[test]
    fn corrupted_entry_is_quarantined_not_served() {
        let c = ArtifactCache::new(1000);
        c.insert(key("a"), bytecode_artifact(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(c.lookup(&key("a")).is_some(), "clean hit first");
        assert!(c.corrupt(&key("a")), "injection point flips a byte");
        assert!(
            c.lookup(&key("a")).is_none(),
            "corrupted entry must not be served"
        );
        assert!(
            c.lookup(&key("a")).is_none(),
            "quarantine removed the entry entirely"
        );
        let counters: std::collections::HashMap<_, _> = c.counters().into_iter().collect();
        assert_eq!(counters["daemon.cache.integrity_failures"], 1);
        assert_eq!(counters["daemon.cache.hits"], 1);
        assert_eq!(counters["daemon.cache.misses"], 2);
        assert_eq!(counters["daemon.cache.entries"], 0);
        assert_eq!(counters["daemon.cache.bytes"], 0);
        // Reinsertion after recompile serves clean hits again.
        c.insert(key("a"), bytecode_artifact(&[1, 2, 3, 4, 5, 6, 7, 8]));
        assert!(c.lookup(&key("a")).is_some());
    }

    #[test]
    fn corrupt_reports_missing_or_bytecode_free_entries() {
        let c = ArtifactCache::new(1000);
        assert!(!c.corrupt(&key("absent")));
        c.insert(key("a"), artifact(10));
        assert!(!c.corrupt(&key("a")), "no bytecode image to corrupt");
        assert!(c.lookup(&key("a")).is_some(), "entry unharmed");
    }
}
