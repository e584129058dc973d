//! The buffer pool: bounded caching of on-disk block payloads.
//!
//! An opened store keeps only [`crate::BlockMeta`] (plus each payload
//! record's file offset and length) resident; payload bytes are fetched
//! on demand through a `Pager` — a capacity-bounded cache over
//! `segments.log` that evicts by SIEVE.  With the default unbounded
//! capacity nothing is ever evicted, so query behavior matches the old
//! fully-resident store exactly; with `StoreConfig::cache_bytes` set, the
//! pool holds at most that many payload bytes.  Bounded and unbounded
//! pools run the same code: an unbounded one never reaches an eviction.
//!
//! ## Why SIEVE alone
//!
//! On the scan_cold replay SIEVE misses 3.1% (seed 1) and 4.7% (seed 2)
//! less than exact LRU, and clock never beats LRU.  A SIEVE hit is one
//! map lookup and one bit store; an exact-LRU hit re-ranks the page in
//! ordered maps, a cost an unbounded pool would pay without ever
//! evicting.
//!
//! ## Pin/evict protocol
//!
//! Cached payloads are `Arc<Vec<u8>>`.  A fetch clones the `Arc` — that
//! clone *is* the pin: eviction merely drops the pool's own reference,
//! so a reader decoding a payload can never observe it being freed, and
//! an evicted-while-pinned page is reclaimed when the last reader drops
//! it.  Resident-byte accounting tracks the pool's references only, so a
//! transient overshoot of at most one in-flight payload per concurrent
//! reader is possible — bounded, and free of reader/evictor races.
//!
//! ## Lock order
//!
//! The pool's internal mutex is held only for map and queue bookkeeping
//! — never across file I/O and never while acquiring any store or shard
//! lock.  Callers (queries running under a shard `RwLock` read guard) may
//! therefore fetch freely; the reverse order (pool lock → shard lock)
//! never occurs.

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use traj_model::codec::DecodeArena;

use crate::store::StoreError;

const NIL: usize = usize::MAX;

/// One cached page: a slot of [`Sieve::slab`], linked into the SIEVE
/// queue.
struct Entry {
    key: u64,
    page: Arc<Vec<u8>>,
    visited: bool,
    /// Toward the head (newer).
    prev: usize,
    /// Toward the tail (older).
    next: usize,
}

/// The pool's pages under SIEVE (Zhang et al., NSDI '24):
/// insertion-ordered queue, newest at the head.  A hit only sets the
/// page's visited bit — nothing moves.  The hand starts at the tail and
/// walks toward the head: visited pages survive (bit cleared, hand moves
/// on), the first unvisited page is evicted and the hand stays just ahead
/// of it, so long-lived popular pages are examined rarely while one-hit
/// wonders wash out quickly.
struct Sieve {
    /// Record offset → its entry's slot: the pool's only map.
    slots: HashMap<u64, usize>,
    /// `None` slots are free and reused, last freed first, by later
    /// inserts.
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    hand: usize,
    /// Payload bytes of every cached page.
    resident_bytes: usize,
}

impl Sieve {
    fn new() -> Self {
        Self {
            slots: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            resident_bytes: 0,
        }
    }

    fn entry(&mut self, at: usize) -> &mut Entry {
        self.slab[at].as_mut().expect("linked slot is live")
    }

    /// A hit: one lookup, one bit store, one `Arc` clone.
    fn get(&mut self, key: u64) -> Option<Arc<Vec<u8>>> {
        let &at = self.slots.get(&key)?;
        let entry = self.entry(at);
        entry.visited = true;
        Some(Arc::clone(&entry.page))
    }

    /// Caches a page at the head.  The pool never inserts a key it holds.
    fn insert(&mut self, key: u64, page: Arc<Vec<u8>>) {
        self.resident_bytes += page.len();
        let entry = Entry {
            key,
            page,
            visited: false,
            prev: NIL,
            next: self.head,
        };
        let at = match self.free.pop() {
            Some(at) => {
                self.slab[at] = Some(entry);
                at
            }
            None => {
                self.slab.push(Some(entry));
                self.slab.len() - 1
            }
        };
        match self.head {
            NIL => self.tail = at,
            head => self.entry(head).prev = at,
        }
        self.head = at;
        self.slots.insert(key, at);
    }

    /// Drops the pool's reference to the next victim and returns its key
    /// (`None` when nothing is cached).  The hand clears every visited bit
    /// it passes and wraps from the head to the tail, so the walk ends
    /// within one lap: by then it is back on a page whose bit it cleared.
    fn evict(&mut self) -> Option<u64> {
        if self.tail == NIL {
            return None;
        }
        // A hand off the queue (at first, or after evicting the head)
        // starts again from the tail.
        let mut at = self.hand;
        loop {
            if at == NIL {
                at = self.tail;
            }
            let entry = self.entry(at);
            if !entry.visited {
                break;
            }
            entry.visited = false;
            at = entry.prev;
        }
        let victim = self.slab[at].take().expect("hand is on a live slot");
        self.free.push(at);
        self.slots.remove(&victim.key);
        match victim.prev {
            NIL => self.head = victim.next,
            prev => self.entry(prev).next = victim.next,
        }
        match victim.next {
            NIL => self.tail = victim.prev,
            next => self.entry(next).prev = victim.prev,
        }
        self.hand = victim.prev;
        self.resident_bytes -= victim.page.len();
        Some(victim.key)
    }
}

/// Counters of the buffer-pool pager, surfaced through store stats and
/// `/stats`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    /// Capacity in bytes (`None` = unbounded).
    pub capacity_bytes: Option<usize>,
    /// Payload bytes the pool currently holds (its own references only —
    /// pinned-but-evicted pages are not counted).
    pub resident_bytes: usize,
    /// Pages currently cached.
    pub resident_pages: usize,
    /// Fetches served from the cache.
    pub hits: u64,
    /// Fetches that had to read the log file.
    pub misses: u64,
    /// Pages evicted to stay under capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over all fetches (0.0 before the first fetch).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// The buffer pool an opened store reads payloads through: a shared,
/// capacity-bounded page cache over `segments.log`, keyed by record
/// offset.  See the module docs for the pin/evict protocol and lock
/// order.
pub(crate) struct Pager {
    file: Mutex<fs::File>,
    capacity: Option<usize>,
    pool: Mutex<Sieve>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Pager {
    /// Opens the pool over the log file at `path`.
    pub(crate) fn open(path: &Path, capacity: Option<usize>) -> Result<Self, StoreError> {
        let file = fs::File::open(path)
            .map_err(|e| StoreError::Io(format!("open {} for paging: {e}", path.display())))?;
        Ok(Self {
            file: Mutex::new(file),
            capacity,
            pool: Mutex::new(Sieve::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Fetches the payload record at `offset`, from the cache or the log
    /// file.  The returned `Arc` pins the bytes for the caller regardless
    /// of any concurrent eviction.
    pub(crate) fn fetch(&self, offset: u64, len: u32) -> Result<Arc<Vec<u8>>, StoreError> {
        let mut span = traj_obs::span("pager_fetch");
        span.attr("bytes", len);
        {
            let mut pool = self.pool.lock().expect("pager lock poisoned");
            if let Some(page) = pool.get(offset) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                span.attr("hit", true);
                return Ok(page);
            }
        }
        span.attr("hit", false);
        self.misses.fetch_add(1, Ordering::Relaxed);
        // File I/O strictly outside the pool lock.
        let page = Arc::new(self.read_raw(offset, len)?);
        let over_capacity = self.capacity.is_some_and(|cap| len as usize > cap);
        let mut pool = self.pool.lock().expect("pager lock poisoned");
        if let Some(raced) = pool.get(offset) {
            // Another reader loaded it while we read; keep theirs (their
            // load and ours make it a visited page).
            return Ok(raced);
        }
        if over_capacity {
            // Larger than the whole pool: serve it pinned, cache nothing.
            return Ok(page);
        }
        pool.insert(offset, Arc::clone(&page));
        if let Some(cap) = self.capacity {
            while pool.resident_bytes > cap && pool.evict().is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(page)
    }

    /// Reads a record directly from the log file without touching the
    /// cache — the save/checkpoint path, which streams every payload
    /// exactly once and must not wash the working set out of the pool.
    pub(crate) fn read_raw(&self, offset: u64, len: u32) -> Result<Vec<u8>, StoreError> {
        let mut buf = vec![0u8; len as usize];
        let mut file = self.file.lock().expect("pager file lock poisoned");
        file.seek(SeekFrom::Start(offset))
            .and_then(|_| file.read_exact(&mut buf))
            .map_err(|e| {
                StoreError::Io(format!("read payload at offset {offset} (len {len}): {e}"))
            })?;
        Ok(buf)
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let pool = self.pool.lock().expect("pager lock poisoned");
        CacheStats {
            capacity_bytes: self.capacity,
            resident_bytes: pool.resident_bytes,
            resident_pages: pool.slots.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// A pool of [`DecodeArena`]s: queries check one out, decode through it
/// and return it, so repeated queries stop reallocating decode buffers.
/// Bounded — at most [`ArenaPool::MAX_POOLED`] arenas are retained.
#[derive(Debug, Default)]
pub(crate) struct ArenaPool {
    pool: Mutex<Vec<DecodeArena>>,
    creates: AtomicU64,
    reuses: AtomicU64,
}

impl ArenaPool {
    /// Retention cap: enough for every plausible concurrent reader of one
    /// store, small enough that an idle store holds no real memory.
    const MAX_POOLED: usize = 64;

    pub(crate) fn checkout(&self) -> DecodeArena {
        match self.pool.lock().expect("arena pool lock poisoned").pop() {
            Some(arena) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                arena
            }
            None => {
                self.creates.fetch_add(1, Ordering::Relaxed);
                DecodeArena::new()
            }
        }
    }

    pub(crate) fn checkin(&self, arena: DecodeArena) {
        let mut pool = self.pool.lock().expect("arena pool lock poisoned");
        if pool.len() < Self::MAX_POOLED {
            pool.push(arena);
        }
    }

    /// (arenas created, arenas reused).
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.creates.load(Ordering::Relaxed),
            self.reuses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `gets` against a pool of capacity `cap` *pages* and
    /// returns the eviction order — the reference-trace harness: each get
    /// touches a key, faulting it in (and evicting if full); the returned
    /// victims pin down SIEVE's exact semantics.
    fn trace(cap: usize, gets: &[u64]) -> Vec<u64> {
        let mut pool = Sieve::new();
        let mut victims = Vec::new();
        for &key in gets {
            if pool.get(key).is_some() {
                continue;
            }
            if pool.slots.len() == cap {
                victims.push(pool.evict().expect("full pool evicts"));
            }
            pool.insert(key, Arc::new(Vec::new()));
        }
        victims
    }

    #[test]
    fn sieve_reference_trace() {
        // Capacity 3: insert 1 2 3; touch 1 (visited).  Insert 4: hand
        // starts at the tail (1) — visited, survives with bit cleared;
        // hand moves to 2, unvisited → evicted.  Insert 5: hand sits at
        // 3 (ahead of where 2 sat), unvisited → evicted.  The popular
        // page 1 survives both evictions without ever moving.
        assert_eq!(trace(3, &[1, 2, 3, 1, 4, 5]), vec![2, 3]);
        // All visited: the first pass clears every bit, the wrap-around
        // pass evicts the tail (oldest) — SIEVE degrades to FIFO.
        assert_eq!(trace(2, &[1, 2, 1, 2, 3, 4]), vec![1, 2]);
        // The hand does not reset on insert: 2 survives one examination
        // (when 3 goes) and is then passed over until the hand wraps, so
        // 5 evicts the unvisited 4.  Exact LRU, which re-ranks on every
        // access, would evict 2 there.
        assert_eq!(trace(3, &[1, 2, 3, 2, 4, 1, 5]), vec![1, 3, 4]);
    }

    #[test]
    fn sieve_handles_empty_and_drain() {
        let mut pool = Sieve::new();
        assert_eq!(pool.evict(), None, "empty pool has no victim");
        pool.insert(7, Arc::new(vec![0; 10]));
        pool.insert(8, Arc::new(vec![0; 20]));
        assert_eq!(
            pool.evict(),
            Some(7),
            "the oldest unvisited page goes first"
        );
        assert_eq!(pool.get(7), None);
        assert_eq!(pool.resident_bytes, 20);
        assert_eq!(pool.evict(), Some(8), "survivor is the victim");
        assert_eq!(pool.evict(), None, "drained");
        assert_eq!((pool.resident_bytes, pool.slots.len()), (0, 0));
        // A miss on an absent key is a no-op, and a drained pool refills
        // its freed slots.
        assert_eq!(pool.get(99), None);
        pool.insert(9, Arc::new(vec![0; 5]));
        assert_eq!(pool.slab.len(), 2);
        assert_eq!(pool.evict(), Some(9));
    }

    #[test]
    fn pager_caches_within_capacity_and_evicts_beyond() {
        let dir = std::env::temp_dir().join(format!("traj-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        // Four 100-byte records at offsets 0, 100, 200, 300.
        let bytes: Vec<u8> = (0..400u16).map(|i| (i / 100) as u8).collect();
        std::fs::write(&path, &bytes).unwrap();

        let pager = Pager::open(&path, Some(250)).unwrap();
        let a = pager.fetch(0, 100).unwrap();
        assert_eq!(a.as_slice(), &[0u8; 100][..]);
        let _b = pager.fetch(100, 100).unwrap();
        assert_eq!(pager.stats().resident_bytes, 200);
        assert_eq!(pager.stats().misses, 2);
        // A re-fetch hits.
        let _a2 = pager.fetch(0, 100).unwrap();
        assert_eq!(pager.stats().hits, 1);
        // A third page overflows 250.  The hand starts at the oldest page,
        // offset 0; the hit left it visited, so it survives with its bit
        // cleared and the victim is offset 100.
        let _c = pager.fetch(200, 100).unwrap();
        let s = pager.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, 200);
        assert_eq!(s.resident_pages, 2);
        // The evicted page is still valid through its pin...
        assert_eq!(a.as_slice(), &[0u8; 100][..]);
        // ...and faults back in on the next fetch.  The hand now sits on
        // offset 200, unvisited, so that is the next victim — offset 0
        // stays resident, where LRU would have evicted it as the least
        // recently used.
        let b2 = pager.fetch(100, 100).unwrap();
        assert_eq!(b2.as_slice(), &[1u8; 100][..]);
        assert_eq!(pager.stats().misses, 4);
        assert_eq!(pager.stats().evictions, 2);
        let _a3 = pager.fetch(0, 100).unwrap();
        assert_eq!(pager.stats().hits, 2);
        // Uncached reads bypass the pool entirely.
        let raw = pager.read_raw(300, 100).unwrap();
        assert_eq!(raw, vec![3u8; 100]);
        assert_eq!(pager.stats().misses, 4);
        assert!(pager.stats().hit_ratio() > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unbounded_pager_never_evicts() {
        let dir = std::env::temp_dir().join(format!("traj-pager-unb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        std::fs::write(&path, vec![7u8; 1000]).unwrap();
        let pager = Pager::open(&path, None).unwrap();
        for i in 0..10u64 {
            pager.fetch(i * 100, 100).unwrap();
        }
        let s = pager.stats();
        assert_eq!(s.evictions, 0);
        assert_eq!(s.resident_bytes, 1000);
        assert_eq!(s.capacity_bytes, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arena_pool_reuses() {
        let pool = ArenaPool::default();
        let a = pool.checkout();
        let b = pool.checkout();
        pool.checkin(a);
        pool.checkin(b);
        let _c = pool.checkout();
        let (creates, reuses) = pool.counters();
        assert_eq!((creates, reuses), (2, 1));
    }
}
