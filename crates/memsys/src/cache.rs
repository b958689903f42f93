//! Set-associative cache with LRU replacement and per-line coherence
//! metadata.
//!
//! One [`Cache`] type serves every level of the hierarchy; the level
//! semantics (private vs. shared, inclusive back-invalidation, sharing
//! detection) live in [`crate::system`], which composes caches and
//! interprets the per-line [`LineMeta`] fields.
//!
//! # Layout
//!
//! The ways are stored as parallel per-way arrays — `tags`, `stamps`
//! (LRU clock values) and `metas` — rather than one array of way
//! records. Set `s` occupies indices `s * assoc..(s + 1) * assoc` of each
//! array, and that global index is the "way" handed out by
//! [`Cache::lookup`] and [`Cache::fill_masked`] and taken by
//! [`Cache::way_holds`] and [`Cache::touch_way`]. A tag match reads only
//! the set's tags (two host cache lines for a 16-way set), and the
//! stamps are read only when a fill has to pick an LRU victim.
//!
//! The tag match and the LRU victim pick run through fixed-width
//! kernels for the associativities the machine uses (4, 8 and 16 ways),
//! chosen by a `match` on the set width, so each compiles to a fixed
//! branch-free sequence without a loop; any other width takes a
//! run-time-length loop.
//!
//! An empty way holds the tag `EMPTY` (`u64::MAX`), which no line
//! address can take (line addresses are byte addresses `>> 6`), so there
//! is no separate valid flag. `tags` stores each tag's bitwise
//! complement, so an empty way stores 0 and a new cache's `tags` and
//! `stamps` are zeroed allocations, whose pages are first touched when
//! ways fill rather than when the cache is built. Each set holds a line
//! at most once, which lets a tag match compare every way without an
//! early exit and keep the one hit.
//!
//! Snapshots do not see the layout: [`Cache::encode_snap`] writes the
//! same per-way records, in way order, that it always has.

/// Per-line metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// Line holds modified data not yet written back.
    pub dirty: bool,
    /// Line may be written locally without an upgrade request (E/M in MESI
    /// terms; false means S).
    pub writable: bool,
    /// Line was installed by a prefetcher and not yet demanded (cleared on
    /// the first demand hit; used for useful-prefetch accounting).
    pub prefetched: bool,
    /// Bitmask of cores (socket-local numbering) whose private caches may
    /// hold the line. Only meaningful on shared (LLC) caches.
    pub sharers: u16,
    /// Core that most recently wrote the line, if the write has not yet
    /// been observed by a different core. Only meaningful on LLC lines:
    /// this is the Figure 6 read-write sharing detector.
    pub fresh_writer: Option<u8>,
    /// Tenant (co-located workload) on whose behalf the line was filled.
    /// `0` in every single-tenant run; used by the interference matrix for
    /// per-tenant LLC occupancy accounting and way-partition enforcement.
    pub tenant: u8,
}

impl LineMeta {
    /// Metadata for a clean line filled on behalf of a read.
    pub fn clean() -> Self {
        Self {
            dirty: false,
            writable: false,
            prefetched: false,
            sharers: 0,
            fresh_writer: None,
            tenant: 0,
        }
    }
}

impl Default for LineMeta {
    fn default() -> Self {
        Self::clean()
    }
}

/// Tag of an empty way. Line addresses are byte addresses `>> 6`, so no
/// line address reaches it. Stored complemented, as 0.
const EMPTY: u64 = u64::MAX;

/// Precomputed set-index strategy: `line mod n_sets` without a hardware
/// divide on the hot path.
///
/// Set counts are fixed at construction, so the divisor is a constant
/// the compiler never sees — the Table 1 LLC has 12288 sets, which is
/// *not* a power of two, and `line % 12288` showed up as a `div` in
/// every lookup, fill, peek and invalidate. Powers of two reduce to a
/// mask; other divisors below 2^32 use the multiply-shift trick
/// (Lemire's fastmod): with `magic = ceil(2^128 / d)`, the remainder of
/// any 64-bit `n` is `mulhi_128(magic * n, d)`. Divisors of 2^32 and up
/// (never seen in practice) keep the plain `%`.
#[derive(Debug, Clone, Copy)]
enum SetIndex {
    /// `n_sets` is a power of two: index = line & mask.
    Mask(u64),
    /// Non-power-of-two `d < 2^32`: index = high 64 bits of
    /// `(magic * line mod 2^128) * d`.
    FastMod { d: u64, magic: u128 },
    /// Fallback for huge divisors: plain modulo.
    Mod(u64),
}

/// High 64 bits of the 192-bit product `x * d`, computed in 128-bit
/// pieces (`x` is already reduced mod 2^128 by wrapping arithmetic).
#[inline]
fn mulhi_128(x: u128, d: u64) -> u64 {
    let lo = (x as u64) as u128;
    let hi = (x >> 64) as u64 as u128;
    let d = d as u128;
    ((hi * d + ((lo * d) >> 64)) >> 64) as u64
}

impl SetIndex {
    fn new(n_sets: u64) -> Self {
        if n_sets.is_power_of_two() {
            SetIndex::Mask(n_sets - 1)
        } else if n_sets < 1 << 32 {
            // ceil(2^128 / d) for non-power-of-two d; correct for all
            // 64-bit dividends because the fastmod error term stays
            // below 2^128 when d < 2^32.
            SetIndex::FastMod { d: n_sets, magic: u128::MAX / n_sets as u128 + 1 }
        } else {
            SetIndex::Mod(n_sets)
        }
    }

    #[inline]
    fn index(self, line: u64) -> u64 {
        match self {
            SetIndex::Mask(mask) => line & mask,
            SetIndex::FastMod { d, magic } => mulhi_128(magic.wrapping_mul(line as u128), d),
            SetIndex::Mod(d) => line % d,
        }
    }
}

/// A set-associative, write-back, write-allocate cache over 64-byte lines
/// with true-LRU replacement.
///
/// Addresses passed to this type are *line addresses* (byte address divided
/// by 64); the caller performs the shift once.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Bitwise complement of the line address held by each way; 0
    /// (`!EMPTY`) when the way is empty.
    tags: Vec<u64>,
    /// LRU clock value of each way's last touch; meaningless when empty.
    stamps: Vec<u64>,
    /// Metadata of each way's line; meaningless when empty.
    metas: Vec<LineMeta>,
    assoc: usize,
    set_index: SetIndex,
    tick: u64,
    /// Valid lines per tenant tag (indexed by tenant), kept in step with
    /// the ways by fill, eviction, in-place refill and invalidate, so
    /// occupancy queries cost O(tenants) instead of O(capacity). Callers
    /// that mutate a line's [`LineMeta`] through [`Cache::lookup`] or
    /// [`Cache::peek_mut`] must not change its `tenant`. Inline, one slot
    /// per possible tenant: a small `Vec` allocated beside the way arrays
    /// fragmented the heap and raised peak RSS by ~0.8 MiB on runs that
    /// build and drop many chips.
    tenant_valid: [u32; 256],
}

/// Result of a [`Cache::fill`]: the line that had to be evicted, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line address of the victim.
    pub line: u64,
    /// Victim metadata at eviction time.
    pub meta: LineMeta,
}

/// The two masks one pass over a set's stored tags yields: bit `i` of
/// the first is set when way `i` stores `key`, bit `i` of the second
/// when way `i` is empty. Compares every way, without an early exit, so
/// the loop has no data-dependent branch; a caller that reads only the
/// first mask pays only for it once this is inlined.
#[inline(always)]
fn scan(tags: &[u64], key: u64) -> (u64, u64) {
    let (mut hits, mut free) = (0u64, 0u64);
    for (i, &tag) in tags.iter().enumerate() {
        hits |= u64::from(tag == key) << i;
        free |= u64::from(tag == !EMPTY) << i;
    }
    (hits, free)
}

/// [`scan`] over exactly `N` ways: with the width a constant, the loop
/// unrolls completely, with no prologue, variable shift or tail.
#[inline(always)]
fn scan_fixed<const N: usize>(tags: &[u64], key: u64) -> (u64, u64) {
    let tags: &[u64; N] = tags.try_into().expect("set width matches the kernel");
    scan(tags, key)
}

/// The first way among `allowed` (non-empty, all full) with the oldest
/// stamp, in two branch-free passes: the minimum stamp with every
/// disallowed way read as `u64::MAX` (no tick reaches it), then the
/// lowest allowed way holding that minimum.
#[inline(always)]
fn oldest(stamps: &[u64], allowed: u64) -> usize {
    let mut min = u64::MAX;
    for (i, &stamp) in stamps.iter().enumerate() {
        min = min.min(if allowed >> i & 1 != 0 { stamp } else { u64::MAX });
    }
    let mut at = 0u64;
    for (i, &stamp) in stamps.iter().enumerate() {
        at |= u64::from(stamp == min) << i;
    }
    (at & allowed).trailing_zeros() as usize
}

/// [`oldest`] over exactly `N` ways, unrolled like [`scan_fixed`].
#[inline(always)]
fn oldest_fixed<const N: usize>(stamps: &[u64], allowed: u64) -> usize {
    let stamps: &[u64; N] = stamps.try_into().expect("set width matches the kernel");
    oldest(stamps, allowed)
}

impl Cache {
    /// Creates a cache with `sets` sets of `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `assoc` is zero, or if `assoc` exceeds 64 (a
    /// [`Cache::fill_masked`] way mask has one bit per way).
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets > 0, "set count must be positive");
        assert!(assoc > 0, "associativity must be positive");
        assert!(assoc <= 64, "associativity must be at most 64");
        let ways = sets * assoc;
        Self {
            tags: vec![!EMPTY; ways],
            stamps: vec![0; ways],
            metas: vec![LineMeta::clean(); ways],
            assoc,
            set_index: SetIndex::new(sets as u64),
            tick: 0,
            tenant_valid: [0; 256],
        }
    }

    /// Moves one valid line's count from tenant `from` (the line leaving
    /// the way, if any) to tenant `to` (the line now in it).
    #[inline]
    fn retag(&mut self, from: Option<u8>, to: u8) {
        if from == Some(to) {
            return;
        }
        if let Some(f) = from {
            self.tenant_valid[f as usize] -= 1;
        }
        self.tenant_valid[to as usize] += 1;
    }

    /// Creates a cache from a [`crate::config::CacheConfig`]. Set counts
    /// need not be powers of two (the Table 1 LLC has 12288 sets); lines
    /// are indexed by modulo.
    pub fn from_config(cfg: &crate::config::CacheConfig) -> Self {
        Self::new(cfg.sets(), cfg.assoc)
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }

    /// Index of the first way of `line`'s set.
    #[inline]
    fn set_base(&self, line: u64) -> usize {
        self.set_index.index(line) as usize * self.assoc
    }

    /// [`scan`] over the set whose first way is `base`, through a
    /// fixed-width kernel for the widths the machine uses — 4 (the TLBs),
    /// 8 (L1 and L2) and 16 (the LLC) — and the run-time-width loop for
    /// any other.
    #[inline(always)]
    fn scan_set(&self, base: usize, key: u64) -> (u64, u64) {
        let tags = &self.tags[base..base + self.assoc];
        match self.assoc {
            4 => scan_fixed::<4>(tags, key),
            8 => scan_fixed::<8>(tags, key),
            16 => scan_fixed::<16>(tags, key),
            _ => scan(tags, key),
        }
    }

    /// Global way index of `line`, if present.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        debug_assert_ne!(line, EMPTY, "the empty-way tag is not a line address");
        let base = self.set_base(line);
        let (hits, _) = self.scan_set(base, !line);
        debug_assert!(hits.count_ones() <= 1, "line {line:#x} is resident twice in one set");
        (hits != 0).then(|| base + hits.trailing_zeros() as usize)
    }

    /// Looks up `line`; on a hit, touches LRU state and returns its way
    /// index and metadata (mutable so the caller can update coherence
    /// bits).
    #[inline]
    pub fn lookup(&mut self, line: u64) -> Option<(usize, &mut LineMeta)> {
        self.tick += 1;
        let way = self.find(line)?;
        self.stamps[way] = self.tick;
        Some((way, &mut self.metas[way]))
    }

    /// Metadata of `line` if — and only if — it currently sits at `way`,
    /// without touching LRU state. O(1): validates a memoized way index
    /// instead of scanning the set.
    #[inline]
    pub fn way_holds(&self, way: usize, line: u64) -> Option<&LineMeta> {
        (self.tags[way] == !line).then(|| &self.metas[way])
    }

    /// Re-stamps `way` as most-recently used, exactly as a [`Cache::lookup`]
    /// hit on its resident line would (tick advance included, so snapshots
    /// of a replayed hit are byte-identical to snapshots of a real one).
    #[inline]
    pub fn touch_way(&mut self, way: usize) {
        self.tick += 1;
        self.stamps[way] = self.tick;
    }

    /// Looks up `line` without touching LRU state.
    pub fn peek(&self, line: u64) -> Option<&LineMeta> {
        self.find(line).map(|way| &self.metas[way])
    }

    /// Looks up `line` mutably without touching LRU state.
    pub fn peek_mut(&mut self, line: u64) -> Option<&mut LineMeta> {
        self.find(line).map(|way| &mut self.metas[way])
    }

    /// Installs `line` with `meta`, evicting the LRU way if the set is
    /// full. If the line is already present its metadata is replaced (no
    /// eviction). Returns the way the line now occupies and the victim,
    /// if one was evicted.
    #[inline]
    pub fn fill(&mut self, line: u64, meta: LineMeta) -> (usize, Option<Evicted>) {
        self.fill_masked(line, meta, u64::MAX)
    }

    /// [`Cache::fill`] restricted to the ways whose bits are set in `mask`
    /// (bit `i` = way `i` within the set): free-way selection and LRU
    /// victim selection only consider allowed ways, which is how an LLC
    /// way partition isolates tenants — a tenant confined to `mask` can
    /// never evict a line living outside it. A line already present is
    /// refreshed in place *wherever* it sits: hits are never partitioned,
    /// only allocations, matching how CAT-style hardware partitions work.
    /// The lowest-numbered free allowed way is taken first; among full
    /// allowed ways the first one with the oldest stamp is the victim.
    ///
    /// `fill` is exactly `fill_masked` with a full mask, so single-tenant
    /// runs are byte-identical to the unmasked code they replaced.
    ///
    /// # Panics
    ///
    /// Panics if `mask` selects none of the set's ways — a mask that can
    /// never allocate is a configuration error the caller must reject.
    #[inline]
    pub fn fill_masked(
        &mut self,
        line: u64,
        meta: LineMeta,
        mask: u64,
    ) -> (usize, Option<Evicted>) {
        debug_assert_ne!(line, EMPTY, "the empty-way tag is not a line address");
        self.tick += 1;
        let tick = self.tick;
        let base = self.set_base(line);
        // One pass over the tags finds both the resident way and the
        // free ways.
        let (hits, free) = self.scan_set(base, !line);

        // Already present: refresh (in place, mask not consulted).
        if hits != 0 {
            let way = base + hits.trailing_zeros() as usize;
            let old = std::mem::replace(&mut self.metas[way], meta);
            self.stamps[way] = tick;
            self.retag(Some(old.tenant), meta.tenant);
            return (way, None);
        }
        let allowed = mask & (u64::MAX >> (64 - self.assoc));
        // Free way among the allowed ways: the lowest-numbered one.
        let free = free & allowed;
        let (way, evicted) = if free != 0 {
            (base + free.trailing_zeros() as usize, None)
        } else {
            // Evict LRU among the allowed ways: the first minimum stamp.
            assert!(allowed != 0, "way mask selects no ways");
            let stamps = &self.stamps[base..base + self.assoc];
            let victim = match self.assoc {
                4 => oldest_fixed::<4>(stamps, allowed),
                8 => oldest_fixed::<8>(stamps, allowed),
                16 => oldest_fixed::<16>(stamps, allowed),
                _ => oldest(stamps, allowed),
            };
            let way = base + victim;
            (way, Some(Evicted { line: !self.tags[way], meta: self.metas[way] }))
        };
        self.tags[way] = !line;
        self.stamps[way] = tick;
        self.metas[way] = meta;
        self.retag(evicted.map(|e| e.meta.tenant), meta.tenant);
        (way, evicted)
    }

    /// Removes `line`, returning its metadata if it was present.
    pub fn invalidate(&mut self, line: u64) -> Option<LineMeta> {
        let way = self.find(line)?;
        self.tags[way] = !EMPTY;
        let meta = self.metas[way];
        self.tenant_valid[meta.tenant as usize] -= 1;
        Some(meta)
    }

    /// Number of currently valid lines (O(tenants)).
    pub fn valid_lines(&self) -> usize {
        self.tenant_valid.iter().map(|&n| n as usize).sum()
    }

    /// Number of currently valid lines tagged with `tenant` (O(1)).
    pub fn tenant_lines(&self, tenant: u8) -> usize {
        self.tenant_valid[tenant as usize] as usize
    }

    /// Serializes the cache contents (LRU clock plus every valid way) into
    /// `e`. Geometry (`sets`/`assoc`) is *not* serialized — it is derived
    /// from configuration at restore time, so a snapshot can only be
    /// restored into an identically-shaped cache.
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        e.u64(self.tick);
        let valid = self.valid_lines();
        e.len(valid);
        let mut written = 0;
        for (i, &stored) in self.tags.iter().enumerate() {
            if stored == !EMPTY {
                continue;
            }
            written += 1;
            let meta = &self.metas[i];
            // Plain u64, not `len`: a way *index* in a large cache can
            // legitimately exceed the snapshot's byte length, which the
            // `len` corruption guard would reject.
            e.u64(i as u64);
            e.u64(!stored);
            e.u64(self.stamps[i]);
            e.bool(meta.dirty);
            e.bool(meta.writable);
            e.bool(meta.prefetched);
            e.u16(meta.sharers);
            e.opt_u8(meta.fresh_writer);
            e.u8(meta.tenant);
        }
        debug_assert_eq!(written, valid, "per-tenant line counts out of step with the ways");
    }

    /// Restores contents written by [`Cache::encode_snap`] into this
    /// cache, which must have the same geometry. All ways are invalidated
    /// first, so a partially-filled snapshot leaves the rest empty.
    ///
    /// # Errors
    ///
    /// [`cs_trace::snap::SnapError::Mismatch`] for a way index outside the
    /// cache, a way tagged with the empty-way sentinel, or a line restored
    /// twice into one set; decoding errors otherwise.
    pub fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<(), cs_trace::snap::SnapError> {
        use cs_trace::snap::SnapError;
        self.tick = d.u64()?;
        self.tags.fill(!EMPTY);
        self.tenant_valid = [0; 256];
        let n = d.len()?;
        for _ in 0..n {
            let i = usize::try_from(d.u64()?).map_err(|_| SnapError::Truncated)?;
            if i >= self.tags.len() {
                return Err(SnapError::Mismatch(format!(
                    "way index {i} out of range for a {}-line cache",
                    self.tags.len()
                )));
            }
            let tag = d.u64()?;
            if tag == EMPTY {
                return Err(SnapError::Mismatch(format!("way {i} holds the empty-way tag")));
            }
            let base = i - i % self.assoc;
            if scan(&self.tags[base..base + self.assoc], !tag).0 != 0 {
                return Err(SnapError::Mismatch(format!(
                    "line {tag:#x} restored twice into set {}",
                    i / self.assoc
                )));
            }
            let stamp = d.u64()?;
            let meta = LineMeta {
                dirty: d.bool()?,
                writable: d.bool()?,
                prefetched: d.bool()?,
                sharers: d.u16()?,
                fresh_writer: d.opt_u8()?,
                tenant: d.u8()?,
            };
            let from = (self.tags[i] != !EMPTY).then_some(self.metas[i].tenant);
            self.tags[i] = !tag;
            self.stamps[i] = stamp;
            self.metas[i] = meta;
            self.retag(from, meta.tenant);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(4, 2);
        assert!(c.lookup(0x100).is_none());
        assert!(c.fill(0x100, LineMeta::clean()).1.is_none());
        assert!(c.lookup(0x100).is_some());
        assert!(c.peek(0x100).is_some());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(1, 2);
        c.fill(1, LineMeta::clean());
        c.fill(2, LineMeta::clean());
        // Touch 1 so 2 becomes LRU.
        assert!(c.lookup(1).is_some());
        let ev = c.fill(3, LineMeta::clean()).1.expect("set is full");
        assert_eq!(ev.line, 2);
        assert!(c.peek(1).is_some());
        assert!(c.peek(2).is_none());
        assert!(c.peek(3).is_some());
    }

    #[test]
    fn refill_replaces_metadata_without_eviction() {
        let mut c = Cache::new(1, 1);
        c.fill(7, LineMeta::clean());
        let mut dirty = LineMeta::clean();
        dirty.dirty = true;
        assert!(c.fill(7, dirty).1.is_none());
        assert!(c.peek(7).expect("present").dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(2, 2);
        c.fill(5, LineMeta::clean());
        assert!(c.invalidate(5).is_some());
        assert!(c.peek(5).is_none());
        assert!(c.invalidate(5).is_none());
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut c = Cache::new(4, 2);
        for line in 0..100u64 {
            c.fill(line, LineMeta::clean());
        }
        assert!(c.valid_lines() <= c.capacity_lines());
        assert_eq!(c.capacity_lines(), 8);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = Cache::new(2, 1);
        c.fill(0, LineMeta::clean()); // set 0
        c.fill(1, LineMeta::clean()); // set 1
        assert!(c.peek(0).is_some());
        assert!(c.peek(1).is_some());
        // Filling set 0 again does not disturb set 1.
        c.fill(2, LineMeta::clean());
        assert!(c.peek(0).is_none());
        assert!(c.peek(1).is_some());
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = Cache::new(1, 2);
        c.fill(1, LineMeta::clean());
        c.fill(2, LineMeta::clean());
        // Peek at 1 (no LRU update): 1 is still LRU and must be evicted.
        assert!(c.peek(1).is_some());
        let ev = c.fill(3, LineMeta::clean()).1.expect("full");
        assert_eq!(ev.line, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_sets() {
        let _ = Cache::new(0, 2);
    }

    #[test]
    fn non_power_of_two_sets_index_by_modulo() {
        let mut c = Cache::new(3, 1);
        c.fill(0, LineMeta::clean());
        c.fill(3, LineMeta::clean()); // same set as 0 under mod 3
        assert!(c.peek(0).is_none());
        assert!(c.peek(3).is_some());
        assert!(c.fill(1, LineMeta::clean()).1.is_none()); // different set
    }

    #[test]
    fn set_index_matches_plain_modulo() {
        // Divisors covering every strategy: 1 and powers of two (mask),
        // small odds and the Table 1 LLC's 12288 and large primes
        // (fastmod), and a >= 2^32 divisor (plain-modulo fallback).
        let divisors: &[u64] = &[
            1,
            2,
            3,
            5,
            7,
            12,
            64,
            12288,
            12289,
            65_521,
            1 << 20,
            (1 << 31) - 1,
            (1 << 32) - 5,
            (1 << 33) + 7,
        ];
        // Deterministic splitmix64 stream plus adversarial edge values.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut lines = vec![0u64, 1, 2, 63, 64, u64::MAX, u64::MAX - 1, 1 << 32, (1 << 32) - 1];
        for _ in 0..10_000 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            lines.push(z ^ (z >> 31));
        }
        for &d in divisors {
            let idx = SetIndex::new(d);
            for &line in &lines {
                assert_eq!(idx.index(line), line % d, "divisor {d}, line {line:#x}");
            }
        }
    }

    #[test]
    fn from_config_rounds_sets_up() {
        let c = Cache::from_config(&crate::config::CacheConfig::l1());
        assert_eq!(c.capacity_lines(), 64 * 8);
    }

    #[test]
    fn masked_fill_allocates_only_inside_the_mask() {
        let mut c = Cache::new(1, 4);
        let mut t0 = LineMeta::clean();
        t0.tenant = 0;
        let mut t1 = LineMeta::clean();
        t1.tenant = 1;
        // Tenant 0 owns ways {0,1}; tenant 1 owns ways {2,3}.
        for line in [10, 11, 12] {
            c.fill_masked(line, t0, 0b0011);
        }
        // Three fills into a 2-way partition: one tenant-0 victim, and
        // never more than two tenant-0 lines resident.
        assert_eq!(c.tenant_lines(0), 2);
        for line in [20, 21, 22, 23] {
            let (_, ev) = c.fill_masked(line, t1, 0b1100);
            // Tenant 1 evictions only ever hit tenant-1 lines.
            if let Some(ev) = ev {
                assert_eq!(ev.meta.tenant, 1, "cross-tenant eviction of line {}", ev.line);
            }
        }
        assert_eq!(c.tenant_lines(0), 2, "tenant 0 lines must survive tenant 1 pressure");
        assert_eq!(c.tenant_lines(1), 2);
    }

    #[test]
    fn masked_fill_refreshes_resident_lines_outside_the_mask() {
        let mut c = Cache::new(1, 2);
        c.fill_masked(5, LineMeta::clean(), 0b01); // way 0
        // The same line re-filled under a disjoint mask refreshes in
        // place — hits are not partitioned, only allocations.
        let mut dirty = LineMeta::clean();
        dirty.dirty = true;
        assert!(c.fill_masked(5, dirty, 0b10).1.is_none());
        assert_eq!(c.valid_lines(), 1);
        assert!(c.peek(5).expect("present").dirty);
    }

    #[test]
    fn full_mask_fill_is_plain_fill() {
        let mut a = Cache::new(4, 2);
        let mut b = Cache::new(4, 2);
        let mut x = 0x9E37_79B9u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let line = (x >> 33) % 64;
            a.fill(line, LineMeta::clean());
            b.fill_masked(line, LineMeta::clean(), u64::MAX);
        }
        let mut ea = cs_trace::snap::Enc::new();
        let mut eb = cs_trace::snap::Enc::new();
        a.encode_snap(&mut ea);
        b.encode_snap(&mut eb);
        assert_eq!(ea.buf, eb.buf, "full mask must be byte-identical");
    }

    #[test]
    fn tenant_counts_track_fill_evict_refill_invalidate_and_restore() {
        let tagged = |tenant| LineMeta { tenant, ..LineMeta::clean() };
        let check = |c: &Cache| {
            let resident: Vec<u8> = (0..c.tags.len())
                .filter(|&i| c.tags[i] != !EMPTY)
                .map(|i| c.metas[i].tenant)
                .collect();
            for t in 0..4 {
                let counted = resident.iter().filter(|&&r| r == t).count();
                assert_eq!(c.tenant_lines(t), counted, "tenant {t}");
            }
            assert_eq!(c.valid_lines(), resident.len());
        };
        let mut c = Cache::new(2, 2);
        c.fill(0, tagged(1));
        c.fill(1, tagged(2));
        c.fill(2, tagged(1));
        check(&c);
        assert_eq!((c.tenant_lines(1), c.tenant_lines(2), c.valid_lines()), (2, 1, 3));
        // Set 0 is full: tenant 3 evicts tenant 1's LRU line 0.
        let ev = c.fill(4, tagged(3)).1.expect("set 0 full");
        assert_eq!((ev.line, ev.meta.tenant), (0, 1));
        check(&c);
        assert_eq!((c.tenant_lines(1), c.tenant_lines(3)), (1, 1));
        // An in-place refill moves the line to the refilling tenant.
        assert!(c.fill(1, tagged(3)).1.is_none());
        check(&c);
        assert_eq!((c.tenant_lines(2), c.tenant_lines(3), c.valid_lines()), (0, 2, 3));
        assert!(c.invalidate(4).is_some());
        assert!(c.invalidate(4).is_none());
        check(&c);
        assert_eq!((c.tenant_lines(3), c.valid_lines()), (1, 2));
        // Restoring into a cache with other contents recounts from scratch.
        let mut e = cs_trace::snap::Enc::new();
        c.encode_snap(&mut e);
        let mut r = Cache::new(2, 2);
        for line in 0..4 {
            r.fill(line, tagged(2));
        }
        r.restore_snap(&mut cs_trace::snap::Dec::new(&e.buf)).expect("restore");
        check(&r);
        assert_eq!((r.tenant_lines(1), r.tenant_lines(2), r.tenant_lines(3)), (1, 0, 1));
        assert_eq!(r.tenant_lines(200), 0);
    }

    #[test]
    #[should_panic(expected = "selects no ways")]
    fn empty_mask_fill_is_rejected() {
        let mut c = Cache::new(1, 2);
        c.fill_masked(1, LineMeta::clean(), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn rejects_associativity_above_64() {
        let _ = Cache::new(1, 65);
    }

    /// Appends one `encode_snap` way record holding a clean line.
    fn snap_record(e: &mut cs_trace::snap::Enc, way: u64, tag: u64) {
        e.u64(way);
        e.u64(tag);
        e.u64(1);
        e.bool(false);
        e.bool(false);
        e.bool(false);
        e.u16(0);
        e.opt_u8(None);
        e.u8(0);
    }

    fn restore_error(sets: usize, assoc: usize, e: &cs_trace::snap::Enc) -> String {
        match Cache::new(sets, assoc).restore_snap(&mut cs_trace::snap::Dec::new(&e.buf)) {
            Err(cs_trace::snap::SnapError::Mismatch(msg)) => msg,
            other => panic!("expected a mismatch, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_the_empty_way_tag() {
        let mut e = cs_trace::snap::Enc::new();
        e.u64(7);
        e.len(1);
        snap_record(&mut e, 1, EMPTY);
        assert!(restore_error(2, 2, &e).contains("empty-way tag"));
    }

    #[test]
    fn restore_rejects_a_line_twice_in_one_set() {
        let mut e = cs_trace::snap::Enc::new();
        e.u64(7);
        e.len(2);
        // Line 4 sits in set 0 of a 2-set cache; ways 0 and 1 are set 0.
        snap_record(&mut e, 0, 4);
        snap_record(&mut e, 1, 4);
        assert!(restore_error(2, 2, &e).contains("restored twice"));
    }

    /// The way-record cache this module used before its ways were split
    /// into per-way arrays, kept as the reference semantics: a `valid`
    /// flag per way, early-exit tag matches, and `fill_masked` scanning
    /// the set three times (resident, free, LRU).
    struct Model {
        ways: Vec<Way>,
        assoc: usize,
        sets: u64,
        tick: u64,
    }

    #[derive(Clone, Copy)]
    struct Way {
        tag: u64,
        valid: bool,
        stamp: u64,
        meta: LineMeta,
    }

    impl Model {
        fn new(sets: usize, assoc: usize) -> Self {
            let invalid = Way { tag: 0, valid: false, stamp: 0, meta: LineMeta::clean() };
            Self { ways: vec![invalid; sets * assoc], assoc, sets: sets as u64, tick: 0 }
        }

        fn set(&self, line: u64) -> std::ops::Range<usize> {
            let set = (line % self.sets) as usize;
            set * self.assoc..(set + 1) * self.assoc
        }

        fn find(&self, line: u64) -> Option<usize> {
            self.set(line).find(|&i| self.ways[i].valid && self.ways[i].tag == line)
        }

        fn lookup(&mut self, line: u64) -> Option<LineMeta> {
            self.tick += 1;
            let i = self.find(line)?;
            self.ways[i].stamp = self.tick;
            Some(self.ways[i].meta)
        }

        fn way_holds(&self, way: usize, line: u64) -> Option<LineMeta> {
            let w = &self.ways[way];
            (w.valid && w.tag == line).then_some(w.meta)
        }

        fn touch_way(&mut self, way: usize) {
            self.tick += 1;
            self.ways[way].stamp = self.tick;
        }

        fn fill_masked(&mut self, line: u64, meta: LineMeta, mask: u64) -> Option<Evicted> {
            self.tick += 1;
            let fresh = Way { tag: line, valid: true, stamp: self.tick, meta };
            if let Some(i) = self.find(line) {
                self.ways[i].meta = meta;
                self.ways[i].stamp = self.tick;
                return None;
            }
            let range = self.set(line);
            let allowed = |i: usize| i < 64 && mask & (1u64 << i) != 0;
            let base = range.start;
            if let Some(i) = range.clone().find(|&i| allowed(i - base) && !self.ways[i].valid) {
                self.ways[i] = fresh;
                return None;
            }
            let i = range
                .filter(|&i| allowed(i - base))
                .min_by_key(|&i| self.ways[i].stamp)
                .expect("way mask selects no ways");
            let victim = std::mem::replace(&mut self.ways[i], fresh);
            Some(Evicted { line: victim.tag, meta: victim.meta })
        }

        fn invalidate(&mut self, line: u64) -> Option<LineMeta> {
            let i = self.find(line)?;
            self.ways[i].valid = false;
            Some(self.ways[i].meta)
        }

        fn tenant_lines(&self, tenant: u8) -> usize {
            self.ways.iter().filter(|w| w.valid && w.meta.tenant == tenant).count()
        }

        fn encode_snap(&self) -> Vec<u8> {
            let mut e = cs_trace::snap::Enc::new();
            e.u64(self.tick);
            e.len(self.ways.iter().filter(|w| w.valid).count());
            for (i, w) in self.ways.iter().enumerate().filter(|(_, w)| w.valid) {
                e.u64(i as u64);
                e.u64(w.tag);
                e.u64(w.stamp);
                e.bool(w.meta.dirty);
                e.bool(w.meta.writable);
                e.bool(w.meta.prefetched);
                e.u16(w.meta.sharers);
                e.opt_u8(w.meta.fresh_writer);
                e.u8(w.meta.tenant);
            }
            e.buf
        }
    }

    fn snap_bytes(c: &Cache) -> Vec<u8> {
        let mut e = cs_trace::snap::Enc::new();
        c.encode_snap(&mut e);
        e.buf
    }

    /// Drives `c` and `m` with `ops` random operations from the
    /// splitmix64 stream at `*state`, comparing every return value (the
    /// way a lookup or fill reports against where the model finds the
    /// line) and, every 256 operations, the snapshot bytes.
    fn drive(c: &mut Cache, m: &mut Model, state: &mut u64, ops: usize) {
        use cs_trace::rng::splitmix64;
        let mut draw = || {
            *state = state.wrapping_add(1);
            splitmix64(*state)
        };
        let ways = c.capacity_lines();
        let full = u64::MAX >> (64 - m.assoc);
        // Twice as many lines as ways, so fills evict and lookups miss.
        let universe = 2 * ways as u64 + 1;
        // Each tenant's partial mask: a random non-empty subset of ways.
        let masks: Vec<u64> = (0..3).map(|_| (draw() & full).max(1)).collect();
        for n in 0..ops {
            let r = draw();
            let line = draw() % universe;
            let way = (r >> 8) as usize % ways;
            let tenant = (r >> 16) as u8 % 3;
            let meta = LineMeta {
                dirty: r & 1 << 24 != 0,
                writable: r & 1 << 25 != 0,
                prefetched: r & 1 << 26 != 0,
                sharers: (r >> 32) as u16,
                fresh_writer: (r & 1 << 27 != 0).then_some((r >> 48) as u8),
                tenant,
            };
            match r % 10 {
                0 | 3 => {
                    let want = m.lookup(line);
                    let got = c.lookup(line).map(|(i, meta)| (i, *meta));
                    assert_eq!(got.map(|(_, meta)| meta), want, "lookup {line}");
                    assert_eq!(got.map(|(i, _)| i), m.find(line), "lookup way {line}");
                }
                1 => assert_eq!(c.peek(line).copied(), m.find(line).map(|i| m.ways[i].meta)),
                2 => {
                    let i = m.find(line);
                    let got = c.peek_mut(line);
                    assert_eq!(got.as_deref().copied(), i.map(|i| m.ways[i].meta), "peek_mut");
                    if let (Some(got), Some(i)) = (got, i) {
                        got.dirty = !got.dirty;
                        got.sharers ^= meta.sharers;
                        m.ways[i].meta.dirty = !m.ways[i].meta.dirty;
                        m.ways[i].meta.sharers ^= meta.sharers;
                    }
                }
                4 => {
                    // Half the time ask about the line the way really holds.
                    let line = if r & 1 << 28 != 0 { m.ways[way].tag } else { line };
                    let want = m.way_holds(way, line);
                    assert_eq!(c.way_holds(way, line).copied(), want, "way_holds {way}");
                }
                5 => {
                    c.touch_way(way);
                    m.touch_way(way);
                }
                6 => {
                    let (i, evicted) = c.fill(line, meta);
                    assert_eq!(evicted, m.fill_masked(line, meta, u64::MAX), "fill {line}");
                    assert_eq!(Some(i), m.find(line), "fill way {line}");
                }
                7 | 8 => {
                    // A tenant's partial mask, or random bits (some above
                    // the associativity) with one in-range way forced on.
                    let mask = if r & 1 << 29 != 0 {
                        masks[tenant as usize]
                    } else {
                        draw() | 1 << (line % m.assoc as u64)
                    };
                    let want = m.fill_masked(line, meta, mask);
                    let (i, evicted) = c.fill_masked(line, meta, mask);
                    assert_eq!(evicted, want, "fill_masked {line}");
                    assert_eq!(Some(i), m.find(line), "fill_masked way {line}");
                }
                _ => assert_eq!(c.invalidate(line), m.invalidate(line), "invalidate {line}"),
            }
            if n % 256 == 255 {
                assert_eq!(snap_bytes(c), m.encode_snap(), "snapshot after op {n}");
                for t in 0..3 {
                    assert_eq!(c.tenant_lines(t), m.tenant_lines(t), "tenant {t}");
                }
            }
        }
    }

    #[test]
    fn matches_the_way_record_reference_model() {
        let mut state = 0x5EED_CAC4_E000_0000;
        // Every fixed-width kernel (4, 8, 16 ways) and the run-time-width
        // loop (1, 2, 12 ways).
        for (sets, assoc) in [(1, 1), (4, 2), (5, 4), (3, 8), (2, 12), (12, 16)] {
            let mut c = Cache::new(sets, assoc);
            let mut m = Model::new(sets, assoc);
            drive(&mut c, &mut m, &mut state, 6_000);
            // Restore into a cache that already holds other lines: none
            // of them may survive, and the restored cache must go on
            // behaving exactly like the model.
            let mut r = Cache::new(sets, assoc);
            let stale = LineMeta { tenant: 2, ..LineMeta::clean() };
            for line in 0..(sets * assoc) as u64 {
                r.fill(line + 1_000_000, stale);
            }
            r.restore_snap(&mut cs_trace::snap::Dec::new(&snap_bytes(&c))).expect("restore");
            assert_eq!(snap_bytes(&r), m.encode_snap(), "{sets}x{assoc} restore");
            assert!(r.peek(1_000_000).is_none(), "a stale line survived the restore");
            drive(&mut r, &mut m, &mut state, 2_000);
        }
    }
}
