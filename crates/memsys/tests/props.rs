//! Property tests of the cache and memory-system invariants.
//!
//! Each property runs over `CASES` seeded cases: case `c` draws its inputs
//! from `stream_rng(SEED, c)`. Assertions in the property bodies name the
//! case; the two QoS checkers, shared with fixed-input smoke cases, name
//! the offending tenant and window instead.

use cs_memsys::cache::{Cache, LineMeta};
use cs_memsys::{BandwidthRegulator, MemSysConfig, MemorySystem, PrefetchConfig};
use cs_trace::rng::{stream_rng, SmallRng};
use cs_trace::snap::{Dec, Enc};
use cs_trace::Privilege;

const CASES: u64 = 48;
const SEED: u64 = 0x3E35_0001;

/// A vector with a length drawn from `len`, each element drawn by `draw`.
fn arb_vec<T>(
    g: &mut SmallRng,
    len: std::ops::Range<usize>,
    mut draw: impl FnMut(&mut SmallRng) -> T,
) -> Vec<T> {
    let n = g.gen_range(len);
    (0..n).map(|_| draw(g)).collect()
}

/// A cache never holds more lines than its capacity, whatever the
/// fill sequence, and a just-filled line is always resident.
#[test]
fn capacity_and_residency() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let sets = g.gen_range(1..64usize);
        let assoc = g.gen_range(1..8usize);
        let lines = arb_vec(&mut g, 1..400, |g| g.gen_range(0..10_000u64));
        let mut c = Cache::new(sets, assoc);
        for &line in &lines {
            c.fill(line, LineMeta::clean());
            assert!(c.peek(line).is_some(), "case {case}: just-filled line must be resident");
            assert!(c.valid_lines() <= c.capacity_lines(), "case {case}");
        }
    }
}

/// Invalidate really removes, and double-invalidate is a no-op.
#[test]
fn invalidate_semantics() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let lines = arb_vec(&mut g, 1..100, |g| g.gen_range(0..500u64));
        let mut c = Cache::new(16, 4);
        for &line in &lines {
            c.fill(line, LineMeta::clean());
            assert!(c.invalidate(line).is_some(), "case {case}");
            assert!(c.peek(line).is_none(), "case {case}");
            assert!(c.invalidate(line).is_none(), "case {case}");
        }
    }
}

/// The memory system's per-level counters stay consistent for any
/// access sequence: accesses at level N+1 equal misses at level N.
#[test]
fn hierarchy_counters_are_consistent() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let addrs = arb_vec(&mut g, 20..300, |g| g.gen_range(0..1u64 << 24));
        let stores = arb_vec(&mut g, 20..300, SmallRng::gen_bool);
        let cfg = MemSysConfig { prefetch: PrefetchConfig::none(), ..MemSysConfig::default() };
        let mut m = MemorySystem::new(cfg, 2);
        for (i, &addr) in addrs.iter().enumerate() {
            let store = stores[i % stores.len()];
            let core = i % 2;
            m.data_access(core, Privilege::User, addr * 8, store, 0x40_0000, i as u64);
        }
        for core in 0..2 {
            let s = &m.stats().per_core[core];
            let l1_misses = s.l1d.total_accesses() - s.l1d.total_hits();
            // Upgrades re-enter the L2 path without being L1 misses.
            assert_eq!(l1_misses + s.upgrades, s.l2.total_accesses(), "case {case}");
            let l2_misses = s.l2.total_accesses() - s.l2.total_hits();
            assert_eq!(l2_misses, s.llc.total_accesses(), "case {case}");
        }
    }
}

/// Read-write sharing is only ever detected when there are at least
/// two distinct writers/readers involved — a single-core run must
/// never report sharing.
#[test]
fn no_sharing_on_a_single_core() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let addrs = arb_vec(&mut g, 20..200, |g| g.gen_range(0..1u64 << 20));
        let mut m = MemorySystem::new(MemSysConfig::default(), 1);
        for (i, &a) in addrs.iter().enumerate() {
            m.data_access(0, Privilege::User, a * 64, i % 3 == 0, 0x40_0000, i as u64);
        }
        assert_eq!(m.stats().per_core[0].rw_shared, [0, 0], "case {case}");
    }
}

/// Snapshotting the full memory system mid-stream — caches, TLBs,
/// prefetchers, DRAM timers, stats — and restoring into a freshly
/// built system reproduces the snapshot bytes exactly, and both
/// systems then answer an identical continuation stream with
/// identical stats. Prefetching is left ON so the stride tables and
/// DCU state ride through the snapshot too.
#[test]
fn memsys_snapshot_roundtrip_is_byte_identical() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let addrs = arb_vec(&mut g, 20..300, |g| g.gen_range(0..1u64 << 24));
        let stores = arb_vec(&mut g, 20..300, SmallRng::gen_bool);
        let tail = arb_vec(&mut g, 10..100, |g| g.gen_range(0..1u64 << 24));
        let mut original = MemorySystem::new(MemSysConfig::default(), 2);
        for (i, &addr) in addrs.iter().enumerate() {
            let store = stores[i % stores.len()];
            original.data_access(i % 2, Privilege::User, addr * 8, store, 0x40_0000, i as u64);
        }

        let mut e = Enc::new();
        original.encode_snap(&mut e);

        let mut restored = MemorySystem::new(MemSysConfig::default(), 2);
        let mut d = Dec::new(&e.buf);
        restored.restore_snap(&mut d).expect("snapshot must decode");
        d.finish().expect("snapshot must be fully consumed");

        let mut e2 = Enc::new();
        restored.encode_snap(&mut e2);
        assert_eq!(&e.buf, &e2.buf, "case {case}: restore must reproduce the snapshot bytes");

        // Identical continuation on both: privilege flips exercise the
        // kernel/user counter split after restore.
        let base = addrs.len() as u64;
        for (i, &addr) in tail.iter().enumerate() {
            let priv_ = if i % 3 == 0 { Privilege::Kernel } else { Privilege::User };
            for m in [&mut original, &mut restored] {
                m.data_access(i % 2, priv_, addr * 8, i % 5 == 0, 0x40_0000, base + i as u64);
            }
        }
        assert_eq!(original.stats(), restored.stats(), "case {case}");
        assert_eq!(original.dram_stats(), restored.dram_stats(), "case {case}");
    }
}

/// DRAM byte accounting is conserved: total bytes equal 64 times the
/// number of bursts.
#[test]
fn dram_bytes_are_conserved() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let addrs = arb_vec(&mut g, 10..200, |g| g.gen_range(0..1u64 << 30));
        let cfg = MemSysConfig { prefetch: PrefetchConfig::none(), ..MemSysConfig::default() };
        let mut m = MemorySystem::new(cfg, 1);
        for (i, &a) in addrs.iter().enumerate() {
            m.data_access(0, Privilege::User, a * 64, false, 0, i as u64);
        }
        let d = m.dram_stats();
        assert_eq!(d.bytes, 64 * (d.reads + d.writes), "case {case}");
    }
}

/// Under a full disjoint way partition, every masked fill lands inside
/// its tenant's ways and never evicts the other tenant's lines —
/// whatever the interleaving.
#[test]
fn way_partition_never_evicts_across_tenants() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let sets = g.gen_range(1..16usize);
        let picks = arb_vec(&mut g, 50..400, |g| (g.gen_bool(), g.gen_range(0..2_000u64)));
        check_way_partition(sets, &picks);
    }
}

/// The token-bucket regulator never admits more than one budget of
/// bytes into any accounting window, whatever the admission schedule.
#[test]
fn throttle_never_exceeds_the_window_budget() {
    for case in 0..CASES {
        let mut g = stream_rng(SEED, case);
        let window = g.gen_range(100..10_000u64);
        let budgets = arb_vec(&mut g, 1..4, |g| g.gen_range(64..4_096u64));
        let steps = arb_vec(&mut g, 20..300, |g| (g.gen_range(0..4usize), g.gen_range(0..500u64)));
        check_throttle_budget(window, &budgets, &steps);
    }
}

/// Drives a two-tenant cache with disjoint way masks (0x0F / 0xF0) and
/// asserts, after every masked fill, that the line landed inside its
/// tenant's ways, that any eviction hit the filler's own tenant, and that
/// per-tenant occupancy accounting partitions exactly. Tenants use
/// disjoint address spaces (even/odd lines) so an in-place refresh —
/// which hardware never partitions — cannot cross tenants either.
fn check_way_partition(sets: usize, picks: &[(bool, u64)]) {
    const ASSOC: usize = 8;
    const MASKS: [u64; 2] = [0x0F, 0xF0];
    let mut c = Cache::new(sets, ASSOC);
    for &(second, line) in picks {
        let tenant = usize::from(second);
        let line = line * 2 + tenant as u64;
        let meta = LineMeta { tenant: tenant as u8, ..LineMeta::clean() };
        let (way, evicted) = c.fill_masked(line, meta, MASKS[tenant]);
        if let Some(v) = evicted {
            assert_eq!(
                v.meta.tenant, tenant as u8,
                "tenant {tenant} evicted a line of tenant {}", v.meta.tenant
            );
        }
        let meta = c.way_holds(way, line).expect("just-filled line must sit at its way");
        assert_eq!(meta.tenant, tenant as u8);
        assert!(
            MASKS[tenant] & (1u64 << (way % ASSOC)) != 0,
            "tenant {tenant} allocated way {} outside mask {:#x}", way % ASSOC, MASKS[tenant]
        );
        assert_eq!(c.tenant_lines(0) + c.tenant_lines(1), c.valid_lines());
        assert!(c.tenant_lines(tenant as u8) <= sets * ASSOC / 2);
    }
}

/// Replays an admission schedule through the regulator and asserts that
/// each charge's landing window (`(now + delay) / window`) accumulates at
/// most `budgets[tenant]` bytes, that charges never land in the past, and
/// that tenants beyond the budget table are never delayed.
fn check_throttle_budget(window: u64, budgets: &[u64], steps: &[(usize, u64)]) {
    let mut reg = BandwidthRegulator::new(window, budgets.to_vec());
    let mut now = 0u64;
    let mut landed = std::collections::HashMap::new();
    for &(tenant, advance) in steps {
        now += advance;
        let delay = reg.admit(tenant, 64, now);
        if tenant >= budgets.len() {
            assert_eq!(delay, 0, "unbudgeted tenants are never delayed");
            continue;
        }
        let win = (now + delay) / window;
        assert!(win >= now / window, "a charge can never land in the past");
        let used = landed.entry((tenant, win)).or_insert(0u64);
        *used += 64;
        assert!(
            *used <= budgets[tenant],
            "tenant {tenant} window {win} holds {used} bytes against a budget of {}",
            budgets[tenant]
        );
    }
}

/// Fixed-input smoke twins of the two QoS properties: a saturating
/// interleaving that forces evictions in every set, and an admission
/// schedule that overruns one window and spills into the next.
#[test]
fn qos_property_smoke_cases() {
    let picks: Vec<(bool, u64)> =
        (0..300).map(|i| (i % 3 == 0, (i * 7) % 97)).collect();
    check_way_partition(4, &picks);

    let steps: Vec<(usize, u64)> =
        (0..200).map(|i| (i % 3, if i % 5 == 0 { 40 } else { 0 })).collect();
    check_throttle_budget(256, &[64, 128], &steps);
}
