//! DDR3 memory-channel model.
//!
//! Models the Table 1 memory subsystem: three independent channels, lines
//! interleaved across channels, each channel serializing 64-byte bursts at
//! its peak bandwidth. Demand reads observe queueing delay behind earlier
//! transfers on the same channel; writebacks consume bandwidth without
//! delaying the requesting instruction. Per-channel busy cycles and total
//! bytes moved feed the Figure 7 bandwidth-utilization metric.

use crate::config::DramConfig;
use cs_trace::snap::Codec;
use serde::Serialize;

cs_trace::snap_struct! {
    merge;
    /// Aggregate DRAM statistics.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
    pub struct DramStats {
        /// 64-byte read bursts served.
        pub reads: u64,
        /// 64-byte write (writeback) bursts served.
        pub writes: u64,
        /// Total bytes moved in either direction.
        pub bytes: u64,
        /// Sum over channels of cycles spent transferring data.
        pub busy_cycles: u64,
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Channel {
    next_free: u64,
}

/// The DRAM subsystem.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    channels: Vec<Channel>,
    service_cycles: u64,
    stats: DramStats,
}

impl Dram {
    /// Creates the subsystem described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has no channels or non-positive bandwidth.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.channels > 0, "dram needs at least one channel");
        assert!(cfg.bytes_per_cycle_per_channel > 0.0, "bandwidth must be positive");
        let service_cycles = (64.0 / cfg.bytes_per_cycle_per_channel).ceil() as u64;
        Self { cfg, channels: vec![Channel::default(); cfg.channels], service_cycles, stats: DramStats::default() }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Requests a 64-byte line read at cycle `now`; returns the total
    /// latency (queueing + access + transfer) in cycles.
    // Queueing delay is bounded by the channel backlog of one window and
    // latency/service are small config constants, so the total fits u32.
    #[allow(clippy::cast_possible_truncation)]
    pub fn read(&mut self, line: u64, now: u64) -> u32 {
        let ch = (line % self.channels.len() as u64) as usize;
        let start = self.channels[ch].next_free.max(now);
        self.channels[ch].next_free = start + self.service_cycles;
        self.stats.reads += 1;
        self.stats.bytes += 64;
        self.stats.busy_cycles += self.service_cycles;
        ((start - now) + self.cfg.latency as u64 + self.service_cycles) as u32
    }

    /// Posts a 64-byte writeback at cycle `now`. Writebacks consume channel
    /// time (delaying later reads) but complete asynchronously, so no
    /// latency is returned.
    pub fn write(&mut self, line: u64, now: u64) {
        let ch = (line % self.channels.len() as u64) as usize;
        let start = self.channels[ch].next_free.max(now);
        self.channels[ch].next_free = start + self.service_cycles;
        self.stats.writes += 1;
        self.stats.bytes += 64;
        self.stats.busy_cycles += self.service_cycles;
    }

    /// Earliest cycle at which the DRAM subsystem would act on its own —
    /// `u64::MAX`, always, because the channel model is demand-driven:
    /// `next_free` is bookkeeping consumed lazily by the *next* read or
    /// write (queueing delay), not a timer that fires. A read requested at
    /// cycle `now` already received its full latency, so nothing returns
    /// later. If an autonomous mechanism (refresh, scheduled writeback
    /// drain) is ever added, its next firing time must be reported here
    /// for the chip's cycle skipping to remain byte-identical.
    pub fn next_event_cycle(&self) -> u64 {
        u64::MAX
    }

    /// Statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Zeroes the statistics (channel timing state is preserved). Used to
    /// discard the warmup window.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Serializes channel timing and statistics into `e` (the config and
    /// the derived `service_cycles` are rebuilt from configuration).
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        e.len(self.channels.len());
        for ch in &self.channels {
            e.u64(ch.next_free);
        }
        self.stats.encode_snap(e);
    }

    /// Restores state written by [`Dram::encode_snap`]; the subsystem must
    /// have the same channel count.
    pub fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<(), cs_trace::snap::SnapError> {
        use cs_trace::snap::SnapError;
        let n = d.len()?;
        if n != self.channels.len() {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {n} DRAM channels, config has {}",
                self.channels.len()
            )));
        }
        for ch in &mut self.channels {
            ch.next_free = d.u64()?;
        }
        self.stats = DramStats::decode_snap(d)?;
        Ok(())
    }

    /// Bandwidth utilization over `elapsed_cycles`: bytes moved divided by
    /// peak deliverable bytes (the Figure 7 metric).
    pub fn utilization(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        let peak = self.cfg.peak_bytes_per_cycle() * elapsed_cycles as f64;
        self.stats.bytes as f64 / peak
    }
}

/// Per-tenant DRAM bandwidth throttle: a windowed token bucket.
///
/// Each tenant gets a byte budget per fixed window of simulated cycles
/// (windows are *absolute* — window `w` spans cycles
/// `[w*window_cycles, (w+1)*window_cycles)` — so admission depends only on
/// the access stream, never on when the regulator was constructed or
/// restored). An access that fits the current window's remaining budget is
/// admitted with zero delay; one that does not is deferred to the next
/// window with budget available, and the returned delay is charged to the
/// requesting instruction as extra memory latency. Budgets are per tenant
/// and windows are tracked per tenant, so one tenant's deferrals never
/// consume another tenant's tokens.
///
/// The regulator's cursor state is part of the simulation's dynamic state
/// and is covered by [`BandwidthRegulator::encode_snap`] /
/// [`BandwidthRegulator::restore_snap`] so checkpointed runs resume
/// byte-identically.
#[derive(Debug, Clone)]
pub struct BandwidthRegulator {
    window_cycles: u64,
    budgets: Vec<u64>,
    /// Per-tenant window cursor: the window index bytes are currently
    /// being charged into (monotone, advances on rollover and deferral).
    win: Vec<u64>,
    /// Bytes charged into `win[t]` so far.
    used: Vec<u64>,
}

impl BandwidthRegulator {
    /// Creates a regulator giving tenant `t` `budgets[t]` bytes per
    /// `window_cycles`-cycle window.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero, `budgets` is empty, or any
    /// budget is below one 64-byte burst (such a tenant could never make
    /// progress; the harness rejects these configs before construction).
    pub fn new(window_cycles: u64, budgets: Vec<u64>) -> Self {
        assert!(window_cycles > 0, "throttle window must be positive");
        assert!(!budgets.is_empty(), "throttle needs at least one tenant budget");
        assert!(
            budgets.iter().all(|&b| b >= 64),
            "every tenant budget must cover at least one 64-byte burst"
        );
        let n = budgets.len();
        Self { window_cycles, budgets, win: vec![0; n], used: vec![0; n] }
    }

    /// Number of tenants the regulator was configured for.
    pub fn tenants(&self) -> usize {
        self.budgets.len()
    }

    /// Charges a `bytes`-byte transfer by `tenant` at cycle `now` and
    /// returns the admission delay in cycles (zero when the current
    /// window's budget covers it). Tenants beyond the configured budget
    /// list are unthrottled (delay 0, nothing charged).
    pub fn admit(&mut self, tenant: usize, bytes: u64, now: u64) -> u64 {
        if tenant >= self.budgets.len() {
            return 0;
        }
        let current = now / self.window_cycles;
        if current > self.win[tenant] {
            self.win[tenant] = current;
            self.used[tenant] = 0;
        }
        if self.used[tenant] + bytes <= self.budgets[tenant] {
            self.used[tenant] += bytes;
            // Zero when the cursor window is the current one; positive
            // when earlier deferrals pushed the cursor into the future —
            // the charge then waits for its window to open.
            return (self.win[tenant] * self.window_cycles).saturating_sub(now);
        }
        // Defer to the next window. Budgets cover at least one 64-byte
        // burst and every charge is one burst, so a fresh window always
        // fits it; `min` keeps oversized charges from wedging the cursor.
        let w = self.win[tenant] + 1;
        self.win[tenant] = w;
        self.used[tenant] = bytes.min(self.budgets[tenant]);
        (w * self.window_cycles).saturating_sub(now)
    }

    /// Serializes the per-tenant window cursors into `e` (window length
    /// and budgets are configuration, rebuilt at restore time).
    pub fn encode_snap(&self, e: &mut cs_trace::snap::Enc) {
        e.len(self.win.len());
        for t in 0..self.win.len() {
            e.u64(self.win[t]);
            e.u64(self.used[t]);
        }
    }

    /// Restores cursors written by [`BandwidthRegulator::encode_snap`];
    /// the tenant count must match the configuration.
    pub fn restore_snap(
        &mut self,
        d: &mut cs_trace::snap::Dec<'_>,
    ) -> Result<(), cs_trace::snap::SnapError> {
        use cs_trace::snap::SnapError;
        let n = d.len()?;
        if n != self.win.len() {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {n} throttled tenants, config has {}",
                self.win.len()
            )));
        }
        for t in 0..n {
            self.win[t] = d.u64()?;
            self.used[t] = d.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    #[test]
    fn idle_read_latency_is_base_plus_transfer() {
        let mut d = dram();
        let lat = d.read(0, 1000);
        let expect = DramConfig::default().latency as u64 + d.service_cycles;
        assert_eq!(lat as u64, expect);
    }

    #[test]
    fn back_to_back_reads_on_one_channel_queue() {
        let mut d = dram();
        let first = d.read(0, 0);
        let second = d.read(3, 0); // lines 0 and 3 share channel 0 of 3
        assert!(second > first);
    }

    #[test]
    fn reads_on_distinct_channels_do_not_queue() {
        let mut d = dram();
        let a = d.read(0, 0);
        let b = d.read(1, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn writes_consume_bandwidth_and_delay_reads() {
        let mut d = dram();
        d.write(0, 0);
        let lat = d.read(3, 0); // same channel as the write
        assert!(lat as u64 > DramConfig::default().latency as u64 + d.service_cycles);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn utilization_tracks_bytes() {
        let mut d = dram();
        for i in 0..100u64 {
            d.read(i, i * 10);
        }
        let util = d.utilization(10_000);
        let expect = (100.0 * 64.0) / (DramConfig::default().peak_bytes_per_cycle() * 10_000.0);
        assert!((util - expect).abs() < 1e-12);
        assert_eq!(d.utilization(0), 0.0);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = dram();
        d.read(0, 0);
        d.write(1, 0);
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes, 128);
        assert!(s.busy_cycles > 0);
    }

    #[test]
    #[should_panic(expected = "channel")]
    fn rejects_zero_channels() {
        let _ = Dram::new(DramConfig { channels: 0, ..DramConfig::default() });
    }

    #[test]
    fn regulator_admits_within_budget_without_delay() {
        let mut r = BandwidthRegulator::new(1000, vec![256]);
        for i in 0..4 {
            assert_eq!(r.admit(0, 64, i * 10), 0, "burst {i} fits the 256-byte budget");
        }
    }

    #[test]
    fn regulator_defers_over_budget_bursts_to_the_next_window() {
        let mut r = BandwidthRegulator::new(1000, vec![128]);
        assert_eq!(r.admit(0, 64, 100), 0);
        assert_eq!(r.admit(0, 64, 200), 0);
        // Third burst exceeds the window budget: deferred to cycle 1000.
        assert_eq!(r.admit(0, 64, 300), 700);
        // That deferral consumed window 1's budget head room; the window
        // still has 64 bytes left, so a burst arriving inside window 0
        // charges into window 1 without further delay... unless full.
        assert_eq!(r.admit(0, 64, 400), 600);
        // Window 1 now holds 128/128 bytes: the next burst rolls to window 2.
        assert_eq!(r.admit(0, 64, 500), 1500);
    }

    #[test]
    fn regulator_tenants_are_independent() {
        let mut r = BandwidthRegulator::new(1000, vec![64, 6400]);
        assert_eq!(r.admit(0, 64, 0), 0);
        assert!(r.admit(0, 64, 1) > 0, "tenant 0 exhausted its budget");
        assert_eq!(r.admit(1, 64, 2), 0, "tenant 1 budget is untouched");
        assert_eq!(r.admit(7, 64, 3), 0, "unconfigured tenants are unthrottled");
    }

    #[test]
    fn regulator_windows_are_absolute() {
        let mut a = BandwidthRegulator::new(100, vec![64]);
        let mut b = BandwidthRegulator::new(100, vec![64]);
        // b sees an earlier access; both must agree on the window that
        // cycle 250 falls into and the deferral target.
        let _ = b.admit(0, 64, 50);
        let _ = b.admit(0, 64, 250);
        let d_a = a.admit(0, 64, 250);
        assert_eq!(d_a, 0, "first access in window 2 is free");
        assert_eq!(a.admit(0, 64, 251), 49, "deferred to window 3 at cycle 300");
    }

    #[test]
    fn regulator_snapshot_roundtrips() {
        let mut r = BandwidthRegulator::new(500, vec![128, 256]);
        let _ = r.admit(0, 64, 10);
        let _ = r.admit(0, 64, 20);
        let _ = r.admit(0, 64, 30); // deferred: cursor state is non-trivial
        let _ = r.admit(1, 64, 40);
        let mut e = cs_trace::snap::Enc::new();
        r.encode_snap(&mut e);
        let mut fresh = BandwidthRegulator::new(500, vec![128, 256]);
        let mut d = cs_trace::snap::Dec::new(&e.buf);
        fresh.restore_snap(&mut d).expect("restore");
        d.finish().expect("no trailing bytes");
        // Behavior, not just state, must match.
        assert_eq!(r.admit(0, 64, 60), fresh.admit(0, 64, 60));
        assert_eq!(r.admit(1, 64, 600), fresh.admit(1, 64, 600));
    }

    #[test]
    #[should_panic(expected = "64-byte burst")]
    fn regulator_rejects_sub_burst_budgets() {
        let _ = BandwidthRegulator::new(100, vec![63]);
    }
}
