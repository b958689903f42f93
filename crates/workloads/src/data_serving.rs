//! Data Serving: an in-memory key-value store under a YCSB-style client.
//!
//! Models the paper's Cassandra 0.7.3 + YCSB setup (§3.2): a 15 GB dataset
//! served from memory, requests following a Zipfian popularity distribution
//! with a 95:5 read:write ratio. The store is an open-addressing hash index
//! over the simulated heap; reads probe the index (dependent loads), then
//! stream the located value; writes are log-structured (value write plus a
//! sequential commit-log append), as in Cassandra's memtable/commit-log
//! design.

use crate::emit::{build_source, AppModel, DataRegion, Dep, EmitCtx, RequestApp, RequestMeter};
use crate::heap::SimHeap;
use cs_trace::ifoot::CodeProfile;
use cs_trace::profile::{IlpModel, OsProfile};
use cs_trace::rng::{chance, splitmix64};
use cs_trace::zipf::Zipf;
use cs_trace::{MicroOp, TraceSource};
use std::collections::VecDeque;

/// Configuration of the key-value store and its client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataServing {
    /// Number of stored keys.
    pub n_keys: u64,
    /// Index slots (load factor below 1).
    pub index_slots: u64,
    /// Total (virtual) dataset size the values span.
    pub dataset_bytes: u64,
    /// Read fraction of the request mix (YCSB 95:5 → 0.95).
    pub read_ratio: f64,
    /// Zipf exponent of key popularity (YCSB default 0.99).
    pub zipf_s: f64,
    /// Compute ops modeling request parse/dispatch.
    pub parse_ops: u32,
    /// Compute ops modeling response serialization.
    pub respond_ops: u32,
}

impl DataServing {
    /// The paper's setup, scaled: 15 GB YCSB dataset, Zipfian client,
    /// 95:5 reads:writes.
    pub fn paper_setup() -> Self {
        Self {
            n_keys: 1 << 20,
            index_slots: 3 << 19, // load factor 2/3
            dataset_bytes: 15 << 30,
            read_ratio: 0.95,
            zipf_s: 0.99,
            parse_ops: 700,
            respond_ops: 1100,
        }
    }

    /// Everything this workload's sources are built from besides the
    /// application itself (see [`AppModel`]).
    pub fn model() -> AppModel {
        AppModel {
            code: CodeProfile::new(2560 * 1024, 0.84, 0.016),
            ilp: IlpModel::new(3.1, 0.25),
            os: OsProfile::network(0.22, 1280, 0.008),
            fp_frac: 0.0,
            scratch: DataRegion { bytes: 24 * 1024, frac: 0.34 },
            warm: DataRegion { bytes: 128 * 1024, frac: 0.12 },
        }
    }

    /// Builds the trace source for one hardware thread, including the
    /// workload's OS time, bumping `meter` (if any) once per request.
    pub fn into_source(self, thread: usize, seed: u64, meter: Option<RequestMeter>) -> impl TraceSource {
        build_source(DataServingApp::new(self, thread), Self::model(), thread, seed, meter)
    }
}

/// The running store (per-thread handle onto the shared layout).
#[derive(Debug)]
pub struct DataServingApp {
    cfg: DataServing,
    zipf: Zipf,
    index_addr: u64,
    value_base: u64,
    value_stride: u64,
    log_addr: u64,
    log_bytes: u64,
    log_pos: u64,
    /// Requests served (exposed for tests/examples).
    pub requests: u64,
}

impl DataServingApp {
    /// Lays out the store. The dataset and index layout are a pure
    /// function of the configuration, so every thread sees the same shared
    /// data; the commit-log segment is per-thread (Cassandra serializes
    /// appends, so threads never write the same log bytes).
    pub fn new(cfg: DataServing, thread: usize) -> Self {
        let mut heap = SimHeap::new();
        let index_addr = heap.alloc_lines(cfg.index_slots * 16);
        let value_base = heap.alloc_lines(cfg.dataset_bytes);
        let log_addr = heap.alloc_lines((64 << 20) * 16) + (thread as u64 % 16) * (64 << 20);
        Self {
            cfg,
            zipf: Zipf::new(cfg.n_keys, cfg.zipf_s),
            index_addr,
            value_base,
            value_stride: (cfg.dataset_bytes / cfg.n_keys) & !63,
            log_addr,
            log_bytes: 64 << 20,
            log_pos: 0,
            requests: 0,
        }
    }

    fn value_len(&self, key: u64) -> u64 {
        128 + splitmix64(key ^ 0x5A1) % 896
    }

    fn probe_len(&self, key: u64) -> u64 {
        1 + splitmix64(key ^ 0x9E37) % 3
    }
}

impl RequestApp for DataServingApp {
    fn generate(&mut self, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) {
        let cfg = self.cfg;
        // Request arrives: parse, authenticate, route.
        ctx.compute(cfg.parse_ops, out);

        // Popularity-skewed key choice, scattered over the key space.
        let rank = self.zipf.sample(ctx.rng()) - 1;
        let key = splitmix64(rank) % cfg.n_keys;

        // Index probe: linear probing, each slot's key read depends on the
        // previous comparison (bucket -> entry -> next).
        let slot0 = splitmix64(key ^ 0x1DE) % cfg.index_slots;
        for p in 0..self.probe_len(key) {
            let slot = (slot0 + p) % cfg.index_slots;
            ctx.load(self.index_addr + slot * 16, 8, Dep::OnPrevLoad, out);
            ctx.compute(6, out);
        }

        let vaddr = self.value_base + key * self.value_stride;
        let vlen = self.value_len(key);
        if chance(ctx.rng(), cfg.read_ratio) {
            // Read: stream the value (address came from the index entry),
            // deserializing as we go.
            ctx.load_span(vaddr, vlen, Dep::OnPrevLoad, 24, out);
        } else {
            // Write: new value bytes, a commit-log append, and the index
            // entry update (memtable insert).
            ctx.store_span(vaddr, vlen, 10, out);
            if self.log_pos + vlen >= self.log_bytes {
                self.log_pos = 0;
            }
            ctx.store_span(self.log_addr + self.log_pos, vlen, 4, out);
            self.log_pos += (vlen + 63) & !63;
            ctx.store(self.index_addr + slot0 * 16, 8, out);
        }

        // Serialize and send the response.
        ctx.compute(cfg.respond_ops, out);
        self.requests += 1;
    }

    fn label(&self) -> &str {
        "Data Serving"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::AppSource;
    use cs_trace::profile::IlpModel;

    fn drive(n: usize) -> Vec<MicroOp> {
        let cfg = DataServing::paper_setup();
        let app = DataServingApp::new(cfg, 0);
        let ctx = EmitCtx::new(
            cs_trace::ifoot::CodeProfile::new(256 * 1024, 0.8, 0.01),
            IlpModel::new(3.0, 0.3),
            0.0,
            0,
            11,
        );
        let mut src = AppSource::new(app, ctx);
        (0..n).map(|_| src.next_op().expect("endless")).collect()
    }

    #[test]
    fn serves_requests_endlessly() {
        let ops = drive(50_000);
        assert_eq!(ops.len(), 50_000);
        assert!(ops.iter().any(|o| o.is_load()));
        assert!(ops.iter().any(|o| o.is_store()));
    }

    #[test]
    fn dataset_spans_far_more_than_the_llc() {
        let ops = drive(200_000);
        let value_lines: std::collections::HashSet<u64> = ops
            .iter()
            .filter_map(|o| o.mem.map(|m| m.addr))
            .filter(|a| *a >= cs_trace::layout::APP_HEAP_BASE)
            .map(|a| a >> 6)
            .collect();
        let span = value_lines.iter().max().unwrap() - value_lines.iter().min().unwrap();
        assert!(span * 64 > (1 << 30), "dataset span {} bytes too small", span * 64);
    }

    #[test]
    fn read_write_mix_matches_ycsb() {
        let cfg = DataServing::paper_setup();
        let app = DataServingApp::new(cfg, 0);
        let ctx = EmitCtx::new(
            cs_trace::ifoot::CodeProfile::new(64 * 1024, 0.8, 0.01),
            IlpModel::new(3.0, 0.3),
            0.0,
            0,
            3,
        );
        let mut src = AppSource::new(app, ctx);
        // Stores to the commit-log region only happen on writes.
        let mut log_stores = 0u64;
        let mut value_ops = 0u64;
        for _ in 0..400_000 {
            let op = src.next_op().expect("endless");
            if let Some(m) = op.mem {
                if op.is_store() && m.addr >= src.app().log_addr
                    && m.addr < src.app().log_addr + src.app().log_bytes
                {
                    log_stores += 1;
                }
                if m.addr >= src.app().value_base {
                    value_ops += 1;
                }
            }
        }
        assert!(log_stores > 0, "writes must reach the commit log");
        assert!(value_ops > log_stores, "reads dominate 95:5");
    }

    #[test]
    fn layout_is_shared_across_threads_except_the_log() {
        let a = DataServingApp::new(DataServing::paper_setup(), 0);
        let b = DataServingApp::new(DataServing::paper_setup(), 1);
        assert_eq!(a.index_addr, b.index_addr);
        assert_eq!(a.value_base, b.value_base);
        assert_ne!(a.log_addr, b.log_addr, "commit-log segments are per-thread");
    }

    #[test]
    fn full_source_includes_kernel_time() {
        let mut src = DataServing::paper_setup().into_source(0, 5, None);
        let kernel =
            (0..100_000).filter(|_| src.next_op().expect("endless").is_kernel()).count();
        let frac = kernel as f64 / 100_000.0;
        assert!((0.1..0.4).contains(&frac), "kernel fraction {frac}");
    }
}
