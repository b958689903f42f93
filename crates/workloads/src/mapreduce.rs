//! MapReduce: a naive-Bayes classification map task.
//!
//! Models the paper's Hadoop 0.20.2 + Mahout setup (§3.2): one map task per
//! core classifying Wikipedia-like documents. Each document is scanned
//! sequentially from the task's input split; every token is hashed into a
//! shared feature table whose per-class counts feed the classifier; scored
//! documents are appended to a spill buffer. Input scanning is the one
//! scale-out access stream simple prefetchers help (Figure 5).

use crate::emit::{build_source, AppModel, DataRegion, Dep, EmitCtx, RequestApp, RequestMeter};
use crate::heap::SimHeap;
use cs_trace::ifoot::CodeProfile;
use cs_trace::profile::{IlpModel, OsProfile};
use cs_trace::rng::{geometric, splitmix64};
use cs_trace::zipf::Zipf;
use cs_trace::{MicroOp, TraceSource};
use std::collections::VecDeque;

/// Configuration of the map task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapReduce {
    /// Vocabulary size of the feature table.
    pub n_terms: u64,
    /// Number of classes (country tags in the Mahout benchmark).
    pub n_classes: u64,
    /// Input split bytes per task (private to each map task).
    pub split_bytes: u64,
    /// Mean document length in tokens.
    pub mean_doc_tokens: f64,
    /// Zipf exponent of term popularity (natural language).
    pub term_zipf_s: f64,
}

impl MapReduce {
    /// The paper's setup, scaled: Bayesian classification over a 4.5 GB
    /// Wikipedia corpus, one map task per core with its own split.
    pub fn paper_setup() -> Self {
        Self {
            n_terms: 100_000,
            n_classes: 64,
            split_bytes: 1 << 30,
            mean_doc_tokens: 260.0,
            term_zipf_s: 1.0,
        }
    }

    /// Everything this workload's sources are built from besides the
    /// application itself (see [`AppModel`]).
    pub fn model() -> AppModel {
        AppModel {
            code: CodeProfile::new(2048 * 1024, 0.85, 0.014),
            ilp: IlpModel::new(3.3, 0.22),
            os: OsProfile::network(0.16, 1024, 0.010),
            fp_frac: 0.04,
            scratch: DataRegion { bytes: 24 * 1024, frac: 0.32 },
            warm: DataRegion { bytes: 192 * 1024, frac: 0.12 },
        }
    }

    /// Builds the trace source for one hardware thread (one map task),
    /// bumping `meter` (if any) once per request.
    pub fn into_source(self, thread: usize, seed: u64, meter: Option<RequestMeter>) -> impl TraceSource {
        build_source(MapTask::new(self, thread), Self::model(), thread, seed, meter)
    }
}

/// One running map task.
#[derive(Debug)]
pub struct MapTask {
    cfg: MapReduce,
    term_zipf: Zipf,
    /// Feature table: per-term, per-class counts (shared across tasks,
    /// read-mostly during classification).
    table_addr: u64,
    /// This task's input split (private).
    split_addr: u64,
    /// Spill buffer for map output (private).
    spill_addr: u64,
    spill_bytes: u64,
    cursor: u64,
    spill_pos: u64,
    /// Documents processed.
    pub documents: u64,
}

impl MapTask {
    /// Lays out the shared feature table and this task's private split.
    pub fn new(cfg: MapReduce, thread: usize) -> Self {
        let mut heap = SimHeap::new();
        let table_addr = heap.alloc_lines(cfg.n_terms * 16);
        // Private regions: one slot per possible task.
        let splits = heap.alloc_lines(cfg.split_bytes * 16);
        let spills = heap.alloc_lines((128 << 20) * 16);
        Self {
            cfg,
            term_zipf: Zipf::new(cfg.n_terms, cfg.term_zipf_s),
            table_addr,
            split_addr: splits + thread as u64 % 16 * cfg.split_bytes,
            spill_addr: spills + thread as u64 % 16 * (128 << 20),
            spill_bytes: 128 << 20,
            cursor: 0,
            spill_pos: 0,
            documents: 0,
        }
    }
}

impl RequestApp for MapTask {
    fn generate(&mut self, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) {
        let cfg = self.cfg;
        // Record reader: fetch the next document header.
        ctx.compute(80, out);
        let tokens = geometric(ctx.rng(), cfg.mean_doc_tokens).min(4000);

        for _ in 0..tokens {
            // Sequential scan: ~6 bytes of text per token.
            let addr = self.split_addr + self.cursor;
            self.cursor = (self.cursor + 6) % cfg.split_bytes;
            ctx.load(addr, 6, Dep::Free, out);
            // Tokenize/normalize (case folding, stemming, hashing).
            ctx.compute(14, out);
            // Feature lookup: term id -> table row (per-class counts).
            let rank = self.term_zipf.sample(ctx.rng()) - 1;
            let term = splitmix64(rank) % cfg.n_terms;
            ctx.load(self.table_addr + term * 16, 8, Dep::OnPrevLoad, out);
            // Accumulate log-likelihoods per class (scratch accumulators).
            ctx.compute(9, out);
        }

        // Pick the arg-max class and emit the (doc, class) pair.
        ctx.compute(140, out);
        if self.spill_pos + 256 >= self.spill_bytes {
            self.spill_pos = 0;
        }
        ctx.store_span(self.spill_addr + self.spill_pos, 192, 3, out);
        self.spill_pos += 256;
        self.documents += 1;
    }

    fn label(&self) -> &str {
        "MapReduce"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::AppSource;
    use cs_trace::profile::IlpModel;

    fn source() -> AppSource<MapTask> {
        let app = MapTask::new(MapReduce::paper_setup(), 0);
        let ctx = EmitCtx::new(
            cs_trace::ifoot::CodeProfile::new(128 * 1024, 0.8, 0.01),
            IlpModel::new(3.0, 0.3),
            0.0,
            0,
            9,
        );
        AppSource::new(app, ctx)
    }

    #[test]
    fn input_scan_is_sequential() {
        let mut src = source();
        let split = src.app().split_addr;
        let mut scan_addrs = Vec::new();
        for _ in 0..60_000 {
            let op = src.next_op().expect("endless");
            if let Some(m) = op.mem {
                if op.is_load() && m.addr >= split && m.addr < split + (1 << 30) {
                    scan_addrs.push(m.addr);
                }
            }
        }
        assert!(scan_addrs.len() > 500);
        let ascending =
            scan_addrs.windows(2).filter(|w| w[1] > w[0] && w[1] - w[0] < 64).count();
        assert!(
            ascending as f64 / scan_addrs.len() as f64 > 0.9,
            "scan not sequential: {ascending}/{}",
            scan_addrs.len()
        );
    }

    #[test]
    fn feature_table_is_skewed() {
        let mut src = source();
        let table = src.app().table_addr;
        let cap = table + MapReduce::paper_setup().n_terms * 16;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..200_000 {
            let op = src.next_op().expect("endless");
            if let Some(m) = op.mem {
                if m.addr >= table && m.addr < cap {
                    *counts.entry(m.addr).or_insert(0u64) += 1;
                }
            }
        }
        let total: u64 = counts.values().sum();
        let max = counts.values().copied().max().unwrap_or(0);
        assert!(total > 1000);
        assert!(max as f64 > total as f64 / 5000.0, "no hot terms: max {max} of {total}");
    }

    #[test]
    fn documents_complete() {
        let mut src = source();
        for _ in 0..200_000 {
            src.next_op();
        }
        assert!(src.app().documents > 10);
    }

    #[test]
    fn splits_are_private_per_thread() {
        let a = MapTask::new(MapReduce::paper_setup(), 0);
        let b = MapTask::new(MapReduce::paper_setup(), 1);
        assert_eq!(a.table_addr, b.table_addr, "feature table is shared");
        assert_ne!(a.split_addr, b.split_addr, "splits are private");
    }
}
