//! Web Search: an inverted-index serving node.
//!
//! Models the paper's Nutch/Lucene ISN (§3.2): a memory-resident index
//! shard answering latency-sensitive queries. Each query intersects the
//! posting lists of its terms — sequential scans of the short list with
//! galloping (binary-search) probes into the long one — and scores hits
//! into a top-k heap. Requests are handled independently, one per thread,
//! without inter-thread communication (§2.2).

use crate::emit::{build_source, AppModel, DataRegion, Dep, EmitCtx, RequestApp, RequestMeter};
use crate::heap::SimHeap;
use cs_trace::ifoot::CodeProfile;
use cs_trace::profile::{IlpModel, OsProfile};
use cs_trace::rng::{chance, splitmix64};
use cs_trace::zipf::Zipf;
use cs_trace::{MicroOp, TraceSource};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// Configuration of the index serving node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebSearch {
    /// Vocabulary size of the shard.
    pub n_terms: u64,
    /// Bytes per posting entry.
    pub posting_bytes: u64,
    /// Longest posting list, in entries.
    pub max_postings: u64,
    /// Zipf exponent of query-term popularity.
    pub term_zipf_s: f64,
    /// Cap on entries scanned from the short list per query (early
    /// termination, as ISNs do for latency).
    pub scan_cap: u64,
}

impl WebSearch {
    /// The paper's setup, scaled: a 2 GB in-memory index shard.
    pub fn paper_setup() -> Self {
        Self {
            n_terms: 150_000,
            posting_bytes: 8,
            max_postings: 6_000_000,
            term_zipf_s: 0.9,
            scan_cap: 128,
        }
    }

    /// Everything this workload's sources are built from besides the
    /// application itself (see [`AppModel`]).
    pub fn model() -> AppModel {
        AppModel {
            code: CodeProfile::new(2560 * 1024, 0.88, 0.012),
            ilp: IlpModel::new(3.8, 0.20),
            os: OsProfile::network(0.12, 1024, 0.012),
            fp_frac: 0.02,
            scratch: DataRegion { bytes: 32 * 1024, frac: 0.36 },
            warm: DataRegion { bytes: 160 * 1024, frac: 0.12 },
        }
    }

    /// Builds the trace source for one hardware thread, bumping `meter`
    /// (if any) once per request.
    pub fn into_source(self, thread: usize, seed: u64, meter: Option<RequestMeter>) -> impl TraceSource {
        build_source(IndexNode::new(self), Self::model(), thread, seed, meter)
    }
}

/// One index serving node thread.
#[derive(Debug)]
pub struct IndexNode {
    cfg: WebSearch,
    term_zipf: Zipf,
    /// Posting-list bounds (entries) by popularity rank: rank `r`'s list
    /// spans `offsets[r - 1]..offsets[r]`. Shared by every node of one
    /// configuration (see [`posting_offsets`]).
    offsets: Arc<[u64]>,
    postings_addr: u64,
    /// Total shard size in bytes (exposed for tests/examples).
    pub shard_bytes: u64,
    /// Queries served.
    pub queries: u64,
}

impl IndexNode {
    /// Lays out the shard: posting lists sorted by term rank, long lists
    /// first (popular terms have more documents).
    pub fn new(cfg: WebSearch) -> Self {
        let offsets = posting_offsets(&cfg);
        let total = offsets[offsets.len() - 1];
        let mut heap = SimHeap::new();
        let shard_bytes = total * cfg.posting_bytes;
        let postings_addr = heap.alloc_lines(shard_bytes);
        Self {
            cfg,
            term_zipf: Zipf::new(cfg.n_terms, cfg.term_zipf_s),
            offsets,
            postings_addr,
            shard_bytes,
            queries: 0,
        }
    }

    fn list_len_static(cfg: &WebSearch, rank: u64) -> u64 {
        // Popular terms appear in many documents: a power-law list length.
        (cfg.max_postings as f64 / (rank as f64).powf(0.85)).max(8.0) as u64
    }

    fn list_len(&self, rank: u64) -> u64 {
        self.offsets[rank as usize] - self.offsets[(rank - 1) as usize]
    }

    fn entry_addr(&self, rank: u64, i: u64) -> u64 {
        self.postings_addr + (self.offsets[(rank - 1) as usize] + i) * self.cfg.posting_bytes
    }
}

/// The posting-list bounds of `cfg`, `n_terms + 1` prefix sums of
/// [`IndexNode::list_len_static`], computed once per distinct
/// configuration per process: every thread's node of every run shares one
/// table instead of recomputing 150,000 `powf` lengths.
fn posting_offsets(cfg: &WebSearch) -> Arc<[u64]> {
    static TABLES: Mutex<Vec<(WebSearch, Arc<[u64]>)>> = Mutex::new(Vec::new());
    let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, table)) = tables.iter().find(|(c, _)| c == cfg) {
        return Arc::clone(table);
    }
    let mut offsets = Vec::with_capacity(cfg.n_terms as usize + 1);
    let mut total = 0u64;
    offsets.push(total);
    for rank in 1..=cfg.n_terms {
        total += IndexNode::list_len_static(cfg, rank);
        offsets.push(total);
    }
    let table: Arc<[u64]> = offsets.into();
    tables.push((*cfg, Arc::clone(&table)));
    table
}

impl RequestApp for IndexNode {
    fn generate(&mut self, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) {
        let cfg = self.cfg;
        // Parse the query and look the terms up in the dictionary.
        ctx.compute(180, out);
        let k = 2 + ctx.rng().gen_range(0..=1i32);
        let mut terms: Vec<u64> = (0..k).map(|_| self.term_zipf.sample(ctx.rng())).collect();
        terms.sort_by_key(|&r| self.list_len(r));
        terms.dedup();

        // Intersect: scan the shortest list from its head (popular lists'
        // head blocks stay cache-resident across queries, as in a real
        // ISN), galloping into the longer ones at skip-block boundaries.
        let short = terms[0];
        let scan = self.list_len(short).min(cfg.scan_cap);
        for i in 0..scan {
            ctx.load(self.entry_addr(short, i), 8, Dep::Free, out);
            // Posting decode (delta/vint decompression) and document check.
            ctx.compute(14, out);
            if i % 16 == 0 {
                // Skip-list block boundary: gallop into the longer lists
                // with dependent probes. (Lucene advances through skip
                // blocks, not per-document.)
                for &long in &terms[1..] {
                    let len = self.list_len(long);
                    let mut pos = splitmix64(i ^ long ^ (self.queries % 64)) % len;
                    for _ in 0..2 {
                        ctx.load(self.entry_addr(long, pos), 8, Dep::OnPrevLoad, out);
                        ctx.compute(10, out);
                        pos = (pos + len / 2) % len;
                    }
                }
            }
            // Scoring on a hit: BM25-ish arithmetic + accumulator update
            // (accumulators are scratch).
            if chance(ctx.rng(), 0.22) {
                ctx.compute(40, out);
            }
        }

        // Rank the accumulated candidates and format the reply.
        ctx.compute(700, out);
        self.queries += 1;
    }

    fn label(&self) -> &str {
        "Web Search"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::AppSource;
    use cs_trace::profile::IlpModel;

    fn source() -> AppSource<IndexNode> {
        let app = IndexNode::new(WebSearch::paper_setup());
        let ctx = EmitCtx::new(
            cs_trace::ifoot::CodeProfile::new(256 * 1024, 0.85, 0.01),
            IlpModel::new(3.8, 0.2),
            0.02,
            0,
            29,
        );
        AppSource::new(app, ctx)
    }

    #[test]
    fn shard_is_gigabytes_scale() {
        let node = IndexNode::new(WebSearch::paper_setup());
        assert!(node.shard_bytes > (1 << 30), "shard only {} bytes", node.shard_bytes);
    }

    #[test]
    fn posting_lists_are_disjoint_and_ordered() {
        let node = IndexNode::new(WebSearch::paper_setup());
        for rank in 1..1000u64 {
            let end = node.offsets[(rank - 1) as usize] + node.list_len(rank);
            assert!(end <= node.offsets[rank as usize], "lists overlap at rank {rank}");
        }
    }

    #[test]
    fn list_lengths_come_from_one_shared_table() {
        let cfg = WebSearch { n_terms: 500, max_postings: 40_000, ..WebSearch::paper_setup() };
        let node = IndexNode::new(cfg);
        for rank in 1..=cfg.n_terms {
            assert_eq!(node.list_len(rank), IndexNode::list_len_static(&cfg, rank), "rank {rank}");
        }
        let twin = IndexNode::new(cfg);
        assert!(Arc::ptr_eq(&node.offsets, &twin.offsets), "nodes of one config share a table");
        let other = IndexNode::new(WebSearch { n_terms: 400, ..cfg });
        assert!(!Arc::ptr_eq(&node.offsets, &other.offsets));
    }

    #[test]
    fn popular_terms_have_longer_lists() {
        let node = IndexNode::new(WebSearch::paper_setup());
        assert!(node.list_len(1) > node.list_len(100));
        assert!(node.list_len(100) > node.list_len(100_000));
    }

    #[test]
    fn queries_scan_and_probe() {
        let mut src = source();
        let base = src.app().postings_addr;
        let end = base + src.app().shard_bytes;
        let mut scans = 0;
        let mut probes = 0;
        for _ in 0..100_000 {
            let op = src.next_op().expect("endless");
            if let Some(m) = op.mem {
                if op.is_load() && m.addr >= base && m.addr < end {
                    if op.dep1 > 0 && op.dep1 < 16 {
                        probes += 1;
                    } else {
                        scans += 1;
                    }
                }
            }
        }
        assert!(scans > 100, "short-list scans expected");
        assert!(probes > 100, "galloping probes expected");
    }

    #[test]
    fn queries_complete() {
        let mut src = source();
        for _ in 0..200_000 {
            src.next_op();
        }
        assert!(src.app().queries > 10);
    }
}
