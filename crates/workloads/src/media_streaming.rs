//! Media Streaming: a packetizer serving many concurrent clients.
//!
//! Models the paper's Darwin Streaming Server setup (§3.2): pre-encoded
//! media files served to a large simulated client population at low
//! bit-rates. Every client streams from its own offset, so even popular
//! files are effectively read once per client — the paper's worst-case
//! off-chip traffic (Figure 7) — and the server's global sent-packet
//! counters create the small application-level read-write sharing §4.4
//! calls out.

use crate::emit::{AppModel, AppSource, Dep, EmitCtx, RequestApp, RequestMeter};
use crate::heap::SimHeap;
use cs_trace::ifoot::CodeProfile;
use cs_trace::profile::{IlpModel, OsProfile};
use cs_trace::rng::{chance, splitmix64};
use cs_trace::synth::OsInterleaver;
use cs_trace::zipf::Zipf;
use cs_trace::{layout, MicroOp, TraceSource};
use std::collections::VecDeque;

/// Configuration of the streaming server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaStreaming {
    /// Number of media files in the catalog.
    pub n_files: u64,
    /// Mean file size in bytes.
    pub mean_file_bytes: u64,
    /// Concurrent clients per serving thread.
    pub clients_per_thread: usize,
    /// RTP payload bytes per packet (low bit-rate stream).
    pub packet_bytes: u64,
    /// Zipf exponent of file popularity.
    pub file_zipf_s: f64,
}

impl MediaStreaming {
    /// The paper's setup, scaled: a multi-gigabyte catalog, low bit-rate
    /// streams, many concurrent clients.
    pub fn paper_setup() -> Self {
        Self {
            n_files: 3000,
            mean_file_bytes: 8 << 20,
            clients_per_thread: 96,
            packet_bytes: 1344,
            file_zipf_s: 0.8,
        }
    }

    /// The code footprint, ILP structure and OS time this workload's
    /// sources are built from.
    pub fn model() -> AppModel {
        AppModel {
            code: CodeProfile::new(1536 * 1024, 0.85, 0.012),
            ilp: IlpModel::new(2.8, 0.25),
            os: OsProfile::network(0.30, 1536, 0.030),
        }
    }

    /// Builds the trace source for one hardware thread, bumping `meter`
    /// (if any) once per request.
    pub fn into_source(self, thread: usize, seed: u64, meter: Option<RequestMeter>) -> impl TraceSource {
        let AppModel { code, ilp, os } = Self::model();
        let ctx = EmitCtx::new(code, ilp, 0.0, thread, seed)
            .with_scratch(16 * 1024, 0.34)
            .with_warm(96 * 1024, 0.14);
        let app = AppSource::new(StreamingServer::new(self, thread, seed), ctx).with_meter(meter);
        OsInterleaver::new(app, &os, ilp, thread, seed)
    }
}

#[derive(Debug, Clone, Copy)]
struct Client {
    file: u64,
    pos: u64,
}

/// One serving thread of the streaming server.
#[derive(Debug)]
pub struct StreamingServer {
    cfg: MediaStreaming,
    catalog_addr: u64,
    session_addr: u64,
    stats_addr: u64,
    clients: Vec<Client>,
    next_client: usize,
    /// Packets sent (exposed for tests/examples).
    pub packets: u64,
}

impl StreamingServer {
    /// Lays out the (shared) catalog and session table and admits the
    /// initial client population.
    pub fn new(cfg: MediaStreaming, thread: usize, seed: u64) -> Self {
        let mut heap = SimHeap::new();
        let catalog_addr = heap.alloc_lines(cfg.n_files * cfg.mean_file_bytes);
        // Session blocks are per-connection and each connection belongs to
        // one serving thread.
        let session_addr = heap.alloc_lines((1 << 20) * 16) + (thread as u64 % 16) * (1 << 20);
        let zipf = Zipf::new(cfg.n_files, cfg.file_zipf_s);
        let mut rng = cs_trace::rng::stream_rng(seed ^ 0x3ED1A, thread as u64);
        let clients = (0..cfg.clients_per_thread)
            .map(|_| {
                let file = zipf.sample(&mut rng) - 1;
                let pos = rng.gen_range(0..cfg.mean_file_bytes / 2);
                Client { file, pos }
            })
            .collect();
        Self {
            cfg,
            catalog_addr,
            session_addr,
            stats_addr: layout::APP_SHARED_BASE,
            clients,
            next_client: 0,
            packets: 0,
        }
    }

    fn file_len(&self, file: u64) -> u64 {
        let jitter = splitmix64(file) % self.cfg.mean_file_bytes;
        self.cfg.mean_file_bytes / 2 + jitter
    }
}

impl RequestApp for StreamingServer {
    fn generate(&mut self, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) {
        let cfg = self.cfg;
        let idx = self.next_client;
        self.next_client = (self.next_client + 1) % self.clients.len();

        // Session lookup for the scheduled client.
        ctx.load(self.session_addr + idx as u64 * 256, 8, Dep::Free, out);
        ctx.compute(90, out);

        // Read the next chunk of the client's file and packetize it.
        let client = self.clients[idx];
        let addr = self.catalog_addr + client.file * cfg.mean_file_bytes + client.pos;
        ctx.load_span(addr, cfg.packet_bytes, Dep::OnPrevLoad, 26, out);

        // RTP header construction and checksums (scratch traffic comes from
        // the compute mix).
        ctx.compute(220, out);

        // Advance the stream; loop the file when it ends (continuous
        // workload, as in the Faban driver's closed loop).
        let flen = self.file_len(client.file);
        let c = &mut self.clients[idx];
        c.pos += cfg.packet_bytes;
        if c.pos + cfg.packet_bytes >= flen {
            c.pos = 0;
        }

        // Global sent-packet counters: mutex-protected shared counters the
        // paper explicitly flags as the app-level sharing source (§4.4).
        if chance(ctx.rng(), 0.35) {
            let counter = splitmix64(self.packets) % 32;
            ctx.load(self.stats_addr + counter * 128, 8, Dep::Free, out);
            ctx.store(self.stats_addr + counter * 128, 8, out);
        }
        ctx.compute(70, out);

        // Session bookkeeping.
        ctx.store(self.session_addr + idx as u64 * 256 + 64, 8, out);
        self.packets += 1;
    }

    fn label(&self) -> &str {
        "Media Streaming"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_trace::profile::IlpModel;

    fn source(thread: usize) -> AppSource<StreamingServer> {
        let app = StreamingServer::new(MediaStreaming::paper_setup(), thread, 5);
        let ctx = EmitCtx::new(
            cs_trace::ifoot::CodeProfile::new(128 * 1024, 0.8, 0.01),
            IlpModel::new(3.0, 0.3),
            0.0,
            thread,
            5,
        );
        AppSource::new(app, ctx)
    }

    #[test]
    fn chunks_stream_sequentially_per_client() {
        let mut src = source(0);
        let catalog = src.app().catalog_addr;
        let mut per_file: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for _ in 0..300_000 {
            let op = src.next_op().expect("endless");
            if let Some(m) = op.mem {
                if op.is_load() && m.addr >= catalog && m.addr < src.app().session_addr {
                    let file = (m.addr - catalog) / MediaStreaming::paper_setup().mean_file_bytes;
                    per_file.entry(file).or_default().push(m.addr);
                }
            }
        }
        // Within one file+client, addresses ascend.
        let longest = per_file.values().max_by_key(|v| v.len()).expect("files touched");
        let ascending = longest.windows(2).filter(|w| w[1] >= w[0]).count();
        assert!(
            ascending as f64 / longest.len() as f64 > 0.8,
            "stream not mostly ascending"
        );
    }

    #[test]
    fn shared_counters_are_written() {
        let mut src = source(0);
        let mut counter_writes = 0;
        for _ in 0..100_000 {
            let op = src.next_op().expect("endless");
            if let Some(m) = op.mem {
                if op.is_store() && m.addr >= layout::APP_SHARED_BASE {
                    counter_writes += 1;
                }
            }
        }
        assert!(counter_writes > 10, "global packet counters must be updated");
    }

    #[test]
    fn packets_flow() {
        let mut src = source(0);
        for _ in 0..100_000 {
            src.next_op();
        }
        assert!(src.app().packets > 50);
    }

    #[test]
    fn catalog_is_shared_but_cursors_differ() {
        let a = StreamingServer::new(MediaStreaming::paper_setup(), 0, 5);
        let b = StreamingServer::new(MediaStreaming::paper_setup(), 1, 5);
        assert_eq!(a.catalog_addr, b.catalog_addr);
        let pos_a: Vec<u64> = a.clients.iter().map(|c| c.pos).collect();
        let pos_b: Vec<u64> = b.clients.iter().map(|c| c.pos).collect();
        assert_ne!(pos_a, pos_b, "client populations are thread-local");
    }
}
