//! Web Frontend: a bytecode-interpreter web server.
//!
//! Models the paper's Nginx + PHP (APC opcode cache) setup serving Olio
//! (§3.2): every request routes to a script whose cached opcode stream is
//! interpreted — the dominant instruction footprint of the suite — touching
//! a session store and occasionally issuing backend queries. The
//! interpreter's locals stay hot (the highest scale-out IPC in Figure 3)
//! and requests perform a single dependent descent each (the lowest MLP).

use crate::emit::{AppModel, AppSource, Dep, EmitCtx, RequestApp, RequestMeter};
use crate::heap::SimHeap;
use cs_trace::ifoot::CodeProfile;
use cs_trace::profile::{IlpModel, OsProfile};
use cs_trace::rng::{chance, splitmix64};
use cs_trace::synth::OsInterleaver;
use cs_trace::zipf::Zipf;
use cs_trace::{MicroOp, TraceSource};
use std::collections::VecDeque;

/// Configuration of the frontend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebFrontend {
    /// Distinct scripts in the opcode cache.
    pub n_scripts: u64,
    /// Mean opcodes interpreted per request.
    pub mean_opcodes: u64,
    /// Bytes per opcode in the cache.
    pub opcode_bytes: u64,
    /// Sessions in the session store.
    pub n_sessions: u64,
    /// Bytes per session record.
    pub session_bytes: u64,
    /// Zipf exponent of script popularity.
    pub script_zipf_s: f64,
}

impl WebFrontend {
    /// The paper's setup, scaled: Olio's PHP pages under APC, a 12 GB
    /// on-disk dataset served from memory.
    pub fn paper_setup() -> Self {
        Self {
            n_scripts: 256,
            mean_opcodes: 360,
            opcode_bytes: 16,
            n_sessions: 1 << 20,
            session_bytes: 1024,
            script_zipf_s: 0.9,
        }
    }

    /// The code footprint, ILP structure and OS time this workload's
    /// sources are built from.
    pub fn model() -> AppModel {
        AppModel {
            code: CodeProfile::new(3584 * 1024, 0.90, 0.012),
            ilp: IlpModel::new(3.7, 0.40),
            os: OsProfile::network(0.22, 1536, 0.015),
        }
    }

    /// Builds the trace source for one hardware thread, bumping `meter`
    /// (if any) once per request.
    pub fn into_source(self, thread: usize, seed: u64, meter: Option<RequestMeter>) -> impl TraceSource {
        let AppModel { code, ilp, os } = Self::model();
        let ctx = EmitCtx::new(code, ilp, 0.0, thread, seed)
            .with_scratch(48 * 1024, 0.38)
            .with_warm(224 * 1024, 0.12);
        let app = AppSource::new(Frontend::new(self, thread), ctx).with_meter(meter);
        OsInterleaver::new(app, &os, ilp, thread, seed)
    }
}

/// One serving thread of the frontend.
#[derive(Debug)]
pub struct Frontend {
    cfg: WebFrontend,
    script_zipf: Zipf,
    session_zipf: Zipf,
    blob_addr: u64,
    session_addr: u64,
    db_addr: u64,
    db_bytes: u64,
    thread_salt: u64,
    /// Requests served.
    pub requests: u64,
}

impl Frontend {
    /// Lays out the opcode cache, the session store and the backend stub.
    /// `thread` salts session selection: concurrent requests from one user
    /// land on one worker, so threads touch disjoint hot sessions.
    pub fn new(cfg: WebFrontend, thread: usize) -> Self {
        let mut heap = SimHeap::new();
        let max_script_bytes = 4 * cfg.mean_opcodes * cfg.opcode_bytes;
        let blob_addr = heap.alloc_lines(cfg.n_scripts * max_script_bytes);
        let session_addr = heap.alloc_lines(cfg.n_sessions * cfg.session_bytes);
        let db_bytes = 256 << 20;
        let db_addr = heap.alloc_lines(db_bytes);
        Self {
            cfg,
            script_zipf: Zipf::new(cfg.n_scripts, cfg.script_zipf_s),
            session_zipf: Zipf::new(cfg.n_sessions, 0.9),
            blob_addr,
            session_addr,
            db_addr,
            db_bytes,
            thread_salt: thread as u64,
            requests: 0,
        }
    }

    fn script_len(&self, script: u64) -> u64 {
        let base = self.cfg.mean_opcodes / 2;
        base + splitmix64(script ^ 0x0C0DE) % (3 * self.cfg.mean_opcodes)
    }
}

impl RequestApp for Frontend {
    fn generate(&mut self, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) {
        let cfg = self.cfg;
        // Accept + route + opcode-cache lookup.
        ctx.compute(160, out);
        let script = self.script_zipf.sample(ctx.rng()) - 1;

        // Session load: cookie -> session record (dependent descent).
        let srank = self.session_zipf.sample(ctx.rng()) - 1;
        let session = splitmix64(srank ^ (self.thread_salt << 40)) % cfg.n_sessions;
        ctx.load_span(
            self.session_addr + session * cfg.session_bytes,
            192,
            Dep::OnPrevLoad,
            10,
            out,
        );

        // Interpret the script: sequential opcode fetches from the cache
        // blob, a handful of compute per opcode (locals live in scratch),
        // occasional backend queries.
        let max_script_bytes = 4 * cfg.mean_opcodes * cfg.opcode_bytes;
        let blob = self.blob_addr + script * max_script_bytes;
        let opcodes = self.script_len(script);
        for pc in 0..opcodes {
            if pc % 4 == 0 {
                // One 64-byte line holds four 16-byte opcodes.
                ctx.load(blob + pc * cfg.opcode_bytes, 8, Dep::Free, out);
            }
            ctx.compute(4, out);
            if chance(ctx.rng(), 0.004) {
                // Backend query stub: single dependent pointer descent.
                let row = splitmix64(self.requests ^ pc) % (self.db_bytes / 64);
                ctx.load(self.db_addr + row * 64, 8, Dep::OnPrevLoad, out);
                ctx.load(self.db_addr + splitmix64(row) % (self.db_bytes / 64) * 64, 8, Dep::OnPrevLoad, out);
                ctx.compute(60, out);
            }
        }

        // Render the page into the (warm) output buffer and update the
        // session.
        ctx.compute(220, out);
        ctx.store_span(self.session_addr + session * cfg.session_bytes, 96, 4, out);
        self.requests += 1;
    }

    fn label(&self) -> &str {
        "Web Frontend"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_trace::profile::IlpModel;

    fn source() -> AppSource<Frontend> {
        let app = Frontend::new(WebFrontend::paper_setup(), 0);
        let ctx = EmitCtx::new(
            cs_trace::ifoot::CodeProfile::new(256 * 1024, 0.85, 0.01),
            IlpModel::new(3.5, 0.4),
            0.0,
            0,
            23,
        );
        AppSource::new(app, ctx)
    }

    #[test]
    fn opcode_fetches_are_sequential_within_a_script() {
        let mut src = source();
        let blob = src.app().blob_addr;
        let session = src.app().session_addr;
        let mut fetches = Vec::new();
        for _ in 0..60_000 {
            let op = src.next_op().expect("endless");
            if let Some(m) = op.mem {
                if op.is_load() && m.addr >= blob && m.addr < session {
                    fetches.push(m.addr);
                }
            }
        }
        assert!(fetches.len() > 100);
        let ascending = fetches.windows(2).filter(|w| w[1] == w[0] + 64).count();
        assert!(
            ascending as f64 / fetches.len() as f64 > 0.6,
            "opcode stream not sequential: {ascending}/{}",
            fetches.len()
        );
    }

    #[test]
    fn sessions_are_read_and_written() {
        let mut src = source();
        let session = src.app().session_addr;
        let db = src.app().db_addr;
        let (mut reads, mut writes) = (0, 0);
        for _ in 0..200_000 {
            let op = src.next_op().expect("endless");
            if let Some(m) = op.mem {
                if m.addr >= session && m.addr < db {
                    if op.is_load() {
                        reads += 1;
                    } else {
                        writes += 1;
                    }
                }
            }
        }
        assert!(reads > 0 && writes > 0, "sessions: {reads} reads, {writes} writes");
    }

    #[test]
    fn requests_complete() {
        let mut src = source();
        for _ in 0..200_000 {
            src.next_op();
        }
        assert!(src.app().requests > 20);
    }

    #[test]
    fn popular_scripts_dominate() {
        let mut app = Frontend::new(WebFrontend::paper_setup(), 0);
        let mut rng = cs_trace::rng::stream_rng(1, 0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(app.script_zipf.sample(&mut rng)).or_insert(0u64) += 1;
        }
        let max = counts.values().copied().max().unwrap();
        assert!(max > 100, "script popularity must be skewed: max {max}");
        let _ = &mut app;
    }
}
