//! A pipelined source hands out the ops and request-meter readings of the
//! source it runs, whatever mix of pulls the consumer makes.

use cs_trace::ifoot::CodeProfile;
use cs_trace::profile::IlpModel;
use cs_trace::rng::stream_rng;
use cs_trace::source::{PipelinedSource, CHUNK_OPS};
use cs_trace::{MicroOp, TraceSource};
use cs_workloads::emit::{AppSource, EmitCtx, RequestApp, RequestMeter};
use cs_workloads::web_search::WebSearch;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;

/// Short requests of 1–8 compute ops, so bumps land all over each chunk,
/// on its first and last op included.
struct Tiny;

impl RequestApp for Tiny {
    fn generate(&mut self, ctx: &mut EmitCtx, out: &mut VecDeque<MicroOp>) {
        let n = 1 + ctx.rng().next_u32() % 8;
        ctx.compute(n, out);
    }

    fn label(&self) -> &str {
        "tiny"
    }
}

fn tiny(seed: u64, meter: RequestMeter) -> AppSource<Tiny> {
    let ctx = EmitCtx::new(CodeProfile::new(64 * 1024, 0.8, 0.01), IlpModel::new(3.0, 0.3), 0.0, 0, seed);
    AppSource::new(Tiny, ctx).with_meter(Some(meter))
}

/// Pulls `direct` and `piped` with one seeded mix of `next_op` and
/// `next_block(1..=64)` over more than `chunks` chunk boundaries,
/// comparing ops and meters after every pull.
fn same_ops_same_meter(
    seed: u64,
    chunks: usize,
    mut direct: impl TraceSource,
    direct_meter: &RequestMeter,
    mut piped: PipelinedSource,
    piped_meter: &RequestMeter,
) {
    let mut g = stream_rng(seed, 0);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut pulled = 0;
    let mut pulls = 0;
    while pulled <= chunks * CHUNK_OPS {
        a.clear();
        b.clear();
        if g.gen_bool() {
            a.extend(direct.next_op());
            b.extend(piped.next_op());
        } else {
            let max = g.gen_range(1..65usize);
            assert_eq!(direct.next_block(&mut a, max), max);
            assert_eq!(piped.next_block(&mut b, max), max);
        }
        assert!(!a.is_empty());
        assert_eq!(a, b, "ops differ at pull {pulls}");
        let (d, p) = (direct_meter.load(Ordering::Relaxed), piped_meter.load(Ordering::Relaxed));
        assert_eq!(d, p, "meters differ at pull {pulls}");
        pulled += a.len();
        pulls += 1;
    }
    assert!(direct_meter.load(Ordering::Relaxed) > 0);
}

#[test]
fn metered_app_source_same_ops_same_meter() {
    for seed in [3, 17, 99] {
        let direct_meter = RequestMeter::default();
        let direct = tiny(seed, direct_meter.clone());
        let piped_meter = RequestMeter::default();
        let piped = PipelinedSource::metered(piped_meter.clone(), |m| tiny(seed, m));
        same_ops_same_meter(seed, 3, direct, &direct_meter, piped, &piped_meter);
    }
}

#[test]
fn metered_web_search_same_ops_same_meter() {
    let seed = 41;
    let direct_meter = RequestMeter::default();
    let direct = WebSearch::paper_setup().into_source(2, seed, Some(direct_meter.clone()));
    let piped_meter = RequestMeter::default();
    let piped = PipelinedSource::metered(piped_meter.clone(), |m| {
        WebSearch::paper_setup().into_source(2, seed, Some(m))
    });
    same_ops_same_meter(seed, 8, direct, &direct_meter, piped, &piped_meter);
}
