//! The benchmark registry.
//!
//! One [`Benchmark`] per workload of the paper's evaluation: the six
//! CloudSuite scale-out workloads of §3.2 (backed by the mini application
//! implementations in `cs-workloads`) and the traditional comparison
//! points of §3.3 (backed by the statistical profiles in
//! `cs_trace::profile`).

use cs_trace::source::PipelinedSource;
use cs_trace::{TraceSource, WorkloadProfile};
use cs_workloads::emit::RequestMeter;
use std::sync::Arc;

/// Workload class, as the paper groups its figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// The CloudSuite scale-out workloads (§3.2).
    ScaleOut,
    /// Desktop, parallel, enterprise-web and database benchmarks (§3.3).
    Traditional,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::ScaleOut => f.write_str("scale-out"),
            Category::Traditional => f.write_str("traditional"),
        }
    }
}

type SourceFactory = Arc<dyn Fn(usize, u64) -> Box<dyn TraceSource> + Send + Sync>;
type MeteredFactory =
    Arc<dyn Fn(usize, u64, RequestMeter) -> Box<dyn TraceSource> + Send + Sync>;

/// A runnable workload: a name, a class, and a per-thread trace-source
/// factory.
#[derive(Clone)]
pub struct Benchmark {
    name: String,
    category: Category,
    factory: SourceFactory,
    metered: Option<MeteredFactory>,
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("category", &self.category)
            .finish()
    }
}

impl Benchmark {
    /// Wraps a statistical workload profile; its sources run on the
    /// trace-generation pool.
    pub fn from_profile(category: Category, profile: WorkloadProfile) -> Self {
        let name = profile.name.clone();
        let factory: SourceFactory = Arc::new(move |thread, seed| {
            Box::new(PipelinedSource::new(profile.build_source(thread, seed)))
        });
        Self { name, category, factory, metered: None }
    }

    /// Wraps an arbitrary source factory (used by the mini applications in
    /// `cs-workloads` and by tests).
    pub fn from_factory(
        name: impl Into<String>,
        category: Category,
        factory: impl Fn(usize, u64) -> Box<dyn TraceSource> + Send + Sync + 'static,
    ) -> Self {
        Self { name: name.into(), category, factory: Arc::new(factory), metered: None }
    }

    /// Attaches a request-metered factory (used by the mini applications;
    /// statistical profiles have no request notion).
    pub fn with_metered_factory(
        mut self,
        factory: impl Fn(usize, u64, RequestMeter) -> Box<dyn TraceSource> + Send + Sync + 'static,
    ) -> Self {
        self.metered = Some(Arc::new(factory));
        self
    }

    /// Builds a source and, when the workload supports it, a request meter
    /// counting completed requests (the service-throughput side of the
    /// paper's footnote 3).
    pub fn build_source_metered(
        &self,
        thread: usize,
        seed: u64,
    ) -> (Box<dyn TraceSource>, Option<RequestMeter>) {
        match &self.metered {
            Some(f) => {
                let meter = RequestMeter::default();
                (f(thread, seed, meter.clone()), Some(meter))
            }
            None => ((self.factory)(thread, seed), None),
        }
    }

    /// Workload name as it appears in the paper's figures.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Workload class.
    pub fn category(&self) -> Category {
        self.category
    }

    /// Builds the trace source for hardware thread `thread`.
    pub fn build_source(&self, thread: usize, seed: u64) -> Box<dyn TraceSource> {
        (self.factory)(thread, seed)
    }

    // -----------------------------------------------------------------
    // The suite.
    // -----------------------------------------------------------------

    /// A mini application from `cs-workloads`: `build` makes its
    /// per-thread sources, metered or not, which run on the
    /// trace-generation pool.
    fn scale_out<S: TraceSource + Send + 'static>(
        name: &str,
        build: fn(usize, u64, Option<RequestMeter>) -> S,
    ) -> Self {
        Self::from_factory(name, Category::ScaleOut, move |t, s| {
            Box::new(PipelinedSource::new(build(t, s, None)))
        })
        .with_metered_factory(move |t, s, meter| {
            Box::new(PipelinedSource::metered(meter, |m| build(t, s, Some(m))))
        })
    }

    /// Data Serving: Cassandra + YCSB (§3.2).
    pub fn data_serving() -> Self {
        use cs_workloads::data_serving::DataServing as W;
        Self::scale_out("Data Serving", |t, s, m| W::paper_setup().into_source(t, s, m))
    }

    /// MapReduce: Hadoop + Mahout Bayesian classification (§3.2).
    pub fn mapreduce() -> Self {
        use cs_workloads::mapreduce::MapReduce as W;
        Self::scale_out("MapReduce", |t, s, m| W::paper_setup().into_source(t, s, m))
    }

    /// Media Streaming: Darwin Streaming Server (§3.2).
    pub fn media_streaming() -> Self {
        use cs_workloads::media_streaming::MediaStreaming as W;
        Self::scale_out("Media Streaming", |t, s, m| W::paper_setup().into_source(t, s, m))
    }

    /// SAT Solver: Klee / Cloud9 (§3.2).
    pub fn sat_solver() -> Self {
        use cs_workloads::sat_solver::SatSolver as W;
        Self::scale_out("SAT Solver", |t, s, m| W::paper_setup().into_source(t, s, m))
    }

    /// Web Frontend: Nginx + PHP serving Olio (§3.2).
    pub fn web_frontend() -> Self {
        use cs_workloads::web_frontend::WebFrontend as W;
        Self::scale_out("Web Frontend", |t, s, m| W::paper_setup().into_source(t, s, m))
    }

    /// Web Search: Nutch/Lucene index serving node (§3.2).
    pub fn web_search() -> Self {
        use cs_workloads::web_search::WebSearch as W;
        Self::scale_out("Web Search", |t, s, m| W::paper_setup().into_source(t, s, m))
    }

    /// The six CloudSuite scale-out workloads, in figure order.
    pub fn scale_out_suite() -> Vec<Self> {
        vec![
            Self::data_serving(),
            Self::mapreduce(),
            Self::media_streaming(),
            Self::sat_solver(),
            Self::web_frontend(),
            Self::web_search(),
        ]
    }

    /// The traditional comparison benchmarks of §3.3, in figure order.
    pub fn traditional_suite() -> Vec<Self> {
        WorkloadProfile::traditional_suite()
            .into_iter()
            .map(|p| Self::from_profile(Category::Traditional, p))
            .collect()
    }

    /// The `mcf` outlier used by Figure 4.
    pub fn mcf() -> Self {
        Self::from_profile(Category::Traditional, WorkloadProfile::mcf())
    }

    /// Every workload of the evaluation, scale-out first.
    pub fn all() -> Vec<Self> {
        let mut v = Self::scale_out_suite();
        v.extend(Self::traditional_suite());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_cardinalities_match_the_paper() {
        assert_eq!(Benchmark::scale_out_suite().len(), 6);
        assert_eq!(Benchmark::traditional_suite().len(), 8);
        assert_eq!(Benchmark::all().len(), 14);
    }

    #[test]
    fn categories_are_assigned() {
        for b in Benchmark::scale_out_suite() {
            assert_eq!(b.category(), Category::ScaleOut, "{}", b.name());
        }
        for b in Benchmark::traditional_suite() {
            assert_eq!(b.category(), Category::Traditional, "{}", b.name());
        }
    }

    #[test]
    fn sources_produce_ops() {
        for b in Benchmark::all() {
            let mut src = b.build_source(0, 7);
            assert!(src.next_op().is_some(), "{} produced no ops", b.name());
        }
    }

    #[test]
    fn distinct_threads_have_distinct_streams() {
        let b = Benchmark::mcf();
        let mut a = b.build_source(0, 7);
        let mut c = b.build_source(1, 7);
        let xs: Vec<_> = (0..64).filter_map(|_| a.next_op()).collect();
        let ys: Vec<_> = (0..64).filter_map(|_| c.next_op()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn scale_out_benchmarks_support_request_metering() {
        for b in Benchmark::scale_out_suite() {
            let (mut src, meter) = b.build_source_metered(0, 3);
            let meter = meter.expect("scale-out workloads meter requests");
            for _ in 0..20_000 {
                src.next_op();
            }
            assert!(
                meter.load(std::sync::atomic::Ordering::Relaxed) > 0,
                "{} served no requests",
                b.name()
            );
        }
    }

    #[test]
    fn profile_benchmarks_have_no_meter() {
        let (_, meter) = Benchmark::mcf().build_source_metered(0, 3);
        assert!(meter.is_none());
    }

    #[test]
    fn category_display() {
        assert_eq!(Category::ScaleOut.to_string(), "scale-out");
        assert_eq!(Category::Traditional.to_string(), "traditional");
    }
}
