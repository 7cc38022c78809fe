//! The three workloads. Each one makes a different layer dominant, so a
//! change to one layer has a workload that exercises it and one that
//! bypasses it (where the prediction is "no change").

/// Which generator makes the input series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Per-class archetype series (`pfg_data::TimeSeriesDataset`), classes
    /// assigned round-robin.
    TimeSeries {
        n: usize,
        length: usize,
        classes: usize,
        noise: f64,
    },
    /// The sector factor model (`pfg_data::StockMarket`), detrended
    /// log-returns; ground truth is the sector.
    Stocks { n: usize, days: usize },
}

/// One benchmark workload: a generator shape, the pipeline's prefix and
/// the lowest ARI against ground truth a correct run may reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub source: Source,
    /// Independent problems per run, each generated from its own seed.
    /// Timings are per problem, averaged over them, so that one draw's
    /// structure does not set a run's figures.
    pub problems: usize,
    /// TMFG prefix (vertices inserted per round).
    pub prefix: usize,
    /// ARI floor per problem: a repetition below it fails its output
    /// check. Set well below the lowest value measured on seeds 1..=10.
    pub ari_floor: f64,
}

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // The shape of Crop (Table II; the Fig. 4 data set): many short
    // series, prefix-batched TMFG rounds dominate.
    Workload {
        name: "ucr_batched",
        source: Source::TimeSeries {
            n: 1600,
            length: 46,
            classes: 24,
            noise: 0.35,
        },
        problems: 8,
        prefix: 10,
        ari_floor: 0.5,
    },
    // Many tiny classes (10 series each): about half the vertices sit in
    // converging bubbles, so APSP rows and HAC dominate while TMFG and the
    // kernel are minor. Bypass workload for TMFG and kernel changes.
    Workload {
        name: "fine_clusters",
        source: Source::TimeSeries {
            n: 2000,
            length: 128,
            classes: 200,
            noise: 0.35,
        },
        problems: 4,
        prefix: 10,
        ari_floor: 0.45,
    },
    // The paper's §VII series length with exact (prefix-1) TMFG as in
    // Fig. 10: the correlation kernel dominates, TMFG runs one-vertex
    // rounds, DBHT is small.
    Workload {
        name: "stocks",
        source: Source::Stocks { n: 800, days: 1761 },
        problems: 4,
        prefix: 1,
        ari_floor: 0.9,
    },
];

impl Workload {
    /// The workload called `name`, if any.
    pub fn find(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload shrunk so that one pipeline run takes a few
    /// milliseconds, for the self-test. Series per class, length, prefix
    /// and generator are kept; so is the ARI floor.
    pub fn tiny(&self) -> Workload {
        let source = match self.source {
            Source::TimeSeries {
                n,
                length,
                classes,
                noise,
            } => {
                let per_class = n / classes;
                let classes = (160 / per_class).max(2);
                Source::TimeSeries {
                    n: classes * per_class,
                    length,
                    classes,
                    noise,
                }
            }
            Source::Stocks { .. } => Source::Stocks { n: 160, days: 400 },
        };
        Workload {
            source,
            problems: 2,
            ..*self
        }
    }
}
