//! Benchmark of the PAR-TDBHT pipeline from input series to cluster
//! labels.
//!
//! An untraced run (`trace = false`) times the public product path,
//! `correlation_matrix_f32 → ParTdbht::run_f32 → cut_to_clusters`, in a
//! pool of all available workers and in a one-worker pool, and reports the
//! end-to-end metrics. A traced run composes the same stages from the
//! single layer functions, records a span around each call (wall and
//! process CPU time) in both pools, and reports the per-layer metrics.
//! Every repetition's output is checked; a failed check is counted, never
//! dropped.
//!
//! A run generates several independent problems of the workload's shape
//! and times rounds over all of them, so that one draw's structure does
//! not set the figures. End-to-end times have the share of CPU time the
//! hypervisor stole during the sample removed (see `Sample::time_s`);
//! span timings are raw.

pub mod adapter;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use adapter::Input;
use trace::{HostTicks, Span, Tracer};
use workloads::Workload;

/// End-to-end metrics (name, unit), reported by an untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("time_s", "s"),
    ("time_1t_s", "s"),
    ("ari", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (name, unit), reported by a traced run. A `_1t_`
/// twin is the same timing in the one-worker pool; `util` is CPU time
/// over wall time × workers; `speedup` is one-worker wall over
/// all-worker wall. `pipeline.*` is the whole traced composition and
/// `trace_overhead` its median over the untraced median, minus one.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("correlation.wall_s", "s"),
    ("correlation.wall_1t_s", "s"),
    ("correlation.cpu_s", "s"),
    ("correlation.cpu_1t_s", "s"),
    ("correlation.util", "ratio"),
    ("correlation.speedup", "ratio"),
    ("correlation.gflops", "GFLOP/s"),
    ("correlation.bytes_out", "B"),
    ("tmfg.wall_s", "s"),
    ("tmfg.wall_1t_s", "s"),
    ("tmfg.cpu_s", "s"),
    ("tmfg.cpu_1t_s", "s"),
    ("tmfg.util", "ratio"),
    ("tmfg.speedup", "ratio"),
    ("tmfg.rounds", "count"),
    ("tmfg.rescans", "count"),
    ("tmfg.conflicts", "count"),
    ("tmfg.fill_rate", "ratio"),
    ("tmfg.edge_weight_sum", "sum"),
    ("direction.wall_s", "s"),
    ("direction.wall_1t_s", "s"),
    ("direction.converging_bubbles", "count"),
    ("apsp.rows_wall_s", "s"),
    ("apsp.rows_wall_1t_s", "s"),
    ("apsp.blocks_wall_s", "s"),
    ("apsp.blocks_wall_1t_s", "s"),
    ("apsp.cpu_s", "s"),
    ("apsp.cpu_1t_s", "s"),
    ("apsp.util", "ratio"),
    ("apsp.speedup", "ratio"),
    ("apsp.source_rows", "count"),
    ("apsp.pairs_computed", "count"),
    ("apsp.pairs_frac", "ratio"),
    ("assignment.wall_s", "s"),
    ("assignment.wall_1t_s", "s"),
    ("hac.wall_s", "s"),
    ("hac.wall_1t_s", "s"),
    ("hac.cpu_s", "s"),
    ("hac.cpu_1t_s", "s"),
    ("hac.util", "ratio"),
    ("hac.speedup", "ratio"),
    ("hac.rounds", "count"),
    ("hac.merges", "count"),
    ("hac.merges_per_round", "ratio"),
    ("cut.wall_s", "s"),
    ("cut.wall_1t_s", "s"),
    ("pipeline.wall_s", "s"),
    ("pipeline.wall_1t_s", "s"),
    ("pipeline.speedup", "ratio"),
    ("trace_overhead", "ratio"),
];

/// The traced layers, in pipeline order; `apsp` is the two APSP spans.
const LAYERS: [&str; 7] = [
    "correlation",
    "tmfg",
    "direction",
    "apsp",
    "assignment",
    "hac",
    "cut",
];

/// The problems are generated at least `SETUP_MIN_REPEATS` times and
/// until `SETUP_MIN_SECONDS` have passed; `setup_s` is the median, so a
/// millisecond-scale generator still gives a steady figure.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Fewest measured rounds per run, however long one takes, so that every
/// median has at least this many samples.
const MIN_ROUNDS: usize = 3;

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time: no new round starts after it has passed.
    pub seconds: f64,
    pub trace: bool,
    /// Workers of the full pool.
    pub threads: usize,
}

/// One run's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Pipeline repetitions run, and how many failed an output check.
    pub attempted: usize,
    pub failed: usize,
    /// Every metric the run reports, by name: (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Human-readable lines: host, sizes, sample counts, layer shares,
    /// failure reasons.
    pub notes: Vec<String>,
    /// Where the traced run wrote its spans.
    pub spans_path: Option<PathBuf>,
}

impl Report {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A value that is not finite (possible only
    /// in a run whose checks failed) is written as `null`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Failure bookkeeping shared by both kinds of run.
#[derive(Debug, Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    reasons: Vec<String>,
}

impl Checks {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            self.reasons.push(format!("FAILED {what}: {reason}"));
        }
    }
}

/// What one problem's repetitions must reproduce: the first repetition's
/// labels and layer counters.
#[derive(Debug, Default, Clone)]
struct Expected {
    labels: Option<Vec<usize>>,
    counters: Option<adapter::Counters>,
}

impl Expected {
    /// Labels must equal the first repetition's, whatever the pool or the
    /// path, and their ARI must reach `floor`. Returns the ARI.
    fn check_labels(&mut self, input: &Input, labels: &[usize], floor: f64) -> Result<f64, String> {
        if self.labels.get_or_insert_with(|| labels.to_vec()) != labels {
            return Err("labels differ from the first repetition's".into());
        }
        let ari = adapter::ari(input, labels);
        if ari < floor {
            return Err(format!("ari {ari} below the floor {floor}"));
        }
        Ok(ari)
    }

    fn check_counters(&mut self, counters: adapter::Counters) -> Result<(), String> {
        if *self.counters.get_or_insert(counters) != counters {
            return Err("layer counters differ from the first traced repetition's".into());
        }
        Ok(())
    }
}

fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let len = values.len();
    values.sum::<f64>() / len as f64
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
}

/// Seed of problem `i` of a run seeded `seed`: distinct for every pair.
fn problem_seed(seed: u64, problems: usize, i: usize) -> u64 {
    seed.wrapping_mul(problems as u64).wrapping_add(i as u64)
}

/// Generates the run's problems repeatedly (see [`SETUP_MIN_REPEATS`]);
/// returns them and the median time to generate all of them, less the
/// share of CPU time stolen over the whole setup (see [`Sample::time_s`]).
fn setup(config: &Config) -> (Vec<Input>, f64) {
    let w = &config.workload;
    let start = Instant::now();
    let ticks = HostTicks::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        let inputs: Vec<Input> = (0..w.problems)
            .map(|i| adapter::generate(w.source, problem_seed(config.seed, w.problems, i)))
            .collect();
        let inputs = std::hint::black_box(inputs);
        walls.push(t.elapsed().as_secs_f64());
        if walls.len() >= SETUP_MIN_REPEATS && start.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS {
            let stolen = HostTicks::now().stolen_since(&ticks);
            return (inputs, median(&walls) * (1.0 - stolen));
        }
    }
}

/// Runs one benchmark run as configured.
pub fn run(config: &Config) -> Report {
    let (inputs, setup_s) = setup(config);
    let pools = [pool(config.threads), pool(1)];
    let w = &config.workload;
    let mut notes = vec![
        format!("host: {}", trace::host_tag(config.threads)),
        format!(
            "workload {} seed {}: {} problems of n={} length={} clusters={}, prefix {}",
            w.name,
            config.seed,
            inputs.len(),
            inputs[0].n(),
            inputs[0].length(),
            inputs[0].clusters,
            w.prefix
        ),
    ];
    let host_start = HostTicks::now();
    let deadline = Instant::now() + Duration::from_secs_f64(config.seconds);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut spans_path = None;
    if config.trace {
        let mut tracer = Tracer::default();
        let rounds = traced_rounds(config, &inputs, &pools, deadline, &mut tracer, &mut checks);
        notes.push(format!(
            "{} rounds, each per problem: untraced run, traced run in {} workers, traced run in 1 worker",
            rounds.untraced.len(),
            config.threads
        ));
        if let Some(counters) = rounds
            .expected
            .iter()
            .map(|e| e.counters)
            .collect::<Option<Vec<_>>>()
        {
            notes.extend(per_layer_metrics(
                tracer.spans(),
                &rounds,
                &counters,
                config.threads,
                &mut metrics,
            ));
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.json", w.name, config.seed));
        match tracer.write_json(&path, &trace::host_tag(config.threads)) {
            Ok(()) => spans_path = Some(path),
            Err(e) => checks.record("span file", Err(format!("{}: {e}", path.display()))),
        }
    } else {
        let (samples, ari) = untraced_rounds(config, &inputs, &pools, deadline, &mut checks);
        notes.push(format!(
            "{} rounds; a sample is one round's mean wall time per problem in one pool",
            samples[0].len()
        ));
        for (name, samples) in ["time_s", "time_1t_s"].into_iter().zip(&samples) {
            let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
            let stolen: Vec<f64> = samples.iter().map(|s| s.stolen).collect();
            let shown: Vec<String> = walls.iter().map(|t| format!("{t:.4}")).collect();
            notes.push(format!(
                "{name}: raw wall median {:.4} s, median stolen share {:.3}; samples {}",
                median(&walls),
                median(&stolen),
                shown.join(" ")
            ));
            metrics.put(
                name,
                median(&samples.iter().map(Sample::time_s).collect::<Vec<_>>()),
            );
        }
        let shown: Vec<String> = ari.iter().map(|a| format!("{a:.4}")).collect();
        notes.push(format!("ari per problem: {}", shown.join(" ")));
        metrics.put("ari", mean(ari.into_iter()));
        metrics.put("setup_s", setup_s);
        let peaks: Vec<f64> = samples.iter().flatten().map(|s| s.peak_rss_mb).collect();
        metrics.put("peak_rss_mb", median(&peaks));
    }
    notes.push(format!(
        "busy CPU time stolen by the hypervisor during the run: {:.1}%",
        100.0 * HostTicks::now().stolen_since(&host_start)
    ));
    notes.extend(checks.reasons);
    Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: metrics.0,
        notes,
        spans_path,
    }
}

/// Reported metrics; names and units come from [`END_TO_END`] and
/// [`PER_LAYER`].
#[derive(Debug, Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn lookup(name: &str) -> Option<(&'static str, &'static str)> {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .copied()
            .find(|&(n, _)| n == name)
    }

    /// Sets a metric the benchmark defines.
    fn put(&mut self, name: &str, value: f64) {
        let (name, unit) = Self::lookup(name).unwrap_or_else(|| panic!("undefined metric {name}"));
        self.0.insert(name, (value, unit));
    }

    /// Sets `name` if the benchmark defines it.
    fn put_if_defined(&mut self, name: &str, value: f64) {
        if Self::lookup(name).is_some() {
            self.put(name, value);
        }
    }
}

/// One sample: a round's mean wall time per problem in one pool, the
/// share of busy CPU time the hypervisor stole meanwhile, and the peak
/// resident memory of the round.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    stolen: f64,
    /// Peak RSS over the round, in MB. Per round rather than per process,
    /// because which thread frees a large buffer decides whether the
    /// allocator keeps it, and a whole-run peak picks up the rare round
    /// where it did.
    peak_rss_mb: f64,
}

impl Sample {
    /// Wall time less the stolen share: what the round would have taken
    /// had the hypervisor not run other guests on this guest's CPUs. On a
    /// shared host this keeps `time_s` and `time_1t_s` from following the
    /// neighbours' load, which moved raw wall medians by 30% between runs.
    fn time_s(&self) -> f64 {
        self.wall_s * (1.0 - self.stolen)
    }
}

/// Untraced rounds: each round runs the product path on every problem in
/// the full pool, then on every problem in the one-worker pool. Returns
/// the samples per pool (full, one worker) and each problem's ARI.
fn untraced_rounds(
    config: &Config,
    inputs: &[Input],
    pools: &[rayon::ThreadPool; 2],
    deadline: Instant,
    checks: &mut Checks,
) -> ([Vec<Sample>; 2], Vec<f64>) {
    let w = &config.workload;
    let mut expected = vec![Expected::default(); inputs.len()];
    let mut ari = vec![f64::NAN; inputs.len()];
    let mut samples = [Vec::new(), Vec::new()];
    while samples[0].len() < MIN_ROUNDS || Instant::now() < deadline {
        for (pool, samples) in pools.iter().zip(samples.iter_mut()) {
            let what = format!("end-to-end run in {} worker(s)", pool.current_num_threads());
            // Without the reset (no write access to clear_refs) the peak
            // is the process's so far, which only ever grows.
            let _ = trace::reset_peak_rss();
            let ticks = HostTicks::now();
            let mut wall = 0.0;
            for (p, input) in inputs.iter().enumerate() {
                let start = Instant::now();
                let out = pool.install(|| adapter::end_to_end(input, w.prefix));
                wall += start.elapsed().as_secs_f64();
                checks.record(
                    &what,
                    out.and_then(|c| {
                        c.check()?;
                        ari[p] = expected[p].check_labels(input, &c.labels, w.ari_floor)?;
                        Ok(())
                    }),
                );
            }
            samples.push(Sample {
                wall_s: wall / inputs.len() as f64,
                stolen: HostTicks::now().stolen_since(&ticks),
                peak_rss_mb: trace::peak_rss_bytes() as f64 / 1e6,
            });
        }
    }
    (samples, ari)
}

/// What the traced rounds measured besides the spans.
#[derive(Debug, Default)]
struct TracedRounds {
    /// Each round's mean untraced end-to-end time per problem in the full
    /// pool (the overhead baseline).
    untraced: Vec<f64>,
    /// Per pool (full, one worker), per round: the span run ids of the
    /// round's traced repetitions, one per problem.
    runs: [Vec<Vec<usize>>; 2],
    expected: Vec<Expected>,
}

/// Traced rounds: each round, for every problem, runs the untraced
/// product path in the full pool and the traced composition in the full
/// and in the one-worker pool. Every repetition gets its own span run id.
fn traced_rounds(
    config: &Config,
    inputs: &[Input],
    pools: &[rayon::ThreadPool; 2],
    deadline: Instant,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> TracedRounds {
    let w = &config.workload;
    let mut out = TracedRounds {
        expected: vec![Expected::default(); inputs.len()],
        ..TracedRounds::default()
    };
    let mut next_run = 0;
    while out.untraced.len() < MIN_ROUNDS || Instant::now() < deadline {
        // `None` is the untraced repetition, `Some(i)` the traced one in
        // pool `i`. The untraced and the traced full-pool repetitions swap
        // places every round, so that neither always runs first on a
        // problem and `trace_overhead` compares like with like.
        let order = if out.untraced.len().is_multiple_of(2) {
            [None, Some(0), Some(1)]
        } else {
            [Some(0), None, Some(1)]
        };
        let mut untraced = 0.0;
        let mut round_runs = [Vec::new(), Vec::new()];
        for (input, expected) in inputs.iter().zip(out.expected.iter_mut()) {
            for step in order {
                let Some(p) = step else {
                    let start = Instant::now();
                    let clustering = pools[0].install(|| adapter::end_to_end(input, w.prefix));
                    untraced += start.elapsed().as_secs_f64();
                    checks.record(
                        "untraced run",
                        clustering.and_then(|c| {
                            c.check()?;
                            expected
                                .check_labels(input, &c.labels, w.ari_floor)
                                .map(drop)
                        }),
                    );
                    continue;
                };
                let pool = &pools[p];
                next_run += 1;
                round_runs[p].push(next_run);
                tracer.set_run(next_run, pool.current_num_threads());
                let root = tracer.begin("pipeline");
                let layered = pool.install(|| adapter::layered(input, w.prefix, tracer));
                tracer.end(root);
                let what = format!("traced run in {} worker(s)", pool.current_num_threads());
                checks.record(
                    &what,
                    layered.and_then(|l| {
                        l.check()?;
                        expected.check_counters(l.counters)?;
                        expected
                            .check_labels(input, &l.labels, w.ari_floor)
                            .map(drop)
                    }),
                );
            }
        }
        out.untraced.push(untraced / inputs.len() as f64);
        for (all, round) in out.runs.iter_mut().zip(round_runs) {
            all.push(round);
        }
    }
    out
}

/// True if span `name` belongs to `layer`: the layer's own span or one of
/// its `layer.part` sub-spans.
fn in_layer(name: &str, layer: &str) -> bool {
    name.strip_prefix(layer)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

/// Median over rounds of the mean per repetition of `value` summed over
/// the matching spans of the round's repetitions.
fn per_round_median(
    spans: &[Span],
    rounds: &[Vec<usize>],
    value: impl Fn(&Span) -> Option<f64>,
) -> f64 {
    let means: Vec<f64> = rounds
        .iter()
        .map(|runs| {
            let total: f64 = spans
                .iter()
                .filter(|s| runs.contains(&s.run))
                .filter_map(&value)
                .sum();
            total / runs.len() as f64
        })
        .collect();
    median(&means)
}

/// Fills the per-layer metrics (timings per problem, counters averaged
/// over problems); returns note lines with each layer's share of the
/// traced pipeline and the dominant layer.
fn per_layer_metrics(
    spans: &[Span],
    rounds: &TracedRounds,
    counters: &[adapter::Counters],
    threads: usize,
    metrics: &mut Metrics,
) -> Vec<String> {
    let [full, one] = &rounds.runs;
    let wall = |rounds: &[Vec<usize>], layer: &str| {
        per_round_median(spans, rounds, |s| {
            in_layer(s.name, layer).then(|| s.wall_s())
        })
    };
    let cpu = |rounds: &[Vec<usize>], layer: &str| {
        per_round_median(spans, rounds, |s| {
            in_layer(s.name, layer).then_some(s.cpu_s)
        })
    };
    let pipeline = [wall(full, "pipeline"), wall(one, "pipeline")];
    let mut shares = Vec::new();
    for layer in LAYERS.into_iter().chain(["pipeline"]) {
        let (w, w1) = (wall(full, layer), wall(one, layer));
        let cpu_full = cpu(full, layer);
        metrics.put_if_defined(&format!("{layer}.wall_s"), w);
        metrics.put_if_defined(&format!("{layer}.wall_1t_s"), w1);
        metrics.put_if_defined(&format!("{layer}.cpu_s"), cpu_full);
        metrics.put_if_defined(&format!("{layer}.cpu_1t_s"), cpu(one, layer));
        metrics.put_if_defined(&format!("{layer}.util"), cpu_full / (w * threads as f64));
        metrics.put_if_defined(&format!("{layer}.speedup"), w1 / w);
        if layer != "pipeline" {
            shares.push((w / pipeline[0], w1 / pipeline[1], layer));
        }
    }
    for part in ["rows", "blocks"] {
        let span = format!("apsp.{part}");
        metrics.put(&format!("apsp.{part}_wall_s"), wall(full, &span));
        metrics.put(&format!("apsp.{part}_wall_1t_s"), wall(one, &span));
    }
    let avg = |field: fn(&adapter::Counters) -> f64| mean(counters.iter().map(field));
    metrics.put(
        "correlation.gflops",
        avg(|c| c.kernel_ops) / wall(full, "correlation") / 1e9,
    );
    metrics.put("correlation.bytes_out", avg(|c| c.kernel_bytes_out as f64));
    metrics.put("tmfg.rounds", avg(|c| c.tmfg_rounds as f64));
    metrics.put("tmfg.rescans", avg(|c| c.tmfg_rescans as f64));
    metrics.put("tmfg.conflicts", avg(|c| c.tmfg_conflicts as f64));
    metrics.put("tmfg.fill_rate", avg(|c| c.tmfg_fill_rate));
    metrics.put("tmfg.edge_weight_sum", avg(|c| c.tmfg_edge_weight_sum));
    metrics.put(
        "direction.converging_bubbles",
        avg(|c| c.converging_bubbles as f64),
    );
    metrics.put("apsp.source_rows", avg(|c| c.apsp_source_rows as f64));
    metrics.put("apsp.pairs_computed", avg(|c| c.apsp_pairs_computed as f64));
    metrics.put("apsp.pairs_frac", avg(|c| c.apsp_pairs_frac));
    metrics.put("hac.rounds", avg(|c| c.hac_rounds as f64));
    metrics.put("hac.merges", avg(|c| c.hac_merges as f64));
    metrics.put(
        "hac.merges_per_round",
        avg(|c| c.hac_merges as f64) / avg(|c| c.hac_rounds as f64),
    );
    metrics.put(
        "trace_overhead",
        pipeline[0] / median(&rounds.untraced) - 1.0,
    );

    shares.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut notes: Vec<String> = shares
        .iter()
        .map(|(s, s1, layer)| {
            format!(
                "share of traced pipeline: {layer:<12} {:5.1}% ({threads} workers) {:5.1}% (1 worker)",
                100.0 * s,
                100.0 * s1
            )
        })
        .collect();
    notes.push(format!("dominant layer: {}", shares[0].2));
    notes
}
