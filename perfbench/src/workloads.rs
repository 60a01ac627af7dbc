//! The three benchmark workloads. Each builds its inputs from the seed,
//! times set-up and simulation through the public entry points
//! (`Scheduler::run`, `ClusterDispatcher::run`), checks the outputs, and in
//! a traced run also times calls into each layer from outside the crates.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use daris_cluster::{
    place, ClusterConfig, ClusterDispatcher, ClusterOutcome, ClusterSpec, ClusterSummary,
    DeviceSpec, PlacementStrategy,
};
use daris_core::{AfetProfiler, DarisConfig, DarisScheduler, GpuPartition, RunSpec, Scheduler};
use daris_gpu::{GpuSpec, SimDuration, SimTime};
use daris_metrics::PrioritySummary;
use daris_models::{DnnKind, ModelProfile};
use daris_telemetry::{ChromeTraceSink, SinkHandle, WallClockProfiler, CHROME_SCHEMA_VERSION};
use daris_workload::{
    ArrivalStream, BurstyConfig, GenSpec, Priority, ReleaseJitter, TaskSet, Trace,
};

use crate::checks::Checks;
use crate::probe::{traced_run, CoreProbe, Probed, ResponseTap};
use crate::record::Metric;
use crate::stats::{median, Tail};

/// Workload names, as listed in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 3] = ["gpu_mixed_jitter", "fleet64_bursty", "fleet8_observed_replay"];

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jps", "1/s"),
    ("hp_ontime", "ratio"),
    ("lp_ontime", "ratio"),
    ("admit_rate", "ratio"),
    ("hp_p50_ms", "ms"),
    ("hp_p99_ms", "ms"),
    ("lp_p50_ms", "ms"),
    ("lp_p99_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. Every
/// workload prints all of them; a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("gpu.events", "count"),
    ("gpu.ns_per_event", "ns"),
    ("core.advance_to.calls", "count"),
    ("core.advance_to.busy_s", "s"),
    ("core.try_release_job.calls", "count"),
    ("core.try_release_job.busy_s", "s"),
    ("core.dispatch_ready.calls", "count"),
    ("core.dispatch_ready.busy_s", "s"),
    ("core.reject_job.calls", "count"),
    ("core.finish.busy_s", "s"),
    ("core.admit_ratio", "ratio"),
    ("core.backlog.mean", "stages"),
    ("core.backlog.max", "stages"),
    ("core.idle_streams.mean", "streams"),
    ("workload.next_job.calls", "count"),
    ("workload.next_job.busy_s", "s"),
    ("workload.trace_encode_s", "s"),
    ("workload.trace_decode_s", "s"),
    ("workload.trace_bytes", "bytes"),
    ("models.calibrate_s", "s"),
    ("core.afet_s", "s"),
    ("cluster.place_s", "s"),
    ("cluster.new_s", "s"),
    ("cluster.rounds", "count"),
    ("cluster.span_s", "s"),
    ("cluster.retry_s", "s"),
    ("cluster.migration_s", "s"),
    ("cluster.merge_s", "s"),
    ("cluster.unattributed_s", "s"),
    ("cluster.migrations", "count"),
    ("cluster.cluster_admissions", "count"),
    ("cluster.retry_yield", "ratio"),
    ("telemetry.events", "count"),
    ("telemetry.export_s", "s"),
    ("telemetry.export_bytes", "bytes"),
    ("telemetry.bytes_per_event", "bytes"),
    ("telemetry.enabled_overhead", "ratio"),
    ("metrics.hp_samples", "count"),
    ("metrics.lp_samples", "count"),
    ("trace_overhead", "ratio"),
];

/// Command-line options of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed of the arrival generator.
    pub seed: u64,
    /// Host seconds the timed loop runs for.
    pub seconds: f64,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
}

/// What a workload hands back: checks, releases simulated, and metrics.
#[derive(Debug)]
pub struct Outcome {
    /// Checks made over every simulation in the run.
    pub checks: Checks,
    /// Simulated job releases over every simulation in the run.
    pub releases: u64,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// Extra lines for people: sample counts and raw rates.
    pub notes: Vec<String>,
}

/// Runs the workload named in `opts`; `None` for an unknown name.
pub fn run(opts: &Options) -> Option<Outcome> {
    match opts.workload.as_str() {
        "gpu_mixed_jitter" => Some(gpu_mixed_jitter(opts)),
        "fleet64_bursty" => Some(fleet_bursty(opts)),
        "fleet8_observed_replay" => Some(fleet8_observed_replay(opts)),
        _ => None,
    }
}

// ----- shared plumbing -------------------------------------------------------

/// Simulated horizon of the single-GPU workload: long enough that each
/// priority's p99 has more than ten completions above it and the MRET
/// warm-up no longer sets the LP tail.
const GPU_HORIZON: SimTime = SimTime::from_millis(8_000);
/// Release jitter bound of the single-GPU workload.
const GPU_JITTER_MAX: SimDuration = SimDuration::from_millis(3);
/// Simulated horizon of the 64-device fleet.
const FLEET64_HORIZON: SimTime = SimTime::from_millis(100);
/// Simulated horizon of each observed 8-device recording.
const FLEET8_HORIZON: SimTime = SimTime::from_millis(120);
/// Recordings the observed 8-device replay cycles through.
const FLEET8_TRACES: usize = 12;
/// Dispatcher worker threads of the 64-device fleet.
const FLEET64_THREADS: usize = 2;
/// Timed iterations of the first pass of a single-input workload.
const MIN_ITERATIONS: usize = 3;

/// splitmix64: spreads consecutive benchmark seeds over the generator's
/// seed space, with `salt` separating the streams of one workload.
fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Host seconds [`reference_kernel`] takes on the machine the bounds were
/// set on (see `NOTES.md`): the unit the reported host times are scaled to.
const REFERENCE_NOMINAL_S: f64 = 0.035;

/// A fixed, cache-resident host workload owned by the benchmark: sorting
/// the same pseudo-random 32 Ki keys 40 times. Timed between iterations, it
/// measures how fast the host runs at that moment, whatever else shares it.
fn reference_kernel() -> u64 {
    let mut keys: Vec<u64> = Vec::with_capacity(1 << 15);
    let mut checksum = 0u64;
    for round in 0..40u64 {
        keys.clear();
        keys.extend((0..1u64 << 15).map(|i| derive_seed(i, round % 4)));
        keys.sort_unstable();
        checksum ^= std::hint::black_box(&keys)[keys.len() / 2];
    }
    checksum
}

/// Host seconds of [`reference_kernel`] run once on each of `threads`
/// threads at the same time, so the measurement covers every core the
/// workload itself keeps busy.
fn reference_s(threads: usize) -> f64 {
    timed(|| {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(reference_kernel);
            }
        })
    })
    .1
}

/// Decides when a timed loop has run long enough: `seconds` of host time,
/// and at least one pass of `pass` iterations over the inputs however long
/// that takes. Reads the peak RSS after the first iteration, the peak of
/// one simulation from a fresh process, so the reading depends neither on
/// how many iterations the host's speed allowed nor on how the allocator
/// reuses freed memory between them. Times [`reference_kernel`] on the
/// workload's `threads` before every iteration and after the last.
struct Budget {
    until: Instant,
    pass: usize,
    threads: usize,
    done: usize,
    rss_mb: f64,
    reference_s: Vec<f64>,
}

impl Budget {
    fn new(seconds: f64, pass: usize, threads: usize) -> Budget {
        let until = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
        Budget { until, pass, threads, done: 0, rss_mb: 0.0, reference_s: Vec::new() }
    }

    fn more(&mut self) -> bool {
        if self.done == 1 {
            self.rss_mb = peak_rss_mb();
        }
        self.reference_s.push(reference_s(self.threads));
        let more = self.done < self.pass || Instant::now() < self.until;
        self.done += usize::from(more);
        more
    }

    /// Factor that converts iteration `i`'s host seconds to the reference
    /// machine's: nominal over the mean of the reference times around it.
    fn scale(&self, i: usize) -> f64 {
        let around = (self.reference_s[i] + self.reference_s[i + 1]) / 2.0;
        REFERENCE_NOMINAL_S / around
    }

    /// `raw[i]` host seconds of iteration `i`, scaled by [`Budget::scale`].
    fn scaled(&self, raw: &[f64]) -> Vec<f64> {
        raw.iter().enumerate().map(|(i, t)| t * self.scale(i)).collect()
    }
}

/// Process peak resident set (`VmHWM`) in MiB, 0 where unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kib(&status))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Share of accepted jobs that met their deadline.
fn ontime(p: &PrioritySummary) -> f64 {
    if p.accepted == 0 {
        0.0
    } else {
        (p.accepted - p.deadline_misses.min(p.accepted)) as f64 / p.accepted as f64
    }
}

/// The simulated outcome the end-to-end metrics are read from.
struct SimOutcome<'a> {
    jps: f64,
    high: &'a PrioritySummary,
    low: &'a PrioritySummary,
    total: &'a PrioritySummary,
}

/// Host-side results of a timed loop: per-iteration set-up and wall times
/// scaled to the reference machine, their raw medians, and the peak RSS.
struct Host {
    setup: Vec<f64>,
    wall: Vec<f64>,
    raw_setup_s: f64,
    raw_wall_s: f64,
    reference_s: f64,
    rss_mb: f64,
}

impl Budget {
    fn host(&self, setup: &[f64], wall: &[f64]) -> Host {
        Host {
            setup: self.scaled(setup),
            wall: self.scaled(wall),
            raw_setup_s: med(setup.iter().copied()),
            raw_wall_s: med(wall.iter().copied()),
            reference_s: med(self.reference_s.iter().copied()),
            rss_mb: self.rss_mb,
        }
    }
}

fn end_to_end(
    host: &Host,
    sim: &SimOutcome<'_>,
    hp: Option<Tail>,
    lp: Option<Tail>,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let admit = if sim.total.released == 0 {
        0.0
    } else {
        sim.total.accepted as f64 / sim.total.released as f64
    };
    let hp = hp.unwrap_or(Tail { count: 0, p50_ms: 0.0, p99_ms: 0.0 });
    let lp = lp.unwrap_or(Tail { count: 0, p50_ms: 0.0, p99_ms: 0.0 });
    notes.push(format!(
        "samples: {} timed iterations; hp percentiles over {} completions, lp over {}",
        host.wall.len(),
        hp.count,
        lp.count
    ));
    notes.push(format!(
        "unscaled host medians: setup {} s, wall {} s; reference kernel {} s (nominal {} s)",
        host.raw_setup_s, host.raw_wall_s, host.reference_s, REFERENCE_NOMINAL_S
    ));
    notes.push(format!(
        "raw rates: hp_dmr {} lp_dmr {} reject_rate {}",
        sim.high.deadline_miss_rate,
        sim.low.deadline_miss_rate,
        1.0 - admit
    ));
    let values = [
        med(host.setup.iter().copied()),
        med(host.wall.iter().copied()),
        host.rss_mb,
        sim.jps,
        ontime(sim.high),
        ontime(sim.low),
        admit,
        hp.p50_ms,
        hp.p99_ms,
        lp.p50_ms,
        lp.p99_ms,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name: name.to_owned(), value, unit })
        .collect()
}

/// Per-layer values by name; [`PER_LAYER`] order, absent names read 0.
fn per_layer(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_owned(),
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// The per-layer core, GPU and workload figures of a set of traced probes:
/// medians of busy times; counts and simulated levels from the first probe,
/// since they repeat exactly for the same inputs.
fn probe_layers(probes: &[CoreProbe], gpu_events: u64, out: &mut BTreeMap<&'static str, f64>) {
    let Some(first) = probes.first() else { return };
    let busy = |f: fn(&CoreProbe) -> f64| med(probes.iter().map(f));
    let advance_s = busy(|p| p.advance_to.secs);
    out.insert("gpu.events", gpu_events as f64);
    out.insert(
        "gpu.ns_per_event",
        if gpu_events == 0 { 0.0 } else { advance_s * 1e9 / gpu_events as f64 },
    );
    out.insert("core.advance_to.calls", first.advance_to.calls as f64);
    out.insert("core.advance_to.busy_s", advance_s);
    out.insert("core.try_release_job.calls", first.try_release_job.calls as f64);
    out.insert("core.try_release_job.busy_s", busy(|p| p.try_release_job.secs));
    out.insert("core.dispatch_ready.calls", first.dispatch_ready.calls as f64);
    out.insert("core.dispatch_ready.busy_s", busy(|p| p.dispatch_ready.secs));
    out.insert("core.reject_job.calls", first.reject_job.calls as f64);
    out.insert("core.finish.busy_s", busy(|p| p.finish.secs));
    out.insert("core.admit_ratio", first.admit_ratio());
    out.insert("core.backlog.mean", first.backlog.mean());
    out.insert("core.backlog.max", first.backlog.max);
    out.insert("core.idle_streams.mean", first.idle_streams.mean());
    out.insert("workload.next_job.calls", first.next_job.calls as f64);
    out.insert("workload.next_job.busy_s", busy(|p| p.next_job.secs));
}

/// Model calibration as every scheduler build performs it.
fn calibrate(taskset: &TaskSet, config: &DarisConfig) -> BTreeMap<DnnKind, ModelProfile> {
    taskset
        .model_kinds()
        .into_iter()
        .map(|k| {
            (k, ModelProfile::calibrated_for(k, Default::default(), config.calibration_spec()))
        })
        .collect()
}

/// Host seconds of model calibration and the AFET pass for one scheduler.
fn setup_layers(taskset: &TaskSet, config: &DarisConfig) -> (f64, f64) {
    let (profiles, calibrate_s) = timed(|| calibrate(taskset, config));
    let (afet, afet_s) = timed(|| AfetProfiler::profile(taskset, config, &profiles));
    assert!(afet.is_ok(), "AFET profiling failed on a configuration the run itself accepted");
    (calibrate_s, afet_s)
}

fn ratio_minus_one(numerator: &[f64], denominator: &[f64]) -> f64 {
    let d = med(denominator.iter().copied());
    if d > 0.0 {
        med(numerator.iter().copied()) / d - 1.0
    } else {
        0.0
    }
}

// ----- gpu_mixed_jitter -----------------------------------------------------

fn gpu_config() -> DarisConfig {
    DarisConfig::new(GpuPartition::mps(6, 6.0))
}

/// One RTX 2080 Ti, MPS 6×6, the Fig. 7 mixed task set with seeded uniform
/// release jitter: the paper's own single-GPU regime.
fn gpu_mixed_jitter(opts: &Options) -> Outcome {
    let taskset = TaskSet::mixed();
    let jitter =
        ReleaseJitter::Uniform { max: GPU_JITTER_MAX, seed: derive_seed(opts.seed, 0x6A17) };
    let spec = RunSpec::jittered(jitter).until(GPU_HORIZON);
    let config = gpu_config();
    // Jitter can push a release past the horizon, where no run releases it.
    let offered = ArrivalStream::with_jitter(&taskset, GPU_HORIZON, jitter)
        .filter(|job| job.release < GPU_HORIZON)
        .count();

    let untraced = || {
        let (scheduler, setup) = timed(|| DarisScheduler::new(&taskset, config.clone()));
        let mut scheduler = scheduler.expect("the mixed task set fits one GPU");
        let (outcome, wall) = timed(|| scheduler.run(&spec));
        (setup, wall, outcome.expect("a jittered spec with a horizon runs").summary)
    };
    let traced = || {
        let (calibrate_s, afet_s) = setup_layers(&taskset, &config);
        let mut scheduler =
            DarisScheduler::new(&taskset, config.clone()).expect("the mixed task set fits one GPU");
        let mut probe = CoreProbe::default();
        let mut stream = ArrivalStream::with_jitter(&taskset, GPU_HORIZON, jitter);
        let (outcome, wall) =
            timed(|| traced_run(&mut scheduler, &mut probe, &mut stream, GPU_HORIZON));
        let layers = BTreeMap::from([("models.calibrate_s", calibrate_s), ("core.afet_s", afet_s)]);
        let gpu_events = scheduler.events_processed();
        let run = TracedRun { wall, probe, gpu_events, layers, exact: BTreeMap::new() };
        (outcome.summary, run)
    };

    let mut checks = Checks::default();
    let (mut setup, mut wall, mut summaries) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_runs = Vec::new();
    let mut budget = Budget::new(opts.seconds, MIN_ITERATIONS, 1);
    while budget.more() {
        let (s, w, summary) = untraced();
        setup.push(s);
        wall.push(w);
        summaries.push(summary);
        if opts.trace {
            traced_runs.push(traced());
        }
    }
    if traced_runs.is_empty() {
        traced_runs.push(traced());
    }

    let reference = summaries[0].clone();
    checks.expect(summaries.iter().all(|s| *s == reference), || {
        "repeated runs of the same inputs disagree".into()
    });
    for (traced_summary, _) in &traced_runs {
        checks.expect(*traced_summary == reference, || {
            "the traced stepping loop's summary differs from Scheduler::run's".into()
        });
    }
    checks.conserved("gpu_mixed_jitter", &reference.high, &reference.low, &reference.total);
    checks.expect(reference.total.released == offered, || {
        format!("{} releases offered, {} accounted", offered, reference.total.released)
    });
    let hp = Tail::from_stats(&reference.high.response);
    let lp = Tail::from_stats(&reference.low.response);
    for (class, tail) in [("hp", hp), ("lp", lp)] {
        checks.expect(tail.p99_is_supported(), || {
            format!("{class} p99 has {} samples, fewer than 10 beyond it", tail.count)
        });
    }
    let runs = summaries.len() + traced_runs.len();
    let releases = (reference.total.released * runs) as u64;

    let mut notes = Vec::new();
    let metrics = if opts.trace {
        let traced: Vec<&TracedRun> = traced_runs.iter().map(|(_, r)| r).collect();
        let mut values = traced_values(&traced, &wall);
        values.insert("metrics.hp_samples", reference.high.completed as f64);
        values.insert("metrics.lp_samples", reference.low.completed as f64);
        per_layer(&values)
    } else {
        let sim = SimOutcome {
            jps: reference.throughput_jps,
            high: &reference.high,
            low: &reference.low,
            total: &reference.total,
        };
        end_to_end(&budget.host(&setup, &wall), &sim, Some(hp), Some(lp), &mut notes)
    };
    Outcome { checks, releases, metrics, notes }
}

// ----- the fleets ------------------------------------------------------------

fn fleet_config(threads: usize) -> ClusterConfig {
    ClusterConfig { strategy: PlacementStrategy::GreedyBalance, threads, ..Default::default() }
}

/// The per-device scheduler configuration `ClusterDispatcher::new` builds.
fn device_config(spec: &DeviceSpec, reference: &GpuSpec, cluster: &ClusterConfig) -> DarisConfig {
    let mut config = DarisConfig::new(spec.partition)
        .with_gpu(spec.gpu.clone())
        .with_reference_calibration(reference.clone())
        .with_window_size(cluster.window_size)
        .with_ablation(cluster.ablation);
    if cluster.hp_admission {
        config = config.with_hp_admission();
    }
    if let Some(detector) = cluster.adaptive_hpa {
        config = config.with_adaptive_hpa(detector);
    }
    config
}

/// The instrumented fleet: every device scheduler wrapped in [`Probed`]
/// (built as `ClusterDispatcher::new` builds them), the round-phase
/// profiler attached, and the set-up layers timed one by one beforehand.
struct TracedFleet {
    dispatcher: ClusterDispatcher<Probed<DarisScheduler>>,
    core: Arc<Mutex<CoreProbe>>,
    profiler: WallClockProfiler,
    layers: BTreeMap<&'static str, f64>,
}

fn traced_fleet(taskset: &TaskSet, fleet: &ClusterSpec, mut config: ClusterConfig) -> TracedFleet {
    let mut layers = BTreeMap::new();
    let (placement, place_s) =
        timed(|| place(taskset, fleet, config.strategy, &config.reference_gpu));
    let (mut calibrate_s, mut afet_s) = (0.0, 0.0);
    for (plan, device) in placement.plans.iter().zip(fleet.devices()) {
        if !plan.taskset.is_empty() {
            let (c, a) =
                setup_layers(&plan.taskset, &device_config(device, &config.reference_gpu, &config));
            calibrate_s += c;
            afet_s += a;
        }
    }
    let core = Arc::new(Mutex::new(CoreProbe::default()));
    let profiler = WallClockProfiler::new();
    config.profiler = Some(profiler.clone());
    let factory_config = config.clone();
    let shared = Arc::clone(&core);
    let (dispatcher, new_s) = timed(|| {
        ClusterDispatcher::with_factory(taskset, fleet.clone(), config, move |slot| {
            let mut device = device_config(slot.spec, slot.reference, &factory_config);
            if let Some(sink) = slot.sink {
                device = device.with_sink(sink);
            }
            Ok(Probed::new(DarisScheduler::new(slot.taskset, device)?, Arc::clone(&shared)))
        })
    });
    layers.insert("cluster.place_s", place_s);
    layers.insert("models.calibrate_s", calibrate_s);
    layers.insert("core.afet_s", afet_s);
    layers.insert("cluster.new_s", new_s);
    TracedFleet {
        dispatcher: dispatcher.expect("the instrumented fleet builds like the plain one"),
        core,
        profiler,
        layers,
    }
}

/// Cluster-layer figures of one traced fleet run of `wall` host seconds:
/// phase times into `out`, counts into `exact`.
fn cluster_layers(
    profiler: &WallClockProfiler,
    outcome: &ClusterOutcome,
    wall: f64,
    out: &mut BTreeMap<&'static str, f64>,
    exact: &mut BTreeMap<&'static str, f64>,
) {
    let mut profiled = 0.0;
    for (phase, total) in profiler.totals() {
        let secs = total.wall.as_secs_f64();
        profiled += secs;
        let name = match phase.name() {
            "span" => "cluster.span_s",
            "retry" => "cluster.retry_s",
            "migration" => "cluster.migration_s",
            _ => "cluster.merge_s",
        };
        out.insert(name, secs);
    }
    let s = &outcome.summary;
    out.insert("cluster.unattributed_s", wall - profiled);
    exact.insert("cluster.rounds", profiler.rounds() as f64);
    exact.insert("cluster.migrations", s.migrations as f64);
    exact.insert("cluster.cluster_admissions", s.cluster_admissions as f64);
    let attempts = s.cluster_admissions + s.total.rejected;
    exact.insert(
        "cluster.retry_yield",
        if attempts == 0 { 0.0 } else { s.cluster_admissions as f64 / attempts as f64 },
    );
}

/// Per-layer values of a workload's traced runs: medians of host times
/// name by name, exact counts from the first run, the core probes, and
/// `trace_overhead` against the untraced walls of the same run.
fn traced_values(runs: &[&TracedRun], untraced_wall: &[f64]) -> BTreeMap<&'static str, f64> {
    let mut values = BTreeMap::new();
    let Some(first) = runs.first() else { return values };
    for name in first.layers.keys() {
        values.insert(*name, med(runs.iter().filter_map(|r| r.layers.get(name).copied())));
    }
    values.extend(first.exact.clone());
    let probes: Vec<CoreProbe> = runs.iter().map(|r| r.probe.clone()).collect();
    probe_layers(&probes, first.gpu_events, &mut values);
    let traced_wall: Vec<f64> = runs.iter().map(|r| r.wall).collect();
    values.insert("trace_overhead", ratio_minus_one(&traced_wall, untraced_wall));
    values
}

fn check_cluster(checks: &mut Checks, what: &str, outcome: &ClusterOutcome, offered: usize) {
    let s = &outcome.summary;
    checks.conserved(what, &s.high, &s.low, &s.total);
    checks.expect(s.total.released == offered, || {
        format!("{what}: {offered} releases offered, {} accounted", s.total.released)
    });
}

/// What one traced run measured: its wall time, the core probes, the GPU
/// event count, per-run host times by layer, and exact per-run counts.
struct TracedRun {
    wall: f64,
    probe: CoreProbe,
    gpu_events: u64,
    layers: BTreeMap<&'static str, f64>,
    exact: BTreeMap<&'static str, f64>,
}

/// One traced fleet run: the [`TracedFleet`] driven through `spec`.
fn run_traced_fleet(
    taskset: &TaskSet,
    fleet: &ClusterSpec,
    config: ClusterConfig,
    spec: &RunSpec,
) -> (ClusterOutcome, TracedRun) {
    let TracedFleet { mut dispatcher, core, profiler, mut layers } =
        traced_fleet(taskset, fleet, config);
    let (outcome, wall) = timed(|| dispatcher.run(spec));
    let outcome = outcome.expect("the instrumented fleet runs the spec the plain one ran");
    let gpu_events = dispatcher.events_processed();
    drop(dispatcher);
    let mut exact = BTreeMap::new();
    cluster_layers(&profiler, &outcome, wall, &mut layers, &mut exact);
    let probe = core.lock().expect("probe lock poisoned").clone();
    (outcome, TracedRun { wall, probe, gpu_events, layers, exact })
}

fn bursty(seed: u64) -> GenSpec {
    GenSpec::Bursty(BurstyConfig { seed: derive_seed(seed, 0xB425), ..BurstyConfig::default() })
}

/// 64 heterogeneous devices under the seeded bursty generator on two
/// dispatcher threads: the dispatcher's sync rounds, retries, migration and
/// worker pool do the work; telemetry stays off.
fn fleet_bursty(opts: &Options) -> Outcome {
    let devices = 64;
    let taskset = daris_bench::cluster_taskset_scaled(devices);
    let fleet = ClusterSpec::heterogeneous_mix(devices);
    let config = fleet_config(FLEET64_THREADS);
    let gen = bursty(opts.seed);
    let spec = RunSpec::generated(gen).until(FLEET64_HORIZON);
    let offered = gen.generate(&taskset, FLEET64_HORIZON).len();

    let untraced = || {
        let (dispatcher, setup) =
            timed(|| ClusterDispatcher::new(&taskset, fleet.clone(), config.clone()));
        let mut dispatcher = dispatcher.expect("the heterogeneous fleet builds");
        let (outcome, wall) = timed(|| dispatcher.run(&spec));
        (setup, wall, outcome.expect("a generated spec with a horizon runs"))
    };

    let mut checks = Checks::default();
    let (mut setup, mut wall, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_runs = Vec::new();
    let mut budget = Budget::new(opts.seconds, MIN_ITERATIONS, FLEET64_THREADS);
    while budget.more() {
        let (s, w, outcome) = untraced();
        setup.push(s);
        wall.push(w);
        outcomes.push(outcome);
        if opts.trace {
            traced_runs.push(run_traced_fleet(&taskset, &fleet, config.clone(), &spec));
        }
    }
    let reference = outcomes.swap_remove(0);
    let hash = reference.summary_hash();
    checks.expect(outcomes.iter().all(|o| o.summary_hash() == hash), || {
        "repeated runs of the same inputs disagree".into()
    });
    for (traced, _) in &traced_runs {
        checks.expect(traced.summary_hash() == hash, || {
            "the profiled run's summary_hash differs".into()
        });
    }
    check_cluster(&mut checks, "fleet64_bursty", &reference, offered);
    let mut runs = 1 + outcomes.len() + traced_runs.len();

    let mut notes = Vec::new();
    let metrics = if opts.trace {
        let traced: Vec<&TracedRun> = traced_runs.iter().map(|(_, r)| r).collect();
        let mut values = traced_values(&traced, &wall);
        values.insert("metrics.hp_samples", reference.summary.high.completed as f64);
        values.insert("metrics.lp_samples", reference.summary.low.completed as f64);
        per_layer(&values)
    } else {
        // Exact pooled percentiles need every completion, which the fleet
        // summary no longer holds: an observed twin taps them from the
        // telemetry stream, after the timed runs and the RSS reading.
        let tap = ResponseTap::new(None);
        let observed = ClusterConfig { sink: Some(SinkHandle::new(tap.clone())), ..config.clone() };
        let TracedFleet { mut dispatcher, .. } = traced_fleet(&taskset, &fleet, observed);
        let twin = dispatcher.run(&spec).expect("the observed twin runs the same spec");
        runs += 1;
        checks.expect(twin.summary_hash() == hash, || {
            "the observed, profiled twin's summary_hash differs".into()
        });
        let hp = Tail::from_samples(&tap.responses_ms(Priority::High));
        let lp = Tail::from_samples(&tap.responses_ms(Priority::Low));
        check_tails(&mut checks, hp, lp, &reference.summary.high, &reference.summary.low);
        let s = &reference.summary;
        let sim = SimOutcome { jps: s.throughput_jps, high: &s.high, low: &s.low, total: &s.total };
        end_to_end(&budget.host(&setup, &wall), &sim, hp, lp, &mut notes)
    };
    let releases = (reference.summary.total.released * runs) as u64;
    Outcome { checks, releases, metrics, notes }
}

/// Pooled tails must cover exactly the completions the summary counts and
/// leave at least ten samples above each p99.
fn check_tails(
    checks: &mut Checks,
    hp: Option<Tail>,
    lp: Option<Tail>,
    high: &PrioritySummary,
    low: &PrioritySummary,
) {
    for (class, tail, summary) in [("hp", hp, high), ("lp", lp, low)] {
        let count = tail.map_or(0, |t| t.count);
        checks.expect(count == summary.completed, || {
            format!("{class}: {count} completions tapped, {} in the summary", summary.completed)
        });
        checks.expect(tail.is_some_and(|t| t.p99_is_supported()), || {
            format!("{class} p99 has {count} samples, fewer than 10 beyond it")
        });
    }
}

// ----- fleet8_observed_replay -----------------------------------------------

/// The bursty trace of an 8-device fleet, encoded as `daris-trace v1` text:
/// the workload's input. Returns the text and the host seconds encoding took.
fn fleet8_trace_text(taskset: &TaskSet, gen: &GenSpec) -> (String, f64) {
    let trace = gen.generate(taskset, FLEET8_HORIZON);
    timed(|| trace.encode())
}

/// What one observed replay produced.
struct Observed {
    setup: f64,
    wall: f64,
    export_s: f64,
    hash: u64,
    outcome: ClusterOutcome,
    events: usize,
    export_bytes: usize,
    schema_ok: bool,
    tap: ResponseTap,
    traced: Option<TracedRun>,
}

/// Decodes `text`, builds the fleet with a Chrome exporter attached (plain,
/// or instrumented as a [`TracedFleet`]), replays, and exports the JSON.
fn observed_replay(
    taskset: &TaskSet,
    fleet: &ClusterSpec,
    text: &str,
    instrumented: bool,
) -> Observed {
    let chrome = ChromeTraceSink::new();
    let tap = ResponseTap::new(Some(chrome.clone()));
    let config = ClusterConfig { sink: Some(SinkHandle::new(tap.clone())), ..fleet_config(1) };
    let (decoded, decode_s) = timed(|| Trace::decode(text));
    let spec = RunSpec::replay(decoded.expect("the benchmark's own encoding decodes"));
    let (outcome, setup, wall, traced) = if instrumented {
        let (outcome, mut run) = run_traced_fleet(taskset, fleet, config, &spec);
        run.layers.insert("workload.trace_decode_s", decode_s);
        let setup = decode_s + run.layers["cluster.new_s"];
        (outcome, setup, run.wall, Some(run))
    } else {
        let (dispatcher, new_s) = timed(|| ClusterDispatcher::new(taskset, fleet.clone(), config));
        let mut dispatcher = dispatcher.expect("the heterogeneous fleet builds");
        let (outcome, wall) = timed(|| dispatcher.run(&spec));
        (outcome.expect("the trace fits the fleet's task set"), decode_s + new_s, wall, None)
    };
    let (json, export_s) = timed(|| chrome.to_json());
    // Like `wall_s`, a traced replay's wall includes the export.
    let traced = traced.map(|run| TracedRun { wall: run.wall + export_s, ..run });
    let observed = Observed {
        setup,
        wall: wall + export_s,
        export_s,
        hash: outcome.summary_hash(),
        outcome,
        events: chrome.len(),
        export_bytes: json.len(),
        schema_ok: json.starts_with(&format!("{{\"schemaVersion\":\"{CHROME_SCHEMA_VERSION}\"")),
        tap,
        traced,
    };
    drop(json);
    observed
}

/// An 8-device fleet replaying decoded `daris-trace v1` recordings with a
/// Chrome-trace sink attached, then exporting the JSON: the replay source
/// and telemetry emit, merge and export are switched on. The input is
/// [`FLEET8_TRACES`] recordings from one seed, replayed in turn; simulated
/// metrics pool all of them, so one bursty seed cannot swing the tails.
fn fleet8_observed_replay(opts: &Options) -> Outcome {
    let devices = 8;
    let taskset = daris_bench::cluster_taskset_scaled(devices);
    let fleet = ClusterSpec::heterogeneous_mix(devices);
    let base = derive_seed(opts.seed, 0xF1EE_7008);
    let gens: Vec<GenSpec> =
        (0..FLEET8_TRACES as u64).map(|k| bursty(derive_seed(base, k))).collect();
    let texts: Vec<(String, f64)> = gens.iter().map(|g| fleet8_trace_text(&taskset, g)).collect();

    // The unobserved live twin: the same arrivals generated on the fly.
    let live = |k: usize| {
        let mut dispatcher = ClusterDispatcher::new(&taskset, fleet.clone(), fleet_config(1))
            .expect("the heterogeneous fleet builds");
        let spec = RunSpec::generated(gens[k]).until(FLEET8_HORIZON);
        let (outcome, wall) = timed(|| dispatcher.run(&spec));
        (k, wall, outcome.expect("a generated spec with a horizon runs").summary_hash())
    };

    let mut checks = Checks::default();
    let mut runs_e2e: Vec<(usize, Observed)> = Vec::new();
    let (mut traced_runs, mut live_runs) = (Vec::new(), Vec::new());
    let mut budget = Budget::new(opts.seconds, FLEET8_TRACES, 1);
    while budget.more() {
        let k = runs_e2e.len() % FLEET8_TRACES;
        let mut run = observed_replay(&taskset, &fleet, &texts[k].0, false);
        // Keep the tap only where percentiles are read; the rest is memory.
        if runs_e2e.len() >= FLEET8_TRACES {
            run.tap = ResponseTap::new(None);
        }
        runs_e2e.push((k, run));
        if opts.trace {
            traced_runs.push((k, observed_replay(&taskset, &fleet, &texts[k].0, true)));
            live_runs.push(live(k));
        }
    }
    if live_runs.is_empty() {
        live_runs.extend((0..FLEET8_TRACES).map(live));
    }

    // One reference replay per recording: the first pass over them.
    let references: Vec<&Observed> = runs_e2e[..FLEET8_TRACES].iter().map(|(_, r)| r).collect();
    for (k, run) in runs_e2e.iter().chain(&traced_runs) {
        checks.expect(run.hash == references[*k].hash, || {
            format!("repeated or profiled replays of recording {k} disagree")
        });
        checks.expect(run.export_bytes > 0 && run.schema_ok, || {
            format!("the Chrome export is empty or lacks {CHROME_SCHEMA_VERSION}")
        });
    }
    for (k, _, live_hash) in &live_runs {
        checks.expect(*live_hash == references[*k].hash, || {
            format!("recording {k}: the replay's summary_hash differs from the live run's")
        });
    }
    let (mut hp_ms, mut lp_ms) = (Vec::new(), Vec::new());
    for (reference, (text, _)) in references.iter().zip(&texts) {
        let offered = Trace::decode(text).map_or(0, |t| t.len());
        check_cluster(&mut checks, "fleet8_observed_replay", &reference.outcome, offered);
        hp_ms.extend(reference.tap.responses_ms(Priority::High));
        lp_ms.extend(reference.tap.responses_ms(Priority::Low));
    }
    let summaries: Vec<&ClusterSummary> = references.iter().map(|r| &r.outcome.summary).collect();
    let high = PrioritySummary::merged(summaries.iter().map(|s| &s.high));
    let low = PrioritySummary::merged(summaries.iter().map(|s| &s.low));
    let total = PrioritySummary::merged(summaries.iter().map(|s| &s.total));
    let hp = Tail::from_samples(&hp_ms);
    let lp = Tail::from_samples(&lp_ms);
    check_tails(&mut checks, hp, lp, &high, &low);
    let per_pass = total.released as u64;
    let runs = runs_e2e.len() + traced_runs.len() + live_runs.len();
    let releases = per_pass * runs as u64 / FLEET8_TRACES as u64;

    let mut notes = Vec::new();
    let metrics = if opts.trace {
        let traced: Vec<&TracedRun> =
            traced_runs.iter().filter_map(|(_, r)| r.traced.as_ref()).collect();
        let e2e_wall: Vec<f64> = runs_e2e.iter().map(|(_, r)| r.wall).collect();
        let mut values = traced_values(&traced, &e2e_wall);
        let live_wall: Vec<f64> = live_runs.iter().map(|r| r.1).collect();
        let first = references[0];
        values.insert("workload.trace_encode_s", med(texts.iter().map(|t| t.1)));
        values.insert("workload.trace_bytes", med(texts.iter().map(|t| t.0.len() as f64)));
        values.insert("telemetry.events", first.events as f64);
        values.insert("telemetry.export_s", med(runs_e2e.iter().map(|(_, r)| r.export_s)));
        values.insert("telemetry.export_bytes", first.export_bytes as f64);
        values.insert(
            "telemetry.bytes_per_event",
            first.export_bytes as f64 / first.events.max(1) as f64,
        );
        values.insert("telemetry.enabled_overhead", ratio_minus_one(&e2e_wall, &live_wall));
        values.insert("metrics.hp_samples", high.completed as f64);
        values.insert("metrics.lp_samples", low.completed as f64);
        per_layer(&values)
    } else {
        let setup: Vec<f64> = runs_e2e.iter().map(|(_, r)| r.setup).collect();
        let wall: Vec<f64> = runs_e2e.iter().map(|(_, r)| r.wall).collect();
        let sim_secs = FLEET8_HORIZON.duration_since(SimTime::ZERO).as_secs_f64();
        let jps = total.completed_inferences as f64 / (sim_secs * FLEET8_TRACES as f64);
        let sim = SimOutcome { jps, high: &high, low: &low, total: &total };
        end_to_end(&budget.host(&setup, &wall), &sim, hp, lp, &mut notes)
    };
    Outcome { checks, releases, metrics, notes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_spread_and_salted() {
        assert_ne!(derive_seed(1, 7), derive_seed(2, 7));
        assert_ne!(derive_seed(1, 7), derive_seed(1, 8));
        assert_eq!(derive_seed(5, 9), derive_seed(5, 9));
    }

    #[test]
    fn host_times_scale_by_the_reference_kernels_around_them() {
        let budget = Budget {
            until: Instant::now(),
            pass: 2,
            threads: 1,
            done: 2,
            rss_mb: 0.0,
            reference_s: vec![0.07, 0.035, 0.0175],
        };
        // Iteration 0 ran on a host half as fast as nominal, iteration 1 on
        // one a third faster: mean kernel 52.5 ms, then 26.25 ms.
        let scaled = budget.scaled(&[3.0, 1.5]);
        assert!((scaled[0] - 2.0).abs() < 1e-12);
        assert!((scaled[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn per_layer_lists_every_metric_and_zero_fills() {
        let mut values = BTreeMap::new();
        values.insert("gpu.events", 12.0);
        let metrics = per_layer(&values);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[0].value, 12.0);
        assert!(metrics[1..].iter().all(|m| m.value == 0.0));
    }

    #[test]
    fn end_to_end_reads_rates_from_counts() {
        let high = PrioritySummary {
            released: 10,
            accepted: 10,
            deadline_misses: 0,
            ..Default::default()
        };
        let low = PrioritySummary {
            released: 30,
            accepted: 20,
            rejected: 10,
            deadline_misses: 5,
            ..Default::default()
        };
        let total = PrioritySummary {
            released: 40,
            accepted: 30,
            rejected: 10,
            deadline_misses: 5,
            ..Default::default()
        };
        let sim = SimOutcome { jps: 100.0, high: &high, low: &low, total: &total };
        let tail = Some(Tail { count: 2000, p50_ms: 1.5, p99_ms: 9.0 });
        let mut notes = Vec::new();
        let host = Host {
            setup: vec![0.2, 0.1, 0.3],
            wall: vec![2.0, 4.0],
            raw_setup_s: 0.4,
            raw_wall_s: 6.0,
            reference_s: 0.07,
            rss_mb: 64.0,
        };
        let metrics = end_to_end(&host, &sim, tail, tail, &mut notes);
        let value = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(value("setup_s"), Some(0.2));
        assert_eq!(value("wall_s"), Some(3.0));
        assert_eq!(value("hp_ontime"), Some(1.0));
        assert_eq!(value("lp_ontime"), Some(0.75));
        assert_eq!(value("admit_rate"), Some(0.75));
        assert_eq!(value("lp_p99_ms"), Some(9.0));
        assert_eq!(notes.len(), 3);
    }

    #[test]
    fn names_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")), "{workload}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }
}
