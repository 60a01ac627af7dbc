//! Criterion micro-benchmarks of the telemetry layer on its own: the Chrome
//! trace-event JSON export, and the `MemorySink` record-then-drain path the
//! cluster dispatcher uses for its per-device buffers. Both run over one
//! recorded event stream (two heterogeneous devices, the UNet task set
//! under a seeded burst, 20 simulated milliseconds), so the simulation cost
//! stays out of the measurement.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use daris_cluster::{ClusterConfig, ClusterDispatcher, ClusterSpec, PlacementStrategy};
use daris_gpu::SimTime;
use daris_models::DnnKind;
use daris_telemetry::{ChromeTraceSink, MemorySink, SinkHandle, TelemetryEvent, TelemetrySink};
use daris_workload::{BurstyConfig, GenSpec, TaskSet};

/// Records the event stream of a short 2-device bursty cluster run.
fn recorded_stream() -> Vec<TelemetryEvent> {
    let sink = MemorySink::unbounded();
    let config = ClusterConfig {
        strategy: PlacementStrategy::GreedyBalance,
        sink: Some(SinkHandle::new(sink.clone())),
        ..Default::default()
    };
    let spec = GenSpec::Bursty(BurstyConfig { seed: 0xDAC5_0007, ..Default::default() });
    ClusterDispatcher::new(
        &TaskSet::table2(DnnKind::UNet),
        ClusterSpec::heterogeneous_mix(2),
        config,
    )
    .expect("valid 2-device configuration")
    .run_generated(&spec, SimTime::from_millis(20));
    sink.take_all()
}

fn bench_chrome_export(c: &mut Criterion) {
    let mut chrome = ChromeTraceSink::new();
    chrome.record_batch(&mut recorded_stream());
    c.bench_function(format!("chrome_to_json_{}_events", chrome.len()), |b| {
        b.iter(|| std::hint::black_box(chrome.to_json()))
    });
}

fn bench_memory_sink(c: &mut Criterion) {
    let events = recorded_stream();
    c.bench_function(format!("memory_sink_record_take_all_{}_events", events.len()), |b| {
        b.iter(|| {
            let mut sink = MemorySink::unbounded();
            for ev in &events {
                sink.record(ev);
            }
            std::hint::black_box(sink.take_all())
        })
    });
}

criterion_group! {
    name = telemetry;
    config = Criterion::default().warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2)).sample_size(20);
    targets =
    bench_chrome_export,
    bench_memory_sink
}
criterion_main!(telemetry);
