//! Criterion micro-benchmarks of the scheduler's hot-path primitives: the
//! admission test, the stage priority queue, MRET bookkeeping, virtual
//! deadline computation, offline context population, raw kernel submission
//! on the simulated GPU and one engine step (transitions plus replan) on a
//! full 6×6 device. These quantify the per-decision overhead DARIS adds on
//! top of the GPU work itself.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use daris_core::{
    populate_contexts, virtual_deadlines, AblationFlags, ContextLoad, MretEstimator, ReadyStage,
    StageQueue,
};
use daris_gpu::{Gpu, GpuSpec, KernelDesc, SimDuration, SimTime, WorkItem};
use daris_models::DnnKind;
use daris_workload::{JobId, Priority, TaskId, TaskSet};

fn bench_admission_test(c: &mut Criterion) {
    let mut load = ContextLoad::new(2);
    for i in 0..17u32 {
        load.assign_task(TaskId(i), Priority::High, 0.05);
    }
    for i in 0..30u32 {
        load.activate_job(JobId { task: TaskId(100 + i), release_index: 0 }, Priority::Low, 0.02);
    }
    c.bench_function("admission_test_eq11_12", |b| {
        b.iter(|| std::hint::black_box(load.admits_lp(std::hint::black_box(0.04))))
    });
}

fn bench_stage_queue(c: &mut Criterion) {
    c.bench_function("stage_queue_push_pop_64", |b| {
        b.iter(|| {
            let mut q = StageQueue::new(AblationFlags::full());
            for i in 0..64u32 {
                q.push(ReadyStage {
                    job: JobId { task: TaskId(i), release_index: 0 },
                    stage: (i % 4) as usize,
                    priority: if i % 3 == 0 { Priority::High } else { Priority::Low },
                    is_last_stage: i % 4 == 3,
                    predecessor_missed: i % 5 == 0,
                    edf_deadline: SimTime::from_micros(u64::from(i) * 37),
                });
            }
            while let Some(stage) = q.pop() {
                std::hint::black_box(stage);
            }
        })
    });
}

fn bench_mret_update(c: &mut Criterion) {
    let mut est = MretEstimator::new(5);
    est.seed(TaskId(0), vec![SimDuration::from_millis(1); 4]);
    let mut i = 0u64;
    c.bench_function("mret_record_and_query", |b| {
        b.iter(|| {
            i += 1;
            est.record(TaskId(0), (i % 4) as usize, SimDuration::from_micros(900 + i % 300));
            std::hint::black_box(est.task_mret(TaskId(0)))
        })
    });
}

fn bench_virtual_deadlines(c: &mut Criterion) {
    let mrets = vec![
        SimDuration::from_micros(400),
        SimDuration::from_micros(350),
        SimDuration::from_micros(500),
        SimDuration::from_micros(345),
    ];
    c.bench_function("virtual_deadline_eq8", |b| {
        b.iter(|| std::hint::black_box(virtual_deadlines(&mrets, SimDuration::from_millis(33))))
    });
}

fn bench_offline_population(c: &mut Criterion) {
    let taskset = TaskSet::table2(DnnKind::ResNet18);
    c.bench_function("offline_populate_contexts_alg1", |b| {
        b.iter(|| std::hint::black_box(populate_contexts(taskset.tasks(), 6, |_| 0.08)))
    });
}

fn bench_gpu_submission(c: &mut Criterion) {
    c.bench_function("gpu_submit_and_complete_stage", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
            let ctx = gpu.add_context(68).expect("context");
            let stream = gpu.add_stream(ctx).expect("stream");
            let item = WorkItem::new(0)
                .with_kernels((0..8).map(|_| KernelDesc::new(300.0, 32)))
                .with_h2d_bytes(602_112);
            gpu.submit(stream, item).expect("submit");
            std::hint::black_box(gpu.run_to_idle())
        })
    });
}

/// One `advance_to(next_event_time)` step on an MPS 6×6 RTX 2080 Ti whose
/// 36 streams each run an 8-kernel item: the per-event cost of the engine's
/// transition scan and replan. A stream whose item completes gets a fresh
/// one, so every step sees a full device.
fn bench_gpu_advance_step(c: &mut Criterion) {
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
    let mut streams = Vec::new();
    for _ in 0..6 {
        let ctx = gpu.add_context(24).expect("context");
        for _ in 0..6 {
            streams.push(gpu.add_stream(ctx).expect("stream"));
        }
    }
    let kernels: Arc<[KernelDesc]> =
        (0..8).map(|i| KernelDesc::new(200.0 + 50.0 * f64::from(i), 8 + 4 * i)).collect();
    let item = |tag| WorkItem::new(tag).with_shared_kernels(Arc::clone(&kernels));
    let mut tag = 0u64;
    for &stream in &streams {
        gpu.submit(stream, item(tag)).expect("submit");
        tag += 1;
    }
    c.bench_function("gpu_advance_step_mps6x6", |b| {
        b.iter(|| {
            let next = gpu.next_event_time().expect("every stream is busy");
            for done in gpu.advance_to(next) {
                gpu.submit(done.stream, item(tag)).expect("resubmit");
                tag += 1;
            }
            std::hint::black_box(gpu.now())
        })
    });
}

criterion_group! {
    name = overhead;
    config = Criterion::default().warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2)).sample_size(20);
    targets =
    bench_admission_test,
    bench_stage_queue,
    bench_mret_update,
    bench_virtual_deadlines,
    bench_offline_population,
    bench_gpu_submission,
    bench_gpu_advance_step
}
criterion_main!(overhead);
