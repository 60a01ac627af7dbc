//! Property-based tests of the GPU simulator's core invariants.

use daris_gpu::{
    ceil_even, sm_quota, Gpu, GpuSpec, KernelDesc, SimDuration, SimTime, StreamId, WorkItem,
    XorShiftRng,
};
use proptest::prelude::*;

fn quiet() -> GpuSpec {
    GpuSpec::rtx_2080_ti().without_interference()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ceil_even always returns an even value that is >= the input.
    #[test]
    fn ceil_even_properties(v in 0.0f64..10_000.0) {
        let c = ceil_even(v);
        prop_assert_eq!(c % 2, 0);
        prop_assert!(f64::from(c) + 1e-9 >= v);
        prop_assert!(f64::from(c) < v + 2.0);
    }

    /// Eq. 9 quotas are positive, never exceed the device, and are even
    /// unless they were clamped to an odd device width.
    #[test]
    fn sm_quota_properties(sm in 2u32..256, os in 1.0f64..8.0, nc in 1u32..12) {
        let q = sm_quota(sm, os, nc);
        prop_assert!(q % 2 == 0 || q == sm.max(2));
        prop_assert!(q >= 2);
        prop_assert!(q <= sm.max(2));
    }

    /// A kernel running alone never finishes faster than its ideal time and
    /// never slower than its parallelism-limited time plus launch overhead.
    #[test]
    fn isolated_kernel_time_bounds(work in 10.0f64..100_000.0, par in 1u32..200) {
        let mut gpu = Gpu::new(quiet());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(s, WorkItem::new(0).with_kernel(KernelDesc::new(work, par))).unwrap();
        let done = gpu.run_to_idle();
        prop_assert_eq!(done.len(), 1);
        let t = done[0].execution_time().as_micros_f64();
        let ideal = work / 68.0 + 5.0;
        let limit = work / f64::from(par.min(68)) + 5.0;
        prop_assert!(t + 1e-3 >= ideal, "t={} ideal={}", t, ideal);
        prop_assert!(t <= limit + 1.0, "t={} limit={}", t, limit);
    }

    /// Work is conserved: total completed work equals the sum of submitted
    /// kernel work (no interference, no jitter).
    #[test]
    fn work_conservation(works in prop::collection::vec(10.0f64..5_000.0, 1..20)) {
        let mut gpu = Gpu::new(quiet());
        let ctx = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(ctx).unwrap();
        let s2 = gpu.add_stream(ctx).unwrap();
        let mut total = 0.0;
        for (i, w) in works.iter().enumerate() {
            total += *w;
            let stream = if i % 2 == 0 { s1 } else { s2 };
            gpu.submit(stream, WorkItem::new(i as u64).with_kernel(KernelDesc::new(*w, 32))).unwrap();
        }
        let done = gpu.run_to_idle();
        prop_assert_eq!(done.len(), works.len());
        prop_assert!((gpu.completed_work() - total).abs() < 1e-3 * total.max(1.0));
    }

    /// More SMs in the context quota never makes an isolated work item slower.
    #[test]
    fn more_quota_never_slower(work in 100.0f64..50_000.0, q1 in 2u32..68, extra in 0u32..66) {
        let q2 = (q1 + extra).min(68);
        let run = |quota: u32| {
            let mut gpu = Gpu::new(quiet());
            let ctx = gpu.add_context(quota).unwrap();
            let s = gpu.add_stream(ctx).unwrap();
            gpu.submit(s, WorkItem::new(0).with_kernel(KernelDesc::new(work, 68))).unwrap();
            gpu.run_to_idle()[0].execution_time().as_micros_f64()
        };
        let t1 = run(q1);
        let t2 = run(q2);
        prop_assert!(t2 <= t1 + 1e-3, "quota {} -> {}, time {} -> {}", q1, q2, t1, t2);
    }

    /// Advancing in arbitrary random split points yields the *identical*
    /// completion stream (same order, same nanosecond timestamps) as one
    /// all-at-once advance: next-event bookkeeping must be insensitive to how
    /// callers slice time.
    #[test]
    fn random_advance_splits_never_change_completions(seed in 0u64..1_000_000, n_items in 1usize..24) {
        let build = || {
            // Jitter + interference on: the hardest setting for exactness.
            let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
            let mut rng = daris_gpu::XorShiftRng::new(seed);
            let mut streams = Vec::new();
            for quota in [34u32, 68] {
                let ctx = gpu.add_context(quota).unwrap();
                streams.push(gpu.add_stream(ctx).unwrap());
                streams.push(gpu.add_stream(ctx).unwrap());
            }
            for tag in 0..n_items as u64 {
                let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
                let mut item = WorkItem::new(tag)
                    .with_kernel(KernelDesc::new(rng.uniform(40.0, 3_000.0), 8 + (rng.next_u64() % 60) as u32));
                if rng.next_u64() % 2 == 0 {
                    item = item.with_kernel(KernelDesc::new(rng.uniform(40.0, 1_000.0), 16));
                }
                if rng.next_u64() % 2 == 0 {
                    item = item.with_h2d_bytes(1 + rng.next_u64() % 100_000);
                }
                gpu.submit(stream, item).unwrap();
            }
            gpu
        };

        // Reference: drain with run_to_idle.
        let mut reference = build();
        let expected = reference.run_to_idle();
        let end = reference.now();

        // Same workload, advanced over random split points.
        let mut split = build();
        let mut split_rng = daris_gpu::XorShiftRng::new(seed ^ 0x5911_77ed);
        let mut got = Vec::new();
        let mut t = SimTime::ZERO;
        while split.pending_items() > 0 {
            t += daris_gpu::SimDuration::from_micros_f64(split_rng.uniform(0.1, 25.0));
            got.extend(split.advance_to(t));
        }
        prop_assert_eq!(&expected, &got, "completion streams must be split-invariant");
        prop_assert!(split.now() >= end);
    }

    /// Completions are never reported before the submission time and the
    /// device clock never runs backwards.
    #[test]
    fn time_monotonicity(count in 1usize..15, work in 50.0f64..2_000.0) {
        let mut gpu = Gpu::new(quiet());
        let ctx = gpu.add_context(34).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        for i in 0..count {
            gpu.submit(s, WorkItem::new(i as u64).with_kernel(KernelDesc::new(work, 16))).unwrap();
        }
        let mut last = SimTime::ZERO;
        let mut step = SimTime::from_micros(10);
        let mut all = Vec::new();
        while gpu.pending_items() > 0 {
            let done = gpu.advance_to(step);
            prop_assert!(gpu.now() >= last);
            last = gpu.now();
            all.extend(done);
            step += daris_gpu::SimDuration::from_micros(10);
        }
        prop_assert_eq!(all.len(), count);
        for c in &all {
            prop_assert!(c.finished_at >= c.started_at);
            prop_assert!(c.started_at >= c.submitted_at);
        }
    }
}

/// Advances `gpu` to its announced next event and asserts a transition
/// fired there. The one exception is the nanosecond rounding tail: a compute
/// due time is rounded to the nearest nanosecond, so when it rounds down the
/// kernel still holds under half a nanosecond of work and completes exactly
/// one nanosecond later. Checks that nothing fires a nanosecond early too.
fn step_to_next_event(gpu: &mut Gpu) {
    let next = gpu.next_event_time().expect("an event is pending");
    let before = gpu.events_processed();
    let just_before = SimTime::from_nanos(next.as_nanos().saturating_sub(1));
    if just_before > gpu.now() {
        gpu.advance_to(just_before);
        assert_eq!(gpu.events_processed(), before, "a transition fired before {}", next);
    }
    gpu.advance_to(next);
    if gpu.events_processed() == before {
        let tail = SimTime::from_nanos(next.as_nanos() + 1);
        assert_eq!(gpu.next_event_time(), Some(tail), "no transition fired at {}", next);
        gpu.advance_to(tail);
        assert!(gpu.events_processed() > before, "no transition fired at {} or {}", next, tail);
    }
}

/// The invariants `next_event_time` keeps at every public boundary.
fn check_next_event(gpu: &Gpu) {
    let next = gpu.next_event_time();
    assert_eq!(next.is_some(), gpu.pending_items() > 0, "next event {:?}", next);
    if let Some(t) = next {
        assert!(t >= gpu.now(), "next event {} before now {}", t, gpu.now());
    }
}

/// One step of a random submit/advance sequence.
enum Op {
    /// Submit a multi-kernel item, some with copies.
    Submit(StreamId, WorkItem),
    /// Advance by a random step (possibly zero).
    Advance(SimDuration),
    /// Step to the announced next event.
    NextEvent,
}

/// A three-context device with two streams per context, jitter and
/// interference on.
fn op_device(seed: u64) -> (Gpu, Vec<StreamId>) {
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti().with_seed(seed));
    let mut streams = Vec::new();
    for quota in [20u32, 34, 68] {
        let ctx = gpu.add_context(quota).unwrap();
        streams.push(gpu.add_stream(ctx).unwrap());
        streams.push(gpu.add_stream(ctx).unwrap());
    }
    (gpu, streams)
}

/// Draws the next op of a random sequence over `streams`.
fn random_op(rng: &mut XorShiftRng, tag: u64, streams: &[StreamId]) -> Op {
    match rng.next_u64() % 4 {
        0 | 1 => {
            let mut item = WorkItem::new(tag);
            for _ in 0..1 + rng.next_u64() % 3 {
                let parallelism = 1 + (rng.next_u64() % 68) as u32;
                item = item.with_kernel(KernelDesc::new(rng.uniform(20.0, 3_000.0), parallelism));
            }
            if rng.next_u64() % 2 == 0 {
                item = item.with_h2d_bytes(1 + rng.next_u64() % 100_000);
            }
            if rng.next_u64() % 3 == 0 {
                item = item.with_d2h_bytes(1 + rng.next_u64() % 50_000);
            }
            let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
            Op::Submit(stream, item)
        }
        2 => Op::Advance(SimDuration::from_micros_f64(rng.uniform(0.0, 30.0))),
        _ => Op::NextEvent,
    }
}

/// Advances `gpu` to `target`, and when that moved the clock, advances to
/// `target` again and asserts the second call changed nothing: the first
/// call's last step left nothing due at `target`, which is why `advance_to`
/// runs no trailing pass there. While tracing, the second call's replan must
/// equal the one the first call repeated in place of that pass.
fn advance_twice(gpu: &mut Gpu, target: SimTime) {
    let moves = target > gpu.now();
    gpu.advance_to(target);
    if !moves {
        return;
    }
    let next = gpu.next_event_time();
    let events = gpu.events_processed();
    let work = gpu.completed_work().to_bits();
    let sample = gpu.utilization_sample();
    let replans = gpu.trace().replans();
    let (recorded, replayed) = (replans.len(), replans.last().copied());
    assert!(gpu.advance_to(target).is_empty(), "a second advance to {target} completed items");
    assert_eq!(gpu.next_event_time(), next);
    assert_eq!(gpu.events_processed(), events);
    assert_eq!(gpu.completed_work().to_bits(), work);
    assert_eq!(gpu.utilization_sample(), sample);
    if gpu.trace().is_enabled() {
        let replans = gpu.trace().replans();
        assert_eq!(replans.len(), recorded + 1, "the second advance recorded no replan");
        assert_eq!(replans.last().copied(), replayed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `next_event_time` is exact over random multi-context submit/advance
    /// sequences with copies and multi-kernel items (jitter and interference
    /// on): never before `now`, present exactly while work is pending, and
    /// advancing to it fires a transition (no phantom events) while stopping
    /// a nanosecond short fires none (no missed ones).
    #[test]
    fn next_event_time_is_exact(seed in 0u64..1_000_000, ops in 8usize..80) {
        let (mut gpu, streams) = op_device(seed);
        let mut rng = XorShiftRng::new(seed ^ 0x0e7e_4a11);
        for tag in 0..ops as u64 {
            match random_op(&mut rng, tag, &streams) {
                Op::Submit(stream, item) => {
                    gpu.submit(stream, item).unwrap();
                }
                Op::Advance(step) => {
                    gpu.advance_to(gpu.now() + step);
                }
                Op::NextEvent => {
                    if gpu.next_event_time().is_some() {
                        step_to_next_event(&mut gpu);
                    }
                }
            }
            check_next_event(&gpu);
        }
        while gpu.next_event_time().is_some() {
            step_to_next_event(&mut gpu);
            check_next_event(&gpu);
        }
        prop_assert_eq!(gpu.pending_items(), 0);
    }

    /// Over the same random sequences, with tracing on for half the seeds,
    /// advancing a second time to where `advance_to` just moved the clock
    /// is a no-op (see `advance_twice`).
    #[test]
    fn repeated_advance_to_the_same_target_changes_nothing(seed in 0u64..1_000_000, ops in 8usize..80) {
        let (mut gpu, streams) = op_device(seed);
        if seed % 2 == 0 {
            gpu.enable_tracing();
        }
        let mut rng = XorShiftRng::new(seed ^ 0x0e7e_4a11);
        for tag in 0..ops as u64 {
            match random_op(&mut rng, tag, &streams) {
                Op::Submit(stream, item) => {
                    gpu.submit(stream, item).unwrap();
                }
                Op::Advance(step) => {
                    let target = gpu.now() + step;
                    advance_twice(&mut gpu, target);
                }
                Op::NextEvent => {
                    if let Some(t) = gpu.next_event_time() {
                        advance_twice(&mut gpu, t);
                    }
                }
            }
        }
        while let Some(t) = gpu.next_event_time() {
            advance_twice(&mut gpu, t);
        }
        prop_assert_eq!(gpu.pending_items(), 0);
    }
}
