//! Golden-trace equivalence tests for the GPU engine.
//!
//! Three seeded workloads were run on the *seed* (scan-everything) engine
//! before the event-calendar refactor, and their full [`Completion`] streams
//! were committed under `tests/golden/`. The tests here replay the same
//! workloads on the current engine and assert the completion streams match
//! **exactly** (nanosecond timestamps included), pinning the refactored
//! engine to the original behaviour.
//!
//! To regenerate (only legitimate after an *intentional* semantic change):
//!
//! ```sh
//! DARIS_REGEN_GOLDEN=1 cargo test -p daris-gpu --test golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use daris_gpu::{Completion, Gpu, GpuSpec, KernelDesc, SimTime, WorkItem, XorShiftRng};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.trace"))
}

fn serialize(completions: &[Completion]) -> String {
    let mut out = String::new();
    out.push_str("# tag item stream context submitted_ns started_ns finished_ns\n");
    for c in completions {
        writeln!(
            out,
            "{} {} {} {} {} {} {}",
            c.tag,
            c.item,
            c.stream,
            c.context,
            c.submitted_at.as_nanos(),
            c.started_at.as_nanos(),
            c.finished_at.as_nanos()
        )
        .expect("writing to a String cannot fail");
    }
    out
}

fn check_or_regen(name: &str, completions: &[Completion]) {
    let path = golden_path(name);
    let actual = serialize(completions);
    if std::env::var_os("DARIS_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &actual).expect("write golden trace");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden trace {path:?} ({e}); regenerate with \
             DARIS_REGEN_GOLDEN=1 cargo test -p daris-gpu --test golden"
        )
    });
    if expected != actual {
        let diverging = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| {
                format!("first divergence at line {i}:\n  golden: {e}\n  actual: {a}")
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: golden {} vs actual {}",
                    expected.lines().count(),
                    actual.lines().count()
                )
            });
        panic!("completion stream diverged from golden trace {name}: {diverging}");
    }
}

/// Engine accumulators at the end of a golden workload. The completion
/// streams pin *when* items finish; these pin how many transitions fired on
/// the way and the exact floating-point work and utilization integrals, so a
/// change to the per-event bookkeeping that happens to preserve completion
/// timestamps still cannot drift unnoticed. `replans` pins how much work
/// the engine did to get there: it falls only when a change removes replan
/// passes on purpose. Recorded alongside the traces; never regenerated by
/// `DARIS_REGEN_GOLDEN`.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    events: u64,
    replans: u64,
    completed_work_bits: u64,
    utilization_bits: u64,
}

fn check_counters(gpu: &Gpu, expected: Counters) {
    let actual = Counters {
        events: gpu.events_processed(),
        replans: gpu.replans(),
        completed_work_bits: gpu.completed_work().to_bits(),
        utilization_bits: gpu.average_utilization().to_bits(),
    };
    assert_eq!(actual, expected, "engine accumulators diverged from the recorded values");
}

/// A pseudo-random work item: 1–3 kernels, varying work/parallelism, and
/// (for some items) host/device copies.
fn random_item(rng: &mut XorShiftRng, tag: u64) -> WorkItem {
    let mut item = WorkItem::new(tag);
    let kernels = 1 + (rng.next_u64() % 3) as usize;
    for _ in 0..kernels {
        let work = rng.uniform(50.0, 4_000.0);
        let parallelism = 4 + (rng.next_u64() % 64) as u32;
        item = item.with_kernel(KernelDesc::new(work, parallelism));
    }
    if rng.next_u64() % 2 == 0 {
        item = item.with_h2d_bytes(1_000 + rng.next_u64() % 200_000);
    }
    if rng.next_u64() % 3 == 0 {
        item = item.with_d2h_bytes(500 + rng.next_u64() % 50_000);
    }
    item
}

/// Workload 1: a t=0 burst of 48 mixed items over 3 quota-limited contexts
/// with the default jitter + interference model, drained with run_to_idle.
#[test]
fn golden_burst_multi_context() {
    let mut rng = XorShiftRng::new(0xB0B5_0001);
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
    let mut streams = Vec::new();
    for _ in 0..3 {
        let ctx = gpu.add_context(34).unwrap();
        for _ in 0..2 {
            streams.push(gpu.add_stream(ctx).unwrap());
        }
    }
    for tag in 0..48u64 {
        let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
        gpu.submit(stream, random_item(&mut rng, tag)).unwrap();
    }
    let done = gpu.run_to_idle();
    assert_eq!(done.len(), 48);
    check_or_regen("burst_multi_context", &done);
    check_counters(
        &gpu,
        Counters {
            events: 231,
            replans: 326,
            completed_work_bits: 0x4108cf9e9b621c40,
            utilization_bits: 0x3fe9f68e6c275c99,
        },
    );
}

/// Workload 2: staggered submissions — batches arrive at random times while
/// earlier work is still in flight, advancing in uneven steps.
#[test]
fn golden_staggered_arrivals() {
    let mut rng = XorShiftRng::new(0xB0B5_0002);
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
    let mut streams = Vec::new();
    for quota in [68u32, 24] {
        let ctx = gpu.add_context(quota).unwrap();
        for _ in 0..3 {
            streams.push(gpu.add_stream(ctx).unwrap());
        }
    }
    let mut all = Vec::new();
    let mut tag = 0u64;
    let mut t = SimTime::ZERO;
    for _ in 0..24 {
        t += daris_gpu::SimDuration::from_micros_f64(rng.uniform(3.0, 120.0));
        all.extend(gpu.advance_to(t));
        let batch = 1 + rng.next_u64() % 4;
        for _ in 0..batch {
            let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
            gpu.submit(stream, random_item(&mut rng, tag)).unwrap();
            tag += 1;
        }
    }
    all.extend(gpu.run_to_idle());
    assert_eq!(all.len(), tag as usize);
    check_or_regen("staggered_arrivals", &all);
    check_counters(
        &gpu,
        Counters {
            events: 324,
            replans: 487,
            completed_work_bits: 0x411116b8dbd91cfc,
            utilization_bits: 0x3fe32bfdd4f4f2f7,
        },
    );
}

/// Workload 3: heavy oversubscription — 4 full-width contexts fighting for
/// the device, drained through many small advance_to steps.
#[test]
fn golden_oversubscribed_small_steps() {
    let mut rng = XorShiftRng::new(0xB0B5_0003);
    let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
    let mut streams = Vec::new();
    for _ in 0..4 {
        let ctx = gpu.add_context(68).unwrap();
        streams.push(gpu.add_stream(ctx).unwrap());
        streams.push(gpu.add_stream(ctx).unwrap());
    }
    for tag in 0..40u64 {
        let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
        gpu.submit(stream, random_item(&mut rng, tag)).unwrap();
    }
    let mut all = Vec::new();
    let mut t = SimTime::ZERO;
    while gpu.pending_items() > 0 {
        t += daris_gpu::SimDuration::from_micros_f64(rng.uniform(0.5, 40.0));
        all.extend(gpu.advance_to(t));
    }
    assert_eq!(all.len(), 40);
    check_or_regen("oversubscribed_small_steps", &all);
    check_counters(
        &gpu,
        Counters {
            events: 210,
            replans: 510,
            completed_work_bits: 0x4104b1db0e3dbc74,
            utilization_bits: 0x3fe15734530706f7,
        },
    );
}

/// FNV-1a over the serialized completion stream: a stable digest for
/// comparing whole runs without committing another fixture.
fn trace_hash(completions: &[Completion]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in serialize(completions).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The engine's per-item state (the item slab, the sorted running and
/// computing lists, the per-item SM rates) lives in id-ordered containers
/// precisely so that two runs of the same workload are byte-identical. Each
/// fresh engine would get fresh (per-process-random) hasher state if that
/// state ever moved into a `HashMap` and iteration order leaked into the
/// results — this repeated-run hash test is the dynamic pin for daris-lint
/// rule D001 (see crates/lint).
#[test]
fn repeated_runs_hash_identically() {
    let run_once = || {
        // Oversubscribed multi-context burst: maximum pressure on the
        // water-filling rates and the copy-engine queue.
        let mut rng = XorShiftRng::new(0xD1CE_0006);
        let mut gpu = Gpu::new(GpuSpec::rtx_2080_ti());
        let mut streams = Vec::new();
        for _ in 0..4 {
            let ctx = gpu.add_context(40).unwrap();
            streams.push(gpu.add_stream(ctx).unwrap());
            streams.push(gpu.add_stream(ctx).unwrap());
        }
        for tag in 0..64u64 {
            let stream = streams[(rng.next_u64() % streams.len() as u64) as usize];
            gpu.submit(stream, random_item(&mut rng, tag)).unwrap();
        }
        let done = gpu.run_to_idle();
        assert_eq!(done.len(), 64);
        trace_hash(&done)
    };
    let first = run_once();
    for rep in 1..5 {
        assert_eq!(run_once(), first, "run {rep} diverged from run 0");
    }
}
