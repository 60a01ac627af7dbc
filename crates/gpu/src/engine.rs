//! The discrete-event GPU engine.
//!
//! The engine advances simulated time by repeatedly finding the next state
//! transition (a kernel finishing its launch phase, a kernel exhausting its
//! work, a copy completing), applying it, and re-planning SM allocations for
//! everything still running. SM allocation follows a two-level model:
//!
//! 1. **Within a context**: the context's SM quota is water-filled across its
//!    concurrently computing kernels, capped by each kernel's parallelism.
//! 2. **Across contexts**: if the summed allocations of busy contexts exceed
//!    the physical SM count (oversubscription), every allocation is scaled
//!    down proportionally and an [`InterferenceModel`](crate::InterferenceModel)
//!    efficiency factor is applied.
//!
//! Kernel progress is the time-integral of its allocated SMs; a kernel
//! completes when the integral reaches its `work`.
//!
//! # Next event
//!
//! Every in-flight phase carries its *due time*, the instant it ends:
//!
//! * **Launch** and **copy** phases end at a fixed instant set when they
//!   start (`now` plus an integer-nanosecond duration), which never moves.
//! * **Compute** phases end at `now + work_remaining / rate`, which depends
//!   on the floating-point SM rate. Every replan recomputes it for every
//!   computing kernel, rounded to nanoseconds and floored at 1 ns.
//!
//! Every public mutation ends in a replan, which already visits every
//! computing kernel, so it also stores the minimum due time over the copy
//! engine and the running items; [`Gpu::next_event_time`] returns that
//! field. Due times only say *when* to stop: which transitions fire at that
//! instant is decided by scanning the running items in ascending id order,
//! so float sums and RNG draws always happen in the same order (pinned by
//! the golden-trace tests).
//!
//! [`Gpu::advance_to`] ends with its last step, which already ran at the
//! target and left nothing due there, so it runs no trailing transition
//! pass: that pass would fire nothing and replan every rate and due time to
//! the values they already hold. Only a call that does not move the clock
//! runs a pass at `now`, because a submission since the last step may have
//! left a transition due there (a zero-length copy, for instance). While
//! tracing, the skipped pass's replan record is repeated, so the recorded
//! replan stream is the same as if the pass had run.
//!
//! Bookkeeping touches only what is in flight. Items live in a slab indexed
//! by id; ids are handed out monotonically, so the slab spans only the live
//! id range. A sorted `running` list (at most one item per stream) bounds
//! progress application and transition checks, and per-context sorted
//! *computing* lists with dirty flags let `replan` reuse cached
//! water-filling for contexts whose membership did not change. The scratch
//! buffers of the transition scan and the water-fill are reused, so an
//! event allocates nothing. Kernel lists are shared ([`WorkItem`] holds an
//! `Arc`), so a submission copies no kernel descriptions.

use std::collections::VecDeque;

use crate::context::Context;
use crate::kernel::{KernelPhase, WorkItem, WorkItemId};
use crate::stream::Stream;
use crate::trace::{ReplanEvent, Trace, TraceEvent, TraceEventKind};
use crate::{
    ContextId, ContextState, GpuError, GpuSpec, MemoryPool, Result, SimDuration, SimTime, StreamId,
    StreamState, XorShiftRng,
};

/// Work below this many SM-microseconds counts as finished (guards against
/// floating-point residue keeping a kernel alive forever).
const WORK_EPSILON: f64 = 1e-6;

/// Completion notification for a submitted [`WorkItem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Caller-chosen tag from the submitted work item.
    pub tag: u64,
    /// Engine-assigned item id.
    pub item: WorkItemId,
    /// Stream the item ran on.
    pub stream: StreamId,
    /// Context owning that stream.
    pub context: ContextId,
    /// When the item was submitted to the stream.
    pub submitted_at: SimTime,
    /// When the item started occupying device resources (copy-in or first
    /// kernel launch), i.e. when it reached the front of its stream.
    pub started_at: SimTime,
    /// When the item fully completed (after its device-to-host copy).
    pub finished_at: SimTime,
}

impl Completion {
    /// Time from reaching the front of the stream to completion: the
    /// "execution time" that DARIS feeds into its MRET estimator.
    pub fn execution_time(&self) -> SimDuration {
        self.finished_at - self.started_at
    }

    /// Time from submission to completion (includes stream queueing).
    pub fn turnaround(&self) -> SimDuration {
        self.finished_at - self.submitted_at
    }
}

/// A sample of instantaneous device utilization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuUtilizationSample {
    /// Sample time.
    pub at: SimTime,
    /// SMs allocated across all contexts (after contention scaling).
    pub allocated_sms: f64,
    /// `allocated_sms / sm_count`.
    pub fraction: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ItemState {
    /// Behind other items in its stream.
    Queued,
    /// At the front of its stream, waiting for the copy engine.
    PendingCopyIn,
    /// Host-to-device copy in flight.
    CopyingIn,
    /// Executing kernel `kernel_index`.
    Running(KernelPhase),
    /// Waiting for the copy engine for its output transfer.
    PendingCopyOut,
    /// Device-to-host copy in flight.
    CopyingOut,
}

#[derive(Debug, Clone)]
struct ItemInstance {
    tag: u64,
    stream: StreamId,
    context: ContextId,
    spec: WorkItem,
    submitted_at: SimTime,
    started_at: Option<SimTime>,
    state: ItemState,
    kernel_index: usize,
    work_remaining: f64,
    /// SM rate (SMs × efficiency) while computing, as of the last replan;
    /// zero in every other state.
    rate: f64,
    /// When the current launch or compute phase ends; `None` outside those
    /// phases and while computing at a zero rate.
    due: Option<SimTime>,
}

impl ItemInstance {
    fn is_computing(&self) -> bool {
        self.state == ItemState::Running(KernelPhase::Computing)
    }
}

/// Live work items indexed by id: slot `i` holds item `base + i`, or `None`
/// once it finished. Ids are handed out monotonically, so submission appends
/// and finished slots at the front are popped: the slab spans only the live
/// id range.
#[derive(Debug, Default)]
struct ItemSlab {
    base: u64,
    slots: VecDeque<Option<ItemInstance>>,
}

impl ItemSlab {
    fn push(&mut self, item: ItemInstance) -> WorkItemId {
        let id = WorkItemId(self.base + self.slots.len() as u64);
        self.slots.push_back(Some(item));
        id
    }

    fn slot(&self, id: WorkItemId) -> Option<usize> {
        id.0.checked_sub(self.base).map(|i| i as usize)
    }

    fn get(&self, id: WorkItemId) -> Option<&ItemInstance> {
        self.slots.get(self.slot(id)?)?.as_ref()
    }

    fn get_mut(&mut self, id: WorkItemId) -> Option<&mut ItemInstance> {
        let slot = self.slot(id)?;
        self.slots.get_mut(slot)?.as_mut()
    }

    fn remove(&mut self, id: WorkItemId) {
        if let Some(slot) = self.slot(id).and_then(|s| self.slots.get_mut(s)) {
            *slot = None;
        }
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }
}

/// Inserts `id` into an ascending list unless it is already there.
fn insert_sorted(ids: &mut Vec<WorkItemId>, id: WorkItemId) {
    if let Err(pos) = ids.binary_search(&id) {
        ids.insert(pos, id);
    }
}

/// Removes `id` from an ascending list; returns whether it was present.
fn remove_sorted(ids: &mut Vec<WorkItemId>, id: WorkItemId) -> bool {
    match ids.binary_search(&id) {
        Ok(pos) => {
            ids.remove(pos);
            true
        }
        Err(_) => false,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyDirection {
    HostToDevice,
    DeviceToHost,
}

#[derive(Debug, Clone)]
struct ActiveCopy {
    item: WorkItemId,
    direction: CopyDirection,
    due: SimTime,
}

/// Reusable buffers for [`water_fill`] inputs and bookkeeping.
#[derive(Debug, Default)]
struct FillScratch {
    kernels: Vec<(WorkItemId, u32)>,
    unsatisfied: Vec<usize>,
    next_unsatisfied: Vec<usize>,
}

/// The simulated GPU device.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Gpu {
    spec: GpuSpec,
    now: SimTime,
    contexts: Vec<Context>,
    streams: Vec<Stream>,
    items: ItemSlab,
    copy_queue: VecDeque<(WorkItemId, CopyDirection)>,
    active_copy: Option<ActiveCopy>,
    /// Earliest due time of the active copy and the running items, as of
    /// the last replan.
    next_event: Option<SimTime>,
    /// Items currently launching or computing (at most one per stream), in
    /// ascending id order.
    running: Vec<WorkItemId>,
    /// Computing items per context (indexed by context), in ascending id
    /// order, kept incrementally.
    computing: Vec<Vec<WorkItemId>>,
    /// Contexts whose computing membership changed since the last replan.
    ctx_dirty: Vec<bool>,
    /// Cached water-fill allocation per context (valid while not dirty).
    ctx_alloc: Vec<Vec<(WorkItemId, f64)>>,
    /// Snapshot of `running` that a transition pass iterates over.
    transition_scratch: Vec<WorkItemId>,
    fill_scratch: FillScratch,
    memory: MemoryPool,
    trace: Trace,
    rng: XorShiftRng,
    completed_work: f64,
    busy_sm_integral_us: f64,
    pending_count: usize,
    events_processed: u64,
    replans: u64,
}

impl Gpu {
    /// Creates a device from a [`GpuSpec`].
    pub fn new(spec: GpuSpec) -> Self {
        let memory = MemoryPool::new(spec.memory_bytes);
        let rng = XorShiftRng::new(spec.jitter_seed);
        Gpu {
            spec,
            now: SimTime::ZERO,
            contexts: Vec::new(),
            streams: Vec::new(),
            items: ItemSlab::default(),
            copy_queue: VecDeque::new(),
            active_copy: None,
            next_event: None,
            running: Vec::new(),
            computing: Vec::new(),
            ctx_dirty: Vec::new(),
            ctx_alloc: Vec::new(),
            transition_scratch: Vec::new(),
            fill_scratch: FillScratch::default(),
            memory,
            trace: Trace::new(),
            rng,
            completed_work: 0.0,
            busy_sm_integral_us: 0.0,
            pending_count: 0,
            events_processed: 0,
            replans: 0,
        }
    }

    /// Device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Creates an MPS context with an SM quota (clamped to the device width).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::ZeroQuota`] for a zero quota.
    pub fn add_context(&mut self, sm_quota: u32) -> Result<ContextId> {
        if sm_quota == 0 {
            return Err(GpuError::ZeroQuota);
        }
        let quota = sm_quota.min(self.spec.sm_count);
        let id = ContextId(self.contexts.len() as u32);
        self.contexts.push(Context::new(id, quota));
        self.computing.push(Vec::new());
        self.ctx_dirty.push(false);
        self.ctx_alloc.push(Vec::new());
        Ok(id)
    }

    /// Creates a CUDA stream inside `context`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownContext`] for an unknown context.
    pub fn add_stream(&mut self, context: ContextId) -> Result<StreamId> {
        if context.index() >= self.contexts.len() {
            return Err(GpuError::UnknownContext(context));
        }
        let id = StreamId(self.streams.len() as u32);
        self.streams.push(Stream::new(id, context));
        self.contexts[context.index()].streams.push(id);
        Ok(id)
    }

    /// Number of contexts created so far.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Number of streams created so far.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Ids of all contexts in creation order, without allocating.
    pub fn context_ids(&self) -> impl ExactSizeIterator<Item = ContextId> + '_ {
        self.contexts.iter().map(|c| c.id)
    }

    /// Ids of all streams in creation order, without allocating.
    pub fn stream_ids(&self) -> impl ExactSizeIterator<Item = StreamId> + '_ {
        self.streams.iter().map(|s| s.id)
    }

    /// Ids of the streams belonging to `context`, as a borrowed slice.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownContext`] for an unknown context.
    pub fn streams_of(&self, context: ContextId) -> Result<&[StreamId]> {
        self.contexts
            .get(context.index())
            .map(|c| c.streams.as_slice())
            .ok_or(GpuError::UnknownContext(context))
    }

    /// Enables kernel/item tracing.
    pub fn enable_tracing(&mut self) {
        self.trace.enable();
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the recorded trace, so a telemetry forwarder can
    /// drain events incrementally without cloning.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Shared device-memory pool.
    pub fn memory(&self) -> &MemoryPool {
        &self.memory
    }

    /// Mutable access to the device-memory pool (weight loading and the like).
    pub fn memory_mut(&mut self) -> &mut MemoryPool {
        &mut self.memory
    }

    /// Submits a work item to a stream; the item starts when it reaches the
    /// front of that stream's FIFO.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownStream`] for an unknown stream, or a
    /// validation error for an empty/invalid item.
    pub fn submit(&mut self, stream: StreamId, item: WorkItem) -> Result<WorkItemId> {
        item.validate()?;
        let context = self
            .streams
            .get(stream.index())
            .map(|s| s.context)
            .ok_or(GpuError::UnknownStream(stream))?;
        let tag = item.tag;
        let id = self.items.push(ItemInstance {
            tag,
            stream,
            context,
            spec: item,
            submitted_at: self.now,
            started_at: None,
            state: ItemState::Queued,
            kernel_index: 0,
            work_remaining: 0.0,
            rate: 0.0,
            due: None,
        });
        self.streams[stream.index()].queue.push_back(id);
        self.pending_count += 1;
        self.trace.record(TraceEvent {
            at: self.now,
            kind: TraceEventKind::ItemSubmitted,
            item: id,
            tag,
            stream,
            context,
            label: None,
        });
        // If the stream was idle, the new item starts immediately.
        if self.streams[stream.index()].queue.len() == 1 {
            self.activate_front(stream);
        }
        self.replan();
        Ok(id)
    }

    /// Whether `stream` currently has no queued or running work.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownStream`] for an unknown stream.
    pub fn stream_is_idle(&self, stream: StreamId) -> Result<bool> {
        self.streams
            .get(stream.index())
            .map(|s| s.queue.is_empty())
            .ok_or(GpuError::UnknownStream(stream))
    }

    /// Number of work items queued on `stream` (including the running one).
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownStream`] for an unknown stream.
    pub fn stream_depth(&self, stream: StreamId) -> Result<usize> {
        self.streams
            .get(stream.index())
            .map(|s| s.queue.len())
            .ok_or(GpuError::UnknownStream(stream))
    }

    /// Snapshot of a stream's state.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownStream`] for an unknown stream.
    pub fn stream_state(&self, stream: StreamId) -> Result<StreamState> {
        let s = self.streams.get(stream.index()).ok_or(GpuError::UnknownStream(stream))?;
        let busy = s
            .active_item()
            .and_then(|id| self.items.get(id))
            .map(|i| i.state != ItemState::Queued)
            .unwrap_or(false);
        Ok(StreamState { id: s.id, context: s.context, queued_items: s.queue.len(), busy })
    }

    /// Snapshot of a context's state.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownContext`] for an unknown context.
    pub fn context_state(&self, context: ContextId) -> Result<ContextState> {
        let c = self.contexts.get(context.index()).ok_or(GpuError::UnknownContext(context))?;
        let mut busy_streams = 0;
        let mut allocated = 0.0;
        for sid in &c.streams {
            if let Ok(st) = self.stream_state(*sid) {
                if st.busy {
                    busy_streams += 1;
                }
            }
            if let Some(item) = self.streams[sid.index()].active_item() {
                allocated += self.items.get(item).map_or(0.0, |i| i.rate);
            }
        }
        Ok(ContextState {
            id: c.id,
            sm_quota: c.sm_quota,
            stream_count: c.streams.len(),
            busy_streams,
            allocated_sms: allocated,
        })
    }

    /// Number of work items not yet completed.
    pub fn pending_items(&self) -> usize {
        self.pending_count
    }

    /// Total compute work completed so far, in SM-microseconds.
    pub fn completed_work(&self) -> f64 {
        self.completed_work
    }

    /// Number of discrete state transitions fired so far (copy completions,
    /// launch→compute flips, kernel completions). The denominator-independent
    /// "simulated events" figure the perf harness reports as events/sec.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of replan passes run so far: one per submission and one per
    /// step of [`Gpu::advance_to`]. A deterministic measure of the engine's
    /// work that, unlike wall-clock time, a test can pin exactly.
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Average device utilization (busy SM-time divided by `sm_count ×
    /// elapsed time`) since simulation start. Returns 0 before any time has
    /// elapsed.
    pub fn average_utilization(&self) -> f64 {
        let elapsed_us = self.now.as_micros_f64();
        if elapsed_us <= 0.0 {
            return 0.0;
        }
        self.busy_sm_integral_us / (elapsed_us * f64::from(self.spec.sm_count))
    }

    /// Instantaneous utilization sample.
    pub fn utilization_sample(&self) -> GpuUtilizationSample {
        let allocated: f64 = self
            .running
            .iter()
            .filter_map(|id| self.items.get(*id))
            .filter(|item| item.is_computing())
            .map(|item| item.rate)
            .sum();
        GpuUtilizationSample {
            at: self.now,
            allocated_sms: allocated,
            fraction: allocated / f64::from(self.spec.sm_count),
        }
    }

    /// Time of the next internal state transition, if any work is in flight.
    ///
    /// Every public mutation ends in a replan that stores this minimum, so
    /// this is a field read.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.next_event
    }

    /// Advances the simulation to exactly `target`, processing every internal
    /// transition on the way, and returns the work items that completed (in
    /// completion order).
    ///
    /// If `target` is not after [`Gpu::now`], the clock stays where it is,
    /// but transitions already due at `now` still fire: a submission since
    /// the last step may have started a zero-length copy, for instance.
    pub fn advance_to(&mut self, target: SimTime) -> Vec<Completion> {
        let mut completions = Vec::new();
        if self.now >= target {
            self.apply_transitions(&mut completions);
            return completions;
        }
        while self.now < target {
            let step_to = match self.next_event {
                Some(t) if t <= target => t,
                _ => target,
            };
            let dt = step_to - self.now;
            self.apply_progress(dt);
            self.now = step_to;
            self.apply_transitions(&mut completions);
        }
        // The last step ran at `target` and left nothing due there. Another
        // pass would fire nothing and replan to the same values, so only
        // its replan record is repeated.
        self.trace.repeat_last_replan();
        completions
    }

    /// Runs until the device is fully idle and returns all completions.
    pub fn run_to_idle(&mut self) -> Vec<Completion> {
        let mut completions = Vec::new();
        while let Some(t) = self.next_event_time() {
            completions.extend(self.advance_to(t));
        }
        completions
    }

    // ----- internal helpers -------------------------------------------------

    /// Starts the item at the front of `stream` if it is still `Queued`.
    fn activate_front(&mut self, stream: StreamId) {
        let Some(item_id) = self.streams[stream.index()].active_item() else { return };
        let Some(item) = self.items.get_mut(item_id) else { return };
        if item.state != ItemState::Queued {
            return;
        }
        item.started_at = Some(self.now);
        if item.spec.h2d_bytes > 0 {
            item.state = ItemState::PendingCopyIn;
            self.copy_queue.push_back((item_id, CopyDirection::HostToDevice));
            self.trace.record(TraceEvent {
                at: self.now,
                kind: TraceEventKind::CopyInStarted,
                item: item_id,
                tag: item.tag,
                stream,
                context: item.context,
                label: None,
            });
            self.pump_copy_engine();
        } else {
            self.start_kernel(item_id, 0);
        }
    }

    /// Puts kernel `index` of `item_id` into its launch phase.
    fn start_kernel(&mut self, item_id: WorkItemId, index: usize) {
        let jitter = {
            let half = self.spec.interference.work_jitter;
            self.rng.jitter(half)
        };
        let default_launch = self.spec.default_launch_overhead;
        let now = self.now;
        let Some(item) = self.items.get_mut(item_id) else { return };
        // A back-to-back kernel of the same item leaves the computing set.
        let was_computing = item.is_computing();
        let ctx = item.context.index();
        let desc = &item.spec.kernels[index];
        item.kernel_index = index;
        item.due = Some(now + desc.launch_overhead.unwrap_or(default_launch));
        item.work_remaining = desc.work * jitter;
        item.rate = 0.0;
        item.state = ItemState::Running(KernelPhase::Launching);
        if index == 0 && self.trace.is_enabled() {
            self.trace.record(TraceEvent {
                at: now,
                kind: TraceEventKind::ExecutionStarted,
                item: item_id,
                tag: item.tag,
                stream: item.stream,
                context: item.context,
                label: item.spec.kernels[0].label.clone(),
            });
        }
        if was_computing {
            remove_sorted(&mut self.computing[ctx], item_id);
            self.ctx_dirty[ctx] = true;
        }
        insert_sorted(&mut self.running, item_id);
    }

    /// Starts the next queued copy if the engine is idle.
    fn pump_copy_engine(&mut self) {
        if self.active_copy.is_some() {
            return;
        }
        let Some((item_id, direction)) = self.copy_queue.pop_front() else { return };
        let Some(item) = self.items.get_mut(item_id) else { return };
        let bytes = match direction {
            CopyDirection::HostToDevice => item.spec.h2d_bytes,
            CopyDirection::DeviceToHost => item.spec.d2h_bytes,
        };
        let transfer = SimDuration::from_micros_f64(
            bytes as f64 / self.spec.copy_bandwidth_bytes_per_us.max(1e-9),
        );
        let due = self.now + self.spec.copy_latency + transfer;
        item.state = match direction {
            CopyDirection::HostToDevice => ItemState::CopyingIn,
            CopyDirection::DeviceToHost => ItemState::CopyingOut,
        };
        let (tag, stream, context) = (item.tag, item.stream, item.context);
        self.active_copy = Some(ActiveCopy { item: item_id, direction, due });
        if direction == CopyDirection::DeviceToHost {
            self.trace.record(TraceEvent {
                at: self.now,
                kind: TraceEventKind::CopyOutStarted,
                item: item_id,
                tag,
                stream,
                context,
                label: None,
            });
        }
    }

    /// Applies `dt` of compute progress to every computing kernel.
    ///
    /// Only the `running` list (at most one item per stream) is visited;
    /// queued items have no progress to apply. Launch and copy phases need
    /// none: they end at their fixed due time.
    fn apply_progress(&mut self, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        let dt_us = dt.as_micros_f64();
        let mut executed = 0.0;
        for id in &self.running {
            let Some(item) = self.items.get_mut(*id) else { continue };
            if item.is_computing() {
                let done = (item.rate * dt_us).min(item.work_remaining);
                item.work_remaining -= done;
                executed += done;
            }
        }
        self.completed_work += executed;
        self.busy_sm_integral_us += executed;
    }

    /// Fires every transition that is due at the current time, then replans
    /// allocations.
    fn apply_transitions(&mut self, completions: &mut Vec<Completion>) {
        let now = self.now;
        let mut ids = std::mem::take(&mut self.transition_scratch);
        let mut changed = true;
        while changed {
            changed = false;

            // Copy completion.
            if self.active_copy.as_ref().is_some_and(|c| c.due <= now) {
                let copy = self.active_copy.take().expect("checked above");
                changed = true;
                self.events_processed += 1;
                match copy.direction {
                    CopyDirection::HostToDevice => {
                        self.start_kernel(copy.item, 0);
                    }
                    CopyDirection::DeviceToHost => {
                        self.finish_item(copy.item, completions);
                    }
                }
                self.pump_copy_engine();
            }

            // Kernel phase transitions: only running items can transition.
            ids.clear();
            ids.extend_from_slice(&self.running);
            for &id in &ids {
                let Some(item) = self.items.get_mut(id) else { continue };
                match item.state {
                    ItemState::Running(KernelPhase::Launching)
                        if item.due.is_some_and(|due| due <= now) =>
                    {
                        item.state = ItemState::Running(KernelPhase::Computing);
                        item.due = None;
                        let ctx = item.context.index();
                        insert_sorted(&mut self.computing[ctx], id);
                        self.ctx_dirty[ctx] = true;
                        changed = true;
                        self.events_processed += 1;
                    }
                    ItemState::Running(KernelPhase::Computing)
                        if item.work_remaining <= WORK_EPSILON =>
                    {
                        changed = true;
                        self.events_processed += 1;
                        let kernel_index = item.kernel_index;
                        if self.trace.is_enabled() {
                            self.trace.record(TraceEvent {
                                at: now,
                                kind: TraceEventKind::KernelCompleted,
                                item: id,
                                tag: item.tag,
                                stream: item.stream,
                                context: item.context,
                                label: item.spec.kernels[kernel_index].label.clone(),
                            });
                        }
                        if kernel_index + 1 < item.spec.kernels.len() {
                            self.start_kernel(id, kernel_index + 1);
                        } else if item.spec.d2h_bytes > 0 {
                            item.state = ItemState::PendingCopyOut;
                            item.rate = 0.0;
                            item.due = None;
                            let ctx = item.context.index();
                            remove_sorted(&mut self.computing[ctx], id);
                            self.ctx_dirty[ctx] = true;
                            remove_sorted(&mut self.running, id);
                            self.copy_queue.push_back((id, CopyDirection::DeviceToHost));
                            self.pump_copy_engine();
                        } else {
                            self.finish_item(id, completions);
                        }
                    }
                    _ => {}
                }
            }
        }
        self.transition_scratch = ids;
        self.replan();
    }

    /// Marks an item complete, emits its completion, and activates the next
    /// item in its stream.
    fn finish_item(&mut self, item_id: WorkItemId, completions: &mut Vec<Completion>) {
        let Some(item) = self.items.get(item_id) else { return };
        let completion = Completion {
            tag: item.tag,
            item: item_id,
            stream: item.stream,
            context: item.context,
            submitted_at: item.submitted_at,
            started_at: item.started_at.unwrap_or(item.submitted_at),
            finished_at: self.now,
        };
        let stream = item.stream;
        let context = item.context.index();
        self.trace.record(TraceEvent {
            at: self.now,
            kind: TraceEventKind::ItemCompleted,
            item: item_id,
            tag: item.tag,
            stream,
            context: item.context,
            label: None,
        });
        completions.push(completion);
        self.items.remove(item_id);
        remove_sorted(&mut self.running, item_id);
        if remove_sorted(&mut self.computing[context], item_id) {
            self.ctx_dirty[context] = true;
        }
        self.pending_count = self.pending_count.saturating_sub(1);
        // Only the item at the front of its stream can be in flight, so
        // finishing is an O(1) pop — never a scan of the backlog.
        let s = &mut self.streams[stream.index()];
        debug_assert_eq!(s.queue.front(), Some(&item_id), "finished item must be its stream front");
        if s.queue.front() == Some(&item_id) {
            s.queue.pop_front();
        }
        self.activate_front(stream);
    }

    /// Recomputes SM allocation rates and compute due times for every
    /// computing kernel, then the next event time.
    ///
    /// Water-filling is cached per context and only recomputed for contexts
    /// whose computing membership changed since the last replan (`ctx_dirty`).
    /// The cross-context contention scale still applies globally, but that is
    /// a single multiply per computing item.
    fn replan(&mut self) {
        self.replans += 1;
        // Refresh the water-fill cache of dirty contexts.
        for ctx in 0..self.contexts.len() {
            if !self.ctx_dirty[ctx] {
                continue;
            }
            self.ctx_dirty[ctx] = false;
            let FillScratch { kernels, unsatisfied, next_unsatisfied } = &mut self.fill_scratch;
            kernels.clear();
            kernels.extend(self.computing[ctx].iter().map(|&id| {
                let item = self.items.get(id).expect("computing items are live");
                (id, item.spec.kernels[item.kernel_index].parallelism)
            }));
            let quota = f64::from(self.contexts[ctx].sm_quota);
            water_fill(quota, kernels, &mut self.ctx_alloc[ctx], unsatisfied, next_unsatisfied);
        }
        let mut total = 0.0;
        let mut busy_contexts = 0usize;
        for ctx in 0..self.contexts.len() {
            if self.computing[ctx].is_empty() {
                continue;
            }
            busy_contexts += 1;
            for (_, a) in &self.ctx_alloc[ctx] {
                total += *a;
            }
        }
        if busy_contexts == 0 {
            if self.trace.is_enabled() {
                self.trace.record_replan(ReplanEvent {
                    at: self.now,
                    computing: 0,
                    utilization: 0.0,
                });
            }
        } else {
            let sm_count = f64::from(self.spec.sm_count);
            let scale = if total > sm_count { sm_count / total } else { 1.0 };
            let demand_ratio = total / sm_count;
            let efficiency = self.spec.interference.efficiency(busy_contexts, demand_ratio);
            let factor = scale * efficiency;
            if self.trace.is_enabled() {
                let allocated = (total * factor / sm_count).min(1.0);
                self.trace.record_replan(ReplanEvent {
                    at: self.now,
                    computing: busy_contexts as u32,
                    utilization: allocated,
                });
            }
            // Apply the global factor and recompute each compute due time.
            let now = self.now;
            for &(id, alloc) in self.ctx_alloc.iter().flatten() {
                let Some(item) = self.items.get_mut(id) else { continue };
                let rate = alloc * factor;
                item.rate = rate;
                item.due = (rate > 0.0).then(|| {
                    let d = SimDuration::from_micros_f64(item.work_remaining / rate);
                    now + d.max(SimDuration::from_nanos(1))
                });
            }
        }
        let items = &self.items;
        self.next_event = self
            .running
            .iter()
            .filter_map(|id| items.get(*id).and_then(|item| item.due))
            .chain(self.active_copy.as_ref().map(|c| c.due))
            .min();
    }
}

/// Distributes `quota` SMs across kernels into `alloc` (one entry per kernel,
/// same order), capping each kernel at its own parallelism and spreading
/// leftover capacity over the kernels that can still absorb it (classic
/// water-filling). `unsatisfied` and `next_unsatisfied` are scratch space.
fn water_fill(
    quota: f64,
    kernels: &[(WorkItemId, u32)],
    alloc: &mut Vec<(WorkItemId, f64)>,
    unsatisfied: &mut Vec<usize>,
    next_unsatisfied: &mut Vec<usize>,
) {
    alloc.clear();
    alloc.extend(kernels.iter().map(|&(id, _)| (id, 0.0)));
    unsatisfied.clear();
    unsatisfied.extend(0..kernels.len());
    let mut remaining = quota;
    while remaining > 1e-9 && !unsatisfied.is_empty() {
        let share = remaining / unsatisfied.len() as f64;
        next_unsatisfied.clear();
        let mut consumed = 0.0;
        for &i in unsatisfied.iter() {
            let cap = f64::from(kernels[i].1);
            let a = &mut alloc[i].1;
            let want = cap - *a;
            if want <= share + 1e-12 {
                *a = cap;
                consumed += want;
            } else {
                *a += share;
                consumed += share;
                next_unsatisfied.push(i);
            }
        }
        remaining -= consumed;
        // If nobody was saturated this round, the distribution is final.
        if next_unsatisfied.len() == unsatisfied.len() {
            break;
        }
        std::mem::swap(unsatisfied, next_unsatisfied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelDesc;

    fn quiet_spec() -> GpuSpec {
        GpuSpec::rtx_2080_ti().without_interference()
    }

    fn fill(quota: f64, kernels: &[(WorkItemId, u32)]) -> Vec<(WorkItemId, f64)> {
        let mut alloc = Vec::new();
        water_fill(quota, kernels, &mut alloc, &mut Vec::new(), &mut Vec::new());
        alloc
    }

    #[test]
    fn single_kernel_timing_is_exact() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        // 680 SM·µs over 68 SMs = 10 µs of compute + 5 µs launch overhead.
        let item = WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68));
        gpu.submit(s, item).unwrap();
        let done = gpu.run_to_idle();
        assert_eq!(done.len(), 1);
        assert!((done[0].execution_time().as_micros_f64() - 15.0).abs() < 0.01);
    }

    #[test]
    fn narrow_kernel_is_limited_by_its_parallelism() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let item = WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 10));
        gpu.submit(s, item).unwrap();
        let done = gpu.run_to_idle();
        // 680 / 10 = 68 µs + 5 µs launch.
        assert!((done[0].execution_time().as_micros_f64() - 73.0).abs() < 0.01);
    }

    #[test]
    fn quota_limits_kernel_width() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(17).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let item = WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68));
        gpu.submit(s, item).unwrap();
        let done = gpu.run_to_idle();
        // Limited to the context's 17-SM quota: 40 µs + 5 µs launch.
        assert!((done[0].execution_time().as_micros_f64() - 45.0).abs() < 0.01);
    }

    #[test]
    fn kernels_serialize_within_a_stream() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let item = WorkItem::new(1)
            .with_kernel(KernelDesc::new(680.0, 68))
            .with_kernel(KernelDesc::new(680.0, 68));
        gpu.submit(s, item).unwrap();
        let done = gpu.run_to_idle();
        assert!((done[0].execution_time().as_micros_f64() - 30.0).abs() < 0.01);
    }

    #[test]
    fn two_streams_share_the_context_quota() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(ctx).unwrap();
        let s2 = gpu.add_stream(ctx).unwrap();
        // Each kernel could use the whole device alone; together they halve.
        gpu.submit(s1, WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        gpu.submit(s2, WorkItem::new(2).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        let done = gpu.run_to_idle();
        assert_eq!(done.len(), 2);
        for c in &done {
            // 680 / 34 = 20 µs + 5 µs launch.
            assert!((c.execution_time().as_micros_f64() - 25.0).abs() < 0.1, "{c:?}");
        }
    }

    #[test]
    fn narrow_kernels_run_concurrently_without_slowdown() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(ctx).unwrap();
        let s2 = gpu.add_stream(ctx).unwrap();
        gpu.submit(s1, WorkItem::new(1).with_kernel(KernelDesc::new(300.0, 30))).unwrap();
        gpu.submit(s2, WorkItem::new(2).with_kernel(KernelDesc::new(300.0, 30))).unwrap();
        let done = gpu.run_to_idle();
        for c in &done {
            // 30 + 30 SMs fit in 68: each runs at its own width, 10 µs + 5 µs.
            assert!((c.execution_time().as_micros_f64() - 15.0).abs() < 0.1, "{c:?}");
        }
    }

    #[test]
    fn oversubscribed_contexts_are_scaled_proportionally() {
        let mut gpu = Gpu::new(quiet_spec());
        let c1 = gpu.add_context(68).unwrap();
        let c2 = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(c1).unwrap();
        let s2 = gpu.add_stream(c2).unwrap();
        gpu.submit(s1, WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        gpu.submit(s2, WorkItem::new(2).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        let done = gpu.run_to_idle();
        for c in &done {
            // Demand 136 SMs on a 68-SM device: each gets 34 → 20 µs + 5 µs.
            assert!((c.execution_time().as_micros_f64() - 25.0).abs() < 0.1, "{c:?}");
        }
    }

    #[test]
    fn allocated_sms_follow_the_water_fill_and_contention_scale() {
        let mut gpu = Gpu::new(quiet_spec());
        let c1 = gpu.add_context(68).unwrap();
        let c2 = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(c1).unwrap();
        let s2 = gpu.add_stream(c1).unwrap();
        let s3 = gpu.add_stream(c2).unwrap();
        gpu.submit(s1, WorkItem::new(1).with_kernel(KernelDesc::new(6_800.0, 68))).unwrap();
        // The narrow kernel finishes first and then holds its stream through
        // a 9 µs device-to-host copy.
        let narrow =
            WorkItem::new(2).with_kernel(KernelDesc::new(200.0, 20)).with_d2h_bytes(12_000);
        gpu.submit(s2, narrow).unwrap();
        gpu.submit(s3, WorkItem::new(3).with_kernel(KernelDesc::new(6_800.0, 68))).unwrap();

        // Still launching: nothing holds SMs.
        gpu.advance_to(SimTime::from_micros(3));
        assert_eq!(gpu.utilization_sample().allocated_sms, 0.0);
        assert_eq!(gpu.context_state(c1).unwrap().allocated_sms, 0.0);

        // Water-fill gives c1 48 + 20 and c2 68; 136 SMs of demand on a
        // 68-SM device scale everything by one half.
        gpu.advance_to(SimTime::from_micros(6));
        let sample = gpu.utilization_sample();
        assert_eq!(sample.allocated_sms, 68.0);
        assert_eq!(sample.fraction, 1.0);
        assert_eq!(gpu.context_state(c1).unwrap().allocated_sms, 34.0);
        assert_eq!(gpu.context_state(c2).unwrap().allocated_sms, 34.0);

        // The narrow kernel is done (5 + 200/10 µs) and copying out: it
        // holds no SMs, and the wide kernel in c1 takes the whole half.
        gpu.advance_to(SimTime::from_micros(30));
        assert_eq!(gpu.stream_state(s2).unwrap().queued_items, 1);
        assert_eq!(gpu.utilization_sample().allocated_sms, 68.0);
        assert_eq!(gpu.context_state(c1).unwrap().allocated_sms, 34.0);
        assert_eq!(gpu.context_state(c2).unwrap().allocated_sms, 34.0);

        gpu.run_to_idle();
        assert_eq!(gpu.utilization_sample().allocated_sms, 0.0);
        assert_eq!(gpu.context_state(c2).unwrap().allocated_sms, 0.0);
    }

    #[test]
    fn isolated_quotas_waste_capacity_when_one_context_idles() {
        // One busy context with a 34-SM quota on a 68-SM device cannot use the
        // other half even though it is idle (the OS = 1 effect of the paper).
        let mut gpu = Gpu::new(quiet_spec());
        let c1 = gpu.add_context(34).unwrap();
        let _c2 = gpu.add_context(34).unwrap();
        let s1 = gpu.add_stream(c1).unwrap();
        gpu.submit(s1, WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        let done = gpu.run_to_idle();
        assert!((done[0].execution_time().as_micros_f64() - 25.0).abs() < 0.1);
    }

    #[test]
    fn copy_engine_adds_latency_and_serializes() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s1 = gpu.add_stream(ctx).unwrap();
        let s2 = gpu.add_stream(ctx).unwrap();
        // 12_000 bytes at 12_000 bytes/µs = 1 µs + 8 µs fixed latency.
        let mk =
            |tag| WorkItem::new(tag).with_kernel(KernelDesc::new(68.0, 68)).with_h2d_bytes(12_000);
        gpu.submit(s1, mk(1)).unwrap();
        gpu.submit(s2, mk(2)).unwrap();
        let done = gpu.run_to_idle();
        assert_eq!(done.len(), 2);
        let mut times: Vec<f64> = done.iter().map(|c| c.execution_time().as_micros_f64()).collect();
        times.sort_by(f64::total_cmp);
        // First item: 9 µs copy + 5 launch + 1 compute = 15 µs.
        assert!((times[0] - 15.0).abs() < 0.1, "{times:?}");
        // Second item waits for the copy engine: 9 more µs before its copy.
        assert!(times[1] > times[0] + 8.0, "{times:?}");
    }

    #[test]
    fn completions_report_queueing_separately() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(s, WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        gpu.submit(s, WorkItem::new(2).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        let done = gpu.run_to_idle();
        let second = done.iter().find(|c| c.tag == 2).unwrap();
        assert!(second.turnaround() > second.execution_time());
        assert_eq!(second.submitted_at, SimTime::ZERO);
        assert!(second.started_at > SimTime::ZERO);
    }

    #[test]
    fn advance_to_is_incremental() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(s, WorkItem::new(7).with_kernel(KernelDesc::new(680.0, 68))).unwrap();
        let none = gpu.advance_to(SimTime::from_micros(10));
        assert!(none.is_empty());
        assert_eq!(gpu.now(), SimTime::from_micros(10));
        assert_eq!(gpu.pending_items(), 1);
        let done = gpu.advance_to(SimTime::from_micros(20));
        assert_eq!(done.len(), 1);
        assert_eq!(gpu.pending_items(), 0);
        assert_eq!(gpu.now(), SimTime::from_micros(20));
    }

    #[test]
    fn advance_to_now_fires_a_zero_length_copy() {
        // No copy latency and a sub-nanosecond transfer: the copy submitted
        // at t = 0 is due at t = 0, so an advance that does not move the
        // clock must still complete it and start the kernel.
        let mut gpu = Gpu::new(GpuSpec { copy_latency: SimDuration::ZERO, ..quiet_spec() });
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let item = WorkItem::new(1).with_kernel(KernelDesc::new(680.0, 68)).with_h2d_bytes(1);
        gpu.submit(s, item).unwrap();
        assert_eq!(gpu.next_event_time(), Some(SimTime::ZERO));
        assert!(gpu.advance_to(SimTime::ZERO).is_empty());
        assert_eq!(gpu.events_processed(), 1);
        assert!(gpu.next_event_time() > Some(SimTime::ZERO));
    }

    #[test]
    fn utilization_accounting() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(
            s,
            WorkItem::new(1)
                .with_kernel(KernelDesc::new(680.0, 68).with_launch_overhead(SimDuration::ZERO)),
        )
        .unwrap();
        gpu.run_to_idle();
        assert!((gpu.completed_work() - 680.0).abs() < 1e-6);
        // 10 µs fully busy out of 10 µs elapsed.
        assert!((gpu.average_utilization() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tracing_records_lifecycle() {
        let mut gpu = Gpu::new(quiet_spec());
        gpu.enable_tracing();
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        gpu.submit(
            s,
            WorkItem::new(3)
                .with_kernel(KernelDesc::new(68.0, 68))
                .with_kernel(KernelDesc::new(68.0, 68)),
        )
        .unwrap();
        gpu.run_to_idle();
        let trace = gpu.trace();
        assert_eq!(trace.of_kind(TraceEventKind::ItemSubmitted).count(), 1);
        assert_eq!(trace.of_kind(TraceEventKind::KernelCompleted).count(), 2);
        assert_eq!(trace.of_kind(TraceEventKind::ItemCompleted).count(), 1);
    }

    #[test]
    fn errors_for_unknown_handles() {
        let mut gpu = Gpu::new(quiet_spec());
        assert_eq!(gpu.add_stream(ContextId(0)), Err(GpuError::UnknownContext(ContextId(0))));
        assert_eq!(gpu.add_context(0), Err(GpuError::ZeroQuota));
        let item = WorkItem::new(1).with_kernel(KernelDesc::new(1.0, 1));
        assert_eq!(gpu.submit(StreamId(9), item), Err(GpuError::UnknownStream(StreamId(9))));
        assert!(gpu.stream_is_idle(StreamId(0)).is_err());
        assert!(gpu.context_state(ContextId(4)).is_err());
    }

    #[test]
    fn quota_is_clamped_to_device_width() {
        let mut gpu = Gpu::new(quiet_spec());
        let ctx = gpu.add_context(1_000).unwrap();
        assert_eq!(gpu.context_state(ctx).unwrap().sm_quota, 68);
    }

    #[test]
    fn water_fill_respects_caps_and_quota() {
        let ids = [(WorkItemId(0), 10u32), (WorkItemId(1), 60u32), (WorkItemId(2), 60u32)];
        let alloc = fill(68.0, &ids);
        let total: f64 = alloc.iter().map(|(_, a)| a).sum();
        assert!(total <= 68.0 + 1e-9);
        assert_eq!(alloc.iter().map(|(id, _)| *id).collect::<Vec<_>>(), [0, 1, 2].map(WorkItemId));
        assert!((alloc[0].1 - 10.0).abs() < 1e-9);
        assert!((alloc[1].1 - 29.0).abs() < 1e-9);
        assert!((alloc[2].1 - 29.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_with_spare_capacity_gives_everyone_their_cap() {
        let ids = [(WorkItemId(0), 10u32), (WorkItemId(1), 20u32)];
        assert_eq!(fill(68.0, &ids), [(WorkItemId(0), 10.0), (WorkItemId(1), 20.0)]);
    }

    #[test]
    fn jitter_makes_execution_times_vary_but_stay_bounded() {
        let spec = GpuSpec::rtx_2080_ti(); // default 4 % jitter
        let mut gpu = Gpu::new(spec);
        let ctx = gpu.add_context(68).unwrap();
        let s = gpu.add_stream(ctx).unwrap();
        let mut times = Vec::new();
        for tag in 0..20 {
            gpu.submit(s, WorkItem::new(tag).with_kernel(KernelDesc::new(6_800.0, 68))).unwrap();
        }
        for c in gpu.run_to_idle() {
            times.push(c.execution_time().as_micros_f64());
        }
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min, "jitter should produce variation");
        assert!(max < min * 1.15, "variation should stay small: {min} vs {max}");
    }
}
