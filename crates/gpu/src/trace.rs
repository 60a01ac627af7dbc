//! Execution tracing.
//!
//! Traces record what happened on the device at kernel and work-item
//! granularity. They back the response-time analysis of Fig. 8 and the
//! execution-time/MRET traces of Fig. 9, and are invaluable when debugging
//! scheduler behaviour.

use crate::{ContextId, SimTime, StreamId, WorkItemId};

/// The kind of event recorded in a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A work item was enqueued on a stream.
    ItemSubmitted,
    /// The item's host-to-device copy started.
    CopyInStarted,
    /// The item's device-to-host copy claimed the copy engine.
    CopyOutStarted,
    /// The item's first kernel started launching.
    ExecutionStarted,
    /// A kernel of the item completed.
    KernelCompleted,
    /// The item (including its device-to-host copy) completed.
    ItemCompleted,
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation time of the event.
    pub at: SimTime,
    /// Event kind.
    pub kind: TraceEventKind,
    /// The work item involved.
    pub item: WorkItemId,
    /// Caller tag of the work item.
    pub tag: u64,
    /// Stream on which the item runs.
    pub stream: StreamId,
    /// Context owning the stream.
    pub context: ContextId,
    /// Optional label (kernel/layer name) for kernel-level events.
    pub label: Option<String>,
}

/// One water-filling replan, recorded alongside the item-level events.
///
/// Replans happen whenever the set of computing kernels changes; the
/// utilization value is piecewise-constant between consecutive replans,
/// which is exactly the shape a windowed aggregator integrates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanEvent {
    /// Simulation time of the replan.
    pub at: SimTime,
    /// Number of items computing after the replan.
    pub computing: u32,
    /// Fraction of physical SMs allocated after the replan (0.0–1.0).
    pub utilization: f64,
}

/// An in-memory execution trace.
///
/// Tracing is disabled by default; call [`Trace::enable`] (or
/// [`crate::Gpu::enable_tracing`]) to start recording.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
    replans: Vec<ReplanEvent>,
}

impl Trace {
    /// Creates a disabled trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Starts recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Stops recording (already-recorded events are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether the trace is currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event if tracing is enabled.
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Records a replan if tracing is enabled.
    pub(crate) fn record_replan(&mut self, event: ReplanEvent) {
        if self.enabled {
            self.replans.push(event);
        }
    }

    /// Records the last recorded replan again, if tracing is enabled.
    pub(crate) fn repeat_last_replan(&mut self) {
        if let Some(&last) = self.replans.last().filter(|_| self.enabled) {
            self.replans.push(last);
        }
    }

    /// All recorded events in chronological order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// All recorded replans in chronological order.
    pub fn replans(&self) -> &[ReplanEvent] {
        &self.replans
    }

    /// Removes and returns all recorded events (a telemetry forwarder's
    /// drain; recording stays enabled).
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Removes and returns all recorded replans.
    pub fn take_replans(&mut self) -> Vec<ReplanEvent> {
        std::mem::take(&mut self.replans)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Clears all recorded events and replans.
    pub fn clear(&mut self) {
        self.events.clear();
        self.replans.clear();
    }

    /// Events of a particular kind.
    pub fn of_kind(&self, kind: TraceEventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Events belonging to a particular caller tag.
    pub fn for_tag(&self, tag: u64) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: TraceEventKind, tag: u64, at_us: u64) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_micros(at_us),
            kind,
            item: WorkItemId(tag),
            tag,
            stream: StreamId(0),
            context: ContextId(0),
            label: None,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::new();
        trace.record(event(TraceEventKind::ItemSubmitted, 1, 0));
        assert!(trace.is_empty());
    }

    #[test]
    fn enabled_trace_records_and_filters() {
        let mut trace = Trace::new();
        trace.enable();
        assert!(trace.is_enabled());
        trace.record(event(TraceEventKind::ItemSubmitted, 1, 0));
        trace.record(event(TraceEventKind::ItemCompleted, 1, 10));
        trace.record(event(TraceEventKind::ItemSubmitted, 2, 5));
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.of_kind(TraceEventKind::ItemSubmitted).count(), 2);
        assert_eq!(trace.for_tag(1).count(), 2);
        trace.clear();
        assert!(trace.is_empty());
    }
}
