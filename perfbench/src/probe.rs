//! Per-layer instrumentation, kept in the benchmark's own files: timed calls
//! into the scheduler's external-driving API, a scheduler wrapper that does
//! the same inside a cluster, and a sink that taps job completions.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use daris_core::{ExperimentOutcome, Scheduler};
use daris_gpu::SimTime;
use daris_telemetry::{ChromeTraceSink, EventKind, TelemetryEvent, TelemetrySink};
use daris_workload::{ArrivalSource, Job, JobId, Priority, TaskId, TaskSet, TaskSpec};

/// Call count and busy host time of one instrumented call site.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Calls made.
    pub calls: u64,
    /// Host seconds spent inside them.
    pub secs: f64,
}

impl Busy {
    /// Runs `f`, charging its host time to this site.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.secs += start.elapsed().as_secs_f64();
        self.calls += 1;
        out
    }

    fn add(&mut self, other: &Busy) {
        self.calls += other.calls;
        self.secs += other.secs;
    }
}

/// Time integral of a sampled level (queue backlog, idle streams) over
/// simulated time, per device, then summed over devices.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Level {
    /// Level × simulated seconds, summed.
    pub area: f64,
    /// Simulated seconds covered, summed.
    pub span: f64,
    /// Largest level seen.
    pub max: f64,
    last: Option<(SimTime, f64)>,
}

impl Level {
    /// Records `value` holding from `at` until the next sample.
    pub fn sample(&mut self, at: SimTime, value: f64) {
        self.close(at);
        self.last = Some((at, value));
        self.max = self.max.max(value);
    }

    /// Charges the open level up to `at`.
    pub fn close(&mut self, at: SimTime) {
        if let Some((since, value)) = self.last {
            let dt = at.duration_since(since).as_secs_f64();
            self.area += value * dt;
            self.span += dt;
            self.last = Some((at, value));
        }
    }

    /// Time-weighted mean level, 0 when nothing was sampled.
    pub fn mean(&self) -> f64 {
        if self.span > 0.0 {
            self.area / self.span
        } else {
            0.0
        }
    }

    fn add(&mut self, other: &Level) {
        self.area += other.area;
        self.span += other.span;
        self.max = self.max.max(other.max);
    }
}

/// Everything measured around the scheduler's stepping calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreProbe {
    /// `advance_to`: the GPU engine plus completion handling.
    pub advance_to: Busy,
    /// `try_release_job`: the admission test.
    pub try_release_job: Busy,
    /// `dispatch_ready`: stage-queue pops onto idle streams.
    pub dispatch_ready: Busy,
    /// `reject_job`: charging refused releases.
    pub reject_job: Busy,
    /// `finish`: final accounting and the metrics summary.
    pub finish: Busy,
    /// Arrival source pulls.
    pub next_job: Busy,
    /// Releases the admission test accepted.
    pub admitted: u64,
    /// `queue_backlog()` after each dispatch.
    pub backlog: Level,
    /// `idle_stream_count()` after each dispatch.
    pub idle_streams: Level,
}

impl CoreProbe {
    /// Adds another device's measurements into this one.
    pub fn merge(&mut self, other: &CoreProbe) {
        for (mine, theirs) in [
            (&mut self.advance_to, &other.advance_to),
            (&mut self.try_release_job, &other.try_release_job),
            (&mut self.dispatch_ready, &other.dispatch_ready),
            (&mut self.reject_job, &other.reject_job),
            (&mut self.finish, &other.finish),
            (&mut self.next_job, &other.next_job),
        ] {
            mine.add(theirs);
        }
        self.admitted += other.admitted;
        self.backlog.add(&other.backlog);
        self.idle_streams.add(&other.idle_streams);
    }

    /// Admitted over attempted releases (0 when none were attempted).
    pub fn admit_ratio(&self) -> f64 {
        if self.try_release_job.calls == 0 {
            0.0
        } else {
            self.admitted as f64 / self.try_release_job.calls as f64
        }
    }

    fn advance<S: Scheduler + ?Sized>(&mut self, s: &mut S, target: SimTime) {
        self.advance_to.time(|| s.advance_to(target));
    }

    fn release<S: Scheduler + ?Sized>(&mut self, s: &mut S, job: Job) -> bool {
        let admitted = self.try_release_job.time(|| s.try_release_job(job));
        self.admitted += u64::from(admitted);
        admitted
    }

    fn dispatch<S: Scheduler + ?Sized>(&mut self, s: &mut S) {
        self.dispatch_ready.time(|| s.dispatch_ready());
        let now = s.now();
        self.backlog.sample(now, s.queue_backlog() as f64);
        self.idle_streams.sample(now, s.idle_stream_count() as f64);
    }

    fn finish_at<S: Scheduler + ?Sized>(
        &mut self,
        s: &mut S,
        horizon: SimTime,
    ) -> ExperimentOutcome {
        let outcome = self.finish.time(|| s.finish(horizon));
        self.backlog.close(horizon);
        self.idle_streams.close(horizon);
        outcome
    }
}

/// The canonical event loop of `Scheduler::run_span` — releases and device
/// events in exact time order — issued call by call with each call timed.
/// Same calls in the same order, so the outcome is unchanged.
pub fn traced_span<S: Scheduler + ?Sized>(
    s: &mut S,
    probe: &mut CoreProbe,
    arrivals: &mut dyn ArrivalSource,
    until: SimTime,
    rejected: &mut Vec<Job>,
) {
    loop {
        let next_release = arrivals.next_release().filter(|r| *r < until);
        let device_next = s.next_event_time().filter(|t| *t < until);
        let step_to = match (next_release, device_next) {
            (Some(r), Some(g)) => r.min(g),
            (Some(r), None) => r,
            (None, Some(g)) => g,
            (None, None) => break,
        };
        probe.advance(s, step_to);
        while arrivals.next_release().is_some_and(|r| r <= s.now()) {
            let job =
                probe.next_job.time(|| arrivals.next_job()).expect("a pending release was peeked");
            if !probe.release(s, job) {
                rejected.push(job);
            }
        }
        probe.dispatch(s);
    }
}

/// `Scheduler::run_with_source` issued call by call with each call timed:
/// the traced twin of a standalone run.
pub fn traced_run<S: Scheduler + ?Sized>(
    s: &mut S,
    probe: &mut CoreProbe,
    arrivals: &mut dyn ArrivalSource,
    horizon: SimTime,
) -> ExperimentOutcome {
    let mut rejected = Vec::new();
    traced_span(s, probe, arrivals, horizon, &mut rejected);
    for job in &rejected {
        probe.reject_job.time(|| s.reject_job(job));
    }
    probe.finish_at(s, horizon)
}

/// A scheduler that times every stepping call of the one it wraps, for use
/// as a cluster device. Each device measures privately and adds its
/// measurements into `shared` when dropped, so worker threads never contend.
#[derive(Debug)]
pub struct Probed<S> {
    inner: S,
    probe: CoreProbe,
    shared: Arc<Mutex<CoreProbe>>,
}

impl<S> Probed<S> {
    /// Wraps `inner`, reporting into `shared`.
    pub fn new(inner: S, shared: Arc<Mutex<CoreProbe>>) -> Self {
        Probed { inner, probe: CoreProbe::default(), shared }
    }
}

impl<S> Drop for Probed<S> {
    fn drop(&mut self) {
        // A poisoned lock means another device panicked; that panic is
        // already propagating, so this device's numbers are moot.
        if let Ok(mut shared) = self.shared.lock() {
            shared.merge(&self.probe);
        }
    }
}

impl<S: Scheduler> Scheduler for Probed<S> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn next_event_time(&self) -> Option<SimTime> {
        self.inner.next_event_time()
    }
    fn advance_to(&mut self, target: SimTime) {
        self.probe.advance(&mut self.inner, target);
    }
    fn dispatch_ready(&mut self) {
        self.probe.dispatch(&mut self.inner);
    }
    fn try_release_job(&mut self, job: Job) -> bool {
        self.probe.release(&mut self.inner, job)
    }
    fn reject_job(&mut self, job: &Job) {
        let inner = &mut self.inner;
        self.probe.reject_job.time(|| inner.reject_job(job));
    }
    fn would_admit(&self, task: TaskId, priority: Priority) -> bool {
        self.inner.would_admit(task, priority)
    }
    fn adopt_task(&mut self, task: &TaskSpec) -> daris_core::Result<TaskId> {
        self.inner.adopt_task(task)
    }
    fn withdraw_queued_job(&mut self, job: JobId) -> Option<Job> {
        self.inner.withdraw_queued_job(job)
    }
    fn migratable_jobs(&self) -> Vec<JobId> {
        self.inner.migratable_jobs()
    }
    fn queue_backlog(&self) -> usize {
        self.inner.queue_backlog()
    }
    fn idle_stream_count(&self) -> usize {
        self.inner.idle_stream_count()
    }
    fn active_load_fraction(&self) -> f64 {
        self.inner.active_load_fraction()
    }
    fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }
    fn taskset(&self) -> &TaskSet {
        self.inner.taskset()
    }
    fn finish(&mut self, horizon: SimTime) -> ExperimentOutcome {
        self.probe.finish_at(&mut self.inner, horizon)
    }
    fn run_span(
        &mut self,
        arrivals: &mut dyn ArrivalSource,
        until: SimTime,
        rejected: &mut Vec<Job>,
    ) {
        traced_span(&mut self.inner, &mut self.probe, arrivals, until, rejected);
    }
}

/// A telemetry sink that keeps every job's response time, pooled over all
/// devices, and forwards the stream to an optional Chrome exporter.
#[derive(Debug, Clone, Default)]
pub struct ResponseTap {
    chrome: Option<ChromeTraceSink>,
    responses: Arc<Mutex<Vec<(Priority, f64)>>>,
}

impl ResponseTap {
    /// A tap that forwards to `chrome` when given.
    pub fn new(chrome: Option<ChromeTraceSink>) -> Self {
        ResponseTap { chrome, responses: Arc::default() }
    }

    /// Response times of completed jobs of `priority`, in simulated ms.
    pub fn responses_ms(&self, priority: Priority) -> Vec<f64> {
        let responses = self.responses.lock().expect("response tap lock poisoned");
        responses.iter().filter(|(p, _)| *p == priority).map(|(_, ms)| *ms).collect()
    }

    fn tap(&self, event: &TelemetryEvent) {
        if let EventKind::JobCompleted { priority, response, .. } = &event.kind {
            let mut responses = self.responses.lock().expect("response tap lock poisoned");
            responses.push((*priority, response.as_millis_f64()));
        }
    }
}

impl TelemetrySink for ResponseTap {
    fn record(&mut self, event: &TelemetryEvent) {
        self.tap(event);
        if let Some(chrome) = &mut self.chrome {
            chrome.record(event);
        }
    }

    fn record_batch(&mut self, events: &mut Vec<TelemetryEvent>) {
        for event in events.iter() {
            self.tap(event);
        }
        match &mut self.chrome {
            Some(chrome) => chrome.record_batch(events),
            None => events.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daris_gpu::SimDuration;

    #[test]
    fn level_is_time_weighted() {
        let mut level = Level::default();
        level.sample(SimTime::from_millis(0), 4.0);
        level.sample(SimTime::from_millis(1), 0.0);
        level.close(SimTime::from_millis(4));
        // 4 for 1 ms, then 0 for 3 ms.
        assert!((level.mean() - 1.0).abs() < 1e-12);
        assert_eq!(level.max, 4.0);
        assert_eq!(Level::default().mean(), 0.0);
    }

    #[test]
    fn merged_probes_add_counts_and_pool_levels() {
        let mut a = CoreProbe {
            try_release_job: Busy { calls: 4, secs: 0.5 },
            admitted: 3,
            ..CoreProbe::default()
        };
        a.backlog.sample(SimTime::ZERO, 2.0);
        a.backlog.close(SimTime::from_millis(10));
        let mut b = a.clone();
        b.admitted = 1;
        b.backlog = Level::default();
        b.backlog.sample(SimTime::ZERO, 6.0);
        b.backlog.close(SimTime::from_millis(10));
        a.merge(&b);
        assert_eq!(a.try_release_job, Busy { calls: 8, secs: 1.0 });
        assert_eq!(a.admit_ratio(), 0.5);
        assert!((a.backlog.mean() - 4.0).abs() < 1e-12);
        assert_eq!(a.backlog.max, 6.0);
        assert_eq!(CoreProbe::default().admit_ratio(), 0.0);
    }

    #[test]
    fn tap_keeps_completions_and_forwards_everything() {
        let chrome = ChromeTraceSink::new();
        let mut tap = ResponseTap::new(Some(chrome.clone()));
        let completed = |priority, ms| TelemetryEvent {
            at: SimTime::from_millis(5),
            device: 0,
            kind: EventKind::JobCompleted {
                task: TaskId(0),
                release_index: 0,
                priority,
                missed: false,
                response: SimDuration::from_millis(ms),
            },
        };
        let other = TelemetryEvent {
            at: SimTime::ZERO,
            device: 1,
            kind: EventKind::Replan { computing: 1, utilization: 0.5 },
        };
        tap.record(&completed(Priority::High, 3));
        let mut batch = vec![other, completed(Priority::Low, 7), completed(Priority::High, 2)];
        tap.record_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(chrome.len(), 4);
        assert_eq!(tap.responses_ms(Priority::High), vec![3.0, 2.0]);
        assert_eq!(tap.responses_ms(Priority::Low), vec![7.0]);

        let mut bare = ResponseTap::new(None);
        let mut batch = vec![completed(Priority::Low, 1)];
        bare.record_batch(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(bare.responses_ms(Priority::Low), vec![1.0]);
    }
}
