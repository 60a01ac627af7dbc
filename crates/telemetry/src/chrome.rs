//! Chrome trace-event JSON exporter.
//!
//! Emits the subset of the Trace Event Format that Perfetto and
//! `chrome://tracing` load: `M` metadata naming processes and threads, `X`
//! complete spans (work items, device round spans), `i` instants (admission
//! decisions, stage boundaries, misses, migrations) and `C` counters (SM
//! utilization after each replan). One *process* per device — fleet-level
//! events get a synthetic `cluster` process — and within a device one
//! *thread* per MPS context plus scheduler, copy-engine and round tracks.
//!
//! The JSON is hand-rolled (the workspace deliberately has no serde) and
//! fully deterministic: event order is record order, map iteration is over
//! `BTreeMap`/`BTreeSet`, and timestamps are formatted from integer
//! nanoseconds. The output is pinned byte-for-byte by a golden fixture.
//!
//! The export streams into one pre-sized output `String`. It reads the
//! recorded events by reference, holding the sink lock while it runs, and
//! builds no `String` per event: names and args are passed as
//! `fmt::Arguments`, names go through an escaping `fmt::Write` adapter, and
//! timestamps, durations, pids and tids are written by an integer-digit
//! writer. Process and thread names are known only after the pass over the
//! events, so that small metadata block is inserted at the header offset
//! last. Peak memory is therefore the one output buffer. NaN and infinite
//! float fields, which JSON cannot represent, are written as `null`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex};

use daris_gpu::SimTime;

use crate::event::{EventKind, TelemetryEvent, CLUSTER_DEVICE, RACK_DEVICE_BASE};
use crate::TelemetrySink;

/// Version tag written into the top-level `schemaVersion` field. Bump when
/// the track layout or event naming changes incompatibly.
pub const CHROME_SCHEMA_VERSION: &str = "daris-chrome-trace/1";

/// Synthetic thread ids within a device process. Context tracks start at
/// [`TID_CONTEXT_BASE`] so they never collide with the fixed tracks.
const TID_SCHEDULER: u32 = 0;
const TID_COPY: u32 = 1;
const TID_ROUNDS: u32 = 2;
const TID_CONTEXT_BASE: u32 = 10;

/// Fleet-level tracks in the synthetic `cluster` process.
const TID_PHASES: u32 = 0;
const TID_PLACEMENT: u32 = 1;

/// Output bytes reserved per event up front. Recorded fleet runs average
/// about 105 bytes per event line, so one reservation normally holds the
/// whole document; reserved but unwritten pages are never touched.
const RESERVE_PER_EVENT: usize = 128;

/// Extra reservation for the header and the process/thread metadata block.
const RESERVE_FIXED: usize = 16 * 1024;

/// A sink that buffers events and serializes them to Chrome trace-event
/// JSON via [`to_json`](ChromeTraceSink::to_json). Cloning shares the
/// buffer, like [`MemorySink`](crate::MemorySink).
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceSink {
    state: Arc<Mutex<Vec<TelemetryEvent>>>,
}

impl ChromeTraceSink {
    /// An empty exporter.
    pub fn new() -> Self {
        ChromeTraceSink::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.state.lock().expect("chrome sink lock poisoned").len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes everything recorded so far to a Chrome trace-event JSON
    /// document. Deterministic: same events in, same bytes out. The buffer
    /// is read in place (nothing is drained), and the sink lock is held
    /// for the duration of the export.
    pub fn to_json(&self) -> String {
        let events = self.state.lock().expect("chrome sink lock poisoned");
        export(&events)
    }
}

impl TelemetrySink for ChromeTraceSink {
    fn record(&mut self, event: &TelemetryEvent) {
        self.state.lock().expect("chrome sink lock poisoned").push(event.clone());
    }

    fn record_batch(&mut self, events: &mut Vec<TelemetryEvent>) {
        self.state.lock().expect("chrome sink lock poisoned").append(events);
    }
}

/// An unsigned integer rendered in decimal on the stack.
struct Digits {
    buf: [u8; 24],
    start: usize,
}

impl Digits {
    /// Writes `v` right-aligned ending before `self.start`, zero-padded to
    /// at least `width` digits.
    fn prepend(&mut self, mut v: u64, width: usize) {
        let stop = self.start - width;
        loop {
            self.start -= 1;
            self.buf[self.start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 && self.start <= stop {
                return;
            }
        }
    }

    /// `v` in decimal.
    fn int(v: u64) -> Self {
        let mut d = Digits { buf: [0; 24], start: 24 };
        d.prepend(v, 1);
        d
    }

    /// Integer nanoseconds as microseconds with three decimals (`X.YYY`),
    /// so no float rounding is involved.
    fn micros(nanos: u64) -> Self {
        let mut d = Digits { buf: [0; 24], start: 24 };
        d.prepend(nanos % 1_000, 3);
        d.start -= 1;
        d.buf[d.start] = b'.';
        d.prepend(nanos / 1_000, 1);
        d
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.start..]).expect("decimal digits are ASCII")
    }
}

impl fmt::Display for Digits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A float field. Finite values keep their `core::fmt` bytes (the caller's
/// precision included); NaN and infinities become `null`.
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// A `fmt::Write` adapter that JSON-escapes everything written through it
/// (minimal escaping for event names and labels). Text with nothing to
/// escape is copied with one `push_str`.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
            self.0.push_str(s);
            return Ok(());
        }
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\r' => self.0.push_str("\\r"),
                '\t' => self.0.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

fn pid_of(device: u32) -> u64 {
    u64::from(device)
}

/// Whether a pid falls in the synthetic rack-track range (see
/// [`RACK_DEVICE_BASE`]).
fn is_rack_pid(pid: u64) -> bool {
    pid >= u64::from(RACK_DEVICE_BASE) && pid != pid_of(CLUSTER_DEVICE)
}

/// Writing to a `String` cannot fail, and no `Display` impl used here
/// returns an error.
const INFALLIBLE: &str = "formatting into a String cannot fail";

struct Exporter {
    /// The document so far: header, then one `  {...},\n` line per event.
    out: String,
    /// Every (pid, tid) pair seen, for thread_name metadata.
    threads: BTreeSet<(u64, u32)>,
    /// Open work-item spans keyed by (device, tag).
    open_items: BTreeMap<(u32, u64), (SimTime, u32, u32)>,
}

impl Exporter {
    /// Starts an event line: `  {"name":"<escaped name>","ph":"<ph>"`.
    fn open(&mut self, name: fmt::Arguments<'_>, ph: &str) {
        self.out.push_str("  {\"name\":\"");
        Escaped(&mut self.out).write_fmt(name).expect(INFALLIBLE);
        self.out.push_str("\",\"ph\":\"");
        self.out.push_str(ph);
        self.out.push('"');
    }

    /// Writes a `,"<key>":X.YYY` timestamp field.
    fn micros(&mut self, key: &str, nanos: u64) {
        self.out.push_str(key);
        self.out.push_str(Digits::micros(nanos).as_str());
    }

    /// Ends an event line: `,"pid":P,"tid":T,"args":{<args>}},` and newline.
    fn close(&mut self, pid: u64, tid: u32, args: fmt::Arguments<'_>) {
        self.out.push_str(",\"pid\":");
        self.out.push_str(Digits::int(pid).as_str());
        self.out.push_str(",\"tid\":");
        self.out.push_str(Digits::int(u64::from(tid)).as_str());
        self.out.push_str(",\"args\":{");
        self.out.write_fmt(args).expect(INFALLIBLE);
        self.out.push_str("}},\n");
    }

    fn instant(
        &mut self,
        at: SimTime,
        pid: u64,
        tid: u32,
        name: fmt::Arguments<'_>,
        args: fmt::Arguments<'_>,
    ) {
        self.threads.insert((pid, tid));
        self.open(name, "i");
        self.out.push_str(",\"s\":\"t\"");
        self.micros(",\"ts\":", at.as_nanos());
        self.close(pid, tid, args);
    }

    fn span(
        &mut self,
        from: SimTime,
        to: SimTime,
        pid: u64,
        tid: u32,
        name: fmt::Arguments<'_>,
        args: fmt::Arguments<'_>,
    ) {
        self.threads.insert((pid, tid));
        self.open(name, "X");
        self.micros(",\"ts\":", from.as_nanos());
        self.micros(",\"dur\":", to.as_nanos().saturating_sub(from.as_nanos()));
        self.close(pid, tid, args);
    }

    fn counter(
        &mut self,
        at: SimTime,
        pid: u64,
        name: fmt::Arguments<'_>,
        args: fmt::Arguments<'_>,
    ) {
        self.open(name, "C");
        self.micros(",\"ts\":", at.as_nanos());
        self.close(pid, 0, args);
    }

    fn push(&mut self, ev: &TelemetryEvent) {
        let pid = pid_of(ev.device);
        match &ev.kind {
            EventKind::CopyInStarted { tag, stream, context } => self.instant(
                ev.at,
                pid,
                TID_COPY,
                format_args!("copy-in"),
                format_args!("\"tag\":{tag},\"stream\":{stream},\"ctx\":{context}"),
            ),
            EventKind::CopyOutStarted { tag, stream, context } => self.instant(
                ev.at,
                pid,
                TID_COPY,
                format_args!("copy-out"),
                format_args!("\"tag\":{tag},\"stream\":{stream},\"ctx\":{context}"),
            ),
            EventKind::ItemStarted { tag, stream, context } => {
                self.open_items.insert((ev.device, *tag), (ev.at, *context, *stream));
            }
            EventKind::KernelFinished { tag, stream: _, context, label } => {
                let name = label.as_deref().unwrap_or("kernel");
                self.instant(
                    ev.at,
                    pid,
                    TID_CONTEXT_BASE + context,
                    format_args!("{name}"),
                    format_args!("\"tag\":{tag}"),
                );
            }
            EventKind::ItemFinished { tag, stream, context } => {
                match self.open_items.remove(&(ev.device, *tag)) {
                    Some((started, ctx, strm)) => self.span(
                        started,
                        ev.at,
                        pid,
                        TID_CONTEXT_BASE + ctx,
                        format_args!("item#{tag}"),
                        format_args!("\"tag\":{tag},\"stream\":{strm}"),
                    ),
                    None => self.instant(
                        ev.at,
                        pid,
                        TID_CONTEXT_BASE + context,
                        format_args!("item#{tag} finish"),
                        format_args!("\"tag\":{tag},\"stream\":{stream}"),
                    ),
                }
            }
            EventKind::Replan { computing, utilization } => {
                self.counter(
                    ev.at,
                    pid,
                    format_args!("sm-utilization"),
                    format_args!("\"busy\":{computing},\"utilization\":{:.4}", Num(*utilization)),
                );
            }
            EventKind::AdmissionAccepted { task, release_index, priority, context, migrated } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    format_args!("admit {task}#{release_index}"),
                    format_args!(
                        "\"prio\":\"{priority}\",\"ctx\":{context},\"migrated\":{migrated}"
                    ),
                );
            }
            EventKind::AdmissionRejected { task, release_index, priority, test } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    format_args!("reject {task}#{release_index} ({test})"),
                    format_args!("\"prio\":\"{priority}\""),
                );
            }
            EventKind::JobRejected { task, release_index, priority } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    format_args!("drop {task}#{release_index}"),
                    format_args!("\"prio\":\"{priority}\""),
                );
            }
            EventKind::StageDispatched {
                task,
                release_index,
                stage,
                stage_count,
                context,
                stream,
                tag,
            } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    format_args!("dispatch {task}#{release_index} s{stage}/{stage_count}"),
                    format_args!("\"ctx\":{context},\"stream\":{stream},\"tag\":{tag}"),
                );
            }
            EventKind::StageBoundary { task, release_index, completed_stage, missed_virtual } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    format_args!("stage-boundary {task}#{release_index} s{completed_stage}"),
                    format_args!("\"missed_virtual\":{missed_virtual}"),
                );
            }
            EventKind::JobCompleted { task, release_index, priority, missed, response } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    format_args!("complete {task}#{release_index}"),
                    format_args!(
                        "\"prio\":\"{priority}\",\"missed\":{missed},\"response_us\":{}",
                        Digits::micros(response.as_nanos())
                    ),
                );
            }
            EventKind::DeadlineMissed { task, release_index, priority } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    format_args!("miss {task}#{release_index}"),
                    format_args!("\"prio\":\"{priority}\""),
                );
            }
            EventKind::AdmissionModeChanged { hpa_enabled, load_ratio } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_SCHEDULER,
                    format_args!("hpa {}", if *hpa_enabled { "on" } else { "off" }),
                    format_args!(
                        "\"hpa_enabled\":{hpa_enabled},\"load_ratio\":{}",
                        Num(*load_ratio)
                    ),
                );
            }
            EventKind::DeviceSpan { from, to } => {
                self.span(
                    *from,
                    *to,
                    pid,
                    TID_ROUNDS,
                    format_args!("round-span"),
                    format_args!(""),
                );
            }
            EventKind::PhaseMark { round, phase, detail } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PHASES,
                    format_args!("{phase} r{round}"),
                    format_args!("\"round\":{round},\"detail\":{detail}"),
                );
            }
            EventKind::RetryAttempt { task, release_index, home, target, admitted } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PLACEMENT,
                    format_args!("retry {task}#{release_index} d{home}->d{target}"),
                    format_args!("\"admitted\":{admitted}"),
                );
            }
            EventKind::Migration { task, release_index, from, to } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PLACEMENT,
                    format_args!("migrate {task}#{release_index} d{from}->d{to}"),
                    format_args!(""),
                );
            }
            EventKind::RackLoad { rack, round, backlog, idle_streams } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PHASES,
                    format_args!("rack{rack} load r{round}"),
                    format_args!("\"backlog\":{backlog},\"idle_streams\":{idle_streams}"),
                );
            }
            EventKind::RackMigration { task, release_index, from, to, from_rack, to_rack } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PLACEMENT,
                    format_args!(
                        "rack-migrate {task}#{release_index} d{from}->d{to} (r{from_rack}->r{to_rack})"
                    ),
                    format_args!(""),
                );
            }
            EventKind::QuantumChanged { round, quantum, load } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PHASES,
                    format_args!("quantum r{round}"),
                    format_args!(
                        "\"quantum_us\":{},\"load\":{}",
                        Num(quantum.as_micros_f64()),
                        Num(*load)
                    ),
                );
            }
            EventKind::DeviceJoined { device, round, online } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PLACEMENT,
                    format_args!("join d{device} r{round}"),
                    format_args!("\"online\":{online}"),
                );
            }
            EventKind::DeviceDrained { device, round, online, moved } => {
                self.instant(
                    ev.at,
                    pid,
                    TID_PLACEMENT,
                    format_args!("drain d{device} r{round}"),
                    format_args!("\"online\":{online},\"moved\":{moved}"),
                );
            }
        }
    }
}

fn process_name(pid: u64) -> String {
    if pid == pid_of(CLUSTER_DEVICE) {
        "cluster".to_string()
    } else if is_rack_pid(pid) {
        format!("rack{}", pid - u64::from(RACK_DEVICE_BASE))
    } else {
        format!("device{pid}")
    }
}

fn thread_name(pid: u64, tid: u32) -> String {
    if pid == pid_of(CLUSTER_DEVICE) {
        return match tid {
            TID_PHASES => "round-phases".to_string(),
            TID_PLACEMENT => "placement".to_string(),
            other => format!("track{other}"),
        };
    }
    if is_rack_pid(pid) {
        return match tid {
            TID_PHASES => "load".to_string(),
            other => format!("track{other}"),
        };
    }
    match tid {
        TID_SCHEDULER => "scheduler".to_string(),
        TID_COPY => "copy-engine".to_string(),
        TID_ROUNDS => "rounds".to_string(),
        other if other >= TID_CONTEXT_BASE => format!("ctx{}", other - TID_CONTEXT_BASE),
        other => format!("track{other}"),
    }
}

/// The `M` metadata lines naming every process and thread seen, each ending
/// in `,\n` like the event lines.
fn metadata(threads: &BTreeSet<(u64, u32)>) -> String {
    let mut meta = String::new();
    let pids: BTreeSet<u64> = threads.iter().map(|(pid, _)| *pid).collect();
    for pid in pids {
        let name = process_name(pid);
        writeln!(
            meta,
            "  {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}},"
        )
        .expect(INFALLIBLE);
    }
    for &(pid, tid) in threads {
        let name = thread_name(pid, tid);
        writeln!(
            meta,
            "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}},"
        )
        .expect(INFALLIBLE);
    }
    meta
}

fn export(events: &[TelemetryEvent]) -> String {
    let mut out = String::with_capacity(RESERVE_FIXED + events.len() * RESERVE_PER_EVENT);
    out.push_str("{\"schemaVersion\":\"");
    out.push_str(CHROME_SCHEMA_VERSION);
    out.push_str("\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let header_len = out.len();

    let mut exporter = Exporter { out, threads: BTreeSet::new(), open_items: BTreeMap::new() };
    for ev in events {
        exporter.push(ev);
    }
    let Exporter { mut out, threads, .. } = exporter;

    out.insert_str(header_len, &metadata(&threads));
    if out.len() > header_len {
        // Every line ends in ",\n"; the last one must not keep its comma.
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AdmissionTest, RoundPhase};
    use daris_gpu::SimDuration;
    use daris_workload::{Priority, TaskId};
    use proptest::prelude::*;

    /// The `format!`-based exporter the streaming one replaced, kept as a
    /// byte-for-byte oracle: it builds one `String` per field and per line.
    mod oracle {
        use std::collections::{BTreeMap, BTreeSet};

        use daris_gpu::SimTime;

        use super::super::{
            is_rack_pid, pid_of, TID_CONTEXT_BASE, TID_COPY, TID_PHASES, TID_PLACEMENT, TID_ROUNDS,
            TID_SCHEDULER,
        };
        use crate::event::{EventKind, TelemetryEvent, CLUSTER_DEVICE, RACK_DEVICE_BASE};
        use crate::CHROME_SCHEMA_VERSION;

        /// Timestamp field: microseconds with nanosecond precision, formatted from
        /// integer nanoseconds so no float rounding is involved.
        pub(super) fn ts(at: SimTime) -> String {
            let raw = at.as_nanos();
            format!("{}.{:03}", raw / 1_000, raw % 1_000)
        }

        /// Span duration field, same formatting as [`ts`].
        pub(super) fn dur(from: SimTime, to: SimTime) -> String {
            let raw = to.as_nanos().saturating_sub(from.as_nanos());
            format!("{}.{:03}", raw / 1_000, raw % 1_000)
        }

        /// Minimal JSON string escaping for event names and labels.
        pub(super) fn escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out
        }

        struct Exporter {
            lines: Vec<String>,
            /// Every (pid, tid) pair seen, for thread_name metadata.
            threads: BTreeSet<(u64, u32)>,
            /// Open work-item spans keyed by (device, tag).
            open_items: BTreeMap<(u32, u64), (SimTime, u32, u32)>,
        }

        impl Exporter {
            fn instant(&mut self, at: SimTime, pid: u64, tid: u32, name: &str, args: &str) {
                self.threads.insert((pid, tid));
                self.lines.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                    escape(name),
                    ts(at),
                    pid,
                    tid,
                    args
                ));
            }

            fn span(
                &mut self,
                from: SimTime,
                to: SimTime,
                pid: u64,
                tid: u32,
                name: &str,
                args: &str,
            ) {
                self.threads.insert((pid, tid));
                self.lines.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{{}}}}}",
                    escape(name),
                    ts(from),
                    dur(from, to),
                    pid,
                    tid,
                    args
                ));
            }

            fn counter(&mut self, at: SimTime, pid: u64, name: &str, args: &str) {
                self.lines.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":0,\"args\":{{{}}}}}",
                    escape(name),
                    ts(at),
                    pid,
                    args
                ));
            }

            fn push(&mut self, ev: &TelemetryEvent) {
                let pid = pid_of(ev.device);
                match &ev.kind {
                    EventKind::CopyInStarted { tag, stream, context } => self.instant(
                        ev.at,
                        pid,
                        TID_COPY,
                        "copy-in",
                        &format!("\"tag\":{tag},\"stream\":{stream},\"ctx\":{context}"),
                    ),
                    EventKind::CopyOutStarted { tag, stream, context } => self.instant(
                        ev.at,
                        pid,
                        TID_COPY,
                        "copy-out",
                        &format!("\"tag\":{tag},\"stream\":{stream},\"ctx\":{context}"),
                    ),
                    EventKind::ItemStarted { tag, stream, context } => {
                        self.open_items.insert((ev.device, *tag), (ev.at, *context, *stream));
                    }
                    EventKind::KernelFinished { tag, stream: _, context, label } => {
                        let name = label.as_deref().unwrap_or("kernel");
                        self.instant(
                            ev.at,
                            pid,
                            TID_CONTEXT_BASE + context,
                            name,
                            &format!("\"tag\":{tag}"),
                        );
                    }
                    EventKind::ItemFinished { tag, stream, context } => {
                        match self.open_items.remove(&(ev.device, *tag)) {
                            Some((started, ctx, strm)) => self.span(
                                started,
                                ev.at,
                                pid,
                                TID_CONTEXT_BASE + ctx,
                                &format!("item#{tag}"),
                                &format!("\"tag\":{tag},\"stream\":{strm}"),
                            ),
                            None => self.instant(
                                ev.at,
                                pid,
                                TID_CONTEXT_BASE + context,
                                &format!("item#{tag} finish"),
                                &format!("\"tag\":{tag},\"stream\":{stream}"),
                            ),
                        }
                    }
                    EventKind::Replan { computing, utilization } => {
                        self.counter(
                            ev.at,
                            pid,
                            "sm-utilization",
                            &format!("\"busy\":{computing},\"utilization\":{utilization:.4}"),
                        );
                    }
                    EventKind::AdmissionAccepted {
                        task,
                        release_index,
                        priority,
                        context,
                        migrated,
                    } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_SCHEDULER,
                            &format!("admit {task}#{release_index}"),
                            &format!(
                                "\"prio\":\"{priority}\",\"ctx\":{context},\"migrated\":{migrated}"
                            ),
                        );
                    }
                    EventKind::AdmissionRejected { task, release_index, priority, test } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_SCHEDULER,
                            &format!("reject {task}#{release_index} ({test})"),
                            &format!("\"prio\":\"{priority}\""),
                        );
                    }
                    EventKind::JobRejected { task, release_index, priority } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_SCHEDULER,
                            &format!("drop {task}#{release_index}"),
                            &format!("\"prio\":\"{priority}\""),
                        );
                    }
                    EventKind::StageDispatched {
                        task,
                        release_index,
                        stage,
                        stage_count,
                        context,
                        stream,
                        tag,
                    } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_SCHEDULER,
                            &format!("dispatch {task}#{release_index} s{stage}/{stage_count}"),
                            &format!("\"ctx\":{context},\"stream\":{stream},\"tag\":{tag}"),
                        );
                    }
                    EventKind::StageBoundary {
                        task,
                        release_index,
                        completed_stage,
                        missed_virtual,
                    } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_SCHEDULER,
                            &format!("stage-boundary {task}#{release_index} s{completed_stage}"),
                            &format!("\"missed_virtual\":{missed_virtual}"),
                        );
                    }
                    EventKind::JobCompleted { task, release_index, priority, missed, response } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_SCHEDULER,
                            &format!("complete {task}#{release_index}"),
                            &format!(
                                "\"prio\":\"{priority}\",\"missed\":{missed},\"response_us\":{}",
                                ts(SimTime::from(*response))
                            ),
                        );
                    }
                    EventKind::DeadlineMissed { task, release_index, priority } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_SCHEDULER,
                            &format!("miss {task}#{release_index}"),
                            &format!("\"prio\":\"{priority}\""),
                        );
                    }
                    EventKind::AdmissionModeChanged { hpa_enabled, load_ratio } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_SCHEDULER,
                            &format!("hpa {}", if *hpa_enabled { "on" } else { "off" }),
                            &format!("\"hpa_enabled\":{hpa_enabled},\"load_ratio\":{load_ratio}"),
                        );
                    }
                    EventKind::DeviceSpan { from, to } => {
                        self.span(*from, *to, pid, TID_ROUNDS, "round-span", "");
                    }
                    EventKind::PhaseMark { round, phase, detail } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_PHASES,
                            &format!("{phase} r{round}"),
                            &format!("\"round\":{round},\"detail\":{detail}"),
                        );
                    }
                    EventKind::RetryAttempt { task, release_index, home, target, admitted } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_PLACEMENT,
                            &format!("retry {task}#{release_index} d{home}->d{target}"),
                            &format!("\"admitted\":{admitted}"),
                        );
                    }
                    EventKind::Migration { task, release_index, from, to } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_PLACEMENT,
                            &format!("migrate {task}#{release_index} d{from}->d{to}"),
                            "",
                        );
                    }
                    EventKind::RackLoad { rack, round, backlog, idle_streams } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_PHASES,
                            &format!("rack{rack} load r{round}"),
                            &format!("\"backlog\":{backlog},\"idle_streams\":{idle_streams}"),
                        );
                    }
                    EventKind::RackMigration {
                        task,
                        release_index,
                        from,
                        to,
                        from_rack,
                        to_rack,
                    } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_PLACEMENT,
                            &format!(
                                "rack-migrate {task}#{release_index} d{from}->d{to} (r{from_rack}->r{to_rack})"
                            ),
                            "",
                        );
                    }
                    EventKind::QuantumChanged { round, quantum, load } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_PHASES,
                            &format!("quantum r{round}"),
                            &format!("\"quantum_us\":{},\"load\":{load}", quantum.as_micros_f64()),
                        );
                    }
                    EventKind::DeviceJoined { device, round, online } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_PLACEMENT,
                            &format!("join d{device} r{round}"),
                            &format!("\"online\":{online}"),
                        );
                    }
                    EventKind::DeviceDrained { device, round, online, moved } => {
                        self.instant(
                            ev.at,
                            pid,
                            TID_PLACEMENT,
                            &format!("drain d{device} r{round}"),
                            &format!("\"online\":{online},\"moved\":{moved}"),
                        );
                    }
                }
            }
        }

        fn thread_name(pid: u64, tid: u32) -> String {
            if pid == pid_of(CLUSTER_DEVICE) {
                return match tid {
                    TID_PHASES => "round-phases".to_string(),
                    TID_PLACEMENT => "placement".to_string(),
                    other => format!("track{other}"),
                };
            }
            if is_rack_pid(pid) {
                return match tid {
                    TID_PHASES => "load".to_string(),
                    other => format!("track{other}"),
                };
            }
            match tid {
                TID_SCHEDULER => "scheduler".to_string(),
                TID_COPY => "copy-engine".to_string(),
                TID_ROUNDS => "rounds".to_string(),
                other if other >= TID_CONTEXT_BASE => format!("ctx{}", other - TID_CONTEXT_BASE),
                other => format!("track{other}"),
            }
        }

        pub(super) fn export(events: &[TelemetryEvent]) -> String {
            let mut exporter = Exporter {
                lines: Vec::new(),
                threads: BTreeSet::new(),
                open_items: BTreeMap::new(),
            };
            for ev in events {
                exporter.push(ev);
            }

            let mut meta: Vec<String> = Vec::new();
            let pids: BTreeSet<u64> = exporter.threads.iter().map(|(pid, _)| *pid).collect();
            for pid in &pids {
                let name = if *pid == pid_of(CLUSTER_DEVICE) {
                    "cluster".to_string()
                } else if is_rack_pid(*pid) {
                    format!("rack{}", pid - u64::from(RACK_DEVICE_BASE))
                } else {
                    format!("device{pid}")
                };
                meta.push(format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}"
                ));
            }
            for (pid, tid) in &exporter.threads {
                let name = thread_name(*pid, *tid);
                meta.push(format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
                ));
            }

            let mut out = String::new();
            out.push_str("{\"schemaVersion\":\"");
            out.push_str(CHROME_SCHEMA_VERSION);
            out.push_str("\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
            let total = meta.len() + exporter.lines.len();
            for (i, line) in meta.iter().chain(exporter.lines.iter()).enumerate() {
                out.push_str("  ");
                out.push_str(line);
                if i + 1 < total {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str("]}\n");
            out
        }
    }

    fn sample_events() -> Vec<TelemetryEvent> {
        use EventKind::*;
        let t = |us| SimTime::from_micros(us);
        vec![
            TelemetryEvent {
                at: t(0),
                device: 0,
                kind: AdmissionAccepted {
                    task: TaskId(0),
                    release_index: 0,
                    priority: Priority::High,
                    context: 1,
                    migrated: false,
                },
            },
            TelemetryEvent {
                at: t(1),
                device: 0,
                kind: CopyInStarted { tag: 7, stream: 2, context: 1 },
            },
            TelemetryEvent {
                at: t(2),
                device: 0,
                kind: ItemStarted { tag: 7, stream: 2, context: 1 },
            },
            TelemetryEvent {
                at: t(5),
                device: 0,
                kind: ItemFinished { tag: 7, stream: 2, context: 1 },
            },
            TelemetryEvent { at: t(5), device: 0, kind: Replan { computing: 1, utilization: 0.5 } },
            TelemetryEvent {
                at: t(6),
                device: 1,
                kind: AdmissionRejected {
                    task: TaskId(3),
                    release_index: 2,
                    priority: Priority::Low,
                    test: AdmissionTest::LpUtilization,
                },
            },
            TelemetryEvent {
                at: t(8),
                device: CLUSTER_DEVICE,
                kind: PhaseMark { round: 0, phase: RoundPhase::Retry, detail: 1 },
            },
        ]
    }

    fn sink_of(events: &[TelemetryEvent]) -> ChromeTraceSink {
        let mut sink = ChromeTraceSink::new();
        for ev in events {
            sink.record(ev);
        }
        sink
    }

    #[test]
    fn schema_is_versioned_and_structurally_valid() {
        let json = sink_of(&sample_events()).to_json();
        assert!(json.starts_with("{\"schemaVersion\":\"daris-chrome-trace/1\""));
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("\"traceEvents\":["));
        // Every event object carries the mandatory fields.
        for line in json.lines().filter(|l| l.starts_with("  {")) {
            let l = line.trim();
            assert!(l.contains("\"ph\":\""), "missing ph in {l}");
            assert!(l.contains("\"pid\":"), "missing pid in {l}");
            assert!(l.contains("\"tid\":"), "missing tid in {l}");
        }
        // Balanced braces/brackets as a cheap structural check (no serde).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn item_start_finish_pairs_become_complete_spans() {
        let json = sink_of(&sample_events()).to_json();
        assert!(json.contains("\"name\":\"item#7\",\"ph\":\"X\",\"ts\":2.000,\"dur\":3.000"));
        // The replan surfaces as a counter track.
        assert!(json.contains("\"name\":\"sm-utilization\",\"ph\":\"C\""));
        // Named processes for devices and the cluster.
        assert!(json.contains("\"name\":\"device0\""));
        assert!(json.contains("\"name\":\"device1\""));
        assert!(json.contains("\"name\":\"cluster\""));
        // The failing admission test is named.
        assert!(json.contains("reject \u{3c4}3#2 (Eq. 11)"));
    }

    #[test]
    fn timestamps_are_integer_nanosecond_exact() {
        assert_eq!(Digits::micros(1_234_567).as_str(), "1234.567");
        assert_eq!(Digits::micros(0).as_str(), "0.000");
        assert_eq!(Digits::micros(1_250).as_str(), "1.250");
        assert_eq!(Digits::micros(u64::MAX).as_str(), "18446744073709551.615");
        assert_eq!(Digits::int(0).as_str(), "0");
        assert_eq!(Digits::int(u64::MAX).as_str(), u64::MAX.to_string());
        for nanos in [0, 7, 999, 1_000, 1_001, 1_234_567, u64::MAX] {
            let at = SimTime::from_nanos(nanos);
            assert_eq!(Digits::micros(nanos).as_str(), oracle::ts(at));
            assert_eq!(
                Digits::micros(nanos.saturating_sub(500)).as_str(),
                oracle::dur(SimTime::from_nanos(500), at)
            );
        }
    }

    #[test]
    fn labels_are_escaped() {
        let escaped = |s: &str| {
            let mut out = String::new();
            Escaped(&mut out).write_str(s).expect(INFALLIBLE);
            out
        };
        assert_eq!(escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escaped("\r\t\u{1}\u{1f}τ"), "\\r\\t\\u0001\\u001fτ");
        for s in ["plain", "a\"b\\c\nd", "\u{0}\u{7f}é😀", "\u{1f}", ""] {
            assert_eq!(escaped(s), oracle::escape(s));
        }
    }

    #[test]
    fn empty_sink_exports_an_empty_event_list() {
        assert_eq!(
            ChromeTraceSink::new().to_json(),
            "{\"schemaVersion\":\"daris-chrome-trace/1\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n"
        );
    }

    #[test]
    fn a_single_event_export_has_no_trailing_comma() {
        // A counter names no thread, so its line is the only one.
        let counter = TelemetryEvent {
            at: SimTime::from_micros(3),
            device: 0,
            kind: EventKind::Replan { computing: 2, utilization: 0.25 },
        };
        let json = sink_of(&[counter]).to_json();
        assert_eq!(
            json,
            "{\"schemaVersion\":\"daris-chrome-trace/1\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n  \
             {\"name\":\"sm-utilization\",\"ph\":\"C\",\"ts\":3.000,\"pid\":0,\"tid\":0,\"args\":{\"busy\":2,\"utilization\":0.2500}}\n]}\n"
        );
        // An instant also names its process and thread: three lines, the last
        // without a comma.
        let instant = TelemetryEvent {
            at: SimTime::from_micros(1),
            device: 0,
            kind: EventKind::CopyInStarted { tag: 1, stream: 0, context: 0 },
        };
        let json = sink_of(&[instant]).to_json();
        assert!(json.ends_with("}}\n]}\n"), "{json}");
        assert_eq!(json.matches(",\n").count(), 2, "{json}");
    }

    #[test]
    fn export_reads_the_buffer_without_draining_it() {
        let sink = sink_of(&sample_events());
        let first = sink.to_json();
        assert_eq!(sink.len(), sample_events().len());
        assert_eq!(sink.to_json(), first);
        assert_eq!(sink.len(), sample_events().len());
    }

    /// Exports one event and returns its own line (the last event line).
    fn line_of(kind: EventKind) -> String {
        let json = sink_of(&[TelemetryEvent { at: SimTime::ZERO, device: 0, kind }]).to_json();
        json.lines().rev().nth(1).expect("one event line").to_string()
    }

    #[test]
    fn non_finite_utilization_is_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line = line_of(EventKind::Replan { computing: 1, utilization: v });
            assert!(line.contains("\"utilization\":null}"), "{line}");
        }
    }

    #[test]
    fn non_finite_load_ratio_is_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line =
                line_of(EventKind::AdmissionModeChanged { hpa_enabled: true, load_ratio: v });
            assert!(line.contains("\"load_ratio\":null}"), "{line}");
        }
    }

    #[test]
    fn non_finite_load_is_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let quantum = SimDuration::from_micros(250);
            let line = line_of(EventKind::QuantumChanged { round: 1, quantum, load: v });
            assert!(line.contains("\"quantum_us\":250,\"load\":null}"), "{line}");
        }
    }

    #[test]
    fn quantum_us_is_always_a_finite_number() {
        // `quantum_us` derives from integer nanoseconds, so even the largest
        // duration is finite; it still passes through the same `null` guard.
        let kind = EventKind::QuantumChanged { round: 1, quantum: SimDuration::MAX, load: 0.5 };
        let line = line_of(kind);
        let field = line.split("\"quantum_us\":").nth(1).expect("quantum_us field");
        let value = field.split(',').next().expect("quantum_us value");
        assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{line}");
        assert_eq!(value, SimDuration::MAX.as_micros_f64().to_string());
    }

    #[test]
    fn finite_floats_keep_their_exact_bytes() {
        let line = line_of(EventKind::Replan { computing: 1, utilization: 1.0 / 32.0 });
        assert!(line.contains(&format!("\"utilization\":{:.4}}}", 1.0f64 / 32.0)), "{line}");
        let line =
            line_of(EventKind::AdmissionModeChanged { hpa_enabled: false, load_ratio: -0.0 });
        assert!(line.contains("\"load_ratio\":-0}"), "{line}");
    }

    /// Random event streams for the oracle property: every `EventKind`
    /// variant, device, rack and cluster pids, labels needing escapes,
    /// unmatched item starts and finishes, and lengths from empty upward.
    struct EventStreams {
        max_len: usize,
    }

    /// Label alphabet: plain text, every escaped character class and
    /// non-ASCII.
    const LABEL_CHARS: [char; 15] = [
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1b}', '\u{1f}', '\u{7f}',
        'τ', '😀',
    ];

    /// Finite floats, ties such as `1/32` included.
    const FLOATS: [f64; 10] =
        [0.0, -0.0, 0.5, 1.0 / 32.0, 3.0 / 32.0, 0.00005, 0.99995, 1.0, 2.5e-9, 1.7e300];

    fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
        from[(rng.next_u64() % from.len() as u64) as usize]
    }

    /// Small values (so item tags pair up), mid-size ones and full-range ones.
    fn int(rng: &mut TestRng) -> u64 {
        match rng.next_u64() % 3 {
            0 => rng.next_u64() % 4,
            1 => rng.next_u64() % 100_000,
            _ => rng.next_u64(),
        }
    }

    fn int32(rng: &mut TestRng) -> u32 {
        (int(rng) & u64::from(u32::MAX)) as u32
    }

    fn float(rng: &mut TestRng) -> f64 {
        if rng.next_u64() % 2 == 0 {
            pick(rng, &FLOATS)
        } else {
            rng.next_f64() * 4.0
        }
    }

    fn time(rng: &mut TestRng) -> SimTime {
        SimTime::from_nanos(int(rng))
    }

    fn task(rng: &mut TestRng) -> TaskId {
        TaskId(int32(rng))
    }

    fn priority(rng: &mut TestRng) -> Priority {
        pick(rng, &[Priority::High, Priority::Low])
    }

    fn label(rng: &mut TestRng) -> Option<String> {
        if rng.next_u64() % 4 == 0 {
            return None;
        }
        let len = rng.next_u64() % 8;
        Some((0..len).map(|_| pick(rng, &LABEL_CHARS)).collect())
    }

    /// Number of `EventKind` variants [`kind`] draws from.
    const KINDS: u64 = 23;

    fn kind(rng: &mut TestRng) -> EventKind {
        use EventKind::*;
        let (tag, stream, context) = (rng.next_u64() % 4, int32(rng), rng.next_u64() % 8);
        let context = context as u32;
        match rng.next_u64() % KINDS {
            0 => CopyInStarted { tag, stream, context },
            1 => CopyOutStarted { tag, stream, context },
            2 => ItemStarted { tag, stream, context },
            3 => KernelFinished { tag, stream, context, label: label(rng) },
            4 => ItemFinished { tag, stream, context },
            5 => Replan { computing: int32(rng), utilization: float(rng) },
            6 => AdmissionAccepted {
                task: task(rng),
                release_index: int(rng),
                priority: priority(rng),
                context,
                migrated: rng.next_u64() % 2 == 0,
            },
            7 => AdmissionRejected {
                task: task(rng),
                release_index: int(rng),
                priority: priority(rng),
                test: pick(rng, &[AdmissionTest::LpUtilization, AdmissionTest::HpUtilization]),
            },
            8 => JobRejected { task: task(rng), release_index: int(rng), priority: priority(rng) },
            9 => StageDispatched {
                task: task(rng),
                release_index: int(rng),
                stage: int32(rng),
                stage_count: int32(rng),
                context,
                stream,
                tag: int(rng),
            },
            10 => StageBoundary {
                task: task(rng),
                release_index: int(rng),
                completed_stage: int32(rng),
                missed_virtual: rng.next_u64() % 2 == 0,
            },
            11 => JobCompleted {
                task: task(rng),
                release_index: int(rng),
                priority: priority(rng),
                missed: rng.next_u64() % 2 == 0,
                response: SimDuration::from_nanos(int(rng)),
            },
            12 => {
                DeadlineMissed { task: task(rng), release_index: int(rng), priority: priority(rng) }
            }
            13 => AdmissionModeChanged {
                hpa_enabled: rng.next_u64() % 2 == 0,
                load_ratio: float(rng),
            },
            14 => DeviceSpan { from: time(rng), to: time(rng) },
            15 => {
                PhaseMark { round: int(rng), phase: pick(rng, &RoundPhase::ALL), detail: int(rng) }
            }
            16 => RetryAttempt {
                task: task(rng),
                release_index: int(rng),
                home: int32(rng),
                target: int32(rng),
                admitted: rng.next_u64() % 2 == 0,
            },
            17 => Migration {
                task: task(rng),
                release_index: int(rng),
                from: int32(rng),
                to: int32(rng),
            },
            18 => RackLoad {
                rack: int32(rng),
                round: int(rng),
                backlog: int(rng),
                idle_streams: int(rng),
            },
            19 => RackMigration {
                task: task(rng),
                release_index: int(rng),
                from: int32(rng),
                to: int32(rng),
                from_rack: int32(rng),
                to_rack: int32(rng),
            },
            20 => QuantumChanged {
                round: int(rng),
                quantum: SimDuration::from_nanos(int(rng)),
                load: float(rng),
            },
            21 => DeviceJoined { device: int32(rng), round: int(rng), online: int32(rng) },
            _ => DeviceDrained {
                device: int32(rng),
                round: int(rng),
                online: int32(rng),
                moved: int(rng),
            },
        }
    }

    impl Strategy for EventStreams {
        type Value = Vec<TelemetryEvent>;

        fn sample(&self, rng: &mut TestRng) -> Vec<TelemetryEvent> {
            const DEVICES: [u32; 6] =
                [0, 1, 5, RACK_DEVICE_BASE, RACK_DEVICE_BASE + 3, CLUSTER_DEVICE];
            let len = rng.next_u64() % (self.max_len as u64 + 1);
            (0..len)
                .map(|_| TelemetryEvent {
                    at: time(rng),
                    device: pick(rng, &DEVICES),
                    kind: kind(rng),
                })
                .collect()
        }
    }

    proptest! {
        /// The streaming export is byte-equal to the `format!` oracle.
        #[test]
        fn export_matches_the_format_oracle(events in EventStreams { max_len: 48 }) {
            prop_assert_eq!(export(&events), oracle::export(&events));
        }
    }

    #[test]
    fn event_streams_cover_every_kind_and_edge_case() {
        // Replays the oracle property's own draws: the property is seeded
        // from its name and samples one stream per case.
        let mut rng = TestRng::from_name("export_matches_the_format_oracle");
        let strategy = EventStreams { max_len: 48 };
        let mut kinds = BTreeSet::new();
        let mut lens = BTreeSet::new();
        let mut label_chars = BTreeSet::new();
        let (mut rack_pid, mut cluster_pid) = (false, false);
        let (mut unmatched_finish, mut unfinished_start) = (false, false);
        for _ in 0..ProptestConfig::default().cases {
            let events = strategy.sample(&mut rng);
            lens.insert(events.len());
            let mut open = BTreeSet::new();
            for ev in &events {
                kinds.insert(ev.kind.name());
                rack_pid |= is_rack_pid(pid_of(ev.device));
                cluster_pid |= ev.device == CLUSTER_DEVICE;
                match &ev.kind {
                    EventKind::KernelFinished { label: Some(label), .. } => {
                        label_chars.extend(label.chars());
                    }
                    EventKind::ItemStarted { tag, .. } => {
                        open.insert((ev.device, *tag));
                    }
                    EventKind::ItemFinished { tag, .. } => {
                        unmatched_finish |= !open.remove(&(ev.device, *tag));
                    }
                    _ => {}
                }
            }
            unfinished_start |= !open.is_empty();
        }
        assert_eq!(kinds.len() as u64, KINDS, "{kinds:?}");
        assert!(lens.contains(&0) && lens.contains(&1), "{lens:?}");
        assert!(LABEL_CHARS.iter().all(|c| label_chars.contains(c)), "{label_chars:?}");
        assert!(rack_pid && cluster_pid);
        assert!(unmatched_finish && unfinished_start);
    }
}
