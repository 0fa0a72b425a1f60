//! Benchmark-side spans around every call into a layer.
//!
//! A [`Tracer`] that is off runs the wrapped call and records nothing, so
//! the untraced passes pay one branch per call. A tracer that is on keeps
//! every span in memory (name, layer, start, end, parent); the run renders
//! them as a Chrome trace with [`chrome_trace`] when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

use dsv3_telemetry::{validate_chrome_trace, ChromeTrace, TraceEvent};
use serde_json::Value;

/// One timed call (or group of calls) on the host clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Metric stem, e.g. `collectives.deepep_round.g256`.
    pub name: String,
    /// Crate the call goes into (`bench` for the benchmark's own groups).
    pub layer: &'static str,
    /// Seconds since the tracer's epoch.
    pub start_s: f64,
    /// Seconds since the tracer's epoch (`NaN` while open).
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time covered by the span.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder for one phase (a set-up or one pass) of a workload.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records every span.
    pub fn on() -> Self {
        Self { on: true, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self { on: false, ..Self::on() }
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, layer: &'static str, name: &str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied();
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span { name: name.to_string(), layer, start_s, end_s: f64::NAN, parent });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("close() without a matching open()");
        self.spans[idx].end_s = self.epoch.elapsed().as_secs_f64();
    }

    /// Run `f` inside a span.
    pub fn call<T>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        self.open(layer, name);
        let out = f();
        self.close();
        out
    }

    /// All recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_s).sum()
    }

    /// Total seconds of the spans whose name starts with `prefix`.
    pub fn prefix_s(&self, prefix: &str) -> f64 {
        self.spans.iter().filter(|s| s.name.starts_with(prefix)).map(Span::dur_s).sum()
    }

    /// Self time per layer: each span's duration minus its children's.
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_s) {
            *out.entry(s.layer).or_insert(0.0) += s.dur_s() - c;
        }
        out
    }
}

/// Render the spans of `phases` as one Chrome trace (JSON object format).
/// Each phase is a thread of the workload's process; span arguments carry
/// the span id, its parent's id, the layer and the workload. Timestamps
/// are host microseconds from each phase's epoch, laid end to end.
pub fn chrome_trace(workload: &str, phases: &[(&str, &Tracer)]) -> String {
    let meta = |name: &str, tid: u64, label: &str| TraceEvent {
        name: name.to_string(),
        cat: "__metadata".to_string(),
        ph: "M".to_string(),
        ts: 0.0,
        dur: 0.0,
        pid: 1,
        tid,
        args: BTreeMap::from([("name".to_string(), Value::Str(label.to_string()))]),
    };
    let mut events = vec![meta("process_name", 0, workload)];
    let mut offset_us = 0.0;
    let mut next_id = 0u64;
    for (tid, (label, tracer)) in (1u64..).zip(phases) {
        events.push(meta("thread_name", tid, label));
        let base = next_id;
        let mut end_us = offset_us;
        for (i, s) in tracer.spans().iter().enumerate() {
            let id = base + i as u64;
            let mut args = BTreeMap::from([
                ("id".to_string(), Value::UInt(id)),
                ("layer".to_string(), Value::Str(s.layer.to_string())),
                ("workload".to_string(), Value::Str(workload.to_string())),
            ]);
            if let Some(p) = s.parent {
                args.insert("parent".to_string(), Value::UInt(base + p as u64));
            }
            let ts = offset_us + s.start_s * 1e6;
            end_us = f64::max(end_us, ts + s.dur_s() * 1e6);
            events.push(TraceEvent {
                name: s.name.clone(),
                cat: s.layer.to_string(),
                ph: "X".to_string(),
                ts,
                dur: s.dur_s() * 1e6,
                pid: 1,
                tid,
                args,
            });
        }
        next_id += tracer.spans().len() as u64;
        offset_us = end_us;
    }
    ChromeTrace { traceEvents: events, displayTimeUnit: "ms".to_string() }.to_json()
}

/// Check a rendered trace with the validator behind `dsv3 check-trace`.
pub fn validate(json: &str) -> Result<usize, String> {
    validate_chrome_trace(json).map(|s| s.spans)
}
