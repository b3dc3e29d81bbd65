//! In-memory spans and samples for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around calls
//! into each layer's public functions; the program itself is not
//! instrumented. A disabled [`Recorder`] records nothing, so the same
//! operation code serves the untraced and the traced run.

use crate::json::{number, quote};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (index into the recorder's span list, from 1).
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Span name: the layer call it wraps, or `op` for an operation.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans, per-occurrence samples and counters of one traced run.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    /// A recorder that records when `enabled`, and ignores every call
    /// otherwise.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Whether this recorder records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (the traced run alternates traced and
    /// untraced operations).
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans only");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its
    /// duration in milliseconds; 0 when disabled.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn end(&mut self, id: u32) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.ms()
    }

    /// Records one occurrence of metric `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// The occurrences of metric `name` recorded so far, in order.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Whether metric `name` has any occurrence yet.
    pub fn has(&self, name: &str) -> bool {
        !self.samples(name).is_empty()
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id` in milliseconds: its duration minus the
    /// part of it its direct children cover.
    pub fn self_ms(&self, id: u32) -> f64 {
        let span = &self.spans[id as usize - 1];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            let end = end.min(span.end_ns);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (span.end_ns - span.start_ns - covered) as f64 / 1e6
    }

    /// Per span name: occurrence count, total and self milliseconds.
    pub fn layer_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += self.self_ms(s.id);
        }
        out
    }

    /// The whole trace as JSON: the environment block, spans, samples,
    /// and per-name self times.
    pub fn to_json(&self, env_json: &str, metrics: &[(&str, f64)]) -> String {
        let mut s = format!("{{\n\"env\": {env_json},\n\"metrics\": {{");
        let rows: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), number(*v)))
            .collect();
        s.push_str(&rows.join(", "));
        s.push_str("},\n\"layer_times_ms\": {");
        let rows: Vec<String> = self
            .layer_times()
            .iter()
            .map(|(name, (count, total, own))| {
                format!(
                    "{}: {{\"count\": {count}, \"total\": {}, \"self\": {}}}",
                    quote(name),
                    number(*total),
                    number(*own)
                )
            })
            .collect();
        s.push_str(&rows.join(", "));
        s.push_str("},\n\"samples\": {");
        let rows: Vec<String> = self
            .samples
            .iter()
            .map(|(name, xs)| {
                let vals: Vec<String> = xs.iter().map(|x| number(*x)).collect();
                format!("{}: [{}]", quote(name), vals.join(", "))
            })
            .collect();
        s.push_str(&rows.join(",\n  "));
        s.push_str("},\n\"spans\": [\n");
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|sp| {
                format!(
                    "  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    sp.id,
                    sp.parent.map_or("null".to_string(), |p| p.to_string()),
                    quote(sp.name),
                    sp.start_ns,
                    sp.end_ns
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.begin("op");
        r.sample("x", 1.0);
        assert_eq!(r.end(id), 0.0);
        assert!(r.spans().is_empty());
        assert!(!r.has("x"));
    }

    #[test]
    fn nesting_and_self_time() {
        let mut r = Recorder::new(true);
        let op = r.begin("op");
        let a = r.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(a);
        let b = r.begin("b");
        r.end(b);
        r.end(op);
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(op));
        assert_eq!(spans[2].parent, Some(op));
        let own = r.self_ms(op);
        let children = spans[1].ms() + spans[2].ms();
        assert!((own + children - spans[0].ms()).abs() < 1e-9);
        assert!(own >= 0.0);
        let times = r.layer_times();
        assert_eq!(times["a"].0, 1);
    }
}
