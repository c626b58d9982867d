//! Structured trace events: spans and instants on a monotonic timeline.
//!
//! The CLI's original `--trace` printed ad-hoc lines to stderr, which
//! interleaved badly with `--metrics` output and could not be loaded into
//! any timeline viewer. This module replaces those lines with a proper
//! event model: a [`TraceBuffer`] collects [`TraceEvent`]s — *complete
//! spans* (name + start + duration) and *instants* (name + timestamp) —
//! stamped with microseconds since the buffer's creation, and encodes
//! them in two formats:
//!
//! * [`TraceFormat::Jsonl`] — one JSON object per line, greppable and
//!   streamable;
//! * [`TraceFormat::Chrome`] — the Chrome `trace_event` JSON object form
//!   (`{"traceEvents": [...]}`), loadable in `about://tracing` and
//!   [Perfetto](https://ui.perfetto.dev). Spans use phase `"X"`
//!   (complete events), instants phase `"i"`; timestamps and durations
//!   are microseconds as the format requires.
//!
//! Thread ids (`tid`) are logical lanes, not OS threads: the CLI assigns
//! one lane per batch group so per-user closures render as parallel
//! tracks even when they ran on a work-stealing pool.

use std::time::{Duration, Instant};

use crate::json::Json;

/// The wire encoding of a trace dump.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line.
    #[default]
    Jsonl,
    /// Chrome `trace_event` object form, Perfetto-loadable.
    Chrome,
}

impl TraceFormat {
    /// Parse a `--trace-format=` value.
    pub fn parse(s: &str) -> Option<TraceFormat> {
        match s {
            "jsonl" => Some(TraceFormat::Jsonl),
            "chrome" => Some(TraceFormat::Chrome),
            _ => None,
        }
    }

    /// The flag spelling (`jsonl` / `chrome`).
    pub fn name(&self) -> &'static str {
        match self {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Chrome => "chrome",
        }
    }
}

/// One event on the timeline. `dur_us: Some(_)` makes it a complete span,
/// `None` an instant.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name (e.g. `closure`, `check`).
    pub name: String,
    /// Category, used by viewers for filtering (e.g. `phase`, `group`).
    pub cat: &'static str,
    /// Logical lane: 0 for the driver, one lane per batch group.
    pub tid: u64,
    /// Microseconds since the buffer's origin.
    pub ts_us: u64,
    /// Span duration in microseconds; `None` for instants.
    pub dur_us: Option<u64>,
    /// Structured payload rendered under `"args"`.
    pub args: Vec<(String, Json)>,
}

impl TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".to_owned(), Json::str(&self.name)),
            ("cat".to_owned(), Json::str(self.cat)),
            (
                "ph".to_owned(),
                Json::str(if self.dur_us.is_some() { "X" } else { "i" }),
            ),
            ("ts".to_owned(), Json::count(self.ts_us)),
        ];
        if let Some(dur) = self.dur_us {
            fields.push(("dur".to_owned(), Json::count(dur)));
        } else {
            // Instant scope: thread-scoped, the narrowest marker.
            fields.push(("s".to_owned(), Json::str("t")));
        }
        fields.push(("pid".to_owned(), Json::count(1)));
        fields.push(("tid".to_owned(), Json::count(self.tid)));
        if !self.args.is_empty() {
            fields.push(("args".to_owned(), Json::Obj(self.args.clone())));
        }
        Json::Obj(fields)
    }
}

/// An append-only collection of trace events with a monotonic origin.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    origin: Instant,
    events: Vec<TraceEvent>,
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::new()
    }
}

impl TraceBuffer {
    /// An empty buffer whose clock starts now.
    pub fn new() -> TraceBuffer {
        TraceBuffer {
            origin: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Microseconds elapsed since the buffer was created. Monotonic.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Record a complete span starting at `ts_us` and lasting `dur`.
    pub fn span(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        dur: Duration,
        args: Vec<(String, Json)>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            tid,
            ts_us,
            dur_us: Some(dur.as_micros() as u64),
            args,
        });
    }

    /// Record an instant marker at `ts_us`.
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        tid: u64,
        ts_us: u64,
        args: Vec<(String, Json)>,
    ) {
        self.events.push(TraceEvent {
            name: name.into(),
            cat,
            tid,
            ts_us,
            dur_us: None,
            args,
        });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, in append order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Encode in the requested format.
    pub fn encode(&self, format: TraceFormat) -> String {
        match format {
            TraceFormat::Jsonl => self.to_jsonl(),
            TraceFormat::Chrome => self.to_chrome(),
        }
    }

    /// One compact JSON object per line, one line per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json().to_string());
            out.push('\n');
        }
        out
    }

    /// The Chrome `trace_event` object form: a single JSON document with
    /// a `traceEvents` array, loadable in Perfetto / `about://tracing`.
    pub fn to_chrome(&self) -> String {
        let events = Json::Arr(self.events.iter().map(TraceEvent::to_json).collect());
        Json::Obj(vec![
            ("traceEvents".to_owned(), events),
            ("displayTimeUnit".to_owned(), Json::str("ms")),
        ])
        .pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceBuffer {
        let mut tb = TraceBuffer::new();
        tb.span(
            "closure",
            "phase",
            1,
            10,
            Duration::from_micros(250),
            vec![("terms".to_owned(), Json::count(42))],
        );
        tb.instant("mark", "phase", 1, 260, vec![]);
        tb.span("check", "phase", 2, 300, Duration::from_micros(5), vec![]);
        tb
    }

    #[test]
    fn chrome_output_is_valid_trace_event_json() {
        let doc = Json::parse(&sample().to_chrome()).expect("chrome trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), 3);
        // Spans are complete events with ts+dur in microseconds.
        let span = &events[0];
        assert_eq!(span.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(span.get("ts").and_then(Json::as_u64), Some(10));
        assert_eq!(span.get("dur").and_then(Json::as_u64), Some(250));
        assert_eq!(span.get("pid").and_then(Json::as_u64), Some(1));
        assert_eq!(span.get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("terms"))
                .and_then(Json::as_u64),
            Some(42)
        );
        // Instants carry phase "i" and a scope.
        let inst = &events[1];
        assert_eq!(inst.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(inst.get("s").and_then(Json::as_str), Some("t"));
        assert!(inst.get("dur").is_none());
    }

    #[test]
    fn jsonl_output_is_one_valid_object_per_line() {
        let text = sample().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            let v = Json::parse(line).expect("each line parses alone");
            assert!(v.get("name").is_some() && v.get("ts").is_some());
        }
    }

    #[test]
    fn now_us_is_monotonic() {
        let tb = TraceBuffer::new();
        let a = tb.now_us();
        let b = tb.now_us();
        assert!(b >= a);
    }

    #[test]
    fn format_parses_flag_spellings() {
        assert_eq!(TraceFormat::parse("jsonl"), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("chrome"), Some(TraceFormat::Chrome));
        assert_eq!(TraceFormat::parse("xml"), None);
        assert_eq!(TraceFormat::Chrome.name(), "chrome");
    }

    #[test]
    fn empty_buffer_encodes_cleanly() {
        let tb = TraceBuffer::new();
        assert!(tb.is_empty());
        assert_eq!(tb.to_jsonl(), "");
        let doc = Json::parse(&tb.to_chrome()).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[_]>::len),
            Some(0)
        );
    }
}
