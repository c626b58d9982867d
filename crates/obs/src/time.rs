//! Wall-clock phase timing.

use std::time::{Duration, Instant};

/// A started wall-clock timer.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Restart and return the lap time.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.start;
        self.start = now;
        lap
    }
}

impl Default for Stopwatch {
    fn default() -> Stopwatch {
        Stopwatch::start()
    }
}

/// An ordered record of named phase durations. Repeated names accumulate,
/// so per-requirement phases (one closure per user) sum naturally.
#[derive(Clone, Debug, Default)]
pub struct Phases {
    entries: Vec<(String, Duration)>,
}

impl Phases {
    /// An empty record.
    pub fn new() -> Phases {
        Phases::default()
    }

    /// Time a closure under `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let sw = Stopwatch::start();
        let out = f();
        self.add(name, sw.elapsed());
        out
    }

    /// Record (or accumulate onto) a named duration.
    pub fn add(&mut self, name: &str, d: Duration) {
        if let Some((_, total)) = self.entries.iter_mut().find(|(n, _)| n == name) {
            *total += d;
        } else {
            self.entries.push((name.to_owned(), d));
        }
    }

    /// The recorded duration of one phase, if present.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| *d)
    }

    /// Iterate phases in recording order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Duration)> {
        self.entries.iter().map(|(n, d)| (n.as_str(), *d))
    }

    /// Total across all phases.
    pub fn total(&self) -> Duration {
        self.entries.iter().map(|(_, d)| *d).sum()
    }

    /// Is anything recorded?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Report every phase into a sink as a span.
    pub fn record_to(&self, sink: &mut dyn crate::sink::MetricsSink) {
        for (name, d) in self.iter() {
            sink.span(name, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_keep_order() {
        let mut p = Phases::new();
        p.add("parse", Duration::from_millis(2));
        p.add("closure", Duration::from_millis(5));
        p.add("parse", Duration::from_millis(3));
        let names: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["parse", "closure"]);
        assert_eq!(p.get("parse"), Some(Duration::from_millis(5)));
        assert_eq!(p.total(), Duration::from_millis(10));
    }

    #[test]
    fn time_returns_the_closure_value() {
        let mut p = Phases::new();
        let v = p.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert!(p.get("work").is_some());
    }

    #[test]
    fn stopwatch_laps() {
        let mut sw = Stopwatch::start();
        let a = sw.lap();
        let b = sw.elapsed();
        assert!(a >= Duration::ZERO && b >= Duration::ZERO);
    }
}
