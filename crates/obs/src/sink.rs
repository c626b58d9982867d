//! The sink trait decoupling metric producers from consumers.

use std::time::Duration;

use crate::report::MetricsReport;

/// Something metrics can be reported into.
///
/// Producers (the closure engine, the query engine, the CLI driver) only
/// ever see `&mut dyn MetricsSink`; whether the values end up in a table
/// or a JSON blob is the caller's choice. Every method has a no-op default
/// so a sink may care about only one signal kind.
pub trait MetricsSink {
    /// A monotone count observed at value `value`.
    fn counter(&mut self, _name: &str, _value: u64) {}

    /// A point-in-time measurement (ratios, sizes, headroom).
    fn gauge(&mut self, _name: &str, _value: f64) {}

    /// A completed timed span.
    fn span(&mut self, _name: &str, _wall: Duration) {}
}

/// A sink that materialises everything it sees into a [`MetricsReport`].
///
/// Repeated counter reports keep the **latest** value (producers report
/// running totals, not deltas); repeated spans accumulate.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    report: MetricsReport,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Consume the recorder, yielding the collected report.
    pub fn into_report(self) -> MetricsReport {
        self.report
    }

    /// Borrow the report collected so far.
    pub fn report(&self) -> &MetricsReport {
        &self.report
    }
}

impl MetricsSink for Recorder {
    fn counter(&mut self, name: &str, value: u64) {
        self.report.set_counter(name, value);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.report.set_gauge(name, value);
    }

    fn span(&mut self, name: &str, wall: Duration) {
        self.report.add_span(name, wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_latest_counter_and_sums_spans() {
        let mut r = Recorder::new();
        r.counter("terms", 10);
        r.counter("terms", 25);
        r.span("closure", Duration::from_millis(2));
        r.span("closure", Duration::from_millis(3));
        let report = r.into_report();
        assert_eq!(report.counter("terms"), Some(25));
        assert_eq!(report.span("closure"), Some(Duration::from_millis(5)));
    }
}
