//! Harness-side spans: the benchmark's own record of every public call it
//! makes into the engine. A span has a name, a start, an end, the span
//! that caused it, and the id of the query it belongs to. Spans stay in
//! memory until the run ends, then go out as Chrome-trace JSON.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// What the span worked on (`Q1/cpu t=2`, `wave 7`).
    pub subject: String,
    /// One id per query (or per wave, for the wave-level spans).
    pub query: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    next_query: u32,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new(), next_query: 0 }
    }

    pub fn fresh_query(&mut self) -> u32 {
        self.next_query += 1;
        self.next_query
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds after the log's origin of an instant at or after it.
    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span; [`SpanLog::close`] ends it.
    pub fn open(
        &mut self,
        name: &'static str,
        subject: &str,
        query: u32,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            subject: subject.to_string(),
            query,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close a span; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Record a span measured elsewhere.
    pub fn record(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span under `parent`; returns its result and seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        subject: &str,
        query: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, subject, query, parent);
        let out = f();
        (out, self.close(id))
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace / Perfetto JSON: one complete ("X") event per span,
    /// one track per query id, times in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str("harness")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.query))),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                            ("query", Json::Num(f64::from(s.query))),
                            ("subject", Json::str(s.subject.clone())),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Arr(events).to_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_nest_and_export() {
        let mut log = SpanLog::new();
        let q = log.fresh_query();
        let root = log.open("query", "Q1/cpu \"t\"=2", q, None);
        let ((), inner) = log.time("lower", "Q1/cpu", q, Some(root), || {});
        let outer = log.close(root);
        assert!(outer >= inner);
        let child = &log.spans()[1];
        assert_eq!(child.parent, Some(root));
        assert!(log.spans()[root].start_ns <= child.start_ns);
        assert!(child.end_ns <= log.spans()[root].end_ns);
        let parsed = json::parse(&log.to_chrome_json()).unwrap();
        let events = parsed.as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("lower"));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("subject")).and_then(Json::as_str),
            Some("Q1/cpu \"t\"=2")
        );
    }
}
