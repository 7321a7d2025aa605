//! Chrome trace-event serialization.
//!
//! Emits the JSON Object Format of the Trace Event spec: a `traceEvents`
//! array of complete (`"ph":"X"`) events plus `thread_name` metadata, one
//! *thread* (track) per pipeline stage, so `chrome://tracing` and Perfetto
//! render each stage as its own row with passes nested inside it by time.
//! Counter tracks (`"ph":"C"`) can ride along via
//! [`chrome_trace_with_counters`], rendering as stacked area charts.

use crate::json::escape;
use crate::SpanRecord;

/// One sample on a Chrome counter track (`"ph":"C"`): the values of one or
/// more named series at a point in time. Consecutive points on the same
/// track draw as a step chart in the viewer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterPoint {
    /// Counter track name (the `name` of the `"C"` event).
    pub track: String,
    /// Sample time in nanoseconds since the process epoch.
    pub ts_ns: u64,
    /// `(series, value)` pairs plotted together on this track.
    pub series: Vec<(String, u64)>,
}

/// Serialize spans as a Chrome trace-event JSON document.
///
/// Tracks are assigned `pid` 1 and thread ids 1, 2, … in order of first
/// appearance, each with one `thread_name` metadata record so viewers show
/// stage names instead of numeric tids. Timestamps are microseconds with
/// nanosecond precision kept in the fraction.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    chrome_trace_with_counters(spans, &[])
}

/// [`chrome_trace`] plus counter (`"ph":"C"`) events appended after the
/// span events, sorted by timestamp then input order, on pid 1, tid 0
/// (counters are process-scoped in the viewer). Series values are emitted
/// in the order given on each [`CounterPoint`].
pub fn chrome_trace_with_counters(spans: &[SpanRecord], counters: &[CounterPoint]) -> String {
    let mut tracks: Vec<&str> = Vec::new();
    for s in spans {
        if !tracks.iter().any(|t| *t == s.track) {
            tracks.push(&s.track);
        }
    }
    let tid_of = |track: &str| tracks.iter().position(|t| *t == track).unwrap() + 1;

    let mut events: Vec<String> = Vec::new();
    for (i, t) in tracks.iter().enumerate() {
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{},"args":{{"name":"{}"}}}}"#,
            i + 1,
            escape(t)
        ));
    }

    // Sort by start time so viewers that expect ordered input are happy.
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
    for s in ordered {
        let mut args = String::new();
        for (k, v) in &s.args {
            if !args.is_empty() {
                args.push(',');
            }
            args.push_str(&format!(r#""{}":"{}""#, escape(k), escape(v)));
        }
        let tid = tid_of(&s.track);
        events.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"X","ts":{:.3},"dur":{:.3},"pid":1,"tid":{tid},"args":{{{}}}}}"#,
            escape(&s.name),
            escape(&s.track),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            args
        ));
    }

    let mut ordered_counters: Vec<&CounterPoint> = counters.iter().collect();
    ordered_counters.sort_by_key(|c| c.ts_ns);
    for c in ordered_counters {
        let mut args = String::new();
        for (k, v) in &c.series {
            if !args.is_empty() {
                args.push(',');
            }
            args.push_str(&format!(r#""{}":{v}"#, escape(k)));
        }
        events.push(format!(
            r#"{{"name":"{}","ph":"C","ts":{:.3},"pid":1,"tid":0,"args":{{{}}}}}"#,
            escape(&c.track),
            c.ts_ns as f64 / 1e3,
            args
        ));
    }

    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn record(track: &str, name: &str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            track: track.into(),
            name: name.into(),
            start_ns,
            dur_ns,
            depth: 0,
            args: vec![("k".into(), "v\"1".into())],
        }
    }

    #[test]
    fn trace_parses_and_has_one_track_per_stage() {
        let spans = vec![
            record("parse", "parse file", 0, 1_000),
            record("opt", "pass cse", 2_000, 500),
            record("opt", "pass fold", 2_600, 400),
        ];
        let text = chrome_trace(&spans);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata + 3 spans.
        assert_eq!(events.len(), 5);
        let metas: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .collect();
        assert_eq!(metas.len(), 2);
        let span_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(span_events.len(), 3);
        // Both opt spans share a tid, distinct from parse's.
        let tid_of = |name: &str| {
            span_events
                .iter()
                .find(|e| e.get("name").unwrap().as_str() == Some(name))
                .unwrap()
                .get("tid")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(tid_of("pass cse"), tid_of("pass fold"));
        assert_ne!(tid_of("parse file"), tid_of("pass cse"));
        // Microsecond timestamps preserve sub-µs precision.
        let cse = span_events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("pass cse"))
            .unwrap();
        assert_eq!(cse.get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(cse.get("dur").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let doc = json::parse(&chrome_trace(&[])).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn default_tracks_keep_sequential_tids() {
        // One track per stage: pid 1, tids 1.. in order of first appearance.
        let spans = vec![
            record("parse", "parse file", 0, 1_000),
            record("opt", "pass cse", 2_000, 500),
        ];
        let text = chrome_trace(&spans);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        for e in events {
            assert_eq!(e.get("pid").unwrap().as_f64(), Some(1.0));
        }
        let tid_of = |name: &str| {
            events
                .iter()
                .find(|e| {
                    e.get("ph").and_then(|p| p.as_str()) == Some("X")
                        && e.get("name").unwrap().as_str() == Some(name)
                })
                .unwrap()
                .get("tid")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(tid_of("parse file"), 1.0);
        assert_eq!(tid_of("pass cse"), 2.0);
    }

    #[test]
    fn counter_events_parse_and_sort_by_time() {
        let spans = vec![record("sim", "run", 0, 10_000)];
        let counters = vec![
            CounterPoint {
                track: "sched/dirty".into(),
                ts_ns: 4_000,
                series: vec![("cones".into(), 3)],
            },
            CounterPoint {
                track: "sched/dirty".into(),
                ts_ns: 1_000,
                series: vec![("cones".into(), 5)],
            },
        ];
        let text = chrome_trace_with_counters(&spans, &counters);
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let cs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .collect();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(cs[1].get("ts").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            cs[0].get("args").unwrap().get("cones").unwrap().as_f64(),
            Some(5.0)
        );
        assert_eq!(cs[0].get("name").unwrap().as_str(), Some("sched/dirty"));
    }
}
