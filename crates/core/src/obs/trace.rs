//! Streaming event traces: one JSON object per line (JSONL), suitable for
//! offline analysis with any line-oriented tooling.
//!
//! [`Event::write_jsonl`] is the one encoder of event lines. Every producer
//! uses it: [`JsonlTraceObserver`], the `webmon serve` event hub (whose
//! per-chronon block feeds the `--trace-out` file, every attached socket and
//! the journal's frames), so all of them carry the same bytes. A line is the
//! externally tagged object `serde_json` would print for the event —
//! variant name as the key, fields in declaration order, no spaces — plus
//! `\n`, and [`replay_events`](super::replay_events) parses it back.

use super::{Event, Observer};
use std::io::Write;

impl Event {
    /// Appends the event's JSONL line — e.g.
    /// `{"ProbeIssued":{"t":4,"resource":17,"cost":1,"shared_eis":2}}` and a
    /// newline — to `out`, allocating nothing beyond `out`'s growth.
    ///
    /// Event fields are only `u32`s, ids and one `bool`, so nothing needs
    /// escaping. The match has no catch-all arm: a new variant does not
    /// compile until it is encoded here.
    pub fn write_jsonl(&self, out: &mut String) {
        let line = Line::open(out, self.kind());
        match *self {
            Event::ChrononStart { t, budget } => line.u32("t", t).u32("budget", budget),
            Event::CandidateSet { t, size } => line.u32("t", t).u32("size", size),
            Event::ProbeIssued {
                t,
                resource,
                cost,
                shared_eis,
            } => line
                .u32("t", t)
                .u32("resource", resource.0)
                .u32("cost", cost)
                .u32("shared_eis", shared_eis),
            Event::EiCaptured { t, cei, latency } => {
                line.u32("t", t).u32("cei", cei.0).u32("latency", latency)
            }
            Event::CeiCompleted { cei, at }
            | Event::CeiExpired { cei, at }
            | Event::CeiShed { cei, at }
            | Event::CeiRegistered { cei, at }
            | Event::CeiCancelled { cei, at } => line.u32("cei", cei.0).u32("at", at),
            Event::BudgetExhausted { t, deferred } => line.u32("t", t).u32("deferred", deferred),
            Event::ChrononEnd { t, spent, budget } => {
                line.u32("t", t).u32("spent", spent).u32("budget", budget)
            }
            Event::ProbeFailed {
                t,
                resource,
                cost,
                attempt,
                charged,
            } => line
                .u32("t", t)
                .u32("resource", resource.0)
                .u32("cost", cost)
                .u32("attempt", attempt)
                .bool("charged", charged),
            Event::ProbeRetried {
                t,
                resource,
                attempt,
            } => line
                .u32("t", t)
                .u32("resource", resource.0)
                .u32("attempt", attempt),
            Event::ResourceDown { t, resource, until } => line
                .u32("t", t)
                .u32("resource", resource.0)
                .u32("until", until),
            Event::ResourceUp { t, resource } => line.u32("t", t).u32("resource", resource.0),
            Event::BudgetReconfigured { t, budget } => line.u32("t", t).u32("budget", budget),
        }
        .close();
    }
}

/// One event line under construction: `{"Kind":{` is written on open, each
/// field appends `"name":value` (comma-separated), and close writes `}}\n`.
struct Line<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> Line<'a> {
    fn open(out: &'a mut String, kind: &str) -> Self {
        out.push_str("{\"");
        out.push_str(kind);
        out.push_str("\":{");
        Line { out, first: true }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
    }

    fn u32(mut self, name: &str, mut value: u32) -> Self {
        self.key(name);
        let mut digits = [0u8; 10];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        self.out
            .extend(digits[start..].iter().copied().map(char::from));
        self
    }

    fn bool(mut self, name: &str, value: bool) -> Self {
        self.key(name);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    fn close(self) {
        self.out.push_str("}}\n");
    }
}

/// Streams every event as one externally-tagged JSON line to a writer —
/// e.g. `{"ProbeIssued":{"t":4,"resource":17,"cost":1,"shared_eis":2}}` —
/// encoded by [`Event::write_jsonl`] into a reused buffer and handed to the
/// writer in one `write_all`.
///
/// The observer buffers through whatever `W` provides (wrap files in a
/// [`std::io::BufWriter`]); call [`finish`](Self::finish) to flush and
/// recover the writer. Write errors are counted, not propagated — the
/// engine hot loop has no error channel, and a best-effort trace must
/// never abort a run.
#[derive(Debug)]
pub struct JsonlTraceObserver<W: Write> {
    writer: W,
    line: String,
    events_written: u64,
    write_errors: u64,
}

impl<W: Write> JsonlTraceObserver<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlTraceObserver {
            writer,
            line: String::new(),
            events_written: 0,
            write_errors: 0,
        }
    }

    /// Events successfully written so far.
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Write attempts that failed (the trace is best-effort).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Flushes and returns the writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> Observer for JsonlTraceObserver<W> {
    fn on_event(&mut self, event: Event) {
        self.line.clear();
        event.write_jsonl(&mut self.line);
        match self.writer.write_all(self.line.as_bytes()) {
            Ok(()) => self.events_written += 1,
            Err(_) => self.write_errors += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{CeiId, ResourceId};
    use crate::obs::replay_events;
    use proptest::prelude::*;

    #[test]
    fn events_stream_as_one_json_line_each() {
        let mut obs = JsonlTraceObserver::new(Vec::new());
        obs.on_event(Event::ChrononStart { t: 0, budget: 2 });
        obs.on_event(Event::ProbeIssued {
            t: 0,
            resource: ResourceId(3),
            cost: 1,
            shared_eis: 2,
        });
        obs.on_event(Event::CeiCompleted {
            cei: CeiId(7),
            at: 0,
        });
        assert_eq!(obs.events_written(), 3);
        assert_eq!(obs.write_errors(), 0);
        let out = String::from_utf8(obs.finish().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("ChrononStart"));
        assert!(lines[1].contains("ProbeIssued"));
        assert!(lines[1].contains("\"shared_eis\""));
        // Every line parses back as JSON.
        for line in lines {
            let _: serde_json::Value = serde_json::from_str(line).unwrap();
        }
    }

    #[test]
    fn write_errors_are_counted_not_fatal() {
        /// A writer that always fails.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut obs = JsonlTraceObserver::new(Broken);
        obs.on_event(Event::ChrononStart { t: 0, budget: 1 });
        assert_eq!(obs.events_written(), 0);
        assert_eq!(obs.write_errors(), 1);
    }

    /// Each event is handed to the writer in one `write_all`, so an
    /// unbuffered writer sees one write per event.
    #[test]
    fn each_event_is_one_write() {
        struct Counting(Vec<usize>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let events = [
            Event::ChrononStart { t: 12, budget: 1 },
            Event::ChrononEnd {
                t: 12,
                spent: 0,
                budget: 1,
            },
        ];
        let mut obs = JsonlTraceObserver::new(Counting(Vec::new()));
        let mut lens = Vec::new();
        for event in events {
            obs.on_event(event);
            let mut line = String::new();
            event.write_jsonl(&mut line);
            lens.push(line.len());
        }
        assert_eq!(obs.finish().unwrap().0, lens);
    }

    /// One golden line per variant: the wire format the trace file, the
    /// socket stream and the journal frames all carry (the externally
    /// tagged `serde_json` form), at both ends of the `u32` range and with
    /// both values of `charged`.
    #[test]
    fn every_variant_encodes_to_its_golden_line() {
        const MAX: u32 = u32::MAX;
        let golden = [
            (
                Event::ChrononStart { t: 0, budget: MAX },
                r#"{"ChrononStart":{"t":0,"budget":4294967295}}"#,
            ),
            (
                Event::CandidateSet { t: MAX, size: 0 },
                r#"{"CandidateSet":{"t":4294967295,"size":0}}"#,
            ),
            (
                Event::ProbeIssued {
                    t: 4,
                    resource: ResourceId(MAX),
                    cost: 1,
                    shared_eis: 10,
                },
                r#"{"ProbeIssued":{"t":4,"resource":4294967295,"cost":1,"shared_eis":10}}"#,
            ),
            (
                Event::EiCaptured {
                    t: 9,
                    cei: CeiId(MAX),
                    latency: 0,
                },
                r#"{"EiCaptured":{"t":9,"cei":4294967295,"latency":0}}"#,
            ),
            (
                Event::CeiCompleted {
                    cei: CeiId(0),
                    at: MAX,
                },
                r#"{"CeiCompleted":{"cei":0,"at":4294967295}}"#,
            ),
            (
                Event::CeiExpired {
                    cei: CeiId(123),
                    at: 45,
                },
                r#"{"CeiExpired":{"cei":123,"at":45}}"#,
            ),
            (
                Event::BudgetExhausted {
                    t: 100,
                    deferred: MAX,
                },
                r#"{"BudgetExhausted":{"t":100,"deferred":4294967295}}"#,
            ),
            (
                Event::ChrononEnd {
                    t: MAX,
                    spent: 1000000,
                    budget: 999999,
                },
                r#"{"ChrononEnd":{"t":4294967295,"spent":1000000,"budget":999999}}"#,
            ),
            (
                Event::ProbeFailed {
                    t: 3,
                    resource: ResourceId(2),
                    cost: MAX,
                    attempt: 0,
                    charged: true,
                },
                r#"{"ProbeFailed":{"t":3,"resource":2,"cost":4294967295,"attempt":0,"charged":true}}"#,
            ),
            (
                Event::ProbeFailed {
                    t: 0,
                    resource: ResourceId(0),
                    cost: 0,
                    attempt: MAX,
                    charged: false,
                },
                r#"{"ProbeFailed":{"t":0,"resource":0,"cost":0,"attempt":4294967295,"charged":false}}"#,
            ),
            (
                Event::ProbeRetried {
                    t: 7,
                    resource: ResourceId(8),
                    attempt: MAX,
                },
                r#"{"ProbeRetried":{"t":7,"resource":8,"attempt":4294967295}}"#,
            ),
            (
                Event::ResourceDown {
                    t: 1,
                    resource: ResourceId(5),
                    until: MAX,
                },
                r#"{"ResourceDown":{"t":1,"resource":5,"until":4294967295}}"#,
            ),
            (
                Event::ResourceUp {
                    t: MAX,
                    resource: ResourceId(MAX),
                },
                r#"{"ResourceUp":{"t":4294967295,"resource":4294967295}}"#,
            ),
            (
                Event::CeiShed {
                    cei: CeiId(MAX),
                    at: 10,
                },
                r#"{"CeiShed":{"cei":4294967295,"at":10}}"#,
            ),
            (
                Event::CeiRegistered {
                    cei: CeiId(1),
                    at: 2,
                },
                r#"{"CeiRegistered":{"cei":1,"at":2}}"#,
            ),
            (
                Event::CeiCancelled {
                    cei: CeiId(10),
                    at: 20,
                },
                r#"{"CeiCancelled":{"cei":10,"at":20}}"#,
            ),
            (
                Event::BudgetReconfigured { t: 5, budget: 0 },
                r#"{"BudgetReconfigured":{"t":5,"budget":0}}"#,
            ),
        ];
        let mut kinds: Vec<&str> = golden.iter().map(|(e, _)| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 16, "one golden line per variant");
        for (event, want) in golden {
            let mut line = String::new();
            event.write_jsonl(&mut line);
            assert_eq!(line, format!("{want}\n"), "{event:?}");
        }
    }

    /// Any event of any variant, with fields drawn across the whole `u32`
    /// range (small values and values near `u32::MAX` both likely).
    fn any_event() -> impl Strategy<Value = Event> {
        let n = || {
            (0u32..3, 0u32..=u32::MAX).prop_map(|(scale, v)| match scale {
                0 => v % 16,
                1 => u32::MAX - v % 16,
                _ => v,
            })
        };
        (0u8..16, n(), n(), n(), n(), 0u8..2).prop_map(|(kind, a, b, c, d, flag)| {
            let (r, cei) = (ResourceId(b), CeiId(a));
            match kind {
                0 => Event::ChrononStart { t: a, budget: b },
                1 => Event::CandidateSet { t: a, size: b },
                2 => Event::ProbeIssued {
                    t: a,
                    resource: r,
                    cost: c,
                    shared_eis: d,
                },
                3 => Event::EiCaptured {
                    t: b,
                    cei,
                    latency: c,
                },
                4 => Event::CeiCompleted { cei, at: b },
                5 => Event::CeiExpired { cei, at: b },
                6 => Event::BudgetExhausted { t: a, deferred: b },
                7 => Event::ChrononEnd {
                    t: a,
                    spent: b,
                    budget: c,
                },
                8 => Event::ProbeFailed {
                    t: a,
                    resource: r,
                    cost: c,
                    attempt: d,
                    charged: flag == 1,
                },
                9 => Event::ProbeRetried {
                    t: a,
                    resource: r,
                    attempt: c,
                },
                10 => Event::ResourceDown {
                    t: a,
                    resource: r,
                    until: c,
                },
                11 => Event::ResourceUp { t: a, resource: r },
                12 => Event::CeiShed { cei, at: b },
                13 => Event::CeiRegistered { cei, at: b },
                14 => Event::CeiCancelled { cei, at: b },
                _ => Event::BudgetReconfigured { t: a, budget: b },
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The encoder and the trace parser are inverses: any encoded event
        /// sequence replays to exactly that sequence.
        #[test]
        fn encoded_sequences_replay_to_themselves(
            events in proptest::collection::vec(any_event(), 0..64)
        ) {
            let mut trace = String::new();
            for event in &events {
                event.write_jsonl(&mut trace);
            }
            prop_assert_eq!(replay_events(&trace).unwrap(), events);
        }
    }
}
