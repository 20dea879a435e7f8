//! Registry-level tests: cross-thread counter merging, span
//! nesting/ordering, disabled-mode no-op behavior, and a JSONL round-trip
//! of every exported line.
//!
//! Every test drives the *global* registry through
//! [`sca_telemetry::collect`], which serializes concurrent collections, so
//! the suite is safe under parallel test execution.

use sca_telemetry::{
    collect, counter, parse_line, record, set_enabled, span, write_jsonl, AttrValue, Record,
};

#[test]
fn counters_merge_across_threads() {
    let ((), snap) = collect(|| {
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        counter("threads.total", 1);
                    }
                    counter("threads.joined", 1);
                });
            }
        });
    });
    assert_eq!(snap.counters["threads.total"], 8000);
    assert_eq!(snap.counters["threads.joined"], 8);
}

#[test]
fn spans_nest_and_complete_in_drop_order() {
    let ((), snap) = collect(|| {
        let mut outer = span("outer");
        outer.attr("k", "v");
        {
            let _inner1 = span("inner");
            // sibling opened after inner1 closed
        }
        let _inner2 = span("inner");
        // inner2 then outer drop here, in LIFO order
    });

    assert_eq!(snap.spans.len(), 3);
    // completion order: inner, inner, outer
    let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["inner", "inner", "outer"]);

    let outer = snap.spans_named("outer").next().expect("outer span");
    assert_eq!(outer.parent, None);
    assert_eq!(outer.attr("k"), Some(&AttrValue::Str("v".into())));
    for inner in snap.spans_named("inner") {
        assert_eq!(inner.parent, Some(outer.id), "inner must nest under outer");
        assert!(inner.id > outer.id, "children get later ids");
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.duration_ns <= outer.duration_ns);
    }

    // every completed span feeds a duration histogram under its name
    assert_eq!(snap.histograms["inner"].count(), 2);
    assert_eq!(snap.histograms["outer"].count(), 1);
}

#[test]
fn spans_on_other_threads_are_roots() {
    let ((), snap) = collect(|| {
        let _outer = span("outer");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _t = span("threaded");
            });
        });
    });
    let threaded = snap.spans_named("threaded").next().expect("threaded span");
    // the span stack is thread-local: no cross-thread parenting
    assert_eq!(threaded.parent, None);
}

#[test]
fn spans_from_threads_outside_the_collect_stay_out() {
    use std::sync::mpsc;
    // A thread that exists before the collect begins and records while
    // it runs — a sibling test classifying outside any collect — must not
    // leak spans into the snapshot. Its counters still merge.
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let outsider = std::thread::spawn(move || {
        go_rx.recv().expect("go");
        {
            let _sp = span("outsider");
        }
        counter("outsider.counter", 1);
        done_tx.send(()).expect("done");
    });
    let ((), snap) = collect(|| {
        let _own = span("own");
        go_tx.send(()).expect("go");
        done_rx.recv().expect("done");
        std::thread::scope(|scope| {
            scope.spawn(|| drop(span("spawned")));
        });
    });
    outsider.join().expect("outsider");
    assert_eq!(snap.spans_named("outsider").count(), 0);
    assert!(!snap.histograms.contains_key("outsider"));
    assert_eq!(snap.spans_named("own").count(), 1);
    assert_eq!(snap.spans_named("spawned").count(), 1);
    assert_eq!(snap.counters["outsider.counter"], 1);
}

#[test]
fn disabled_registry_records_nothing() {
    let ((), snap) = collect(|| {
        set_enabled(false);
        let mut sp = span("ghost");
        assert!(!sp.is_recording());
        sp.attr("k", 1u64);
        counter("ghost.counter", 5);
        record("ghost.hist", 42);
    });
    assert!(snap.spans.is_empty());
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

#[test]
fn jsonl_round_trips_every_line() {
    let ((), snap) = collect(|| {
        {
            let mut sp = span("parent");
            sp.attr("uint", 7u64);
            sp.attr("float", 0.25f64);
            sp.attr("text", "hello \"quoted\"\nline");
            sp.attr("flag", true);
            let _child = span("child");
        }
        counter("c.one", 11);
        // JSON numbers are f64: counters round-trip exactly up to ~2^53
        counter("c.two", 1u64 << 52);
        for v in [1u64, 5, 100, 10_000, 1_000_000] {
            record("h", v);
        }
    });

    let mut buf = Vec::new();
    write_jsonl(&snap, &mut buf).expect("write");
    let text = String::from_utf8(buf).expect("utf8");

    let mut spans = Vec::new();
    let mut counters = Vec::new();
    let mut hists = Vec::new();
    for line in text.lines() {
        match parse_line(line).expect("every exported line parses back") {
            Record::Span(s) => spans.push(s),
            Record::Counter { name, value } => counters.push((name, value)),
            Record::Histogram {
                name,
                count,
                min,
                max,
                p50,
                p90,
                p99,
                ..
            } => {
                hists.push((name, count, min, max, p50, p90, p99));
            }
            other @ (Record::Gauge { .. } | Record::Request(_)) => {
                panic!("no gauges or requests were recorded, got {other:?}")
            }
        }
    }

    // spans round-trip exactly (attr value types are canonical on export)
    assert_eq!(spans.len(), snap.spans.len());
    for (parsed, original) in spans.iter().zip(&snap.spans) {
        assert_eq!(parsed.id, original.id);
        assert_eq!(parsed.parent, original.parent);
        assert_eq!(parsed.name, original.name);
        assert_eq!(parsed.start_ns, original.start_ns);
        assert_eq!(parsed.duration_ns, original.duration_ns);
        assert_eq!(parsed.attrs.len(), original.attrs.len());
        for ((pk, pv), (ok, ov)) in parsed.attrs.iter().zip(&original.attrs) {
            assert_eq!(pk, ok);
            match (pv.as_str(), ov.as_str()) {
                (Some(p), Some(o)) => assert_eq!(p, o),
                _ => assert_eq!(pv.as_f64(), ov.as_f64(), "attr {pk} value mismatch"),
            }
        }
    }

    assert_eq!(counters.len(), snap.counters.len());
    for (name, value) in counters {
        assert_eq!(snap.counters[&name], value);
    }

    // histogram summaries round-trip
    for (name, count, min, max, p50, p90, p99) in hists {
        let h = &snap.histograms[&name];
        assert_eq!(count, h.count());
        assert_eq!(min, h.min());
        assert_eq!(max, h.max());
        assert_eq!(p50, h.percentile(50.0));
        assert_eq!(p90, h.percentile(90.0));
        assert_eq!(p99, h.percentile(99.0));
    }
}
