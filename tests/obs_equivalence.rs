//! Public-API exporter suite, pinning the Prometheus text exposition
//! (monotone cumulative buckets, `+Inf` = `_count`, metric and label name
//! validity, HELP escaping) and the Chrome trace-event document shape
//! against private-detail drift. That the metrics/span layer never bends
//! a verdict or a checkpoint image is the `obs` row of
//! `tests/equivalence.rs`.

use leopard_core::obs::{self, Counter, Gauge, HistId, Registry, Stage};

// ---------------------------------------------------------------------
// Public-API exporter suite: a private Registry per test, so these run
// concurrently without touching the global one.
// ---------------------------------------------------------------------

fn populated_registry() -> Box<Registry> {
    let r = Box::new(Registry::new());
    r.set_enabled(true);
    r.ctr_add(Counter::OpsIngested, 1234);
    r.ctr_add(Counter::GcPasses, 7);
    r.gauge_set(Gauge::WatermarkLag, 42);
    for us in [10, 80, 300, 7_000, 2_000_000] {
        r.hist_observe(HistId::GcPauseUs, us);
    }
    r.record_span(Stage::Dispatch, obs::LANE_PIPELINE, 100, 50);
    r.record_span(Stage::GcBarrier, obs::LANE_DRIVER, 200, 25);
    r
}

fn is_valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[test]
fn exposition_lines_are_structurally_valid() {
    let r = populated_registry();
    let text = r.render_prometheus();
    assert!(!text.is_empty());
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().expect("HELP has a name");
            assert!(is_valid_name(name), "bad HELP name in {line:?}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().expect("TYPE has a name");
            let kind = it.next().expect("TYPE has a kind");
            assert!(is_valid_name(name), "bad TYPE name in {line:?}");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown TYPE kind in {line:?}"
            );
            continue;
        }
        // A sample: `name{labels} value` or `name value`.
        let (head, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<u64>().is_ok(),
            "non-numeric value in {line:?}"
        );
        let name = head.split('{').next().expect("sample has a name");
        assert!(is_valid_name(name), "bad sample name in {line:?}");
        if let Some(labels) = head.strip_prefix(name) {
            if !labels.is_empty() {
                assert!(
                    labels.starts_with('{') && labels.ends_with('}'),
                    "malformed label block in {line:?}"
                );
                for pair in labels[1..labels.len() - 1].split(',') {
                    let (k, v) = pair.split_once('=').expect("label has =");
                    assert!(is_valid_name(k), "bad label name in {line:?}");
                    assert!(
                        v.starts_with('"') && v.ends_with('"'),
                        "unquoted label value in {line:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn histogram_buckets_are_cumulative_and_capped_by_inf() {
    let r = populated_registry();
    let text = r.render_prometheus();
    let mut prev = 0u64;
    let mut inf = None;
    let mut count = None;
    for line in text.lines() {
        if line.starts_with("leopard_gc_pause_us_bucket{le=\"+Inf\"}") {
            inf = line.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok());
        } else if line.starts_with("leopard_gc_pause_us_bucket") {
            let v: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("bucket value");
            assert!(v >= prev, "bucket counts must be cumulative: {line:?}");
            prev = v;
        } else if line.starts_with("leopard_gc_pause_us_count") {
            count = line.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok());
        }
    }
    assert_eq!(inf, Some(5), "+Inf bucket must count every observation");
    assert_eq!(count, inf, "_count must equal the +Inf bucket");
    // The 2s outlier is beyond the largest finite bound, so the largest
    // finite bucket must stay below the +Inf bucket.
    assert!(
        prev < 5,
        "outlier beyond the largest bound leaked into a finite bucket"
    );
}

#[test]
fn counters_are_monotonic_through_the_public_api() {
    let r = Box::new(Registry::new());
    r.set_enabled(true);
    let mut last = r.counter_value(Counter::Dispatched);
    for n in [1, 10, 100] {
        r.ctr_add(Counter::Dispatched, n);
        let now = r.counter_value(Counter::Dispatched);
        assert!(now > last, "counter went backwards: {last} -> {now}");
        last = now;
    }
    assert_eq!(last, 111);
}

#[test]
fn chrome_trace_document_names_every_lane() {
    let r = populated_registry();
    let trace = r.render_chrome_trace();
    assert!(trace.starts_with('{') && trace.ends_with('}'));
    assert!(trace.contains("\"traceEvents\""));
    // Two complete events were recorded, on the pipeline and verifier lanes.
    assert_eq!(trace.matches("\"ph\":\"X\"").count(), 2);
    assert!(trace.contains("\"name\":\"dispatch\""));
    assert!(trace.contains("\"name\":\"gc-barrier\""));
    assert!(trace.contains("\"args\":{\"name\":\"pipeline\"}"));
    assert!(trace.contains("\"args\":{\"name\":\"verifier\"}"));
    // Metadata events name the lanes before any span references them.
    assert!(trace.contains("\"thread_name\""));
}

#[test]
fn snapshot_round_trips_counter_names() {
    let r = populated_registry();
    let snap = r.snapshot();
    assert_eq!(snap.counter("leopard_ops_ingested_total"), Some(1234));
    assert_eq!(snap.counter("leopard_gc_passes_total"), Some(7));
    assert_eq!(snap.counter("no_such_counter"), None);
    assert_eq!(snap.gauge("leopard_watermark_lag"), Some(42));
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    assert!(json.contains("\"leopard_ops_ingested_total\""));
}
