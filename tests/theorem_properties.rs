//! Property-based tests (proptest) for the paper's theorems and the core
//! data-structure invariants.

use leopard::{IsolationLevel, PipelineConfig, TwoLevelPipeline, Verifier, VerifierConfig};
use leopard_core::interval::{resolve_exclusive_pair, PairOrder};
use leopard_core::verify::{ReadMatch, VersionClass};
use leopard_core::{ClientId, Interval, Key, OpKind, Timestamp, Trace, TxnId, Value};
use proptest::prelude::*;

fn iv(lo: u64, hi: u64) -> Interval {
    Interval::new(Timestamp(lo), Timestamp(hi))
}

/// Strategy: a well-formed "exclusive span" — start interval certainly
/// before end interval (program order within one transaction).
fn span() -> impl Strategy<Value = (Interval, Interval)> {
    (0u64..1000, 1u64..50, 0u64..50, 1u64..50).prop_map(|(s, w1, gap, w2)| {
        let a = iv(s, s + w1);
        let r = iv(s + w1 + gap, s + w1 + gap + w2);
        (a, r)
    })
}

proptest! {
    /// Theorem 3/4: for any two program-order-respecting spans, exactly
    /// one of {first-then-second, second-then-first, certainly-concurrent}
    /// holds, and the answer is antisymmetric under argument swap.
    #[test]
    fn resolve_is_total_and_antisymmetric(
        (a0, r0) in span(),
        (a1, r1) in span(),
    ) {
        let fwd = resolve_exclusive_pair(&a0, &r0, &a1, &r1);
        let bwd = resolve_exclusive_pair(&a1, &r1, &a0, &r0);
        match fwd {
            PairOrder::FirstThenSecond => prop_assert_eq!(bwd, PairOrder::SecondThenFirst),
            PairOrder::SecondThenFirst => prop_assert_eq!(bwd, PairOrder::FirstThenSecond),
            PairOrder::CertainlyConcurrent => prop_assert_eq!(bwd, PairOrder::CertainlyConcurrent),
        }
    }

    /// Soundness of resolution: when the true order is knowable because
    /// the spans are disjoint in time, resolution must report it.
    #[test]
    fn resolve_agrees_with_disjoint_truth((a0, r0) in span(), shift in 1u64..10_000) {
        // Span 1 is span 0 moved entirely after it.
        let offset = r0.hi.0 + shift;
        let a1 = iv(a0.lo.0 + offset, a0.hi.0 + offset);
        let r1 = iv(r0.lo.0 + offset, r0.hi.0 + offset);
        prop_assert_eq!(
            resolve_exclusive_pair(&a0, &r0, &a1, &r1),
            PairOrder::FirstThenSecond
        );
    }

    /// Interval algebra: `certainly_before` and `overlaps` partition every
    /// pair of intervals.
    #[test]
    fn interval_relations_partition(
        a_lo in 0u64..1000, a_w in 0u64..100,
        b_lo in 0u64..1000, b_w in 0u64..100,
    ) {
        let a = iv(a_lo, a_lo + a_w);
        let b = iv(b_lo, b_lo + b_w);
        let relations = [
            a.certainly_before(&b),
            b.certainly_before(&a),
            a.overlaps(&b),
        ];
        // Degenerate equal instants may satisfy certainly_before both
        // ways; otherwise exactly one relation holds.
        let count = relations.iter().filter(|r| **r).count();
        if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
            prop_assert_eq!(count, 2);
        } else {
            prop_assert_eq!(count, 1, "a={} b={}", a, b);
        }
    }

    /// Theorem 1: the two-level pipeline dispatches any set of per-client
    /// monotone streams in globally non-decreasing ts_bef order, without
    /// losing or duplicating traces.
    #[test]
    fn pipeline_dispatch_order_holds(
        streams in prop::collection::vec(
            prop::collection::vec((0u64..10_000, 1u64..100), 0..60),
            1..6,
        ),
        opt in any::<bool>(),
    ) {
        let cfg = if opt { PipelineConfig::default() } else { PipelineConfig::without_optimizations() };
        let mut pipeline = TwoLevelPipeline::new(streams.len(), cfg);
        let mut expected = 0u64;
        for (c, stream) in streams.iter().enumerate() {
            let mut ts = 0u64;
            for &(gap, width) in stream {
                ts += gap; // non-decreasing per client
                let trace = Trace::new(
                    iv(ts, ts + width),
                    ClientId(c as u32),
                    TxnId(expected),
                    OpKind::Commit,
                );
                pipeline.push(c, trace).expect("monotone push");
                expected += 1;
            }
            pipeline.close(c).expect("valid client");
        }
        let mut out = Vec::new();
        pipeline.drain_available(&mut out);
        prop_assert!(pipeline.is_exhausted(), "no traces may be left behind");
        prop_assert_eq!(out.len() as u64, expected);
        prop_assert!(out.windows(2).all(|w| w[0].ts_bef() <= w[1].ts_bef()));
        // No duplicates: every TxnId appears exactly once.
        let mut ids: Vec<u64> = out.iter().map(|t| t.txn.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, expected);
    }

    /// Theorem 2 environment: classification against a snapshot is a
    /// partition with exactly one pivot among "past" versions, and
    /// candidate membership excludes exactly future+garbage+pending.
    #[test]
    fn candidate_classification_invariants(
        versions in prop::collection::vec((0u64..2_000, 1u64..50, 0u64..30, 1u64..50), 1..12),
        snap_lo in 0u64..2_500,
        snap_w in 1u64..100,
    ) {
        use leopard_core::verify::VersionStore;
        let mut store = VersionStore::default();
        for (i, &(w_lo, w_w, gap, c_w)) in versions.iter().enumerate() {
            let txn = TxnId(i as u64 + 1);
            let install = iv(w_lo, w_lo + w_w);
            let commit = iv(w_lo + w_w + gap, w_lo + w_w + gap + c_w);
            // Four values over up to eleven versions: reads can match
            // none, one or several candidates.
            store.install(Key(1), Value(i as u64 % 4), txn, install, install);
            store.commit(txn, &[Key(1)], commit);
        }
        let snapshot = iv(snap_lo, snap_lo + snap_w);
        let rec = store.record(Key(1)).expect("versions inserted");
        let classes = rec.classify(&snapshot);
        let pivots = classes.iter().filter(|c| **c == VersionClass::Pivot).count();
        let past = classes.iter().filter(|c| matches!(c,
            VersionClass::Pivot | VersionClass::PivotOverlap | VersionClass::Garbage)).count();
        if past > 0 {
            prop_assert_eq!(pivots, 1, "exactly one pivot among past versions");
        } else {
            prop_assert_eq!(pivots, 0);
        }
        // Future versions really are certainly-after; garbage certainly
        // overwritten before the pivot.
        let pivot_vis = rec.entries().iter().zip(&classes)
            .find(|(_, c)| **c == VersionClass::Pivot)
            .map(|(e, _)| e.visibility.expect("committed"));
        for (e, class) in rec.entries().iter().zip(&classes) {
            let vis = e.visibility.expect("all committed here");
            match class {
                VersionClass::Future => prop_assert!(snapshot.certainly_before(&vis)),
                VersionClass::Garbage => {
                    prop_assert!(vis.certainly_before(&pivot_vis.expect("pivot exists")));
                }
                VersionClass::Overlap => prop_assert!(vis.overlaps(&snapshot)),
                _ => {}
            }
        }
        // `check_read` folds the same classification without building it:
        // its answer is the one `classify` implies, for every value a read
        // could observe and both candidate-set rules.
        for minimal in [true, false] {
            let candidates: Vec<_> = rec.entries().iter().zip(&classes)
                .filter(|(_, c)| match c {
                    VersionClass::Overlap | VersionClass::Pivot | VersionClass::PivotOverlap => true,
                    VersionClass::Garbage => !minimal,
                    VersionClass::Future | VersionClass::Pending => false,
                })
                .map(|(e, _)| e)
                .collect();
            for observed in (0..5).map(Value) {
                let matches: Vec<_> = candidates.iter().filter(|e| e.value == observed).collect();
                let implied = match matches.as_slice() {
                    [] => ReadMatch::Violation {
                        candidates: candidates.iter().map(|e| e.value).collect(),
                    },
                    [e] => ReadMatch::Unique {
                        writer: e.txn,
                        uid: e.uid,
                        interval_certain: candidates.len() == 1,
                    },
                    several => ReadMatch::Ambiguous { matches: several.len() },
                };
                prop_assert_eq!(store.check_read(Key(1), observed, &snapshot, minimal), implied);
            }
        }
    }

    /// Ground truth: random serial (non-overlapping) histories always
    /// verify clean at every isolation level.
    #[test]
    fn serial_histories_are_always_clean(
        ops in prop::collection::vec((0u64..8, 0u64..16, any::<bool>()), 1..40),
        level_idx in 0usize..4,
    ) {
        let level = [
            IsolationLevel::ReadCommitted,
            IsolationLevel::RepeatableRead,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializable,
        ][level_idx];
        // Execute transactions strictly serially against a model store.
        let mut state: leopard_core::fxhash::FxHashMap<u64, u64> =
            (0..8).map(|k| (k, 0)).collect();
        let mut traces = Vec::new();
        let mut ts = 10u64;
        let mut next_value = 1000u64;
        for (i, &(key, _, is_write)) in ops.iter().enumerate() {
            let txn = TxnId(i as u64 + 1);
            let op = if is_write {
                next_value += 1;
                state.insert(key, next_value);
                OpKind::Write(vec![(Key(key), Value(next_value))])
            } else {
                OpKind::Read(vec![(Key(key), Value(state[&key]))])
            };
            traces.push(Trace::new(iv(ts, ts + 2), ClientId(0), txn, op));
            traces.push(Trace::new(iv(ts + 3, ts + 5), ClientId(0), txn, OpKind::Commit));
            ts += 10;
        }
        let mut v = Verifier::new(VerifierConfig::for_level(level));
        for k in 0..8 {
            v.preload(Key(k), Value(0));
        }
        for t in &traces {
            v.process(t);
        }
        let out = v.finish();
        prop_assert!(out.report.is_clean(), "serial history flagged: {}", out.report);
    }
}
