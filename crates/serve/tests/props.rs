//! Properties of the history ring and the `/delta` diff.
//!
//! Two invariants carry the serving tier's correctness story:
//!
//! 1. **Tiling** — a closed coarse bucket is *bit-identical* to the
//!    merge of the fine buckets that tile it, under arbitrary sample
//!    streams including reordered publishes. Dashboards may zoom
//!    between resolutions without the numbers shifting.
//! 2. **Delta completeness** — applying a `/delta` response to the
//!    snapshot the client already holds reproduces the current people
//!    multiset exactly: nothing skipped, nothing duplicated, for any
//!    `since` inside the retained window.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use fleet::{CampusSnapshot, FusedPerson};
use proptest::prelude::*;
use serve::{Bucket, Connection, HistoryRing, ServeConfig, ServeCore, ServeMetrics, TIER_RES_MS};

/// A sample stream with mostly-forward timestamps and occasional
/// back-jumps (reordered publishes).
fn arb_samples() -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0u64..4, 0u32..50, 0u64..2500), 1..200).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(kind, occ, jump)| {
                match kind {
                    0..=2 => t += jump,                  // forward
                    _ => t = t.saturating_sub(jump / 2), // reordered
                }
                (t, occ)
            })
            .collect()
    })
}

/// Merge of all closed fine buckets whose start lies in
/// `[start, start + res)`.
fn merged_fine(ring: &HistoryRing, fine: usize, start: u64, res: u64) -> Bucket {
    let mut acc: Option<Bucket> = None;
    let closed = ring.closed_len(fine);
    for b in ring.buckets(fine).take(closed) {
        if b.start_ms >= start && b.start_ms < start + res {
            match &mut acc {
                None => acc = Some(*b),
                Some(acc) => acc.merge(b),
            }
        }
    }
    let mut out = acc.expect("a closed coarse bucket implies closed fine buckets");
    out.start_ms = start;
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every closed coarse bucket tiles bit-identically over its fine
    /// buckets, at both tier seams (1s→10s and 10s→1m).
    #[test]
    fn coarse_buckets_tile_fine_buckets_exactly(samples in arb_samples()) {
        let mut ring = HistoryRing::new(100_000);
        for (i, &(t, occ)) in samples.iter().enumerate() {
            ring.push(t as f64, occ, occ, i as u64 + 1);
        }
        for (fine, coarse) in [(0usize, 1usize), (1, 2)] {
            let res = TIER_RES_MS[coarse];
            let closed = ring.closed_len(coarse);
            for b in ring.buckets(coarse).take(closed) {
                let expect = merged_fine(&ring, fine, b.start_ms, res);
                prop_assert_eq!(*b, expect);
            }
        }
    }

    /// Sample conservation: however buckets close and cascade, no
    /// sample is counted twice and none disappears (until eviction,
    /// which the large cap rules out here).
    #[test]
    fn tiers_conserve_samples(samples in arb_samples()) {
        let mut ring = HistoryRing::new(100_000);
        for (i, &(t, occ)) in samples.iter().enumerate() {
            ring.push(t as f64, occ, occ, i as u64 + 1);
        }
        let n = samples.len() as u64;
        let fine_total: u64 = ring.buckets(0).map(|b| u64::from(b.samples)).sum();
        prop_assert_eq!(fine_total, n);
    }

    /// Bounded memory: closed buckets never exceed the cap.
    #[test]
    fn ring_respects_its_cap(samples in arb_samples(), cap in 1usize..8) {
        let mut ring = HistoryRing::new(cap);
        for (i, &(t, occ)) in samples.iter().enumerate() {
            ring.push(t as f64, occ, occ, i as u64 + 1);
        }
        for tier in 0..TIER_RES_MS.len() {
            prop_assert!(ring.closed_len(tier) <= cap);
        }
    }
}

/// People with integer ids encoded in `x`; unique per id, so the JSON
/// `"x":<id>.000` substring identifies a person unambiguously.
fn person(id: u16) -> FusedPerson {
    FusedPerson {
        x: f64::from(id),
        y: 0.5,
        confidence: 0.9,
        observers: vec![u32::from(id)],
    }
}

fn snap_of(ids: &BTreeSet<u16>, at_ms: f64) -> Arc<CampusSnapshot> {
    Arc::new(CampusSnapshot {
        at_ms,
        occupancy: ids.len() as u32,
        people: ids.iter().map(|&id| person(id)).collect(),
        ..CampusSnapshot::default()
    })
}

/// Random id sets (the vendored proptest has no `btree_set`, so draw
/// a vec and dedup).
fn arb_ids() -> impl Strategy<Value = BTreeSet<u16>> {
    proptest::collection::vec(0u16..40, 0..12).prop_map(|v| v.into_iter().collect())
}

fn arb_epochs(min: usize, max: usize) -> impl Strategy<Value = Vec<BTreeSet<u16>>> {
    proptest::collection::vec(arb_ids(), min..max)
}

/// Ids mentioned inside one JSON array slice, recovered from the
/// `"x":<id>.000` markers.
fn ids_in(slice: &str) -> BTreeSet<u16> {
    let mut out = BTreeSet::new();
    for part in slice.split("\"x\":").skip(1) {
        let num: String = part.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(id) = num.parse() {
            out.insert(id);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any `since` in the retained window, base ∪ added ∖ removed
    /// equals the current people set: deltas never skip and never
    /// duplicate a change.
    #[test]
    fn delta_composes_back_to_the_current_snapshot(
        epochs in arb_epochs(2, 20),
        since_pick in 0usize..1000,
    ) {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        for (i, ids) in epochs.iter().enumerate() {
            core.on_publish(i as u64 + 1, snap_of(ids, (i as f64 + 1.0) * 1000.0));
        }
        let since = (since_pick % (epochs.len() - 1)) + 1; // 1..len-1 — strictly before head
        let base = &epochs[since - 1];
        let cur = epochs.last().unwrap();

        let mut conn = Connection::new();
        let req = format!("GET /delta?since={since} HTTP/1.1\r\n\r\n");
        core.on_bytes(&mut conn, req.as_bytes());
        let resp = String::from_utf8(conn.out.clone()).unwrap();
        prop_assert!(resp.contains("\"reset\":false"), "{}", resp);

        let added_at = resp.find("\"added\":[").unwrap();
        let removed_at = resp.find("\"removed\":[").unwrap();
        let added = ids_in(&resp[added_at..removed_at]);
        let removed = ids_in(&resp[removed_at..]);

        let expect_added: BTreeSet<u16> = cur.difference(base).copied().collect();
        let expect_removed: BTreeSet<u16> = base.difference(cur).copied().collect();
        prop_assert_eq!(&added, &expect_added);
        prop_assert_eq!(&removed, &expect_removed);

        // Compose: base + added - removed == cur.
        let mut rebuilt = base.clone();
        rebuilt.extend(added);
        rebuilt.retain(|id| !removed.contains(id));
        prop_assert_eq!(&rebuilt, cur);
    }

    /// A `since` outside the retained window answers with a reset
    /// carrying the complete current people list — a client can
    /// always resync.
    #[test]
    fn delta_outside_window_resyncs_fully(
        epochs in arb_epochs(6, 20),
    ) {
        let cfg = ServeConfig { retain_epochs: 3, ..ServeConfig::default() };
        let mut core = ServeCore::new(cfg, ServeMetrics::default());
        for (i, ids) in epochs.iter().enumerate() {
            core.on_publish(i as u64 + 1, snap_of(ids, (i as f64 + 1.0) * 1000.0));
        }
        let mut conn = Connection::new();
        core.on_bytes(&mut conn, b"GET /delta?since=1 HTTP/1.1\r\n\r\n");
        let resp = String::from_utf8(conn.out.clone()).unwrap();
        prop_assert!(resp.contains("\"reset\":true"), "{}", resp);
        let people_at = resp.find("\"people\":[").unwrap();
        prop_assert_eq!(&ids_in(&resp[people_at..]), epochs.last().unwrap());
    }
}

/// A person drawn from a small pool, so snapshots repeat people: the
/// id sets `x`, and two variant bits change only the confidence or
/// the observer list (identities that differ in one field).
fn pooled(draw: (u8, u8)) -> FusedPerson {
    let (id, variant) = draw;
    let id = u32::from(id);
    FusedPerson {
        x: f64::from(id),
        y: 0.5,
        confidence: if variant & 1 == 0 { 0.9 } else { 0.8 },
        observers: if variant & 2 == 0 {
            vec![id]
        } else {
            vec![id, id + 1]
        },
    }
}

/// The multiset diff as a per-request `BTreeMap` of cloned keys
/// (how `/delta` was first computed), rendered as the `added` and
/// `removed` arrays' contents.
fn reference_delta(base: &[FusedPerson], cur: &[FusedPerson]) -> (String, String) {
    type Key = (u64, u64, u64, Vec<u32>);
    let key = |p: &FusedPerson| -> Key {
        (
            p.x.to_bits(),
            p.y.to_bits(),
            p.confidence.to_bits(),
            p.observers.clone(),
        )
    };
    let mut counts: BTreeMap<Key, u32> = BTreeMap::new();
    for p in base {
        *counts.entry(key(p)).or_insert(0) += 1;
    }
    let push = |out: &mut Vec<u8>, p: &FusedPerson| {
        if !out.is_empty() {
            out.push(b',');
        }
        fleet::json::push_person(out, p, ",");
    };
    let mut added = Vec::new();
    for p in cur {
        match counts.get_mut(&key(p)) {
            Some(n) if *n > 0 => *n -= 1,
            _ => push(&mut added, p),
        }
    }
    let mut removed = Vec::new();
    for p in base {
        if let Some(n) = counts.get_mut(&key(p)) {
            if *n > 0 {
                *n -= 1;
                push(&mut removed, p);
            }
        }
    }
    (
        String::from_utf8(added).unwrap(),
        String::from_utf8(removed).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With repeated people, in any order, `/delta` lists exactly the
    /// people — and the occurrences, in the same order — that the
    /// reference multiset diff does, byte for byte.
    #[test]
    fn delta_matches_the_reference_multiset_diff(
        base in proptest::collection::vec((0u8..5, 0u8..4), 0..14),
        cur in proptest::collection::vec((0u8..5, 0u8..4), 0..14),
    ) {
        let base: Vec<FusedPerson> = base.into_iter().map(pooled).collect();
        let cur: Vec<FusedPerson> = cur.into_iter().map(pooled).collect();
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        for (seq, people) in [(1u64, &base), (2, &cur)] {
            core.on_publish(seq, Arc::new(CampusSnapshot {
                at_ms: seq as f64 * 1000.0,
                people: people.clone(),
                ..CampusSnapshot::default()
            }));
        }
        let mut conn = Connection::new();
        core.on_bytes(&mut conn, b"GET /delta?since=1 HTTP/1.1\r\n\r\n");
        let resp = String::from_utf8(conn.out.clone()).unwrap();
        let (added, removed) = reference_delta(&base, &cur);
        let expect = format!(
            "{{\"since\":1,\"seq\":2,\"reset\":false,\"added\":[{added}],\"removed\":[{removed}]}}"
        );
        prop_assert!(resp.ends_with(&expect), "{}\nwant {}", resp, expect);
    }
}
