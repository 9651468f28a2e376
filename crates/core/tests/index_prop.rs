//! Property tests for the region index: both candidate-intersection
//! paths (selective gather vs full scan) must agree, and the index must
//! faithfully represent the annotations it was built from.

use proptest::prelude::*;

use standoff_core::{
    Area, CandidateScratch, MorselPolicy, Region, RegionEntry, RegionIndex, StandoffConfig,
};
use standoff_xml::DocumentBuilder;

/// Random single/multi-region annotations with controlled geometry.
fn annotations_strategy() -> impl Strategy<Value = Vec<Vec<(i64, i64)>>> {
    prop::collection::vec(
        prop::collection::vec((0i64..500, 0i64..40), 1..3).prop_map(|raw| {
            let mut rs: Vec<(i64, i64)> = raw.into_iter().map(|(s, l)| (s, s + l)).collect();
            rs.sort_unstable();
            let mut out: Vec<(i64, i64)> = Vec::new();
            for (s, e) in rs {
                match out.last() {
                    Some(&(_, pe)) if s <= pe + 1 => {}
                    _ => out.push((s, e)),
                }
            }
            out
        }),
        0..40,
    )
}

fn build_index(annotations: &[Vec<(i64, i64)>]) -> (Vec<u32>, RegionIndex) {
    let pairs: Vec<(u32, Area)> = annotations
        .iter()
        .enumerate()
        .map(|(k, rs)| {
            let area = Area::try_new(
                rs.iter()
                    .map(|&(s, e)| Region::new(s, e).unwrap())
                    .collect(),
            )
            .unwrap();
            // Synthetic pre ranks: 2, 4, 6, ... (gaps on purpose).
            ((k as u32 + 1) * 2, area)
        })
        .collect();
    let pres = pairs.iter().map(|p| p.0).collect();
    (pres, RegionIndex::from_areas(&pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The adaptive gather path and the scan path of `candidates_for`
    /// return identical entry sequences for every selectivity.
    #[test]
    fn intersection_paths_agree(
        annotations in annotations_strategy(),
        picks in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (pres, index) = build_index(&annotations);
        if pres.is_empty() {
            return Ok(());
        }
        let mut candidates: Vec<u32> = picks
            .iter()
            .map(|&p| pres[p as usize % pres.len()])
            .collect();
        candidates.sort_unstable();
        candidates.dedup();

        let fast = index.candidates_for(&candidates);
        // Reference: the definitional scan.
        let slow: Vec<RegionEntry> = index
            .entries()
            .iter()
            .filter(|e| candidates.binary_search(&e.id).is_ok())
            .copied()
            .collect();
        prop_assert_eq!(fast, slow);
    }

    /// Index round-trip: every annotation's regions come back through
    /// both views, and the entry table is exactly the multiset of all
    /// regions clustered on start.
    #[test]
    fn index_round_trips_annotations(annotations in annotations_strategy()) {
        let (pres, index) = build_index(&annotations);
        // Node view.
        for (pre, rs) in pres.iter().zip(&annotations) {
            let got: Vec<(i64, i64)> = index
                .regions_of(*pre)
                .iter()
                .map(|r| (r.start, r.end))
                .collect();
            prop_assert_eq!(&got, rs);
        }
        // Entry view: clustered on (start, end, id) and complete.
        let entries = index.entries();
        prop_assert!(entries
            .windows(2)
            .all(|w| (w[0].start, w[0].end, w[0].id) <= (w[1].start, w[1].end, w[1].id)));
        let total: usize = annotations.iter().map(|rs| rs.len()).sum();
        prop_assert_eq!(entries.len(), total);
        // max_regions is the true maximum.
        let max = annotations.iter().map(|rs| rs.len()).max().unwrap_or(0);
        prop_assert_eq!(index.max_regions() as usize, max);
    }

    /// Every candidate representation — the adaptive entry point, the
    /// forced sparse scan, the forced dense-bitset scan, and the forced
    /// node-view gather — returns byte-identical entry sequences, and
    /// the threaded (morsel-policy) path agrees with the sequential one
    /// regardless of thread count.
    #[test]
    fn candidate_representations_agree(
        annotations in annotations_strategy(),
        picks in prop::collection::vec(any::<u8>(), 0..64),
        threads in 1usize..8,
    ) {
        let (pres, index) = build_index(&annotations);
        if pres.is_empty() {
            return Ok(());
        }
        let mut candidates: Vec<u32> = picks
            .iter()
            .map(|&p| pres[p as usize % pres.len()])
            .collect();
        candidates.sort_unstable();
        candidates.dedup();

        let adaptive = index.candidates_for(&candidates);
        prop_assert_eq!(&adaptive, &index.candidates_for_scan(&candidates));
        prop_assert_eq!(&adaptive, &index.candidates_for_dense_scan(&candidates));
        prop_assert_eq!(&adaptive, &index.candidates_for_gather(&candidates));

        let mut scratch = CandidateScratch::default();
        scratch.policy = MorselPolicy { threads };
        let mut threaded = Vec::new();
        index.candidates_into_with(&candidates, &mut scratch, &mut threaded);
        prop_assert_eq!(&adaptive, &threaded);
    }

    /// Unknown nodes have no regions; annotated nodes are reported in
    /// document order.
    #[test]
    fn node_view_consistency(annotations in annotations_strategy()) {
        let (pres, index) = build_index(&annotations);
        prop_assert!(index.annotated_nodes().windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(index.annotated_nodes(), &pres[..]);
        // Odd pre ranks were never annotated.
        for odd in [1u32, 3, 5, 99] {
            prop_assert!(index.regions_of(odd).is_empty());
            prop_assert_eq!(index.region_count(odd), 0);
        }
    }
}

/// Deterministic check that both intersection paths are actually
/// exercised: tiny candidate sets take the gather path, huge ones the
/// scan path — forced by construction.
#[test]
fn both_paths_execute() {
    let mut b = DocumentBuilder::new();
    b.start_element("d");
    for k in 0..2000 {
        b.start_element("a");
        b.attribute("start", &(k * 3).to_string());
        b.attribute("end", &(k * 3 + 1).to_string());
        b.end_element();
    }
    b.end_element();
    let doc = b.finish().unwrap();
    let index = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
    let all = doc.elements_named("a");

    // Selective: 3 nodes → gather path.
    let few = [all[10], all[500], all[1999]];
    let got = index.candidates_for(&few);
    assert_eq!(got.len(), 3);
    assert!(got.windows(2).all(|w| w[0].start <= w[1].start));

    // Broad: everything → scan path; equals the full index.
    let got = index.candidates_for(all);
    assert_eq!(got, index.entries());
}

/// Deterministic check that the morsel pool actually engages on a table
/// big enough to split, and that its document-order merge is
/// byte-identical to the sequential scan for every thread count.
#[test]
fn morsel_split_is_bytewise_identical() {
    let mut b = DocumentBuilder::new();
    b.start_element("d");
    for k in 0..20_000i64 {
        b.start_element("a");
        b.attribute("start", &(k * 2).to_string());
        b.attribute("end", &(k * 2 + 1).to_string());
        b.end_element();
    }
    b.end_element();
    let doc = b.finish().unwrap();
    let index = RegionIndex::build(&doc, &StandoffConfig::default()).unwrap();
    // Every other element: dense enough for the bitset, selective enough
    // that the result is not just the whole table.
    let candidates: Vec<u32> = doc.elements_named("a").iter().step_by(2).copied().collect();

    let sequential = index.candidates_for_scan(&candidates);
    for threads in [2usize, 4, 8] {
        let mut scratch = CandidateScratch::default();
        scratch.policy = MorselPolicy { threads };
        let mut got = Vec::new();
        index.candidates_into_with(&candidates, &mut scratch, &mut got);
        assert_eq!(got, sequential, "threads={threads}");
        assert_eq!(scratch.stats.candidate_repr_dense, 1, "threads={threads}");
        assert!(
            scratch.stats.morsels_dispatched >= 2,
            "threads={threads}: expected a real split, got {:?}",
            scratch.stats
        );
        assert!(scratch.stats.candidate_dense_blocks > 0);
    }

    // threads == 1 must not spawn or split at all.
    let mut scratch = CandidateScratch::default();
    let mut got = Vec::new();
    index.candidates_into_with(&candidates, &mut scratch, &mut got);
    assert_eq!(got, sequential);
    assert_eq!(scratch.stats.morsels_dispatched, 0);
}
