//! Cold-start comparison: opening an XMark StandOff corpus from a binary
//! snapshot vs re-parsing the XML and rebuilding the region index —
//! and *mounting* the columnar snapshot (zero-copy column views, lazy
//! layers) with every layer materialized vs opening it lazily.
//!
//! The snapshot path is the `standoff-store` claim to fame — reopening a
//! bulk-loaded annotation database should cost I/O plus validation, not
//! a parse, an allocation per node value, or a `RegionIndex::build`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use standoff_core::{RegionIndex, StandoffConfig};
use standoff_store::{write_snapshot, LayerSet, Snapshot};
use standoff_xmark::{generate, standoffify, XmarkConfig};
use standoff_xml::parse_document;

fn snapshot_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_load");
    group.sample_size(10);

    for scale in [0.002, 0.01] {
        let so = standoffify(&generate(&XmarkConfig::with_scale(scale)), 7);
        let xml = standoff_xml::serialize_document(&so.doc, Default::default());
        let config = StandoffConfig::default();

        // Base layer plus a shadow sibling, so multi-layer costs show.
        let shadow = parse_document(&xml).unwrap();
        let mut set = LayerSet::build("xmark-standoff.xml", so.doc, config.clone()).unwrap();
        set.add_layer("shadow", shadow, config.clone()).unwrap();

        let mut v3 = Vec::new();
        write_snapshot(&set, &mut v3).unwrap();

        let label = format!("{:.1}KB", xml.len() as f64 / 1024.0);

        // Cold start the old way: parse the XML, rebuild the index.
        group.bench_with_input(BenchmarkId::new("parse+build", &label), &xml, |b, xml| {
            b.iter(|| {
                let doc = parse_document(xml).unwrap();
                RegionIndex::build(&doc, &config).unwrap()
            });
        });

        // Cold mount of the snapshot, all layers materialized. (The row
        // names keep their historical "v3" label; the file is v4.)
        group.bench_with_input(BenchmarkId::new("mount-v3", &label), &v3, |b, bytes| {
            b.iter(|| {
                Snapshot::from_bytes(bytes.clone())
                    .unwrap()
                    .to_layer_set()
                    .unwrap()
            });
        });

        // Lazy open: header + section-table walk only.
        group.bench_with_input(BenchmarkId::new("open-lazy-v3", &label), &v3, |b, bytes| {
            b.iter(|| Snapshot::from_bytes(bytes.clone()).unwrap());
        });

        // First query latency including engine mount, from the snapshot.
        group.bench_with_input(
            BenchmarkId::new("snapshot+first-query", &label),
            &v3,
            |b, bytes| {
                b.iter(|| {
                    let snapshot = Snapshot::from_bytes(bytes.clone()).unwrap();
                    let mut engine = standoff_xquery::Engine::new();
                    engine.mount_snapshot(&snapshot).unwrap();
                    engine
                        .run(r#"count(doc("xmark-standoff.xml")//item)"#)
                        .unwrap()
                        .len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, snapshot_load);
criterion_main!(benches);
