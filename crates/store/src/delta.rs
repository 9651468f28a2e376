//! Writable overlay deltas over immutable layer sets.
//!
//! A [`LayerSet`] (and a fortiori a mounted SOSN snapshot) is immutable:
//! its documents are shredded, its region indexes are clustered columns.
//! Mutation is layered *on top* as a [`DeltaSet`] — per annotation layer,
//! a list of **inserted** annotations (new stand-off elements over the
//! same BLOB) and a list of **retracted** ones (existing annotations
//! hidden from every read). Readers merge base and delta on the fly
//! (merge-on-read); [`compact`] folds the delta down into a fresh,
//! delta-free `LayerSet` that can be written out as a new snapshot.
//!
//! Two invariants make merge-on-read and compaction observably
//! equivalent:
//!
//! * inserted annotations materialize as a small sibling document per
//!   layer ([`LayerDelta::insert_doc`]) whose elements carry the same
//!   `start`/`end` attributes the layer's [`StandoffConfig`] prescribes —
//!   compaction appends exactly those elements to the layer root, in
//!   insertion order;
//! * a retraction hides the **whole subtree** of every matching
//!   annotation element ([`LayerDelta::retracted_pres`]) — compaction
//!   drops the same subtrees from the rebuilt document.
//!
//! Deltas target annotation layers only: the base layer is the document
//! under annotation, not an annotation set, and rewriting it would
//! invalidate every region of every layer above it.

use std::collections::BTreeMap;
use std::time::Instant;

use standoff_core::{MetricsRegistry, Region, StandoffConfig};
use standoff_xml::{Document, DocumentBuilder, NodeKind};

use crate::error::StoreError;
use crate::layer::{Layer, LayerSet};

/// One inserted annotation: an empty element `name` with the layer's
/// configured start/end attributes plus any extra attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaAnnotation {
    pub name: String,
    pub start: i64,
    pub end: i64,
    /// Extra attributes beyond the region markup, in document order.
    pub attrs: Vec<(String, String)>,
}

/// A single overlay mutation, addressed to a named annotation layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Add an annotation `<name start end attrs…/>` to `layer`.
    Insert {
        layer: String,
        name: String,
        start: i64,
        end: i64,
        attrs: Vec<(String, String)>,
    },
    /// Hide every annotation element of `layer` named `name` that
    /// carries the region `[start, end]` (or drop a still-pending insert
    /// with the same key).
    Retract {
        layer: String,
        name: String,
        start: i64,
        end: i64,
    },
}

/// The pending mutations of one layer.
#[derive(Clone, Debug, Default)]
pub struct LayerDelta {
    inserts: Vec<DeltaAnnotation>,
    /// Retract keys `(name, start, end)` matched against the base layer.
    retracts: Vec<(String, i64, i64)>,
}

impl LayerDelta {
    /// Pending inserted annotations, in application order.
    pub fn inserts(&self) -> &[DeltaAnnotation] {
        &self.inserts
    }

    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.retracts.is_empty()
    }

    /// All pres of `layer`'s document hidden by this delta: every node of
    /// every matching annotation element's subtree. Sorted ascending,
    /// duplicate-free — the exact shape [`standoff_core::RegionSource`]
    /// expects.
    pub fn retracted_pres(&self, layer: &Layer) -> Vec<u32> {
        let doc = layer.doc();
        let mut out: Vec<u32> = Vec::new();
        // Roots ascend, and a subtree is the contiguous pre range
        // `root..=root + size`: a root inside the previous range is
        // already covered.
        for pre in self.retracted_roots(layer) {
            if out.last().is_none_or(|&last| pre > last) {
                out.extend(pre..=pre + doc.size(pre));
            }
        }
        out
    }

    /// The annotation elements this delta's retract keys match: the
    /// roots of the hidden subtrees, sorted ascending, duplicate-free.
    fn retracted_roots(&self, layer: &Layer) -> Vec<u32> {
        let mut roots: Vec<u32> = self
            .retracts
            .iter()
            .flat_map(|(name, start, end)| retract_matches(layer, name, *start, *end))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// Materialize the pending inserts as a standalone document: the
    /// layer root's element name wrapping one empty element per insert,
    /// region markup first, in insertion order. `None` when there is
    /// nothing to insert (retract-only deltas need no sibling document).
    pub fn insert_doc(&self, layer: &Layer) -> Result<Option<Document>, StoreError> {
        if self.inserts.is_empty() {
            return Ok(None);
        }
        let config = layer.config();
        let root_name = root_element_name(layer.doc())
            .ok_or_else(|| StoreError::Delta("layer document has no root element".into()))?;
        let mut b = DocumentBuilder::new();
        b.start_element(&root_name);
        for a in &self.inserts {
            append_insert(&mut b, a, config);
        }
        b.end_element();
        let doc = b
            .finish()
            .map_err(|e| StoreError::Delta(format!("insert document: {e}")))?;
        Ok(Some(doc))
    }
}

/// Pending mutations for a whole layer set, keyed by layer name.
///
/// All mutation goes through [`DeltaSet::apply`], which validates each
/// op against the layer set it overlays — unknown layers, base-layer
/// writes, inverted regions and retracts that match nothing are rejected
/// *at apply time*, so a `DeltaSet` held by an engine is always
/// consistent with its mount.
#[derive(Clone, Debug, Default)]
pub struct DeltaSet {
    layers: BTreeMap<String, LayerDelta>,
}

impl DeltaSet {
    pub fn new() -> DeltaSet {
        DeltaSet::default()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.values().all(LayerDelta::is_empty)
    }

    /// The pending delta of `layer`, if any mutation targets it.
    pub fn layer_delta(&self, layer: &str) -> Option<&LayerDelta> {
        self.layers.get(layer).filter(|d| !d.is_empty())
    }

    /// Total pending inserts across all layers.
    pub fn insert_count(&self) -> usize {
        self.layers.values().map(|d| d.inserts.len()).sum()
    }

    /// Total applied retract keys across all layers.
    pub fn retract_count(&self) -> usize {
        self.layers.values().map(|d| d.retracts.len()).sum()
    }

    /// Validate and record one mutation against `set`.
    pub fn apply(&mut self, op: DeltaOp, set: &LayerSet) -> Result<(), StoreError> {
        match op {
            DeltaOp::Insert {
                layer,
                name,
                start,
                end,
                attrs,
            } => {
                let target = self.check_layer(&layer, set)?;
                Region::new(start, end)
                    .map_err(|e| StoreError::Delta(format!("insert into {layer:?}: {e}")))?;
                let config = target.config();
                if config.region_name.is_some() {
                    return Err(StoreError::Delta(format!(
                        "layer {layer:?} uses the element region representation; \
                         delta inserts support the attribute representation only"
                    )));
                }
                check_token(&name, "element name")?;
                for (k, v) in &attrs {
                    check_token(k, "attribute name")?;
                    check_token(v, "attribute value")?;
                    if *k == config.start_name || *k == config.end_name {
                        return Err(StoreError::Delta(format!(
                            "attribute {k:?} collides with the layer's region markup"
                        )));
                    }
                }
                self.layers
                    .entry(layer)
                    .or_default()
                    .inserts
                    .push(DeltaAnnotation {
                        name,
                        start,
                        end,
                        attrs,
                    });
                MetricsRegistry::global().add("store.delta.inserts", 1);
                Ok(())
            }
            DeltaOp::Retract {
                layer,
                name,
                start,
                end,
            } => {
                let target = self.check_layer(&layer, set)?;
                let delta = self.layers.entry(layer.clone()).or_default();
                // A retract first cancels still-pending inserts with the
                // same key — those never existed as far as readers are
                // concerned, so no retract key is recorded for them.
                let before = delta.inserts.len();
                delta
                    .inserts
                    .retain(|a| !(a.name == name && a.start == start && a.end == end));
                if delta.inserts.len() != before {
                    MetricsRegistry::global().add("store.delta.retracts", 1);
                    return Ok(());
                }
                if delta.retracts.contains(&(name.clone(), start, end)) {
                    return Err(StoreError::Delta(format!(
                        "annotation <{name} {start}..{end}> of layer {layer:?} is already retracted"
                    )));
                }
                if retract_matches(target, &name, start, end).next().is_none() {
                    return Err(StoreError::Delta(format!(
                        "retract <{name} {start}..{end}> matches no annotation of \
                         layer {layer:?}"
                    )));
                }
                delta.retracts.push((name, start, end));
                MetricsRegistry::global().add("store.delta.retracts", 1);
                Ok(())
            }
        }
    }

    /// Apply a batch; ops after the first failure are not applied.
    pub fn apply_all(
        &mut self,
        ops: impl IntoIterator<Item = DeltaOp>,
        set: &LayerSet,
    ) -> Result<usize, StoreError> {
        let mut n = 0;
        for op in ops {
            self.apply(op, set)?;
            n += 1;
        }
        Ok(n)
    }

    /// The recorded mutations as a replayable op batch, layer by layer:
    /// retracts first, then inserts in order. Every recorded retract was
    /// validated against the same base and never matched a pending
    /// insert, so replaying it first cannot fail — while a retract
    /// replayed *after* the inserts would cancel a re-tagged key's
    /// re-insert (retract K, then insert K with new attributes) instead
    /// of hiding the base annotation. Replaying the batch through
    /// [`DeltaSet::apply`] against the same base reproduces this delta
    /// exactly.
    pub fn to_ops(&self) -> Vec<DeltaOp> {
        let mut out = Vec::new();
        for (layer, delta) in &self.layers {
            for (name, start, end) in &delta.retracts {
                out.push(DeltaOp::Retract {
                    layer: layer.clone(),
                    name: name.clone(),
                    start: *start,
                    end: *end,
                });
            }
            for a in &delta.inserts {
                out.push(DeltaOp::Insert {
                    layer: layer.clone(),
                    name: a.name.clone(),
                    start: a.start,
                    end: a.end,
                    attrs: a.attrs.clone(),
                });
            }
        }
        out
    }

    fn check_layer<'a>(&self, layer: &str, set: &'a LayerSet) -> Result<&'a Layer, StoreError> {
        let target = set
            .layer(layer)
            .ok_or_else(|| StoreError::Delta(format!("no layer named {layer:?}")))?;
        if layer == set.base().name() {
            return Err(StoreError::Delta(format!(
                "layer {layer:?} is the base document; deltas target annotation layers"
            )));
        }
        Ok(target)
    }
}

/// Fold `delta` into `set`: every layer with pending mutations is
/// rebuilt — matching retracted subtrees dropped, inserts appended to
/// the layer root in insertion order — and re-validated through
/// [`Layer::build`]; untouched layers are shared as-is (`Arc` clones).
/// Records the `store.compact_ns` histogram.
pub fn compact(set: &LayerSet, delta: &DeltaSet) -> Result<LayerSet, StoreError> {
    let started = Instant::now();
    let mut layers: Vec<Layer> = Vec::with_capacity(set.len());
    for layer in set.layers() {
        match delta.layer_delta(layer.name()) {
            None => layers.push(layer.clone()),
            Some(d) => layers.push(compact_layer(
                layer,
                &d.retracted_roots(layer),
                d.inserts(),
            )?),
        }
    }
    let out = LayerSet::from_layers(set.uri(), layers)?;
    MetricsRegistry::global().record(
        "store.compact_ns",
        started.elapsed().as_nanos().min(u64::MAX as u128) as u64,
    );
    Ok(out)
}

/// Rebuild `layer` without the subtrees rooted at `dropped` (sorted
/// ascending) and with `inserts` appended to the layer root.
fn compact_layer(
    layer: &Layer,
    dropped: &[u32],
    inserts: &[DeltaAnnotation],
) -> Result<Layer, StoreError> {
    let doc = layer.doc();
    root_element_name(doc)
        .ok_or_else(|| StoreError::Delta("layer document has no root element".into()))?;
    let mut b = DocumentBuilder::with_capacity(doc.node_count());
    if let Some(uri) = doc.uri() {
        b.uri(uri);
    }
    // Walk the old document's tree nodes in pre order with an explicit
    // end-stack (the builder wants explicit end_element calls), skipping
    // dropped subtrees whole. Reaching `end`, one past the last node,
    // closes every element still open.
    let mut open: Vec<u32> = Vec::new();
    let mut pre: u32 = 1; // 0 is the document node
    let end = doc.node_count() as u32;
    loop {
        while open.last().is_some_and(|&top| pre > top + doc.size(top)) {
            // Closing the root element? Append the inserts first —
            // that is where compaction and the merge-on-read sibling
            // document agree to put them.
            if open.len() == 1 {
                for a in inserts {
                    append_insert(&mut b, a, layer.config());
                }
            }
            b.end_element();
            open.pop();
        }
        if pre == end {
            break;
        }
        if dropped.binary_search(&pre).is_ok() {
            pre += doc.size(pre) + 1;
            continue;
        }
        match doc.kind(pre) {
            NodeKind::Element => {
                let name = doc.names().lexical(doc.name_id(pre));
                b.start_element(&name);
                for attr in doc.attributes(pre) {
                    let a = attr.attr_index().expect("attribute node");
                    b.attribute(&doc.names().lexical(doc.attr_name_id(a)), doc.attr_value(a));
                }
                open.push(pre);
            }
            NodeKind::Text => {
                b.text(doc.value(pre));
            }
            NodeKind::Comment => {
                b.comment(doc.value(pre));
            }
            NodeKind::Pi => {
                b.pi(&doc.names().lexical(doc.name_id(pre)), doc.value(pre));
            }
            NodeKind::Document => unreachable!("document node inside the tree"),
        }
        pre += 1;
    }
    let doc = b
        .finish()
        .map_err(|e| StoreError::Delta(format!("compacted document: {e}")))?;
    Layer::build(layer.name(), doc, layer.config().clone())
}

/// The annotation elements of `layer` named `name` that carry the
/// region `[start, end]`, ascending: a binary search of the region
/// index, whose entries are clustered on `(start, end, id)` (checked at
/// build and at mount), for the region's run of entries, filtered by
/// the name's id. O(log n) per key plus the run's length.
fn retract_matches<'a>(
    layer: &'a Layer,
    name: &str,
    start: i64,
    end: i64,
) -> impl Iterator<Item = u32> + 'a {
    let doc = layer.doc();
    let name = doc.names().get(name);
    let entries = layer.index().entries();
    let from = entries.partition_point(|e| (e.start, e.end) < (start, end));
    entries[from..]
        .iter()
        .take_while(move |e| e.start == start && e.end == end)
        .map(|e| e.id)
        .filter(move |&pre| Some(doc.name_id(pre)) == name)
}

fn append_insert(b: &mut DocumentBuilder, a: &DeltaAnnotation, config: &StandoffConfig) {
    b.start_element(&a.name);
    b.attribute(&config.start_name, &a.start.to_string());
    b.attribute(&config.end_name, &a.end.to_string());
    for (k, v) in &a.attrs {
        b.attribute(k, v);
    }
    b.end_element();
}

fn root_element_name(doc: &Document) -> Option<String> {
    doc.children(0)
        .find(|&c| doc.kind(c) == NodeKind::Element)
        .map(|c| doc.names().lexical(doc.name_id(c)))
}

fn check_token(s: &str, what: &str) -> Result<(), StoreError> {
    let bad = s.is_empty()
        || s.chars()
            .any(|c| c.is_whitespace() || matches!(c, '<' | '>' | '"' | '\'' | '=' | '/' | '&'));
    if bad {
        Err(StoreError::Delta(format!("bad {what}: {s:?}")))
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Sidecar text format
// ---------------------------------------------------------------------

/// Parse the delta sidecar text format, one op per line:
///
/// ```text
/// # comment / blank lines ignored
/// insert  <layer> <name> <start> <end> [k=v ...]
/// retract <layer> <name> <start> <end>
/// ```
///
/// Tokens are whitespace-separated; names and values must therefore be
/// whitespace-free (enforced again at [`DeltaSet::apply`] time).
pub fn parse_ops(text: &str) -> Result<Vec<DeltaOp>, StoreError> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let op = tok.next().unwrap();
        let bad = |msg: &str| {
            StoreError::Delta(format!("line {}: {} in {:?}", lineno + 1, msg, raw.trim()))
        };
        let mut field = |what: &str| tok.next().map(str::to_string).ok_or_else(|| bad(what));
        let layer = field("missing layer")?;
        let name = field("missing element name")?;
        let start: i64 = field("missing start")?
            .parse()
            .map_err(|_| bad("bad start position"))?;
        let end: i64 = field("missing end")?
            .parse()
            .map_err(|_| bad("bad end position"))?;
        match op {
            "insert" => {
                let mut attrs = Vec::new();
                for kv in tok {
                    let (k, v) = kv.split_once('=').ok_or_else(|| bad("attribute not k=v"))?;
                    attrs.push((k.to_string(), v.to_string()));
                }
                out.push(DeltaOp::Insert {
                    layer,
                    name,
                    start,
                    end,
                    attrs,
                });
            }
            "retract" => {
                if tok.next().is_some() {
                    return Err(bad("trailing tokens after retract"));
                }
                out.push(DeltaOp::Retract {
                    layer,
                    name,
                    start,
                    end,
                });
            }
            other => return Err(bad(&format!("unknown op {other:?}"))),
        }
    }
    Ok(out)
}

/// Serialize ops into the sidecar text format ([`parse_ops`] inverse).
pub fn ops_to_text(ops: &[DeltaOp]) -> String {
    let mut out = String::new();
    for op in ops {
        match op {
            DeltaOp::Insert {
                layer,
                name,
                start,
                end,
                attrs,
            } => {
                out.push_str(&format!("insert {layer} {name} {start} {end}"));
                for (k, v) in attrs {
                    out.push_str(&format!(" {k}={v}"));
                }
                out.push('\n');
            }
            DeltaOp::Retract {
                layer,
                name,
                start,
                end,
            } => {
                out.push_str(&format!("retract {layer} {name} {start} {end}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use standoff_xml::parse_document;

    fn sample_set() -> LayerSet {
        let base = parse_document(r#"<text>hello stand-off world</text>"#).unwrap();
        let mut set = LayerSet::build("mem://sample", base, StandoffConfig::default()).unwrap();
        let tokens = parse_document(
            r#"<tokens>
                 <w start="0" end="4" kind="word"/>
                 <w start="6" end="14" kind="word"/>
                 <w start="16" end="20" kind="word"/>
               </tokens>"#,
        )
        .unwrap();
        set.add_layer("tokens", tokens, StandoffConfig::default())
            .unwrap();
        set
    }

    fn insert(layer: &str, name: &str, start: i64, end: i64) -> DeltaOp {
        DeltaOp::Insert {
            layer: layer.into(),
            name: name.into(),
            start,
            end,
            attrs: vec![],
        }
    }

    fn retract(layer: &str, name: &str, start: i64, end: i64) -> DeltaOp {
        DeltaOp::Retract {
            layer: layer.into(),
            name: name.into(),
            start,
            end,
        }
    }

    #[test]
    fn apply_validates_layers_and_regions() {
        let set = sample_set();
        let mut delta = DeltaSet::new();
        assert!(delta.apply(insert("nope", "w", 0, 1), &set).is_err());
        assert!(delta.apply(insert("base", "w", 0, 1), &set).is_err());
        assert!(delta.apply(insert("tokens", "w", 5, 1), &set).is_err());
        assert!(delta
            .apply(
                DeltaOp::Insert {
                    layer: "tokens".into(),
                    name: "w".into(),
                    start: 0,
                    end: 1,
                    attrs: vec![("start".into(), "7".into())],
                },
                &set
            )
            .is_err());
        assert!(delta.apply(retract("tokens", "w", 1, 2), &set).is_err());
        assert!(delta.is_empty());

        delta.apply(insert("tokens", "ner", 6, 14), &set).unwrap();
        delta.apply(retract("tokens", "w", 0, 4), &set).unwrap();
        assert_eq!(delta.insert_count(), 1);
        assert_eq!(delta.retract_count(), 1);
        // Double retract of the same annotation is rejected.
        assert!(delta.apply(retract("tokens", "w", 0, 4), &set).is_err());
    }

    #[test]
    fn retract_cancels_pending_insert() {
        let set = sample_set();
        let mut delta = DeltaSet::new();
        delta.apply(insert("tokens", "ner", 6, 14), &set).unwrap();
        delta.apply(retract("tokens", "ner", 6, 14), &set).unwrap();
        assert!(delta.is_empty());
        assert_eq!(delta.retract_count(), 0);
    }

    #[test]
    fn retracted_pres_cover_whole_subtrees() {
        let base = parse_document("<t>abcdef</t>").unwrap();
        let mut set = LayerSet::build("mem://sub", base, StandoffConfig::default()).unwrap();
        let spans = parse_document(
            r#"<spans><s start="0" end="2"><note>n</note></s><s start="3" end="5"/></spans>"#,
        )
        .unwrap();
        set.add_layer("spans", spans, StandoffConfig::default())
            .unwrap();
        let mut delta = DeltaSet::new();
        delta.apply(retract("spans", "s", 0, 2), &set).unwrap();
        let layer = set.layer("spans").unwrap();
        let hidden = delta.layer_delta("spans").unwrap().retracted_pres(layer);
        let s = layer.doc().elements_named("s")[0];
        let mut expect: Vec<u32> = vec![s];
        expect.extend(layer.doc().descendants(s));
        assert_eq!(hidden, expect);
        assert!(hidden.len() >= 3, "element, child element, text");
    }

    #[test]
    fn compact_folds_inserts_and_retracts() {
        let set = sample_set();
        let mut delta = DeltaSet::new();
        delta
            .apply(
                DeltaOp::Insert {
                    layer: "tokens".into(),
                    name: "ner".into(),
                    start: 6,
                    end: 14,
                    attrs: vec![("class".into(), "MISC".into())],
                },
                &set,
            )
            .unwrap();
        delta.apply(retract("tokens", "w", 0, 4), &set).unwrap();
        let folded = compact(&set, &delta).unwrap();
        // Base untouched — shares the exact document.
        assert!(std::sync::Arc::ptr_eq(
            &set.base().doc_arc(),
            &folded.base().doc_arc()
        ));
        let tokens = folded.layer("tokens").unwrap();
        assert_eq!(tokens.doc().elements_named("w").len(), 2);
        let ner = tokens.doc().elements_named("ner");
        assert_eq!(ner.len(), 1);
        assert_eq!(tokens.doc().attribute(ner[0], "class"), Some("MISC"));
        assert_eq!(tokens.doc().attribute(ner[0], "start"), Some("6"));
        // Inserts land after the surviving originals, as root children.
        let last_w = tokens.doc().elements_named("w")[1];
        assert!(ner[0] > last_w);
        // The rebuilt layer re-validated: index covers 2 + 1 annotations.
        assert_eq!(tokens.annotation_count(), 3);
    }

    /// Regression: `to_ops` used to emit a layer's inserts before its
    /// retracts, so replaying a re-tag (retract K, insert K with new
    /// attributes) let the retract cancel the re-insert and the
    /// acknowledged update vanished at the next checkpoint.
    #[test]
    fn retag_survives_to_ops_replay() {
        let set = sample_set();
        let mut delta = DeltaSet::new();
        delta.apply(retract("tokens", "w", 6, 14), &set).unwrap();
        delta
            .apply(
                DeltaOp::Insert {
                    layer: "tokens".into(),
                    name: "w".into(),
                    start: 6,
                    end: 14,
                    attrs: vec![("pos".into(), "NN".into())],
                },
                &set,
            )
            .unwrap();
        let mut replayed = DeltaSet::new();
        replayed.apply_all(delta.to_ops(), &set).unwrap();
        assert_eq!(replayed.to_ops(), delta.to_ops());
        assert_eq!((replayed.insert_count(), replayed.retract_count()), (1, 1));
        let bytes = |d: &DeltaSet| {
            let mut out = Vec::new();
            crate::snapshot::write_snapshot(&compact(&set, d).unwrap(), &mut out).unwrap();
            out
        };
        assert_eq!(bytes(&replayed), bytes(&delta));
    }

    #[test]
    fn compact_without_delta_shares_layers() {
        let set = sample_set();
        let folded = compact(&set, &DeltaSet::new()).unwrap();
        for (a, b) in set.layers().iter().zip(folded.layers()) {
            assert!(std::sync::Arc::ptr_eq(&a.doc_arc(), &b.doc_arc()));
        }
    }

    #[test]
    fn sidecar_text_roundtrip() {
        let text = "# delta\ninsert tokens ner 6 14 class=MISC\nretract tokens w 0 4\n";
        let ops = parse_ops(text).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(
            ops[0],
            DeltaOp::Insert {
                layer: "tokens".into(),
                name: "ner".into(),
                start: 6,
                end: 14,
                attrs: vec![("class".into(), "MISC".into())],
            }
        );
        let round = ops_to_text(&ops);
        assert_eq!(parse_ops(&round).unwrap(), ops);
        assert!(parse_ops("insert tokens w 0\n").is_err());
        assert!(parse_ops("frobnicate tokens w 0 4\n").is_err());
        assert!(parse_ops("retract tokens w 0 4 extra\n").is_err());
    }

    #[test]
    fn insert_doc_mirrors_compaction_shape() {
        let set = sample_set();
        let mut delta = DeltaSet::new();
        delta.apply(insert("tokens", "ner", 6, 14), &set).unwrap();
        let layer = set.layer("tokens").unwrap();
        let doc = delta
            .layer_delta("tokens")
            .unwrap()
            .insert_doc(layer)
            .unwrap()
            .unwrap();
        // Root carries the layer root's name; one child per insert.
        let roots = doc.elements_named("tokens");
        assert_eq!(roots.len(), 1);
        assert_eq!(doc.elements_named("ner").len(), 1);
        // Retract-only deltas need no sibling document.
        let mut d2 = DeltaSet::new();
        d2.apply(retract("tokens", "w", 0, 4), &set).unwrap();
        assert!(d2
            .layer_delta("tokens")
            .unwrap()
            .insert_doc(layer)
            .unwrap()
            .is_none());
    }

    /// Linear reference for `retract_matches`: every element
    /// with the key's name whose regions include the key's region.
    fn linear_matches(layer: &Layer, name: &str, start: i64, end: i64) -> Vec<u32> {
        let doc = layer.doc();
        doc.elements_named(name)
            .iter()
            .copied()
            .filter(|&pre| {
                layer
                    .index()
                    .regions_of(pre)
                    .iter()
                    .any(|r| r.start == start && r.end == end)
            })
            .collect()
    }

    const NAMES: [&str; 3] = ["a", "b", "c"];

    /// `(name, start, len)` of an annotation or a retract key; name `c`
    /// never occurs in a layer, so its keys match nothing.
    type Key = (usize, i64, i64);

    fn key() -> impl Strategy<Value = Key> {
        (0usize..3, 0i64..6, 0i64..3)
    }

    /// A layer document over names `a`/`b`: top-level annotations, each
    /// with nested child annotations and a text node. The small region
    /// space makes duplicate regions and two names on one region common.
    fn layer_xml(tops: &[(Key, Vec<Key>)]) -> String {
        let elem = |(n, s, l): Key| format!(r#"{} start="{s}" end="{}""#, NAMES[n % 2], s + l);
        let mut xml = String::from("<layer>");
        for (top, children) in tops {
            xml.push_str(&format!("<{}>", elem(*top)));
            for child in children {
                xml.push_str(&format!("<{}>t</{}>", elem(*child), NAMES[child.0 % 2]));
            }
            xml.push_str(&format!("</{}>", NAMES[top.0 % 2]));
        }
        xml.push_str("</layer>");
        xml
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The region-index matcher agrees with the linear reference on
        /// every key — built and mounted layers alike — and so do
        /// `retracted_pres` and `compact`.
        #[test]
        fn indexed_matcher_equals_linear_reference(
            tops in prop::collection::vec(
                (key(), prop::collection::vec(key(), 0..3)),
                0..8,
            ),
            keys in prop::collection::vec(key(), 0..8),
            inserts in prop::collection::vec(key(), 0..2),
        ) {
            let base = parse_document("<t>0123456789</t>").unwrap();
            let mut set = LayerSet::build("mem://prop", base, StandoffConfig::default()).unwrap();
            let doc = parse_document(&layer_xml(&tops)).unwrap();
            set.add_layer("ann", doc, StandoffConfig::default()).unwrap();
            let mut bytes = Vec::new();
            crate::snapshot::write_snapshot(&set, &mut bytes).unwrap();
            let mounted = crate::mount::Snapshot::from_bytes(bytes)
                .unwrap()
                .to_layer_set()
                .unwrap();
            let keys: Vec<(&str, i64, i64)> =
                keys.iter().map(|&(n, s, l)| (NAMES[n], s, s + l)).collect();
            for set in [&set, &mounted] {
                let layer = set.layer("ann").unwrap();
                for &(name, start, end) in &keys {
                    let indexed: Vec<u32> = retract_matches(layer, name, start, end).collect();
                    prop_assert_eq!(indexed, linear_matches(layer, name, start, end));
                }
            }

            let layer = set.layer("ann").unwrap();
            let mut delta = DeltaSet::new();
            for &(name, start, end) in &keys {
                // Keys that match nothing, or repeat, are rejected.
                let _ = delta.apply(retract("ann", name, start, end), &set);
            }
            for &(n, s, l) in &inserts {
                delta.apply(insert("ann", NAMES[n], s, s + l), &set).unwrap();
            }
            let Some(d) = delta.layer_delta("ann") else {
                return Ok(());
            };
            let mut roots: Vec<u32> = d
                .retracts
                .iter()
                .flat_map(|(name, start, end)| linear_matches(layer, name, *start, *end))
                .collect();
            roots.sort_unstable();
            roots.dedup();
            let doc = layer.doc();
            let mut hidden: Vec<u32> = Vec::new();
            for &pre in &roots {
                hidden.push(pre);
                hidden.extend(doc.descendants(pre));
            }
            hidden.sort_unstable();
            hidden.dedup();
            prop_assert_eq!(d.retracted_pres(layer), hidden);

            let reference = compact_layer(layer, &roots, d.inserts()).unwrap();
            let compacted = compact(&set, &delta).unwrap();
            let xml = |doc: &Document| standoff_xml::serialize_document(doc, Default::default());
            prop_assert_eq!(
                xml(compacted.layer("ann").unwrap().doc()),
                xml(reference.doc())
            );
        }
    }
}
