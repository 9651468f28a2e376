//! # standoff-store
//!
//! Persistent multi-layer stand-off annotation store.
//!
//! The paper's premise is that stand-off annotations live *apart* from
//! the base data: many independent annotation hierarchies — tokens,
//! entities, syntax, shots, genes — reference regions of one immutable
//! BLOB. This crate makes that durable and cheap to reopen:
//!
//! * [`Layer`] / [`LayerSet`] — named annotation layers over one shared
//!   base, each carrying its own [`standoff_core::RegionIndex`] and
//!   [`standoff_core::StandoffConfig`]. Layers share the BLOB coordinate
//!   space, so the StandOff axes (`select-narrow` & co.) and merge joins
//!   compose *across* layers.
//! * [`snapshot`] / [`mount`] — a versioned binary format (no external
//!   serde) that persists every layer's shredded document, element-name
//!   CSR and prebuilt region index. One writer, [`write_snapshot`] /
//!   [`save_snapshot`], emits the current SOSN v4 format: columnar,
//!   offset-indexed, with a CRC32 per section. One reader,
//!   [`Snapshot::open`] / [`Snapshot::from_bytes`], *mounts* the file as
//!   one shared buffer; layers materialize lazily on first access as
//!   zero-copy column views (checksums verified then), and
//!   [`Snapshot::info`] reads only the section table and layer headers.
//!   No XML parsing, no `RegionIndex::build`, no per-node allocation —
//!   the cold-start path the ROADMAP asks for. Older v3 (unchecksummed)
//!   and v1 (streaming, decoded eagerly) files open through the same
//!   reader.
//! * [`atomic`] / [`wal`] — the durability layer: every in-place
//!   rewrite goes through write-temp → fsync → rename → fsync(dir), and
//!   delta batches are journaled to an append-only, per-record
//!   checksummed `<sidecar>.wal` *before* they become visible, so a
//!   committed batch survives SIGKILL and recovery replays exactly the
//!   committed prefix (torn tails are truncated; damaged committed
//!   records are categorized [`StoreError::Corrupt`]).
//!   [`sidecar`] is the one recovery protocol (checkpoint, then the
//!   journal records above its mark) for every reader and the writer.
//!
//! `standoff_xquery::Engine::mount_snapshot` / `mount_store` mounts the
//! layers so that `doc("uri")`, `doc("uri#layer")` and
//! `layer("uri", "name")` resolve to the stored layers, with all region
//! indices pre-installed (shared, not copied).

pub mod atomic;
pub mod delta;
pub mod error;
pub mod layer;
pub mod mount;
pub mod sidecar;
pub mod snapshot;
pub mod wal;

pub use atomic::{atomic_replace, atomic_write};
pub use delta::{compact, ops_to_text, parse_ops, DeltaAnnotation, DeltaOp, DeltaSet, LayerDelta};
pub use error::StoreError;
pub use layer::{Layer, LayerSet, BASE_LAYER};
pub use mount::{Snapshot, VerifyReport};
pub use sidecar::{checkpoint_marker, checkpointed_seq, wal_path};
pub use snapshot::{save_snapshot, write_snapshot, LayerInfo, SectionInfo, SnapshotInfo};
pub use wal::{DeltaWal, WalRecord, WalScan};
