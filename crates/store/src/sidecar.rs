//! The delta sidecar protocol: the checkpoint `<sidecar>` and its
//! journal `<sidecar>.wal` ([`crate::wal`]). A sidecar without a
//! checkpoint is journal-only.
//!
//! Folding the journal into a rewritten sidecar has an unavoidable
//! window: the checkpoint rename can land while the journal truncation
//! hasn't — and replaying already-folded batches is not idempotent
//! (re-retracts error, re-inserts duplicate). A checkpoint is therefore
//! stamped with [`checkpoint_marker`] (the last folded `seq`), recovery
//! replays the checkpoint and then only the journal records above
//! [`checkpointed_seq`], and the writer sequences new batches above it
//! ([`DeltaWal::ensure_seq_above`]).

use std::fmt::Display;
use std::path::{Path, PathBuf};

use crate::atomic::atomic_write;
use crate::delta::{ops_to_text, parse_ops, DeltaSet};
use crate::error::StoreError;
use crate::layer::LayerSet;
use crate::wal::{DeltaWal, WalRecord, WalScan};

/// The journal path belonging to a sidecar: `<sidecar>.wal`.
pub fn wal_path(sidecar: &Path) -> PathBuf {
    let mut name = sidecar.as_os_str().to_os_string();
    name.push(".wal");
    PathBuf::from(name)
}

/// The sidecar comment line a checkpoint writer prepends to record the
/// last journal `seq` folded into the checkpoint (`parse_ops` skips
/// `#` lines, so old readers are unaffected).
pub fn checkpoint_marker(seq: u64) -> String {
    format!("# wal-checkpoint-seq {seq}\n")
}

/// The checkpoint high-water mark recorded in sidecar ops text, or 0
/// if none: journal records with `seq` at or below it are already part
/// of the checkpoint and must not replay again.
pub fn checkpointed_seq(sidecar_text: &str) -> u64 {
    sidecar_text
        .lines()
        .map(str::trim)
        .take_while(|l| l.is_empty() || l.starts_with('#'))
        .find_map(|l| l.strip_prefix("# wal-checkpoint-seq "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

fn fail(what: impl Display, e: impl Display) -> StoreError {
    StoreError::Sidecar(format!("{what}: {e}"))
}

/// A sidecar as readers see it: the checkpoint and a read-only journal
/// scan, which leaves a torn tail for the next writer.
#[derive(Debug)]
pub struct SidecarLog {
    path: PathBuf,
    pub wal: PathBuf,
    /// `None` for a journal-only sidecar.
    pub checkpoint: Option<String>,
    pub checkpoint_seq: u64,
    /// The committed journal, or why its scan failed.
    pub journal: Result<WalScan, StoreError>,
}

impl SidecarLog {
    /// Fails when the checkpoint cannot be read, or is absent without a
    /// journal to stand in for it.
    pub fn read(sidecar: &Path) -> Result<SidecarLog, StoreError> {
        let mut log = SidecarLog::read_checkpoint(sidecar, wal_path(sidecar).exists())?;
        log.journal = DeltaWal::scan(&log.wal);
        Ok(log)
    }

    /// The checkpoint alone, with an empty journal.
    fn read_checkpoint(sidecar: &Path, missing_ok: bool) -> Result<SidecarLog, StoreError> {
        let checkpoint = match std::fs::read_to_string(sidecar) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && missing_ok => None,
            Err(e) => return Err(fail(format_args!("cannot read {}", sidecar.display()), e)),
        };
        Ok(SidecarLog {
            path: sidecar.to_path_buf(),
            wal: wal_path(sidecar),
            checkpoint_seq: checkpoint.as_deref().map_or(0, checkpointed_seq),
            checkpoint,
            journal: Ok(WalScan::default()),
        })
    }

    fn records(&self) -> &[WalRecord] {
        self.journal.as_ref().map_or(&[], |scan| &scan.records)
    }

    /// The batches to replay as `(where, ops text)`: the checkpoint,
    /// then the committed journal records above its mark.
    pub fn batches(&self) -> impl Iterator<Item = (String, &str)> {
        let (path, mark) = (self.path.display().to_string(), self.checkpoint_seq);
        let checkpoint = self.checkpoint.as_deref().map(|ops| (path, ops));
        let at = |r: &WalRecord| format!("{} record {}", self.wal.display(), r.seq);
        let above = self.records().iter().filter(move |r| r.seq > mark);
        let records = above.map(move |r| (at(r), r.ops.as_str()));
        checkpoint.into_iter().chain(records)
    }

    /// Journal records at or below the mark, which never replay.
    pub fn skipped(&self) -> usize {
        let mark = self.checkpoint_seq;
        self.records().iter().filter(|r| r.seq <= mark).count()
    }

    /// Replay every batch into `delta`, stopping at the first failure.
    pub fn replay(&self, delta: &mut DeltaSet, set: &LayerSet) -> Result<(), StoreError> {
        for (at, ops) in self.batches() {
            parse_ops(ops)
                .and_then(|ops| delta.apply_all(ops, set))
                .map_err(|e| fail(at, e))?;
        }
        match &self.journal {
            Ok(_) => Ok(()),
            Err(e) => Err(fail(self.wal.display(), e)),
        }
    }
}

/// Replay `sidecars` over `set`, in order, into one delta: what every
/// `--delta` reader mounts.
pub fn load_delta<P: AsRef<Path>>(sidecars: &[P], set: &LayerSet) -> Result<DeltaSet, StoreError> {
    let mut delta = DeltaSet::new();
    for sidecar in sidecars {
        SidecarLog::read(sidecar.as_ref())?.replay(&mut delta, set)?;
    }
    Ok(delta)
}

/// Recover `sidecar` for its one writer: the pending delta (checkpoint,
/// absent = empty, then the journal) and the journal, opened in writer
/// mode (a torn tail is truncated) and sequenced above the mark.
pub fn open_writer(sidecar: &Path, set: &LayerSet) -> Result<(DeltaWal, DeltaSet), StoreError> {
    // The checkpoint replays before the journal is opened (or created),
    // so a rejected checkpoint leaves the journal untouched.
    let mut log = SidecarLog::read_checkpoint(sidecar, true)?;
    let mut delta = DeltaSet::new();
    log.replay(&mut delta, set)?;
    let (mut wal, records) = DeltaWal::open(&log.wal).map_err(|e| fail(log.wal.display(), e))?;
    wal.ensure_seq_above(log.checkpoint_seq);
    log.checkpoint = None;
    log.journal = Ok(WalScan {
        records,
        ..WalScan::default()
    });
    log.replay(&mut delta, set)?;
    Ok((wal, delta))
}

/// Checkpoint `delta`, the journal's batches included: rewrite
/// `sidecar` atomically, stamped with the journal's last seq, then
/// truncate the journal. A crash between the two is safe: the mark
/// keeps the folded records from replaying.
pub fn checkpoint(sidecar: &Path, wal: &mut DeltaWal, delta: &DeltaSet) -> Result<(), StoreError> {
    let mut text = checkpoint_marker(wal.last_seq());
    text.push_str(&ops_to_text(&delta.to_ops()));
    atomic_write(sidecar, text.as_bytes())
        .map_err(|e| fail(format_args!("cannot write {}", sidecar.display()), e))?;
    let truncated = wal.truncate();
    truncated.map_err(|e| fail(wal.path().display(), e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use standoff_core::StandoffConfig;
    use standoff_xml::parse_document;

    fn temp_sidecar(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("standoff-sidecar-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("corpus.delta")
    }

    fn cleanup(sidecar: &Path) {
        let _ = std::fs::remove_dir_all(sidecar.parent().unwrap());
    }

    fn set() -> LayerSet {
        let base = parse_document("<text>Alice met Bob</text>").unwrap();
        let mut set = LayerSet::build("mem://sidecar", base, StandoffConfig::default()).unwrap();
        let tokens = parse_document(
            r#"<tokens><w start="0" end="4"/><w start="6" end="8"/><w start="10" end="12"/></tokens>"#,
        )
        .unwrap();
        set.add_layer("tokens", tokens, StandoffConfig::default())
            .unwrap();
        set
    }

    /// Journal `batches` through a fresh writer, without a checkpoint.
    fn journal(sidecar: &Path, set: &LayerSet, batches: &[&str]) {
        let (mut wal, mut delta) = open_writer(sidecar, set).unwrap();
        for batch in batches {
            delta.apply_all(parse_ops(batch).unwrap(), set).unwrap();
            wal.append(batch).unwrap();
        }
    }

    #[test]
    fn journal_only_sidecar_replays_its_records() {
        let (sidecar, set) = (temp_sidecar("journal-only"), set());
        journal(
            &sidecar,
            &set,
            &["insert tokens ner 0 4\n", "retract tokens w 6 8\n"],
        );
        assert!(!sidecar.exists(), "journaling writes no checkpoint");
        let log = SidecarLog::read(&sidecar).unwrap();
        assert_eq!((log.checkpoint.as_deref(), log.checkpoint_seq), (None, 0));
        let at: Vec<String> = log.batches().map(|(at, _)| at).collect();
        let wal = wal_path(&sidecar).display().to_string();
        assert_eq!(at, [format!("{wal} record 1"), format!("{wal} record 2")]);
        let delta = load_delta(&[&sidecar], &set).unwrap();
        assert_eq!((delta.insert_count(), delta.retract_count()), (1, 1));
        cleanup(&sidecar);
    }

    #[test]
    fn sidecar_without_checkpoint_or_journal_is_an_error() {
        let (sidecar, set) = (temp_sidecar("missing"), set());
        let err = load_delta(&[&sidecar], &set).unwrap_err();
        assert!(err.to_string().starts_with("cannot read "), "{err}");
        assert!(SidecarLog::read(&sidecar).is_err());
        cleanup(&sidecar);
    }

    #[test]
    fn records_at_or_below_the_mark_are_skipped() {
        let _guard = crate::atomic::fault_lock();
        let (sidecar, set) = (temp_sidecar("mark"), set());
        journal(
            &sidecar,
            &set,
            &["insert tokens ner 0 4\n", "retract tokens w 6 8\n"],
        );
        // The checkpoint window: the checkpoint lands, the journal
        // truncation does not.
        let journal_bytes = std::fs::read(wal_path(&sidecar)).unwrap();
        let (mut wal, delta) = open_writer(&sidecar, &set).unwrap();
        checkpoint(&sidecar, &mut wal, &delta).unwrap();
        drop(wal);
        std::fs::write(wal_path(&sidecar), journal_bytes).unwrap();

        let log = SidecarLog::read(&sidecar).unwrap();
        assert_eq!(log.checkpoint_seq, 2);
        assert_eq!(log.skipped(), 2);
        let at: Vec<String> = log.batches().map(|(at, _)| at).collect();
        assert_eq!(
            at,
            [sidecar.display().to_string()],
            "only the checkpoint replays"
        );
        // Replaying the folded records again would fail: a second
        // retract of `w 6 8` is rejected.
        let delta = load_delta(&[&sidecar], &set).unwrap();
        assert_eq!((delta.insert_count(), delta.retract_count()), (1, 1));
        let (_, recovered) = open_writer(&sidecar, &set).unwrap();
        assert_eq!(recovered.to_ops(), delta.to_ops());
        cleanup(&sidecar);
    }

    #[test]
    fn torn_tail_is_ignored_by_readers_and_truncated_by_the_writer() {
        let _guard = crate::atomic::fault_lock();
        let (sidecar, set) = (temp_sidecar("torn"), set());
        // Checkpoint at mark 1, then one more journaled batch, torn.
        journal(&sidecar, &set, &["insert tokens ner 0 4\n"]);
        let (mut wal, delta) = open_writer(&sidecar, &set).unwrap();
        checkpoint(&sidecar, &mut wal, &delta).unwrap();
        drop(wal);
        journal(&sidecar, &set, &["retract tokens w 6 8\n"]);
        let wal_file = wal_path(&sidecar);
        let full = std::fs::read(&wal_file).unwrap();
        std::fs::write(&wal_file, &full[..full.len() - 5]).unwrap();

        let log = SidecarLog::read(&sidecar).unwrap();
        assert_eq!(log.checkpoint_seq, 1);
        let scan = log.journal.as_ref().unwrap();
        assert!(scan.torn_tail);
        assert!(scan.records.is_empty());
        let delta = load_delta(&[&sidecar], &set).unwrap();
        assert_eq!((delta.insert_count(), delta.retract_count()), (1, 0));
        assert_eq!(std::fs::read(&wal_file).unwrap().len(), full.len() - 5);

        // The writer truncates the tail and sequences above the mark.
        let (mut wal, recovered) = open_writer(&sidecar, &set).unwrap();
        assert_eq!(recovered.to_ops(), delta.to_ops());
        let scan = DeltaWal::scan(&wal_file).unwrap();
        assert!(!scan.torn_tail && scan.records.is_empty());
        assert_eq!(wal.append("retract tokens w 6 8\n").unwrap(), 2);
        drop(wal);
        let delta = load_delta(&[&sidecar], &set).unwrap();
        assert_eq!((delta.insert_count(), delta.retract_count()), (1, 1));
        cleanup(&sidecar);
    }

    #[test]
    fn checkpoint_marker_round_trips_and_defaults_to_zero() {
        assert_eq!(checkpointed_seq(&checkpoint_marker(17)), 17);
        assert_eq!(
            checkpointed_seq(&format!("{}insert tokens w 0 5\n", checkpoint_marker(3))),
            3
        );
        assert_eq!(checkpointed_seq("insert tokens w 0 5\n"), 0);
        // Only the leading comment block is scanned: ops text that
        // merely *contains* the phrase later doesn't count.
        assert_eq!(
            checkpointed_seq("insert tokens w 0 5\n# wal-checkpoint-seq 9\n"),
            0
        );
    }
}
