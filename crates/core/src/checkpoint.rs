//! Fault-tolerance checkpointing (§4.4 of the paper).
//!
//! "During ALS execution we asynchronously checkpoint X and Θ generated from
//! the latest iteration, into a connected parallel file system.  When the
//! machine fails, the latest X or Θ (whichever is more recent) is used to
//! restart ALS."
//!
//! The format is a small self-describing binary file (magic, version,
//! iteration, shapes, little-endian `f32` payloads) — no external
//! serialization crates needed.
//!
//! Between full checkpoints, incremental **fold-ins** (see
//! [`crate::foldin`]) are journaled as [`CheckpointDelta`] records: changed
//! user rows plus optional appended user/item rows, chained onto the full
//! checkpoint they were applied after.  A delta file is `O(u·f)` on disk —
//! the whole point of the incremental path — and
//! [`CheckpointManager::load_latest_with_deltas`] replays the chain on
//! restore, so a crash after a fold-in loses nothing even though no full
//! checkpoint was rewritten.
//!
//! Left alone, a delta chain grows until the next retrain, and restore time
//! grows with it.  A [`CompactionPolicy`] bounds that:
//! [`CheckpointManager::compact`] folds the latest chain into a fresh full
//! checkpoint (stamped `base_iteration + 1`, so a crash between the write
//! and the cleanup can never replay a delta twice — the folded chain is
//! keyed to the old iteration and simply ignored) and prunes the folded
//! records; [`CheckpointManager::save_delta_compacting`] journals a delta
//! and compacts automatically once the chain exceeds the policy's record
//! count or its on-disk size exceeds the configured fraction of the base
//! checkpoint.

use cumf_linalg::FactorMatrix;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"CUMFCKP1";
/// Version 2 adds the base factor shapes (replay-safety guard); v1 records
/// are rejected as unreadable rather than replayed without the guard.
const DELTA_MAGIC: &[u8; 8] = b"CUMFDLT2";

/// A checkpoint of the factor matrices after a given iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Iteration number the factors were produced by (1-based).
    pub iteration: u64,
    /// User factors `X`.
    pub x: FactorMatrix,
    /// Item factors `Θ`.
    pub theta: FactorMatrix,
}

/// An incremental update journaled between full checkpoints: the durable
/// record of one fold-in, replayable on restore.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointDelta {
    /// Iteration of the full checkpoint this delta chains from.
    pub base_iteration: u64,
    /// 1-based position in the delta chain after that checkpoint.
    pub seq: u64,
    /// User rows (`X`) of the exact state this delta was built against —
    /// the base checkpoint plus every earlier delta in the chain.  Guards
    /// replay: an iteration number alone cannot tell a stale chain from
    /// the checkpoint a later run rewrote under the same number, but a
    /// shape mismatch turns that silent corruption into a loud error.
    pub base_users: u64,
    /// Item rows (`Θ`) of the state this delta was built against.
    pub base_items: u64,
    /// Users whose factor rows changed (parallel to `changed_rows`).
    pub changed_ids: Vec<u32>,
    /// One replacement row per changed user.
    pub changed_rows: FactorMatrix,
    /// Brand-new users appended after the base checkpoint's rows.
    pub appended_users: Option<FactorMatrix>,
    /// New catalog items appended after the base checkpoint's rows.
    pub appended_items: Option<FactorMatrix>,
}

impl CheckpointDelta {
    /// Applies this delta to a restored checkpoint in place.
    ///
    /// # Panics
    /// Panics if the delta does not chain from `checkpoint`'s iteration,
    /// the checkpoint's factor shapes differ from the state the delta was
    /// built against (a reused iteration number over different factors —
    /// replaying would corrupt silently), a changed id is out of range, or
    /// ranks disagree.
    pub fn apply_to(&self, checkpoint: &mut Checkpoint) {
        assert_eq!(
            self.base_iteration, checkpoint.iteration,
            "delta chains from a different checkpoint"
        );
        assert_eq!(
            (self.base_users, self.base_items),
            (checkpoint.x.len() as u64, checkpoint.theta.len() as u64),
            "delta was built against different factor shapes; refusing to \
             replay onto a checkpoint that reused the iteration number"
        );
        assert_eq!(
            self.changed_ids.len(),
            self.changed_rows.len(),
            "changed ids and rows disagree"
        );
        let f = checkpoint.x.rank();
        for (i, &user) in self.changed_ids.iter().enumerate() {
            assert_eq!(self.changed_rows.rank(), f, "changed row rank mismatch");
            checkpoint
                .x
                .vector_mut(user as usize)
                .copy_from_slice(self.changed_rows.vector(i));
        }
        if let Some(app) = &self.appended_users {
            checkpoint.x.append_rows(app);
        }
        if let Some(app) = &self.appended_items {
            checkpoint.theta.append_rows(app);
        }
    }
}

/// When to rewrite a full checkpoint instead of letting the delta chain
/// grow (restore time is `O(base + chain)`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionPolicy {
    /// Compact once the chain holds this many delta records (0 = never by
    /// count).
    pub max_deltas: usize,
    /// Compact once the chain's on-disk bytes exceed this fraction of the
    /// base checkpoint's size (≤ 0.0 = never by size).
    pub max_chain_fraction: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self {
            max_deltas: 16,
            max_chain_fraction: 0.5,
        }
    }
}

/// What a [`CheckpointManager::compact`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionReport {
    /// Iteration of the checkpoint the chain was folded into.
    pub base_iteration: u64,
    /// Iteration stamped on the rewritten full checkpoint
    /// (`base_iteration + 1`).
    pub new_iteration: u64,
    /// Delta records folded in (and pruned).
    pub folded_deltas: usize,
}

/// Writes and restores checkpoints in a directory.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    dir: PathBuf,
}

impl CheckpointManager {
    /// Creates a manager rooted at `dir` (the directory is created if
    /// missing).
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory checkpoints are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, iteration: u64) -> PathBuf {
        self.dir.join(format!("checkpoint_{iteration:08}.cumf"))
    }

    /// Saves a checkpoint synchronously.  The file is written to a temporary
    /// name and atomically renamed, so a crash mid-write never corrupts the
    /// latest checkpoint.
    pub fn save(&self, checkpoint: &Checkpoint) -> io::Result<PathBuf> {
        let final_path = self.path_for(checkpoint.iteration);
        let tmp_path = final_path.with_extension("tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp_path)?);
            w.write_all(MAGIC)?;
            w.write_all(&checkpoint.iteration.to_le_bytes())?;
            write_factor(&mut w, &checkpoint.x)?;
            write_factor(&mut w, &checkpoint.theta)?;
            w.flush()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        Ok(final_path)
    }

    /// The highest-iteration checkpoint file, if any.
    fn latest_checkpoint_entry(&self) -> io::Result<Option<(u64, PathBuf)>> {
        let mut best: Option<(u64, PathBuf)> = None;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(iter_str) = name
                .strip_prefix("checkpoint_")
                .and_then(|s| s.strip_suffix(".cumf"))
            {
                if let Ok(iter) = iter_str.parse::<u64>() {
                    if best.as_ref().map(|(b, _)| iter > *b).unwrap_or(true) {
                        best = Some((iter, entry.path()));
                    }
                }
            }
        }
        Ok(best)
    }

    /// Loads the checkpoint with the highest iteration number, if any.
    pub fn load_latest(&self) -> io::Result<Option<Checkpoint>> {
        match self.latest_checkpoint_entry()? {
            None => Ok(None),
            Some((_, path)) => Ok(Some(Self::load(&path)?)),
        }
    }

    /// Loads a specific checkpoint file.
    pub fn load(path: &Path) -> io::Result<Checkpoint> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a cuMF checkpoint",
            ));
        }
        let iteration = read_u64(&mut r)?;
        let x = read_factor(&mut r)?;
        let theta = read_factor(&mut r)?;
        Ok(Checkpoint {
            iteration,
            x,
            theta,
        })
    }

    fn delta_path_for(&self, base_iteration: u64, seq: u64) -> PathBuf {
        self.dir
            .join(format!("delta_{base_iteration:08}_{seq:04}.cumfd"))
    }

    /// Journals a fold-in delta next to the full checkpoints (same
    /// write-then-rename atomicity).  The file holds only the changed and
    /// appended rows — `O(u·f)` bytes, not a full factor copy.
    pub fn save_delta(&self, delta: &CheckpointDelta) -> io::Result<PathBuf> {
        assert_eq!(
            delta.changed_ids.len(),
            delta.changed_rows.len(),
            "changed ids and rows disagree"
        );
        let final_path = self.delta_path_for(delta.base_iteration, delta.seq);
        let tmp_path = final_path.with_extension("tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp_path)?);
            w.write_all(DELTA_MAGIC)?;
            w.write_all(&delta.base_iteration.to_le_bytes())?;
            w.write_all(&delta.seq.to_le_bytes())?;
            w.write_all(&delta.base_users.to_le_bytes())?;
            w.write_all(&delta.base_items.to_le_bytes())?;
            w.write_all(&(delta.changed_ids.len() as u64).to_le_bytes())?;
            for &id in &delta.changed_ids {
                w.write_all(&id.to_le_bytes())?;
            }
            write_factor(&mut w, &delta.changed_rows)?;
            for optional in [&delta.appended_users, &delta.appended_items] {
                match optional {
                    Some(m) => {
                        w.write_all(&[1u8])?;
                        write_factor(&mut w, m)?;
                    }
                    None => w.write_all(&[0u8])?,
                }
            }
            w.flush()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        Ok(final_path)
    }

    /// Loads one delta record.
    pub fn load_delta(path: &Path) -> io::Result<CheckpointDelta> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != DELTA_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a cuMF checkpoint delta",
            ));
        }
        let base_iteration = read_u64(&mut r)?;
        let seq = read_u64(&mut r)?;
        let base_users = read_u64(&mut r)?;
        let base_items = read_u64(&mut r)?;
        let n_changed = read_u64(&mut r)? as usize;
        let mut changed_ids = Vec::with_capacity(n_changed);
        for _ in 0..n_changed {
            let mut buf = [0u8; 4];
            r.read_exact(&mut buf)?;
            changed_ids.push(u32::from_le_bytes(buf));
        }
        let changed_rows = read_factor(&mut r)?;
        let mut optionals = [None, None];
        for slot in &mut optionals {
            let mut flag = [0u8; 1];
            r.read_exact(&mut flag)?;
            if flag[0] == 1 {
                *slot = Some(read_factor(&mut r)?);
            }
        }
        let [appended_users, appended_items] = optionals;
        Ok(CheckpointDelta {
            base_iteration,
            seq,
            base_users,
            base_items,
            changed_ids,
            changed_rows,
            appended_users,
            appended_items,
        })
    }

    /// The delta files chained onto `iteration`, sorted by sequence number.
    fn chain_files(&self, iteration: u64) -> io::Result<Vec<(u64, PathBuf)>> {
        let prefix = format!("delta_{iteration:08}_");
        let mut chain: Vec<(u64, PathBuf)> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy().to_string();
                name.strip_prefix(&prefix)
                    .and_then(|s| s.strip_suffix(".cumfd"))
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(|seq| (seq, e.path()))
            })
            .collect();
        chain.sort_by_key(|(seq, _)| *seq);
        Ok(chain)
    }

    /// Restores the latest full checkpoint **with its delta chain
    /// replayed**: every `delta_<iteration>_<seq>` record chained onto the
    /// latest checkpoint is applied in sequence order.  Returns the
    /// reconstructed checkpoint and the number of deltas replayed.
    pub fn load_latest_with_deltas(&self) -> io::Result<Option<(Checkpoint, usize)>> {
        let Some(mut checkpoint) = self.load_latest()? else {
            return Ok(None);
        };
        let chain = self.chain_files(checkpoint.iteration)?;
        let replayed = chain.len();
        for (_, path) in chain {
            Self::load_delta(&path)?.apply_to(&mut checkpoint);
        }
        Ok(Some((checkpoint, replayed)))
    }

    /// Record count and summed on-disk bytes of the delta chain hanging off
    /// `iteration`.
    fn chain_stats(&self, iteration: u64) -> io::Result<(usize, u64)> {
        let chain = self.chain_files(iteration)?;
        let mut bytes = 0u64;
        for (_, path) in &chain {
            bytes += fs::metadata(path)?.len();
        }
        Ok((chain.len(), bytes))
    }

    /// True when the latest checkpoint's delta chain exceeds `policy` —
    /// either by record count or by on-disk size relative to the base
    /// checkpoint file.  `false` when no checkpoint (or no chain) exists.
    pub fn should_compact(&self, policy: &CompactionPolicy) -> io::Result<bool> {
        let Some((iteration, path)) = self.latest_checkpoint_entry()? else {
            return Ok(false);
        };
        let (count, chain_bytes) = self.chain_stats(iteration)?;
        if count == 0 {
            return Ok(false);
        }
        if policy.max_deltas > 0 && count >= policy.max_deltas {
            return Ok(true);
        }
        if policy.max_chain_fraction > 0.0 {
            let base_bytes = fs::metadata(&path)?.len();
            if chain_bytes as f64 > policy.max_chain_fraction * base_bytes as f64 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Folds the latest checkpoint's delta chain into a fresh full
    /// checkpoint stamped `base_iteration + 1` and prunes the folded
    /// records, bounding restore time to one file read again.  Returns
    /// `None` when there is nothing to fold.
    ///
    /// Crash safety: the new checkpoint is written (atomically) **before**
    /// the chain is deleted.  A crash in between leaves both on disk — but
    /// the stale chain is keyed to the *old* iteration, the restore path
    /// follows the highest iteration, and the orphaned records are swept by
    /// the next [`CheckpointManager::prune`].  A delta is therefore never
    /// replayed on top of a checkpoint that already contains it (replaying
    /// appended rows twice would corrupt the factors).
    ///
    /// Namespace caveat: the synthetic `base_iteration + 1` shares the
    /// trainer's iteration numbering.  Reusing a checkpoint directory
    /// across unrelated runs can therefore shadow (or be shadowed by) a
    /// retrain's own files — a hazard that predates compaction and is why
    /// runs should get fresh directories or `prune` aggressively.  If a
    /// retrain *does* overwrite an iteration that still has journaled
    /// deltas, replay fails loudly on the deltas' recorded base shapes
    /// ([`CheckpointDelta::base_users`]/[`CheckpointDelta::base_items`])
    /// instead of corrupting the factors silently.
    pub fn compact(&self) -> io::Result<Option<CompactionReport>> {
        let Some((mut checkpoint, folded_deltas)) = self.load_latest_with_deltas()? else {
            return Ok(None);
        };
        if folded_deltas == 0 {
            return Ok(None);
        }
        let base_iteration = checkpoint.iteration;
        checkpoint.iteration = base_iteration + 1;
        self.save(&checkpoint)?;
        self.remove_delta_chain(base_iteration)?;
        Ok(Some(CompactionReport {
            base_iteration,
            new_iteration: checkpoint.iteration,
            folded_deltas,
        }))
    }

    /// Journals `delta` and then compacts if the grown chain now exceeds
    /// `policy` — the bounded-restore write path an incremental serving
    /// loop should use.  Returns the delta's path and the compaction
    /// report, if one ran.
    pub fn save_delta_compacting(
        &self,
        delta: &CheckpointDelta,
        policy: &CompactionPolicy,
    ) -> io::Result<(PathBuf, Option<CompactionReport>)> {
        let path = self.save_delta(delta)?;
        let report = if self.should_compact(policy)? {
            self.compact()?
        } else {
            None
        };
        Ok((path, report))
    }

    /// Deletes every checkpoint older than the latest `keep` ones, along
    /// with each pruned checkpoint's delta journal — a delta chained onto a
    /// deleted base can never be replayed, so keeping it would only grow
    /// the directory without bound.  Returns the number of full checkpoints
    /// removed.
    pub fn prune(&self, keep: usize) -> io::Result<usize> {
        let mut files: Vec<(u64, PathBuf)> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy().to_string();
                name.strip_prefix("checkpoint_")
                    .and_then(|s| s.strip_suffix(".cumf"))
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(|i| (i, e.path()))
            })
            .collect();
        files.sort_by_key(|(i, _)| *i);
        let mut removed = 0;
        while files.len() > keep {
            let (iteration, path) = files.remove(0);
            fs::remove_file(path)?;
            self.remove_delta_chain(iteration)?;
            removed += 1;
        }
        Ok(removed)
    }

    /// Deletes every `delta_<iteration>_*.cumfd` record chained onto the
    /// given checkpoint iteration.
    fn remove_delta_chain(&self, iteration: u64) -> io::Result<()> {
        let prefix = format!("delta_{iteration:08}_");
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(&prefix) && name.ends_with(".cumfd") {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }
}

fn write_factor<W: Write>(w: &mut W, m: &FactorMatrix) -> io::Result<()> {
    w.write_all(&(m.len() as u64).to_le_bytes())?;
    w.write_all(&(m.rank() as u64).to_le_bytes())?;
    for &v in m.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_factor<R: Read>(r: &mut R) -> io::Result<FactorMatrix> {
    let n = read_u64(r)? as usize;
    let f = read_u64(r)? as usize;
    let mut bytes = vec![0u8; n * f * 4];
    r.read_exact(&mut bytes)?;
    let data = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(FactorMatrix::from_vec(n, f, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn temp_dir() -> PathBuf {
        let id = DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!("cumf_ckpt_test_{}_{id}", std::process::id()))
    }

    fn sample_checkpoint(iteration: u64, seed: u64) -> Checkpoint {
        Checkpoint {
            iteration,
            x: FactorMatrix::random(50, 8, 1.0, seed),
            theta: FactorMatrix::random(30, 8, 1.0, seed + 1),
        }
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        let ckpt = sample_checkpoint(3, 1);
        let path = mgr.save(&ckpt).unwrap();
        let loaded = CheckpointManager::load(&path).unwrap();
        assert_eq!(loaded, ckpt);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn load_latest_picks_the_highest_iteration() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        mgr.save(&sample_checkpoint(1, 1)).unwrap();
        mgr.save(&sample_checkpoint(7, 2)).unwrap();
        mgr.save(&sample_checkpoint(4, 3)).unwrap();
        let latest = mgr.load_latest().unwrap().unwrap();
        assert_eq!(latest.iteration, 7);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn load_latest_on_empty_dir_is_none() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        assert!(mgr.load_latest().unwrap().is_none());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn prune_keeps_the_newest() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        for i in 1..=5 {
            mgr.save(&sample_checkpoint(i, i)).unwrap();
        }
        let removed = mgr.prune(2).unwrap();
        assert_eq!(removed, 3);
        let latest = mgr.load_latest().unwrap().unwrap();
        assert_eq!(latest.iteration, 5);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn prune_drops_the_delta_chains_of_pruned_checkpoints() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        for i in 1..=3 {
            mgr.save(&sample_checkpoint(i, i)).unwrap();
            mgr.save_delta(&CheckpointDelta {
                appended_users: None,
                appended_items: None,
                ..sample_delta(i, 1, 10 + i)
            })
            .unwrap();
        }
        mgr.prune(1).unwrap();
        let deltas: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.ends_with(".cumfd"))
            .collect();
        // Only the surviving checkpoint's chain remains.
        assert_eq!(deltas, vec!["delta_00000003_0001.cumfd".to_string()]);
        let (restored, replayed) = mgr.load_latest_with_deltas().unwrap().unwrap();
        assert_eq!(restored.iteration, 3);
        assert_eq!(replayed, 1);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A delta chained directly onto a [`sample_checkpoint`] (50 users, 30
    /// items); chained deltas must override `base_users`/`base_items` to
    /// the post-predecessor shapes.
    fn sample_delta(base: u64, seq: u64, seed: u64) -> CheckpointDelta {
        CheckpointDelta {
            base_iteration: base,
            seq,
            base_users: 50,
            base_items: 30,
            changed_ids: vec![1, 7, 40],
            changed_rows: FactorMatrix::random(3, 8, 1.0, seed),
            appended_users: Some(FactorMatrix::random(2, 8, 1.0, seed + 1)),
            appended_items: Some(FactorMatrix::random(4, 8, 1.0, seed + 2)),
        }
    }

    #[test]
    fn delta_save_and_load_roundtrip() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        let delta = sample_delta(3, 1, 50);
        let path = mgr.save_delta(&delta).unwrap();
        assert_eq!(CheckpointManager::load_delta(&path).unwrap(), delta);
        // A delta with no appended rows roundtrips too.
        let lean = CheckpointDelta {
            appended_users: None,
            appended_items: None,
            seq: 2,
            ..sample_delta(3, 2, 60)
        };
        let path = mgr.save_delta(&lean).unwrap();
        assert_eq!(CheckpointManager::load_delta(&path).unwrap(), lean);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn restore_replays_the_delta_chain_in_order() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        let base = sample_checkpoint(5, 70);
        mgr.save(&base).unwrap();
        // Two chained deltas; the second overwrites user 1 again, so replay
        // order matters.  d2 records the post-d1 shapes (52 users, 34
        // items) it was built against.
        let d1 = sample_delta(5, 1, 80);
        let mut d2 = CheckpointDelta {
            base_users: 52,
            base_items: 34,
            ..sample_delta(5, 2, 90)
        };
        d2.appended_users = None;
        d2.appended_items = None;
        // A delta chained onto a *different* checkpoint must be ignored.
        let stray = sample_delta(4, 1, 99);
        mgr.save_delta(&d1).unwrap();
        mgr.save_delta(&d2).unwrap();
        mgr.save_delta(&stray).unwrap();

        let (restored, replayed) = mgr.load_latest_with_deltas().unwrap().unwrap();
        assert_eq!(replayed, 2);

        let mut expect = base.clone();
        d1.apply_to(&mut expect);
        d2.apply_to(&mut expect);
        assert_eq!(restored, expect);
        // Spot-check: user 1 carries d2's row, not d1's.
        assert_eq!(restored.x.vector(1), d2.changed_rows.vector(0));
        // Appended rows from d1 are present.
        assert_eq!(restored.x.len(), 52);
        assert_eq!(restored.theta.len(), 34);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn restore_without_deltas_is_the_plain_checkpoint() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        let ckpt = sample_checkpoint(2, 7);
        mgr.save(&ckpt).unwrap();
        let (restored, replayed) = mgr.load_latest_with_deltas().unwrap().unwrap();
        assert_eq!(replayed, 0);
        assert_eq!(restored, ckpt);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn compact_folds_the_chain_and_prunes_it() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        let base = sample_checkpoint(5, 70);
        mgr.save(&base).unwrap();
        let d1 = sample_delta(5, 1, 80);
        // d1 appended 2 users and 4 items; d2 chains onto that state.
        let d2 = CheckpointDelta {
            base_users: 52,
            base_items: 34,
            ..sample_delta(5, 2, 81)
        };
        mgr.save_delta(&d1).unwrap();
        mgr.save_delta(&d2).unwrap();

        // What a replaying restore would reconstruct...
        let (replayed, n) = mgr.load_latest_with_deltas().unwrap().unwrap();
        assert_eq!(n, 2);

        let report = mgr.compact().unwrap().expect("chain to fold");
        assert_eq!(report.base_iteration, 5);
        assert_eq!(report.new_iteration, 6);
        assert_eq!(report.folded_deltas, 2);

        // ...is exactly what the folded checkpoint restores to, with no
        // deltas left to replay.
        let (restored, replayed_after) = mgr.load_latest_with_deltas().unwrap().unwrap();
        assert_eq!(replayed_after, 0);
        assert_eq!(restored.iteration, 6);
        assert_eq!(restored.x, replayed.x);
        assert_eq!(restored.theta, replayed.theta);
        assert_eq!(mgr.chain_stats(5).unwrap(), (0, 0), "folded chain pruned");

        // Nothing to fold twice.
        assert_eq!(mgr.compact().unwrap(), None);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn save_delta_compacting_triggers_on_record_count() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        mgr.save(&sample_checkpoint(1, 7)).unwrap();
        let policy = CompactionPolicy {
            max_deltas: 3,
            max_chain_fraction: 0.0,
        };
        // Two deltas stay journaled...
        for seq in 1..=2 {
            let lean = CheckpointDelta {
                appended_users: None,
                appended_items: None,
                ..sample_delta(1, seq, 30 + seq)
            };
            let (_, report) = mgr.save_delta_compacting(&lean, &policy).unwrap();
            assert_eq!(report, None, "seq {seq}");
        }
        assert_eq!(mgr.chain_stats(1).unwrap().0, 2);
        // ...the third crosses the bound and folds the chain.
        let lean = CheckpointDelta {
            appended_users: None,
            appended_items: None,
            ..sample_delta(1, 3, 33)
        };
        let (_, report) = mgr.save_delta_compacting(&lean, &policy).unwrap();
        let report = report.expect("compaction to run");
        assert_eq!(report.folded_deltas, 3);
        assert_eq!(report.new_iteration, 2);
        assert_eq!(mgr.load_latest_with_deltas().unwrap().unwrap().1, 0);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn save_delta_compacting_triggers_on_chain_size_fraction() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        // Tiny base, fat deltas: the size trigger fires long before any
        // count bound would.
        mgr.save(&Checkpoint {
            iteration: 1,
            x: FactorMatrix::random(4, 8, 1.0, 1),
            theta: FactorMatrix::random(4, 8, 1.0, 2),
        })
        .unwrap();
        let policy = CompactionPolicy {
            max_deltas: 0,
            max_chain_fraction: 0.5,
        };
        let fat = CheckpointDelta {
            base_iteration: 1,
            seq: 1,
            base_users: 4,
            base_items: 4,
            changed_ids: vec![0],
            changed_rows: FactorMatrix::random(1, 8, 1.0, 3),
            appended_users: Some(FactorMatrix::random(64, 8, 1.0, 4)),
            appended_items: None,
        };
        let (_, report) = mgr.save_delta_compacting(&fat, &policy).unwrap();
        assert!(report.is_some(), "fat chain must trip the size fraction");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn should_compact_is_quiet_without_chain_or_checkpoint() {
        let dir = temp_dir();
        let mgr = CheckpointManager::new(&dir).unwrap();
        let policy = CompactionPolicy::default();
        assert!(!mgr.should_compact(&policy).unwrap(), "empty dir");
        mgr.save(&sample_checkpoint(1, 9)).unwrap();
        assert!(!mgr.should_compact(&policy).unwrap(), "no chain");
        assert_eq!(mgr.compact().unwrap(), None);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "different checkpoint")]
    fn delta_refuses_a_mismatched_base() {
        let mut ckpt = sample_checkpoint(3, 1);
        sample_delta(9, 1, 2).apply_to(&mut ckpt);
    }

    #[test]
    #[should_panic(expected = "different factor shapes")]
    fn delta_refuses_a_checkpoint_with_reused_iteration_but_other_factors() {
        // A retrain overwrote iteration 3 with a differently-shaped model;
        // the journaled delta's base shapes (50 × 30) no longer match, and
        // replaying must fail loudly instead of corrupting silently.
        let mut ckpt = Checkpoint {
            iteration: 3,
            x: FactorMatrix::random(40, 8, 1.0, 1),
            theta: FactorMatrix::random(30, 8, 1.0, 2),
        };
        sample_delta(3, 1, 5).apply_to(&mut ckpt);
    }

    #[test]
    fn corrupt_delta_is_rejected() {
        let dir = temp_dir();
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("delta_00000001_0001.cumfd");
        fs::write(&path, b"not a delta").unwrap();
        assert!(CheckpointManager::load_delta(&path).is_err());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_rejected() {
        let dir = temp_dir();
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint_00000001.cumf");
        fs::write(&path, b"definitely not a checkpoint").unwrap();
        assert!(CheckpointManager::load(&path).is_err());
        fs::remove_dir_all(dir).unwrap();
    }
}
