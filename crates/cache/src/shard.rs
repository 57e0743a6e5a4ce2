//! `--shard i/N` grid slicing and the resumable sweep checkpoint.
//!
//! A sweep grid is a deterministically ordered job list; a shard is a
//! residue class over job indices. Shard `i/N` (1-based) selects job
//! `j` exactly when `j % N == i - 1`, so the `N` shards are pairwise
//! disjoint and their union is the full grid — the property the
//! cross-crate property tests pin.
//!
//! The checkpoint is an append-only line file
//! (`pacq-sweep-checkpoint/v1`): a header binding it to one grid
//! digest, then one completed job id per line. Appending a line is the
//! commit point, so a killed sweep resumes by skipping every fully
//! written id; a torn final line (the kill landed mid-write) is simply
//! ignored and that job re-runs. Pointing a checkpoint at a *different*
//! grid is a typed error, not a silent fresh start — silently dropping
//! resume state is how half-finished sweeps masquerade as complete.

use std::collections::HashSet;
use std::fs;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use pacq_error::{PacqError, PacqResult};

/// Schema header tag written as the first token of a checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "pacq-sweep-checkpoint/v1";

/// One slice of a sweep grid, parsed from `--shard i/N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// 1-based shard index, `1 ..= count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// The degenerate full-grid shard (`1/1`), used when `--shard` is
    /// not given.
    pub const FULL: Shard = Shard { index: 1, count: 1 };

    /// Parses `"i/N"` with `1 <= i <= N`.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Usage`] for anything else — malformed
    /// syntax, zero values, or an index beyond the count.
    pub fn parse(text: &str) -> PacqResult<Shard> {
        let bad = || {
            PacqError::usage(format!(
                "--shard wants i/N with 1 <= i <= N (e.g. 2/4), got `{text}`"
            ))
        };
        let (i, n) = text.split_once('/').ok_or_else(bad)?;
        let is_plain_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        if !is_plain_digits(i) || !is_plain_digits(n) {
            return Err(bad());
        }
        let index: usize = i.parse().map_err(|_| bad())?;
        let count: usize = n.parse().map_err(|_| bad())?;
        if index == 0 || count == 0 || index > count {
            return Err(bad());
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns the job at `job_index` (0-based position
    /// in the grid's deterministic order).
    pub fn selects(&self, job_index: usize) -> bool {
        job_index % self.count == self.index - 1
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// A resumable, append-only record of completed sweep jobs.
///
/// Internally synchronized: rayon workers can call
/// [`SweepCheckpoint::mark_done`] concurrently.
#[derive(Debug)]
pub struct SweepCheckpoint {
    path: PathBuf,
    inner: Mutex<CheckpointInner>,
}

#[derive(Debug)]
struct CheckpointInner {
    file: File,
    done: HashSet<String>,
}

fn io_err(context: &'static str, path: &Path, e: std::io::Error) -> PacqError {
    PacqError::Io {
        context,
        message: format!("{}: {e}", path.display()),
    }
}

impl SweepCheckpoint {
    /// Opens (or creates) the checkpoint at `path` for the grid
    /// identified by `grid_digest`, loading the set of already-completed
    /// job ids. A truncated trailing line — the tail of a write that a
    /// kill interrupted — is tolerated and dropped, and so is a torn
    /// header: a file with no newline that is a prefix of this run's
    /// header line is re-stamped, as an empty one is.
    ///
    /// # Errors
    ///
    /// - [`PacqError::InvalidInput`] if the file exists but carries a
    ///   different schema or a different grid digest (a checkpoint is
    ///   bound to exactly one grid);
    /// - [`PacqError::Io`] if the file cannot be read or created.
    pub fn open(path: impl Into<PathBuf>, grid_digest: &str) -> PacqResult<SweepCheckpoint> {
        let path = path.into();
        let io = |e| io_err("SweepCheckpoint::open", &path, e);
        let header = format!("{CHECKPOINT_SCHEMA} {grid_digest}\n");
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io(e)),
        };
        // Nothing is committed before the header's newline: the create
        // (and maybe part of the header) landed, the rest did not. Any
        // other newline-less file is someone else's and is never
        // overwritten.
        let fresh = !bytes.contains(&b'\n') && header.as_bytes().starts_with(&bytes);
        let mut done = HashSet::new();
        if !fresh {
            let text = String::from_utf8_lossy(&bytes);
            let mut lines = text.lines();
            let mut parts = lines.next().unwrap_or("").split_whitespace();
            let (schema, digest) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            let mismatch =
                |message| Err(PacqError::invalid_input("SweepCheckpoint::open", message));
            if schema != CHECKPOINT_SCHEMA {
                return mismatch(format!(
                    "{} is not a {CHECKPOINT_SCHEMA} file (header `{schema}`)",
                    path.display()
                ));
            }
            if digest != grid_digest {
                return mismatch(format!(
                    "checkpoint {} belongs to a different run \
                     (has {digest}, this grid × machine × template \
                     binding is {grid_digest}); \
                     pass a fresh --checkpoint path or delete it",
                    path.display()
                ));
            }
            // A line is committed iff its `.` terminator made it to
            // disk; a torn tail (kill mid-append) has no terminator and
            // is dropped, so that job re-runs. Re-running a completed
            // job is safe (deterministic, cached); skipping an
            // incomplete one is not.
            done.extend(
                lines
                    .filter_map(|line| line.strip_suffix('.'))
                    .filter(|id| !id.is_empty())
                    .map(String::from),
            );
        }

        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io)?;
        // A torn header is re-stamped whole; a torn record is closed
        // with a bare newline so the first new record does not
        // concatenate onto it.
        let tail = if fresh {
            file.set_len(0).map_err(io)?;
            header.as_str()
        } else if bytes.last() == Some(&b'\n') {
            ""
        } else {
            "\n"
        };
        file.write_all(tail.as_bytes()).map_err(io)?;
        Ok(SweepCheckpoint {
            path,
            inner: Mutex::new(CheckpointInner { file, done }),
        })
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether `job_id` was already completed by a previous run.
    pub fn is_done(&self, job_id: &str) -> bool {
        match self.inner.lock() {
            Ok(inner) => inner.done.contains(job_id),
            // A poisoned lock means a sibling worker panicked mid-check;
            // claim "not done" and let determinism absorb the re-run.
            Err(_) => false,
        }
    }

    /// Number of jobs recorded as completed.
    pub fn done_count(&self) -> usize {
        match self.inner.lock() {
            Ok(inner) => inner.done.len(),
            Err(_) => 0,
        }
    }

    /// Records `job_id` as completed with one append of its whole
    /// line. The trailing `.` terminator is what distinguishes a fully
    /// written line from one torn by a kill.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Io`] if the append fails or the internal
    /// lock is poisoned.
    pub fn mark_done(&self, job_id: &str) -> PacqResult<()> {
        let mut inner = self.inner.lock().map_err(|_| PacqError::Io {
            context: "SweepCheckpoint::mark_done",
            message: "checkpoint lock poisoned by a panicking worker".to_string(),
        })?;
        inner
            .file
            .write_all(format!("{job_id}.\n").as_bytes())
            .map_err(|e| io_err("SweepCheckpoint::mark_done", &self.path, e))?;
        inner.done.insert(job_id.to_string());
        Ok(())
    }
}

/// Digests an arbitrary grid description to the same 32-hex form used
/// for cache entry filenames; sweeps use this to bind checkpoints to
/// one grid.
pub fn grid_digest(description: &str) -> String {
    crate::key::digest_of(description)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parsing_accepts_only_well_formed_slices() {
        assert_eq!(Shard::parse("1/1").unwrap(), Shard::FULL);
        assert_eq!(Shard::parse("2/4").unwrap(), Shard { index: 2, count: 4 });
        for bad in [
            "", "2", "/", "0/4", "5/4", "0/0", "a/4", "2/b", "+1/4", " 1/4", "1/ 4", "1//4",
        ] {
            assert!(Shard::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn shards_partition_the_grid() {
        let n = 5;
        let shards: Vec<Shard> = (1..=n).map(|i| Shard { index: i, count: n }).collect();
        for job in 0..137 {
            let owners = shards.iter().filter(|s| s.selects(job)).count();
            assert_eq!(owners, 1, "job {job} must belong to exactly one shard");
        }
        assert!((0..137).all(|j| Shard::FULL.selects(j)));
    }

    fn tmpfile(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "pacq-checkpoint-test-{tag}-{}.ckpt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn checkpoint_resumes_and_survives_a_torn_tail() {
        let path = tmpfile("resume");
        let digest = grid_digest("grid-a");
        {
            let ckpt = SweepCheckpoint::open(&path, &digest).unwrap();
            ckpt.mark_done("job-1").unwrap();
            ckpt.mark_done("job-2").unwrap();
            assert!(ckpt.is_done("job-1"));
            assert_eq!(ckpt.done_count(), 2);
        }
        // Simulate a kill mid-append: a torn line with no terminator.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "job-3").unwrap();
        }
        let ckpt = SweepCheckpoint::open(&path, &digest).unwrap();
        assert!(ckpt.is_done("job-1") && ckpt.is_done("job-2"));
        assert!(!ckpt.is_done("job-3"), "torn line must re-run");
        // Completing it again after resume works.
        ckpt.mark_done("job-3").unwrap();
        drop(ckpt);
        let ckpt = SweepCheckpoint::open(&path, &digest).unwrap();
        assert!(ckpt.is_done("job-3"));
        let _ = std::fs::remove_file(&path);
    }

    /// A killed run leaves a byte prefix of its checkpoint. Every prefix
    /// must reopen with exactly the records whose `.` made it in, and
    /// leave a file the resumed run can keep appending to.
    #[test]
    fn every_prefix_of_a_checkpoint_reopens_with_its_complete_records() {
        let path = tmpfile("prefix");
        let digest = grid_digest("grid-p");
        let ids = ["b16:pacq:int4", "b32:std:int2", "b64:packedk:int4"];
        {
            let ckpt = SweepCheckpoint::open(&path, &digest).unwrap();
            for id in ids {
                ckpt.mark_done(id).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let header_len = CHECKPOINT_SCHEMA.len() + digest.len() + 2;
        // Offset just past each record's `.` terminator.
        let ends: Vec<usize> = ids
            .iter()
            .scan(header_len, |end, id| {
                *end += id.len() + 2;
                Some(*end - 1)
            })
            .collect();
        for len in 0..=full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            let ckpt = SweepCheckpoint::open(&path, &digest)
                .unwrap_or_else(|e| panic!("prefix of {len} bytes: {e}"));
            let complete = ends.iter().filter(|&&end| end <= len).count();
            assert_eq!(ckpt.done_count(), complete, "prefix of {len} bytes");
            for id in ids {
                ckpt.mark_done(id).unwrap();
            }
            drop(ckpt);
            let resumed = SweepCheckpoint::open(&path, &digest).unwrap();
            assert_eq!(resumed.done_count(), ids.len(), "prefix of {len} bytes");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_for_a_different_grid_is_a_typed_error() {
        let path = tmpfile("mismatch");
        let ckpt = SweepCheckpoint::open(&path, &grid_digest("grid-a")).unwrap();
        drop(ckpt);
        let err = SweepCheckpoint::open(&path, &grid_digest("grid-b")).unwrap_err();
        assert!(err.to_string().contains("belongs to a different run"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_rejected_not_overwritten() {
        let path = tmpfile("foreign");
        // With or without a newline: only a prefix of this run's own
        // header counts as a torn checkpoint.
        for notes in ["important notes\n", "important notes"] {
            std::fs::write(&path, notes).unwrap();
            let err = SweepCheckpoint::open(&path, &grid_digest("grid-a")).unwrap_err();
            assert!(err.to_string().contains(CHECKPOINT_SCHEMA));
            // The file must be untouched.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), notes);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_marks_are_all_recorded() {
        let path = tmpfile("concurrent");
        let digest = grid_digest("grid-c");
        let ckpt = SweepCheckpoint::open(&path, &digest).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ckpt = &ckpt;
                scope.spawn(move || {
                    for j in 0..25 {
                        ckpt.mark_done(&format!("job-{t}-{j}")).unwrap();
                    }
                });
            }
        });
        drop(ckpt);
        let ckpt = SweepCheckpoint::open(&path, &digest).unwrap();
        // The final line has a terminator, so all 100 must load.
        assert_eq!(ckpt.done_count(), 100);
        let _ = std::fs::remove_file(&path);
    }
}
