//! Crash-consistent control-plane journaling.
//!
//! The paper's control plane retrains and reconfigures a *long-lived*
//! kernel datapath; losing the installed configuration on a crash
//! would force every learned optimization back to cold start. This
//! module makes the control plane durable with the classic database
//! recipe:
//!
//! - **Write-ahead journal** — every mutating [`CtrlRequest`] is
//!   serialized (through the hermetic JSON codec) as one
//!   [`JournalRecord`] line and fsync'd *before* it is applied, so the
//!   on-disk journal is always a superset of the applied state.
//! - **Snapshot compaction** — an on-demand [`Checkpoint`] captures
//!   the full [`MachineSnapshot`] (datapath state included) with the
//!   journal sequence number it covers, written tmp+rename so a crash
//!   never leaves a half-written checkpoint. Compaction then truncates
//!   the journal; replay deduplicates by sequence number, so a crash
//!   *between* the rename and the truncate is harmless.
//! - **Recovery** = load the latest checkpoint, re-verify and restore
//!   it ([`RmtMachine::restore`] re-runs the verifier — the snapshot
//!   is untrusted input), then replay the journal suffix through the
//!   same [`syscall_rmt_with`] dispatch the live machine used.
//!
//! Torn-tail semantics: a crash mid-append can leave a partial final
//! line. The reader drops an unparsable **final** record (recovering
//! to the last valid one) but treats an unparsable record *followed by
//! more records* as hard corruption — silently skipping interior
//! mutations would replay a different history than the one applied.

use crate::ctrl::{syscall_rmt_with, CtrlRequest, CtrlResponse};
use crate::error::VmError;
use crate::machine::{MachineSnapshot, RmtMachine};
use crate::obs::span::{SpanCollector, Stage};
use crate::snapshot::{from_json_str, to_json_string};
use crate::verifier::VerifierConfig;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// One journaled control-plane mutation: the sequence number (strictly
/// increasing across the machine's life, surviving compaction) and the
/// request itself.
#[derive(Clone, Debug)]
pub struct JournalRecord {
    /// Journal sequence number (1-based, strictly increasing).
    pub seq: u64,
    /// The mutation, exactly as the control plane applied it.
    pub req: CtrlRequest,
}

/// A compaction checkpoint: the complete machine state as of journal
/// sequence `seq`. Records with `seq` at or below this are already
/// folded into `machine` and are skipped on replay.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Last journal sequence number the snapshot covers.
    pub seq: u64,
    /// Full machine state (programs re-verify on restore).
    pub machine: MachineSnapshot,
}

/// Why journaling or recovery failed.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure (open, append, fsync, rename).
    Io(std::io::Error),
    /// A record with records after it failed to parse, or sequence
    /// numbers went backwards — the journal's interior is damaged and
    /// replaying around it would reconstruct a different history.
    Corrupt {
        /// 1-based journal line of the damage.
        line: usize,
        /// What was wrong with it.
        detail: String,
    },
    /// The checkpoint file exists but does not parse.
    BadCheckpoint(String),
    /// Restoring or replaying failed at the machine level (e.g. a
    /// snapshotted program no longer passes the verifier).
    Vm(VmError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Corrupt { line, detail } => {
                write!(f, "journal corrupt at line {line}: {detail}")
            }
            JournalError::BadCheckpoint(d) => write!(f, "bad checkpoint: {d}"),
            JournalError::Vm(e) => write!(f, "recovery failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

impl From<VmError> for JournalError {
    fn from(e: VmError) -> JournalError {
        JournalError::Vm(e)
    }
}

/// Parsed journal contents: the valid records plus how many bytes of
/// the file they occupy (anything past `valid_len` is a torn tail).
pub struct JournalContents {
    /// Every valid record, in file order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Whether a torn (unparsable) final record was dropped.
    pub torn_tail: bool,
}

/// Reads a journal file, tolerating a torn final record. A missing
/// file reads as empty (a machine that never journaled a mutation).
///
/// # Errors
///
/// [`JournalError::Corrupt`] if an interior record fails to parse or
/// sequence numbers are not strictly increasing; [`JournalError::Io`]
/// on filesystem failure.
pub fn read_journal(path: &Path) -> Result<JournalContents, JournalError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(JournalContents {
                records: Vec::new(),
                valid_len: 0,
                torn_tail: false,
            })
        }
        Err(e) => return Err(JournalError::Io(e)),
    };
    // Segment boundaries: (start, end_of_content, end_including_newline).
    let mut segs: Vec<(usize, usize, usize)> = Vec::new();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            segs.push((start, i, i + 1));
            start = i + 1;
        }
    }
    if start < bytes.len() {
        segs.push((start, bytes.len(), bytes.len()));
    }
    segs.retain(|&(s, e, _)| bytes[s..e].iter().any(|&b| !b.is_ascii_whitespace()));
    let mut records = Vec::with_capacity(segs.len());
    let mut valid_len = 0u64;
    let mut torn_tail = false;
    let mut prev_seq = 0u64;
    let last = segs.len().saturating_sub(1);
    for (i, &(s, e, full)) in segs.iter().enumerate() {
        let parsed = std::str::from_utf8(&bytes[s..e])
            .ok()
            .and_then(|line| from_json_str::<JournalRecord>(line).ok());
        match parsed {
            Some(rec) => {
                if rec.seq <= prev_seq {
                    return Err(JournalError::Corrupt {
                        line: i + 1,
                        detail: format!("seq {} after {} (not increasing)", rec.seq, prev_seq),
                    });
                }
                prev_seq = rec.seq;
                records.push(rec);
                valid_len = full as u64;
            }
            None if i == last => {
                // Torn tail: a crash mid-append. Recover to the last
                // valid record.
                torn_tail = true;
            }
            None => {
                return Err(JournalError::Corrupt {
                    line: i + 1,
                    detail: "unparsable record with records after it".into(),
                });
            }
        }
    }
    Ok(JournalContents {
        records,
        valid_len,
        torn_tail,
    })
}

/// An append-only journal file handle: serializes records as JSON
/// lines and fsyncs each append before reporting success.
///
/// [`CtrlJournal::open`] validates the existing file (torn-tail
/// tolerant) and truncates any torn tail so subsequent appends start
/// on a record boundary.
pub struct CtrlJournal {
    file: File,
    path: PathBuf,
    next_seq: u64,
}

impl CtrlJournal {
    /// Opens (or creates) a journal for appending. Existing records
    /// are validated; a torn tail is truncated away.
    pub fn open(path: &Path) -> Result<CtrlJournal, JournalError> {
        let contents = read_journal(path)?;
        // Explicitly no truncate-on-open: the valid prefix must
        // survive; only the torn tail is cut, via set_len below.
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        file.set_len(contents.valid_len)?;
        if contents.torn_tail {
            file.sync_data()?;
        }
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(CtrlJournal {
            file,
            path: path.to_path_buf(),
            next_seq: contents.records.last().map(|r| r.seq + 1).unwrap_or(1),
        })
    }

    /// Appends one request, fsyncs, and returns its sequence number.
    /// When this returns, the record is durable. The serialized write
    /// and the `sync_data` are recorded into `spans` as one
    /// `JournalAppend` and one `JournalFsync` span, in that order.
    pub fn append(
        &mut self,
        req: &CtrlRequest,
        spans: &mut SpanCollector,
    ) -> Result<u64, JournalError> {
        let seq = self.next_seq;
        let rec = JournalRecord {
            seq,
            req: req.clone(),
        };
        let t0 = spans.now_ns();
        let mut line = to_json_string(&rec);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        let t1 = spans.now_ns();
        self.file.sync_data()?;
        let t2 = spans.now_ns();
        self.next_seq = seq + 1;
        let id = spans.alloc_id();
        spans.record(0, id, 0, Stage::JournalAppend, t0, t1);
        let id = spans.alloc_id();
        spans.record(0, id, 0, Stage::JournalFsync, t1, t2);
        Ok(seq)
    }

    /// Sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Truncates the journal after a checkpoint covering everything
    /// appended so far. Sequence numbers keep increasing across the
    /// truncation — replay deduplicates against the checkpoint's
    /// `seq`, never against file position.
    pub fn truncate(&mut self) -> Result<(), JournalError> {
        self.file.set_len(0)?;
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::Start(0))?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Path this journal appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Writes a checkpoint atomically: serialize to `<path>.tmp`, fsync,
/// rename over `path`, fsync the directory. A crash at any point
/// leaves either the old checkpoint or the new one, never a tear.
pub fn write_checkpoint(path: &Path, cp: &Checkpoint) -> Result<(), JournalError> {
    let tmp = path.with_extension("json.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(to_json_string(cp).as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

/// Reads a checkpoint; `Ok(None)` if the file does not exist.
pub fn read_checkpoint(path: &Path) -> Result<Option<Checkpoint>, JournalError> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(JournalError::Io(e)),
    };
    from_json_str::<Checkpoint>(&text)
        .map(Some)
        .map_err(|e| JournalError::BadCheckpoint(e.to_string()))
}

/// A [`RmtMachine`] whose control plane is durable: every mutating
/// request is journaled (write-ahead, fsync'd) before it is applied,
/// and [`JournaledMachine::compact`] checkpoints bound replay time.
/// Datapath access (firing hooks, advancing ticks) goes through
/// [`JournaledMachine::machine_mut`] and is *not* journaled — datapath
/// state rides along in checkpoints, and the embedding's own decision
/// log replays post-checkpoint traffic (see `tests/recovery.rs`).
pub struct JournaledMachine {
    machine: RmtMachine,
    vcfg: VerifierConfig,
    journal: CtrlJournal,
    checkpoint_path: PathBuf,
    /// Journal seq covered by the newest checkpoint.
    checkpoint_seq: u64,
}

/// File name of the journal inside a [`JournaledMachine`] directory.
pub const JOURNAL_FILE: &str = "ctrl.journal";
/// File name of the checkpoint inside a [`JournaledMachine`] directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";

impl JournaledMachine {
    /// Starts journaling a machine into `dir` (created if missing),
    /// writing an initial checkpoint of its current state so recovery
    /// never depends on reconstructing the pre-journal history.
    pub fn create(
        dir: &Path,
        machine: RmtMachine,
        vcfg: VerifierConfig,
    ) -> Result<JournaledMachine, JournalError> {
        fs::create_dir_all(dir)?;
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        write_checkpoint(
            &checkpoint_path,
            &Checkpoint {
                seq: 0,
                machine: machine.snapshot(),
            },
        )?;
        let mut journal = CtrlJournal::open(&dir.join(JOURNAL_FILE))?;
        journal.truncate()?;
        Ok(JournaledMachine {
            machine,
            vcfg,
            journal,
            checkpoint_path,
            checkpoint_seq: 0,
        })
    }

    /// Recovers a machine from `dir`: restores the latest checkpoint
    /// (programs re-pass the verifier), then replays the journal
    /// suffix (`seq` above the checkpoint's) through the same
    /// control-plane dispatch the live machine used. Apply errors
    /// during replay are ignored — a request that failed live left no
    /// state behind, so failing again reconstructs the same history.
    pub fn open(dir: &Path, vcfg: VerifierConfig) -> Result<JournaledMachine, JournalError> {
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        let (mut machine, checkpoint_seq) = match read_checkpoint(&checkpoint_path)? {
            Some(cp) => (RmtMachine::restore(cp.machine, &vcfg)?, cp.seq),
            None => (RmtMachine::new(), 0),
        };
        let journal_path = dir.join(JOURNAL_FILE);
        let contents = read_journal(&journal_path)?;
        for rec in contents.records {
            if rec.seq <= checkpoint_seq {
                continue; // Already folded into the checkpoint.
            }
            let _ = syscall_rmt_with(&mut machine, rec.req, &vcfg);
        }
        let journal = CtrlJournal::open(&journal_path)?;
        Ok(JournaledMachine {
            machine,
            vcfg,
            journal,
            checkpoint_path,
            checkpoint_seq,
        })
    }

    /// Dispatches one control-plane request. Mutations hit the journal
    /// (fsync'd) *before* they touch the machine; read-only requests
    /// bypass the journal entirely.
    pub fn ctrl(&mut self, req: CtrlRequest) -> Result<CtrlResponse, JournalError> {
        if is_mutation(&req) {
            self.journal.append(&req, self.machine.spans_mut())?;
        }
        syscall_rmt_with(&mut self.machine, req, &self.vcfg).map_err(JournalError::Vm)
    }

    /// Takes a checkpoint of the current state and truncates the
    /// journal. Crash-safe at every step: the checkpoint lands by
    /// rename, and replay deduplicates by `seq` if the truncate never
    /// happens.
    pub fn compact(&mut self) -> Result<(), JournalError> {
        let t0 = self.machine.span_now_ns();
        let seq = self.journal.next_seq() - 1;
        write_checkpoint(
            &self.checkpoint_path,
            &Checkpoint {
                seq,
                machine: self.machine.snapshot(),
            },
        )?;
        self.journal.truncate()?;
        self.checkpoint_seq = seq;
        let end = self.machine.span_now_ns();
        let spans = self.machine.spans_mut();
        let id = spans.alloc_id();
        spans.record(0, id, 0, Stage::JournalCompact, t0, end);
        Ok(())
    }

    /// Journal seq covered by the newest checkpoint.
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// The machine, for read-only access.
    pub fn machine(&self) -> &RmtMachine {
        &self.machine
    }

    /// The machine, for datapath access (firing hooks, ticks). Not
    /// journaled — datapath state is captured by checkpoints.
    pub fn machine_mut(&mut self) -> &mut RmtMachine {
        &mut self.machine
    }

    /// Consumes the wrapper, returning the machine.
    pub fn into_machine(self) -> RmtMachine {
        self.machine
    }
}

/// Whether a request changes machine state (and therefore must be
/// journaled for recovery to reconstruct it). Beyond the obvious
/// mutations, two "reads" are effectful and replay: [`MapLookup`]
/// (a shared-map read charges the DP ledger and advances the
/// program's noise RNG) and [`TraceRead`] (drains the trace ring).
/// Pure queries replay as no-ops at best and waste journal space at
/// worst, so they are excluded.
///
/// [`MapLookup`]: CtrlRequest::MapLookup
/// [`TraceRead`]: CtrlRequest::TraceRead
pub fn is_mutation(req: &CtrlRequest) -> bool {
    match req {
        CtrlRequest::Install { .. }
        | CtrlRequest::Remove { .. }
        | CtrlRequest::InsertEntry { .. }
        | CtrlRequest::RemoveEntry { .. }
        | CtrlRequest::UpdateModel { .. }
        | CtrlRequest::MapUpdate { .. }
        | CtrlRequest::MapLookup { .. }
        | CtrlRequest::ObsReset
        | CtrlRequest::TraceRead { .. }
        | CtrlRequest::SetOptLevel { .. }
        | CtrlRequest::SetDecisionCacheCapacity { .. }
        | CtrlRequest::SetPartitionSeed { .. }
        | CtrlRequest::SetBalancerPolicy { .. }
        | CtrlRequest::ReportOutcome { .. }
        // Span verbs mutate collector state (config, ring drain);
        // journaling SpanConfig also re-arms the sampling rate on
        // replay, since span *contents* are never snapshotted.
        | CtrlRequest::SpanConfig { .. }
        | CtrlRequest::SpanRead { .. }
        | CtrlRequest::SpanReset => true,
        CtrlRequest::QueryStats { .. }
        | CtrlRequest::QueryOptStats { .. }
        | CtrlRequest::QueryTableStats { .. }
        | CtrlRequest::QueryPrivacyBudget { .. }
        | CtrlRequest::HookStats { .. }
        | CtrlRequest::QueryMachineCounters
        | CtrlRequest::QueryModelStats { .. }
        | CtrlRequest::FlightRead => false,
    }
}

rkd_testkit::impl_json_struct!(JournalRecord { seq, req });

rkd_testkit::impl_json_struct!(Checkpoint { seq, machine });
