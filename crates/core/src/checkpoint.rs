//! Checkpoint/resume for long sampling runs.
//!
//! BPMF runs for many Gibbs iterations on large data (the paper's headline
//! workload originally took 15 days); production runs need to survive
//! preemption. A [`SamplerCheckpoint`] captures the *complete* sampler
//! state — factor samples, hyperparameter samples, every RNG stream
//! (including cached normal deviates), and the posterior accumulators — so
//! a resumed run continues the exact chain: with a deterministic runtime
//! (the static engine, or one worker) the RMSE trace after resume is
//! bit-identical to an uninterrupted run.
//!
//! Periodic checkpoints used to stall the sampler for the whole
//! serialize-and-write; [`AsyncCheckpointWriter`] moves that off the
//! training thread — the sampler hands the state over and keeps sampling
//! while a dedicated writer thread serializes and write-then-renames it.
//!
//! ## Integrity envelope
//!
//! Checkpoints carry a one-line header ahead of the JSON payload:
//!
//! ```text
//! %BPMFCKPT crc32c=9a8b7c6d len=12345
//! {"num_latent":...}
//! ```
//!
//! [`write_checkpoint_sync`] stamps it; [`read_checkpoint`] verifies both
//! the byte length (catches truncation) and the CRC32C (catches bit rot
//! and torn writes) before deserializing, so a damaged checkpoint is a
//! typed [`BpmfError::Integrity`] on every resume path — the supervisor
//! relies on this to quarantine a replica rather than resurrect garbage
//! factors. Headerless legacy checkpoints still load, unverified.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use bpmf_linalg::Mat;
use bpmf_sparse::crc32c;
use serde::{Deserialize, Serialize};

use crate::error::BpmfError;

/// Serializable dense matrix (row-major).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlatMat {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl FlatMat {
    /// Snapshot a dense matrix (also used by the distributed driver to
    /// ship gathered posterior factors inside its serializable outcome).
    pub fn from_mat(m: &Mat) -> Self {
        FlatMat {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().to_vec(),
        }
    }

    /// Rebuild the dense matrix.
    pub fn to_mat(&self) -> Mat {
        Mat::from_row_major(self.rows, self.cols, self.data.clone())
    }

    /// Rebuild the dense matrix from this buffer, without a copy.
    pub fn into_mat(self) -> Mat {
        Mat::from_row_major(self.rows, self.cols, self.data)
    }
}

/// Serializable RNG stream state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RngState {
    /// xoshiro256++ words.
    pub words: [u64; 4],
    /// Cached polar-method spare deviate, if any.
    pub spare_normal: Option<f64>,
}

impl RngState {
    pub(crate) fn capture(rng: &bpmf_stats::Xoshiro256pp) -> Self {
        let (words, spare_normal) = rng.snapshot();
        RngState {
            words,
            spare_normal,
        }
    }

    pub(crate) fn rebuild(&self) -> bpmf_stats::Xoshiro256pp {
        bpmf_stats::Xoshiro256pp::restore((self.words, self.spare_normal))
    }
}

/// Complete state of a [`crate::GibbsSampler`] between iterations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SamplerCheckpoint {
    /// Latent dimension (validated on resume).
    pub num_latent: usize,
    /// Completed iterations.
    pub iter: usize,
    /// Post-burn-in samples accumulated.
    pub acc_count: usize,
    /// Current user factor sample.
    pub users: FlatMat,
    /// Current movie factor sample.
    pub movies: FlatMat,
    /// Current user hyperparameter sample `(μ, Λ)`.
    pub users_mu: Vec<f64>,
    /// User prior precision.
    pub users_lambda: FlatMat,
    /// Current movie hyperparameter sample mean.
    pub movies_mu: Vec<f64>,
    /// Movie prior precision.
    pub movies_lambda: FlatMat,
    /// Hyperparameter RNG stream.
    pub hyper_rng: RngState,
    /// Per-worker update RNG streams.
    pub worker_rngs: Vec<RngState>,
    /// Running sums of test predictions.
    pub predict_acc: Vec<f64>,
    /// Running sums of squared test predictions.
    pub predict_sq_acc: Vec<f64>,
    /// Running sums of factor matrices (posterior-mean accumulator).
    pub factor_acc: Option<(FlatMat, FlatMat)>,
    /// Running element-wise squared-factor sums (posterior second moments,
    /// powering `predict_with_uncertainty` on arbitrary pairs). Absent in
    /// checkpoints written before this field existed.
    #[serde(default)]
    pub factor_sq_acc: Option<(FlatMat, FlatMat)>,
    /// User-side Macau link state `(β, λ_β)`, when side information was
    /// attached. Features themselves are data, not state: the caller
    /// re-attaches them after [`crate::GibbsSampler::resume`] and the saved
    /// link is restored into the fresh [`crate::FeatureSideInfo`].
    #[serde(default)]
    pub user_link: Option<(FlatMat, f64)>,
    /// Movie-side Macau link state `(β, λ_β)`.
    #[serde(default)]
    pub movie_link: Option<(FlatMat, f64)>,
    /// Which catalogue slice these factors are being served as, stamped by
    /// `serve-daemon --shard i/N` when it writes a serving checkpoint and
    /// validated on load so a shard cannot silently serve the wrong
    /// slice. Absent (and ignored) on training checkpoints.
    #[serde(default)]
    pub shard: Option<crate::serve::shard::ShardSpec>,
}

/// First token of the checkpoint integrity header line.
pub const CHECKPOINT_MAGIC: &str = "%BPMFCKPT";

/// Serialize `ckpt` as JSON behind the integrity header and write it
/// atomically: the bytes land in a sibling `*.tmp` file first and are
/// renamed over `path`, so an interrupt mid-write can never corrupt the
/// previous checkpoint. The header's CRC32C and byte length let
/// [`read_checkpoint`] refuse a file that was damaged *after* the rename.
pub fn write_checkpoint_sync(path: &Path, ckpt: &SamplerCheckpoint) -> io::Result<()> {
    let json = serde_json::to_string(ckpt)
        .map_err(|e| io::Error::other(format!("cannot serialize checkpoint: {e}")))?;
    let payload = json.as_bytes();
    let mut bytes = format!(
        "{CHECKPOINT_MAGIC} crc32c={:08x} len={}\n",
        crc32c(payload),
        payload.len()
    )
    .into_bytes();
    bytes.extend_from_slice(payload);
    // Fault-injection hook: a disk-fault arm in the active plan mutates
    // the artifact (or refuses the write) exactly as a failing disk would.
    crate::serve::faults::mangle_artifact(&mut bytes)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Read and verify a checkpoint written by [`write_checkpoint_sync`].
///
/// Files carrying the [`CHECKPOINT_MAGIC`] header are checked for exact
/// payload length and CRC32C before JSON parsing — truncation, torn
/// writes, and bit flips all surface as [`BpmfError::Integrity`], never a
/// panic or silently-wrong factors. Headerless legacy files (pre-envelope
/// checkpoints) parse unverified.
pub fn read_checkpoint(path: &Path) -> Result<SamplerCheckpoint, BpmfError> {
    let raw = std::fs::read(path)
        .map_err(|e| BpmfError::Store(format!("cannot read checkpoint {}: {e}", path.display())))?;
    parse_checkpoint_bytes(&raw).map_err(|e| match e {
        BpmfError::Integrity(msg) => {
            BpmfError::Integrity(format!("checkpoint {}: {msg}", path.display()))
        }
        other => other,
    })
}

/// Parse (and, when the integrity header is present, verify) checkpoint
/// bytes. Exposed for fuzzing: every corruption of a valid file must land
/// in a typed error here.
pub fn parse_checkpoint_bytes(raw: &[u8]) -> Result<SamplerCheckpoint, BpmfError> {
    let bad = |msg: String| BpmfError::Integrity(msg);
    let payload = if raw.starts_with(CHECKPOINT_MAGIC.as_bytes()) {
        let nl = raw
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| bad("integrity header has no terminating newline".to_string()))?;
        let header = std::str::from_utf8(&raw[..nl])
            .map_err(|_| bad("integrity header is not UTF-8".to_string()))?;
        let mut want_crc = None;
        let mut want_len = None;
        for token in header.split_whitespace().skip(1) {
            if let Some(hex) = token.strip_prefix("crc32c=") {
                want_crc = u32::from_str_radix(hex, 16).ok();
            } else if let Some(dec) = token.strip_prefix("len=") {
                want_len = dec.parse::<usize>().ok();
            }
        }
        let (want_crc, want_len) = match (want_crc, want_len) {
            (Some(c), Some(l)) => (c, l),
            _ => return Err(bad(format!("malformed integrity header '{header}'"))),
        };
        let payload = &raw[nl + 1..];
        if payload.len() != want_len {
            return Err(bad(format!(
                "payload is {} bytes but the header promises {want_len} (truncated or torn write)",
                payload.len()
            )));
        }
        let got_crc = crc32c(payload);
        if got_crc != want_crc {
            return Err(bad(format!(
                "checksum mismatch (stored {want_crc:#010x}, computed {got_crc:#010x})"
            )));
        }
        payload
    } else {
        raw // legacy headerless checkpoint: accept unverified
    };
    let text = std::str::from_utf8(payload)
        .map_err(|_| bad("checkpoint payload is not UTF-8".to_string()))?;
    serde_json::from_str(text)
        .map_err(|e| bad(format!("checkpoint payload is not valid JSON: {e}")))
}

/// A dedicated checkpoint-writer thread.
///
/// [`submit`](AsyncCheckpointWriter::submit) hands a snapshot over a
/// channel and returns immediately; the writer thread serializes it and
/// performs the atomic write-then-rename of [`write_checkpoint_sync`] in
/// the background, overlapping checkpoint I/O with the next sampling
/// iterations. On the first I/O failure the thread stops; the failure is
/// visible immediately via [`pending_error`](AsyncCheckpointWriter::pending_error)
/// (and `submit` starts returning `false`), so a periodic-checkpoint
/// callback can abort a long run at the *next tick* rather than
/// discovering a dead disk hours later at
/// [`finish`](AsyncCheckpointWriter::finish). Submissions are written in
/// order, and `finish` drains everything still queued before returning.
#[derive(Debug)]
pub struct AsyncCheckpointWriter {
    tx: Option<mpsc::Sender<(PathBuf, Box<SamplerCheckpoint>)>>,
    handle: Option<thread::JoinHandle<io::Result<usize>>>,
    error: Arc<Mutex<Option<String>>>,
}

impl AsyncCheckpointWriter {
    /// Start the writer thread.
    pub fn spawn() -> Self {
        let (tx, rx) = mpsc::channel::<(PathBuf, Box<SamplerCheckpoint>)>();
        let error = Arc::new(Mutex::new(None::<String>));
        let slot = Arc::clone(&error);
        let handle = thread::Builder::new()
            .name("bpmf-ckpt-writer".to_string())
            .spawn(move || {
                let mut written = 0usize;
                for (path, ckpt) in rx {
                    if let Err(e) = write_checkpoint_sync(&path, &ckpt) {
                        // Park the error where the training thread can see
                        // it on its next tick, then stop accepting work.
                        *slot.lock().expect("error slot") =
                            Some(format!("writing {}: {e}", path.display()));
                        return Err(e);
                    }
                    written += 1;
                }
                Ok(written)
            })
            .expect("spawn checkpoint writer thread");
        AsyncCheckpointWriter {
            tx: Some(tx),
            handle: Some(handle),
            error,
        }
    }

    /// The first write failure, if one has happened yet. Non-blocking;
    /// intended for periodic-tick polling so a dying disk aborts the run
    /// early instead of at `finish`.
    pub fn pending_error(&self) -> Option<String> {
        self.error.lock().expect("error slot").clone()
    }

    /// Queue one checkpoint for background writing. Returns `false` when
    /// the writer thread has already failed (see
    /// [`pending_error`](AsyncCheckpointWriter::pending_error) for the
    /// message, or [`finish`](AsyncCheckpointWriter::finish) for the
    /// underlying `io::Error`).
    pub fn submit(&self, path: impl Into<PathBuf>, ckpt: SamplerCheckpoint) -> bool {
        if self.pending_error().is_some() {
            return false;
        }
        match &self.tx {
            Some(tx) => tx.send((path.into(), Box::new(ckpt))).is_ok(),
            None => false,
        }
    }

    /// Close the queue, wait for every pending write, and report the
    /// number of checkpoints written (or the first I/O error).
    pub fn finish(mut self) -> io::Result<usize> {
        self.tx = None; // close the channel so the thread drains and exits
        match self.handle.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| io::Error::other("checkpoint writer thread panicked"))?,
            None => Ok(0),
        }
    }
}

impl Drop for AsyncCheckpointWriter {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_mat_roundtrip() {
        let m = Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64 * 0.5);
        let rt = FlatMat::from_mat(&m).to_mat();
        assert_eq!(rt, m);
    }

    #[test]
    fn checkpoints_without_shard_field_still_parse() {
        let ckpt = SamplerCheckpoint {
            num_latent: 2,
            iter: 7,
            acc_count: 0,
            users: FlatMat::from_mat(&Mat::identity(2)),
            movies: FlatMat::from_mat(&Mat::identity(2)),
            users_mu: vec![0.0; 2],
            users_lambda: FlatMat::from_mat(&Mat::identity(2)),
            movies_mu: vec![0.0; 2],
            movies_lambda: FlatMat::from_mat(&Mat::identity(2)),
            hyper_rng: RngState {
                words: [1, 2, 3, 4],
                spare_normal: None,
            },
            worker_rngs: vec![],
            predict_acc: vec![],
            predict_sq_acc: vec![],
            factor_acc: None,
            factor_sq_acc: None,
            user_link: None,
            movie_link: None,
            shard: Some(crate::serve::shard::ShardSpec::for_shard(0, 2, 512, 7)),
        };
        // A stamped spec survives the roundtrip…
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: SamplerCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shard, ckpt.shard);
        assert_eq!(back.shard.unwrap().item_hi, 256);
        // …and a pre-sharding checkpoint (no `shard` key at all, as PR-5
        // wrote them) still parses, defaulting to None.
        let mut val = serde_json::parse_value(&json).unwrap();
        let serde::Value::Obj(fields) = &mut val else {
            panic!("checkpoint serializes as an object");
        };
        fields.retain(|(k, _)| k != "shard");
        let stripped = serde_json::to_string(&val).unwrap();
        let legacy: SamplerCheckpoint = serde_json::from_str(&stripped).unwrap();
        assert_eq!(legacy.shard, None);
        assert_eq!(legacy.iter, 7);
    }

    fn tiny_checkpoint(iter: usize) -> SamplerCheckpoint {
        SamplerCheckpoint {
            num_latent: 2,
            iter,
            acc_count: 0,
            users: FlatMat::from_mat(&Mat::identity(2)),
            movies: FlatMat::from_mat(&Mat::identity(2)),
            users_mu: vec![0.0; 2],
            users_lambda: FlatMat::from_mat(&Mat::identity(2)),
            movies_mu: vec![0.0; 2],
            movies_lambda: FlatMat::from_mat(&Mat::identity(2)),
            hyper_rng: RngState {
                words: [1, 2, 3, 4],
                spare_normal: None,
            },
            worker_rngs: vec![],
            predict_acc: vec![],
            predict_sq_acc: vec![],
            factor_acc: None,
            factor_sq_acc: None,
            user_link: None,
            movie_link: None,
            shard: None,
        }
    }

    #[test]
    fn async_writer_writes_every_submission_in_order() {
        let path =
            std::env::temp_dir().join(format!("bpmf-async-ckpt-{}.json", std::process::id()));
        let writer = AsyncCheckpointWriter::spawn();
        for iter in 0..5 {
            assert!(writer.submit(&path, tiny_checkpoint(iter)));
        }
        assert_eq!(writer.finish().expect("all writes succeed"), 5);
        let back = read_checkpoint(&path).expect("verified read");
        // Last submission wins: writes are ordered.
        assert_eq!(back.iter, 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn async_writer_surfaces_io_errors_at_finish() {
        let missing = std::env::temp_dir()
            .join(format!("bpmf-no-such-dir-{}", std::process::id()))
            .join("ckpt.json");
        let writer = AsyncCheckpointWriter::spawn();
        writer.submit(&missing, tiny_checkpoint(0));
        assert!(writer.finish().is_err());
    }

    #[test]
    fn async_writer_surfaces_io_errors_on_the_next_tick() {
        let missing = std::env::temp_dir()
            .join(format!("bpmf-no-such-dir-tick-{}", std::process::id()))
            .join("ckpt.json");
        let writer = AsyncCheckpointWriter::spawn();
        assert!(writer.pending_error().is_none());
        writer.submit(&missing, tiny_checkpoint(0));
        // The failure becomes visible without closing the writer — this is
        // what lets the periodic-checkpoint callback abort a run early.
        let mut polled = None;
        for _ in 0..200 {
            polled = writer.pending_error();
            if polled.is_some() {
                break;
            }
            thread::sleep(std::time::Duration::from_millis(5));
        }
        let msg = polled.expect("error surfaces before finish");
        assert!(msg.contains("ckpt.json"), "{msg}");
        // And a subsequent submit is refused.
        assert!(!writer.submit(&missing, tiny_checkpoint(1)));
        assert!(writer.finish().is_err());
    }

    #[test]
    fn checkpoint_envelope_roundtrips_and_verifies() {
        let path = std::env::temp_dir().join(format!("bpmf-env-ckpt-{}.json", std::process::id()));
        write_checkpoint_sync(&path, &tiny_checkpoint(3)).unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert!(raw.starts_with(CHECKPOINT_MAGIC.as_bytes()));
        assert_eq!(read_checkpoint(&path).unwrap().iter, 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoints_are_typed_integrity_errors() {
        let good = {
            let json = serde_json::to_string(&tiny_checkpoint(5)).unwrap();
            let mut bytes = format!(
                "{CHECKPOINT_MAGIC} crc32c={:08x} len={}\n",
                crc32c(json.as_bytes()),
                json.len()
            )
            .into_bytes();
            bytes.extend_from_slice(json.as_bytes());
            bytes
        };
        assert_eq!(parse_checkpoint_bytes(&good).unwrap().iter, 5);

        // Bit flip in the payload → checksum mismatch.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        let err = parse_checkpoint_bytes(&flipped).unwrap_err();
        assert!(matches!(err, BpmfError::Integrity(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");

        // Truncation → length mismatch (even when the JSON stays valid-ish).
        let err = parse_checkpoint_bytes(&good[..good.len() - 7]).unwrap_err();
        assert!(matches!(err, BpmfError::Integrity(_)), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");

        // Mangled header → typed, not a panic.
        let mut header = good.clone();
        header[12] = b'!';
        assert!(matches!(
            parse_checkpoint_bytes(&header).unwrap_err(),
            BpmfError::Integrity(_)
        ));
    }

    #[test]
    fn legacy_headerless_checkpoints_still_load() {
        let json = serde_json::to_string(&tiny_checkpoint(9)).unwrap();
        assert_eq!(parse_checkpoint_bytes(json.as_bytes()).unwrap().iter, 9);
        // But headerless garbage is still a typed error.
        assert!(matches!(
            parse_checkpoint_bytes(b"{not json").unwrap_err(),
            BpmfError::Integrity(_)
        ));
    }

    #[test]
    fn rng_state_roundtrip_preserves_stream() {
        let mut rng = bpmf_stats::Xoshiro256pp::seed_from_u64(9);
        let _ = bpmf_stats::standard_normal(&mut rng); // populate the spare
        let state = RngState::capture(&rng);
        let mut restored = state.rebuild();
        for _ in 0..100 {
            assert_eq!(
                bpmf_stats::standard_normal(&mut rng).to_bits(),
                bpmf_stats::standard_normal(&mut restored).to_bits()
            );
        }
    }
}
