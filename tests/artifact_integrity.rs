//! Corrupt-artifact fuzz over the two on-disk formats the serving fleet
//! restarts from: packed rating slabs and sampler checkpoints.
//!
//! The invariant under test is the supervisor's safety contract: any
//! torn write, truncation, or bit flip of a valid artifact must surface
//! as a **typed** error on the resume path — never a panic, never a
//! parse that silently yields different data. (A corrupted slab or
//! checkpoint that loaded as garbage would be resurrected forever by an
//! auto-restarting supervisor; a typed `Integrity` error is what lets it
//! quarantine the replica instead.)

use bpmf::checkpoint::{
    parse_checkpoint_bytes, read_checkpoint, write_checkpoint_sync, FlatMat, RngState,
    SamplerCheckpoint,
};
use bpmf::{BpmfError, MappedSlab};
use bpmf_linalg::Mat;
use bpmf_sparse::{slab_extents, write_slab, Coo, Csr, SlabView};
use proptest::prelude::*;

/// A small but non-trivial slab: several extents, odd `col_idx` counts
/// (so the u32 sections carry alignment padding), nonzero everywhere.
fn slab_fixture() -> Vec<u8> {
    let mut coo = Coo::new(7, 5);
    let mut state = 0x1234_5678_9abc_def0u64;
    for r in 0..7 {
        for c in 0..5 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if state >> 61 != 0 {
                coo.push(r, c, 1.0 + (state >> 32) as f64 / 4e9);
            }
        }
    }
    let r = Csr::from_coo_owned(coo);
    let rt = r.transpose();
    let extents = slab_extents(&r, 3);
    let mut bytes = Vec::new();
    write_slab(&mut bytes, &r, &rt, 3.25, &extents).expect("write fixture slab");
    bytes
}

fn checkpoint_fixture() -> SamplerCheckpoint {
    SamplerCheckpoint {
        num_latent: 2,
        iter: 9,
        acc_count: 3,
        users: FlatMat::from_mat(&Mat::identity(2)),
        movies: FlatMat::from_mat(&Mat::identity(2)),
        users_mu: vec![0.5; 2],
        users_lambda: FlatMat::from_mat(&Mat::identity(2)),
        movies_mu: vec![-0.5; 2],
        movies_lambda: FlatMat::from_mat(&Mat::identity(2)),
        hyper_rng: RngState {
            words: [1, 2, 3, 4],
            spare_normal: None,
        },
        worker_rngs: vec![RngState {
            words: [5, 6, 7, 8],
            spare_normal: Some(0.25),
        }],
        predict_acc: vec![1.0, 2.0],
        predict_sq_acc: vec![1.0, 4.0],
        factor_acc: None,
        factor_sq_acc: None,
        user_link: None,
        movie_link: None,
        shard: None,
    }
}

/// A temp-dir path no other call can share: tests of this binary run on
/// parallel threads of one process, so the pid alone does not separate two
/// callers — the counter does.
fn unique_temp_path(stem: &str, ext: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "bpmf-integrity-{stem}-{}-{}.{ext}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Checkpoint fixture as the exact bytes `write_checkpoint_sync` puts on
/// disk (integrity header + JSON payload).
fn checkpoint_bytes() -> Vec<u8> {
    let path = unique_temp_path("fixture", "json");
    write_checkpoint_sync(&path, &checkpoint_fixture()).expect("write fixture checkpoint");
    let bytes = std::fs::read(&path).expect("read fixture back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Copy `bytes` into a `u64`-backed buffer and parse the 8-aligned view
/// (`SlabView::parse` refuses unaligned buffers by design).
fn parse_aligned(bytes: &[u8]) -> Result<SlabOwned, String> {
    let mut buf = vec![0u64; bytes.len().div_ceil(8).max(1)];
    // SAFETY: u64 has no padding and every byte pattern is valid; the
    // view covers exactly the capacity holding `bytes`.
    let view =
        unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), buf.len() * 8) };
    view[..bytes.len()].copy_from_slice(bytes);
    match SlabView::parse(&view[..bytes.len()]) {
        Ok(v) => Ok(SlabOwned::from_view(&v)),
        Err(e) => Err(e.to_string()),
    }
}

/// Owned snapshot of everything a [`SlabView`] exposes, so pristine and
/// mutated parses can be compared after their buffers are gone.
#[derive(Debug, PartialEq)]
struct SlabOwned {
    nrows: usize,
    ncols: usize,
    nnz: usize,
    global_mean: f64,
    extents: Vec<(usize, usize)>,
    r: (Vec<u64>, Vec<u32>, Vec<f64>),
    rt: (Vec<u64>, Vec<u32>, Vec<f64>),
}

impl SlabOwned {
    fn from_view(v: &SlabView<'_>) -> Self {
        SlabOwned {
            nrows: v.nrows,
            ncols: v.ncols,
            nnz: v.nnz,
            global_mean: v.global_mean,
            extents: v.extents.clone(),
            r: (
                v.r.row_ptr.to_vec(),
                v.r.col_idx.to_vec(),
                v.r.values.to_vec(),
            ),
            rt: (
                v.rt.row_ptr.to_vec(),
                v.rt.col_idx.to_vec(),
                v.rt.values.to_vec(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Flip any single bit anywhere in a packed slab: the parse must
    /// either fail typed or (when the flip landed in alignment padding)
    /// return content identical to the pristine slab. A successful parse
    /// with *different* content would be silent corruption.
    #[test]
    fn slab_bit_flips_never_yield_silently_different_data(pos in any::<u32>(), bit in 0u8..8) {
        let bytes = slab_fixture();
        let pristine = parse_aligned(&bytes).expect("pristine slab parses");
        let mut mutated = bytes.clone();
        let off = pos as usize % mutated.len();
        mutated[off] ^= 1 << bit;
        match parse_aligned(&mutated) {
            Err(_) => {} // typed SlabError, the common case
            Ok(parsed) => prop_assert_eq!(
                parsed, pristine,
                "bit {} of byte {} flipped yet the slab parsed differently", bit, off
            ),
        }
    }

    /// Truncate a packed slab at any point: never a panic, and any
    /// successful parse (a cut inside trailing padding) is bit-identical
    /// to the pristine content.
    #[test]
    fn slab_truncations_never_yield_silently_different_data(pos in any::<u32>()) {
        let bytes = slab_fixture();
        let pristine = parse_aligned(&bytes).expect("pristine slab parses");
        let cut = pos as usize % bytes.len();
        match parse_aligned(&bytes[..cut]) {
            Err(_) => {}
            Ok(parsed) => prop_assert_eq!(
                parsed, pristine,
                "slab truncated to {} bytes yet parsed successfully with different data", cut
            ),
        }
    }

    /// Every byte of a checkpoint file is covered by the envelope (header
    /// tokens or CRC32C over the payload): any single-bit flip must be a
    /// typed `Integrity` error — CRC32C detects all 1-bit errors, and a
    /// mangled header can never fall back to a *valid* legacy parse.
    #[test]
    fn checkpoint_bit_flips_are_typed_integrity_errors(pos in any::<u32>(), bit in 0u8..8) {
        let mut raw = checkpoint_bytes();
        let off = pos as usize % raw.len();
        raw[off] ^= 1 << bit;
        match parse_checkpoint_bytes(&raw) {
            Err(BpmfError::Integrity(_)) => {}
            Err(other) => prop_assert!(
                false,
                "bit {} of byte {} flipped: expected Integrity, got {}", bit, off, other
            ),
            Ok(_) => prop_assert!(
                false,
                "bit {} of byte {} flipped yet the checkpoint parsed", bit, off
            ),
        }
    }

    /// Truncate a checkpoint anywhere (torn write): typed `Integrity`,
    /// via the declared-length check or the CRC.
    #[test]
    fn checkpoint_truncations_are_typed_integrity_errors(pos in any::<u32>()) {
        let raw = checkpoint_bytes();
        let cut = pos as usize % raw.len();
        match parse_checkpoint_bytes(&raw[..cut]) {
            Err(BpmfError::Integrity(_)) => {}
            Err(other) => prop_assert!(
                false,
                "truncated to {} bytes: expected Integrity, got {}", cut, other
            ),
            Ok(_) => prop_assert!(false, "checkpoint truncated to {} bytes yet parsed", cut),
        }
    }
}

/// The mmap'd open path (what `--train FILE.slab` and the serving tier
/// use) classifies corruption as `BpmfError::Integrity`, distinct from
/// ordinary I/O failures — the supervisor branches on exactly this.
#[test]
fn mapped_slab_open_surfaces_corruption_as_integrity() {
    let path = unique_temp_path("slab", "slab");
    let bytes = slab_fixture();
    std::fs::write(&path, &bytes).expect("write slab");
    assert!(MappedSlab::open(&path).is_ok(), "pristine slab must open");

    // Byte 24 is the nrows field: covered by the header CRC.
    let mut mutated = bytes.clone();
    mutated[24] ^= 0x01;
    std::fs::write(&path, &mutated).expect("rewrite slab");
    match MappedSlab::open(&path) {
        Err(BpmfError::Integrity(msg)) => {
            assert!(
                msg.contains(&path.display().to_string()),
                "names the file: {msg}"
            );
        }
        other => panic!("expected Integrity for a header flip, got {other:?}"),
    }

    // Truncation landing inside a section is also Integrity, not Store.
    std::fs::write(&path, &bytes[..bytes.len() - 8]).expect("truncate slab");
    assert!(
        matches!(MappedSlab::open(&path), Err(BpmfError::Integrity(_))),
        "truncated slab must fail the integrity check"
    );
    std::fs::remove_file(&path).ok();
}

/// `read_checkpoint` (the `--resume` path and the supervisor's pre-spawn
/// check) round-trips pristine files and rejects damaged ones typed.
#[test]
fn resume_path_rejects_damaged_checkpoints() {
    let path = unique_temp_path("ckpt", "json");
    write_checkpoint_sync(&path, &checkpoint_fixture()).expect("write checkpoint");
    let back = read_checkpoint(&path).expect("pristine checkpoint loads");
    assert_eq!(back.iter, 9);

    let raw = std::fs::read(&path).expect("read bytes");
    let mut flipped = raw.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x10; // payload byte: caught by the CRC
    std::fs::write(&path, &flipped).expect("rewrite");
    match read_checkpoint(&path) {
        Err(BpmfError::Integrity(msg)) => {
            assert!(
                msg.contains(&path.display().to_string()),
                "names the file: {msg}"
            );
        }
        other => panic!("expected Integrity for a payload flip, got {other:?}"),
    }

    // A missing file stays an ordinary Store error — "no checkpoint yet"
    // and "checkpoint destroyed" must remain distinguishable.
    std::fs::remove_file(&path).ok();
    assert!(matches!(read_checkpoint(&path), Err(BpmfError::Store(_))));
}
