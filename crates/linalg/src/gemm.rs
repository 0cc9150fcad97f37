//! Blocked, register-tiled GEMM: the micro-batch serving engine.
//!
//! `gemm_into` computes `C = A · B` for row-major operands — `A` is
//! `m × k` (a gathered block of user factor rows), `B` is `k × n` (the
//! transposed item factors, cached once per model), `C` is `m × n` (one
//! score row per user). This is the kernel behind
//! `Recommender::score_block`: a block of users pays **one** streaming
//! pass over the catalogue instead of `m` per-user scans, which is what
//! the per-user `matvec_t_into` path degrades into once the factor panel
//! falls out of L2.
//!
//! # Kernel shape and why
//!
//! The micro-kernel holds an `MR × NR = 6 × 8` tile of `C` in registers:
//! twelve 4-lane `f64` accumulators, fed per `k`-step by two loads of `B`
//! (one 8-column row segment) and six broadcasts of `A`. On AVX2 that is
//! 12 accumulator `ymm`s + 2 loaded `ymm`s + 1 broadcast register — 15 of
//! the 16 architectural registers — and twelve independent FMA chains,
//! comfortably covering the 4–5 cycle FMA latency on both issue ports
//! (eight chains is the bare minimum there; twelve leaves slack for cache
//! misses). Per `k`-step the kernel issues 8 load µops against 12 FMAs,
//! so it is FMA-bound, not load-bound. Each `B` row segment is reused
//! across the 6 `A` rows, so `B` — the large operand, `n` is the
//! catalogue — is streamed `m / 6` times instead of `m` times.
//!
//! Two cache-blocking levels wrap the register tile:
//!
//! * the `k` loop is blocked at [`GEMM_KC`] (256 doubles = one 2 KiB
//!   `A`-row slab) so a register tile's partial sums spill to `C` at most
//!   `k / KC` times; for BPMF's `k ≤ 128` the whole reduction happens in
//!   registers in a single pass;
//! * the column loop is blocked at [`GEMM_NC`], so the `KC × NC` panel of
//!   `B` (≤ 512 KiB) stays cache-resident while **every** row strip of
//!   `A` passes over it — for catalogues whose `K × N` factor panel
//!   exceeds L2, `B` is read from memory once per call instead of once
//!   per 6 users.
//!
//! `B` slabs are **packed** into a contiguous blocked layout (classic
//! BLIS discipline) so the micro-kernel's loads walk one linear buffer
//! instead of striding `8·n` bytes per `k`-step; serving callers pack the
//! item factors once ([`PackedB`], `OnceLock`-cached per model) and every
//! call after that is pure micro-kernel time via [`gemm_packed_into`].
//!
//! Output **column panels** (aligned to [`GEMM_NC`], so a chunk is at
//! least one 2 KiB column block and packed slabs never straddle chunks)
//! are fanned out over the persistent
//! [`crate::kernel_pool`] when the problem is big enough
//! ([`GEMM_PAR_FLOPS`]); each worker owns a disjoint column range of `C`,
//! so no synchronization happens inside the kernel.
//!
//! Dispatch goes through the shared [`crate::simd::simd_level`] layer:
//! on AVX-512F hardware an 8 × 16 strip of 8-lane accumulators takes over
//! (32 architectural registers: double the lanes, half the front-end µops
//! per element, `k` unrolled ×2), else the AVX2+FMA 6 × 8 arm, else the
//! portable scalar arm (`BPMF_NO_SIMD=1` forces scalar everywhere;
//! non-x86_64 is always scalar).
//!
//! # Re-measuring on new hardware
//!
//! The tile constants are judged by the layered benchmark's traced
//! `serve_sat` pass:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_sat --trace 1
//! ```
//!
//! reports `service.batch_us_per_req` (one full micro-batch through
//! `recommend_each`, per request) and `service.ceiling_rps` (the worker
//! pool's scoring ceiling derived from it), beside
//! `linalg.gemm_ns_per_score` for the kernel alone; rerun with
//! `BPMF_NO_SIMD=1` for the scalar arm. On the 1-core AVX-512 reference
//! host the 64-user block measured ~2.1–2.3× over the looped per-user
//! scan at 4096×4096, `k = 32`. If a new host shows less: check that the
//! AVX-512 arm is live, and shrink [`GEMM_NC`] if the `B` panel starts missing L2
//! (it is also the parallel chunk granularity — raise it on machines
//! with more workers than the catalogue has column blocks). Widening
//! `GEMM_MR_512` past 8
//! measured *slower* here (front-end pressure beats the extra chains) —
//! re-measure before touching it.

use crate::pool::kernel_pool;
use crate::simd;

/// Register-tile rows: `A` rows (users) accumulated per micro-kernel call.
pub const GEMM_MR: usize = 6;

/// Register-tile columns: two 4-lane vectors of `C` per accumulator row.
pub const GEMM_NR: usize = 8;

/// `k`-dimension cache block (doubles). 256 keeps an `MR × KC` slab of `A`
/// (12 KiB) plus the streamed `B` rows L1-resident between `C` spills.
pub const GEMM_KC: usize = 256;

/// Column cache block (doubles): the `KC × NC` panel of `B` (≤ 512 KiB)
/// stays L2-resident across every row strip of `A`.
pub const GEMM_NC: usize = 256;

/// Flop threshold (`2·m·n·k`) below which the pool is not worth waking.
pub const GEMM_PAR_FLOPS: usize = 1 << 21;

/// `B` in the micro-kernel's blocked layout, packed once and reused
/// across GEMM calls.
///
/// Layout: for each [`GEMM_NC`] column block (width `w`), for each
/// [`GEMM_KC`] k-block, the `kc × w` slab is stored contiguously
/// row-major. The micro-kernel's `B` loads then walk one linear buffer —
/// L1/TLB-friendly — instead of striding `8·n` bytes between `k`-steps,
/// and serving skips the per-call packing pass entirely: a model packs
/// its (transposed) item factors once (`OnceLock`) and every
/// `score_block` after that is pure micro-kernel time.
#[derive(Clone, Debug)]
pub struct PackedB {
    data: Vec<f64>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Pack row-major `b` (`k × n`).
    pub fn pack(k: usize, n: usize, b: &[f64]) -> PackedB {
        assert_eq!(b.len(), k * n, "pack shape mismatch");
        let mut data = Vec::with_capacity(k * n);
        for jb in (0..n).step_by(GEMM_NC) {
            let jb1 = (jb + GEMM_NC).min(n);
            for kb in KBlocks::new(k) {
                for l in kb.k0..kb.k0 + kb.kc {
                    data.extend_from_slice(&b[l * n + jb..l * n + jb1]);
                }
            }
        }
        PackedB { data, k, n }
    }

    /// Pack `vᵀ` directly from a row-major `n × k` factor matrix `v` —
    /// one strided pass, no intermediate `k × n` transposed copy.
    pub fn pack_transposed_from(v: &crate::mat::Mat) -> PackedB {
        let (n, k) = (v.rows(), v.cols());
        let vs = v.as_slice();
        let mut data = Vec::with_capacity(k * n);
        for jb in (0..n).step_by(GEMM_NC) {
            let jb1 = (jb + GEMM_NC).min(n);
            for kb in KBlocks::new(k) {
                for l in kb.k0..kb.k0 + kb.kc {
                    data.extend((jb..jb1).map(|j| vs[j * k + l]));
                }
            }
        }
        PackedB { data, k, n }
    }

    /// Pack `vᵀ` for the contiguous column range `[lo, hi)` of a
    /// row-major `n × k` factor matrix — the sharded-serving path. `lo`
    /// must sit on a [`GEMM_NC`] block boundary; the resulting buffer is
    /// then exactly the `[k·lo, k·hi)` slice of the full
    /// [`PackedB::pack_transposed_from`] buffer, so every column block is
    /// tiled into the same panels with the same ragged edges and the
    /// micro-kernel arithmetic per column is **bit-identical** to the
    /// full-catalogue pack — the property the sharded serving tier's
    /// byte-identity gate rests on.
    pub fn pack_transposed_range_from(v: &crate::mat::Mat, lo: usize, hi: usize) -> PackedB {
        let (n, k) = (v.rows(), v.cols());
        assert!(lo <= hi && hi <= n, "pack range [{lo}, {hi}) out of 0..{n}");
        assert_eq!(lo % GEMM_NC, 0, "range start must be GEMM_NC-aligned");
        let vs = v.as_slice();
        let w = hi - lo;
        let mut data = Vec::with_capacity(k * w);
        for jb in (lo..hi).step_by(GEMM_NC) {
            let jb1 = (jb + GEMM_NC).min(hi);
            for kb in KBlocks::new(k) {
                for l in kb.k0..kb.k0 + kb.kc {
                    data.extend((jb..jb1).map(|j| vs[j * k + l]));
                }
            }
        }
        PackedB { data, k, n: w }
    }

    /// Inner (reduction) dimension `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column count `n` (the catalogue).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed `kc × w` slab of column block `[jb, jb + w)` × k-block
    /// starting at `k0`. `jb` must be a multiple of [`GEMM_NC`].
    fn slab(&self, jb: usize, w: usize, k0: usize, kc: usize) -> &[f64] {
        let off = self.k * jb + k0 * w;
        &self.data[off..off + kc * w]
    }
}

/// Where a panel's `B` slabs come from: packed fresh per call, or served
/// from a [`PackedB`] cache.
#[derive(Clone, Copy)]
enum BSource<'a> {
    Unpacked(&'a [f64]),
    Packed(&'a PackedB),
}

/// `c = a · b` for row-major `a` (`m × k`), `b` (`k × n`), `c` (`m × n`).
///
/// Overwrites `c` entirely (no accumulation into prior contents; `k = 0`
/// zeroes it). Runtime-dispatches to the AVX2+FMA micro-kernel when
/// available (see [`crate::simd::simd_enabled`]) and fans output column
/// panels out over the persistent kernel pool when `2·m·n·k` crosses
/// [`GEMM_PAR_FLOPS`]. `b` is packed into the blocked layout on the fly;
/// callers that reuse the same `b` across calls should pack once with
/// [`PackedB`] and call [`gemm_packed_into`] instead.
///
/// Panics if any slice length disagrees with the shapes.
pub fn gemm_into(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(b.len(), k * n, "gemm b shape mismatch");
    gemm_dispatch(m, n, k, a, BSource::Unpacked(b), c);
}

/// [`gemm_into`] against a pre-packed `B` — the serving fast path: no
/// per-call packing, and the micro-kernel streams the cache-blocked
/// layout directly.
pub fn gemm_packed_into(m: usize, a: &[f64], b: &PackedB, c: &mut [f64]) {
    gemm_dispatch(m, b.n, b.k, a, BSource::Packed(b), c);
}

/// The `score_block` core shared by the serving models: gather `users`
/// rows of `user_mat` (`M × K`) into a contiguous `B × K` block — the
/// GEMM's `A` operand, `B·K` doubles, tiny next to the `B·N` output —
/// and multiply against the packed item factors. `out[i·N .. (i+1)·N]`
/// receives user `users[i]`'s raw catalogue dot products; model-specific
/// epilogues (global mean, biases, clamping) stay with the caller.
pub fn gemm_gathered_rows_packed(
    user_mat: &crate::mat::Mat,
    users: &[u32],
    packed: &PackedB,
    out: &mut [f64],
) {
    let k = user_mat.cols();
    assert_eq!(k, packed.k(), "gathered-rows factor dimension mismatch");
    let mut block = vec![0.0; users.len() * k];
    for (i, &u) in users.iter().enumerate() {
        block[i * k..(i + 1) * k].copy_from_slice(user_mat.row(u as usize));
    }
    gemm_packed_into(users.len(), &block, packed, out);
}

/// Shared shape validation + kernel-pool fan-out over column blocks.
fn gemm_dispatch(m: usize, n: usize, k: usize, a: &[f64], src: BSource<'_>, c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm a shape mismatch");
    assert_eq!(c.len(), m * n, "gemm c shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    let pool = kernel_pool();
    // Chunk boundaries stay aligned to GEMM_NC column blocks so packed
    // slabs never straddle two chunks.
    let blocks = n.div_ceil(GEMM_NC);
    let nchunks = if 2 * m * n * k >= GEMM_PAR_FLOPS {
        (pool.workers() + 1).min(blocks)
    } else {
        1
    };
    if nchunks <= 1 {
        // SAFETY: `c` is exclusively borrowed and sized m·n (asserted).
        unsafe { gemm_panel(m, n, k, a, src, c.as_mut_ptr(), 0, n, false) };
        return;
    }
    let per = blocks.div_ceil(nchunks) * GEMM_NC;
    let out = SyncPtr(c.as_mut_ptr());
    let out = &out;
    pool.run(nchunks, &|chunk| {
        let j0 = chunk * per;
        let j1 = (j0 + per).min(n);
        if j0 >= j1 {
            return;
        }
        // SAFETY: chunk indices are delivered exactly once and each chunk
        // writes only columns [j0, j1) of every row — disjoint cells of
        // `c` — while `a`/`b` are only read. All chunks work through the
        // shared raw pointer (no one materializes a `&mut` over another
        // chunk's cells, so the exclusive references the kernels create
        // never alias), and `run` returns before `c`'s borrow ends.
        unsafe { gemm_panel(m, n, k, a, src, out.0, j0, j1, false) };
    });
}

/// [`gemm_into`] pinned to the portable scalar arm, serial — the reference
/// implementation the property tests compare against (the end-to-end
/// SIMD-vs-scalar ratio is `service.batch_us_per_req` on `serve_sat`, run
/// with and without `BPMF_NO_SIMD=1`).
pub fn gemm_into_scalar(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm a shape mismatch");
    assert_eq!(b.len(), k * n, "gemm b shape mismatch");
    assert_eq!(c.len(), m * n, "gemm c shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    // SAFETY: `c` is exclusively borrowed and sized m·n (asserted).
    unsafe { gemm_panel(m, n, k, a, BSource::Unpacked(b), c.as_mut_ptr(), 0, n, true) };
}

/// Shares a raw output pointer with pool chunks writing disjoint columns.
struct SyncPtr(*mut f64);

// SAFETY: every chunk writes a disjoint column range (see `gemm_into`).
unsafe impl Sync for SyncPtr {}

/// One k-block: `[k0, k0 + kc)`, and whether it is the first (overwriting
/// `c`) or a later one (accumulating into it).
#[derive(Clone, Copy)]
struct KBlock {
    k0: usize,
    kc: usize,
    first: bool,
}

/// Iterator over [`GEMM_KC`]-sized k-blocks.
struct KBlocks {
    k: usize,
    next: usize,
}

impl KBlocks {
    fn new(k: usize) -> Self {
        KBlocks { k, next: 0 }
    }
}

impl Iterator for KBlocks {
    type Item = KBlock;

    fn next(&mut self) -> Option<KBlock> {
        if self.next >= self.k {
            return None;
        }
        let k0 = self.next;
        let kc = GEMM_KC.min(self.k - k0);
        self.next += kc;
        Some(KBlock {
            k0,
            kc,
            first: k0 == 0,
        })
    }
}

/// Compute columns `[j0, j1)` of `c` — all column blocks and k-blocks —
/// dispatching the arm. The [`GEMM_NC`] column loop is outermost so one
/// `KC × NC` slab of `b` (packed fresh here, or pre-packed in a
/// [`PackedB`]) stays cache-resident across every row strip, and the
/// micro-kernel's `B` loads walk one linear ≤ 512 KiB buffer (classic
/// BLIS discipline) instead of striding `8·n` bytes between `k`-steps.
/// `j0` must be a multiple of [`GEMM_NC`] when `src` is packed.
///
/// # Safety
///
/// `cp` must be valid for reads and writes of `m · n` doubles, and no
/// other reference or concurrent writer may touch columns `[j0, j1)` of
/// any row while this runs (concurrent `gemm_panel` calls on the same
/// buffer are fine when their column ranges are disjoint — the kernels
/// only ever form references over their own column range).
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_panel(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    src: BSource<'_>,
    cp: *mut f64,
    j0: usize,
    j1: usize,
    force_scalar: bool,
) {
    let mut scratch: Vec<f64> = Vec::new();
    for jb in (j0..j1).step_by(GEMM_NC) {
        let jb1 = (jb + GEMM_NC).min(j1);
        let w = jb1 - jb;
        for kb in KBlocks::new(k) {
            let slab: &[f64] = match src {
                BSource::Packed(pb) => pb.slab(jb, w, kb.k0, kb.kc),
                BSource::Unpacked(b) => {
                    scratch.clear();
                    scratch.reserve(kb.kc * w);
                    for l in kb.k0..kb.k0 + kb.kc {
                        scratch.extend_from_slice(&b[l * n + jb..l * n + jb1]);
                    }
                    &scratch
                }
            };
            let level = if force_scalar {
                simd::SimdLevel::Scalar
            } else {
                simd::simd_level()
            };
            match level {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `simd_level` guarantees the detected features.
                simd::SimdLevel::Avx512 => unsafe { block_avx512(m, n, a, slab, cp, jb, jb1, kb) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above.
                simd::SimdLevel::Avx2 => unsafe { block_avx2(m, n, a, slab, cp, jb, jb1, kb) },
                // SAFETY: the scalar arm needs no CPU feature; `cp` and
                // the column range carry this function's own contract.
                _ => unsafe { block_scalar(m, n, a, slab, cp, jb, jb1, kb) },
            }
        }
    }
}

/// Scalar micro-kernel arm: 6×8 accumulator tiles, broadcast-and-multiply
/// down the packed k-block slab. The layout mirrors the AVX2 arm so both
/// re-associate identically per tile (they still differ from a naive dot
/// loop).
///
/// # Safety
///
/// As [`gemm_panel`]: `cp` valid for `m · n` doubles, columns `[j0, j1)`
/// unaliased while this runs.
#[allow(clippy::too_many_arguments)]
unsafe fn block_scalar(
    m: usize,
    n: usize,
    a: &[f64],
    slab: &[f64],
    cp: *mut f64,
    j0: usize,
    j1: usize,
    kb: KBlock,
) {
    let k = a.len() / m;
    let w = j1 - j0;
    for i0 in (0..m).step_by(GEMM_MR) {
        let mr = GEMM_MR.min(m - i0);
        let mut j = j0;
        while j < j1 {
            let nr = GEMM_NR.min(j1 - j);
            let mut acc = [[0.0f64; GEMM_NR]; GEMM_MR];
            if !kb.first {
                for (r, row) in acc.iter_mut().enumerate().take(mr) {
                    for (s, slot) in row.iter_mut().enumerate().take(nr) {
                        *slot = *cp.add((i0 + r) * n + j + s);
                    }
                }
            }
            for l in 0..kb.kc {
                let brow = &slab[l * w + (j - j0)..l * w + (j - j0) + nr];
                for (r, row) in acc.iter_mut().enumerate().take(mr) {
                    let al = a[(i0 + r) * k + kb.k0 + l];
                    for (s, &bv) in row.iter_mut().zip(brow) {
                        *s += al * bv;
                    }
                }
            }
            for (r, row) in acc.iter().enumerate().take(mr) {
                for (s, &slot) in row.iter().enumerate().take(nr) {
                    *cp.add((i0 + r) * n + j + s) = slot;
                }
            }
            j += nr;
        }
    }
}

/// AVX2+FMA arm of one `(column block × k-block)` slab: full [`GEMM_MR`]
/// row strips through the statically-unrolled micro-kernel, the ragged
/// last strip through narrower instantiations. `slab` is the packed
/// `kb.kc × (j1 − j0)` copy of `b`'s block (row `l − kb.k0` holds `b`'s
/// columns `[j0, j1)` of row `l`, contiguously).
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX2 and FMA, that the shapes have
/// been validated (`a = m × k`, `c = m × n`, `j1 ≤ n`, `kb` in range),
/// and that `slab` was packed as described.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn block_avx2(
    m: usize,
    n: usize,
    a: &[f64],
    slab: &[f64],
    cp: *mut f64,
    j0: usize,
    j1: usize,
    kb: KBlock,
) {
    let k = a.len() / m;
    let mut i0 = 0usize;
    while i0 + GEMM_MR <= m {
        row_strip_avx2::<GEMM_MR>(n, k, a, slab, cp, i0, j0, j1, kb);
        i0 += GEMM_MR;
    }
    match m - i0 {
        0 => {}
        1 => row_strip_avx2::<1>(n, k, a, slab, cp, i0, j0, j1, kb),
        2 => row_strip_avx2::<2>(n, k, a, slab, cp, i0, j0, j1, kb),
        3 => row_strip_avx2::<3>(n, k, a, slab, cp, i0, j0, j1, kb),
        4 => row_strip_avx2::<4>(n, k, a, slab, cp, i0, j0, j1, kb),
        _ => row_strip_avx2::<5>(n, k, a, slab, cp, i0, j0, j1, kb),
    }
}

/// The `MR × 8` micro-kernel over one row strip: `MR` is a const so the
/// broadcast/FMA loops fully unroll into `2·MR` independent accumulator
/// chains (twelve at `MR = 6`).
///
/// # Safety
///
/// As [`block_avx2`], plus `i0 + MR ≤ m`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn row_strip_avx2<const MR: usize>(
    n: usize,
    k: usize,
    a: &[f64],
    slab: &[f64],
    cp: *mut f64,
    i0: usize,
    j0: usize,
    j1: usize,
    kb: KBlock,
) {
    use std::arch::x86_64::*;
    let w = j1 - j0;
    let (ap, bp) = (a.as_ptr(), slab.as_ptr());
    let mut j = j0;
    // Full MR×8 tiles: 2·MR accumulators, two B loads, MR broadcasts per
    // k-step — FMA-bound, not load-bound.
    while j + GEMM_NR <= j1 {
        let bt = bp.add(j - j0);
        let mut lo = [_mm256_setzero_pd(); MR];
        let mut hi = [_mm256_setzero_pd(); MR];
        if !kb.first {
            for r in 0..MR {
                lo[r] = _mm256_loadu_pd(cp.add((i0 + r) * n + j));
                hi[r] = _mm256_loadu_pd(cp.add((i0 + r) * n + j + 4));
            }
        }
        for l in 0..kb.kc {
            let b0 = _mm256_loadu_pd(bt.add(l * w));
            let b1 = _mm256_loadu_pd(bt.add(l * w + 4));
            for r in 0..MR {
                let av = _mm256_set1_pd(*ap.add((i0 + r) * k + kb.k0 + l));
                lo[r] = _mm256_fmadd_pd(av, b0, lo[r]);
                hi[r] = _mm256_fmadd_pd(av, b1, hi[r]);
            }
        }
        for r in 0..MR {
            _mm256_storeu_pd(cp.add((i0 + r) * n + j), lo[r]);
            _mm256_storeu_pd(cp.add((i0 + r) * n + j + 4), hi[r]);
        }
        j += GEMM_NR;
    }
    // One 4-column tile on the way out.
    if j + 4 <= j1 {
        let bt = bp.add(j - j0);
        let mut acc = [_mm256_setzero_pd(); MR];
        if !kb.first {
            for r in 0..MR {
                acc[r] = _mm256_loadu_pd(cp.add((i0 + r) * n + j));
            }
        }
        for l in 0..kb.kc {
            let bv = _mm256_loadu_pd(bt.add(l * w));
            for r in 0..MR {
                let av = _mm256_set1_pd(*ap.add((i0 + r) * k + kb.k0 + l));
                acc[r] = _mm256_fmadd_pd(av, bv, acc[r]);
            }
        }
        for r in 0..MR {
            _mm256_storeu_pd(cp.add((i0 + r) * n + j), acc[r]);
        }
        j += 4;
    }
    // Scalar ragged columns.
    while j < j1 {
        for r in 0..MR {
            let mut s = if kb.first {
                0.0
            } else {
                *cp.add((i0 + r) * n + j)
            };
            for l in 0..kb.kc {
                s += *ap.add((i0 + r) * k + kb.k0 + l) * *bp.add(l * w + (j - j0));
            }
            *cp.add((i0 + r) * n + j) = s;
        }
        j += 1;
    }
}

/// Register-tile rows of the AVX-512 arm: with 32 architectural 512-bit
/// registers the tile widens to 8 × 16 (16 accumulators + 2 loads + 1
/// broadcast), doubling lanes *and* halving front-end µops per element
/// relative to the AVX2 arm.
#[cfg(target_arch = "x86_64")]
const GEMM_MR_512: usize = 8;

/// AVX-512F arm of one `(column block × k-block)` slab; same slab
/// contract as [`block_avx2`].
///
/// # Safety
///
/// Caller must ensure the CPU supports AVX-512F and the [`block_avx2`]
/// shape/packing contract holds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn block_avx512(
    m: usize,
    n: usize,
    a: &[f64],
    slab: &[f64],
    cp: *mut f64,
    j0: usize,
    j1: usize,
    kb: KBlock,
) {
    let k = a.len() / m;
    let mut i0 = 0usize;
    while i0 + GEMM_MR_512 <= m {
        row_strip_avx512::<GEMM_MR_512>(n, k, a, slab, cp, i0, j0, j1, kb);
        i0 += GEMM_MR_512;
    }
    match m - i0 {
        0 => {}
        1 => row_strip_avx512::<1>(n, k, a, slab, cp, i0, j0, j1, kb),
        2 => row_strip_avx512::<2>(n, k, a, slab, cp, i0, j0, j1, kb),
        3 => row_strip_avx512::<3>(n, k, a, slab, cp, i0, j0, j1, kb),
        4 => row_strip_avx512::<4>(n, k, a, slab, cp, i0, j0, j1, kb),
        5 => row_strip_avx512::<5>(n, k, a, slab, cp, i0, j0, j1, kb),
        6 => row_strip_avx512::<6>(n, k, a, slab, cp, i0, j0, j1, kb),
        _ => row_strip_avx512::<7>(n, k, a, slab, cp, i0, j0, j1, kb),
    }
}

/// The `MR × 16` AVX-512 micro-kernel over one row strip.
///
/// # Safety
///
/// As [`block_avx512`], plus `i0 + MR ≤ m`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn row_strip_avx512<const MR: usize>(
    n: usize,
    k: usize,
    a: &[f64],
    slab: &[f64],
    cp: *mut f64,
    i0: usize,
    j0: usize,
    j1: usize,
    kb: KBlock,
) {
    use std::arch::x86_64::*;
    let w = j1 - j0;
    let (ap, bp) = (a.as_ptr(), slab.as_ptr());
    let mut j = j0;
    // Full MR×16 tiles: 2·MR accumulators, two 8-lane B loads, MR
    // broadcasts per k-step; the k loop is unrolled ×2 to halve the loop
    // control overhead per FMA.
    while j + 16 <= j1 {
        let bt = bp.add(j - j0);
        let mut lo = [_mm512_setzero_pd(); MR];
        let mut hi = [_mm512_setzero_pd(); MR];
        if !kb.first {
            for r in 0..MR {
                lo[r] = _mm512_loadu_pd(cp.add((i0 + r) * n + j));
                hi[r] = _mm512_loadu_pd(cp.add((i0 + r) * n + j + 8));
            }
        }
        let mut l = 0usize;
        while l + 2 <= kb.kc {
            let b0 = _mm512_loadu_pd(bt.add(l * w));
            let b1 = _mm512_loadu_pd(bt.add(l * w + 8));
            let b2 = _mm512_loadu_pd(bt.add((l + 1) * w));
            let b3 = _mm512_loadu_pd(bt.add((l + 1) * w + 8));
            for r in 0..MR {
                let av = _mm512_set1_pd(*ap.add((i0 + r) * k + kb.k0 + l));
                lo[r] = _mm512_fmadd_pd(av, b0, lo[r]);
                hi[r] = _mm512_fmadd_pd(av, b1, hi[r]);
                let av2 = _mm512_set1_pd(*ap.add((i0 + r) * k + kb.k0 + l + 1));
                lo[r] = _mm512_fmadd_pd(av2, b2, lo[r]);
                hi[r] = _mm512_fmadd_pd(av2, b3, hi[r]);
            }
            l += 2;
        }
        if l < kb.kc {
            let b0 = _mm512_loadu_pd(bt.add(l * w));
            let b1 = _mm512_loadu_pd(bt.add(l * w + 8));
            for r in 0..MR {
                let av = _mm512_set1_pd(*ap.add((i0 + r) * k + kb.k0 + l));
                lo[r] = _mm512_fmadd_pd(av, b0, lo[r]);
                hi[r] = _mm512_fmadd_pd(av, b1, hi[r]);
            }
        }
        for r in 0..MR {
            _mm512_storeu_pd(cp.add((i0 + r) * n + j), lo[r]);
            _mm512_storeu_pd(cp.add((i0 + r) * n + j + 8), hi[r]);
        }
        j += 16;
    }
    // One 8-column tile on the way out.
    if j + 8 <= j1 {
        let bt = bp.add(j - j0);
        let mut acc = [_mm512_setzero_pd(); MR];
        if !kb.first {
            for r in 0..MR {
                acc[r] = _mm512_loadu_pd(cp.add((i0 + r) * n + j));
            }
        }
        for l in 0..kb.kc {
            let bv = _mm512_loadu_pd(bt.add(l * w));
            for r in 0..MR {
                let av = _mm512_set1_pd(*ap.add((i0 + r) * k + kb.k0 + l));
                acc[r] = _mm512_fmadd_pd(av, bv, acc[r]);
            }
        }
        for r in 0..MR {
            _mm512_storeu_pd(cp.add((i0 + r) * n + j), acc[r]);
        }
        j += 8;
    }
    // Scalar ragged columns.
    while j < j1 {
        for r in 0..MR {
            let mut s = if kb.first {
                0.0
            } else {
                *cp.add((i0 + r) * n + j)
            };
            for l in 0..kb.kc {
                s += *ap.add((i0 + r) * k + kb.k0 + l) * *bp.add(l * w + (j - j0));
            }
            *cp.add((i0 + r) * n + j) = s;
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| {
                let h = (i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15 ^ seed);
                ((h >> 12) as f64 / (1u64 << 52) as f64) - 0.5
            })
            .collect()
    }

    fn naive(m: usize, n: usize, k: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for l in 0..k {
                    s += a[i * k + l] * b[l * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    #[test]
    fn both_arms_match_naive_across_remainder_shapes() {
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 16),
            (3, 7, 5),
            (5, 13, 2),
            (8, 33, 31),
            (2, 9, 300), // crosses a KC boundary
        ] {
            let a = fill(m * k, 3);
            let b = fill(k * n, 5);
            let want = naive(m, n, k, &a, &b);
            let mut got = vec![f64::NAN; m * n];
            gemm_into(m, n, k, &a, &b, &mut got);
            let mut scalar = vec![f64::NAN; m * n];
            gemm_into_scalar(m, n, k, &a, &b, &mut scalar);
            for (g, w) in got.iter().chain(&scalar).zip(want.iter().chain(&want)) {
                assert!((g - w).abs() < 1e-12, "m={m} n={n} k={k}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn packed_b_matches_unpacked_across_shapes() {
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (5, 13, 2),
            (8, 300, 31),
            (7, 700, 32),
            (3, 513, 300), // crosses NC and KC boundaries
        ] {
            let a = fill(m * k, 7);
            let b = fill(k * n, 9);
            let mut want = vec![f64::NAN; m * n];
            gemm_into(m, n, k, &a, &b, &mut want);
            let pb = PackedB::pack(k, n, &b);
            assert_eq!((pb.k(), pb.n()), (k, n));
            let mut got = vec![f64::NAN; m * n];
            gemm_packed_into(m, &a, &pb, &mut got);
            assert_eq!(got, want, "m={m} n={n} k={k}: packed != unpacked");
            // Packing straight from the n × k factor layout must agree.
            let v = crate::mat::Mat::from_fn(n, k, |j, l| b[l * n + j]);
            let pb_t = PackedB::pack_transposed_from(&v);
            let mut got_t = vec![f64::NAN; m * n];
            gemm_packed_into(m, &a, &pb_t, &mut got_t);
            assert_eq!(got_t, want, "m={m} n={n} k={k}: transposed pack");
        }
    }

    #[test]
    fn range_pack_is_a_slice_of_the_full_pack() {
        // Catalogue spanning several NC blocks with a ragged tail.
        let (n, k) = (3 * GEMM_NC + 77, 9);
        let v = crate::mat::Mat::from_fn(n, k, |j, l| (j * k + l) as f64 * 0.5 - 3.0);
        let full = PackedB::pack_transposed_from(&v);
        for (lo, hi) in [
            (0, n),
            (0, GEMM_NC),
            (GEMM_NC, 3 * GEMM_NC),
            (2 * GEMM_NC, n),
            (3 * GEMM_NC, n),   // ragged final block
            (GEMM_NC, GEMM_NC), // empty shard
        ] {
            let part = PackedB::pack_transposed_range_from(&v, lo, hi);
            assert_eq!((part.k(), part.n()), (k, hi - lo));
            assert_eq!(
                part.data,
                full.data[k * lo..k * hi],
                "[{lo}, {hi}) is not the matching byte range of the full pack"
            );
        }
    }

    #[test]
    fn range_packed_gemm_is_bit_identical_to_full_gemm_columns() {
        // The sharded-serving invariant: scoring a GEMM_NC-aligned column
        // range must reproduce the full catalogue's scores *bit for bit*
        // (same panels, same fma chains), on whichever kernel arm is live.
        let (m, n, k) = (7, 2 * GEMM_NC + 190, 13);
        let a = fill(m * k, 21);
        let v = crate::mat::Mat::from_fn(n, k, |j, l| fill(1, (j * k + l) as u64)[0]);
        let full = PackedB::pack_transposed_from(&v);
        let mut want = vec![f64::NAN; m * n];
        gemm_packed_into(m, &a, &full, &mut want);
        for (lo, hi) in [(0usize, GEMM_NC), (GEMM_NC, 2 * GEMM_NC), (2 * GEMM_NC, n)] {
            let part = PackedB::pack_transposed_range_from(&v, lo, hi);
            let w = hi - lo;
            let mut got = vec![f64::NAN; m * w];
            gemm_packed_into(m, &a, &part, &mut got);
            for i in 0..m {
                for j in 0..w {
                    assert_eq!(
                        got[i * w + j].to_bits(),
                        want[i * n + lo + j].to_bits(),
                        "row {i} col {} not bit-identical for range [{lo}, {hi})",
                        lo + j
                    );
                }
            }
        }
    }

    #[test]
    fn zero_k_zeroes_the_output() {
        let mut c = vec![7.0; 6];
        gemm_into(2, 3, 0, &[], &[], &mut c);
        assert_eq!(c, vec![0.0; 6]);
    }

    #[test]
    fn empty_output_shapes_are_noops() {
        gemm_into(0, 4, 3, &[], &fill(12, 1), &mut []);
        gemm_into(4, 0, 3, &fill(12, 1), &[], &mut []);
    }

    #[test]
    fn parallel_threshold_crossing_matches_naive() {
        // Big enough that `gemm_into` fans out over the pool.
        let (m, n, k) = (16, 4096, 32);
        assert!(2 * m * n * k >= GEMM_PAR_FLOPS);
        let a = fill(m * k, 11);
        let b = fill(k * n, 13);
        let want = naive(m, n, k, &a, &b);
        let mut got = vec![f64::NAN; m * n];
        gemm_into(m, n, k, &a, &b, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10, "{g} vs {w}");
        }
    }
}
