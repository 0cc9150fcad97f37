//! **gen_mtx** — write one of the synthetic datasets as a MatrixMarket
//! file, so shell harnesses (the CI daemon e2e step, ad-hoc CLI runs) can
//! produce training data without a Python/awk side channel.
//!
//! Usage: `cargo run --release -p bpmf-dataset --bin gen_mtx -- \
//!   --out ratings.mtx [--kind chembl|movielens] [--scale 0.003] [--seed 31]`

use std::io::{BufWriter, Write as _};

fn main() {
    let mut out_path = None;
    let mut kind = "chembl".to_string();
    let mut scale = 0.003f64;
    let mut seed = 31u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--out" => out_path = Some(value("--out")),
            "--kind" => kind = value("--kind"),
            "--scale" => scale = value("--scale").parse().expect("--scale: number"),
            "--seed" => seed = value("--seed").parse().expect("--seed: integer"),
            other => panic!("unknown flag `{other}` (--out --kind --scale --seed)"),
        }
    }
    let out_path = out_path.expect("--out FILE is required");

    let ds = match kind.as_str() {
        "chembl" => bpmf_dataset::chembl_like(scale, seed),
        "movielens" => bpmf_dataset::movielens_like(scale, seed),
        other => panic!("unknown kind `{other}` (chembl | movielens)"),
    };
    // Stream straight to disk: buffering the whole serialization in RAM
    // defeats the point of generating out-of-core-sized matrices.
    let file = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    let mut w = BufWriter::new(file);
    bpmf_sparse::write_matrix_market(&mut w, &ds.train).expect("write matrix");
    w.flush().expect("flush matrix");
    eprintln!(
        "wrote {out_path}: {} x {}, {} ratings ({kind}, scale {scale}, seed {seed})",
        ds.nrows(),
        ds.ncols(),
        ds.train.nnz()
    );
}
