#!/usr/bin/env bash
# Same-chain check between two builds of `bpmf-train`: every sampling chain
# must give byte-identical traces, checkpoints and factor dumps.
#
#   ci/same_chain.sh OLD_BIN NEW_BIN
#
# Builds nothing. Build the parent from `git archive` in its own directory
# with its own CARGO_TARGET_DIR (a copied `target/` can hold artifacts of
# another source version), build this tree, and pass the two release
# binaries. Each case runs once per binary and per kernel arm (default
# dispatch and BPMF_NO_SIMD=1), on two matrices:
#
#   * 120 x 80 with ~20 ratings per row, at --k 6 (every rated item heavy);
#   * 3000 x 80, mostly 1-3 ratings per row over Zipf-heavy columns, at
#     --k 32 (the light arm and its whitened counterpart).
#
# Cases: Gibbs --engine static --threads 2 --checkpoint, Gibbs --engine ws
# --threads 1 --checkpoint (the one-worker work-stealing pool visits items
# in a fixed order), distributed --threads 1 and --threads 3, sgmcmc, and
# Gibbs --user-features. The trace
# is compared on its first three columns (iteration, sample RMSE, mean
# RMSE; the rest is wall-clock). Prints one line per difference and a
# summary; exits 1 if anything differs.
set -euo pipefail

[ $# -eq 2 ] && [ -x "$1" ] && [ -x "$2" ] || {
    echo "usage: $0 OLD_BIN NEW_BIN (two bpmf-train executables)" >&2
    exit 2
}
OLD=$1
NEW=$2
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

python3 - "$WORK" <<'EOF'
import random, sys
work = sys.argv[1]

def write(name, rows, cols, entries):
    with open(f"{work}/{name}.mtx", "w") as f:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{rows} {cols} {len(entries)}\n")
        for (i, j), v in sorted(entries.items()):
            f.write(f"{i+1} {j+1} {v:.4f}\n")

random.seed(7)
entries = {}
while len(entries) < 2400:
    entries[(random.randrange(120), random.randrange(80))] = 3.0 + random.gauss(0, 0.5)
write("heavy", 120, 80, entries)

random.seed(11)
entries = {}
for i in range(3000):
    d = random.choice([1, 1, 2, 2, 3]) if random.random() < 0.9 else random.randint(5, 15)
    picked = set()
    while len(picked) < d:
        picked.add(min(int(random.paretovariate(1.2)) - 1, 79))
        if len(picked) < d and random.random() < 0.3:
            picked.add(random.randrange(80))
    for j in picked:
        entries[(i, j)] = 5.0 + random.gauss(0, 1.0)
write("light", 3000, 80, entries)

for name, rows in (("heavy", 120), ("light", 3000)):
    with open(f"{work}/{name}_features.tsv", "w") as f:
        for i in range(rows):
            f.write("\t".join(f"{random.gauss(0, 1):.4f}" for _ in range(3)) + "\n")
EOF

cases=0
diffs=0
run_case() { # name matrix k args...
    local name=$1 matrix=$2 k=$3
    shift 3
    local arm who bin dir
    for arm in simd scalar; do
        for who in old new; do
            bin=$OLD
            [ "$who" = new ] && bin=$NEW
            dir="$WORK/$who/$name-$matrix-$arm"
            mkdir -p "$dir"
            (
                [ "$arm" = scalar ] && export BPMF_NO_SIMD=1
                "$bin" --train "$WORK/$matrix.mtx" --k "$k" --burnin 3 --samples 4 \
                    --seed 5 --save-factors "$dir/f" "${@//@DIR@/$dir}" 2>"$dir.err" |
                    cut -f1-3 >"$dir/trace.txt"
            ) || echo "FAILED: $who on $name-$matrix-$arm: $(tail -1 "$dir.err")"
        done
        cases=$((cases + 1))
        local f old_dir="$WORK/old/$name-$matrix-$arm" new_dir="$WORK/new/$name-$matrix-$arm"
        for f in trace.txt f_users.tsv f_movies.tsv; do
            if [ ! -s "$old_dir/$f" ] || [ ! -s "$new_dir/$f" ]; then
                echo "MISSING: $name on $matrix at --k $k ($arm): $f is empty or absent"
                diffs=$((diffs + 1))
            fi
        done
        for f in "$old_dir"/*; do
            if ! cmp -s "$f" "$new_dir/$(basename "$f")"; then
                echo "DIFFERS: $name on $matrix at --k $k ($arm): $(basename "$f")"
                diffs=$((diffs + 1))
            fi
        done
    done
}

for spec in "heavy 6" "light 32"; do
    set -- $spec
    matrix=$1 k=$2
    run_case gibbs-static2-ckpt "$matrix" "$k" --algorithm gibbs --engine static \
        --threads 2 --checkpoint @DIR@/ckpt.json
    run_case gibbs-ws1-ckpt "$matrix" "$k" --algorithm gibbs --engine ws \
        --threads 1 --checkpoint @DIR@/ckpt.json
    run_case distributed1 "$matrix" "$k" --algorithm distributed --threads 1
    run_case distributed3 "$matrix" "$k" --algorithm distributed --threads 3
    run_case sgmcmc "$matrix" "$k" --algorithm sgmcmc --threads 1
    run_case gibbs-features "$matrix" "$k" --algorithm gibbs --engine static --threads 1 \
        --user-features "$WORK/${matrix}_features.tsv"
done

echo "same_chain: $cases cases (x2 builds), $diffs differing files"
[ "$diffs" -eq 0 ]
