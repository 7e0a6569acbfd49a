#!/usr/bin/env bash
# The full local CI gate: build, tests, lints, formatting.
#
# This is the same bar every PR must clear. It is offline-friendly — the
# workspace has no registry dependencies, so `cargo` never touches the
# network.
set -euo pipefail
cd "$(dirname "$0")"
# Scratch files live in a directory of this run's own, so two runs on one
# host (a parent and a change, say) never read each other's output.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "==> cargo build --release"
cargo build --release

echo "==> choco-verify (static circuit verification, both schemes)"
# The abstract interpreter (crates/verify) must accept all four paper
# workloads under both the BFV set-A and CKKS set-C parameter sets before
# the tests run; any diagnostic is a hard failure (exit 1). The committed
# per-node dump must match what the verifier computes now — regenerate
# with: cargo run --release -q --bin choco-verify -- --json > VERIFY_workloads.json
cargo run --release -q --bin choco-verify -- --scheme both > /dev/null
cargo run --release -q --bin choco-verify -- --json > "$scratch/VERIFY_workloads.json"
diff -u VERIFY_workloads.json "$scratch/VERIFY_workloads.json"

echo "==> cargo test (all workspace members)"
cargo test -q --workspace

echo "==> parallel/sequential equivalence suite (CHOCO_THREADS=1)"
# prop_choco: the executor's fused dot groups against their unfused twins.
# prop_he: an M-output fused dot against M one-output dots, byte for byte.
CHOCO_THREADS=1 cargo test -q -p choco-math --test prop_math
CHOCO_THREADS=1 cargo test -q -p choco-he --test prop_he
CHOCO_THREADS=1 cargo test -q -p choco --test prop_choco

echo "==> parallel/sequential equivalence suite (CHOCO_THREADS=4)"
CHOCO_THREADS=4 cargo test -q -p choco-math --test prop_math
CHOCO_THREADS=4 cargo test -q -p choco-he --test prop_he
CHOCO_THREADS=4 cargo test -q -p choco --test prop_choco

echo "==> simd/scalar equivalence suite (CHOCO_SIMD=0 and =1, both thread counts)"
# The dispatched forward and inverse NTTs and modular add/sub must be bit-identical
# whichever backend runs them (crates/math/tests/prop_math.rs calls every
# transform kernel the CPU has — scalar, AVX2, AVX-512 IFMA — and asserts
# each == strict in-process; running the suites under both CHOCO_SIMD
# settings additionally proves the forced-scalar build computes the same
# bits the vectorized build does, at every thread count).
CHOCO_SIMD=0 CHOCO_THREADS=1 cargo test -q -p choco-math --test prop_math
CHOCO_SIMD=0 CHOCO_THREADS=4 cargo test -q -p choco-he --test prop_he
CHOCO_SIMD=0 CHOCO_THREADS=4 cargo test -q -p choco --test prop_choco
CHOCO_SIMD=1 CHOCO_THREADS=1 cargo test -q -p choco-math --test prop_math
CHOCO_SIMD=1 CHOCO_THREADS=4 cargo test -q -p choco-he --test prop_he
CHOCO_SIMD=1 CHOCO_THREADS=4 cargo test -q -p choco --test prop_choco
# BLAKE3: the official vectors, and the 8-lane XOF and whole-chunk hashing
# against the one-block scalar code in-process (crates/prng/tests/lanes.rs),
# under both backends. The error sampler: under CHOCO_SIMD=1 the
# simd::box_muller parse held to the per-pair libm parse over 10^7 pairs, on
# crafted rounding boundaries and on extreme words (sampler unit tests);
# under CHOCO_SIMD=0 the kernel writes nothing and every pair takes libm.
CHOCO_SIMD=0 cargo test -q -p choco-prng
CHOCO_SIMD=1 cargo test -q -p choco-prng
# client_bytes: the client's decrypted slots, decoded f64 bits, noise-budget
# bits and RNG positions, pinned across builds — at every point of the matrix.
# Its encryption digests make the CHOCO_SIMD=1 runs the end-to-end proof that
# the Box–Muller kernel draws the ciphertexts the libm parse of CHOCO_SIMD=0
# draws.
for simd in 0 1; do
    for threads in 1 4; do
        CHOCO_SIMD=$simd CHOCO_THREADS=$threads cargo test -q -p choco-he --test client_bytes
    done
done
# LeNet's layers as compiled programs, at every point of the matrix: the
# executor's bundles bit-identical to their groups run alone and a shared
# rotation inside its bundle (compiler unit tests); the FC's program byte for
# byte the matvec kernel (linalg unit tests); a conv layer's program against
# the plaintext convolution, a warm session encoding nothing, the LeNet
# layers' rotations inside their key set, the FC's program resident and
# never aliased with a conv layer's (dnn and pipeline unit tests); the
# download digests pinned across builds (layer_bytes); and the crash-point
# sweep's conv cases. The compact upload, at every point of the matrix too:
# a seeded encryption's wire round-trips byte for byte at its stated size
# and decrypts, no evaluator output carries a seed, a seed is refused over
# foreign moduli (scheme unit tests), and the compact decoder refuses
# truncations, bad moduli and a huge-ring claim without allocating for it
# (fuzz_serialize, remote_fuzz). PageRank bursts and the distance kernels
# as resident programs, at every point of the matrix too: a second burst of
# a length and a second K-Means iteration compile and encode nothing, and
# the collapsed kernel's mask-and-shift is one fused dot (pagerank and
# distance unit tests), BFV PageRank's replies and the
# kernels' op counts pinned across builds (layer_bytes), and a workload
# written once as a program runs under both schemes (protocol unit test).
# Session resume, at every point of the matrix too: a resumed session
# derives its keys again from the checkpoint's seed and steps, so its relin
# and Galois wires and its next encryption must be bit-identical to the
# uninterrupted session's whatever the thread count; a checkpoint grows by
# its step list only; a foreign seed, a rewound client RNG and a step count
# past the cap are refused (session and checkpoint unit tests).
# Compressed replies, at every point of the matrix too: the four circuits'
# outputs at sets A, B and the workload set decrypt the same compressed or
# not, compression stays inside its licence and every reply is the frame
# its widths imply (download_switch), the reply decoder is total and exact
# (fuzz_serialize), and a re-submitted download is refused at the door
# without quarantining the program, at a set that lifts replies over one
# residue and at one that lifts them over the top level (remote_eval).
# `cargo test` exits 0 when a name filter matches no test, so every filtered
# run must also report at least one passed test.
filtered() {
    local out
    out=$("$@" 2>&1) || { printf '%s\n' "$out"; return 1; }
    printf '%s\n' "$out"
    grep -Eq '^test result: ok\. [1-9][0-9]* passed' <<<"$out" \
        || { echo "ci: the filter matched no test: $*"; return 1; }
}
for simd in 0 1; do
    for threads in 1 4; do
        matrix=(env CHOCO_SIMD=$simd CHOCO_THREADS=$threads cargo test -q)
        filtered "${matrix[@]}" -p choco --lib compiler::tests
        filtered "${matrix[@]}" -p choco --lib matvec_program
        filtered "${matrix[@]}" -p choco-apps --lib -- packed_layer warm_session lenet_layer_programs fc_program
        filtered "${matrix[@]}" -p choco-apps --lib -- second_burst second_kmeans_iteration collapse_is_one_fused_dot
        filtered "${matrix[@]}" -p choco --lib generic_workload_runs_under_both_schemes
        filtered "${matrix[@]}" -p choco --lib -- resume_rederives resume_checkpoint_grows resume_refuses step_count_past_the_cap
        "${matrix[@]}" -p choco-apps --test layer_bytes
        filtered "${matrix[@]}" -p choco-apps --test chaos_sweep chaos_conv_layer
        filtered "${matrix[@]}" -p choco-he --lib -- generic_roundtrip carries_a_seed seed_expands
        filtered "${matrix[@]}" -p choco-he --test fuzz_serialize -- compact huge_ring reply
        filtered "${matrix[@]}" -p choco --test remote_fuzz -- compact_uploads huge_ring
        filtered "${matrix[@]}" -p choco-apps --test download_switch
        filtered "${matrix[@]}" -p choco-serve --test remote_eval resubmitted_download
    done
done

echo "==> zero-alloc steady state (PolyPool counters, both schemes)"
# Warm keyswitch -> rotation -> fused-dot loops, and the client's
# encrypt -> decrypt -> noise budget / decode round, must not touch the
# allocator for polynomial buffers (crates/he/tests/zero_alloc.rs).
cargo test -q --release -p choco-he --test zero_alloc

echo "==> chaos soak: crash-point sweep under both thread counts"
# The seeded kill/checkpoint-resume matrix (crates/apps/tests/chaos_sweep.rs):
# every crash point must replay to a bit-identical final ciphertext with
# primary ledger lines matching the uninterrupted run. Runs under both
# worker-pool configurations to catch scheduling-dependent state leaking
# into checkpoints.
CHOCO_THREADS=1 cargo test -q -p choco-apps --test chaos_sweep
CHOCO_THREADS=4 cargo test -q -p choco-apps --test chaos_sweep

echo "==> socket chaos: serve e2e + remote-eval + serve-process suites"
# Real sockets against a live server object (crates/serve/tests): serve_e2e
# covers concurrent sessions with book == ledger in bytes, typed
# Overloaded, mid-frame proxy cuts inside a request and inside a response
# absorbed by redial + resend, and a delayed link; remote_eval covers
# remote == local bit identity, batching, billing and drain; serve_process
# spawns the choco-serve binary itself: served outputs byte-identical to
# local, `stats` and the drain summary on stdout, the summary billing the
# client's own ledger, a restart billing the same ids identically, EOF and
# unknown commands on stdin, and the usage error for a zero I/O timeout.
# The hard timeout guards CI against a hung accept loop or a drain that
# never converges in the spawned process, which the test blocks on.
timeout 300 cargo test -q -p choco-serve

echo "==> eval chaos: fault-isolated remote evaluation sweep"
# Kill-point sweep over every evaluation stage x both schemes
# (crates/apps/tests/chaos_eval.rs): hard server kills mid-evaluation must
# drive to completion through reconnects with bit-identical outputs and
# exact primary-ledger billing, the re-setup billed as recovery and every
# unanswered request resent as a retransmit; poison jobs bisect out of
# batches and breakers trip and recover. The hard timeout guards against a
# retry loop that never converges.
timeout 300 cargo test -q -p choco-apps --test chaos_eval

echo "==> kernel bench reporter (smoke mode + fusion, layer, simd and par gates)"
# bench_kernels races every gated kernel against its simpler twin and fails
# when a gate's median over 9 paired ratios falls below its threshold. The
# gates, their thresholds and when each applies (simd and blake3 while a
# vector backend is active, ifma while the AVX-512 IFMA backend is, par
# whenever the pool has more than one thread)
# are the race table in crates/bench/src/bin/bench_kernels.rs; every run
# prints that table with each gate's verdict. The par gates also need the
# host to run the pool's threads >= 1.4x one: the par section is timed at
# most twice more while it does not, and the par gates fail if it never does.
cargo run --release -q -p choco-bench --bin bench_kernels -- --smoke --json "$scratch/bench_kernels_smoke.json"

echo "==> benchmark package: build, unit tests, 1-second smoke of all four workloads"
# benchmark/ is a package of its own (not a workspace member), so nothing
# above compiles it: a signature change in choco-apps / choco / choco-serve
# would break it silently. Build it, run its unit tests, and run every
# workload untraced + traced for one second. run.sh exits non-zero when any
# op or check failed; each of the eight runs must also end in a result line
# that reads correct with zero failed ops. Read-only: writes only the
# git-ignored benchmark/target and benchmark/out.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --seconds 1 > "$scratch/bench_smoke.out"
clean_runs=$(grep -c '^{"correct":true,"attempted":[0-9]*,"failed":0,' "$scratch/bench_smoke.out" || true)
[ "$clean_runs" -eq 8 ] \
    || { grep '^{"correct"' "$scratch/bench_smoke.out" | cut -c1-80; echo "ci: benchmark smoke: $clean_runs of 8 runs correct with zero failed ops"; exit 1; }

echo "==> choco-lint (secret-independence, lazy-reduction, panic/unsafe audit)"
# The committed lint.toml pins every allowlisted site by exact count; any
# drift (new or removed sites) fails here. To regenerate after an audited
# change: cargo run --release -q -p choco-lint -- --fix-allowlist, then
# review the diff (git diff lint.toml) and replace any TODO reasons before
# committing.
cargo run --release -q -p choco-lint -- --workspace

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (broken or private intra-doc links, warnings are errors)"
# A link rustdoc cannot resolve renders as plain text without a word of
# complaint from the build. `--lib`: the choco-verify binary and library
# share one output file name, which rustdoc refuses to document together.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "CI green."
