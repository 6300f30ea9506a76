# Developer entry points; CI (.github/workflows/ci.yml) runs `just check`.

export CARGO_NET_OFFLINE := "true"

# fmt + clippy + tests, exactly what CI enforces
check: fmt-check clippy test

fmt:
    cargo fmt

fmt-check:
    cargo fmt --check

clippy:
    cargo clippy --all-targets -- -D warnings

# Chaos tests use fixed seeds, so this is deterministic.
test:
    cargo test --workspace -q

# The topology sweep: configs (a)-(e) plus deep HierarchyBuilder chains
# across worker-pool sizes and with deadline degradation on/off, with the
# runtime crate held to clippy -D warnings; node_threads checks that node
# threads never fan kernels out to the pool.
topology-matrix:
    cargo clippy -p ddnn-runtime --all-targets -- -D warnings
    DDNN_THREADS=1 cargo test -p ddnn-runtime --test topology_matrix --test topology_equivalence --test node_threads -q
    DDNN_THREADS=4 cargo test -p ddnn-runtime --test topology_matrix --test topology_equivalence --test node_threads -q
    DDNN_THREADS=1 DDNN_MATRIX_DEADLINES=1 cargo test -p ddnn-runtime --test topology_matrix -q
    DDNN_THREADS=4 DDNN_MATRIX_DEADLINES=1 cargo test -p ddnn-runtime --test topology_matrix -q

# The reliability sweep: chaos, wire-integrity, ARQ and observability
# suites across worker-pool sizes (fixed fault seeds, so every leg is
# deterministic).
chaos-matrix:
    DDNN_THREADS=1 cargo test -p ddnn-runtime --test chaos_tests --test frame_integrity_proptest --test reliability_tests --test obs_tests -q
    DDNN_THREADS=4 cargo test -p ddnn-runtime --test chaos_tests --test frame_integrity_proptest --test reliability_tests --test obs_tests -q

# The elastic-orchestration suite on its own: continuous-churn chaos with
# membership, reconfiguration and epoch-fencing assertions (fixed seeds).
churn-smoke:
    cargo test -p ddnn-runtime --test churn_tests -q

# The churn sweep across worker-pool sizes and transports: the elastic
# control plane must survive identically on the legacy transport and
# under ARQ recovery, at any pool size.
churn-matrix:
    DDNN_THREADS=1 cargo test -p ddnn-runtime --test churn_tests -q
    DDNN_THREADS=4 cargo test -p ddnn-runtime --test churn_tests -q
    DDNN_CHURN_RELIABILITY=arq DDNN_THREADS=1 cargo test -p ddnn-runtime --test churn_tests -q
    DDNN_CHURN_RELIABILITY=arq DDNN_THREADS=4 cargo test -p ddnn-runtime --test churn_tests -q

# Observability overhead + chaos timeline -> results/BENCH_obs.json and
# results/obs_timeline.jsonl
obs-smoke:
    cargo run --release -p ddnn-bench --bin obs_overhead -- --smoke

bench-obs:
    cargo run --release -p ddnn-bench --bin obs_overhead

build:
    cargo build --workspace --release

bench:
    cargo bench

# XNOR vs f32 kernel matrix: every supported DDNN_SIMD tier x
# DDNN_THREADS {1,4} in one run -> combined results/BENCH_kernels.json
bench-kernels:
    cargo run --release -p ddnn-bench --bin kernels_binary

bench-kernels-smoke:
    cargo run --release -p ddnn-bench --bin kernels_binary -- --smoke

# The kernel equivalence sweep: fused/batched/two-phase binary conv must
# be bit-identical to the f32 sign path on every dispatch tier at every
# pool size (tiers above what the CPU supports clamp down, so this is
# safe on any x86-64 or non-x86 host).
kernel-matrix:
    DDNN_SIMD=scalar DDNN_THREADS=1 cargo test -p ddnn-tensor --test binary_conv_equivalence -q
    DDNN_SIMD=scalar DDNN_THREADS=4 cargo test -p ddnn-tensor --test binary_conv_equivalence -q
    DDNN_SIMD=sse2 DDNN_THREADS=1 cargo test -p ddnn-tensor --test binary_conv_equivalence -q
    DDNN_SIMD=sse2 DDNN_THREADS=4 cargo test -p ddnn-tensor --test binary_conv_equivalence -q
    DDNN_SIMD=avx2 DDNN_THREADS=1 cargo test -p ddnn-tensor --test binary_conv_equivalence -q
    DDNN_SIMD=avx2 DDNN_THREADS=4 cargo test -p ddnn-tensor --test binary_conv_equivalence -q
    DDNN_SIMD=avx512 DDNN_THREADS=1 cargo test -p ddnn-tensor --test binary_conv_equivalence -q
    DDNN_SIMD=avx512 DDNN_THREADS=4 cargo test -p ddnn-tensor --test binary_conv_equivalence -q

# Degrade-only vs ARQ under drop+corruption -> results/BENCH_reliability.json
bench-reliability:
    cargo run --release -p ddnn-bench --bin reliability

bench-reliability-smoke:
    cargo run --release -p ddnn-bench --bin reliability -- --smoke

# Accuracy + tail latency vs membership-churn rate, legacy vs ARQ ->
# results/BENCH_churn.json
bench-churn:
    cargo run --release -p ddnn-bench --bin churn

bench-churn-smoke:
    cargo run --release -p ddnn-bench --bin churn -- --smoke

# Open-loop streaming sweep: offered load vs goodput and tail latency,
# micro-batching on/off -> results/BENCH_throughput.json
bench-throughput:
    cargo run --release -p ddnn-bench --bin throughput

throughput-smoke:
    cargo run --release -p ddnn-bench --bin throughput -- --smoke

# The streaming conservation suite across worker-pool sizes and
# transports (fixed seeds, so every leg is deterministic).
streaming-matrix:
    DDNN_THREADS=1 cargo test -p ddnn-runtime --test streaming_tests -q
    DDNN_THREADS=4 cargo test -p ddnn-runtime --test streaming_tests -q

# The transport suite: loopback verdict equivalence across channel/TCP/
# UDP+ARQ, socket junk resilience, and the multi-process launcher tests.
transport-smoke:
    cargo test -p ddnn-runtime --test transport_tests --test multiproc_tests -q
    cargo test -p ddnn-runtime --lib -q transport

# End-to-end multi-process smoke: the hierarchy as four OS processes on
# localhost (TCP, then UDP under ARQ), verdicts checked against the
# in-process run by the binary itself.
multiproc-smoke:
    cargo run --release -p ddnn-runtime --bin ddnn-node -- demo --transport tcp --samples 12
    cargo run --release -p ddnn-runtime --bin ddnn-node -- demo --transport udp --samples 12

# In-process channel vs localhost TCP vs UDP+ARQ: goodput and measured
# tail latency of the same streamed workload -> results/BENCH_transport.json
bench-transport:
    cargo run --release -p ddnn-bench --bin transport

bench-transport-smoke:
    cargo run --release -p ddnn-bench --bin transport -- --smoke

# Supervised process-chaos smoke: the seeded kill/respawn/socket-chaos
# suite, then a live SIGKILL demo (kill the gateway, respawn the devices)
# driven through the binary itself.
proc-chaos-smoke:
    cargo test -p ddnn-runtime --test proc_chaos_tests -q
    cargo run --release -p ddnn-runtime --bin ddnn-node -- demo --transport tcp --samples 8 --kill gateway@3
    cargo run --release -p ddnn-runtime --bin ddnn-node -- demo --transport udp --samples 8 --kill devices@2 --respawn-after 3

# Graceful degradation vs kill set (fault-free -> kill-all -> respawn)
# on TCP and UDP+ARQ -> results/BENCH_proc_chaos.json
bench-proc-chaos:
    cargo build --release -p ddnn-runtime --bin ddnn-node
    cargo run --release -p ddnn-bench --bin proc_chaos

bench-proc-chaos-smoke:
    cargo build --release -p ddnn-runtime --bin ddnn-node
    cargo run --release -p ddnn-bench --bin proc_chaos -- --smoke

# Experiment runners tee stderr to results/*.err; an empty .err means
# the run was clean and the file is noise, and cargo's own
# Compiling/Finished/Running chatter is not a failure either (progress
# lines are TTY-gated via DDNN_PROGRESS, so redirected runs stay quiet).
# Drop every .err that records a clean run; only real failures survive.
results-clean:
    find results -name '*.err' -size 0 -delete
    sh -c 'for f in results/*.err; do [ -e "$f" ] || exit 0; grep -vqE "^(   Compiling|    Finished|     Running|warning:) " "$f" || rm "$f"; done'

# Regenerate every paper table/figure (slow; accepts DDNN_EPOCHS).
# Build first, then run the binaries directly: stdout becomes the
# committed .txt artifact and stderr lands in a .err that stays empty on
# a clean run (results-clean sweeps the empties).
experiments:
    cargo build --release -p ddnn-bench
    ./target/release/table1 > results/table1.txt 2> results/table1.err
    ./target/release/table2 > results/table2.txt 2> results/table2.err
    ./target/release/figure6 > results/figure6.txt 2> results/figure6.err
    ./target/release/figure7 > results/figure7.txt 2> results/figure7.err
    ./target/release/figure8 > results/figure8.txt 2> results/figure8.err
    ./target/release/figure9 > results/figure9.txt 2> results/figure9.err
    ./target/release/figure10 > results/figure10.txt 2> results/figure10.err
    ./target/release/comm_reduction > results/comm_reduction.txt 2> results/comm_reduction.err
    ./target/release/edge_hierarchy > results/edge_hierarchy.txt 2> results/edge_hierarchy.err
    ./target/release/ablation_binary > results/ablation_binary.txt 2> results/ablation_binary.err
    ./target/release/ablation_fault > results/ablation_fault.txt 2> results/ablation_fault.err
    just results-clean
