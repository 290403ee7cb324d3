#!/usr/bin/env sh
# Repo verification: tier-1 (build + tests) plus telemetry and chaos smoke
# runs.
#
#   sh scripts/verify.sh
#
# The lint stage checks the workspace and benchmark/ with every warning an
# error, each into a target directory of its own (tier-1's build cache stays
# intact). Library items are as visible as their callers need: an item no
# other crate, test, example or benchmark names is pub(crate), so rustc's
# dead_code lint sees it, and code nothing calls fails this stage.
#
# The examples stage runs the four programs under examples/ and checks that
# each exits 0 and prints what it exists to show: business_hosting the tier
# its runtime re-placed, operations_console the kernel-telemetry panel.
#
# The paper stage regenerates every simulated paper artifact with the paper
# bin and cmps each results/*.txt against the committed copy, naming the
# first that differs: a change that moves a paper number must commit the
# regenerated file. The bin itself exits non-zero when a number leaves its
# tolerance. table4_linpack.txt is left out: it times real threads, so it is
# the host's, not the code's. The same run writes results/BENCH_kernel.json,
# the merge of the telemetry every artifact recorded, which must carry
# latency percentiles for the instrumented kernel paths; Tables 1-2 must
# cross-check against the kernel's histograms.
#
# Every seeded chaos sweep is phoenix-bench's chaos_sweep; the chaos binary
# only replays. Every violation chaos_sweep reports comes with a shrunk
# reproducer and a ready-to-paste replay command of the form:
#
#   cargo run --release -p phoenix-chaos --bin chaos -- --small --replay SEED:MASKHEX
#
# which re-runs exactly the minimal failing subset of that seed's schedule
# (verbose, with a flight-recorder dump). Seeds are deterministic: the same
# seed generates the same schedule on every machine.
#
# The ratchet stage sweeps seeds 1..=300 under each of --lossy 20 (2%
# random loss plus generated loss bursts, loss-tolerant profile),
# --partition (whole-partition splits and heals, split-brain invariants
# sampled during the splits), --quorum (even 4x3 testbed with a witness,
# weighted invariants), --slow (3x5 testbed, slow-node episodes,
# slow-not-dead and quarantine convergence), --small (the paper rung:
# fast profile, reliable network, 3x5 testbed) and --paper (the paper rung
# on the paper's 8x17 testbed: the one preset with more than four
# partitions, so the one whose checkpoint restores depend on replica
# placement) and compares the set of failing seeds with
# scripts/known_chaos_failures.txt: an unlisted failure is a regression, a
# listed seed that passes must be deleted from the list.
# The lowest listed seed is 99, so the 25-seed smokes the hardened presets
# used to have were prefixes of this stage and are gone; the sweep stanza's
# `--seeds 25 --small` row is a prefix of the --small sweep. The lossy sweep also
# guards chaos_sweep itself: every schedule must get a telemetry registry
# of its own, or spans earlier schedules' worlds were dropped with read as
# leaks (spurious telemetry-leak lines). The stage runs ahead of the sweep
# stanza: its runs overwrite results/BENCH_chaos.json, and the stanza's
# chaos_sweep row writes the committed report back.
#
# The digest stage runs every BENCHMARK.json workload for one host second on
# seeds 1 and 2 and compares every `exact` line of each run (sim_digest,
# takeover percentiles, failed_ops_share, event counts, ...) with
# scripts/bench_digests.txt, naming each line that moved: a PR that must not
# alter behaviour no longer compares 120 lines by hand. Each run's line also
# prints its setup_s and peak_rss_mb, for the log only (host time and memory
# are not gated here).
#
# The sweep stage runs the sweep bin (the five ablation sweeps: loss_sweep,
# nic_asymmetry, partition_sweep, quorum_sweep, slow_sweep) and chaos_sweep,
# each on one worker (its exit status is its gate, and every report must
# land under results/ with the keys listed there), then on 4 forced worker
# threads, and each report must be byte-identical across the two
# (sharded-telemetry determinism gate). On multi-core machines loss_sweep's
# parallel run must also be >1.5x faster than its serial one; host time on
# a shared box is noisy and interference only ever adds to it, so each side
# is timed three times and the gate reads the best of each. The
# flapping-NIC pin replays chaos seed 4's NIC degrade/restore storms
# end-to-end.
#
# The layering stage holds the rule the group service's layers were built
# by: under crates/phoenix-kernel/src/group/ only the actors (gsd.rs, wd.rs)
# and the factory registry may name the simulator's Ctx, and only
# gsd.rs and wd.rs may name phoenix_telemetry; regroup.rs, slow_detect.rs
# and nic_health.rs name neither telemetry. Job management is held to the
# same rule: phoenix-pws/src/pool.rs names neither, and the PPM requests are
# built by the two helpers beside the agent (phoenix-kernel/src/ppm/), so a
# KernelMsg::PpmExec or KernelMsg::PpmDelete literal under phoenix-pws/src or
# phoenix-biz/src fails the stage. A cluster keeps one copy of each
# cluster-wide view: non-test kernel source that says `topology.clone()` or
# `.members().to_vec()` (a per-actor copy of the topology or of a ring list,
# where the Shared one should be handed on) fails it too. The simulator
# counts each message once, in its own table: non-test phoenix-sim source
# that names counter_add or gauge_set outside the publish function, or
# walks a label-keyed map with `.entry(label)`, fails the stage. A world
# runs one event queue, the timer wheel, held by value: non-test source
# under crates/ that names `dyn Scheduler`, make_scheduler or
# SchedulerKind::Heap, or names HeapScheduler (the reference queue) outside
# phoenix-sim's sched.rs and lib.rs's re-export, fails it too. A dedup
# window keeps a small reply it can rebuild the message from: non-test
# source under crates/ that declares a DedupWindow whose value type names
# KernelMsg (144 B a request, 64 requests an agent) fails the stage.
#
# The last stage prints the non-test code-line counts ROADMAP item 4 quotes
# and fails when group/gsd.rs, phoenix-kernel, phoenix-proto, phoenix-pws,
# phoenix-sim, phoenix-chaos, crates/bench or the workspace exceeds its line in
# scripts/code_budget.txt, whose numbers may only be lowered. The same file
# bounds the lines of library source that start with a bare `pub`, so a
# public name has to earn its caller.

set -eu

cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== tier-1: cargo test -q =="
# The count CHANGES.md and ROADMAP quote: every `test result:` line summed.
rc=0
cargo test -q --offline > /tmp/tier1.out 2>&1 || rc=$?
cat /tmp/tier1.out
awk '/^test result:/ { p += $4; f += $6 } END { printf "tier-1: %d passed, %d failed\n", p, f }' /tmp/tier1.out
[ "$rc" -eq 0 ] || {
    echo "FAIL: cargo test exited $rc" >&2
    exit 1
}

echo "== lint: the workspace and benchmark/ build with -D warnings =="
RUSTFLAGS='-D warnings' cargo check --offline --workspace --all-targets --target-dir target/lint
(cd benchmark && RUSTFLAGS='-D warnings' cargo check --offline --all-targets --target-dir ../target/lint-benchmark)

echo "== examples: each runs to exit 0 and shows what it is for =="
for example in quickstart hpc_batch_cluster business_hosting operations_console; do
    case $example in
        business_hosting) needle='re-placed: app tier moved' ;;
        operations_console) needle='--- kernel telemetry ---' ;;
        *) needle='' ;;
    esac
    cargo run --release --offline -q -p phoenix --example "$example" > "/tmp/example_$example.out" 2>&1 || {
        cat "/tmp/example_$example.out" >&2
        echo "FAIL: example $example exited non-zero" >&2
        exit 1
    }
    [ -z "$needle" ] || grep -qF -- "$needle" "/tmp/example_$example.out" || {
        cat "/tmp/example_$example.out" >&2
        echo "FAIL: example $example no longer prints '$needle'" >&2
        exit 1
    }
    echo "$example: ok"
done

# landed FILE NEEDLES: assert that results/FILE landed and names every
# comma-separated NEEDLE as a JSON key, and that its flight recorder holds
# no heartbeat: a beat is a histogram sample, so the recorder keeps
# episodes.
landed() {
    file=$1 needles=$2
    test -s "results/$file" || {
        echo "FAIL: results/$file missing or empty" >&2
        exit 1
    }
    if grep -qE '"path": "(wd|meta)\.heartbeat\.flight"' "results/$file"; then
        echo "FAIL: results/$file holds a heartbeat flight-recorder record (beats are histogram samples)" >&2
        exit 1
    fi
    for needle in $(echo "$needles" | tr ',' ' '); do
        grep -q "\"$needle\"" "results/$file" || {
            echo "FAIL: \"$needle\" not found in results/$file" >&2
            exit 1
        }
    done
}

# smoke FILE NEEDLES BIN [ARGS...]: run a bench bin (its exit status is its
# own gate: every sweep exits non-zero when what it measures regressed), keep
# its output in /tmp/BIN.out, and assert that results/FILE landed with its
# NEEDLES.
smoke() {
    file=$1 needles=$2
    shift 2
    echo "== smoke: $* writes results/$file =="
    rm -f "results/$file"
    cargo run --release --offline -p phoenix-bench --bin "$@" > "/tmp/$1.out" 2>&1 < /dev/null || {
        cat "/tmp/$1.out" >&2
        echo "FAIL: $* exited non-zero" >&2
        exit 1
    }
    cat "/tmp/$1.out"
    landed "$file" "$needles"
}

echo "== paper: every simulated results/*.txt regenerates byte for byte =="
# Set the committed files aside and remove them, so a file the bin no
# longer writes shows up as missing rather than as equal to itself.
rm -rf /tmp/paper_committed
mkdir -p /tmp/paper_committed
for f in results/*.txt; do
    [ "$f" = results/table4_linpack.txt ] && continue
    cp "$f" /tmp/paper_committed/
    rm "$f"
done
smoke BENCH_kernel.json p50_ns,p99_ns,wd.heartbeat.flight,counters,table1 paper
for f in /tmp/paper_committed/*.txt; do
    name=results/$(basename "$f")
    cmp "$f" "$name" || {
        diff "$f" "$name" >&2 || true
        echo "FAIL: $name differs from the committed file (run the paper bin and commit what it writes)" >&2
        exit 1
    }
done
grep '^paper: ' /tmp/paper.out

# The trace-mined table rows must agree with the kernel's own histograms
# (the bin panics on divergence, but assert the check actually ran).
grep -q 'telemetry cross-check' /tmp/paper.out || {
    echo "FAIL: telemetry cross-check did not run" >&2
    exit 1
}

echo "== ratchet: 300 chaos schedules per preset fail exactly as scripts/known_chaos_failures.txt says =="
# The sweep exits 1 when any seed failed, which says nothing about which;
# the gate is the set of failing seeds. A failing seed that is not listed is
# a regression; a listed seed that passes was fixed and must leave the
# list, so the list can only shrink.
: > /tmp/chaos_failing.txt
for preset in lossy partition quorum slow small paper; do
    case $preset in
        lossy) flags="--lossy 20" ;;
        *) flags="--$preset" ;;
    esac
    rc=0
    # shellcheck disable=SC2086
    cargo run --release --offline -p phoenix-bench --bin chaos_sweep -- --seeds 300 $flags \
        > "/tmp/chaos_300_$preset.out" || rc=$?
    [ "$rc" -le 1 ] && grep 'chaos_sweep done' "/tmp/chaos_300_$preset.out" || {
        echo "FAIL: the 300-seed $preset chaos sweep did not finish (exit $rc)" >&2
        exit 1
    }
    sed -n "s/^ *seed *\([0-9]*\): FAIL.*/$preset \1/p" "/tmp/chaos_300_$preset.out" \
        >> /tmp/chaos_failing.txt
done
grep -v '^#' scripts/known_chaos_failures.txt | sort > /tmp/chaos_known.txt
sort /tmp/chaos_failing.txt | diff /tmp/chaos_known.txt - || {
    echo "FAIL: failing chaos seeds differ from scripts/known_chaos_failures.txt" >&2
    echo "      ('<' listed but passes: delete the line; '>' fails but unlisted: a regression)" >&2
    exit 1
}
# Every schedule must get a telemetry registry of its own, or spans earlier
# schedules' worlds were dropped with read as leaks.
if grep 'telemetry-leak' /tmp/chaos_300_lossy.out; then
    echo "FAIL: chaos_sweep --seeds 300 reports telemetry-leak (registry not isolated per schedule?)" >&2
    exit 1
fi

echo "== ratchet: benchmark exact lines equal scripts/bench_digests.txt =="
# Every event a workload dispatches goes into its digest, so an unchanged
# digest is unchanged behaviour on that workload; the other exact lines are
# what the perf ledger reports from those events. The stage only calls the
# benchmark; nothing under benchmark/ is written but its ignored results/.
moved=""
for pair in $(grep -v '^#' scripts/bench_digests.txt | awk 'NF { print $1 ":" $2 }' | uniq); do
    workload=${pair%:*} seed=${pair#*:}
    out=/tmp/bench_exact_${workload}_$seed.out
    rc=0
    bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 1 > "$out" || rc=$?
    if [ "$rc" -ne 0 ] || grep 'CHECK-FAILED' "$out"; then
        echo "FAIL: benchmark/run.sh --workload $workload --seed $seed failed a check (exit $rc)" >&2
        exit 1
    fi
    sed -n "s/^$workload \(.*\) exact$/$workload $seed \1/p" "$out" > "$out.have"
    grep "^$workload $seed " scripts/bench_digests.txt > "$out.want"
    # One line per exact line that moved, went missing or is not pinned.
    awk 'NR == FNR { have[$3] = $4 " " $5; next }
        !($3 in have) { print "  " $3 ": pinned " $4 ", missing"; next }
        have[$3] != $4 " " $5 { print "  " $3 ": pinned " $4 " " $5 ", now " have[$3] }
        { delete have[$3] }
        END { for (n in have) print "  " n ": not pinned, now " have[n] }' \
        "$out.have" "$out.want" > "$out.moved"
    # Set-up time and peak RSS are log lines, not gates: a jump in either
    # shows in every log.
    setup=$(sed -n "s/^$workload setup_s \([^ ]*\) s host$/\1/p" "$out")
    rss=$(sed -n "s/^$workload peak_rss_mb \([^ ]*\) MB host$/\1/p" "$out")
    echo "$workload seed $seed: $(grep -c . "$out.have") exact lines, $(grep -c . "$out.moved") moved, setup_s ${setup:-?}, peak_rss_mb ${rss:-?}"
    if [ -s "$out.moved" ]; then
        cat "$out.moved"
        moved="$moved $workload/$seed"
    fi
done
[ -z "$moved" ] || {
    echo "FAIL: behaviour moved on:$moved (exact lines differ from scripts/bench_digests.txt)" >&2
    exit 1
}

# The sweep bin and chaos_sweep, one stanza: the smoke run is on one worker
# (PHOENIX_SWEEP_THREADS=1), then the same bin on 4 forced workers — so shard
# hand-off and the in-order merge are genuinely exercised even on a
# single-core runner — must write byte-identical reports (sharded-telemetry
# determinism gate). Every report must land under results/ with the JSON
# keys REPORTS lists for it.
# What sweep's exit status gates, per sweep: loss_sweep any spurious
# takeover, or more duplicates delivered than scheduled; nic_asymmetry a
# spurious takeover, a missed detection, or detection more than 25% above
# the clean baseline; partition_sweep a double-leader instant, an unfrozen
# minority or an episode that fails to re-converge after heal; quorum_sweep
# a double-leader or both-sides-frozen instant, an undecided split, a failed
# re-convergence or an adaptive-delay episode that never recovers the killed
# GSD; slow_sweep a dead diagnosis of a slow-but-alive node, an unsuspected,
# unquarantined, undrained or unyielded episode, or a failed reinstatement.
# chaos_sweep's gates any invariant violation.
REPORTS='sweep BENCH_loss.json loss_curve,spurious_takeovers,detect_ms_mean,net_loss_dropped
sweep BENCH_nic.json nic_curve,spurious_takeovers,detect_ratio_vs_clean,worst_detect_ratio,nic0_routed_share
sweep BENCH_partition.json episodes,double_leader_instants,freeze_ms,dir_converge_ms,unfrozen_minorities
sweep BENCH_quorum.json double_leader_instants,both_frozen_instants,undecided_splits,availability_mean,takeover_adaptive_ms_mean,takeover_fixed31_ms_mean
sweep BENCH_slow.json false_dead_diagnoses,unyielded_leader_episodes,unreinstated_episodes,suspect_ms_mean,factor_permille,curve
chaos_sweep BENCH_chaos.json schedules_run,faults_injected,violating_schedules,shrink,schedules'
for run in sweep 'chaos_sweep --seeds 25 --small'; do
    bin=${run%% *}
    args=${run#"$bin"}
    echo "$REPORTS" | grep "^$bin " > "/tmp/$bin.reports"
    while read -r _ file _; do
        rm -f "results/$file"
    done < "/tmp/$bin.reports"
    echo "== smoke: $run writes its reports under results/ =="
    # shellcheck disable=SC2086
    PHOENIX_SWEEP_THREADS=1 cargo run --release --offline -p phoenix-bench --bin "$bin" -- $args \
        > "/tmp/$bin.out" 2>&1 < /dev/null || {
        cat "/tmp/$bin.out" >&2
        echo "FAIL: $run exited non-zero" >&2
        exit 1
    }
    cat "/tmp/$bin.out"
    while read -r _ file needles; do
        landed "$file" "$needles"
        cp "results/$file" "/tmp/$file.serial"
    done < "/tmp/$bin.reports"
    echo "== determinism gate: parallel $bin must write byte-identical reports =="
    # shellcheck disable=SC2086
    PHOENIX_SWEEP_THREADS=4 cargo run --release --offline -p phoenix-bench --bin "$bin" -- $args \
        > "/tmp/$bin.parallel.out" < /dev/null
    while read -r _ file _; do
        cmp "results/$file" "/tmp/$file.serial" || {
            echo "FAIL: parallel $file differs from serial (determinism gate)" >&2
            exit 1
        }
    done < "/tmp/$bin.reports"
done

echo "== speedup gate: loss_sweep on 4 workers against one =="
# Host time on a shared box is noisy, and interference only ever adds to
# it: each side of the speedup gate is timed three times (the stanza above
# was the first), serial and parallel runs alternating so both see the same
# minute of the host, and the gate reads the least of each. The sweep bin
# runs loss_sweep first, so its first `sweep:` line is loss_sweep's.
grep -m1 '^sweep: ' /tmp/sweep.out > /tmp/loss_serial.out
grep -m1 '^sweep: ' /tmp/sweep.parallel.out > /tmp/loss_parallel.out
for again in 2 3; do
    PHOENIX_SWEEP_THREADS=1 cargo run --release --offline -p phoenix-bench --bin sweep \
        > /tmp/sweep.again.out < /dev/null
    grep -m1 '^sweep: ' /tmp/sweep.again.out | tee -a /tmp/loss_serial.out
    PHOENIX_SWEEP_THREADS=4 cargo run --release --offline -p phoenix-bench --bin sweep \
        > /tmp/sweep.again.out < /dev/null
    grep -m1 '^sweep: ' /tmp/sweep.again.out | tee -a /tmp/loss_parallel.out
    cmp results/BENCH_loss.json /tmp/BENCH_loss.json.serial || {
        echo "FAIL: parallel BENCH_loss.json differs from serial (determinism gate, run $again)" >&2
        exit 1
    }
done
least_ms() {
    sed -n 's/.*sweep: [0-9]* runs on [0-9]* thread(s), \([0-9]*\) ms wall/\1/p' "$1" | sort -n | head -1
}
serial_ms=$(least_ms /tmp/loss_serial.out)
par_ms=$(least_ms /tmp/loss_parallel.out)
cores=$(nproc 2>/dev/null || echo 1)
[ -n "$serial_ms" ] && [ -n "$par_ms" ] || {
    echo "FAIL: sweep wall-clock lines missing from loss_sweep output" >&2
    exit 1
}
speedup=$(awk "BEGIN { printf \"%.2f\", $serial_ms / ($par_ms + 0.001) }")
echo "loss_sweep wall-clock, best of 3: serial ${serial_ms} ms, parallel ${par_ms} ms, speedup x${speedup} (${cores} core(s))"
# The gate compares 4 workers against one, so it holds only where 4 cores
# can run them; below that the ratio is reported, not judged.
if [ "$cores" -ge 4 ]; then
    awk "BEGIN { exit !($serial_ms / ($par_ms + 0.001) > 1.5) }" || {
        echo "FAIL: parallel speedup x${speedup} <= 1.5 on a ${cores}-core machine" >&2
        exit 1
    }
else
    echo "(${cores}-core runner, fewer than 4: speedup gate skipped, determinism gate enforced)"
fi

echo "== smoke: flapping-NIC chaos pin (seed 4, lossy) =="
# Replays the pinned flapping-NIC storm end-to-end (exit 1 on violation).
cargo run --release --offline -p phoenix-chaos --bin chaos -- --lossy 20 --replay 4 \
    > /tmp/chaos_flap.out || {
    cat /tmp/chaos_flap.out >&2
    echo "FAIL: flapping-NIC replay (seed 4) violated invariants" >&2
    exit 1
}
grep -q 'NicDegrade' /tmp/chaos_flap.out || {
    echo "FAIL: seed 4 schedule no longer contains NIC flaps — re-pin" >&2
    exit 1
}

echo "== report: results/ sizes in KB (written reports keep the 256 recorder records that ended last) =="
du -k results/*
du -sk results

echo "== layering: the group service's layers name neither Ctx nor phoenix_telemetry =="
group=crates/phoenix-kernel/src/group
kernel_src=crates/phoenix-kernel/src
# shellcheck disable=SC2046
if grep -nw 'Ctx' $(ls $group/*.rs | grep -vE '/(gsd|wd|registry)\.rs$'); then
    echo "FAIL: a group/ layer names the simulator's Ctx (only gsd.rs, wd.rs and registry.rs may)" >&2
    exit 1
fi
# shellcheck disable=SC2046
if grep -n 'phoenix_telemetry' $(ls $group/*.rs | grep -vE '/(gsd|wd)\.rs$') \
    $kernel_src/regroup.rs $kernel_src/slow_detect.rs $kernel_src/nic_health.rs; then
    echo "FAIL: a protocol layer names phoenix_telemetry (under group/ only gsd.rs and wd.rs may)" >&2
    exit 1
fi

if grep -nw 'Ctx' crates/phoenix-pws/src/pool.rs || grep -n 'phoenix_telemetry' crates/phoenix-pws/src/pool.rs; then
    echo "FAIL: phoenix-pws/src/pool.rs names the simulator's Ctx or phoenix_telemetry (the schedulers route, the pool decides)" >&2
    exit 1
fi
if grep -rnE 'KernelMsg::Ppm(Exec|Delete) \{' crates/phoenix-pws/src crates/phoenix-biz/src; then
    echo "FAIL: a PPM request is built outside phoenix-kernel/src/ppm/ (call ppm::exec / ppm::delete)" >&2
    exit 1
fi
# One counter for every retry: RetryPolicy::on_send. Each kernel file is cut
# at its first #[cfg(test)], so only non-test source is searched.
retry_sites=$(for f in $(find $kernel_src -name '*.rs'); do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -F '"rpc.retries"' | sed "s|^|$f: |"
done)
if [ "$(printf '%s\n' "$retry_sites" | grep -c .)" -ne 1 ] \
    || ! printf '%s\n' "$retry_sites" | grep -q "^$kernel_src/rpc.rs: "; then
    printf '%s\n' "$retry_sites" >&2
    echo "FAIL: \"rpc.retries\" must be counted once, in $kernel_src/rpc.rs (call RetryPolicy::on_send)" >&2
    exit 1
fi
# One copy of each cluster-wide view, with the same cut.
copies=$(for f in $(find $kernel_src -name '*.rs'); do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -nF -e 'topology.clone()' -e '.members().to_vec()' | sed "s|^|$f: |"
done)
if [ -n "$copies" ]; then
    printf '%s\n' "$copies" >&2
    echo "FAIL: a per-actor copy of the topology or a ring list (hand the Shared on: Shared::clone, .members().clone())" >&2
    exit 1
fi

# One count per message: the world counts each message once, by index, in
# phoenix-sim's metrics.rs table, and only Counts::publish writes that
# table's counters and gauge into the telemetry registry. Non-test simulator
# source that names counter_add or gauge_set outside a `fn publish(` body,
# or walks a map keyed by label (`.entry(label)`), fails the stage.
sim_src=crates/phoenix-sim/src
writes=$(for f in $(find $sim_src -name '*.rs'); do
    sed '/#\[cfg(test)\]/,$d' "$f" | sed '/fn publish(/,/^    }$/d' \
        | grep -nE '\b(counter_add|gauge_set)\b|\.entry\(label\)' | sed "s|^|$f: |"
done)
if [ -n "$writes" ]; then
    printf '%s\n' "$writes" >&2
    echo "FAIL: the simulator counts a message outside its table (count in $sim_src/metrics.rs; only Counts::publish writes telemetry)" >&2
    exit 1
fi

# One event queue per world, with the same cut: the heap is the wheel's
# reference in tests and the benchmark's replay probe, never a world's.
queues=$(for f in $(find crates -name '*.rs' -not -path '*/tests/*'); do
    names='dyn Scheduler|make_scheduler|SchedulerKind::Heap'
    [ "$f" = $sim_src/sched.rs ] || names="$names|HeapScheduler"
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE "$names" | grep -v '^[0-9]*:pub use sched::' \
        | sed "s|^|$f: |"
done)
if [ -n "$queues" ]; then
    printf '%s\n' "$queues" >&2
    echo "FAIL: a world's event queue is chosen at run time, or the reference heap is named outside $sim_src/sched.rs (a World holds its WheelScheduler by value)" >&2
    exit 1
fi

# A cached reply is small, with the same cut.
windows=$(for f in $(find crates -name '*.rs' -not -path '*/tests/*'); do
    sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE 'DedupWindow<.*KernelMsg' | sed "s|^|$f: |"
done)
if [ -n "$windows" ]; then
    printf '%s\n' "$windows" >&2
    echo "FAIL: a DedupWindow caches whole KernelMsg replies (cache a small Copy ack and rebuild the message on replay)" >&2
    exit 1
fi

echo "== ratchet: non-test code lines stay within scripts/code_budget.txt (ROADMAP aim 2, item 4) =="
# The roadmap's number: each file cut at its first #[cfg(test)], then its
# non-blank, non-comment lines.
code_lines() {
    for f in "$@"; do
        sed '/#\[cfg(test)\]/,$d' "$f"
    done | grep -cvE '^\s*(//|$)'
}
# The same cut, counting the lines that start with a bare `pub ` (the
# budget's `pub` row, over library source: src/bin/ is left out).
pub_lines() {
    for f in "$@"; do
        sed '/#\[cfg(test)\]/,$d' "$f"
    done | grep -cE '^\s*pub '
}
for f in crates/phoenix-kernel/src/group/*.rs; do
    printf '%6d  %s\n' "$(code_lines "$f")" "$f"
done
for d in crates/*/src; do
    # shellcheck disable=SC2046
    printf '%6d  %s (total)\n' "$(code_lines $(find "$d" -name '*.rs'))" "$d"
done
while read -r what limit; do
    case $what in
        '#'* | '') continue ;;
        pub) where=crates/*/src ;;
        gsd) where=crates/phoenix-kernel/src/group/gsd.rs ;;
        kernel) where=crates/phoenix-kernel/src ;;
        proto) where=crates/phoenix-proto/src ;;
        sim) where=crates/phoenix-sim/src ;;
        pws) where=crates/phoenix-pws/src ;;
        chaos) where=crates/phoenix-chaos/src ;;
        bench) where=crates/bench/src ;;
        workspace) where=crates/*/src ;;
        *)
            echo "FAIL: scripts/code_budget.txt: no such count: $what" >&2
            exit 1
            ;;
    esac
    # shellcheck disable=SC2046,SC2086
    if [ "$what" = pub ]; then
        have=$(pub_lines $(find $where -name '*.rs' -not -path '*/src/bin/*'))
    else
        have=$(code_lines $(find $where -name '*.rs'))
    fi
    printf '%6d  %s (budget %d)\n' "$have" "$what" "$limit"
    [ "$have" -le "$limit" ] || {
        echo "FAIL: $what has $have non-test lines, over its budget of $limit" >&2
        exit 1
    }
done < scripts/code_budget.txt

echo "verify: OK"
