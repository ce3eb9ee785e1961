#!/usr/bin/env bash
# Tier-1 verification for the probterm workspace.
#
# `cargo test` alone stops at the first failing test *binary*, silently
# skipping every alphabetically-later suite; `--no-fail-fast` makes a red run
# report the full picture. The release build comes first so optimized
# artifacts exist for benchmarking even when a test fails.
set -uo pipefail

cd "$(dirname "$0")/.."

status=0

# Wall-clock per section and in total, from bash's SECONDS counter: each
# `section` call closes the running section's timer and opens the next.
SECONDS=0
section_name=""
section() { # section <name>
    if [ -n "$section_name" ]; then
        echo "-- $section_name: $((SECONDS - section_start)) s"
    fi
    section_name=$1
    section_start=$SECONDS
    if [ -n "$1" ]; then
        echo "== $1 =="
    fi
}

# --workspace is load-bearing: the root manifest is a workspace *and* a
# package, so a bare `cargo test` silently tests only the root package.
section "cargo build --release --workspace"
cargo build --release --workspace --offline || status=$?

section "cargo test -q --workspace --no-fail-fast"
cargo test -q --workspace --offline --no-fail-fast || status=$?

# `Rational`'s small-value fast path relies on detecting integer overflow.
# Overflow panics in debug builds but wraps in release builds, which is what
# the benchmark and users run, so the numerics suite runs in release too.
section "numerics suite in release"
cargo test --release -q --offline -p probterm-numerics || status=$?

# perfbench (the repo benchmark, `perfbench/run.sh`) is its own workspace, so
# `--workspace` never compiles it. Building and testing it here makes an
# engine API change that breaks the benchmark's calls fail tier-1, not the
# benchmark run.
section "perfbench build and tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml || status=$?

# The exact Table 1 and nonlinear bounds: `perfbench --record` recomputes
# each reference line in process, and any difference from the committed
# `perfbench/expected/*.txt` fails CI. The check only reads those files.
section "perfbench exact bounds"
if cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml; then
    for workload in table1 nonlinear; do
        if diff <(perfbench/target/release/perfbench --record "$workload") \
            "perfbench/expected/$workload.txt"; then
            echo "bounds ok: $workload matches perfbench/expected/$workload.txt"
        else
            echo "bounds FAILED: $workload differs from perfbench/expected/$workload.txt"
            status=1
        fi
    done
else
    echo "bounds FAILED: perfbench did not build"
    status=1
fi

# ---------------------------------------------------------------------------
# Differential suites: the environment machine vs. the substitution-based
# reference steppers, for the concrete evaluator and for symbolic
# exploration. Both run inside the workspace pass above; re-running them
# explicitly keeps a red diff from hiding among hundreds of other tests.
section "differential suites (machine vs substitution reference)"
cargo test -q --offline -p probterm-spcf --test machine_differential || status=$?
cargo test -q --offline -p probterm-intervalsem --test symbolic_differential || status=$?

# ---------------------------------------------------------------------------
# CLI smoke test: `probterm lower` (complete and deadline-cut partial) and
# `probterm verify` against known answers, each bounded by a timeout.
section "CLI smoke test"
cli_status=0
if [ -x target/release/probterm ]; then
    lower_out=$(timeout 60 target/release/probterm lower \
        -e '(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0' --depth 25)
    case "$lower_out" in
        *"Pterm >= 0.9"*) echo "cli ok: lower ($lower_out)" ;;
        *) echo "cli FAILED: lower: $lower_out"; cli_status=1 ;;
    esac
    # A binary-branching recursion with a cubic guard: every path needs the
    # box sweep, so the full run takes about 1.3 s in release (it stops at
    # the 50,000-path budget), far beyond the 100 ms deadline.
    partial_out=$(timeout 60 target/release/probterm lower \
        -e '(fix phi x. if sample * sample * sample <= 1/2 then x else phi (phi x)) 0' \
        --depth 4000 --deadline-ms 100)
    case "$partial_out" in
        *"partial: deadline exceeded"*) echo "cli ok: lower --deadline-ms ($partial_out)" ;;
        *) echo "cli FAILED: partial lower: $partial_out"; cli_status=1 ;;
    esac
    case "$partial_out" in
        *"Pterm >= 0.0000000000"*) echo "cli FAILED: partial bound is zero"; cli_status=1 ;;
    esac
    verify_out=$(timeout 60 target/release/probterm verify \
        -e '(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1')
    case "$verify_out" in
        *"AST"*) echo "cli ok: verify ($verify_out)" ;;
        *) echo "cli FAILED: verify: $verify_out"; cli_status=1 ;;
    esac
else
    echo "cli FAILED: target/release/probterm missing (release build failed?)"
    cli_status=1
fi
if [ "$cli_status" -ne 0 ]; then
    echo "CLI smoke test: FAILED"
    status=1
else
    echo "CLI smoke test: OK"
fi

# ---------------------------------------------------------------------------
# Explainability smoke test: `probterm explain` on a catalogue-style term that
# explores completely and on a deadline-truncated one; both JSON artifacts
# must satisfy `probterm explain-check` (schema, exact mass accounting,
# witness replay), and the DOT rendering must be a well-formed digraph.
section "explain smoke test"
explain_status=0
if [ -x target/release/probterm ]; then
    complete_json=$(mktemp /tmp/probterm-explain.XXXXXX.json)
    timeout 60 target/release/probterm explain \
        -e 'if sample <= 1/3 then 0 else sample + 1' --depth 30 \
        --format json > "$complete_json"
    if grep -Eq '"complete": *true' "$complete_json"; then
        echo "explain ok: complete exploration flagged complete"
    else
        echo "explain FAILED: complete term not flagged complete"
        explain_status=1
    fi
    check_out=$(target/release/probterm explain-check "$complete_json")
    case "$check_out" in
        ok:*"unaccounted 0"*) echo "explain ok: explain-check ($check_out)" ;;
        *) echo "explain FAILED: explain-check: $check_out"; explain_status=1 ;;
    esac
    truncated_json=$(mktemp /tmp/probterm-explain.XXXXXX.json)
    timeout 60 target/release/probterm explain \
        -e '(fix phi x. if sample * sample * sample <= 1/2 then x else phi (phi x)) 0' \
        --depth 4000 --deadline-ms 100 --format json > "$truncated_json"
    if grep -Eq '"complete": *false' "$truncated_json"; then
        echo "explain ok: deadline-cut exploration flagged incomplete"
    else
        echo "explain FAILED: truncated term not flagged incomplete"
        explain_status=1
    fi
    truncated_out=$(target/release/probterm explain-check "$truncated_json")
    case "$truncated_out" in
        ok:*) echo "explain ok: truncated explain-check ($truncated_out)" ;;
        *) echo "explain FAILED: truncated explain-check: $truncated_out"; explain_status=1 ;;
    esac
    rm -f "$complete_json" "$truncated_json"
    dot_out=$(timeout 60 target/release/probterm explain \
        -e '(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0' \
        --depth 25 --format dot)
    opens=$(printf '%s' "$dot_out" | grep -c '{')
    closes=$(printf '%s' "$dot_out" | grep -c '}')
    case "$dot_out" in
        "digraph "*)
            if [ "$opens" -eq "$closes" ] && [ "$opens" -ge 1 ]; then
                echo "explain ok: DOT well-formed ($opens brace pairs)"
            else
                echo "explain FAILED: DOT braces unbalanced ($opens vs $closes)"
                explain_status=1
            fi
            ;;
        *)
            echo "explain FAILED: DOT output missing digraph header"
            explain_status=1
            ;;
    esac
else
    echo "explain FAILED: target/release/probterm missing (release build failed?)"
    explain_status=1
fi
if [ "$explain_status" -ne 0 ]; then
    echo "explain smoke test: FAILED"
    status=1
else
    echo "explain smoke test: OK"
fi

# ---------------------------------------------------------------------------
# Service smoke test: boot `probterm serve` on a loopback port with request
# tracing on, drive a short mixed batch over bash's /dev/tcp (valid requests,
# a deliberate parse error, a deadline-exceeded request), check each reply
# line — including the `metrics` Prometheus exposition and the per-op `stats`
# percentiles — assert a graceful shutdown with exit code 0, and validate the
# JSONL trace with `probterm trace-check`.
section "service smoke test"
smoke_status=0
if [ -x target/release/probterm ]; then
    port=$((21000 + RANDOM % 20000))
    trace_file=$(mktemp /tmp/probterm-trace.XXXXXX.jsonl)
    target/release/probterm serve --addr "127.0.0.1:$port" --workers 2 \
        --trace "$trace_file" &
    server_pid=$!
    # Wait for the listener to come up.
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            exec 3>&- 3<&-
            break
        fi
        sleep 0.1
    done
    smoke_request() { # smoke_request <request-json> <required-substring>
        local reply
        if ! exec 3<>"/dev/tcp/127.0.0.1/$port"; then
            echo "smoke: cannot connect for: $1"
            smoke_status=1
            return
        fi
        printf '%s\n' "$1" >&3
        IFS= read -r -t 30 reply <&3 || reply=""
        exec 3>&- 3<&-
        case "$reply" in
            *"$2"*) echo "smoke ok: $2" ;;
            *)
                echo "smoke FAILED: request $1"
                echo "  wanted substring: $2"
                echo "  got reply:        $reply"
                smoke_status=1
                ;;
        esac
    }
    smoke_request '{"id":1,"op":"lower","program":"(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0","depth":30}' '"ok":true'
    smoke_request '{"id":2,"op":"verify","program":"(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1"}' '"verified":true'
    smoke_request '{"id":3,"op":"simulate","program":"(fix phi x. phi x) 0","runs":400000,"steps":2500,"deadline_ms":40}' '"code":"budget_exceeded"'
    smoke_request '{"id":7,"op":"lower","program":"(fix phi x. if sample * sample * sample <= 1/2 then x else phi (phi x)) 0","depth":400,"deadline_ms":25}' '"complete":false'
    # A guard whose interval enclosure overflows f64 (exp of up to 1000)
    # leaves those boxes undecided; it must not bring the engine down.
    smoke_request '{"id":12,"op":"lower","program":"if exp (1000 * sample) <= 5 then 0 else 1","depth":10}' '"ok":true'
    smoke_request '{"id":4,"op":"lower","program":"((("}' '"code":"parse_error"'
    smoke_request 'this is not json' '"code":"parse_error"'
    # Caps are checked at admission, before the cache or any coalescing.
    smoke_request '{"id":13,"op":"verify","program":"(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1","depth":100000}' '"code":"bad_request"'
    smoke_request '{"id":5,"op":"stats"}' '"misses":'
    # Per-op latency percentiles in the stats reply.
    smoke_request '{"id":8,"op":"stats"}' '"p95":'
    # Prometheus-style text exposition via the metrics op.
    smoke_request '{"id":9,"op":"metrics"}' 'probterm_requests_total'
    # Provenance artifact through the cache-fronted explain op.
    smoke_request '{"id":10,"op":"explain","program":"(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0","depth":30,"top":3}' '"schema":"probterm-explain-v1"'
    # Live introspection: an idle server reports an empty in-flight table.
    smoke_request '{"id":11,"op":"inspect"}' '"inflight"'
    smoke_request '{"id":6,"op":"shutdown"}' '"ok":true'
    if wait "$server_pid"; then
        echo "smoke ok: graceful shutdown (exit 0)"
    else
        echo "smoke FAILED: server exited non-zero"
        smoke_status=1
    fi
    # Every request above must have produced exactly one parseable JSONL
    # trace record carrying the schema fields.
    trace_out=$(target/release/probterm trace-check "$trace_file")
    case "$trace_out" in
        "ok: 14 trace records"*) echo "smoke ok: trace ($trace_out)" ;;
        *)
            echo "smoke FAILED: trace validation: $trace_out"
            smoke_status=1
            ;;
    esac
    rm -f "$trace_file"
else
    echo "smoke FAILED: target/release/probterm missing (release build failed?)"
    smoke_status=1
fi
if [ "$smoke_status" -ne 0 ]; then
    echo "service smoke test: FAILED"
    status=1
else
    echo "service smoke test: OK"
fi

# ---------------------------------------------------------------------------
# Chaos smoke test: boot `probterm serve` with deterministic fault injection
# (every 4th engine run panics), a single worker and an admission queue of
# depth 1, then drive a scripted batch that exercises the robustness layer
# end to end: a deadline-cut lower that leaves a resumable checkpoint, a
# richer retry that *resumes* it, an injected engine panic surfacing as a
# structured `internal` error, and a queue-saturation shed with
# `overloaded` + `retry_after_ms`. The `stats` robustness counters and the
# JSONL trace must account for all of it, and shutdown must stay graceful.
section "chaos smoke test"
chaos_status=0
if [ -x target/release/probterm ]; then
    chaos_port=$((21000 + RANDOM % 20000))
    chaos_trace=$(mktemp /tmp/probterm-chaos.XXXXXX.jsonl)
    target/release/probterm serve --addr "127.0.0.1:$chaos_port" --workers 1 \
        --queue-depth 1 --inject 'seed=11;panic=@4' --trace "$chaos_trace" &
    chaos_pid=$!
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$chaos_port") 2>/dev/null; then
            exec 3>&- 3<&-
            break
        fi
        sleep 0.1
    done
    chaos_request() { # chaos_request <request-json> <required-substring>
        local reply
        if ! exec 3<>"/dev/tcp/127.0.0.1/$chaos_port"; then
            echo "chaos: cannot connect for: $1"
            chaos_status=1
            return
        fi
        printf '%s\n' "$1" >&3
        IFS= read -r -t 30 reply <&3 || reply=""
        exec 3>&- 3<&-
        case "$reply" in
            *"$2"*) echo "chaos ok: $2" ;;
            *)
                echo "chaos FAILED: request $1"
                echo "  wanted substring: $2"
                echo "  got reply:        $reply"
                chaos_status=1
                ;;
        esac
    }
    geo='(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0'
    # A chain of recursive calls that first fans out into a depth-4 binary
    # tree of 16 terminating leaves: every leaf is a path measured by the box
    # sweep over 10 or more dimensions, while the frontier stays small enough
    # to checkpoint. Depth 400 (the service's default depth cap) takes about
    # 0.44-0.49 s in release, over ten times run 2's 40 ms deadline and well
    # inside run 3's.
    slow_chain='(fix phi x. if sample * sample <= 1/2 then (fix t n. if n <= 0 then x else if sample * sample <= 1/2 then t (n - 1) else t (n - 1)) 4 else phi (x + 1)) 0'
    # Engine run 1: a plain complete lower.
    chaos_request '{"id":1,"op":"lower","program":"'"$geo"'","depth":25}' '"ok":true'
    # Engine run 2: deadline-cut partial that must embed a resume checkpoint.
    chaos_request '{"id":2,"op":"lower","program":"'"$slow_chain"'","depth":400,"deadline_ms":40}' '"checkpoint"'
    # Engine run 3: a much richer retry resumes the checkpoint instead of
    # recomputing from scratch, and completes.
    chaos_request '{"id":3,"op":"lower","program":"'"$slow_chain"'","depth":400,"deadline_ms":10000}' '"resumed":true'
    # Engine run 4: the injected panic (panic=@4) surfaces as a structured
    # internal error, not a dead worker or a dropped line.
    chaos_request '{"id":4,"op":"verify","program":"(fix phi x. if sample <= 1/2 then x else phi (phi (x + 1))) 1"}' '"code":"internal"'
    # Queue saturation: pin the single worker with a deadline-bounded run,
    # then send two quick engine requests back to back on one connection —
    # the first fills the depth-1 queue, the second must be shed immediately
    # by the reader with `overloaded` + `retry_after_ms`. The two must be
    # *distinct* (different `runs`): an identical second request would
    # coalesce onto the first's flight instead of being shed.
    if exec 4<>"/dev/tcp/127.0.0.1/$chaos_port" &&
        exec 5<>"/dev/tcp/127.0.0.1/$chaos_port"; then
        printf '%s\n' '{"id":20,"op":"simulate","program":"(fix phi x. phi x) 0","runs":400000,"steps":2500,"deadline_ms":600}' >&4
        sleep 0.3
        printf '%s\n' '{"id":21,"op":"simulate","program":"sample","runs":10}' >&5
        printf '%s\n' '{"id":22,"op":"simulate","program":"sample","runs":11}' >&5
        IFS= read -r -t 30 shed_reply <&5 || shed_reply=""
        case "$shed_reply" in
            *'"overloaded"'*'"retry_after_ms"'*) echo "chaos ok: shed with retry_after_ms" ;;
            *)
                echo "chaos FAILED: expected overloaded shed, got: $shed_reply"
                chaos_status=1
                ;;
        esac
        IFS= read -r -t 30 admitted_reply <&5 || admitted_reply=""
        case "$admitted_reply" in
            *'"ok":true'*) echo "chaos ok: admitted request completed" ;;
            *)
                echo "chaos FAILED: admitted request: $admitted_reply"
                chaos_status=1
                ;;
        esac
        IFS= read -r -t 30 pinned_reply <&4 || pinned_reply=""
        case "$pinned_reply" in
            *'"code":"budget_exceeded"'*) echo "chaos ok: pinned request hit its own budget" ;;
            *)
                echo "chaos FAILED: pinned request: $pinned_reply"
                chaos_status=1
                ;;
        esac
        exec 4>&- 4<&- 5>&- 5<&-
    else
        echo "chaos FAILED: cannot open shed connections"
        chaos_status=1
    fi
    # The robustness counters must account for everything injected above.
    if exec 3<>"/dev/tcp/127.0.0.1/$chaos_port"; then
        printf '%s\n' '{"id":23,"op":"stats"}' >&3
        IFS= read -r -t 30 stats_reply <&3 || stats_reply=""
        exec 3>&- 3<&-
        for want in '"shed":1' '"resumed":1' '"injected_faults":1' '"checkpointed_frontiers":1'; do
            case "$stats_reply" in
                *"$want"*) echo "chaos ok: stats $want" ;;
                *)
                    echo "chaos FAILED: stats missing $want: $stats_reply"
                    chaos_status=1
                    ;;
            esac
        done
    else
        echo "chaos FAILED: cannot connect for stats"
        chaos_status=1
    fi
    chaos_request '{"id":24,"op":"shutdown"}' '"ok":true'
    if wait "$chaos_pid"; then
        echo "chaos ok: graceful shutdown after injected faults (exit 0)"
    else
        echo "chaos FAILED: server exited non-zero"
        chaos_status=1
    fi
    # Every request — including the shed one, replied by the reader thread —
    # must appear exactly once in the trace.
    chaos_trace_out=$(target/release/probterm trace-check "$chaos_trace")
    case "$chaos_trace_out" in
        "ok: 9 trace records"*) echo "chaos ok: trace ($chaos_trace_out)" ;;
        *)
            echo "chaos FAILED: trace validation: $chaos_trace_out"
            chaos_status=1
            ;;
    esac
    rm -f "$chaos_trace"
else
    echo "chaos FAILED: target/release/probterm missing (release build failed?)"
    chaos_status=1
fi
if [ "$chaos_status" -ne 0 ]; then
    echo "chaos smoke test: FAILED"
    status=1
else
    echo "chaos smoke test: OK"
fi

# ---------------------------------------------------------------------------
# Observability smoke test: `probterm top --once` renders a dashboard from a
# loopback server's `stats` + `inspect` replies, and the bench-history
# regression sentinel runs over the committed BENCH_history.jsonl as a soft
# gate (it warns on regressions; only --strict turns that into a failure).
section "observability smoke test"
obs_status=0
if [ -x target/release/probterm ]; then
    obs_port=$((21000 + RANDOM % 20000))
    target/release/probterm serve --addr "127.0.0.1:$obs_port" --workers 1 &
    obs_pid=$!
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$obs_port") 2>/dev/null; then
            exec 3>&- 3<&-
            break
        fi
        sleep 0.1
    done
    top_out=$(timeout 30 target/release/probterm top --addr "127.0.0.1:$obs_port" --once)
    case "$top_out" in
        *"probterm top"*"in-flight"*)
            echo "obs ok: top --once renders a dashboard"
            ;;
        *)
            echo "obs FAILED: top --once: $top_out"
            obs_status=1
            ;;
    esac
    if exec 3<>"/dev/tcp/127.0.0.1/$obs_port"; then
        printf '%s\n' '{"id":1,"op":"shutdown"}' >&3
        IFS= read -r -t 30 _ <&3 || true
        exec 3>&- 3<&-
    fi
    if wait "$obs_pid"; then
        echo "obs ok: graceful shutdown (exit 0)"
    else
        echo "obs FAILED: server exited non-zero"
        obs_status=1
    fi
    if bench_out=$(timeout 30 target/release/probterm bench-report BENCH_history.jsonl); then
        case "$bench_out" in
            "bench-report:"*)
                echo "obs ok: bench-report ($(printf '%s' "$bench_out" | head -1))"
                ;;
            *)
                echo "obs FAILED: bench-report output: $bench_out"
                obs_status=1
                ;;
        esac
    else
        echo "obs FAILED: bench-report exited non-zero (soft gate must pass without --strict)"
        obs_status=1
    fi
else
    echo "obs FAILED: target/release/probterm missing (release build failed?)"
    obs_status=1
fi
if [ "$obs_status" -ne 0 ]; then
    echo "observability smoke test: FAILED"
    status=1
else
    echo "observability smoke test: OK"
fi

# ---------------------------------------------------------------------------
# Coalescing smoke test: a leader's engine run is slowed by injection to
# 1000 ms, three identical requests sent mid-flight must attach to it instead
# of enqueueing — exactly one engine run (`"misses":1`), three accounted
# waiters — and every reply must carry the leader's result.
section "coalescing smoke test"
coalesce_status=0
if [ -x target/release/probterm ]; then
    co_port=$((21000 + RANDOM % 20000))
    target/release/probterm serve --addr "127.0.0.1:$co_port" --workers 1 \
        --inject 'seed=3;slow=@1:1000' &
    co_pid=$!
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$co_port") 2>/dev/null; then
            exec 3>&- 3<&-
            break
        fi
        sleep 0.1
    done
    co_lower='{"id":1,"op":"lower","program":"(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0","depth":40}'
    if exec 4<>"/dev/tcp/127.0.0.1/$co_port" &&
        exec 5<>"/dev/tcp/127.0.0.1/$co_port" &&
        exec 6<>"/dev/tcp/127.0.0.1/$co_port" &&
        exec 7<>"/dev/tcp/127.0.0.1/$co_port"; then
        printf '%s\n' "$co_lower" >&4   # leader: engine run sleeps 1000 ms
        sleep 0.3
        for fd in 5 6 7; do             # joiners arrive mid-flight
            printf '%s\n' "$co_lower" >&$fd
        done
        IFS= read -r -t 30 leader_reply <&4 || leader_reply=""
        case "$leader_reply" in
            *'"cache":"miss"'*) echo "coalesce ok: leader ran the engine" ;;
            *)
                echo "coalesce FAILED: leader reply: $leader_reply"
                coalesce_status=1
                ;;
        esac
        for fd in 5 6 7; do
            IFS= read -r -t 30 joiner_reply <&$fd || joiner_reply=""
            case "$joiner_reply" in
                *'"cache":"coalesced"'*) echo "coalesce ok: joiner fd$fd coalesced" ;;
                *)
                    echo "coalesce FAILED: joiner fd$fd reply: $joiner_reply"
                    coalesce_status=1
                    ;;
            esac
        done
        exec 4>&- 4<&- 5>&- 5<&- 6>&- 6<&- 7>&- 7<&-
    else
        echo "coalesce FAILED: cannot open connections"
        coalesce_status=1
    fi
    if exec 3<>"/dev/tcp/127.0.0.1/$co_port"; then
        printf '%s\n' '{"id":9,"op":"stats"}' >&3
        IFS= read -r -t 30 co_stats <&3 || co_stats=""
        exec 3>&- 3<&-
        for want in '"misses":1' '"coalesced_waiters":3'; do
            case "$co_stats" in
                *"$want"*) echo "coalesce ok: stats $want" ;;
                *)
                    echo "coalesce FAILED: stats missing $want: $co_stats"
                    coalesce_status=1
                    ;;
            esac
        done
    else
        echo "coalesce FAILED: cannot connect for stats"
        coalesce_status=1
    fi
    if exec 3<>"/dev/tcp/127.0.0.1/$co_port"; then
        printf '%s\n' '{"id":10,"op":"shutdown"}' >&3
        IFS= read -r -t 30 _ <&3 || true
        exec 3>&- 3<&-
    fi
    if wait "$co_pid"; then
        echo "coalesce ok: graceful shutdown (exit 0)"
    else
        echo "coalesce FAILED: server exited non-zero"
        coalesce_status=1
    fi
else
    echo "coalesce FAILED: target/release/probterm missing (release build failed?)"
    coalesce_status=1
fi
if [ "$coalesce_status" -ne 0 ]; then
    echo "coalescing smoke test: FAILED"
    status=1
else
    echo "coalescing smoke test: OK"
fi

# ---------------------------------------------------------------------------
# Persistence smoke test: a `--cache-path` server computes a result, writes
# its snapshot on graceful shutdown under the `probterm-cache-v3-engine-2`
# stamp, and a freshly-booted server on the same path must load it without
# rejections and answer the identical request as a cache hit without an
# engine run. A snapshot restamped `probterm-cache-v2` (an older engine's)
# must then be rejected wholesale, so the request is computed afresh.
section "persistence smoke test"
persist_status=0
if [ -x target/release/probterm ]; then
    cache_file=$(mktemp -u /tmp/probterm-cache.XXXXXX.jsonl)
    persist_request='{"id":1,"op":"lower","program":"(fix phi x. if sample <= 1/2 then x else phi (x + 1)) 0","depth":35}'
    persist_round() { # persist_round <port> <required-substring> <label> [loaded|stale]
        local reply stats
        if ! exec 3<>"/dev/tcp/127.0.0.1/$1"; then
            echo "persist FAILED: cannot connect ($3)"
            persist_status=1
            return
        fi
        printf '%s\n' "$persist_request" >&3
        IFS= read -r -t 30 reply <&3 || reply=""
        case "$reply" in
            *"$2"*) echo "persist ok: $3" ;;
            *)
                echo "persist FAILED: $3 reply: $reply"
                persist_status=1
                ;;
        esac
        if [ -n "${4:-}" ]; then
            printf '%s\n' '{"id":3,"op":"stats"}' >&3
            IFS= read -r -t 30 stats <&3 || stats=""
            if [ "$4" = stale ]; then
                if printf '%s' "$stats" | grep -q '"cache_persist_rejected":1[,}]'; then
                    echo "persist ok: stale snapshot rejected once"
                else
                    echo "persist FAILED: stale snapshot counters: $stats"
                    persist_status=1
                fi
            elif printf '%s' "$stats" | grep -Eq '"cache_persist_loaded":[1-9]' &&
                printf '%s' "$stats" | grep -q '"cache_persist_rejected":0[,}]'; then
                echo "persist ok: snapshot loaded with no rejected lines"
            else
                echo "persist FAILED: snapshot load counters: $stats"
                persist_status=1
            fi
        fi
        printf '%s\n' '{"id":2,"op":"shutdown"}' >&3
        IFS= read -r -t 30 _ <&3 || true
        exec 3>&- 3<&-
    }
    persist_serve() { # persist_serve <required-substring> <label> [loaded|stale]
        local p_port p_pid
        p_port=$((21000 + RANDOM % 20000))
        target/release/probterm serve --addr "127.0.0.1:$p_port" --workers 1 \
            --cache-path "$cache_file" &
        p_pid=$!
        for _ in $(seq 1 100); do
            if (exec 3<>"/dev/tcp/127.0.0.1/$p_port") 2>/dev/null; then
                exec 3>&- 3<&-
                break
            fi
            sleep 0.1
        done
        persist_round "$p_port" "$@"
        if wait "$p_pid"; then
            echo "persist ok: $2: drained gracefully"
        else
            echo "persist FAILED: $2: server exited non-zero"
            persist_status=1
        fi
    }
    persist_serve '"cache":"miss"' "cold run computes"
    if [ -s "$cache_file" ]; then
        echo "persist ok: snapshot written on drain"
    else
        echo "persist FAILED: no snapshot at $cache_file"
        persist_status=1
    fi
    if [ "$(head -n 1 "$cache_file" 2>/dev/null)" = "probterm-cache-v3-engine-2" ]; then
        echo "persist ok: snapshot stamped probterm-cache-v3-engine-2"
    else
        echo "persist FAILED: snapshot stamp is '$(head -n 1 "$cache_file" 2>/dev/null)'"
        persist_status=1
    fi
    persist_serve '"cache":"hit"' "reborn server serves the snapshot" loaded
    sed -i '1s/.*/probterm-cache-v2/' "$cache_file"
    persist_serve '"cache":"miss"' "a v2 snapshot is recomputed" stale
    rm -f "$cache_file"
else
    echo "persist FAILED: target/release/probterm missing (release build failed?)"
    persist_status=1
fi
if [ "$persist_status" -ne 0 ]; then
    echo "persistence smoke test: FAILED"
    status=1
else
    echo "persistence smoke test: OK"
fi

section ""
echo "CI wall-clock: $SECONDS s"

if [ "$status" -ne 0 ]; then
    echo "CI: FAILED (status $status)"
else
    echo "CI: OK"
fi
exit "$status"
