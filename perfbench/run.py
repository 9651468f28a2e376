#!/usr/bin/env python3
"""perfbench: end-to-end benchmark of `standoff-xq` through its real surfaces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness builds `standoff-xq` and
the in-process probe (`perfbench/probe`) from source with cargo (target
directory: $CARGO_TARGET_DIR, default `.bench_build`), generates the
workload from the seed, sets the system up, computes the expected
answers, and then runs a closed loop for S seconds, checking every
answer. Workloads (BENCHMARK.json says why each was chosen):

  call-fresh      `serve` over TCP, a fresh connection per request,
                  paper-Q1-shaped person lookups on XMark 0.02
  annotate-cycle  the CLI: `annotate --journal` batches and reads, a
                  checkpointing `annotate`, `compact`, on a token/entity
                  corpus
  session-fig6    `serve` over kept-alive connections, the paper's
                  StandOff Q1/Q2/Q6/Q7 plus a select-wide probe, XMark
                  0.1; run by hand only, not in BENCHMARK.json: its
                  figures follow the host's speed by more than the
                  bounds allow (README.md)

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A traced run
replays the same operations in-process with spans around the calls
into each module (`perfbench-probe serve-replay|cycle-replay`) and
attributes the latency the client saw. The line before it is
`{"detail": ...}`: every metric the workload has, including the ones
only some workloads have (writes, serve spans, the Figure 6 ladder),
tail percentiles with their sample counts, and ratios with their bases.

`attempted` and `failed` count the workload's operations plus the
known-defect probes (`Result.defects`): a probe reproduces a defect
of the program that the workload's own traffic does not reach, and
counts as one failed operation for as long as the defect is there.
It does not make the run incorrect.

Exit codes: 0 done and every answer of the workload right; 1 a wrong
answer or a failed operation of the workload (the JSON line is still
printed); 2 the harness could not run (no checkout, build failure,
set-up failure), with no JSON line.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
from client import FreshClient, KeepAliveClient, ProtocolError  # noqa: E402

CLIENTS = max(1, min(2, os.cpu_count() or 1))
SETUP_REPS = 7
# Fixed per workload so that a run never switches percentile (a faster
# program completes more reads); each leaves well over 10 samples beyond
# it at BENCHMARK.json's run length.
READ_TAIL_PCT = {"call-fresh": 95, "session-fig6": 99, "annotate-cycle": 80}
TAIL_LADDER = [99, 95, 90, 75, 50]
REPLAY_LIMIT = 300
FIG6_CUTOFF_MS = 2000
SENTINEL = "@@perfbench@@"


def metric_units(kind):
    """(name, unit) of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json defines; the result line reports exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


class BenchError(Exception):
    """The harness cannot run (exit 2, no result line)."""


# ---- processes ----

LIVE = []


def spawn(args, **kw):
    proc = subprocess.Popen(args, **kw)
    LIVE.append(proc)
    return proc


def stop_all():
    for proc in LIVE:
        if proc.poll() is None:
            proc.kill()
    for proc in LIVE:
        try:
            proc.wait(timeout=10)
        except (subprocess.TimeoutExpired, ChildProcessError):
            pass


class Cli:
    """One finished `standoff-xq` process: wall time (spawn to exit),
    exit code, output, peak RSS."""

    def __init__(self, args, cwd=None):
        started = time.perf_counter()
        proc = spawn(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd)
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.code = proc.returncode
        self.out = out.decode()
        self.err = err.decode()
        self.rss_kb = usage.ru_maxrss

    def ok(self, what):
        if self.code != 0:
            raise BenchError(f"{what} failed (exit {self.code}): {self.err.strip()[-2000:]}")
        return self


def build():
    """Build `standoff-xq` and the probe; return their paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isfile(
        os.path.join(ROOT, "src", "bin", "standoff-xq.rs")
    ):
        raise BenchError(f"{ROOT} is not a standoff checkout (no Cargo.toml / standoff-xq source)")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    for args in (
        ["cargo", "build", "--release", "--offline", "--bin", "standoff-xq"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "probe", "Cargo.toml")],
    ):
        done = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(args)}")
    xq = os.path.join(target, "release", "standoff-xq")
    probe = os.path.join(target, "release", "perfbench-probe")
    for path in (xq, probe):
        if not os.path.isfile(path):
            raise BenchError(f"build produced no {path}")
    return xq, probe


# ---- small statistics ----


def percentile(values, pct):
    """Linear-interpolated percentile of a non-empty list."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values, pct):
    """The tail statistic with the facts the report states about it."""
    value = percentile(values, pct)
    return {"percentile": pct, "samples": len(values),
            "beyond": sum(1 for v in values if v > value), "value": value}


def median(values):
    return statistics.median(values) if values else None


def fnv64(text):
    h = 0xCBF29CE484222325
    for b in text.encode():
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


# ---- batch answers through the CLI ----


def batch_answers(xq, work, corpus_args, queries, name):
    """Evaluate queries with `standoff-xq batch`; one reply per query.
    A sentinel query between them makes the output unambiguous."""
    path = os.path.join(work, f"{name}.queries")
    with open(path, "w") as f:
        for q in queries:
            f.write(q + "\n" + f'"{SENTINEL}"' + "\n")
    out = Cli([xq, "batch", *corpus_args, path]).ok(f"batch {name}").out
    parts = out.split(SENTINEL + "\n")
    if len(parts) != len(queries) + 1 or parts[-1] != "":
        raise BenchError(f"batch {name}: cannot split {len(parts)} part(s)")
    return [p[:-1] for p in parts[:-1]]


# ---- the serve workloads ----


class Server:
    """A `standoff-xq serve` process on an ephemeral loopback port."""

    def __init__(self, xq, snap, log):
        self.proc = spawn(
            [xq, "serve", "--listen", "127.0.0.1:0", "--store", snap],
            stdout=subprocess.PIPE, stderr=log, text=True,
        )
        line = self.proc.stdout.readline()
        m = re.match(r"listening on ([0-9.]+):(\d+)", line)
        if not m:
            raise BenchError(f"serve did not start: {line!r}")
        self.addr = (m.group(1), int(m.group(2)))

    def wait_ready(self, timeout=30.0):
        deadline = time.perf_counter() + timeout
        while True:
            try:
                reply = FreshClient(self.addr, timeout=5).request("ping")
                if reply.ok and reply.body == "pong":
                    return
            except (OSError, ProtocolError):
                pass
            if time.perf_counter() > deadline:
                raise BenchError("serve never answered ping")
            time.sleep(0.002)

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise BenchError("no VmHWM for the server")

    def stop(self):
        try:
            FreshClient(self.addr, timeout=10).request("shutdown")
        except (OSError, ProtocolError):
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"serve exited with {self.proc.returncode}")


class Op:
    __slots__ = ("index", "payload", "latency", "ok", "end", "connect", "first_byte", "error",
                 "reply")

    def __init__(self, index, payload):
        self.index = index
        self.payload = payload
        self.latency = None
        self.ok = False
        self.end = None
        self.connect = None
        self.first_byte = None
        self.error = None
        self.reply = None


def closed_loop(seconds, make_client, stream, expected, trace):
    """CLIENTS callers, each sending its next request as soon as the
    previous reply is in, until the window closes. Requests are drawn
    from one seeded stream in order."""
    lock = threading.Lock()
    counter = [0]
    records = []
    started = time.perf_counter()
    deadline = started + seconds

    def caller():
        client = make_client()
        try:
            while time.perf_counter() < deadline:
                with lock:
                    op = Op(counter[0], next(stream))
                    counter[0] += 1
                try:
                    reply = client.request(op.payload)
                    op.latency = reply.total
                    op.ok = reply.ok and reply.body == expected[op.payload]
                    if not op.ok:
                        op.error = "wrong answer" if reply.ok else reply.body[:200]
                    if trace:
                        op.connect = reply.connect
                        op.first_byte = reply.first_byte
                except (OSError, ProtocolError) as e:
                    op.error = str(e)
                op.end = time.perf_counter()
                records.append(op)
        finally:
            client.close()

    threads = [threading.Thread(target=caller) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records.sort(key=lambda op: op.index)
    window = max([op.end for op in records] + [deadline]) - started
    return records, window


def serve_workload(ctx, scale, fresh):
    xq, probe, work = ctx.xq, ctx.probe, ctx.work
    info = json.loads(Cli([probe, "xmark", "--scale", str(scale), "--seed", str(loadgen.XMARK_SEED),
                           "--out", work]).ok("corpus generation").out)
    so_xml = os.path.join(work, "so.xml")
    std_xml = os.path.join(work, "std.xml")

    setup_times, index_times = [], []
    log = open(os.path.join(work, "serve.log"), "w")
    server = None
    for rep in range(SETUP_REPS):
        snap = os.path.join(work, f"xmark{rep}.snap")
        t0 = time.perf_counter()
        index = Cli([xq, "index", so_xml, "-o", snap, "--uri", loadgen.XMARK_URI]).ok("index")
        server = Server(xq, snap, log)
        server.wait_ready()
        setup_times.append(time.perf_counter() - t0)
        index_times.append(index.wall)
        if rep < SETUP_REPS - 1:
            server.stop()
            os.remove(snap)
    snap = os.path.join(work, f"xmark{SETUP_REPS - 1}.snap")

    # Expected answers, before timing: every distinct query text under
    # another strategy than the server's, cross-checked against the
    # standard-document twin through the tree path.
    store_args = ["--store", snap, "--strategy", "basic"]
    twin_args = ["--load", f"{loadgen.XMARK_URI}={std_xml}"]
    if fresh:
        persons = info["persons"]
        texts = [loadgen.person_query(p) for p in range(persons)]
        replies = batch_answers(xq, work, store_args, texts, "persons")
        twins = batch_answers(xq, work, twin_args,
                              [loadgen.person_twin(p) for p in range(persons)], "person-twins")
        for p, (reply, twin) in enumerate(zip(replies, twins)):
            if twin != "1" or reply.count("<name ") != 1:
                raise BenchError(f"person{p}: StandOff reply {reply!r} disagrees with twin {twin}")
        expected = {"query\n" + t: r for t, r in zip(texts, replies)}
        stream = loadgen.call_fresh_stream(ctx.seed, persons)
    else:
        names = list(loadgen.FIG6_QUERIES)
        replies = dict(zip(names, batch_answers(
            xq, work, store_args, [loadgen.FIG6_QUERIES[n] for n in names], "fig6")))
        twin_names = list(loadgen.FIG6_TWINS)
        twins = batch_answers(xq, work, twin_args,
                              [loadgen.FIG6_TWINS[n][0] for n in twin_names], "fig6-twins")
        for name, twin in zip(twin_names, twins):
            derived = loadgen.FIG6_TWINS[name][1](replies[name.split("-")[0]])
            if derived != twin:
                raise BenchError(f"{name}: StandOff answer {derived} disagrees with twin {twin}")
        expected = {"query\n" + loadgen.FIG6_QUERIES[n]: replies[n] for n in names}
        stream = loadgen.session_stream(ctx.seed)
        # Warm-up: every query text once, so the timed window compiles nothing.
        warm = KeepAliveClient(server.addr)
        for payload, reply in expected.items():
            got = warm.request(payload)
            if not got.ok or got.body != reply:
                raise BenchError("warm-up answer differs from the expected answer")
        warm.close()

    make_client = (lambda: FreshClient(server.addr)) if fresh else (
        lambda: KeepAliveClient(server.addr))
    records, window = closed_loop(ctx.seconds, make_client, stream, expected, ctx.trace)

    stats = json.loads(FreshClient(server.addr).request("stats").body)
    peak_kb = server.peak_rss_kb()
    server.stop()
    log.close()

    done = [op for op in records if op.latency is not None]
    lat_ms = [op.latency * 1e3 for op in done]
    ok = sum(1 for op in records if op.ok)
    tail_stats = tail(lat_ms, READ_TAIL_PCT[ctx.workload])
    hits = stats["counters"].get("plan_cache.hits", 0)
    misses = stats["counters"].get("plan_cache.misses", 0)
    result = Result(ctx, records)
    result.e2e = {
        "setup_s": median(setup_times),
        "read_p50_ms": median(lat_ms),
        "read_tail_ms": tail_stats["value"],
        "throughput_ops_s": ok / window,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "space_amp": file_size(snap) / info["so_bytes"],
    }
    labels = {"query\n" + text: name for name, text in loadgen.FIG6_QUERIES.items()}
    by_query = defaultdict(list)
    for op in done:
        by_query[labels.get(op.payload, "person")].append(op.latency * 1e3)
    result.detail.update({
        "read_tail": tail_stats,
        "read_ms_by_query": {name: {"samples": len(v), "p50": median(v),
                                    "p99": percentile(v, 99)} for name, v in by_query.items()},
        "clients": CLIENTS,
        "connections": "fresh per request" if fresh else "kept alive",
        "corpus": {"xmark_scale": scale, "std_bytes": info["std_bytes"],
                   "so_bytes": info["so_bytes"], "snapshot_bytes": file_size(snap),
                   "persons": info["persons"]},
        "setup_s_samples": setup_times,
        "xquery.plan_cache.hit_ratio": {
            "value": hits / max(1, hits + misses),
            "base": f"{hits + misses} plan-cache lookups over the whole run (serve stats verb)"},
    })
    result.index_ms = [t * 1e3 for t in index_times]
    if ctx.trace:
        serve_trace(ctx, result, records, snap, expected)
    return result


def serve_trace(ctx, result, records, snap, expected):
    # The window's last requests: the replay follows them within seconds,
    # so a drift of the host's speed splits the two least.
    replayed = [op for op in records if op.latency is not None][-REPLAY_LIMIT:]
    ops_path = os.path.join(ctx.work, "replay.ops")
    with open(ops_path, "wb") as f:
        for op in replayed:
            f.write(loadgen.frame(op.payload.split("\n", 1)[1]))
    out = os.path.join(ctx.work, "replay.tsv")
    Cli([ctx.probe, "serve-replay", "--snap", snap, "--ops", ops_path, "--out", out]).ok("replay")
    trace = Trace(out)
    hashes = {op.payload: fnv64(expected[op.payload]) for op in replayed}
    for k, op in enumerate(replayed):
        if trace.hashes.get(k) != hashes[op.payload]:
            result.fail(f"replayed op {k} answered differently from the server")
    governed = [trace.span_ms(k, "xquery.governed") for k in range(len(replayed))]
    serialize = [trace.span_ms(k, "xml.serialize") for k in range(len(replayed))]
    lat = [op.latency * 1e3 for op in replayed]
    remainder = [lt - g - s for lt, g, s in zip(lat, governed, serialize)]
    share = [r / lt for r, lt in zip(remainder, lat)]
    layer = result.layer
    layer.update(trace.common())
    layer["xquery.governed_ms"] = median(governed)
    layer["serve.connect_ms"] = median([op.connect * 1e3 for op in replayed])
    layer["serve.first_byte_ms"] = median([op.first_byte * 1e3 for op in replayed])
    layer["serve.remainder_ms"] = median(remainder)
    layer["serve.remainder_share"] = median(share)
    layer["unattributed_ms"] = layer["serve.remainder_ms"]
    layer["unattributed_share"] = layer["serve.remainder_share"]
    sheds = trace.value(-1, "executor.sheds")
    attempts = trace.value(-1, "executor.attempts")
    layer["executor.sheds_ratio"] = sheds / attempts
    result.bases.update({
        "serve.remainder_share": f"per-request (read latency - xquery.governed - "
                                 f"xml.serialize) / read latency, median over {len(replayed)} "
                                 f"replayed requests",
        "executor.sheds_ratio": f"{sheds:.0f} sheds / {attempts:.0f} governed attempts",
    })
    replayed_p50 = median(lat)
    result.detail["attribution"] = {
        "read_p50_ms": result.e2e["read_p50_ms"],
        "replayed_read_p50_ms": replayed_p50,
        "serve.remainder_share": layer["serve.remainder_share"],
        "governed_plus_serialize_ms": layer["xquery.governed_ms"] + layer["xml.serialize_ms"],
        "governed_plus_serialize_share_of_read_p50":
            (layer["xquery.governed_ms"] + layer["xml.serialize_ms"]) / replayed_p50,
        "base": f"read p50 of the {len(replayed)} replayed requests as the client saw them",
    }
    fig6(ctx, result)


def fig6(ctx, result):
    out = os.path.join(ctx.work, "fig6.tsv")
    Cli([ctx.probe, "fig6", "--cutoff-ms", str(FIG6_CUTOFF_MS),
         "--out", out]).ok("fig6")
    cells = defaultdict(list)
    with open(out) as f:
        for line in f:
            _, q, variant, size, size_bytes, value = line.rstrip("\n").split("\t")
            key = f"fig6.{q.lower()}.{variant}"
            ms = None if value == "DNF" else int(value) / 1e6
            result.layer[f"{key}.{size}_ms"] = ms if ms is not None else "DNF"
            if ms is not None:
                cells[key].append((int(size_bytes), ms))
    for key in sorted(cells):
        points = cells[key]
        if len(points) >= 2:
            xs = [math.log(b) for b, _ in points]
            ys = [math.log(ms) for _, ms in points]
            mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
            slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
                (x - mx) ** 2 for x in xs)
            result.layer[f"{key}.exponent"] = slope
    ll = result.layer.get("fig6.q2.loop-lifted.exponent")
    basic = result.layer.get("fig6.q2.basic.exponent")
    ordered = ll is not None and basic is not None and ll < basic
    result.detail["fig6_check"] = {
        "claim": "Q2: loop-lifted exponent below basic exponent (paper Figure 6)",
        "loop-lifted": ll, "basic": basic, "holds": ordered,
        "sizes": "XMark 0.01/0.05/0.1, standard document bytes; cutoff "
                 f"{FIG6_CUTOFF_MS} ms per run",
    }
    if not ordered:
        result.fail("Figure 6 ordering check failed on Q2")


# ---- annotate-cycle ----


def annotate_cycle(ctx):
    xq, probe, work = ctx.xq, ctx.probe, ctx.work
    model = loadgen.CycleModel(ctx.seed)
    inputs = {"base.xml": model.base_xml(), "tokens.xml": model.tokens_xml(),
              "entities.xml": model.entities_xml()}
    for name, text in inputs.items():
        with open(os.path.join(work, name), "w") as f:
            f.write(text)
    input_bytes = sum(len(t.encode()) for t in inputs.values())
    cycle_dir = os.path.join(work, "cycle")
    os.mkdir(cycle_dir)

    setup_times = []
    index_args = ["--uri", loadgen.CORPUS_URI, "--layer",
                  f"tokens={os.path.join(work, 'tokens.xml')}",
                  "--layer", f"entities={os.path.join(work, 'entities.xml')}"]
    for rep in range(SETUP_REPS):
        snap = os.path.join(cycle_dir, f"init{rep}.snap")
        index = Cli([xq, "index", os.path.join(work, "base.xml"), "-o", snap, *index_args])
        setup_times.append(index.ok("index").wall)
    for rep in range(SETUP_REPS - 1):
        os.remove(os.path.join(cycle_dir, f"init{rep}.snap"))
    pin = checkpoint_retag_pin(xq, work)
    os.rename(os.path.join(cycle_dir, f"init{SETUP_REPS - 1}.snap"),
              os.path.join(cycle_dir, "s0.snap"))
    if ctx.trace:
        os.mkdir(os.path.join(work, "replay"))
        shutil.copy(os.path.join(cycle_dir, "s0.snap"), os.path.join(work, "replay", "s0.snap"))

    records, log = [], []
    plan = loadgen.cycle_plan()
    cycle, step, cycles_done = 0, 0, 0
    snap, sidecar = "s0.snap", "s0.delta"
    overlay_reply = None
    written, op_bytes, peak_kb = 0, 0, 0

    def path(name):
        return os.path.join(cycle_dir, name)

    started = time.perf_counter()
    deadline = started + ctx.seconds
    # Whole cycles only: the window closes at the first cycle boundary
    # after the deadline, so every run weighs early- and late-cycle
    # operations (small and large pending deltas) alike.
    while step != 0 or time.perf_counter() < deadline:
        kind = plan[step]
        op = Op(len(records), kind)
        has_delta = os.path.exists(path(sidecar)) or os.path.exists(path(sidecar + ".wal"))
        if kind in ("journal", "checkpoint"):
            text, effect = model.batch()
            ops_file = path("batch.ops")
            with open(ops_file, "w") as f:
                f.write(text)
            before = file_size(path(sidecar + ".wal"))
            args = [xq, "annotate", "--store", snap, "--delta", sidecar, "batch.ops"]
            if kind == "journal":
                args.insert(2, "--journal")
            run = Cli(args, cwd=cycle_dir)
            op.ok = run.code == 0
            if op.ok:
                model.acknowledge(effect)
                op_bytes += len(text.encode())
                written += (file_size(path(sidecar + ".wal")) - before if kind == "journal"
                            else file_size(path(sidecar)))
            log.append(f"annotate\t{snap}\t{sidecar}\t{kind}\n{text}")
        elif kind == "compact":
            new = f"s{cycle + 1}.snap"
            run = Cli([xq, "compact", "--store", snap, "--delta", sidecar, "-o", new],
                      cwd=cycle_dir)
            op.ok = run.code == 0
            written += file_size(path(new))
            log.append(f"compact\t{snap}\t{sidecar}\t{new}\n")
            if op.ok:
                for old in (snap, sidecar, sidecar + ".wal"):
                    if os.path.exists(path(old)):
                        os.remove(path(old))
                model.cycle_reset()
                cycle += 1
                cycles_done += 1
                snap, sidecar = new, f"s{cycle}.delta"
                has_delta = False
        if kind in ("read", "identity"):
            if kind == "read":
                text, predicted = model.read()
            else:
                text, predicted_w = model.identity_read()
            args = [xq, "query", "--store", snap, "--query", text]
            if has_delta:
                args[4:4] = ["--delta", sidecar]
            run = Cli(args, cwd=cycle_dir)
            reply = run.out[:-1] if run.out.endswith("\n") else run.out
            if kind == "read":
                op.ok = run.code == 0 and reply == predicted
            elif has_delta:
                overlay_reply = reply
                op.ok = run.code == 0 and reply.count("<w ") == predicted_w
            else:
                op.ok = run.code == 0 and reply == overlay_reply
            log.append(f"query\t{snap}\t{sidecar if has_delta else '-'}\n{text}")
            if ctx.trace:
                op.reply = reply
        op.latency = run.wall
        op.end = time.perf_counter()
        if not op.ok:
            op.error = run.err.strip()[-300:] or "wrong answer"
        peak_kb = max(peak_kb, run.rss_kb)
        records.append(op)
        step = (step + 1) % len(plan)
    window = records[-1].end - started

    reads = [op for op in records if op.payload in ("read", "identity")]
    writes = [op for op in records if op.payload not in ("read", "identity")]
    read_ms = [op.latency * 1e3 for op in reads]
    write_ms = [op.latency * 1e3 for op in writes]
    ok = sum(1 for op in records if op.ok)
    on_disk = sum(file_size(os.path.join(cycle_dir, n)) for n in (snap, sidecar, sidecar + ".wal"))
    read_tail = tail(read_ms, READ_TAIL_PCT[ctx.workload])
    result = Result(ctx, records)
    result.e2e = {
        "setup_s": median(setup_times),
        "read_p50_ms": median(read_ms),
        "read_tail_ms": read_tail["value"],
        "throughput_ops_s": ok / window,
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "space_amp": on_disk / input_bytes,
    }
    by_kind = defaultdict(list)
    for op in records:
        by_kind[op.payload].append(op.latency * 1e3)
    result.detail.update({
        "read_tail": read_tail,
        "write_p50_ms": {"value": median(write_ms), "unit": "ms", "samples": len(write_ms)},
        "write_tail_ms": dict(tail(write_ms, next(
            (p for p in TAIL_LADDER if len(write_ms) * (100 - p) / 100 >= 10), 50)), unit="ms"),
        "p50_ms_by_kind": {k: median(v) for k, v in by_kind.items()},
        "ops_by_kind": {k: len(v) for k, v in by_kind.items()},
        "cycles_completed": cycles_done,
        "clients": 1,
        "flush_policy": "fsync per WAL append; temp+fsync+rename+fsync(dir) for checkpoint "
                        "and compaction (the program's defaults)",
        "corpus": {"tokens": len(model.starts), "entities": len(model.entities),
                   "input_bytes": input_bytes},
        "setup_s_samples": setup_times,
        "space_amp_base": f"{on_disk} bytes on disk (snapshot + sidecar + WAL) / "
                          f"{input_bytes} bytes of input XML",
    })
    result.defects["checkpoint_drops_same_key_retract_insert"] = pin
    result.index_ms = [t * 1e3 for t in setup_times]
    if ctx.trace:
        cycle_trace(ctx, result, records, log, written, op_bytes)
    return result


def checkpoint_retag_pin(xq, work):
    """Known-defect probe, outside the timed window: a checkpointing
    `annotate` writes pending inserts before pending retracts, so
    replaying the sidecar lets the retract of an annotation cancel its
    own re-insert (a re-tag: the retract-and-re-insert update idiom)
    and the acknowledged update is lost. The timed workload's batches
    split, merge and move annotations but never re-tag one, so this
    probe is where the defect shows: while it is there, the probe is a
    failed operation in the result line."""
    pin = os.path.join(work, "pin")
    os.mkdir(pin)
    with open(os.path.join(pin, "base.xml"), "w") as f:
        f.write("<text>Alice met Bob</text>")
    with open(os.path.join(pin, "tokens.xml"), "w") as f:
        f.write('<tokens><w start="0" end="4"/><w start="10" end="12"/></tokens>')
    with open(os.path.join(pin, "entities.xml"), "w") as f:
        f.write("<entities/>")
    with open(os.path.join(pin, "ops"), "w") as f:
        f.write("retract tokens w 0 4\ninsert tokens w 0 4 pos=NOUN\n")
    Cli([xq, "index", "base.xml", "-o", "pin.snap", "--uri", loadgen.CORPUS_URI,
         "--layer", "tokens=tokens.xml", "--layer", "entities=entities.xml"], cwd=pin).ok("index")
    Cli([xq, "annotate", "--store", "pin.snap", "--delta", "pin.delta", "ops"],
        cwd=pin).ok("annotate")
    got = Cli([xq, "query", "--store", "pin.snap", "--delta", "pin.delta", "--query",
               f'count(doc("{loadgen.CORPUS_URI}#tokens")//w[@pos])'], cwd=pin).ok("query")
    return {"present": got.out.strip() != "1", "expected": "1", "got": got.out.strip(),
            "ops": "retract tokens w 0 4 / insert tokens w 0 4 pos=NOUN, one checkpointing "
                   "annotate, then count(//w[@pos]) over the sidecar"}


def cycle_trace(ctx, result, records, log, written, op_bytes):
    ops_path = os.path.join(ctx.work, "replay.ops")
    with open(ops_path, "wb") as f:
        for payload in log:
            f.write(loadgen.frame(payload))
    out = os.path.join(ctx.work, "replay.tsv")
    Cli([ctx.probe, "cycle-replay", "--dir", os.path.join(ctx.work, "replay"), "--snap",
         "s0.snap", "--ops", ops_path, "--out", out]).ok("replay")
    trace = Trace(out)
    for k, op in enumerate(records):
        if op.reply is not None and trace.hashes.get(k) != fnv64(op.reply):
            result.fail(f"replayed op {k} answered differently from the CLI")
    walls = [op.latency * 1e3 for op in records]
    remainder = [w - trace.top_ms(k) for k, w in enumerate(walls)]
    share = [r / w for r, w in zip(remainder, walls)]
    layer = result.layer
    layer.update(trace.common())
    layer["cli.remainder_ms"] = median(remainder)
    layer["unattributed_ms"] = layer["cli.remainder_ms"]
    layer["unattributed_share"] = median(share)
    for name in ("store.delta_replay", "xquery.mount_overlay", "store.wal_append",
                 "store.checkpoint", "store.compact", "store.save", "store.delta_apply"):
        layer[f"{name}_ms"] = median(trace.all_spans.get(name, []))
    reads = [k for k, op in enumerate(records) if op.payload in ("read", "identity")]
    layer["join.merge_reads"] = trace.mean_value(reads, "join.merge_reads")
    layer["join.delta_cand_rows"] = trace.mean_value(reads, "join.delta_cand_rows")
    layer["store.write_amp"] = written / max(1, op_bytes)
    result.bases.update({
        "cli.remainder_ms": f"process wall time - replayed spans, median over "
                            f"{len(walls)} CLI operations",
        "unattributed_share": "per-operation remainder / process wall time, median",
        "store.write_amp": f"{written} bytes written (WAL growth, checkpoint sidecars, "
                           f"compacted snapshots) / {op_bytes} bytes of acknowledged op text",
        "join.merge_reads": "mean per read",
    })


# ---- traces ----


class Trace:
    """A replay's TSV output (see perfbench/probe/src/trace.rs)."""

    def __init__(self, path):
        self.spans = defaultdict(lambda: defaultdict(float))  # req -> name -> ms
        self.top = defaultdict(float)  # req -> ms in top-level spans
        self.all_spans = defaultdict(list)  # name -> [ms]
        self.values = defaultdict(dict)  # req -> name -> value
        self.hashes = {}
        with open(path) as f:
            for line in f:
                rec = line.rstrip("\n").split("\t")
                req = int(rec[1])
                if rec[0] == "S":
                    ms = (int(rec[4]) - int(rec[3])) / 1e6
                    self.spans[req][rec[2]] += ms
                    self.all_spans[rec[2]].append(ms)
                    if rec[5] == "-1":
                        self.top[req] += ms
                elif rec[0] == "C":
                    self.values[req][rec[2]] = float(rec[3])
                elif rec[0] == "H":
                    self.hashes[req] = rec[2]

    def span_ms(self, req, name):
        return self.spans[req].get(name, 0.0)

    def top_ms(self, req):
        return self.top[req]

    def value(self, req, name):
        return self.values[req].get(name, 0.0)

    def mean_value(self, reqs, name):
        return sum(self.value(r, name) for r in reqs) / max(1, len(reqs))

    def common(self):
        """The per-layer metrics every workload has."""
        queries = sorted(r for r in self.spans if r >= 0 and "xquery.execute" in self.spans[r])
        per_op = lambda name: median([self.spans[r][name] for r in queries])  # noqa: E731
        out = {
            "xquery.compile_ms": per_op("xquery.compile"),
            "xquery.execute_ms": per_op("xquery.execute"),
            "xml.serialize_ms": per_op("xml.serialize"),
            "xml.reply_bytes": median([self.value(r, "xml.reply_bytes") for r in queries]),
            "store.open_ms": median(self.all_spans["store.open"]),
            "store.materialize_ms": median(self.all_spans["store.materialize"]),
            "xquery.mount_ms": median(self.all_spans["xquery.mount"]),
        }
        # Means, not medians: a class absent from most queries of a mix
        # still shows, and the classes add up to the profiled execution.
        for cls in ("join", "step", "predicate", "construct", "other"):
            out[f"op.{cls}.self_ms"] = self.mean_value(queries, f"op.{cls}.self_ns") / 1e6
        for name in ("candidate_scans", "candidate_node_view", "candidate_repr_dense",
                     "candidate_repr_sparse", "candidate_dense_blocks", "morsels_dispatched"):
            out[f"join.{name}"] = self.mean_value(queries, f"join.{name}")
        on, off = self.value(-1, "trace.on_ns"), self.value(-1, "trace.off_ns")
        out["trace_overhead"] = (on - off) / off
        out["trace_overhead_base"] = (f"recorder on {on / 1e6:.3f} ms vs off {off / 1e6:.3f} ms "
                                      f"over {self.value(-1, 'trace.ops'):.0f} replayed reads, "
                                      f"each read once per mode, alternating")
        return out


# ---- results ----


class Result:
    def __init__(self, ctx, records):
        self.ctx = ctx
        self.records = records
        self.e2e = {}
        self.layer = {}
        self.bases = {}
        self.detail = {"workload": ctx.workload, "seed": ctx.seed, "seconds": ctx.seconds}
        self.index_ms = []
        self.problems = []
        self.defects = {}  # known-defect probe name -> its outcome

    def fail(self, why):
        self.problems.append(why)

    def emit(self):
        present = [name for name, probe in self.defects.items() if probe["present"]]
        attempted = len(self.records) + len(self.defects)
        failed = sum(1 for op in self.records if not op.ok) + len(present)
        if self.defects:
            self.detail["known_defects"] = dict(self.defects, failed=present)
        self.detail["error_ratio"] = {
            "value": failed / max(1, attempted),
            "base": f"{failed} failed or wrong of {attempted} attempted operations, "
                    f"known-defect probes included"}
        errors = [f"op {op.index} ({op.payload.splitlines()[0][:40]}): {op.error}"
                  for op in self.records if not op.ok][:5]
        self.problems.extend(errors)
        if self.ctx.trace:
            self.layer["cli.index_ms"] = median(self.index_ms)
            metrics = {name: {"value": float(self.layer[name]), "unit": unit}
                       for name, unit in metric_units("per_layer")}
            self.detail["layers"] = self.layer
            self.detail["bases"] = self.bases
        else:
            metrics = {name: {"value": float(self.e2e[name]), "unit": unit}
                       for name, unit in metric_units("end_to_end")}
        self.detail["end_to_end"] = self.e2e
        self.detail["problems"] = self.problems
        correct = not self.problems
        print(json.dumps({"detail": self.detail}))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["call-fresh", "session-fig6", "annotate-cycle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ctx = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ctx.trace = bool(ctx.trace)
    ctx.work = os.path.join(ROOT, ".perfbench_work", f"{ctx.workload}-{ctx.seed}-{os.getpid()}")
    try:
        ctx.xq, ctx.probe = build()
        os.makedirs(ctx.work)
        if ctx.workload == "annotate-cycle":
            result = annotate_cycle(ctx)
        else:
            fresh = ctx.workload == "call-fresh"
            result = serve_workload(ctx, 0.02 if fresh else 0.1, fresh)
        return result.emit()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        stop_all()
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
