#!/usr/bin/env python3
"""The momsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]
    python3 perfbench/run.py --record-reference

Run from the repository root. The first run configures and builds the
Release `momsim` and the traced harness `momsim_layers` into
.bench_build/ (perfbench/CMakeLists.txt); every run then:

  --trace 0  measures the workload end to end with tracing off and
             prints every end-to-end metric of BENCHMARK.json;
  --trace 1  serves the same inputs to a daemon once more (transport,
             scheduler gauges), then replays them through momsim_layers
             in alternating spans-off/spans-on pairs, and prints every
             per-layer metric and each layer's share of the time.
             The Chrome trace lands in .bench_build/out/.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Human-readable detail goes to stderr; a fuller record (seed,
sample counts, problems, host) goes to .bench_build/out/. Workloads,
metric definitions and the layer each per-layer metric should move are
in perfbench/README.md.

--report runs every workload once and prints each end-to-end metric
with its unit, sample count and failed/attempted, writing the same (plus
a host description) to .bench_build/out/report.json. --record-reference
rewrites perfbench/reference.json, the row digests every run checks
against; run it only on a commit whose results are the reference.
"""

import argparse
import hashlib
import json
import os
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib as bl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build")            # relative to ROOT (see main)
OUT = BUILD / "out"
MOMSIM = BUILD / "momsim" / "momsim"
LAYERS = BUILD / "momsim_layers"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("paper_sweep", "serve_mixed", "serve_warm")
JOBS = max(1, min(4, os.cpu_count() or 1))
CLIENTS = JOBS
SETUP_REPEATS = 5
# serve_* phases are measured in this many barrier-separated blocks and
# report per-block medians; paper_sweep repeats its sweep once per
# SWEEP_SECONDS of --seconds and reports the median sweep.
BLOCKS = 5
SWEEP_SECONDS = 10
# Samples a block needs so that 10 lie beyond its p95.
TAIL_SAMPLES = 200
PINGS = 20
# A traced run replays at most this many requests per client: the
# per-layer figures are per call, and serve_warm's full script would
# make a trace of millions of spans.
TRACE_MAX_PER_CLIENT = 500
# The traced run replays its inputs through the harness in this many
# spans-off/spans-on pairs; trace.overhead_frac is the median pair's
# ratio of request-replay walls.
# paper_sweep's pair lasts about 35 s, so it runs two, which keeps its
# traced run well inside the 180 s a run may take.
TRACE_PAIRS = {"paper_sweep": 2, "serve_mixed": 3, "serve_warm": 3}
# Script length per second of --seconds, set so that a phase lasts
# about --seconds on a 4-core Xeon; the scripts are fixed work, so a
# faster program finishes sooner rather than doing more.
MIXED_ROUNDS_PER_S = 50
WARM_REQUESTS_PER_S = 2000

PROCS = []      # every child still to be reaped, killed on the way out


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what="", count=1):
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.problems) < 50:
                self.problems.append(what)


class Metrics:
    def __init__(self):
        self.values = {}

    def set(self, name, value, samples=1):
        self.values[name] = (float(value), samples)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------


def build():
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "ab") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(JOBS),
                      "--target", "momsim", "momsim_layers"])
        for argv in steps:
            done = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=850)
            if done.returncode != 0:
                raise BenchError("build step failed (%s); see %s"
                                 % (" ".join(argv), BUILD / "build.log"))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def spawn(argv, **kw):
    proc = subprocess.Popen(argv, **kw)
    PROCS.append(proc)
    return proc


def reap(proc, timeout):
    """Wait for @proc with a kill deadline; (exit code, rusage)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    PROCS.remove(proc)
    return proc.returncode, usage


def run_timed(argv, stdout, stderr, timeout=170):
    """Run a CLI to completion: (exit code, wall s, cpu s, peak RSS MB)."""
    t0 = time.perf_counter()
    proc = spawn(argv, stdout=stdout, stderr=stderr)
    code, usage = reap(proc, timeout)
    wall = time.perf_counter() - t0
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def cleanup():
    for proc in list(PROCS):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        PROCS.remove(proc)


class Conn:
    """One closed-loop client connection to the daemon's unix socket."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(150)
        self.sock.connect(path)
        self.buf = b""

    def call(self, line):
        """Send one request line; (seconds to the reply's newline, reply)."""
        t0 = time.perf_counter()
        self.sock.sendall(line)
        buf = self.buf
        nl = buf.find(b"\n")
        while nl < 0:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("connection closed mid-response")
            start = len(buf)
            buf += chunk
            nl = buf.find(b"\n", start)
        elapsed = time.perf_counter() - t0
        self.buf = buf[nl + 1:]
        return elapsed, buf[:nl]

    def close(self):
        self.sock.close()


class Daemon:
    """A fresh `momsim serve` on a unix socket under the run directory."""

    def __init__(self, run_dir, tag, cache_dir):
        self.sock = str(run_dir / ("s%s" % tag))
        ready = run_dir / ("ready%s" % tag)
        self.t0 = time.perf_counter()
        with open(run_dir / ("serve%s.err" % tag), "wb") as err:
            self.proc = spawn(
                [str(MOMSIM), "serve", "--unix", self.sock, "--jobs",
                 str(JOBS), "--cache-dir", str(cache_dir), "--ready-file",
                 str(ready)], stdout=subprocess.DEVNULL, stderr=err)
        deadline = self.t0 + 120
        while not ready.exists():
            if self.proc.poll() is not None:
                PROCS.remove(self.proc)
                raise BenchError("momsim serve exited during startup; see %s"
                                 % (run_dir / ("serve%s.err" % tag)))
            if time.perf_counter() > deadline:
                raise BenchError("momsim serve never became ready")
            time.sleep(0.0005)

    def cpu_s(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self):
        """SIGTERM, drain, reap: (exit code, peak RSS MB)."""
        self.proc.send_signal(signal.SIGTERM)
        code, usage = reap(self.proc, 60)
        return code, usage.ru_maxrss / 1024


def ping(conn):
    _, reply = conn.call(b'{"kind":"ping"}\n')
    return json.loads(reply)


# ---------------------------------------------------------------------------
# Closed-loop phases
# ---------------------------------------------------------------------------

WALLMS = re.compile(rb'"wallMs":([0-9.eE+-]+),')


class Phase:
    """What one closed-loop phase sent and got back: records (client,
    script index, block, latency s, wallMs, bytes) and, per block, its
    wall, the growth of cpu() over it, and the points and committed_eq
    its correct replies answered."""

    def __init__(self, scripts, blocks):
        self.scripts = scripts
        self.blocks = blocks
        self.records = []
        self.walls = []
        self.cpus = []
        self.points = []
        self.committed = []
        self.errors = []


def run_phase(sock_path, scripts, blocks, check, cpu=lambda: 0.0):
    """Closed loop: one connection per client script, each with one
    request in flight, all driven from this thread through a selector,
    so no client threads contend for the interpreter lock. Each script
    splits into `blocks` consecutive chunks, and every client finishes a
    chunk before any starts the next, so each block is a measurement of
    its own. After each block, with the clock stopped, check(phase,
    replies) checks the block's replies (body without wallMs ->
    [(client, script index)]) and they are dropped, so a phase keeps
    one block of replies at a time."""
    phase = Phase(scripts, blocks)
    conns = {}
    for c in range(len(scripts)):
        try:
            conns[c] = Conn(sock_path)
        except OSError as e:
            phase.errors.append("client %d: connect: %s" % (c, e))
    sel = selectors.DefaultSelector()
    try:
        for b in range(blocks):
            todo = {c: iter(range(len(s) * b // blocks,
                                  len(s) * (b + 1) // blocks))
                    for c, s in enumerate(scripts)}
            sent = {}       # client -> (script index, send time)
            got = []        # (client, script index, latency s, reply)

            def send_next(c):
                i = next(todo[c], None)
                if i is None:
                    sel.unregister(conns[c].sock)
                    return
                sent[c] = (i, time.perf_counter())
                conns[c].sock.sendall(scripts[c][i].line)

            def drop(c, e):
                phase.errors.append("client %d: %s" % (c, e))
                if conns[c].sock in sel.get_map():
                    sel.unregister(conns[c].sock)
                conns.pop(c).close()

            t0, cpu0 = time.perf_counter(), cpu()
            for c in list(conns):
                sel.register(conns[c].sock, selectors.EVENT_READ, c)
                try:
                    send_next(c)
                except OSError as e:
                    drop(c, e)
            while sel.get_map():
                events = sel.select(timeout=150)
                if not events:
                    raise BenchError("no reply within 150 s")
                for key, _ in events:
                    c = key.data
                    conn = conns[c]
                    try:
                        chunk = conn.sock.recv(1 << 20)
                        if not chunk:
                            raise ConnectionError(
                                "connection closed mid-response")
                        start = len(conn.buf)
                        conn.buf += chunk
                        nl = conn.buf.find(b"\n", start)
                        if nl < 0:
                            continue
                        i, t = sent.pop(c)
                        got.append((c, i, time.perf_counter() - t,
                                    conn.buf[:nl]))
                        conn.buf = conn.buf[nl + 1:]
                        send_next(c)
                    except OSError as e:
                        drop(c, e)
            phase.walls.append(time.perf_counter() - t0)
            phase.cpus.append(cpu() - cpu0)

            replies = {}
            for (c, i, latency, reply) in got:
                m = WALLMS.search(reply)
                wall_ms = float(m.group(1)) if m else None
                body = reply[:m.start()] + reply[m.end():] if m else reply
                phase.records.append((c, i, b, latency, wall_ms,
                                      len(reply) + 1))
                replies.setdefault(body, []).append((c, i))
            check(phase, replies)
    finally:
        sel.close()
        for conn in conns.values():
            conn.close()
    return phase


def reply_check(reference, tally, warm):
    """run_phase's check: every reply against the reference, a request
    whose reply fails any check one failed operation; appends the
    block's answered points and committed_eq to the phase."""
    def check(phase, replies):
        points = committed = 0
        for body, sent in replies.items():
            try:
                doc = json.loads(body)
            except ValueError:
                doc = None
            verdicts = {}
            for c, i in sent:
                item = phase.scripts[c][i]
                if item.line not in verdicts:
                    verdicts[item.line] = check_reply(doc, item, reference,
                                                      warm)
                problems = verdicts[item.line]
                tally.op(not problems, "; ".join(problems[:2]))
                if not problems:
                    points += len(item.ids)
                    committed += sum(r["committed_eq"] for r in doc["rows"])
        phase.points.append(points)
        phase.committed.append(committed)
    return check


def check_answered(phase, tally):
    """Every request sent must have been answered."""
    missing = sum(len(s) for s in phase.scripts) - len(phase.records)
    if missing:
        tally.op(False, "%d request(s) never answered: %s"
                 % (missing, "; ".join(phase.errors)), count=missing)


def check_reply(doc, item, reference, warm):
    if doc is None:
        return ["unparseable reply"]
    if not doc.get("ok"):
        return ["ok:false %s" % json.dumps(doc.get("error"))]
    problems = bl.check_rows(doc.get("rows", []), item.ids, item.scale,
                             item.max_cycles, reference)
    plan = doc.get("plan", {})
    if plan.get("total") != len(item.ids):
        problems.append("plan.total %s, expected %d"
                        % (plan.get("total"), len(item.ids)))
    if warm and plan.get("simulated") != 0:
        problems.append("warm request simulated %s point(s)"
                        % plan.get("simulated"))
    return problems


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


def paper_items(seed, bench_ids):
    req = bl.bench_request("fig9", bl.derive_seed(seed, "paper"), quick=False)
    quick = bl.bench_request("fig9", bl.derive_seed(seed, "paper-quick"))
    return (bl.Item("sweep", req, bl.request_ids(req, bench_ids)),
            bl.Item("sweep", quick, bl.request_ids(quick, bench_ids)))


def warmup_item(workload, seed, k, bench_ids):
    """The request each daemon answers before it counts as set up: one
    tiny point, so planning builds the tiny workload. serve_mixed's is
    simulated (its own seed); serve_warm's is a stored row."""
    isa, threads, mem = bl.FIG9_POINTS[0]
    if workload == "serve_mixed":
        req = bl.point_request(isa, threads, mem,
                               bl.derive_seed(seed, "warmup", k),
                               bl.MIXED_MAX_CYCLES)
    else:
        req = bl.point_request(isa, threads, mem, bl.warm_seeds(seed)[0])
    return bl.Item("warmup", req, bl.request_ids(req, bench_ids))


def scripts_for(workload, seed, seconds, bench_ids):
    """The phase's scripts: about `seconds` of work, and never fewer
    than TAIL_SAMPLES single-point requests per block (the tail rule)."""
    if workload == "serve_mixed":
        per_block = -(-TAIL_SAMPLES // (bl.MIXED_SINGLES_PER_ROUND * CLIENTS))
        rounds = max(BLOCKS * per_block, round(seconds * MIXED_ROUNDS_PER_S))
        return bl.mixed_scripts(seed, CLIENTS, rounds, bench_ids)
    per_block = -(-3 * TAIL_SAMPLES // CLIENTS)   # a third are singles
    per_client = max(BLOCKS * per_block, round(seconds * WARM_REQUESTS_PER_S))
    return bl.warm_scripts(seed, CLIENTS, per_client, bench_ids)


def populate_args(seed):
    """momsim_layers arguments that fill a store with serve_warm's rows."""
    return ["--populate", ",".join(bl.WARM_BENCHES),
            "--seeds", ",".join(str(s) for s in bl.warm_seeds(seed))]


def run_layers(run_dir, store, args, spans):
    argv = [str(LAYERS), "--cache-dir", str(store), "--jobs", str(JOBS)]
    argv += args + ([] if spans else ["--no-spans"])
    with open(run_dir / "layers.err", "ab") as err:
        code, _, _, _ = run_timed(argv, subprocess.DEVNULL, err)
    if code != 0:
        raise BenchError("momsim_layers exited %d; see %s"
                         % (code, run_dir / "layers.err"))


# ---------------------------------------------------------------------------
# paper_sweep
# ---------------------------------------------------------------------------


def paper_sweep_e2e(run_dir, seed, seconds, reference, tally, metrics):
    ids = reference["benches"]["fig9"]
    seed_flag = ["--seed", str(bl.derive_seed(seed, "paper"))]
    setups = []
    for k in range(SETUP_REPEATS):
        code, wall, _, _ = run_timed(
            [str(MOMSIM), "fig9", "--dry-run", "--jobs", str(JOBS),
             "--cache-dir", str(fresh_dir(run_dir / ("dry%d" % k)))]
            + seed_flag, subprocess.DEVNULL, subprocess.DEVNULL)
        tally.op(code == 0, "fig9 --dry-run exited %d" % code)
        setups.append(wall)

    sweeps = []     # (wall, cpu, rss, committed_eq) per cold sweep
    for k in range(max(1, round(seconds / SWEEP_SECONDS))):
        rows_path = run_dir / ("fig9-%d.json" % k)
        table = run_dir / ("fig9-%d.out" % k)
        with open(table, "wb") as out:
            code, wall, cpu, rss = run_timed(
                [str(MOMSIM), "fig9", "--jobs", str(JOBS), "--cache-dir",
                 str(fresh_dir(run_dir / ("cache%d" % k))), "--json",
                 str(rows_path)] + seed_flag, out, subprocess.DEVNULL)
        rows = []
        if code == 0:
            with open(rows_path) as f:
                rows = json.load(f)
        problems = bl.check_rows(rows, ids, "paper", 0, reference["rows"])
        tally.op(code == 0 and not problems,
                 "fig9 exited %d; %s" % (code, "; ".join(problems[:2])),
                 count=len(ids))
        digest = hashlib.sha256(table.read_bytes()).hexdigest()[:20]
        tally.op(digest == reference["fig9_stdout"],
                 "fig9 stdout digest %s, reference %s"
                 % (digest, reference["fig9_stdout"]))
        sweeps.append((wall, cpu, rss, sum(r["committed_eq"] for r in rows)))

    med = statistics.median
    wall = med(s[0] for s in sweeps)
    n = len(sweeps)
    metrics.set("wall_s", wall, n)
    metrics.set("cpu_s", med(s[1] for s in sweeps), n)
    metrics.set("setup_s", med(setups), len(setups))
    metrics.set("peak_rss_mb", max(s[2] for s in sweeps), n)
    metrics.set("points_per_s", med(len(ids) / s[0] for s in sweeps), n)
    metrics.set("sim_minst_per_s", med(s[3] / s[0] / 1e6 for s in sweeps), n)
    # Each CLI run is one request of this workload.
    for name in ("req_p50_ms", "req_p95_ms", "small_req_p95_ms"):
        metrics.set(name, wall * 1000.0, n)


# ---------------------------------------------------------------------------
# serve_mixed / serve_warm
# ---------------------------------------------------------------------------


def start_set_up(workload, run_dir, tag, cache, item, reference, tally):
    """Spawn a daemon and answer one warm-up request on it; returns
    (daemon, connection, seconds from spawn to the warm-up reply)."""
    daemon = Daemon(run_dir, tag, cache)
    conn = Conn(daemon.sock)
    _, reply = conn.call(item.line)
    setup = time.perf_counter() - daemon.t0
    problems = check_reply(json.loads(reply), item, reference["rows"],
                           workload == "serve_warm")
    tally.op(not problems, "warm-up: " + "; ".join(problems[:2]))
    return daemon, conn, setup


def gauge_check(workload, pong, phase, warmup, tally):
    """serve_mixed: exactly-once — the daemon simulated each distinct
    point it was asked for once. serve_warm: it simulated nothing."""
    sent = [warmup] + [it for script in phase.scripts for it in script]
    answered = sum(len(it.ids) for it in sent)
    counted = (pong["pointsSimulated"] + pong["pointsDeduped"] +
               pong["memCacheHits"] + pong["diskCacheHits"])
    if workload == "serve_mixed":
        distinct = set()
        for it in sent:
            distinct |= bl.point_keys(it)
        want = len(distinct)
    else:
        want = 0
    tally.op(pong["pointsSimulated"] == want and counted == answered,
             "gauges: pointsSimulated %d (want %d), accounted %d of %d"
             % (pong["pointsSimulated"], want, counted, answered))


def serve_e2e(workload, run_dir, seed, seconds, reference, tally, metrics):
    bench_ids = reference["benches"]
    scripts = scripts_for(workload, seed, seconds, bench_ids)
    store = None
    if workload == "serve_warm":
        store = fresh_dir(run_dir / "store")
        run_layers(run_dir, store, ["--build", "tiny"] + populate_args(seed),
                   spans=False)

    setups = []
    for k in range(SETUP_REPEATS):
        cache = store or fresh_dir(run_dir / ("cache%d" % k))
        item = warmup_item(workload, seed, k, bench_ids)
        daemon, conn, setup = start_set_up(workload, run_dir, k, cache, item,
                                           reference, tally)
        setups.append(setup)
        if k + 1 < SETUP_REPEATS:
            conn.close()
            code, _ = daemon.stop()
            tally.op(code == 0, "serve exited %d" % code)

    phase = run_phase(daemon.sock, scripts, BLOCKS,
                      reply_check(reference["rows"], tally,
                                  workload == "serve_warm"), daemon.cpu_s)
    check_answered(phase, tally)
    gauge_check(workload, ping(conn), phase, item, tally)
    conn.close()
    code, rss = daemon.stop()
    tally.op(code == 0, "serve exited %d" % code)

    # Every timing is the median over the phase's blocks; totals are
    # blocks x the median block.
    walls = phase.walls
    lat = [[] for _ in walls]
    small = [[] for _ in walls]
    for (c, i, b, latency, _wall, _size) in phase.records:
        lat[b].append(latency * 1000.0)
        if phase.scripts[c][i].kind == "single":
            small[b].append(latency * 1000.0)
    for b in range(BLOCKS):
        for count, what in ((len(lat[b]), "requests"),
                            (len(small[b]), "single-point requests")):
            tally.op(bl.tail_ok(count, 95), "block %d: only %d %s, fewer "
                     "than 10 beyond p95" % (b, count, what))
    if not all(lat) or not all(small):
        raise BenchError("a block answered no requests")
    med = statistics.median
    n = len(phase.records)
    metrics.set("wall_s", BLOCKS * med(walls), BLOCKS)
    metrics.set("cpu_s", BLOCKS * med(phase.cpus), BLOCKS)
    metrics.set("setup_s", med(setups), len(setups))
    metrics.set("peak_rss_mb", rss)
    metrics.set("points_per_s",
                med(p / w for p, w in zip(phase.points, walls)), n)
    metrics.set("sim_minst_per_s",
                med(e / w / 1e6 for e, w in zip(phase.committed, walls)), n)
    metrics.set("req_p50_ms", med(bl.percentile(x, 50) for x in lat), n)
    metrics.set("req_p95_ms", med(bl.percentile(x, 95) for x in lat), n)
    metrics.set("small_req_p95_ms", med(bl.percentile(x, 95) for x in small),
                sum(len(x) for x in small))


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------


def write_phase_file(path, scripts):
    with open(path, "wb") as f:
        for c, items in enumerate(scripts):
            for item in items:
                f.write(b"%d\t" % c + item.line)


def traced(workload, run_dir, seed, seconds, reference, tally, metrics):
    bench_ids = reference["benches"]
    warm = workload == "serve_warm"

    # 1. The daemon, untraced, for the transport and the gauges.
    if workload == "paper_sweep":
        paper, quick = paper_items(seed, bench_ids)
        daemon_scripts = [[paper]]
        harness_phases = [[[paper]], [[quick]]]
        cache = fresh_dir(run_dir / "cache")
        warmup = None
    else:
        daemon_scripts = [s[:TRACE_MAX_PER_CLIENT] for s in
                          scripts_for(workload, seed, seconds, bench_ids)]
        warmup = warmup_item(workload, seed, 0, bench_ids)
        harness_phases = [[[warmup]], daemon_scripts]
        if warm:
            cache = fresh_dir(run_dir / "store")
            run_layers(run_dir, cache,
                       ["--build", "tiny"] + populate_args(seed), spans=False)
        else:
            cache = fresh_dir(run_dir / "cache")
    if warmup:
        daemon, conn, _ = start_set_up(workload, run_dir, "t", cache, warmup,
                                       reference, tally)
    else:
        daemon = Daemon(run_dir, "t", cache)
        conn = Conn(daemon.sock)
    phase = run_phase(daemon.sock, daemon_scripts, 1,
                      reply_check(reference["rows"], tally, warm),
                      daemon.cpu_s)
    check_answered(phase, tally)
    daemon_cpu = phase.cpus[0]
    rtts = []
    for _ in range(PINGS):
        t0 = time.perf_counter()
        pong = ping(conn)
        rtts.append((time.perf_counter() - t0) * 1000.0)
    if warmup:
        gauge_check(workload, pong, phase, warmup, tally)
    conn.close()
    code, _ = daemon.stop()
    tally.op(code == 0, "serve exited %d" % code)

    overhead = [r[3] * 1000.0 - r[4] for r in phase.records
                if r[4] is not None]
    submit = [r[4] for r in phase.records if r[4] is not None]
    if not overhead:
        raise BenchError("daemon phase answered no requests")
    metrics.set("transport.overhead_ms.p50", bl.percentile(overhead, 50),
                len(overhead))
    metrics.set("transport.overhead_ms.p95", bl.percentile(overhead, 95),
                len(overhead))
    metrics.set("transport.ping_ms", statistics.median(rtts), len(rtts))
    metrics.set("transport.response_kb",
                statistics.mean(r[5] for r in phase.records) / 1024.0,
                len(phase.records))
    metrics.set("svc.submit_ms.p50", bl.percentile(submit, 50), len(submit))
    answered = (pong["pointsSimulated"] + pong["pointsDeduped"] +
                pong["memCacheHits"] + pong["diskCacheHits"])
    metrics.set("sched.points_simulated", pong["pointsSimulated"])
    metrics.set("sched.points_deduped", pong["pointsDeduped"])
    metrics.set("sched.mem_cache_hits", pong["memCacheHits"])
    metrics.set("sched.disk_cache_hits", pong["diskCacheHits"])
    metrics.set("sched.reuse_ratio",
                (answered - pong["pointsSimulated"]) / answered
                if answered else 0.0)

    # 2. The harness over the same inputs, in spans-off/spans-on pairs
    # whose order alternates (off-on, on-off, ...), so a drift of the
    # host's speed during the run cancels out of the median ratio; the
    # last pair's spans-on run keeps its trace.
    phase_files = []
    for n, scripts in enumerate(harness_phases):
        path = run_dir / ("phase%d.txt" % n)
        write_phase_file(path, scripts)
        phase_files += ["--phase", str(path)]
    trace_path = OUT / ("trace-%s-seed%d.json" % (workload, seed))
    responses = run_dir / "responses.jsonl"
    ratios = []
    pairs = TRACE_PAIRS[workload]
    for pair in range(pairs):
        walls = {}
        for mode in ("off", "on") if pair % 2 == 0 else ("on", "off"):
            store = fresh_dir(run_dir / ("harness-" + mode))
            summary = run_dir / ("summary-%s.json" % mode)
            extra = ["--summary", str(summary)] + phase_files
            if mode == "on" and pair + 1 == pairs:
                extra += ["--trace-out", str(trace_path),
                          "--responses", str(responses)]
            run_layers(run_dir, store, (populate_args(seed) if warm else [])
                       + extra, spans=mode == "on")
            with open(summary) as f:
                walls[mode] = json.load(f)["replay_ms"]
        ratios.append(walls["on"] / walls["off"])
    metrics.set("trace.overhead_frac", statistics.median(ratios) - 1.0,
                len(ratios))

    # The harness answered the same requests: check its rows too.
    items = [it for scripts in harness_phases for s in scripts for it in s]
    check_harness_replies(responses, items, reference["rows"], warm, tally)

    with open(trace_path) as f:
        spans = bl.load_spans(json.load(f))
    selfs = bl.self_times(spans)
    for name, value in bl.layer_metrics(spans, selfs, JOBS).items():
        metrics.set(name, value)
    print_split(workload,
                bl.layer_self_times(bl.request_path(spans), selfs), walls,
                metrics.values["trace.unaccounted_frac"][0], phase, daemon_cpu)
    print("trace: %s" % trace_path, file=sys.stderr)


def print_split(workload, layers, walls, unaccounted, phase, daemon_cpu):
    """stderr: where the harness's time went, layer by layer, and what
    the daemon spent on transport."""
    work = sum(us for layer, us in layers.items() if layer != "waiting")
    print("%s: self time per layer over the served requests, last harness "
          "pair (replay %.0f ms traced, %.0f ms untraced):"
          % (workload, walls["on"], walls["off"]), file=sys.stderr)
    for layer, us in sorted(layers.items(), key=lambda kv: -kv[1]):
        share = ("%5.1f%%" % (100.0 * us / work) if layer != "waiting"
                 else "  (not work)")
        print("  %-12s %12.1f ms %s" % (layer, us / 1000.0, share),
              file=sys.stderr)
    print("  trace.unaccounted_frac over the whole harness run: %.3f"
          % unaccounted, file=sys.stderr)
    transport = sum(r[3] * 1000.0 - r[4] for r in phase.records
                    if r[4] is not None)
    print("daemon phase: %d requests, %.1f s daemon CPU, %.1f ms outside "
          "submit (client latency minus wallMs)"
          % (len(phase.records), daemon_cpu, transport), file=sys.stderr)


def check_harness_replies(path, items, reference, warm, tally):
    """Match the harness's replies (written in completion order) to the
    requests by their row ids and first per-task seed, and check each
    like a daemon reply."""
    want = {}
    for it in items:
        key = (tuple(it.ids), bl.mix_seed(it.seed, it.ids[0]))
        want.setdefault(key, [it, 0])[1] += 1
    bodies = {}
    with open(path, "rb") as f:
        for line in f:
            m = WALLMS.search(line)
            body = line[:m.start()] + line[m.end():] if m else line
            bodies[body] = bodies.get(body, 0) + 1
    got = {}
    for body, count in bodies.items():
        reply = json.loads(body)
        rows = reply.get("rows") or [{}]
        key = (tuple(r.get("id") for r in rows), rows[0].get("seed"))
        entry = want.get(key)
        problems = (check_reply(reply, entry[0], reference, warm) if entry
                    else ["reply matches no request"])
        tally.op(not problems, "harness: " + "; ".join(problems[:2]),
                 count=count)
        got[key] = got.get(key, 0) + count
    missing = sum(max(0, n - got.get(key, 0)) for key, (_, n) in want.items())
    if missing:
        tally.op(False, "harness: %d request(s) unanswered" % missing,
                 count=missing)


# ---------------------------------------------------------------------------
# Reference digests
# ---------------------------------------------------------------------------

# (bench, --quick, --max-cycles) sweeps whose rows the workloads check.
REFERENCE_SWEEPS = (("fig9", False, 0), ("fig4", True, 0), ("fig5", True, 0),
                    ("fig9", True, 0), ("fig9", True, bl.MIXED_MAX_CYCLES),
                    ("fig6", True, bl.MIXED_MAX_CYCLES))


def record_reference(run_dir):
    ref = {"benches": {}, "rows": {}}
    for bench, quick, max_cycles in REFERENCE_SWEEPS:
        out = run_dir / ("%s-%d-%d.json" % (bench, quick, max_cycles))
        argv = [str(MOMSIM), bench, "--jobs", str(JOBS), "--json", str(out)]
        argv += ["--quick"] if quick else []
        argv += ["--max-cycles", str(max_cycles)] if max_cycles else []
        table = run_dir / "stdout.txt"
        with open(table, "wb") as f:
            code, _, _, _ = run_timed(argv, f, subprocess.DEVNULL, timeout=600)
        if code != 0:
            raise BenchError("%s exited %d" % (" ".join(argv), code))
        with open(out) as f:
            rows = json.load(f)
        ref["benches"].setdefault(bench, [r["id"] for r in rows])
        if not quick:
            ref["fig9_stdout"] = hashlib.sha256(
                table.read_bytes()).hexdigest()[:20]
        for row in rows:
            key = bl.ref_key("tiny" if quick else "paper", max_cycles,
                             row["id"])
            digest = bl.row_digest(row)
            if ref["rows"].setdefault(key, digest) != digest:
                raise BenchError("two different rows for " + key)
        print("recorded %s (%d rows)" % (" ".join(argv[1:]), len(rows)),
              file=sys.stderr)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def load_benchmark():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def host_description():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(BUILD / "CMakeCache.txt") as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    k, v = line.rstrip("\n").split("=", 1)
                    cache[k.split(":", 1)[0]] = v
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    commit = "unknown (not a git checkout)"
    if Path(".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
            "commit": commit, "jobs": JOBS, "clients": CLIENTS}


def run_workload(workload, seed, seconds, trace, reference):
    """One benchmark run: (tally, metrics)."""
    run_dir = fresh_dir(BUILD / ("run-%d" % os.getpid()))
    tally = Tally()
    metrics = Metrics()
    try:
        if trace:
            traced(workload, run_dir, seed, seconds, reference, tally,
                   metrics)
        elif workload == "paper_sweep":
            paper_sweep_e2e(run_dir, seed, seconds, reference, tally,
                            metrics)
        else:
            serve_e2e(workload, run_dir, seed, seconds, reference, tally,
                      metrics)
    finally:
        cleanup()
        shutil.rmtree(run_dir, ignore_errors=True)
    return tally, metrics


def result_line(tally, metrics, names, units):
    missing = [n for n in names if n not in metrics.values]
    if missing:
        raise BenchError("metrics not produced: " + ", ".join(missing))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {n: {"value": metrics.values[n][0], "unit": units[n]}
                        for n in names}}


def record(workload, seed, seconds, trace, tally, metrics, names, units):
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "attempted": tally.attempted,
            "failed": tally.failed, "problems": tally.problems,
            "metrics": {n: {"value": metrics.values[n][0], "unit": units[n],
                            "samples": metrics.values[n][1]} for n in names}}


def report(seed, seconds, spec, units, reference):
    names = [m["name"] for m in spec["end_to_end"]]
    doc = {"host": host_description(), "seed": seed, "seconds": seconds,
           "workloads": {}}
    for workload in WORKLOADS:
        tally, metrics = run_workload(workload, seed, seconds, False,
                                      reference)
        rec = record(workload, seed, seconds, 0, tally, metrics, names, units)
        doc["workloads"][workload] = rec
        print("%s  seed %d  failed/attempted %d/%d  error_rate %.4f"
              % (workload, seed, tally.failed, tally.attempted,
                 tally.failed / max(1, tally.attempted)))
        for name in names:
            m = rec["metrics"][name]
            print("  %-18s %14.4f %-6s n=%d" % (name, m["value"], m["unit"],
                                                m["samples"]))
        for problem in tally.problems[:5]:
            print("  problem: " + problem)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "report.json", "w") as f:
        json.dump(doc, f, indent=1)
    print("wrote %s" % (OUT / "report.json"))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (args.workload or args.report or args.record_reference):
        ap.error("give --workload, --report or --record-reference")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    os.chdir(ROOT)
    # A terminated run still stops and reaps its children (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        if args.record_reference:
            run_dir = fresh_dir(BUILD / ("run-%d" % os.getpid()))
            try:
                record_reference(run_dir)
            finally:
                cleanup()
                shutil.rmtree(run_dir, ignore_errors=True)
            return 0
        spec, units = load_benchmark()
        with open(REFERENCE) as f:
            reference = json.load(f)
        if args.report:
            report(args.seed, args.seconds, spec, units, reference)
            return 0
        names = [m["name"] for m in
                 spec["per_layer" if args.trace else "end_to_end"]]
        t0 = time.perf_counter()
        tally, metrics = run_workload(args.workload, args.seed, args.seconds,
                                      args.trace, reference)
        line = result_line(tally, metrics, names, units)
        rec = record(args.workload, args.seed, args.seconds, args.trace,
                     tally, metrics, names, units)
        rec["host"] = host_description()
        rec["run_s"] = time.perf_counter() - t0
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                                     args.trace)), "w") as f:
            json.dump(rec, f, indent=1)
        print("%s seed %d trace %d: failed/attempted %d/%d in %.1f s"
              % (args.workload, args.seed, args.trace, tally.failed,
                 tally.attempted, rec["run_s"]), file=sys.stderr)
        for problem in tally.problems[:10]:
            print("  problem: " + problem, file=sys.stderr)
        print(json.dumps(line))
        return 0
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    finally:
        cleanup()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
