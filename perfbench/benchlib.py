"""Pure logic of the momsim benchmark (perfbench/run.py).

Seeded request scripts, percentiles and the tail rule, span self-times,
row digests and the per-layer metrics derived from a harness trace.
Nothing here starts processes or touches files, so test_benchlib.py
covers it directly.
"""

import hashlib
import json
import math
from collections import defaultdict

MASK64 = (1 << 64) - 1

# ---------------------------------------------------------------------------
# Seeds and cache keys
# ---------------------------------------------------------------------------


def derive_seed(seed, *purpose):
    """A 63-bit request seed from the benchmark seed and a purpose path.

    Every request seed of a run comes from here, so two benchmark seeds
    give unrelated request seeds and no run replays another's rows.
    """
    digest = hashlib.sha256(repr((seed,) + purpose).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def mix_seed(base, key):
    """driver::mixSeed: the per-task seed a point derives from its
    request seed and canonical id (FNV-1a folded in by SplitMix64)."""
    h = 0xCBF29CE484222325
    for c in key.encode():
        h ^= c
        h = (h * 0x100000001B3) & MASK64
    z = base ^ h
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

# Figure 9's coordinates: each ISA with its best fetch policy, 1/2/4/8
# threads, perfect/conventional/decoupled memory. Single-point requests
# cycle through all 24, so every run covers every kernel and memory
# configuration the per-layer metrics split by.
FIG9_POINTS = [
    (isa, threads, mem)
    for isa in ("mmx", "mom")
    for threads in (1, 2, 4, 8)
    for mem in ("perfect", "conventional", "decoupled")
]
POLICY_OF = {"mmx": "ic", "mom": "oc"}
ROW_ISA = {"mmx": "MMX", "mom": "MOM"}
ROW_POLICY = {"ic": "IC", "oc": "OC"}

# serve_mixed caps every simulation at this many cycles (as momsim
# loadgen does, at 20000), so a point costs about 0.15 ms of simulation
# and the kernel does about half of a request's work: queueing, dedup,
# the row cache, store appends and JSON weigh in the latency
# (perfbench/README.md gives the measured split).
MIXED_MAX_CYCLES = 300
MIXED_SINGLES_PER_ROUND = 10
SHARED_BENCH = "fig9"
LARGE_BENCH = "fig6"

# serve_warm replays these quick sweeps over WARM_SEEDS seeds each.
WARM_BENCHES = ("fig4", "fig5", "fig9")
WARM_SEEDS = 64

CLIENT_TAG = "bench"


def point_id(isa, threads, mem):
    """The canonical row id of a Figure 9 coordinate."""
    return "paper/%s/%dthr/%s/%s" % (ROW_ISA[isa], threads, mem,
                                     ROW_POLICY[POLICY_OF[isa]])


def point_request(isa, threads, mem, seed, max_cycles=0):
    req = {"schemaVersion": 1, "id": "", "client": CLIENT_TAG,
           "isas": [isa], "threads": [threads], "memModels": [mem],
           "policies": [POLICY_OF[isa]], "quick": True, "seed": seed}
    if max_cycles:
        req["maxCycles"] = max_cycles
    return req


def bench_request(bench, seed, quick=True, max_cycles=0):
    req = {"schemaVersion": 1, "id": "", "client": CLIENT_TAG,
           "bench": bench, "quick": quick, "seed": seed}
    if max_cycles:
        req["maxCycles"] = max_cycles
    return req


def encode(req):
    return (json.dumps(req, separators=(",", ":")) + "\n").encode()


class Item:
    """One scripted request: its kind, the line sent, the row ids it
    asks for, and the request fields the checks need."""

    __slots__ = ("kind", "line", "ids", "seed", "max_cycles", "scale")

    def __init__(self, kind, req, ids):
        self.kind = kind
        self.line = encode(req)
        self.ids = ids
        self.seed = req["seed"]
        self.max_cycles = req.get("maxCycles", 0)
        self.scale = "tiny" if req["quick"] else "paper"


def request_ids(req, bench_ids):
    """Row ids a request answers, in sweep order."""
    if "bench" in req:
        return list(bench_ids[req["bench"]])
    isa = req["isas"][0]
    return [point_id(isa, req["threads"][0], req["memModels"][0])]


def point_keys(item):
    """The cache-key identity of every point a request answers:
    (cycle cap, canonical id, per-task seed)."""
    return {(item.max_cycles, pid, mix_seed(item.seed, pid))
            for pid in item.ids}


def mixed_scripts(seed, clients, rounds, bench_ids):
    """serve_mixed: per client, `rounds` rounds of ten single points
    (per-client seeds), one Figure 9 sweep every client sends
    identically (shared seed), and one per-client Figure 6 sweep.

    Which coordinates and benches a request names does not depend on
    the seed, only the request seeds do, so work counts repeat exactly
    across seeds."""
    scripts = []
    for c in range(clients):
        items = []
        for r in range(rounds):
            for k in range(MIXED_SINGLES_PER_ROUND):
                isa, threads, mem = FIG9_POINTS[
                    (c * 6 + r * MIXED_SINGLES_PER_ROUND + k)
                    % len(FIG9_POINTS)]
                req = point_request(isa, threads, mem,
                                    derive_seed(seed, "single", c, r, k),
                                    MIXED_MAX_CYCLES)
                items.append(Item("single", req,
                                  request_ids(req, bench_ids)))
                if k == 4:
                    req = bench_request(SHARED_BENCH,
                                        derive_seed(seed, "shared", r),
                                        max_cycles=MIXED_MAX_CYCLES)
                    items.append(Item("shared", req,
                                      request_ids(req, bench_ids)))
            req = bench_request(LARGE_BENCH, derive_seed(seed, "large", c, r),
                                max_cycles=MIXED_MAX_CYCLES)
            items.append(Item("large", req, request_ids(req, bench_ids)))
        scripts.append(items)
    return scripts


def warm_seeds(seed):
    return [derive_seed(seed, "warm", k) for k in range(WARM_SEEDS)]


def warm_scripts(seed, clients, per_client, bench_ids):
    """serve_warm: every third request is a single stored point, the
    rest are whole quick sweeps; each names one of the stored seeds.
    The kinds and coordinates are fixed, the seed picks the rows."""
    seeds = warm_seeds(seed)
    scripts = []
    for c in range(clients):
        items = []
        for i in range(per_client):
            pick = seeds[derive_seed(seed, "warm-pick", c, i) % len(seeds)]
            if i % 3 == 2:
                isa, threads, mem = FIG9_POINTS[(i * 7 + c) % len(FIG9_POINTS)]
                req = point_request(isa, threads, mem, pick)
                kind = "single"
            else:
                req = bench_request(WARM_BENCHES[(i + c) % len(WARM_BENCHES)],
                                    pick)
                kind = "sweep"
            items.append(Item(kind, req, request_ids(req, bench_ids)))
        scripts.append(items)
    return scripts


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct%
    of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count, pct):
    """How many of `count` samples lie above the nearest-rank pct-ile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_ok(count, pct, need=10):
    """The tail rule: report a percentile only with `need` samples
    beyond it."""
    return beyond(count, pct) >= need


# ---------------------------------------------------------------------------
# Row digests
# ---------------------------------------------------------------------------

ROW_FIELDS = ("id", "workload", "isa", "threads", "mem", "policy", "variant",
              "cycles", "committed_eq", "ipc", "eipc", "headline",
              "l1_hit_rate", "icache_hit_rate", "l1_avg_latency",
              "mispredicts", "cond_branches", "completions",
              "hit_cycle_limit")
FLOAT_FIELDS = {"ipc", "eipc", "headline", "l1_hit_rate", "icache_hit_rate",
                "l1_avg_latency"}
INT_FIELDS = {"threads", "cycles", "committed_eq", "mispredicts",
              "cond_branches", "completions"}


def row_digest(row):
    """Digest of a result row without its timing fields (sim_kcps,
    wall_ms) and per-run seed. Doubles compare at the CLI's %.6g
    precision, so --json rows and service rows digest alike. None when
    a field is missing or malformed."""
    canon = []
    try:
        for field in ROW_FIELDS:
            value = row[field]
            if field in FLOAT_FIELDS:
                value = format(float(value), ".6g")
            elif field in INT_FIELDS:
                value = int(value)
            canon.append(value)
    except (KeyError, TypeError, ValueError):
        return None
    blob = json.dumps(canon, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def ref_key(scale, max_cycles, pid):
    return "%s:%d:%s" % (scale, max_cycles, pid)


def check_rows(rows, ids, scale, max_cycles, reference):
    """Problems with a response's rows against the reference digests:
    the expected ids in order, each row's digest equal to the one
    recorded for (workload scale, cycle cap, id)."""
    problems = []
    if [r.get("id") for r in rows] != list(ids):
        problems.append("rows %s, expected %s" %
                        ([r.get("id") for r in rows], list(ids)))
        return problems
    for row in rows:
        want = reference.get(ref_key(scale, max_cycles, row["id"]))
        got = row_digest(row)
        if want is None or got != want:
            problems.append("row %s digest %s, reference %s" %
                            (row["id"], got, want))
    return problems


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def load_spans(trace):
    """Spans of a Chrome trace written by momsim_layers: complete events
    plus begin/end pairs, each with its id, parent, request and args."""
    spans = []
    opened = {}
    for ev in trace["traceEvents"]:
        ph = ev.get("ph")
        if ph == "X":
            args = dict(ev.get("args", {}))
            spans.append({"name": ev["name"], "start": ev["ts"],
                          "end": ev["ts"] + ev["dur"], "tid": ev["tid"],
                          "id": args.pop("span"), "parent": args.pop("parent"),
                          "req": args.pop("req"), "args": args})
        elif ph == "b":
            opened[ev["id"]] = ev
        elif ph == "e":
            begin = opened.pop(ev["id"])
            args = dict(begin.get("args", {}))
            spans.append({"name": begin["name"], "start": begin["ts"],
                          "end": ev["ts"], "tid": begin["tid"],
                          "id": args.pop("span"), "parent": args.pop("parent"),
                          "req": args.pop("req"), "args": args})
    return spans


def union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover
    (children may run on other threads and overlap each other)."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# Spans that time the harness's own structure, not a layer's public
# function: their self time (glue, waits on a point another request is
# simulating) is what no layer accounts for.
WRAPPER_SPANS = frozenset(("run", "svc.request", "bench.populate"))
# Spans that time a wait rather than work; they overlap the work they
# wait for, so they are totalled apart from it.
WAIT_SPANS = frozenset(("sched.queue_wait",))


def layer_of(name):
    """The layer a span's self time counts for: the prefix of its name,
    "unaccounted" for wrapper spans and "waiting" for waits."""
    if name in WRAPPER_SPANS:
        return "unaccounted"
    if name in WAIT_SPANS:
        return "waiting"
    return name.split(".", 1)[0]


def layer_self_times(spans, selfs):
    """Total self time per layer (see layer_of), in microseconds;
    `selfs` is self_times(spans)."""
    out = defaultdict(float)
    for s in spans:
        out[layer_of(s["name"])] += selfs[s["id"]]
    return dict(out)


def request_path(spans):
    """The spans of served requests: every svc.request span and the
    spans under it, without set-up such as workload builds."""
    by_id = {s["id"]: s for s in spans}
    memo = {}

    def served(sid):
        chain = []
        while sid in by_id and sid not in memo:
            if by_id[sid]["name"] == "svc.request":
                memo[sid] = True
                break
            chain.append(sid)
            sid = by_id[sid]["parent"]
        verdict = memo.get(sid, False)
        for c in chain:
            memo[c] = verdict
        return verdict

    return [s for s in spans if served(s["id"])]


def unaccounted_share(spans, selfs):
    """The share of the harness's time that no layer call covers.

    The harness's time is each wrapper span's duration minus what its
    wrapper children cover: the root's wall, with each concurrent
    client counting its own timeline. The unaccounted part is the
    wrappers' self time."""
    wrapped = defaultdict(list)
    for s in spans:
        if s["name"] in WRAPPER_SPANS:
            wrapped[s["parent"]].append(s)
    lost = total = 0.0
    for s in spans:
        if s["name"] not in WRAPPER_SPANS:
            continue
        lost += selfs[s["id"]]
        total += (s["end"] - s["start"]) - union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in wrapped[s["id"]])
    return _ratio(lost, total)


def _mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def kernel_ns_per_inst(runs):
    return _ratio(1000.0 * sum(s["end"] - s["start"] for s in runs),
                  sum(s["args"]["committed_eq"] for s in runs))


def layer_metrics(spans, selfs, workers):
    """Per-layer metrics computable from the harness trace alone;
    `selfs` is self_times(spans)."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)
    dur = lambda s: s["end"] - s["start"]  # noqa: E731  (microseconds)
    m = {}

    builds = {s["args"]["scale"]: s for s in by["workloads.build"]}
    paper = builds["paper"]
    m["workloads.build_s.paper"] = dur(paper) / 1e6
    m["workloads.build_s.tiny"] = dur(builds["tiny"]) / 1e6
    m["workloads.ns_per_trace_inst"] = _ratio(1000.0 * dur(paper),
                                              paper["args"]["insts"])
    m["workloads.arena_mb"] = paper["args"]["arena_bytes"] / 2**20

    plans = by["plan.sweep"]
    points = sum(s["args"]["points"] for s in plans)
    m["plan.us_per_point"] = _ratio(sum(dur(s) for s in plans), points)
    m["plan.points"] = points

    final_open = max(by["store.open"], key=lambda s: s["start"])
    m["store.rows"] = final_open["args"]["rows"]
    m["store.open_us_per_row"] = _ratio(dur(final_open), m["store.rows"])
    finds = by["store.find"]
    m["store.find_us"] = _mean(dur(s) for s in finds)
    m["store.put_us"] = _mean(dur(s) for s in by["store.put"])
    m["store.hit_ratio"] = _ratio(sum(s["args"]["hit"] for s in finds),
                                  len(finds))

    waits = [dur(s) / 1000.0 for s in by["sched.queue_wait"]]
    m["sched.queue_wait_ms.p50"] = percentile(waits, 50) if waits else 0.0
    m["sched.queue_wait_ms.p95"] = percentile(waits, 95) if waits else 0.0
    runs = by["kernel.run"]
    constructs = by["kernel.construct"]
    busy = sum(dur(s) for s in runs) + sum(dur(s) for s in constructs)
    if runs:
        window = (max(s["end"] for s in runs) -
                  min(s["start"] for s in by["sched.queue_wait"] + runs))
    else:
        window = 0.0
    m["sched.worker_busy_frac"] = _ratio(busy, workers * window)
    per_req = defaultdict(list)
    for s in runs:
        per_req[s["req"]].append(s)
    heaviest = max(per_req.values(), key=lambda rs: sum(dur(s) for s in rs),
                   default=[])
    m["sched.tail_s"] = ((max(s["end"] for s in heaviest) -
                          max(s["start"] for s in heaviest)) / 1e6
                         if heaviest else 0.0)

    main_scale = "paper" if any(s["args"]["scale"] == "paper"
                                for s in runs) else "tiny"
    main = [s for s in runs if s["args"]["scale"] == main_scale]
    m["kernel.ns_per_inst"] = kernel_ns_per_inst(main)
    for isa in ("MMX", "MOM"):
        m["kernel.ns_per_inst." + isa.lower()] = kernel_ns_per_inst(
            [s for s in main if s["args"]["isa"] == isa])
    for t in (1, 2, 4, 8):
        m["kernel.ns_per_inst.t%d" % t] = kernel_ns_per_inst(
            [s for s in main if s["args"]["threads"] == t])
    m["kernel.ns_per_inst.tiny"] = kernel_ns_per_inst(
        [s for s in runs if s["args"]["scale"] == "tiny"])
    m["kernel.ns_per_cycle"] = _ratio(1000.0 * sum(dur(s) for s in main),
                                      sum(s["args"]["cycles"] for s in main))
    m["kernel.construct_us"] = _mean(dur(s) for s in constructs)
    m["kernel.cycles"] = sum(s["args"]["cycles"] for s in runs)
    m["kernel.committed_eq"] = sum(s["args"]["committed_eq"] for s in runs)
    m["kernel.ff_skip_frac"] = _ratio(
        sum(s["args"]["idle_cycles_skipped"] for s in runs), m["kernel.cycles"])
    m["kernel.squash_frac"] = _ratio(sum(s["args"]["squashed"] for s in runs),
                                     sum(s["args"]["fetched"] for s in runs))

    # A real hierarchy's cost: its ns per instruction minus the
    # perfect-memory point's at the same ISA and thread count.
    by_config = defaultdict(list)
    for s in main:
        by_config[(s["args"]["isa"], s["args"]["threads"],
                   s["args"]["mem"])].append(s)
    for mem in ("conventional", "decoupled"):
        deltas = [kernel_ns_per_inst(by_config[(isa, t, mem)]) -
                  kernel_ns_per_inst(by_config[(isa, t, "perfect")])
                  for (isa, t, model) in list(by_config)
                  if model == mem and (isa, t, "perfect") in by_config]
        m["mem.ns_per_inst." + mem] = _mean(deltas)
    real = [s for s in main if s["args"]["mem"] != "perfect"]
    m["mem.l1_accesses_per_inst"] = _ratio(
        sum(s["args"]["l1_accesses"] for s in real),
        sum(s["args"]["committed_eq"] for s in real))

    m["svc.parse_us"] = _mean(dur(s) for s in by["svc.parse"])
    to_json = by["svc.to_json"]
    m["svc.to_json_us_per_row"] = _ratio(sum(dur(s) for s in to_json),
                                         sum(s["args"]["rows"]
                                             for s in to_json))

    m["trace.unaccounted_frac"] = unaccounted_share(spans, selfs)
    return m
