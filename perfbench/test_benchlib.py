"""Tests of the benchmark's own logic: python3 perfbench/test_benchlib.py"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib as bl  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "reference.json")) as f:
    REFERENCE = json.load(f)
BENCH_IDS = REFERENCE["benches"]


def span(sid, parent, start, end, name="x.y"):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "tid": 1, "req": 0, "args": {}}


class TailRule(unittest.TestCase):
    def test_ten_beyond_p95_needs_200_samples(self):
        self.assertEqual(bl.beyond(200, 95), 10)
        self.assertTrue(bl.tail_ok(200, 95))
        self.assertEqual(bl.beyond(199, 95), 9)
        self.assertFalse(bl.tail_ok(199, 95))
        self.assertTrue(bl.tail_ok(20, 50))

    def test_nearest_rank(self):
        values = list(range(1, 201))
        self.assertEqual(bl.percentile(values, 95), 190)
        self.assertEqual(bl.percentile(values, 50), 100)
        self.assertEqual(bl.percentile([7.0], 95), 7.0)
        # Exactly bl.beyond() samples lie above the reported value.
        self.assertEqual(sum(v > bl.percentile(values, 95) for v in values),
                         bl.beyond(len(values), 95))


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [span(1, 0, 0, 100),
                 span(2, 1, 10, 40),
                 span(3, 2, 20, 30),
                 span(4, 1, 30, 60),      # overlaps span 2 (other thread)
                 span(5, 1, 90, 120)]     # runs past its parent's end
        selfs = bl.self_times(spans)
        self.assertEqual(selfs[1], 100 - (50 + 10))
        self.assertEqual(selfs[2], 30 - 10)
        self.assertEqual(selfs[3], 10)
        self.assertEqual(selfs[4], 30)
        self.assertEqual(selfs[5], 30)

    def test_layer_totals(self):
        spans = [span(1, 0, 0, 100, "run"),
                 span(2, 1, 0, 60, "svc.request"),
                 span(3, 2, 10, 50, "kernel.run"),
                 span(4, 2, 5, 55, "sched.queue_wait")]
        totals = bl.layer_self_times(spans, bl.self_times(spans))
        self.assertEqual(totals, {"unaccounted": 40 + 10, "kernel": 40,
                                  "waiting": 50})

    def test_request_path_leaves_out_set_up(self):
        spans = [span(1, 0, 0, 100, "run"),
                 span(2, 1, 0, 10, "workloads.build"),
                 span(3, 1, 10, 60, "svc.request"),
                 span(4, 3, 10, 50, "kernel.run"),
                 span(5, 4, 20, 30, "store.put")]
        self.assertEqual([s["id"] for s in bl.request_path(spans)],
                         [3, 4, 5])


class Unaccounted(unittest.TestCase):
    def test_wrapper_self_time_is_unaccounted(self):
        # Two concurrent clients under the root, each with 10 us of glue
        # around its layer call, and 20 us of the root that no client
        # covers: 40 us lost out of 20 + 80 + 70 on the request path.
        spans = [span(1, 0, 0, 100, "run"),
                 span(2, 1, 0, 80, "svc.request"),
                 span(3, 2, 0, 70, "kernel.run"),
                 span(4, 1, 10, 80, "svc.request"),
                 span(5, 4, 10, 70, "store.find")]
        share = bl.unaccounted_share(spans, bl.self_times(spans))
        self.assertAlmostEqual(share, 40 / 170)

    def test_fully_covered_path(self):
        spans = [span(1, 0, 0, 100, "run"),
                 span(2, 1, 0, 100, "svc.request"),
                 span(3, 2, 0, 100, "kernel.run")]
        self.assertEqual(bl.unaccounted_share(spans, bl.self_times(spans)),
                         0.0)


class Digest(unittest.TestCase):
    ROW = {"id": "paper/MMX/1thr/perfect/IC", "workload": "paper",
           "isa": "MMX", "threads": 1, "mem": "perfect", "policy": "IC",
           "variant": "", "seed": 12345, "cycles": 311991,
           "committed_eq": 819161, "ipc": 2.6255853572038937,
           "eipc": 2.6255853572038937, "headline": 2.6255853572038937,
           "l1_hit_rate": 1, "icache_hit_rate": 1, "l1_avg_latency": 1,
           "mispredicts": 8133, "cond_branches": 90210, "completions": 8,
           "hit_cycle_limit": False, "sim_kcps": 2355.1, "wall_ms": 132.5}

    def reference(self):
        return {bl.ref_key("tiny", 0, self.ROW["id"]): bl.row_digest(self.ROW)}

    def check(self, row):
        return bl.check_rows([row], [self.ROW["id"]], "tiny", 0,
                             self.reference())

    def test_identical_row_passes(self):
        self.assertEqual(self.check(dict(self.ROW)), [])

    def test_one_field_change_fails(self):
        for field, value in (("cycles", 311992), ("mispredicts", 8134),
                             ("ipc", 2.7), ("hit_cycle_limit", True),
                             ("policy", "OC")):
            row = dict(self.ROW, **{field: value})
            self.assertTrue(self.check(row), field)

    def test_timing_and_seed_are_ignored(self):
        row = dict(self.ROW, seed=1, sim_kcps=1.0, wall_ms=9.0)
        self.assertEqual(self.check(row), [])

    def test_cli_precision_matches_exact_doubles(self):
        cli = dict(self.ROW, ipc=2.62559, eipc=2.62559, headline=2.62559)
        self.assertEqual(bl.row_digest(cli), bl.row_digest(self.ROW))

    def test_missing_field_and_wrong_ids_fail(self):
        row = dict(self.ROW)
        del row["cycles"]
        self.assertTrue(self.check(row))
        self.assertTrue(bl.check_rows([self.ROW], ["other"], "tiny", 0,
                                      self.reference()))


class Seeds(unittest.TestCase):
    def test_mix_seed_matches_driver(self):
        # A row momsim returned for request seed 7.
        self.assertEqual(bl.mix_seed(7, "paper/MMX/2thr/perfect/IC"),
                         17166253963057857899)

    def keys(self, scripts):
        out = set()
        for items in scripts:
            for item in items:
                out |= bl.point_keys(item)
        return out

    def test_two_seeds_give_disjoint_cache_keys(self):
        for make in (lambda s: bl.mixed_scripts(s, 4, 3, BENCH_IDS),
                     lambda s: bl.warm_scripts(s, 4, 60, BENCH_IDS)):
            a, b = self.keys(make(1)), self.keys(make(2))
            self.assertTrue(a)
            self.assertFalse(a & b)

    def test_work_does_not_depend_on_the_seed(self):
        def shape(scripts):
            return [[(it.kind, tuple(it.ids), it.max_cycles) for it in items]
                    for items in scripts]
        self.assertEqual(shape(bl.mixed_scripts(1, 4, 3, BENCH_IDS)),
                         shape(bl.mixed_scripts(2, 4, 3, BENCH_IDS)))
        self.assertEqual(shape(bl.warm_scripts(1, 4, 60, BENCH_IDS)),
                         shape(bl.warm_scripts(2, 4, 60, BENCH_IDS)))

    def test_mixed_singles_are_distinct_and_shared_sweeps_shared(self):
        scripts = bl.mixed_scripts(5, 4, 2, BENCH_IDS)
        singles = [it.seed for items in scripts for it in items
                   if it.kind == "single"]
        self.assertEqual(len(singles), len(set(singles)))
        shared = {it.line for items in scripts for it in items
                  if it.kind == "shared"}
        self.assertEqual(len(shared), 2)


if __name__ == "__main__":
    unittest.main()
