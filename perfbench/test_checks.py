"""Self-tests of the benchmark: every output check must be able to fail.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run a tiny DriftBot grid (8 cells, horizon 60, fixed thresholds) so
they finish in seconds; the workloads themselves are not run here.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import EXACT, PER_LAYER, Tracer, instrument, layer_metrics  # noqa: E402

TINY = {
    "env_id": "DriftBot",
    "horizon": 60,
    "onset_t": 20,
    "ensemble": {"t_pre": 120, "m_members": 2, "epochs": 5, "hidden_width": 16},
    "thresholds": {"tau_low": 0.5, "tau_high": 1.5},
    "grid": {"po_levels": [0.0, 0.5], "delay_levels": [0, 1], "shift_levels": [None, wl.GAIN_FAULT], "seeds": [0]},
}


def flip_byte(path: str, offset: int = 10) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([b[0] ^ 0x01]))


class BenchChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cq = wl.load_toolkit(os.path.join(ROOT, "src"))
        cls.cfg = cls.cq.package.config_from_dict(TINY)
        cls.snapshot = cls.cq.package.calibrate(cls.cfg)
        os.makedirs(bench_run.OUT, exist_ok=True)

    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(dir=bench_run.OUT)
        self.tmp = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def monitor(self, name: str) -> wl.Rep:
        return wl.monitor_rep(self.cq, self.cfg, self.snapshot, os.path.join(self.tmp, name))

    def test_clean_monitor_repeat_has_no_cell_failures(self):
        reps = [self.monitor("a"), self.monitor("b")]
        wl.compare_digests(reps)
        self.assertEqual([f for r in reps for f in r.failures if f[0] is not None], [])
        self.assertEqual(reps[0].digests, reps[1].digests)

    def test_tampered_trace_breach_is_reported(self):
        rep = self.monitor("a")
        cell = rep.cells[3]
        path = wl.trace_path(os.path.join(self.tmp, "a"), cell)
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        step = next(s for s in lines[1:-1] if s["any_compliant"])
        step["predicted_risk"] = step["delta_budget"] + 1e-9
        with open(path, "w") as fh:
            fh.write("\n".join(json.dumps(s, sort_keys=True) for s in lines) + "\n")
        failures, _ = wl.check_trace_tree(os.path.join(self.tmp, "a"), rep.cells, self.cfg.horizon)
        self.assertEqual([c for c, _ in failures], [cell])
        self.assertIn("risk-budget breach", failures[0][1])
        self.assertEqual(wl.Rep(1.0, rep.cells, failures).failed_cells(), 1)

    def test_flipped_report_byte_fails_the_repeat(self):
        real = self.cq.package.run_sweep

        def flipping_sweep(*args, **kwargs):
            outcome = real(*args, **kwargs)
            flip_byte(os.path.join(kwargs["out_dir"], "degradation.csv"))
            return outcome

        first = self.monitor("a")
        self.cq.package.run_sweep = flipping_sweep
        try:
            second = self.monitor("b")
        finally:
            self.cq.package.run_sweep = real
        wl.compare_digests([first, second])
        self.assertTrue(any("degradation.csv" in msg for _, msg in second.failures))
        self.assertEqual(second.failed_cells(), len(second.cells))

    def test_flipped_report_byte_in_resume_tree_is_reported(self):
        paths = wl.prepare_tree(self.cq, TINY, os.path.join(self.tmp, "work"))
        flip_byte(os.path.join(paths["tree"], "degradation.csv"))
        rep = wl.analyze_rep(self.cq, wl.AnalyzeBaseline(self.cq, paths), seed=0, n_samples=50)
        self.assertTrue(any(c is None and "degradation.csv" in msg for c, msg in rep.failures))

    def test_digest_differing_from_the_expected_one_is_reported(self):
        for name in wl.WORKLOADS:
            expected = wl.expected_digests(name)
            self.assertTrue(expected, name)
            self.assertEqual(wl.check_expected(name, dict(expected)), [])
            key = sorted(expected)[0]
            changed = {**expected, key: "0" * 64}
            self.assertEqual(len(wl.check_expected(name, changed)), 1)
            self.assertIn(key, wl.check_expected(name, changed)[0])

    def test_deleted_cell_in_resume_tree_is_reported(self):
        paths = wl.prepare_tree(self.cq, TINY, os.path.join(self.tmp, "work"))
        intact = wl.analyze_rep(self.cq, wl.AnalyzeBaseline(self.cq, paths), seed=0, n_samples=50)
        self.assertEqual(intact.failures, [])
        cell = intact.cells[5]
        os.remove(wl.trace_path(paths["tree"], cell))
        rep = wl.analyze_rep(self.cq, wl.AnalyzeBaseline(self.cq, paths), seed=0, n_samples=50)
        self.assertEqual([c for c, _ in rep.failures], [cell])
        self.assertEqual(rep.failed_cells(), 1)

    def test_traced_counts_repeat_and_originals_return(self):
        original = self.cq.rollout.run_condition
        per_rep = []
        for name in ("a", "b"):
            tracer = Tracer()
            with instrument(tracer, self.cq):
                rep = self.monitor(name)
            per_rep.append(layer_metrics(tracer, len(rep.cells)))
        self.assertIs(self.cq.rollout.run_condition, original)
        self.assertEqual({k: per_rep[0][k] for k in EXACT}, {k: per_rep[1][k] for k in EXACT})
        m = per_rep[0]
        self.assertEqual(m["rollout.trace_write.calls"], len(rep.cells))
        self.assertGreater(m["ensemble.forward.rows"], 0)
        self.assertGreater(m["tracing.spans"], 0)


class ContractNames(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_the_code_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], bench_run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], PER_LAYER)


if __name__ == "__main__":
    unittest.main()
