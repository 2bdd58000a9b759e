"""Self-tests of the benchmark harness: ``python3 benchmarks/selftest.py``.

Checks that failures are counted, never dropped, under the right cause,
that the certificate check catches a shifted result, that a seed gives
byte-identical config text, and that the tracer survives a missing target.
"""
from __future__ import annotations

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import harness  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import tsfloquet.cli as cli  # noqa: E402
from tsfloquet.errors import TsfloquetError  # noqa: E402
from tsfloquet.floquet import PhiDiscontinuityWarning  # noqa: E402


class _Refused(TsfloquetError):
    pass


def _runner(run, deadline_s=5.0):
    return harness.Runner(run, TsfloquetError, PhiDiscontinuityWarning,
                          deadline_s)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        text = (ROOT / "configs" / "example_hybrid.cfg").read_text()
        cls.ref = reference.monodromy_ref(text)
        cls.config = cli.load_config(ROOT / "configs" / "example_hybrid.cfg")
        cls.op = workloads.Op("example_hybrid", n=3)

    def test_real_result_passes(self):
        out = _runner(cli.run).op("real", self.config, self.op, self.ref)
        self.assertEqual(out.status, "ok", out.detail)

    def test_shifted_result_is_a_certificate_failure(self):
        def shifted(config, **kwargs):
            out, code = cli.run(config, **kwargs)
            report = json.loads(out)
            report["A_partial"] += 2.0 * report["err_bound"]["value"] + 1e-3
            return json.dumps(report), code

        out = _runner(shifted).op("shifted", self.config, self.op, self.ref)
        self.assertEqual(out.status, "certificate")

    def test_wrong_exit_code_is_a_certificate_failure(self):
        def recoded(config, **kwargs):
            out, code = cli.run(config, **kwargs)
            return out, (code + 1) % 3

        out = _runner(recoded).op("recoded", self.config, self.op, self.ref)
        self.assertEqual(out.status, "certificate")

    def test_deadline_miss_is_counted_as_failed(self):
        def spin(config, **kwargs):
            while True:
                time.sleep(0.001)

        ok = _runner(cli.run).op("real", self.config, self.op, self.ref)
        late = _runner(spin, deadline_s=0.05).op("spin", self.config,
                                                 self.op, self.ref)
        self.assertEqual(late.status, "deadline")
        self.assertGreaterEqual(late.seconds, 0.05)
        summary = harness.summarize([ok, late] * 6)
        self.assertEqual(summary["attempted"], 12)
        self.assertEqual(summary["failed"], 6)
        self.assertEqual(summary["causes"]["deadline"], 6)

    def test_other_exception_is_a_crash(self):
        def overflow(config, **kwargs):
            raise OverflowError("math range error")

        out = _runner(overflow).op("boom", self.config, self.op, self.ref)
        self.assertEqual(out.status, "crash")

    def test_tsfloquet_error_is_refused(self):
        def refuse(config, **kwargs):
            raise _Refused("no")

        out = _runner(refuse).op("no", self.config, self.op, self.ref)
        self.assertEqual(out.status, "refused")


class WorkloadTest(unittest.TestCase):
    def test_same_seed_gives_identical_config_text(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 7, ROOT)
            b = workloads.build(name, 7, ROOT)
            self.assertEqual([(s.name, s.text.encode()) for s in a.systems],
                             [(s.name, s.text.encode()) for s in b.systems])
            self.assertEqual(a.ops, b.ops)

    def test_other_seed_moves_generated_coefficients(self):
        for name in ("discrete", "hybrid"):
            a = workloads.build(name, 7, ROOT)
            b = workloads.build(name, 8, ROOT)
            self.assertNotEqual([s.text for s in a.systems],
                                [s.text for s in b.systems])

    def test_generated_configs_parse(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in workloads.WORKLOADS:
                for s in workloads.build(name, 3, ROOT).systems:
                    path = Path(tmp) / f"{s.name}.cfg"
                    path.write_text(s.text)
                    cli.build_system(cli.load_config(path))


class TracerTest(unittest.TestCase):
    def test_missing_target_is_reported_absent(self):
        saved = tracer.SPANS
        tracer.SPANS = saved + (
            ("tsfloquet.floquet", "_discrete_terms_gone", "floquet.gone"),
            ("tsfloquet.no_such_module", "f", "nowhere"),
        )
        try:
            t = tracer.Tracer()
            t.install()
            config = cli.load_config(ROOT / "configs" / "example_continuous.cfg")
            t.begin_op("op")
            cli.run(config, as_json=True)
            t.end_op(0.0, 1.0)
        finally:
            t.uninstall()
            tracer.SPANS = saved
        self.assertEqual(t.absent, ["tsfloquet.floquet._discrete_terms_gone",
                                    "tsfloquet.no_such_module.f"])
        metrics = tracer.layer_metrics(t.spans, 1)
        self.assertGreater(metrics["expr.evaluate.calls"], 0)
        self.assertGreater(metrics["floquet.cumint.calls"], 0)

    def test_uninstall_restores_the_package(self):
        import tsfloquet.expr as ex
        original = ex.evaluate
        t = tracer.Tracer()
        t.install()
        self.assertIsNot(ex.evaluate, original)
        t.uninstall()
        self.assertIs(ex.evaluate, original)


if __name__ == "__main__":
    unittest.main()
