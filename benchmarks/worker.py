"""One fresh interpreter of a benchmark run: ``python3 worker.py JOB.json``.

Modes (``job["mode"]``):

* ``setup``: import ``tsfloquet.cli`` and build the workload's systems,
  report the time, exit;
* ``run``: the same set-up, then the measured passes with tracing off,
  then the probes once;
* ``trace``: the same set-up, a warm-up pass, one untraced pass (the
  overhead baseline), the traced passes, the probes once under tracing,
  and the span file.

Prints one JSON object on stdout.
"""
from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from harness import CAL_NOMINAL_S, CAUSES, Runner, calibrate, summarize
from tracer import Tracer, layer_metrics
from workloads import Op


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(Path(job["root"]) / "src"))

    calib = statistics.median(calibrate() for _ in range(5))
    start = time.perf_counter()
    import tsfloquet.cli as cli
    imported = time.perf_counter()
    configs = {name: cli.load_config(path)
               for name, path in job["configs"].items()}
    for config in configs.values():
        cli.build_system(config)
    raw_setup = time.perf_counter() - start
    result = {"setup_s": raw_setup * CAL_NOMINAL_S / calib,
              "raw_setup_s": raw_setup, "import_s": imported - start}
    if job["mode"] == "setup":
        print(json.dumps(result))
        return

    from tsfloquet.errors import TsfloquetError
    from tsfloquet.floquet import PhiDiscontinuityWarning

    runner = Runner(cli.run, TsfloquetError, PhiDiscontinuityWarning,
                    job["deadline_s"])
    refs = job["refs"]
    ops = [Op(**o) for o in job["ops"]]
    probes = [Op(**o) for o in job["probes"]]

    def run_all(op_list, tracer=None):
        return [runner.op(op.label, configs[op.system], op, refs[op.system],
                          tracer) for op in op_list]

    if job["mode"] == "run":
        outcomes = []
        began = time.perf_counter()
        for _ in range(job["passes"]):
            outcomes += run_all(ops)
        result.update(summarize(outcomes), wall_s=time.perf_counter() - began)
        probed = run_all(probes)
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        with open(job["outcomes_path"], "w") as fh:
            for o in outcomes + probed:
                fh.write(json.dumps(o.__dict__) + "\n")
        result["op_ms"] = {
            op.label: statistics.median(1e3 * o.scaled_seconds for o in outcomes
                                        if o.label == op.label)
            for op in ops}
        result["probes"] = [o.__dict__ for o in probed]
        result["failures"] = {o.label: f"{o.status}: {o.detail}"
                              for o in outcomes + probed if not o.ok}
    else:
        passes = job["passes"]
        run_all(ops)  # warm-up: first calls pay for lazy imports and caches
        untraced = sum(o.scaled_seconds for o in run_all(ops))
        tracer = Tracer()
        tracer.install()
        measured = []
        for _ in range(passes):
            measured += run_all(ops, tracer)
        traced = sum(o.scaled_seconds for o in measured) / passes
        op_spans = len(tracer.spans)
        probed = run_all(probes, tracer)
        tracer.uninstall()
        tracer.dump(job["spans_path"])
        # per pass: the measured operations' mean plus the probes, run once
        metrics = layer_metrics(tracer.spans[:op_spans], passes)
        for name, value in layer_metrics(tracer.spans[op_spans:], 1).items():
            metrics[name] += value

        def per_pass(count):
            return (sum(map(count, measured)) / passes
                    + sum(map(count, probed)))

        metrics["setup.import_ms"] = 1e3 * result["import_s"]
        metrics["floquet.phi_warnings"] = per_pass(lambda o: o.phi_warnings)
        metrics["ops.attempted"] = per_pass(lambda o: 1)
        for cause in CAUSES:
            metrics[f"ops.fail.{cause}"] = per_pass(
                lambda o, c=cause: o.status == c)
        metrics["trace.overhead_ms"] = 1e3 * (traced - untraced)
        result.update(per_layer=metrics, absent=tracer.absent,
                      untraced_pass_ms=1e3 * untraced,
                      traced_pass_ms=1e3 * traced,
                      attempted=len(measured),
                      failed=sum(not o.ok for o in measured),
                      failures={o.label: f"{o.status}: {o.detail}"
                                for o in measured + probed if not o.ok})
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
