"""tsfloquet benchmark: one workload, one seed, one line of JSON results.

    python3 benchmarks/run.py --workload configs --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src/``
of the checkout this file belongs to, never from an installed copy.

The run generates the workload's config files from the seed, computes the
reference monodromy of every system (``reference.py``, outside any timed
region), then starts fresh interpreters (``worker.py``):

* ``--trace 0``: set-up alone four times, then once more followed by the
  measured passes, a closed loop with one ``cli.run`` in flight and no
  threads, then the probes once. Prints the end-to-end metrics.
* ``--trace 1``: the traced run. Prints the per-layer metrics, per pass,
  and writes the spans to ``.bench_out/<workload>-seed<seed>/spans.jsonl``.

The next-to-last line of stdout is a JSON object of details (failure causes
of operations and probes, the tail percentile's rank and sample count,
every set-up sample); the last line is the result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


def _worker(job: dict, mode: str, job_path: Path) -> dict:
    job_path.write_text(json.dumps(dict(job, mode=mode)))
    # a worker writes no bytecode caches, so it touches nothing outside the
    # checkout and every set-up sample compiles or reads the same files
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
        capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tsfloquet" / "cli.py").is_file():
        print(f"error: no tsfloquet sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        wl = workloads.build(args.workload, args.seed, ROOT)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    (out / "cfg").mkdir(parents=True, exist_ok=True)
    paths = {}
    for s in wl.systems:
        paths[s.name] = str(out / "cfg" / f"{s.name}.cfg")
        Path(paths[s.name]).write_text(s.text)

    sys.path.insert(0, str(ROOT / "src"))
    import reference
    refs = {s.name: reference.monodromy_ref(s.text) for s in wl.systems}

    job = {
        "root": str(ROOT),
        "configs": paths,
        "refs": refs,
        "ops": [op.__dict__ for op in wl.ops],
        "probes": [op.__dict__ for op in wl.probes],
        "deadline_s": workloads.DEADLINE_S[args.workload],
        "passes": workloads.passes(args.workload, args.seconds),
        "spans_path": str(out / "spans.jsonl"),
        "outcomes_path": str(out / "outcomes.jsonl"),
    }
    job_path = out / "job.json"
    # metric names and units as BENCHMARK.json declares them
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    details = {"workload": args.workload, "seed": args.seed,
               "passes": job["passes"]}
    try:
        if args.trace:
            res = _worker(job, "trace", job_path)
            metrics = {m["name"]: {"value": res["per_layer"][m["name"]],
                                   "unit": m["unit"]}
                       for m in spec["per_layer"]}
            details.update({k: res[k] for k in (
                "absent", "untraced_pass_ms", "traced_pass_ms", "failures")})
            details["spans"] = job["spans_path"]
        else:
            setups = [_worker(job, "setup", job_path)
                      for _ in range(SETUP_SAMPLES - 1)]
            res = _worker(job, "run", job_path)
            setups.append(res)
            res["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            metrics = {m["name"]: {"value": res[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            probes = res["probes"]
            failed_all = res["failed"] + sum(p["status"] != "ok" for p in probes)
            details.update(
                setup_samples_s=[s["setup_s"] for s in setups],
                raw_setup_samples_s=[s["raw_setup_s"] for s in setups],
                latency_tail_rank_pct=res["latency_tail_rank_pct"],
                latency_samples=res["latency_samples"],
                wall_s=res["wall_s"],
                speed_factor=res["speed_factor"],
                raw={k: res[f"raw_{k}"] for k in (
                    "latency_p50_ms", "latency_tail_ms", "systems_per_s")},
                failed_frac=failed_all / (res["attempted"] + len(probes)),
                causes=res["causes"],
                probe_causes={c: sum(p["status"] == c for p in probes)
                              for c in ("ok",) + tuple(res["causes"])},
                failures=res["failures"],
                op_ms=res["op_ms"],
            )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not any(f.startswith("certificate")
                           for f in res["failures"].values()),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
