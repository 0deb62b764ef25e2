"""equichk benchmark: time to verdict on four verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  For S seconds the benchmark starts fresh
processes (perfbench/child.py), each of which runs the workload once through
``equichk.cli.run``; BLAS is pinned to one thread in every one of them.  It
gates every verdict (exit code, report count, every report passing, the
workload's own checks, identical ``reports.jsonl`` bytes across the runs)
and prints the medians over the processes.  The last line of its output is
one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced processes, which alternate
with untraced ones so that the tracing overhead is measured in the same run.

Exit codes: 0 measured (``correct`` says whether every verdict was right),
2 bad arguments or no equichk source in the checkout, 3 a process that did
not report.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# wall_ref and cpu_ref divide the verdict's wall and CPU time by the mean time
# of the speed probes that ran during it (child.SpeedProbe), so that the speed
# of a shared machine, which drifts by a fifth between runs, cancels out.  The
# raw seconds are printed beside them.
END_TO_END = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
RAW_TIMES = {"wall_s": "s", "cpu_s": "s"}
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0
REPORT_FILES = ("reports.jsonl", "summary.csv", "manifest.json")
COUNT_SUFFIXES = (".calls", ".map_evals", ".rows")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_child(workload: str, seed: int, out: str, traced: bool, env: dict) -> dict:
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    if traced:
        cmd.append("--trace")
    with open(os.path.join(out, "child_log.txt"), "w", encoding="utf-8") as log:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                              timeout=CHILD_TIMEOUT_S)
    result_path = os.path.join(out, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(os.path.join(out, "child_log.txt"), encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"benchmark process exited {proc.returncode} without a result:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_ref"] = result["wall_s"] / result["reference_wall_s"]
    result["cpu_ref"] = result["cpu_s"] / result["reference_cpu_s"]
    return result


def _check_verdict(result: dict) -> Tuple[int, int, List[str], str]:
    """(outcomes attempted, outcomes failed, problems, reports sha256) of one
    verdict.  Any problem fails every outcome of the verdict."""
    attempted = failed = 0
    problems: List[str] = []
    digest = hashlib.sha256()
    for run in result["runs"]:
        with open(run["config"], encoding="utf-8") as fh:
            cfg = json.load(fh)
        expected = workloads.expected_reports(cfg)
        attempted += expected
        name = cfg["experiment"]
        if run["exit_code"] != 0:
            problems.append(f"{name}: exit code {run['exit_code']} {run.get('fault', '')}".strip())
        missing = [f for f in REPORT_FILES if not os.path.exists(os.path.join(run["out_dir"], f))]
        if missing:
            problems.append(f"{name}: missing {', '.join(missing)}")
        reports = []
        path = os.path.join(run["out_dir"], "reports.jsonl")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                raw = fh.read()
            digest.update(raw)
            reports = [json.loads(line) for line in raw.splitlines()]
        if len(reports) != expected:
            problems.append(f"{name}: {len(reports)} reports, plan expects {expected}")
        failed += sum(1 for r in reports if not r["pass"]) + max(0, expected - len(reports))
        problems += [f"{name}: {p}" for p in workloads.gate(cfg, reports)]
    if problems:
        failed = attempted
    return attempted, failed, problems, digest.hexdigest()


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    src = os.path.join(ROOT, "src", "equichk")
    if not os.path.isfile(os.path.join(src, "cli.py")):
        print(f"error: no equichk source at {src}", file=sys.stderr)
        return 2

    compileall.compile_dir(src, quiet=1)  # bytecode is not part of any verdict
    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, **{k: "1" for k in PINNED_THREADS})
    env.pop("EQUICHK_THREADS", None)

    started = time.perf_counter()
    verdicts: List[Tuple[bool, dict]] = []
    try:
        while True:
            traced = bool(args.trace) and len(verdicts) % 2 == 1
            out = os.path.join(work, f"verdict_{len(verdicts):03d}{'_traced' if traced else ''}")
            verdicts.append((traced, _run_child(args.workload, args.seed, out, traced, env)))
            done = time.perf_counter() - started >= args.seconds
            if done and (not args.trace or len(verdicts) >= 2):
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - started

    attempted = failed = 0
    problems: List[str] = []
    digests = []
    for i, (_, result) in enumerate(verdicts):
        a, f, p, sha = _check_verdict(result)
        attempted, failed = attempted + a, failed + f
        problems += [f"verdict {i}: {x}" for x in p]
        digests.append(sha)
    if len(set(digests)) > 1:
        problems.append("reports.jsonl differs between same-seed verdicts")
        failed = attempted

    plain = [r for traced, r in verdicts if not traced]
    traced_runs = [r for traced, r in verdicts if traced]
    env_record = {
        "python": platform.python_version(),
        **plain[0]["environment"],
        "blas_threads": {k: env[k] for k in PINNED_THREADS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }
    if args.trace:
        units = printed = tracer.per_layer_metrics()
        metrics = {k: _median([r["trace"][k] for r in traced_runs])
                   for k in units if k != "trace_overhead_s"}
        # traced minus untraced wall time, compared in reference units so that
        # machine drift between the two kinds of verdict cancels
        metrics["trace_overhead_s"] = (
            (_median([r["wall_ref"] for r in traced_runs]) - _median([r["wall_ref"] for r in plain]))
            * _median([r["reference_wall_s"] for _, r in verdicts])
        )
        for k in metrics:
            if k.endswith(COUNT_SUFFIXES):
                if len({r["trace"][k] for r in traced_runs}) > 1:
                    problems.append(f"{k} differs between traced verdicts")
                    failed = attempted
                metrics[k] = int(metrics[k])
    else:
        units, printed = END_TO_END, {**END_TO_END, **RAW_TIMES}
        metrics = {k: _median([r[k] for r in plain]) for k in printed}

    print(f"workload {args.workload}  seed {args.seed}  {len(plain)} verdicts"
          f"{f' + {len(traced_runs)} traced' if traced_runs else ''} in {elapsed:.1f} s")
    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"reports_sha256 {digests[0]}")
    for p in problems:
        print(f"FAILED {p}")
    for k, unit in printed.items():
        print(f"{k:<48} {metrics[k]:>14.6g} {unit}")
    print(f"{'fail_ratio':<48} {failed / attempted:>14.6g} ({failed} of {attempted} outcomes failed)")

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env_record, "reports_sha256": digests[0], "problems": problems,
        "verdicts": [dict(r, traced=t) for t, r in verdicts],
    }
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
