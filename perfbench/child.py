"""One verdict in a fresh process: set up, hand the workload's configs to
``equichk.cli.run``, and write what was measured to ``result.json``.

    python3 perfbench/child.py --workload NAME --seed N --out DIR [--trace]

``setup_s`` runs from the first line of this file to the first ``cli.run``
call (importing numpy and equichk, then generating the configs).  ``wall_s``
and ``cpu_s`` (user + sys of the whole process) cover the ``cli.run`` calls,
which return after ``reports.jsonl``, ``summary.csv`` and ``manifest.json``
are written, less the time of the speed probes (``SpeedProbe``) that sample
the machine meanwhile.  With ``--trace`` the layers are wrapped before the
clock starts.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


class SpeedProbe:
    """Samples the machine's speed while a verdict runs.

    Every 20 ms of wall time a SIGALRM handler times a fixed
    sub-millisecond computation with equichk's mix of work (tiny-array numpy
    calls inside a Python loop).  The verdict and the probes run in the same
    moments, so a slowdown of a shared machine hits both, and the verdict's
    time divided by the mean probe time leaves it out.
    """

    INTERVAL_S = 0.02

    def __init__(self):
        import numpy as np

        self.wall: list = []
        self.cpu: list = []
        self._np = np
        self._a = np.arange(16.0).reshape(4, 4) / 16.0

    def _sample(self, signum, frame) -> None:
        np = self._np
        wall0, cpu0 = time.perf_counter(), time.process_time()
        x = np.ones(4)
        for _ in range(40):
            x = np.tanh(self._a @ x) + 0.5 * x
        acc = 0
        for i in range(3000):
            acc += i * i
        self.wall.append(time.perf_counter() - wall0)
        self.cpu.append(time.process_time() - cpu0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import numpy  # noqa: F401  -- part of set-up, like the equichk import
    from equichk import cli

    import workloads

    runs = []
    for i, cfg in enumerate(workloads.make_configs(args.workload, args.seed, ROOT)):
        run_dir = os.path.join(args.out, f"{i}_{cfg['experiment']}")
        cfg["output_dir"] = run_dir
        path = os.path.join(args.out, f"config_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        runs.append({"config": path, "out_dir": run_dir})
    setup_s = time.perf_counter() - T_START

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    with open(os.path.join(args.out, "cli_output.txt"), "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), \
            SpeedProbe() as probe:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for run in runs:
            try:
                run["exit_code"] = cli.run(run["config"])
            except Exception as exc:  # noqa: BLE001 -- a fault is a recorded outcome
                # the exit codes cli.main gives these faults
                run["exit_code"] = (2 if isinstance(exc, cli.ConfigError)
                                    else 1 if isinstance(exc, cli.CheckFailure) else 3)
                run["fault"] = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
    if not probe.wall:
        raise RuntimeError("the verdict ended before the first speed probe")

    result = {
        # the verdict's own time excludes the probes that interrupted it
        "wall_s": wall_s - sum(probe.wall),
        "cpu_s": cpu_s - sum(probe.cpu),
        "reference_wall_s": statistics.mean(probe.wall),
        "reference_cpu_s": statistics.mean(probe.cpu),
        "probes": len(probe.wall),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "runs": runs,
        "environment": _environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.dump(os.path.join(args.out, "spans.npz"))
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
