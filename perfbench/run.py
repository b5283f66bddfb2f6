"""Benchmark of the ``xxz-deficit`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Each round calls ``xxz_deficit.cli.main`` in-process,
once per command of the workload, with the arguments a user would type,
and writes the outputs to a scratch directory under ``perfbench/work``.
Rounds repeat until S seconds have passed.  The first round's outputs are
checked against references computed apart from the program (``checks``),
every later round's outputs must be byte-identical to them.  An operation
is one command of one round together with those checks.

The host's speed switches between two levels about a factor of two apart,
over milliseconds to tens of seconds, and a small fixed kernel with the
program's mix of work slows by about the same factor as the program.  That
calibration kernel therefore runs before the first command and after each
command; every command's wall time is scaled by the reference duration of
the kernel over its mean duration around the command.  Times are thus seconds on a host that runs
the kernel in ``CAL_REF_S``; the raw times are kept in the results file.

With ``--trace 0`` the last line reports the end-to-end metrics:
``setup_s`` (median of several fresh processes, from start until the first
command can run), ``wall_s`` (median round) and ``peak_rss_mb``.  With
``--trace 1`` untraced and traced rounds alternate and the last line
reports the per-layer metrics of ``tracing``.  The last line of standard
output is always one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it describes the machine.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

CAL_REF_S = 0.005  # calibration kernel duration on the reference host
SETUP_PROBES = 7


def import_program():
    """Import numpy and the checkout's own ``xxz_deficit``."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401

    import xxz_deficit.cli

    where = Path(xxz_deficit.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"xxz_deficit imported from {where}, not from {SRC}")
    return xxz_deficit.cli


_CAL_X = None


def calibrate() -> float:
    """Seconds for a fixed kernel with the program's mix of work: a loop
    over numpy scalars, small-array ufuncs and scalar math calls."""
    global _CAL_X
    import numpy as np

    if _CAL_X is None:
        _CAL_X = np.linspace(0.0, 1.5, 201)
    t0 = time.perf_counter()
    acc = 0.0
    for rep in range(14):
        c = np.cos(_CAL_X + rep)
        rp = np.hypot(0.3 + 0.5 * c, 0.2 * np.sin(_CAL_X))
        spec = np.clip(0.25 * np.stack([1.0 + rp, 1.0 - rp]), 0.0, None)
        vals = -np.where(spec > 0.0, spec * np.log(spec), 0.0).sum(axis=0)
        dv = np.diff(vals)
        for i in range(len(dv) - 1):
            left, right = dv[i], dv[i + 1]
            if max(abs(left), abs(right)) < 5e-14:
                continue
            if left < 0.0 < right or left > 0.0 > right:
                acc += 1.0
        for k in range(150):
            x = 1e-3 * k
            acc += math.log(1.0 + math.hypot(math.cos(x), math.sin(x)))
    return time.perf_counter() - t0


class Runner:
    """Runs rounds of one workload and keeps what the metrics need."""

    def __init__(self, cli, ops, outdir: str):
        self.cli = cli
        self.ops = ops
        self.outdir = outdir
        self.first: list[dict | None] = [None] * len(ops)  # round-1 texts per op
        self.bad: list[int] = [0] * len(ops)  # failed rounds per op
        self.rounds = 0
        self.cal_prev = calibrate()

    def _run_one(self, k: int, rec) -> float:
        op = self.ops[k]
        for name in op.files:
            path = os.path.join(self.outdir, name)
            if os.path.exists(path):
                os.remove(path)
        argv = op.args_in(self.outdir)
        ok = True
        t0 = time.perf_counter()
        try:
            if rec is None:
                rc = self.cli.main(argv)
            else:
                rc = rec.call("cli." + op.command, self.cli.main, (argv,), {})
        except Exception:
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - t0
        if rc != 0:
            print(f"{op.label}: exit {rc}", file=sys.stderr)
            ok = False
        try:
            texts = {}
            for name in op.files:
                with open(os.path.join(self.outdir, name)) as fh:
                    texts[name] = fh.read()
        except OSError as err:
            print(f"{op.label}: {err}", file=sys.stderr)
            texts, ok = None, False
        if self.first[k] is None and ok:
            self.first[k] = texts
        elif ok and texts != self.first[k]:
            print(f"{op.label}: output differs from the first round", file=sys.stderr)
            ok = False
        if not ok:
            self.bad[k] += 1
        return elapsed

    def round(self, rec=None) -> tuple[float, float]:
        """(raw, calibrated) wall seconds of one round of every command."""
        raw = scaled = 0.0
        for k in range(len(self.ops)):
            elapsed = self._run_one(k, rec)
            cal = calibrate()
            raw += elapsed
            scaled += elapsed * CAL_REF_S / (0.5 * (self.cal_prev + cal))
            self.cal_prev = cal
        self.rounds += 1
        return raw, scaled

    def check(self, seed: int) -> bool:
        """Check the first round's outputs; False if any check failed."""
        import numpy as np

        import checks

        rng = np.random.default_rng(seed)
        correct = True
        for k, op in enumerate(self.ops):
            if self.first[k] is None:
                self.bad[k] = self.rounds
                continue
            try:
                op.check(self.first[k], rng)
            except checks.CheckFailed as err:
                print(f"{op.label}: check failed: {err}", file=sys.stderr)
            except Exception:  # an output the checks cannot even read is wrong too
                print(f"{op.label}: output unreadable:", file=sys.stderr)
                traceback.print_exc()
            else:
                continue
            self.bad[k] = self.rounds
            correct = False
        return correct

    @property
    def attempted(self) -> int:
        return self.rounds * len(self.ops)

    @property
    def failed(self) -> int:
        return sum(self.bad)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and calibrated seconds from starting a fresh interpreter until
    it has imported the program and built the workload's commands.  The
    probe runs the calibration kernel right after it is ready, on its own
    CPU, and reports the duration for scaling its set-up time."""
    raw, scaled = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            cal = proc.stdout.read().split()
        if proc.returncode != 0 or line.strip() != "ready" or len(cal) != 1:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        raw.append(elapsed)
        scaled.append(elapsed * CAL_REF_S / float(cal[0]))
    return raw, scaled


def machine() -> dict:
    import numpy

    return {"machine": platform.machine(), "platform": platform.platform(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_program()
    except ImportError as err:
        print(f"cannot import the program from {SRC}: {err}", file=sys.stderr)
        return 3
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload]()
    if args.setup_probe:
        print("ready", flush=True)
        print(calibrate())
        return 0

    WORK.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        runner = Runner(cli, ops, outdir)
        report = run_traced(runner, args) if args.trace else run_plain(runner, args)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    result = {"correct": report.pop("correct"), "attempted": runner.attempted,
              "failed": runner.failed, "metrics": report.pop("metrics")}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": runner.rounds, **machine(), **report}
    with open(RESULTS / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({**info, **result}, fh, indent=1)
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_plain(runner: Runner, args) -> dict:
    deadline = time.perf_counter() + args.seconds
    raw, scaled = [], []
    while True:
        r, s = runner.round()
        raw.append(r)
        scaled.append(s)
        if time.perf_counter() >= deadline:
            break
    usage = [resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    peak_mb = max(usage) / 1024.0  # ru_maxrss is in KiB on Linux
    correct = runner.check(args.seed)
    setup_raw, setup_scaled = measure_setup(args.workload, args.seed)
    return {
        "correct": correct,
        "metrics": {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        },
        "wall_raw_s": raw, "wall_scaled_s": scaled,
        "setup_raw_s": setup_raw, "setup_scaled_s": setup_scaled,
    }


def run_traced(runner: Runner, args) -> dict:
    import tracing

    rec = tracing.Recorder()
    deadline = time.perf_counter() + args.seconds
    plain, traced, layers = [], [], []
    while True:
        plain.append(runner.round()[1])
        rec.clear()
        with tracing.installed(rec):
            raw, scaled = runner.round(rec)
        traced.append(scaled)
        speed = scaled / raw
        layers.append({k: v * speed if tracing.unit(k) == "s" else v
                       for k, v in rec.metrics().items()})
        if time.perf_counter() >= deadline:
            break
    rec.save(str(RESULTS / f"trace-{args.workload}.npz"))
    correct = runner.check(args.seed)
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if tracing.unit(name) == "s":
            value = statistics.median(values)
        else:
            value = values[0]
            if len(set(values)) != 1:
                print(f"count {name} differs between traced rounds: {values}", file=sys.stderr)
        metrics[name] = {"value": value, "unit": tracing.unit(name)}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(plain), "unit": "s"}
    return {"correct": correct, "metrics": metrics,
            "wall_plain_scaled_s": plain, "wall_traced_scaled_s": traced}


if __name__ == "__main__":
    sys.exit(main())
