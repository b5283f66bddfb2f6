"""Proof that the output checks can fail.

    python3 perfbench/selftest.py

For each kind of output, runs the real command once as the benchmark
does, then once more with its output file corrupted right after the
command wrote it.  The clean run must pass its checks; the corrupted run
must fail them and count its one operation as failed.  Exits 0 when every
corruption is caught.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile

import numpy as np

import run

SEED = 7


def _move_deficit(text: str) -> str:
    """Move one oracle-sampled cell's deficit by 1e-4 nats, with its bits
    column moved to match, so that only the oracle comparison can see it."""
    import checks

    comments, rows = checks.read_csv(text)
    k = checks.oracle_sample(rows, np.random.default_rng(SEED))[0]
    nats = float(rows[k]["deficit_nats"])
    nats += 1e-4 if nats + 1e-4 < math.log(2.0) else -1e-4
    rows[k]["deficit_nats"] = format(nats, ".9g")
    rows[k]["deficit_bits"] = format(nats / math.log(2.0), ".9g")
    return _write_csv(comments, rows)


def _move_triple_t(text: str) -> str:
    import json

    doc = json.loads(text)
    doc["T"] += 1e-3
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _move_jump(text: str) -> str:
    import checks

    comments, rows = checks.read_csv(text)
    rows[2]["jump"] = format(float(rows[2]["jump"]) + 1e-2, ".9g")
    return _write_csv(comments, rows)


def _move_curve_point(text: str) -> str:
    import checks

    comments, rows = checks.read_csv(text)
    k = len(rows) // 2
    rows[k]["T"] = format(float(rows[k]["T"]) + 1e-3, ".9g")
    return _write_csv(comments, rows)


def _write_csv(comments, rows) -> str:
    head = ",".join(rows[0].keys())
    body = [",".join(r.values()) for r in rows]
    return "\n".join(comments + [head] + body) + "\n"


CASES = [
    ("one deficit moved by 1e-4", "sweep", "diagram-J-1-Jz-1.5-w1", _move_deficit),
    ("one triple-point T moved by 1e-3", "boundaries", "triple-J-1-Jz-1.5", _move_triple_t),
    ("one jump moved by 1e-2", "crossings", "jumps-J-1-Jz-1.5", _move_jump),
    ("one boundary point moved by 1e-3 in T", "boundaries", "zero-J-1-Jz-1", _move_curve_point),
]


class CorruptingCli:
    """Stands in for ``xxz_deficit.cli``: runs the real command, then
    rewrites its first output file with ``corrupt``."""

    def __init__(self, cli, op, outdir, corrupt):
        self.cli, self.op, self.outdir, self.corrupt = cli, op, outdir, corrupt

    def main(self, argv):
        rc = self.cli.main(argv)
        path = f"{self.outdir}/{self.op.files[0]}"
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(self.corrupt(text))
        return rc


def main() -> int:
    cli = run.import_program()
    from workloads import WORKLOADS

    run.WORK.mkdir(exist_ok=True)
    missed = 0
    for title, workload, label, corrupt in CASES:
        op = next(o for o in WORKLOADS[workload]() if o.label == label)
        outdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        try:
            clean = run.Runner(cli, [op], outdir)
            clean.round()
            clean_ok = clean.check(SEED) and clean.failed == 0
            bad = run.Runner(CorruptingCli(cli, op, outdir, corrupt), [op], outdir)
            bad.round()
            caught = not bad.check(SEED) and bad.failed == bad.attempted == 1
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        verdict = "caught" if clean_ok and caught else "MISSED"
        missed += verdict == "MISSED"
        print(f"{verdict}: {title} ({label}); clean output passed: {clean_ok}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
