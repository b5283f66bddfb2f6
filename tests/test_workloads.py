"""Every operation of the benchmark's workloads, run once through the
command line and checked by the benchmark's own independent checks
(``perfbench/checks.py``, seed 7), so that an output the benchmark would
reject fails here first."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from xxz_deficit import boundaries, cli, optimizer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name: str):
    """perfbench's module ``name``, imported as ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


CHECKS = _module("checks")
WORKLOADS = _module("workloads").WORKLOADS
OPERATIONS = [(name, op) for name, ops in WORKLOADS.items() for op in ops()]
TRIPLES = [op for _, op in OPERATIONS if op.command == "triple"]
SWEEPS = [op for name, op in OPERATIONS if name in ("sweep", "sweep-pool")]


@pytest.mark.parametrize(
    "workload,op", OPERATIONS, ids=[f"{name}-{op.label}" for name, op in OPERATIONS]
)
def test_operation_passes_the_benchmark_checks(monkeypatch, tmp_path, workload, op):
    # the workloads import the checks by their module name on first use
    monkeypatch.setitem(sys.modules, "checks", CHECKS)
    assert cli.main(op.args_in(str(tmp_path))) == 0
    texts = {name: (tmp_path / name).read_text() for name in op.files}
    op.check(texts, np.random.default_rng(7))


@pytest.mark.parametrize("op", TRIPLES, ids=[op.label for op in TRIPLES])
def test_each_triple_point_is_one_accepted_newton_solve(monkeypatch, tmp_path, op):
    # a benchmark triple has no other path to its point
    roots = []
    newton = boundaries._triple_newton

    def recorded(*args):
        roots.append(newton(*args))
        return roots[-1]

    monkeypatch.setattr(boundaries, "_triple_newton", recorded)
    assert cli.main(op.args_in(str(tmp_path))) == 0
    assert len(roots) == 1 and roots[0] is not None


@pytest.mark.parametrize("op", SWEEPS, ids=[op.label for op in SWEEPS])
def test_a_diagram_samples_its_whole_grid_in_passes_of_16_cells(monkeypatch, tmp_path, op):
    # one S~ array pass per 16 cells of the grid, none cut short at the
    # end of a grid row: 100 passes on a 40x40 grid, where passes per
    # row took 120
    calls = []
    curve = optimizer.entropy_curve

    def counted(states, thetas):
        calls.append(len(states.a))
        return curve(states, thetas)

    monkeypatch.setattr(optimizer, "entropy_curve", counted)
    assert cli.main(op.args_in(str(tmp_path))) == 0
    n_t, n_b = map(int, op.argv[op.argv.index("--grid") + 1].split("x"))
    assert len(calls) == math.ceil(n_t * n_b / 16)
