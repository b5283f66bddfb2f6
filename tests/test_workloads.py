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

import xxz_deficit
from xxz_deficit import boundaries, cli, measurement, model, optimizer

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


def test_a_crossings_round_makes_five_optimizer_entry_calls(monkeypatch, tmp_path):
    # one two-point call per jumps B and one call for the 16 points of the
    # classified trace; the round made 40 one-point optimize_deficit calls
    # before, 8 for the jumps and 32 to classify the trace station by station
    sizes = []
    entry = optimizer._optimize_points

    def counted(J, Jz, bs, ts, n=201):
        sizes.append((len(bs), n))
        return entry(J, Jz, bs, ts, n)

    for module in (optimizer, boundaries):
        monkeypatch.setattr(module, "_optimize_points", counted)
    for op in WORKLOADS["crossings"]():
        assert cli.main(op.args_in(str(tmp_path))) == 0
    assert sizes == [(2, 801)] * 4 + [(32, 401)]


@pytest.mark.parametrize("op", SWEEPS, ids=[op.label for op in SWEEPS])
def test_a_diagram_samples_its_whole_grid_in_passes_of_32_cells(monkeypatch, tmp_path, op):
    # one S~ array pass per 32 cells of the grid, none cut short at the
    # end of a grid row or of a block of 256 cells: 50 passes on a 40x40
    # grid, where passes of 16 cells took 100 and passes per row 120; and
    # one entropy_curve call per block of 256 cells, 7 where the passes
    # were calls of their own
    calls, passes = [], []
    curve, kernel = optimizer.entropy_curve, measurement._curve_pass

    def counted_curve(states, thetas):
        calls.append(len(states.a))
        return curve(states, thetas)

    def counted_pass(alpha, *args):
        passes.append(len(alpha))
        return kernel(alpha, *args)

    monkeypatch.setattr(optimizer, "entropy_curve", counted_curve)
    monkeypatch.setattr(measurement, "_curve_pass", counted_pass)
    assert cli.main(op.args_in(str(tmp_path))) == 0
    n_t, n_b = map(int, op.argv[op.argv.index("--grid") + 1].split("x"))
    assert len(passes) == math.ceil(n_t * n_b / 32)
    assert len(calls) == math.ceil(n_t * n_b / optimizer._BLOCK_CELLS)
    assert sum(calls) == sum(passes) == n_t * n_b


# The cells of each sweep diagram with a refined minimum, and with any
# refined extremum, of its 1,600.
_CELLS_WITH_EXTREMA = {"-1,-1": (52, 52), "-1,-1.5": (29, 47)}


@pytest.mark.parametrize("op", SWEEPS, ids=[op.label for op in SWEEPS])
def test_a_diagram_rules_only_its_cells_with_extrema_one_by_one(monkeypatch, tmp_path, op):
    # the winner rule takes a cell one by one only where it has a refined
    # minimum, and the shape rule only where it has a refined extremum;
    # every other cell is decided by array operations (each took all
    # 1,600 cells one by one before)
    winners, shapes = [], []
    deepest = optimizer._deepest_minimum

    class CountedShapes(dict):
        def get(self, counts, default=None):
            shapes.append(counts)
            return super().get(counts, default)

    monkeypatch.setattr(optimizer, "_SHAPE_OF_COUNTS", CountedShapes(optimizer._SHAPE_OF_COUNTS))
    monkeypatch.setattr(optimizer, "_deepest_minimum", lambda m: winners.append(m) or deepest(m))
    assert cli.main(op.args_in(str(tmp_path))) == 0
    coupling = ",".join(op.argv[i + 1] for i in (op.argv.index("--J"), op.argv.index("--Jz")))
    assert (len(winners), len(shapes)) == _CELLS_WITH_EXTREMA[coupling]
    assert len(winners) == sum(counts[0] > 0 for counts in shapes)


@pytest.mark.parametrize("op", SWEEPS, ids=[op.label for op in SWEEPS])
def test_a_diagram_takes_no_per_cell_gibbs_entries(monkeypatch, tmp_path, op):
    # the sweep takes its cells' Gibbs entries and checks as array blocks;
    # the float entries and the array checks are wrapped under every name
    # the package holds them by (each 40x40 diagram made 1,600 calls of
    # the one and 100 of the checks when it took its cells pass by pass)
    calls = []
    for name in ("_gibbs_entries", "_states_exact"):
        fn = getattr(model, name)

        def counted(*args, _fn=fn, _name=name):
            calls.append(_name)
            return _fn(*args)

        for module in vars(xxz_deficit).values():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    assert cli.main(op.args_in(str(tmp_path))) == 0
    n_t, n_b = map(int, op.argv[op.argv.index("--grid") + 1].split("x"))
    assert calls == ["_states_exact"] * math.ceil(n_t * n_b / optimizer._BLOCK_CELLS)
