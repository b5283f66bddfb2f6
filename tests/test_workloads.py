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


def _counted_round(monkeypatch, tmp_path, workload):
    """The ``boundaries._residual_at`` and ``boundaries._check_coordinate``
    calls of each command of one round of ``workload``."""
    counts = {"_residual_at": 0, "_check_coordinate": 0}
    for name in counts:
        fn = getattr(boundaries, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(boundaries, name, counted)
    residuals, checks = [], []
    for op in WORKLOADS[workload]():
        assert cli.main(op.args_in(str(tmp_path))) == 0
        residuals.append(counts["_residual_at"])
        checks.append(counts["_check_coordinate"])
        counts.update(dict.fromkeys(counts, 0))
    return residuals, checks


def test_a_boundaries_round_checks_each_station_once(monkeypatch, tmp_path):
    # the scalar residuals of each command, and one coordinate check per
    # march station: a residual on a march line checks its point with a
    # comparison, and calls _check_coordinate only for a point that fails
    # it; a triple point is checked only on the curves outside the pair
    # whose crossing Newton certified (none here: 12 residuals less per
    # triple command than when both were solved again)
    residuals, checks = _counted_round(monkeypatch, tmp_path, "boundaries")
    assert residuals == [785, 733, 784, 224, 213, 191, 130]
    assert checks == [141, 141, 141, 40, 32, 28, 18]


def test_a_crossings_round_checks_each_station_once(monkeypatch, tmp_path):
    # a scan takes its 65 points as valid, so only the 16 march stations of
    # the zeroprime trace are checked: the jumps command checked 4 x 65
    # scan points and the trace 65 more besides its stations
    _, checks = _counted_round(monkeypatch, tmp_path, "crossings")
    assert checks == [0, 16]


# The doubtful rows of each sweep diagram, of its 1,600, that are sampled
# again by the exact kernel (``optimizer._doubtful``).
_RESAMPLED_ROWS = {"-1,-1": 7, "-1,-1.5": 6}


@pytest.mark.parametrize("op", SWEEPS, ids=[op.label for op in SWEEPS])
def test_a_diagram_samples_its_whole_grid_in_passes_of_32_cells(monkeypatch, tmp_path, op):
    # one fast S~ array pass per 32 cells of the grid, none cut short at
    # the end of a grid row or of a block of 256 cells: 50 passes on a
    # 40x40 grid, where passes of 16 cells took 100 and passes per row
    # 120; and one fast sampler call per block of 256 cells, 7 where the
    # passes were calls of their own.  The doubtful rows are counted
    # apart: each block samples its own again in one exact call.
    calls = {"fast": [], "exact": []}
    passes = {"fast": [], "exact": []}
    kernel = measurement._curve_pass

    def counted(name, curve):
        def counted_curve(states, thetas):
            calls[name].append(len(states.a))
            return curve(states, thetas)
        return counted_curve

    def counted_pass(alpha, *args):
        passes["fast" if args[-1] is measurement._rho_sqrt else "exact"].append(len(alpha))
        return kernel(alpha, *args)

    monkeypatch.setattr(optimizer, "entropy_curve", counted("exact", optimizer.entropy_curve))
    monkeypatch.setattr(
        optimizer, "_fast_entropy_curve", counted("fast", optimizer._fast_entropy_curve)
    )
    monkeypatch.setattr(measurement, "_curve_pass", counted_pass)
    assert cli.main(op.args_in(str(tmp_path))) == 0
    n_t, n_b = map(int, op.argv[op.argv.index("--grid") + 1].split("x"))
    blocks = math.ceil(n_t * n_b / optimizer._BLOCK_CELLS)
    assert len(passes["fast"]) == math.ceil(n_t * n_b / 32)
    assert len(calls["fast"]) == blocks
    assert sum(calls["fast"]) == sum(passes["fast"]) == n_t * n_b
    coupling = ",".join(op.argv[i + 1] for i in (op.argv.index("--J"), op.argv.index("--Jz")))
    assert sum(calls["exact"]) == sum(passes["exact"]) == _RESAMPLED_ROWS[coupling]
    assert len(calls["exact"]) == len(passes["exact"]) <= blocks


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


SAMPLED = [
    (name, op) for name, op in OPERATIONS if name in ("sweep", "sweep-pool", "crossings")
]


@pytest.mark.parametrize("workload,op", SAMPLED, ids=[f"{n}-{op.label}" for n, op in SAMPLED])
def test_the_fast_sampler_writes_the_bytes_of_the_exact_one(monkeypatch, tmp_path, workload, op):
    # each command that samples S~ writes the same files with the fast
    # sampler replaced by the exact kernel, so that no row, re-sampled or
    # not, reaches an output with other bytes
    for sampler in ("fast", "exact"):
        if sampler == "exact":
            monkeypatch.setattr(optimizer, "_fast_entropy_curve", measurement.entropy_curve)
        (tmp_path / sampler).mkdir()
        assert cli.main(op.args_in(str(tmp_path / sampler))) == 0
    for name in op.files:
        assert (tmp_path / "fast" / name).read_bytes() == (tmp_path / "exact" / name).read_bytes()
