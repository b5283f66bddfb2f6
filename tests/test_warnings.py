"""Every warning of the package is placed by one rule, ``model._warn``: at
the first frame outside the computing modules (every module of the
package but ``cli``).  The source holds one ``warnings.warn`` call, in
``_warn``, and no other call passes ``stacklevel``; each warning names
the line of the caller's code that called into the package."""

import ast
from pathlib import Path

import numpy as np
import pytest

from xxz_deficit import optimizer
from xxz_deficit.boundaries import BoundaryKind, trace_boundary
from xxz_deficit.diagram import GridSpec, sweep
from xxz_deficit.model import ModelParams, XThermalState
from xxz_deficit.optimizer import optimize_grid

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "xxz_deficit").glob("*.py"))


def _warning_calls(path: Path) -> list[tuple[int, str | None, bool, bool]]:
    """Each call in ``path`` that warns or passes ``stacklevel``, as (line,
    enclosing function or None, whether it calls ``warnings.warn``,
    whether it passes ``stacklevel``).  ``warnings.warn`` is recognised
    under any name the module imports it or its module by."""
    tree = ast.parse(path.read_text())
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "warnings"}
        elif isinstance(node, ast.ImportFrom) and node.module == "warnings":
            functions |= {a.asname or a.name for a in node.names if a.name == "warn"}
    calls = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                warns = (
                    isinstance(f, ast.Attribute) and f.attr == "warn"
                    and isinstance(f.value, ast.Name) and f.value.id in modules
                ) or (isinstance(f, ast.Name) and f.id in functions)
                level = any(k.arg == "stacklevel" for k in child.keywords)
                if warns or level:
                    calls.append((child.lineno, owner, warns, level))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    visit(tree, None)
    return calls


def test_the_package_warns_only_in_model_warn():
    calls = [(path.name, owner, warns) for path in SOURCES
             for _, owner, warns, _ in _warning_calls(path)]
    assert calls == [("model.py", "_warn", True)]


def test_a_planted_warning_is_found(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "import warnings\n"
        "import warnings as w\n"
        "from warnings import warn as say\n"
        "def f():\n"
        "    warnings.warn('a', stacklevel=2)\n"
        "    w.warn('b')\n"
        "def g():\n"
        "    say('c')\n"
        "    print('d', stacklevel=3)\n"
        "    print('e')\n"
        "warnings.warn('f')\n"
    )
    assert _warning_calls(source) == [
        (5, "f", True, True), (6, "f", True, False), (8, "g", True, False),
        (9, "g", False, True), (11, None, True, False),
    ]


def _other_shapes(monkeypatch):
    """S~ of every state replaced by cos 8 theta, whose three interior
    extrema are each refined to the middle of its scan cell: every point
    the optimizer takes has an Other shape, and warns."""

    def fake(states, thetas):
        row = np.cos(8.0 * np.asarray(thetas))
        return row if isinstance(states, XThermalState) else np.tile(row, (len(states.a), 1))

    for sampler in ("entropy_curve", "_fast_entropy_curve"):
        monkeypatch.setattr(optimizer, sampler, fake)
    monkeypatch.setattr(
        optimizer, "_refine_extremum", lambda s, sign, lo, hi: (0.5 * (lo + hi), 9.0)
    )


# Each case calls into the package on the line after its ``def``.
def _clamp_through_model_params():
    return ModelParams(-1.0, -1.0, 1.0, 0.0)


def _clamp_through_a_trace_from_zero():
    return trace_boundary(
        BoundaryKind.HALF_PI, ModelParams(-1.0, -1.0, 1.0, 1.0), "T", 0.0, 0.1, 0.05,
        first_bracket=(0.5, 1.9), classify=False,
    )


def _clamp_through_optimize_grid():
    return optimize_grid(-1.0, -1.0, [0.0, 0.5], [1.0])


def _other_shape_through_sweep():
    return sweep(-1.0, -1.0, GridSpec(0.5, 0.9, 1.2, 1.6, 2, 2))


def _other_shape_through_a_classified_trace():
    return trace_boundary(
        BoundaryKind.ZERO, ModelParams(-1.0, -1.0, 1.0, 1.0), "B", 1.4, 1.42, 0.01,
        first_bracket=(0.5, 1.2),
    )


_CLAMP = "T=0 is below the floor; clamped to 1e-08"
_OTHER = "3 interior extrema found; profile outside the unimodal/bimodal family"
# (case, whether S~ is patched to an Other shape, its warning, how many)
_CASES = [
    (_clamp_through_model_params, False, _CLAMP, 1),
    (_clamp_through_a_trace_from_zero, False, _CLAMP, 1),
    (_clamp_through_optimize_grid, False, _CLAMP, 1),
    (_other_shape_through_sweep, True, _OTHER, 4),
    (_other_shape_through_a_classified_trace, True, _OTHER, 6),
]


@pytest.mark.parametrize(
    "case,other,message,count", _CASES, ids=[c[0].__name__.lstrip("_") for c in _CASES]
)
def test_each_warning_names_the_line_that_called_the_package(
    monkeypatch, case, other, message, count
):
    if other:
        _other_shapes(monkeypatch)
    with pytest.warns(UserWarning) as record:
        case()
    assert [str(w.message) for w in record] == [message] * count
    line = case.__code__.co_firstlineno + 1
    assert {(w.filename, w.lineno) for w in record} == {(__file__, line)}
