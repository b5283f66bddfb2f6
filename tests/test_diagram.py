import dataclasses
import inspect
import json
import math
import warnings

import numpy as np
import pytest

from xxz_deficit import diagram
from xxz_deficit.diagram import (
    GridSpec,
    PhaseDiagram,
    _cell_segments,
    _chain_segments,
    contours_to_csv,
    diagram_to_csv,
    diagram_to_json,
    level_lines,
    sweep,
)
from xxz_deficit.measurement import HALF_PI
from xxz_deficit.model import ModelParams
from xxz_deficit.numfmt import fmt9, repr9, round9
from xxz_deficit.optimizer import optimize_deficit

LN2 = math.log(2.0)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.1, 1.0, 0.1, 1.0, 1, 10)
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.1, 0.1, 1.0, 10, 10)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 0.1, 1.0, 10, 10)

    @pytest.mark.parametrize("bounds", [
        (0.1, 1.0, -math.inf, 3.0),
        (0.1, 1.0, 0.0, math.inf),
        (0.1, math.inf, 0.0, 3.0),
        (0.1, 1.0, math.nan, 3.0),
        (0.1, 1.0, -1.7e308, 1.7e308),  # finite ends, width beyond float range
    ])
    def test_rejects_non_finite_ranges_without_a_warning(self, bounds):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="range must be finite"):
                GridSpec(*bounds, 4, 4)
        assert caught == []

    def test_centers(self):
        g = GridSpec(0.0 + 0.1, 1.1, 0.0, 1.0, 10, 4)
        assert g.t_centers()[0] == pytest.approx(0.15)
        assert g.b_centers().tolist() == pytest.approx([0.125, 0.375, 0.625, 0.875])


class TestSweep:
    def test_labels_match_fresh_optimizer_calls(self, rng):
        g = GridSpec(0.3, 1.2, 0.5, 2.0, 12, 12)
        d = sweep(-1.0, -1.0, g)
        ts, bs = g.t_centers(), g.b_centers()
        for _ in range(25):
            i = int(rng.integers(0, g.n_t))
            j = int(rng.integers(0, g.n_b))
            res = optimize_deficit(ModelParams(-1.0, -1.0, bs[j], ts[i]))
            assert res.branch.value == d.branch[i][j]
            assert res.deficit == d.deficit[i, j]

    def test_every_cell_equals_a_fresh_optimizer_call(self):
        # 24 x 23 cells: several sweep blocks and a partial last one
        g = GridSpec(0.05, 1.5, 0.0, 3.0, 24, 23)
        d = sweep(-1.0, -1.5, g)
        branches, shapes = set(), set()
        for i, t in enumerate(g.t_centers()):
            for j, b in enumerate(g.b_centers()):
                res = optimize_deficit(ModelParams(-1.0, -1.5, b, t))
                assert d.branch[i][j] == res.branch.value
                assert d.theta[i, j] == res.optimal_theta
                assert d.deficit[i, j] == res.deficit
                assert d.shape_tags[i][j] == res.shape_label
                branches.add(res.branch.value)
                shapes.add(res.shape_label)
        assert branches == {"Zero", "Interior", "HalfPi"}
        assert {"Bimodal", "UnimodalMax"} <= shapes

    def test_field_sign_symmetry(self):
        g = GridSpec(0.2, 1.0, -1.5, 1.5, 6, 8)
        d = sweep(-1.0, -1.0, g)
        assert np.abs(d.deficit - d.deficit[:, ::-1]).max() < 1e-12

    def test_jump_across_boundaries_shrinks_with_resolution(self):
        coarse = sweep(-1.0, -1.0, GridSpec(0.4, 1.0, 1.35, 1.45, 60, 2))
        fine = sweep(-1.0, -1.0, GridSpec(0.4, 1.0, 1.35, 1.45, 120, 2))
        jump_c = np.abs(np.diff(coarse.deficit[:, 0])).max()
        jump_f = np.abs(np.diff(fine.deficit[:, 0])).max()
        assert jump_f < 0.8 * jump_c

    def test_normalization_recorded_and_applied(self):
        g = GridSpec(0.2, 0.6, 0.4, 0.8, 2, 2)
        d = sweep(0.5, -1.0, g)
        lines = diagram_to_csv(d, "J", 0.5).strip().split("\n")
        assert lines[0] == "# J=0.5 Jz=-1 norm_unit=J norm_value=0.5"
        t, b = lines[3].split(",")[:2]
        assert (t, b) == (fmt9(g.t_centers()[0] / 0.5), fmt9(g.b_centers()[0] / 0.5))
        doc = json.loads(diagram_to_json(d, "Jz", 1.0))
        assert doc["norm"] == {"unit": "Jz", "value": 1.0}
        assert doc["cells"][0]["T"] == round9(g.t_centers()[0])
        assert doc["cells"][0]["B"] == round9(g.b_centers()[0])

    def test_one_optimizer_call_and_one_coupling_check_per_diagram(self, monkeypatch):
        # 7 T rows of 40 cells: two optimizer blocks in one call, J and Jz
        # each checked once, not once per T row
        calls, checks = [], []
        optimize, check = diagram._optimize_points, diagram._check_coordinate

        def counted_optimize(J, Jz, bs, ts, *rest):
            calls.append((J, Jz, bs.tolist(), ts.tolist(), rest))
            return optimize(J, Jz, bs, ts, *rest)

        def counted_check(name, value):
            checks.append((name, value))
            return check(name, value)

        monkeypatch.setattr(diagram, "_optimize_points", counted_optimize)
        monkeypatch.setattr(diagram, "_check_coordinate", counted_check)
        g = GridSpec(0.1, 1.5, -1.0, 2.0, 7, 40)
        d = sweep(-1.0, -1.5, g)
        assert checks == [("J", -1.0), ("Jz", -1.5)]
        ts, bs = g.t_centers().tolist(), g.b_centers().tolist()
        assert calls == [(-1.0, -1.5, bs * 7, [t for t in ts for _ in bs], ())]
        assert d.theta.shape == d.deficit.shape == (7, 40)
        assert [len(row) for row in d.branch + d.shape_tags] == [40] * 14

    @pytest.mark.parametrize("J,Jz,message", [
        (math.nan, -1.0, "J must be finite, got nan"),
        (-math.inf, -1.0, "J must be finite, got -inf"),
        (-1.0, math.inf, "Jz must be finite, got inf"),
        (math.nan, math.nan, "J must be finite, got nan"),
    ])
    def test_couplings_are_checked_with_model_params_messages(
        self, monkeypatch, J, Jz, message
    ):
        # before any cell is taken
        monkeypatch.setattr(diagram, "_optimize_points", None)
        with pytest.raises(ValueError, match=message):
            sweep(J, Jz, GridSpec(0.1, 1.0, 0.0, 1.0, 3, 3))
        with pytest.raises(ValueError, match=message):
            ModelParams(J, Jz, 0.5, 0.5)

    def test_sweep_takes_no_report_unit(self):
        assert list(inspect.signature(sweep).parameters) == ["J", "Jz", "grid"]
        fields = {f.name for f in dataclasses.fields(PhaseDiagram)}
        assert not fields & {"norm_unit", "norm_value"}


def _chained_by_scalar_keys(segments):
    """Segments joined into polylines with each point keyed by
    ``round(np.float64(x), 10)`` per coordinate: the reference for the
    keys of ``_chain_segments``."""

    def key(pt):
        return (round(np.float64(pt[0]), 10), round(np.float64(pt[1]), 10))

    adjacency: dict = {}
    for idx, (p1, p2) in enumerate(segments):
        adjacency.setdefault(key(p1), []).append((idx, p2))
        adjacency.setdefault(key(p2), []).append((idx, p1))
    used = [False] * len(segments)
    polylines = []
    for idx, (p1, p2) in enumerate(segments):
        if used[idx]:
            continue
        used[idx] = True
        chain = [p1, p2]
        for grow_end in (True, False):
            while True:
                tip = chain[-1] if grow_end else chain[0]
                nxt = next(((sid, other) for sid, other in adjacency[key(tip)]
                            if not used[sid]), None)
                if nxt is None:
                    break
                used[nxt[0]] = True
                if grow_end:
                    chain.append(nxt[1])
                else:
                    chain.insert(0, nxt[1])
        polylines.append(chain)
    return polylines


class TestChainSegments:
    def test_random_fields_chain_as_with_scalar_keys(self, rng):
        # uniform noise: saddle cells throughout, and the shared edge
        # points of neighbouring cells computed in opposite directions
        g = GridSpec(0.2, 1.8, -1.0, 1.0, 25, 25)
        ts, bs = g.t_centers(), g.b_centers()
        for _ in range(4):
            z = rng.uniform(0.0, 0.6, (25, 25))
            for level in (0.2, 0.3, 0.45):
                segments = [
                    seg for i in range(24) for j in range(24)
                    for seg in _cell_segments(ts, bs, z, i, j, level)
                ]
                assert _chain_segments(segments) == _chained_by_scalar_keys(segments)

    def test_endpoints_a_few_ulps_apart_chain_as_with_scalar_keys(self, rng):
        # a path whose joints lie on rounding ties at 10 decimals, each
        # joint seen by its two segments up to 3 ulps apart, so some
        # joints join and some split
        joints = 0.3 + (np.arange(60) + 0.5) * 1e-10

        def nudged(x):
            for _ in range(rng.integers(0, 4)):
                x = np.nextafter(x, rng.choice([-1.0, 1.0]))
            return x

        segments = [
            ((nudged(joints[k]), nudged(joints[k])), (nudged(joints[k + 1]), joints[k + 1]))
            for k in range(59)
        ]
        rng.shuffle(segments)
        got = _chain_segments(segments)
        assert got == _chained_by_scalar_keys(segments)
        assert 1 < len(got) < len(segments)


class TestLevelLines:
    def test_circularish_contour_on_synthetic_field(self):
        g = GridSpec(0.2, 1.8, 0.2, 1.8, 40, 40)
        d = sweep(-1.0, -1.0, g)
        # overwrite with a synthetic bowl to validate the geometry alone
        ts, bs = g.t_centers(), g.b_centers()
        tt, bb = np.meshgrid(ts, bs, indexing="ij")
        d.deficit = 0.5 - ((tt - 1.0) ** 2 + (bb - 1.0) ** 2)
        contours = level_lines(d, [0.25])
        (level, polylines) = contours[0]
        assert level == 0.25
        pts = np.array([pt for chain in polylines for pt in chain])
        radii = np.hypot(pts[:, 0] - 1.0, pts[:, 1] - 1.0)
        assert np.abs(radii - 0.5).max() < 0.01

    def test_full_deficit_level_hugs_the_origin(self):
        # for J = Jz = -1 the entangled level is the ground state for
        # B < 2, so the near-one-bit region is a low-T strip across the
        # whole field range, not a corner at the origin
        g = GridSpec(0.02, 1.0, 0.02, 1.0, 30, 30)
        d = sweep(-1.0, -1.0, g)
        level = 0.98 * LN2
        ((_, polylines),) = level_lines(d, [level])
        assert len(polylines) == 1
        chain = sorted(polylines[0], key=lambda pt: pt[1])
        ts = np.array([t for t, _ in chain])
        bs = np.array([b for _, b in chain])
        assert ts.max() < 0.35
        assert bs[0] == pytest.approx(g.b_centers()[0])
        assert bs[-1] == pytest.approx(g.b_centers()[-1])
        assert np.all(np.diff(ts) <= 0.0)
        for t, b in chain:
            res = optimize_deficit(ModelParams(-1.0, -1.0, b, t))
            assert res.deficit == pytest.approx(level, abs=1e-3)

    def test_zero_level_is_empty_in_the_interior(self):
        g = GridSpec(0.2, 1.0, 0.2, 1.0, 12, 12)
        d = sweep(-1.0, -1.0, g)
        contours = level_lines(d, [0.0])
        assert contours[0][1] == []

    def test_contours_stable_under_refinement(self):
        level = 0.1 * LN2
        coarse = sweep(-1.0, -1.0, GridSpec(0.1, 1.4, 0.1, 2.2, 24, 24))
        fine = sweep(-1.0, -1.0, GridSpec(0.1, 1.4, 0.1, 2.2, 48, 48))
        pts_c = np.array(
            [p for _, poly in level_lines(coarse, [level]) for c in poly for p in c]
        )
        pts_f = np.array(
            [p for _, poly in level_lines(fine, [level]) for c in poly for p in c]
        )
        cell_diag = math.hypot(1.3 / 24, 2.1 / 24)
        for p in pts_c:
            dist = np.hypot(pts_f[:, 0] - p[0], pts_f[:, 1] - p[1]).min()
            assert dist <= cell_diag

    def test_straddling_cells_give_the_segments_of_every_cell(self):
        # a wavy field with saddle cells, corners exactly at the levels,
        # and a flat patch at one level
        g = GridSpec(0.2, 1.8, -1.0, 1.0, 14, 12)
        ts, bs = g.t_centers(), g.b_centers()
        tt, bb = np.meshgrid(ts, bs, indexing="ij")
        z = 0.3 + 0.2 * np.sin(7.0 * tt) * np.cos(9.0 * bb)
        z[2:4, 2:4] = [[0.4, 0.2], [0.2, 0.4]]  # a saddle
        z[6:8, 6:8] = [[0.2, 0.4], [0.4, 0.2]]  # the other saddle
        z[::3, ::4] = 0.3  # corners at the level
        z[10:13, 8:11] = 0.15  # a flat patch at a level
        d = PhaseDiagram(g, -1.0, -1.0, [], np.zeros_like(z), z, [])
        levels = [0.3, 0.15, 0.0, 0.45]
        want = []
        for level in levels:
            segments = []
            for i in range(len(ts) - 1):
                for j in range(len(bs) - 1):
                    segments.extend(_cell_segments(ts, bs, z, i, j, level))
            want.append((level, _chain_segments(segments)))
        got = level_lines(d, levels)
        assert got == want
        assert contours_to_csv(got, 0.5) == contours_to_csv(want, 0.5)
        assert [len(polylines) > 0 for _, polylines in got] == [True, True, False, True]

    def test_rejects_out_of_range_levels(self):
        d = sweep(-1.0, -1.0, GridSpec(0.2, 0.6, 0.4, 0.8, 2, 2))
        with pytest.raises(ValueError):
            level_lines(d, [1.0])

    def test_contour_csv_format(self):
        g = GridSpec(0.2, 1.2, 0.2, 2.0, 16, 16)
        d = sweep(-1.0, -1.0, g)
        text = contours_to_csv(level_lines(d, [0.3]))
        lines = text.strip().split("\n")
        assert lines[0] == "level,polyline,T,B"
        assert len(lines) > 1


class TestSerialization:
    def test_csv_layout(self):
        g = GridSpec(0.3, 0.7, 0.5, 1.5, 2, 3)
        d = sweep(-1.0, -1.0, g)
        lines = diagram_to_csv(d, "J", 1.0).strip().split("\n")
        assert lines[0].startswith("# J=")
        assert lines[2] == "T,B,branch,theta_opt,deficit_nats,deficit_bits"
        assert len(lines) == 3 + 2 * 3
        row = lines[3].split(",")
        assert row[2] in ("Zero", "Interior", "HalfPi")
        assert float(row[5]) == pytest.approx(float(row[4]) / LN2, rel=1e-6)

    def test_json_layout(self):
        g = GridSpec(0.3, 0.7, 0.5, 1.5, 2, 2)
        doc = json.loads(diagram_to_json(sweep(-1.0, -1.0, g), "J", 1.0))
        assert doc["params"] == {"J": -1.0, "Jz": -1.0}
        assert len(doc["cells"]) == 4
        assert {"T", "B", "branch", "theta_opt", "deficit_nats",
                "deficit_bits", "shape"} <= set(doc["cells"][0])


def _json_reference(d: PhaseDiagram, norm_unit: str, norm_value: float) -> str:
    """The diagram document written by json.dumps."""
    g = d.grid
    ts = g.t_centers() / norm_value
    bs = g.b_centers() / norm_value
    cells = []
    for i in range(g.n_t):
        for j in range(g.n_b):
            dn = float(d.deficit[i, j])
            cells.append({
                "T": round9(ts[i]),
                "B": round9(bs[j]),
                "branch": d.branch[i][j],
                "theta_opt": round9(d.theta[i, j]),
                "deficit_nats": round9(dn),
                "deficit_bits": round9(dn / LN2),
                "shape": d.shape_tags[i][j],
            })
    doc = {
        "params": {"J": d.J, "Jz": d.Jz},
        "norm": {"unit": norm_unit, "value": round9(norm_value)},
        "grid": {
            "T_range": [g.t_min, g.t_max],
            "B_range": [g.b_min, g.b_max],
            "n_t": g.n_t,
            "n_b": g.n_b,
        },
        "cells": cells,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


class TestJsonWriter:
    @pytest.mark.parametrize("J,Jz,norm_unit,b_range", [
        (-1.0, -1.0, "J", (0.0, 3.0)),
        (0.5, -1.0, "Jz", (0.0, 3.0)),
        (-1.0, -1.5, "J", (-2.0, -0.5)),  # a negative field range
        (0.5, -1.0, "Jz", (-1.5, 1.5)),
    ])
    def test_equals_json_dumps(self, J, Jz, norm_unit, b_range):
        d = sweep(J, Jz, GridSpec(0.02, 1.5, *b_range, 9, 7))
        norm = abs(J) if norm_unit == "J" else abs(Jz)
        assert diagram_to_json(d, norm_unit, norm) == _json_reference(d, norm_unit, norm)

    def test_equals_json_dumps_at_the_endpoint_angle_and_zero_deficit(self):
        d = sweep(0.5, -1.0, GridSpec(0.02, 1.5, -1.0, 1.0, 5, 4))
        assert (d.theta == HALF_PI).any()
        d.deficit[0, 0] = 0.0
        d.deficit[1, 1] = -0.0
        d.theta[2, 2] = 0.0
        d.branch[3][0] = "Interior"
        d.shape_tags[3][0] = "Other(3)"
        text = diagram_to_json(d, "Jz", 1.0)
        assert text == _json_reference(d, "Jz", 1.0)
        cells = json.loads(text)["cells"]
        assert cells[0]["deficit_nats"] == 0.0
        assert cells[0]["deficit_bits"] == 0.0
        assert cells[3 * 4]["shape"] == "Other(3)"

    @pytest.mark.parametrize("where", ["theta", "deficit", "inf", "bits", "norm"])
    def test_a_non_finite_value_raises(self, where):
        d = sweep(-1.0, -1.0, GridSpec(0.2, 1.0, 0.0, 1.0, 3, 3))
        norm = 1.0
        if where == "theta":
            d.theta[1, 2] = math.nan
        elif where == "deficit":
            d.deficit[2, 0] = math.nan
        elif where == "inf":
            d.deficit[0, 1] = -math.inf
        elif where == "bits":
            d.deficit[0, 1] = 1.7e308  # finite, but not in bits
        else:
            norm = 1e-320  # T and B overflow when divided by it
        with pytest.raises(ValueError, match="not finite"):
            diagram_to_json(d, "J", norm)


class TestRepr9:
    @pytest.mark.parametrize("x", [
        0.0, -0.0, 2.0, 1e-5, 1e-4, 123456789.0, 1.5e9, 1e16, 5e-324, 1e-310,
        0.1, -0.5, 99999999.95, 999999999.5, 9.9999999995e-5, 1.7e308,
        math.inf, -math.inf, math.nan,
    ])
    def test_equals_the_repr_of_round9(self, x):
        assert repr9(x) == repr(round9(x))

    def test_equals_the_repr_of_round9_over_every_magnitude(self, rng):
        # random bit patterns: both signs, every exponent, subnormals
        bits = rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64, endpoint=True)
        xs = bits.view(np.float64)
        # and uniform mantissas at every decimal exponent the writers meet
        scaled = rng.uniform(1.0, 10.0, 20_000) * 10.0 ** rng.integers(-12, 13, 20_000)
        xs = np.concatenate([xs, scaled])
        for x in xs.tolist():
            assert repr9(x) == repr(round9(x)), x


class TestFmt9:
    """``fmt9`` applies the %-format ``FMT9``, which ``diagram_to_csv``
    also applies to a cell line's numbers; its text is format(x, '.9g')."""

    def test_is_the_9g_text_over_every_magnitude(self, rng):
        bits = rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64, endpoint=True)
        scaled = rng.uniform(1.0, 10.0, 20_000) * 10.0 ** rng.integers(-12, 13, 20_000)
        specials = [0.0, -0.0, 5e-324, 1.7e308, math.inf, -math.inf, math.nan]
        for x in np.concatenate([bits.view(np.float64), scaled]).tolist() + specials:
            assert fmt9(x) == format(x, ".9g"), x

    def test_a_csv_cell_line_is_its_fmt9_texts(self):
        g = GridSpec(0.3, 0.7, 0.5, 1.5, 2, 3)
        d = sweep(-1.0, -1.5, g)
        rows = diagram_to_csv(d, "J", 1.0).strip().split("\n")[3:]
        want = [
            ",".join([fmt9(t), fmt9(b), d.branch[i][j], fmt9(d.theta[i, j]),
                      fmt9(d.deficit[i, j]), fmt9(float(d.deficit[i, j]) / LN2)])
            for i, t in enumerate(g.t_centers().tolist())
            for j, b in enumerate(g.b_centers().tolist())
        ]
        assert rows == want
