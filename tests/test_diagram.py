import dataclasses
import inspect
import json
import math

import numpy as np
import pytest

from xxz_deficit.diagram import (
    GridSpec,
    PhaseDiagram,
    contours_to_csv,
    diagram_to_csv,
    diagram_to_json,
    level_lines,
    sweep,
)
from xxz_deficit.model import ModelParams
from xxz_deficit.numfmt import fmt9, round9
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

    def test_sweep_takes_no_report_unit(self):
        assert list(inspect.signature(sweep).parameters) == ["J", "Jz", "grid"]
        fields = {f.name for f in dataclasses.fields(PhaseDiagram)}
        assert not fields & {"norm_unit", "norm_value"}


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
