import argparse
import itertools
import json
import math
import os
import warnings

import pytest

from xxz_deficit import boundaries, cli
from xxz_deficit.boundaries import BoundaryKind, curve_to_csv, trace_boundary
from xxz_deficit.cli import main
from xxz_deficit.model import ModelParams


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _never_called(*args, **kwargs):
    raise AssertionError("the computation started")


# The long options of each subcommand; "!" marks a required one.
_OPTIONS = {
    "point": "--J! --Jz! --out --norm --format --B! --T!",
    "profile": "--J! --Jz! --out --units --B! --T! --n --extended",
    "boundary": "--J! --Jz! --out --norm --kind! --march --B-range --T-range"
                " --no-classify --bracket-lo --bracket-hi",
    "triple": "--J! --Jz! --out --norm --format --B-range --kinds"
              " --bracket-lo --bracket-hi",
    "jumps": "--J! --Jz! --out --norm --B-list! --eps --bracket-lo --bracket-hi",
    "diagram": "--J! --Jz! --out --norm --format --T-range! --B-range! --grid"
               " --workers --levels",
}


class TestOptions:
    def test_each_command_takes_only_the_options_it_reads(self):
        (subs,) = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {a.option_strings[-1] + "!" * a.required
                   for a in sub._actions if a.dest != "help"}
            for name, sub in subs.choices.items()
        }
        assert got == {name: set(opts.split()) for name, opts in _OPTIONS.items()}
        assert sum(map(len, got.values())) == 53

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_errors_leave_the_parser_as_it_was(self, capsys):
        point = ("point", "--J", "-1", "--Jz", "-1", "--B", "1.4", "--T", "0.72")
        want = run(capsys, *point)
        assert want[0] == 0 and want[1].startswith("T,0.72\n")
        for argv in [
            ("point", "--J", "-1", "--Jz", "-1", "--B", "1.4", "--units", "bits"),
            ("diagram", "--J", "-1", "--Jz", "-1", "--grid", "4x4"),
            ("nocommand",),
            (),
        ]:
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (1, "") and err.startswith("error:")
            assert run(capsys, *point) == want

    def test_top_level_help_lists_every_command(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_:
                main(["--help"])
            assert exit_.value.code == 0
            out = capsys.readouterr().out
            assert "{point,profile,boundary,triple,jumps,diagram}" in out
            for name in _OPTIONS:
                assert f"\n    {name} " in out

    @pytest.mark.parametrize(
        "argv",
        [
            # options the command would not read
            ("point", "--B", "1.4", "--T", "0.72", "--units", "bits"),
            ("profile", "--B", "1.4", "--T", "0.72", "--norm", "Jz"),
            ("profile", "--B", "1.4", "--T", "0.72", "--format", "json"),
            ("boundary", "--kind", "zero", "--B-range", "1.4:1.2:0.05",
             "--format", "json"),
            ("boundary", "--kind", "zero", "--B-range", "1.4:1.2:0.05",
             "--units", "bits"),
            ("triple", "--units", "bits"),
            ("jumps", "--B-list", "1.9", "--format", "json"),
            ("jumps", "--B-list", "1.9", "--units", "bits"),
            ("diagram", "--T-range", "0.2:1.0", "--B-range", "0.2:2.0",
             "--grid", "4x4", "--units", "bits"),
            # the range of the coordinate boundary does not march
            ("boundary", "--kind", "zero", "--B-range", "1.4:1.2:0.05",
             "--T-range", "0.5:1.0"),
            ("boundary", "--kind", "zero", "--march", "T", "--T-range", "0.1:0.2",
             "--B-range", "0.5:1.5"),
            ("diagram", "--T-range", "0.2:1.0", "--B-range", "0.2:2.0",
             "--grid", "4x4", "--workers", "0"),
            # a required option left out
            ("profile", "--B", "1.4"),
            ("jumps",),
            ("diagram", "--T-range", "0.2:1.0"),
            ("boundary", "--kind", "zero", "--march", "T"),
            # a malformed or out-of-range value
            ("boundary", "--kind", "zero", "--B-range", "1"),
            ("triple", "--B-range", "1:2:3:4"),
            ("diagram", "--T-range", "0.2:1.0", "--B-range", "a:1"),
            ("boundary", "--kind", "zero", "--B-range", "1:2:0"),
            ("diagram", "--T-range", "0.2:1.0", "--B-range", "0.2:2.0",
             "--grid", "10xa"),
            ("diagram", "--T-range", "1:0.5", "--B-range", "0.2:2.0"),
            ("jumps", "--B-list", "1.7,x"),
            ("jumps", "--B-list", ","),
        ],
    )
    def test_usage_error_before_any_work(self, capsys, tmp_path, monkeypatch, argv):
        for name in ("optimize_deficit", "scan_profile", "trace_boundary",
                     "solve_boundary_on_line", "sweep"):
            monkeypatch.setattr(cli, name, _never_called)
        path = tmp_path / "never.csv"
        rc, out, err = run(capsys, argv[0], "--J", "-1", "--Jz", "-1", *argv[1:],
                           "--out", str(path))
        assert rc == 1
        assert err.startswith("error:")
        assert out == ""
        assert not path.exists()


class TestPoint:
    @pytest.mark.parametrize(
        "jz,b,t,branch",
        [
            (-1.0, 1.4, 0.72, "Interior"),
            (1.5, 1.0, 0.5, "Zero"),
            (-1.0, 1.4, 0.4, "HalfPi"),
        ],
    )
    def test_branch_examples(self, capsys, jz, b, t, branch):
        rc, out, _ = run(
            capsys, "point", "--J", "-1" if jz < 0 else "1", "--Jz", str(jz),
            "--B", str(b), "--T", str(t),
        )
        assert rc == 0
        assert f"branch,{branch}" in out

    def test_reports_both_units(self, capsys):
        rc, out, _ = run(capsys, "point", "--J", "-1", "--Jz", "-1",
                         "--B", "1.4", "--T", "0.72")
        assert rc == 0
        rows = dict(line.split(",", 1) for line in out.strip().split("\n"))
        assert float(rows["deficit_bits"]) == pytest.approx(
            float(rows["deficit_nats"]) / math.log(2.0), rel=1e-6
        )

    def test_json_format(self, capsys):
        rc, out, _ = run(capsys, "point", "--J", "-1", "--Jz", "-1",
                         "--B", "1.4", "--T", "0.72", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["branch"] == "Interior"

    def test_missing_point_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "point", "--J", "-1", "--Jz", "-1")
        assert rc == 1
        assert "required" in err

    def test_zero_normalizer_fails_before_the_optimizer_and_its_warning(
        self, capsys, monkeypatch
    ):
        # T = 0 would be clamped with a warning: the normalizer fails first
        monkeypatch.setattr(cli, "optimize_deficit", _never_called)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, "point", "--J", "0", "--Jz", "0", "--B", "0", "--T", "0")
        assert caught == []
        assert (rc, out, err) == (1, "", "error: cannot normalize on |J| = 0\n")

    def test_value_starting_with_a_dash_is_read_as_a_value(self, capsys):
        # argparse alone reads -1e-3 as an option: "expected one argument"
        args = ["--Jz", "-1", "--B", "0.5", "--T", "0.5"]
        rc, out, _ = run(capsys, "point", "--J", "-1e-3", *args)
        assert rc == 0
        assert run(capsys, "point", "--J=-1e-3", *args) == (0, out, "")
        # an option of the command is never taken for a value
        rc, _, err = run(capsys, "point", "--J", "--Jz", "-1", "--B", "0.5", "--T", "0.5")
        assert rc == 1
        assert "--J: expected one argument" in err


class TestProfile:
    def test_shape_annotation_and_samples(self, capsys):
        rc, out, _ = run(capsys, "profile", "--J", "-1", "--Jz", "-1.5",
                         "--B", "1.9", "--T", "0.628", "--n", "201")
        assert rc == 0
        assert "# shape=Bimodal" in out
        assert "# interior_min," in out and "# interior_max," in out
        data_lines = [l for l in out.strip().split("\n") if not l.startswith("#")]
        assert len(data_lines) == 1 + 201

    def test_flat_curvature_at_the_bifurcation_point(self, capsys):
        rc, out, _ = run(capsys, "profile", "--J", "-1", "--Jz", "-1",
                         "--B", "1.4", "--T", "0.742967", "--extended")
        assert rc == 0
        rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")]
        samples = [(float(a), float(b)) for a, b in rows[1:]]
        thetas = [t for t, _ in samples]
        values = [v for _, v in samples]
        assert thetas[0] == pytest.approx(-math.pi / 2)
        # quartic-flat minimum at the center: discrete curvature nearly zero
        k = min(range(len(thetas)), key=lambda i: abs(thetas[i]))
        h = thetas[k + 1] - thetas[k]
        curv = (values[k + 1] - 2 * values[k] + values[k - 1]) / h**2
        assert abs(curv) < 1e-3

    def test_endpoint_slopes_vanish(self, capsys):
        rc, out, _ = run(capsys, "profile", "--J", "-1", "--Jz", "-1",
                         "--B", "1.4", "--T", "0.9")
        rows = [l.split(",") for l in out.strip().split("\n") if not l.startswith("#")]
        samples = [(float(a), float(b)) for a, b in rows[1:]]
        h = samples[1][0] - samples[0][0]
        assert abs(samples[1][1] - samples[0][1]) / h < 0.05
        assert abs(samples[-1][1] - samples[-2][1]) / h < 0.05


class TestBoundary:
    def test_trace_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        rc, _, _ = run(capsys, "boundary", "--J", "-1", "--Jz", "-1",
                       "--kind", "zero", "--march", "B",
                       "--B-range", "1.4:1.2:0.05", "--out", str(out_path))
        assert rc == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[1] == "kind,T,B,residual,is_physical"
        assert len(lines) == 2 + 5

    def test_partial_trace_exits_two(self, capsys):
        rc, out, _ = run(capsys, "boundary", "--J", "-1", "--Jz", "-1.5",
                         "--kind", "zeroprime", "--march", "B",
                         "--B-range", "2.0:1.5:0.02",
                         "--bracket-lo", "0.55", "--bracket-hi", "0.75",
                         "--no-classify")
        assert rc == 2
        assert "complete=0" in out

    @pytest.mark.parametrize(
        "J,Jz,span,bracket_hi",
        [
            ("-0.79", "0.14", "1.1:0.26:0.01", "1.2"),
            ("1.32", "0.44", "1.55:0.63:0.02", "1.8"),
            ("-0.9", "0.82", "0.6:-0.16:0.02", "1.0"),
        ],
    )
    def test_zeroprime_root_near_the_floor_ends_a_partial_curve(
        self, capsys, tmp_path, J, Jz, span, bracket_hi
    ):
        # each march reaches a root near T = 6.1e-5, whose refine probe at
        # root - 1e-4 would lie below T = 0; it is skipped, not evaluated
        path = tmp_path / "curve.csv"
        rc, _, err = run(capsys, "boundary", "--J", J, "--Jz", Jz,
                         "--kind", "zeroprime", "--B-range", span,
                         "--bracket-lo", "0.02", "--bracket-hi", bracket_hi,
                         "--no-classify", "--out", str(path))
        lines = path.read_text().strip().split("\n")
        assert rc == 2
        assert err.startswith("curve partial: no root at min step")
        assert "complete=0" in lines[0]
        assert len(lines) > 2

    @pytest.mark.parametrize("command,option", [("boundary", "--kind=zero"), ("triple", "")])
    def test_non_finite_march_range_is_an_error(self, capsys, tmp_path, command, option):
        path = tmp_path / "never.csv"
        rc, _, err = run(capsys, command, "--J", "-1", "--Jz", "-1.5",
                         *([option] if option else []),
                         "--B-range", "1.4:nan:0.02", "--out", str(path))
        assert rc == 1
        assert err.startswith("error: B range must be finite")
        assert not path.exists()

    @pytest.mark.parametrize("span", ["0.1:-0.05:0.05", "-0.05:0.1:0.05"])
    def test_march_below_zero_temperature_is_an_error(self, capsys, tmp_path, monkeypatch, span):
        # either end of the T range below 0 stops the command before any solve
        monkeypatch.setattr("xxz_deficit.boundaries._solve_line", _never_called)
        path = tmp_path / "never.csv"
        rc, _, err = run(capsys, "boundary", "--J", "1", "--Jz", "0", "--kind", "zero",
                         "--march", "T", "--T-range", span, "--bracket-lo", "0.3",
                         "--bracket-hi", "1.7", "--no-classify", "--out", str(path))
        assert rc == 1
        assert err == "error: temperature must be positive, got -0.05\n"
        assert not path.exists()

    def test_curve_starting_past_the_span_start_is_partial(self, capsys):
        rc, out, err = run(capsys, "boundary", "--J", "-1", "--Jz", "-1",
                           "--kind", "halfpi", "--B-range", "0.0:1.0:0.1",
                           "--bracket-lo", "0.4", "--bracket-hi", "0.9")
        lines = out.strip().split("\n")
        assert rc == 2
        assert err == "curve partial: first root past span start; last B=1\n"
        assert "complete=0" in lines[0]
        assert float(lines[2].split(",")[2]) == pytest.approx(0.4)
        assert float(lines[-1].split(",")[2]) == pytest.approx(1.0)

    def test_stop_reason_goes_to_stderr_and_the_csv_is_unchanged(self, capsys):
        # the march halves to step/64 and stops short of the B = 2 level
        # crossing; the last marched value is reported in units of |J|
        argv = ["boundary", "--J", "-2", "--Jz", "-2", "--kind", "zero",
                "--B-range", "3.8:4.2:0.02", "--bracket-lo", "0.6",
                "--bracket-hi", "3", "--no-classify"]
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        last_b = out.strip().split("\n")[-1].split(",")[2]
        assert err == f"curve partial: no root at min step; last B={last_b}\n"
        assert float(last_b) < 2.1
        curve = trace_boundary(
            BoundaryKind.ZERO, ModelParams(-2, -2, 3.8, 0.1), "B", 3.8, 4.2, 0.02,
            first_bracket=(0.6, 3.0), classify=False,
        )
        assert out == curve_to_csv(curve, 2.0)

    @pytest.mark.parametrize(
        "span",
        [
            ("--B-range", "0.5:2.2:0.05", "--bracket-lo", "0.3",
             "--bracket-hi", "1.5"),
            ("--march", "T", "--T-range", "0.0025:0.01:0.0025",
             "--bracket-lo", "0.5", "--bracket-hi", "1.5"),
        ],
    )
    def test_low_temperature_zero_trace_stops_on_underflow(self, capsys, tmp_path, span):
        # populations underflow near T = 0 on both lines; the stations there
        # fail instead of crashing or solving floored values
        out_path = tmp_path / "zero.csv"
        rc, _, _ = run(capsys, "boundary", "--J", "-1", "--Jz", "-1",
                       "--kind", "zero", *span, "--out", str(out_path))
        lines = out_path.read_text().strip().split("\n")
        assert rc == 2
        assert "complete=0" in lines[0]
        assert lines[1] == "kind,T,B,residual,is_physical"
        assert all(math.isfinite(float(row.split(",")[3])) for row in lines[2:])

    def test_cancelled_zero_residual_is_not_a_root(self, capsys):
        # at T = 0.0075 and 0.01 the zero residual's terms (about 532
        # each) cancel to exactly 0.0 at the lower end of the bracket,
        # where no sign change can certify it
        rc, out, _ = run(capsys, "boundary", "--J", "-1", "--Jz", "-1",
                         "--kind", "zero", "--march", "T",
                         "--T-range", "0.0025:0.01:0.0025",
                         "--bracket-lo", "0.5", "--bracket-hi", "1.5")
        lines = out.strip().split("\n")
        assert rc == 2
        assert "complete=0" in lines[0]
        assert lines[1:] == ["kind,T,B,residual,is_physical"]

    def test_exact_zeros_at_the_temperature_floor_are_not_roots(self, capsys):
        # below B ~ 0.38 the seeded bracket reaches the clamped T = 2e-8,
        # where the halfpi residual is exactly 0 on every scan point there
        rc, out, _ = run(capsys, "boundary", "--J", "-1.19", "--Jz", "-1.659",
                         "--kind", "halfpi", "--B-range", "0.697:0.2:0.01",
                         "--bracket-lo", "0.15", "--bracket-hi", "0.4",
                         "--no-classify")
        lines = out.strip().split("\n")
        rows = [row.split(",") for row in lines[2:]]
        assert rc == 2
        assert "complete=0" in lines[0]
        assert rows
        assert min(float(row[1]) for row in rows) > 0.05
        assert all(float(row[3]) != 0.0 for row in rows)

    def test_certified_exact_root_is_kept(self, capsys):
        # on the XX line B = |J| the zero residual is exactly 0 at
        # T = 0.05, between scan neighbours of opposite sign
        rc, out, _ = run(capsys, "boundary", "--J", "1", "--Jz", "0",
                         "--kind", "zero", "--march", "T",
                         "--T-range", "0.05:0.2:0.05",
                         "--bracket-lo", "0.3", "--bracket-hi", "1.7",
                         "--no-classify")
        lines = out.strip().split("\n")
        assert rc == 0
        assert lines[2] == "zero,0.05,1,0,1"

    def test_degenerate_halfpi_residual_is_no_root(self, capsys):
        # at J = 0 the halfpi closed form is 0/0 on the whole B = 0 line
        # and near the low-T end of the bracket further up
        rc, out, err = run(capsys, "boundary", "--J", "0", "--Jz", "-1",
                           "--norm", "Jz", "--kind", "halfpi",
                           "--B-range", "0:1:0.1")
        assert rc == 2
        assert out.split("\n")[1:] == ["kind,T,B,residual,is_physical", ""]
        assert "complete=0" in out.split("\n")[0]
        assert "no root found anywhere on the requested span" in err

    def test_missing_range_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "boundary", "--J", "-1", "--Jz", "-1",
                         "--kind", "zero")
        assert rc == 1

    def test_zero_normalizer_fails_before_tracing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "trace_boundary", _never_called)
        path = tmp_path / "never.csv"
        rc, _, err = run(capsys, "boundary", "--J", "0", "--Jz", "-1",
                         "--kind", "zero", "--B-range", "0.5:1.0",
                         "--out", str(path))
        assert rc == 1
        assert "normalize" in err
        assert not path.exists()


class TestMarchStep:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("boundary", "--J", "-1", "--Jz", "-1", "--kind", "zero", "--B-range",
              "0.5:0.6:1e-17", "--bracket-lo", "0.5", "--bracket-hi", "1.2", "--no-classify"),
             "step 1e-17 is too small to move B=0.6"),
            (("triple", "--J", "-1", "--Jz", "-1.5", "--B-range", "1.4:2.0:1e-300",
              "--bracket-lo", "0.4", "--bracket-hi", "0.9"),
             "step 1e-300 is too small to move B=2.0"),
            (("boundary", "--J", "-1", "--Jz", "-1", "--kind", "zero", "--B-range",
              "0.5:0.6:nan", "--bracket-lo", "0.5", "--bracket-hi", "1.2"),
             "step must be nonzero and not nan, got nan"),
            (("triple", "--J", "-1", "--Jz", "-1.5", "--B-range", "1.4:2.0:nan",
              "--bracket-lo", "0.4", "--bracket-hi", "0.9"),
             "step must be nonzero and not nan, got nan"),
        ],
        ids=["boundary-tiny", "triple-tiny", "boundary-nan", "triple-nan"],
    )
    def test_a_step_that_cannot_move_the_march_fails_before_any_solve(
        self, capsys, tmp_path, monkeypatch, argv, message
    ):
        # a step lost in rounding divided by zero in the march's predictor,
        # and a nan step solved its first station
        monkeypatch.setattr(boundaries, "_solve_line", _never_called)
        path = tmp_path / "never.csv"
        rc, out, err = run(capsys, *argv, "--out", str(path))
        assert (rc, out, err) == (1, "", f"error: {message}\n")
        assert not path.exists()


class TestNonFiniteBracket:
    @pytest.mark.parametrize(
        "argv",
        [
            ("boundary", "--J", "-1", "--Jz", "-1", "--kind", "zero",
             "--B-range", "1.4:1.2:0.05", "--bracket-hi", "inf"),
            ("boundary", "--J", "-1", "--Jz", "-1", "--kind", "halfpi",
             "--B-range", "1.4:1.2:0.05", "--bracket-lo", "nan"),
            ("boundary", "--J", "1", "--Jz", "0", "--kind", "zero", "--march", "T",
             "--T-range", "0.1:0.2:0.05", "--bracket-hi", "inf"),
            ("jumps", "--J", "-1", "--Jz", "-1.5", "--B-list", "1.9",
             "--bracket-hi", "inf"),
            ("triple", "--J", "-1", "--Jz", "-1.5", "--B-range", "1.4:2.0:0.02",
             "--bracket-hi", "inf"),
        ],
    )
    def test_is_an_error_without_numpy_warnings(self, capsys, tmp_path, argv):
        path = tmp_path / "never.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, _, err = run(capsys, *argv, "--out", str(path))
        assert rc == 1
        assert err.startswith("error:")
        assert "finite" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not path.exists()


class TestTriple:
    def test_ising_like_triple_point(self, capsys):
        rc, out, _ = run(capsys, "triple", "--J", "-1", "--Jz", "-1.5",
                         "--B-range", "1.4:2.0:0.02",
                         "--bracket-lo", "0.4", "--bracket-hi", "0.9")
        assert rc == 0
        t, b = out.strip().split("\n")[1].split(",")[:2]
        assert float(t) == pytest.approx(0.6454108, abs=1e-3)
        assert float(b) == pytest.approx(1.6851637, abs=1e-3)

    def test_json_holds_the_csv_point(self, capsys):
        argv = ("triple", "--J", "-1", "--Jz", "-1.5", "--B-range", "1.6:1.8:0.02",
                "--bracket-lo", "0.4", "--bracket-hi", "0.9")
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        rc, text, _ = run(capsys, *argv, "--format", "json")
        assert rc == 0
        t, b, kinds = out.split("\n")[1].split(",")
        assert json.loads(text) == {
            "T": float(t), "B": float(b), "kinds": kinds.split("|"),
        }
        assert kinds == "equal|halfpi"

    def test_the_order_of_kinds_leaves_the_point(self, capsys):
        # zeroprime ends at the triple point and crosses neither other
        # curve; the crossing comes from the first pair, in order, that
        # crosses, which is equal with halfpi every time
        argv = ("triple", "--J", "-1", "--Jz", "-1.5", "--B-range", "1.6:1.8:0.02",
                "--bracket-lo", "0.4", "--bracket-hi", "0.9", "--kinds")
        outs = set()
        for kinds in ("equal,halfpi,zeroprime", "zeroprime,equal,halfpi",
                      "halfpi,zeroprime,equal"):
            rc, out, _ = run(capsys, *argv, kinds)
            assert rc == 0
            outs.add(out)
        assert outs == {"T,B,kinds\n0.64541083,1.68516373,equal|halfpi|zeroprime\n"}
        rc, out, err = run(capsys, *argv, "zeroprime,halfpi")
        assert (rc, out) == (2, "")
        assert err == "no triple point inside the scanned range: no pair of curves crosses\n"

    def test_every_order_of_kinds_walks_the_upward_pair_first(self, capsys, monkeypatch):
        # a pair with zeroprime, which is traced down to its end, comes
        # after the pairs of two upward curves, so no order traces it: each
        # writes the same bytes with at most the residuals of the order
        # that lists zeroprime last (108; 1,279 and 1,309 when it was walked
        # in the given order)
        argv = ("triple", "--J", "-1", "--Jz", "-1.5", "--B-range", "1.6:1.8:0.02",
                "--bracket-lo", "0.4", "--bracket-hi", "0.9", "--kinds")
        calls = []
        residual = boundaries._residual_at

        def counted(*args, **kwargs):
            calls.append(args[0])
            return residual(*args, **kwargs)

        monkeypatch.setattr(boundaries, "_residual_at", counted)
        counts = {}
        for kinds in itertools.permutations(("equal", "halfpi", "zeroprime")):
            calls.clear()
            assert run(capsys, *argv, ",".join(kinds)) == (
                0, "T,B,kinds\n0.64541083,1.68516373,equal|halfpi|zeroprime\n", ""
            )
            counts[kinds] = len(calls)
        assert max(counts.values()) == counts[("equal", "halfpi", "zeroprime")]

    @pytest.mark.parametrize("argv", [
        ("--B-range", "1.3:1.5:0.05", "--kinds", "zero,halfpi",
         "--bracket-lo", "0.4", "--bracket-hi", "0.9"),
        ("--B-range", "0.5:0.6:0.02", "--bracket-lo", "0.3", "--bracket-hi", "1.2"),
    ])
    def test_no_intersection_exits_two(self, capsys, argv):
        rc, out, err = run(capsys, "triple", "--J", "-1", "--Jz", "-1", *argv)
        assert (rc, out) == (2, "")
        assert err == "no triple point inside the scanned range: no pair of curves crosses\n"

    def test_curves_without_points_exit_two(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        rc, _, err = run(capsys, "triple", "--J", "-1", "--Jz", "-1.5",
                         "--B-range", "2.6:3.0:0.05", "--out", str(path))
        assert rc == 2
        assert err == "no triple point inside the scanned range: no pair of curves crosses\n"
        assert not path.exists()

    @pytest.mark.parametrize("Jz", ["-1.1", "-1.2"])
    @pytest.mark.parametrize("kinds", ["zero,zeroprime", "zeroprime,zero"])
    def test_a_drifting_zero_zeroprime_crossing_is_no_point(
        self, capsys, tmp_path, Jz, kinds
    ):
        # zeroprime ends on zero there and Newton's root fails its
        # certificate; where the two traces cross moves with the S~ sample
        # count (B 1.63502716 at 401 angles, 1.63503693 at 801 and
        # 1.63477814 at 1601, at Jz = -1.2), so it is no converged root
        path = tmp_path / "never.csv"
        rc, out, err = run(capsys, "triple", "--J", "-1", "--Jz", Jz,
                           "--B-range", "0.8:2.6:0.02", "--bracket-lo", "0.3",
                           "--bracket-hi", "1.2", "--kinds", kinds, "--out", str(path))
        assert (rc, out) == (2, "")
        assert err == (
            "no triple point inside the scanned range: "
            f"Newton refused the {kinds.replace(',', '/')} crossing\n"
        )
        assert not path.exists()

    @pytest.mark.parametrize(
        "kinds, message",
        [
            ("equal,bogus", "'bogus'"),
            ("equal", "at least two"),
            ("equal,equal", "at least two"),
        ],
    )
    def test_bad_kinds_fail_before_tracing(
        self, capsys, tmp_path, monkeypatch, kinds, message
    ):
        monkeypatch.setattr(cli, "_march", _never_called)
        path = tmp_path / "never.csv"
        rc, _, err = run(capsys, "triple", "--J", "-1", "--Jz", "-1.5",
                         "--kinds", kinds, "--out", str(path))
        assert rc == 1
        assert err.startswith("error:")
        assert message in err
        if "bogus" in kinds:
            assert "equal, halfpi, zero, zeroprime" in err
        assert not path.exists()

    def test_zero_normalizer_fails_before_tracing(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_march", _never_called)
        rc, _, err = run(capsys, "triple", "--J", "0", "--Jz", "-1.5")
        assert rc == 1
        assert "normalize" in err


class TestJumps:
    def test_reproduces_one_table_row(self, capsys):
        rc, out, _ = run(capsys, "jumps", "--J", "-1", "--Jz", "-1.5",
                         "--B-list", "1.9", "--bracket-lo", "0.4",
                         "--bracket-hi", "0.9")
        assert rc == 0
        row = out.strip().split("\n")[-1].split(",")
        assert float(row[1]) == pytest.approx(0.63329, abs=1e-3)
        assert float(row[2]) == pytest.approx(0.64026, abs=2e-3)

    def test_failed_field_value_exits_two(self, capsys):
        rc, out, _ = run(capsys, "jumps", "--J", "1", "--Jz", "1.5",
                         "--B-list", "1.0")
        assert rc == 2

    def test_degenerate_halfpi_rows_are_blank(self, capsys):
        rc, out, _ = run(capsys, "jumps", "--J", "0", "--Jz", "-1", "--norm", "Jz",
                         "--B-list", "0,0.5")
        assert rc == 2
        assert out.split("\n")[1:] == ["B,T,jump", "0,,", "0.5,,", ""]

    @pytest.mark.parametrize("eps", ["0", "-1e-5", "nan", "inf", "-inf"])
    def test_bad_eps_fails_before_solving(self, capsys, tmp_path, monkeypatch, eps):
        monkeypatch.setattr(cli, "solve_boundary_on_line", _never_called)
        path = tmp_path / "never.csv"
        rc, _, err = run(capsys, "jumps", "--J", "-1", "--Jz", "-1.5",
                         "--B-list", "1.9", f"--eps={eps}", "--out", str(path))
        assert rc == 1
        assert err.startswith("error: --eps must be positive and finite")
        assert not path.exists()

    def test_eps_below_the_float_spacing_is_a_failed_row(self, capsys, monkeypatch):
        # t_cross +- 1e-20 rounds to t_cross = 0.633: no straddle, no jump
        monkeypatch.setattr(cli, "optimal_angle_jump", _never_called)
        rc, out, _ = run(capsys, "jumps", "--J", "-1", "--Jz", "-1.5",
                         "--B-list", "1.9", "--eps", "1e-20",
                         "--bracket-lo", "0.4", "--bracket-hi", "0.9")
        assert rc == 2
        assert out.split("\n")[1:] == ["B,T,jump", "1.9,,", ""]

    def test_straddle_below_the_floor_is_a_failed_row(self, capsys, monkeypatch):
        # the crossing lies at T = 0.633, so T - eps is negative
        monkeypatch.setattr(cli, "optimal_angle_jump", _never_called)
        rc, out, _ = run(capsys, "jumps", "--J", "-1", "--Jz", "-1.5",
                         "--B-list", "1.9", "--eps", "1",
                         "--bracket-lo", "0.4", "--bracket-hi", "0.9")
        assert rc == 2
        assert out.split("\n")[1:] == ["B,T,jump", "1.9,,", ""]


class TestDiagram:
    def test_deterministic_across_worker_counts(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["diagram", "--J", "-1", "--Jz", "-1", "--T-range", "0.2:1.0",
                "--B-range", "0.2:2.0", "--grid", "10x8"]
        rc1, _, _ = run(capsys, *base, "--workers", "1", "--out", str(a))
        rc2, _, _ = run(capsys, *base, "--workers", "2", "--out", str(b))
        assert rc1 == rc2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        rc, _, _ = run(capsys, "diagram", "--J", "1", "--Jz", "0",
                       "--T-range", "0.2:0.6", "--B-range", "0.4:0.8",
                       "--grid", "3x3", "--format", "json", "--out", str(path))
        assert rc == 0
        doc = json.loads(path.read_text())
        assert len(doc["cells"]) == 9

    def test_levels_written_alongside(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        rc, _, _ = run(capsys, "diagram", "--J", "-1", "--Jz", "-1",
                       "--T-range", "0.1:1.0", "--B-range", "0.1:1.5",
                       "--grid", "12x12", "--levels", "0.3",
                       "--out", str(path))
        assert rc == 0
        assert (tmp_path / "d.csv.levels.csv").exists()

    def test_negative_range_is_read_as_a_value(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["diagram", "--J", "-1", "--Jz", "-1", "--T-range", "0.1:1", "--grid", "3x3"]
        assert run(capsys, *base, "--B-range", "-1:1", "--out", str(a))[0] == 0
        assert run(capsys, *base, "--B-range=-1:1", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert "B_range=[-1,1]" in a.read_text()

    def test_bad_grid_leaves_no_partial_file(self, capsys, tmp_path):
        path = tmp_path / "never.csv"
        rc, _, err = run(capsys, "diagram", "--J", "-1", "--Jz", "-1",
                         "--T-range", "0.2:1.0", "--B-range", "0.2:2.0",
                         "--grid", "bogus", "--out", str(path))
        assert rc == 1
        assert not path.exists()

    def test_level_outside_range_writes_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "sweep", _never_called)
        path = tmp_path / "d.csv"
        rc, _, err = run(capsys, "diagram", "--J", "-1", "--Jz", "-1",
                         "--T-range", "0.1:1.0", "--B-range", "0.1:1.5",
                         "--grid", "4x4", "--levels", "0.1,0.9",
                         "--out", str(path))
        assert rc == 1
        assert err == "error: level 0.9 outside [0, ln 2]\n"
        assert not path.exists()
        assert not (tmp_path / "d.csv.levels.csv").exists()

    def test_bad_level_fails_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the grid was swept")

        monkeypatch.setattr(cli, "sweep", no_sweep)
        path = tmp_path / "d.csv"
        rc, _, err = run(capsys, "diagram", "--J", "-1", "--Jz", "-1",
                         "--T-range", "0.1:1.0", "--B-range", "0.1:1.5",
                         "--grid", "4x4", "--levels", "0.1,abc",
                         "--out", str(path))
        assert rc == 1
        assert "bad --levels" in err
        assert not path.exists()
        assert not (tmp_path / "d.csv.levels.csv").exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--B-range", "-inf:3", "B range must be finite"),
        ("--B-range", "0:inf", "B range must be finite"),
        ("--B-range", "nan:3", "B range must be finite"),
        ("--T-range", "0.1:inf", "T range must be finite"),
        ("--J", "nan", "J must be finite"),
        ("--Jz", "inf", "Jz must be finite"),
    ])
    def test_non_finite_input_exits_one_without_a_warning(
        self, capsys, tmp_path, option, value, message
    ):
        args = {"--J": "-1", "--Jz": "-1", "--T-range": "0.1:1.0", "--B-range": "0:3"}
        args[option] = value
        path = tmp_path / "d.json"
        argv = ["diagram"] + [f"{k}={v}" for k, v in args.items()]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, *argv, "--grid", "4x4", "--format", "json",
                               "--levels", "0.1", "--out", str(path))
        assert caught == []
        assert rc == 1
        assert err.startswith(f"error: {message}")
        assert out == ""
        assert not path.exists()
        assert not (tmp_path / "d.json.levels.csv").exists()

    def test_usage_error_on_zero_normalizer(self, capsys):
        rc, _, err = run(capsys, "diagram", "--J", "0", "--Jz", "-1",
                         "--T-range", "0.2:1.0", "--B-range", "0.2:2.0",
                         "--grid", "4x4", "--norm", "J")
        assert rc == 1
        assert "normalize" in err
