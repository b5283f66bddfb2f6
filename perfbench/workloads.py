"""The benchmark's workloads: command lines a user would type, with the
independent check of each command's output.

Inputs are the paper's coupling sets and landmark lines, so the outputs
can be held against the paper and the references in ``checks``.  The seed
picks which diagram cells are checked against the dense oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

SWEEP_GRID = (40, 40)
SWEEP_T = (0.02, 2.0)
SWEEP_B = (0.0, 3.0)
SWEEP_LEVELS = (0.1, 0.3, 0.5)


def _checks():
    # imported on first check, so that set-up time covers only the program
    import checks

    return checks


@dataclass(frozen=True)
class Operation:
    """One CLI command and the check of the files it writes.

    ``argv`` holds ``{out}`` where the output path goes; ``files`` lists the
    files written under the output directory; ``check(texts, rng)`` raises
    ``checks.CheckFailed`` on a wrong output.
    """

    label: str
    argv: tuple[str, ...]
    files: tuple[str, ...]
    check: Callable[[dict, object], None]

    @property
    def command(self) -> str:
        return self.argv[0]

    def args_in(self, outdir: str) -> list[str]:
        out = os.path.join(outdir, self.files[0])
        return [out if a == "{out}" else a for a in self.argv]


def _diagram_spec(J, Jz, **extra) -> dict:
    return dict(J=J, Jz=Jz, norm=abs(J), n_t=SWEEP_GRID[0], n_b=SWEEP_GRID[1],
                T_range=SWEEP_T, B_range=SWEEP_B, **extra)


def _diagram_argv(J, Jz, *more) -> tuple[str, ...]:
    return ("diagram", "--J", str(J), "--Jz", str(Jz),
            "--T-range", f"{SWEEP_T[0]}:{SWEEP_T[1]}",
            "--B-range", f"{SWEEP_B[0]}:{SWEEP_B[1]}",
            "--grid", f"{SWEEP_GRID[0]}x{SWEEP_GRID[1]}") + more + ("--out", "{out}")


def _sweep_json() -> Operation:
    spec = _diagram_spec(-1.0, -1.0, levels=SWEEP_LEVELS)
    levels = ",".join(str(x) for x in SWEEP_LEVELS)
    return Operation(
        "diagram-J-1-Jz-1",
        _diagram_argv(-1, -1, "--workers", "1", "--format", "json", "--levels", levels),
        ("diagram-J-1-Jz-1.json", "diagram-J-1-Jz-1.json.levels.csv"),
        lambda texts, rng: _checks().check_diagram_json(
            texts["diagram-J-1-Jz-1.json"], spec, rng,
            texts["diagram-J-1-Jz-1.json.levels.csv"]),
    )


def _sweep_csv(workers: int) -> Operation:
    spec = _diagram_spec(-1.0, -1.5)
    name = f"diagram-J-1-Jz-1.5-w{workers}.csv"
    return Operation(
        f"diagram-J-1-Jz-1.5-w{workers}",
        _diagram_argv(-1, -1.5, "--workers", str(workers)),
        (name,),
        lambda texts, rng: _checks().check_diagram_csv(texts[name], spec, rng),
    )


def _curve(label, J, Jz, kind, march, span, bracket, *, classify=False, **extra) -> Operation:
    start, stop, step = span
    spec = dict(J=J, Jz=Jz, kind=kind, march=march, span=span, **extra)
    argv = ("boundary", "--J", str(J), "--Jz", str(Jz), "--kind", kind, "--march", march,
            f"--{march}-range", f"{start}:{stop}:{step}",
            "--bracket-lo", str(bracket[0]), "--bracket-hi", str(bracket[1]))
    if not classify:
        argv += ("--no-classify",)
    name = label + ".csv"

    def check(texts, rng):
        points = _checks().check_curve(texts[name], spec)
        if classify:
            _checks().check_physical_flags(points, spec)

    return Operation(label, argv + ("--out", "{out}"), (name,), check)


def _triple(label, J, Jz, norm_unit, b_range, bracket, paper) -> Operation:
    spec = dict(J=J, Jz=Jz, norm=abs(J) if norm_unit == "J" else abs(Jz), paper=paper)
    name = label + ".json"
    return Operation(
        label,
        ("triple", "--J", str(J), "--Jz", str(Jz), "--norm", norm_unit,
         "--B-range", b_range, "--bracket-lo", str(bracket[0]),
         "--bracket-hi", str(bracket[1]), "--format", "json", "--out", "{out}"),
        (name,),
        lambda texts, rng: _checks().check_triple(texts[name], spec),
    )


def _jumps() -> Operation:
    b_list = [1.7, 1.8, 1.9, 2.0]
    spec = dict(J=-1.0, Jz=-1.5, norm=1.0, B_list=b_list)
    return Operation(
        "jumps-J-1-Jz-1.5",
        ("jumps", "--J", "-1", "--Jz", "-1.5", "--B-list", ",".join(map(str, b_list)),
         "--out", "{out}"),
        ("jumps-J-1-Jz-1.5.csv",),
        lambda texts, rng: _checks().check_jumps(texts["jumps-J-1-Jz-1.5.csv"], spec),
    )


def _boundaries() -> list[Operation]:
    landmark = (0.5, 1.9, 0.01)
    return [
        _curve("zero-J-1-Jz-1", -1.0, -1.0, "zero", "B", landmark, (0.5, 1.2)),
        _curve("equal-J-1-Jz-1", -1.0, -1.0, "equal", "B", landmark, (0.5, 1.0)),
        _curve("halfpi-J-1-Jz-1", -1.0, -1.0, "halfpi", "B", landmark, (0.4, 0.9)),
        _curve("zero-xx-J1-Jz0", 1.0, 0.0, "zero", "T", (0.05, 2.0, 0.05), (0.3, 1.7),
               B_equals=1.0),
        _triple("triple-J-1-Jz-1.5", -1.0, -1.5, "J", "1.4:2.0:0.02", (0.4, 0.9),
                (0.6454108, 1.6851637)),
        _triple("triple-J0.5-Jz-1", 0.5, -1.0, "Jz", "1.0:1.35:0.01", (0.02, 0.8),
                (0.313637, 1.12742)),
        _triple("triple-J0.2-Jz-1", 0.2, -1.0, "Jz", "0.98:1.15:0.01", (0.02, 0.8),
                (0.1244107, 1.055204)),
    ]


def _crossings() -> list[Operation]:
    return [
        _jumps(),
        _curve("zeroprime-J-1-Jz-1.5", -1.0, -1.5, "zeroprime", "B", (2.0, 1.7, 0.02),
               (0.6, 0.7), classify=True),
    ]


WORKLOADS: dict[str, Callable[[], list[Operation]]] = {
    "sweep": lambda: [_sweep_json(), _sweep_csv(1)],
    "sweep-pool": lambda: [_sweep_csv(2)],
    "boundaries": _boundaries,
    "crossings": _crossings,
}
