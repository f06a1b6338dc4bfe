"""The four benchmark workloads: their CLI commands, inputs, item counts and checks.

Each workload spends most of its time in one layer of flagcones, so a later
change to a layer moves one workload and leaves the others flat:

* sweep -- ``certificate`` (closed forms plus the commutator oracle);
* flow  -- ``plane.project`` under ``cones`` classification;
* scan  -- ``reps`` word enumeration, evaluation and batched SVD/eig;
* solve -- ``pde`` assembly and sparse solves.

A pass runs a workload's commands back to back through
``flagcones.cli.main``.  Every command's report is checked against the
acceptance values of the test suite; a check returns a list of problems
(empty when the report is correct) and the number of certified items.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep", "flow", "scan", "solve")

#: An eighth of the default certificate grid (2 beta phases instead of 16):
#: the per-beta kernel shape stays that of the default sweep, and a timed
#: run holds enough passes for a steady median on a noisy machine.
SWEEP_GRID = {
    False: {"beta_phases": 2, "z_phases": 64, "d_step": 0.05},
    True: {"beta_phases": 2, "z_phases": 8, "d_step": 0.5},
}
SWEEP_CELLS = {False: 11 * 2 * 201 * 64, True: 11 * 2 * 21 * 8}
FLOW_SAMPLES = {False: 512, True: 16}
SCAN_MAX_LEN = {False: 8, True: 3}
CONIC_SAMPLES = {False: 1000, True: 16}
DISK_N = {False: 256, True: 32}
TORUS_N = {False: 128, True: 32}

FLOW_BETAS = (0.0, 0.5, 0.9)
FLOW_TIMES = (0.1, 0.5, 1.0, 2.0)
BARBOT_CHI = (0.5, 0.0, 0.0, 0.0)
RED_FIRST_LG12 = 1.52857
IRR_FIRST_LG12 = 3.05714
TORUS_CONST = 2.0
SOLVE_TOL = 1e-10


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of the reports it writes."""

    argv: tuple
    check: Callable[[], tuple]  # -> (problems: list[str], items: int)


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup(name: str, smoke: bool) -> tuple:
    """Import flagcones and build the workload's inputs: (inputs, seconds).

    Only the first call in a process pays for the import, so ``setup_s``
    is measured in fresh processes.
    """
    start = time.perf_counter()
    import flagcones.cli  # noqa: F401

    inputs = build_inputs(name, smoke)
    return inputs, time.perf_counter() - start


def build_inputs(name: str, smoke: bool) -> dict:
    """Build and validate the inputs the workload's commands start from.

    This is the set-up a fresh process pays before its first report: the
    certificate grid, the octagon representations (each validates the
    genus-2 relation), the model cones and flows, and the PDE domains and
    data.  Returns the figures the checks need.
    """
    import numpy as np
    import scipy.linalg

    from flagcones import certificate, cones, pde, reps

    if name == "sweep":
        moduli = tuple(np.round(np.arange(0.0, 0.95, 0.1), 10)) + (0.95,)
        grid = certificate.CertGrid(beta_moduli=moduli, **SWEEP_GRID[smoke])
        cells = len(grid.beta_values()) * grid.d_values().size * grid.z_values().size
        return {"cells": cells}
    if name == "flow":
        base = cones.Multicone.model(0.0)
        for t in FLOW_TIMES:
            base.translated_along_axis(t)
        for b in FLOW_BETAS:
            scipy.linalg.expm(1e-3 * certificate.flow_generator(b).mat)
        return {}
    if name == "scan":
        fuchsian = reps.octagon_fuchsian()
        reps.reducible_representation(fuchsian)
        reps.irreducible_representation(fuchsian)
        reps.barbot_twist(fuchsian, BARBOT_CHI)
        return {}
    if name == "solve":
        disk = pde.DomainSpec("disk", DISK_N[smoke], radius=0.8, boundary="reference")
        torus = pde.DomainSpec("torus", TORUS_N[smoke])
        pde.HiggsDatum.monomial(1.0, 2, disk)
        pde.HiggsDatum.constant(TORUS_CONST, torus)
        disk.reference_profile()
        return {
            "disk_unknowns": int(disk.interior_mask().sum()),
            "torus_unknowns": int(torus.interior_mask().sum()),
        }
    raise ValueError(f"unknown workload {name!r}")


def commands(name: str, out: Path, seed: int, smoke: bool, inputs: dict) -> list:
    """The commands of one pass of the workload, writing into ``out``."""
    if name == "sweep":
        return [_sweep(out, smoke, inputs)]
    if name == "flow":
        return [_flow(out, smoke)]
    if name == "scan":
        return _scan(out, seed, smoke)
    if name == "solve":
        return _solve(out, smoke, inputs)
    raise ValueError(f"unknown workload {name!r}")


def _sweep(out: Path, smoke: bool, inputs: dict) -> Command:
    report = out / "certificate.json"

    def check():
        r = _load(report)
        problems = []
        if inputs["cells"] != SWEEP_CELLS[smoke] or r["n_cells"] != SWEEP_CELLS[smoke]:
            problems.append(f"n_cells {r['n_cells']} != {SWEEP_CELLS[smoke]}")
        if not r["min_margin"] >= -1e-9:
            problems.append(f"min_margin {r['min_margin']!r} < -1e-9")
        if not r["oracle_dev"] <= 1e-10:
            problems.append(f"oracle_dev {r['oracle_dev']!r} > 1e-10")
        if not r["beta0_max_abs_margin"] <= 1e-12:
            problems.append(f"beta0_max_abs_margin {r['beta0_max_abs_margin']!r} > 1e-12")
        return problems, r["n_cells"]

    grid = SWEEP_GRID[smoke]
    argv = (
        "certificate",
        "--beta-phases", str(grid["beta_phases"]),
        "--z-steps", str(grid["z_phases"]),
        "--d-step", repr(grid["d_step"]),
        "--out", str(report),
    )
    return Command(argv, check)


def _flow(out: Path, smoke: bool) -> Command:
    report = out / "certify_flow.json"
    samples = FLOW_SAMPLES[smoke]

    def check():
        r = _load(report)
        problems = []
        for p in r["pushforwards"]:
            if not (p["samples"] == samples and p["inside"] == samples):
                problems.append(f"beta={p['beta_re']}: {p['inside']}/{p['samples']} inside")
        nesting = r["nesting"]
        if not nesting["all_nested"]:
            problems.append("not all nested")
        for e in nesting["results"]:
            est, half = e["estimate"], 0.5 * e["t"]
            if est is None or not abs(est - half) <= 0.05 * half:
                problems.append(f"t={e['t']}: estimate {est!r} not within 5% of {half}")
        items = sum(p["samples"] for p in r["pushforwards"])
        items += nesting["samples"] * len(nesting["results"])
        return problems, items

    argv = (
        "certify-flow",
        "--betas", ",".join(str(b) for b in FLOW_BETAS),
        "--times", ",".join(str(t) for t in FLOW_TIMES),
        "--t-step", "1e-3",
        "--samples", str(samples),
        "--out", str(report),
    )
    return Command(argv, check)


def _scan(out: Path, seed: int, smoke: bool) -> list:
    families = (
        ("red", (), RED_FIRST_LG12),
        ("irr", (), IRR_FIRST_LG12),
        ("barbot", ("--chi", ",".join(str(c) for c in BARBOT_CHI)), None),
    )
    cmds = []
    for family, extra, first_lg12 in families:
        prefix = out / family
        cmds.append(
            Command(
                (
                    "gap-scan", "--family", family, *extra,
                    "--max-len", str(SCAN_MAX_LEN[smoke]),
                    "--budget", "20000",
                    "--seed", str(seed),
                    "--out-prefix", str(prefix),
                ),
                _scan_check(Path(f"{prefix}_summary.json"), first_lg12, SCAN_MAX_LEN[smoke]),
            )
        )
    prefix = out / "fiber"
    samples = CONIC_SAMPLES[smoke]

    def conic_check():
        r = _load(Path(f"{prefix}_conic.json"))
        problems = []
        if not (r["samples"] == samples and r["lines_outside"] == samples):
            problems.append(f"{r['lines_outside']}/{r['samples']} lines outside")
        if r["planes_meet_interior"] != samples:
            problems.append(f"{r['planes_meet_interior']}/{r['samples']} planes meet interior")
        return problems, r["samples"]

    cmds.append(
        Command(
            (
                "fiber", "--conic-position",
                "--samples", str(samples),
                "--seed", str(seed),
                "--out-prefix", str(prefix),
            ),
            conic_check,
        )
    )
    return cmds


def _scan_check(summary: Path, first_lg12, max_len: int):
    def check():
        r = _load(summary)
        problems = []
        if len(r["rows"]) != max_len or r["partial"]:
            problems.append(f"{len(r['rows'])} rows for max_len {max_len}")
        if first_lg12 is not None and not abs(r["rows"][0]["min_lg12"] - first_lg12) <= 1e-4:
            problems.append(f"first-row min_lg12 {r['rows'][0]['min_lg12']!r} != {first_lg12}")
        return problems, sum(row["count"] for row in r["rows"])

    return check


def _solve(out: Path, smoke: bool, inputs: dict) -> list:
    disk, torus = out / "disk", out / "torus"

    def solved(prefix: Path) -> tuple:
        r = _load(Path(f"{prefix}_report.json"))
        problems = []
        if not (r["converged"] and r["residual_norm"] <= SOLVE_TOL):
            problems.append(f"not converged to {SOLVE_TOL}: residual {r['residual_norm']!r}")
        return r, problems

    def disk_check():
        r, problems = solved(disk)
        if not r.get("beta_sup", math.inf) < 1.0:
            problems.append(f"beta_sup {r.get('beta_sup')!r} >= 1")
        if not r.get("curvature_max", math.inf) < 0.0:
            problems.append(f"curvature_max {r.get('curvature_max')!r} >= 0")
        return problems, inputs["disk_unknowns"]

    def torus_check():
        import numpy as np

        r, problems = solved(torus)
        values = np.loadtxt(f"{torus}_field.csv", delimiter=",", skiprows=2)
        exact = -(1.0 / 3.0) * math.log(TORUS_CONST**2)
        dev = float(np.abs(values - exact).max())
        if not dev <= 1e-8:
            problems.append(f"torus field deviates {dev:.3e} from the constant solution")
        return problems, inputs["torus_unknowns"]

    return [
        Command(
            (
                "solve", "--domain", "disk", "--t-monomial", "1,2",
                "--boundary", "reference", "--n", str(DISK_N[smoke]),
                "--tol", repr(SOLVE_TOL), "--out-prefix", str(disk),
            ),
            disk_check,
        ),
        Command(
            (
                "solve", "--domain", "torus", "--t-const", repr(TORUS_CONST),
                "--n", str(TORUS_N[smoke]),
                "--tol", repr(SOLVE_TOL), "--out-prefix", str(torus),
            ),
            torus_check,
        ),
    ]
