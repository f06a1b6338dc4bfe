"""Outside-in span tracing of the flagcones layers for the traced benchmark run.

During a traced pass every function in ``TARGETS`` is replaced, at each
module attribute its callers look it up through, by a wrapper that calls
through, re-raises unchanged and records a span: name, start, end, parent
span, pass id and whether it raised.  Spans stay in memory and are written
out once at the end of the run.  No source file of the package is changed;
everything is restored when the pass ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: (span name, layer, module, attribute).  Methods are "Class.method".
#: ``pde.write_field_csv`` is report output, so it counts to the cli layer;
#: ``spsolve`` is patched where ``pde`` looks it up, on scipy.sparse.linalg.
TARGETS = (
    ("cli.main", "cli", "flagcones.cli", "main"),
    ("cli._write_json", "cli", "flagcones.cli", "_write_json"),
    ("pde.write_field_csv", "cli", "flagcones.pde", "write_field_csv"),
    ("certificate.sweep", "certificate", "flagcones.certificate", "sweep"),
    ("certificate._oracle_alphas_batch", "certificate", "flagcones.certificate", "_oracle_alphas_batch"),
    ("certificate.pushforward_check", "certificate", "flagcones.certificate", "pushforward_check"),
    ("plane.project", "plane", "flagcones.plane", "project"),
    ("plane._detect_boundary", "plane", "flagcones.plane", "_detect_boundary"),
    ("plane._tangent_grad_hess", "plane", "flagcones.plane", "_tangent_grad_hess"),
    ("plane._move_value", "plane", "flagcones.plane", "_move_value"),
    ("flags.Flag.__post_init__", "flags", "flagcones.flags", "Flag.__post_init__"),
    ("flags.ProjectivePoint.__post_init__", "flags", "flagcones.flags", "ProjectivePoint.__post_init__"),
    ("flags._unit_representative", "flags", "flagcones.flags", "_unit_representative"),
    ("flags.act_on_flag", "flags", "flagcones.flags", "act_on_flag"),
    ("cones.boundary_chart", "cones", "flagcones.cones", "boundary_chart"),
    ("cones.is_nested", "cones", "flagcones.cones", "is_nested"),
    ("cones.nest_estimate", "cones", "flagcones.cones", "nest_estimate"),
    ("cones._position", "cones", "flagcones.cones", "_position"),
    ("cones._all_inside", "cones", "flagcones.cones", "_all_inside"),
    ("reps.octagon_fuchsian", "reps", "flagcones.reps", "octagon_fuchsian"),
    ("reps.reducible_representation", "reps", "flagcones.reps", "reducible_representation"),
    ("reps.irreducible_representation", "reps", "flagcones.reps", "irreducible_representation"),
    ("reps.barbot_twist", "reps", "flagcones.reps", "barbot_twist"),
    ("reps.gap_scan", "reps", "flagcones.reps", "gap_scan"),
    ("reps.Representation.evaluate", "reps", "flagcones.reps", "Representation.evaluate"),
    ("reps._batch_gaps", "reps", "flagcones.reps", "_batch_gaps"),
    ("reps._batch_lg12", "reps", "flagcones.reps", "_batch_lg12"),
    ("reps.attracting_flag", "reps", "flagcones.reps", "attracting_flag"),
    ("reps.conic_position_check", "reps", "flagcones.reps", "conic_position_check"),
    ("reps.flow_nesting_certify", "reps", "flagcones.reps", "flow_nesting_certify"),
    ("pde.solve", "pde", "flagcones.pde", "solve"),
    ("pde._interior_operator", "pde", "flagcones.pde", "_interior_operator"),
    ("pde._laplacian", "pde", "flagcones.pde", "_laplacian"),
    ("pde.spsolve", "pde", "scipy.sparse.linalg", "spsolve"),
)
NAMES = tuple(t[0] for t in TARGETS)
#: Pass id of the traced set-up build, the source of ``reps.build_s``.
SETUP_PASS = 0
LAYERS = ("cli", "certificate", "plane", "flags", "cones", "reps", "pde")
BUILDERS = (
    "reps.octagon_fuchsian",
    "reps.reducible_representation",
    "reps.irreducible_representation",
    "reps.barbot_twist",
)
VALIDATORS = (
    "flags.Flag.__post_init__",
    "flags.ProjectivePoint.__post_init__",
    "flags._unit_representative",
)

#: Counts read off return values: span name -> f(args, result) -> ((key, n), ...).
HOOKS = {
    "plane._detect_boundary": lambda args, r: (("plane.boundary_hits", r is not None),),
    "certificate.sweep": lambda args, r: (("certificate.cells", r.n_cells),),
    "reps.gap_scan": lambda args, r: (("reps.words", sum(row["count"] for row in r.rows)),),
    "pde.solve": lambda args, r: (
        ("pde.newton_iters", r[1].iterations),
        ("pde.unknowns", int(args[0].interior_mask().sum())),
    ),
}

#: Per-layer metrics: name -> unit.  Every traced run reports all of them;
#: a layer a workload never enters reads 0.
UNITS = {
    "certificate.sweep_s": "s",
    "certificate.oracle_s": "s",
    "certificate.closed_form_s": "s",
    "certificate.cells": "count",
    "certificate.cells_per_s": "1/s",
    "certificate.pushforward_s": "s",
    "plane.project_calls": "count",
    "plane.project_s": "s",
    "plane.project_us": "us",
    "plane.newton_iters": "count",
    "plane.line_search_evals": "count",
    "plane.boundary_hits": "count",
    "plane.project_errors": "count",
    "flags.flag_builds": "count",
    "flags.normalize_calls": "count",
    "flags.validate_s": "s",
    "flags.act_on_flag_calls": "count",
    "flags.act_on_flag_s": "s",
    "cones.boundary_chart_calls": "count",
    "cones.boundary_chart_s": "s",
    "cones.is_nested_s": "s",
    "cones.nest_estimate_s": "s",
    "cones.positions": "count",
    "cones.shift_checks": "count",
    "reps.gap_scan_s": "s",
    "reps.words": "count",
    "reps.words_per_s": "1/s",
    "reps.enumerate_s": "s",
    "reps.evaluate_calls": "count",
    "reps.evaluate_s": "s",
    "reps.svd_s": "s",
    "reps.eig_s": "s",
    "reps.attracting_flag_calls": "count",
    "reps.attracting_flag_useful_ratio": "ratio",
    "reps.build_s": "s",
    "pde.solve_s": "s",
    "pde.assembly_s": "s",
    "pde.linear_solve_s": "s",
    "pde.newton_iters": "count",
    "pde.residual_evals": "count",
    "pde.unknowns": "count",
    "cli.write_s": "s",
    "cli.output_bytes": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.outside_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans of traced passes; ``traced(pass_id)`` wraps one pass."""

    def __init__(self):
        self.passes = {}  # pass id -> (span columns, counts)

    @contextmanager
    def traced(self, pass_id: int):
        spans, stack, counts = [], [-1], Counter()
        patches = []
        try:
            for name_id, (name, _layer, module, attr) in enumerate(TARGETS):
                self._patch(patches, module, attr, name_id, HOOKS.get(name), spans, stack, counts)
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)
            self.passes[pass_id] = (_columns(spans), counts)

    @staticmethod
    def _patch(patches, module, attr, name_id, hook, spans, stack, counts):
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = vars(owner)[attr]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[idx] = (name_id, start, clock(), parent, True)
                stack.pop()
                raise
            spans[idx] = (name_id, start, clock(), parent, False)
            stack.pop()
            if hook is not None:
                for key, n in hook(args, result):
                    counts[key] += n
            return result

        owners = [owner]
        if isinstance(owner, type(sys)):
            owners += [
                m
                for key, m in list(sys.modules.items())
                if (key == "flagcones" or key.startswith("flagcones."))
                and m is not owner
                and vars(m).get(attr) is original
            ]
        for o in owners:
            setattr(o, attr, traced)
            patches.append((o, attr, original))

    def metrics(self, pass_id: int, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass (``reps.build_s`` from set-up)."""
        cols, counts = self.passes[pass_id]
        dur, own_t, nested = _durations(cols)

        def calls(n):
            return int(np.count_nonzero(_select(cols, [n])))

        def incl(n):
            return float(dur[_select(cols, [n])].sum())

        def own(*names):
            return float(own_t[_select(cols, names)].sum())

        def errors(n):
            return int(np.count_nonzero(_select(cols, [n]) & cols["raised"]))

        setup_cols = self.passes[SETUP_PASS][0]
        build_s = float(_durations(setup_cols)[1][_select(setup_cols, BUILDERS)].sum())

        sweep_s = incl("certificate.sweep")
        project_calls = calls("plane.project")
        gap_scan_s = incl("reps.gap_scan")
        af_calls = calls("reps.attracting_flag")
        m = {
            "certificate.sweep_s": sweep_s,
            "certificate.oracle_s": own("certificate._oracle_alphas_batch"),
            "certificate.closed_form_s": own("certificate.sweep"),
            "certificate.cells": counts["certificate.cells"],
            "certificate.cells_per_s": _ratio(counts["certificate.cells"], sweep_s),
            "certificate.pushforward_s": incl("certificate.pushforward_check"),
            "plane.project_calls": project_calls,
            "plane.project_s": incl("plane.project"),
            "plane.project_us": 1e6 * _ratio(incl("plane.project"), project_calls),
            "plane.newton_iters": calls("plane._tangent_grad_hess"),
            "plane.line_search_evals": calls("plane._move_value"),
            "plane.boundary_hits": counts["plane.boundary_hits"],
            "plane.project_errors": errors("plane.project"),
            "flags.flag_builds": calls("flags.Flag.__post_init__"),
            "flags.normalize_calls": calls("flags._unit_representative"),
            "flags.validate_s": own(*VALIDATORS),
            "flags.act_on_flag_calls": calls("flags.act_on_flag"),
            "flags.act_on_flag_s": incl("flags.act_on_flag"),
            "cones.boundary_chart_calls": calls("cones.boundary_chart"),
            "cones.boundary_chart_s": incl("cones.boundary_chart"),
            "cones.is_nested_s": incl("cones.is_nested"),
            "cones.nest_estimate_s": incl("cones.nest_estimate"),
            "cones.positions": calls("cones._position"),
            "cones.shift_checks": calls("cones._all_inside"),
            "reps.gap_scan_s": gap_scan_s,
            "reps.words": counts["reps.words"],
            "reps.words_per_s": _ratio(counts["reps.words"], gap_scan_s),
            "reps.enumerate_s": own("reps.gap_scan"),
            "reps.evaluate_calls": calls("reps.Representation.evaluate"),
            "reps.evaluate_s": incl("reps.Representation.evaluate"),
            "reps.svd_s": incl("reps._batch_gaps"),
            "reps.eig_s": incl("reps._batch_lg12"),
            "reps.attracting_flag_calls": af_calls,
            "reps.attracting_flag_useful_ratio": _ratio(af_calls - errors("reps.attracting_flag"), af_calls),
            "reps.build_s": build_s,
            "pde.solve_s": incl("pde.solve"),
            "pde.assembly_s": incl("pde._interior_operator"),
            "pde.linear_solve_s": incl("pde.spsolve"),
            "pde.newton_iters": counts["pde.newton_iters"],
            "pde.residual_evals": calls("pde._laplacian"),
            "pde.unknowns": counts["pde.unknowns"],
            "cli.write_s": incl("cli._write_json") + incl("pde.write_field_csv"),
            "trace.outside_s": wall_s - float(dur[~nested].sum()),
            "trace.pass_s": wall_s,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = own(*(t[0] for t in TARGETS if t[1] == layer))
        return m

    def save(self, path) -> None:
        """Write every recorded span, one row each, tagged with its pass id."""
        pass_ids = sorted(self.passes)
        cols = [self.passes[p][0] for p in pass_ids]
        np.savez(
            path,
            names=np.array(NAMES),
            pass_id=np.concatenate([np.full(c["name"].size, p) for p, c in zip(pass_ids, cols)]),
            **{k: np.concatenate([c[k] for c in cols]) for k in ("name", "start", "end", "parent", "raised")},
        )


def _durations(cols):
    """Span durations, self times (duration minus child spans) and the nested mask."""
    dur = cols["end"] - cols["start"]
    child = np.zeros_like(dur)
    nested = cols["parent"] >= 0
    np.add.at(child, cols["parent"][nested], dur[nested])
    return dur, dur - child, nested


def _select(cols, names):
    return np.isin(cols["name"], [NAMES.index(n) for n in names])


def _columns(spans) -> dict:
    if not spans:
        return {
            "name": np.zeros(0, dtype=np.int16),
            "start": np.zeros(0),
            "end": np.zeros(0),
            "parent": np.zeros(0, dtype=np.int64),
            "raised": np.zeros(0, dtype=bool),
        }
    name, start, end, parent, raised = zip(*spans)
    return {
        "name": np.array(name, dtype=np.int16),
        "start": np.array(start),
        "end": np.array(end),
        "parent": np.array(parent, dtype=np.int64),
        "raised": np.array(raised, dtype=bool),
    }
