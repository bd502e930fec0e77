"""Which library functions are traced, and the per-layer metrics derived from their spans.

Every `.s` metric is the summed self time of a layer's spans: the time spent
in that layer and not in another traced layer it called.  So the `.s`
metrics of one pass add up to at most the pass's traced wall time.
"""

from __future__ import annotations

from collections import defaultdict

from cylspec import operator_model, resolvent, spectral, stability, timedomain

from spans import Span, self_times


def _basis_key(basis) -> tuple[int, int]:
    return basis.Q_max, basis.M


def _evolve_steps(args, kwargs, result) -> dict:
    """RK4 steps of one evolve call, exactly, from its stored times and stride.

    evolve rounds the step count up to a multiple of the stride and stores every
    stride-th step plus t0, so steps = (stored - 1) * stride, unless the stride
    exceeded the step count and was clipped; then only two times are stored.
    """
    stride = max(1, kwargs.get("store_stride", 1))
    stored = len(result.times)
    if stored == 2 and stride > 1:
        raise ValueError("step count not recoverable: stride clipped to the step count")
    return {"steps": (stored - 1) * stride}


# (module, attribute, span name, attrs(args, kwargs, result) or None)
TARGETS = [
    (resolvent, "find_poles", "resolvent.filter",
     lambda a, k, r: {"kept": len(r.raw_eigenvalues), "basis": _basis_key(a[1])}),
    (resolvent, "_pencil_eigenpairs", "resolvent.pencil",
     lambda a, k, r: {"eigenvalues": len(r), "basis": _basis_key(a[1])}),
    (resolvent, "_projection_family", "resolvent.projections", None),
    (resolvent, "resolvent_matrix_for", "resolvent.dense_resolvents", None),
    (resolvent, "apply_resolvent", "resolvent.apply_resolvent", None),
    (spectral, "mode_operator_parts", "spectral.mode_operator_parts", None),
    (stability, "forward_transform", "stability.transform", None),
    (stability, "solve_on_segment", "stability.segment_solve", None),
    (stability, "build_finite_rank_part", "stability.finite_rank", None),
    (stability, "_segment_sum", "stability.cover_eval",
     lambda a, k, r: {"slices": len(r.times)}),
    (stability, "decompose", "stability.decompose", None),
    (timedomain, "evolve", "timedomain.evolve", _evolve_steps),
    (timedomain, "periodize", "timedomain.periodize", None),
    (timedomain, "growth_rate", "timedomain.growth_rate", None),
    (operator_model, "check_assumptions", "operator_model.check_assumptions", None),
    (operator_model, "derivative_norms", "operator_model.derivative_norms", None),
    (operator_model, "stability_constants", "operator_model.stability_constants", None),
]

# metrics each workload reports from its own checks (0 where it has none)
DIAGNOSTICS = {
    "resolvent.pole_err_max": "abs",
    "stability.kernel_defect_max": "rel",
    "stability.rate_err_max": "abs",
    "stability.decompose.slices_used_ratio": "ratio",
    "timedomain.xengine_delta_max": "rel",
    "operator_model.witnesses": "count",
}

# every per-layer metric, in report order, with its unit
PER_LAYER = {
    "resolvent.filter.s": "s",
    "resolvent.filter.kept": "count",
    "resolvent.filter.kept_ratio": "ratio",
    "resolvent.pencil.s": "s",
    "resolvent.pencil.eigenvalues": "count",
    "resolvent.projections.s": "s",
    "resolvent.projections.calls": "count",
    "resolvent.dense_resolvents": "count",
    "resolvent.dense_resolvents.s": "s",
    "resolvent.apply_resolvent.s": "s",
    "resolvent.apply_resolvent.calls": "count",
    "spectral.mode_operator_parts.s": "s",
    "spectral.mode_operator_parts.calls": "count",
    "stability.transform.s": "s",
    "stability.transform.calls": "count",
    "stability.segment_solve.s": "s",
    "stability.segment_solve.calls": "count",
    "stability.finite_rank.s": "s",
    "stability.cover_eval.s": "s",
    "stability.cover_eval.slices": "count",
    "stability.decompose.s": "s",
    "timedomain.evolve.s": "s",
    "timedomain.evolve.calls": "count",
    "timedomain.rk4.steps": "count",
    "timedomain.rk4.step_us": "us",
    "timedomain.periodize.s": "s",
    "timedomain.periodize.periods": "count",
    "timedomain.growth_rate.s": "s",
    "operator_model.check_assumptions.s": "s",
    "operator_model.check_assumptions.calls": "count",
    "operator_model.derivative_norms.s": "s",
    "operator_model.derivative_norms.calls": "count",
    "operator_model.stability_constants.s": "s",
    **DIAGNOSTICS,
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced pass (diagnostics excluded)."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        by_name[span.name].append(idx)
        if span.parent is not None:
            children[span.parent].append(idx)

    out: dict[str, float] = {}
    for name in {t[2] for t in TARGETS}:
        out[f"{name}.s"] = sum((selfs[i] for i in by_name[name]), 0.0)
        out[f"{name}.calls"] = len(by_name[name])

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[i].attrs[key] for i in by_name[name])

    # the filter keeps raw eigenvalues of the working basis; the doubled basis only votes
    coarse = sum(spans[c].attrs["eigenvalues"]
                 for i in by_name["resolvent.filter"] for c in children[i]
                 if spans[c].name == "resolvent.pencil"
                 and spans[c].attrs["basis"] == spans[i].attrs["basis"])
    kept = attr_sum("resolvent.filter", "kept")
    steps = attr_sum("timedomain.evolve", "steps")
    metrics = {
        "resolvent.filter.kept": kept,
        "resolvent.filter.kept_ratio": kept / coarse if coarse else 0.0,
        "resolvent.pencil.eigenvalues": attr_sum("resolvent.pencil", "eigenvalues"),
        "resolvent.dense_resolvents": out["resolvent.dense_resolvents.calls"],
        "stability.cover_eval.slices": attr_sum("stability.cover_eval", "slices"),
        "timedomain.rk4.steps": steps,
        "timedomain.rk4.step_us": 1e6 * out["timedomain.evolve.s"] / steps if steps else 0.0,
        "timedomain.periodize.periods": sum(
            1 for i in by_name["timedomain.periodize"] for c in children[i]
            if spans[c].name == "timedomain.evolve"),
    }
    for name in PER_LAYER:
        if name not in metrics and name in out:
            metrics[name] = out[name]
    return metrics
