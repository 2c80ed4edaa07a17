"""Per-layer metrics from the traced passes of one run.

Counts come from the first traced pass and must repeat exactly in every
other traced pass; times are medians over the traced passes; the
`tg_residual` latency percentiles pool the calls of all traced passes.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# Metric names and units come from BENCHMARK.json at the checkout root.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Counts and ratios depend only on the inputs and must repeat exactly, except
# these two, which depend on timing and on the number of traced passes.
DETERMINISTIC = [
    name for name, unit in UNITS.items()
    if unit in ("count", "ratio")
    and name not in ("trace.overhead", "metric.tg_residual_ms.samples")
]

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return cuts[round(pct * 10) - 1], pct
    return (max(samples), 100.0) if samples else (0.0, 0.0)


def _one_pass(tracer) -> dict:
    stats, counts, _ = tracer.merged()

    def calls(name):
        return stats[name][0] if name in stats else 0

    def self_s(name):
        return stats[name][1] if name in stats else 0.0

    def total_s(name):
        return stats[name][2] if name in stats else 0.0

    steps = counts["metric.accepted_steps"]
    draws = counts["domains.draw"]
    accepted = calls("hartogs.sample") + calls("domains.sample")
    return {
        "jets.mul_calls": calls("jets.mul"),
        "jets.mul_self_s": self_s("jets.mul"),
        "jets.series_calls": calls("jets.series"),
        "jets.series_self_s": self_s("jets.series"),
        "jets.wirtinger_calls": calls("jets.wirtinger"),
        "jets.wirtinger_self_s": self_s("jets.wirtinger"),
        "numerics.det_calls": calls("numerics.det"),
        "numerics.det_jet_calls": int(counts["numerics.det_jet"]),
        "numerics.det_self_s": self_s("numerics.det"),
        "numerics.pd_calls": calls("numerics.pd"),
        "numerics.pd_self_s": self_s("numerics.pd"),
        "numerics.gen_binomial_calls": int(counts["numerics.gen_binomial"]),
        "domains.norm_calls": calls("domains.norm"),
        "domains.norm_jet_calls": int(counts["domains.norm_jet"]),
        "domains.norm_self_s": self_s("domains.norm"),
        "domains.contains_calls": calls("domains.contains"),
        "domains.contains_self_s": self_s("domains.contains"),
        "domains.sample_accept_ratio": accepted / draws if draws else 0.0,
        "hartogs.potential_evals": calls("hartogs.potential"),
        "hartogs.potential_jet_evals": int(counts["hartogs.potential_jet"]),
        "hartogs.potential_self_s": self_s("hartogs.potential"),
        "hartogs.sample_calls": calls("hartogs.sample"),
        "hartogs.sample_s": total_s("hartogs.sample"),
        "hartogs.domain_violations": int(counts["hartogs.domain_violations"]),
        "metric.metric_matrix_calls": calls("metric.metric_matrix"),
        "metric.metric_matrix_s": total_s("metric.metric_matrix"),
        "metric.directional_mixed_calls": calls("metric.directional_mixed"),
        "metric.directional_mixed_s": total_s("metric.directional_mixed"),
        "metric.directional_second_calls": calls("metric.directional_second"),
        "metric.directional_second_s": total_s("metric.directional_second"),
        "metric.tg_residual_calls": calls("metric.tg_residual"),
        "metric.tg_residual_s": total_s("metric.tg_residual"),
        "metric.tg_residual_wait_s": counts["metric.tg_residual_wait_s"],
        "metric.geodesic_calls": calls("metric.geodesic"),
        "metric.geodesic_s": total_s("metric.geodesic"),
        "metric.accepted_steps": int(steps),
        "metric.rhs_evals_per_step": counts["metric.geodesic_rhs_evals"] / steps if steps else 0.0,
        "metric.potential_evals_per_step": (
            counts["metric.geodesic_potential_evals"] / steps if steps else 0.0
        ),
        "l2embed.embed_calls": calls("l2embed.embed"),
        "l2embed.embed_s": total_s("l2embed.embed"),
        "l2embed.components": int(counts["l2embed.components"]),
        "l2embed.line_constraints_s": total_s("l2embed.line_constraints"),
        "l2embed.line_deviation_s": total_s("l2embed.line_deviation"),
        "cli.verify_tg_s": self_s("cli.verify_tg"),
        "cli.geodesic_s": self_s("cli.geodesic"),
        "cli.linear_scan_s": self_s("cli.linear_scan"),
        "cli.verify_immersion_s": self_s("cli.verify_immersion"),
        "cli.embed_residual_s": self_s("cli.embed_residual"),
        "cli.emit_s": total_s("cli.emit"),
        "cli.trace_csv_s": total_s("cli.trace_csv"),
        "cli.pool_workers": tracer.pool_workers,
        "cli.wait_s": counts["cli.wait_s"],
        "trace.spans": len(tracer.spans),
    }


def per_layer(passes, plain_walls) -> tuple[dict, dict]:
    """Metrics over traced passes [(wall, tracer)] plus untraced pass walls.

    Returns the metrics and the deterministic counters that differ between
    traced passes (empty when they all repeat).
    """
    from hartogs_geom.jets import jet_space

    per_pass = [_one_pass(tracer) for _, tracer in passes]
    first = per_pass[0]
    mismatch = {
        name: [p[name] for p in per_pass]
        for name in first
        if name in DETERMINISTIC and any(p[name] != first[name] for p in per_pass)
    }
    out = {}
    for name in UNITS:
        if name in first:
            out[name] = first[name] if name in DETERMINISTIC else statistics.median(
                p[name] for p in per_pass
            )
    samples = []
    for _, tracer in passes:
        samples.extend(tracer.merged()[2]["metric.tg_residual_ms"])
    tail, pct = _tail(samples)
    out["metric.tg_residual_ms.p50"] = statistics.median(samples) if samples else 0.0
    out["metric.tg_residual_ms.tail"] = tail
    out["metric.tg_residual_ms.tail_pct"] = pct
    out["metric.tg_residual_ms.samples"] = len(samples)
    out["jets.spaces"] = jet_space.cache_info().currsize
    traced_wall = statistics.median(w for w, _ in passes)
    out["trace.overhead"] = traced_wall / statistics.median(plain_walls) - 1.0
    return {name: out[name] for name in UNITS}, mismatch
