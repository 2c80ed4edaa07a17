"""The benchmark's tracer still finds every name it wraps in the package.

`perfbench/tracer.py` patches functions and methods by name at each module
that imports them; a rename in the package would crash a benchmark run.
Installing and uninstalling the tracer here turns such a rename into a
failing test, and the traced reports below turn a signature that breaks a
traced run into one.
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hartogs_geom import cli, l2embed, metric  # noqa: E402
from hartogs_geom.domains import DomainSpec  # noqa: E402
from hartogs_geom.hartogs import HartogsPotential, HartogsSpec  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def test_tracer_installs_and_uninstalls():
    original = cli._pool
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert cli._pool is original
    # the traced pool reads the executor's worker count
    with cli._pool() as pool:
        assert pool._max_workers >= 1


def test_traced_names_stay_importable():
    for owner, name in (
        (cli, "_pool"),
        (cli, "h_sample"),
        (cli, "tg_residual"),
        (cli, "geodesic_ivp"),
        (cli, "line_deviation"),
        (l2embed, "geodesic_ivp"),
        (metric, "_acceleration"),
    ):
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


def test_traced_reports_run(tmp_path):
    cfg = tmp_path / "cfg.json"
    spec = {"base": {"kind": "I", "params": [2, 3]}, "mu": 1.5}
    cfg.write_text(json.dumps({"spec": spec, "seed": 3, "samples": 3}))
    out = str(tmp_path / "r.json")
    pot = HartogsPotential(HartogsSpec(DomainSpec.type_i(2, 3), 1.5))
    tracer = Tracer()
    try:
        tracer.install()
        assert cli.main(["verify-tg", "--config", str(cfg), "--out", out]) == 0
        argv = ["geodesic", "--config", str(cfg), "--p0", "0,0,0,0,0,0,0",
                "--v0", "0,0,0.3,0,0,0,0.4", "--T", "0.2",
                "--trace-out", str(tmp_path / "t.csv"), "--out", out]
        assert cli.main(argv) == 0
        argv = ["linear-scan", "--mu-grid", "1", "--r-grid", "1", "--T", "0.2", "--out", out]
        assert cli.main(argv) == 0
        v0 = np.zeros(7, dtype=complex)
        v0[-1] = 0.5
        trace = metric.geodesic_ivp(pot, np.zeros(7), v0, 0.1)
    finally:
        tracer.uninstall()
    assert isinstance(trace, metric.GeodesicTrace)
    stats, counts, _ = tracer.merged()
    assert stats["metric.tg_residual"][0] > 0
    assert counts["metric.rhs"] > 0
    assert stats["metric.geodesic"][0] >= 2  # cmd_geodesic and the direct call


def test_traced_numeric_reports_count_potential_evaluations(tmp_path):
    # the numeric-l2 workload's reports; its selftest needs
    # hartogs.potential_evals > 0, counted at HartogsPotential.__call__
    cfg = tmp_path / "cfg.json"
    spec = {"base": {"kind": "IV", "params": [5]}, "mu": 1.1}
    cfg.write_text(json.dumps({"spec": spec, "seed": 3, "samples": 3}))
    disk = {"kind": "I", "params": [1, 1]}
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({"spec": {"base": {"kind": "product", "params": [disk] * 2},
                                         "mu": 1.5}, "truncation": {"k_max": 8, "a_max": 8}}))
    out = str(tmp_path / "r.json")
    tracer = Tracer()
    try:
        tracer.install()
        assert cli.main(["verify-immersion", "--config", str(cfg), "--out", out]) == 0
        immersion = tracer.merged()[0]["hartogs.potential"][0]
        argv = ["embed-residual", "--config", str(poly), "--point", "0.1,0.2j,0.05", "--out", out]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    stats = tracer.merged()[0]
    assert immersion > 0
    assert stats["hartogs.potential"][0] > immersion
