"""Tests for the command-line verification harness."""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from hartogs_geom import cli
from hartogs_geom.cli import IMMERSION_CHUNK, RunConfig, build_parser, main
from hartogs_geom.domains import DomainSpec, LinearEmbedding, polydisk_embedding
from hartogs_geom.hartogs import HartogsPotential, HartogsSpec, slice_chart
from hartogs_geom.l2embed import GeodesicClass, line_constraints, line_deviation
from hartogs_geom.metric import IntegrationError, StartError, geodesic_batch


def _write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


BASE_CONFIG = {
    "spec": {"base": {"kind": "I", "params": [2, 2]}, "mu": 1.5},
    "seed": 7,
    "samples": 40,
    "shrink": 0.6,
}

I12_III2 = {
    "kind": "product",
    "params": [{"kind": "I", "params": [1, 2]}, {"kind": "III", "params": [2]}],
}

# one base of each family, and a product, none of them a polydisk
NON_POLYDISK_BASES = {
    "I(2,3)": {"kind": "I", "params": [2, 3]},
    "III(3)": {"kind": "III", "params": [3]},
    "II(4)": {"kind": "II", "params": [4]},
    "IV(6)": {"kind": "IV", "params": [6]},
    "I(1,2)xIII(2)": I12_III2,
}

POLY3_CONFIG = {
    "spec": {
        "base": {
            "kind": "product",
            "params": [{"kind": "I", "params": [1, 1]}] * 3,
        },
        "mu": 2.0,
    },
    "seed": 1,
    "samples": 20,
}


BAD_INPUTS = {
    "config-list": ("verify-immersion", [BASE_CONFIG], ()),
    "truncation-list": ("verify-immersion", dict(BASE_CONFIG, truncation=[40, 40]), ()),
    "tolerance-string": ("verify-immersion", dict(BASE_CONFIG, tolerances={"pullback": "1e-3"}), ()),
    "tolerance-nan-config": ("verify-tg", dict(BASE_CONFIG, tolerances={"tg_residual": float("nan")}), ()),
    "tolerance-nan-flag": ("verify-immersion", BASE_CONFIG, ("--pullback", "nan")),
    "seed-negative-flag-immersion": ("verify-immersion", BASE_CONFIG, ("--seed", "-3")),
    "seed-negative-flag-tg": ("verify-tg", BASE_CONFIG, ("--seed", "-3")),
    "seed-negative-config": ("verify-tg", dict(BASE_CONFIG, seed=-3), ()),
    "mu-inf-config": (
        "verify-immersion",
        dict(BASE_CONFIG, spec=dict(BASE_CONFIG["spec"], mu="inf")),
        (),
    ),
    "mu-grid-inf": ("linear-scan", POLY3_CONFIG, ("--mu-grid", "inf", "--r-grid", "1")),
    "tolerance-unknown": ("verify-immersion", dict(BASE_CONFIG, tolerances={"pulback": 1.0}), ()),
    # no command reads a finite-difference tolerance, so none is accepted
    "tolerance-metric-fd": ("verify-immersion", dict(BASE_CONFIG, tolerances={"metric_fd": 1e-7}), ()),
    "seed-float": ("verify-immersion", dict(BASE_CONFIG, seed=1.5), ()),
    "seed-bool": ("verify-immersion", dict(BASE_CONFIG, seed=True), ()),
    "samples-float": ("verify-immersion", dict(BASE_CONFIG, samples=2.7), ()),
    "samples-bool": ("verify-tg", dict(BASE_CONFIG, samples=True), ()),
    "k-max-float": ("verify-immersion", dict(BASE_CONFIG, truncation={"k_max": 8.9}), ()),
    "a-max-float": ("verify-immersion", dict(BASE_CONFIG, truncation={"a_max": 3.2}), ()),
    "params-float": (
        "verify-immersion",
        dict(BASE_CONFIG, spec={"base": {"kind": "I", "params": [2, 2.5]}, "mu": 1.5}),
        (),
    ),
    "params-bool": (
        "verify-immersion",
        dict(BASE_CONFIG, spec={"base": {"kind": "III", "params": [True]}, "mu": 1.5}),
        (),
    ),
    "shrink-bool": ("verify-immersion", dict(BASE_CONFIG, shrink=True), ()),
    "shrink-string": ("verify-immersion", dict(BASE_CONFIG, shrink="0.5"), ()),
    "mu-bool": ("verify-immersion", dict(BASE_CONFIG, spec=dict(BASE_CONFIG["spec"], mu=True)), ()),
    "mu-string": ("verify-immersion", dict(BASE_CONFIG, spec=dict(BASE_CONFIG["spec"], mu="2")), ()),
    "mu-huge-config": (
        "verify-immersion",
        dict(BASE_CONFIG, spec=dict(BASE_CONFIG["spec"], mu=1e103)),  # mu**3 overflows
        (),
    ),
    "mu-grid-huge": ("linear-scan", POLY3_CONFIG, ("--mu-grid", "1e300", "--r-grid", "2", "--T", "0.1")),
    # the energy of v0 overflows before any step
    "geodesic-v0-huge": ("geodesic", {}, ("--p0", "0,0,0,0,0", "--v0", "1e200,0,0,0,0", "--T", "1")),
    # every trial step leaves the domain until the step size underflows
    "geodesic-step-underflow": (
        "geodesic",
        {},
        ("--p0", "0,0,0,0,0", "--v0", "1e100,0,0,0,0", "--T", "1"),
    ),
    # the first step is already below the underflow bound 1e-14 T
    "scan-step-underflow": ("linear-scan", POLY3_CONFIG, ("--mu-grid", "0.5", "--r-grid", "2", "--T", "1e300")),
    "params-product-factor-float": (
        "verify-immersion",
        dict(BASE_CONFIG, spec={"base": dict(I12_III2, params=[{"kind": "I", "params": [1, 2.0]}]),
                                "mu": 1.5}),
        (),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exit_2(tmp_path, capsys, case):
    command, obj, extra = BAD_INPUTS[case]
    cfg = _write_config(tmp_path, obj)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r.json"), *extra]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("mu", ["1e10", "1e102"])
def test_overflowing_scan_exit_2_at_once(tmp_path, capsys, mu):
    # the pure-base geodesic overflows its stages (a non-finite sweep at
    # 1e10, a singular stage metric at 1e102): exit 2 within a few steps,
    # with no traceback and no RuntimeWarning (an error under the test filter)
    t0 = time.perf_counter()
    argv = ["linear-scan", "--mu-grid", mu, "--r-grid", "1", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert "config error:" in err and "member 0" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command,mu", [("verify-tg", 90), ("verify-tg", 2000), ("verify-immersion", 2000)]
)
def test_too_large_mu_exit_2(tmp_path, capsys, command, mu):
    # at mu = 90 the confinement geodesics start within the boundary margin;
    # at mu = 2000 N^mu underflows to 0 at the sampled base points
    spec = {"base": {"kind": "I", "params": [2, 2]}, "mu": mu}
    cfg = _write_config(tmp_path, {"spec": spec, "samples": 5})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"mu = {mu}" in err
    assert not (tmp_path / "r.json").exists()


def test_empty_fiber_names_a_reproducible_seed(tmp_path, capsys):
    # the first empty fiber of 2000 samples is sample 316, row 60 of the
    # chunk that starts at 256: the message names its seed, and that seed
    # alone fails with the same message
    assert IMMERSION_CHUNK == 64
    spec = {"base": {"kind": "I", "params": [2, 2]}, "mu": 862}
    cfg = _write_config(tmp_path, {"spec": spec})
    errs = []
    for extra in (("--samples", "2000"), ("--seed", "316", "--samples", "1")):
        assert main(["verify-immersion", "--config", cfg, *extra]) == 2
        errs.append(capsys.readouterr().err)
    msg = "config error: mu = 862 is too large: N^mu is 0 at the sampled base point of seed 316\n"
    assert errs == [msg, msg]


def test_large_mu_immersion_still_runs(tmp_path):
    spec = {"base": {"kind": "I", "params": [2, 2]}, "mu": 700}
    cfg = _write_config(tmp_path, {"spec": spec, "samples": 5})
    assert main(["verify-immersion", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize(
    "command,flag",
    [("verify-immersion", "--out"), ("geodesic", "--out"), ("geodesic", "--trace-out")],
)
@pytest.mark.parametrize("target", ["missing-folder", "folder"])
def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch, command, flag, target):
    def refuse(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    for name in ("cmd_verify_immersion", "geodesic_ivp"):
        monkeypatch.setattr(cli, name, refuse)
    cfg = _write_config(tmp_path, BASE_CONFIG)
    path = tmp_path / "missing" / "out" if target == "missing-folder" else tmp_path
    args = [command, "--config", cfg, "--out", str(tmp_path / "r.json")]
    if command == "geodesic":
        args += ["--p0", "0,0,0,0,0", "--v0", "0.1,0,0,0,0.1", "--trace-out", str(tmp_path / "t.csv")]
    assert main([*args, flag, str(path)]) == 2
    assert "config error: cannot write" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_import_leaves_sampling_and_pool_modules_unloaded():
    # geodesic, linear-scan and embed-residual never sample or pool: a CLI
    # start loads numpy.random on its first sample and concurrent.futures
    # only for a pool
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys, hartogs_geom.cli; "
        "print([m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestVerifyImmersion:
    def test_pass_and_report_schema(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "report.json"
        code = main(["verify-immersion", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "verify-immersion"
        assert report["overall"] == "pass"
        assert report["config"]["seed"] == 7
        names = {c["name"] for c in report["checks"]}
        assert names == {"potential_pullback_identity", "generic_norm_identity"}
        for c in report["checks"]:
            assert c["measured"] < c["tolerance"]

    def test_type_iv_base(self, tmp_path):
        cfg = _write_config(
            tmp_path, {"spec": {"base": {"kind": "IV", "params": [5]}, "mu": 0.7}, "samples": 30}
        )
        assert main(["verify-immersion", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0

    def test_single_sample_origin_ok(self, tmp_path):
        cfg = _write_config(tmp_path, dict(BASE_CONFIG, samples=1))
        assert main(["verify-immersion", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0

    def test_byte_identical_reports(self, tmp_path):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["verify-immersion", "--config", cfg, "--out", str(out1)])
        main(["verify-immersion", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify-immersion", "--config", str(bad)]) == 2

    def test_failure_exit_code(self, tmp_path):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        # impossible tolerance forces a check failure
        code = main(["verify-immersion", "--config", cfg, "--pullback", "1e-30",
                     "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_chunks_match_single_samples(self, tmp_path):
        # 70 samples span two chunks; every sample gets the floats of its
        # own --samples 1 run, so the maximum is the maximum of those runs
        obj = {"spec": {"base": I12_III2, "mu": 1.5}, "seed": 5, "samples": 70}
        assert obj["samples"] > IMMERSION_CHUNK
        cfg = _write_config(tmp_path, obj)
        out = tmp_path / "r.json"

        def measured(*extra):
            main(["verify-immersion", "--config", cfg, "--out", str(out), *extra])
            return [c["measured"] for c in json.loads(out.read_text())["checks"]]

        singles = [measured("--seed", str(5 + i), "--samples", "1") for i in range(70)]
        assert measured() == [max(s[k] for s in singles) for k in range(2)]

    @pytest.mark.parametrize("base", [{"kind": "I", "params": [2, 3]}, {"kind": "III", "params": [3]}],
                             ids=["I23", "III3"])
    def test_norm_identity_reads_the_determinant(self, tmp_path, monkeypatch, base):
        # generic_norm_identity checks N through determinants, a route that
        # the Cholesky value route of the pullback check does not share: a
        # fault in the determinant fails the one check only
        from hartogs_geom import domains

        det = domains.det
        monkeypatch.setattr(domains, "det", lambda m: det(m) * (1.0 + 1e-6))
        cfg = _write_config(tmp_path, {"spec": {"base": base, "mu": 1.5}, "samples": 10})
        out = tmp_path / "r.json"
        assert main(["verify-immersion", "--config", cfg, "--out", str(out)]) == 1
        status = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
        assert status == {"potential_pullback_identity": "pass", "generic_norm_identity": "fail"}


class TestWorstIndex:
    """A failed sample-loop check names the sample that produced `measured`."""

    def _reproduce(self, tmp_path, argv, seed):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 1
        failed = [c for c in json.loads(out.read_text())["checks"] if c["status"] == "fail"]
        assert failed
        for check in failed:
            i = check["worst_index"]
            main(argv + ["--seed", str(seed + i), "--samples", "1", "--out", str(out)])
            again = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
            assert again[check["name"]]["measured"] == check["measured"]
        return failed

    def test_verify_immersion(self, tmp_path):
        obj = {"spec": {"base": {"kind": "IV", "params": [5]}, "mu": 0.7}, "seed": 7, "samples": 40}
        cfg = _write_config(tmp_path, obj)
        argv = ["verify-immersion", "--config", cfg, "--pullback", "1e-300"]
        failed = self._reproduce(tmp_path, argv, obj["seed"])
        assert {c["name"] for c in failed} == {"potential_pullback_identity", "generic_norm_identity"}
        # passing checks carry no index
        out = tmp_path / "pass.json"
        assert main(["verify-immersion", "--config", cfg, "--out", str(out)]) == 0
        assert all("worst_index" not in c for c in json.loads(out.read_text())["checks"])

    def test_verify_tg(self, tmp_path):
        cfg = _write_config(tmp_path, dict(BASE_CONFIG, samples=6))
        argv = ["verify-tg", "--config", cfg, "--tg-residual", "1e-300"]
        failed = self._reproduce(tmp_path, argv, BASE_CONFIG["seed"])
        assert [c["name"] for c in failed] == ["tg_residual_max"]


    def _failed(self, tmp_path, argv):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 1
        return {c["name"]: c for c in json.loads(out.read_text())["checks"] if c["status"] == "fail"}

    def test_energy_drift_names_its_geodesic(self, tmp_path, monkeypatch):
        # the worst index is the confinement member, not a seed offset
        traces = []

        def recorded(*args, **kwargs):
            traces.extend(geodesic_batch(*args, **kwargs))
            return traces

        monkeypatch.setattr(cli, "geodesic_batch", recorded)
        cfg = _write_config(tmp_path, dict(BASE_CONFIG, samples=4))
        failed = self._failed(tmp_path, ["verify-tg", "--config", cfg, "--energy-drift", "1e-300"])
        assert list(failed) == ["geodesic_energy_drift"]
        drifts = [tr.energy_drift() for tr in traces]
        assert len(drifts) == 5
        assert failed["geodesic_energy_drift"]["worst_index"] == int(np.argmax(drifts))
        assert failed["geodesic_energy_drift"]["measured"] == max(drifts)

    def test_confinement_names_its_geodesic(self, tmp_path, monkeypatch):
        # confinement reads exactly 0 on polydisk slices, so one member is
        # spoiled: the third distance_to_span call measures member 2
        calls = []
        distance_to_span = cli.distance_to_span

        def spoiled(p, basis):
            calls.append(len(p))
            return distance_to_span(p, basis) + (1.0 if len(calls) == 3 else 0.0)

        monkeypatch.setattr(cli, "distance_to_span", spoiled)
        cfg = _write_config(tmp_path, dict(BASE_CONFIG, samples=4))
        failed = self._failed(tmp_path, ["verify-tg", "--config", cfg])
        assert list(failed) == ["geodesic_confinement_max"]
        assert len(calls) == 5
        assert failed["geodesic_confinement_max"]["worst_index"] == 2

    def test_linear_scan_names_its_record(self, tmp_path, monkeypatch):
        # cell 5 (r = 2, pure-fiber, a linear verdict) reads curved
        def spoiled(r, mu, xi, T):
            out = line_deviation(r, mu, xi, T)
            out[5] = 1.0
            return out

        monkeypatch.setattr(cli, "line_deviation", spoiled)
        failed = self._failed(tmp_path, ["linear-scan", "--mu-grid", "0.5", "--r-grid", "1,2"])
        check = failed["verdict_deviation_consistency"]
        assert (check["measured"], check["worst_index"]) == (1.0, 5)
        # unspoiled, the scan passes without an index
        monkeypatch.undo()
        out = tmp_path / "r.json"
        assert main(["linear-scan", "--mu-grid", "0.5", "--r-grid", "1,2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "worst_index" not in report["checks"][0]
        assert (report["records"][5]["r"], report["records"][5]["direction"]) == (2, "pure-fiber")


class TestVerifyTg:
    @pytest.mark.parametrize("selector", ["polydisk", "typeI-polydisk"])
    def test_matrix_base(self, tmp_path, selector):
        cfg = _write_config(tmp_path, dict(BASE_CONFIG, samples=15))
        out = tmp_path / "r.json"
        assert main(["verify-tg", "--config", cfg, "--slice", selector, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        names = {c["name"] for c in report["checks"]}
        assert "tg_residual_max" in names and "geodesic_confinement_max" in names

    def test_factor_slice(self, tmp_path):
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        assert main(
            ["verify-tg", "--config", cfg, "--slice", "factor-slice", "--sub-rank", "1",
             "--out", str(tmp_path / "r.json")]
        ) == 0

    def test_diagonal_slice(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {
                "spec": {
                    "base": {"kind": "product", "params": [{"kind": "I", "params": [1, 1]}] * 2},
                    "mu": 1.0,
                },
                "samples": 15,
            },
        )
        assert main(
            ["verify-tg", "--config", cfg, "--slice", "diagonal-slice",
             "--out", str(tmp_path / "r.json")]
        ) == 0

    def test_parser_reused_across_calls(self, tmp_path):
        # the parser is built once per process: options of one call must not
        # reach the next one
        cfg = _write_config(tmp_path, dict(POLY3_CONFIG, samples=4))
        sliced, plain, fresh = (tmp_path / f"{name}.json" for name in ("s", "p", "f"))
        argv = ["verify-tg", "--config", cfg, "--out"]
        assert main([*argv, str(sliced), "--slice", "factor-slice", "--sub-rank", "2"]) == 0
        assert main([*argv, str(plain)]) == 0
        build_parser.cache_clear()
        assert main([*argv, str(fresh)]) == 0
        assert json.loads(sliced.read_text())["selector"] == "factor-slice"
        assert json.loads(sliced.read_text())["sub_rank"] == 2
        assert json.loads(plain.read_text())["selector"] == "polydisk"
        assert "sub_rank" not in json.loads(plain.read_text())
        assert plain.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize(
        "base,selector",
        [
            ({"kind": "I", "params": [2, 3]}, "polydisk"),
            ({"kind": "product", "params": [{"kind": "I", "params": [1, 1]}] * 2},
             "diagonal-slice"),
        ],
        ids=["I(2,3)-polydisk", "polydisk(2)-diagonal"],
    )
    def test_report_bytes_independent_of_chunk(self, tmp_path, monkeypatch, base, selector):
        # every chunk is sampled and evaluated as one stack; a sample's
        # floats do not depend on the chunk it falls in
        obj = {"spec": {"base": base, "mu": 1.3}, "seed": 4, "samples": 23}
        cfg = _write_config(tmp_path, obj)
        reports = []
        for chunk in (1, 5, 16):
            monkeypatch.setattr(cli, "TG_CHUNK", chunk)
            out = tmp_path / f"r{chunk}.json"
            argv = ["verify-tg", "--config", cfg, "--slice", selector, "--out", str(out)]
            assert main(argv) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_one_sampler_call_per_chunk(self, tmp_path, monkeypatch):
        # 40 samples: three chunks of at most 16, plus the five confinement
        # start points, each one stacked rejection loop
        calls = []
        original = DomainSpec._sample_stack

        def counting(self, shrink, rngs):
            calls.append(len(rngs))
            return original(self, shrink, rngs)

        monkeypatch.setattr(DomainSpec, "_sample_stack", counting)
        cfg = _write_config(tmp_path, BASE_CONFIG)
        assert BASE_CONFIG["samples"] == 40 and cli.TG_CHUNK == 16
        assert main(["verify-tg", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 0
        assert calls == [16, 16, 8, 5]

    def test_alias_mismatch_is_config_error(self, tmp_path):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        assert main(["verify-tg", "--config", cfg, "--slice", "typeII-polydisk"]) == 2

    @pytest.mark.parametrize("sub_rank", [None, "1", "2"])
    def test_factor_slice_echoes_sub_rank(self, tmp_path, sub_rank):
        # factor-slice takes sub-rank 1 when the flag is omitted
        cfg = _write_config(tmp_path, dict(POLY3_CONFIG, samples=4))
        out = tmp_path / "r.json"
        flag = () if sub_rank is None else ("--sub-rank", sub_rank)
        assert main(["verify-tg", "--config", cfg, "--slice", "factor-slice", *flag, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert (report["selector"], report["sub_rank"]) == ("factor-slice", int(sub_rank or 1))

    @pytest.mark.parametrize("sub_rank", ["1", "7"])
    @pytest.mark.parametrize("selector", ["polydisk", "typeI-polydisk", "diagonal-slice"])
    def test_sub_rank_belongs_to_factor_slice(self, tmp_path, capsys, selector, sub_rank):
        base = {"kind": "I", "params": [2, 3]}
        cfg = _write_config(tmp_path, {"spec": {"base": base, "mu": 1.0}, "samples": 4})
        out = tmp_path / "r.json"
        argv = ["verify-tg", "--config", cfg, "--slice", selector, "--sub-rank", sub_rank, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "factor-slice" in err
        assert not out.exists()

    def test_unknown_selector_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["verify-tg", "--config", cfg, "--slice", "nonsense"])
        assert exc.value.code == 2

    def test_unknown_selector_is_config_error(self):
        # the selector check of `_build_chart` itself, behind argparse's
        with pytest.raises(cli.ConfigError, match="unknown slice selector"):
            cli._build_chart(cli.RunConfig(HartogsSpec(DomainSpec.type_i(2, 2), 1.0)), "nonsense", 1)

    @pytest.mark.parametrize("mu", [0.5, 1.5])
    @pytest.mark.parametrize(
        "slice_args", [("factor-slice", "--sub-rank", "1"), ("diagonal-slice",)], ids=lambda a: a[0]
    )
    @pytest.mark.parametrize("base", sorted(NON_POLYDISK_BASES))
    def test_sub_polydisk_slices_on_every_family(self, tmp_path, base, slice_args, mu):
        # a sub-polydisk of the embedded polydisk is totally geodesic in any base
        obj = {"spec": {"base": NON_POLYDISK_BASES[base], "mu": mu}, "seed": 5, "samples": 16}
        cfg = _write_config(tmp_path, obj)
        out = tmp_path / "r.json"
        assert main(["verify-tg", "--config", cfg, "--slice", *slice_args, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["selector"] == slice_args[0]
        assert [c["status"] for c in report["checks"]] == ["pass"] * 3

    @pytest.mark.parametrize(
        "r,selector,sub_rank",
        [
            (2, "polydisk", 1),
            (2, "factor-slice", 1),
            (2, "diagonal-slice", 1),
            (3, "polydisk", 1),
            (3, "factor-slice", 1),
            (3, "factor-slice", 2),
            (3, "diagonal-slice", 1),
        ],
    )
    def test_polydisk_reports_match_coordinate_charts(
        self, tmp_path, monkeypatch, r, selector, sub_rank
    ):
        base = {"kind": "product", "params": [{"kind": "I", "params": [1, 1]}] * r}
        cfg = _write_config(tmp_path, {"spec": {"base": base, "mu": 1.3}, "seed": 5, "samples": 20})
        flag = ("--sub-rank", str(sub_rank)) if selector == "factor-slice" else ()
        argv = ["verify-tg", "--config", cfg, "--slice", selector, *flag, "--out"]
        assert main([*argv, str(tmp_path / "route.json")]) == 0
        monkeypatch.setattr(cli, "_build_chart", _coordinate_chart)
        assert main([*argv, str(tmp_path / "oracle.json")]) == 0
        assert (tmp_path / "route.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()

    @pytest.mark.parametrize(
        "base,slice_args",
        [
            ({"kind": "I", "params": [1, 3]}, ("diagonal-slice",)),
            ({"kind": "I", "params": [2, 3]}, ("factor-slice", "--sub-rank", "2")),
        ],
        ids=["I(1,3)-diagonal", "I(2,3)-factor-2"],
    )
    def test_slice_larger_than_rank_exit_2(self, tmp_path, capsys, base, slice_args):
        cfg = _write_config(tmp_path, {"spec": {"base": base, "mu": 1.0}, "samples": 4})
        assert main(["verify-tg", "--config", cfg, "--slice", *slice_args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "rank" in err

    @pytest.mark.parametrize("mu", [0.7, 1.5])
    @pytest.mark.parametrize("line", ["I(2,2)-diag(t,t/2)", "IV(6)-(e1+ie2/2)/1.2"])
    def test_non_geodesic_lines_fail(self, tmp_path, monkeypatch, line, mu):
        # negative controls: complex lines through 0 that are not totally
        # geodesic; they read 0.76-2.4, far above the floor pinned here
        if line.startswith("I("):
            base = DomainSpec.type_i(2, 2)
            mat = polydisk_embedding(base).matrix @ np.array([[1.0], [0.5]])
        else:
            base = DomainSpec.type_iv(6)
            mat = np.zeros((6, 1), dtype=np.complex128)
            mat[:2, 0] = [1.0 / 1.2, 0.5j / 1.2]
        emb = LinearEmbedding(DomainSpec.polydisk(1), base, mat)
        monkeypatch.setattr(cli, "_build_chart", lambda cfg, selector, sub_rank: slice_chart(cfg.spec, emb))
        obj = {"spec": {"base": base.to_json(), "mu": mu}, "seed": 5, "samples": 40}
        cfg = _write_config(tmp_path, obj)
        out = tmp_path / "r.json"
        assert main(["verify-tg", "--config", cfg, "--out", str(out)]) == 1
        tg = json.loads(out.read_text())["checks"][0]
        assert tg["name"] == "tg_residual_max" and tg["measured"] >= 1e-3


def _coordinate_chart(cfg, selector, sub_rank):
    """Slice charts of a polydisk base from coordinate matrices built by hand
    (the identity, the first `sub_rank` unit columns, e1 + e2): the second
    route for `_build_chart` on polydisk bases."""
    base = cfg.spec.base
    n = base.dim
    if selector == "polydisk":
        mat = np.eye(n, dtype=np.complex128)
    elif selector == "factor-slice":
        mat = np.zeros((n, sub_rank), dtype=np.complex128)
        mat[:sub_rank, :] = np.eye(sub_rank)
    else:
        mat = np.zeros((n, 1), dtype=np.complex128)
        mat[:2, 0] = 1.0
    return slice_chart(cfg.spec, LinearEmbedding(DomainSpec.polydisk(mat.shape[1]), base, mat))


class TestGeodesic:
    def test_trace_and_energy(self, tmp_path):
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        trace = tmp_path / "trace.csv"
        out = tmp_path / "r.json"
        code = main(
            ["geodesic", "--config", cfg, "--p0", "0,0,0,0", "--v0", "0,0,0,1",
             "--T", "1.0", "--trace-out", str(trace), "--out", str(out)]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "t,re_z1,im_z1,re_z2,im_z2,re_z3,im_z3,re_w,im_w,energy"
        report = json.loads(out.read_text())
        assert report["status"] == "completed"
        # a fiber direction from the origin is confined to its complex line
        assert report["line_deviation"] < 1e-9
        assert report["domain_retries"] == 0
        # the start point is one row, every sweep nine: the 8 stages and the landing point
        assert report["rhs_evals"] == 1 + 9 * (report["sweeps"] - 1)
        assert report["sweeps"] > report["steps"]
        assert 0 < report["h_min"] <= report["h_max"] <= 1.0

    def test_ball_mixed_direction_linear(self, tmp_path):
        cfg = _write_config(
            tmp_path, {"spec": {"base": {"kind": "I", "params": [1, 1]}, "mu": 1.0}}
        )
        out = tmp_path / "r.json"
        code = main(
            ["geodesic", "--config", cfg, "--p0", "0,0", "--v0", "0.6,0.8",
             "--T", "1.0", "--trace-out", str(tmp_path / "t.csv"), "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["line_deviation"] < 1e-7

    def test_boundary_status_still_exit_zero(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"spec": {"base": {"kind": "I", "params": [1, 1]}, "mu": 1.0}},
        )
        out = tmp_path / "r.json"
        code = main(
            ["geodesic", "--config", cfg, "--p0", "0,0.9", "--v0", "0,1",
             "--T", "40", "--trace-out", str(tmp_path / "t.csv"), "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["status"] == "boundary_reached"

    def test_dimension_mismatch_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        assert main(["geodesic", "--config", cfg, "--p0", "0,0", "--v0", "0,1"]) == 2

    def _run(self, tmp_path, p0, v0, spec=None, extra=()):
        argv = ["geodesic", "--p0", p0, "--v0", v0, "--trace-out", str(tmp_path / "t.csv"), *extra]
        if spec is not None:
            argv += ["--config", _write_config(tmp_path, {"spec": spec})]
        return main(argv)

    def test_zero_velocity_exit_2(self, tmp_path, capsys):
        assert self._run(tmp_path, "0,0,0,0,0", "0,0,0,0,0") == 2
        assert "v0" in capsys.readouterr().err

    def test_point_outside_exit_2(self, tmp_path):
        disk = {"base": {"kind": "I", "params": [1, 1]}, "mu": 1.0}
        assert self._run(tmp_path, "0.3,2.0", "0,1", disk) == 2

    def test_point_within_boundary_margin_exit_2(self, tmp_path):
        # N^mu - |w|^2 = 1e-9, inside the domain but below the 1e-7 margin
        disk = {"base": {"kind": "I", "params": [1, 1]}, "mu": 1.0}
        assert self._run(tmp_path, "0,0.9999999995", "0,1", disk) == 2

    @pytest.mark.parametrize(
        "p0,v0,extra",
        [("nan,0,0,0,0", "1,0,0,0,0", ()), ("0,0,0,0,0", "1,0,0,0,inf", ()),
         ("0,0,0,0,0", "1,0,0,0,0", ("--T", "nan"))],
    )
    def test_non_finite_input_exit_2(self, tmp_path, p0, v0, extra):
        assert self._run(tmp_path, p0, v0, extra=extra) == 2

    @pytest.mark.parametrize("T", ["0", "-1"])
    def test_nonpositive_end_time_exit_2(self, tmp_path, capsys, T):
        assert self._run(tmp_path, "0,0,0,0,0", "1,0,0,0,0", extra=("--T", T)) == 2
        assert "T must be" in capsys.readouterr().err

    def test_even_crossing_point_exit_2(self, tmp_path):
        # Z = diag(1.2, 1.2) on the default I(2,2): N = 0.19 > 0 but Z is outside
        assert self._run(tmp_path, "1.2,0,0,1.2,0", "1,0,0,0,0") == 2


class TestLinearScan:
    def test_default_grid(self, tmp_path):
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        out = tmp_path / "scan.json"
        code = main(["linear-scan", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        records = report["records"]
        assert len(records) == 3 * 2 * 4  # mu grid x r grid x directions
        for rec in records:
            assert {"mu", "r", "direction", "xi", "class", "deviation", "constraints"} <= set(rec)
            assert rec["consistent"]
        table = {
            (rec["mu"], rec["r"], rec["direction"]): rec["class"] for rec in records
        }
        assert table[(1.0, 1, "mixed-equal")] == "hyperbolic_space"
        assert table[(0.5, 2, "mixed-equal")] == "hyperbolic_space"
        assert table[(1.0, 2, "mixed-equal")] == "impossible"
        assert table[(2.0, 1, "mixed-unequal")] == "impossible"
        assert all(table[(mu, r, "pure-base")] == "in_base" for mu in (0.5, 1.0, 2.0) for r in (1, 2))
        assert all(table[(mu, r, "pure-fiber")] == "in_fiber" for mu in (0.5, 1.0, 2.0) for r in (1, 2))

    def test_all_fiber_grid(self, tmp_path):
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        out = tmp_path / "scan.json"
        code = main(
            ["linear-scan", "--config", cfg, "--mu-grid", "1", "--r-grid", "1", "--out", str(out)]
        )
        assert code == 0
        recs = json.loads(out.read_text())["records"]
        fibers = [r for r in recs if r["direction"] == "pure-fiber"]
        assert all(r["class"] == "in_fiber" for r in fibers)

    def test_empty_grid_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        assert main(["linear-scan", "--config", cfg, "--mu-grid", "", "--r-grid", "1"]) == 2

    def test_zero_rank_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        assert main(["linear-scan", "--config", cfg, "--r-grid", "0"]) == 2

    def test_negative_mu_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        assert main(["linear-scan", "--config", cfg, "--mu-grid=-1"]) == 2

    def test_rank_above_bound_exit_2(self, tmp_path, capsys):
        # at mu = 1/r the mixed-equal cell reaches `series_residual`, whose
        # arrays grow as r^2 C(r + 8, 7): r = 13 is refused before any is built
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        out = tmp_path / "r.json"
        argv = ["linear-scan", "--config", cfg, "--mu-grid", repr(1 / 13), "--r-grid", "2,13"]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "1..12" in err
        assert not out.exists()

    def test_negative_end_time_exit_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        assert main(["linear-scan", "--config", cfg, "--T", "-1"]) == 2
        assert "T must be" in capsys.readouterr().err

    def test_stacked_scan_against_the_per_rank_route(self):
        # every mu runs on the top-rank polydisk, into which the rank-r
        # polydisk is totally geodesic: each cell's deviation matches the
        # integration on its own rank, and its verdict fields do not move.
        # The grid holds r mu = 1 cells (hyperbolic_space) at mu = 0.5, 1/3
        cfg = RunConfig(spec=HartogsSpec(DomainSpec.polydisk(1), 1.0))
        mu_grid, r_grid = [0.5, 1 / 3, 2.0], [1, 2, 3, 4, 5]
        records = iter(cli.cmd_linear_scan(cfg, mu_grid, r_grid).extra["records"])
        classes = set()
        for mu in mu_grid:
            for r in r_grid:
                directions = cli._scan_directions(r)
                own = line_deviation(r, mu, np.stack([xi for _, xi in directions]), 0.5)
                for (name, xi), dev in zip(directions, own):
                    rec = next(records)
                    assert (rec["mu"], rec["r"], rec["direction"]) == (mu, r, name)
                    assert rec["deviation"] == pytest.approx(dev, rel=1e-12, abs=1e-15)
                    verdict = line_constraints(r, mu, xi).to_json()
                    assert rec["class"] == verdict["class"]
                    assert rec["constraints"] == verdict["constraints"]
                    linear = verdict["class"] != GeodesicClass.IMPOSSIBLE.value
                    assert rec["consistent"] == bool(
                        dev < cli.SCAN_LINEAR_MAX if linear else dev > cli.SCAN_CURVED_MIN
                    )
                    classes.add(rec["class"])
        assert next(records, None) is None
        assert "hyperbolic_space" in classes and "impossible" in classes

    def test_padded_coordinates_stay_zero(self):
        # the slice z_{r+1} = ... = z_R = 0 is the fixed set of an isometry:
        # the padded coordinates of every trace stay exactly 0
        top = 4
        rows, ranks = [], []
        for r in range(1, top):
            for _, xi in cli._scan_directions(r):
                rows.append(np.concatenate([xi[:r], np.zeros(top - r), xi[r:]]))
                ranks.append(r)
        for mu in (0.5, 1 / 3, 2.0):
            pot = HartogsPotential(HartogsSpec(DomainSpec.polydisk(top), mu))
            traces = geodesic_batch(pot, np.zeros((len(rows), top + 1)), np.stack(rows), 0.5)
            for tr, r in zip(traces, ranks):
                assert len(tr.times) > 1
                assert not np.any(tr.positions[:, r:top]) and not np.any(tr.velocities[:, r:top])

    def test_one_line_deviation_call_per_mu(self, tmp_path, monkeypatch):
        calls = []

        def counted(r, mu, xi, T, *args, **kwargs):
            calls.append((r, mu, len(xi)))
            return line_deviation(r, mu, xi, T, *args, **kwargs)

        monkeypatch.setattr(cli, "line_deviation", counted)
        argv = ["linear-scan", "--mu-grid", "0.5,1,2", "--r-grid", "2,1,3", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert calls == [(3, 0.5, 12), (3, 1.0, 12), (3, 2.0, 12)]  # three ranks of four directions

    @pytest.mark.parametrize(
        "error,member,cell",
        [(IntegrationError, 5, "r = 2, pure-fiber"), (StartError, 11, "r = 3, mixed-unequal")],
    )
    def test_failure_names_its_cell(self, tmp_path, capsys, monkeypatch, error, member, cell):
        # a member of the stacked mu batch maps back to its (r, direction) cell
        def failing(r, mu, xi, T):
            raise error(f"geodesic of member {member} failed", member)

        monkeypatch.setattr(cli, "line_deviation", failing)
        argv = ["linear-scan", "--mu-grid", "0.5", "--r-grid", "1,2,3", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        want = f"config error: linear-scan cell mu = 0.5, {cell}: geodesic of member {member} failed"
        assert err.startswith(want)


class TestEmbedResidual:
    def test_origin(self, tmp_path):
        cfg = _write_config(
            tmp_path, {"spec": {"base": {"kind": "I", "params": [1, 1]}, "mu": 2.0}}
        )
        out = tmp_path / "r.json"
        assert main(["embed-residual", "--config", cfg, "--point", "0,0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["measured"] == 0.0

    def test_interior_point_with_table(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            {"spec": {"base": {"kind": "I", "params": [1, 1]}, "mu": 2.0},
             "truncation": {"k_max": 60, "a_max": 60}},
        )
        out = tmp_path / "r.json"
        assert main(["embed-residual", "--config", cfg, "--point", "0.3,0.2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        table = report["convergence_table"]
        assert set(table) == {"10", "20", "40", "60"}

    def test_non_polydisk_base_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        assert main(["embed-residual", "--config", cfg, "--point", "0,0,0,0,0"]) == 2

    def test_outside_point_exit_2(self, tmp_path):
        cfg = _write_config(
            tmp_path, {"spec": {"base": {"kind": "I", "params": [1, 1]}, "mu": 1.0}}
        )
        code = main(["embed-residual", "--config", cfg, "--point", "0.3,2.0"])
        assert code == 2

    @pytest.mark.parametrize("mu,k_max,a_max", [(1e10, 40, 40), (1.5, 500, 500)])
    def test_overflowing_coefficients_exit_2(self, tmp_path, capsys, mu, k_max, a_max):
        # C(mu a + k - 1, k) overflows a float in the table that sums the norms
        poly2 = {"kind": "product", "params": [{"kind": "I", "params": [1, 1]}] * 2}
        obj = {"spec": {"base": poly2, "mu": mu}}
        if k_max != 40:
            obj["truncation"] = {"k_max": k_max, "a_max": a_max}
        cfg = _write_config(tmp_path, obj)
        out = tmp_path / "r.json"
        assert main(["embed-residual", "--config", cfg, "--point", "0,0,0.05", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"mu = {mu:g}" in err
        assert f"k_max = {k_max}, a_max = {a_max}" in err
        assert not out.exists()


class TestOutputFormats:
    def test_csv_report(self, tmp_path):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "report.csv"
        assert main(
            ["verify-immersion", "--config", cfg, "--format", "csv", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "name,status,measured,tolerance"
        assert len(lines) == 3

    def test_metric_fd_flag_is_gone(self, tmp_path):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["verify-immersion", "--config", cfg, "--metric-fd", "1e-7"])
        assert exc.value.code == 2

    def test_flag_overrides_echoed(self, tmp_path):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "r.json"
        main(
            ["verify-immersion", "--config", cfg, "--seed", "99", "--samples", "5",
             "--out", str(out)]
        )
        report = json.loads(out.read_text())
        assert report["config"]["seed"] == 99
        assert report["config"]["samples"] == 5


# The settings flags each subcommand takes: exactly those of the settings its
# command reads.  Every subcommand also takes --config, --out and --format.
SETTING_FLAGS = {
    "verify-immersion": ("--seed", "--samples", "--shrink", "--pullback"),
    "verify-tg": ("--seed", "--samples", "--shrink", "--tg-residual", "--confinement", "--energy-drift"),
    "geodesic": ("--energy-drift",),
    "linear-scan": (),
    "embed-residual": ("--embed",),
}
OWN_FLAGS = {
    "verify-immersion": (),
    "verify-tg": ("--slice", "--sub-rank"),
    "geodesic": ("--p0", "--v0", "--T", "--trace-out"),
    "linear-scan": ("--mu-grid", "--r-grid", "--T"),
    "embed-residual": ("--point",),
}
ALL_SETTING_FLAGS = (
    "--seed", "--samples", "--shrink",
    "--pullback", "--tg-residual", "--energy-drift", "--embed", "--confinement",
)
DROPPED_FLAGS = [
    (command, flag)
    for command, kept in SETTING_FLAGS.items()
    for flag in ALL_SETTING_FLAGS
    if flag not in kept
]
# the arguments each subcommand requires, and a config it runs on quickly;
# verify-immersion and verify-tg on a base that is no polydisk, where the
# identities read rounding noise that moves with the samples, not 0
I23_CONFIG = {"spec": {"base": {"kind": "I", "params": [2, 3]}, "mu": 1.5}, "seed": 3, "samples": 1}
RUNS = {
    "verify-immersion": (I23_CONFIG, ()),
    "verify-tg": (I23_CONFIG, ()),
    "geodesic": (POLY3_CONFIG, ("--p0", "0,0,0,0", "--v0", "0,0,0,0.1", "--T", "0.2")),
    "linear-scan": ({}, ("--mu-grid", "1", "--r-grid", "1", "--T", "0.1")),
    "embed-residual": (POLY3_CONFIG, ("--point", "0.1,0.2j,0,0.05")),
}
# one value for every kept flag, picked once so that each moves the report
FLAG_VALUES = {
    "--seed": "11",
    "--samples": "6",
    "--shrink": "0.9",
    "--pullback": "1e-3",
    "--tg-residual": "1e-3",
    "--confinement": "1e-3",
    "--energy-drift": "1e-3",
    "--embed": "1e-3",
}


def _parser_flags() -> dict:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def _argv(tmp_path, command, obj=None, name="cfg.json") -> list:
    """A run of `command` on its config of RUNS (or obj), writing under tmp_path."""
    default, args = RUNS[command]
    cfg = _write_config(tmp_path, default if obj is None else obj, name)
    argv = [command, "--config", cfg, *args, "--out", str(tmp_path / "r.json")]
    if command == "geodesic":
        argv += ["--trace-out", str(tmp_path / "t.csv")]
    return argv


class TestSettings:
    """One table of run settings: each subcommand takes the flags it reads,
    a config file is shared, and file and flag values pass one check."""

    def test_flags_per_subcommand(self):
        want = {
            name: {"--config", "--out", "--format", *SETTING_FLAGS[name], *OWN_FLAGS[name]}
            for name in SETTING_FLAGS
        }
        assert _parser_flags() == want
        assert sum(map(len, want.values())) == 37
        assert len(DROPPED_FLAGS) == 28

    def _report(self, tmp_path, command, *extra):
        assert main([*_argv(tmp_path, command), *extra]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        del report["config"]
        return report

    @pytest.mark.parametrize(
        "command,flag", [(c, f) for c, flags in SETTING_FLAGS.items() for f in flags]
    )
    def test_every_flag_moves_the_report(self, tmp_path, command, flag):
        # a flag that only moved the echoed config would read nothing
        moved = self._report(tmp_path, command, flag, FLAG_VALUES[flag])
        assert moved != self._report(tmp_path, command)

    @pytest.mark.parametrize("command,flag", DROPPED_FLAGS)
    def test_dropped_flag_exit_2(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*_argv(tmp_path, command), flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "command,obj,key",
        [
            ("verify-immersion", {"sampels": 3}, "sampels"),
            ("verify-immersion", {"tolerance": {"pullback": 1e-300}}, "tolerance"),
            ("linear-scan", {"pullback": 1e-300}, "pullback"),
            ("embed-residual", {"truncation": {"kmax": 8}}, "kmax"),
            ("embed-residual", {"truncation": {"k_max": 8, "seed": 1}}, "seed"),
            ("verify-tg", {"tolerances": {"samples": 3}}, "samples"),
        ],
    )
    def test_unknown_key_exit_2(self, tmp_path, capsys, command, obj, key):
        assert main(_argv(tmp_path, command, dict(RUNS[command][0], **obj))) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown keys") and repr(key) in err
        assert not (tmp_path / "r.json").exists()

    def test_every_known_key_reaches_every_subcommand(self, tmp_path):
        # a config file is shared: each setting is accepted and echoed by all
        tolerances = dict.fromkeys(cli.DEFAULT_TOLERANCES, 0.5)
        obj = dict(
            POLY3_CONFIG,
            seed=2,
            samples=3,
            shrink=1,
            tolerances=dict(tolerances, pullback=1),
            truncation={"k_max": 30, "a_max": 20},
        )
        for command in RUNS:
            assert main(_argv(tmp_path, command, obj)) == 0
            echo = json.loads((tmp_path / "r.json").read_text())["config"]
            # an integer tolerance echoes as an integer, an integer shrink as a float
            assert echo["tolerances"] == dict(tolerances, pullback=1)
            assert isinstance(echo["tolerances"]["pullback"], int)
            assert echo["shrink"] == 1.0 and isinstance(echo["shrink"], float)
            assert (echo["seed"], echo["samples"], echo["truncation"]) == (
                2, 3, {"k_max": 30, "a_max": 20}
            )

    @pytest.mark.parametrize(
        "command,setting,value",
        [
            ("verify-immersion", "seed", -3),
            ("verify-tg", "samples", 0),
            ("verify-immersion", "shrink", 1.5),
            ("verify-tg", "shrink", 0.0),
            ("verify-immersion", "shrink", float("nan")),
            ("verify-immersion", "pullback", float("nan")),
            ("verify-tg", "confinement", -1.0),
            ("verify-tg", "tg_residual", 0.0),
            ("geodesic", "energy_drift", float("inf")),
            ("embed-residual", "embed", 0.0),
        ],
    )
    def test_file_and_flag_give_one_message(self, tmp_path, capsys, command, setting, value):
        obj = RUNS[command][0]
        if setting in cli.DEFAULT_TOLERANCES:
            bad = dict(obj, tolerances={setting: value})
        else:
            bad = dict(obj, **{setting: value})
        flag = ("--" + setting.replace("_", "-"), repr(value))
        errs = []
        for argv in (_argv(tmp_path, command, bad, "bad.json"), [*_argv(tmp_path, command), *flag]):
            assert main(argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("config error:") and setting in errs[0]
        assert not (tmp_path / "r.json").exists()
