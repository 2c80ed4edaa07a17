"""Tests for the command-line verification harness."""

import json

import pytest

from hartogs_geom.cli import IMMERSION_CHUNK, main


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

    def test_alias_mismatch_is_config_error(self, tmp_path):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        assert main(["verify-tg", "--config", cfg, "--slice", "typeII-polydisk"]) == 2

    def test_unknown_selector_exit_2(self, tmp_path):
        cfg = _write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["verify-tg", "--config", cfg, "--slice", "nonsense"])
        assert exc.value.code == 2


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
        attempts = report["steps"] - 1 + report["rejected_steps"]
        assert report["rhs_evals"] == 1 + 6 * attempts

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

    def test_negative_end_time_exit_2(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, POLY3_CONFIG)
        assert main(["linear-scan", "--config", cfg, "--T", "-1"]) == 2
        assert "T must be" in capsys.readouterr().err


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

    def test_thread_env_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HARTOGS_GEOM_THREADS", "2")
        cfg = _write_config(tmp_path, BASE_CONFIG)
        out1 = tmp_path / "r1.json"
        main(["verify-immersion", "--config", cfg, "--out", str(out1)])
        monkeypatch.setenv("HARTOGS_GEOM_THREADS", "1")
        out2 = tmp_path / "r2.json"
        main(["verify-immersion", "--config", cfg, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
