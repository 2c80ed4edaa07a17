"""Batch verification front end.

Subcommands map the constructive claims about Cartan-Hartogs domains onto
machine-checkable runs: potential pullback identities (`verify-immersion`),
totally geodesic slices with geodesic spot checks (`verify-tg`), single
geodesic traces with energy bookkeeping (`geodesic`), the linear-support
direction scan (`linear-scan`), and the sequence-space norm residual
(`embed-residual`).

Reports echo their full configuration (seed included) and are byte-identical
across runs with the same config: wall time is shown on stderr only.  Exit
codes: 0 all checks pass, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .domains import DomainSpec, LinearEmbedding, polydisk_embedding
from .hartogs import (
    HartogsPotential,
    HartogsSpec,
    _check_mu,
    h_sample,
    potential,
    slice_chart,
)
from .l2embed import (
    GeodesicClass,
    Truncation,
    line_constraints,
    line_deviation,
    norm_table,
)
from .l2embed import norm_residual  # noqa: F401 - stays importable as cli.norm_residual
from .metric import (
    IntegrationError,
    distance_to_span,
    geodesic_batch,
    geodesic_ivp,
    hermitian_inner,
    tg_residual,
    _metric_matrix,
)
from .numerics import DomainViolation

DEFAULT_TOLERANCES = {
    "pullback": 1e-12,
    "tg_residual": 1e-9,
    "energy_drift": 1e-8,
    "embed": 1e-10,
    "confinement": 1e-6,
}
SCAN_LINEAR_MAX = 1e-6
SCAN_CURVED_MIN = 1e-5
# largest rank of a linear-scan cell: `series_residual` builds an array of
# shape (r, C(r + 8, 7), r), about 90 MB at r = 12 and 3.8 GB at r = 20
SCAN_R_MAX = 12
# verify-tg samples per stacked chart sample and tg_residual call.  A call
# amortizes its overhead over the chunk; the cap keeps the stacked
# temporaries small at any --samples.  Larger chunks run a few per cent
# faster but leave the heap fragmented, so a long run of reports reaches a
# higher peak RSS.
TG_CHUNK = 16
# verify-immersion samples per stacked sample and evaluation; the cap keeps
# the stacked temporaries, and so the peak RSS, small at any --samples.
IMMERSION_CHUNK = 64


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    spec: HartogsSpec
    seed: int = 0
    samples: int = 200
    shrink: float = 0.6
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    truncation: Truncation = Truncation(40, 40)

    def echo(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "seed": self.seed,
            "samples": self.samples,
            "shrink": self.shrink,
            "tolerances": dict(sorted(self.tolerances.items())),
            "truncation": {"k_max": self.truncation.k_max, "a_max": self.truncation.a_max},
        }


@dataclass
class Check:
    name: str
    passed: bool
    measured: float
    tolerance: float
    # sample whose value is `measured`; reported only when the check fails,
    # and `--seed <seed + worst_index> --samples 1` reproduces it
    worst_index: int | None = None

    def payload(self) -> dict:
        out = {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "measured": self.measured,
            "tolerance": self.tolerance,
        }
        if not self.passed and self.worst_index is not None:
            out["worst_index"] = self.worst_index
        return out


def _worst(values) -> tuple[float, int]:
    """Largest value and the index of its first occurrence."""
    i = max(range(len(values)), key=values.__getitem__)
    return values[i], i


@dataclass
class Report:
    command: str
    config: dict
    checks: list[Check]
    extra: dict = field(default_factory=dict)
    status: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        out = {
            "command": self.command,
            "config": self.config,
            "checks": [c.payload() for c in self.checks],
            "overall": "pass" if self.passed else "fail",
        }
        if self.status:
            out["status"] = self.status
        out.update(self.extra)
        return out


def _pool():
    """A worker pool (a ThreadPoolExecutor) that no command uses: every
    command evaluates stacked arrays.  It stays while `perfbench/tracer.py`
    wraps `cli._pool`; concurrent.futures is imported here, so that no CLI
    start pays for it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1))


def _load_config(args) -> RunConfig:
    obj = {}
    if args.config:
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    for name in ("spec", "tolerances", "truncation"):
        if not isinstance(obj.get(name, {}), dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")
    try:
        spec = (
            HartogsSpec.from_json(obj["spec"])
            if "spec" in obj
            else HartogsSpec(DomainSpec.type_i(2, 2), 1.0)
        )
        tolerances = dict(DEFAULT_TOLERANCES)
        tolerances.update(obj.get("tolerances", {}))
        trunc = obj.get("truncation", {})
        cfg = RunConfig(
            spec=spec,
            seed=_config_int(obj, "seed", 0),
            samples=_config_int(obj, "samples", 200),
            shrink=_config_float(obj, "shrink", 0.6),
            tolerances=tolerances,
            truncation=Truncation(
                _config_int(trunc, "k_max", 40), _config_int(trunc, "a_max", 40)
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    for name in ("seed", "samples", "shrink"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    for name in DEFAULT_TOLERANCES:
        val = getattr(args, name.replace("-", "_"), None)
        if val is not None:
            cfg.tolerances[name] = val
    if cfg.samples < 1:
        raise ConfigError("samples must be >= 1")
    if not 0 < cfg.shrink <= 1:
        raise ConfigError("shrink must lie in (0, 1]")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    unknown = sorted(set(cfg.tolerances) - set(DEFAULT_TOLERANCES))
    if unknown:
        raise ConfigError(f"unknown tolerances {unknown}; known: {sorted(DEFAULT_TOLERANCES)}")
    for name, t in cfg.tolerances.items():
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise ConfigError(f"tolerance {name!r} must be a number, got {t!r}")
        if not (np.isfinite(t) and t > 0):
            raise ConfigError(f"tolerance {name!r} must be finite and positive, got {t!r}")
    return cfg


def _config_float(section: dict, name: str, default: float) -> float:
    val = section.get(name, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{name} must be a number, got {val!r}")
    return float(val)


def _config_int(section: dict, name: str, default: int) -> int:
    val = section.get(name, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{name} must be an integer, got {val!r}")
    return val


def _check_writable(path: str) -> None:
    """Refuse an output path before any work: a directory, a file that
    cannot be written, or a new file in a missing or read-only folder."""
    target = path if os.path.exists(path) else os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write {path}")


@contextlib.contextmanager
def _as_config_error(prefix: str = ""):
    """Report a ValueError of the enclosed calls, a check of their inputs, as a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def _parse_complex_vector(text: str, expected: int | None = None) -> np.ndarray:
    try:
        vec = np.array([complex(part.strip().replace(" ", "")) for part in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex vector {text!r}: {exc}") from exc
    if expected is not None and len(vec) != expected:
        raise ConfigError(f"expected {expected} components, got {len(vec)}")
    if not np.all(np.isfinite(vec)):
        raise ConfigError(f"non-finite component in {text!r}")
    return vec


# -- commands -------------------------------------------------------------------


def cmd_verify_immersion(cfg: RunConfig) -> Report:
    base = cfg.spec.base
    emb = polydisk_embedding(base)
    h_poly = HartogsSpec(DomainSpec.polydisk(base.rank), cfg.spec.mu)
    pulls, norms = [], []
    for start in range(0, cfg.samples, IMMERSION_CHUNK):
        stop = min(start + IMMERSION_CHUNK, cfg.samples)
        with _as_config_error():
            p = h_sample(h_poly, cfg.shrink, range(cfg.seed + start, cfg.seed + stop))
        z = p[:, :-1]
        img = emb(z)
        phi = potential(cfg.spec, np.concatenate([img, p[:, -1:]], axis=1))
        pulls.extend(np.abs(phi - potential(h_poly, p)).tolist())
        # the determinant route, independent of the Cholesky value route
        norms.extend(np.abs(base._norm(img) - np.prod(1.0 - np.abs(z) ** 2, axis=-1)).tolist())
    max_pull, i_pull = _worst(pulls)
    max_norm, i_norm = _worst(norms)
    tol = cfg.tolerances["pullback"]
    return Report(
        command="verify-immersion",
        config=cfg.echo(),
        checks=[
            Check("potential_pullback_identity", max_pull < tol, max_pull, tol, i_pull),
            Check("generic_norm_identity", max_norm < tol, max_norm, tol, i_norm),
        ],
    )


_POLYDISK_ALIASES = {f"type{kind}-polydisk": kind for kind in ("I", "II", "III", "IV")}


def _build_chart(cfg: RunConfig, selector: str, sub_rank: int | None):
    """A coordinate sub-polydisk of the base's rank-r polydisk (see
    `polydisk_embedding`) with its fiber, a totally geodesic slice on every
    base: all of it (`polydisk`; an alias also checks the base's type), its
    first `sub_rank` coordinates (`factor-slice`, 1 <= sub_rank < r), or the
    diagonal disk of its first two (`diagonal-slice`, r >= 2)."""
    base = cfg.spec.base
    poly = polydisk_embedding(base)
    r = base.rank
    if selector == "polydisk" or selector in _POLYDISK_ALIASES:
        want = _POLYDISK_ALIASES.get(selector)
        if want and base.kind != want:
            raise ConfigError(f"selector {selector} requires a type {want} base")
        return slice_chart(cfg.spec, poly)
    if selector == "factor-slice":
        if not 1 <= sub_rank < r:
            raise ConfigError(f"sub-rank must lie in 1..r-1 for a base of rank r = {r}")
        mat = poly.matrix[:, :sub_rank]
    elif selector == "diagonal-slice":
        if r < 2:
            raise ConfigError(f"diagonal slice needs a base of rank >= 2, got rank {r}")
        mat = poly.matrix[:, :2].sum(axis=1, keepdims=True)
    else:
        raise ConfigError(f"unknown slice selector {selector!r}")
    return slice_chart(cfg.spec, LinearEmbedding(DomainSpec.polydisk(mat.shape[1]), base, mat))


def cmd_verify_tg(cfg: RunConfig, selector: str, sub_rank: int | None = None) -> Report:
    echo = {"selector": selector}
    if selector == "factor-slice":  # the one selector with a sub-rank, echoed
        echo["sub_rank"] = sub_rank = 1 if sub_rank is None else sub_rank
    elif sub_rank is not None:
        raise ConfigError(f"--sub-rank applies to --slice factor-slice only, not to {selector}")
    chart = _build_chart(cfg, selector, sub_rank)
    pot = HartogsPotential(cfg.spec)

    residuals = []
    for start in range(0, cfg.samples, TG_CHUNK):
        stop = min(start + TG_CHUNK, cfg.samples)
        with _as_config_error():
            qs = chart.sample(cfg.shrink, range(cfg.seed + start, cfg.seed + stop))
        residuals.extend(tg_residual(pot, chart, qs).tolist())
    max_resid, i_resid = _worst(residuals)

    # five confinement geodesics from one stacked sample, tangent to the chart
    rng = np.random.default_rng(cfg.seed)
    basis0 = chart.tangent_basis(np.zeros(chart.n_params))
    with _as_config_error():
        p0s = chart.embed(chart.sample(0.4, range(cfg.seed + 1000, cfg.seed + 1005)))
    coeffs = rng.normal(size=(len(p0s), 2, basis0.shape[1]))
    v0s = (coeffs[:, 0] + 1j * coeffs[:, 1]) @ basis0.T
    gs = _metric_matrix(pot, p0s)
    v0s = [v / np.sqrt(np.real(hermitian_inner(g, v, v)) + 1e-300) * 0.4 for g, v in zip(gs, v0s)]
    with _as_config_error(f"confinement geodesics at mu = {cfg.spec.mu:g}: "):
        traces = geodesic_batch(pot, p0s, v0s, 1.0, tol=1e-9)
    max_dev = max(float(np.max(distance_to_span(tr.positions, basis0))) for tr in traces)
    max_drift = max(tr.energy_drift() for tr in traces)

    tol_tg = cfg.tolerances["tg_residual"]
    tol_conf = cfg.tolerances["confinement"]
    tol_drift = cfg.tolerances["energy_drift"]
    return Report(
        command="verify-tg",
        config=cfg.echo(),
        checks=[
            Check("tg_residual_max", max_resid < tol_tg, max_resid, tol_tg, i_resid),
            Check("geodesic_confinement_max", max_dev < tol_conf, max_dev, tol_conf),
            Check("geodesic_energy_drift", max_drift < tol_drift, max_drift, tol_drift),
        ],
        extra=echo,
    )


def cmd_geodesic(cfg: RunConfig, p0, v0, T: float, trace_path: str | None) -> Report:
    pot = HartogsPotential(cfg.spec)
    # its ValueErrors are the start checks: zero v0, p0 near the boundary, overflow
    with _as_config_error():
        trace = geodesic_ivp(pot, p0, v0, T, tol=1e-10)
    drift = trace.energy_drift()
    if trace_path:
        with open(trace_path, "w", newline="") as fh:
            trace.write_csv(fh)
    tol = cfg.tolerances["energy_drift"]
    accepted = np.diff(trace.times).tolist() or [None]  # null without an accepted step
    extra = {
        "T": T,
        "steps": len(trace.times),
        "final_time": float(trace.times[-1]),
        "trace_csv": trace_path or "",
        "rhs_evals": trace.rhs_evals,
        "sweeps": trace.sweeps,
        "rejected_steps": trace.rejected_steps,
        "domain_retries": trace.domain_retries,
        "h_min": min(accepted),
        "h_max": max(accepted),
    }
    if not np.any(p0):
        # confinement diagnostic for runs from the origin: distance of the
        # trajectory from the complex line through the initial direction
        basis = (v0 / np.linalg.norm(v0)).reshape(-1, 1)
        extra["line_deviation"] = float(np.max(distance_to_span(trace.positions, basis)))
    return Report(
        command="geodesic",
        config=cfg.echo(),
        checks=[Check("energy_drift", drift < tol, drift, tol)],
        extra=extra,
        status=trace.status,
    )


def _scan_directions(r: int) -> list[tuple[str, np.ndarray]]:
    pure_base = np.zeros(r + 1, dtype=np.complex128)
    pure_base[0] = 1.0
    pure_fiber = np.zeros(r + 1, dtype=np.complex128)
    pure_fiber[r] = 1.0
    mixed_equal = np.ones(r + 1, dtype=np.complex128)
    # base moduli 1..r, fiber 2: distinct from mixed_equal even at r = 1
    mixed_unequal = np.array([1.0 + k for k in range(r)] + [2.0], dtype=np.complex128)
    out = [
        ("pure-base", pure_base),
        ("pure-fiber", pure_fiber),
        ("mixed-equal", mixed_equal / np.linalg.norm(mixed_equal)),
        ("mixed-unequal", mixed_unequal / np.linalg.norm(mixed_unequal)),
    ]
    return out


def cmd_linear_scan(cfg: RunConfig, mu_grid, r_grid, T: float = 0.5) -> Report:
    records = []
    for mu in mu_grid:
        for r in r_grid:
            directions = _scan_directions(r)
            deviations = line_deviation(r, mu, np.stack([xi for _, xi in directions]), T)
            for (name, xi), deviation in zip(directions, deviations):
                verdict = line_constraints(r, mu, xi)
                if verdict.klass == GeodesicClass.IMPOSSIBLE:
                    consistent = deviation > SCAN_CURVED_MIN
                else:
                    consistent = deviation < SCAN_LINEAR_MAX
                record = {
                    "mu": mu,
                    "r": r,
                    "direction": name,
                    "xi": [[float(c.real), float(c.imag)] for c in xi],
                    "deviation": float(deviation),
                    "consistent": bool(consistent),
                }
                record.update(verdict.to_json())
                records.append(record)
    bad = sum(1 for rec in records if not rec["consistent"])
    return Report(
        command="linear-scan",
        config=cfg.echo(),
        checks=[Check("verdict_deviation_consistency", bad == 0, float(bad), 0.5)],
        extra={"records": records, "grid": {"mu": list(mu_grid), "r": list(r_grid), "T": T}},
    )


def cmd_embed_residual(cfg: RunConfig, point) -> Report:
    base = cfg.spec.base
    if not base.is_polydisk:
        raise ConfigError("embed-residual requires a polydisk base")
    point = np.asarray(point, dtype=np.complex128)
    try:
        phi = potential(cfg.spec, point)
    except DomainViolation as exc:
        raise ConfigError("point lies outside the configured Hartogs domain") from exc
    trunc = cfg.truncation
    keys = (10, 20, 40, 60)
    # one table sized to the largest truncation answers every smaller one
    size = Truncation(max(*keys, trunc.k_max), max(*keys, trunc.a_max))
    with _as_config_error(f"truncation k_max = {trunc.k_max}, a_max = {trunc.a_max}: "):
        norms = norm_table(base.rank, cfg.spec.mu, point[:-1], point[-1], size)
    table = {k: abs(norms.norm_sq(Truncation(k, k)) - phi) for k in keys}
    resid = abs(norms.norm_sq(trunc) - phi)
    floor = 1e-14
    monotone = all(
        table[b] < table[a] or table[b] < floor for a, b in zip(keys, keys[1:])
    )
    tol = cfg.tolerances["embed"]
    return Report(
        command="embed-residual",
        config=cfg.echo(),
        checks=[
            Check("norm_residual", resid < tol, resid, tol),
            Check("residual_monotone_decrease", monotone, 0.0 if monotone else 1.0, 0.5),
        ],
        extra={
            "point": [[float(c.real), float(c.imag)] for c in point],
            "convergence_table": {str(k): table[k] for k in keys},
        },
    )


# -- output ----------------------------------------------------------------------


def _emit(report: Report, args, wall: float) -> int:
    for c in report.checks:
        print(
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: measured={c.measured:.3e} "
            f"tolerance={c.tolerance:.3e}"
            + ("" if c.passed or c.worst_index is None else f" worst_index={c.worst_index}"),
            file=sys.stderr,
        )
    print(f"wall time: {wall:.2f}s", file=sys.stderr)
    if args.format == "csv":
        lines = ["name,status,measured,tolerance"]
        lines += [
            f"{c.name},{'pass' if c.passed else 'fail'},{c.measured!r},{c.tolerance!r}"
            for c in report.checks
        ]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(report.payload(), sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--shrink", type=float, default=None)
    p.add_argument("--out", help="report destination (stdout when omitted)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    for name in DEFAULT_TOLERANCES:
        p.add_argument(f"--{name.replace('_', '-')}", type=float, default=None, dest=name)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; every `main` call
    parses into a fresh namespace."""
    ap = argparse.ArgumentParser(
        prog="hartogs-geom",
        description="Verification harness for Cartan-Hartogs geometry",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-immersion", help="potential pullback and norm identities")
    _add_common(p)

    p = sub.add_parser("verify-tg", help="totally geodesic slice verification")
    _add_common(p)
    p.add_argument(
        "--slice",
        dest="selector",
        default="polydisk",
        choices=["polydisk", *_POLYDISK_ALIASES, "factor-slice", "diagonal-slice"],
    )
    p.add_argument("--sub-rank", type=int, default=None, help="factor-slice only (default 1)")

    p = sub.add_parser("geodesic", help="integrate one geodesic and dump its trace")
    _add_common(p)
    p.add_argument("--p0", required=True, help="comma-separated complex initial point")
    p.add_argument("--v0", required=True, help="comma-separated complex initial velocity")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--trace-out", default="trace.csv", help="CSV trace destination")

    p = sub.add_parser("linear-scan", help="linear-support direction classification scan")
    _add_common(p)
    p.add_argument("--mu-grid", default="0.5,1,2")
    p.add_argument("--r-grid", default="1,2")
    p.add_argument("--T", type=float, default=0.5)

    p = sub.add_parser("embed-residual", help="sequence-space embedding residual")
    _add_common(p)
    p.add_argument("--point", required=True, help="comma-separated complex point (z..., w)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = _load_config(args)
        for path in (args.out, getattr(args, "trace_out", None)):
            if path:
                _check_writable(path)
        T = getattr(args, "T", 1.0)
        if not (np.isfinite(T) and T > 0):
            raise ConfigError(f"T must be finite and positive, got {T}")
        if args.command == "verify-immersion":
            report = cmd_verify_immersion(cfg)
        elif args.command == "verify-tg":
            report = cmd_verify_tg(cfg, args.selector, args.sub_rank)
        elif args.command == "geodesic":
            n = cfg.spec.n_coords
            p0 = _parse_complex_vector(args.p0, n)
            v0 = _parse_complex_vector(args.v0, n)
            report = cmd_geodesic(cfg, p0, v0, args.T, args.trace_out)
        elif args.command == "linear-scan":
            try:
                # the rule of HartogsSpec, which every scan cell builds
                mu_grid = [_check_mu(float(x)) for x in args.mu_grid.split(",") if x.strip()]
                r_grid = [int(x) for x in args.r_grid.split(",") if x.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad scan grid: {exc}") from exc
            if not mu_grid or not r_grid:
                raise ConfigError("scan grid must be nonempty")
            if any(not 1 <= r <= SCAN_R_MAX for r in r_grid):
                raise ConfigError(f"scan grid r values must lie in 1..{SCAN_R_MAX}")
            report = cmd_linear_scan(cfg, mu_grid, r_grid, args.T)
        elif args.command == "embed-residual":
            point = _parse_complex_vector(args.point, cfg.spec.n_coords)
            report = cmd_embed_residual(cfg, point)
        else:  # pragma: no cover - argparse enforces choices
            raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, IntegrationError) as exc:
        # an integration that cannot finish comes from its inputs (T, v0)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args, time.perf_counter() - t0)


if __name__ == "__main__":
    raise SystemExit(main())
