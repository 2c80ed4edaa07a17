"""Seeded report batches for the three benchmark workloads.

A workload is a list of CLI reports that make up one pass.  Every input the
CLI receives (config seeds, geodesic start points and velocities, embedding
residual points) is drawn from the benchmark seed, so one seed always gives
the same reports and therefore the same report bytes.

Pass sizes are chosen so that one pass takes 4 to 9 seconds on a 2-CPU
machine (about 15 for tg-slices), which leaves at least two passes inside
one timed run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

I23 = {"kind": "I", "params": [2, 3]}
III3 = {"kind": "III", "params": [3]}
IV6 = {"kind": "IV", "params": [6]}
II4 = {"kind": "II", "params": [4]}
II6 = {"kind": "II", "params": [6]}
I34 = {"kind": "I", "params": [3, 4]}
IV7 = {"kind": "IV", "params": [7]}
I12_III2 = {
    "kind": "product",
    "params": [{"kind": "I", "params": [1, 2]}, {"kind": "III", "params": [2]}],
}


def _polydisk(r: int) -> dict:
    disk = {"kind": "I", "params": [1, 1]}
    return {"kind": "product", "params": [disk] * r} if r > 1 else disk


POLYDISK3 = _polydisk(3)

# Geodesic start points sit at this Euclidean radius in the base and at this
# fraction of the fiber radius N(z)^(mu/2); velocities have this Euclidean
# length.  Every base type here contains the ball of radius 1/sqrt(2) in its
# coordinates, so these points are well inside each domain.
#
# Each geodesic report starts from a fixed reference point and velocity moved
# by a seeded diagonal phase rotation, which is an isometry of the domain that
# keeps every coordinate's modulus.  The inputs (and report bytes) change with
# the seed, but the integrator takes the same steps, so the work per pass
# does not depend on the seed.
GEODESIC_RADIUS = 0.3
GEODESIC_SPEED = 0.5
# Embedding-residual points: |z_j| and |w| / N^(mu/2) on the 3-polydisk.
EMBED_RADIUS = 0.5
EMBED_MU = 1.5
EMBED_TRUNCATION = 60


@dataclass
class Report:
    """One CLI invocation: argv (without --config), its config and work units.

    `families` tags the throughput families the report counts toward and
    `units` is its amount of work in each family's unit (samples, cells, ...).
    """

    name: str
    argv: list[str]
    config: dict
    families: tuple[str, ...]
    units: float
    trace_csv: str | None = None
    scan_cells: int = 0  # linear-scan: the number of records the report must hold


@dataclass
class Workload:
    name: str
    reports: list[Report]
    primary: str
    secondary: str
    # (base, mu, jet order) triples that warm-up evaluates once
    warm: list[tuple[dict, float, int]]
    embed_truncations: tuple[int, ...] = ()


def _vec(v) -> str:
    return ",".join(f"{c.real:.17g}{c.imag:+.17g}j" for c in np.asarray(v, dtype=complex))


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    return u / np.linalg.norm(u)


def _config_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _base_dim(base: dict) -> int:
    kind, params = base["kind"], base["params"]
    if kind == "product":
        return sum(_base_dim(p) for p in params)
    if kind == "I":
        return params[0] * params[1]
    if kind == "II":
        return params[0] * (params[0] - 1) // 2
    if kind == "III":
        return params[0] * (params[0] + 1) // 2
    return params[0]


def _norm_matrix(base: dict, z: np.ndarray) -> float:
    kind, params = base["kind"], base["params"]
    if kind == "IV":
        return float(1 + abs(np.sum(z * z)) ** 2 - 2 * np.sum(abs(z) ** 2))
    if kind == "I":
        m = z.reshape(params)
    else:
        n = params[0]
        m = np.zeros((n, n), dtype=complex)
        strict = kind == "II"
        k = 0
        for j in range(n):
            for i in range(j + 1 if strict else j, n):
                m[j, i] = z[k]
                m[i, j] = -z[k] if strict else z[k]
                k += 1
    d = float(np.real(np.linalg.det(np.eye(m.shape[0]) - m @ m.conj().T)))
    return d**0.5 if kind == "II" else d


def _phases(base: dict, rng: np.random.Generator) -> np.ndarray:
    """Per-coordinate angles of a diagonal isometry of the base, fiber last.

    Type I: Z -> D1 Z D2; types II and III: Z -> D Z D (D, D1, D2 diagonal
    unitaries); type IV: a common phase.  The fiber takes its own phase.
    """
    kind, params = base["kind"], base["params"]
    if kind == "I":
        a, b = rng.random(params[0]), rng.random(params[1])
        ang = (a[:, None] + b[None, :]).ravel()
    elif kind in ("II", "III"):
        n = params[0]
        a = rng.random(n)
        first = 1 if kind == "II" else 0
        ang = np.array([a[j] + a[k] for j in range(n) for k in range(j + first, n)])
    else:
        ang = np.full(params[0], rng.random())
    return 2 * np.pi * np.append(ang, rng.random())


def _geodesic(rng, index, name, base, mu, T, from_origin, tiny) -> Report:
    dim = _base_dim(base)
    ref = np.random.default_rng([0, index])  # the reference start, same for every seed
    if from_origin:
        p0 = np.zeros(dim + 1, dtype=complex)
    else:
        z = GEODESIC_RADIUS * _unit(ref, dim)
        fiber = np.sqrt(_norm_matrix(base, z) ** mu)
        w = GEODESIC_RADIUS * fiber * np.exp(2j * np.pi * ref.random())
        p0 = np.append(z, w)
    v0 = GEODESIC_SPEED * _unit(ref, dim + 1)
    rot = np.exp(1j * _phases(base, rng))
    p0, v0 = rot * p0, rot * v0
    if tiny:
        T = 0.1
    csv = f"{name}.csv"
    return Report(
        name=name,
        argv=["geodesic", f"--p0={_vec(p0)}", f"--v0={_vec(v0)}", "--T", repr(T),
              "--trace-out", csv],
        config={"spec": {"base": base, "mu": mu}, "seed": _config_seed(rng)},
        families=("geodesic",),
        units=1.0,
        trace_csv=csv,
    )


def tg_slices(seed: int, tiny: bool = False) -> Workload:
    """verify-tg --slice polydisk on four bases covering three determinant paths."""
    rng = np.random.default_rng([seed, 1])
    # Every report also runs five serial confinement geodesics; these sample
    # counts keep the pooled tg_residual calls at about 70 % of the pass time.
    bases = [  # (name, base, mu, samples, goes through generic LU on jets)
        ("tg-I23", I23, 1.5, 200, False),
        ("tg-III3", III3, 2.0, 80, True),
        ("tg-IV6", IV6, 1.1, 200, False),
        ("tg-II4", II4, 0.7, 60, True),
    ]
    reports = []
    for name, base, mu, samples, lu in bases:
        samples = 2 if tiny else samples
        reports.append(
            Report(
                name=name,
                argv=["verify-tg", "--slice", "polydisk"],
                config={
                    "spec": {"base": base, "mu": mu},
                    "seed": _config_seed(rng),
                    "samples": samples,
                    "shrink": 0.7,
                },
                families=("verify_tg", "verify_tg_lu") if lu else ("verify_tg",),
                units=float(samples),
            )
        )
    warm = [(b, mu, 3) for _, b, mu, _, _ in bases]
    return Workload("tg-slices", reports, "verify_tg", "verify_tg_lu", warm)


def geodesics(seed: int, tiny: bool = False) -> Workload:
    """Four geodesic traces plus the linear-support scan."""
    rng = np.random.default_rng([seed, 2])
    reports = [
        _geodesic(rng, 0, "geo-II6", II6, 0.7, 1.0, True, tiny),
        _geodesic(rng, 1, "geo-I23", I23, 1.5, 2.0, False, tiny),
        _geodesic(rng, 2, "geo-III3", III3, 2.0, 2.0, False, tiny),
        _geodesic(rng, 3, "geo-IV6", IV6, 1.1, 2.0, False, tiny),
    ]
    mu_grid, r_grid = ([1.0], [1]) if tiny else ([0.5, 2.0], [1, 2, 3])
    cells = len(mu_grid) * len(r_grid) * 4  # four scan directions per (mu, r)
    reports.append(
        Report(
            name="linear-scan",
            argv=["linear-scan", "--mu-grid", ",".join(map(repr, mu_grid)),
                  "--r-grid", ",".join(map(str, r_grid))],
            config={"seed": _config_seed(rng)},
            families=("linear_scan",),
            units=float(cells),
            scan_cells=cells,
        )
    )
    warm = [(II6, 0.7, 2), (I23, 1.5, 2), (III3, 2.0, 2), (IV6, 1.1, 2)]
    warm += [(_polydisk(r), mu_grid[0], 2) for r in r_grid]
    return Workload("geodesics", reports, "geodesic", "linear_scan", warm)


def numeric_l2(seed: int, tiny: bool = False) -> Workload:
    """verify-immersion on five bases plus embed-residual on the 3-polydisk."""
    rng = np.random.default_rng([seed, 3])
    bases = [
        ("imm-I34", I34, 1.0, 800),
        ("imm-II6", II6, 0.7, 400),
        ("imm-III3", III3, 2.0, 400),
        ("imm-IV7", IV7, 1.1, 400),
        ("imm-I12xIII2", I12_III2, 1.5, 400),
    ]
    reports = []
    for name, base, mu, samples in bases:
        samples = 20 if tiny else samples
        reports.append(
            Report(
                name=name,
                argv=["verify-immersion"],
                config={
                    "spec": {"base": base, "mu": mu},
                    "seed": _config_seed(rng),
                    "samples": samples,
                    "shrink": 0.7,
                },
                families=("verify_immersion",),
                units=float(samples),
            )
        )
    for i in range(1 if tiny else 10):
        z = EMBED_RADIUS * np.exp(2j * np.pi * rng.random(3))
        fiber = np.sqrt(np.prod(1 - abs(z) ** 2) ** EMBED_MU)
        w = EMBED_RADIUS * fiber * np.exp(2j * np.pi * rng.random())
        reports.append(
            Report(
                name=f"embed-{i}",
                argv=["embed-residual", f"--point={_vec(np.append(z, w))}"],
                config={
                    "spec": {"base": POLYDISK3, "mu": EMBED_MU},
                    "seed": _config_seed(rng),
                    "truncation": {"k_max": EMBED_TRUNCATION, "a_max": EMBED_TRUNCATION},
                },
                families=("embed_residual",),
                units=1.0,
            )
        )
    warm = [(b, mu, 0) for _, b, mu, _ in bases]
    return Workload(
        "numeric-l2", reports, "verify_immersion", "embed_residual", warm,
        embed_truncations=(10, 20, 40, EMBED_TRUNCATION),
    )


WORKLOADS = {"tg-slices": tg_slices, "geodesics": geodesics, "numeric-l2": numeric_l2}


def warm_up(workload: Workload) -> None:
    """Fill the program's lazy caches for the shapes this workload uses.

    Evaluates each potential once at the jet orders the workload needs
    (building the JetSpace multiplication tables) and the l^2 embedding once
    per truncation.  Imports the program lazily so that a fresh process can
    time the import together with this call.
    """
    from hartogs_geom.hartogs import HartogsPotential, HartogsSpec, h_sample
    from hartogs_geom.l2embed import Truncation, norm_residual
    from hartogs_geom.metric import _directional_mixed, _directional_second, _metric_matrix

    for base, mu, order in workload.warm:
        spec = HartogsSpec.from_json({"base": base, "mu": mu})
        p = h_sample(spec, 0.5, 0)
        if order >= 2:
            pot = HartogsPotential(spec)
            e = np.eye(spec.n_coords, dtype=complex)
            _metric_matrix(pot, p)
            _directional_second(pot, p, e[0])
            if order >= 3:
                _directional_mixed(pot, p, e[0], e[-1])
    point = np.array([0.1, 0.1j, -0.1, 0.05])
    for k in workload.embed_truncations:
        norm_residual(3, EMBED_MU, point, Truncation(k, k))
