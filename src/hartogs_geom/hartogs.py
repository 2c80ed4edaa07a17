"""Cartan-Hartogs fibrations: membership, potentials, lifts and slices.

A Cartan-Hartogs domain attaches a disk fiber of radius N^(mu/2) over a
bounded symmetric domain with generic norm N:

    { (z, w) : z in Omega, |w|^2 < N(z, z)^mu },   mu > 0,

carrying the Kaehler potential Phi(z, w) = -log(N^mu - |w|^2).  Points are
stored as single complex vectors with the fiber coordinate last, matching
the trace/CSV layout used throughout the package.

The potentials differentiate in closed form (`derivatives`): the chain rule
runs from the base's log-norm tensors through N^mu = exp(mu log N) and
D = N^mu - |w|^2 to Phi = -log D.  Their jet evaluation (`__call__` on jet
coordinates) is the generic route and the tests' second route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import DomainSpec, LinearEmbedding, _is_jet_coords
from .jets import Jet
from .numerics import Derivatives, DomainViolation

__all__ = [
    "HartogsSpec",
    "HartogsPotential",
    "DomainPotential",
    "h_contains",
    "potential",
    "h_sample",
    "LiftedMap",
    "lift_embedding",
    "PolydiskMobiusLift",
    "lift_automorphism_polydisk",
    "HartogsChart",
    "slice_chart",
    "transported_chart",
]


@dataclass(frozen=True)
class HartogsSpec:
    """Base domain plus fiber exponent mu > 0."""

    base: DomainSpec
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")

    @property
    def n_coords(self) -> int:
        return self.base.dim + 1

    def to_json(self):
        return {"base": self.base.to_json(), "mu": self.mu}

    @classmethod
    def from_json(cls, obj) -> "HartogsSpec":
        return cls(DomainSpec.from_json(obj["base"]), float(obj["mu"]))


def _split(spec: HartogsSpec, p):
    if len(p) != spec.n_coords:
        raise ValueError(f"expected {spec.n_coords} coordinates, got {len(p)}")
    return p[:-1], p[-1]


def fiber_margin(spec: HartogsSpec, p) -> float:
    """N^mu - |w|^2; positive on the domain, crosses zero at the boundary.

    Base points outside the domain give a margin <= 0 even where N > 0 (an
    even number of singular values past 1 leaves N = prod(1 - s^2) positive).
    """
    z, w = _split(spec, p)
    n = float(spec.base._norm(z))
    if not spec.base.contains(z):
        return min(n, 0.0) - abs(w) ** 2
    return n**spec.mu - abs(w) ** 2


def h_contains(spec: HartogsSpec, p, margin: float = 0.0) -> bool:
    """Membership: base membership plus the strict fiber inequality."""
    z, w = _split(spec, p)
    if not spec.base.contains(z, margin):
        return False
    return abs(w) ** 2 < float(spec.base._norm(z)) ** spec.mu - margin


class HartogsPotential:
    """Handle for Phi(z, w) = -log(N^mu - |w|^2) with closed-form derivatives.

    Calling with plain complex coordinates returns a float and raises
    DomainViolation outside the domain (spectral membership of the base);
    calling with a list containing jets returns the jet of Phi.  The fiber
    coordinate is the last entry.
    """

    def __init__(self, spec: HartogsSpec):
        self.spec = spec
        self.n_coords = spec.n_coords

    def __call__(self, coords):
        zs, w = coords[:-1], coords[-1]
        if _is_jet_coords(coords):
            n = self.spec.base._norm(zs)
            nmu = n**self.spec.mu
            ww = (w * (w.conjugate() if isinstance(w, Jet) else np.conj(w)))
            if isinstance(ww, Jet):
                ww = ww.real_jet()
            arg = nmu - ww
            if (arg.value if isinstance(arg, Jet) else arg).real <= 0.0:
                raise DomainViolation("potential argument non-positive (outside domain)")
            return -(arg.log() if isinstance(arg, Jet) else np.log(arg))
        # spectral membership: N alone can be positive outside the base
        if not self.spec.base.contains(zs):
            raise DomainViolation("base point lies outside the domain")
        arg = float(self.spec.base._norm(zs)) ** self.spec.mu - abs(complex(w)) ** 2
        if arg <= 0.0:
            raise DomainViolation("potential argument non-positive (outside domain)")
        return -np.log(arg)

    def value(self, p) -> float:
        return float(self(np.asarray(p, dtype=np.complex128)))

    def derivatives(self, p, x=None, y=None) -> Derivatives:
        """Closed-form derivatives of Phi at p (see `Derivatives`).

        Raises DomainViolation when p lies outside the fibration.
        """
        p = np.asarray(p, dtype=np.complex128)
        z, w = _split(self.spec, p)
        mu = self.spec.mu
        sub = (None, None) if x is None else (x[:-1], y[:-1])
        log_n = self.spec.base.log_norm_derivatives(z, *sub)
        a = np.exp(mu * log_n.value)
        nmu = log_n.compose(a, mu * a, mu**2 * a, mu**3 * a)
        # D = N^mu - |w|^2: D_w = -wbar, D_{w wbar} = -1, no other fiber terms
        d = nmu.value - abs(w) ** 2
        if d <= 0.0:
            raise DomainViolation("potential argument non-positive (outside domain)")
        n = self.n_coords
        grad = np.append(nmu.grad, -np.conj(w))
        levi = np.zeros((n, n), dtype=np.complex128)
        levi[:-1, :-1] = nmu.levi
        levi[-1, -1] = -1.0
        if x is None:
            fiber = Derivatives(d, grad, levi)
        else:
            third = np.zeros((x.shape[1], y.shape[1], n), dtype=np.complex128)
            third[:, :, :-1] = nmu.third
            fiber = Derivatives(d, grad, levi, x, y, nmu.hess, third)
        return fiber.compose(-np.log(d), -1.0 / d, 1.0 / d**2, -2.0 / d**3)

    def interior_margin(self, p) -> float:
        return fiber_margin(self.spec, p)


class DomainPotential:
    """Hyperbolic potential -log N of a bare bounded symmetric domain.

    Useful for metric computations on the base alone (no Hartogs fiber).
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.n_coords = spec.dim

    def __call__(self, coords):
        n = self.spec._norm(coords)
        if isinstance(n, Jet):
            if n.value.real <= 0.0:
                raise DomainViolation("generic norm non-positive (outside domain)")
            return -(n.log())
        n = float(n)
        if n <= 0.0:
            raise DomainViolation("generic norm non-positive (outside domain)")
        return -np.log(n)

    def value(self, p) -> float:
        return float(self(np.asarray(p, dtype=np.complex128)))

    def derivatives(self, p, x=None, y=None) -> Derivatives:
        """Closed-form derivatives of -log N at p (see `Derivatives`)."""
        log_n = self.spec.log_norm_derivatives(p, x, y)
        return log_n.compose(-log_n.value, -1.0, 0.0, 0.0)

    def interior_margin(self, p) -> float:
        return float(self.spec._norm(p))


def potential(spec: HartogsSpec, p) -> float:
    """The Kaehler potential value at an interior point.

    Raises DomainViolation outside the Cartan-Hartogs domain.
    """
    return HartogsPotential(spec).value(p)


def h_sample(spec: HartogsSpec, shrink: float = 0.9, seed: int = 0) -> np.ndarray:
    """Deterministic interior point (z, w) with |w|^2 <= shrink^2 N^mu."""
    rng = np.random.default_rng(seed)
    margin = max(0.0, 1.0 - shrink * shrink)
    z = None
    for _ in range(100_000):
        cand = spec.base._draw(shrink, rng)
        if spec.base.contains(cand, margin):
            z = cand
            break
    if z is None:
        raise RuntimeError("sample rejection budget exhausted")
    nmu = float(spec.base._norm(z)) ** spec.mu
    w = np.sqrt(nmu) * shrink * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
    return np.append(z, w)


# -- lifted maps ---------------------------------------------------------------


@dataclass(frozen=True)
class LiftedMap:
    """A base-domain map lifted to the fibration as (z, w) -> (f(z), c(z) w)."""

    base_map: Callable
    fiber_factor: Callable

    def __call__(self, p):
        z, w = np.asarray(p[:-1], dtype=np.complex128), complex(p[-1])
        return np.append(self.base_map(z), self.fiber_factor(z) * w)


def lift_embedding(emb) -> LiftedMap:
    """Lift of an origin-fixing Kaehler immersion; the fiber rides along."""
    return LiftedMap(base_map=emb, fiber_factor=lambda z: 1.0)


@dataclass(frozen=True)
class PolydiskMobiusLift:
    """Moebius automorphism of the polydisk lifted to its Hartogs fibration.

    Base map: z_j -> e^{i theta_j} (z_j - a_j) / (1 - conj(a_j) z_j).
    Fiber factor: prod_j [ sqrt(1-|a_j|^2) / (1 - conj(a_j) z_j) ]^mu using
    the principal branch (1 - conj(a_j) z_j has positive real part on the
    disk, so the branch is well defined and nonvanishing).
    """

    centers: tuple[complex, ...]
    phases: tuple[float, ...]
    mu: float

    def __post_init__(self):
        if any(abs(a) >= 1.0 for a in self.centers):
            raise ValueError("Moebius centers must lie strictly inside the disk")
        if len(self.centers) != len(self.phases):
            raise ValueError("centers and phases must have equal length")

    @property
    def n(self) -> int:
        return len(self.centers)

    def base_map(self, z: np.ndarray) -> np.ndarray:
        a = np.asarray(self.centers)
        th = np.asarray(self.phases)
        return np.exp(1j * th) * (z - a) / (1.0 - np.conj(a) * z)

    def fiber_factor(self, z: np.ndarray) -> complex:
        a = np.asarray(self.centers)
        h = 0.5 * np.log1p(-np.abs(a) ** 2) - np.log(1.0 - np.conj(a) * z)
        return complex(np.exp(self.mu * np.sum(h)))

    def __call__(self, p) -> np.ndarray:
        z = np.asarray(p[:-1], dtype=np.complex128)
        return np.append(self.base_map(z), self.fiber_factor(z) * complex(p[-1]))

    apply = __call__

    def jacobian(self, p) -> np.ndarray:
        """Holomorphic Jacobian of the lifted map at p (fiber index last)."""
        z = np.asarray(p[:-1], dtype=np.complex128)
        w = complex(p[-1])
        n = self.n
        a = np.asarray(self.centers)
        th = np.asarray(self.phases)
        jac = np.zeros((n + 1, n + 1), dtype=np.complex128)
        denom = 1.0 - np.conj(a) * z
        diag = np.exp(1j * th) * (1.0 - np.abs(a) ** 2) / denom**2
        jac[:n, :n] = np.diag(diag)
        c = self.fiber_factor(z)
        jac[n, :n] = w * c * self.mu * np.conj(a) / denom
        jac[n, n] = c
        return jac

    def inverse(self) -> "PolydiskMobiusLift":
        th = np.asarray(self.phases)
        a = np.asarray(self.centers)
        inv_centers = tuple(-a * np.exp(1j * th))
        return PolydiskMobiusLift(inv_centers, tuple(-th), self.mu)


def lift_automorphism_polydisk(centers, phases, mu: float) -> PolydiskMobiusLift:
    """Lift of the polydisk Moebius automorphism with the given data."""
    return PolydiskMobiusLift(tuple(map(complex, centers)), tuple(map(float, phases)), mu)


# -- totally geodesic slice charts ----------------------------------------------


@dataclass(frozen=True)
class HartogsChart:
    """Chart of a candidate totally geodesic submanifold of a fibration.

    `embed` maps a parameter point (z', w) to an ambient point of the
    fibration; `tangent_basis` returns the ambient tangent vectors of the
    chart at that parameter point, as columns.  The parameter set is the
    pullback {(z', w) : embed(z', w) in M}, so the fiber bound at z' uses
    the ambient norm of the embedded base point (the diagonal disk in the
    2-polydisk, for example, carries the fiber bound (1-|z|^2)^{2 mu}).
    """

    ambient: HartogsSpec
    source: DomainSpec
    embed: Callable
    tangent_basis: Callable

    @property
    def n_params(self) -> int:
        return self.source.dim + 1

    def sample(self, shrink: float = 0.9, seed: int = 0) -> np.ndarray:
        """Deterministic interior parameter point of the chart."""
        rng = np.random.default_rng(seed)
        margin = max(0.0, 1.0 - shrink * shrink)
        zp = None
        for _ in range(100_000):
            cand = self.source._draw(shrink, rng)
            if self.source.contains(cand, margin):
                zp = cand
                break
        if zp is None:
            raise RuntimeError("chart sample rejection budget exhausted")
        img0 = self.embed(np.append(zp, 0.0))
        n = float(self.ambient.base._norm(img0[:-1]))
        # the embedded fiber is linear in w with no offset
        fiber_scale = abs(complex(self.embed(np.append(zp, 1.0))[-1]))
        bound = np.sqrt(n**self.ambient.mu) / fiber_scale
        w = bound * shrink * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        return np.append(zp, w)


def slice_chart(spec: HartogsSpec, emb: LinearEmbedding) -> HartogsChart:
    """The slice {(z, w) : z in emb(source)} of a Hartogs fibration.

    The embedding must fix the origin (linear embeddings do) and map into
    the base of `spec`.
    """
    if emb.target != spec.base:
        raise ValueError("embedding target does not match the Hartogs base")
    d, k = emb.matrix.shape
    basis = np.zeros((d + 1, k + 1), dtype=np.complex128)
    basis[:d, :k] = emb.matrix
    basis[d, k] = 1.0

    def embed(q):
        q = np.asarray(q, dtype=np.complex128)
        return np.append(emb.matrix @ q[:-1], q[-1])

    return HartogsChart(
        ambient=spec,
        source=emb.source,
        embed=embed,
        tangent_basis=lambda q: basis,
    )


def transported_chart(chart: HartogsChart, lift: PolydiskMobiusLift) -> HartogsChart:
    """Push a chart through a lifted automorphism (chain-rule tangents)."""

    def embed(q):
        return lift(chart.embed(q))

    def tangent_basis(q):
        p = chart.embed(q)
        return lift.jacobian(p) @ chart.tangent_basis(q)

    return HartogsChart(chart.ambient, chart.source, embed, tangent_basis)
