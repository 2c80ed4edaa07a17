"""Cartan-Hartogs fibrations: membership, potentials, lifts and slices.

A Cartan-Hartogs domain attaches a disk fiber of radius N^(mu/2) over a
bounded symmetric domain with generic norm N:

    { (z, w) : z in Omega, |w|^2 < N(z, z)^mu },   mu > 0,

carrying the Kaehler potential Phi(z, w) = -log(N^mu - |w|^2).  Points are
stored as single complex vectors with the fiber coordinate last, matching
the trace/CSV layout used throughout the package.

The potentials differentiate in closed form (`derivatives`): the chain rule
runs from the base's tensors of N^mu = exp(mu log N) through
D = N^mu - |w|^2 to Phi = -log D, at one point or over a stack of points.
Plain evaluation (`value`, `potential`) takes the same D from the base's
value-only route, also over a stack.  The jet evaluation (`__call__` on jet
coordinates) is the generic route and the tests' second route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import DomainSpec, LinearEmbedding, _base_rows, _is_jet_coords
from .jets import Jet
from .numerics import Derivatives, DomainViolation, _value

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
    """Base domain plus a finite fiber exponent mu > 0."""

    base: DomainSpec
    mu: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu > 0):
            raise ValueError("mu must be finite and positive")

    @property
    def n_coords(self) -> int:
        return self.base.dim + 1

    def to_json(self):
        return {"base": self.base.to_json(), "mu": self.mu}

    @classmethod
    def from_json(cls, obj) -> "HartogsSpec":
        return cls(DomainSpec.from_json(obj["base"]), float(obj["mu"]))


def _values(coords) -> np.ndarray:
    """The point that plain or jet coordinates are expanded around."""
    return np.array([_value(c) for c in coords], dtype=np.complex128)


def _abs_sq(w):
    """|w|^2 of a plain coordinate, or the real jet w * conj(w)."""
    if isinstance(w, Jet):
        return (w * w.conjugate()).real_jet()
    return abs(complex(w)) ** 2


def _fiber_argument(nmu, w):
    """The fiber argument D = N^mu - |w|^2, over a stack.

    The one expression that decides fiber membership: the closed-form
    derivatives, plain evaluation, `fiber_margin` and `h_contains` all take
    D from here, with N^mu = exp(mu log N) the value of
    `DomainSpec.norm_power_derivatives` (the same float with or without
    `value_only`), so they agree on every point however close to the fiber
    boundary.
    """
    return nmu - np.abs(w) ** 2


def _fiber_argument_in_base(spec: HartogsSpec, z, w) -> np.ndarray:
    """D over a stack whose base rows lie in the base (spectral test).

    A row that the closed form still rejects, within rounding of the base
    boundary where N = 0, gives -|w|^2.
    """
    d = -np.abs(w) ** 2
    todo = np.arange(len(z))
    while todo.size:
        try:
            nmu = spec.base.norm_power_derivatives(z[todo], spec.mu, value_only=True)
        except DomainViolation as exc:
            todo = np.delete(todo, exc.index or 0)
            continue
        d[todo] = _fiber_argument(nmu.value, w[todo])
        break
    return d


def fiber_margin(spec: HartogsSpec, p):
    """N^mu - |w|^2; positive on the domain, crosses zero at the boundary.

    p is a point (n,), giving a float, or a stack (B, n), giving (B,); each
    row gets the float that it gets alone.  A row whose base point fails the
    spectral test of `contains` gives -|w|^2, as does one that the closed
    form rejects, even where N > 0 (an even number of singular values past
    1 leaves N = prod(1 - s^2) positive).
    """
    p = np.asarray(p, dtype=np.complex128)
    ps = p[None] if p.ndim == 1 else p
    if ps.ndim != 2 or ps.shape[1] != spec.n_coords:
        raise ValueError(f"expected {spec.n_coords} coordinates, got shape {p.shape}")
    z, w = ps[:, :-1], ps[:, -1]
    inside = spec.base.contains(z)
    out = -np.abs(w) ** 2
    out[inside] = _fiber_argument_in_base(spec, z[inside], w[inside])
    return float(out[0]) if p.ndim == 1 else out


def h_contains(spec: HartogsSpec, p, margin: float = 0.0) -> bool:
    """Membership: base membership plus the strict fiber inequality D > margin."""
    p = np.asarray(p, dtype=np.complex128)
    if p.shape != (spec.n_coords,):
        raise ValueError(f"expected {spec.n_coords} coordinates, got shape {p.shape}")
    if not spec.base.contains(p[:-1], margin):
        return False
    return bool(_fiber_argument_in_base(spec, p[None, :-1], p[None, -1])[0] > margin)


class HartogsPotential:
    """Handle for Phi(z, w) = -log(N^mu - |w|^2) with closed-form derivatives.

    Calling with plain complex coordinates, a point (n,) or a stack (B, n),
    gives -log D from the value-only route of the base (see
    `_fiber_argument`); calling with a list containing jets returns the jet
    of Phi.  Both raise DomainViolation when a point lies outside the domain
    (a stack names the first offending index).  The fiber coordinate is the
    last entry.
    """

    def __init__(self, spec: HartogsSpec):
        self.spec = spec
        self.n_coords = spec.n_coords

    def __call__(self, coords):
        if not _is_jet_coords(coords):
            p = np.asarray(coords, dtype=np.complex128)
            value = self._stacked(p[None] if p.ndim == 1 else p, value_only=True).value
            return value[0] if p.ndim == 1 else value
        zs, w = coords[:-1], coords[-1]
        # spectral membership: N alone can be positive outside the base
        if not self.spec.base.contains(_values(zs)):
            raise DomainViolation("base point lies outside the domain")
        arg = self.spec.base._norm(zs) ** self.spec.mu - _abs_sq(w)
        if _value(arg).real <= 0.0:
            raise DomainViolation("potential argument non-positive (outside domain)")
        return -np.log(arg)  # Jet.log on jets

    def value(self, p):
        """Phi at a point (a float) or over a stack (B, n) (an array (B,))."""
        out = self(np.asarray(p, dtype=np.complex128))
        return float(out) if np.ndim(out) == 0 else out

    def derivatives(self, p, x=None) -> Derivatives:
        """Closed-form derivatives of Phi at one point or a stack (see `Derivatives`).

        p is (n,) or (B, n); the direction matrix is shared (n, k) or per
        point (B, n, k).  Raises DomainViolation, naming the first offending
        index, when a point lies outside the fibration.
        """
        p = np.asarray(p, dtype=np.complex128)
        out = self._stacked(p[None] if p.ndim == 1 else p, x)
        return out.member(0) if p.ndim == 1 else out

    def _stacked(self, p, x=None, value_only=False) -> Derivatives:
        if p.ndim != 2 or p.shape[1] != self.n_coords:
            raise ValueError(f"expected {self.n_coords} coordinates, got shape {p.shape}")
        z, w = p[:, :-1], p[:, -1]
        mu = self.spec.mu
        xz = _base_rows(x, slice(None, -1))
        try:
            nmu = self.spec.base.norm_power_derivatives(z, mu, xz, value_only)
        except DomainViolation as exc:
            # an earlier point may lie outside the fiber
            if exc.index:
                self._stacked(p[: exc.index], value_only=True)
            raise
        d = _fiber_argument(nmu.value, w)
        bad = d <= 0.0
        if bad.any():
            raise DomainViolation(
                "potential argument non-positive (outside domain)", int(np.argmax(bad))
            )
        if value_only:
            return Derivatives(-np.log(d), None, None)
        # D = N^mu - |w|^2: D_w = -wbar, D_{w wbar} = -1, no other fiber terms
        b, n = p.shape
        grad = np.empty((b, n), dtype=np.complex128)
        grad[:, :-1] = nmu.grad
        grad[:, -1] = -w.conj()
        levi = np.zeros((b, n, n), dtype=np.complex128)
        levi[:, :-1, :-1] = nmu.levi
        levi[:, -1, -1] = -1.0
        if x is None:
            fiber = Derivatives(d, grad, levi)
        else:
            third = np.zeros((*nmu.third.shape[:-1], n), dtype=np.complex128)
            third[..., :-1] = nmu.third
            fiber = Derivatives(d, grad, levi, x, nmu.hess, third)
        return fiber.compose(-np.log(d), -1.0 / d, 1.0 / d**2, -2.0 / d**3)

    def interior_margin(self, p):
        """`fiber_margin`: a float at a point, (B,) over a stack."""
        return fiber_margin(self.spec, p)


class DomainPotential:
    """Hyperbolic potential -log N of a bare bounded symmetric domain.

    Useful for metric computations on the base alone (no Hartogs fiber).
    Plain and jet coordinates raise DomainViolation outside the domain, as
    for `HartogsPotential`.
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.n_coords = spec.dim

    def __call__(self, coords):
        if not self.spec.contains(_values(coords)):
            raise DomainViolation("point lies outside the domain")
        n = self.spec._norm(coords)
        if _value(n).real <= 0.0:
            raise DomainViolation("generic norm non-positive (outside domain)")
        return -np.log(n)  # Jet.log on jets

    def value(self, p) -> float:
        return float(self(np.asarray(p, dtype=np.complex128)))

    def derivatives(self, p, x=None) -> Derivatives:
        """Closed-form derivatives of -log N at one point or a stack (see `Derivatives`)."""
        p = np.asarray(p, dtype=np.complex128)
        log_n = self.spec.log_norm_derivatives(p[None] if p.ndim == 1 else p, x)
        out = log_n.compose(-log_n.value, -1.0, 0.0, 0.0)
        return out.member(0) if p.ndim == 1 else out

    def interior_margin(self, p):
        """N inside the domain; 0.0 on a row that `contains` rejects, even
        where N > 0 (see `fiber_margin`), without evaluating N there.

        p is a point (n,), giving a float, or a stack (B, n), giving (B,).
        """
        p = np.asarray(p, dtype=np.complex128)
        z = p[None] if p.ndim == 1 else p
        inside = self.spec.contains(z)
        out = np.zeros(len(z))
        out[inside] = self.spec._norm(z[inside])
        return float(out[0]) if p.ndim == 1 else out


def potential(spec: HartogsSpec, p):
    """The Kaehler potential at an interior point (a float) or over a stack
    (B, n) (an array (B,)).

    Raises DomainViolation outside the Cartan-Hartogs domain, naming the
    first offending index of a stack.
    """
    return HartogsPotential(spec).value(p)


def h_sample(spec: HartogsSpec, shrink: float = 0.9, seed=0) -> np.ndarray:
    """Deterministic interior point (z, w) with |w|^2 <= shrink^2 N^mu.

    `seed` is one seed, giving a point (n,), or a sequence of seeds, giving
    a stack (B, n) whose row j is the point of seed[j] alone: each member
    draws from its own generator, z first and then the two fiber uniforms.
    """
    single = np.ndim(seed) == 0
    rngs = [np.random.default_rng(s) for s in ([seed] if single else seed)]
    z = spec.base._sample_stack(shrink, rngs)
    p = np.concatenate([z, _draw_fiber(spec, z, 1.0, shrink, rngs)[:, None]], axis=1)
    return p[0] if single else p


def _draw_fiber(spec: HartogsSpec, z, scale, shrink: float, rngs) -> np.ndarray:
    """Fiber coordinates (B,) uniform in the disk |scale w| <= shrink N(z)^(mu/2).

    Each member takes two uniforms from its own generator.  N^mu is the
    value of `norm_power_derivatives`, the one that decides fiber membership
    (see `_fiber_argument`); `scale` is 1 or per member (B,).
    """
    u = np.stack([rng.random(2) for rng in rngs])
    nmu = spec.base.norm_power_derivatives(z, spec.mu, value_only=True).value
    return np.sqrt(nmu) / scale * shrink * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])


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

    def fiber_factor(self, z: np.ndarray):
        """The fiber factor at a base point (a complex) or a stack (B, n) ((B,))."""
        a = np.asarray(self.centers)
        h = 0.5 * np.log1p(-np.abs(a) ** 2) - np.log(1.0 - np.conj(a) * z)
        return np.exp(self.mu * np.sum(h, axis=-1))

    def __call__(self, p) -> np.ndarray:
        """The lifted map at a point (n + 1,) or a stack (B, n + 1)."""
        p = np.asarray(p, dtype=np.complex128)
        ps = p[None] if p.ndim == 1 else p
        z, w = ps[:, :-1], ps[:, -1:]
        out = np.concatenate([self.base_map(z), self.fiber_factor(z)[:, None] * w], axis=1)
        return out[0] if p.ndim == 1 else out

    def jacobian(self, p) -> np.ndarray:
        """Holomorphic Jacobian of the lifted map at p (fiber index last).

        p is a point (n + 1,), giving (n + 1, n + 1), or a stack (B, n + 1),
        giving (B, n + 1, n + 1).
        """
        p = np.asarray(p, dtype=np.complex128)
        ps = p[None] if p.ndim == 1 else p
        z, w = ps[:, :-1], ps[:, -1]
        n = self.n
        a = np.asarray(self.centers)
        th = np.asarray(self.phases)
        jac = np.zeros((len(ps), n + 1, n + 1), dtype=np.complex128)
        denom = 1.0 - np.conj(a) * z
        diag = np.arange(n)
        jac[:, diag, diag] = np.exp(1j * th) * (1.0 - np.abs(a) ** 2) / denom**2
        c = self.fiber_factor(z)
        jac[:, n, :n] = (w * c)[:, None] * self.mu * np.conj(a) / denom
        jac[:, n, n] = c
        return jac[0] if p.ndim == 1 else jac

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
    chart at that parameter point, as columns.  Both take a point (k,),
    giving (n,) and (n, m), or a stack (B, k), giving (B, n) and (B, n, m),
    and give every row the floats it gets alone.  The parameter set is the
    pullback {(z', w) : embed(z', w) in M}, so the fiber bound at z' uses
    the ambient norm of the embedded base point (the diagonal disk in the
    2-polydisk, for example, carries the fiber bound (1-|z|^2)^{2 mu}).
    The embedded base point does not depend on w, and the embedded fiber
    coordinate is linear in w with no offset.
    """

    ambient: HartogsSpec
    source: DomainSpec
    embed: Callable
    tangent_basis: Callable

    @property
    def n_params(self) -> int:
        return self.source.dim + 1

    def sample(self, shrink: float = 0.9, seed=0) -> np.ndarray:
        """Deterministic interior parameter point of the chart.

        `seed` is one seed, giving a point (k,), or a sequence of seeds,
        giving a stack (B, k) whose row j is the point of seed[j] alone:
        each member draws z' from its own generator and then its two fiber
        uniforms, as in `h_sample`.
        """
        single = np.ndim(seed) == 0
        rngs = [np.random.default_rng(s) for s in ([seed] if single else seed)]
        zp = self.source._sample_stack(shrink, rngs)
        # at w = 1 the embedded fiber coordinate is the fiber scale
        img = self.embed(np.concatenate([zp, np.ones((len(zp), 1))], axis=1))
        w = _draw_fiber(self.ambient, img[:, :-1], np.abs(img[:, -1]), shrink, rngs)
        q = np.concatenate([zp, w[:, None]], axis=1)
        return q[0] if single else q


def slice_chart(spec: HartogsSpec, emb: LinearEmbedding) -> HartogsChart:
    """The slice {(z, w) : z in emb(source)} of a Hartogs fibration.

    The embedding must fix the origin (linear embeddings do) and map into
    the base of `spec`.  A stack of parameter points is embedded with one
    matrix product, and shares one tangent basis.
    """
    if emb.target != spec.base:
        raise ValueError("embedding target does not match the Hartogs base")
    d, k = emb.matrix.shape
    basis = np.zeros((d + 1, k + 1), dtype=np.complex128)
    basis[:d, :k] = emb.matrix
    basis[d, k] = 1.0

    def embed(q):
        q = np.asarray(q, dtype=np.complex128)
        return np.concatenate([emb(q[..., :-1]), q[..., -1:]], axis=-1)

    return HartogsChart(
        ambient=spec,
        source=emb.source,
        embed=embed,
        tangent_basis=lambda q: np.broadcast_to(basis, (*np.shape(q)[:-1], *basis.shape)),
    )


def transported_chart(chart: HartogsChart, lift: PolydiskMobiusLift) -> HartogsChart:
    """Push a chart through a lifted automorphism (chain-rule tangents)."""

    def embed(q):
        return lift(chart.embed(q))

    def tangent_basis(q):
        return lift.jacobian(chart.embed(q)) @ chart.tangent_basis(q)

    return HartogsChart(chart.ambient, chart.source, embed, tangent_basis)
