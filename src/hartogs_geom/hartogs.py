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
value-only route, also over a stack.  With N^mu = 0 off the base, the one
inequality D > 0 decides membership (`HartogsPotential._argument`), on jet
coordinates (the generic route, and the tests' second route) too.
`DomainPotential` is the same potential without the fiber.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .domains import DomainSpec, LinearEmbedding, _base_rows, _is_jet_coords
from .jets import Jet
from .numerics import Derivatives, DomainViolation, _directions, _stack, _value

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


# `norm_power_derivatives` forms mu**3, which overflows a float above ~5.6e102
_MU_MAX = 1e102


def _check_mu(mu) -> float:
    """mu as a float, or ValueError unless it is a number in (0, _MU_MAX]."""
    if isinstance(mu, bool) or not isinstance(mu, numbers.Real) or not 0.0 < mu <= _MU_MAX:
        raise ValueError(f"mu must be a number in (0, {_MU_MAX:g}], got {mu!r}")
    return float(mu)


@dataclass(frozen=True)
class HartogsSpec:
    """Base domain plus a finite fiber exponent mu > 0."""

    base: DomainSpec
    mu: float

    def __post_init__(self):
        # a JSON report echoes mu as a float
        object.__setattr__(self, "mu", _check_mu(self.mu))

    @property
    def n_coords(self) -> int:
        return self.base.dim + 1

    def to_json(self):
        return {"base": self.base.to_json(), "mu": self.mu}

    @classmethod
    def from_json(cls, obj) -> "HartogsSpec":
        return cls(DomainSpec.from_json(obj["base"]), obj["mu"])


def _abs_sq(w):
    """|w|^2 of a plain coordinate, or the real jet w * conj(w)."""
    if isinstance(w, Jet):
        return (w * w.conjugate()).real_jet()
    return abs(complex(w)) ** 2


def h_contains(spec: HartogsSpec, p, margin: float = 0.0) -> bool:
    """Membership with a margin: the spectral base test of `contains` and the
    fiber inequality D > margin, D the `interior_margin` of `HartogsPotential`."""
    p = np.asarray(p, dtype=np.complex128)
    if p.shape != (spec.n_coords,):
        raise ValueError(f"expected {spec.n_coords} coordinates, got shape {p.shape}")
    return spec.base.contains(p[:-1], margin) and HartogsPotential(spec).interior_margin(p) > margin


class HartogsPotential:
    """Handle for Phi(z, w) = -log(N^mu - |w|^2) with closed-form derivatives.

    Calling with plain complex coordinates, a point (n,) or a stack (B, n),
    gives -log D from the value-only route of the base; calling with a list
    containing jets returns the jet of Phi.  Both raise DomainViolation when
    a point lies outside the domain (a stack names the first offending
    index), by the one test D > 0 of `_stacked` on the closed-form D of
    `_argument`.  The jet of D comes from `_jet_argument`.  The fiber
    coordinate is the last entry.
    """

    def __init__(self, spec: HartogsSpec):
        self.spec = spec
        self.n_coords = spec.n_coords

    def _argument(self, p, x=None) -> Derivatives:
        """D = N^mu - |w|^2 over a stack (B, n), the sum of a base block and a
        fiber block: the value alone for x None, else every tensor.
        N^mu = exp(mu log N) is the value of `norm_power_derivatives` (the
        same float with or without directions), 0 off the base, so D > 0
        exactly on the domain as the closed form sees it, on every route.
        The domain has |w| < 1 (N <= 1), so |w| is capped at 2 before it is
        squared: a huge or infinite w gives D < 0 without an overflow.
        """
        z, w = p[:, :-1], p[:, -1]
        xz = _base_rows(x, slice(None, -1))
        nmu = self.spec.base.norm_power_derivatives(z, self.spec.mu, xz, value_only=x is None)
        fiber = Derivatives(-np.minimum(np.abs(w), 2.0) ** 2, None, None)
        if x is not None:
            # D_w = -wbar, D_{w wbar} = -1, no other fiber terms
            b, k = len(p), x.shape[-1]
            zero = np.zeros((b, k, k), dtype=np.complex128)
            grad, levi = -w.conj()[:, None], np.full((b, 1, 1), -1.0 + 0j)
            fiber = Derivatives(fiber.value, grad, levi, x[..., -1:, :], zero, zero[..., None])
        return Derivatives.block_sum([nmu, fiber])

    def _jet_argument(self, coords):
        """The jet of D = N^mu - |w|^2, N from the determinant route."""
        return self.spec.base._norm(coords[:-1]) ** self.spec.mu - _abs_sq(coords[-1])

    def __call__(self, coords):
        if _is_jet_coords(coords):
            # the closed form decides membership at the value parts
            self._stacked([_value(c) for c in coords])
            return -np.log(self._jet_argument(coords))  # Jet.log
        return self._stacked(coords).value

    def value(self, p):
        """Phi at a point (a float) or over a stack (B, n) (an array (B,))."""
        return self(np.asarray(p, dtype=np.complex128))

    def derivatives(self, p, x=None) -> Derivatives:
        """Closed-form derivatives of Phi at one point or a stack (see `Derivatives`).

        p is (n,) or (B, n); the direction matrix is shared (n, k) or per
        point (B, n, k); without it hess and third are empty (k = 0).  Raises
        DomainViolation, naming the first offending index, when a point lies
        outside the domain.
        """
        return self._stacked(p, _directions(x, self.n_coords))

    def interior_margin(self, p):
        """D of `_argument`: a float at a point, (B,) over a stack, each row the
        float it gets alone; positive exactly on the domain.  A row outside the
        base gives -|w|^2 (|w| capped at 2), even where N > 0."""
        ps, single = _stack(p, self.n_coords)
        d = self._argument(ps).value
        return float(d[0]) if single else d

    def _stacked(self, p, x=None) -> Derivatives:
        """Phi = -log D at a point (n,) or over a stack (B, n), after the one
        membership test D > 0; x None gives the value alone."""
        ps, single = _stack(p, self.n_coords)
        arg = self._argument(ps, x)
        d = arg.value
        # D <= 0 off the base and off the fiber; ~(d > 0) rejects NaN too
        outside = ~(d > 0.0)
        if outside.any():
            raise DomainViolation("point lies outside the domain", int(np.argmax(outside)))
        if x is None:  # the value alone: no chain-rule factors to form
            out = Derivatives(-np.log(d), None, None)
        else:
            out = arg.compose(-np.log(d), -1.0 / d, 1.0 / d**2, -2.0 / d**3)
        return out.member(0) if single else out


class DomainPotential(HartogsPotential):
    """Hyperbolic potential -log N of a bare bounded symmetric domain.

    `HartogsPotential` without the fiber: D = N from `norm_power_derivatives`
    at mu = 1 (0 off the base), so every route, membership and the margin N
    are the Hartogs potential's.  For metric computations on the base alone.
    """

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        self.n_coords = spec.dim

    def _argument(self, z, x=None) -> Derivatives:
        return self.spec.norm_power_derivatives(z, 1.0, x, value_only=x is None)

    def _jet_argument(self, coords):
        return self.spec._norm(coords)


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
    The generators come from one stacked hash of the seeds that equals
    NumPy's SeedSequence bit for bit (see `_seed_generators`), so seed s
    draws the stream of `np.random.default_rng(s)`.
    Raises ValueError, naming mu and the seed, when N^mu underflows to 0,
    and for a negative seed.
    """
    return _sample_slice(spec, spec.base, lambda q: q, shrink, seed)


def _sample_slice(spec: HartogsSpec, source: DomainSpec, embed, shrink: float, seed):
    """The body of `h_sample` (the identity slice) and `HartogsChart.sample`:
    z' in `source`, then the fiber, from each seed's own generator, all
    seeded at once by `_seed_generators`."""
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    rngs = _seed_generators(seeds)
    zp = source._sample_stack(shrink, rngs)
    # at w = 1 the embedded fiber coordinate is the fiber scale
    img = embed(np.concatenate([zp, np.ones((len(zp), 1))], axis=1))
    w = _draw_fiber(spec, img[:, :-1], np.abs(img[:, -1]), shrink, rngs, seeds)
    q = np.concatenate([zp, w[:, None]], axis=1)
    return q[0] if single else q


def _draw_fiber(spec: HartogsSpec, z, scale, shrink: float, rngs, seeds) -> np.ndarray:
    """Fiber coordinates (B,) uniform in the disk |scale w| <= shrink N(z)^(mu/2).

    Each member takes two uniforms from its own generator.  N^mu is the
    value of `norm_power_derivatives`, the one that decides fiber membership
    (see `HartogsPotential._argument`); `scale` is per member (B,).
    Raises ValueError naming the seed of the first row with N^mu = 0, an
    empty fiber: its base point lies outside the base (log N = -inf), or mu
    is too large.  `--seed <that seed> --samples 1` draws the point again.
    """
    u = np.stack([rng.random(2) for rng in rngs])
    nmu = spec.base.norm_power_derivatives(z, spec.mu, value_only=True).value
    if not nmu.all():
        j = int(np.argmin(nmu))
        at = f"sampled base point of seed {seeds[j]}"
        if np.isneginf(spec.base._log_norm(z[j : j + 1], None).value[0]):
            raise ValueError(f"{at} lies outside the base")
        raise ValueError(f"mu = {spec.mu:g} is too large: N^mu is 0 at the {at}")
    return np.sqrt(nmu) / scale * shrink * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])


# -- seeding ---------------------------------------------------------------------

# NumPy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words; hashmix call k xors its word with the k-th multiplier of a
# chain and multiplies it by the next one, whatever the words are
_POOL = 4
_MASK32 = 0xFFFFFFFF
_MULT_A = 0x931E8875
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _chain(init: int, mult: int, count: int) -> list:
    """The multipliers init * mult^k mod 2^32, k = 0 .. count."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _column(words) -> np.ndarray:
    return np.array(words, dtype=np.uint32)[:, None]


_A = _chain(0x43B0D7E5, _MULT_A, 4 + 3 * _POOL + 1)
# (xor, mul) columns of the calls that fill the pool (calls 0-3), of mixing
# round s (calls 4 + 3s .. 6 + 3s on the words d != s in order; word s
# takes a dummy call and is put back) and of generate_state (8 words)
_FILL = (_column(_A[0:4]), _column(_A[1:5]))
_ROUNDS = [
    (_column([_A[k] for k in calls]), _column([_A[k + 1] for k in calls]))
    for calls in ([4 + 3 * s + d - (d > s) for d in range(_POOL)] for s in range(_POOL))
]
_B = _chain(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_GENERATE = (_column(_B[:-1]), _column(_B[1:]))


def _hashmix(v, xor, mul):
    """SeedSequence's hashmix of uint32 words `v`, a new array of the
    broadcast shape of `v` and the constant columns."""
    v = v ^ xor
    v *= mul
    v ^= v >> _XSHIFT
    return v


def _mix_into(pool, h):
    """SeedSequence's mix(pool, h), written into `pool` (`h` is spent)."""
    h *= _MIX_R
    pool *= _MIX_L
    pool -= h
    pool ^= pool >> _XSHIFT


@cache
def _seeded_pcg64():
    """words -> Generator(PCG64) seeded by those state words; the first call
    imports numpy.random, which no command needs until it samples."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """A seed sequence that hands PCG64 its precomputed state."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise NotImplementedError("only PCG64's state, 4 uint64 words, is held")
            return self.words

    return lambda words: Generator(PCG64(StateWords(words)))


def _seed_generators(seeds) -> list:
    """One generator per seed, each drawing the stream of np.random.default_rng(s).

    NumPy's SeedSequence hash runs once over the whole stack, as uint32
    arithmetic on a (4, B) pool: each seed's little-endian 32-bit words,
    zero-padded to four, fill the pool through hashmix, four rounds mix
    every word into the others, and words past the fourth are mixed in by
    further rounds in the rows whose seed has them.  The pool's
    generate_state(4, uint64) seeds a PCG64 per row.  A negative seed raises
    ValueError and a non-integer TypeError, as default_rng does.
    """
    ints = [operator.index(s) for s in seeds]
    if min(ints, default=0) < 0:
        raise ValueError(f"expected non-negative integer seeds, got {min(ints)}")
    width = max(_POOL, -(-max(ints, default=0).bit_length() // 32))
    entropy = np.frombuffer(b"".join([s.to_bytes(4 * width, "little") for s in ints]), "<u4")
    entropy = entropy.reshape(len(ints), width).T.astype(np.uint32, order="C")
    pool = _hashmix(entropy[:_POOL], *_FILL)
    for s, (xor, mul) in enumerate(_ROUNDS):
        src = pool[s].copy()
        _mix_into(pool, _hashmix(src, xor, mul))
        pool[s] = src
    mult = _A[4 + 3 * _POOL]  # the multiplier of the first call past the rounds
    for i in range(_POOL, width):
        # word i, hashed once per pool word, in the rows that have it
        consts = _chain(mult, _MULT_A, _POOL)
        mult = consts[-1]
        mixed = pool.copy()
        _mix_into(mixed, _hashmix(entropy[i], _column(consts[:-1]), _column(consts[1:])))
        pool = np.where(entropy[i:].any(axis=0), mixed, pool)
    state = _hashmix(np.concatenate([pool, pool]), *_GENERATE)
    # little-endian word pairs, as generate_state pairs them; PCG64 reads a
    # row through its data pointer, so the rows must be C-contiguous
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    make = _seeded_pcg64()
    return [make(row) for row in words]


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
        ps, single = _stack(p, self.n + 1)
        z, w = ps[:, :-1], ps[:, -1:]
        out = np.concatenate([self.base_map(z), self.fiber_factor(z)[:, None] * w], axis=1)
        return out[0] if single else out

    def jacobian(self, p) -> np.ndarray:
        """Holomorphic Jacobian of the lifted map at p (fiber index last).

        p is a point (n + 1,), giving (n + 1, n + 1), or a stack (B, n + 1),
        giving (B, n + 1, n + 1).
        """
        ps, single = _stack(p, self.n + 1)
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
        return jac[0] if single else jac

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
        uniforms, as in `h_sample` (a too large mu raises ValueError as there).
        The generators come from the one stacked hash of `_seed_generators`,
        which equals NumPy's SeedSequence bit for bit.
        """
        return _sample_slice(self.ambient, self.source, self.embed, shrink, seed)


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
