"""Offspring laws for branching processes.

An offspring law wraps an integer-supported :class:`DiscreteMeasure` together
with its mean and, for truncated families, an analytic bound on the first
moment carried by the discarded tail.  On top of it live the generating
function, the extinction probability solver, and the two conditional
transforms (conditioning the whole process on survival or on extinction).

``scipy.special`` is imported inside the three functions that call it, so
that importing the package (and every ``gw`` command) does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Sequence

import numpy as np

from . import measures
from .errors import (
    InvalidParameter,
    SolverDidNotConverge,
    SupercriticalRequired,
    json_field,
    json_int,
)
from .measures import DiscreteMeasure

__all__ = [
    "FamilySpec",
    "OffspringLaw",
    "TailBound",
    "ExtinctionResult",
    "build",
    "pgf",
    "pgf_derivative",
    "criticality",
    "extinction_probability",
    "iterate_pgf_at_zero",
    "survival_transform",
    "extinction_transform",
    "psi1_tail",
]

DEFAULT_TAIL_BUDGET = 1e-12

# Mean within this distance of 1 cannot be classified reliably in floats.
CRITICAL_DEAD_ZONE = 1e-9

# Refuse to materialize truncated families beyond this many atoms.
MAX_DERIVED_TRUNCATION = 2_000_000

# Each family's parameters, as ``FamilySpec`` fields, and its label format.
# A parameter's CLI flag and JSON key carry its field name, except that
# ``lam`` is ``"lambda"`` in JSON.  ``truncation`` applies to the families
# in ``TRUNCATED`` only; ``raw`` labels show their largest count, ``top``.
FAMILIES = {
    "binary": (("p",), "binary(p={p:g})"),
    "three_point": (("p0", "p2", "p3"), "three_point({p0:g},{p2:g},{p3:g})"),
    "poisson": (("lam",), "poisson(lam={lam:g})"),
    "polynomial": (("p",), "polynomial(p={p:g})"),
    "raw": (("weights",), "raw(top={top})"),
}
TRUNCATED = ("poisson", "polynomial")
JSON_NAMES = {"lam": "lambda"}


@dataclass(frozen=True)
class FamilySpec:
    """Parametric description of an offspring law.

    Exactly one of the five families; unused parameters stay ``None``.
    ``truncation`` fixes the largest retained offspring count for the two
    infinite families, and only for them; when omitted it is derived from
    the build budget.
    """

    family: str
    p: float | None = None
    p0: float | None = None
    p2: float | None = None
    p3: float | None = None
    lam: float | None = None
    truncation: int | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown family {self.family!r}")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        params = (self.p, self.p0, self.p2, self.p3, self.lam, *(self.weights or ()))
        if not all(math.isfinite(v) for v in params if v is not None):
            raise InvalidParameter(f"{self.family} family parameters must be finite")
        if self.family == "binary":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise InvalidParameter("binary family needs p in [0, 1]")
        elif self.family == "three_point":
            probs = (self.p0, self.p2, self.p3)
            if any(q is None or q < 0.0 for q in probs):
                raise InvalidParameter("three_point family needs p0, p2, p3 >= 0")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise InvalidParameter("three_point probabilities must sum to 1")
        elif self.family == "poisson":
            if self.lam is None or self.lam <= 0.0:
                raise InvalidParameter("poisson family needs lam > 0")
        elif self.family == "polynomial":
            if self.p is None or self.p <= 2.0:
                raise InvalidParameter(
                    "polynomial exponent must exceed 2 (mean does not exist)"
                )
        elif self.family == "raw":
            if not self.weights:
                raise InvalidParameter("raw family needs a weight list")
            if any(w < 0.0 for w in self.weights):
                raise InvalidParameter("raw weights must be nonnegative")
            if abs(sum(self.weights) - 1.0) > 1e-9:
                raise InvalidParameter("raw weights must sum to 1")
        if self.truncation is not None and (self.truncation < 1 or self.family not in TRUNCATED):
            raise InvalidParameter("truncation is a positive integer for poisson or polynomial")

    # Convenience constructors -------------------------------------------

    @classmethod
    def binary(cls, p: float) -> "FamilySpec":
        return cls("binary", p=p)

    @classmethod
    def three_point(cls, p0: float, p2: float, p3: float) -> "FamilySpec":
        return cls("three_point", p0=p0, p2=p2, p3=p3)

    @classmethod
    def poisson(cls, lam: float, truncation: int | None = None) -> "FamilySpec":
        return cls("poisson", lam=lam, truncation=truncation)

    @classmethod
    def polynomial(cls, p: float, truncation: int | None = None) -> "FamilySpec":
        return cls("polynomial", p=p, truncation=truncation)

    @classmethod
    def raw(cls, weights: Sequence[float]) -> "FamilySpec":
        return cls("raw", weights=tuple(weights))

    @property
    def params(self) -> dict:
        """The family's parameters by field name, in ``FAMILIES`` order."""
        return {name: getattr(self, name) for name in FAMILIES[self.family][0]}

    @property
    def label(self) -> str:
        """Short table name, e.g. ``binary(p=0.75)`` or ``raw(top=2)``."""
        top = len(self.weights or ()) - 1
        return FAMILIES[self.family][1].format(**self.params, top=top)

    def to_json_dict(self) -> dict:
        out: dict = {"family": self.family}
        for name, value in self.params.items():
            out[JSON_NAMES.get(name, name)] = list(value) if name == "weights" else value
        if self.truncation is not None:
            out["truncation"] = self.truncation
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "FamilySpec":
        read = partial(json_field, data)
        family = read("family", str)
        trunc = read("truncation", lambda t: None if t is None else json_int(t), None)
        if family not in FAMILIES:
            raise InvalidParameter(f"unknown family {family!r}")
        params = {"truncation": trunc} if family in TRUNCATED else {}
        for name in FAMILIES[family][0]:
            convert = (lambda ws: [float(w) for w in ws]) if name == "weights" else float
            params[name] = read(JSON_NAMES.get(name, name), convert)
        return cls(family, **params)


@dataclass(frozen=True)
class TailBound:
    """Analytic upper bound on ``sum_{k >= ell} k * mu{k}`` beyond a truncation.

    The retained part of the first-moment tail is always computed exactly
    from the atoms; this object only accounts for offspring counts above the
    truncation point ``cutoff`` that the finite measure cannot see.
    """

    kind: str  # "poisson" or "polynomial"
    cutoff: int
    lam: float | None = None
    exponent: float | None = None
    normalizer: float | None = None

    def __call__(self, ell: int) -> float:
        j = max(int(ell), self.cutoff + 1)
        if self.kind == "poisson":
            return self.lam * _poisson_upper_tail(self.lam, j - 1)
        if self.kind == "polynomial":
            # sum_{k >= j} k (k+1)^-p  <=  integral bound j^(2-p) / (p-2)
            return self.normalizer * j ** (2.0 - self.exponent) / (self.exponent - 2.0)
        raise InvalidParameter(f"unknown tail bound kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "cutoff": self.cutoff}
        if self.lam is not None:
            out["lambda"] = self.lam
        if self.exponent is not None:
            out["exponent"] = self.exponent
        if self.normalizer is not None:
            out["normalizer"] = self.normalizer
        return out


def _poisson_upper_tail(lam: float, j: int) -> float:
    """Chernoff bound on P[Poisson(lam) >= j], valid and < 1 for j > lam."""
    if j <= lam:
        return 1.0
    return math.exp(j - lam - j * math.log(j / lam))


@dataclass(frozen=True)
class OffspringLaw:
    """An integer offspring distribution with bookkeeping for truncation."""

    measure: DiscreteMeasure
    mean_m: float
    tail_bound: TailBound | None = None
    family: FamilySpec | None = None

    def __post_init__(self) -> None:
        if not self.measure.is_integer_supported:
            raise InvalidParameter("offspring laws need integer support")

    @cached_property
    def counts(self) -> np.ndarray:
        return self.measure.integer_values

    @cached_property
    def probs(self) -> np.ndarray:
        return self.measure.weights_array

    @cached_property
    def mass_at_zero(self) -> float:
        return self.measure.mass_at(0)


def build(spec: FamilySpec, budget: float = DEFAULT_TAIL_BUDGET) -> OffspringLaw:
    """Materialize a family member.

    For the two infinite families the truncation point is taken from the
    spec when given; otherwise the smallest cutoff whose first-moment tail
    bound is at most ``budget`` is derived.  The mass beyond the cutoff goes
    into the measure defect.
    """
    if spec.family == "binary":
        m = DiscreteMeasure.from_items([(0, 1.0 - spec.p), (2, spec.p)])
        return OffspringLaw(m, measures.mean(m), family=spec)
    if spec.family == "three_point":
        m = DiscreteMeasure.from_items([(0, spec.p0), (2, spec.p2), (3, spec.p3)])
        return OffspringLaw(m, measures.mean(m), family=spec)
    if spec.family == "raw":
        m = DiscreteMeasure.from_items(enumerate(spec.weights))
        return OffspringLaw(m, measures.mean(m), family=spec)
    if spec.family == "poisson":
        return _build_poisson(spec, budget)
    if spec.family == "polynomial":
        return _build_polynomial(spec, budget)
    raise InvalidParameter(f"unknown family {spec.family!r}")


def _build_poisson(spec: FamilySpec, budget: float) -> OffspringLaw:
    from scipy import special

    lam = float(spec.lam)
    if spec.truncation is not None:
        cutoff = spec.truncation
    else:
        cutoff = max(int(math.ceil(lam)) + 1, 2)
        while lam * _poisson_upper_tail(lam, cutoff) > budget:
            cutoff += 1
            if cutoff > MAX_DERIVED_TRUNCATION:
                raise InvalidParameter("poisson tail budget unattainable")
    ks = np.arange(cutoff + 1)
    w = np.exp(special.xlogy(ks, lam) - special.gammaln(ks + 1) - lam)
    retained = float(w.sum())
    m = DiscreteMeasure.from_dense(w, defect=max(0.0, 1.0 - retained))
    bound = TailBound("poisson", cutoff, lam=lam)
    return OffspringLaw(m, measures.mean(m), tail_bound=bound, family=spec)


def _build_polynomial(spec: FamilySpec, budget: float) -> OffspringLaw:
    from scipy import special

    p = float(spec.p)
    c = 1.0 / float(special.zeta(p))
    if spec.truncation is not None:
        cutoff = spec.truncation
    else:
        # Need c * (K+1)^(2-p) / (p-2) <= budget.
        k_real = (budget * (p - 2.0) / c) ** (1.0 / (2.0 - p))
        if not math.isfinite(k_real) or k_real > MAX_DERIVED_TRUNCATION:
            raise InvalidParameter(
                "polynomial tail budget needs about "
                f"{k_real:.3g} atoms; pass an explicit truncation instead"
            )
        cutoff = max(int(math.ceil(k_real)), 2)
    ks = np.arange(cutoff + 1, dtype=float)
    w = c * (ks + 1.0) ** (-p)
    retained = float(w.sum())
    m = DiscreteMeasure.from_dense(w, defect=max(0.0, 1.0 - retained))
    bound = TailBound("polynomial", cutoff, exponent=p, normalizer=c)
    return OffspringLaw(m, measures.mean(m), tail_bound=bound, family=spec)


# -- generating function ------------------------------------------------------


def pgf(law: OffspringLaw, s: float) -> float:
    """Probability generating function of the retained mass at ``s``."""
    if not 0.0 <= s <= 1.0:
        raise InvalidParameter("pgf argument must lie in [0, 1]")
    return float(np.dot(law.probs, np.power(s, law.counts)))


def pgf_derivative(law: OffspringLaw, s: float) -> float:
    if not 0.0 <= s <= 1.0:
        raise InvalidParameter("pgf argument must lie in [0, 1]")
    ks = law.counts
    pos = ks >= 1
    return float(np.dot(ks[pos] * law.probs[pos], np.power(s, ks[pos] - 1)))


def criticality(law: OffspringLaw) -> str:
    """Classify the law as supercritical, subcritical, or numerically critical.

    Means within ``CRITICAL_DEAD_ZONE`` of one cannot be told apart from the
    critical case in double precision, so they are reported as critical and
    rejected by operations that need a strict side.
    """
    if abs(law.mean_m - 1.0) <= CRITICAL_DEAD_ZONE:
        return "critical"
    return "supercritical" if law.mean_m > 1.0 else "subcritical"


@dataclass(frozen=True)
class ExtinctionResult:
    """Extinction probability together with solver diagnostics."""

    value: float
    supercritical: bool
    residual: float
    iterations: int


def extinction_probability(law: OffspringLaw) -> ExtinctionResult:
    """Smallest fixed point of the generating function on [0, 1].

    Supercritical laws get the unique root in [0, 1) via bisection to a
    coarse bracket followed by Newton refinement; the residual |f(q) - q|
    is verified to be at most 1e-13.  Non-supercritical laws extinguish
    almost surely and return 1 with the flag cleared.
    """
    if criticality(law) != "supercritical":
        return ExtinctionResult(1.0, False, 0.0, 0)
    if law.mass_at_zero == 0.0:
        return ExtinctionResult(0.0, True, 0.0, 0)

    def g(s: float) -> float:
        return pgf(law, s) - s

    def bisect(lo: float, hi: float, width: float) -> tuple[float, float]:
        nonlocal iterations
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            iterations += 1
            lo, hi = (mid, hi) if g(mid) >= 0.0 else (lo, mid)
        return lo, hi

    # Find an upper bracket strictly above the root: g < 0 between q and 1.
    eta = 1e-3
    hi = 1.0 - eta
    while g(hi) >= 0.0:
        eta /= 8.0
        hi = 1.0 - eta
        if eta < 1e-12:
            raise SolverDidNotConverge(
                "could not bracket the extinction probability below 1"
            )
    iterations = 0
    lo, hi = bisect(0.0, hi, 1e-6)
    q = 0.5 * (lo + hi)
    for _ in range(50):
        iterations += 1
        slope = pgf_derivative(law, q) - 1.0
        if slope == 0.0:
            break
        step = g(q) / slope
        candidate = q - step
        if not lo - 1e-9 <= candidate <= hi + 1e-9:
            break
        q = min(max(candidate, 0.0), 1.0)
        if abs(step) < 1e-16:
            break
    residual = abs(g(q))
    if residual > 1e-13:
        # Newton stalled; fall back to bisection at full precision.
        lo, hi = bisect(lo, hi, 5e-17)
        q = 0.5 * (lo + hi)
        residual = abs(g(q))
        if residual > 1e-13:
            raise SolverDidNotConverge(
                f"extinction residual {residual:.3e} above 1e-13"
            )
    return ExtinctionResult(float(q), True, float(residual), iterations)


def iterate_pgf_at_zero(law: OffspringLaw, n: int) -> float:
    """n-fold iterate of the generating function at 0.

    This is the probability of extinction by generation ``n`` for a single
    ancestor, and converges to the extinction probability from below; it
    serves as an independent cross-check on the fixed-point solver.
    """
    if n < 0:
        raise InvalidParameter("iteration count must be nonnegative")
    s = 0.0
    for _ in range(n):
        s = pgf(law, s)
    return s


# -- conditional transforms ---------------------------------------------------


def _require_supercritical(law: OffspringLaw, what: str) -> ExtinctionResult:
    if criticality(law) != "supercritical":
        raise SupercriticalRequired(f"{what} needs a supercritical law")
    return extinction_probability(law)


def survival_transform(law: OffspringLaw) -> OffspringLaw:
    """Offspring law of the process conditioned to survive forever.

    Realized by binomial thinning: each child survives independently with
    probability ``1 - q``, and the surviving count is conditioned to be
    positive at the root.  The result has no mass at zero, mass ``f'(q)``
    at one, and extinction probability zero.
    """
    from scipy import special

    ext = _require_supercritical(law, "survival transform")
    q = ext.value
    if q == 0.0:
        return OffspringLaw(law.measure, law.mean_m, tail_bound=law.tail_bound)
    ks = law.counts
    ws = law.probs
    out = np.zeros(int(ks[-1]) + 1, dtype=float)
    for k, w in zip(ks.tolist(), ws.tolist()):
        if k == 0:
            continue
        js = np.arange(1, k + 1)
        # Binomial(k, 1 - q) pmf at js, in log space.
        log_pmf = (
            special.gammaln(k + 1) - special.gammaln(js + 1) - special.gammaln(k - js + 1)
            + special.xlogy(js, 1.0 - q) + special.xlogy(k - js, q)
        )
        out[1 : k + 1] += w * np.exp(log_pmf)
    out /= 1.0 - q
    m = DiscreteMeasure.from_dense(out, defect=law.measure.defect / (1.0 - q))
    return OffspringLaw(m, measures.mean(m))


def extinction_transform(law: OffspringLaw) -> OffspringLaw:
    """Offspring law of the process conditioned to die out.

    Atom ``k`` is reweighted by ``q**(k-1)``, giving mean ``f'(q)``.  A
    supercritical law becomes strictly subcritical; when extinction is
    already sure the conditioning changes nothing.  Undefined when
    extinction has probability zero.
    """
    q = extinction_probability(law).value
    if q == 0.0:
        raise InvalidParameter(
            "extinction transform undefined when extinction has probability 0"
        )
    ks = law.counts
    w = law.probs * np.power(q, ks - 1, dtype=float)
    retained = float(w.sum())
    m = DiscreteMeasure.from_items(
        zip(ks.tolist(), w.tolist()), defect=max(0.0, 1.0 - retained)
    )
    return OffspringLaw(m, measures.mean(m))


def psi1_tail(law: OffspringLaw, ell: int) -> float:
    """Upper bound on ``sum_{k >= ell} k * mu{k}`` including the unseen tail."""
    if ell < 0:
        raise InvalidParameter("tail threshold must be nonnegative")
    ks = law.counts
    mask = ks >= ell
    exact = float(np.dot(ks[mask], law.probs[mask]))
    extra = law.tail_bound(ell) if law.tail_bound is not None else 0.0
    return exact + extra
