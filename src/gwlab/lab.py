"""Robustness sweeps and machine-checkable verification of the bound suite.

Two jobs live here.  ``robustness_modulus`` sweeps a grid of offspring laws
against a center law and reports, per member, the input distance (total
variation between offspring laws) next to the output distance (the largest
Prohorov distance between the ratio-estimator laws over a range of
horizons).  The ``verify_*`` functions each check one analytic inequality
behind the estimator's continuity behaviour on a concrete instance and
record the computed left and right sides together with an explicit slack,
so a pass means something in floating point.

Estimator laws are computed exactly while the population-size support
stays below a cutoff and the engine accepts each step (its cost caps, see
``engine``); past that they come from seeded simulation, binned onto a
fixed ratio grid, with the bin radius added to the slack column and
cap-excluded replications counted as defect.  Sweeps and the consistency
check share this one route (``_horizon_laws``).

Sweeps walk horizons by the two laws' atom count (ties by ``n``); a row
names the least horizon with the largest distance.  A Prohorov sweep skips
a horizon once one greedy pass on the pairs within a bound leaves ``T - M``
at most the bound, less the search's guard (``metrics.prohorov_at_most``):
``best`` past the running winner, the float below ``best`` before it.  The
horizon cannot win then, and rows are as with every horizon computed.  Only
the winner's certificate is read, so only its band flow is solved; a value
``max(d, T - M(d))`` is the search's own, so no flow could move a row.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .engine import (
    MIN_SURVIVAL,
    JointLaw,
    Propagator,
    extinction_by_n,
    wlln_probability,
    PowerCache,
)
from .errors import (
    BudgetExceeded,
    DegenerateConditioning,
    InvalidParameter,
    SupercriticalRequired,
    json_field,
    json_float,
    json_int,
)
from .estimator import consistency_probability, estimator_law, exact_fraction
from .measures import DiscreteMeasure, left_sum, merge_atoms, tv_distance
from .metrics import bounded_lipschitz, joint_tv, prohorov, prohorov_at_most, trajectory_tv
from .montecarlo import (
    DEFAULT_BIN_DEN, SimConfig, SimTable, binned_estimator_law, check_jobs,
    empirical_consistency_probability, simulate_paths,
)
from .offspring import (
    DEFAULT_TAIL_BUDGET,
    MAX_DERIVED_TRUNCATION,
    FamilySpec,
    OffspringLaw,
    build,
    check_budget,
    criticality,
    extinction_probability,
    extinction_transform,
    iterate_pgf_at_zero,
    pgf,
    pgf_derivative,
    psi1_tail,
    survival_transform,
)

__all__ = [
    "ExperimentSpec",
    "VerificationReport",
    "CLAIM_IDS",
    "MODULUS_COLUMNS",
    "robustness_modulus",
    "binned_estimator_law",
    "contamination_grid",
    "binary_sweep_spec",
    "contamination_sweep_spec",
    "verify_joint_tv_bound",
    "verify_extinction_bound",
    "verify_conditional_consistency",
    "verify_conditional_occupancy",
    "verify_wlln",
    "verify_decomposition_identity",
    "verify_mean_continuity",
    "run_default_suite",
]

T = TypeVar("T")

# Exact estimator laws are computed while the population-size support stays
# below this many atoms; larger horizons fall back to seeded simulation.
EXACT_CUTOFF = 20_000

DEFAULT_REPLICATIONS = 1_000_000

DEFAULT_SIM_CAP = 10**12

CLAIM_IDS = (
    "lemma-joint-tv",
    "lemma-extinction-lipschitz",
    "theorem-conditional-consistency",
    "lemma-conditional-occupancy",
    "lemma-wlln",
    "lemma-decomposition",
    "lemma-mean-continuity",
)

MODULUS_COLUMNS = (
    "index",
    "family",
    "d_tv",
    "d_tv_slack",
    "modulus",
    "modulus_slack",
    "argmax_n",
    "mc_from",
    "flagged",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One robustness sweep: a center law, a grid, and horizon settings."""

    center: FamilySpec
    grid: tuple[FamilySpec, ...]
    n_range: tuple[int, ...]
    z0: int = 1
    metric: str = "prohorov"
    budget: float = DEFAULT_TAIL_BUDGET
    seed: int = 0
    replications: int = DEFAULT_REPLICATIONS
    cap: int = DEFAULT_SIM_CAP
    exact_cutoff: int = EXACT_CUTOFF
    bin_denominator: int = DEFAULT_BIN_DEN
    output: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(self.grid))
        for name in ("z0", "seed", "replications", "cap", "exact_cutoff", "bin_denominator"):
            object.__setattr__(self, name, json_field(vars(self), name, json_int))
        n_range = json_field(vars(self), "n_range", lambda ns: tuple(map(json_int, ns)))
        object.__setattr__(self, "n_range", n_range)
        object.__setattr__(self, "budget", json_field(vars(self), "budget", json_float))
        if not self.grid:
            raise InvalidParameter("a sweep needs at least one grid member")
        if not self.n_range or any(n < 1 for n in self.n_range):
            raise InvalidParameter("n_range must be nonempty with n >= 1")
        # The simulation settings pass the checks of the config they run with.
        SimConfig(self.seed, self.replications, max(self.n_range), self.z0, self.cap)
        check_budget(self.budget)
        if self.metric not in ("prohorov", "bounded_lipschitz"):
            raise InvalidParameter(f"unknown sweep metric {self.metric!r}")
        if self.exact_cutoff < 1:
            raise InvalidParameter("exact cutoff must be positive")
        if self.bin_denominator < 1:
            raise InvalidParameter("bin denominator must be positive")
        if not isinstance(self.output, (str, type(None))):
            raise InvalidParameter(f"'output' must be a path string, got {self.output!r:.80}")

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            center=self.center.to_json_dict(),
            grid=[g.to_json_dict() for g in self.grid],
            n_range=list(self.n_range),
        )
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ExperimentSpec":
        """Spec from its JSON form: the laws through ``FamilySpec``, each other
        field present as it is (``__post_init__`` converts and checks it), each
        absent one at its default, no other key."""
        convert = {
            "center": lambda c: _family_at("center", c),
            "grid": lambda g: tuple(_family_at(f"grid[{i}]", m) for i, m in enumerate(g)),
        }
        values = {
            f.name: json_field(data, f.name, convert.get(f.name, lambda value: value))
            for f in fields(cls)
            # ``center`` comes first, so a ``data`` that is no object fails in json_field.
            if f.default is MISSING or f.name in data
        }
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidParameter(f"unknown experiment spec keys: {unknown}")
        return cls(**values)


def _family_at(place: str, data: object) -> FamilySpec:
    """``FamilySpec.from_json_dict``, its errors prefixed by the member's place."""
    try:
        return FamilySpec.from_json_dict(data)
    except InvalidParameter as exc:
        raise InvalidParameter(f"{place}: {exc}") from None


@dataclass(frozen=True)
class VerificationReport:
    """One checked inequality: claim id, instance, lhs <= rhs + slack.

    ``passed`` is defined as exactly that predicate.  When a check is
    inconclusive (a premise of the underlying statement cannot be
    established for the instance) the ``note`` says so and the lhs is set
    to a failing value rather than silently passing.
    """

    claim_id: str
    instance: dict
    lhs: float
    rhs: float
    slack: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + self.slack

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "instance": _jsonable(self.instance),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "passed": self.passed,
            "note": self.note,
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


# -- sweep machinery ----------------------------------------------------------


def _family_label(spec: FamilySpec | None) -> str:
    # Laws without a spec (the conditional transforms) come from raw weights.
    return spec.label if spec is not None else "raw"


def _member_seed(base: int, index: int) -> int:
    return int(np.random.SeedSequence([base, index]).generate_state(1)[0])


def _propagator(prop: Propagator | None, law: OffspringLaw, **settings: float) -> Propagator:
    """``prop``, refused unless built on this law object with these settings; a new one if None."""
    if prop is None:
        return Propagator(law, **settings)
    wrong = [] if prop.law is law else ["law"]
    wrong += [k for k, v in settings.items() if getattr(prop, k) != v]
    if wrong:
        raise InvalidParameter(f"the shared Propagator differs in {', '.join(wrong)}")
    return prop


def _horizon_laws(
    law: OffspringLaw, levels: Iterable[int],
    from_exact: Callable[[Callable[[], JointLaw]], T], from_table: Callable[[SimTable, int], T],
    *, z0: int, budget: float, exact_cutoff: int, seed: int | Callable[[], int], replications: int,
    cap: int, jobs: int, resolution: Fraction | None = None, prop: Propagator | None = None,
) -> tuple[dict[int, T], int | None]:
    """The one exact-to-Monte-Carlo route: a result per horizon in ``levels``.

    Horizons are walked in order and stay exact until the engine refuses a
    step or a wanted joint law (``BudgetExceeded``: a cost or row cap, or
    truncation emptying the law) or the support passes ``exact_cutoff``;
    that horizon is ``mc_from``.  A wanted exact horizon gives
    ``from_exact(factory)``, ``factory()`` building its joint law.  The switch
    is sticky: every wanted horizon from ``mc_from`` on gives
    ``from_table(table, n)`` from one seeded simulation, which tallies bins at
    ``resolution`` if given.  Returns the results by horizon and ``mc_from``.
    ``seed`` may be a function giving it; it is called, and ``numpy.random``
    loaded, only when a horizon simulates.
    """
    wanted = sorted(set(levels))
    prop = _propagator(prop, law, z0=z0, n_max=wanted[-1], budget=budget)
    out: dict[int, T] = {}
    for n in range(1, prop.n_max + 1):
        try:
            exact = prop.support_size(n) <= exact_cutoff
            if exact and n in wanted:
                out[n] = from_exact(lambda: prop.joint(n))
        except BudgetExceeded:
            exact = False
        if not exact:
            cfg = SimConfig(seed() if callable(seed) else seed, replications, prop.n_max, z0, cap)
            table = simulate_paths(law, cfg, jobs=jobs, resolution=resolution)
            out.update((k, from_table(table, k)) for k in wanted if k >= n)
            return out, n
    return out, None


def _estimator_curve(
    law: OffspringLaw, spec: ExperimentSpec, seed: int | Callable[[], int], jobs: int = 1
) -> tuple[dict[int, tuple[DiscreteMeasure, float]], int | None]:
    """Unconditional ratio law per horizon of ``spec.n_range``.

    Returns ``{n: (measure, extra_slack)}`` and ``mc_from``; simulated
    horizons are binned, and the bin radius is their extra slack.
    """
    resolution = Fraction(1, spec.bin_denominator)
    return _horizon_laws(
        law, spec.n_range,
        lambda joint: (estimator_law(joint()).law, 0.0),
        lambda table, n: binned_estimator_law(table, n, resolution),
        z0=spec.z0, budget=spec.budget, exact_cutoff=spec.exact_cutoff, seed=seed,
        replications=spec.replications, cap=spec.cap, jobs=jobs, resolution=resolution,
    )


def robustness_modulus(spec: ExperimentSpec, jobs: int = 1) -> list[dict]:
    """Input distance vs estimator-law distance, one row per grid member.

    Each row pairs the total variation between the member and the center
    with the largest metric value between their ratio-estimator laws over
    ``spec.n_range``.  Subcritical or numerically critical members are
    flagged rather than rejected; every reported value carries a slack
    column covering truncation defects and simulation binning.

    Horizons go in ``_horizon_order``.  One wins with a value above the
    running maximum ``best``, or equal to it at a smaller ``n``, so a
    Prohorov sweep skips it when ``prohorov_at_most`` proves it can do
    neither (see the module notes); the rows do not change.  No value
    comes from a flow, so only the winner's certificate is read, once.
    """
    check_jobs(jobs)
    center = build(spec.center, spec.budget)
    if criticality(center) != "supercritical":
        raise SupercriticalRequired("the sweep center must be supercritical")
    metric = prohorov if spec.metric == "prohorov" else bounded_lipschitz
    center_curve, center_mc = _estimator_curve(
        center, spec, partial(_member_seed, spec.seed, 0), jobs
    )
    rows: list[dict] = []
    for idx, member in enumerate(spec.grid):
        law2 = build(member, spec.budget)
        d_tv, d_slack = tv_distance(center.measure, law2.measure)
        crit = criticality(law2)
        flagged = "" if crit == "supercritical" else crit
        if law2.measure == center.measure:
            # Identical laws have identical curves; reuse so the modulus of
            # the center against itself is exactly zero, not a solver echo.
            curve2, mc_from = center_curve, center_mc
        else:
            curve2, mc_from = _estimator_curve(
                law2, spec, partial(_member_seed, spec.seed, idx + 1), jobs
            )
        best, best_n, best_slack, winner = -1.0, None, 0.0, None
        for n in _horizon_order(center_curve, curve2, spec.n_range):
            (a, slack_a), (b, slack_b) = center_curve[n], curve2[n]
            if a is b:
                value, total_slack, result = 0.0, slack_a + slack_b, None
            elif spec.metric == "prohorov" and best > 0.0 and prohorov_at_most(
                a, b, best if n > best_n else math.nextafter(best, -math.inf)
            ):
                continue  # it cannot win
            else:
                result = metric(a, b)
                value, total_slack = result.value, result.defect_slack + slack_a + slack_b
            if value > best or (value == best and n < best_n):
                best, best_n, best_slack, winner = value, n, total_slack, result
        getattr(winner, "certificate", None)  # certify the row: solves its winner's flow alone
        if center_mc is not None:
            mc_from = min(n for n in (mc_from, center_mc) if n is not None)
        rows.append(
            {
                "index": idx,
                "family": _family_label(member),
                "d_tv": d_tv,
                "d_tv_slack": d_slack,
                "modulus": best,
                "modulus_slack": best_slack,
                "argmax_n": best_n,
                "mc_from": mc_from,
                "flagged": flagged,
            }
        )
    return rows


def _horizon_order(center_curve: Mapping, curve: Mapping, n_range: Iterable[int]) -> list[int]:
    """The horizons of ``n_range``, fewest atoms in the two laws first, then by ``n``."""
    return sorted(set(n_range), key=lambda n: (len(center_curve[n][0]) + len(curve[n][0]), n))


def contamination_grid(
    center: FamilySpec, k_values: Iterable[int]
) -> tuple[FamilySpec, ...]:
    """Mixtures ``(1 - 1/k) * center + (1/k) * delta_{10k}``.

    The escaping atom scales with the mixing index, so the total variation
    to the center vanishes while the offspring mean stays shifted by
    roughly 10.  At horizon ``n`` the estimator laws differ by at most
    ``1 - F_n``, ``F_n`` the chance that maximally coupled trajectories agree
    through generation ``n``.  For a binary(0.75) center ``1 - F_8`` falls from
    0.652 at ``k = 20`` to 0.0472 at ``k = 1000``: the members stay a fixed
    distance away at every ``k`` only on horizons that grow like ``log k``.
    """
    base = build(center)
    if base.measure.defect != 0.0:
        raise InvalidParameter("contamination mixing needs an exact center law")
    out = []
    for k in k_values:
        k = json_field({"k": k}, "k", json_int)
        if not 2 <= k <= MAX_DERIVED_TRUNCATION // 10:
            raise InvalidParameter(f"mixing index k = {k} must be at least 2, and 10k at most "
                                   f"MAX_DERIVED_TRUNCATION = {MAX_DERIVED_TRUNCATION}")
        far = 10 * k
        weights = np.zeros(far + 1)
        for count, prob in zip(base.counts.tolist(), base.probs.tolist()):
            weights[count] = (1.0 - 1.0 / k) * prob
        weights[far] += 1.0 / k
        out.append(FamilySpec.raw(weights.tolist()))
    return tuple(out)


def binary_sweep_spec(
    center_p: float = 0.75,
    offsets: Sequence[float] = (-0.01, -0.005, 0.0, 0.005, 0.01),
    n_max: int = 8,
    **overrides,
) -> ExperimentSpec:
    """Sweep of binary laws around a center; exact at desk scale."""
    grid = tuple(FamilySpec.binary(center_p + off) for off in offsets)
    return ExperimentSpec(
        center=FamilySpec.binary(center_p),
        grid=grid,
        n_range=tuple(range(1, n_max + 1)),
        **overrides,
    )


def contamination_sweep_spec(
    k_values: Sequence[int] = (20, 25, 30, 40, 50),
    center_p: float = 0.75,
    n_max: int = 8,
    **overrides,
) -> ExperimentSpec:
    """Sweep of vanishing-mixture members whose modulus refuses to vanish."""
    center = FamilySpec.binary(center_p)
    return ExperimentSpec(
        center=center,
        grid=contamination_grid(center, k_values),
        n_range=tuple(range(1, n_max + 1)),
        **overrides,
    )


# -- inequality checks ---------------------------------------------------------


def verify_joint_tv_bound(
    law1: OffspringLaw, law2: OffspringLaw, n: int, z0: int = 1
) -> VerificationReport:
    """Joint-trajectory total variation against the mean-growth bound.

    The total variation between the laws of ``(Z_1, ..., Z_n)`` under two
    offspring laws is at most ``z0 * min_i(sum m_i^(j-1)) * d_TV``: swapping
    one generation's draws at a time costs ``d_TV`` per expected individual.
    For ``n`` up to 4 the left side is the full trajectory law; beyond that
    it is the law of the pair ``(Z_{n-1}, Z_n)``, a marginal of the
    trajectory, so the same right side applies.
    """
    if n < 1:
        raise InvalidParameter("horizon n must be at least 1")
    d_tv, d_slack = tv_distance(law1.measure, law2.measure)
    c_n = min(left_sum(law.mean_m ** (i - 1) for i in range(1, n + 1)) for law in (law1, law2))
    if n <= 4:
        side = "trajectory"
        lhs, lhs_slack = trajectory_tv(law1, law2, n, z0=z0)
    else:
        side = "pair"
        j1 = Propagator(law1, z0=z0, n_max=n).joint(n)
        j2 = Propagator(law2, z0=z0, n_max=n).joint(n)
        lhs, lhs_slack = joint_tv(j1, j2)
    rhs = z0 * c_n * d_tv
    slack = lhs_slack + z0 * c_n * d_slack + 1e-10
    instance = {
        "family1": _family_label(law1.family),
        "family2": _family_label(law2.family),
        "n": n,
        "z0": z0,
        "d_tv": d_tv,
        "horizon_constant": c_n,
        "lhs_kind": side,
    }
    return VerificationReport("lemma-joint-tv", instance, lhs, rhs, slack)


def verify_extinction_bound(
    law1: OffspringLaw, law2: OffspringLaw, n: int
) -> VerificationReport:
    """Lipschitz bound on extinction-by-n through iterated generating functions.

    With ``q_bar`` strictly above the extinction probability of the first
    law and ``gamma_bar`` the generating-function slope there, iterates at
    zero differ by at most ``(sum_{k<=n} gamma_bar^k) * d_TV``, provided
    ``d_TV`` stays below the gate ``(q_bar - f1(q_bar)) / 2`` that keeps the
    second law's iterates under ``q_bar``.  The one-step pgf bound
    ``|f1(s) - f2(s)| <= d_TV`` is checked on a 101-point grid alongside.
    """
    ext = extinction_probability(law1)
    if not ext.supercritical:
        raise SupercriticalRequired("the extinction bound needs a supercritical base law")
    q = ext.value
    note = ""
    q_bar = 0.5 * (q + 1.0)
    gamma = pgf_derivative(law1, q_bar)
    halvings = 0
    while gamma >= 1.0 - 1e-6 and halvings < 200:
        q_bar = 0.5 * (q + q_bar)
        gamma = pgf_derivative(law1, q_bar)
        halvings += 1
    instance: dict = {
        "family1": _family_label(law1.family),
        "family2": _family_label(law2.family),
        "n": n,
        "q": q,
        "q_bar": q_bar,
        "gamma_bar": gamma,
        "halvings": halvings,
    }
    if gamma >= 1.0 - 1e-6:
        return VerificationReport(
            "lemma-extinction-lipschitz",
            instance,
            lhs=1.0,
            rhs=0.0,
            slack=0.0,
            note="inconclusive: no point above the fixed point has slope below 1",
        )
    d_tv, d_slack = tv_distance(law1.measure, law2.measure)
    delta_gate = 0.5 * (q_bar - pgf(law1, q_bar))
    gate_ok = d_tv + d_slack <= delta_gate
    if not gate_ok:
        note = "inconclusive: d_tv exceeds the contraction gate; "
    lhs = abs(iterate_pgf_at_zero(law1, n) - iterate_pgf_at_zero(law2, n))
    geo = left_sum(gamma**k for k in range(n + 1))
    rhs = geo * d_tv
    d1 = law1.measure.defect
    d2 = law2.measure.defect
    slack = geo * d_slack + (n + 1) * (d1 + d2) + 1e-10
    grid = np.linspace(0.0, 1.0, 101)
    grid_max = max(abs(pgf(law1, s) - pgf(law2, s)) for s in grid.tolist())
    grid_allow = d_tv + d_slack + d1 + d2 + 1e-10
    if grid_max > grid_allow:
        lhs = max(lhs, rhs + slack + (grid_max - grid_allow))
        note += "one-step pgf bound violated on the s-grid; "
    instance.update(
        d_tv=d_tv,
        delta_gate=delta_gate,
        gate_ok=gate_ok,
        geometric_sum=geo,
        pgf_grid_max=grid_max,
        pgf_grid_allow=grid_allow,
    )
    return VerificationReport(
        "lemma-extinction-lipschitz", instance, lhs, rhs, slack, note=note.strip()
    )


def verify_conditional_consistency(
    law: OffspringLaw,
    eta: object,
    eps: float,
    n_range: Iterable[int],
    z0: int = 1,
    budget: float = DEFAULT_TAIL_BUDGET,
    exact_cutoff: int = EXACT_CUTOFF,
    replications: int = DEFAULT_REPLICATIONS,
    seed: int = 0,
    cap: int = DEFAULT_SIM_CAP,
    jobs: int = 1,
    _prop: Propagator | None = None,
) -> VerificationReport:
    """Survival-conditioned deviation mass of the ratio estimator per horizon.

    Computes ``P[|Z_n/Z_{n-1} - m| >= eta | Z_{n-1} > 0]`` for each horizon,
    exactly below the support cutoff and by seeded simulation past it, and
    reports the smallest value reached along with whether it stays below
    ``eps`` and whether the last exact horizons are decreasing.  Simulated
    horizons where the population cap excluded every replication are left
    out of that choice; when no horizon is left the report is inconclusive.
    """
    check_jobs(jobs)
    if not all(math.isfinite(x) and x > 0 for x in (eta, eps)):
        raise InvalidParameter(f"eta and eps must be finite and positive, got {eta} and {eps}")
    if criticality(law) != "supercritical":
        raise SupercriticalRequired("conditional consistency needs a supercritical law")
    levels = sorted(set(int(x) for x in n_range))
    if not levels or levels[0] < 1:
        raise InvalidParameter("n_range must contain horizons >= 1")
    # The simulation settings are checked even when every horizon is exact.
    SimConfig(seed, replications, levels[-1], z0, cap)
    m_frac, eta_frac = Fraction(law.mean_m), exact_fraction(eta)
    results, mc_from = _horizon_laws(
        law, levels,
        lambda joint: (*consistency_probability(joint, m_frac, eta_frac), None),
        lambda table, n: empirical_consistency_probability(table, n, m_frac, eta_frac),
        z0=z0, budget=budget, exact_cutoff=exact_cutoff, seed=seed,
        replications=replications, cap=cap, jobs=jobs, prop=_prop,
    )
    # Exact horizons carry no standard error; simulated ones do.
    values = {n: r[0] for n, r in results.items()}
    slacks = {n: r[1] for n, r in results.items()}
    errors = {n: r[2] for n, r in results.items() if r[2] is not None}
    kinds = {n: "exact" if r[2] is None else "mc" for n, r in results.items()}
    # A level whose whole event mass is slack (every replication passed the
    # cap) holds no evidence, so it can neither be the best nor count as
    # below eps.
    tabulated = [n for n in levels if slacks[n] < 1.0]
    note = ""
    if tabulated:
        best_n = min(tabulated, key=lambda n: (values[n], n))
        lhs = values[best_n]
        slack = slacks[best_n] + 1e-12
    else:
        best_n, lhs, slack = None, 1.0, 0.0
        note = "inconclusive: the population cap excluded every replication at every horizon"
    tail = [n for n in levels if kinds[n] == "exact"][-4:]
    decreasing = len(tail) >= 2 and all(
        values[a] > values[b] for a, b in zip(tail, tail[1:])
    )
    below = [n for n in tabulated if values[n] <= eps]
    instance = {
        "family": _family_label(law.family),
        "eta": float(eta),
        "eps": eps,
        "z0": z0,
        "mean": law.mean_m,
        "values": values,
        "kinds": kinds,
        "std_errors": errors,
        "first_n_below": below[0] if below else None,
        "decreasing_last_exact": decreasing,
        "exact_tail": tail,
        "mc_from": mc_from,
        "best_n": best_n,
    }
    return VerificationReport(
        "theorem-conditional-consistency", instance, lhs, eps, slack, note=note
    )


def verify_conditional_occupancy(
    law: OffspringLaw,
    k: int,
    n_range: Iterable[int],
    budget: float = DEFAULT_TAIL_BUDGET,
    _prop: Propagator | None = None,
) -> VerificationReport:
    """Occupancy of a fixed size under survival against its analytic bound.

    For every horizon ``n`` the exact ``P[Z_n = k | Z_n > 0]`` is compared
    with ``BinomialCDF(k; n, p) + (q/(1-q)) * gamma^n`` where ``gamma`` is
    the pgf slope at the extinction probability and ``p = 1 - gamma``: a
    surviving line grows like a Bernoulli(p) staircase, and conditioning
    leaks at most geometrically much mass from doomed lines.
    """
    ext = extinction_probability(law)
    if not ext.supercritical:
        raise SupercriticalRequired("occupancy bound needs a supercritical law")
    if k < 0:
        raise InvalidParameter("occupancy size k must be nonnegative")
    q = ext.value
    gamma = pgf_derivative(law, q)
    p = 1.0 - gamma
    leak = q / (1.0 - q) if q > 0.0 else 0.0
    levels = sorted(set(int(x) for x in n_range))
    if not levels or levels[0] < 1:
        raise InvalidParameter("n_range must contain horizons >= 1")
    prop = _propagator(_prop, law, z0=1, n_max=levels[-1], budget=budget)
    occupancy: dict[int, float] = {}
    bounds: dict[int, float] = {}
    worst, worst_slack = -math.inf, 0.0
    for n in levels:
        gen = prop.generation(n)
        survival = 1.0 - extinction_by_n(law, n)
        if survival < MIN_SURVIVAL:
            raise DegenerateConditioning(f"survival vanished by horizon {n}")
        occ = gen.mass_at(k) / survival
        # A finite pmf sum keeps dyadic p (binary laws) exact.
        cdf = left_sum(math.comb(n, i) * p**i * gamma ** (n - i) for i in range(min(k, n) + 1))
        bnd = cdf + leak * gamma**n
        occupancy[n] = occ
        bounds[n] = bnd
        margin = occ - bnd
        if margin > worst:
            worst, worst_slack = margin, gen.defect / survival
    note = ""
    lhs = worst
    slack = worst_slack + 1e-10
    hat = survival_transform(law)
    hat_one = hat.measure.mass_at(1)
    hat_allow = law.measure.defect / (1.0 - q) + 1e-9
    if abs(hat_one - gamma) > hat_allow:
        lhs = max(lhs, slack + abs(hat_one - gamma) - hat_allow)
        note = "survivor law mass at one drifted from the pgf slope; "
    doomed_mean = None
    if q > 0.0:
        doomed = extinction_transform(law)
        doomed_mean = doomed.mean_m
        doomed_allow = law.measure.defect / q + 1e-9
        if abs(doomed_mean - gamma) > doomed_allow:
            lhs = max(lhs, slack + abs(doomed_mean - gamma) - doomed_allow)
            note += "doomed-line mean drifted from the pgf slope; "
    values = list(occupancy.values())
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    instance = {
        "family": _family_label(law.family),
        "k": k,
        "q": q,
        "gamma": gamma,
        "p": p,
        "occupancy": occupancy,
        "bounds": bounds,
        "survivor_mass_at_one": hat_one,
        "doomed_mean": doomed_mean,
        "occupancy_decreasing": decreasing,
    }
    return VerificationReport(
        "lemma-conditional-occupancy", instance, lhs, 0.0, slack, note=note.strip()
    )


def verify_wlln(
    law: OffspringLaw,
    eta: float,
    eps: float,
    k_max: int = 200,
) -> VerificationReport:
    """Deviation mass of sample means of offspring draws over a grid of sizes.

    Finds the smallest ``k0`` such that ``P[|S_k/k - m| >= eta] <= eps`` for
    every computed ``k >= k0``, and evaluates the classical three-term
    decomposition at a truncation level ``ell``: a Chebychev term
    ``9 eta^-2 ell^2 / k``, a Markov term ``3 eta^-1 E[X 1{X>ell}]``, and an
    indicator that the truncated first moment clears ``eta/3``.
    """
    if not all(math.isfinite(x) and x > 0 for x in (eta, eps)):
        raise InvalidParameter(f"eta and eps must be finite and positive, got {eta} and {eps}")
    if k_max < 1:
        raise InvalidParameter("sample-size grid must be nonempty")
    cache = PowerCache(law)
    vals = np.empty(k_max + 1)
    defects = np.empty(k_max + 1)
    for k in range(1, k_max + 1):
        vals[k], defects[k] = wlln_probability(law, k, eta, _cache=cache)
    suffix = np.maximum.accumulate(vals[1:][::-1])[::-1]
    hits = np.nonzero(suffix <= eps)[0]
    k0 = int(hits[0]) + 1 if hits.size else None
    lhs = float(suffix[k0 - 1] if k0 is not None else suffix[-1])
    slack = float(defects[1:].max()) + 1e-12
    # Three-term bound at the smallest truncation clearing the indicator.
    ell = _first_clearing_level(law, eta / 3.0)
    note = ""
    instance: dict = {
        "family": _family_label(law.family),
        "eta": float(eta),
        "eps": eps,
        "k_max": k_max,
        "k0": k0,
        "ell": ell,
    }
    if ell is not None:
        tail = psi1_tail(law, ell + 1)
        chebychev = 9.0 * eta**-2 * ell**2 / k_max
        markov = 3.0 * eta**-1 * tail
        bound_at = min(1.0, chebychev + markov)
        ks = np.arange(1, k_max + 1, dtype=float)
        bounds = np.minimum(1.0, 9.0 * eta**-2 * ell**2 / ks + markov)
        viol = float(np.max(vals[1:] - bounds))
        allow = float(defects[1:].max()) + 1e-10
        if viol > allow:
            lhs = max(lhs, eps + slack + viol - allow)
            note = "three-term decomposition bound violated on the size grid"
        instance.update(
            tail_moment=tail,
            chebychev_at_kmax=chebychev,
            markov_term=markov,
            bound_at_kmax=bound_at,
        )
    else:
        note = "no truncation level clears the indicator term"
    return VerificationReport("lemma-wlln", instance, lhs, eps, slack, note=note)


def _first_clearing_level(law: OffspringLaw, bar: float) -> int | None:
    """The least ``ell`` in 1..999,999 with ``psi1_tail(law, ell + 1) < bar``, or None.

    ``psi1_tail`` changes only at one past each atom, so up to one past the
    top count those levels are read off ``_psi1_tails``, and the ones within a
    relative 1e-9 of ``bar`` are summed again through ``psi1_tail`` in order.
    Past it ``psi1_tail`` is the tail bound alone, which never increases, so
    the first level below ``bar`` is found by bisection on its exact values.
    """
    top = 1_000_000
    ks = law.counts
    past = int(ks[-1]) + 1
    js = np.append(2, ks[(ks >= 2) & (ks < top)] + 1)
    near = js[_psi1_tails(law, js) < bar * (1.0 + 1e-9)].tolist()
    hit = next((j for j in near if psi1_tail(law, j) < bar), None)
    if hit is None and law.tail_bound is not None and past < top:
        levels = range(past + 1, top + 1)
        hit = levels[0] + bisect.bisect_left(levels, True, key=lambda j: law.tail_bound(j) < bar)
    return hit - 1 if hit is not None and hit <= top else None


def verify_decomposition_identity(
    law: OffspringLaw,
    n: int,
    z0: int = 1,
    budget: float = DEFAULT_TAIL_BUDGET,
) -> VerificationReport:
    """Splitting the ratio law at survival of the earlier generation.

    Atom by atom, the unconditional ratio law must equal the
    survival-conditioned law scaled by the survival mass plus a point mass
    at zero carrying the extinction mass.
    """
    if n < 1:
        raise InvalidParameter("horizon n must be at least 1")
    joint = Propagator(law, z0=z0, n_max=n, budget=budget).joint(n)
    unconditional = estimator_law(joint).law
    alive_mass = float(joint.probs[joint.prev > 0].sum())
    extinct_mass = float(joint.probs.sum()) - alive_mass
    degenerate = alive_mass < MIN_SURVIVAL
    # The recombined law, then minus the unconditional one: the merge adds
    # each atom's entries in input order.
    recombined = [(np.zeros(1, np.int64), np.ones(1, np.int64), np.array([extinct_mass]))]
    if not degenerate:
        cond = estimator_law(joint, conditioned=True).law
        recombined.insert(0, (cond.nums, cond.dens, cond.weights_array * alive_mass))
    uncond = (unconditional.nums, unconditional.dens, -unconditional.weights_array)
    diff = merge_atoms(*map(np.concatenate, zip(*recombined, uncond)))[2]
    worst = float(np.abs(diff).max())
    if degenerate:
        instance = {"survival": alive_mass, "n": n, "z0": z0, "degenerate": True}
        note = "survival negligible; identity reduces to the extinction atom"
        return VerificationReport("lemma-decomposition", instance, worst, 0.0, 1e-12, note=note)
    instance = {
        "family": _family_label(law.family),
        "n": n,
        "z0": z0,
        "survival": alive_mass,
        "extinct": extinct_mass,
        "atoms": len(diff),
    }
    return VerificationReport("lemma-decomposition", instance, worst, 0.0, 1e-12)


def _psi1_tails(law: OffspringLaw, js: np.ndarray) -> np.ndarray:
    """``psi1_tail(law, j)`` for each of the increasing ``js``, up to rounding:
    one reversed cumulative sum of the atoms and the tail bound on arrays."""
    ks = law.counts
    suffix = np.append(np.cumsum((ks * law.probs)[::-1])[::-1], 0.0)
    tails = suffix[np.searchsorted(ks, js)]
    if law.tail_bound is not None:
        tails += law.tail_bound.approx(js)
    return tails


def verify_mean_continuity(law1: OffspringLaw, law2: OffspringLaw) -> VerificationReport:
    """Mean distance against the truncation-split bound.

    For any level ``ell``, ``|m1 - m2|`` is at most ``2 ell d_TV`` from the
    sizes up to ``ell`` plus both first-moment tails above it; the check
    scans ``ell`` to one past the larger top count and uses the first
    minimizer.  Every level's bound is read, up to rounding, off one
    reversed cumulative sum per law; only the levels within a relative 1e-9
    of the least are summed again through ``psi1_tail``, in the scan's order.
    """
    d_tv, d_slack = tv_distance(law1.measure, law2.measure)
    ells = np.arange(1, int(max(law1.counts[-1], law2.counts[-1])) + 2)
    near = 2.0 * ells * d_tv + _psi1_tails(law1, ells + 1) + _psi1_tails(law2, ells + 1)
    best = math.inf
    best_ell = 1
    for ell in ells[near <= near.min() * (1.0 + 1e-9)].tolist():
        bound = 2.0 * ell * d_tv + psi1_tail(law1, ell + 1) + psi1_tail(law2, ell + 1)
        if bound < best:
            best = bound
            best_ell = ell
    lhs = abs(law1.mean_m - law2.mean_m)
    tail1 = law1.tail_bound(0) if law1.tail_bound is not None else 0.0
    tail2 = law2.tail_bound(0) if law2.tail_bound is not None else 0.0
    slack = 2.0 * best_ell * d_slack + tail1 + tail2 + 1e-12
    instance = {
        "family1": _family_label(law1.family),
        "family2": _family_label(law2.family),
        "d_tv": d_tv,
        "ell": best_ell,
        "m1": law1.mean_m,
        "m2": law2.mean_m,
    }
    return VerificationReport("lemma-mean-continuity", instance, lhs, best, slack)


def run_default_suite(
    budget: float = DEFAULT_TAIL_BUDGET,
    claims: Iterable[str] | None = None,
) -> list[VerificationReport]:
    """Every inequality check on its desk-scale reference instances.

    ``claims`` restricts the run to the given claim ids; unknown ids raise.
    The binary(0.75) consistency and occupancy checks share one propagation:
    they get the same powers in the same order, the one case ``PowerCache`` allows.
    """
    b75 = build(FamilySpec.binary(0.75), budget)
    b74 = build(FamilySpec.binary(0.74), budget)
    b73 = build(FamilySpec.binary(0.73), budget)
    b80 = build(FamilySpec.binary(0.80), budget)
    b78 = build(FamilySpec.binary(0.78), budget)
    t1 = build(FamilySpec.three_point(0.20, 0.50, 0.30), budget)
    t2 = build(FamilySpec.three_point(0.25, 0.45, 0.30), budget)
    poi1 = build(FamilySpec.poisson(2.0), budget)
    poi2 = build(FamilySpec.poisson(2.02), budget)
    b75_to_12 = Propagator(b75, n_max=12)  # at the checks' default budget, as each runs alone
    cases = [
        ("lemma-joint-tv", lambda: verify_joint_tv_bound(b75, b75, 2, 1)),
        ("lemma-joint-tv", lambda: verify_joint_tv_bound(b80, b78, 1, 1)),
        ("lemma-joint-tv", lambda: verify_joint_tv_bound(b75, b73, 3, 1)),
        ("lemma-joint-tv", lambda: verify_joint_tv_bound(t1, t2, 2, 2)),
        ("lemma-extinction-lipschitz", lambda: verify_extinction_bound(b75, b75, 5)),
        ("lemma-extinction-lipschitz", lambda: verify_extinction_bound(b75, b74, 20)),
        (
            "theorem-conditional-consistency",
            lambda: verify_conditional_consistency(b75, 0.4, 0.1, range(2, 13), _prop=b75_to_12),
        ),
        (
            "lemma-conditional-occupancy",
            lambda: verify_conditional_occupancy(b75, 2, range(1, 13), _prop=b75_to_12),
        ),
        ("lemma-wlln", lambda: verify_wlln(b75, 0.25, 0.05)),
        ("lemma-decomposition", lambda: verify_decomposition_identity(b75, 2, 1)),
        ("lemma-decomposition", lambda: verify_decomposition_identity(t1, 3, 2)),
        ("lemma-mean-continuity", lambda: verify_mean_continuity(b75, b74)),
        ("lemma-mean-continuity", lambda: verify_mean_continuity(poi1, poi2)),
    ]
    if claims is None:
        wanted = None
    else:
        wanted = set(claims)
        unknown = wanted - set(CLAIM_IDS)
        if unknown:
            raise InvalidParameter(f"unknown claim ids: {sorted(unknown)}")
    return [thunk() for claim, thunk in cases if wanted is None or claim in wanted]
