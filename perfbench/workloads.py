"""The benchmark workloads: their inputs, operations and output checks.

Each workload is a closed loop of calls into gwlab's public entry points,
made one after another in a single process with ``jobs=1``.  A workload
builds its inputs once (``inputs``), then a pass calls every operation in
order (``operations``); each operation's output is checked afterwards
(``check``), outside the timed pass and with tracing paused.

This module imports only the standard library at load time, so the
fresh-interpreter set-up probe can import it before its clock starts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

# Outputs of the code as it stood when the benchmark was defined.  A later
# change that keeps behaviour must reproduce them.
BINARY_MODULI = (
    0.030303030303030276,
    0.01831615041408796,
    0.0,
    0.01851851851851838,
    0.03154317370437598,
)
SUITE_CLAIMS = (
    "lemma-joint-tv",
    "lemma-joint-tv",
    "lemma-joint-tv",
    "lemma-joint-tv",
    "lemma-extinction-lipschitz",
    "lemma-extinction-lipschitz",
    "theorem-conditional-consistency",
    "lemma-conditional-occupancy",
    "lemma-wlln",
    "lemma-decomposition",
    "lemma-decomposition",
    "lemma-mean-continuity",
    "lemma-mean-continuity",
)
SUITE_LHS = (
    0.0,
    0.020000000000000018,
    0.04240007636066008,
    0.11162008984374998,
    0.0,
    0.018017859643520096,
    0.005435450317920383,
    -0.019078266195204537,
    0.048124031995923584,
    0.0,
    2.7755575615628914e-17,
    0.020000000000000018,
    0.01999999999999691,
)
BL_VALUES = {
    1: 0.010000000000000009,
    2: 0.014900000000000024,
    3: 0.016761510000000035,
    4: 0.017956702939355147,
    5: 0.019180006054691716,
}
BL_HORIZONS = tuple(range(1, 7))
SIM_REPLICATIONS = 10**6
SIM_HORIZON = 8
# sha256 of the replication table of binary(0.75) at seed 0; see table_digest.
SIM_DIGEST_SEED = 0
SIM_DIGEST = "5fbf7b2246245a491966ae7b7c95f0dd731a61071f5964bdee62f31f360bc9be"
# Gate 9 of the acceptance tests: empirical against exact law at n = 3.
SIM_GATE_N = 3
SIM_GATE_PROHOROV = 0.01

PIN_TOL = 1e-9
TV_TOL = 1e-11
CERT_TOL = 1e-9


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    """``busy`` and ``idle`` name the per-layer counts a traced pass must
    find non-zero and zero; the traced run fails when one does not hold.
    ``may_fail`` maps an operation's label to the exception types it may
    raise and still leave the run correct; any other exception is wrong."""

    name: str
    why: str
    inputs: Callable[[Any, int], dict]
    operations: Callable[[Any, dict], list[tuple[str, Callable[[], Any]]]]
    check: Callable[[Any, dict, str, Any, int], None]
    busy: tuple[str, ...]
    idle: tuple[str, ...]
    may_fail: dict[str, tuple[str, ...]] = field(default_factory=dict)


# -- binary-sweep ---------------------------------------------------------------


def _binary_inputs(gw, seed: int) -> dict:
    return {"spec": gw.binary_sweep_spec(seed=seed)}


def _sweep_ops(gw, inp: dict):
    return [("sweep", lambda: gw.robustness_modulus(inp["spec"], jobs=1))]


def _binary_check(gw, inp, label, rows, seed) -> None:
    _require(len(rows) == len(BINARY_MODULI), f"{len(rows)} rows, want 5")
    for row, want in zip(rows, BINARY_MODULI):
        got = float(row["modulus"])
        _require(abs(got - want) <= PIN_TOL, f"row {row['index']}: modulus {got!r} != {want!r}")
        _require(got <= 0.1, f"row {row['index']}: modulus {got} above 0.1")
        _require(row["mc_from"] is None, f"row {row['index']} left the exact route")
    _require(float(rows[2]["modulus"]) == 0.0, "centre row modulus is not exactly 0")


# -- contamination-sweep ---------------------------------------------------------


CONTAMINATION_K = 50


def _contamination_inputs(gw, seed: int) -> dict:
    return {"spec": gw.contamination_sweep_spec(k_values=(CONTAMINATION_K,), seed=seed)}


def _contamination_check(gw, inp, label, rows, seed) -> None:
    _require(len(rows) == 1, f"{len(rows)} rows, want 1")
    row = rows[0]
    _require(
        abs(float(row["d_tv"]) - 1.0 / CONTAMINATION_K) <= TV_TOL,
        f"d_tv {row['d_tv']!r} != 1/{CONTAMINATION_K}",
    )
    _require(float(row["modulus"]) >= 0.1, f"modulus {row['modulus']} below 0.1")
    _require(row["mc_from"] == 3, f"mc_from {row['mc_from']!r}, want 3")


# -- simulate ---------------------------------------------------------------------


def table_digest(table) -> str:
    """sha256 over every level's (prev, curr, counts) and the exclusions."""
    import numpy as np

    h = hashlib.sha256()
    for n in sorted(table.levels):
        for arr in table.levels[n]:
            h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(table.excluded, dtype=np.int64).tobytes())
    return h.hexdigest()


def _simulate_inputs(gw, seed: int) -> dict:
    return {
        "law": gw.build(gw.FamilySpec.binary(0.75)),
        "cfg": gw.SimConfig(seed=seed, replications=SIM_REPLICATIONS, n_max=SIM_HORIZON),
    }


def _simulate_ops(gw, inp: dict):
    def simulate_and_tabulate():
        table = gw.simulate_paths(inp["law"], inp["cfg"], jobs=1)
        laws = [gw.binned_estimator_law(table, n) for n in range(1, SIM_HORIZON + 1)]
        return table, laws

    return [("simulate", simulate_and_tabulate)]


def _simulate_check(gw, inp, label, out, seed) -> None:
    table, laws = out
    if seed == SIM_DIGEST_SEED:
        digest = table_digest(table)
        _require(digest == SIM_DIGEST, f"table digest {digest[:16]}... does not match")
    for n, (law, _radius) in enumerate(laws, start=1):
        mass = law.total_mass + law.defect
        _require(abs(mass - 1.0) <= 1e-9, f"binned law at n={n} holds mass {mass}")
    law = inp["law"]
    empirical = gw.empirical_estimator_law(table, SIM_GATE_N)
    exact = gw.estimator_law(gw.joint_law(law, SIM_GATE_N)).law
    dist = gw.prohorov(empirical, exact).value
    _require(dist <= SIM_GATE_PROHOROV, f"Prohorov(empirical, exact) at n=3 is {dist}")


# -- verify-suite -----------------------------------------------------------------


def _suite_inputs(gw, seed: int) -> dict:
    return {}


def _suite_ops(gw, inp: dict):
    return [("suite", lambda: gw.run_default_suite())]


def _suite_check(gw, inp, label, reports, seed) -> None:
    _require(len(reports) == len(SUITE_LHS), f"{len(reports)} reports, want 13")
    for i, (rep, claim, want) in enumerate(zip(reports, SUITE_CLAIMS, SUITE_LHS)):
        _require(rep.claim_id == claim, f"report {i} is {rep.claim_id}, want {claim}")
        _require(rep.passed, f"report {i} ({claim}) failed: {rep.note}")
        _require(
            abs(rep.lhs - want) <= PIN_TOL, f"report {i} ({claim}): lhs {rep.lhs!r} != {want!r}"
        )


# -- bl-ladder ----------------------------------------------------------------------


def _bl_inputs(gw, seed: int) -> dict:
    center = gw.build(gw.FamilySpec.binary(0.75))
    shifted = gw.build(gw.FamilySpec.binary(0.74))
    return {
        n: (
            gw.estimator_law(gw.joint_law(center, n)).law,
            gw.estimator_law(gw.joint_law(shifted, n)).law,
        )
        for n in BL_HORIZONS
    }


def _bl_ops(gw, inp: dict):
    return [
        (f"n={n}", lambda a=a, b=b: gw.bounded_lipschitz(a, b))
        for n, (a, b) in inp.items()
    ]


def check_bl_certificate(a, b, result) -> None:
    """The dual certificate is feasible and reproduces the reported value.

    ``values`` is a function h on ``points`` with ``|h| <= sup``, adjacent
    slopes at most ``lipschitz`` and ``lipschitz + sup <= 1``; the value is
    ``sum (a - b) h``.  This checks a result without a pinned number.
    """
    cert = result.certificate
    points = [Fraction(p) for p in cert["points"]]
    h = [float(v) for v in cert["values"]]
    lip, sup = float(cert["lipschitz"]), float(cert["sup"])
    _require(len(points) == len(h), "certificate points and values differ in length")
    union = sorted(set(a.support) | set(b.support))
    _require(
        points == [Fraction(float(x)) for x in union],
        "certificate points are not the union support",
    )
    _require(lip >= -CERT_TOL and sup >= -CERT_TOL, "negative Lipschitz constant or sup")
    _require(lip + sup <= 1.0 + CERT_TOL, f"lipschitz + sup = {lip + sup} above 1")
    _require(max(abs(v) for v in h) <= sup + CERT_TOL, "|h| exceeds sup")
    for i in range(len(h) - 1):
        gap = float(union[i + 1] - union[i])
        _require(
            abs(h[i + 1] - h[i]) <= lip * gap + CERT_TOL, f"slope at point {i} exceeds lipschitz"
        )
    value = sum((a.mass_at(x) - b.mass_at(x)) * v for x, v in zip(union, h))
    _require(
        abs(max(value, 0.0) - result.value) <= CERT_TOL,
        f"certificate gives {value!r}, result says {result.value!r}",
    )


def _bl_check(gw, inp, label, result, seed) -> None:
    n = int(label.split("=")[1])
    a, b = inp[n]
    if n in BL_VALUES:
        want = BL_VALUES[n]
        _require(abs(result.value - want) <= PIN_TOL, f"value {result.value!r} != {want!r}")
    check_bl_certificate(a, b, result)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "binary-sweep",
            "parametric robustness: exact route only, Prohorov and max-flow do nearly all the work",
            _binary_inputs,
            _sweep_ops,
            _binary_check,
            busy=(
                "metrics.prohorov.calls",
                "maxflow.solve.calls",
                "lab.modulus.calls",
                "lab.route.exact_horizons",
            ),
            idle=("montecarlo.simulate.calls", "montecarlo.tabulate.calls", "lab.route.mc_horizons"),
        ),
        Workload(
            "contamination-sweep",
            "the negative result: 64k-atom exact law, large convolutions, exact to Monte Carlo switch at n=3",
            _contamination_inputs,
            _sweep_ops,
            _contamination_check,
            busy=(
                "metrics.prohorov.calls",
                "maxflow.solve.calls",
                "engine.power_get.calls",
                "engine.generation.calls",
                "engine.joint.calls",
                "estimator.law.calls",
                "montecarlo.simulate.calls",
                "montecarlo.tabulate.calls",
                "lab.modulus.calls",
                "lab.route.exact_horizons",
                "lab.route.mc_horizons",
            ),
            idle=(),
        ),
        Workload(
            "simulate",
            "10^6 seeded replications to n=8 plus binning at every level: Monte Carlo drawing and tabulation",
            _simulate_inputs,
            _simulate_ops,
            _simulate_check,
            busy=("montecarlo.simulate.calls", "montecarlo.tabulate.calls"),
            idle=("maxflow.solve.calls", "metrics.prohorov.calls"),
        ),
        Workload(
            "verify-suite",
            "all 13 inequality checks: exact Fraction loops, no Prohorov and no Monte Carlo; set-up is half the cost",
            _suite_inputs,
            _suite_ops,
            _suite_check,
            busy=(
                "engine.generation.calls",
                "engine.joint.calls",
                "estimator.consistency.calls",
                "offspring.build.calls",
                "measures.tv.calls",
            ),
            idle=("maxflow.solve.calls", "metrics.prohorov.calls", "montecarlo.simulate.calls"),
        ),
        Workload(
            "bl-ladder",
            "bounded-Lipschitz LP at horizons 1..6, the only simplex user; horizon 6 (161 atoms) is where the LP gets hard",
            _bl_inputs,
            _bl_ops,
            _bl_check,
            busy=("metrics.bounded_lipschitz.calls", "simplex.maximize.calls"),
            idle=("montecarlo.simulate.calls", "montecarlo.tabulate.calls"),
            # The dense simplex runs out of pivots at horizon 6.  The failure
            # is counted, not hidden; a solver that succeeds there is checked
            # through its certificate instead.
            may_fail={f"n={BL_HORIZONS[-1]}": ("SimplexIterationLimit",)},
        ),
    )
}
