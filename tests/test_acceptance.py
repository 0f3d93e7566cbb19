"""Release gates: ten numbered end-to-end checks with pinned tolerances.

Each check covers one promise the package makes, from the trajectory-level
total variation bound down to Monte Carlo cross-validation, and reports a
verdict line in the terminal summary (see ``record_criterion`` in
conftest).  Runtime ceilings assume a single core and the default
truncation budget.  Criterion 10 has a known failing leg, recorded as a
strict xfail rather than hidden; the reason string on the marker explains
why no conforming implementation can pass it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import as_arrays, random_measure, random_offspring_pair, record_criterion
from gwlab import (
    DiscreteMeasure,
    FamilySpec,
    SimConfig,
    SupercriticalRequired,
    binary_sweep_spec,
    bounded_lipschitz,
    build,
    contamination_sweep_spec,
    empirical_estimator_law,
    estimator_law,
    extinction_probability,
    extinction_transform,
    joint_law,
    pgf,
    pgf_derivative,
    prohorov,
    propagate,
    simulate_paths,
    survival_transform,
    tv_distance,
    verify_conditional_consistency,
    verify_extinction_bound,
    verify_joint_tv_bound,
)

GW = [sys.executable, "-m", "gwlab.cli"]
DATA = Path(__file__).parent / "data"


def run_modulus(spec, path, pin):
    """Rows of ``gw modulus`` on ``spec``, whose CSV stdout must equal ``pin``."""
    path.write_text(json.dumps(spec.to_json_dict()))
    env = os.environ.copy()
    env.pop("GW_BUDGET", None)
    out = subprocess.run(
        GW + ["modulus", "--config", str(path), "--no-timestamp"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == (DATA / pin).read_text(), pin
    lines = [l for l in out.stdout.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_01_joint_tv_growth_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = -np.inf
    for i in range(100):
        law1, law2 = random_offspring_pair(rng)
        report = verify_joint_tv_bound(law1, law2, n=1 + i % 4, z0=1 + i % 2)
        assert report.lhs <= report.rhs + 1e-10
        worst = max(worst, report.lhs - report.rhs)
    elapsed = time.perf_counter() - start
    # Twice the slowest of five runs of this gate alone: 0.27-0.30 s on a
    # 2-core Xeon (0.28, 0.30, 0.27, 0.28, 0.28 s).
    assert elapsed < 0.61
    record_criterion(
        1,
        "PASS",
        f"trajectory TV within z0 * C_n * d_tv on 100 random pairs, "
        f"n 1..4, z0 1..2 (worst margin {worst:+.1e}, {elapsed:.1f} s)",
    )


def test_criterion_02_extinction_lipschitz_bound():
    start = time.perf_counter()
    pairs = [(0.75, 0.74), (0.75, 0.755), (0.6, 0.61), (0.9, 0.892), (0.66, 0.67)]
    sgrid = np.linspace(0.0, 1.0, 101)
    for p1, p2 in pairs:
        law1 = build(FamilySpec.binary(p1))
        law2 = build(FamilySpec.binary(p2))
        for n in range(1, 21):
            report = verify_extinction_bound(law1, law2, n)
            assert report.lhs <= report.rhs + 1e-10
        d_tv, _ = tv_distance(law1.measure, law2.measure)
        for s in sgrid:
            assert abs(pgf(law1, s) - pgf(law2, s)) <= d_tv + 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    record_criterion(
        2,
        "PASS",
        f"extinction-iterate gap within geometric-sum * d_tv for 5 binary "
        f"pairs, n 1..20, plus one-step pgf bound on 101 grid points "
        f"({elapsed:.2f} s)",
    )


def test_criterion_03_prohorov_matches_subset_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        a = random_measure(rng, max_atoms=8)
        b = random_measure(rng, max_atoms=8)
        result = prohorov(a, b)
        reference = oracles.prohorov(*as_arrays(a), *as_arrays(b))
        worst = max(worst, abs(result.value - reference))
        assert abs(result.value - reference) <= 1e-9
        cert = result.certificate
        oracles.validate_coupling(cert, tol=1e-10)
        assert max(oracles.marginal_errors(cert)) <= 1e-10 + a.defect + b.defect
        assert oracles.band_mass(cert) >= 1.0 - result.value - 1e-10
    elapsed = time.perf_counter() - start
    # Twice the slowest of five runs of this gate alone: 0.37-0.49 s on a
    # 2-core Xeon (0.43, 0.37, 0.49, 0.47, 0.47 s).
    assert elapsed < 0.98
    record_criterion(
        3,
        "PASS",
        f"max-flow Prohorov equals subset enumeration on 200 random pairs "
        f"(worst gap {worst:.1e}) with valid certificates ({elapsed:.1f} s)",
    )


def test_criterion_04_prohorov_equals_tv_on_integer_supports():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        a = random_measure(rng, integer=True)
        b = random_measure(rng, integer=True)
        rho = prohorov(a, b).value
        d_tv, _ = tv_distance(a, b)
        worst = max(worst, abs(rho - d_tv))
        assert abs(rho - d_tv) <= 1e-9
    for i in range(13):
        for j in range(13):
            pa = DiscreteMeasure.from_items([(Fraction(i, 4), 1.0)])
            pb = DiscreteMeasure.from_items([(Fraction(j, 4), 1.0)])
            assert prohorov(pa, pb).value == min(1.0, abs(i - j) / 4)
    elapsed = time.perf_counter() - start
    # Twice the slowest of five runs of this gate alone: 0.14-0.19 s on a
    # 2-core Xeon (0.18, 0.19, 0.17, 0.15, 0.14 s).
    assert elapsed < 0.38
    record_criterion(
        4,
        "PASS",
        f"Prohorov equals TV on 100 integer-supported pairs (worst gap "
        f"{worst:.1e}) and min(1, |a-b|) on a 13x13 point-mass grid, exact "
        f"({elapsed:.2f} s)",
    )


def test_criterion_05_prohorov_squared_below_bounded_lipschitz():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(100):
        a = random_measure(rng, max_atoms=10)
        b = random_measure(rng, max_atoms=10)
        rho = prohorov(a, b).value
        beta = bounded_lipschitz(a, b).value
        assert rho * rho <= 1.5 * beta + 1e-8
    worst = 0.0
    for _ in range(40):
        a = random_measure(rng, max_atoms=4)
        b = random_measure(rng, max_atoms=4)
        beta = bounded_lipschitz(a, b).value
        reference = oracles.bounded_lipschitz(*as_arrays(a), *as_arrays(b))
        worst = max(worst, abs(beta - reference))
        assert abs(beta - reference) <= 2e-3
    elapsed = time.perf_counter() - start
    # Twice the slowest of five runs of this gate alone: 3.4-3.7 s on a
    # 2-core Xeon (3.48, 3.46, 3.43, 3.47, 3.71 s), most of it linprog's
    # per-call overhead on 140 small LPs.
    assert elapsed < 7.42
    record_criterion(
        5,
        "PASS",
        f"rho^2 <= 1.5 * beta on 100 random pairs; LP value matches the "
        f"piecewise-linear grid search on 40 small pairs (worst gap "
        f"{worst:.1e}, {elapsed:.1f} s)",
    )


def test_criterion_06_pair_law_matches_tree_enumeration(b75, t1):
    start = time.perf_counter()
    for law in (b75, t1):
        joint = joint_law(law, 2)
        assert joint.defect == 0.0
        pmf = {int(x): w for x, w in law.measure.items()}
        reference = oracles.joint_pairs(pmf, 2, 1)
        got = {
            (int(j), int(k)): p
            for j, k, p in zip(joint.prev, joint.curr, joint.probs)
        }
        assert set(got) == set(reference)
        for key, weight in reference.items():
            assert abs(got[key] - weight) <= 1e-15
    assert propagate(b75, 2).mass_at(0) == 0.296875
    elapsed = time.perf_counter() - start
    # Five runs of this gate alone took 1.2-1.4 ms on a 2-core Xeon (1.3,
    # 1.2, 1.4, 1.2, 1.4 ms).  Twice that is below one scheduler slice or
    # one full garbage collection of the test process, so the ceiling is
    # held at 0.05 s: it still fails a gate that is slower by a factor 35.
    assert elapsed < 0.05
    record_criterion(
        6,
        "PASS",
        "joint (Z_1, Z_2) law equals exhaustive tree enumeration for the "
        "binary and three-point laws (defect 0, atom gap <= 1e-15); "
        "P[Z_2 = 0] = 0.296875 exactly",
    )


def test_criterion_07_conditional_deviation_drops_below_gate(b75):
    start = time.perf_counter()
    report = verify_conditional_consistency(
        b75, 0.4, 0.1, range(2, 13), exact_cutoff=20_000
    )
    inst = report.instance
    assert report.passed
    first = inst["first_n_below"]
    assert first is not None and first <= 12
    assert inst["values"][first] < 0.1
    assert inst["decreasing_last_exact"]
    assert len(inst["exact_tail"]) >= 4
    elapsed = time.perf_counter() - start
    # Twice the slowest of five runs of this gate alone: 0.09-0.11 s on a
    # 2-core Xeon (0.087, 0.113, 0.086, 0.112, 0.101 s).
    assert elapsed < 0.225
    record_criterion(
        7,
        "PASS",
        f"P[|ratio - 1.5| >= 0.4 | survival] drops below 0.1 at n = {first} "
        f"and decreases over the last {len(inst['exact_tail'])} exact "
        f"horizons ({elapsed:.1f} s)",
    )


def test_criterion_08_modulus_contrast_between_families(tmp_path):
    start = time.perf_counter()
    binary_rows = run_modulus(
        binary_sweep_spec(), tmp_path / "binary.json", "modulus_binary_sweep.csv"
    )
    assert len(binary_rows) == 5
    for row in binary_rows:
        assert float(row["modulus"]) <= 0.1
    centers = [row for row in binary_rows if float(row["d_tv"]) == 0.0]
    assert centers and all(float(row["modulus"]) == 0.0 for row in centers)

    contamination_rows = run_modulus(
        contamination_sweep_spec(), tmp_path / "contamination.json",
        "modulus_contamination_sweep.csv",
    )
    k_values = (20, 25, 30, 40, 50)
    assert len(contamination_rows) == len(k_values)
    d_tvs = [float(row["d_tv"]) for row in contamination_rows]
    assert d_tvs == sorted(d_tvs, reverse=True)
    for row, k in zip(contamination_rows, k_values):
        assert float(row["d_tv"]) == pytest.approx(1 / k, abs=1e-11)
        assert float(row["modulus"]) >= 0.1
    elapsed = time.perf_counter() - start
    # Twice the slowest of five runs of this gate alone: 7.3-7.9 s on a
    # 2-core Xeon with the default --jobs (7.89, 7.52, 7.48, 7.46, 7.28 s).
    assert elapsed < 15.8
    record_criterion(
        8,
        "PASS",
        f"gw modulus: binary sweep stays below 0.1 while the vanishing "
        f"contamination mixtures (d_tv = 1/k down to 0.02) keep modulus "
        f">= 0.1 ({elapsed:.0f} s)",
    )


def test_criterion_09_simulation_reproduces_exact_law(b75):
    start = time.perf_counter()
    cfg = SimConfig(seed=909, replications=1_000_000, n_max=3)
    table = simulate_paths(b75, cfg)
    empirical = empirical_estimator_law(table, 3)
    exact = estimator_law(joint_law(b75, 3)).law
    distance = prohorov(empirical, exact).value
    assert distance <= 0.01
    assert oracles.tables_equal(table, simulate_paths(b75, cfg))
    assert oracles.tables_equal(table, simulate_paths(b75, cfg, jobs=3))
    elapsed = time.perf_counter() - start
    # Twice the slowest of five runs of this gate alone: 0.45-0.61 s on a
    # 2-core Xeon (0.49, 0.45, 0.60, 0.61, 0.53 s).
    assert elapsed < 1.22
    record_criterion(
        9,
        "PASS",
        f"10^6 seeded replications at n = 3: Prohorov(empirical, exact) = "
        f"{distance:.2e} <= 0.01, identical across reruns and jobs "
        f"({elapsed:.1f} s)",
    )


def test_criterion_10_transform_identities_on_attainable_legs():
    start = time.perf_counter()
    sgrid = [i / 10 for i in range(1, 10)]
    for spec in (FamilySpec.binary(0.75), FamilySpec.poisson(2.0)):
        law = build(spec)
        q = extinction_probability(law).value
        hat = survival_transform(law)
        assert hat.measure.mass_at(1) == pytest.approx(
            pgf_derivative(law, q), abs=1e-12
        )
        assert extinction_probability(hat).value == 0.0
        star = extinction_transform(law)
        assert star.mean_m == pytest.approx(pgf_derivative(law, q), abs=1e-12)
        assert star.mean_m < 1.0
        for s in sgrid:
            composed = (pgf(law, q + (1 - q) * s) - q) / (1 - q)
            assert pgf(hat, s) == pytest.approx(composed, abs=1e-10)
            assert pgf(star, s) == pytest.approx(pgf(law, q * s) / q, abs=1e-10)
    poly = build(FamilySpec.polynomial(3, truncation=200_000))
    assert extinction_probability(poly).value == 1.0
    star = extinction_transform(poly)
    assert star.mean_m == pytest.approx(poly.mean_m, abs=1e-12)
    assert star.mean_m < 1.0
    for s in sgrid:
        assert pgf(star, s) == pytest.approx(pgf(poly, s), abs=1e-10)
    elapsed = time.perf_counter() - start
    # Twice the slowest of five runs of this gate alone: 1.4-2.0 s on a
    # 2-core Xeon (2.02, 1.63, 1.41, 1.66, 1.60 s), scipy's first import
    # included.
    assert elapsed < 4.03


@pytest.mark.xfail(
    strict=True,
    raises=SupercriticalRequired,
    reason="the truncated polynomial(3) law has mean about 0.368, so it dies "
    "out surely (q = 1) and the survival transform's normalizer 1 - q is "
    "zero; no conditioned law exists.  Every other leg of this criterion "
    "passes in test_criterion_10_transform_identities_on_attainable_legs.",
)
def test_criterion_10_polynomial_survival_leg():
    record_criterion(
        10,
        "FAIL",
        "survival transform of polynomial(3) is undefined: the truncated "
        "law is subcritical (q = 1), so conditioning on survival divides "
        "by 1 - q = 0; all other transform legs pass",
    )
    poly = build(FamilySpec.polynomial(3, truncation=200_000))
    hat = survival_transform(poly)
    assert hat.measure.mass_at(0) == 0.0
