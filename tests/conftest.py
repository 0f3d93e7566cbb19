"""Shared fixtures and seeded random-instance generators."""

from __future__ import annotations

import contextlib
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from gwlab import DiscreteMeasure, FamilySpec, build


def random_measure(
    rng: np.random.Generator,
    max_atoms: int = 8,
    denominator: int = 4,
    span: int = 24,
    integer: bool = False,
) -> DiscreteMeasure:
    """A measure with distinct atoms on a lattice and Dirichlet weights."""
    n = int(rng.integers(1, max_atoms + 1))
    pts = rng.choice(span, size=n, replace=False)
    if integer:
        support = [Fraction(int(p)) for p in pts]
    else:
        support = [Fraction(int(p), denominator) for p in pts]
    weights = rng.dirichlet(np.ones(n))
    return DiscreteMeasure.from_items(zip(support, weights))


def random_offspring_pair(rng: np.random.Generator):
    """A nearby pair from the binary or three-point family."""
    if rng.random() < 0.5:
        p1 = float(rng.uniform(0.15, 0.9))
        p2 = float(np.clip(p1 + rng.uniform(-0.1, 0.1), 0.05, 0.95))
        return build(FamilySpec.binary(p1)), build(FamilySpec.binary(p2))
    w1 = rng.dirichlet(np.ones(3))
    shift = rng.uniform(-0.05, 0.05, size=3)
    w2 = np.clip(w1 + shift, 0.01, None)
    w2 = w2 / w2.sum()
    return (
        build(FamilySpec.three_point(*map(float, w1))),
        build(FamilySpec.three_point(*map(float, w2))),
    )


@st.composite
def exact_route_cases(draw):
    """``(spec, n, z0)`` for bit-for-bit checks of the exact route: binary
    and three-point laws to n = 5, Poisson laws cut at the budget or at an
    explicit truncation (carrying a defect) to n = 3, from one or two ancestors."""
    family = draw(st.sampled_from(["binary", "three_point", "poisson"]))
    if family == "binary":
        spec, n_max = FamilySpec.binary(draw(st.floats(0.3, 0.95))), 5
    elif family == "three_point":
        a, b, c = draw(st.tuples(*[st.integers(1, 20)] * 3))
        spec, n_max = FamilySpec.three_point(a / (a + b + c), b / (a + b + c), c / (a + b + c)), 5
    else:
        lam = draw(st.floats(0.8, 2.5))
        spec, n_max = FamilySpec.poisson(lam, draw(st.sampled_from([None, 4, 6]))), 3
    return spec, draw(st.integers(1, n_max)), draw(st.sampled_from([1, 2]))


def idle_staircase(supply, room, lo, hi):
    """A stand-in for ``maxflow.staircase`` that ships nothing, so supply and room
    face each other across every nonempty window: an augmenting path."""
    return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), 0.0


@contextlib.contextmanager
def time_limit(seconds: float, what: str):
    """Raise ``TimeoutError`` naming ``what`` if the block runs past ``seconds``."""

    def stuck(signum, frame):
        raise TimeoutError(f"{what} did not finish")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def as_arrays(m: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    return np.array([float(x) for x in m.support]), np.array(m.weights)


def as_dict(m: DiscreteMeasure) -> dict:
    return {x: w for x, w in m.items()}


def joint_entries(joint) -> dict[tuple[int, int], float]:
    """A joint law's rows as ``{(prev, curr): prob}``."""
    return {
        (j, k): p
        for j, k, p in zip(joint.prev.tolist(), joint.curr.tolist(), joint.probs.tolist())
    }


@pytest.fixture(scope="session")
def b75():
    return build(FamilySpec.binary(0.75))


@pytest.fixture(scope="session")
def t1():
    return build(FamilySpec.three_point(0.20, 0.50, 0.30))


# The acceptance tests report one line per criterion so the verdicts are
# visible in the terminal summary even under quiet or captured runs.
_criterion_lines: dict[int, str] = {}


def record_criterion(number: int, status: str, detail: str) -> None:
    _criterion_lines[number] = f"criterion {number:2d}: {status}  {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_criterion_lines):
        terminalreporter.write_line(_criterion_lines[number])
