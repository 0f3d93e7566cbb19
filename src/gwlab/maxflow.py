"""Maximum matchable mass between two atom lists under a distance band.

``couple`` is the one place a band flow becomes a certified coupling, for
each Prohorov certificate and each Strassen coupling at a given ``eps``: for
atoms ``x_i`` with masses ``a_i`` and atoms ``y_j`` with masses ``b_j``, find
the largest total mass that can be shipped along pairs with ``|x_i - y_j| <=
eps``.  Because both supports are
sorted, left atom ``i`` sees a window ``[lo_i, hi_i)`` of right atoms and
both ends never decrease: the bipartite graph is a staircase.  On a
staircase the northwest-corner greedy, which fills each left atom from the
first right atom with room, is already a maximum flow (Hoffman 1963, "On
simple linear programming problems"; Glover 1967, "Maximum matching in a
convex bipartite graph").  The greedy has two forms.  ``staircase`` records
its edges, which come out sorted by both ends as its right index never
decreases.  ``_greedy_mass`` tracks only its position in cumulative right
mass, which gives the shipped mass that the Prohorov search's probes need.

One pass over the recorded flow then certifies it.  A residual search from
every left atom with supply left over, a seed, would follow band edges to
right atoms and flow edges back to left atoms.  The left atoms it reaches
form the Strassen set ``A``: every right atom within ``eps`` of ``A`` is
saturated by flow from ``A``, so the matched mass equals the cut ``a(A^c) +
b(A^eps)``, an upper bound on every band flow.  On the greedy's flow ``A``
is read off blocks: row ``r`` starts a block when no earlier row ships to a
right atom at or past ``lo_r``.  A seed filled its window, so later rows ship
past it, and the search from it steps down through flow edges until a block
starts.  Each row on the way has positive supply, so it shipped inside its
window or is a seed itself: ``A`` is every row whose next seed (itself or a
later row) lies in its block.  A right atom with room in a window of ``A``
would be an augmenting path, which the staircase argument rules out; it is
reported as ``SolverDidNotConverge`` rather than repaired.

Pair distances come from the atoms' integers.  For atoms ``n_i / d_i`` and
``m_j / e_j`` the distance is ``|n_i e_j - m_j d_i| / (d_i e_j)``, exact
products and one correctly rounded division: equal rationals get the same
float and rounding keeps their order.  Row ``i``'s distances fall over the
``split_i`` right atoms below ``x_i`` and then rise, so the pairs within
``t`` are a window.  The float gap ``|x_i - y_j|`` of the rounded atoms is
within ``Pairs.margin / 2`` of the distance, so searchsorted guesses at
``x_i -+ (t + margin)`` hold every window, and ``Pairs.windows`` only shrinks
them; only gaps near ``t``, or near the extreme gap in ``Pairs.extreme``,
need the integers.  Every band in the package is one of these windows.

Capacities are real-valued probabilities and the greedy has no floor: each
step either ends its row or empties a right atom to exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverDidNotConverge
from .measures import DiscreteMeasure, _float_values, _wide, left_sum

__all__ = ["Coupling", "Pairs", "staircase", "couple"]


@dataclass
class Coupling:
    """A joint measure on support-index pairs of two measures.

    Entry ``k`` puts ``mass[k]`` on left atom ``rows[k]`` and right atom
    ``cols[k]``; the pairs are distinct and sorted by ``(rows, cols)``.
    ``slack`` is the mass sitting on pairs farther apart than ``eps``; a
    Strassen coupling at level ``eps`` keeps ``slack <= eps``.

    ``strassen`` masks a set ``A`` of left atoms, the Strassen set of the
    band flow solved at ``strassen_eps <= eps``.  No coupling puts
    more than the cut ``a(A^c) + b(A^r)`` within ``r = strassen_eps``, so a
    band mass at ``r`` that reaches the cut is maximal there.
    """

    left: DiscreteMeasure
    right: DiscreteMeasure
    eps: float
    rows: np.ndarray
    cols: np.ndarray
    mass: np.ndarray
    slack: float
    strassen: np.ndarray
    strassen_eps: float

    def to_json_dict(self) -> dict:
        entries = zip(self.rows.tolist(), self.cols.tolist(), self.mass.tolist())
        return {
            "eps": self.eps,
            "slack": self.slack,
            "entries": [[i, j, v] for i, j, v in entries],
        }


class Pairs:
    """The atom pairs ``(x_i, y_j)`` of two measures: their distances and the
    windows of the pairs within a distance."""

    def __init__(self, a: DiscreteMeasure, b: DiscreteMeasure):
        self.xs, self.ys = a.float_support, b.float_support
        self.nums, self.dens = _wide(*map(np.concatenate, ((a.nums, b.nums), (a.dens, b.dens))))
        # A gap is within 3 * 2^-53 (x + y) of its distance, plus 3 * 2^-1075
        # below the normal range: at most half of ``margin``.
        self.margin = 32.0 * np.spacing(max(self.xs[-1], self.ys[-1]))
        # ``split_i`` counts the right atoms below ``x_i``.  Distinct atoms differ by at
        # least 1 / den^2; where ``margin`` reaches that, floats may tie and integers decide.
        self.split = np.searchsorted(self.ys, self.xs, "left")
        if 1 / int(self.dens.max()) ** 2 <= self.margin:
            rows = np.flatnonzero(self.split < (end := np.searchsorted(self.ys, self.xs, "right")))
            while rows.size:
                cols = self.split[rows] + len(self.xs)
                rows = rows[self.nums[cols] * self.dens[rows] < self.nums[rows] * self.dens[cols]]
                self.split[rows] += 1
                rows = rows[self.split[rows] < end[rows]]

    def distance(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``|x_i - y_j|`` for each pair of ``rows`` and ``cols``, rounded once."""
        cols = cols + len(self.xs)
        left, right = self.dens[rows], self.dens[cols]
        return _float_values(abs(self.nums[rows] * right - self.nums[cols] * left), left * right)

    def extreme(self, rows: np.ndarray, cols: np.ndarray, largest: bool) -> float:
        """The largest (or least) distance of the pairs ``rows``, ``cols``, 0 (or inf)
        if none: only gaps within ``margin`` of the extreme gap can attain it."""
        pick, initial = (np.max, 0.0) if largest else (np.min, np.inf)
        gaps = np.abs(self.xs[rows] - self.ys[cols])
        near = np.abs(gaps - pick(gaps, initial=initial)) <= self.margin
        return float(pick(self.distance(rows[near], cols[near]), initial=initial))

    def windows(self, t: float, within: np.ndarray | None = None) -> np.ndarray:
        """``lo`` then ``hi``: windows ``[lo_i, hi_i)`` of the pairs within ``t``, shrunk one
        pair at a time from ``within`` (windows at a larger distance) or from guesses at
        the rounded ``x_i -+ (t + margin)``, which hold every window (see the module notes)."""
        xs, ys, split = self.xs, self.ys, self.split
        n, top = len(xs), len(ys) - 1
        if within is None:
            reach = t + self.margin
            lo = np.minimum(np.searchsorted(ys, xs - reach, "left"), split)
            hi = np.maximum(np.searchsorted(ys, xs + reach, "right"), split)
        else:
            lo, hi = np.split(within, 2)
        while True:
            cols = np.concatenate([np.minimum(lo, top), np.maximum(hi - 1, 0)])
            over = np.abs(ys[cols].reshape(2, n) - xs).ravel() - t  # gap less t
            far = over > 0.0
            unsure = np.flatnonzero(np.abs(over) <= self.margin)
            if unsure.size:
                far[unsure] = self.distance(unsure % n, cols[unsure]) > t
            lo_out, hi_out = far.reshape(2, n) & [lo < split, hi > split]
            if not (lo_out | hi_out).any():
                return np.concatenate([lo, hi])
            lo, hi = lo + lo_out, hi - hi_out


def staircase(
    supply: list[float], room: list[float], lo: list[int], hi: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The northwest-corner greedy on windows ``[lo_i, hi_i)`` of right atoms.

    Each left atom in turn fills from the first right atom of its window with
    room; every room starts positive.  Leaves what is unshipped in ``supply``
    and ``room``, and returns the edges ``rows``, ``cols``, ``mass``, each
    written once, and the mass summed row by row.
    """
    rows, cols, mass = [], [], []
    add_row, add_col, add_mass = rows.append, cols.append, mass.append
    matched = 0.0
    j = 0
    for i, (need, start, end) in enumerate(zip(supply, lo, hi)):
        if need <= 0.0:
            continue
        j = start if start > j else j
        shipped = 0.0
        while need > 0.0 and j < end:
            free = room[j]
            take = need if need <= free else free  # as min(need, free) picks
            add_row(i)
            add_col(j)
            add_mass(take)
            shipped += take
            room[j] = free - take
            need -= take
            if take == free:  # emptied: no later row finds room here
                j += 1
        supply[i] = need
        matched += shipped
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(mass), matched


def _greedy_mass(supply: list[float], cum: np.ndarray, edges: np.ndarray) -> float:
    """Mass the northwest-corner greedy ships on the windows ``edges`` (``lo``
    then ``hi``), tracked by its position alone.

    In cumulative right mass ``cum`` (from 0), with ``low_i``/``high_i`` at
    the ends of its window ``[lo_i, hi_i)``, atom ``i`` moves the position
    ``P`` to ``min(max(P, low_i) + supply_i, high_i)`` and ships what it
    passed over after ``max(P, low_i)``.
    """
    ends = cum[edges].tolist()
    pos = total = 0.0
    for mass, start, stop in zip(supply, ends, ends[len(supply) :]):
        start = pos if pos > start else start
        pos = start + mass
        pos = stop if pos > stop else pos
        total += pos - start
    return total


def couple(
    a: DiscreteMeasure, b: DiscreteMeasure, pairs: Pairs, edges: np.ndarray,
    band_eps: float, eps: float,
) -> tuple[Coupling, float]:
    """The coupling at ``eps`` certified by the band flow on the windows ``edges``
    (``lo`` then ``hi``) of the pairs within ``band_eps <= eps``, and the flow's mass.

    ``staircase`` fills the band, and one pass reads its Strassen set off the
    flow's blocks (see the module notes).  ``staircase`` on full windows then
    pairs leftover supply with leftover room in support order; a flow edge left
    one of its atoms at zero, so each pair is a new entry.  The slack is the
    paired mass off the band at ``eps``.
    """
    lo, hi = np.split(edges, 2)
    excess, resid = a.weights_array.tolist(), b.weights_array.tolist()
    rows, cols, mass, matched = staircase(excess, resid, lo.tolist(), hi.tolist())
    excess, resid = np.array(excess), np.array(resid)
    # Block ids from the last right atom each row's predecessors ship to, then
    # each row's next seed; the sentinel block 0 matches no row.
    index = np.arange(len(excess))
    prior = np.concatenate([[-1], cols])[np.searchsorted(rows, index)]
    block = np.cumsum(prior < lo)
    left, right = np.flatnonzero(excess > 0.0), np.flatnonzero(resid > 0.0)
    seen = np.append(block[left], 0)[np.searchsorted(left, index)] == block
    del index, prior, block  # sized by the left atoms, freed before completing
    if (np.searchsorted(right, hi[seen]) > np.searchsorted(right, lo[seen])).any():
        raise SolverDidNotConverge(
            f"band flow at eps={band_eps!r} left an augmenting path; "
            f"the staircase greedy is not maximal"
        )

    full = [0] * len(left), [len(right)] * len(left)
    p, q, pv, _ = staircase(excess[left].tolist(), resid[right].tolist(), *full)
    pi, pj = left[p], right[q]
    slack = left_sum(pv[pairs.distance(pi, pj) > eps].tolist())
    rows, cols, mass = map(np.concatenate, ((rows, pi), (cols, pj), (mass, pv)))
    order = np.lexsort((cols, rows))
    coupling = Coupling(a, b, eps, rows[order], cols[order], mass[order], slack, seen, band_eps)
    return coupling, matched
