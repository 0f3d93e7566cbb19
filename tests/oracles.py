"""Independent reference implementations for cross-checking the package.

Everything here favors obviousness over speed: per-individual outcome
enumeration with itertools.product, dict-based convolution, subset
enumeration for the Prohorov metric, a Prohorov search on exact
``Fraction`` candidates, one over the full list of pair distances and one
by weighted medians only, and a grid search and a sparse LP on HiGHS for the
bounded-Lipschitz metric.  Tests compute expected values from these and
compare the fast implementations against them on small instances.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
from scipy.ndimage import maximum_filter1d

from gwlab.engine import JointLaw, Propagator, condition_on_survival, survival_mass
from gwlab.errors import DegenerateConditioning, InvalidParameter
from gwlab.estimator import deviation_mask
from gwlab.estimator import ratio_law as exact_ratio_law
from gwlab import metrics
from gwlab.maxflow import Pairs, _greedy_mass, couple
from gwlab.metrics import MetricResult
from gwlab.measures import (
    DiscreteMeasure, _cross, _float_values, group_pairs, merge_atoms, tv_distance,
)
from gwlab.montecarlo import SimTable, _bin_indices, _check_resolution, _draw_next, _event
from gwlab.offspring import psi1_tail

# -- laws as plain dicts -------------------------------------------------------


def dict_convolve(a: dict[int, float], b: dict[int, float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for x, p in a.items():
        for y, q in b.items():
            out[x + y] = out.get(x + y, 0.0) + p * q
    return out


def dict_power(pmf: dict[int, float], k: int) -> dict[int, float]:
    out = {0: 1.0}
    for _ in range(k):
        out = dict_convolve(out, pmf)
    return out


def dense_power(weights: np.ndarray, j: int) -> np.ndarray:
    """``j``-fold convolution power of a dense pmf, ``j >= 1``, by ``j - 1``
    plain convolutions with the base; no trimming, no lattice."""
    out = np.asarray(weights, dtype=float)
    for _ in range(j - 1):
        out = np.convolve(out, weights)
    return out


def sum_of_draws(pmf: dict[int, float], z: int) -> dict[int, float]:
    """Law of the sum of z draws by enumerating every outcome tuple.

    Full product enumeration blows up past a handful of draws, so larger z
    fall back to dict_power; the two are checked against each other where
    both are affordable, keeping the enumeration the ground truth.
    """
    if len(pmf) ** z > 200_000:
        return dict_power(pmf, z)
    out: dict[int, float] = {}
    items = sorted(pmf.items())
    for combo in itertools.product(items, repeat=z):
        total = sum(x for x, _ in combo)
        prob = 1.0
        for _, p in combo:
            prob *= p
        out[total] = out.get(total, 0.0) + prob
    return out


def path_law(pmf: dict[int, float], n: int, z0: int) -> dict[tuple[int, ...], float]:
    """Joint law of (Z_1, ..., Z_n) started from z0, by full path enumeration."""
    paths: dict[tuple[int, ...], float] = {(): 1.0}
    for _ in range(n):
        nxt: dict[tuple[int, ...], float] = {}
        for path, prob in paths.items():
            z = path[-1] if path else z0
            for total, p in sum_of_draws(pmf, z).items():
                key = path + (total,)
                nxt[key] = nxt.get(key, 0.0) + prob * p
        paths = nxt
    return paths


def generation_law(pmf: dict[int, float], n: int, z0: int) -> dict[int, float]:
    out: dict[int, float] = {}
    for path, prob in path_law(pmf, n, z0).items():
        out[path[-1]] = out.get(path[-1], 0.0) + prob
    return out


def joint_pairs(pmf: dict[int, float], n: int, z0: int) -> dict[tuple[int, int], float]:
    """Law of (Z_{n-1}, Z_n); Z_0 = z0 surely."""
    out: dict[tuple[int, int], float] = {}
    for path, prob in path_law(pmf, n, z0).items():
        prev = path[-2] if n >= 2 else z0
        key = (prev, path[-1])
        out[key] = out.get(key, 0.0) + prob
    return out


def ratio_law(
    pmf: dict[int, float], n: int, z0: int, conditioned: bool = False
) -> dict[Fraction, float]:
    """Law of Z_n / Z_{n-1} with the convention 0 on extinction."""
    out: dict[Fraction, float] = {}
    total = 0.0
    for (j, k), p in joint_pairs(pmf, n, z0).items():
        if j == 0:
            if conditioned:
                continue
            key = Fraction(0)
        else:
            key = Fraction(k, j)
        out[key] = out.get(key, 0.0) + p
        total += p
    if conditioned:
        out = {x: w / total for x, w in out.items()}
    return out


def trajectory_tv(
    pmf1: dict[int, float], pmf2: dict[int, float], n: int, z0: int
) -> float:
    p1 = path_law(pmf1, n, z0)
    p2 = path_law(pmf2, n, z0)
    keys = set(p1) | set(p2)
    return 0.5 * sum(abs(p1.get(key, 0.0) - p2.get(key, 0.0)) for key in keys)


def merge_by_dict(points: list[Fraction], weights: list[float]) -> dict[Fraction, float]:
    """Equal points' weights summed in input order in a ``Fraction`` dict,
    returned in increasing point order, zero sums kept."""
    acc: dict[Fraction, float] = {}
    for x, w in zip(points, weights):
        acc[x] = acc.get(x, 0.0) + w
    return dict(sorted(acc.items()))


def tv(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(key, 0.0) - b.get(key, 0.0)) for key in keys)


def deviation_mass(pmf: dict[int, float], k: int, eta: float) -> float:
    """P[|S_k/k - m| >= eta] for the sum S_k of k draws, via dict powers."""
    mean = sum(x * p for x, p in pmf.items())
    power = dict_power(pmf, k)
    return sum(p for total, p in power.items() if abs(total / k - mean) >= eta)


def deviates(num: int, den: int, m: Fraction, eta: Fraction) -> bool:
    """``|num/den - m| >= eta`` decided in Fraction arithmetic."""
    return abs(Fraction(num, den) - m) >= eta


# -- bit-for-bit references for the vectorized exact route ----------------------


def joint_by_sizes(prop: Propagator, n: int) -> JointLaw:
    """``prop.joint(n)`` by one pass per earlier size ``j``: the nonzero
    entries of ``P^j``, each times ``prev[j]``, in ``(prev, curr)`` order."""
    prev, defect = prop._dense_generation(n - 1)
    cols: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for j in np.flatnonzero(prev).tolist():
        w, d = prop.powers.dense(j)
        ks = np.nonzero(w)[0]
        cols.append((np.full(len(ks), j, dtype=np.int64), ks.astype(np.int64), prev[j] * w[ks]))
        defect += prev[j] * d
    prev_col, curr_col, prob_col = map(np.concatenate, zip(*cols))
    return JointLaw(n, prop.z0, prev_col, curr_col, prob_col, float(defect))


def joint_flat(prop: Propagator, n: int) -> JointLaw:
    """``prop.joint(n)`` as it was built from the whole powers: every entry
    of each ``P^j`` laid end to end, the nonzero ones read off the flat array."""
    prev, prev_defect = prop._dense_generation(n - 1)
    sizes = prop._plan(prev, n)
    powers = [prop.powers.dense(j) for j in sizes]
    flat = np.concatenate([w for w, _ in powers])
    starts = np.cumsum([0] + [len(w) for w, _ in powers[:-1]])
    rows = np.flatnonzero(flat)
    counts = np.diff(np.searchsorted(rows, starts), append=rows.size)
    defect = prev_defect
    for j, (_, d) in zip(sizes, powers):
        defect += prev[j] * d
    return JointLaw(
        n=n, z0=prop.z0, prev=np.repeat(sizes, counts), curr=rows - np.repeat(starts, counts),
        probs=np.repeat(prev[sizes], counts) * flat[rows], defect=float(defect),
    )


def consistency_by_law(joint: JointLaw, m, eta) -> tuple[float, float]:
    """``consistency_probability`` through the whole conditioned ratio law:
    condition on survival, merge every row, mask the atoms, and add the
    deviating weights one by one in support order."""
    cond = condition_on_survival(joint)
    law = exact_ratio_law(cond.prev, cond.curr, cond.probs, cond.defect)
    far = law.weights_array[deviation_mask(law.nums, law.dens, m, eta)]
    return (float(np.cumsum(far)[-1]) if far.size else 0.0), law.defect


def merge_reduced(nums: np.ndarray, dens: np.ndarray, weights: np.ndarray):
    """``merge_atoms``' atoms and weights for reduced atoms by equal pairs:
    stable float order, equal ``(num, den)`` neighbours merge, and ``Fraction``
    order where distinct atoms share a float."""
    values = np.array([n / d for n, d in zip(nums.tolist(), dens.tolist())], dtype=float)
    order = np.argsort(values, kind="stable")
    sn, sd = nums[order], dens[order]
    same = (sn[1:] == sn[:-1]) & (sd[1:] == sd[:-1])
    if (~same & (values[order][1:] == values[order][:-1])).any():
        exact = list(map(Fraction, nums.tolist(), dens.tolist()))
        order = np.array(sorted(range(len(exact)), key=exact.__getitem__), dtype=np.intp)
        sn, sd = nums[order], dens[order]
        same = (sn[1:] == sn[:-1]) & (sd[1:] == sd[:-1])
    first = np.concatenate([[True], ~same])[: len(sn)]
    index = np.empty(len(sn), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return sn[first], sd[first], np.bincount(index, weights=weights)


def difference_by_placement(a: DiscreteMeasure, b: DiscreteMeasure):
    """``measures.difference`` by placing ``b``'s atoms among ``a``'s.

    Both supports are sorted, so one ``searchsorted`` on the float values
    places ``b``'s atoms; an atom of ``b`` whose float equals that of the
    atom of ``a`` at its place must be that atom, and its weight is added
    there as ``a{x} + (-b{x})``.  When two distinct atoms share a float, the
    concatenation goes to ``merge_atoms`` instead.
    """
    fa, fb = a.float_support, b.float_support
    place = np.searchsorted(fa, fb)
    at = np.minimum(place, len(fa) - 1)
    shared = fa[at] == fb
    ia = at[shared]
    same = np.array_equal(a.nums[ia], b.nums[shared]) and np.array_equal(a.dens[ia], b.dens[shared])
    if not same:
        negated = (b.nums, b.dens, -b.weights_array)
        return merge_atoms(*map(np.concatenate, zip(a._arrays(), negated)))[:3]
    place = place[~shared]
    slots = place + np.arange(place.size)  # where b's own atoms land
    from_a = np.arange(len(fa))
    from_a += np.searchsorted(place, from_a, side="right")
    out = []
    for x, y in ((a.nums, b.nums), (a.dens, b.dens), (a.weights_array, -b.weights_array)):
        col = np.empty(len(fa) + place.size, dtype=np.result_type(x, y))
        col[from_a], col[slots] = x, y[~shared]
        out.append(col)
    out[2][from_a[ia]] += y[shared]  # a{x} + (-b{x}), as merge_atoms adds them
    return tuple(out)


def merge_atoms_by_sorted_copies(nums: np.ndarray, dens: np.ndarray, weights: np.ndarray):
    """``merge_atoms`` on sorted copies of ``nums`` and ``dens``: float ties
    confirmed between sorted neighbours, the kept atoms read off the copies."""
    values = _float_values(nums, dens)
    order = np.argsort(values)
    values, sn, sd = values[order], nums[order], dens[order]
    same = values[1:] == values[:-1]
    tie = np.flatnonzero(same)
    if not np.equal(*_cross(sn, sd, tie, tie + 1)).all():
        exact = list(map(Fraction, nums.tolist(), dens.tolist()))
        order = np.array(sorted(range(len(exact)), key=exact.__getitem__), dtype=np.intp)
        sn, sd = nums[order], dens[order]
        same = np.equal(*_cross(sn, sd, np.s_[:-1], np.s_[1:]))
    first = np.concatenate([[True], ~same])[: len(sn)]
    index = np.empty(len(sn), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return sn[first], sd[first], np.bincount(index, weights=weights), index


def reduced_rows(prev: np.ndarray, curr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``curr / prev`` in lowest terms by its own gcd, 0/1 where ``prev`` is 0."""
    dead = prev <= 0
    g = np.gcd(curr, prev)
    g[dead] = 1
    nums, dens = curr // g, prev // g
    nums[dead], dens[dead] = 0, 1
    return nums, dens


def ratio_law_by_rows(prev, curr, probs, defect) -> DiscreteMeasure:
    """``ratio_law`` by reducing every row, then merging the reduced pairs."""
    return DiscreteMeasure(*merge_reduced(*reduced_rows(prev, curr), probs), defect)


def consistency_by_rows(joint: JointLaw, m, eta) -> tuple[float, float]:
    """``consistency_probability`` by reducing every deviating row, then merging."""
    alive, survival = survival_mass(joint)
    far = alive & deviation_mask(joint.curr, joint.prev, m, eta)
    nums, dens = reduced_rows(joint.prev[far], joint.curr[far])
    weights = merge_reduced(nums, dens, joint.probs[far] / survival)[2]
    return (float(np.cumsum(weights)[-1]) if weights.size else 0.0), joint.defect / survival


# -- metrics -------------------------------------------------------------------


def _one_sided_deficit(
    xs: np.ndarray, ws: np.ndarray, ys: np.ndarray, vs: np.ndarray, c: float, tol: float = 1e-12
) -> float:
    """max over subsets A of supp(x) of  w(A) - v(A^c), a pair within ``c`` when
    its float gap is within ``c + tol``."""
    na = len(xs)
    masks = (
        np.arange(1, 2**na)[:, None] >> np.arange(na)[None, :]
    ) & 1  # (2^na - 1, na)
    masks = masks.astype(bool)
    cover = np.abs(xs[:, None] - ys[None, :]) <= c + tol  # (na, nb)
    a_mass = masks @ ws
    b_mass = ((masks @ cover.astype(np.int64)) > 0) @ vs
    return float(np.max(a_mass - b_mass))


def prohorov(
    xs: np.ndarray, ws: np.ndarray, ys: np.ndarray, vs: np.ndarray
) -> float:
    """Prohorov distance by subset enumeration over both supports.

    Uses the fact that the worst A is a subset of the left support and that
    the deficit is a nonincreasing step function of c with breakpoints at
    the pairwise distances: the answer is min over breakpoints d of
    max(d, deficit(d)).
    """
    xs, ws = np.asarray(xs, float), np.asarray(ws, float)
    ys, vs = np.asarray(ys, float), np.asarray(vs, float)
    dists = np.abs(xs[:, None] - ys[None, :]).ravel()
    candidates = np.unique(np.concatenate([[0.0], dists]))
    best = np.inf
    for c in candidates:
        deficit = max(
            _one_sided_deficit(xs, ws, ys, vs, c),
            _one_sided_deficit(ys, vs, xs, ws, c),
        )
        best = min(best, max(float(c), deficit))
    return best


def prohorov_exact(a, b) -> float:
    """Prohorov distance on exact candidates, the reference for ``gwlab.prohorov``.

    Every pair distance is listed as a reduced ``Fraction``.  A pair is within
    ``d`` when ``|x - y| <= d`` as ``Fraction``s, a comparison by integer
    cross-multiplication, so each row's window comes from two bisections of
    the exact right support.  ``M(d)`` is the value-only greedy, with no
    floor, on those windows.  The value is ``max(d_k, T - M(d_k))`` at the
    least candidate ``d_k`` with ``T - M(d_k) < d_{k+1}``, found by bisection.
    """
    xs, ys = a.support, b.support
    d = sorted({abs(x - y) for x in xs for y in ys} | {Fraction(0)})
    t_goal = max(a.total_mass, b.total_mass)
    a_list = a.weights_array.tolist()
    cum_b = np.concatenate([[0.0], np.cumsum(b.weights_array)])

    def deficit(k):
        lo = np.array([bisect_left(ys, x - d[k]) for x in xs], dtype=np.int64)
        hi = np.array([bisect_right(ys, x + d[k]) for x in xs], dtype=np.int64)
        return t_goal - _greedy_mass(a_list, cum_b, np.concatenate([lo, hi]))

    lo, hi = 0, len(d) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if deficit(mid) < d[mid + 1]:
            hi = mid
        else:
            lo = mid + 1
    return max(float(d[lo]), deficit(lo))


def prohorov_by_breakpoints(a, b, scan: bool = False):
    """Prohorov distance by searching the full list of pair distances.

    Every ``|x_i - y_j|`` (and 0) is listed as the float of its exact
    ``Fraction`` and sorted, and each probe of ``T - M(d_k) < d_{k+1}``
    takes ``M`` from the greedy on its windows.  The search bisects over the
    list, or walks it from the start when ``scan`` is set.  The result is
    built at the chosen ``d_k`` as in ``gwlab.prohorov``, ``M`` from the
    greedy and the coupling from ``gwlab.maxflow.couple``, so values and
    couplings are comparable bit for bit.
    """
    aw, bw = a.weights_array, b.weights_array
    t_goal = max(a.total_mass, b.total_mass)
    pairs = Pairs(a, b)
    d = np.unique([0.0] + [float(abs(x - y)) for x in a.support for y in b.support])
    cum_b = np.concatenate([[0.0], np.cumsum(bw)])

    def deficit(k):
        return t_goal - _greedy_mass(aw.tolist(), cum_b, pairs.windows(float(d[k])))

    def probe(k):
        return deficit(k) < (float(d[k + 1]) if k + 1 < len(d) else np.inf)

    if scan:
        k = 0
        while not probe(k):
            k += 1
    else:
        lo, hi = 0, len(d) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if probe(mid):
                hi = mid
            else:
                lo = mid + 1
        k = lo
    value = max(float(d[k]), deficit(k))
    return MetricResult(
        value=value,
        certificate=couple(a, b, pairs, pairs.windows(float(d[k])), float(d[k]), value)[0],
        defect_slack=a.defect + b.defect,
    )


def least_feasible_by_median(
    pairs: Pairs, aw: np.ndarray, bw: np.ndarray, t_goal: float
) -> tuple[float, np.ndarray]:
    """``gwlab.metrics._least_feasible_distance`` by weighted medians alone.

    The same test of ``T - M(d) < d'`` on the same candidates and windows,
    ``M`` from the greedy, and the same first probe, the largest
    candidate at or below ``T - M(0)``.  Every later probe is the weighted
    median of the pairs left in the bracket: no probe's deficit is used to
    place the next.
    """
    n, m = len(pairs.xs), len(pairs.ys)
    cum_b = np.concatenate([[0.0], np.cumsum(bw)])
    a_list = aw.tolist()
    run_i, run_split = np.tile(np.arange(n), 2), np.tile(pairs.split, 2)
    is_lo = np.arange(2 * n) < n

    def greedy(edges: np.ndarray) -> float:
        return _greedy_mass(a_list, cum_b, edges)

    def feasible(d: float, nxt: float, edges: np.ndarray) -> bool:
        return t_goal - (greedy(edges) if d > 0.0 else at_zero) < nxt

    low, inner, high, outer = -np.inf, run_split, np.inf, np.repeat([0, m], n)
    at_zero = greedy(zero := pairs.windows(0.0))
    edges = pairs.windows(max(t_goal - at_zero, 0.0))
    inside = edges != run_split
    d = float(pairs.distance(run_i[inside], (edges + is_lo - 1)[inside]).max(initial=0.0))
    while True:
        beyond = edges - is_lo
        fits = (beyond >= 0) & (beyond < m)
        nxt = float(pairs.distance(run_i[fits], beyond[fits]).min(initial=np.inf))
        if feasible(d, nxt, edges):
            high, at_high, outer = d, edges, pairs.windows(np.nextafter(d, -np.inf))
        else:
            low, inner = d, edges
        if not (live := outer != inner).any():
            break
        mids = pairs.distance(run_i[live], (outer + inner)[live] // 2)
        order = np.argsort(mids, kind="stable")
        cum = np.cumsum(np.abs(outer - inner)[live][order])
        d = float(mids[order[np.searchsorted(cum, (cum[-1] + 1) // 2)]])
        edges = pairs.windows(d)
    if low < 0.0 < high and feasible(0.0, high, zero):
        return 0.0, zero
    return high, at_high


def band_flow(a, b, edges):
    """The northwest-corner greedy as a dict walk over the windows ``edges``.

    Each left atom in turn scans its whole window ``[lo_i, hi_i)``, skipping
    right atoms with no room, and ships ``min(supply, room)`` to each until its
    supply is gone; every atom is a numpy scalar.  Returns the flow as a dict
    keyed by ``(i, j)`` and the supply and room left over.
    """
    n = len(a)
    lo, hi = edges[:n].tolist(), edges[n:].tolist()
    excess, resid = a.weights_array.copy(), b.weights_array.copy()
    entries: dict[tuple[int, int], float] = {}
    for i in range(n):
        for j in range(lo[i], hi[i]):
            if excess[i] <= 0.0:
                break
            if resid[j] <= 0.0:
                continue
            take = min(excess[i], resid[j])
            entries[(i, j)] = float(take)
            excess[i] -= take
            resid[j] -= take
    return entries, excess, resid


def complete_coupling(a, b, edges, eps: float):
    """``gwlab.maxflow.couple``'s entries and slack as a walk over a dict.

    ``band_flow`` on the windows ``edges`` seeds the dict.  Leftover supply is
    paired with leftover capacity in support order, stepping through every
    atom as a numpy scalar; a pair adds to the entry it lands on.  Returns
    the entries and the slack, the mass on entries off the band at ``eps``
    summed in the dict's order.
    """
    entries, excess, resid = band_flow(a, b, edges)
    i = j = 0
    while i < len(excess) and j < len(resid):
        if excess[i] <= 0.0:
            i += 1
            continue
        if resid[j] <= 0.0:
            j += 1
            continue
        take = min(excess[i], resid[j])
        entries[(i, j)] = entries.get((i, j), 0.0) + take
        excess[i] -= take
        resid[j] -= take
    xs, ys = a.support, b.support
    slack = sum(v for (k, l), v in entries.items() if float(abs(xs[k] - ys[l])) > eps)
    return entries, slack


def strassen_set(a, b, edges) -> np.ndarray:
    """The Strassen set of ``band_flow`` on the windows ``edges`` by a depth-first search.

    From every left atom with supply left over, follow band edges to right
    atoms and flow edges back to left atoms, scanning each right atom once.
    Returns the mask of left atoms reached.  A right atom with room on the
    way would be an augmenting path; it fails an assertion.
    """
    entries, excess, resid = band_flow(a, b, edges)
    n = len(a)
    lo, hi = edges[:n].tolist(), edges[n:].tolist()
    by_right: dict[int, list[int]] = {}
    for i, j in entries:
        by_right.setdefault(j, []).append(i)
    seen = (excess > 0.0).tolist()
    stack = [i for i, s in enumerate(seen) if s]
    scanned: set[int] = set()
    while stack:
        u = stack.pop()
        for j in range(lo[u], hi[u]):
            if j in scanned:
                continue
            scanned.add(j)
            assert resid[j] <= 0.0, f"augmenting path to {j}"
            for w in by_right.get(j, ()):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return np.array(seen, dtype=bool)


def strassen_spans(a, b, edges) -> np.ndarray:
    """The Strassen set of ``band_flow`` on the windows ``edges`` by the span search
    that ``gwlab.maxflow.couple`` ran before it read the set off the flow's blocks.

    Each search from a left atom with supply left over steps down through flow
    edges into a span of rows, joining the span below when it reaches it; the
    set is the seeds and the rows of the flow edges inside the spans' windows.
    A right atom with room inside a span fails an assertion.
    """
    entries, excess, resid = band_flow(a, b, edges)
    lo, hi = np.split(edges, 2)
    rows = np.array([i for i, _ in entries], dtype=np.int64)
    cols = np.array([j for _, j in entries], dtype=np.int64)
    # Edges into left atom u's window are the run
    # [first[u], stop[u]).  A seed u filled its window, so later rows'
    # edges start at hi[u] and a search from u only goes down: it reaches
    # the rows with an edge in [first[low], stop[u]), ``low`` stepping down
    # to the lowest such row, and crosses [lo[low], hi[u]).  A search that
    # reaches the span below joins it.
    row_list = rows.tolist()
    first, stop = np.searchsorted(cols, lo).tolist(), np.searchsorted(cols, hi).tolist()
    seen = excess > 0.0
    spans: list[tuple[int, int]] = []
    for u in np.flatnonzero(seen).tolist():
        low, end = u, stop[u]
        while first[low] < end and row_list[first[low]] < low:
            low = row_list[first[low]]
            if spans and low <= spans[-1][1]:
                low = spans.pop()[0]
                break
        spans.append((low, u))
    low, high = np.array(spans, dtype=np.int64).reshape(-1, 2).T
    left, right = lo[low], hi[high]
    room = np.concatenate([[0], np.cumsum(resid > 0.0)])
    assert not (room[right] > room[left]).any(), "augmenting path"
    cover = np.zeros(len(row_list) + 1, dtype=np.int64)
    np.add.at(cover, np.searchsorted(cols, left), 1)
    np.add.at(cover, np.searchsorted(cols, right), -1)
    seen[rows[np.cumsum(cover[:-1]) > 0]] = True
    return seen


def _bl_at_slope(
    points: np.ndarray, coeffs: np.ndarray, lip: float, grid: int
) -> float:
    """max of sum coeffs[i] h(points[i]) over h with ||h||_inf <= 1 - lip
    and Lipschitz constant <= lip, h sampled on a value grid."""
    bound = 1.0 - lip
    if bound <= 0.0:
        return 0.0
    values = np.linspace(-bound, bound, grid)
    step = values[1] - values[0]
    dp = coeffs[0] * values
    for i in range(1, len(points)):
        reach = lip * (points[i] - points[i - 1])
        width = int(reach / step)
        if width > 0:
            dp = maximum_filter1d(dp, size=2 * width + 1, mode="nearest")
        dp = dp + coeffs[i] * values
    return float(dp.max())


def bounded_lipschitz(
    xs: np.ndarray, ws: np.ndarray, ys: np.ndarray, vs: np.ndarray, grid: int = 4001
) -> float:
    """Grid-search bounded-Lipschitz metric on the line.

    Test functions are piecewise linear between the union support points;
    on the real line only adjacent-point slope constraints matter.  The
    value-grid makes each slope evaluation a sliding-window maximum; the
    slope itself is scanned coarsely and then refined around the best
    candidate (the value is concave in the slope).
    """
    points, coeffs = _signed_union(xs, ws, ys, vs)
    if len(points) == 1:
        return 0.0
    best = 0.0
    best_lip = 0.0
    for lip in np.linspace(0.0, 1.0, 101):
        val = _bl_at_slope(points, coeffs, float(lip), grid)
        if val > best:
            best, best_lip = val, float(lip)
    lo = max(0.0, best_lip - 0.01)
    hi = min(1.0, best_lip + 0.01)
    for lip in np.linspace(lo, hi, 101):
        best = max(best, _bl_at_slope(points, coeffs, float(lip), grid))
    return best


def _signed_union(
    xs: np.ndarray, ws: np.ndarray, ys: np.ndarray, vs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    acc: dict[float, float] = {}
    for x, w in zip(np.asarray(xs, float), np.asarray(ws, float)):
        acc[float(x)] = acc.get(float(x), 0.0) + w
    for y, v in zip(np.asarray(ys, float), np.asarray(vs, float)):
        acc[float(y)] = acc.get(float(y), 0.0) - v
    points = np.array(sorted(acc))
    coeffs = np.array([acc[p] for p in points])
    return points, coeffs


def bounded_lipschitz_lp(a, b) -> float:
    """Bounded-Lipschitz distance of two ``DiscreteMeasure``s as a sparse LP on HiGHS.

    Maximizes ``sum (a_i - b_i) h_i`` over ``h`` on the union support, ``L``
    and ``c`` with ``|h_i| <= c``, ``|h_{i+1} - h_i| <= gap_i L`` and
    ``L + c <= 1``, at primal and dual feasibility tolerances of 1e-10 (at
    HiGHS's defaults the duality gap reached 1.6e-7 on 161-atom laws).
    """
    from scipy import sparse
    from scipy.optimize import linprog

    from gwlab.measures import difference

    nums, dens, diff = difference(a, b)
    n, p, q = len(diff), nums.tolist(), dens.tolist()
    gaps = np.array([(p1 * q0 - p0 * q1) / (q0 * q1) for p0, q0, p1, q1 in zip(p, q, p[1:], q[1:])])
    # Columns: h (n, free), L, c.  Rows: +-h_i <= c, then
    # +-(h_{i+1} - h_i) <= gap_i L, then L + c <= 1.
    col_l, col_c = n, n + 1
    i, g = np.arange(n), np.arange(n - 1)
    k = 2 * n - 1  # rows of the difference operator D = [I; forward diff]
    d_row = np.concatenate([i, n + g, n + g])
    d_col = np.concatenate([i, g + 1, g])
    d_val = np.concatenate([np.ones(n), np.ones(n - 1), -np.ones(n - 1)])
    b_row = np.arange(k)
    b_col = np.where(b_row < n, col_c, col_l)
    b_val = -np.concatenate([np.ones(n), gaps])
    amat = sparse.csr_array(
        (
            np.concatenate([d_val, -d_val, b_val, b_val, [1.0, 1.0]]),
            (
                np.concatenate([d_row, d_row + k, b_row, b_row + k, [2 * k, 2 * k]]),
                np.concatenate([d_col, d_col, b_col, b_col, [col_l, col_c]]),
            ),
        ),
        shape=(2 * k + 1, n + 2),
    )
    bvec = np.zeros(2 * k + 1)
    bvec[-1] = 1.0
    res = linprog(
        np.concatenate([-diff, [0.0, 0.0]]),
        A_ub=amat,
        b_ub=bvec,
        bounds=[(None, None)] * n + [(0.0, None)] * 2,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(-res.fun)


# The slope-trick pass written plainly: one loop over both trimming ends, clips
# by ``min``/``max``, and a pass at every ``lam``, 0 and 1 included.
# ``metrics._dual_path`` must match it bit for bit.
def dual_path_reference(d: list[float], g: list[float], lam: float, path: list | None = None) -> list:
    """One slope-trick pass of ``min (1 - lam) TV(R) + lam W(R)`` over paths.

    ``F_i``, the cost of reaching ``R_i``, is sorted breakpoints whose weights
    step its slope from ``-c`` to ``c = 1 - lam``.  Each ``D_i`` enters with
    weight ``2 lam g_i``, and ``lam g_i`` is trimmed off each end; the last
    points trimmed (or +-inf) bound ``R_i = clip(R_{i+1}, lo_i, hi_i)``.
    Given the path, the pass returns ``h_i = h_{i+1} - lam g_i sign(R_i -
    D_i)`` clipped into the slopes of ``F_i`` at ``R_i``.  A last gap of 0
    ends the path at ``D_{n-1}``.
    """
    c = 1.0 - lam
    pos, wt, out = [0.0], [2.0 * c], []
    for i, (x, t) in enumerate(zip(d, [lam * gap for gap in g])):
        if path is not None:
            r = path[i]
            out.append((sum(wt[: bisect_left(pos, r)]) - c, sum(wt[: bisect_right(pos, r)]) - c))
        k = bisect_right(pos, x)
        pos.insert(k, x)
        wt.insert(k, 2.0 * t)
        ends = [-math.inf, math.inf]
        for end in (0, -1):
            left = t
            while left > 0.0 and wt and wt[end] <= left:
                left -= wt.pop(end)
                ends[end] = pos.pop(end)
            if left > 0.0 and wt:
                wt[end] -= left
                ends[end] = pos[end]
        if path is None:
            out.append(ends)
    # Backtracking is the same walk, unshifted: ``d`` stands in for the path.
    walk = [d[-1] if path is None else 0.0]
    shifts = [lam * t * ((r > x) - (r < x)) for t, r, x in zip(g, d if path is None else path, d)]
    for (lo, hi), shift in zip(out[::-1], shifts[::-1]):
        walk.append(min(max(walk[-1] - shift, lo), hi))
    return walk[:0:-1]


# -- coupling certificates -----------------------------------------------------


def band_mass(coup, eps: float | None = None) -> float:
    """Mass of a ``Coupling`` on pairs within ``eps`` (default: its ``eps``).

    A pair is within ``eps`` when the float of its exact ``Fraction``
    distance is, the band the flow solved on.
    """
    eps = coup.eps if eps is None else eps
    xs, ys = coup.left.support, coup.right.support
    near = [float(abs(xs[i] - ys[j])) <= eps for i, j in zip(coup.rows.tolist(), coup.cols.tolist())]
    return float(coup.mass[np.array(near, dtype=bool)].sum())


def marginal_errors(coup) -> tuple[float, float]:
    """Largest gaps between a coupling's row and column sums and its marginals."""
    row = np.bincount(coup.rows, coup.mass, minlength=len(coup.left))
    col = np.bincount(coup.cols, coup.mass, minlength=len(coup.right))
    left_err = float(np.abs(row - coup.left.weights_array).max())
    right_err = float(np.abs(col - coup.right.weights_array).max())
    return left_err, right_err


def strassen_cut(coup) -> float:
    """``a(A^c) + b(A^r)`` at ``r = strassen_eps``: the most any band holds."""
    inside = coup.strassen
    m = len(coup.right)
    lo, hi = np.split(Pairs(coup.left, coup.right).windows(coup.strassen_eps), 2)
    lo, hi = lo[inside], hi[inside]
    cover = np.bincount(lo, minlength=m + 1) - np.bincount(hi, minlength=m + 1)
    near = np.cumsum(cover[:m]) > 0
    return float(
        coup.left.weights_array[~inside].sum() + coup.right.weights_array[near].sum()
    )


def validate_coupling(coup, tol: float = 1e-10) -> None:
    """Raise ``InvalidParameter`` unless the coupling's masses are
    nonnegative, its marginals match and its band mass at ``strassen_eps``
    reaches the Strassen cut, each within ``tol`` and the stated allowances."""
    if (coup.mass < 0.0).any():
        raise InvalidParameter("coupling has a negative mass entry")
    left_err, right_err = marginal_errors(coup)
    allowance = tol + coup.left.defect + coup.right.defect
    if left_err > allowance or right_err > allowance:
        raise InvalidParameter(
            f"coupling marginals off by ({left_err:.2e}, {right_err:.2e}), "
            f"allowed {allowance:.2e}"
        )
    cut, band = strassen_cut(coup), band_mass(coup, coup.strassen_eps)
    if band < cut - tol:
        raise InvalidParameter(
            f"band mass {band:.12f} at eps={coup.strassen_eps} is below the "
            f"Strassen cut {cut:.12f}, allowed {tol:.2e}"
        )


# -- verification ---------------------------------------------------------------


def mean_continuity_by_scan(law1, law2) -> tuple[float, int]:
    """The least truncation-split bound on ``|m1 - m2|`` and its first level
    ``ell``, each level's bound summed through ``psi1_tail`` (O(K) a level)."""
    d_tv = tv_distance(law1.measure, law2.measure)[0]
    best, best_ell = math.inf, 1
    for ell in range(1, int(max(law1.counts[-1], law2.counts[-1])) + 2):
        bound = 2.0 * ell * d_tv + psi1_tail(law1, ell + 1) + psi1_tail(law2, ell + 1)
        if bound < best:
            best, best_ell = bound, ell
    return best, best_ell


def wlln_level_by_scan(law, eta) -> tuple[int | None, float]:
    """The least level ``ell`` in 1..999,999 with ``psi1_tail(law, ell + 1)``
    below ``eta / 3`` and that tail, one ``psi1_tail`` a level; or ``(None, inf)``."""
    for ell in range(1, 1_000_000):
        tail = psi1_tail(law, ell + 1)
        if tail < eta / 3.0:
            return ell, tail
    return None, math.inf


# -- Monte Carlo ---------------------------------------------------------------


def summed_draws(kids: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of ``pos[i]`` entries of ``kids``, via floats.

    One replication label per draw, a float-weighted ``bincount`` and a
    rounding back to int64: exact while every sum stays below 2**53.
    """
    rep = np.repeat(np.arange(pos.size), pos)
    sums = np.bincount(rep, weights=kids.astype(float), minlength=pos.size)
    return np.rint(sums).astype(np.int64)


def simulate_chunk(sampler, cfg, chunk_idx: int, size: int):
    """One chunk of ``montecarlo._simulate_batch`` over full arrays of ``size`` rows.

    Every step masks all replications: the excluded ones, the extinct ones
    (not drawn, kept as ``(0, 0)`` rows) and the live ones, which are drawn
    in replication order and written back in place.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, chunk_idx]))
    z = np.full(size, cfg.z0, dtype=np.int64)
    excluded = np.zeros(size, dtype=bool)
    levels = {}
    exc_counts = np.zeros(cfg.n_max + 1, dtype=np.int64)
    for step in range(1, cfg.n_max + 1):
        active = ~excluded
        zprev = z.copy()
        draw = np.nonzero(active & (z > 0))[0]
        if draw.size:
            z[draw] = _draw_next(rng, z[draw], sampler)
        newly = active & (z > cfg.cap)
        excluded |= newly
        keep = active & ~newly
        exc_counts[step] = size - int(keep.sum())
        levels[step] = group_pairs(zprev[keep], z[keep])
    return levels, exc_counts


def simulate_table(sampler, cfg, chunk: int, resolution: Fraction | None = None):
    """A ``SimTable`` of ``simulate_chunk`` run chunk by chunk on chunks of
    ``chunk`` replications, each level's rows of all chunks grouped at once.

    With a ``resolution`` a row ``(j > 0, k)`` becomes the tally row
    ``(1, rint((k / j) / resolution))`` and ``(0, 0)`` stays.
    """
    excluded = np.zeros(cfg.n_max + 1, dtype=np.int64)
    parts = {n: [] for n in range(1, cfg.n_max + 1)}
    for idx, start in enumerate(range(0, cfg.replications, chunk)):
        levels, exc = simulate_chunk(sampler, cfg, idx, min(chunk, cfg.replications - start))
        excluded += exc
        for n, level in levels.items():
            parts[n].append(level)
    levels = {}
    for n, part in parts.items():
        prev, curr, counts = map(np.concatenate, zip(*part))
        if resolution is not None:
            alive = prev > 0
            ratios = curr / np.maximum(prev, 1).astype(float)
            curr = np.where(alive, np.rint(ratios / float(resolution)), 0).astype(np.int64)
            prev = alive.astype(np.int64)
        levels[n] = group_pairs(prev, curr, counts)
    return SimTable(cfg=cfg, levels=levels, excluded=excluded, resolution=resolution)


def binned_law_by_unique(table, n, resolution, conditioned=False):
    """``montecarlo.binned_estimator_law`` with the bins grouped by
    ``np.unique`` and their counts summed as floats by ``np.bincount``."""
    resolution = _check_resolution(resolution)
    prev, curr, counts, excluded, size = _event(table, n, conditioned, resolution)
    if excluded == size:
        raise DegenerateConditioning(f"no tabulated replications at level {n}")
    idx = curr
    if table.resolution is None:
        ratios = np.where(prev > 0, curr / np.maximum(prev, 1).astype(float), 0.0)
        idx = _bin_indices(ratios, resolution)
    uniq, inverse = np.unique(idx, return_inverse=True)
    weights = np.bincount(inverse, weights=counts.astype(float)) / size
    nums = uniq * resolution.numerator
    g = np.gcd(nums, resolution.denominator)
    out = DiscreteMeasure(nums // g, resolution.denominator // g, weights, excluded / size)
    return out, float(resolution) / 2.0


def tables_equal(a, b) -> bool:
    """Two ``SimTable``s hold the same levels, rows and exclusion counts,
    compared field by field with their dtypes, and were tabulated at the
    same resolution."""
    if a.resolution != b.resolution or sorted(a.levels) != sorted(b.levels):
        return False
    arrays = [(a.excluded, b.excluded)]
    arrays += [pair for n in a.levels for pair in zip(a.levels[n], b.levels[n])]
    return all(mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
               for mine, theirs in arrays)
