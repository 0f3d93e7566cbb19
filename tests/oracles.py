"""Independent reference implementations for cross-checking the package.

Everything here favors obviousness over speed: per-individual outcome
enumeration with itertools.product, dict-based convolution, subset
enumeration for the Prohorov metric and a Prohorov search over the full
list of pair distances, and a grid search for the bounded-Lipschitz
metric.  Tests compute expected values from these and compare the fast
implementations against them on small instances.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from scipy.ndimage import maximum_filter1d

from gwlab.errors import InvalidParameter
from gwlab.maxflow import FLOW_TERMINATION, BandFlow, band_windows
from gwlab.metrics import MetricResult, _complete_coupling
from gwlab.measures import group_pairs
from gwlab.montecarlo import SimTable, _draw_next

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


# -- metrics -------------------------------------------------------------------


def _one_sided_deficit(
    xs: np.ndarray, ws: np.ndarray, ys: np.ndarray, vs: np.ndarray, c: float
) -> float:
    """max over subsets A of supp(x) of  w(A) - v(A^c)."""
    na = len(xs)
    masks = (
        np.arange(1, 2**na)[:, None] >> np.arange(na)[None, :]
    ) & 1  # (2^na - 1, na)
    masks = masks.astype(bool)
    cover = np.abs(xs[:, None] - ys[None, :]) <= c + 1e-12  # (na, nb)
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


def prohorov_by_breakpoints(a, b, scan: bool = False):
    """Prohorov distance by searching the full list of pair distances.

    Every ``|x_i - y_j|`` (and 0) is listed and sorted, and each probe of
    ``T - M(d_k) < d_{k+1}`` solves a certified ``BandFlow``.  The search
    bisects over the list, or walks it from the start when ``scan`` is set.
    The result is built from the flow at the chosen ``d_k`` as in
    ``gwlab.prohorov``, so values and couplings are comparable bit for bit.
    """
    xs, aw = a.float_support, a.weights_array
    ys, bw = b.float_support, b.weights_array
    t_goal = max(a.total_mass, b.total_mass)
    d = np.unique(np.abs(xs[:, None] - ys[None, :]).ravel())
    if d[0] != 0.0:
        d = np.concatenate([[0.0], d])

    def probe(k):
        flow = BandFlow(xs, aw, ys, bw, float(d[k]))
        matched = flow.solve()
        nxt = float(d[k + 1]) if k + 1 < len(d) else np.inf
        return (t_goal - matched) < nxt, matched, flow

    if scan:
        k = 0
        while not probe(k)[0]:
            k += 1
    else:
        lo, hi = 0, len(d) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if probe(mid)[0]:
                hi = mid
            else:
                lo = mid + 1
        k = lo
    _, matched, flow = probe(k)
    value = max(float(d[k]), t_goal - matched)
    return MetricResult(
        value=value,
        certificate=_complete_coupling(a, b, value, flow),
        defect_slack=a.defect + b.defect,
    )


def complete_coupling(a, b, eps: float, flow: BandFlow):
    """``gwlab.metrics._complete_coupling`` as a walk over a dict of entries.

    The flow's edges seed a dict keyed by ``(i, j)``.  Leftover supply is
    paired with leftover capacity in support order, stepping through every
    atom as a numpy scalar; a pair adds to the entry it lands on.  Returns
    the entries and the slack, the mass on entries off the band at ``eps``
    summed in the dict's order.
    """
    entries = {
        (i, j): v
        for i, j, v in zip(flow.rows.tolist(), flow.cols.tolist(), flow.mass.tolist())
    }
    i = j = 0
    excess = flow.excess.copy()
    resid = flow.resid.copy()
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
    lo, hi = band_windows(a.float_support, b.float_support, eps)
    slack = sum(v for (k, l), v in entries.items() if not lo[k] <= l < hi[k])
    return entries, slack


def strassen_set(flow: BandFlow) -> np.ndarray:
    """The Strassen set of a solved ``BandFlow`` by a depth-first search.

    From every left atom with supply left over, follow band edges to right
    atoms and flow edges back to left atoms, scanning each right atom once.
    Returns the mask of left atoms reached.  A right atom with room on the
    way would be an augmenting path; it fails an assertion.
    """
    lo, hi = flow.lo.tolist(), flow.hi.tolist()
    by_right: dict[int, list[int]] = {}
    for i, j in zip(flow.rows.tolist(), flow.cols.tolist()):
        by_right.setdefault(j, []).append(i)
    seen = (flow.excess > FLOW_TERMINATION).tolist()
    stack = [i for i, s in enumerate(seen) if s]
    scanned: set[int] = set()
    while stack:
        u = stack.pop()
        for j in range(lo[u], hi[u]):
            if j in scanned:
                continue
            scanned.add(j)
            assert flow.resid[j] <= FLOW_TERMINATION, f"augmenting path to {j}"
            for w in by_right.get(j, ()):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return np.array(seen, dtype=bool)


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


# -- coupling certificates -----------------------------------------------------


def band_mass(coup, eps: float | None = None) -> float:
    """Mass of a ``Coupling`` on pairs within ``eps`` (default: its ``eps``).

    Pairs are tested with ``band_windows``, the band the flow solved on.
    """
    lo, hi = band_windows(
        coup.left.float_support, coup.right.float_support, coup.eps if eps is None else eps
    )
    rows, cols = coup.rows, coup.cols
    return float(coup.mass[(lo[rows] <= cols) & (cols < hi[rows])].sum())


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
    lo, hi = band_windows(
        coup.left.float_support[inside], coup.right.float_support, coup.strassen_eps
    )
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
    # The flow leaves up to FLOW_TERMINATION unshipped per atom.
    allowance = tol + (len(coup.left) + len(coup.right)) * FLOW_TERMINATION
    if band < cut - allowance:
        raise InvalidParameter(
            f"band mass {band:.12f} at eps={coup.strassen_eps} is below the "
            f"Strassen cut {cut:.12f}, allowed {allowance:.2e}"
        )


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
