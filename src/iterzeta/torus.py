"""Prime-power sums on the torus and the angle-construction pipeline.

The truncated weighted integral of log zeta along a horizontal ray turns,
prime by prime, into

    S_{m,sigma}(theta) = sum_p Li_{m+1}(p^-sigma e^{-2 pi i theta_p})
                         / (log p)^m,

where theta_p = t log p / 2 pi mod 1 on the zeta line.  Treating the
theta_p as free coordinates, any target value a can be realized: fix the
alternating reference pattern theta^(0) = (0, 1/2, 0, 1/2, ...) outside
a window of primes (U, N], and choose the window angles by the polygon
construction so their first harmonics sum to a minus the reference value
gamma_{m,sigma}.  Higher harmonics in the window and the perturbed tail
are controlled by explicit bounds, each budgeted at epsilon/4.

Every sum here runs over the primes in ascending order, where the modulus
p^-sigma of each term falls, in cache-sized blocks.  Below the cut, one
walk over the primes, segment by segment between the window starts,
gives gamma, both tail bounds and the reference sums below each start,
cached for gamma_m_sigma and construct_theta alike.  In the window, the
radii r_p = p^-sigma / (log p)^m are formed in place a chunk at a time,
only one chunk's running sums held to find how many primes the target
needs; besides the angles, they are the one window-length array a
construction holds, and its primes are a read-only view of the table's.
The polygon writes its angles into the one theta array behind the
reference pattern, and each block's unit vectors
w_p = exp(-2 pi i theta_p), while in cache, give both the k = 1 terms
r_p w_p of final_sum and, as z_p = r_p (log p)^m w_p with no second exp,
its k >= 2 harmonics.

A construction's passes over its blocks run on blocks.map_blocks, on
every CPU the process may use: the radii within each chunk (their
running sums stay sequential), and the polygon's passes, each block's
harmonics with its unit vectors.  Every sum over blocks is added in
block order, so the outputs are the same bits whatever the number of
CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .blocks import map_blocks
from .dirichlet import (POLYLOG_CHUNK, _live_counts, _polylog_prefix,
                        _polylog_sum, polylog)
from .errors import (LimitExceeded, ValidationError, WindowExhausted,
                     float_array, require_finite)
from .eta import _validate_order_sigma
from .lru import LRUDict
from .polygon import AngleAssignment, _polygon
from .primes import PrimeTable, sieve_primes

GAMMA_CUT = 1_000_000
U_CANDIDATES = (10, 100, 1_000, 10_000, 100_000)
# window primes in the first chunk of construct_theta's radii
RADII_CHUNK = 4096
# points per slice of the k >= 2 series on a block of the closing pass,
# whose three buffers of a slice's length then stay small on each thread
# of the pool: series over whole blocks of 2^15 took the largest window's
# max RSS growth from 2.4-2.5 to 3.1-3.2 times its angles' bytes at four
# threads, slices of 8192 to 2.7-2.8
HARMONIC_SLICE = 8192
# log-spaced cuts of the window in the bound on its radius sum that
# refuses a target past the window; the bound exceeds the sum by 2-13%
# on sieves of 1e6 to 4e7 (m = 1..3, sigma in [0.55, 0.95])
REFUSAL_CUTS = 64
# _below_cut's walk by (m, sigma, cut): it reads only the primes up to
# the cut, which every prime table reaching it holds alike
_FIXED_CACHE_CAP = 32
_FIXED_CACHE = LRUDict(_FIXED_CACHE_CAP)


def _validate_torus(m: int, sigma: float) -> None:
    """eta's order and sigma checks, plus the construction's sigma < 1."""
    _validate_order_sigma(m, sigma)
    if sigma >= 1.0:
        raise ValidationError(
            f"sigma={sigma} outside [1/2, 1) for the torus construction")


def _validate_target(m: int, sigma: float, a: complex,
                     epsilon: float) -> complex:
    """The torus checks, a positive epsilon and a finite target a, for
    construct_theta and hunt_value alike; returns complex(a)."""
    _validate_torus(m, sigma)
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise ValidationError("epsilon must be positive")
    a = complex(float_array(a, complex))
    if not np.isfinite(a):
        raise ValidationError("target a must be finite")
    return a


def _theta0(count: int) -> np.ndarray:
    th = np.zeros(count)
    th[1::2] = 0.5
    return th


def _s_sum_arrays(logs: np.ndarray, thetas: np.ndarray, sigma: float,
                  m: int):
    """S_{m,sigma} over the primes with these ascending logs at angles
    thetas."""
    return _polylog_sum(m + 1, logs, m, sigma, lambda lo, hi: np.exp(
        -sigma * logs[lo:hi] - 2j * np.pi * thetas[lo:hi]))


def _validate_cut(m: int, sigma: float, tail_cut: float) -> None:
    """The torus checks and a finite tail_cut >= 1000."""
    _validate_torus(m, sigma)
    require_finite(tail_cut=tail_cut)
    if tail_cut < 1_000:
        raise ValidationError("tail_cut below 1000 gives a useless estimate")


def gamma_m_sigma(m: int, sigma: float, tail_cut: float,
                  primes: Optional[PrimeTable] = None) -> complex:
    """Reference value S_{m,sigma}(theta^(0)) over primes up to tail_cut.

    The terms alternate in sign with the prime index, so the truncation
    error obeys the Leibniz bound gamma_tail_estimate.  Read from
    _below_cut, whose cache construct_theta shares."""
    _validate_cut(m, sigma, tail_cut)
    if primes is not None and primes.limit < tail_cut:
        raise LimitExceeded(
            f"prime table reaches {primes.limit}, below tail_cut {tail_cut}")
    return _below_cut(m, sigma, primes, tail_cut)[0]


def gamma_tail_estimate(m: int, sigma: float, tail_cut: float) -> float:
    """|Li_{m+1}(tail_cut^-sigma)| / (log tail_cut)^m, the first omitted
    term of the full reference sum gamma, all harmonics, whose Leibniz
    bound it is.  It is not _below_cut's first-harmonic Leibniz term
    cut^-sigma / (log cut)^m.

    Tracer-only: no caller in src/; kept only for perfbench/tracing.py's
    ENTRY_POINTS, and deleted with those lines by a benchmark change."""
    _validate_cut(m, sigma, tail_cut)
    return abs(polylog(m + 1, tail_cut ** (-sigma))) \
        / math.log(tail_cut) ** m


def s_sum(assignment: Mapping[int, float], sigma: float, m: int) -> complex:
    """S_{m,sigma} over exactly the primes present in the assignment."""
    _validate_torus(m, sigma)
    if len(assignment) == 0:
        return 0.0 + 0.0j
    ps = np.fromiter(assignment.keys(), dtype=np.int64, count=len(assignment))
    try:
        ths = np.fromiter(assignment.values(), dtype=np.float64,
                          count=len(ps))
    except OverflowError:       # an angle past the float range
        ths = float_array(list(assignment.values()))
    distinct = True
    if np.any(ps[1:] <= ps[:-1]):
        # keys out of order or repeated; construct_theta's and
        # load_theta's ascend
        order = np.argsort(ps, kind="stable")
        ps, ths = ps[order], ths[order]
        distinct = not np.any(ps[1:] == ps[:-1])
    if ps[0] < 2 or not distinct:
        raise ValidationError("assignment keys must be distinct primes >= 2")
    if np.any(~np.isfinite(ths)):
        raise ValidationError("assignment angles must be finite")
    # the int64 keys straight into log: numpy casts them a buffer at a
    # time, exactly below 2^53, so a million-prime sum makes no float copy
    return complex(_s_sum_arrays(np.log(ps), ths, sigma, m))


def second_moment_s(m: int, sigma: float, M: int, N: int,
                    primes: PrimeTable) -> float:
    """Mean of |S restricted to prime indices M < n <= N|^2 over
    independent uniform angles.  Cross terms vanish, leaving

        sum_{M<n<=N} sum_k  1 / (k^{2(m+1)} p_n^{2 sigma k} (log p_n)^{2m}),

    whose k-sum is Li_{2m+2}(p_n^(-2 sigma)).
    """
    _validate_torus(m, sigma)
    if not (0 <= M <= N):
        raise ValidationError(f"need 0 <= M <= N, got M={M}, N={N}")
    if M == N:
        return 0.0
    primes.first(N)             # LimitExceeded past the table
    logs = primes.logs[M:N]
    return float(_polylog_sum(2 * m + 2, logs, 2 * m, 2.0 * sigma,
                              lambda lo, hi: np.exp(
                                  -2.0 * sigma * logs[lo:hi])).real)


def first_harmonic_radii(m: int, sigma: float,
                         ps: np.ndarray) -> np.ndarray:
    """|k=1 coefficient| p^-sigma / (log p)^m for each prime of the 1-D
    array ps, formed in place in one output array, a block of
    POLYLOG_CHUNK primes at a time, whose logs stay in cache in one
    buffer that every block reuses."""
    ps = np.asarray(ps)
    radii = np.empty(ps.size)
    logs = np.empty(min(ps.size, POLYLOG_CHUNK))
    powers = np.empty(logs.size if m > 1 else 0)
    for lo in range(0, ps.size, POLYLOG_CHUNK):
        block = radii[lo:lo + POLYLOG_CHUNK]
        _radii(m, sigma, np.log(ps[lo:lo + block.size],
                                out=logs[:block.size]), block,
               powers[:block.size])
    return radii


def _log_powers(logs: np.ndarray, m: int,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """(log p)^m: logs itself at m = 1, else formed in out (a new array
    if None), by np.square at m = 2, the bits and the speed of logs ** 2
    (np.power's general loop takes twice as long there)."""
    if m == 1:
        return logs
    return np.square(logs, out=out) if m == 2 else np.power(logs, m, out=out)


def _radii(m: int, sigma: float, logs: np.ndarray,
           out: Optional[np.ndarray] = None,
           powers: Optional[np.ndarray] = None) -> np.ndarray:
    """First-harmonic radii p^-sigma / (log p)^m from the primes' logs,
    formed in place in out (a new array if None), which must not be
    logs.  At m > 1, (log p)^m goes into powers, a buffer of logs' size
    that is neither (a temporary if None)."""
    out = np.multiply(logs, -sigma, out=out)
    np.exp(out, out=out)
    out /= _log_powers(logs, m, powers)
    return out


def _below_cut(m: int, sigma: float, primes: Optional[PrimeTable], cut: float):
    """(gamma, cands, harmonic, first, below) by one walk over the primes
    up to floor(cut) (sieved on a cache miss if primes is None), cached
    by (m, sigma, floor(cut)): gamma, the reference sum over them; the
    window starts cands, those of U_CANDIDATES below the cut; and per
    start U
    * harmonic: the k >= 2 harmonics over (U, cut], summed exactly, plus
      an integral bound past the cut;
    * first: |alternating k=1 tail over (U, cut]| plus the Leibniz bound
      past the cut;
    * below: the reference sum over the primes up to U.
    Each segment between the starts takes one _polylog_sum of two rows,
    Li_{m+1}(+-p^-sigma) alternating with the prime index and
    Li_{m+1}(p^-sigma); gamma and below are prefix sums of the segments,
    harmonic and first suffix sums.  A construction's cut is at most
    GAMMA_CUT, so past it harmonic and first are None, and the walk sums
    the first row alone."""
    cut = math.floor(cut)
    cands = tuple(c for c in U_CANDIDATES if c < cut)
    bounds = cut <= GAMMA_CUT

    def walk():
        table = sieve_primes(cut) if primes is None else primes
        ends = table.count_upto([*cands, cut])
        segments = np.zeros((ends.size, 3), dtype=complex)
        for i, (lo, hi) in enumerate(zip((0, *ends[:-1]), ends)):
            if hi == lo:  # no prime in the segment, as in (1000, 1008]
                continue
            logs = table.logs[lo:hi]
            zs = np.exp(-sigma * logs)
            # the reference points: minus at the odd prime indices
            refs = zs.copy()
            refs[1 - lo % 2::2] *= -1.0
            if not bounds:
                segments[i, 0] = _polylog_sum(m + 1, logs, m, sigma,
                                              lambda a, b: refs[a:b])
                continue
            ref, li = _polylog_sum(m + 1, logs, m, sigma, lambda a, b:
                                   np.stack((refs[a:b], zs[a:b]), axis=1),
                                   rows=2)
            log_m = logs ** m
            # sum_{k>=2} z^k / k^(m+1) = Li_{m+1}(z) - z at z = p^-sigma
            segments[i] = (ref, li.real - np.sum(zs / log_m),
                           np.sum(refs / log_m))
        prefix = np.cumsum(segments[:, 0])
        if not bounds:
            return complex(prefix[-1]), cands, None, None, prefix[:-1]
        logc = math.log(cut)
        if sigma > 0.5:
            integral = cut ** (1.0 - 2.0 * sigma) / ((2.0 * sigma - 1.0)
                                                     * logc ** (m + 1))
        else:
            integral = 1.0 / (m * logc ** m)
        beyond = integral / (2 ** (m + 1) * (1.0 - cut ** (-sigma)))
        suffix = np.cumsum(segments[:0:-1, 1:].real, axis=0)[::-1]
        harmonic = suffix[:, 0] + beyond
        first = np.abs(suffix[:, 1]) + cut ** (-sigma) / logc ** m
        return complex(prefix[-1]), cands, harmonic, first, prefix[:-1]

    return _FIXED_CACHE.get_or_set((m, sigma, cut), walk)


def _radius_bound(m: int, sigma: float, primes: PrimeTable,
                  u_bound: int) -> float:
    """An upper bound on the sum of the first-harmonic radii of the
    primes in (u_bound, limit], from REFUSAL_CUTS log-spaced cuts: the
    radius p^-sigma / (log p)^m falls with p, so a segment's primes count
    at most the radius of its first prime each.  Costs a prime count and
    a radius per cut, not a radius per prime."""
    cuts = u_bound * (primes.limit / u_bound) ** (
        np.arange(REFUSAL_CUTS + 1) / REFUSAL_CUTS)
    cuts[-1] = primes.limit
    ends = primes.count_upto(cuts)
    first = np.minimum(ends[:-1], len(primes) - 1)
    return float(np.sum(np.diff(ends) * _radii(m, sigma, primes.logs[first])))


def _window_radii(m: int, sigma: float, win_logs: np.ndarray, need: float):
    """First-harmonic radii of the window primes, whose logs are win_logs,
    formed in place only as far as a construction needs, and the window's
    count: the fewest primes, at least 3, whose radii sum to need, and
    from there on the fewest whose first radius, the largest, is at most
    the sum of the rest.  Radii come in chunks of RADII_CHUNK primes, and
    from 16,384 primes on of a quarter of the primes done, until both are
    met or the window ends, so past the first chunks at most a quarter
    more radii are formed than needed.  A chunk's radii are formed in
    blocks of POLYLOG_CHUNK primes on map_blocks, its running sums after
    them in one pass.  Only the current chunk's running sums are held:
    each chunk's sums start from the sum carried from the chunk before,
    so they are those of one cumsum over the window, to the bit.

    Returns (radii, count, total), total the sum of the radii formed;
    count is None when the whole window's radii fall short of need or of
    three primes.  Raises WindowExhausted when they reach need but no
    prefix of the window meets dominance."""
    # the buffer's pages past the prefix are never touched
    radii = np.empty(win_logs.size)
    done, size, total, count = 0, RADII_CHUNK, 0.0, None
    while done < win_logs.size:
        hi = min(done + size, win_logs.size)
        sums = np.empty(hi - done)

        def form(lo):
            # (log p)^m, at m > 1, in the slots of the running sums
            top = min(lo + POLYLOG_CHUNK, hi)
            part = sums[lo - done:top - done]
            _radii(m, sigma, win_logs[lo:top], radii[lo:top], part)
            np.copyto(part, radii[lo:top])

        map_blocks(form, range(done, hi, POLYLOG_CHUNK))
        sums[0] += total
        np.cumsum(sums, out=sums)
        total = float(sums[-1])
        if count is None and total >= need:
            count = max(done + int(np.searchsorted(sums, need)) + 1, 3)
        if count is not None:
            # dominance, from the count's last prime on (maybe in a later
            # chunk)
            lo = max(count - 1 - done, 0)
            dominant = np.flatnonzero(radii[0] <= sums[lo:] - radii[0])
            if dominant.size:
                return radii[:hi], done + lo + int(dominant[0]) + 1, total
        done = hi
        size = max(RADII_CHUNK, done // 4)
    if count is not None and count <= win_logs.size:
        raise WindowExhausted("window cannot satisfy dominance")
    return radii, None, total


@dataclass(frozen=True)
class ThetaPipelineResult:
    m: int
    sigma: float
    a: complex
    epsilon: float
    U: int
    N: int
    gamma_value: complex
    primes: np.ndarray
    theta2: AngleAssignment
    final_sum: complex
    final_error: float

    def assignment(self) -> dict:
        return {int(p): float(t)
                for p, t in zip(self.primes, self.theta2.thetas)}


def construct_theta(m: int, sigma: float, a: complex, epsilon: float,
                    primes: Optional[PrimeTable] = None
                    ) -> ThetaPipelineResult:
    """Angles realizing S_{m,sigma}(theta) = a to within epsilon.

    Reference pattern outside the window, polygon angles inside; U is the
    smallest power of ten whose two tail bounds both fit in epsilon/4.
    Past the fixed cost of _below_cut's one walk over the primes up to
    GAMMA_CUT (gamma, the tail bounds and the reference pattern's sums
    below each window start), paid once per (m, sigma, cut) and then read
    from a capped cache that gamma_m_sigma shares, the cost is O(window):
    radii are formed only as far as the smallest window that reaches the
    target, with one chunk of their running sums held at a time, and the
    polygon over them is laid out in cache-sized blocks, in place in the
    one theta array behind the reference pattern, its unit vectors reused
    for the window's k >= 2 harmonics.  The blocks of the radii and of
    the polygon run on every CPU the process may use (blocks.map_blocks),
    and every output is the same bits on any number of them.  The radii
    and the angles are the only window-length arrays it holds; the
    result's primes are a read-only view of the table's primes up to N.
    A target past an upper bound on the whole window's radius sum, taken
    over REFUSAL_CUTS segments, is refused before any radius is formed;
    only a target between that bound and the exact sum sums every
    radius.  Raises
    WindowExhausted when the prime table cannot support either the choice
    of U or the radius sum needed to reach the target."""
    a = _validate_target(m, sigma, a, epsilon)
    if primes is None:
        primes = sieve_primes(GAMMA_CUT)
    cut = min(GAMMA_CUT, primes.limit)
    if cut < 1_000:
        raise LimitExceeded("prime table too small; need limit >= 1000")

    gamma, cands, e1, e2, below = _below_cut(m, sigma, primes, cut)
    z_star = a - gamma

    budget = epsilon / 4.0
    fits = [c for c, h, f in zip(cands, e1, e2) if h <= budget and f <= budget]
    if not fits:
        raise WindowExhausted(
            f"no window start U below the sieve cut {cut:.0f} brings both "
            f"tail bounds under epsilon/4 = {budget:.3g}")
    u_bound = fits[0]

    i_u = int(np.searchsorted(primes.primes, u_bound, side="right"))
    need = abs(z_star)
    # a target past the window is refused before any radius is formed
    reach = _radius_bound(m, sigma, primes, u_bound)
    if need > reach * (1.0 + 1e-9):
        raise WindowExhausted(
            f"window radii over ({u_bound}, {primes.limit}] reach at most "
            f"{reach:.6g} of the required {need:.6g}; extend the prime "
            f"table")
    win_logs = primes.logs[i_u:]
    win_r, count, total = _window_radii(m, sigma, win_logs, need)
    if count is None:
        raise WindowExhausted(
            f"window radii over ({u_bound}, {primes.limit}] reach only "
            f"{total:.6g} of the required {need:.6g}; extend the prime "
            f"table")
    win_logs = win_logs[:count]
    live = _live_counts(win_logs, sigma)

    def block_harmonics(lo, hi, w):
        """The window's k >= 2 harmonics on the block lo:hi, summed; its
        k = 1 terms r w are the polygon's achieved sum.  The series runs
        on slices of HARMONIC_SLICE points, each point's terms those of
        one call over the block, and leaves the harmonics in the buffer
        of w."""
        log_m = _log_powers(win_logs[lo:hi], m)
        # z_p = p^-sigma w_p in the buffer of w, p^-sigma = r_p (log p)^m
        scale = np.multiply(win_r[lo:hi], log_m)
        w *= scale
        acc = np.empty(min(HARMONIC_SLICE, w.size), dtype=complex)
        for at in range(0, w.size, HARMONIC_SLICE):
            z = w[at:at + HARMONIC_SLICE]
            li = acc[:z.size]
            li[:] = 0.0
            _polylog_prefix(m + 1, z, np.clip(live - lo - at, 0, z.size), li)
            z[:] = li
        w *= np.divide(1.0, log_m, out=scale)
        return complex(np.sum(w))

    # the reference pattern below U; the polygon writes every window angle
    thetas = np.empty(i_u + count)
    thetas[:i_u] = _theta0(i_u)
    achieved, harmonics = _polygon(win_r[:count], z_star, thetas[i_u:],
                                   block_harmonics)
    theta2 = AngleAssignment(thetas, z_star, achieved, abs(achieved - z_star))
    final_sum = complex(below[cands.index(u_bound)] + achieved + harmonics)
    final_error = abs(final_sum - a)
    return ThetaPipelineResult(
        m=m, sigma=sigma, a=a, epsilon=epsilon, U=u_bound,
        N=int(primes.primes[i_u + count - 1]), gamma_value=gamma,
        primes=primes.primes[:i_u + count], theta2=theta2,
        final_sum=final_sum, final_error=final_error)


def save_theta(result: ThetaPipelineResult, path) -> None:
    """Plain-text serialization; one prime/angle pair per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# torus angle assignment\n")
        fh.write(f"m = {int(result.m)}\n")
        fh.write(f"sigma = {float(result.sigma)!r}\n")
        fh.write(f"a = {complex(result.a)!r}\n")
        fh.write(f"epsilon = {float(result.epsilon)!r}\n")
        fh.write(f"U = {int(result.U)}\n")
        fh.write(f"N = {int(result.N)}\n")
        fh.write(f"gamma = {complex(result.gamma_value)!r}\n")
        fh.write(f"target = {complex(result.theta2.target)!r}\n")
        fh.write(f"achieved = {complex(result.theta2.achieved)!r}\n")
        fh.write(f"residual = {float(result.theta2.residual)!r}\n")
        fh.write(f"final_sum = {complex(result.final_sum)!r}\n")
        fh.write(f"final_error = {float(result.final_error)!r}\n")
        fh.write(f"count = {result.primes.size}\n")
        for p, t in zip(result.primes, result.theta2.thetas):
            fh.write(f"{int(p)} {float(t)!r}\n")


def load_theta(path) -> ThetaPipelineResult:
    meta = {}
    ps = []
    ths = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line:
                key, _, val = line.partition("=")
                meta[key.strip()] = val.strip()
            else:
                parts = line.split()
                if len(parts) != 2:
                    raise ValidationError(
                        f"{path}: malformed assignment line {line!r}")
                ps.append(int(parts[0]))
                ths.append(float(parts[1]))
    try:
        primes = np.asarray(ps, dtype=np.int64)
        thetas = np.asarray(ths, dtype=np.float64)
        theta2 = AngleAssignment(thetas, complex(meta["target"]),
                                 complex(meta["achieved"]),
                                 float(meta["residual"]))
        return ThetaPipelineResult(
            m=int(meta["m"]), sigma=float(meta["sigma"]),
            a=complex(meta["a"]), epsilon=float(meta["epsilon"]),
            U=int(meta["U"]), N=int(meta["N"]),
            gamma_value=complex(meta["gamma"]), primes=primes,
            theta2=theta2, final_sum=complex(meta["final_sum"]),
            final_error=float(meta["final_error"]))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"{path}: incomplete theta file: {exc}") from None
