"""Shared numeric helpers: checked quadrature, log-domain integrals, orders, RNG streams.

All integrals in the package funnel through :func:`checked_quad` so that the
package-wide accuracy contract (relative tolerance ``REL_TOL``, absolute floor
``ABS_FLOOR``) is enforced in one place.  Every integral of a density, a seed's
``_log_expect`` (truncated moments, Poisson mixtures, the laws of the seed cut at n)
or the hierarchical mixing's weight, goes through :func:`log_quad`, which takes
its window from the integrand, not from n: a scan that closes in on the
ends and knots finds the peak, panels start at the peak's own width and double
outward, and only a tail shown to be below ``REL_TOL`` is cut.

SciPy submodules load on first use, never at import: ``special`` and
``integrate`` below are :class:`_Deferred` handles that import
``scipy.special`` and ``scipy.integrate`` on their first attribute lookup.
So on power-law configs ``sample``, ``hub``, ``motifs``, ``gf2`` and ``report``
load neither, and a traced run books each import to its first caller's span.
"""

from __future__ import annotations

import importlib
import math
import types

import numpy as np

from .errors import ParameterError, QuadratureError

__all__ = [
    "REL_TOL",
    "ABS_FLOOR",
    "checked_quad",
    "log_quad",
    "logsumexp",
    "check_orders",
    "shaped_like",
    "stream_seed",
    "spawn_rng",
]

REL_TOL = 1e-10
ABS_FLOOR = 1e-300

# QUADPACK is asked for one digit more than we promise.
_EPS_REQUEST = 1e-11
_LIMIT = 200
# log_quad: scan depth in halvings, the fall that ends the peak's bracket and
# first panels, the log of the ratio below which a tail is cut, and the golden-
# section steps (0.618**100 of a bracket is below a float's resolution of it)
_SCAN_DEPTH, _FALL, _DROP, _GOLDEN_STEPS = 52, 1.0, 60.0, 100
_GOLD = (3.0 - math.sqrt(5.0)) / 2.0


class _Deferred(types.ModuleType):
    """Stands in for the module of its name, imported on the first attribute
    lookup; each resolved name is cached, so later lookups skip the hook."""

    def __getattr__(self, attr):
        value = getattr(importlib.import_module(self.__name__), attr)
        setattr(self, attr, value)
        return value


special = _Deferred("scipy.special")
integrate = _Deferred("scipy.integrate")


def checked_quad(func, a, b, points=None, rel_tol=REL_TOL):
    """Integrate the scalar ``func`` over [a, b] (``b`` may be inf), failing loudly
    unless QUADPACK's error estimate is within ``rel_tol`` of the value (or under
    ``ABS_FLOOR``).  ``points`` are interior break points, used on finite [a, b]."""
    if a == b:
        return 0.0
    kwargs = {"epsabs": ABS_FLOOR, "epsrel": _EPS_REQUEST, "limit": _LIMIT}
    if points is not None and np.isfinite(b) and np.isfinite(a):
        pts = sorted({p for p in points if a < p < b})
        if pts:     # QUADPACK starts from the len(pts) + 1 panels, and needs room to split them
            kwargs.update(points=pts, limit=_LIMIT + len(pts))
    # full_output returns QUADPACK's complaint instead of warning; the test below decides
    value, abserr = integrate.quad(func, a, b, full_output=1, **kwargs)[:2]
    if abserr > max(rel_tol * abs(value), ABS_FLOOR):
        # One retry with a finer subdivision limit before giving up.
        kwargs["limit"] = 1000
        value, abserr = integrate.quad(func, a, b, full_output=1, **kwargs)[:2]
        if abserr > max(rel_tol * abs(value), ABS_FLOOR):
            raise QuadratureError(
                f"quadrature on [{a}, {b}] reached |err|~{abserr:.3e} "
                f"for value {value:.6e}, above tolerance {rel_tol:.1e}",
                achieved=abserr,
            )
    return value


def log_quad(log_func, a, b, points=()):
    """log of ``integral(exp(log_func))`` over [a, b], a finite, b finite or inf,
    with kinks at ``points``; ``-inf`` for an integrand that is 0 wherever scanned.

    A scan of the ends and knots, closing in on each by factors of 4 (toward inf,
    doubling out until negligible), finds the best point; golden-section search
    narrows it to a bracket whose ends are within e**-_FALL of the best.  Each
    side's first panel ends where the integrand first falls below that as the
    bracket's width doubles; panels then double out to the end or the cut."""
    if not b > a:
        return -np.inf
    seen = {}

    def at(x):      # cached; nan and +inf (a singular end) read as log 0
        if x not in seen:
            with np.errstate(invalid="ignore", divide="ignore"):
                v = float(log_func(x))
            seen[x] = v if math.isfinite(v) else -math.inf
        return seen[x]

    knots = sorted({float(p) for p in points if a < p < b})
    for lo, hi in zip([a, *knots], [*knots, b]):
        at(lo)
        if hi < math.inf:
            for q in (4.0 ** -k for k in range(_SCAN_DEPTH // 2 + 1)):
                at(lo + (hi - lo) * q)
                at(hi - (hi - lo) * q)
            continue
        for d in (1.0 + abs(lo)) * 2.0 ** np.arange(-_SCAN_DEPTH, _SCAN_DEPTH + 1):
            if at(lo + d) + math.log(d) < max(seen.values()) - _DROP:
                break
    grid = sorted(seen)
    j = max(range(len(grid)), key=lambda i: seen[grid[i]])
    lo, x, hi = grid[max(j - 1, 0)], grid[j], grid[min(j + 1, len(grid) - 1)]
    if seen[x] == -math.inf:
        return -np.inf
    for _ in range(_GOLDEN_STEPS):
        if min(at(lo), at(hi)) >= at(x) - _FALL:
            break
        y = x - _GOLD * (x - lo) if x - lo > hi - x else x + _GOLD * (hi - x)
        if at(y) > at(x):   # the better point is the new centre
            lo, x, hi = (lo, y, x) if y < x else (x, y, hi)
        else:
            lo, hi = (y, hi) if y < x else (lo, y)
    peak = at(x)
    # The integral is at least about e**(peak - _FALL) (hi - lo).  The range is cut
    # at the first panel edge past every scanned t where f(t) |t - x| tops e**-_DROP
    # of that, if the edge is below it too.  A tail falling from there at least like
    # |t - x|**-(1 + eps) drops under e**-_DROP / eps: below REL_TOL for eps > 1e-15.
    floor = peak - _FALL + math.log(hi - lo) - _DROP

    def edges(end):
        sign, s, out = math.copysign(1.0, end - x), hi - lo, []
        while s < abs(end - x) and at(x + sign * s) >= peak - _FALL:
            s *= 2.0
        reach = max((abs(t - x) for t, v in seen.items()
                     if sign * (t - x) > 0 and v + math.log(abs(t - x)) >= floor), default=0.0)
        while s < abs(end - x):
            out.append(x + sign * s)
            if s >= reach and at(out[-1]) + math.log(s) < floor:
                return out
            s *= 2.0
        return out + [end]

    left, right = edges(a), edges(b)
    if right[-1] == math.inf:
        raise QuadratureError(f"integrand of log_quad is not negligible toward {b}")
    # the peak lies inside the two first panels, as it may sit an ulp from an end
    value = checked_quad(lambda t: math.exp(max(at(t) - peak, -745.0)), left[-1], right[-1],
                         points=[*left[:-1], *right[:-1], *knots])
    return peak + math.log(value) if value > 0.0 else -np.inf


def logsumexp(values):
    """log of the sum of exp(values) over the last axis, the largest term factored out;
    -inf where all are -inf."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] == 1:   # one term is its own log-sum
        return values[..., 0]
    top = values.max(axis=-1)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return shift + np.log(np.exp(values - shift[..., None]).sum(axis=-1))


def check_orders(k, what: str, hi=None) -> np.ndarray:
    """One order or an array of them as int64 of at least one dimension, each
    an integer in [0, hi].  Integral floats such as 3.0 are accepted."""
    ks = np.atleast_1d(np.asarray(k))
    integral = ks.dtype.kind in "biu"
    if ks.dtype.kind == "f":    # NaN and inf fail both tests
        integral = bool(np.all((np.abs(ks) < 2.0 ** 62) & (ks == np.floor(ks))))
    ks = ks.astype(np.int64) if integral else ks
    if not integral or np.any(ks < 0) or (hi is not None and np.any(ks > hi)):
        bound = "a nonnegative integer" if hi is None else f"an integer in [0, {hi}]"
        raise ParameterError(f"{what} must be {bound}, got {k!r}")
    return ks


def shaped_like(out, k):
    """``out`` for an array order argument ``k``, else its one value as a float."""
    return out if np.ndim(k) else float(np.ravel(out)[0])


# SplitMix64 constants; the finalizer below is the standard 64-bit mix.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_seed(master_seed: int, replica_index: int, stream_tag: int = 0) -> int:
    """Derive a 64-bit stream seed from (master_seed, replica_index, tag).

    Each input is absorbed with a SplitMix64 round so that nearby master
    seeds or replica indices land in unrelated streams.  Pure function of its
    arguments: the same triple always yields the same stream regardless of
    scheduling.
    """
    state = _mix64(master_seed + _GOLDEN)
    state = _mix64(state + _GOLDEN * (replica_index + 1))
    state = _mix64(state + _GOLDEN * (stream_tag + 1))
    return state


def spawn_rng(master_seed: int, replica_index: int, stream_tag: int = 0) -> np.random.Generator:
    """Deterministic per-replica generator; see :func:`stream_seed`."""
    return np.random.Generator(np.random.PCG64(stream_seed(master_seed, replica_index, stream_tag)))
