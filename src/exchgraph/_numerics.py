"""Shared numeric helpers: checked quadrature, log-domain integrals, orders, RNG streams.

All integrals in the package funnel through :func:`checked_quad` so that the
package-wide accuracy contract (relative tolerance ``REL_TOL``, absolute floor
``ABS_FLOOR``) is enforced in one place.  Integrands that vary over many
orders of magnitude go through :func:`log_quad`, which factors out the peak
of ``log f`` before handing the rescaled integrand to QUADPACK.

SciPy submodules load on first use, never at import: ``special`` and
``integrate`` below are :class:`_Deferred` handles that import
``scipy.special`` and ``scipy.integrate`` on their first attribute lookup.
So ``sample`` and ``hub`` on power-law configs load neither, and a traced run
books each import to the span of its first caller.
"""

from __future__ import annotations

import importlib
import types

import numpy as np

from .errors import ParameterError, QuadratureError

__all__ = [
    "REL_TOL",
    "ABS_FLOOR",
    "checked_quad",
    "log_quad",
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
_N_SCAN = 257   # points of the peak scan in log_quad


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
    """Integrate ``func`` over [a, b], failing loudly if accuracy is not met.

    Parameters
    ----------
    func : callable
        Scalar integrand.
    a, b : float
        Integration limits; ``b`` may be ``np.inf``.
    points : sequence of float, optional
        Interior break points (peaks, kinks).  Only used on finite intervals,
        where QUADPACK accepts them.
    rel_tol : float
        Acceptance threshold on the reported error estimate, relative to the
        integral value with an absolute floor of ``ABS_FLOOR``.
    """
    if a == b:
        return 0.0
    kwargs = {"epsabs": ABS_FLOOR, "epsrel": _EPS_REQUEST, "limit": _LIMIT}
    if points is not None and np.isfinite(b) and np.isfinite(a):
        pts = [p for p in points if a < p < b]
        if pts:
            kwargs["points"] = sorted(pts)
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


def log_quad(log_func, a, b, points=None):
    """Compute log of ``integral(exp(log_func))`` over a finite [a, b].

    The peak of ``log_func`` is located on a scan grid of _N_SCAN points
    (log-spaced when the interval spans orders of magnitude), subtracted off,
    and the remaining O(1) integrand is passed to :func:`checked_quad`.
    Returns ``-inf`` for an identically negligible integrand.
    """
    if not b > a:
        return -np.inf
    grid = np.geomspace(a, b, _N_SCAN) if a > 0 and b / a > 50.0 else np.linspace(a, b, _N_SCAN)
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = np.array([log_func(g) for g in grid], dtype=float)
    vals[~np.isfinite(vals)] = -np.inf
    peak = float(np.max(vals))
    if peak == -np.inf:
        return -np.inf
    peak_x = float(grid[int(np.argmax(vals))])
    brk = [peak_x] if points is None else sorted(set(list(points) + [peak_x]))

    def scaled(x):
        v = log_func(x) - peak
        return np.exp(v) if v > -745.0 else 0.0

    value = checked_quad(scaled, a, b, points=brk)
    if value <= 0.0:
        return -np.inf
    return peak + np.log(value)


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
