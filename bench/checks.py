"""Output checks for each CLI command the benchmark runs.

Each ``check_<command>`` returns a list of failure messages (empty means the
invocation's outputs are correct).  The checks are chosen to stay valid when
a later change alters random streams or the last digits of a closed form:

* edge lists must parse, hold in-range distinct edges in row-major order, and
  match ``sample.json``'s ``edges_per_replica``; the total edge count must lie
  within 6 standard errors of replicas * m * n * E[theta], with the theta
  moments computed here by independent quadrature, not by exchgraph;
* analytic report fields must match a reference recorded at the default seed
  to a relative tolerance of ``REL_TOL`` (absolute floor ``ABS_TOL``);
* ``mc`` must exit 0 with every suite passing; failing suites are named.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import HUB_KS_MAX

REL_TOL = 1e-7
ABS_TOL = 1e-12
EDGE_SIGMAS = 6.0

# Report fields that depend on the random stream; removed before comparing
# against the reference.
SEEDED_FIELDS = {
    "degrees": (("config", "master_seed"),),
    "motifs": (("config", "master_seed"),),
    "report": (("config", "master_seed"),),
    "gf2": (("config", "master_seed"), ("gf2", "first_replica_census")),
    "hub": (("config", "master_seed"), ("hub", "empirical_cdf"),
            ("hub", "ks_distance"), ("hub", "moment", "mc_mean"),
            ("hub", "moment", "mc_se"), ("hub", "moment", "z_frechet"),
            ("hub", "moment", "z_competing"), ("hub", "moment", "winner")),
}


def analytic_part(command: str, report: dict) -> dict:
    """The report with its seed-dependent fields removed."""
    out = json.loads(json.dumps(report))
    for path in SEEDED_FIELDS.get(command, ()):
        node = out
        for key in path[:-1]:
            node = node.get(key, {})
        node.pop(path[-1], None)
    return out


def _compare(expected, actual, where: str, errors: list) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            errors.append(f"{where}: keys {sorted(actual)} != {sorted(expected)}")
            return
        for key in expected:
            _compare(expected[key], actual[key], f"{where}.{key}", errors)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            errors.append(f"{where}: length {len(actual)} != {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{where}[{i}]", errors)
    elif (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
          and not isinstance(expected, bool) and not isinstance(actual, bool)):
        if abs(actual - expected) > REL_TOL * max(abs(expected), abs(actual)) + ABS_TOL:
            errors.append(f"{where}: {actual!r} != reference {expected!r}")
    elif expected != actual:
        errors.append(f"{where}: {actual!r} != reference {expected!r}")


def compare_to_reference(command: str, report: dict, reference: dict) -> list:
    errors: list = []
    _compare(reference, analytic_part(command, report), command, errors)
    return errors[:5]


def theta_moments(mixing: dict, n: int) -> tuple[float, float]:
    """E theta and E theta^2 for the power-law families, by quadrature.

    Both families have density proportional to g(n theta) theta^-beta on
    (alpha/n, 1], with g = 1 for the plain power law and g piecewise linear
    in t = n theta (held constant beyond the table) for the modulated one.
    The trapezoid rule on a fine geometric grid in t, with the g knots
    added, is accurate to about 1e-9 relative here.
    """
    alpha, beta = float(mixing["alpha"]), float(mixing["beta"])
    knots = np.array([p[0] for p in mixing.get("g_table", ())], dtype=float)
    t = np.geomspace(alpha, float(n), 400_001)
    t = np.unique(np.concatenate([t, knots[(knots > alpha) & (knots < n)]]))
    g = np.ones_like(t)
    if "g_table" in mixing:
        g = np.interp(t, knots, [p[1] for p in mixing["g_table"]])
    w = g * t ** -beta
    z = np.trapezoid(w, t)
    return (float(np.trapezoid(w * t, t) / (n * z)),
            float(np.trapezoid(w * t * t, t) / (n * n * z)))


def _parse_edges(path: Path, n: int, m: int, replica: int) -> tuple[int, list]:
    errors = []
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    header = [line for line in lines[:3] if line.startswith("#")]
    if len(header) != 3 or f"n={n} m={m} replica={replica} " not in header[1]:
        errors.append(f"{path.name}: bad header {header[:2]!r}")
    body = "\n".join(lines[len(header):])
    try:
        pairs = np.array(body.split(), dtype=np.int64).reshape(-1, 2)
    except ValueError:
        return 0, errors + [f"{path.name}: edge lines do not parse as integer pairs"]
    if len(pairs):
        rows, cols = pairs[:, 0], pairs[:, 1]
        if rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n:
            errors.append(f"{path.name}: edge endpoint out of range")
        keys = rows * n + cols
        if np.any(np.diff(keys) <= 0):
            errors.append(f"{path.name}: edges repeat or are out of row-major order")
    return len(pairs), errors


def check_sample(config: dict, out: Path) -> tuple[list, int]:
    """Returns (failures, total edges written)."""
    ens = config["ensemble"]
    n, replicas = ens["n"], ens["replicas"]
    m = n  # square row rule
    manifest = json.loads((out / "sample.json").read_text(encoding="utf-8"))
    files, counts = manifest["files"], manifest["edges_per_replica"]
    errors = []
    if len(files) != replicas or len(counts) != replicas:
        return [f"sample.json lists {len(files)} files for {replicas} replicas"], 0
    total = 0
    for k, (name, claimed) in enumerate(zip(files, counts)):
        found, errs = _parse_edges(out / name, n, m, k)
        errors += errs
        if found != claimed:
            errors.append(f"{name}: {found} edges, sample.json says {claimed}")
        total += found
    mu1, mu2 = theta_moments(ens["mixing"], n)
    expected = replicas * m * n * mu1
    row_var = n * (mu1 - mu2) + n * n * (mu2 - mu1 * mu1)
    se = math.sqrt(replicas * m * row_var)
    if abs(total - expected) > EDGE_SIGMAS * se:
        errors.append(f"total edges {total} is {abs(total - expected) / se:.1f} "
                      f"standard errors from {expected:.1f}")
    return errors, total


def check_analytic(command: str, out: Path, reference: dict) -> list:
    report = json.loads((out / f"{command}.json").read_text(encoding="utf-8"))
    errors = compare_to_reference(command, report, reference[command])
    if command == "gf2":
        census = report["gf2"]["first_replica_census"]
        if not (0 <= census["rank"] <= min(census["rows"], census["cols"])
                and census["nullity_of_transpose"] == census["rows"] - census["rank"]):
            errors.append(f"gf2: inconsistent census {census}")
    if command == "hub":
        cdf = np.array(report["hub"]["empirical_cdf"], dtype=float)
        if cdf[0, 1] < 0 or cdf[-1, 1] > 1 or np.any(np.diff(cdf, axis=0) < 0):
            errors.append("hub: empirical cdf is not a nondecreasing cdf")
        if not report["hub"]["ks_distance"] <= HUB_KS_MAX:
            errors.append(f"hub: ks distance {report['hub']['ks_distance']} "
                          f"above {HUB_KS_MAX}")
    return errors


def check_mc(out: Path, exit_code: int) -> list:
    report = json.loads((out / "mc.json").read_text(encoding="utf-8"))
    failed = sorted(name for name, suite in report["suites"].items()
                    if not suite["pass"])
    errors = [f"mc suite {name} failed: {report['suites'][name]}" for name in failed]
    if report["pass"] != (not failed):
        errors.append("mc.json overall pass disagrees with its suites")
    if (exit_code == 0) == bool(failed):
        errors.append(f"mc exit code {exit_code} disagrees with the suites")
    return errors
