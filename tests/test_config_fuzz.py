"""Config fuzz: every drawn config either runs or fails with ``exchgraph: error:``.

Configs are small (n <= 64, a few replicas, 100 or more for ``mc``) and span
every mixing variant, seed kind, row rule and ensemble variant, and every
key of the four task blocks.  Each value is drawn from in-range values most
of the time, and otherwise from out-of-range values, wrong types or an
absent key; an unknown key is sometimes added.  The examples are the
comparison configs c01-c15 (see ``CHANGES.md``) at n <= 64.

The draws are derandomized so that tier-1 stays reproducible; a change to the
strategies moves them.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from exchgraph.cli import main

COMMANDS = ("sample", "degrees", "motifs", "hub", "gf2", "report", "mc")
# Commands whose quadratures take seconds on a kind; the tests of the
# numerics cover those pairs, so the fuzz leaves them out.
_SLOW = {"lerch": {"sample", "degrees", "motifs", "gf2", "mc"}}
_ABSENT = object()
_WRONG_TYPES = [None, "x", True, [1.0], {"a": 1}]
_RARE = st.sampled_from([False] * 39 + [True])   # True about one time in forty


@st.composite
def _value(draw, valid, out_of_range=()):
    """Usually one of ``valid``; about one time in forty, something else."""
    if not draw(_RARE):
        return draw(valid if isinstance(valid, st.SearchStrategy) else st.sampled_from(valid))
    return draw(st.sampled_from([*out_of_range, *_WRONG_TYPES, _ABSENT]))


@st.composite
def _object(draw, tag, kinds):
    """A JSON object of one of ``kinds`` (name -> {key: (valid, out_of_range)})."""
    kind = draw(st.sampled_from(sorted(kinds)))
    out = {} if tag is None else {tag: kind}
    for key, (valid, bad) in kinds[kind].items():
        value = draw(_value(valid, bad))
        if value is not _ABSENT:
            out[key] = value
    if draw(_RARE):
        out["bogus"] = 1
    return out


# the modulated power law's keys, as a mixing family and as its seed
_MODULATED_KEYS = {"alpha": ([1.0], [0.0]), "beta": ([2.5], [0.5]),
                   "g_table": ([[[0, 1], [10, 2]]], [[[0, 1]], [[1, 2], [0, 1]], "ab"])}
SEEDS = _object("kind", {
    "dirac": {"t0": ([2.0, 0.5, 0.0], [-1.0])},
    "exponential": {"gamma": ([1.0, 2], [0.0])},
    "gamma": {"r": ([2.0, 0.5], [-1.0]), "gamma": ([1.0], [0.0])},
    "pareto_tail": {"alpha": ([1.0], [0.0]), "eta": ([1.5, 0.5], [-1.0])},
    "power_law": {"alpha": ([1.0], [0.0]), "beta": ([2.5, 1.5], [1.0])},
    "lerch": {"alpha": ([1.5], [0.5]), "s": ([2.5], [1.0])},
    "hierarchical": {"A": ([1.0, 0.5], [0.0]), "beta": ([3.0, 2.5], [2.0]),
                     "gamma_exp": ([4.5, 4.0], [2.0])},
    "modulated_power_law": _MODULATED_KEYS,
})
MIXINGS = _object("variant", {
    "dirac": {"lambda": ([2, 2.5, 0], [-1.0, 100.0])},
    "power_law": {"alpha": ([1, 0.5], [0.0, 70.0]), "beta": ([3, 1.5, 2.0, 2.5], [1.0])},
    "modulated_power_law": _MODULATED_KEYS,
    "seed_cdf": {"seed": (SEEDS, [])},
    "hierarchical": {"A": ([1.0], [40.0]), "beta": ([3.0], [2.0]),
                     "gamma_exp": ([4.5], [3.0])},
})
ROW_RULES = _object("kind", {
    "square": {},
    "fraction": {"delta": ([0.5, 1.0], [0.0, 1.5])},
    "power_fraction": {"delta": ([0.5, 1], [0.0])},
    "log_fraction": {"delta": ([1.0, 3.0], [0.0])},
    "explicit": {"m": ([1, 3, 12], [0, 2.5])},
})
ENSEMBLES = _object(None, {"ensemble": {
    "n": ([2, 8, 12, 16, 64, 40.0], [0, -1, 40.5]),
    "mixing": (MIXINGS, []),
    "row_rule": (ROW_RULES, []),
    "variant": (["partially_exchangeable", "completely_exchangeable", "hierarchical"],
                ["bogus"]),
    "master_seed": ([0, 7, 2 ** 40], [-1]),
    "replicas": ([1, 2, 100, 120], [0, -5]),
}})
_SIZES = {"n": ([2, 8, 12, 16], [0, -1, 2.5]), "rows": ([1, 3, 12], [0, 1.5]),
          "replicas": ([1, 2, 100, 150], [0])}


@st.composite
def _block(draw, keys):
    """A task block holding about a third of its keys."""
    out = {}
    for key, (valid, bad) in {**_SIZES, **keys}.items():
        value = draw(_value(valid, bad)) if draw(st.integers(0, 2)) == 0 else _ABSENT
        if value is not _ABSENT:
            out[key] = value
    return out


BLOCKS = {
    "degrees": _block({"k_max": ([0, 3, 12, 30], [-3, 2.7]),
                       "expected_mixing": (MIXINGS, []),
                       "min_p": ([0.01, 1e-4, 0.5], [-1.0, 2.0]),
                       "tv_max": ([0.5, 1.0, 0.0], [-1.0])}),
    "motifs": _block({"cycle_lengths": ([[2, 3, 4], [2], [3, 5.0]],
                                        [[], [1], [0], [2.5], "ab", [70]]),
                      "z_max": ([3.0, 5], [0.0, -1.0])}),
    "hub": _block({"grid_points": ([1, 20, 1000], [0, -4]),
                   "atom_threshold": ([0.99, 0.5, 1], [0.0, 2.0, -1.0]),
                   "ks_max": ([0.05, 1.0], [-0.1]),
                   "z_max": ([3.0, 5], [-1.0])}),
    "gf2": _block({"gammas": ([[1.0], [0.5, 1], [0.2, 0.4, 0.6, 0.8, 1.0]],
                              [[], [0.0], [-1.0], [2.0], 0.5]),
                   "grid_gamma": ([1.0, 0.5], [0.0, -1.0, 5.0]),
                   "z_max": ([4.0, 5], [-1.0])}),
}


@st.composite
def configs(draw):
    """A command and a config dict for it."""
    ensemble = draw(_value(ENSEMBLES, [[1, 2]]))
    config = {} if ensemble is _ABSENT else {"ensemble": ensemble}
    for name, block in BLOCKS.items():
        value = draw(_value(block, [5])) if draw(st.integers(0, 2)) == 0 else _ABSENT
        if value is not _ABSENT:
            config[name] = value
    if draw(st.integers(0, 9)) == 0:
        config["tasks"] = draw(st.sampled_from(
            [["degrees"], ["hub", "motifs"], ["gf2", "report"], [], ["bogus"], "degrees"]))
    if draw(_RARE):
        config["output_dir"] = draw(st.sampled_from([5, None, ["out"]]))
    text = json.dumps(config)
    slow = set().union(*(cmds for kind, cmds in _SLOW.items() if f'"{kind}"' in text))
    return draw(st.sampled_from([c for c in COMMANDS if c not in slow])), config


def _ensemble(n, mixing, replicas=2, **keys):
    return {"ensemble": {"n": n, "mixing": mixing, "master_seed": 7,
                         "replicas": replicas, **keys}}


def _power_law(alpha, beta):
    return {"variant": "power_law", "alpha": alpha, "beta": beta}


def _seed_cdf(kind, **keys):
    return {"variant": "seed_cdf", "seed": {"kind": kind, **keys}}


_HIERARCHICAL = {"variant": "hierarchical", "A": 1.0, "beta": 3.0, "gamma_exp": 4.5}
_MODULATED = {"variant": "modulated_power_law", "alpha": 1, "beta": 2.5,
              "g_table": [[0, 1], [10, 2], [100, 0.5], [1000, 1.5]]}
_C13_BLOCKS = {
    "tasks": ["degrees", "motifs", "hub", "gf2", "report"],
    "degrees": {"n": 30.0, "rows": 20.0, "replicas": 100.0, "k_max": 12.0,
                "expected_mixing": _power_law(1, 3), "min_p": 0.001, "tv_max": 1},
    "motifs": {"n": 30, "cycle_lengths": [2.0, 3], "z_max": 5},
    "hub": {"n": 40, "grid_points": 50.0, "atom_threshold": 1, "ks_max": 1, "z_max": 5},
    "gf2": {"n": 20, "rows": 16, "replicas": 200, "gammas": [1, 0.5], "grid_gamma": 1,
            "z_max": 5},
}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(configs())
@example(("degrees", _ensemble(40, {"variant": "dirac", "lambda": 2})))  # c01
@example(("gf2", _ensemble(40, _power_law(1, 3),
                           row_rule={"kind": "fraction", "delta": 0.5})))  # c02
@example(("sample", _ensemble(40, {"variant": "modulated_power_law", "alpha": 1,
                                   "beta": 2.5, "g_table": [[0, 1], [10, 2]]},
                              row_rule={"kind": "power_fraction", "delta": 0.1})))  # c03
@example(("degrees", _ensemble(40, _seed_cdf("dirac", t0=2.0),
                               row_rule={"kind": "log_fraction", "delta": 1.0})))  # c04
@example(("motifs", _ensemble(40, _seed_cdf("exponential", gamma=1.0),
                              row_rule={"kind": "explicit", "m": 10})))  # c05
@example(("gf2", _ensemble(40, _seed_cdf("gamma", r=2.0, gamma=1.0))))  # c06
@example(("hub", _ensemble(40, _seed_cdf("pareto_tail", alpha=1.0, eta=1.5),
                           replicas=100)))  # c07
@example(("degrees", _ensemble(40, _seed_cdf("power_law", alpha=1.0, beta=2.5))))  # c08
@example(("sample", _ensemble(12, _seed_cdf("lerch", alpha=1.5, s=2.5), replicas=1)))  # c09
@example(("sample", _ensemble(40, _HIERARCHICAL, variant="hierarchical")))  # c10
@example(("motifs", _ensemble(40, _HIERARCHICAL)))  # c11
@example(("report", _ensemble(40, _power_law(1.0, 1.5),
                              variant="completely_exchangeable")))  # c12
@example(("mc", {**_ensemble(40, _power_law(1.0, 3.0), replicas=100), **_C13_BLOCKS}))  # c13
@example(("hub", _ensemble(64, _power_law(1.0, 1.5), replicas=100,
                           row_rule={"kind": "power_fraction", "delta": 1.0})))  # c14
@example(("mc", {**_ensemble(40, _power_law(1.0, 3.0), replicas=100), "tasks": ["degrees"],
                 "degrees": {"expected_mixing": {"variant": "dirac", "lambda": 2}}}))  # c15
@example(("report", _ensemble(2, _power_law(1, 3))))  # no triangles: divided by zero
@example(("mc", {**_ensemble(200, {"variant": "dirac", "lambda": 0}, replicas=200),
                 "tasks": ["gf2"], "gf2": {"n": 32, "rows": 16}}))  # no spread: z was inf
@example(("hub", _ensemble(40, _seed_cdf("hierarchical", A=1.0, beta=3.0, gamma_exp=4.5),
                           replicas=100)))  # a seed of the hierarchical family
@example(("hub", _ensemble(40, _seed_cdf("dirac", t0=0.0), replicas=100)))  # no edges
@example(("hub", _ensemble(40, _MODULATED, replicas=100)))  # the modulated family's seed
@example(("gf2", _ensemble(40, _MODULATED)))
@example(("degrees", _ensemble(40, _MODULATED)))
def test_every_config_runs_or_fails_with_a_config_error(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        config = {"output_dir": os.path.join(tmp, "out"), **config}
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", path])
    event(f"{command} exit {code}")
    # exit 2 is a statistical failure, which only mc reports
    assert code in ((0, 1, 2) if command == "mc" else (0, 1))
    if code == 1:
        assert err.getvalue().startswith("exchgraph: error:"), err.getvalue()
