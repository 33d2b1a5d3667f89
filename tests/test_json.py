"""Wire format of the three parameter families: frozen dicts and round trips."""

import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exchgraph.cli import Gf2Block, MotifsBlock
from exchgraph.ensemble import (EnsembleConfig, ExplicitRows, FractionRows, LogFractionRows,
                                PowerFractionRows, RowRule, SquareRows)
from exchgraph.errors import ConfigError, ParameterError
from exchgraph.mixing import (DiracMixing, HierarchicalMixing, MixingSpec,
                              ModulatedPowerLawMixing, PowerLawMixing, SeedCdfMixing)
from exchgraph.seeds import (DiracSeed, ExponentialSeed, GammaSeed, HierarchicalSeed,
                             LerchSeed, ModulatedPowerLawSeed, ParetoTailSeed, PowerLawSeed,
                             SeedDistribution)

# (family root, reader, error class)
FAMILIES = {
    "mixing": (MixingSpec, MixingSpec.from_json, ParameterError),
    "seed": (SeedDistribution, SeedDistribution.from_json, ParameterError),
    "rows": (RowRule, RowRule.from_json, ConfigError),
}

# one instance per registered kind, with its wire form written out by hand
FROZEN = {
    "mixing": [
        (DiracMixing(lam=2.0), {"variant": "dirac", "lambda": 2.0}),
        (PowerLawMixing(alpha=1.0, beta=3.0),
         {"variant": "power_law", "alpha": 1.0, "beta": 3.0}),
        (ModulatedPowerLawMixing(alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (3.0, 2.0))),
         {"variant": "modulated_power_law", "alpha": 1.0, "beta": 2.5,
          "g_table": [[0.0, 1.0], [3.0, 2.0]]}),
        (SeedCdfMixing(seed=GammaSeed(r=2.0, gamma=1.5)),
         {"variant": "seed_cdf", "seed": {"kind": "gamma", "r": 2.0, "gamma": 1.5}}),
        (HierarchicalMixing(A=1.0, beta=3.0, gamma_exp=4.5),
         {"variant": "hierarchical", "A": 1.0, "beta": 3.0, "gamma_exp": 4.5}),
    ],
    "seed": [
        (DiracSeed(t0=2.0), {"kind": "dirac", "t0": 2.0}),
        (ExponentialSeed(gamma=1.3), {"kind": "exponential", "gamma": 1.3}),
        (GammaSeed(r=2.0, gamma=0.5), {"kind": "gamma", "r": 2.0, "gamma": 0.5}),
        (ParetoTailSeed(alpha=1.0, eta=1.5), {"kind": "pareto_tail", "alpha": 1.0, "eta": 1.5}),
        (PowerLawSeed(alpha=1.0, beta=2.5), {"kind": "power_law", "alpha": 1.0, "beta": 2.5}),
        (LerchSeed(alpha=1.5, s=2.5), {"kind": "lerch", "alpha": 1.5, "s": 2.5}),
    ],
    "rows": [
        (SquareRows(), {"kind": "square"}),
        (FractionRows(delta=0.25), {"kind": "fraction", "delta": 0.25}),
        (PowerFractionRows(delta=0.5), {"kind": "power_fraction", "delta": 0.5}),
        (LogFractionRows(delta=2.0), {"kind": "log_fraction", "delta": 2.0}),
        (ExplicitRows(m=4), {"kind": "explicit", "m": 4}),
    ],
}

# kinds registered after the table above was laid out; their cases go at the end of
# FROZEN_CASES so that the position-numbered test ids of the earlier cases stay put
FROZEN_LATER = {
    "seed": [
        (HierarchicalSeed(A=1.0, beta=3.0, gamma_exp=4.5),
         {"kind": "hierarchical", "A": 1.0, "beta": 3.0, "gamma_exp": 4.5}),
        (ModulatedPowerLawSeed(alpha=1.0, beta=2.5, g_table=((0.0, 1.0), (3.0, 2.0))),
         {"kind": "modulated_power_law", "alpha": 1.0, "beta": 2.5,
          "g_table": [[0.0, 1.0], [3.0, 2.0]]}),
    ],
}

FROZEN_CASES = [(family, obj, wire) for table in (FROZEN, FROZEN_LATER)
                for family, cases in table.items() for obj, wire in cases]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_frozen_table_covers_every_registered_kind(family):
    root = FAMILIES[family][0]
    assert sorted(root._kinds) == sorted(obj.to_json()[root._tag]
                                         for obj, _ in FROZEN[family]
                                         + FROZEN_LATER.get(family, []))


@pytest.mark.parametrize("family, obj, wire", FROZEN_CASES,
                         ids=[f"{f}-{w.get('kind', w.get('variant'))}"
                              for f, _, w in FROZEN_CASES])
def test_to_json_is_frozen(family, obj, wire):
    assert obj.to_json() == wire
    assert FAMILIES[family][1](wire) == obj


def test_integer_values_read_as_declared_types():
    spec = MixingSpec.from_json({"variant": "power_law", "alpha": 1, "beta": 3})
    assert spec.to_json() == {"variant": "power_law", "alpha": 1.0, "beta": 3.0}
    assert isinstance(spec.alpha, float)
    assert json.dumps(MixingSpec.from_json({"variant": "dirac", "lambda": 2}).to_json()) == \
        '{"variant": "dirac", "lambda": 2.0}'
    assert isinstance(RowRule.from_json({"kind": "explicit", "m": 4.0}).m, int)


# -- round trips over the parameter domains ----------------------------------


def _pos(lo=1e-3, hi=1e3):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


def _above(lo, hi=50.0):
    return st.floats(min_value=lo, max_value=hi, exclude_min=True)


def _ordered_pair(lo):
    """(beta, gamma_exp) with gamma_exp > beta > lo."""
    return st.tuples(_above(lo, 20.0), _pos(0.01, 10.0)).map(lambda t: (t[0], t[0] + t[1]))


_g_tables = st.lists(st.tuples(_pos(0.0, 1e3), _pos()), min_size=2, max_size=6,
                     unique_by=lambda p: p[0]).map(lambda ps: tuple(sorted(ps)))

SEEDS = st.one_of(
    st.builds(DiracSeed, t0=_pos(0.0)),
    st.builds(ExponentialSeed, gamma=_pos()),
    st.builds(GammaSeed, r=_pos(), gamma=_pos()),
    st.builds(ParetoTailSeed, alpha=_pos(), eta=_pos()),
    st.builds(PowerLawSeed, alpha=_pos(), beta=_above(1.0)),
    st.builds(LerchSeed, alpha=_above(1.0), s=_above(1.0)),
    st.builds(lambda a, bg: HierarchicalSeed(A=a, beta=bg[0], gamma_exp=bg[1]),
              _pos(), _ordered_pair(2.0)),
    st.builds(ModulatedPowerLawSeed, alpha=_pos(), beta=_above(1.0), g_table=_g_tables),
)

STRATEGIES = {
    "mixing": st.one_of(
        st.builds(DiracMixing, lam=_pos(0.0)),
        st.builds(PowerLawMixing, alpha=_pos(), beta=_above(1.0)),
        st.builds(ModulatedPowerLawMixing, alpha=_pos(), beta=_above(1.0), g_table=_g_tables),
        st.builds(SeedCdfMixing, seed=SEEDS),
        st.builds(lambda a, bg: HierarchicalMixing(A=a, beta=bg[0], gamma_exp=bg[1]),
                  _pos(), _ordered_pair(2.0)),
    ),
    "seed": SEEDS,
    "rows": st.one_of(
        st.just(SquareRows()),
        st.builds(FractionRows, delta=_pos(1e-3, 1.0)),
        st.builds(PowerFractionRows, delta=_pos()),
        st.builds(LogFractionRows, delta=_pos()),
        st.builds(ExplicitRows, m=st.integers(1, 10**9)),
    ),
}


def _round_trip_test(family):
    reader = FAMILIES[family][1]

    @settings(max_examples=150, deadline=None)
    @given(STRATEGIES[family])
    def check(obj):
        assert reader(json.loads(json.dumps(obj.to_json()))) == obj
    return check


test_mixing_round_trip = _round_trip_test("mixing")
test_seed_round_trip = _round_trip_test("seed")
test_row_rule_round_trip = _round_trip_test("rows")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FROZEN_CASES), st.text(min_size=1, max_size=8))
def test_unknown_key_is_an_error_naming_it(case, key):
    family, obj, wire = case
    _, reader, error = FAMILIES[family]
    assume(key not in wire)
    with pytest.raises(error, match=re.escape(repr(key))):
        reader({**wire, key: 1.0})


@pytest.mark.parametrize("family, obj, wire", [c for c in FROZEN_CASES if len(c[2]) > 1])
def test_missing_key_is_an_error_naming_it(family, obj, wire):
    _, reader, error = FAMILIES[family]
    tag = FAMILIES[family][0]._tag
    key = next(k for k in wire if k != tag)
    with pytest.raises(error, match=f"{wire[tag]} .* missing key '{key}'"):
        reader({k: v for k, v in wire.items() if k != key})


# -- reading rules shared by every config object --------------------------------


@pytest.mark.parametrize("wire", [
    {"kind": "explicit", "m": True}, {"kind": "explicit", "m": 2.5},
    {"kind": "explicit", "m": "4"}, {"kind": "fraction", "delta": False},
    {"kind": "fraction", "delta": "0.5"}, {"kind": "fraction", "delta": None},
], ids=["int-bool", "int-fraction", "int-string", "float-bool", "float-string",
        "float-null"])
def test_numbers_must_be_numbers_that_fit_the_field(wire):
    key = next(k for k in wire if k != "kind")
    with pytest.raises(ConfigError, match=f"key '{key}' has a bad value"):
        RowRule.from_json(wire)


def test_untagged_root_reads_its_fields_alone_with_defaults():
    cfg = EnsembleConfig.from_json({"n": 40.0, "mixing": {"variant": "dirac", "lambda": 2}})
    assert cfg == EnsembleConfig(n=40, mixing=DiracMixing(lam=2.0))
    assert cfg.to_json() == {"n": 40, "mixing": {"variant": "dirac", "lambda": 2.0},
                             "row_rule": {"kind": "square"},
                             "variant": "partially_exchangeable", "master_seed": 0,
                             "replicas": 1}
    with pytest.raises(ConfigError, match="ensemble config is missing key 'mixing'"):
        EnsembleConfig.from_json({"n": 40})
    with pytest.raises(ConfigError, match="ensemble config key 'variant' has a bad value 5"):
        EnsembleConfig.from_json({**cfg.to_json(), "variant": 5})
    with pytest.raises(ConfigError, match="ensemble config must be a JSON object"):
        EnsembleConfig.from_json([40])


def test_tuple_and_optional_fields_coerce_present_values():
    block = Gf2Block.from_json({"gammas": [1, 0.5], "grid_gamma": 1})
    assert block.gammas == (1.0, 0.5) and block.grid_gamma == 1.0
    assert all(isinstance(g, float) for g in (*block.gammas, block.grid_gamma))
    assert MotifsBlock.from_json({"cycle_lengths": [2.0, 3]}).cycle_lengths == (2, 3)
    assert Gf2Block.from_json({}) == Gf2Block() and Gf2Block().grid_gamma is None
    for bad in ({"gammas": "ab"}, {"gammas": [1, "x"]}, {"grid_gamma": None}):
        with pytest.raises(ConfigError, match="gf2 block key"):
            Gf2Block.from_json(bad)
