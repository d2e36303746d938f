"""Ordinal kernel tests against an independent unit-list oracle.

The oracle represents an ordinal below w^w as the list of its w-power
units in weakly decreasing order (w^2 + w^2 + w + 1 + 1 is
(2, 2, 1, 0, 0)).  Addition is concatenation followed by absorption of
every unit that has a strictly larger unit somewhere to its right;
comparison is plain tuple comparison; pred drops the last unit.
"""

import copy
import itertools
import pickle

import pytest

from nablamu import OMEGA, ONE, Ordinal, ZERO
from nablamu.ordinal import NoPredecessor, OrdinalKind, OrdinalParseError


# ---------------------------------------------------------------- oracle

def units(o: Ordinal):
    return tuple(e for e, c in o.terms for _ in range(c))


def oracle_add(a, b):
    cat = units(a) + units(b)
    kept = tuple(
        u for i, u in enumerate(cat)
        if not any(v > u for v in cat[i + 1:])
    )
    return kept


def oracle_pred(a):
    u = units(a)
    return u[:-1] if u else None


def all_ordinals(max_exp=2, max_coeff=5):
    """Every ordinal whose normal form uses exponents <= max_exp with
    coefficients 1..max_coeff (216 ordinals for the defaults)."""
    per_exp = [(None, *range(1, max_coeff + 1))] * (max_exp + 1)
    for combo in itertools.product(*per_exp):
        terms = [
            (e, c)
            for e, c in zip(range(max_exp, -1, -1), combo)
            if c is not None
        ]
        yield Ordinal(terms)


ORDINALS = list(all_ordinals())


def test_universe_size():
    assert len(ORDINALS) == 6 ** 3
    assert len(set(ORDINALS)) == len(ORDINALS)


def test_add_matches_oracle_exhaustively():
    for a, b in itertools.product(ORDINALS, repeat=2):
        assert units(a + b) == oracle_add(a, b), f"{a} + {b}"


def test_compare_matches_oracle_exhaustively():
    for a, b in itertools.product(ORDINALS, repeat=2):
        assert (a < b) == (units(a) < units(b)), f"{a} < {b}"
        assert (a == b) == (units(a) == units(b))


def test_pred_matches_oracle():
    for a in ORDINALS:
        if a.is_zero:
            continue
        assert units(a.pred()) == oracle_pred(a), f"pred({a})"


# ------------------------------------------------------- pinned identities

def test_pred_of_omega_plus_one_is_omega():
    assert (OMEGA + 1).pred() == OMEGA


@pytest.mark.parametrize("k", range(11))
def test_pred_steps_down_omega_multiples(k):
    assert Ordinal.omega_times(k + 1).pred() == Ordinal.omega_times(k)


def test_pred_of_zero_raises():
    with pytest.raises(NoPredecessor):
        ZERO.pred()


def test_pred_of_omega_squared():
    assert Ordinal.single(2).pred() == ZERO


# ----------------------------------------------------------- constructors

def test_natural_round_trip():
    for n in range(10):
        o = Ordinal.natural(n)
        assert o.is_finite and o.to_int() == n


def test_natural_rejects_negative():
    with pytest.raises(ValueError):
        Ordinal.natural(-1)


def test_int_mixing_in_addition():
    assert OMEGA + 0 == OMEGA
    assert 3 + OMEGA == OMEGA
    assert (OMEGA + 3) + 1 == OMEGA + 4
    assert 0 + ONE == ONE


def test_terms_are_normal_form():
    o = Ordinal([(2, 1), (1, 2), (0, 3)])
    assert o.terms == ((2, 1), (1, 2), (0, 3))
    with pytest.raises(ValueError):
        Ordinal([(1, 1), (2, 1)])
    with pytest.raises(ValueError):
        Ordinal([(1, 0)])


def test_kind_partition():
    for a in ORDINALS:
        kinds = [a.is_zero, a.is_successor, a.is_limit]
        assert kinds.count(True) == 1
        assert a.kind() in (OrdinalKind.ZERO, OrdinalKind.SUCCESSOR,
                            OrdinalKind.LIMIT)
        if a.is_limit:
            assert not a.is_finite
        if a.is_successor:
            assert a.pred() + 1 == a


def test_last_exponent():
    assert (OMEGA + 1).last_exponent == 0
    assert Ordinal.omega_times(2).last_exponent == 1
    assert Ordinal.single(2).last_exponent == 2


def test_to_int_rejects_transfinite():
    with pytest.raises(ValueError):
        OMEGA.to_int()


def test_bool_is_nonzero():
    assert not ZERO
    assert OMEGA


# ------------------------------------------------------------- text forms

@pytest.mark.parametrize("text, value", [
    ("0", ZERO),
    ("1", ONE),
    ("7", Ordinal.natural(7)),
    ("w", OMEGA),
    ("w+1", OMEGA + 1),
    ("w.3", Ordinal.omega_times(3)),
    ("w^2", Ordinal.single(2)),
    ("w^2.4+w.2+5", Ordinal.single(2, 4) + Ordinal.omega_times(2) + 5),
])
def test_parse_pinned(text, value):
    assert Ordinal.parse(text) == value
    assert str(value) == text


def test_parse_round_trip_exhaustive():
    for a in ORDINALS:
        assert Ordinal.parse(str(a)) == a


@pytest.mark.parametrize("bad", ["", "w+", "x", "w^", "-1", "w.0", "1+w+",
                                 "007", "w^1", "w.1", "w^0.3", "w^01.02",
                                 "w^1.2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(OrdinalParseError):
        Ordinal.parse(bad)


# -------------------------------------------------------------- structure

def test_addition_is_associative_on_sample():
    sample = ORDINALS[::9]
    for a, b, c in itertools.product(sample, repeat=3):
        assert (a + b) + c == a + (b + c)


def test_left_addition_preserves_strict_order():
    sample = ORDINALS[::7]
    for d in (ONE, OMEGA, Ordinal.single(2)):
        for a, b in itertools.combinations(sample, 2):
            lo, hi = (a, b) if a < b else (b, a)
            if lo == hi:
                continue
            assert d + lo < d + hi


def test_ordinals_are_immutable_and_hashable():
    o = OMEGA + 1
    with pytest.raises(AttributeError):
        o.terms = ()
    assert len({OMEGA, OMEGA + 0, OMEGA + 1}) == 2


# ------------------------------------------------------- value contract

def test_multiplication_is_absent():
    for product in (lambda: OMEGA * 2, lambda: 2 * OMEGA, lambda: OMEGA * OMEGA):
        with pytest.raises(TypeError, match="unsupported operand"):
            product()


def test_pickle_and_copy_round_trips_give_ordinals():
    for o in (ZERO, ONE, OMEGA + 3, Ordinal.single(2, 5)):
        copies = [copy.copy(o), copy.deepcopy(o)]
        copies += [pickle.loads(pickle.dumps(o, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is Ordinal and c == o and str(c) == str(o)


def test_hash_and_terms_are_the_plain_tuple():
    for o in ORDINALS:
        assert type(o.terms) is tuple
        assert hash(o) == hash(o.terms)


def test_an_ordinal_is_not_an_int():
    assert (Ordinal.natural(3) == 3) is False
    assert Ordinal.natural(3) != 3 and ZERO != 0
    for compare in (lambda: Ordinal.natural(3) < 3, lambda: 3 <= ONE, lambda: OMEGA > 1):
        with pytest.raises(TypeError):
            compare()


def test_no_attribute_can_be_set():
    with pytest.raises(AttributeError):
        OMEGA.stage = 1
