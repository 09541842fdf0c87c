"""Catalogue, stable-list enumeration and recognition checks.

Expected class lists are frozen from the published classification tables.
Codimensions are never asserted from subscripts alone: the engine recomputes
every one, which is what exposes the U-family divergence (U7 has computed
codimension exactly 7 yet is absent from every published result row).
"""

import json
import random
import time
from fractions import Fraction

import pytest
import sympy

import equidistants.geometry_engine as ge
import equidistants.normal_forms as nf
from api_extras import clear_mu_cache
from engine_oracle import both_engines
from equidistants.contact_lab import lambda_contact_from_pair, random_graph_pair
from equidistants.germ_algebra import (
    INFINITE,
    InfiniteCodimensionError,
    MapGerm,
    corank,
    hilbert_prefix,
    ke_codimension,
    ke_quotient_hilbert,
    random_k_move,
    rank0_reduce,
)
from equidistants.normal_forms import (
    MINUS,
    MU_EXCEEDS_Q,
    NOT_APPLICABLE,
    NOT_IN_TABLES,
    PLUS,
    UNDETERMINED,
    DomainError,
    GermClass,
    NotNiceDimensionsError,
    UnrecognizedGermError,
    catalogue,
    format_stable_table,
    is_nice_dimensions,
    normal_form,
    parse_label,
    recognize,
    stable_singularities,
)


def labels(row):
    return [c.label for c in row]


# ----------------------------------------------------------------- grammar


def test_parse_label_examples():
    assert parse_label("A3") == GermClass("A", (3,))
    assert parse_label("D4+") == GermClass("D", (4,), PLUS)
    assert parse_label("C2,3-") == GermClass("C", (2, 3), MINUS)
    assert parse_label("Ctilde6") == GermClass("Ctilde", (6,))
    assert parse_label("S5") == GermClass("S", (5,))
    assert parse_label("Ttilde7") == GermClass("Ttilde", (7,))
    assert parse_label("F7") == GermClass("F", (7,))
    assert parse_label("Gstar10") == GermClass("Gstar", (10,))


def test_unsigned_label_of_signed_family_is_undetermined():
    cls = parse_label("D5")
    assert cls.sign == UNDETERMINED
    assert parse_label("H10").sign == UNDETERMINED


def test_label_round_trip_over_catalogue():
    universe = (list(catalogue(3, 1, 8)) + list(catalogue(2, 2, 8))
                + list(catalogue(3, 2, 9)))
    assert universe
    for cls in universe:
        assert parse_label(cls.label) == cls


@pytest.mark.parametrize("bad", [
    "B3", "D3", "C2", "A0", "E9", "", "A3++", "Ttilde8", "W10",
    "Gstar9", "S4", "C3,2+", "A-1", "Dplus4",
])
def test_parse_label_rejects(bad):
    with pytest.raises(ValueError):
        parse_label(bad)


# ------------------------------------------------------------- germ classes


def test_sign_rules():
    with pytest.raises(ValueError):
        GermClass("A", (2,), PLUS)  # unsigned family
    with pytest.raises(ValueError):
        GermClass("D", (4,))  # signed family needs an explicit sign state
    with pytest.raises(ValueError):
        GermClass("S", (5,), MINUS)  # formula sign does not split the symbol
    assert GermClass("D", (4,), UNDETERMINED).label == "D4"


@pytest.mark.parametrize("family,params", [
    ("E", (9,)), ("C", (3, 2)), ("Ctilde", (7,)), ("Ctilde", (4,)),
    ("F", (6,)), ("Gstar", (9,)), ("H", (8,)), ("S", (4,)),
    ("T", (10,)), ("Ttilde", (8,)), ("U", (6,)), ("W", (7,)),
    ("Z", (8,)), ("Q", (1,)), ("A", (0,)), ("D", (3,)),
])
def test_out_of_table_params_rejected(family, params):
    with pytest.raises(ValueError):
        GermClass(family, params, UNDETERMINED
                  if family in ("D", "C", "H") else NOT_APPLICABLE)


def test_source_and_target_dimensions():
    assert GermClass("A", (1,)).intrinsic_source == 1
    assert GermClass("D", (4,), PLUS).intrinsic_source == 2
    assert GermClass("F", (7,)).intrinsic_source == 2
    assert GermClass("S", (5,)).intrinsic_source == 3
    assert GermClass("A", (3,)).target_dim == 1
    assert GermClass("C", (2, 2), PLUS).target_dim == 2
    assert GermClass("W", (9,)).target_dim == 2


# ------------------------------------------------------------- normal forms


def one(c):
    return Fraction(c)


def test_normal_form_a2_suspended_to_three_variables():
    f = normal_form(GermClass("A", (2,)), 3)
    assert f.polys() == [
        {(3, 0, 0): one(1), (0, 2, 0): one(1), (0, 0, 2): one(1)}
    ]


def test_normal_form_c22_plus():
    f = normal_form(GermClass("C", (2, 2), PLUS), 2)
    assert f.polys() == [
        {(1, 1): one(1)},
        {(2, 0): one(1), (0, 2): one(1)},
    ]


def test_normal_form_s5():
    f = normal_form(GermClass("S", (5,)), 3)
    assert f.polys() == [
        {(2, 0, 0): one(1), (0, 2, 0): one(1), (0, 0, 2): one(1)},
        {(0, 1, 1): one(1)},
    ]


def test_normal_form_minus_signs():
    f = normal_form(GermClass("D", (4,), MINUS), 2)
    assert f.polys() == [{(2, 1): one(1), (0, 3): one(-1)}]
    g = normal_form(GermClass("C", (2, 3), MINUS), 2)
    assert g.polys()[1] == {(2, 0): one(1), (0, 3): one(-1)}


def test_normal_form_suspension_rules():
    with pytest.raises(ValueError):
        normal_form(GermClass("D", (4,), PLUS), 1)  # below intrinsic count
    with pytest.raises(ValueError):
        normal_form(GermClass("S", (5,)), 4)  # pair germs never suspend
    with pytest.raises(ValueError):
        normal_form(GermClass("C", (2, 2), PLUS), 3)


def test_corrected_forms_carry_notes():
    assert GermClass("Ttilde", (7,)).correction_note is not None
    assert GermClass("W", (8,)).correction_note is not None
    assert GermClass("S", (5,)).correction_note is None
    assert normal_form(GermClass("Ttilde", (7,)), 3).polys() == [
        {(2, 0, 0): one(1), (0, 3, 0): one(1), (0, 1, 2): one(-3)},
        {(0, 2, 0): one(1), (0, 0, 2): one(1)},
    ]


# ----------------------------------------------------------- codimensions


def expected_mu(cls):
    if cls.family == "C":
        return cls.params[0] + cls.params[1]
    return cls.params[0]


def test_computed_mu_matches_symbol_subscript_everywhere():
    universe = (list(catalogue(3, 1, 8)) + list(catalogue(2, 2, 10))
                + list(catalogue(3, 2, 10)))
    seen = {c.family for c in universe}
    assert seen == {"A", "D", "E", "C", "Ctilde", "F", "Gstar", "H",
                    "S", "T", "Ttilde", "U", "W", "Z"}
    for cls in universe:
        assert cls.mu == expected_mu(cls), cls.label


def test_u7_codimension_is_exactly_seven():
    # The subscript does match the computed value; the published lists
    # still omit the family, so exclusion is a recorded fidelity choice,
    # not a codimension consequence.
    assert GermClass("U", (7,)).mu == 7
    f = normal_form(GermClass("U", (7,)), 3)
    assert ke_codimension(f) == 7


def test_mu_survives_cache_clearing():
    first = GermClass("C", (2, 2), PLUS).mu
    second_first = GermClass("Ttilde", (7,)).mu
    clear_mu_cache()
    assert GermClass("C", (2, 2), PLUS).mu == first == 4
    assert GermClass("Ttilde", (7,)).mu == second_first == 7


# --------------------------------------------------------------- catalogue


def test_catalogue_pair_examples():
    assert labels(catalogue(2, 2, 4)) == ["C2,2+", "C2,2-"]
    assert labels(catalogue(3, 2, 5)) == ["S5"]
    assert labels(catalogue(3, 1, 4)) == ["A1", "A2", "A3", "A4",
                                          "D4+", "D4-"]


def test_catalogue_one_variable_has_only_a():
    assert labels(catalogue(1, 1, 3)) == ["A1", "A2", "A3"]


def test_catalogue_off_table_reason():
    row = catalogue(1, 2, 10)
    assert list(row) == [] and row.reason == NOT_IN_TABLES
    row = catalogue(4, 2, 10)
    assert list(row) == [] and row.reason == NOT_IN_TABLES


def test_catalogue_empty_when_bound_is_too_small():
    row = catalogue(3, 2, 4)
    assert list(row) == [] and row.reason == MU_EXCEEDS_Q


def test_catalogue_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError):
        catalogue(0, 1, 5)
    with pytest.raises(ValueError):
        catalogue(2, 0, 5)


def test_catalogue_respects_bound_and_source():
    row = catalogue(2, 2, 8)
    assert row.reason is None
    for cls in row:
        assert cls.mu <= 8
        assert cls.intrinsic_source <= 2


def _c_rows(bound):
    return [f"C{k},{l}{sign}" for k in range(2, bound + 1)
            for l in range(k, bound - k + 1) for sign in "+-"]


FUNCTION_ROW_14 = ([f"A{mu}" for mu in range(1, 15)]
                   + [f"D{mu}{sign}" for mu in range(4, 15) for sign in "+-"]
                   + ["E6", "E7", "E8"])


@pytest.mark.parametrize("k, l, expected", [
    (1, 1, [f"A{mu}" for mu in range(1, 15)]),
    (2, 1, FUNCTION_ROW_14),
    (3, 1, FUNCTION_ROW_14),
    (2, 2, _c_rows(14) + ["Ctilde6", "Ctilde8", "Ctilde10", "Ctilde12",
                          "Ctilde14"]
     + [f"F{mu}" for mu in range(7, 15)] + ["Gstar10"]
     + [f"H{mu}{sign}" for mu in range(9, 15) for sign in "+-"]),
    (3, 2, [f"S{mu}" for mu in range(5, 15)]
     + ["T7", "T8", "T9", "Ttilde7", "U7", "U8", "U9", "W8", "W9", "Z9",
        "Z10"]),
])
def test_catalogue_rows_in_table_order(k, l, expected):
    # order matters: recognize returns the first one-component match
    row = catalogue(k, l, 14)
    assert labels(row) == expected and row.reason is None


def test_huge_subscripts_validate_without_enumerating_rows():
    start = time.perf_counter()
    assert GermClass("A", (10**9,)).label == "A1000000000"
    assert parse_label("A1000000000") == GermClass("A", (10**9,))
    assert parse_label("C1000000000,1000000001-").sign == MINUS
    assert time.perf_counter() - start < 1.0


# --------------------------------------------------------- nice dimensions


def test_nice_dimensions_examples():
    assert is_nice_dimensions(4, 6) is False
    assert is_nice_dimensions(3, 5) is True
    assert is_nice_dimensions(5, 6) is True


def test_nice_dimensions_boundary():
    assert is_nice_dimensions(4, 8) is True
    assert is_nice_dimensions(5, 10) is False
    assert is_nice_dimensions(5, 9) is False
    assert is_nice_dimensions(5, 8) is False
    assert is_nice_dimensions(5, 7) is False
    assert is_nice_dimensions(1, 2) is True
    assert is_nice_dimensions(6, 8) is False
    assert is_nice_dimensions(7, 9) is False


def test_nice_dimensions_domain():
    for n, q in ((3, 3), (2, 5), (4, 2), (1, 3)):
        with pytest.raises(DomainError) as err:
            is_nice_dimensions(n, q)
        assert err.value.code == "DOMAIN"


# ----------------------------------------------------- stable enumeration
#
# The ten expected rows below are the published classification of stable
# equidistant singularities per (n, q).


def rows_by_k(sl):
    return {row.k: row for row in sl.rows}


A = lambda top: [f"A{i}" for i in range(1, top + 1)]


def D(lo, hi):
    out = []
    for mu in range(lo, hi + 1):
        out += [f"D{mu}+", f"D{mu}-"]
    return out


def test_stable_row_1_2():
    by_k = rows_by_k(stable_singularities(1, 2))
    assert set(by_k) == {1}
    assert labels(by_k[1].entries) == A(2)


def test_stable_row_2_3():
    by_k = rows_by_k(stable_singularities(2, 3))
    assert set(by_k) == {2}
    assert labels(by_k[2].entries) == A(3)


def test_stable_row_2_4():
    by_k = rows_by_k(stable_singularities(2, 4))
    assert set(by_k) == {1, 2}
    assert labels(by_k[1].entries) == A(4)
    assert labels(by_k[2].entries) == ["C2,2+", "C2,2-"]


def test_stable_row_3_4():
    by_k = rows_by_k(stable_singularities(3, 4))
    assert set(by_k) == {3}
    assert labels(by_k[3].entries) == A(4) + D(4, 4)


def test_stable_row_3_5():
    by_k = rows_by_k(stable_singularities(3, 5))
    assert set(by_k) == {2, 3}
    assert labels(by_k[2].entries) == A(5) + D(4, 5)
    assert labels(by_k[3].entries) == ["S5"]


def test_stable_row_3_6():
    by_k = rows_by_k(stable_singularities(3, 6))
    assert set(by_k) == {1, 2, 3}
    assert labels(by_k[1].entries) == A(6)
    assert labels(by_k[2].entries) == [
        "C2,2+", "C2,2-", "C2,3+", "C2,3-", "C2,4+", "C2,4-",
        "C3,3+", "C3,3-", "Ctilde6",
    ]
    assert by_k[3].entries == ()
    assert by_k[3].reason == NOT_IN_TABLES


def test_stable_row_4_5():
    by_k = rows_by_k(stable_singularities(4, 5))
    assert set(by_k) == {4}
    assert labels(by_k[4].entries) == A(5) + D(4, 5)


def test_stable_row_4_7():
    by_k = rows_by_k(stable_singularities(4, 7))
    assert set(by_k) == {2, 3, 4}
    assert labels(by_k[2].entries) == A(7) + D(4, 7) + ["E6", "E7"]
    assert labels(by_k[3].entries) == ["S5", "S6", "S7", "T7", "Ttilde7"]
    assert by_k[4].entries == ()
    assert by_k[4].reason == NOT_IN_TABLES


def test_stable_row_4_8():
    by_k = rows_by_k(stable_singularities(4, 8))
    assert set(by_k) == {1, 2, 3, 4}
    assert labels(by_k[1].entries) == A(8)
    assert labels(by_k[2].entries) == [
        "C2,2+", "C2,2-", "C2,3+", "C2,3-", "C2,4+", "C2,4-",
        "C2,5+", "C2,5-", "C2,6+", "C2,6-",
        "C3,3+", "C3,3-", "C3,4+", "C3,4-", "C3,5+", "C3,5-",
        "C4,4+", "C4,4-",
        "Ctilde6", "Ctilde8", "F7", "F8",
    ]
    assert by_k[3].reason == NOT_IN_TABLES
    assert by_k[4].reason == NOT_IN_TABLES


def test_stable_row_5_6():
    by_k = rows_by_k(stable_singularities(5, 6))
    assert set(by_k) == {5}
    assert labels(by_k[5].entries) == A(6) + D(4, 6) + ["E6"]


def test_stable_rows_satisfy_bounds():
    for n, q in ((1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6),
                 (4, 5), (4, 7), (4, 8), (5, 6)):
        sl = stable_singularities(n, q)
        for row in sl.rows:
            assert row.l == row.k - (2 * n - q)
            for cls in row.entries:
                assert cls.mu <= q
                assert cls.target_dim == row.l


def test_stable_rejects_not_nice_and_domain():
    for n, q in ((4, 6), (5, 7), (5, 8), (5, 9), (5, 10), (6, 7)):
        with pytest.raises(NotNiceDimensionsError) as err:
            stable_singularities(n, q)
        assert err.value.code == "NOT_NICE_DIMENSIONS"
    for n, q in ((3, 3), (2, 5)):
        with pytest.raises(DomainError):
            stable_singularities(n, q)


def test_u7_exclusion_is_recorded_not_silent():
    by_k = rows_by_k(stable_singularities(4, 7))
    excluded = by_k[3].excluded
    assert [c.label for c, _ in excluded] == ["U7"]
    _, why = excluded[0]
    assert "codimension 7" in why
    assert "U7" not in labels(by_k[3].entries)


def test_interpreted_symbols():
    assert stable_singularities(3, 6).interpreted == {"Ctilde6": "C6"}
    assert stable_singularities(4, 8).interpreted == {
        "Ctilde6": "C6", "Ctilde8": "C8",
    }
    assert stable_singularities(1, 2).interpreted == {}


def test_stable_list_json_shape():
    payload = json.loads(stable_singularities(4, 7).to_json())
    assert payload["n"] == 4 and payload["q"] == 7
    ks = {row["k"]: row for row in payload["rows"]}
    assert ks[2]["entries"][:3] == ["A1", "A2", "A3"]
    assert ks[3]["excluded"][0]["label"] == "U7"
    assert ks[4]["entries"] == [] and ks[4]["reason"] == NOT_IN_TABLES
    assert payload["interpreted"] == {}


def test_stable_list_text_rendering():
    text = stable_singularities(4, 7).to_text()
    assert "M^4 in R^7" in text
    assert "k=3 (l=2): S5 S6 S7 T7 Ttilde7" in text
    assert "excluded U7:" in text
    text36 = stable_singularities(3, 6).to_text()
    assert "Ctilde6 is printed as C6" in text36


def test_format_stable_table_alignment():
    table = format_stable_table(
        [stable_singularities(1, 2), stable_singularities(2, 3)]
    )
    lines = table.splitlines()
    assert len(lines) == 2
    assert lines[0].index("|") == lines[1].index("|")
    assert "A1 A2" in lines[0]


# ------------------------------------------------------------- recognition


def germ(polys, s):
    return MapGerm.from_polys(polys, s)


def test_recognize_contract_examples():
    f = germ([{(3, 0): 1, (0, 2): 1}], 2)
    assert recognize(f) == GermClass("A", (2,))
    g = germ([{(1, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2)
    got = recognize(g)
    assert (got.family, got.params) == ("C", (2, 2))
    assert got.sign in (PLUS, UNDETERMINED)
    h = germ([{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1},
              {(0, 1, 1): 1}], 3)
    assert recognize(h) == GermClass("S", (5,))


def recognized_compatible(got, want):
    if (got.family, got.params) != (want.family, want.params):
        return False
    return got.sign == want.sign or got.sign == UNDETERMINED


def test_recognition_round_trip_over_catalogue():
    universe = (list(catalogue(3, 1, 8)) + list(catalogue(2, 2, 8))
                + list(catalogue(3, 2, 8)))
    assert len(universe) > 40
    for cls in universe:
        ks = [cls.intrinsic_source]
        if cls.target_dim == 1 and cls.intrinsic_source < 3:
            ks.append(3)
        for k in ks:
            got = recognize(normal_form(cls, k))
            assert recognized_compatible(got, cls), (cls.label, k, got.label)


def test_recognition_stable_under_contact_moves():
    universe = (list(catalogue(3, 1, 6)) + list(catalogue(2, 2, 6))
                + list(catalogue(3, 2, 7)))
    for cls in universe:
        f = normal_form(cls, cls.intrinsic_source)
        for seed in (0, 1):
            got = recognize(random_k_move(f, seed))
            assert recognized_compatible(got, cls), (cls.label, seed)


def test_d4_sign_is_determined():
    # three real root lines through the minus form, one through the plus
    for k in (2, 3):
        assert recognize(normal_form(parse_label("D4-"), k)).sign == MINUS
        assert recognize(normal_form(parse_label("D4+"), k)).sign == PLUS


def test_c22_sign_is_determined():
    assert recognize(normal_form(parse_label("C2,2+"), 2)).sign == PLUS
    assert recognize(normal_form(parse_label("C2,2-"), 2)).sign == MINUS


def test_h9_sign_stays_undetermined():
    got = recognize(normal_form(parse_label("H9+"), 2))
    assert (got.family, got.params) == ("H", (9,))
    assert got.sign == UNDETERMINED


def test_recognize_printed_ttilde7_misprint_lands_on_s5():
    # as printed, the two quadrics are a contact-codimension-5 pair
    f = germ([{(2, 0, 0): 1, (0, 2, 0): 1},
              {(0, 2, 0): 1, (0, 0, 2): 1}], 3)
    assert recognize(f) == GermClass("S", (5,))


def test_recognize_printed_w8_misprint_is_infinite():
    f = germ([{(2, 0, 0): 1, (0, 3, 0): 1},
              {(0, 2, 0): 1, (1, 0, 1): 1}], 3)
    with pytest.raises(InfiniteCodimensionError) as err:
        recognize(f)
    assert str(err.value) == "INFINITE"
    assert isinstance(err.value, ArithmeticError)


def test_recognize_error_paths():
    with pytest.raises(UnrecognizedGermError):
        recognize(germ([{(1, 0): 1, (0, 2): 1}], 2))  # regular
    with pytest.raises(ArithmeticError):
        recognize(germ([{(2, 0): 1}], 2))  # non-isolated zero locus
    with pytest.raises(UnrecognizedGermError):
        # corank-3 cubic triple: outside every one-component table row
        recognize(germ([{(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}], 3))
    with pytest.raises(UnrecognizedGermError):
        # three components are never catalogued
        recognize(germ([{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}], 2))


@pytest.mark.parametrize("polys, s, profile, message", [
    # no quadratic part: the pencil is empty
    ([{(3, 0): 1}, {(0, 3): 1}], 2, "W0",
     "no two-component catalogue signature matches (mu=12)"),
    # det(a*Q1 + b*Q2) = a^3, whose triple root b*Q2 is the zero member
    ([{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, {(3, 0, 0): 1, (0, 0, 3): 1}],
     3, "cub:triple:r0",
     "no two-component catalogue signature matches (mu=13)"),
    ([{(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1},
      {(2, 0, 0, 0): 1, (0, 2, 0, 0): 2, (0, 0, 2, 0): 3, (0, 0, 0, 2): 4}],
     4, None,
     "two-component germs are catalogued only in 2 or 3 variables, got 4"),
    # immersions: the reduction solves for every variable
    ([{(1,): 1}, {(2,): 1}], 1, None, "germ is an immersion; no singular class"),
    ([{(1, 0): 1}, {(0, 1): 1}, {(2, 0): 1, (0, 2): 1}], 2, None,
     "germ is an immersion; no singular class"),
], ids=["W0", "r0", "four_variables", "curve_immersion", "surface_immersion"])
def test_recognize_names_why_a_germ_is_outside_the_catalogue(
        polys, s, profile, message):
    f = germ(polys, s)
    if profile is not None:
        assert nf._pencil_profile(f) == profile
    with pytest.raises(UnrecognizedGermError) as err:
        recognize(f)
    assert str(err.value) == message


def test_germ_class_prints_its_label():
    assert str(GermClass("D", (4,), PLUS)) == "D4+"
    assert str(parse_label("C2,3-")) == "C2,3-"


def test_recognize_rejects_nonsimple_quartic_pair():
    f = germ([{(4, 0): 1, (0, 4): 1}], 2)
    assert ke_codimension(f) == 9
    with pytest.raises(UnrecognizedGermError):
        recognize(f)


def test_recognize_reduces_linear_rank_first():
    # one linear component: reduction leaves a one-variable cubic
    f = germ([{(1, 0): 1}, {(0, 3): 1}], 2)
    assert corank(f) == 1
    assert recognize(f) == GermClass("A", (2,))


# -------------------------------------------- reduction from the 7-jet


@pytest.fixture(scope="module")
def graph4():
    """The R^4 graph (y1^2 + y2^2, y1 y2) and six of its weakly parallel
    pairs, spread over the cloud."""
    M = ge.graph_surface([{(2, 0): 1.0, (0, 2): 1.0}, {(1, 1): 1.0}])
    pairs = ge.find_parallel_pairs(M)
    return M, pairs[::len(pairs) // 6][:6]


def stabilised_a(mu, seed):
    """A contact move of A_mu stabilised by one regular variable: the
    order-12 germ (y, x^(mu+1)) in two variables, moved."""
    return random_k_move(germ([{(0, 1): 1}, {(mu + 1, 0): 1}], 2), seed)


def outcome(f):
    """The label recognize gives f, or its exception's type and text."""
    try:
        return recognize(f).label
    except (ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)


def test_the_7_jet_gives_the_labels_of_the_whole_germ(monkeypatch, graph4):
    M, pairs = graph4
    corpus = []
    with monkeypatch.context() as mp:
        mp.setattr(ge, "recognize", corpus.append)
        for lam in ("1/2", "1/3"):
            for pair in pairs[:3]:
                ge.classify_pair(M, pair, lam)
    for n, q, k in ((2, 4, 1), (2, 4, 2), (3, 5, 2), (3, 5, 3), (3, 6, 2)):
        for seed in range(4):
            corpus.append(lambda_contact_from_pair(
                random_graph_pair(n, q, k, seed), "1/2"))
    corpus += [stabilised_a(mu, seed) for mu in (7, 8) for seed in (0, 1)]
    regular = germ([{(1, 0): 1, (0, 2): 1}, {(0, 1): 1, (3, 0): 1}], 2)
    infinite = germ([{(0, 0, 1): 1, (2, 0, 0): 1}, {(2, 1, 0): 1}], 3)
    corpus += [regular, infinite]
    assert sum(corank(f) < f.source_dim and f.order > nf._JET_ORDER
               for f in corpus) >= 20
    jet_first = [outcome(f) for f in corpus]
    monkeypatch.setattr(nf, "_JET_ORDER", max(f.order for f in corpus))
    assert [outcome(f) for f in corpus] == jet_first
    assert {"A1", "A7", "A8", "A5", "F7"} <= set(jet_first)
    assert jet_first[-2:] == [
        ("UnrecognizedGermError", "germ is regular; no singular class"),
        ("InfiniteCodimensionError", INFINITE)]


def test_recognition_reduces_the_7_jet_and_the_whole_germ_only_if_needed(
        monkeypatch, graph4):
    orders = []

    def spy(f):
        orders.append(f.order)
        return rank0_reduce(f)

    monkeypatch.setattr(nf, "rank0_reduce", spy)
    M, pairs = graph4
    labels = [ge.classify_pair(M, pair, "1/2").label for pair in pairs]
    assert set(labels) <= {"A1", "A2", "A3", "A4"}
    assert orders == [7] * len(pairs)
    # A8 has h zero first in degree 8, beyond rung 6 of the 7-jet
    orders.clear()
    assert recognize(stabilised_a(8, 0)) == GermClass("A", (8,))
    assert orders == [7, 12]


# ---------------------------------------------------- exact engine oracle

CATALOGUE_SHAPES = ((1, 1), (2, 1), (3, 1), (2, 2), (3, 2))


def test_catalogue_mu_table_matches_the_fraction_engine():
    def table():
        return [(cls.label, cls.mu)
                for k, l in CATALOGUE_SHAPES for cls in catalogue(k, l, 14)]

    modular, exact = both_engines(table)
    assert modular == exact
    assert len(modular) > 100


def test_eih_depth_is_the_least_depth_separating_the_catalogue():
    # Pairs of two-component rows with equal Ke-Hilbert function and pencil
    # profile are told apart only by the ideal Hilbert prefix; the depth
    # that tells every such pair apart, and no less, is the recognizer's.
    sigs = []
    for k in (2, 3):
        for cls in catalogue(k, 2, 14):
            for sign in (PLUS, MINUS):
                g = MapGerm.from_polys(
                    nf._table_polys(cls.family, cls.params, sign), k)
                sigs.append(((cls.family, cls.params), ke_quotient_hilbert(g),
                             nf._pencil_profile(g), hilbert_prefix(g, 10)))
    needed = {}
    for i, (row_a, keh_a, prof_a, eih_a) in enumerate(sigs):
        for row_b, keh_b, prof_b, eih_b in sigs[i + 1:]:
            if row_a == row_b or (keh_a, prof_a) != (keh_b, prof_b):
                continue
            first = next(d for d, (a, b) in enumerate(zip(eih_a, eih_b))
                         if a != b)
            needed[frozenset((row_a, row_b))] = first
    assert max(needed.values()) == nf._EIH_DEPTH
    labels = {tuple(sorted(family + str(params[0])
                           for family, params in pair)) for pair in needed}
    assert labels == {("F9", "H9"), ("F10", "H10")}


SYM_A, SYM_B = sympy.symbols("a b")


def _linear_form_product(rng, multiplicity):
    """sympy Poly of a product of three integer linear forms in a, b whose
    first form is repeated `multiplicity` times."""
    def form():
        while True:
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            if p or q:
                return sympy.Poly(p * SYM_A + q * SYM_B, SYM_A, SYM_B)

    first = form()
    return sympy.prod([first] * multiplicity
                      + [form() for _ in range(3 - multiplicity)])


def test_cubic_root_structure_matches_sympy_factorization():
    # square-free decomposition gives the largest multiplicity of a linear
    # factor, the same as factor_list for a product of linear forms
    def at(g, direction):
        return g.eval({SYM_A: direction[0], SYM_B: direction[1]})

    rng = random.Random(20131)
    for n in range(3000):
        f = _linear_form_product(rng, (1, 2, 3)[n % 3])
        c = [Fraction(int(f.coeff_monomial(SYM_A ** (3 - i) * SYM_B ** i)))
             for i in range(4)]
        multiplicity = max(m for _, m in f.sqf_list()[1])
        kind, root, other = nf._cubic_root_structure(c)
        assert kind == {1: "simple", 2: "double", 3: "triple"}[multiplicity]
        if kind == "simple":
            assert root is None and other is None
            continue
        grad = [f.diff(SYM_A), f.diff(SYM_B)]
        if kind == "double":
            assert at(f, root) == 0 and all(at(g, root) == 0 for g in grad)
            assert at(f, other) == 0 and any(at(g, other) != 0 for g in grad)
        else:
            assert other is None and any(root)
            assert all(at(g.diff(x), root) == 0
                       for g in grad for x in (SYM_A, SYM_B))
