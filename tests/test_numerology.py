from fractions import Fraction

import pytest

from keyvariety.numerology import (ClassLattice, Relation, case_table_check,
                                   lattice_by_name, load_ledger_lines,
                                   normal_bundle_ledger, parse_expression,
                                   parse_identity, primitivity_checks,
                                   reduce_expression, run_ledger,
                                   verify_identity)


def test_parse_expression():
    basis = ("mK", "H", "F")
    vec = parse_expression("3*mK - 1/2*H + F", basis)
    assert vec == {"mK": 3, "H": Fraction(-1, 2), "F": 1}
    with pytest.raises(KeyError):
        parse_expression("mK + XX", basis)
    with pytest.raises(ValueError):
        parse_expression("", basis)


def test_parse_identity():
    basis = ("a", "b")
    assert parse_identity("a == b", basis) == {"a": 1, "b": -1}
    assert parse_identity("2*a - b == a", basis) == {"a": 1, "b": -1}
    with pytest.raises(ValueError):
        parse_identity("a + b", basis)


def test_projection_identity_all_cases():
    # from the blow-up description and the exceptional-class table, the
    # primitive polarization pulls back to -K - E regardless of the index
    for case in ("g5", "g6q", "g6c", "g8"):
        lat = lattice_by_name(f"{case}.link")
        verdict = verify_identity(lat, "mKY - Etld == fH")
        assert verdict.ok, (case, verdict.residual)
        assert len(verdict.trace) >= 1


def test_projection_identity_trace_names_relations():
    lat = lattice_by_name("g5.link")
    verdict = verify_identity(lat, "mKY - Etld == fH")
    joined = " ".join(verdict.trace)
    assert "blowup-along-curve" in joined or "exceptional-class-table" in joined


def test_wrong_identity_fails_with_residual():
    lat = lattice_by_name("g5.link")
    verdict = verify_identity(lat, "mKY + Etld == fH")
    assert not verdict.ok
    assert verdict.residual


def test_discrepancy_coefficient_extraction():
    # normal form of -K over (M, F/Pt, E): the E-coefficient is minus the
    # discrepancy, dim A - 3 for the bundle cases and 4 for genus 5
    for case, disc in (("g4", 1), ("g6q", 2), ("g6c", 1)):
        lat = lattice_by_name(f"{case}.key")
        residual, _ = reduce_expression(lat, {"mK": Fraction(1)})
        assert residual["E"] == -disc, case
    lat = lattice_by_name("g5.key")
    residual, _ = reduce_expression(lat, {"mK": Fraction(1)})
    assert residual["E"] == -4


def test_index_coefficient_extraction():
    expected = {"g4": 9, "g6q": 7, "g6c": 6, "g8": 3, "g5": 10}
    for case, r in expected.items():
        lat = lattice_by_name(f"{case}.key")
        residual, _ = reduce_expression(lat, {"mK": Fraction(1)})
        assert residual["M"] == r, case


def test_exceptional_pair_identity():
    lat = lattice_by_name("g4.sarkisov")
    assert verify_identity(lat, "E1pp + E2pp == 3*LB6").ok
    assert not verify_identity(lat, "E1pp + E2pp == 2*LB6").ok


# basis and relation vectors of lattices the ledger names, as the literal
# dicts declared them before the relations were written as identities
_RELATIONS = {
    "g5.link": (("mKY", "Etld", "Ep", "fH"), [
        ("blowup-along-curve", {"mKY": 1, "fH": -4, "Ep": 1}),
        ("exceptional-class-table", {"Ep": 1, "mKY": -3, "Etld": 4}),
    ]),
    "g4.bundle": (("mKSig", "H", "LA", "Fa", "LB", "E", "F"), [
        ("bundle-anticanonical", {"mKSig": 1, "H": -8, "LA": -3, "Fa": 1, "LB": 1}),
        ("blowdown-hyperplane", {"LB": 1, "LA": -2, "Fa": 1}),
        ("subbundle-divisor", {"E": 1, "H": -1, "LA": 1}),
        ("exceptional-pullback", {"F": 1, "Fa": -1}),
    ]),
    "g6q.key": (("mK", "H", "E", "F", "M"), [
        ("anticanonical-on-flipped-model", {"mK": 1, "H": -7, "E": 2}),
        ("half-point-polarization", {"H": 1, "M": -1, "F": Fraction(1, 2)}),
    ]),
    "g8.key": (("mK", "H", "Pt", "M"), [
        ("anticanonical-on-flopped-model", {"mK": 1, "H": -3}),
        ("half-point-polarization", {"H": 1, "M": -1, "Pt": Fraction(1, 2)}),
    ]),
    "g5.key": (("mK", "H", "E", "Pt", "M"), [
        ("anticanonical-after-center-blowup", {"mK": 1, "H": -10, "E": 4}),
        ("half-point-polarization", {"H": 1, "M": -1, "Pt": Fraction(1, 2)}),
    ]),
    "g4.sarkisov": (("mKZp", "H", "piaL", "pibL", "E1p", "E2p", "ECp",
                     "E1pp", "E2pp", "LB6"), [
        ("anticanonical-is-polarization", {"mKZp": 1, "piaL": -1}),
        ("hyperplane-restriction", {"H": 1, "piaL": -1}),
        ("blowdown-hyperplane-restricted", {"piaL": 2, "E1p": -1, "E2p": -1, "pibL": -1}),
        ("blowup-of-base-along-curve", {"mKZp": 1, "pibL": -2, "ECp": 1}),
        ("strict-transform-1", {"E1p": 1, "E1pp": -1, "ECp": 1}),
        ("strict-transform-2", {"E2p": 1, "E2pp": -1, "ECp": 1}),
        ("hyperplane-pullback", {"pibL": 1, "LB6": -1}),
    ]),
}


@pytest.mark.parametrize("name", list(_RELATIONS))
def test_lattice_relation_vectors(name):
    lat = lattice_by_name(name)
    basis, relations = _RELATIONS[name]
    assert lat.basis == basis
    assert [(r.label, r.vector) for r in lat.relations] == relations


@pytest.mark.parametrize("name", [
    "g4.link", "g5.bundle", "g5.sarkisov", "g4.hodge", "bogus.key", "g4", ""])
def test_unknown_lattice_raises_key_error_naming_it(name):
    with pytest.raises(KeyError) as info:
        lattice_by_name(name)
    assert info.value.args == (f"unknown lattice {name!r}",)


def test_relation_uses_declared_symbols_only():
    with pytest.raises(ValueError):
        ClassLattice("bad", ("a",), (Relation("r", {"b": Fraction(1)}),))


def test_full_ledger_verifies():
    records = run_ledger()
    assert len(records) == 19
    for rec in records:
        assert rec.verdict.ok, (rec.lattice, rec.identity, rec.verdict.residual)
        assert rec.anchor


def test_ledger_case_filter():
    records = run_ledger("g4")
    assert records and all(r.lattice.startswith("g4.") for r in records)


def test_ledger_line_parser():
    text = "# anchor: something\nfoo.bar: a == b\nbaz.qux: c == d\n"
    rows = list(load_ledger_lines(text))
    assert rows[0] == ("foo.bar", "a == b", "something")
    assert rows[1] == ("baz.qux", "c == d", "")


def test_case_table_constants():
    expected = {
        "g4": (11, 9, 2), "g5": (12, 10, 1), "g6q": (9, 7, 1),
        "g6c": (8, 6, 1), "g8": (5, 3, 1),
    }
    for case, (dim, index, half) in expected.items():
        consts = case_table_check(case)
        assert consts.dim_Sigma == dim
        assert consts.fano_index_r == index
        assert consts.half_point_count == half


def test_case_table_framework_arithmetic():
    g4 = case_table_check("g4")
    assert g4.d == g4.f_A - (g4.dim_A - 2) == 2 > 0
    g6q = case_table_check("g6q")
    assert g6q.d == 4 - (5 - 2) == 1
    with pytest.raises(KeyError):
        case_table_check("g9")


def test_normal_bundle_degrees():
    for case in ("g4", "g5", "g6q", "g6c", "g8"):
        for fact in normal_bundle_ledger(case):
            assert fact.normal_degree == -2
            assert fact.restricted_degree - (fact.exceptional_dim + 1) == -2
            assert sum(fact.splitting) == -2
    g8 = normal_bundle_ledger("g8")
    assert (g8[0].restricted_degree, g8[0].exceptional_dim) == (3, 4)
    flip = [f for f in normal_bundle_ledger("g6q") if f.label == "flip-center-fiber"]
    assert flip[0].splitting == (-1, -1, 0, 0, 0, 0)


def test_primitivity_core():
    facts = primitivity_checks()
    assert len(facts) == 5
    for fact in facts:
        assert fact.polarization_pairing == -1
        assert fact.indivisible
        # -1 admits no divisor alpha >= 2: alpha * c = -1 has no integer c
        assert not any(fact.polarization_pairing % alpha == 0
                       for alpha in range(2, 10))
