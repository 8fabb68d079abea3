import random

import pytest

from keyvariety import sections
from keyvariety.algebra import fraction_matrix_rank, matrix_rank_mod_p, parse_poly
from keyvariety.catalog import build_case
from keyvariety.sections import (SectionSpec, cut, parse_section_file,
                                 random_section, section_report)


def _forms(spec, texts):
    return tuple(parse_poly(t, spec.vars) for t in texts)


def test_cut_by_nothing_is_identity():
    spec = build_case("g8_sigma_bar")
    same = cut(spec, SectionSpec(spec.case_id, ()))
    assert same.generators == spec.generators
    assert same.expected_dim == spec.expected_dim
    assert same.case_id == spec.case_id


def test_cut_decrements_dimension():
    spec = build_case("g4_sigma_bar")
    forms = _forms(spec, [f"x1 - y{i}" for i in (1, 2)] + ["x2 - z11"])
    w = cut(spec, SectionSpec(spec.case_id, forms))
    assert w.expected_dim == 8
    assert len(w.generators) == 5
    assert w.metadata == spec.metadata


def test_cut_is_associative():
    spec = build_case("g6c_sigma_bar")
    f1 = _forms(spec, ["x1 - y1"])
    f2 = _forms(spec, ["x2 - z3"])
    once = cut(cut(spec, SectionSpec(spec.case_id, f1)),
               SectionSpec(spec.case_id, f2))
    both = cut(spec, SectionSpec(spec.case_id, f1 + f2))
    assert once.generators == both.generators
    assert once.expected_dim == both.expected_dim


def test_cut_rejects_dependent_forms():
    spec = build_case("g4_sigma_bar")
    forms = _forms(spec, ["x1 - y1", "2*x1 - 2*y1"])
    with pytest.raises(ValueError):
        cut(spec, SectionSpec(spec.case_id, forms))


def test_cut_rejects_nonlinear_forms():
    spec = build_case("g4_sigma_bar")
    with pytest.raises(ValueError):
        cut(spec, SectionSpec(spec.case_id, _forms(spec, ["x1*x2"])))


def test_cut_enforces_plane_containment():
    spec = build_case("g8_sigma_bar")
    good = _forms(spec, ["x5 - x6", "p24 - p35"])
    w = cut(spec, SectionSpec(spec.case_id, good, contains_planes=("Pi",)))
    assert w.expected_dim == 3
    bad = _forms(spec, ["x2 - x3"])  # does not vanish on the 2-plane
    with pytest.raises(ValueError):
        cut(spec, SectionSpec(spec.case_id, bad, contains_planes=("Pi",)))


def test_random_section_deterministic():
    spec = build_case("g6q_sigma_bar")
    s1, d1 = random_section(spec, 4, seed=7, primes=(2, 3))
    s2, d2 = random_section(spec, 4, seed=7, primes=(2, 3))
    assert s1.linear_forms == s2.linear_forms and d1 == d2
    s3, _ = random_section(spec, 4, seed=8, primes=(2, 3))
    assert s3.linear_forms != s1.linear_forms


def _three_part_rule_section(spec, codim, seed, primes, support):
    """Coefficient rows and draw count of a seeded section drawn under the
    rule that rejects a draw with a zero form, forms dependent over Q, or
    forms dependent modulo some scan prime."""
    rng = random.Random(seed)
    box = max(primes)
    draws = 0
    while True:
        draws += 1
        rows = [[0] * len(spec.vars) for _ in range(codim)]
        for row in rows:
            for v in support:
                row[spec.var_index(v)] = rng.randint(-box, box)
        if any(not any(row) for row in rows):
            continue
        if fraction_matrix_rank(rows) < codim:
            continue
        if any(matrix_rank_mod_p(rows, p) < codim for p in primes):
            continue
        return rows, draws


@pytest.mark.parametrize("planes", [(), ("Pibar",)])
@pytest.mark.parametrize("primes", [(3,), (2, 3)])
def test_random_section_matches_three_part_rule(primes, planes):
    # the mod-p rank test alone accepts and rejects the same draws
    spec = build_case("g6q_sigma_bar")
    support = [v for v in spec.vars
               if not planes or v in spec.planes["Pibar"].vanishing_vars]
    redrawn = 0
    for seed in range(100):
        section, draws = random_section(spec, 2, seed, primes,
                                        contains_planes=planes)
        rows, expected_draws = _three_part_rule_section(
            spec, 2, seed, primes, support)
        assert (sections._form_rows(section.linear_forms), draws) == \
            (rows, expected_draws), seed
        redrawn += draws > 1
    if planes and 2 in primes:
        assert redrawn > 0


def test_random_section_respects_plane():
    spec = build_case("g8_sigma_bar")
    section, _ = random_section(spec, 2, seed=17, primes=(2, 3),
                                contains_planes=("Pi",))
    plane_vars = set(spec.planes["Pi"].vanishing_vars)
    for f in section.linear_forms:
        for e in f.terms:
            name = spec.vars[list(e).index(1)]
            assert name in plane_vars


def test_parse_section_file():
    spec = build_case("g8_sigma_bar")
    forms = parse_section_file("# comment\nx2 - p24\n\nx3 - p35 # inline\n",
                               spec.vars)
    assert len(forms) == 2
    with pytest.raises(Exception):
        parse_section_file("x2*x3\n", spec.vars)


def test_section_report_empty_section():
    # on the section {x25 = x34, x35 = 0, x45 = x23} the quadric restricts
    # to x23^2 + x25^2, which has no nonzero solution mod 3: empty
    spec = build_case("Q3_g6q")
    forms = _forms(spec, ["x25 - x34", "x35", "x45 - x23"])
    w = cut(spec, SectionSpec(spec.case_id, forms))
    rep = section_report(w, (3,))[0]
    assert rep.count == 0
    assert rep.estimated_dim == -1
    assert rep.singular_count == 0


def test_section_report_plane_tracking():
    spec = build_case("g8_sigma_bar")
    section, _ = random_section(spec, 2, seed=17, primes=(2, 3),
                                contains_planes=("Pi",))
    w = cut(spec, section)
    reports = section_report(w, (2, 3), plane="Pi")
    for rep in reports:
        assert rep.plane_section_count == rep.prime ** 2 + rep.prime + 1
        assert rep.estimated_dim == 3
        assert rep.singular_off_plane == 0
