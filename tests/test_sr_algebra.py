import numpy as np
import pytest

import oracles
import bglb.sr_algebra as sr
from bglb.complexes import flag_vectors, from_facets, h_vector
from bglb.generators import cross_polytope
from bglb.homology import DEFAULT_FIELD, FieldSpec
from bglb.sr_algebra import (GenericityError, LinearForm, colored_lsop,
                             draw_verified_lsop, graded_dimension, ideal_piece,
                             lefschetz_injective, monomial_basis, multigraded_series_check,
                             multiplication_injective, quotient_hilbert, random_forms,
                             verify_lsop)

RATIONALS = FieldSpec.rationals()


# -- graded bases -----------------------------------------------------------


def test_monomial_basis_counts_match_oracle(cycle4, octahedron):
    for gamma in (cycle4, octahedron):
        facets = gamma.complex.facets
        n = gamma.complex.n
        for k in range(5):
            want = oracles.monomial_count(facets, n, k)
            assert len(monomial_basis(gamma, k)) == want
            assert graded_dimension(gamma, k) == want


def test_monomial_basis_cycle_degree_three(cycle4):
    # 4 monomials x_v^3 plus 2 per edge (x_u^2 x_v and x_u x_v^2)
    basis = monomial_basis(cycle4, 3)
    assert len(basis) == 12
    assert oracles.monomial_count(cycle4.complex.facets, 4, 3) == 12


def test_monomial_basis_ordering_and_index(cycle4):
    basis = monomial_basis(cycle4, 1)
    assert basis.monomials[0] == (1, 0, 0, 0)
    assert basis.monomials[-1] == (0, 0, 0, 1)
    for m, i in basis.index.items():
        assert basis.monomials[i] == m


def test_monomial_basis_squarefree_restriction(cycle4):
    sf = frozenset((1, 2))
    assert len(monomial_basis(cycle4, 1, sf)) == 4
    assert len(monomial_basis(cycle4, 2, sf)) == 4  # only the edge products
    assert len(monomial_basis(cycle4, 3, sf)) == 0


def test_monomial_basis_squarefree_needs_coloring():
    delta = from_facets([(1, 2)], 2)
    with pytest.raises(ValueError):
        monomial_basis(delta, 1, frozenset((1,)))
    with pytest.raises(ValueError):
        monomial_basis(delta, -1)


def test_monomial_basis_is_cached(cycle4):
    assert monomial_basis(cycle4, 2) is monomial_basis(cycle4, 2)


# -- parameter systems ------------------------------------------------------


def test_colored_lsop_covers_the_palette(octahedron):
    forms = colored_lsop(octahedron)
    assert len(forms) == 3
    for c, form in enumerate(forms, start=1):
        assert form.colored_class == c
        assert form.support() == octahedron.coloring.class_of(c)
        assert all(coeff == 1 for _, coeff in form.coeffs)


def test_colored_lsop_subset_and_missing_color(octahedron):
    forms = colored_lsop(octahedron, colors=[2])
    assert len(forms) == 1
    assert forms[0].colored_class == 2
    with pytest.raises(ValueError):
        colored_lsop(octahedron, colors=[9])


def test_random_forms_deterministic(octahedron):
    a = random_forms(octahedron, [1, 2, 3], 2, seed=7)
    b = random_forms(octahedron, [1, 2, 3], 2, seed=7)
    c = random_forms(octahedron, [1, 2, 3], 2, seed=8)
    assert a == b
    assert a != c
    assert all(f.colored_class is None for f in a)
    support = set(a[0].support())
    assert support == set(range(1, 7))


def test_random_forms_rejects_empty_support(octahedron):
    with pytest.raises(ValueError):
        random_forms(octahedron, [9], 1)
    assert random_forms(octahedron, [9], 0) == []


def test_linear_form_serialization():
    form = LinearForm(((2, 5), (4, 1)), colored_class=None)
    assert form.support() == (2, 4)
    assert form.as_dict() == {"coeffs": {"2": 5, "4": 1}, "colored_class": None}


# -- quotient dimensions ----------------------------------------------------


def test_colored_quotient_equals_h_vector(octahedron, cycle4):
    dims = quotient_hilbert(octahedron, colored_lsop(octahedron), 4)
    assert dims == (1, 3, 3, 1, 0)
    dims = quotient_hilbert(cycle4, colored_lsop(cycle4), 3)
    assert dims == (1, 2, 1, 0)


def test_quotient_models_agree(octahedron, cycle4):
    for gamma in (octahedron, cycle4):
        forms = colored_lsop(gamma)
        up_to = gamma.complex.dim + 2
        small = quotient_hilbert(gamma, forms, up_to, use_squarefree=True)
        full = quotient_hilbert(gamma, forms, up_to, use_squarefree=False)
        assert small == full


def test_quotient_hilbert_exact_field(octahedron):
    dims = quotient_hilbert(octahedron, colored_lsop(octahedron), 4, RATIONALS)
    assert dims == (1, 3, 3, 1, 0)


def test_quotient_hilbert_stops_after_first_zero(cycle4):
    dims = quotient_hilbert(cycle4, colored_lsop(cycle4), 7)
    assert dims == (1, 2, 1, 0, 0, 0, 0, 0)


def test_verify_lsop_accepts_colored_system(octahedron):
    verdict = verify_lsop(octahedron, colored_lsop(octahedron))
    assert verdict.ok
    assert verdict.dims == (1, 3, 3, 1, 0)
    assert verdict.reason == ""


def test_verify_lsop_rejects_short_system(octahedron):
    verdict = verify_lsop(octahedron, colored_lsop(octahedron, colors=[1, 2]))
    assert not verdict.ok
    assert verdict.dims == ()
    assert "Krull dimension 3" in verdict.reason


def test_draw_verified_lsop_deterministic(octahedron):
    forms_a, used_a, verdict_a = draw_verified_lsop(octahedron, seed=5)
    forms_b, used_b, verdict_b = draw_verified_lsop(octahedron, seed=5)
    assert forms_a == forms_b
    assert used_a == used_b
    assert verdict_a.ok and verdict_b.ok
    assert len(forms_a) == 3
    # the quotient by any parameter system matches h here
    assert verdict_a.dims == (1, 3, 3, 1, 0)


def test_draw_verified_lsop_exhaustion(octahedron):
    with pytest.raises(GenericityError):
        draw_verified_lsop(octahedron, seed=5, attempts=0)


# -- ideal pieces -----------------------------------------------------------


def test_ideal_piece_shapes_and_ranks(cycle4):
    forms = colored_lsop(cycle4)
    empty = ideal_piece(cycle4, forms, 0)
    assert empty.shape == (1, 0)
    deg1 = ideal_piece(cycle4, forms, 1)
    assert deg1.shape == (4, 2)
    assert np.linalg.matrix_rank(deg1) == 2
    sf = frozenset((1, 2))
    deg2 = ideal_piece(cycle4, forms, 2, squarefree_colors=sf)
    assert deg2.shape == (4, 8)


# -- multigraded series -----------------------------------------------------


def test_multigraded_series_octahedron(octahedron):
    check = multigraded_series_check(octahedron, truncation=4)
    assert check.ok
    assert check.first_mismatch is None
    # all multidegrees over 3 colors with total at most 4
    assert check.coefficients_checked == 35


def test_multigraded_series_cycle(cycle4):
    check = multigraded_series_check(cycle4, truncation=3)
    assert check.ok
    assert check.coefficients_checked == 10


class _CorruptFlagH:
    def __init__(self, fh):
        self.fh = fh

    def __getitem__(self, s):
        bump = 1 if len(tuple(s)) == 0 else 0
        return self.fh[s] + bump


def test_multigraded_series_reports_first_mismatch(cycle4, monkeypatch):
    ff, fh = flag_vectors(cycle4)
    monkeypatch.setattr(sr, "flag_vectors", lambda gamma: (ff, _CorruptFlagH(fh)))
    check = multigraded_series_check(cycle4, truncation=2)
    assert not check.ok
    assert check.coefficients_checked == 1
    assert check.first_mismatch == {
        "multidegree": [0, 0],
        "monomial_count": 1,
        "series_coefficient": 2,
    }


# -- injectivity certificates ----------------------------------------------


def test_lefschetz_square_boundary_generic_form(cycle4):
    forms = colored_lsop(cycle4)
    omega = random_forms(cycle4, [1, 2], 1, seed=11)[0]
    cert0 = lefschetz_injective(cycle4, forms, omega, 0, seed=11)
    assert cert0.injective
    assert (cert0.low_degree, cert0.high_degree) == (0, 2)
    assert cert0.ranks == (0, 7, 8, 1)
    cert1 = lefschetz_injective(cycle4, forms, omega, 1, seed=11)
    assert cert1.injective
    assert (cert1.low_degree, cert1.high_degree) == (1, 1)
    assert cert1.ranks == (2, 2, 4, 4)


def test_lefschetz_detects_degenerate_form(cycle4):
    # x_1^2 = theta_1 x_1 in the face ring, so the square lands in the ideal
    forms = colored_lsop(cycle4)
    omega = LinearForm(((1, 1),))
    cert = lefschetz_injective(cycle4, forms, omega, 0)
    assert not cert.injective
    assert cert.ranks == (0, 7, 7, 1)


def test_lefschetz_rationals_agree(cycle4):
    forms = colored_lsop(cycle4)
    omega = random_forms(cycle4, [1, 2], 1, RATIONALS, seed=3)[0]
    cert = lefschetz_injective(cycle4, forms, omega, 0, RATIONALS)
    assert cert.injective
    assert cert.field_p is None
    assert cert.ranks == (0, 7, 8, 1)


def test_lefschetz_octahedron_middle_degree(octahedron):
    forms = colored_lsop(octahedron)
    omega = random_forms(octahedron, [1, 2, 3], 1, seed=2)[0]
    cert = lefschetz_injective(octahedron, forms, omega, 1, seed=2)
    assert cert.injective
    assert (cert.low_degree, cert.high_degree) == (1, 2)
    assert cert.seed == 2
    assert cert.as_dict()["ranks"] == list(cert.ranks)


def test_multiplication_injective_consecutive_degrees(octahedron):
    forms = colored_lsop(octahedron)
    omega = random_forms(octahedron, [1, 2, 3], 1, seed=4)[0]
    cert = multiplication_injective(octahedron, forms, omega, 0, 1)
    assert cert.injective
    assert cert.ranks[3] == 1


def test_lefschetz_validates_arguments(cycle4):
    forms = colored_lsop(cycle4)
    omega = random_forms(cycle4, [1, 2], 1, seed=1)[0]
    with pytest.raises(ValueError):
        lefschetz_injective(cycle4, forms, omega, 2)  # 2i > palette
    with pytest.raises(ValueError):
        multiplication_injective(cycle4, forms, omega, 2, 1)
    with pytest.raises(ValueError):
        multiplication_injective(cycle4, forms, LinearForm(((9, 1),)), 0, 1)


def test_face_ring_ranks_are_never_sketched(monkeypatch):
    # a column sketch can only lose rank; on the high-degree ideal piece that
    # inflates r_aug - r_high and can certify a map that is not injective
    def refuse(*args, **kwargs):
        raise AssertionError("column sketch called")

    monkeypatch.setattr("bglb.linalg.sketch_columns", refuse)
    gamma = cross_polytope(4)
    forms = colored_lsop(gamma)
    omega = random_forms(gamma, range(1, 5), 1, seed=1)[0]
    for i in range(3):
        assert lefschetz_injective(gamma, forms, omega, i, seed=1).injective
    _, _, verdict = draw_verified_lsop(gamma, seed=1)
    assert verdict.ok
    assert verdict.dims[:6] == tuple(h_vector(gamma.complex, 4)) + (0,)


def test_power_image_over_rationals_is_exact(cycle4):
    # omega^6 has entries far beyond int64; reduced mod p they must match the
    # image computed over F_p with a reduction after every step
    omega = random_forms(cycle4, (1, 2), 1, RATIONALS, seed=2)[0]
    exact = sr._power_image(cycle4, omega, 0, 6, RATIONALS)
    modular = sr._power_image(cycle4, omega, 0, 6, DEFAULT_FIELD)
    assert all(x >= 0 for x in exact.ravel())
    assert np.array_equal((exact % DEFAULT_FIELD.p).astype(np.int64), modular)
