import numpy as np
import pytest

import oracles
from bglb.complexes import empty_complex, from_facets
from bglb.homology import (DEFAULT_FIELD, BettiTable, FieldSpec, boundary_matrix,
                           is_cohen_macaulay, is_gorenstein_star, matrix_rank, reduced_betti)

RATIONALS = FieldSpec.rationals()


def test_boundary_matrix_cycle_rank(cycle4):
    mat = boundary_matrix(cycle4.complex, 1)
    assert mat.shape == (4, 4)
    assert matrix_rank(mat, DEFAULT_FIELD) == 3
    exact = boundary_matrix(cycle4.complex, 1, RATIONALS)
    assert matrix_rank(exact, RATIONALS) == 3


def test_boundary_matrix_octahedron_rank(octahedron):
    mat = boundary_matrix(octahedron.complex, 2)
    assert mat.shape == (12, 8)
    assert matrix_rank(mat, DEFAULT_FIELD) == 7


def test_boundary_matrix_augmentation_row():
    delta = from_facets([(1, 2), (2, 3)], 3)
    mat = boundary_matrix(delta, 0, RATIONALS)
    assert mat.shape == (1, 3)
    assert np.array_equal(mat, np.ones((1, 3), dtype=np.int64))


def test_boundary_matrix_rejects_degrees_outside_range(cycle4):
    with pytest.raises(ValueError):
        boundary_matrix(cycle4.complex, -1)
    with pytest.raises(ValueError):
        boundary_matrix(cycle4.complex, 3)  # dim + 2


def test_boundary_matrix_top_degree_is_empty(cycle4):
    mat = boundary_matrix(cycle4.complex, 2)
    assert mat.shape == (4, 0)


def test_betti_cycle_is_a_circle(cycle4):
    table = reduced_betti(cycle4.complex)
    assert table.values == (0, 0, 1)


def test_betti_octahedron_is_a_two_sphere(octahedron):
    table = reduced_betti(octahedron.complex)
    assert table.values == (0, 0, 0, 1)
    exact = reduced_betti(octahedron.complex, RATIONALS)
    assert exact.values == table.values


def test_betti_point_is_acyclic():
    table = reduced_betti(from_facets([(1,)], 1))
    assert table.values == (0, 0)


def test_betti_empty_complex():
    table = reduced_betti(empty_complex())
    assert table.dim == -1
    assert table.get(-1) == 1
    assert table.values == (1,)


def test_betti_disjoint_edges():
    table = reduced_betti(from_facets([(1, 2), (3, 4)], 4))
    assert table.values == (0, 1, 0)


def test_betti_table_get_is_zero_outside_range(cycle4):
    table = reduced_betti(cycle4.complex)
    assert table.get(-2) == 0
    assert table.get(2) == 0
    assert table.as_dict() == {"-1": 0, "0": 0, "1": 1}


@pytest.mark.parametrize(
    "facets",
    [
        [(1, 2), (2, 3), (3, 4), (1, 4)],
        [(1, 2), (3, 4)],
        [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)],  # wedge of two circles
        [(1, 2, 3), (2, 3, 4)],
        [(1, 2, 3), (3, 4), (5,)],
    ],
)
def test_betti_matches_exact_oracle(facets):
    delta = from_facets(facets)
    table = reduced_betti(delta)
    want = oracles.naive_betti(facets)
    assert {int(k): v for k, v in table.as_dict().items()} == want


def test_betti_oracle_on_octahedron(octahedron):
    want = oracles.naive_betti(octahedron.complex.facets)
    got = reduced_betti(octahedron.complex)
    assert {int(k): v for k, v in got.as_dict().items()} == want


def test_gorenstein_octahedron(octahedron):
    cert = is_gorenstein_star(octahedron.complex)
    assert cert.ok
    assert cert.dim == 2
    assert cert.faces_checked == 27
    assert cert.first_failure is None
    assert cert.as_dict() == {
        "check": "gorenstein_star",
        "ok": True,
        "dim": 2,
        "faces_checked": 27,
    }


def test_gorenstein_rejects_solid_triangle():
    cert = is_gorenstein_star(from_facets([(1, 2, 3)], 3))
    assert not cert.ok
    fail = cert.first_failure
    assert fail["face"] == []
    assert fail["expected"] == {"-1": 0, "0": 0, "1": 0, "2": 1}
    assert fail["betti"] == {"-1": 0, "0": 0, "1": 0, "2": 0}


def test_gorenstein_rejects_disjoint_circles():
    # each link is fine; the complex itself has b~_0 = 1
    facets = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    cert = is_gorenstein_star(from_facets(facets, 6))
    assert not cert.ok
    assert cert.first_failure["face"] == []


def test_cohen_macaulay_solid_triangle():
    cert = is_cohen_macaulay(from_facets([(1, 2, 3)], 3))
    assert cert.ok
    assert cert.check == "cohen_macaulay"
    assert cert.faces_checked == 8


def test_cohen_macaulay_rejects_disjoint_edges():
    cert = is_cohen_macaulay(from_facets([(1, 2), (3, 4)], 4))
    assert not cert.ok
    assert cert.first_failure["face"] == []


def test_cohen_macaulay_rejects_pinched_disks():
    # two triangles glued at a vertex: the glue point has a disconnected link
    cert = is_cohen_macaulay(from_facets([(1, 2, 3), (3, 4, 5)], 5))
    assert not cert.ok
    assert cert.first_failure["face"] == [3]


def test_euler_characteristic_consistency(octahedron, cycle4, sd_tetra):
    # alternating face counts equal alternating reduced Betti numbers, k = -1 .. dim
    for delta in (octahedron.complex, cycle4.complex, sd_tetra.complex,
                  from_facets([(1, 2, 3), (3, 4)], 4)):
        table = reduced_betti(delta)
        ks = range(-1, delta.dim + 1)
        faces = sum((-1) ** k * len(delta.faces_by_card[k + 1]) for k in ks)
        assert faces == sum((-1) ** k * table.get(k) for k in ks)


def test_field_spec_accepts_large_primes():
    assert FieldSpec().p == 2147483647
    assert FieldSpec(p=1000003).p == 1000003
    assert FieldSpec.rationals().kind == "rationals"


def test_field_spec_rejects_bad_fields():
    with pytest.raises(ValueError):
        FieldSpec(kind="real")
    with pytest.raises(ValueError):
        FieldSpec(p=1000001)  # 101 * 9901
    with pytest.raises(ValueError):
        FieldSpec(p=1018081)  # 1009^2, no factor below the trial-division bound
    with pytest.raises(ValueError):
        FieldSpec(p=101)  # prime but too small for random draws to be generic


def test_gorenstein_suite_links_are_spheres(gorenstein_certs):
    for name, cert in gorenstein_certs.items():
        assert cert.ok, name
