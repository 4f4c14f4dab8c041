import json

import pytest

import oracles
from bglb.complexes import f_vector, flag_vectors, h_vector, validate_coloring
from bglb.generators import (FamilySpec, barycentric_subdivision, build, cross_polytope,
                             default_suite, default_suite_specs, simplex_boundary,
                             stacked_cross_polytope, suspension)
from oracles import isomorphic


def test_cross_polytope_shape():
    for d in range(2, 8):
        g = cross_polytope(d)
        assert g.n == 2 * d
        assert len(g.complex.facets) == 2 ** d
        assert g.palette == d
        h = h_vector(g.complex, d)
        from math import comb
        assert h == tuple(comb(d, i) for i in range(d + 1))


def test_cross_polytope_coloring_is_balanced():
    g = cross_polytope(4)
    report = validate_coloring(g.complex, g.coloring)
    assert report["proper"] and report["balanced"]


def test_cross_polytope_rejects_bad_dim():
    with pytest.raises(ValueError):
        cross_polytope(0)
    with pytest.raises(ValueError):
        cross_polytope(11)


def test_stacked_h_vectors():
    assert h_vector(stacked_cross_polytope(4, 2, seed=1).complex, 4) == (1, 8, 12, 8, 1)
    assert h_vector(stacked_cross_polytope(4, 3, seed=1).complex, 4) == (1, 12, 18, 12, 1)
    from math import comb
    for d, m in ((5, 2), (6, 3)):
        h = h_vector(stacked_cross_polytope(d, m, seed=1).complex, d)
        assert h[0] == h[d] == 1
        assert all(h[i] == m * comb(d, i) for i in range(1, d))


def test_stacked_single_summand_is_cross():
    assert isomorphic(stacked_cross_polytope(3, 1), cross_polytope(3))


def test_stacked_is_deterministic_per_seed():
    a = stacked_cross_polytope(4, 3, seed=7)
    b = stacked_cross_polytope(4, 3, seed=7)
    assert a.complex.facets == b.complex.facets
    assert a.coloring.colors == b.coloring.colors


def test_stacked_coloring_proper():
    g = stacked_cross_polytope(5, 3, seed=2)
    assert validate_coloring(g.complex, g.coloring)["proper"]
    assert g.n == 5 * 3 + 5  # fresh vertices per extra summand, shared pairs kept


def test_barycentric_of_square_is_8_cycle():
    sd = barycentric_subdivision(cross_polytope(2).complex)
    assert f_vector(sd.complex) == (1, 8, 8)
    assert sd.palette == 2


def test_barycentric_counts():
    sd = barycentric_subdivision(simplex_boundary(3))
    assert f_vector(sd.complex) == (1, 14, 36, 24)
    assert h_vector(sd.complex, 3) == (1, 11, 11, 1)
    # coloring by cardinality of the original face
    assert validate_coloring(sd.complex, sd.coloring)["balanced"]


def test_barycentric_facets_are_chains():
    sd = barycentric_subdivision(simplex_boundary(2))
    for facet in sd.complex.facets:
        cards = sorted(sd.coloring.of(v) for v in facet)
        assert cards == list(range(1, len(facet) + 1))


def test_suspension_of_square_is_octahedron():
    assert isomorphic(suspension(cross_polytope(2)), cross_polytope(3))


def test_suspension_of_cross3_is_cross4():
    assert isomorphic(suspension(cross_polytope(3)), cross_polytope(4))


def test_suspension_h_vector(sd_tetra):
    base_h = h_vector(sd_tetra.complex, 3)
    susp_h = h_vector(suspension(sd_tetra).complex, 4)
    want = tuple((base_h[i] if i < 4 else 0) + (base_h[i - 1] if 0 < i < 5 else 0)
                 for i in range(5))
    assert susp_h == want


def test_family_spec_roundtrip():
    spec = FamilySpec("suspension", base=FamilySpec("barycentric",
                                                    base=FamilySpec("simplex", dim=3)))
    data = json.loads(json.dumps(spec.to_dict()))
    assert FamilySpec.from_dict(data) == spec


def test_build_dispatch_matches_direct_constructors():
    assert build(FamilySpec("cross", dim=3)).complex.facets == cross_polytope(3).complex.facets
    got = build(FamilySpec("stacked_cross", dim=4, count=2, seed=9))
    assert got.complex.facets == stacked_cross_polytope(4, 2, seed=9).complex.facets


def test_build_rejects_bare_simplex():
    with pytest.raises(ValueError):
        build(FamilySpec("simplex", dim=2))
    with pytest.raises(ValueError):
        build(FamilySpec("nonsense", dim=2))


def test_default_suite_names_and_sizes(suite):
    assert len(suite) == 18
    assert set(n for n, _ in default_suite_specs()) == set(suite)
    for name, g in suite.items():
        assert validate_coloring(g.complex, g.coloring)["balanced"], name


def test_isomorphic_rejects_different_complexes():
    assert not isomorphic(cross_polytope(3), suspension(cross_polytope(3)))
    sq = cross_polytope(2)
    sd = barycentric_subdivision(sq.complex)
    assert not isomorphic(sq, sd)


def test_flag_h_of_cross_is_all_ones():
    g = cross_polytope(4)
    _, fh = flag_vectors(g)
    assert all(v == 1 for _, v in fh.items())


def test_barycentric_flag_f_matches_oracle():
    sd = barycentric_subdivision(simplex_boundary(2))
    colors = {v: sd.coloring.of(v) for v in range(1, sd.n + 1)}
    ff, fh = flag_vectors(sd)
    off = oracles.flag_f(sd.complex.facets, colors, 2)
    ofh = oracles.flag_h(sd.complex.facets, colors, 2)
    for s in oracles.all_subsets(range(1, 3)):
        assert ff[s] == off[s]
        assert fh[s] == ofh[s]
