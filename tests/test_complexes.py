import pytest

import oracles
from bglb.complexes import (ColoredComplex, Coloring, ImproperColoringError, InvalidComplexError,
                            NotAFaceError, SimplicialComplex, colored, colored_link,
                            empty_complex, f_to_h, f_vector, flag_vectors, from_dict,
                            from_facets, h_to_f, h_vector, link, link_with_labels, rank_select,
                            to_dict, validate_coloring)
from bglb.util import subsets


def test_face_closure_counts():
    delta = from_facets([(1, 2, 3), (2, 3, 4)], 4)
    assert f_vector(delta) == (1, 4, 5, 2)
    assert delta.dim == 2
    assert delta.is_pure


def test_empty_complex_has_only_the_empty_face():
    e = empty_complex()
    assert e.dim == -1
    assert f_vector(e) == (1,)


def test_contains_and_faces():
    delta = from_facets([(1, 2, 3)], 3)
    assert (1, 3) in delta
    assert (1, 2, 3) in delta
    assert () in delta
    assert not delta.has_face((1, 4))
    assert sorted(delta.faces(2)) == [(1, 2), (1, 3), (2, 3)]


def test_from_facets_rejects_bad_vertices():
    with pytest.raises(InvalidComplexError):
        from_facets([(0, 1)], 2)
    with pytest.raises(InvalidComplexError):
        from_facets([(1, 5)], 3)
    with pytest.raises(InvalidComplexError):
        from_facets([(1, 2)], 3)  # vertex 3 uncovered


def test_from_facets_shrink_compacts_labels():
    delta = from_facets([(2, 5), (5, 9)], n=9, shrink=True)
    assert delta.n == 3
    assert delta.facets == ((1, 2), (2, 3))


def test_contained_facets_are_pruned():
    delta = from_facets([(1, 2), (1, 2, 3)], 3)
    assert delta.facets == ((1, 2, 3),)


def test_f_vector_matches_oracle_on_mixed_dims():
    facets = [(1, 2, 3), (3, 4), (5,)]
    delta = from_facets(facets, 5)
    assert f_vector(delta) == oracles.f_vec(facets)
    assert not delta.is_pure


def test_h_vector_octahedron(octahedron):
    assert h_vector(octahedron.complex, 3) == (1, 3, 3, 1)


def test_h_vector_matches_oracle():
    facets = [(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5)]
    delta = from_facets(facets, 5)
    for d in (3, 4):
        assert h_vector(delta, d) == oracles.h_vec(facets, d)


def test_h_roundtrip():
    f = (1, 6, 12, 8)
    h = f_to_h(f, 3)
    assert h == (1, 3, 3, 1)
    assert h_to_f(h, 3) == f


def test_coloring_validation():
    delta = from_facets([(1, 2), (2, 3)], 3)
    report = validate_coloring(delta, [1, 2, 1])
    assert report["proper"]
    assert report["balanced"]
    bad = validate_coloring(delta, [1, 1, 2])
    assert not bad["proper"]
    assert (1, 2) in bad["violations"]
    with pytest.raises(ImproperColoringError):
        colored(delta, [1, 1, 2])


def test_flag_vectors_cycle(cycle4):
    ff, fh = flag_vectors(cycle4)
    assert ff.as_dict() == {(): 1, (1,): 2, (2,): 2, (1, 2): 4}
    assert all(v == 1 for v in fh.as_dict().values())


def test_flag_vectors_match_oracle(octahedron):
    colors = {v: octahedron.coloring.of(v) for v in range(1, 7)}
    facets = octahedron.complex.facets
    ff, fh = flag_vectors(octahedron)
    off = oracles.flag_f(facets, colors, 3)
    ofh = oracles.flag_h(facets, colors, 3)
    for s in oracles.all_subsets(range(1, 4)):
        assert ff[s] == off[s]
        assert fh[s] == ofh[s]


def test_flag_f_sums_to_f(octahedron):
    ff, _ = flag_vectors(octahedron)
    f = f_vector(octahedron.complex)
    for card in range(4):
        total = sum(v for s, v in ff.items() if len(s) == card)
        assert total == f[card]


def test_link_octahedron_vertex(octahedron):
    lk = link(octahedron.complex, (1,))
    assert f_vector(lk) == (1, 4, 4)


def test_link_relabels_order_preserving(octahedron):
    lk, labels = link_with_labels(octahedron.complex, (1,))
    want = oracles.link_faces(octahedron.complex.facets, (1,))
    got = {frozenset(labels[v - 1] for v in f) for m in lk.face_masks
           for f in [tuple(i + 1 for i in range(lk.n) if m >> i & 1)]}
    assert got == want


def test_link_of_nonface_raises(octahedron):
    with pytest.raises(NotAFaceError):
        link(octahedron.complex, (1, 2))  # antipodal pair


def test_rank_select_octahedron(octahedron):
    sel = rank_select(octahedron, (1, 2))
    assert h_vector(sel.complex, 2) == (1, 2, 1)
    assert sel.palette == 2
    assert sel.color_labels == (1, 2)
    single = rank_select(octahedron, (2,))
    assert h_vector(single.complex, 1) == (1, 1)
    nothing = rank_select(octahedron, ())
    assert nothing.complex.dim == -1


def test_rank_select_matches_oracle(octahedron):
    colors = {v: octahedron.coloring.of(v) for v in range(1, 7)}
    for t_set in oracles.all_subsets(range(1, 4)):
        sel = rank_select(octahedron, t_set)
        want_raw = oracles.rank_select_faces(octahedron.complex.facets, colors, t_set)
        kept = sorted(v for v in range(1, 7) if colors[v] in t_set)
        want = oracles.relabel_faces(want_raw, kept)
        got = {frozenset(i + 1 for i in range(sel.complex.n) if m >> i & 1)
               for m in sel.complex.face_masks}
        assert got == want


def test_selection_h_matches_rank_select(octahedron, stacked42, sd_tetra):
    for gamma in (octahedron, stacked42, sd_tetra):
        table = gamma.selection_h
        assert list(table) == subsets(range(1, gamma.palette + 1))
        for t_cols, ht in table.items():
            assert ht == h_vector(rank_select(gamma, t_cols).complex, len(t_cols)), t_cols
    assert octahedron.selection_h[(1, 3)] == (1, 2, 1)


def test_link_h_octahedron(octahedron):
    # every vertex link of the octahedron is a 4-cycle
    assert octahedron.link_h == ((1, 2, 1),) * 6


def test_rank_select_rejects_unknown_colors(octahedron):
    with pytest.raises(ValueError):
        rank_select(octahedron, (1, 9))


def test_colored_link_palette(octahedron):
    lk, old = colored_link(octahedron, (1,))
    assert lk.palette == 2
    assert lk.n == 4
    assert len(old) == 4
    assert lk.color_labels == (2, 3)  # vertex 1 has color 1


def test_serialization_roundtrip(octahedron):
    data = to_dict(octahedron, name="oct")
    back = from_dict(data)
    assert isinstance(back, ColoredComplex)
    assert back.complex.facets == octahedron.complex.facets
    assert back.coloring.colors == octahedron.coloring.colors
    plain = from_dict({"n": 2, "facets": [[1], [2]]})
    assert isinstance(plain, SimplicialComplex)


def test_from_dict_rejects_malformed():
    with pytest.raises(InvalidComplexError):
        from_dict({"n": 3})
    with pytest.raises(InvalidComplexError):
        from_dict({"n": 3, "facets": [[1, 2, 3]], "coloring": [1, 2]})


def test_coloring_classes():
    kappa = Coloring((1, 2, 1, 2))
    assert kappa.palette == 2
    assert kappa.class_of(1) == (1, 3)
    assert kappa.of(4) == 2
