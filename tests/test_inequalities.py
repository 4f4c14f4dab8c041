from itertools import combinations

import pytest

from bglb.complexes import InvalidComplexError, colored, from_facets
from bglb.generators import cross_polytope
from bglb.inequalities import (CheckResult, balanced_g, equality_analysis, flag_symmetry,
                               g_bar_at, verify_link_sum, verify_nonnegativity,
                               verify_rank_selected, verify_selection_sum)


def _path4():
    return colored(from_facets([(1, 2), (2, 3), (3, 4)], 4), [1, 2, 1, 2])


def _path3():
    return colored(from_facets([(1, 2), (2, 3)], 3), [1, 2, 1])


# -- g-numbers --------------------------------------------------------------


def test_g_bar_formula_and_range():
    h = (1, 2, 1)
    assert g_bar_at(h, 2, 0) == 0
    assert g_bar_at(h, 2, 1) == 0
    assert g_bar_at(h, 2, 2) == 2 * 1 - 1 * 2
    assert g_bar_at(h, 2, 3) == 0  # h_3 reads as zero
    with pytest.raises(ValueError):
        g_bar_at(h, 2, 4)
    with pytest.raises(ValueError):
        g_bar_at(h, 2, -1)


def test_balanced_g_cross_polytope():
    g = balanced_g((1, 4, 6, 4, 1), 4)
    assert g.entries == (0, 0, 0, 0, 0)


def test_balanced_g_stacked(stacked42):
    g = balanced_g((1, 8, 12, 8, 1), 4)
    assert g.entries == (0, 4, 0, 0, -4)
    from bglb.complexes import h_vector

    assert h_vector(stacked42.complex, 4) == (1, 8, 12, 8, 1)


def test_balanced_g_pads_short_h():
    g = balanced_g((1,), 2)
    assert g.h == (1, 0, 0)
    assert g.entries == (0, -2, 0)


def test_balanced_g_rejects_long_h():
    with pytest.raises(ValueError):
        balanced_g((1, 2, 1, 1), 2)


# -- check results ----------------------------------------------------------


def test_check_result_validation():
    with pytest.raises(ValueError):
        CheckResult("bglb", status="fail")  # no witness
    with pytest.raises(ValueError):
        CheckResult("bglb", status="maybe")
    r = CheckResult("bglb", "inst", {"i": 1}, "skipped", None, {"reason": "x"})
    assert r.ok
    assert not CheckResult("bglb", status="fail", witness={"i": 1}).ok
    assert set(r.as_dict()) == {"check", "instance", "params", "status", "witness", "details"}


# -- nonnegativity ----------------------------------------------------------


def test_nonnegativity_on_suite_spheres(octahedron, sd_tetra, stacked42):
    for gamma in (octahedron, sd_tetra, stacked42):
        res = verify_nonnegativity(gamma)
        assert res.status == "pass"
    res = verify_nonnegativity(sd_tetra)
    assert res.details["g"] == [0, 8, 0, -8]
    assert res.details["h"] == [1, 11, 11, 1]


def test_nonnegativity_raw_h_needs_palette():
    assert verify_nonnegativity((1, 4, 6, 4, 1), d=4).status == "pass"
    with pytest.raises(ValueError):
        verify_nonnegativity((1, 4, 6, 4, 1))


def test_nonnegativity_reports_first_violation():
    res = verify_nonnegativity((1, 2, 1, 1), d=4, instance="corrupted")
    assert res.status == "fail"
    assert res.witness == {"i": 1, "g_i": -2}
    assert res.instance == "corrupted"
    assert res.details["h"] == [1, 2, 1, 1, 0]


# -- rank selections --------------------------------------------------------


def test_rank_selected_octahedron(octahedron):
    rows = verify_rank_selected(octahedron, instance="oct")
    assert len(rows) == 8
    assert all(r.status == "pass" for r in rows)
    by_t = {tuple(r.params["T"]): r for r in rows}
    assert by_t[(1, 2)].details["h"] == [1, 2, 1]
    assert by_t[()].details["h"] == [1]
    assert by_t[(1, 2, 3)].details["h"] == [1, 3, 3, 1]


def test_rank_selected_flags_asymmetric_selection():
    rows = verify_rank_selected(_path3())
    by_t = {tuple(r.params["T"]): r for r in rows}
    bad = by_t[(1, 2)]
    assert bad.status == "fail"
    assert bad.witness == {"part": "symmetry", "i": 0, "h_i": 1, "h_top": 0}


# -- selection sums ---------------------------------------------------------


def test_selection_sum_octahedron_values(octahedron):
    res = verify_selection_sum(octahedron, 1, 2, instance="oct")
    assert res.status == "pass"
    assert res.details == {"value": 6}
    assert verify_selection_sum(octahedron, 1, 1).details == {"value": 3}


def test_selection_sum_full_sweep(octahedron, sd_tetra, stacked42):
    for gamma in (octahedron, sd_tetra, stacked42):
        d = gamma.palette
        for k in range(d + 1):
            for i in range(k + 1):
                assert verify_selection_sum(gamma, i, k).status == "pass"


def test_selection_sum_validates_indices(octahedron):
    with pytest.raises(ValueError):
        verify_selection_sum(octahedron, 2, 1)
    with pytest.raises(ValueError):
        verify_selection_sum(octahedron, 0, 4)


# -- link sums --------------------------------------------------------------


def test_link_sum_octahedron(octahedron):
    res = verify_link_sum(octahedron, 1, instance="oct")
    assert res.status == "pass"
    assert res.details == {"g_value": 0, "h_value": 12}


def test_link_sum_all_indices(octahedron, sd_tetra):
    for gamma in (octahedron, sd_tetra):
        for i in range(gamma.palette + 1):
            assert verify_link_sum(gamma, i).status == "pass"


def test_link_sum_requires_pure():
    gamma = colored(from_facets([(1, 2, 3), (3, 4)], 4), [1, 2, 3, 1])
    with pytest.raises(InvalidComplexError):
        verify_link_sum(gamma, 0)


def test_link_sum_validates_index(octahedron):
    with pytest.raises(ValueError):
        verify_link_sum(octahedron, 4)


# -- equality analysis ------------------------------------------------------


def test_equality_zero_sets(stacked42, sd_tetra):
    cross4 = cross_polytope(4)
    res = equality_analysis(cross4)
    assert res.status == "pass"
    assert res.details["zero_set"] == [1, 2]
    assert equality_analysis(stacked42).details["zero_set"] == [2]
    assert equality_analysis(sd_tetra).details["zero_set"] == []


def test_equality_detects_broken_propagation():
    # two disjoint tetrahedron boundaries: g_1 = 0 but g_2 = -24 at palette 4
    facets = [c for c in combinations(range(1, 5), 3)]
    facets += [tuple(v + 4 for v in c) for c in combinations(range(1, 5), 3)]
    gamma = colored(from_facets(facets, 8), [1, 2, 3, 4, 1, 2, 3, 4])
    res = equality_analysis(gamma)
    assert res.status == "fail"
    assert res.witness == {"part": "propagation", "i": 2, "g_prev": 0, "g_i": -24}


def test_equality_detects_selection_gap():
    # star with color classes of sizes 1 and 3: g_1 = 0, one-color
    # selections have h_1 != h_0
    gamma = colored(from_facets([(1, 2), (1, 3), (1, 4)], 4), [1, 2, 2, 2])
    res = equality_analysis(gamma)
    assert res.status == "fail"
    assert res.witness == {"part": "selection", "i": 1, "T": [1], "h_i": 0, "h_prev": 1}


def test_equality_detects_link_gap():
    # path on four vertices: g_1 = 0, endpoint links are single points
    res = equality_analysis(_path4())
    assert res.status == "fail"
    assert res.witness == {"part": "link", "i": 1, "vertex": 1, "g_link": -1}
    assert res.details == {"g": [0, 0, -2], "zero_set": [1]}


# -- flag symmetry ----------------------------------------------------------


def test_flag_symmetry_octahedron(octahedron):
    res = flag_symmetry(octahedron, instance="oct")
    assert res.status == "pass"
    assert res.details == {"subsets_checked": 8}


def test_flag_symmetry_rejects_path():
    res = flag_symmetry(_path3())
    assert res.status == "fail"
    assert res.witness == {"S": [], "h_S": 1, "h_complement": 0}
