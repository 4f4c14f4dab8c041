"""End-to-end acceptance battery.

Each test pins one guarantee of the toolkit on the standard instance
families, with explicit runtime ceilings where the guarantee includes one.
Scope restrictions (the generic-draw dimension cap, the multigraded vertex
limit) are frozen as exact instance lists so a silent policy change fails
here.
"""
import random
import time
from collections import Counter

import pytest

import oracles
from bglb.complexes import colored, f_vector, flag_vectors, from_facets, h_vector
from bglb.complexes import colored_link, rank_select
from bglb.generators import (barycentric_subdivision, cross_polytope, default_suite,
                             simplex_boundary, stacked_cross_polytope)
from bglb.inequalities import (balanced_g, equality_analysis, flag_symmetry, verify_link_sum,
                               verify_nonnegativity, verify_rank_selected, verify_selection_sum)
from bglb.report import GENERIC_DIM_CAP, MULTIGRADED_MAX_N, _max_graded_dim, run_instance
from bglb.sr_algebra import (colored_lsop, draw_verified_lsop, multigraded_series_check,
                             quotient_hilbert)

# instances whose full-model graded pieces stay within the dense-elimination
# cap; only these get generic parameter draws
UNDER_CAP = (
    "cross_d2", "cross_d3", "cross_d4", "cross_d5",
    "stacked_d4_m2", "stacked_d4_m3",
    "sd_simplex_d2", "susp_sd_simplex_d2",
    "sd_simplex_d3", "susp_sd_simplex_d3",
    "sd_simplex_d4",
)

OVER_CAP = (
    "cross_d6", "cross_d7",
    "stacked_d5_m2", "stacked_d5_m3", "stacked_d6_m2", "stacked_d6_m3",
    "susp_sd_simplex_d4",
)


def test_criterion_01_cross_polytope_equality():
    start = time.monotonic()
    for d in range(2, 8):
        gamma = cross_polytope(d)
        g = balanced_g(h_vector(gamma.complex, d), d)
        for i in range(1, d // 2 + 1):
            assert g[i] == 0, "d=%d i=%d" % (d, i)
    assert time.monotonic() - start < 5.0


def test_criterion_02_stacked_equality():
    start = time.monotonic()
    for d in (4, 5, 6):
        for m in (2, 3):
            gamma = stacked_cross_polytope(d, m, seed=1)
            g = balanced_g(h_vector(gamma.complex, d), d)
            assert g[1] > 0, "d=%d m=%d" % (d, m)
            for i in range(2, d // 2 + 1):
                assert g[i] == 0, "d=%d m=%d i=%d" % (d, m, i)
    assert time.monotonic() - start < 30.0


def test_criterion_03_nonnegativity_battery():
    start = time.monotonic()
    for name, gamma in default_suite():
        res = verify_nonnegativity(gamma, instance=name)
        assert res.status == "pass", (name, res.witness)
    assert time.monotonic() - start < 120.0


def test_criterion_04_rank_selection_battery(suite):
    start = time.monotonic()
    rows = 0
    for name, gamma in suite.items():
        if gamma.palette > 6:
            continue
        results = verify_rank_selected(gamma, instance=name)
        assert len(results) == 2 ** gamma.palette
        assert all(r.status == "pass" for r in results), name
        rows += len(results)
    assert rows == sum(2 ** g.palette for g in suite.values() if g.palette <= 6)
    assert time.monotonic() - start < 300.0
    # the one palette-7 instance is cheap enough to sweep as well
    results = verify_rank_selected(suite["cross_d7"], instance="cross_d7")
    assert len(results) == 128
    assert all(r.status == "pass" for r in results)


def test_criterion_05_selection_sum_identity(suite):
    for name, gamma in suite.items():
        d = gamma.palette
        for k in range(d + 1):
            for i in range(k + 1):
                res = verify_selection_sum(gamma, i, k, instance=name)
                assert res.status == "pass", (name, i, k, res.witness)


def test_criterion_06_flag_symmetry(suite, gorenstein_certs):
    for name, gamma in suite.items():
        assert gorenstein_certs[name].ok, name
        res = flag_symmetry(gamma, instance=name)
        assert res.status == "pass", (name, res.witness)
        assert res.details["subsets_checked"] == 2 ** gamma.palette


def test_criterion_07_colored_quotient_battery(suite):
    for name, gamma in suite.items():
        d = gamma.palette
        expected = tuple(h_vector(gamma.complex, d)) + (0,)
        dims = quotient_hilbert(gamma, colored_lsop(gamma), d + 1)
        assert dims == expected, name


def test_criterion_07_generic_draws_within_cap(suite):
    under = tuple(name for name, g in suite.items()
                  if _max_graded_dim(g, g.palette + 1) <= GENERIC_DIM_CAP)
    assert under == UNDER_CAP
    for name in under:
        gamma = suite[name]
        d = gamma.palette
        expected = tuple(h_vector(gamma.complex, d)) + (0,)
        for seed in (1, 2, 3):
            _, _, verdict = draw_verified_lsop(gamma, seed=seed)
            assert verdict.ok, (name, seed)
            assert verdict.dims[: d + 2] == expected, (name, seed)


def test_criterion_07_generic_draws_over_cap(suite):
    over = tuple(name for name, g in suite.items()
                 if _max_graded_dim(g, g.palette + 1) > GENERIC_DIM_CAP)
    assert over == OVER_CAP
    # largest piece: 59906-dimensional degree-8 component of cross_d7;
    # dense modular elimination there is days of work, so generic draws on
    # these instances are out of scope and reported as skipped
    pytest.skip("generic draws exceed the dense-elimination cap on: %s" % ", ".join(over))


def test_criterion_08_multigraded_series(suite):
    excluded = {name for name, g in suite.items() if g.n > MULTIGRADED_MAX_N}
    assert excluded == {"sd_simplex_d4", "susp_sd_simplex_d4"}
    for name, gamma in suite.items():
        if name in excluded:
            continue
        res = multigraded_series_check(gamma, gamma.palette + 1)
        assert res.ok, (name, res.first_mismatch)
        assert res.coefficients_checked > 0


def test_criterion_09_lefschetz_battery(suite):
    expected_rows = {"cross_d3": 36, "cross_d4": 84, "cross_d5": 192, "sd_simplex_d3": 36}
    start = time.monotonic()
    for name, want in expected_rows.items():
        rows = run_instance(name, suite[name], ["lefschetz"], seeds=(1, 2, 3))
        tally = Counter(r.status for r in rows)
        assert len(rows) == want, name
        assert tally == {"pass": want}, (name, tally)
    assert time.monotonic() - start < 600.0


def test_criterion_10_link_sum_battery(suite):
    for name, gamma in suite.items():
        assert gamma.complex.is_pure, name
        for i in range(gamma.palette + 1):
            res = verify_link_sum(gamma, i, instance=name)
            assert res.status == "pass", (name, i, res.witness)


def test_criterion_11_equality_consequences(suite):
    for name, gamma in suite.items():
        res = equality_analysis(gamma, instance=name)
        assert res.status == "pass", (name, res.witness)


# -- oracle equivalence corpus ----------------------------------------------


def _random_balanced_instance(rng):
    """Facets plus a proper coloring, labels compacted to 1..n.

    Faces are built one vertex per chosen color, so the coloring is proper
    by construction."""
    n = rng.randint(4, 12)
    d = rng.randint(2, 4)
    color_of = {v: rng.randint(1, d) for v in range(1, n + 1)}
    by_color = {}
    for v, c in color_of.items():
        by_color.setdefault(c, []).append(v)
    present = sorted(by_color)
    facets = []
    for _ in range(rng.randint(2, 10)):
        size = rng.randint(1, len(present))
        chosen = rng.sample(present, size)
        facets.append(tuple(sorted(rng.choice(by_color[c]) for c in chosen)))
    covered = sorted({v for f in facets for v in f})
    remap = {v: i + 1 for i, v in enumerate(covered)}
    facets = [tuple(sorted(remap[v] for v in f)) for f in facets]
    used = sorted({color_of[v] for v in covered})
    cmap = {c: i + 1 for i, c in enumerate(used)}
    clist = [cmap[color_of[v]] for v in covered]
    return facets, clist


def test_criterion_12_oracle_equivalence():
    rng = random.Random(1205)
    agreements = 0
    for trial in range(30):
        facets, clist = _random_balanced_instance(rng)
        gamma = colored(from_facets(facets, len(clist)), clist)
        assert gamma.n <= 12
        d = gamma.palette
        colors = {v: clist[v - 1] for v in range(1, gamma.n + 1)}

        assert f_vector(gamma.complex) == oracles.f_vec(facets), trial
        assert h_vector(gamma.complex, d) == oracles.h_vec(facets, d), trial
        agreements += 2

        ff, fh = flag_vectors(gamma)
        want_f = oracles.flag_f(facets, colors, d)
        want_h = oracles.flag_h(facets, colors, d)
        for s in oracles.all_subsets(range(1, d + 1)):
            assert ff[s] == want_f[s], (trial, s)
            assert fh[s] == want_h[s], (trial, s)
            agreements += 2

        for v in range(1, gamma.n + 1):
            link, labels = colored_link(gamma, (v,))
            got = {frozenset(f) for f in link.complex.faces()}
            link_faces = oracles.link_faces(facets, (v,))
            want = oracles.relabel_faces(link_faces, labels)
            assert got == want, (trial, v)
            assert gamma.link_h[v - 1] == oracles.h_vec(link_faces, d - 1), (trial, v)
            agreements += 2

        for t_cols in oracles.all_subsets(range(1, d + 1)):
            sel = rank_select(gamma, t_cols)
            kept = [v for v in range(1, gamma.n + 1) if colors[v] in t_cols]
            got = {frozenset(f) for f in sel.complex.faces()}
            sel_faces = oracles.rank_select_faces(facets, colors, t_cols)
            want = oracles.relabel_faces(sel_faces, kept)
            assert got == want, (trial, t_cols)
            want_h = oracles.h_vec(sel_faces, len(t_cols))
            assert gamma.selection_h[tuple(sorted(t_cols))] == want_h, (trial, t_cols)
            agreements += 2

    assert agreements > 500
