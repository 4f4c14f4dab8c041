"""Brute-force reference implementations used to pin expected values.

Everything favors obviousness over speed: explicit subset enumeration,
list-based polynomial arithmetic, Fraction elimination.  Nothing here
imports from the package under test.
"""
from fractions import Fraction
from itertools import combinations, permutations


def closure(facets):
    """All faces as frozensets, empty face included."""
    faces = {frozenset()}
    for f in facets:
        f = tuple(sorted(set(f)))
        for r in range(1, len(f) + 1):
            for c in combinations(f, r):
                faces.add(frozenset(c))
    return faces


def f_vec(facets):
    faces = closure(facets)
    dim = max(len(f) for f in faces) - 1
    out = [0] * (dim + 2)
    for f in faces:
        out[len(f)] += 1
    return tuple(out)


def _one_minus_t_power(m):
    """Coefficient list of (1-t)^m."""
    poly = [1]
    for _ in range(m):
        poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
    return poly


def h_vec(facets, d):
    """Coefficients of sum_i f_{i-1} t^i (1-t)^(d-i), degrees 0..d."""
    fv = f_vec(facets)
    acc = [0] * (d + 1)
    for i in range(d + 1):
        fi = fv[i] if i < len(fv) else 0
        if fi == 0:
            continue
        shifted = [0] * i + _one_minus_t_power(d - i)
        for k in range(min(len(shifted), d + 1)):
            acc[k] += fi * shifted[k]
    return tuple(acc)


def all_subsets(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        for c in combinations(items, r):
            yield frozenset(c)


def flag_f(facets, colors, d):
    """colors: dict vertex -> color in 1..d.  Count faces by color set."""
    table = {s: 0 for s in all_subsets(range(1, d + 1))}
    for face in closure(facets):
        table[frozenset(colors[v] for v in face)] += 1
    return table


def flag_h(facets, colors, d):
    ff = flag_f(facets, colors, d)
    out = {}
    for s in all_subsets(range(1, d + 1)):
        total = 0
        for t in all_subsets(s):
            total += (-1) ** (len(s) - len(t)) * ff[t]
        out[s] = total
    return out


def link_faces(facets, face):
    """Faces of the link on the original labels."""
    face = frozenset(face)
    cl = closure(facets)
    return {g for g in cl if not (g & face) and (g | face) in cl}


def rank_select_faces(facets, colors, t_set):
    t_set = frozenset(t_set)
    return {f for f in closure(facets) if {colors[v] for v in f} <= t_set}


def relabel_faces(faces, kept_vertices):
    """Map faces through old -> position-in-sorted(kept)."""
    order = {v: i + 1 for i, v in enumerate(sorted(kept_vertices))}
    return {frozenset(order[v] for v in f) for f in faces}


def monomial_count(facets, n, k):
    """Exponent vectors of total degree k whose support is a face."""
    cl = closure(facets)
    count = 0

    def rec(pos, remaining, supp):
        nonlocal count
        if pos == n:
            if remaining == 0 and frozenset(supp) in cl:
                count += 1
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, supp + [pos + 1] if e else supp)

    rec(0, k, [])
    return count


def fraction_rank(rows):
    """Gauss-Jordan over exact rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    cols = len(m[0])
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def naive_betti(facets):
    """Reduced Betti numbers over the rationals, keys -1..dim."""
    cl = closure(facets)
    dim = max(len(f) for f in cl) - 1
    by_card = {c: sorted(tuple(sorted(f)) for f in cl if len(f) == c) for c in range(dim + 2)}
    ranks = {}
    for k in range(dim + 1):
        rows = by_card[k]
        cols = by_card[k + 1]
        if not cols:
            ranks[k] = 0
            continue
        ridx = {f: i for i, f in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for j, f in enumerate(cols):
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1:]
                mat[ridx[sub]][j] = (-1) ** pos
        ranks[k] = fraction_rank(mat)
    ranks[dim + 1] = 0
    out = {-1: 1 - ranks.get(0, 0)}
    for k in range(dim + 1):
        out[k] = len(by_card[k + 1]) - ranks[k] - ranks[k + 1]
    return out


def isomorphic(a, b):
    """Color-class-preserving isomorphism test by backtracking.

    Colors may be permuted as long as class sizes match; vertices are then
    matched class by class under facet-set consistency.  Intended for small
    instances (n <= 30).
    """
    if a.n != b.n or len(a.complex.facets) != len(b.complex.facets):
        return False
    if sorted(len(f) for f in a.complex.facets) != sorted(len(f) for f in b.complex.facets):
        return False
    if a.palette != b.palette:
        return False
    classes_a = {c: a.coloring.class_of(c) for c in range(1, a.palette + 1)}
    classes_b = {c: b.coloring.class_of(c) for c in range(1, b.palette + 1)}
    facets_b = set(b.complex.facets)
    edges_a = set(a.complex.faces(2))
    edges_b = set(b.complex.faces(2))

    def degree(v, edges):
        return sum(1 for e in edges if v in e)

    deg_a = {v: degree(v, edges_a) for v in range(1, a.n + 1)}
    deg_b = {v: degree(v, edges_b) for v in range(1, b.n + 1)}

    verts_in_order = [v for c in range(1, a.palette + 1) for v in classes_a[c]]

    def color_maps():
        for perm in permutations(range(1, b.palette + 1)):
            if all(len(classes_a[c]) == len(classes_b[perm[c - 1]]) for c in classes_a):
                yield {c: perm[c - 1] for c in classes_a}

    def extend(i, vmap, used, cmap):
        if i == len(verts_in_order):
            mapped = {tuple(sorted(vmap[v] for v in f)) for f in a.complex.facets}
            return mapped == facets_b
        v = verts_in_order[i]
        for w in classes_b[cmap[a.coloring.of(v)]]:
            if w in used or deg_a[v] != deg_b[w]:
                continue
            ok = True
            for (x, y) in edges_a:
                if x == v and y in vmap and tuple(sorted((w, vmap[y]))) not in edges_b:
                    ok = False
                    break
                if y == v and x in vmap and tuple(sorted((w, vmap[x]))) not in edges_b:
                    ok = False
                    break
            if not ok:
                continue
            vmap[v] = w
            used.add(w)
            if extend(i + 1, vmap, used, cmap):
                return True
            del vmap[v]
            used.remove(w)
        return False

    for cmap in color_maps():
        if extend(0, {}, set(), cmap):
            return True
    return False
