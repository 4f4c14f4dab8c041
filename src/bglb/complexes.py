"""Simplicial complexes with proper vertex colorings and their face invariants.

Vertices are labeled 1..n.  Faces are stored as bitmasks internally (n <= 128)
and exposed as sorted tuples.  A complex is determined by its facets; the empty
complex {()} is allowed and has dimension -1, f = (1,), h = (1,).
"""
from __future__ import annotations

import functools as ft
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .util import mask_of, submasks, subsets, verts_of

MAX_VERTICES = 128


class InvalidComplexError(ValueError):
    """Facet data that does not describe a supported complex."""


class NotAFaceError(ValueError):
    """A face argument that is not a face of the complex."""


class ImproperColoringError(ValueError):
    """A coloring that repeats a color inside some face."""


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex on vertex set {1..n}, given by facets."""

    n: int
    facets: tuple[tuple[int, ...], ...]

    @ft.cached_property
    def facet_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(f) for f in self.facets)

    @ft.cached_property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    @ft.cached_property
    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    @ft.cached_property
    def face_masks(self) -> frozenset[int]:
        """Subset closure of the facet list, including the empty face."""
        out: set[int] = set()
        for fm in self.facet_masks:
            for s in submasks(fm):
                out.add(s)
        return frozenset(out)

    @ft.cached_property
    def faces_by_card(self) -> tuple[tuple[int, ...], ...]:
        """faces_by_card[k] lists masks of the k-element faces, sorted."""
        buckets: list[list[int]] = [[] for _ in range(self.dim + 2)]
        for m in self.face_masks:
            buckets[m.bit_count()].append(m)
        return tuple(tuple(sorted(b)) for b in buckets)

    def faces(self, card: int | None = None) -> list[tuple[int, ...]]:
        """All faces as sorted tuples, optionally only those of size `card`."""
        if card is not None:
            if card < 0 or card > self.dim + 1:
                return []
            return [verts_of(m) for m in self.faces_by_card[card]]
        out = []
        for bucket in self.faces_by_card:
            out.extend(verts_of(m) for m in bucket)
        return out

    def has_face(self, face) -> bool:
        m = mask_of(face)
        return m in self.face_masks

    def __contains__(self, face) -> bool:
        return self.has_face(face)


@dataclass(frozen=True)
class Coloring:
    """Map from vertices 1..n to colors 1..palette, stored positionally."""

    colors: tuple[int, ...]

    def __post_init__(self):
        for c in self.colors:
            if not isinstance(c, int) or c < 1:
                raise InvalidComplexError("colors must be integers >= 1, got %r" % (c,))

    @property
    def n(self) -> int:
        return len(self.colors)

    @ft.cached_property
    def palette(self) -> int:
        return max(self.colors) if self.colors else 0

    def of(self, v: int) -> int:
        return self.colors[v - 1]

    def color_set(self, face) -> frozenset[int]:
        return frozenset(self.colors[v - 1] for v in face)

    def class_of(self, color: int) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if self.colors[v - 1] == color)


@dataclass(frozen=True)
class ColoredComplex:
    """A complex with a proper coloring; balanced when palette == dim + 1.

    color_labels remembers the originating color names after rank selection
    relabels the palette to 1..#T.
    """

    complex: SimplicialComplex
    coloring: Coloring
    color_labels: tuple[int, ...] = ()

    def __post_init__(self):
        if self.coloring.n != self.complex.n:
            raise InvalidComplexError(
                "coloring covers %d vertices, complex has %d" % (self.coloring.n, self.complex.n)
            )
        report = validate_coloring(self.complex, self.coloring)
        if not report["proper"]:
            raise ImproperColoringError("color repeated on faces: %r" % (report["violations"][:3],))
        if not self.color_labels:
            object.__setattr__(self, "color_labels", tuple(range(1, self.coloring.palette + 1)))

    @property
    def n(self) -> int:
        return self.complex.n

    @property
    def dim(self) -> int:
        return self.complex.dim

    @property
    def palette(self) -> int:
        return self.coloring.palette

    @property
    def is_balanced(self) -> bool:
        return self.coloring.palette == self.complex.dim + 1

    @ft.cached_property
    def selection_h(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """h of every rank selection w.r.t. #T, keyed by the sorted color
        tuple T; see selection_h_vectors."""
        return selection_h_vectors(self)

    @ft.cached_property
    def link_h(self) -> tuple[tuple[int, ...], ...]:
        """h of each vertex link w.r.t. palette - 1; entry v - 1 is lk(v)."""
        return tuple(h_vector(colored_link(self, (v,))[0].complex, self.palette - 1)
                     for v in range(1, self.n + 1))


def from_facets(facets, n: int | None = None, *, shrink: bool = False) -> SimplicialComplex:
    """Build a complex from a facet list, pruning contained faces.

    Vertices must lie in 1..n; with shrink=True uncovered labels are
    compacted away instead of rejected.
    """
    cleaned = []
    for f in facets:
        t = tuple(sorted(set(int(v) for v in f)))
        cleaned.append(t)
    if not cleaned:
        raise InvalidComplexError("empty facet list; pass [()] for the empty complex")
    top = max((max(f) for f in cleaned if f), default=0)
    if n is None:
        n = top
    if top > n:
        raise InvalidComplexError("vertex %d exceeds n=%d" % (top, n))
    if any(min(f) < 1 for f in cleaned if f):
        raise InvalidComplexError("vertex labels must be >= 1")
    if n > MAX_VERTICES:
        raise InvalidComplexError("n=%d exceeds the supported limit %d" % (n, MAX_VERTICES))

    covered = set(v for f in cleaned for v in f)
    missing = [v for v in range(1, n + 1) if v not in covered]
    if missing and not (len(cleaned) == 1 and cleaned[0] == () and n == 0):
        if not shrink:
            raise InvalidComplexError(
                "vertices %r appear in no facet (pass shrink=True to drop them)" % (missing[:5],)
            )
        relabel = {v: i + 1 for i, v in enumerate(sorted(covered))}
        cleaned = [tuple(relabel[v] for v in f) for f in cleaned]
        n = len(covered)

    keep = sorted(verts_of(m) for m in _maximal(mask_of(f) for f in cleaned))
    return SimplicialComplex(n=n, facets=tuple(keep))


def _maximal(masks) -> list[int]:
    """The inclusion-maximal members of a family of vertex masks, each once.

    Masks are visited largest first, so anything containing a mask is
    already kept when that mask is reached."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & k == m for k in kept):
            kept.append(m)
    return kept


def empty_complex() -> SimplicialComplex:
    """The complex {()} with no vertices."""
    return SimplicialComplex(n=0, facets=((),))


def f_vector(delta: SimplicialComplex) -> tuple[int, ...]:
    """(f_{-1}, f_0, ..., f_{dim}) by exact enumeration of the closure."""
    return tuple(len(b) for b in delta.faces_by_card)


def f_to_h(f: tuple[int, ...], d: int) -> tuple[int, ...]:
    """h_i = sum_j (-1)^(i-j) C(d-j, i-j) f_{j-1}, exact integers."""
    if len(f) > d + 1:
        raise ValueError("f-vector longer than d+1 entries")
    fx = tuple(f) + (0,) * (d + 1 - len(f))
    return tuple(
        sum((-1) ** (i - j) * comb(d - j, i - j) * fx[j] for j in range(i + 1))
        for i in range(d + 1)
    )


def h_to_f(h: tuple[int, ...], d: int) -> tuple[int, ...]:
    """Inverse transform; round-trips with f_to_h."""
    if len(h) > d + 1:
        raise ValueError("h-vector longer than d+1 entries")
    hx = tuple(h) + (0,) * (d + 1 - len(h))
    return tuple(
        sum(comb(d - j, i - j) * hx[j] for j in range(i + 1)) for i in range(d + 1)
    )


def h_vector(delta: SimplicialComplex, d: int | None = None) -> tuple[int, ...]:
    """h-vector with respect to d = dim + 1 unless overridden."""
    if d is None:
        d = delta.dim + 1
    return f_to_h(f_vector(delta), d)


def _restrict(masks, keep_vertices: tuple[int, ...]) -> SimplicialComplex:
    """Re-maximalize a face family and relabel it onto 1..m (order preserving)."""
    relabel = {v: i + 1 for i, v in enumerate(keep_vertices)}
    keep = sorted(tuple(relabel[v] for v in verts_of(m)) for m in _maximal(masks))
    return SimplicialComplex(n=len(keep_vertices), facets=tuple(keep or [()]))


def link(delta: SimplicialComplex, face) -> SimplicialComplex:
    """lk(F) = {G : F in Delta, G disjoint from F, F union G in Delta}.

    Vertices are renumbered order-preservingly onto 1..m; use
    link_with_labels for the correspondence.
    """
    return link_with_labels(delta, face)[0]


def link_with_labels(delta: SimplicialComplex, face) -> tuple[SimplicialComplex, tuple[int, ...]]:
    fm = mask_of(face)
    if fm not in delta.face_masks:
        raise NotAFaceError("not a face: %r" % (tuple(face),))
    tops = [gm & ~fm for gm in delta.facet_masks if (gm & fm) == fm]
    vertices = sorted(set(v for m in tops for v in verts_of(m)))
    return _restrict(tops, tuple(vertices)), tuple(vertices)


def validate_coloring(delta: SimplicialComplex, coloring) -> dict:
    """Report {proper, violations, colors_used, balanced} for a coloring.

    Properness is equivalent to injectivity on every facet, which in turn
    reduces to the edges.  Accepts a Coloring or any color sequence.
    """
    if not isinstance(coloring, Coloring):
        coloring = Coloring(tuple(int(c) for c in coloring))
    if coloring.n != delta.n:
        raise InvalidComplexError("coloring length %d != n %d" % (coloring.n, delta.n))
    violations = []
    for em in delta.faces_by_card[2] if delta.dim >= 1 else ():
        u, v = verts_of(em)
        if coloring.of(u) == coloring.of(v):
            violations.append((u, v))
    used = len(set(coloring.colors)) if coloring.colors else 0
    proper = not violations
    return {
        "proper": proper,
        "violations": violations,
        "colors_used": used,
        "balanced": proper and coloring.palette == delta.dim + 1,
    }


def colored(delta: SimplicialComplex, colors, labels=()) -> ColoredComplex:
    return ColoredComplex(complex=delta, coloring=Coloring(tuple(int(c) for c in colors)),
                          color_labels=tuple(labels))


def rank_select(gamma: ColoredComplex, t_colors) -> ColoredComplex:
    """Subcomplex of faces whose colors lie in T, palette relabeled to 1..#T.

    The original color names are kept in color_labels, order preserved.
    The check battery reads h-vectors of rank selections from
    ColoredComplex.selection_h and does not call this; the Lefschetz
    certificates need the subcomplex itself.
    """
    tset = frozenset(int(c) for c in t_colors)
    unknown = tset - set(range(1, gamma.palette + 1))
    if unknown:
        raise ValueError("colors %r outside palette 1..%d" % (sorted(unknown), gamma.palette))
    order = sorted(tset)
    color_pos = {c: i + 1 for i, c in enumerate(order)}
    keep_vertices = tuple(v for v in range(1, gamma.n + 1) if gamma.coloring.of(v) in tset)
    if not keep_vertices:
        return ColoredComplex(complex=empty_complex(), coloring=Coloring(()), color_labels=tuple(order))
    keep_mask = mask_of(keep_vertices)
    # the facets of the selection are the maximal traces of facets on V_T
    sub = _restrict({fm & keep_mask for fm in gamma.complex.facet_masks}, keep_vertices)
    new_colors = tuple(color_pos[gamma.coloring.of(v)] for v in keep_vertices)
    labels = tuple(gamma.color_labels[c - 1] for c in order) if gamma.color_labels else tuple(order)
    return ColoredComplex(complex=sub, coloring=Coloring(new_colors), color_labels=labels)


def colored_link(gamma: ColoredComplex, face) -> tuple[ColoredComplex, tuple[int, ...]]:
    """Link with inherited coloring, palette relabeled to consecutive colors.

    Returns (link, original vertex labels).  The label map records which
    original vertices survive; color_labels records the surviving colors.
    """
    lk, old = link_with_labels(gamma.complex, face)
    colors_old = [gamma.coloring.of(v) for v in old]
    # palette of the link: colors not used by the deleted face
    face_colors = gamma.coloring.color_set(face)
    remaining = [c for c in range(1, gamma.palette + 1) if c not in face_colors]
    pos = {c: i + 1 for i, c in enumerate(remaining)}
    new_colors = tuple(pos[c] for c in colors_old)
    labels = tuple(gamma.color_labels[c - 1] for c in remaining) if gamma.color_labels else tuple(remaining)
    return (
        ColoredComplex(complex=lk, coloring=Coloring(new_colors), color_labels=labels),
        old,
    )


class FlagVector:
    """Family of numbers indexed by color subsets S of 1..d."""

    def __init__(self, kind: str, d: int, values: dict):
        self.kind = kind
        self.d = d
        self._values = {frozenset(k): int(v) for k, v in values.items()}

    def __getitem__(self, s) -> int:
        return self._values.get(frozenset(s), 0)

    def items(self):
        for s in subsets(tuple(range(1, self.d + 1))):
            yield frozenset(s), self[s]

    def as_dict(self) -> dict:
        return {tuple(sorted(k)): v for k, v in self._values.items()}

    def __eq__(self, other):
        return (
            isinstance(other, FlagVector)
            and self.kind == other.kind
            and self.d == other.d
            and self._values == other._values
        )

    def __repr__(self):
        body = ", ".join("%r: %d" % (tuple(sorted(s)), v) for s, v in sorted(self.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))))
        return "FlagVector(%s, d=%d, {%s})" % (self.kind, self.d, body)


def flag_vectors(gamma: ColoredComplex, d: int | None = None) -> tuple[FlagVector, FlagVector]:
    """(flag f, flag h): f_S counts faces with color set exactly S;
    h_S = sum over T subset of S of (-1)^(#S - #T) f_T.

    The transform sums f_T over subsets T (usual inclusion-exclusion); the
    inverse f_S = sum_{T subset S} h_T round-trips.
    """
    if d is None:
        d = gamma.palette
    counts: dict[frozenset[int], int] = {}
    for m in gamma.complex.face_masks:
        s = gamma.coloring.color_set(verts_of(m))
        counts[s] = counts.get(s, 0) + 1
    all_s = subsets(tuple(range(1, d + 1)))
    fv = {frozenset(s): counts.get(frozenset(s), 0) for s in all_s}
    hv = {}
    for s in all_s:
        sset = frozenset(s)
        total = 0
        for t in subsets(tuple(sorted(sset))):
            total += (-1) ** (len(sset) - len(t)) * fv[frozenset(t)]
        hv[sset] = total
    return FlagVector("f", d, fv), FlagVector("h", d, hv)


def selection_h_vectors(gamma: ColoredComplex) -> dict[tuple[int, ...], tuple[int, ...]]:
    """h(Delta_T) w.r.t. #T for every color set T, in `subsets` order.

    f_{j-1}(Delta_T) is the number of faces whose color set is a j-subset
    of T, so one flag_vectors pass gives every selection without building
    the subcomplexes.
    """
    ff, _ = flag_vectors(gamma)
    out = {}
    for t_cols in subsets(range(1, gamma.palette + 1)):
        f = [0] * (len(t_cols) + 1)
        for s in subsets(t_cols):
            f[len(s)] += ff[s]
        out[t_cols] = f_to_h(tuple(f), len(t_cols))
    return out


def to_dict(gamma, name: str = "") -> dict:
    """JSON-ready form: {"n", "facets", "coloring"?, "name"}."""
    if isinstance(gamma, ColoredComplex):
        return {
            "n": gamma.n,
            "facets": [list(f) for f in gamma.complex.facets],
            "coloring": list(gamma.coloring.colors),
            "name": name,
        }
    return {"n": gamma.n, "facets": [list(f) for f in gamma.facets], "name": name}


def from_dict(data: dict):
    """Inverse of to_dict; returns ColoredComplex when a coloring is present."""
    if not isinstance(data, dict) or "facets" not in data:
        raise InvalidComplexError("expected an object with a facets field")
    n = data.get("n")
    delta = from_facets(data["facets"], n=n)
    colors = data.get("coloring")
    if colors is None:
        return delta
    if len(colors) != delta.n:
        raise InvalidComplexError("coloring length %d != n %d" % (len(colors), delta.n))
    return colored(delta, colors)
