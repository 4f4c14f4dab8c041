"""Instance generators: cross-polytope boundaries, facet connected sums,
barycentric subdivisions, suspensions, and a small family-spec dispatcher."""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

from .complexes import (
    ColoredComplex,
    Coloring,
    SimplicialComplex,
    colored,
    from_facets,
)

MAX_CROSS_DIM = 10


def cross_polytope(d: int) -> ColoredComplex:
    """Boundary complex of the d-dimensional cross-polytope.

    Vertices 2i-1 and 2i form the antipodal pair of color i; facets are the
    2^d transversals picking one vertex from each pair.
    """
    if not 1 <= d <= MAX_CROSS_DIM:
        raise ValueError("d out of supported range 1..%d" % MAX_CROSS_DIM)
    facets = []
    for choice in product((0, 1), repeat=d):
        facets.append(tuple(2 * i + 1 + c for i, c in enumerate(choice)))
    delta = from_facets(facets, n=2 * d)
    colors = tuple((v + 1) // 2 for v in range(1, 2 * d + 1))
    return colored(delta, colors)


def stacked_cross_polytope(d: int, m: int, seed: int | None = None) -> ColoredComplex:
    """Connected sum of m copies of cross_polytope(d) along facets.

    Each step glues a fresh copy to the current sphere along a shared facet,
    matching vertices color by color, and removes the shared facet.  The
    glued facet is the lexicographically smallest one unless a seed is given,
    in which case a seeded RNG picks it.  Labels of the older sphere are
    kept; fresh vertices take the next unused integers.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    base = cross_polytope(d)
    if m == 1:
        return base
    rng = random.Random(seed) if seed is not None else None
    facets = [tuple(f) for f in base.complex.facets]
    colors = list(base.coloring.colors)
    next_label = 2 * d + 1
    for _ in range(m - 1):
        facets.sort()
        pick = rng.randrange(len(facets)) if rng is not None else 0
        shared = facets.pop(pick)
        by_color = {colors[v - 1]: v for v in shared}
        # fresh copy: its own lex-smallest facet is the all-odd transversal
        relabel = {}
        for i in range(1, d + 1):
            relabel[2 * i - 1] = by_color[i]
            relabel[2 * i] = next_label
            colors.append(i)
            next_label += 1
        fresh = cross_polytope(d)
        for f in fresh.complex.facets:
            g = tuple(sorted(relabel[v] for v in f))
            if g == shared:
                continue
            facets.append(g)
    delta = from_facets(facets, n=next_label - 1)
    return colored(delta, tuple(colors))


def simplex_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex: all d-subsets of {1..d+1}.

    Not balanced for d >= 2; used as a base for barycentric subdivision.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return from_facets(list(combinations(range(1, d + 2), d)), n=d + 1)


def barycentric_subdivision(delta: SimplicialComplex) -> ColoredComplex:
    """Order complex of the nonempty faces, colored by cardinality.

    Vertices of the subdivision are the nonempty faces of delta ordered by
    (size, lex); facets are the maximal chains.  Always balanced.
    """
    faces = [f for f in delta.faces() if f]
    if not faces:
        raise ValueError("complex has no nonempty faces")
    faces.sort(key=lambda f: (len(f), f))
    face_id = {f: i + 1 for i, f in enumerate(faces)}
    colors = tuple(len(f) for f in faces)
    chains = set()
    for facet in delta.facets:
        for order in permutations(facet):
            chain = []
            prefix: tuple[int, ...] = ()
            for v in order:
                prefix = tuple(sorted(prefix + (v,)))
                chain.append(face_id[prefix])
            chains.add(tuple(sorted(chain)))
    sub = from_facets(sorted(chains), n=len(faces))
    return colored(sub, colors)


def suspension(gamma: ColoredComplex) -> ColoredComplex:
    """Join with two new apex vertices sharing one new color.

    The apexes get labels n+1, n+2 and color palette+1; every facet F becomes
    F+{n+1} and F+{n+2}.
    """
    n = gamma.n
    new_color = gamma.palette + 1
    facets = []
    for f in gamma.complex.facets:
        facets.append(tuple(sorted(f + (n + 1,))))
        facets.append(tuple(sorted(f + (n + 2,))))
    delta = from_facets(facets, n=n + 2)
    colors = gamma.coloring.colors + (new_color, new_color)
    labels = gamma.color_labels + (new_color,)
    return ColoredComplex(complex=delta, coloring=Coloring(colors), color_labels=labels)


@dataclass(frozen=True)
class FamilySpec:
    """Declarative description of a generated instance."""

    family: str
    dim: int | None = None
    count: int | None = None
    seed: int | None = None
    base: "FamilySpec | None" = None
    path: str | None = None

    @staticmethod
    def from_dict(data: dict) -> "FamilySpec":
        if not isinstance(data, dict) or "family" not in data:
            raise ValueError("family spec must be an object with a family field")
        base = data.get("base")
        return FamilySpec(
            family=str(data["family"]),
            dim=data.get("dim"),
            count=data.get("count"),
            seed=data.get("seed"),
            base=FamilySpec.from_dict(base) if base is not None else None,
            path=data.get("path"),
        )

    def to_dict(self) -> dict:
        out: dict = {"family": self.family}
        if self.dim is not None:
            out["dim"] = self.dim
        if self.count is not None:
            out["count"] = self.count
        if self.seed is not None:
            out["seed"] = self.seed
        if self.base is not None:
            out["base"] = self.base.to_dict()
        if self.path is not None:
            out["path"] = self.path
        return out


def _build_raw(spec: FamilySpec):
    """Build possibly-uncolored material for use as a base complex."""
    if spec.family == "simplex":
        if spec.dim is None:
            raise ValueError("simplex family needs dim")
        return simplex_boundary(spec.dim)
    return build(spec)


def build(spec: FamilySpec) -> ColoredComplex:
    """Dispatch a FamilySpec to the matching generator."""
    fam = spec.family
    if fam == "cross":
        if spec.dim is None:
            raise ValueError("cross family needs dim")
        return cross_polytope(spec.dim)
    if fam == "stacked_cross":
        if spec.dim is None:
            raise ValueError("stacked_cross family needs dim")
        return stacked_cross_polytope(spec.dim, spec.count or 1, spec.seed)
    if fam == "barycentric":
        if spec.base is None:
            raise ValueError("barycentric family needs a base spec")
        base = _build_raw(spec.base)
        delta = base.complex if isinstance(base, ColoredComplex) else base
        return barycentric_subdivision(delta)
    if fam == "suspension":
        if spec.base is None:
            raise ValueError("suspension family needs a base spec")
        base = build(spec.base)
        return suspension(base)
    if fam == "simplex":
        raise ValueError("simplex boundary is not balanced; use it as a barycentric base")
    raise ValueError("unknown family %r" % (fam,))


def default_suite_specs() -> list[tuple[str, FamilySpec]]:
    """Names and build recipes of the standard instance battery."""
    out: list[tuple[str, FamilySpec]] = []
    for d in range(2, 8):
        out.append(("cross_d%d" % d, FamilySpec("cross", dim=d)))
    for d in (4, 5, 6):
        for m in (2, 3):
            out.append(("stacked_d%d_m%d" % (d, m), FamilySpec("stacked_cross", dim=d, count=m, seed=1)))
    for d in (2, 3, 4):
        sd = FamilySpec("barycentric", base=FamilySpec("simplex", dim=d))
        out.append(("sd_simplex_d%d" % d, sd))
        out.append(("susp_sd_simplex_d%d" % d, FamilySpec("suspension", base=sd)))
    return out


def default_suite() -> list[tuple[str, ColoredComplex]]:
    """The standard instance battery used by the verifier."""
    return [(name, build(spec)) for name, spec in default_suite_specs()]
