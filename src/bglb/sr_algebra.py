"""Face rings: graded monomial bases, linear systems of parameters, Artinian
quotient dimensions, a multigraded series cross-check, and injectivity
certificates for multiplication by powers of a linear form.

Monomials are exponent tuples over the vertices; a monomial belongs to the
face ring iff its support is a face.  When the quotient includes the full
color-class form of a color c, every square x_v^2 with kappa(v) = c lies in
the ideal (x_v * theta_c = x_v^2, since same-colored vertices never span an
edge), so those computations may run in the smaller basis of monomials that
are squarefree in the colors being quotiented; both models give the same
quotient dimensions and the small-instance tests cross-check this.
"""
from __future__ import annotations

import logging
import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from .complexes import ColoredComplex, SimplicialComplex, flag_vectors, verts_of
from .homology import DEFAULT_FIELD, FieldSpec, matrix_rank
from .util import subsets, weak_compositions

log = logging.getLogger("bglb.sr_algebra")


class GenericityError(RuntimeError):
    """Repeated random draws failed to produce a parameter system."""


def _split(obj) -> tuple[SimplicialComplex, ColoredComplex | None]:
    if isinstance(obj, ColoredComplex):
        return obj.complex, obj
    return obj, None


class GradedBasis:
    """Monomials of one degree with support in the complex, indexed.

    Ordered degree-lexicographically (within the fixed degree, descending
    lex on exponent tuples).  squarefree_colors restricts vertices of those
    colors to exponent at most one.
    """

    def __init__(self, degree: int, n: int, monomials: list[tuple[int, ...]],
                 squarefree_colors: frozenset[int] = frozenset()):
        self.degree = degree
        self.n = n
        self.monomials = tuple(sorted(monomials, reverse=True))
        self.squarefree_colors = squarefree_colors
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.supports = tuple(
            sum(1 << (v - 1) for v in range(1, n + 1) if m[v - 1]) for m in self.monomials
        )

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)


_BASIS_CACHE: dict[tuple, GradedBasis] = {}


def monomial_basis(obj, k: int, squarefree_colors=frozenset()) -> GradedBasis:
    """Degree-k monomial basis of the face ring.

    The count equals sum over faces F of C(k-1, #F-1) when no squarefree
    restriction applies.  Squarefree colors require a colored complex.
    """
    delta, gamma = _split(obj)
    sf = frozenset(squarefree_colors)
    if sf and gamma is None:
        raise ValueError("squarefree colors need a colored complex")
    if k < 0:
        raise ValueError("degree must be >= 0")
    key = (delta.n, delta.facets, gamma.coloring.colors if gamma else None, k, sf)
    hit = _BASIS_CACHE.get(key)
    if hit is not None:
        return hit

    n = delta.n
    monos: list[tuple[int, ...]] = []
    if k == 0:
        monos.append((0,) * n)
    else:
        for card in range(1, min(k, delta.dim + 1) + 1):
            for fm in delta.faces_by_card[card]:
                verts = verts_of(fm)
                free = [v for v in verts if not (sf and gamma.coloring.of(v) in sf)]
                extra = k - card
                if extra and not free:
                    continue
                base = [0] * n
                for v in verts:
                    base[v - 1] = 1
                if extra == 0:
                    monos.append(tuple(base))
                    continue
                for comp in weak_compositions(extra, len(free)):
                    exps = base[:]
                    for v, e in zip(free, comp):
                        exps[v - 1] += e
                    monos.append(tuple(exps))
    out = GradedBasis(k, n, monos, sf)
    _BASIS_CACHE[key] = out
    return out


@dataclass(frozen=True)
class LinearForm:
    """Degree-one element sum of coeff * x_v, coefficients exact integers.

    colored_class marks a form known to be the full sum of one color class;
    only such forms enable the squarefree reduction.
    """

    coeffs: tuple[tuple[int, int], ...]
    colored_class: int | None = None

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.coeffs)

    def as_dict(self) -> dict:
        return {
            "coeffs": {str(v): c for v, c in self.coeffs},
            "colored_class": self.colored_class,
        }


def colored_lsop(gamma: ColoredComplex, colors=None) -> list[LinearForm]:
    """One form per color: the sum of the variables in that class."""
    chosen = sorted(colors) if colors is not None else range(1, gamma.palette + 1)
    forms = []
    for c in chosen:
        cls = gamma.coloring.class_of(c)
        if not cls:
            raise ValueError("color %d has no vertices" % c)
        forms.append(LinearForm(tuple((v, 1) for v in cls), colored_class=c))
    return forms


def random_forms(gamma: ColoredComplex, allowed_colors, count: int, fld: FieldSpec = DEFAULT_FIELD,
                 seed: int = 0) -> list[LinearForm]:
    """Draw forms with independent uniform nonzero coefficients on the
    vertices whose color lies in allowed_colors.  Deterministic per seed."""
    allowed = frozenset(allowed_colors)
    verts = [v for v in range(1, gamma.n + 1) if gamma.coloring.of(v) in allowed]
    if not verts and count > 0:
        raise ValueError("no vertices in colors %r" % (sorted(allowed),))
    rng = random.Random(seed)
    hi = fld.p if fld.kind == "prime" else 1009
    out = []
    for _ in range(count):
        out.append(LinearForm(tuple((v, rng.randrange(1, hi)) for v in verts)))
    return out


def _multiply_index_maps(basis_from: GradedBasis, basis_to: GradedBasis, obj):
    """For each vertex v, the (src, dst) index pairs of m -> x_v * m."""
    delta, gamma = _split(obj)
    sf = basis_from.squarefree_colors
    face_masks = delta.face_masks
    maps = {}
    for v in range(1, delta.n + 1):
        bit = 1 << (v - 1)
        sf_v = bool(sf) and gamma is not None and gamma.coloring.of(v) in sf
        src, dst = [], []
        for i, m in enumerate(basis_from.monomials):
            if sf_v and m[v - 1]:
                continue
            if (basis_from.supports[i] | bit) not in face_masks:
                continue
            m2 = m[: v - 1] + (m[v - 1] + 1,) + m[v:]
            j = basis_to.index.get(m2)
            if j is None:
                continue
            src.append(i)
            dst.append(j)
        maps[v] = (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp))
    return maps


def ideal_piece(obj, forms, k: int, fld: FieldSpec = DEFAULT_FIELD,
                squarefree_colors=frozenset()) -> np.ndarray:
    """Matrix whose columns are theta_j * m over the degree-(k-1) basis,
    expanded in the degree-k basis.  k = 0 gives an empty matrix."""
    delta, _ = _split(obj)
    basis_k = monomial_basis(obj, k, squarefree_colors)
    if k == 0:
        return np.zeros((len(basis_k), 0), dtype=np.int64)
    basis_km1 = monomial_basis(obj, k - 1, squarefree_colors)
    maps = _multiply_index_maps(basis_km1, basis_k, obj)
    rows = len(basis_k)
    cols = len(forms) * len(basis_km1)
    mat = np.zeros((rows, cols), dtype=np.int64)
    p = fld.p if fld.kind == "prime" else None
    for j, form in enumerate(forms):
        off = j * len(basis_km1)
        for v, c in form.coeffs:
            src, dst = maps[v]
            if not src.size:
                continue
            np.add.at(mat, (dst, off + src), c)
    if p is not None:
        mat %= p
    return mat


def quotient_hilbert(obj, forms, up_to: int, fld: FieldSpec = DEFAULT_FIELD,
                     use_squarefree: bool = True) -> tuple[int, ...]:
    """Dimensions of (face ring / (forms)) in degrees 0..up_to.

    The ring is generated in degree one, so a zero entry forces all later
    entries to zero; computation stops there.  With a colored complex the
    colors of any full-class forms are quotiented in the squarefree model.
    """
    delta, gamma = _split(obj)
    sf = frozenset()
    if use_squarefree and gamma is not None:
        sf = frozenset(f.colored_class for f in forms if f.colored_class is not None)
    dims: list[int] = []
    for k in range(up_to + 1):
        basis_k = monomial_basis(obj, k, sf)
        if len(basis_k) == 0:
            dims.append(0)
        else:
            mat = ideal_piece(obj, forms, k, fld, sf)
            r = matrix_rank(mat, fld)
            dims.append(len(basis_k) - r)
        if dims[-1] == 0:
            dims.extend([0] * (up_to - k))
            break
    return tuple(dims)


@dataclass(frozen=True)
class LsopVerdict:
    ok: bool
    dims: tuple[int, ...]
    reason: str = ""


def verify_lsop(obj, forms, fld: FieldSpec = DEFAULT_FIELD) -> LsopVerdict:
    """A parameter system must make the quotient vanish by degree dim+2.

    Fewer forms than the Krull dimension can never work, and is reported
    without computing."""
    delta, _ = _split(obj)
    need = delta.dim + 1
    if len(forms) < need:
        return LsopVerdict(False, (), "%d forms cannot cut Krull dimension %d" % (len(forms), need))
    dims = quotient_hilbert(obj, forms, delta.dim + 2, fld)
    ok = any(v == 0 for v in dims)
    return LsopVerdict(ok, dims, "" if ok else "quotient still positive at degree %d" % (delta.dim + 2))


def draw_verified_lsop(gamma: ColoredComplex, seed: int, fld: FieldSpec = DEFAULT_FIELD,
                       attempts: int = 5) -> tuple[list[LinearForm], int, LsopVerdict]:
    """Generic draw with automatic redraws; returns (forms, seed used,
    verdict).  The verdict carries the quotient dimensions already
    computed, so callers need not recompute them.  Each failed draw is
    logged with its seed before the next attempt."""
    for a in range(attempts):
        sub = seed * 1000003 + a
        forms = random_forms(gamma, range(1, gamma.palette + 1), gamma.dim + 1, fld, sub)
        verdict = verify_lsop(gamma, forms, fld)
        if verdict.ok:
            return forms, sub, verdict
        log.warning("generic draw with seed %d is not an lsop, redrawing", sub)
    raise GenericityError("no lsop found after %d draws from seed %d" % (attempts, seed))


@dataclass(frozen=True)
class SeriesCheck:
    ok: bool
    coefficients_checked: int
    first_mismatch: dict | None = None


def multigraded_series_check(gamma: ColoredComplex, truncation: int) -> SeriesCheck:
    """Compare color-refined Hilbert function against its rational form.

    Left side: count monomials by color degree (the multidegree that adds
    exponents within each color class).  Right side: coefficient of t^a in
    (sum_S h_S prod_{i in S} t_i) / prod_i (1 - t_i), which expands to the
    sum of h_S over subsets S of the support of a.  Checked for every a
    with |a| <= truncation."""
    d = gamma.palette
    delta = gamma.complex
    counts: dict[tuple[int, ...], int] = {}
    zero = (0,) * d
    counts[zero] = 1
    for card in range(1, delta.dim + 2):
        for fm in delta.faces_by_card[card]:
            verts = verts_of(fm)
            cols = [gamma.coloring.of(v) for v in verts]
            for total in range(card, truncation + 1):
                for comp in weak_compositions(total - card, card):
                    a = [0] * d
                    for c, e in zip(cols, comp):
                        a[c - 1] = 1 + e
                    key = tuple(a)
                    counts[key] = counts.get(key, 0) + 1
    _, fh = flag_vectors(gamma)
    checked = 0
    for total in range(truncation + 1):
        for a in weak_compositions(total, d):
            supp = tuple(i + 1 for i in range(d) if a[i])
            coeff = 0
            for s in subsets(supp):
                coeff += fh[s]
            got = counts.get(a, 0)
            checked += 1
            if got != coeff:
                return SeriesCheck(False, checked, {
                    "multidegree": list(a),
                    "monomial_count": got,
                    "series_coefficient": coeff,
                })
    return SeriesCheck(True, checked)


def _power_image(obj, omega: LinearForm, from_deg: int, to_deg: int,
                 fld: FieldSpec) -> np.ndarray:
    """Columns: omega^(to-from) * m for m in the degree-from basis, reduced
    against non-face supports at every step.

    Over the rationals nothing is reduced, so entries grow with the power;
    they are accumulated as Python integers (object dtype) to stay exact."""
    p = fld.p if fld.kind == "prime" else None
    dtype = np.int64 if p is not None else object
    basis = monomial_basis(obj, from_deg)
    block = np.eye(len(basis), dtype=dtype)
    for j in range(from_deg, to_deg):
        lo = monomial_basis(obj, j)
        hi = monomial_basis(obj, j + 1)
        maps = _multiply_index_maps(lo, hi, obj)
        nxt = np.zeros((len(hi), block.shape[1]), dtype=dtype)
        for v, c in omega.coeffs:
            src, dst = maps[v]
            if not src.size:
                continue
            contrib = c * block[src]
            if p is not None:
                contrib %= p
            np.add.at(nxt, dst, contrib)
        if p is not None:
            nxt %= p
        block = nxt
    return block


@dataclass(frozen=True)
class LefschetzCertificate:
    """Rank certificate for multiplication by a power of a form.

    ranks = (rank ideal at low degree, rank ideal at high degree,
    rank of [image | ideal at high degree], dim of the low graded piece);
    the map on the quotient is injective iff ranks[2] - ranks[1]
    == ranks[3] - ranks[0]."""

    low_degree: int
    high_degree: int
    ranks: tuple[int, int, int, int]
    injective: bool
    field_p: int | None
    seed: int | None = None

    def as_dict(self) -> dict:
        return {
            "low_degree": self.low_degree,
            "high_degree": self.high_degree,
            "ranks": list(self.ranks),
            "injective": self.injective,
            "field_p": self.field_p,
            "seed": self.seed,
        }


def multiplication_injective(obj, forms, omega: LinearForm, from_deg: int, to_deg: int,
                             fld: FieldSpec = DEFAULT_FIELD,
                             seed: int | None = None) -> LefschetzCertificate:
    """Decide injectivity of multiplication by omega^(to-from) from the
    degree-from piece to the degree-to piece of the quotient by `forms`."""
    delta, _ = _split(obj)
    if from_deg < 0 or to_deg < from_deg:
        raise ValueError("degrees out of range: %d..%d" % (from_deg, to_deg))
    for f in list(forms) + [omega]:
        for v, _c in f.coeffs:
            if not 1 <= v <= delta.n:
                raise ValueError("form mentions vertex %d outside 1..%d" % (v, delta.n))
    p = fld.p if fld.kind == "prime" else None
    low = ideal_piece(obj, forms, from_deg, fld)
    dim_low = low.shape[0]
    r_low = matrix_rank(low, fld)
    high = ideal_piece(obj, forms, to_deg, fld)
    image = _power_image(obj, omega, from_deg, to_deg, fld)
    if fld.kind == "prime":
        r_high, r_aug = linalg.rank_and_extension_mod_p(high, image, fld.p)
    else:
        r_high = linalg.rank_exact(high)
        r_aug = linalg.rank_exact(np.concatenate([high, image], axis=1))
    injective = (r_aug - r_high) == (dim_low - r_low)
    return LefschetzCertificate(
        low_degree=from_deg,
        high_degree=to_deg,
        ranks=(r_low, r_high, r_aug, dim_low),
        injective=injective,
        field_p=p,
        seed=seed,
    )


def lefschetz_injective(gamma_t, forms, omega: LinearForm, i: int,
                        fld: FieldSpec = DEFAULT_FIELD, seed: int | None = None) -> LefschetzCertificate:
    """Injectivity of omega^(t-2i) from degree i to degree t-i of the
    Artinian quotient, t the palette size of the selected complex."""
    delta, gamma = _split(gamma_t)
    t = gamma.palette if gamma is not None else delta.dim + 1
    if i < 0 or 2 * i > t:
        raise ValueError("i=%d outside 0..%d/2" % (i, t))
    return multiplication_injective(gamma_t, forms, omega, i, t - i, fld, seed=seed)


def graded_dimension(obj, k: int) -> int:
    """Dimension of the degree-k piece of the face ring, by counting
    compositions per face; no basis is materialized."""
    from math import comb

    delta, _ = _split(obj)
    if k == 0:
        return 1
    return sum(
        len(delta.faces_by_card[c]) * comb(k - 1, c - 1) for c in range(1, delta.dim + 2)
    )
