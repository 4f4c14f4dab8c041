"""Simplicial homology over a field and the local acyclicity certificates.

Reduced Betti numbers come from ranks of boundary matrices; the augmentation
row at k = 0 implements reduced homology.  The sphere and acyclicity
certificates walk every link.
"""
from __future__ import annotations

import functools as ft
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .complexes import SimplicialComplex, link, verts_of
from .util import parallel_map


def _is_probable_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: exact rationals or a prime field for fast ranks."""

    kind: str = "prime"
    p: int = linalg.DEFAULT_PRIME

    def __post_init__(self):
        if self.kind not in ("prime", "rationals"):
            raise ValueError("kind must be prime or rationals")
        if self.kind == "prime":
            if not _is_probable_prime(self.p):
                raise ValueError("p=%d is not prime" % self.p)
            # ranks over F_p are exact; a large p keeps randomly drawn forms
            # generic (an lsop, a Lefschetz element) with high probability
            if self.p <= 10 ** 6:
                raise ValueError("p=%d too small; use p > 10**6" % self.p)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(kind="rationals")


DEFAULT_FIELD = FieldSpec()


def matrix_rank(mat, fld: FieldSpec) -> int:
    if fld.kind == "prime":
        return linalg.rank_mod_p(mat, fld.p)
    return linalg.rank_exact(mat)


@dataclass(frozen=True)
class BettiTable:
    """Reduced Betti numbers b~_k for k = -1 .. dim."""

    dim: int
    values: tuple[int, ...]

    def get(self, k: int) -> int:
        if k < -1 or k > self.dim:
            return 0
        return self.values[k + 1]

    def as_dict(self) -> dict:
        return {str(k): self.get(k) for k in range(-1, self.dim + 1)}


def boundary_matrix(delta: SimplicialComplex, k: int, fld: FieldSpec = DEFAULT_FIELD) -> np.ndarray:
    """Matrix of the boundary map from k-faces to (k-1)-faces.

    Rows are (k-1)-faces, columns k-faces, entries alternate +-1 by the
    position of the dropped vertex.  k = 0 gives the augmentation row (the
    empty face); k = dim + 1 gives an empty matrix.
    """
    if k < 0 or k > delta.dim + 1:
        raise ValueError("k=%d outside 0..%d" % (k, delta.dim + 1))
    cols_faces = delta.faces_by_card[k + 1] if k + 1 < len(delta.faces_by_card) else ()
    rows_faces = delta.faces_by_card[k] if k < len(delta.faces_by_card) else ()
    row_index = {m: i for i, m in enumerate(rows_faces)}
    mat = np.zeros((len(rows_faces), len(cols_faces)), dtype=np.int64)
    for j, fm in enumerate(cols_faces):
        verts = verts_of(fm)
        sign = 1
        for v in verts:
            sub = fm & ~(1 << (v - 1))
            mat[row_index[sub], j] = sign
            sign = -sign
    if fld.kind == "prime":
        return mat % fld.p
    return mat


def reduced_betti(delta: SimplicialComplex, fld: FieldSpec = DEFAULT_FIELD) -> BettiTable:
    """b~_k = nullity(boundary_k) - rank(boundary_{k+1}), k = -1 .. dim."""
    d = delta.dim
    ranks = []
    for k in range(0, d + 2):
        mat = boundary_matrix(delta, k, fld)
        ranks.append(matrix_rank(mat, fld))
    counts = [len(b) for b in delta.faces_by_card]
    values = []
    # k = -1: the empty-face chain group is 1-dimensional
    values.append(1 - ranks[0])
    for k in range(0, d + 1):
        nullity = counts[k + 1] - ranks[k]
        incoming = ranks[k + 1] if k + 1 <= d else 0
        values.append(nullity - incoming)
    return BettiTable(dim=d, values=tuple(values))


_BETTI_CACHE: dict[tuple, tuple[int, ...]] = {}


def _betti_cached(delta: SimplicialComplex, fld: FieldSpec) -> BettiTable:
    key = (delta.n, delta.facets, fld.kind, fld.p)
    hit = _BETTI_CACHE.get(key)
    if hit is None:
        hit = reduced_betti(delta, fld).values
        _BETTI_CACHE[key] = hit
    return BettiTable(dim=delta.dim, values=hit)


def _sphere_profile(dim: int) -> dict:
    return {str(k): (1 if k == dim else 0) for k in range(-1, dim + 1)}


@dataclass(frozen=True)
class HomologyCertificate:
    """Outcome of a link-by-link homology scan."""

    check: str
    ok: bool
    dim: int
    faces_checked: int
    first_failure: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "check": self.check,
            "ok": self.ok,
            "dim": self.dim,
            "faces_checked": self.faces_checked,
        }
        if self.first_failure is not None:
            out["first_failure"] = self.first_failure
        return out


@ft.lru_cache(maxsize=1)
def _link_bettis(delta: SimplicialComplex,
                 fld: FieldSpec) -> tuple[tuple[tuple[int, ...], BettiTable], ...]:
    """(face, reduced Betti table of its link) for every face, smallest
    first, the empty face included.

    Both certificates read this scan; caching the last complex lets a run
    that checks both build each link once."""
    faces = [verts_of(m) for bucket in delta.faces_by_card for m in bucket]
    tables = parallel_map(lambda face: _betti_cached(link(delta, face), fld), faces)
    return tuple(zip(faces, tables))


def is_gorenstein_star(delta: SimplicialComplex, fld: FieldSpec = DEFAULT_FIELD) -> HomologyCertificate:
    """Certify that every link has the reduced homology of a sphere of its
    complementary dimension: for each face F, b~_k(lk F) = 1 at
    k = dim - #F and 0 elsewhere.

    The empty face is included, so the complex itself must be a homology
    sphere.  Scans faces smallest first and reports the first failure.
    """
    d = delta.dim
    scan = _link_bettis(delta, fld)
    for face, table in scan:
        want_dim = d - len(face)
        for k in range(-1, max(table.dim, want_dim) + 1):
            want = 1 if k == want_dim else 0
            if table.get(k) != want:
                return HomologyCertificate("gorenstein_star", False, d, len(scan), {
                    "face": list(face),
                    "betti": table.as_dict(),
                    "expected": _sphere_profile(want_dim),
                })
    return HomologyCertificate("gorenstein_star", True, d, len(scan))


def is_cohen_macaulay(delta: SimplicialComplex, fld: FieldSpec = DEFAULT_FIELD) -> HomologyCertificate:
    """Certify b~_i(lk F) = 0 for every face F and every i < dim(lk F)."""
    scan = _link_bettis(delta, fld)
    for face, table in scan:
        for k in range(-1, table.dim):
            if table.get(k) != 0:
                return HomologyCertificate("cohen_macaulay", False, delta.dim, len(scan), {
                    "face": list(face),
                    "betti": table.as_dict(),
                    "expected": {"below": table.dim},
                })
    return HomologyCertificate("cohen_macaulay", True, delta.dim, len(scan))
