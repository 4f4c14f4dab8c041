"""Balanced g-numbers and the exact combinatorial check battery.

Everything here is integer arithmetic on h-vectors of the complex, its
rank selections, and its vertex links.  The selection and link h-vectors
come from the per-instance tables ColoredComplex.selection_h (one pass
over face color sets) and ColoredComplex.link_h (one link per vertex),
so no check rebuilds a subcomplex.  Checks return CheckResult records;
a failing check always carries a witness with the numbers that broke it.
Hypothesis gating (only claim what holds under a certified hypothesis)
lives in the report layer, not here: these functions evaluate their
identity or inequality unconditionally.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .complexes import ColoredComplex, InvalidComplexError, flag_vectors, h_vector
from .util import subsets

_STATUSES = ("pass", "fail", "skipped")


@dataclass(frozen=True)
class CheckResult:
    check: str
    instance: str = ""
    params: dict = field(default_factory=dict)
    status: str = "pass"
    witness: dict | None = None
    details: dict | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError("status must be one of %s" % (_STATUSES,))
        if self.status == "fail" and self.witness is None:
            raise ValueError("a failing check needs a witness")

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "instance": self.instance,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
            "details": self.details,
        }


def g_bar_at(h, d: int, i: int) -> int:
    """i*h_i - (d-i+1)*h_{i-1}, entries beyond the given h read as zero.

    Valid for 0 <= i <= d+1; i = 0 is 0 by convention (the formula would
    reach h_{-1})."""
    if i == 0:
        return 0
    if not 0 < i <= d + 1:
        raise ValueError("index %d outside 0..%d" % (i, d + 1))
    hi = h[i] if i < len(h) else 0
    him1 = h[i - 1] if i - 1 < len(h) else 0
    return i * hi - (d - i + 1) * him1


@dataclass(frozen=True)
class BalancedGVector:
    """g_0..g_d for palette size d, with the h-vector they came from."""

    d: int
    entries: tuple[int, ...]
    h: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __len__(self) -> int:
        return len(self.entries)

    def as_dict(self) -> dict:
        return {"d": self.d, "entries": list(self.entries)}


def balanced_g(h, d: int | None = None) -> BalancedGVector:
    """Balanced g-numbers of an h-vector for palette size d.

    h may have fewer than d+1 entries (missing ones read as zero) but not
    more."""
    h = tuple(int(x) for x in h)
    if d is None:
        d = len(h) - 1
    if len(h) > d + 1:
        raise ValueError("h has %d entries, palette %d allows %d" % (len(h), d, d + 1))
    padded = h + (0,) * (d + 1 - len(h))
    entries = tuple(g_bar_at(padded, d, i) for i in range(d + 1))
    return BalancedGVector(d, entries, padded)


def _h_of(obj, d: int | None = None):
    if isinstance(obj, ColoredComplex):
        return h_vector(obj.complex, obj.palette), obj.palette
    if d is None:
        raise ValueError("a raw h-vector needs an explicit palette size")
    return tuple(int(x) for x in obj), d


def verify_nonnegativity(obj, d: int | None = None, instance: str = "") -> CheckResult:
    """g_i >= 0 for 1 <= i <= floor(d/2).  Accepts a colored complex or a
    raw h-vector with explicit d."""
    h, d = _h_of(obj, d)
    g = balanced_g(h, d)
    details = {"g": list(g.entries), "h": list(g.h)}
    for i in range(1, d // 2 + 1):
        if g[i] < 0:
            return CheckResult("bglb", instance, {}, "fail",
                               {"i": i, "g_i": g[i]}, details)
    return CheckResult("bglb", instance, {}, "pass", None, details)


def verify_rank_selected(gamma: ColoredComplex, instance: str = "") -> list[CheckResult]:
    """Per color subset T: h of the selected subcomplex is symmetric-
    bounded (h_i <= h_{#T-i} for i <= #T/2) and nondecreasing up to the
    middle (h_0 <= ... <= h_{floor((#T+1)/2)})."""
    out = []
    for t_cols, ht in gamma.selection_h.items():
        t = len(t_cols)
        params = {"T": list(t_cols)}
        details = {"h": list(ht)}
        bad = None
        for i in range(0, t // 2 + 1):
            if ht[i] > ht[t - i]:
                bad = {"part": "symmetry", "i": i, "h_i": ht[i], "h_top": ht[t - i]}
                break
        if bad is None:
            for i in range(1, (t + 1) // 2 + 1):
                if ht[i - 1] > ht[i]:
                    bad = {"part": "monotone", "i": i, "h_prev": ht[i - 1], "h_i": ht[i]}
                    break
        status = "pass" if bad is None else "fail"
        out.append(CheckResult("rank_selected", instance, params, status, bad, details))
    return out


def verify_selection_sum(gamma: ColoredComplex, i: int, k: int, instance: str = "") -> CheckResult:
    """C(d-i, k-i) * h_i of the whole complex equals the sum of h_i over
    all rank selections by k colors."""
    d = gamma.palette
    if not 0 <= i <= k <= d:
        raise ValueError("need 0 <= i <= k <= d, got i=%d k=%d d=%d" % (i, k, d))
    h = h_vector(gamma.complex, d)
    lhs = comb(d - i, k - i) * h[i]
    rhs = sum(ht[i] for t_cols, ht in gamma.selection_h.items() if len(t_cols) == k)
    params = {"i": i, "k": k}
    if lhs != rhs:
        return CheckResult("lemma33", instance, params, "fail",
                           {"lhs": lhs, "rhs": rhs}, None)
    return CheckResult("lemma33", instance, params, "pass", None, {"value": lhs})


def verify_link_sum(gamma: ColoredComplex, i: int, instance: str = "") -> CheckResult:
    """Vertex-link sum identities at index i:
    sum_v g_i(link) = i*g_{i+1} + (d-i)*g_i, and the h-level ingredient
    sum_v h_i(link) = (i+1)*h_{i+1} + (d-i)*h_i.  Entries past the top
    read as zero.  Links use palette size d-1."""
    if not gamma.complex.is_pure:
        raise InvalidComplexError("link sums need a pure complex")
    d = gamma.palette
    if not 0 <= i <= d:
        raise ValueError("index %d outside 0..%d" % (i, d))
    h = h_vector(gamma.complex, d)
    lhs_g = 0
    lhs_h = 0
    for hlk in gamma.link_h:
        lhs_g += g_bar_at(hlk, d - 1, i) if i <= d else 0
        lhs_h += hlk[i] if i < len(hlk) else 0
    hi = h[i] if i < len(h) else 0
    hip1 = h[i + 1] if i + 1 < len(h) else 0
    rhs_g = i * g_bar_at(h, d, i + 1) + (d - i) * g_bar_at(h, d, i)
    rhs_h = (i + 1) * hip1 + (d - i) * hi
    params = {"i": i}
    if lhs_g != rhs_g:
        return CheckResult("link_sum", instance, params, "fail",
                           {"side": "g", "lhs": lhs_g, "rhs": rhs_g}, None)
    if lhs_h != rhs_h:
        return CheckResult("link_sum", instance, params, "fail",
                           {"side": "h", "lhs": lhs_h, "rhs": rhs_h}, None)
    return CheckResult("link_sum", instance, params, "pass", None,
                       {"g_value": lhs_g, "h_value": lhs_h})


def equality_analysis(gamma: ColoredComplex, instance: str = "") -> CheckResult:
    """Consequences of vanishing g-numbers, checked in one pass:
    (a) the set of i <= floor(d/2) with g_i = 0;
    (b) for each such i, h_i = h_{i-1} on every selection by 2i-1 colors;
    (c) propagation: g_{i-1} = 0 forces g_i = 0 for 2 <= i <= floor(d/2);
    (d) each such i also vanishes on every vertex link."""
    d = gamma.palette
    h = h_vector(gamma.complex, d)
    g = balanced_g(h, d)
    zero_set = [i for i in range(1, d // 2 + 1) if g[i] == 0]
    details = {"g": list(g.entries), "zero_set": zero_set}

    for i in range(2, d // 2 + 1):
        if g[i - 1] == 0 and g[i] != 0:
            return CheckResult("equality", instance, {}, "fail",
                               {"part": "propagation", "i": i, "g_prev": 0, "g_i": g[i]},
                               details)
    for i in zero_set:
        for t_cols, ht in gamma.selection_h.items():
            if len(t_cols) != 2 * i - 1:
                continue
            if ht[i] != ht[i - 1]:
                return CheckResult("equality", instance, {}, "fail",
                                   {"part": "selection", "i": i, "T": list(t_cols),
                                    "h_i": ht[i], "h_prev": ht[i - 1]},
                                   details)
        for v, hlk in enumerate(gamma.link_h, start=1):
            glk = g_bar_at(hlk, d - 1, i)
            if glk != 0:
                return CheckResult("equality", instance, {}, "fail",
                                   {"part": "link", "i": i, "vertex": v, "g_link": glk},
                                   details)
    return CheckResult("equality", instance, {}, "pass", None, details)


def flag_symmetry(gamma: ColoredComplex, instance: str = "") -> CheckResult:
    """h_S equals h of the complementary color set, over all 2^d subsets."""
    d = gamma.palette
    _, fh = flag_vectors(gamma)
    full = frozenset(range(1, d + 1))
    for s in subsets(range(1, d + 1)):
        a = fh[s]
        b = fh[full - frozenset(s)]
        if a != b:
            return CheckResult("flag_symmetry", instance, {}, "fail",
                               {"S": list(s), "h_S": a, "h_complement": b}, None)
    return CheckResult("flag_symmetry", instance, {}, "pass", None,
                       {"subsets_checked": 2 ** d})
