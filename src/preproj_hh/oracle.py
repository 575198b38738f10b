"""Resolution-free cross-check: cohomology of the normalized bar complex.

The bar complex is taken relative to E = K.e_1 + ... + K.e_n, the span of
the vertex idempotents.  C^k is Hom_{E^e}(rad^{(x)_E k}, L): a basis
cochain (T, w) sends the composable chain T = (x_1, ..., x_k) of radical
monomials to the monomial w running from the source of x_1 to the target
of x_k (for k = 0, w runs over e_v L e_v), and every other chain to 0.
The differential is the standard Hochschild one.  Its rows are built once
per degree, one per basis cochain, so dim C^k is their count.  Ranks are
taken by sparse elimination: over the prime field of the table, or, in
characteristic 0, first over a screening prime and then over the rationals
(the rational ranks are the ones reported), both on the same rows, which
the elimination leaves as they were.

The budget counts the coordinates of the bar complex relative to K,
(dim - 1)^k * dim in degree k, which bounds the relative C^k from above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .algebra import AlgebraTable
from .exactla import FieldSpec, sparse_rank

_SCREEN_PRIME = 1009


class BudgetExceededError(RuntimeError):
    def __init__(self, degree: int, cost: int, budget: int):
        super().__init__(
            f"bar cochain space in degree {degree} needs {cost} coordinates, "
            f"budget is {budget}")
        self.degree = degree


def space_dim(t: AlgebraTable, k: int) -> int:
    """Budget measure of C^k: its coordinate count relative to K."""
    return (t.dim - 1) ** k * t.dim


def budget_upto(t: AlgebraTable, top: int, budget: int) -> int:
    """Highest degree up to `top` whose C^k fits the budget (0 if none does)."""
    upto = top
    while upto > 0 and space_dim(t, upto) > budget:
        upto -= 1
    return upto


class BarComplex:
    """Bar cochain data for one algebra table, relative to the vertex idempotents.

    Soundness: E is a product of copies of K, so E^e = E (x)_K E^op is
    semisimple in every characteristic and every E-bimodule is projective
    over it.  Hence L (x)_E rad^{(x)_E k} (x)_E L, k >= 0, with the bar
    differential is a projective resolution of L by L-bimodules, and
    applying Hom_{L^e}(-, L) gives HH^*(L) from the complex above (Happel
    1989, "Hochschild cohomology of finite-dimensional algebras"; Cibils
    2000, "Tensor Hochschild homology and cohomology").  L is graded with
    L_0 = E and rad = L_{>0}, so products of radical monomials stay radical
    and no idempotent ever needs rewriting.
    """

    def __init__(self, t: AlgebraTable):
        self.table = t
        self.radical = [m for m in t.basis if m.degree > 0]
        # the radical monomials ending and starting at each vertex
        self.ending_at: Dict[int, List[int]] = {
            v: [m.mid for m in ms if m.degree] for v, ms in t.ending_at.items()}
        self.starting_at: Dict[int, List[int]] = {
            v: [m.mid for m in ms if m.degree] for v, ms in t.starting_at.items()}
        # factorizations: m -> [((x, y), c)] with x * y = c * m, x, y radical
        self.pair_hits: Dict[int, List[Tuple[Tuple[int, int], int]]] = {
            m.mid: [] for m in self.radical}
        for x in self.radical:
            for y in self.starting_at.get(x.target, ()):
                hit = t.mono_mul(x.mid, y)
                if hit is not None:
                    self.pair_hits[hit[1]].append(((x.mid, y), hit[0]))

    def chains(self, k: int) -> Iterator[Tuple[int, ...]]:
        """Composable k-chains of radical monomials, k >= 1."""
        basis = self.table.basis
        if k == 1:
            for m in self.radical:
                yield (m.mid,)
            return
        for T in self.chains(k - 1):
            for x in self.starting_at.get(basis[T[-1]].target, ()):
                yield T + (x,)

    def cochains(self, k: int) -> Iterator[Tuple[Tuple[int, ...], int]]:
        """The basis (T, w) of C^k."""
        t = self.table
        if k == 0:
            for v in t.quiver.vertices:
                for w in t.by_ends[(v, v)]:
                    yield (), w.mid
            return
        for T in self.chains(k):
            ends = (t.basis[T[0]].source, t.basis[T[-1]].target)
            for w in t.by_ends[ends]:
                yield T, w.mid

    def differential_rows(self, k: int):
        """Image rows of the degree-k differential, one per C^k basis cochain.

        Keys of the row dicts are C^(k+1) basis cochains.
        """
        t = self.table
        basis = t.basis
        sign_last = (-1) ** (k + 1)
        for T, w in self.cochains(k):
            row: dict = {}
            for b in self.ending_at.get(basis[w].source, ()):
                hit = t.mono_mul(b, w)
                if hit is not None:
                    key = ((b,) + T, hit[1])
                    row[key] = row.get(key, 0) + hit[0]
            for i in range(1, k + 1):
                for (x, y), c in self.pair_hits[T[i - 1]]:
                    key = (T[: i - 1] + (x, y) + T[i:], w)
                    row[key] = row.get(key, 0) + (-1) ** i * c
            for b in self.starting_at.get(basis[w].target, ()):
                hit = t.mono_mul(w, b)
                if hit is not None:
                    key = (T + (b,), hit[1])
                    row[key] = row.get(key, 0) + sign_last * hit[0]
            yield {kk: v for kk, v in row.items() if v != 0}


def bar_rows(t: AlgebraTable, upto: int, budget: int = 10000) -> List[List[dict]]:
    """The differential rows of degrees 0..upto, one list per degree."""
    for k in range(upto + 1):
        cost = space_dim(t, k)
        if cost > budget:
            raise BudgetExceededError(k, cost, budget)
    bc = BarComplex(t)
    return [list(bc.differential_rows(k)) for k in range(upto + 1)]


def _dims(rows: List[List[dict]], field: FieldSpec) -> List[int]:
    """dim HH^i for i = 0..upto from `bar_rows` rows ranked over `field`."""
    ranks = [sparse_rank(r, field) for r in rows]
    return [len(r) - ranks[i] - (ranks[i - 1] if i else 0)
            for i, r in enumerate(rows)]


def bar_dims(t: AlgebraTable, upto: int, budget: int = 10000) -> List[int]:
    """dim HH^i for i = 0..upto from relative bar cochain ranks over the
    field of the table."""
    return _dims(bar_rows(t, upto, budget), t.field)


@dataclass
class OracleReport:
    upto: int
    bar: List[int]
    resolution: List[int]
    screen: Optional[List[int]]
    rank_field: str

    @property
    def ok(self) -> bool:
        return self.bar == self.resolution

    def serialize(self):
        return {"upto": self.upto, "bar_dims": self.bar,
                "resolution_dims": self.resolution,
                "screen_dims": self.screen, "rank_field": self.rank_field,
                "ok": self.ok}


def compare(t: AlgebraTable, resolution_dims: List[int], upto: int,
            budget: int = 10000) -> OracleReport:
    """Elementwise comparison of bar dims against the resolution dims.

    Over the rationals a fast screening pass runs first over a fixed prime;
    the rational elimination (whose dims are the ones reported) only runs
    when the screen already agrees.  Both rank the same rows.
    """
    expected = resolution_dims[: upto + 1]
    rows = bar_rows(t, upto, budget)
    screen = None
    if t.field.characteristic == 0:
        screen = _dims(rows, FieldSpec(_SCREEN_PRIME))
        if screen != expected:
            return OracleReport(upto, screen, expected, screen,
                                f"F{_SCREEN_PRIME} (screen failed)")
    return OracleReport(upto, _dims(rows, t.field), expected, screen, str(t.field))
