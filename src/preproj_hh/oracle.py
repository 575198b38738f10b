"""Resolution-free cross-check: cohomology of the normalized bar complex.

The bar complex is taken relative to E = K.e_1 + ... + K.e_n, the span of
the vertex idempotents.  C^k is Hom_{E^e}(rad^{(x)_E k}, L): a basis
cochain (T, w) sends the composable chain T = (x_1, ..., x_k) of radical
monomials to the monomial w running from the source of x_1 to the target
of x_k (for k = 0, w runs over e_v L e_v), and every other chain to 0.
The differential is the standard Hochschild one.  Its rows are built one
per basis cochain, so dim C^k is their count, and they hold the ints +-1
of the certified product rule in every field.  So a char-0 `compare`
eliminates each degree once, over Q, and keeps three ints of it for the
process, keyed by the product rule: the row count, the rank and the lcm of
the pivot scales (`rank_and_scale`).  The F1009 screen of that point, and
every later F_p point with the same rule, reads a degree whose scale p does
not divide off those ints; any other degree is eliminated over F_p from
freshly built rows, as it is at an F_p point that meets no kept ranks.
`bar_rows`, `_dims` and `bar_dims` eliminate directly and are the
reference path.

Each cochain is keyed by one int: code(x_1, ..., x_k, w) is the base-D
number with digits x_1, ..., x_k, w, D = dim L, and the rows are built by
integer arithmetic on those codes.  Within one degree the coding is
injective and keeps the order of the tuples, so every rank and fill is that
of tuple keys (see the note at `BarComplex.differential_rows`).

The budget counts the coordinates of the bar complex relative to K,
(dim - 1)^k * dim in degree k, which bounds the relative C^k from above.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .algebra import AlgebraTable
from .exactla import FieldSpec, rank_and_scale, sparse_rank

_SCREEN_PRIME = 1009

# `_rule_key(t)` -> {k: (row count, rank over Q, pivot scale)} of the
# degree-k bar differential of t, filled by char-0 points only.  The rows are
# the same ints in every field, so F_p tables of the same rule read them.
# Only these ints are kept, never the rows.
_RATIONAL_RANKS: dict = {}


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
        # the nonzero products of each monomial w with the radical, taken
        # once for every degree: (b, c, m) with w * b = c * m (right) and
        # b * w = c * m (left), in the order of b.  A left product by a
        # radical w is the right product of a radical b.
        mono_mul = t.mono_mul
        self.right_hits: Dict[int, List[Tuple[int, int, int]]] = {
            m.mid: [(b, *hit) for b in self.starting_at.get(m.target, ())
                    if (hit := mono_mul(m.mid, b)) is not None] for m in t.basis}
        self.left_hits: Dict[int, List[Tuple[int, int, int]]] = {m.mid: [] for m in self.radical}
        for v, e in t.e_ids.items():
            self.left_hits[e] = [(b, *mono_mul(b, e)) for b in self.ending_at.get(v, ())]
        # factorizations: m -> [(x * D + y, c)] with x * y = c * m, x, y
        # radical, the pair (x, y) coded as two base-D digits
        self.pair_hits: Dict[int, List[Tuple[int, int]]] = {
            m.mid: [] for m in self.radical}
        for x in self.radical:
            for y, c, m in self.right_hits[x.mid]:
                self.left_hits[y].append((x.mid, c, m))
                self.pair_hits[m].append((x.mid * t.dim + y, c))

    def chains(self, k: int) -> Iterator[Tuple[int, int, int]]:
        """(code, source, target) of each composable k-chain of radical
        monomials, in increasing code order; for k = 0, the empty chain (code
        0) at each vertex."""
        t = self.table
        if k == 0:
            for v in t.quiver.vertices:
                yield 0, v, v
            return
        D, basis = t.dim, t.basis
        for code, source, target in self.chains(k - 1):
            for x in self.starting_at.get(target, ()):
                yield code * D + x, source, basis[x].target

    def cochains(self, k: int) -> Iterator[int]:
        """The codes of the basis cochains (T, w) of C^k, in increasing order."""
        t = self.table
        for code, source, target in self.chains(k):
            head = code * t.dim
            for w in t.by_ends[(source, target)]:
                yield head + w.mid

    def differential_rows(self, k: int):
        """Image rows of the degree-k differential, one per C^k basis cochain.

        Keys of the row dicts are the codes of C^(k+1) basis cochains.

        Soundness of the int keys.  Every code of C^j has j+1 base-D digits,
        each a monomial id below D, so within one degree the coding is
        injective and integer order is the lexicographic order of the tuples
        (x_1, ..., x_j, w), which is the order of the keys ((x_1..x_j), w).
        A row therefore merges the same terms as under tuple keys, and
        `_reduce`, which reads its keys only through equality and `min`,
        meets the same pivots in the same order with the same fill: every
        rank, and so every dimension the oracle reports, is unchanged.  The
        key of each term is that tuple's code, by digit arithmetic: b
        prepended to (x_1..x_k) at weight D^(k+1), x_i replaced by its
        factors x, y, and b appended before the new value.
        """
        t = self.table
        D = t.dim
        top = D ** (k + 1)
        sign_last = (-1) ** (k + 1)
        # the outer faces of each value w, as offsets from the code of the
        # chain: b * w prepended, w * b appended
        left = {w: [(b * top + m, c) for b, c, m in hits]
                for w, hits in self.left_hits.items()}
        right = {w: [(b * D + m, sign_last * c) for b, c, m in hits]
                 for w, hits in self.right_hits.items()}
        # x_i is the digit of weight D^(k+1-i) in a code of C^k
        inner = [(D ** (k + 1 - i), (-1) ** i) for i in range(1, k + 1)]
        for code, source, target in self.chains(k):
            chain, up = code * D, code * D * D
            # the inner faces x_i -> (x, y), as codes with the value digit 0
            faces = []
            for low, sign in inner:
                head, tail = divmod(chain, low)
                head, x = divmod(head, D)
                head *= D * D
                faces += [((head + xy) * low + tail, sign * c)
                          for xy, c in self.pair_hits[x]]
            for m in t.by_ends[(source, target)]:
                w = m.mid
                row: dict = {}
                for off, c in left[w]:
                    key = chain + off
                    row[key] = row.get(key, 0) + c
                for off, c in faces:
                    key = off + w
                    row[key] = row.get(key, 0) + c
                for off, c in right[w]:
                    key = up + off
                    row[key] = row.get(key, 0) + c
                yield {kk: v for kk, v in row.items() if v != 0}


def _check_budget(t: AlgebraTable, upto: int, budget: int) -> None:
    for k in range(upto + 1):
        cost = space_dim(t, k)
        if cost > budget:
            raise BudgetExceededError(k, cost, budget)


def bar_rows(t: AlgebraTable, upto: int, budget: int = 10000) -> List[List[dict]]:
    """The differential rows of degrees 0..upto, one list per degree."""
    _check_budget(t, upto, budget)
    bc = BarComplex(t)
    return [list(bc.differential_rows(k)) for k in range(upto + 1)]


def _hh(sizes: List[int], ranks: List[int]) -> List[int]:
    """dim HH^i = dim C^i - rank d^i - rank d^(i-1) for i = 0..upto."""
    return [size - ranks[i] - (ranks[i - 1] if i else 0) for i, size in enumerate(sizes)]


def _dims(rows: List[List[dict]], field: FieldSpec) -> List[int]:
    """dim HH^i for i = 0..upto from `bar_rows` rows ranked over `field`."""
    return _hh([len(r) for r in rows], [sparse_rank(r, field) for r in rows])


def bar_dims(t: AlgebraTable, upto: int, budget: int = 10000) -> List[int]:
    """dim HH^i for i = 0..upto from relative bar cochain ranks over the
    field of the table."""
    return _dims(bar_rows(t, upto, budget), t.field)


def _rule_key(t: AlgebraTable) -> tuple:
    """n and every list `mono_mul` reads: ints and (+-1, id) pairs, the
    same for the tables of one rule over every field.

    The bar rows read the table through `mono_mul` and the ends and degrees
    of its basis, which `rule_left` and `rule_right` encode with n, so
    tables with equal keys have equal rows.  A `mono_mul` replaced on the
    class or an instance is outside the key.
    """
    return (t.n, tuple(t.sources), tuple(t.targets), tuple(t.rule_left),
            tuple(t.rule_right), tuple(t.rule))


def compare(t: AlgebraTable, resolution_dims: List[int], upto: int,
            budget: int = 10000) -> Tuple[dict, int]:
    """Elementwise comparison of bar dims against the resolution dims.

    Returns the certificate's oracle section and the number of bar
    eliminations run, which goes to the header only.

    Over the rationals a screen over a fixed prime runs first; the rational
    dims, the ones reported, are compared only when the screen already
    agrees.  A char-0 point eliminates each degree over Q where
    `_RATIONAL_RANKS` has no entry for its rule and keeps the ints of it.
    A rank over F_p, for the field or the screen, is read off the kept
    rational rank of its degree where p does not divide that degree's pivot
    scale (the soundness note is at `rank_and_scale`); anywhere else the
    degree is eliminated over F_p, so an F_p point that meets no kept ranks
    does the work of `bar_dims` and keeps nothing.  The budget is checked on
    every call, before any rank is read.
    """
    _check_budget(t, upto, budget)
    expected = resolution_dims[: upto + 1]
    char = t.field.characteristic
    key = _rule_key(t)
    known = _RATIONAL_RANKS.setdefault(key, {}) if char == 0 else _RATIONAL_RANKS.get(key, {})
    bar: List[BarComplex] = []
    eliminations = 0

    def rows(k: int) -> List[dict]:
        nonlocal eliminations
        eliminations += 1
        if not bar:
            bar.append(BarComplex(t))
        return list(bar[0].differential_rows(k))

    if char == 0:
        for k in range(upto + 1):
            if k not in known:
                degree = rows(k)
                known[k] = (len(degree), *rank_and_scale(degree))

    def dims(field: FieldSpec) -> List[int]:
        p = field.characteristic
        sizes, ranks = [], []
        for k in range(upto + 1):
            if k in known and (p == 0 or known[k][2] % p):
                size, rank, _ = known[k]
            else:
                degree = rows(k)
                size, rank = len(degree), sparse_rank(degree, field)
            sizes.append(size)
            ranks.append(rank)
        return _hh(sizes, ranks)

    screen = dims(FieldSpec(_SCREEN_PRIME)) if char == 0 else None
    if screen is not None and screen != expected:
        got, rank_field = screen, f"F{_SCREEN_PRIME} (screen failed)"
    else:
        got, rank_field = dims(t.field), str(t.field)
    return {"upto": upto, "bar_dims": got, "resolution_dims": expected,
            "screen_dims": screen, "rank_field": rank_field,
            "ok": got == expected}, eliminations
