"""Shared build contexts, cached across the whole test session."""

import sys
from types import SimpleNamespace

import pytest

from preproj_hh import oracle, yoneda
from preproj_hh.algebra import AlgebraTable, BasisMonomial, _integral_tables, build_algebra
from preproj_hh.cochain import build_complex
from preproj_hh.exactla import FieldSpec
from preproj_hh.nakayama import associated_form
from preproj_hh.oracle import BarComplex
from preproj_hh.resolution import BimoduleMap
from preproj_hh.yoneda import YonedaEngine

sys.setrecursionlimit(10000)

_CTX = {}


@pytest.fixture(autouse=True)
def no_integral_lifts(monkeypatch):
    """Every test starts from an empty slot of integral generator lifts, so
    no lift built by an earlier test is read."""
    monkeypatch.setattr(yoneda, "_INTEGRAL_LIFTS", {})


def context(n: int, char: int = 0, maxdeg: int = 13) -> SimpleNamespace:
    """Algebra, form, resolution window, cochain complex and product engine."""
    key = (n, char, maxdeg)
    if key not in _CTX:
        field = FieldSpec(char)
        table = build_algebra(n, field)
        form = associated_form(table)
        cx = build_complex(table, form, maxdeg)
        _CTX[key] = SimpleNamespace(
            n=n, field=field, table=table, form=form,
            window=cx.window, cx=cx, engine=YonedaEngine(cx))
    return _CTX[key]


def variant_socle_table(n: int, char: int = 0) -> AlgebraTable:
    """The basis variant with unsigned top diagonal monomials.

    Obtained from the canonical table by rescaling the socle basis elements
    by their canonical signs; products pick up the corresponding sign
    factors, which the sign bit g of each rescaled monomial carries: it
    flips where the canonical sign is -1.  This is the fixture for the
    failing dualizability check.
    """
    base = build_algebra(n, FieldSpec(char))
    _, g, _ = _integral_tables(n)
    socle = set(base.socle_ids.values())
    basis = [BasisMonomial(m.mid, m.source, m.target, m.degree, m.path, 1)
             if m.mid in socle else m for m in base.basis]
    flipped = [b ^ (m.mid in socle and m.sign == -1) for m, b in zip(base.basis, g)]
    return AlgebraTable(n, base.field, basis, flipped)


def term_lists(f):
    """The value terms of f, per source summand, as (target summand, coeff,
    left mid, right mid) tuples in the order of its dicts."""
    return [[(k, c, x, y) for (k, x, y), c in terms.items()] for terms in f.values]


def system_shapes(t, w):
    """Every (s, tt, rhs value degree) a lifting system can be keyed on."""
    summands = {pair for term in w.terms for pair in term.summands}
    return [(s, tt, dv) for s, tt in sorted(summands)
            for dv in range(0, 2 * t.top_degree + 2)]


def canonical(F, x) -> bool:
    """x is nonzero and the field's own form of itself: reduced mod p over
    F_p, an int wherever it is integral over Q."""
    return F(x) == x and type(F(x)) is type(x) and x != 0


def dense(vec: dict, dim: int) -> list:
    """The sparse vector written out as a dense list of length dim."""
    out = [0] * dim
    for i, x in vec.items():
        out[i] = x
    return out


def sparse(seq) -> dict:
    """The dense sequence as a sparse {index: entry} dict of its nonzeros."""
    return {i: x for i, x in enumerate(seq) if x != 0}


def is_canonical_vector(cx, degree: int, vec: dict) -> bool:
    """vec is a cochain of V^degree in the one vector format: a dict keyed by
    positions of the basis, each value `canonical`."""
    dim, F = cx.spaces[degree].dim, cx.table.field
    return (type(vec) is dict and all(type(i) is int and 0 <= i < dim for i in vec)
            and all(canonical(F, x) for x in vec.values()))


def is_canonical(f) -> bool:
    """Every coefficient of the bimodule map f is `canonical`."""
    return all(canonical(f.table.field, c) for terms in f.values for c in terms.values())


def summand_negated(f, summand=0):
    """f with the value terms of one source summand negated."""
    values = [[(k, -c, x, y) for k, c, x, y in terms] if i == summand else terms
              for i, terms in enumerate(term_lists(f))]
    return BimoduleMap.from_terms(f.table, f.source, f.target, values)


def relisted(f):
    """f built from its terms listed differently: every term list reversed
    and each first term split in two.  `from_terms` merges them back, so the
    result equals f."""
    values = []
    for terms in term_lists(f):
        terms = list(reversed(terms))
        if terms:
            k, c, x, y = terms[0]
            terms[:1] = [(k, c + 1, x, y), (k, -1, x, y)]
        values.append(terms)
    return BimoduleMap.from_terms(f.table, f.source, f.target, values)


def perturb_d2(monkeypatch):
    """Negative control: add 1 at the first C^3 basis cochain in the first
    row of the bar differential of degree 2, for every `BarComplex`.  The
    oracle's per-n ranks start empty, so none of the clean ones is read."""
    real = BarComplex.differential_rows

    def perturbed(self, k):
        corrupt = next(self.cochains(3), None) if k == 2 else None
        for row in real(self, k):
            if corrupt is not None:
                row = {**row, corrupt: row.get(corrupt, 0) + 1}
                row = {key: v for key, v in row.items() if v != 0}
                corrupt = None
            yield row

    monkeypatch.setattr(BarComplex, "differential_rows", perturbed)
    monkeypatch.setattr(oracle, "_RATIONAL_RANKS", {})
