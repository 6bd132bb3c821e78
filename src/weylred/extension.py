"""Finite reduction of parametric annihilators to a free-module setting.

A system of operators in the variables ``t, x_1, .., x_n`` that involves
``d_t`` does not directly fit the module machinery in :mod:`.telescoping`,
which wants a finitely generated ``W_x(t)``-module together with an
endomorphism describing how ``d_t`` acts.  This module performs that
conversion:

* start from generators of a left ideal ``J`` in the t-extended algebra
  (``Algebra(..., dt=True)``, where ``t`` lives in the coefficient field
  and slot 0 carries ``d_t``),
* compute a Groebner basis ``G`` under a ``d_t``-elimination order,
* find the smallest level ``ell`` such that every ``d_t^(ell+1) e_i``
  rewrites, modulo ``G``, to something of ``d_t``-degree at most ``ell``,
* flatten the finitely many basis directions ``d_t^h e_i`` (``h <= ell``)
  into a free module of rank ``r = (ell+1)*s`` over ``W_x(t)``: the
  submodule ``S`` of relations and the matrix ``L`` encoding the action
  of ``d_t`` are exactly the inputs :class:`.telescoping.DerivedPresentation`
  consumes.

The flattening sends ``d_t^h e_i`` to the free-module generator with
component index ``h*s + i``.
"""

from dataclasses import dataclass

from .arith import InconsistencyError
from .groebner import buchberger, lrem
from .weyl import Algebra, Monomial, WeylOperator, dtelim_order, mul


def dt_degree(a):
    """Largest d_t exponent appearing in `a` (0 for the zero operator)."""
    if not a.algebra.dt:
        raise ValueError("expected an operator with a d_t slot")
    if a.is_zero():
        return 0
    return max(m.beta[0] for m in a.terms)


@dataclass(frozen=True)
class ParametricPresentation:
    """Generators of a left ideal in a t-extended operator algebra.

    `algebra` must have ``dt=True`` and `order` must be the d_t-eliminating
    ``dtelim_order`` of the algebra's arity; `s` is the rank of the ambient
    free module.
    """

    algebra: Algebra
    generators: tuple
    order: object

    def __post_init__(self):
        if not self.algebra.dt:
            raise ValueError("expected an algebra with a d_t slot")
        if self.order != dtelim_order(self.algebra.n):
            raise ValueError(
                f"order must eliminate d_t: use dtelim_order({self.algebra.n})")
        if not self.generators:
            raise ValueError("a parametric presentation needs a generator")
        for g in self.generators:
            if g.algebra.n != self.algebra.n:
                raise ValueError("generator arity differs from the algebra's")
            if g.is_zero():
                raise ValueError("zero generator")

    @property
    def s(self):
        return self.algebra.r


@dataclass(frozen=True)
class ExtensionResult:
    """Flattened presentation: rank, relation generators, d_t action.

    `gb` is the elimination Groebner basis in the t-extended algebra;
    `s_generators` live in the flattened algebra of rank `r`; `l_matrix`
    is an r x r matrix of scalar (rank 1) operators, row-vector convention:
    d_t acts on a = (a_1, .., a_r) as da/dt + a . L.
    """

    ell: int
    r: int
    algebra: Algebra
    s_generators: tuple
    l_matrix: tuple
    gb: tuple
    source: ParametricPresentation


def _dt_power(algebra, k):
    scalar = algebra.with_rank(1)
    beta = [0] * algebra.n
    beta[0] = k
    return WeylOperator(
        scalar, {Monomial((0,) * algebra.n, tuple(beta), 1): algebra.field.one}
    )


def _dt_basis_element(algebra, h, comp):
    beta = [0] * algebra.n
    beta[0] = h
    return WeylOperator(
        algebra, {Monomial((0,) * algebra.n, tuple(beta), comp): algebra.field.one}
    )


def flatten_operator(a, ell, target):
    """Rewrite a d_t-bounded operator as an element of the flat module.

    Monomials ``x^alpha d^beta d_t^h e_i`` with ``h <= ell`` map to
    ``x^alpha d^beta e_{h*s+i}`` (slot 0 dropped).  Raises ValueError if
    some monomial exceeds the level bound.
    """
    src = a.algebra
    s = src.r
    terms = {}
    for m, c in a.terms.items():
        h = m.beta[0]
        if h > ell:
            raise ValueError("operator exceeds the stabilization level")
        flat = Monomial(m.alpha[1:], m.beta[1:], h * s + m.comp)
        terms[flat] = c
    return WeylOperator(target, terms)


_MAX_LEVEL = 20  # levels tried before the d_t filtration is given up


def build_extension(pres):
    """Flatten a parametric ideal into (S, L) over a free W_x(t)-module.

    Returns an :class:`ExtensionResult` whose `s_generators` generate the
    relation submodule and whose `l_matrix` gives the d_t action, both in
    the flattened algebra of rank ``(ell+1)*s``.  ell is the first level at
    which every ``d_t^(ell+1) e_i`` has a normal form of d_t degree at most
    ell; row h*s + i of `l_matrix` is the flat normal form of
    ``d_t^(h+1) e_i``, each division certified once, on the way to ell.  A
    filtration that has not stabilized by level _MAX_LEVEL raises
    ValueError.
    """
    algebra, order, s = pres.algebra, pres.order, pres.s
    gb = buchberger(pres.generators, order)
    forms = []  # normal forms of d_t^(h+1) e_i: level h by level h, i fastest
    for ell in range(_MAX_LEVEL + 1):
        level = []
        for i in range(1, s + 1):
            source_elt = _dt_basis_element(algebra, ell + 1, i)
            rem, cert = lrem(source_elt, gb, order)
            if not cert.verifies(source_elt - rem):
                raise InconsistencyError("division certificate failed")
            level.append(rem)
        forms += level
        if all(dt_degree(rem) <= ell for rem in level):
            break
    else:
        raise ValueError(
            f"d_t filtration did not stabilize below level {_MAX_LEVEL}; "
            "the parametric system is likely not finite over W_x(t)"
        )
    r = (ell + 1) * s
    flat = Algebra(algebra.n - 1, r, algebra.field, dt=False)

    s_gens = []
    for g in gb:
        dg = dt_degree(g)
        for k in range(ell - dg + 1):
            shifted = mul(_dt_power(algebra, k), g) if k else g
            if dt_degree(shifted) != dg + k:
                raise InconsistencyError("d_t shift changed the d_t degree")
            s_gens.append(flatten_operator(shifted, ell, flat))

    rows = []
    for rem in forms:
        if dt_degree(rem) > ell:
            raise InconsistencyError("normal form escaped the level bound")
        flat_rem = flatten_operator(rem, ell, flat)
        row = []
        for k in range(1, r + 1):
            entry_terms = {
                Monomial(m.alpha, m.beta, 1): c
                for m, c in flat_rem.terms.items()
                if m.comp == k
            }
            row.append(WeylOperator(flat.with_rank(1), entry_terms))
        rows.append(tuple(row))

    return ExtensionResult(
        ell=ell,
        r=r,
        algebra=flat,
        s_generators=tuple(s_gens),
        l_matrix=tuple(rows),
        gb=gb,
        source=pres,
    )


def embedded_unit(ext, h=0, i=1):
    """The flat image of the basis direction d_t^h e_i."""
    if not (0 <= h <= ext.ell and 1 <= i <= ext.source.s):
        raise ValueError(f"no basis direction d_t^{h} e_{i}: need 0 <= h <= {ext.ell}"
                         f" and 1 <= i <= {ext.source.s}")
    comp = h * ext.source.s + i
    return WeylOperator(
        ext.algebra,
        {Monomial((0,) * ext.algebra.n, (0,) * ext.algebra.n, comp): ext.algebra.field.one},
    )

