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

from .arith import InconsistencyError, Record
from .groebner import ReducedBasis, buchberger, lrem
from .weyl import Algebra, WeylOperator, components, dtelim_order, grevlex, mul


def dt_degree(a):
    """Largest d_t exponent appearing in `a` (0 for the zero operator)."""
    if not a.algebra.dt:
        raise ValueError("expected an operator with a d_t slot")
    L = a.algebra.layout
    return max((L.exponent(m, L.n) for m in a.terms), default=0)


class ParametricPresentation(Record):
    """Generators of a left ideal in a t-extended operator algebra.

    `algebra` must have ``dt=True`` and `order` must be the d_t-eliminating
    ``dtelim_order`` of the algebra's arity; `s` is the rank of the ambient
    free module.
    """

    _fields = ("algebra", "generators", "order")

    def __init__(self, algebra, generators, order):
        if not algebra.dt:
            raise ValueError("expected an algebra with a d_t slot")
        if order != dtelim_order(algebra.n):
            raise ValueError(f"order must eliminate d_t: use dtelim_order({algebra.n})")
        if not generators:
            raise ValueError("a parametric presentation needs a generator")
        for g in generators:
            if g.algebra.n != algebra.n:
                raise ValueError("generator arity differs from the algebra's")
            if g.is_zero():
                raise ValueError("zero generator")
        self.algebra, self.generators, self.order = algebra, generators, order

    @property
    def s(self):
        return self.algebra.r


class ExtensionResult(Record):
    """Flattened presentation: rank, relation generators, d_t action.

    `gb` is the elimination Groebner basis in the t-extended algebra;
    `s_generators` live in the flattened algebra of rank `r`, and when ell =
    0 they are its reduced ``grevlex`` basis, a :class:`.groebner.ReducedBasis`;
    `l_matrix` is an r x r matrix of scalar (rank 1) operators, row-vector
    convention: d_t acts on a = (a_1, .., a_r) as da/dt + a . L.
    """

    _fields = ("ell", "r", "algebra", "s_generators", "l_matrix", "gb", "source")

    def __init__(self, ell, r, algebra, s_generators, l_matrix, gb, source):
        self.ell, self.r, self.algebra = ell, r, algebra
        self.s_generators, self.l_matrix, self.gb = s_generators, l_matrix, gb
        self.source = source


def _dt_basis_element(algebra, h, comp):
    """d_t^h e_comp in algebra."""
    return WeylOperator(algebra, {h * algebra.layout.d[0] + comp - 1: algebra.field.one})


def flatten_operator(a, ell, target):
    """Rewrite a d_t-bounded operator as an element of the flat module.

    Monomials ``x^alpha d^beta d_t^h e_i`` with ``h <= ell`` map to
    ``x^alpha d^beta e_{h*s+i}`` (slot 0 dropped).  Raises ValueError if
    some monomial exceeds the level bound.
    """
    L = a.algebra.layout
    s = a.algebra.r
    terms = {}
    for m, c in a.terms.items():
        h = L.exponent(m, L.n)
        if h > ell:
            raise ValueError("operator exceeds the stabilization level")
        terms[L.without_slot0(m) + h * s] = c
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

    When ell = 0 the relations are the d_t-free elements of `gb`, which by
    the elimination theorem (Kandri-Rody and Weispfenning, JSC 1990) are
    the reduced basis of J meet W_x(t) under the restriction of dtelim, and
    on d_t-free monomials that is ``grevlex`` of the flat algebra: they are
    handed over as a ReducedBasis.  For ell > 0 the flat order sorts by term
    before position and is no restriction of dtelim, so they stay a tuple.
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
            shifted = mul(_dt_basis_element(algebra.with_rank(1), k, 1), g) if k else g
            if dt_degree(shifted) != dg + k:
                raise InconsistencyError("d_t shift changed the d_t degree")
            s_gens.append(flatten_operator(shifted, ell, flat))

    s_gens = ReducedBasis(s_gens, grevlex(flat.n)) if ell == 0 else tuple(s_gens)
    zero_entry = flat.with_rank(1).zero()
    rows = []
    for rem in forms:
        if dt_degree(rem) > ell:
            raise InconsistencyError("normal form escaped the level bound")
        entries = components(flatten_operator(rem, ell, flat))
        rows.append(tuple(entries.get(k, zero_entry) for k in range(1, r + 1)))

    return ExtensionResult(
        ell=ell,
        r=r,
        algebra=flat,
        s_generators=s_gens,
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
    A = ext.algebra
    return WeylOperator(A, {A.unit_monomial(comp): A.field.one})

