"""Command-line surface: operator documents, expression parser, run drivers.

One plain-text document format serves every subcommand.  A document is a
header followed by ``---`` and a body of operator expressions:

    # 2-regular graphs
    vars x1 x2
    rank 1
    order grevlex
    ---
    (t-1)*x1 + t*dx1
    x2 - t

Header keys: ``vars`` (space/comma separated; a first variable named ``t``
makes the document parametric, enabling ``dt`` and routing telescoping
through the finite-reduction layer), ``rank`` (default 1), ``order``
(grevlex | block | lex | lex:s1,s2,.. | dtelim | weightlex:w1,w2,..),
``field`` (QQ(t) or QQ; either way the coefficients lie in QQ(t)).  The
order line is read by ``weyl.order_from_spec`` and written back as
``MonomialOrder.spec``.  A lex order compares the 2n exponents in the
order of its slot codes: 0..n-1 name x_1..x_n and n..2n-1 name d_1..d_n,
counting a leading ``t`` as variable 1; plain ``lex`` is x_1..x_n,
d_1..d_n.  weightlex takes 2n non-negative weights.  grevlex, block and
dtelim take no arguments.  Body lines are ideal generators; module-style
documents may also carry ``L <entry> | <entry> | ..`` matrix rows and an
``f <expr>`` integrand line.

Expression grammar (products expand left-to-right, non-commutatively):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := nat | 't' | var | 'd'var | 'e'nat | factor '^' nat | '(' expr ')'

'/' divides by a scalar (a rational constant or polynomial in t); in a
rank-r document every additive term needs an ``e<k>`` component factor.

Exit codes: 0 success, 1 failed check, 2 parse/usage error, 3 budget
exhausted, 4 inconsistent result (a witness, certificate or cross-prime
check failed).  ``WEYLRED_SEED`` sets the seed of ``telescope`` and
``kregular`` when ``--seed`` is not given; a value that is not an
integer exits 2, and the other subcommands ignore it.
"""

import json
import os
import re
import sys
import time
from fractions import Fraction
from math import factorial

from .arith import QQ_T, T_GEN, BudgetExhaustedError, InconsistencyError, Record
from .extension import ParametricPresentation, build_extension, embedded_unit
from .groebner import buchberger
from .kregular import (
    count_regular_graphs,
    model_polynomials,
    regular_presentation,
    scalar_product_input,
    scalar_product_presentation,
    scalar_product_series,
    verify_ode_on_series,
)
from .reduction import ReductionContext, compute_eta_basis, reduce_eta, reduced_form
from .telescoping import (
    DerivedPresentation,
    ModularConfig,
    Telescoper,
    confine,
    telescope_direct,
    telescope_modular,
)
from .weyl import (
    Algebra,
    Monomial,
    WeylOperator,
    dtelim_order,
    grevlex,
    mul,
    op_add,
    op_neg,
    op_scale,
    op_sub,
    order_from_spec,
    sorted_terms,
)


class ParseError(Exception):
    def __init__(self, message, position=None, line=None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if position is not None:
            where.append(f"position {position}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.position = position
        self.line = line


# ---------------------------------------------------------------------------
# documents


class OperatorDocument(Record):
    """Parsed document: algebra + order + generator/matrix/integrand body."""

    _fields = ("algebra", "order", "variables", "generators", "l_rows", "f")
    __hash__ = None

    def __init__(self, algebra, order, variables, generators=None, l_rows=None, f=None):
        self.algebra, self.order, self.variables = algebra, order, variables
        self.generators = [] if generators is None else generators
        self.l_rows = [] if l_rows is None else l_rows
        self.f = f

    @property
    def parametric(self):
        return self.algebra.dt


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RESERVED = re.compile(r"^(t|d.*|e[0-9]+)$")


def parse_document(text):
    """Parse a full operator document (header, ``---``, body)."""
    header, body, in_body = {}, [], False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "---":
            in_body = True
            continue
        if in_body:
            body.append((lineno, line))
        else:
            key, _, rest = line.partition(" ")
            header[key] = (lineno, rest.strip())

    if "vars" not in header:
        raise ParseError("document header needs a 'vars' line")
    lineno, rest = header["vars"]
    names = [v for v in re.split(r"[,\s]+", rest) if v]
    parametric = bool(names) and names[0] == "t"
    var_names = names[1:] if parametric else names
    for v in var_names:
        if not _NAME_RE.fullmatch(v) or _RESERVED.match(v):
            raise ParseError(f"bad variable name {v!r}", line=lineno)
    if len(set(var_names)) != len(var_names):
        raise ParseError("duplicate variable names", line=lineno)

    rank = 1
    if "rank" in header:
        lineno, rest = header["rank"]
        try:
            rank = int(rest)
        except ValueError:
            raise ParseError(f"bad rank {rest!r}", line=lineno)
        if rank < 1:
            raise ParseError("rank must be positive", line=lineno)
    if "field" in header:
        lineno, rest = header["field"]
        if rest not in ("QQ(t)", "QQ"):
            raise ParseError(f"unsupported field {rest!r}", line=lineno)

    n = len(var_names) + (1 if parametric else 0)
    if n == 0:
        raise ParseError("need at least one variable")
    algebra = Algebra(n, rank, QQ_T, dt=parametric)
    lineno, spec = header.get("order", (None, ""))
    try:
        order = order_from_spec(spec, n) if spec else (
            dtelim_order(n) if parametric else grevlex(n)
        )
    except ValueError as exc:
        raise ParseError(str(exc), line=lineno)

    doc = OperatorDocument(algebra, order, tuple(var_names))
    for lineno, line in body:
        try:
            if line.startswith("L "):
                entries = [e.strip() for e in line[2:].split("|")]
                doc.l_rows.append(
                    [parse_operator(e, doc, scalar=True) for e in entries]
                )
            elif line.startswith("f "):
                doc.f = parse_operator(line[2:], doc)
            else:
                doc.generators.append(parse_operator(line, doc))
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno)
    return doc


# ---------------------------------------------------------------------------
# expression parser


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()|]))")


def _tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}",
                                 position=pos)
            break
        if m.group(1):
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _is_scalar_op(v):
    if v.is_zero():
        return True, v.algebra.field.zero
    if len(v.terms) == 1:
        (m, c), = v.terms.items()
        if not any(m.alpha) and not any(m.beta) and m.comp == 1:
            return True, c
    return False, None


class _ExprParser:
    def __init__(self, text, doc):
        self.tokens = _tokenize(text)
        self.i = 0
        self.doc = doc
        self.scalar_algebra = doc.algebra.with_rank(1)

    def peek(self):
        return self.tokens[min(self.i, len(self.tokens) - 1)]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, msg):
        raise ParseError(msg, position=self.peek()[2])

    def expr(self):
        negate = False
        if self.peek()[:2] == ("op", "-"):
            self.take()
            negate = True
        v = self.term()
        if negate:
            v = op_neg(v)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, sign, _ = self.take()
            w = self.term()
            v, w = self._match_ranks(v, w)
            v = op_add(v, w) if sign == "+" else op_sub(v, w)
        return v

    def _match_ranks(self, v, w):
        if v.algebra.r != w.algebra.r:
            # a zero term is rankless in spirit; lift it silently
            if v.is_zero():
                return w.algebra.zero(), w
            if w.is_zero():
                return v, v.algebra.zero()
            r = self.doc.algebra.r
            self.fail("cannot mix component-tagged and untagged terms; "
                      f"tag each term with a component e1..e{r}")
        return v, w

    def term(self):
        v = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            _, op, _ = self.take()
            w = self.factor()
            if op == "/":
                ok, c = _is_scalar_op(w)
                if not ok:
                    self.fail("divisor must be a scalar (rational or t-polynomial)")
                F = self.doc.algebra.field
                if F.is_zero(c):
                    self.fail("division by zero")
                v = op_scale(v, F.inv(c))
            else:
                if v.algebra.r > 1 and w.algebra.r > 1:
                    self.fail("a product may mention a component e<k> only once")
                v = mul(v, w)
        return v

    def factor(self):
        base = self.atom()
        while self.peek()[:2] == ("op", "^"):
            self.take()
            kind, val, _ = self.take()
            if kind != "num":
                self.fail("exponent must be a natural number")
            out = self.scalar_algebra.one() if base.algebra.r == 1 else None
            if out is None:
                self.fail("cannot raise a module element to a power")
            for _ in range(val):
                out = mul(out, base)
            base = out
        return base

    def atom(self):
        kind, val, pos = self.take()
        A = self.scalar_algebra
        if kind == "num":
            return A.scalar(QQ_T.from_int(val))
        if kind == "op" and val == "(":
            v = self.expr()
            if self.take()[:2] != ("op", ")"):
                raise ParseError("expected ')'", position=pos)
            return v
        if kind == "name":
            if val == "t":
                return A.scalar(T_GEN)
            m = re.fullmatch(r"e([0-9]+)", val)
            if m:
                comp = int(m.group(1))
                if not 1 <= comp <= self.doc.algebra.r:
                    raise ParseError(f"component {val} out of range 1..{self.doc.algebra.r}",
                                     position=pos)
                full = self.doc.algebra
                return WeylOperator(full, {full.unit_monomial(comp): QQ_T.one})
            if val == "dt":
                if not self.doc.parametric:
                    raise ParseError("dt is only available when 't' heads the vars line",
                                     position=pos)
                return A.dvar(0)
            if val.startswith("d") and val[1:] in self.doc.variables:
                slot = self.doc.variables.index(val[1:]) + (1 if self.doc.parametric else 0)
                return A.dvar(slot)
            if val in self.doc.variables:
                slot = self.doc.variables.index(val) + (1 if self.doc.parametric else 0)
                return A.xvar(slot)
            raise ParseError(f"unknown symbol {val!r}", position=pos)
        raise ParseError("expected a factor", position=pos)


def parse_operator(text, doc, scalar=False):
    """Parse one expression under a document's algebra."""
    p = _ExprParser(text, doc)
    v = p.expr()
    if p.peek()[0] != "end":
        p.fail(f"trailing input {p.peek()[1]!r}")
    if scalar or doc.algebra.r == 1:
        if v.algebra.r != 1:
            raise ParseError("expected a scalar (component-free) expression")
        if not scalar:
            v = WeylOperator(doc.algebra, dict(v.terms))
    elif v.algebra.r == 1:
        if not v.is_zero():
            raise ParseError(
                f"rank-{doc.algebra.r} document: every term needs a "
                f"component factor e1..e{doc.algebra.r}"
            )
        v = doc.algebra.zero()
    return v


# ---------------------------------------------------------------------------
# printer


def _poly_str(poly):
    if not poly:
        return "0"
    parts = []
    for e in range(len(poly) - 1, -1, -1):
        c = poly[e]
        if not c:
            continue
        mono = "t" if e == 1 else (f"t^{e}" if e else "")
        c = Fraction(c)
        if mono and abs(c) == 1:
            cs = "-" if c < 0 else ""
        else:
            cs = str(c)
        piece = cs + ("*" if cs not in ("", "-") and mono else "") + mono
        parts.append(piece or "1")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _coeff_str(c):
    """Render a rational-function coefficient.

    Returns (text, loose): `loose` is True when the text is a bare sum that
    must be parenthesized before multiplying it with a monomial.  The text
    shows num/den over a monic den.
    """
    num, den = c
    lc = den[-1]
    num = [Fraction(x, lc) for x in num]
    den = [Fraction(x, lc) for x in den]
    ns = _poly_str(num)
    num_terms = len([x for x in num if x])
    if len(den) == 1:
        return ns, num_terms > 1
    if num_terms > 1:
        ns = f"({ns})"
    return f"{ns}/({_poly_str(den)})", False


def _mono_factors(m, doc):
    names = doc.variables
    off = 1 if doc.parametric else 0
    out = []
    if doc.parametric and m.beta[0]:
        out.append("dt" + (f"^{m.beta[0]}" if m.beta[0] > 1 else ""))
    for i, e in enumerate(m.alpha[off:]):
        if e:
            out.append(names[i] + (f"^{e}" if e > 1 else ""))
    for i, e in enumerate(m.beta[off:]):
        if e:
            out.append("d" + names[i] + (f"^{e}" if e > 1 else ""))
    if doc.algebra.r > 1:
        out.append(f"e{m.comp}")
    return out


def print_operator(op, doc):
    """Canonical text: terms descending under the document order."""
    if op.is_zero():
        return "0"
    pieces = []
    for m, c in sorted_terms(op, doc.order):
        factors = _mono_factors(m, doc)
        cs, loose = _coeff_str(c)
        neg = cs.startswith("-") and not (loose and factors)
        if neg:
            cs = cs[1:]
        bare_one = cs == "1"
        if loose and factors:
            cs = f"({cs})"
        if factors:
            body = "*".join(factors) if bare_one else cs + "*" + "*".join(factors)
        else:
            body = cs
        pieces.append(("-" if neg else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def format_document(doc, operators, note=None):
    lines = []
    if note:
        lines.append(f"# {note}")
    vars_line = ("t " if doc.parametric else "") + " ".join(doc.variables)
    lines.append(f"vars {vars_line.strip()}")
    if doc.algebra.r > 1:
        lines.append(f"rank {doc.algebra.r}")
    lines.append(f"order {doc.order.spec}")
    lines.append("---")
    lines.extend(print_operator(op, doc) for op in operators)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# run drivers


def _reduction_context(doc):
    """The reduction context of a document's generators under its order."""
    basis = buchberger(tuple(doc.generators), doc.order)
    return ReductionContext(doc.algebra, doc.order, basis)


def _module_presentation(doc):
    if doc.parametric:
        pres = ParametricPresentation(doc.algebra, tuple(doc.generators), doc.order)
        ext = build_extension(pres)
        if ext.algebra.n == 0:
            raise ParseError("cannot telescope with no surviving variables")
        order = grevlex(ext.algebra.n)
        basis = buchberger(ext.s_generators, order)
        ctx = ReductionContext(ext.algebra, order, basis)
        if doc.f is not None:
            raise ParseError("parametric documents take f = e1 implicitly")
        return DerivedPresentation(ctx, ext.l_matrix, embedded_unit(ext))
    if not doc.l_rows:
        raise ParseError("telescoping a module document needs L matrix rows")
    f = doc.f if doc.f is not None else (
        WeylOperator(doc.algebra, {doc.algebra.unit_monomial(1): QQ_T.one})
    )
    return DerivedPresentation(
        _reduction_context(doc), tuple(tuple(row) for row in doc.l_rows), f
    )


_TELESCOPER_DOC = OperatorDocument(Algebra(1, 1, QQ_T, dt=True), dtelim_order(1), ())


def telescoper_document(tele):
    """The telescoper as a one-operator document in t and d_t."""
    A = _TELESCOPER_DOC.algebra
    op = WeylOperator(A, {
        Monomial((0,), (i,), 1): QQ_T.from_poly(c) for i, c in enumerate(tele.coefficients)
    })
    return format_document(_TELESCOPER_DOC, [op])


def _metrics(tele, gb_seconds, telescope_seconds, extra=None):
    rec = {
        "order": tele.order,
        "degree": max(tele.degrees),
        "gb_seconds": round(gb_seconds, 3),
        "telescope_seconds": round(telescope_seconds, 3),
        "coefficients": [[str(Fraction(v)) for v in c] for c in tele.coefficients],
    }
    if extra:
        rec.update(extra)
    return rec


def solve_presentation(pres, mode, config, rho=1, degree_ceiling=40):
    """Telescope a presentation in `mode` ("direct" or "modular", the latter
    run with `config`); returns (telescoper, transcript, metrics), where the
    transcript is None in direct mode and metrics holds what the run adds
    to --metrics: the tape counts of ModularRun.replays in modular mode."""
    if mode == "direct":
        tele = telescope_direct(pres, rho=rho, degree_ceiling=degree_ceiling)
        return tele, None, {}
    if mode != "modular":
        raise ValueError(f"mode must be 'direct' or 'modular', not {mode!r}")
    run = telescope_modular(pres, rho=rho, config=config,
                            degree_ceiling=degree_ceiling)
    return (run.telescoper, "\n".join(run.transcript) + "\n",
            {"replays": run.replays})


def run_telescope(doc, mode, config, rho=1, degree_ceiling=40):
    """Drive telescoping on a parsed document; returns a report dict."""
    t0 = time.time()
    pres = _module_presentation(doc)
    t1 = time.time()
    tele, transcript, more = solve_presentation(pres, mode, config, rho,
                                                degree_ceiling)
    t2 = time.time()
    extra = {"mode": mode, "seed": config.seed, **more}
    return {
        "telescoper": tele,
        "document": telescoper_document(tele),
        "metrics": _metrics(tele, t1 - t0, t2 - t1, extra),
        "transcript": transcript,
    }


# ---------------------------------------------------------------------------
# subcommands


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _read_doc(path):
    return parse_document(_read_text(path))


def _write(path, content):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}")
    else:
        sys.stdout.write(content)


def _cmd_gb(args):
    doc = _read_doc(args.file)
    basis = buchberger(tuple(doc.generators), doc.order)
    _write(args.out, format_document(doc, basis, note="reduced Groebner basis"))
    return 0


def _eta_monomial(text, doc):
    """The monomial an --eta value names; anything else is a ParseError."""
    support = list(parse_operator(text, doc).support())
    if len(support) != 1:
        raise ParseError("--eta must be a single monomial")
    return support[0]


def _cmd_reduce(args):
    doc = _read_doc(args.file)
    ctx = _reduction_context(doc)
    target = parse_operator(args.target, doc)
    red, cert = reduced_form(target, ctx)
    if not cert.verifies(target - red):
        raise InconsistencyError("reduced-form certificate failed")
    lines = [f"reduced: {print_operator(red, doc)}"]
    if args.eta:
        eb = compute_eta_basis(ctx, _eta_monomial(args.eta, doc), certificate=False)
        out, _ = reduce_eta(red, ctx, eb)
        lines.append(f"reduced_eta: {print_operator(out, doc)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_eta_basis(args):
    doc = _read_doc(args.file)
    ctx = _reduction_context(doc)
    eb = compute_eta_basis(ctx, _eta_monomial(args.eta, doc), certificate=False)
    lines = [f"rows: {len(eb.rows)}"]
    lines += [f"row: {print_operator(r.op, doc)}" for r in eb.rows]
    lines += [f"tracer: {len(eb.tracer)} skipped"]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_confine(args):
    doc = _read_doc(args.file)
    pres = _module_presentation(doc)
    conf = confine(pres.ctx, pres.L, pres.f, rho=args.rho)
    # flattened slots keep the source variable names (t is dropped)
    out_doc = OperatorDocument(pres.ctx.algebra, pres.ctx.order, doc.variables)

    def unit(m):
        return WeylOperator(pres.ctx.algebra, {m: QQ_T.one})

    lines = [f"eta: {print_operator(unit(conf.eta), out_doc)}"]
    lines += [f"basis: {print_operator(unit(m), out_doc)}" for m in conf.B]
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _modular_config(args):
    """A run subcommand's ModularConfig, built (and so checked) in either mode.

    Without --seed the seed is WEYLRED_SEED, or 0 when that is unset."""
    seed = args.seed
    if seed is None:
        text = os.environ.get("WEYLRED_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"WEYLRED_SEED must be an integer, got {text!r}") from None
    return ModularConfig(seed=seed, max_points=args.point_budget)


def _cmd_telescope(args):
    doc = _read_doc(args.file)
    config = _modular_config(args)
    report = run_telescope(doc, args.mode, config, args.rho, args.degree_ceiling)
    _write(args.out, report["document"])
    if args.metrics:
        _write(args.metrics, json.dumps(report["metrics"], indent=2) + "\n")
    if args.transcript and report["transcript"] is not None:
        _write(args.transcript, report["transcript"])
    return 0


def _parse_fg_document(path, k):
    """Read a user-supplied (f, g) pair: lines 'f <expr>' and 'g <expr>'
    over variables p1..pk (no derivatives, no t)."""
    text = _read_text(path)
    doc = parse_document(
        "vars " + " ".join(f"p{i}" for i in range(1, k + 1)) + "\n---\n"
    )
    polys = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key not in ("f", "g"):
            raise ParseError("expected 'f <poly>' or 'g <poly>'", line=lineno)
        op = parse_operator(rest, doc)
        poly = {}
        for m, c in op.terms.items():
            if any(m.beta):
                raise ParseError("f and g must be polynomials in p1..pk",
                                 line=lineno)
            num, den = c
            if len(num) > 1 or len(den) > 1:
                raise ParseError("f and g must have rational coefficients",
                                 line=lineno)
            poly[m.alpha] = Fraction(num[0], den[0]) if num else Fraction(0)
        polys[key] = poly
    if "f" not in polys or "g" not in polys:
        raise ParseError("fg file needs both an 'f' and a 'g' line")
    return polys["f"], polys["g"]


def _cmd_kregular(args):
    config = _modular_config(args)
    t0 = time.time()
    if args.fg:
        f, g = _parse_fg_document(args.fg, args.k)
        pres = scalar_product_presentation(scalar_product_input(f, g, args.k))
    else:
        f, g = model_polynomials(args.k)
        inp, pres = regular_presentation(args.k)
    t1 = time.time()
    mode = "modular" if args.modular else "direct"
    tele, _, more = solve_presentation(pres, mode, config, args.rho)
    t2 = time.time()
    lines = [telescoper_document(tele).rstrip("\n")]
    metrics = _metrics(tele, t1 - t0, t2 - t1,
                       {"mode": mode, "seed": config.seed, "k": args.k, **more})
    status = 0
    if args.series_check is not None:
        n_terms = max(args.series_check, metrics["order"] + metrics["degree"] + 1)
        series = scalar_product_series(f, g, n_terms)
        ok = verify_ode_on_series(tele, series)
        lines.append(f"series-check N={n_terms}: {'ok' if ok else 'FAILED'}")
        status = status or (0 if ok else 1)
    if args.count_check is not None:
        n = args.count_check
        series = scalar_product_series(f, g, n)
        want = count_regular_graphs(args.k, n)
        got = series[n] * factorial(n)
        ok = got == want
        lines.append(f"count-check n={n}: series {got} vs count {want}: "
                     f"{'ok' if ok else 'FAILED'}")
        status = status or (0 if ok else 1)
    _write(args.out, "\n".join(lines) + "\n")
    if args.metrics:
        _write(args.metrics, json.dumps(metrics, indent=2) + "\n")
    return status


def _cmd_verify_series(args):
    doc = _read_doc(args.ode)
    if not doc.parametric or doc.algebra.n != 1:
        raise ParseError("ODE document must declare 'vars t' only")
    if len(doc.generators) != 1:
        raise ParseError("ODE document must contain exactly one operator")
    op = doc.generators[0]
    if op.is_zero():
        raise ParseError("ODE operator is zero")
    order = max(m.beta[0] for m in op.terms)
    coeffs = []
    for i in range(order + 1):
        poly = ()
        for m, c in op.terms.items():
            if m.beta[0] == i:
                num, den = c
                if len(den) > 1:
                    raise ParseError("ODE coefficients must be polynomials in t")
                poly = tuple(Fraction(x, den[0]) for x in num)
        coeffs.append(tuple(poly))
    vals = _read_text(args.series).split()
    try:
        series = tuple(Fraction(v) for v in vals)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad series value: {exc}")
    tele = Telescoper(tuple(coeffs))
    ok = verify_ode_on_series(tele, series)
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    import argparse  # here, so that importing this module does not load it

    parser = argparse.ArgumentParser(
        prog="weylred",
        description="reduction-based creative telescoping for operator algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("gb", help="reduced Groebner basis of a document's generators")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=_cmd_gb)

    p = sub.add_parser("reduce", help="reduced form [a] (and [a]_eta with --eta)")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--eta", default=None)
    common(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("eta-basis", help="echelon basis of confined exact elements")
    p.add_argument("file")
    p.add_argument("--eta", required=True)
    common(p)
    p.set_defaults(fn=_cmd_eta_basis)

    p = sub.add_parser("confine", help="confinement pair (eta, B) for a module document")
    p.add_argument("file")
    p.add_argument("--rho", type=int, default=1)
    common(p)
    p.set_defaults(fn=_cmd_confine)

    p = sub.add_parser("telescope", help="telescoper for a module or parametric document")
    p.add_argument("file")
    p.add_argument("--mode", choices=("direct", "modular"), default="direct")
    p.add_argument("--rho", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--point-budget", type=int, default=ModularConfig.max_points)
    p.add_argument("--degree-ceiling", type=int, default=40)
    p.add_argument("--metrics", default=None)
    p.add_argument("--transcript", default=None)
    common(p)
    p.set_defaults(fn=_cmd_telescope)

    p = sub.add_parser("kregular", help="ODE for the k-regular graph generating function")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--fg", default=None)
    p.add_argument("--modular", action="store_true")
    p.add_argument("--rho", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--point-budget", type=int, default=ModularConfig.max_points)
    p.add_argument("--series-check", type=int, default=None)
    p.add_argument("--count-check", type=int, default=None)
    p.add_argument("--metrics", default=None)
    common(p)
    p.set_defaults(fn=_cmd_kregular)

    p = sub.add_parser("verify-series", help="check an ODE against a series file")
    p.add_argument("ode")
    p.add_argument("series")
    p.set_defaults(fn=_cmd_verify_series)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhaustedError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except InconsistencyError as exc:
        print(f"inconsistent result: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
