"""Nonlinearity and exact-solution expressions.

The grammar accepted by :func:`parse`:

* numbers: decimal and scientific (``0.5``, ``1e-3``, ``.25``)
* variables: ``x``, ``y`` (the solution), ``yp`` (its first derivative)
* operators ``+ - * / ^`` and parentheses; functions ``exp(...)``, ``ln(...)``
* precedence, tightest first: unary minus, ``^``, ``*`` ``/``, ``+`` ``-``;
  ``*`` ``/`` and ``+`` ``-`` associate to the left
* the right side of ``^`` must be a numeric literal (optionally negated).
  It may be any real number when the base is the bare variable ``x``;
  otherwise it must be an integer.

Expressions evaluate over floats and grids (:func:`eval_real`: one numpy
operation per node, so grid and scalar calls agree bit for bit, each exp, ln
or power within 1 ulp of the C library) and over the decomposition parameter
(written ``lam``): injecting the solution components as
``y_0 + y_1*lam + y_2*lam^2 + ...`` makes the coefficient of ``lam^k`` of f the
k-th decomposition polynomial A_k.  A :class:`Tape` lays the expression DAG out
once, and each step adds coefficient k to every node by one Taylor-coefficient
recurrence: coefficient k of the result from coefficients 0..k of the operands
and 0..k-1 of the result.  For the decomposition polynomials these are Duan's
recurrences (Duan, "Convenient analytic recurrence algorithms for the Adomian
polynomials", 2011); see also Griewank & Walther, *Evaluating Derivatives*,
ch. 13.  Each ``*_coeff`` recurrence is one :func:`~.series.combine` call that
forms and sums its Cauchy products.  exp, ln and division expand around the
order-zero coefficient, which therefore has to be a constant; the solver's
first component always is.  Integer powers are products by repeated squaring.
ASTs are immutable and compare structurally, so equal subtrees share one tape node.

An operator's symbol and precedence live only in ``_INFIX`` (binary operators by
level) and ``_FUNCTIONS``; the parser, printer and both evaluators read them.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar, Union, get_args

import numpy as np

from . import series as gps
from .errors import (
    ComputeError,
    DivisionByZero,
    DivisionByZeroSeries,
    DomainError,
    LogOfNonPositive,
    NonConstantBasePoint,
    NonFiniteTerm,
    ParseError,
    UnsupportedPower,
)
from .series import GPSeries


# --- AST ----------------------------------------------------------------------

@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x", "y" or "yp"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class PowInt:
    base: "Expr"
    power: int


@dataclass(frozen=True)
class PowXReal:
    """The bare variable x raised to an arbitrary real exponent."""

    exponent: float


@dataclass(frozen=True)
class Exp:
    arg: "Expr"


@dataclass(frozen=True)
class Ln:
    arg: "Expr"


Expr = Union[Constant, Var, Neg, Add, Sub, Mul, Div, PowInt, PowXReal, Exp, Ln]
_NODES = get_args(Expr)  # a tuple, which isinstance checks far faster than the Union

X = Var("x")
Y = Var("y")
YP = Var("yp")

# The binary operators by precedence level, loosest first; each level
# associates to the left.
_INFIX = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})
_FUNCTIONS = {"exp": Exp, "ln": Ln}


def _operands(e: Expr) -> list[Expr]:
    """The node's subexpressions, in field order."""
    if not isinstance(e, _NODES):
        raise TypeError(f"not an expression node: {e!r}")
    return [v for v in vars(e).values() if isinstance(v, _NODES)]


# --- parsing --------------------------------------------------------------------

# The deepest nesting of parentheses and function calls, and the deepest AST,
# that parse accepts: the parser and every tree walker recurse once per level.
MAX_DEPTH = 100

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.nesting = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.source[self.pos] if self.pos < len(self.source) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _number(self) -> float:
        self._skip_ws()
        m = _NUMBER_RE.match(self.source, self.pos)
        if m is None:
            raise ParseError("expected a number", self.pos)
        value = float(m.group())
        if not math.isfinite(value):
            raise ParseError(f"number {m.group()!r} is out of range", self.pos)
        self.pos = m.end()
        return value

    def expression(self, level: int = 0) -> Expr:
        """Operators of ``_INFIX[level]`` and every tighter level, left to right."""
        if level == len(_INFIX):
            return self.power()
        operators = _INFIX[level]
        node = self.expression(level + 1)
        while (op := self._peek()) in operators:
            self.pos += 1
            node = operators[op](node, self.expression(level + 1))
        return node

    def power(self) -> Expr:
        base = self.unary()
        if self._peek() != "^":
            return base
        self.pos += 1
        self._skip_ws()
        exp_pos = self.pos
        negate = False
        if self._peek() == "-":
            negate = True
            self.pos += 1
        value = self._number()
        if negate:
            value = -value
        if base == X:
            return PowXReal(value)
        if value != round(value):
            raise UnsupportedPower(
                f"exponent {value:g} requires the base to be the bare variable x",
                exp_pos,
            )
        return PowInt(base, int(round(value)))

    def unary(self) -> Expr:
        negations = 0
        while self._peek() == "-":
            self.pos += 1
            negations += 1
        node = self.atom()
        for _ in range(negations):
            node = Neg(node)
        return node

    def _parenthesized(self) -> Expr:
        self._expect("(")
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"parentheses nest deeper than {MAX_DEPTH} levels", self.pos)
        node = self.expression()
        self._expect(")")
        self.nesting -= 1
        return node

    def atom(self) -> Expr:
        ch = self._peek()
        if ch == "(":
            return self._parenthesized()
        if ch.isdigit() or ch == ".":
            return Constant(self._number())
        m = _IDENT_RE.match(self.source, self.pos)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}" if ch else "unexpected end of input", self.pos)
        name = m.group()
        start = self.pos
        self.pos = m.end()
        if name in ("x", "y", "yp"):
            return Var(name)
        if name in _FUNCTIONS:
            return _FUNCTIONS[name](self._parenthesized())
        raise ParseError(f"unknown identifier {name!r}", start)


def parse(source: str) -> Expr:
    """Parse expression source text into an AST.

    Raises:
        ParseError: on any grammar violation or nesting past ``MAX_DEPTH``, with a position.
        UnsupportedPower: non-integer exponent on a base other than ``x``.
    """
    p = _Parser(source)
    node = p.expression()
    p._skip_ws()
    if p.pos != len(source):
        raise ParseError(f"trailing input {source[p.pos:]!r}", p.pos)
    depth, level = 0, [node]
    while level:  # level by level, so that a deep AST cannot overflow the stack
        depth += 1
        level = [c for e in level for c in _operands(e)]
    if depth > MAX_DEPTH:
        raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
    return node


# --- printing -------------------------------------------------------------------

# Binary node type -> (its text, its precedence level); the loosest level is spaced.
_BINARY = {node: (f" {symbol} " if level == 1 else symbol, level)
           for level, nodes in enumerate(_INFIX, 1) for symbol, node in nodes.items()}
_FUNCTION_NAMES = {node: name for name, node in _FUNCTIONS.items()}
_POW, _UNARY, _ATOM = range(len(_INFIX) + 1, len(_INFIX) + 4)


def _fmt_at(e: Expr, level: int) -> str:
    """e's text, parenthesised when it binds looser than ``level``."""
    text, own = _fmt(e)
    return text if own >= level else f"({text})"


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Constant):
        if e.value < 0:
            return f"-{-e.value!r}", _UNARY
        return repr(e.value), _ATOM
    if isinstance(e, Var):
        return e.name, _ATOM
    if isinstance(e, Neg):
        return f"-{_fmt_at(e.arg, _UNARY)}", _UNARY
    if type(e) in _BINARY:  # left-associative: a right operand at the same level is wrapped
        op, level = _BINARY[type(e)]
        return f"{_fmt_at(e.left, level)}{op}{_fmt_at(e.right, level + 1)}", level
    if isinstance(e, PowInt):
        return f"{_fmt_at(e.base, _UNARY)}^{e.power}", _POW
    if isinstance(e, PowXReal):
        return f"x^{e.exponent!r}", _POW
    if type(e) in _FUNCTION_NAMES:
        return f"{_FUNCTION_NAMES[type(e)]}({_fmt(e.arg)[0]})", _ATOM
    raise TypeError(f"not an expression node: {e!r}")


def to_source(e: Expr) -> str:
    """Render an AST back to grammar-conformant source text."""
    return _fmt(e)[0]


def free_vars(e: Expr) -> set[str]:
    """The set of variable names ({'x', 'y', 'yp'}) the expression mentions."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, PowXReal):
        return {"x"}
    return set().union(*map(free_vars, _operands(e)))


# --- evaluation over floats -------------------------------------------------------

_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _checked(e: Expr, ufunc, operand, undefined=False, error=None):
    """``ufunc(operand)`` for node e; raises ``error(v)`` at the first v where ``undefined``
    holds, and NonFiniteTerm where the operand is finite and the value is not."""
    if np.any(undefined):
        raise error(float(np.asarray(operand)[np.asarray(undefined)][0]))
    with np.errstate(over="ignore"):
        value = ufunc(operand)
    if np.any(np.isfinite(operand) & ~np.isfinite(value)):
        raise NonFiniteTerm(f"{to_source(e)!r} overflows")
    return value


def eval_real(e: Expr, x, y=0.0, yp=0.0):
    """IEEE double evaluation at the point (x, y, yp), or at every point of a grid.

    x, y and yp are floats or numpy arrays of one shape; a float broadcasts.
    Every node is one numpy operation, so a grid call gives bit for bit the
    values of scalar calls at its points, and exp, ln and powers are within
    1 ulp of the C library's.

    Raises:
        DivisionByZero, LogOfNonPositive, DomainError: when any point
            violates the domain; the message names the first offending value.
        NonFiniteTerm: exp or a power overflows; the message names it.
    """
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Var):
        return {"x": x, "y": y, "yp": yp}[e.name]
    if isinstance(e, Neg):
        return -eval_real(e.arg, x, y, yp)
    if type(e) in _ARITHMETIC:
        return _ARITHMETIC[type(e)](eval_real(e.left, x, y, yp), eval_real(e.right, x, y, yp))
    if isinstance(e, Div):
        denom = eval_real(e.right, x, y, yp)
        if np.any(denom == 0.0):
            raise DivisionByZero(f"in {to_source(e)!r}")
        return eval_real(e.left, x, y, yp) / denom
    if isinstance(e, PowInt):
        base = eval_real(e.base, x, y, yp)
        return _checked(e, lambda b: np.power(b, float(e.power)), base,
                        (base == 0.0) & (e.power < 0),
                        lambda t: DivisionByZero(f"0^{e.power} in {to_source(e)!r}"))
    if isinstance(e, PowXReal):
        p = e.exponent
        return _checked(e, lambda t: np.power(t, p), x,
                        (x < 0.0) & (p != round(p)) | (x == 0.0) & (p < 0.0),
                        lambda t: DomainError(f"x^{p:g} undefined at x = {t:g}"))
    if isinstance(e, Exp):
        return _checked(e, np.exp, eval_real(e.arg, x, y, yp))
    if isinstance(e, Ln):
        arg = eval_real(e.arg, x, y, yp)
        return _checked(e, np.log, arg, arg <= 0.0,
                        lambda t: LogOfNonPositive(f"ln({t:g}) in {to_source(e)!r}"))
    raise TypeError(f"not an expression node: {e!r}")


# --- evaluation over the decomposition ring ----------------------------------------

_ONE = Constant(1.0)
_T = TypeVar("_T")
_Coeffs = Sequence[GPSeries]

# A rule takes the step k, the node's coefficients 0..k-1 and its operands'
# coefficients (at least k+1 each), and returns the node's coefficient k.
_Rule = Callable[..., GPSeries]


def base_point(c0: GPSeries) -> float:
    """The constant value of an order-zero coefficient.

    Raises:
        NonConstantBasePoint: if that coefficient is not a constant series.
    """
    if c0.is_zero:
        return 0.0
    if len(c0) == 1 and abs(c0.exponents[0]) <= gps.EXPONENT_MERGE_TOL:
        return float(c0.coeffs[0])
    raise NonConstantBasePoint(
        f"order-zero coefficient is not constant: {gps.format_series(c0)}"
    )


def linear_coeff(*weights: float) -> _Rule:
    """The rule of a fixed weighted sum of the operands, such as a+b, a-b or -a:
    coefficient k is that weighted sum of the operands' coefficients k."""

    def rule(k: int, out: _Coeffs, *operands: _Coeffs) -> GPSeries:
        return gps.combine(zip(weights, [a[k] for a in operands]))

    return rule


def mul_coeff(k: int, out: _Coeffs, a: _Coeffs, b: _Coeffs) -> GPSeries:
    """Coefficient k of a*b: the Cauchy sum of a_i * b_(k-i)."""
    return gps.combine((), ((1.0, a[i], b[k - i]) for i in range(k + 1)))


def div_coeff(k: int, out: _Coeffs, a: _Coeffs, b: _Coeffs) -> GPSeries:
    """Coefficient k of a/b: q_k = (a_k - sum_{j=1..k} b_j q_(k-j)) / b_0.

    Raises:
        NonConstantBasePoint, DivisionByZeroSeries: b_0 not a nonzero constant.
    """
    b0 = base_point(b[0])
    if b0 == 0.0:
        raise DivisionByZeroSeries("reciprocal of a ring element with zero base point")
    inv = 1.0 / b0
    return gps.combine(((inv, a[k]),), ((-inv, b[j], out[k - j]) for j in range(1, k + 1)))


def exp_coeff(k: int, out: _Coeffs, a: _Coeffs) -> GPSeries:
    """Coefficient k of exp(a): E_0 = exp(a_0), E_k = (1/k) sum_{j=1..k} j a_j E_(k-j).

    Raises:
        NonConstantBasePoint: a_0 not a constant.
        NonFiniteTerm: exp(a_0) overflows.
    """
    if k == 0:
        a0 = base_point(a[0])
        try:
            return GPSeries.constant(math.exp(a0))
        except OverflowError:
            raise NonFiniteTerm(f"exp({a0!r}) overflows") from None
    return gps.combine((), ((j / k, a[j], out[k - j]) for j in range(1, k + 1)))


def ln_coeff(k: int, out: _Coeffs, a: _Coeffs) -> GPSeries:
    """Coefficient k of ln(a): L_0 = ln(a_0),
    L_k = (a_k - (1/k) sum_{j=1..k-1} j L_j a_(k-j)) / a_0.

    Raises:
        NonConstantBasePoint, LogOfNonPositive: a_0 not a positive constant.
    """
    a0 = base_point(a[0])
    if a0 <= 0.0:
        raise LogOfNonPositive(f"ln of base point {a0:g}")
    if k == 0:
        return GPSeries.constant(math.log(a0))
    return gps.combine(
        ((1.0 / a0, a[k]),), ((-j / (k * a0), out[j], a[k - j]) for j in range(1, k))
    )


def binary_power(base: _T, p: int, mul: Callable[[_T, _T], _T]) -> _T:
    """base^p for p >= 1 by repeated squaring, with ``mul`` as the product."""
    result = None
    while True:
        if p & 1:
            result = base if result is None else mul(result, base)
        p >>= 1
        if not p:
            return result
        base = mul(base, base)


def _seed(value: GPSeries) -> _Rule:
    """Rule of a node that is ``value`` at parameter order zero and 0 above it."""
    return lambda k, out: value if k == 0 else GPSeries.zero()


_RULES = {
    Neg: linear_coeff(-1.0), Add: linear_coeff(1.0, 1.0),
    Sub: linear_coeff(1.0, -1.0), Mul: mul_coeff, Div: div_coeff,
    Exp: exp_coeff, Ln: ln_coeff,
}


def _annotated(err: ComputeError, node: Expr) -> ComputeError:
    return type(err)(f"{err} [in {to_source(node)!r}]")


class Tape:
    """An expression laid out for incremental evaluation over the decomposition ring.

    The expression DAG is flattened once, operands before their users, and
    equal subtrees (ASTs compare by value) share one node.  Every node keeps
    the coefficients of the decomposition parameter computed so far.
    :meth:`extend` appends coefficient k to every node, by one rule each, so
    the k-th decomposition polynomial costs one new coefficient per node
    rather than a recomposition of the whole expression.
    """

    def __init__(self, e: Expr):
        # Columns 0 and 1 are the inputs y and y'; each later one is a node.
        self._columns: list[list[GPSeries]] = [[], []]
        self._program: list[tuple[_Rule, tuple[int, ...], Expr | None]] = []
        self._nodes: dict[tuple, int] = {(Var, ("y",)): 0, (Var, ("yp",)): 1}
        self._root = self._emit(e)

    def _push(
        self, rule: _Rule, operands: tuple[int, ...], annotate: Expr | None = None
    ) -> int:
        self._program.append((rule, operands, annotate))
        self._columns.append([])
        return len(self._columns) - 1

    def _emit(self, e: Expr) -> int:
        # Keyed on the operands' nodes, not the subtree, so a lookup costs the
        # same at any depth; equal subtrees still meet in one node.
        fields = tuple(self._emit(v) if isinstance(v, _NODES) else v for v in vars(e).values())
        key = (type(e), fields)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = self._lay_out(e, fields)
        return node

    def _lay_out(self, e: Expr, fields: tuple) -> int:  # fields: operand nodes or literal
        if isinstance(e, Constant):
            return self._push(_seed(GPSeries.constant(e.value)), ())
        if isinstance(e, Var):  # y and yp are preset inputs, so this is x
            return self._push(_seed(GPSeries.monomial(1.0, 1.0)), ())
        if isinstance(e, PowXReal):
            return self._push(_seed(GPSeries.monomial(1.0, e.exponent)), ())
        if type(e) in _RULES:
            named = isinstance(e, (Div, Exp, Ln))  # a node with a domain names itself in errors
            return self._push(_RULES[type(e)], fields, e if named else None)
        if isinstance(e, PowInt):
            base = fields[0]
            if e.power < 0:
                base = self._push(div_coeff, (self._emit(_ONE), base), e)
            if e.power == 0:
                return self._emit(_ONE)
            return binary_power(
                base, abs(e.power), lambda a, b: self._push(mul_coeff, (a, b), e)
            )
        raise TypeError(f"not an expression node: {e!r}")

    def extend(self, y_k: GPSeries, yp_k: GPSeries) -> GPSeries:
        """Append coefficient k, given the k-th coefficients of y and y', to every node.

        Returns the root's coefficient k: the expression's k-th decomposition
        polynomial.  A failed call leaves the tape unusable.

        Raises:
            ComputeError: from the recurrences.  Errors at exp, ln, division
                and integer-power nodes name that subexpression.
        """
        columns = self._columns
        k = len(columns[0])
        columns[0].append(y_k)
        columns[1].append(yp_k)
        for out, (rule, operands, node) in enumerate(self._program, 2):
            try:
                value = rule(k, columns[out], *[columns[i] for i in operands])
            except ComputeError as err:
                if node is None:
                    raise
                raise _annotated(err, node) from err
            columns[out].append(value)
        return columns[self._root][k]

