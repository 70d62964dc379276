"""Nonlinearity and exact-solution expressions.

The grammar accepted by :func:`parse`:

* numbers: decimal and scientific (``0.5``, ``1e-3``, ``.25``) in the ASCII digits 0-9; minus
  signs before a number, bare or parenthesized (``--2``, ``-(3)``), make one signed ``Constant``
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
forms and sums its Cauchy products (by x or x^p, one, which it keeps in order).  exp,
ln and division expand around the order-zero coefficient, so it has to be a constant;
the solver's first component always is.  Integer powers are products by repeated squaring.
ASTs are immutable and compare structurally, so equal subtrees share one tape node.
Every reader but the parser and ``repr`` reads one iterative layout of the AST, its distinct node
objects operands first (a subtree object that several parents share is read once), kept on the tree.

An operator's symbol and precedence live only in ``_INFIX`` (binary operators by
level) and ``_FUNCTIONS``; the parser and the printer read them.
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
    InvalidProblem,
    LogOfNonPositive,
    NonConstantBasePoint,
    NonFiniteTerm,
    ParseError,
    UnsupportedPower,
)
from .series import GPSeries


# --- AST ----------------------------------------------------------------------

class _Node:
    """An AST node: ``==`` and ``hash`` read its canonical shape; ``repr`` writes each path."""

    __slots__ = ("_laid_out",)  # its layout but its own entry, once walked: outside its fields

    def __getstate__(self) -> dict:  # the fields alone: a copy or a pickle is laid out again
        return self.__dict__

    def _shape(self) -> tuple:
        """(type, operand ids, literal) of each distinct subtree value, an id its place here."""
        ids, keys = [], {}  # ids: layout slot -> its id; keys: (type, operand ids, literal) -> id
        for node, operands, literal in _layout(self):
            key = (type(node), tuple([ids[i] for i in operands]), literal)
            ids.append(keys.setdefault(key, len(keys)))
        return tuple(keys)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash(self._shape())


@dataclass(frozen=True, eq=False)
class Constant(_Node):
    value: float


@dataclass(frozen=True, eq=False)
class Var(_Node):
    name: str  # "x", "y" or "yp"


@dataclass(frozen=True, eq=False)
class Neg(_Node):
    arg: "Expr"


@dataclass(frozen=True, eq=False)
class Add(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Sub(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Mul(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class Div(_Node):
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False)
class PowInt(_Node):
    base: "Expr"
    power: int


@dataclass(frozen=True, eq=False)
class PowXReal(_Node):
    """The bare variable x raised to an arbitrary real exponent."""

    exponent: float


@dataclass(frozen=True, eq=False)
class Exp(_Node):
    arg: "Expr"


@dataclass(frozen=True, eq=False)
class Ln(_Node):
    arg: "Expr"


Expr = Union[Constant, Var, Neg, Add, Sub, Mul, Div, PowInt, PowXReal, Exp, Ln]
_NODES = get_args(Expr)

X = Var("x")
Y = Var("y")
YP = Var("yp")

# The binary operators by precedence level, loosest first; each level
# associates to the left.
_INFIX = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})
_FUNCTIONS = {"exp": Exp, "ln": Ln}


_KINDS, _LITERAL = frozenset(_NODES), frozenset({Constant, Var, PowXReal, PowInt})
_LAID_OUT = object()
Layout = list[tuple[Expr, tuple[int, ...], object]]  # its entries kept on the tree: read only


def _layout(e: Expr) -> Layout:
    """e's distinct node objects, by ``id``, in post-order (operands first, left first), each as
    (node, its operands' slots, the last field of a ``_LITERAL`` node or None); one walk per e,
    kept on e but for e's own entry, rebuilt at each read, so that no tree refers to itself."""
    if (kept := getattr(e, "_laid_out", None)) is not None:
        return [*kept[0], (e, *kept[1])]
    layout, slots, stack = [], {}, [e]  # slots: id(node) -> its slot
    while stack:
        node = stack.pop()
        if node is _LAID_OUT:  # the node under this mark has its operands laid out
            node, fields, literal = stack.pop()
            slots[id(node)] = len(layout)
            layout.append((node, tuple([slots[id(f)] for f in fields]), literal))
        elif id(node) not in slots:
            if type(node) not in _KINDS:
                raise TypeError(f"not an expression node: {node!r}")
            fields, literal = tuple(node.__dict__.values()), None
            if type(node) in _LITERAL:
                fields, literal = fields[:-1], fields[-1]
            if fields:
                stack += ((node, fields, literal), _LAID_OUT, *reversed(fields))
            else:
                slots[id(node)] = len(layout)
                layout.append((node, (), literal))
    object.__setattr__(e, "_laid_out", (layout[:-1], layout[-1][1:]))
    return layout


# --- parsing --------------------------------------------------------------------

# The deepest nesting of parentheses and function calls, and the deepest AST, that
# parse, Problem and max_error accept: the parser recurses once per nesting level.
MAX_DEPTH = 100

# A token, its kind the group it matched: 1 a number, 2 a name, 3 any other character but
# whitespace (str.isspace), which no token starts with, so that finditer skips it.
_TOKEN_RE = re.compile(
    r"((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)|([A-Za-z_][A-Za-z_0-9]*)|(\S)")
_NUMBER, _NAME = 1, 2


def parse(source: str) -> Expr:
    """Parse expression source text into an AST.

    Raises:
        ParseError: on any grammar violation or nesting past ``MAX_DEPTH``, with a position;
            its subclass UnsupportedPower for a non-integer exponent on a base other than ``x``.
    """
    # (kind, text, position) of each token, the next one last, over an end token of kind 0
    tokens = [(0, "", len(source)),
              *reversed([(m.lastindex, m[0], m.start()) for m in _TOKEN_RE.finditer(source)])]
    nesting = 0

    def take(text: str) -> bool:  # whether the next token is text; if so, it is read
        return tokens[-1][1] == text and bool(tokens.pop())

    def expect(text: str) -> None:
        if not take(text):
            raise ParseError(f"expected {text!r}", tokens[-1][2])

    def number() -> float:
        kind, text, position = tokens.pop()
        if kind != _NUMBER:
            raise ParseError("expected a number", position)
        if not math.isfinite(value := float(text)):
            raise ParseError(f"number {text!r} is out of range", position)
        return value

    def expression(level: int = 0) -> Expr:
        """Operators of ``_INFIX[level]`` and every tighter level, left to right."""
        if level == len(_INFIX):
            return power()
        node, operators = expression(level + 1), _INFIX[level]
        while tokens[-1][1] in operators:
            node = operators[tokens.pop()[1]](node, expression(level + 1))
        return node

    def power() -> Expr:
        base = unary()
        if not take("^"):
            return base
        position = tokens[-1][2]
        value = -number() if take("-") else number()
        if type(base) is Var and base.name == "x":
            return PowXReal(value)
        if value != round(value):
            raise UnsupportedPower(
                f"exponent {value:g} requires the base to be the bare variable x", position)
        return PowInt(base, int(round(value)))

    def unary() -> Expr:
        negations = 0
        while take("-"):
            negations += 1
        node = atom()
        for _ in range(negations):  # a negated number is one literal
            node = Constant(-node.value) if type(node) is Constant else Neg(node)
        return node

    def parenthesized() -> Expr:
        nonlocal nesting
        position = tokens[-1][2] + 1
        expect("(")
        nesting += 1
        if nesting > MAX_DEPTH:
            raise ParseError(f"parentheses nest deeper than {MAX_DEPTH} levels", position)
        node = expression()
        expect(")")
        nesting -= 1
        return node

    def atom() -> Expr:
        kind, text, position = tokens[-1]
        if text == "(":
            return parenthesized()
        if kind == _NUMBER or text.isdigit() or text == ".":  # "." or a digit [0-9] refuses
            return Constant(number())
        tokens.pop()
        if kind != _NAME:
            raise ParseError(f"unexpected character {text!r}" if text else "unexpected end of input",
                             position)
        if text in ("x", "y", "yp"):
            return Var(text)
        if text in _FUNCTIONS:
            return _FUNCTIONS[text](parenthesized())
        raise ParseError(f"unknown identifier {text!r}", position)

    node = expression()
    if (position := tokens[-1][2]) != len(source):
        raise ParseError(f"trailing input {source[position:]!r}", position)
    check_expr(node, {"x", "y", "yp"}, lambda message: ParseError(message, 0), "expression")
    return node


def check_expr(e: Expr, allowed: set[str], error: Callable[[str], Exception], name: str) -> None:
    """Raise ``error(message)`` if e nests deeper than ``MAX_DEPTH`` levels, else if a literal fails
    ``series.check_real`` or a power is not integral, else if a variable is not in ``allowed``."""
    layout, depths = _layout(e), []
    for _, operands, _ in layout:
        depths.append(1 + max([depths[i] for i in operands]) if operands else 1)
    if depths[-1] > MAX_DEPTH:
        raise error(f"{name} nests deeper than {MAX_DEPTH} levels")
    for node, _, literal in layout:
        if isinstance(node, (Constant, PowInt, PowXReal)):
            value = gps.check_real(literal, f"a literal in {name}", error)
            if isinstance(node, PowInt) and value % 1 != 0:
                raise error(f"{name} has the non-integral power {value!r}")
    names = {name if type(n) is Var else "x" for n, _, name in layout if type(n) in (Var, PowXReal)}
    if others := names - allowed:
        raise error(f"{name} mentions {sorted(others)}; only {sorted(allowed)} allowed")


# --- printing -------------------------------------------------------------------

# Binary node type -> (its text, its precedence level); the loosest level is spaced.
_BINARY = {node: (f" {symbol} " if level == 1 else symbol, level)
           for level, nodes in enumerate(_INFIX, 1) for symbol, node in nodes.items()}
_FUNCTION_NAMES = {node: name for name, node in _FUNCTIONS.items()}
_POW, _UNARY, _ATOM = range(len(_INFIX) + 1, len(_INFIX) + 4)

# The most characters of a subexpression that an error message quotes, and of the text
# that to_source writes: a subtree that several parents share is written once per path.
MESSAGE_SOURCE_CHARS = 500
MAX_SOURCE_CHARS = 1_000_000


def _number(literal) -> float:
    """A literal of a tree that no ``check_expr`` may have seen, read by ``series.check_real``."""
    return gps.check_real(literal, "a literal in expression", InvalidProblem)


def _parts(e: Expr, operands: tuple[int, ...], literal) -> tuple[int, list]:
    """e's precedence level and its text: strings and (operand slot, level to print it at) pairs."""
    if isinstance(e, Constant):  # one literal, signed: a negative one is read back as one
        return _ATOM, [repr(_number(literal))]
    if isinstance(e, Var):
        return _ATOM, [literal]
    if isinstance(e, Neg):
        return _UNARY, ["-", (operands[0], _UNARY)]
    if type(e) in _BINARY:  # left-associative: a right operand at the same level is wrapped
        op, level = _BINARY[type(e)]
        return level, [(operands[0], level), op, (operands[1], level + 1)]
    if isinstance(e, PowInt):
        return _POW, [(operands[0], _UNARY), f"^{int(_number(literal))}"]
    if isinstance(e, PowXReal):
        return _POW, [f"x^{_number(literal)!r}"]
    return _ATOM, [f"{_FUNCTION_NAMES[type(e)]}(", (operands[0], 0), ")"]


def _source(e: Expr, room: int) -> str:
    """e's source text, written until it passes ``room`` characters, so a longer text is
    cut there.  The walk is iterative, and its time is linear in the text it writes."""
    slots = [_parts(*slot) for slot in _layout(e)]
    pieces, length, stack = [], 0, [(len(slots) - 1, 0)]  # stack: texts and (slot, level) pairs
    while stack and length <= room:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
            length += len(item)
        else:
            own, parts = slots[item[0]]
            stack += reversed(parts) if own >= item[1] else [")", *reversed(parts), "("]
    return "".join(pieces)


def to_source(e: Expr) -> str:
    """Render an AST back to grammar-conformant source text.

    Raises:
        InvalidProblem: a literal fails ``check_real``, or the text passes ``MAX_SOURCE_CHARS``.
    """
    text = _source(e, MAX_SOURCE_CHARS)
    if len(text) > MAX_SOURCE_CHARS:
        raise InvalidProblem(f"expression text is longer than {MAX_SOURCE_CHARS} characters")
    return text


def _named(e: Expr) -> str:
    """e's source, quoted for an error message and cut past ``MESSAGE_SOURCE_CHARS``."""
    text = _source(e, MESSAGE_SOURCE_CHARS)
    if len(text) > MESSAGE_SOURCE_CHARS:
        text = text[:MESSAGE_SOURCE_CHARS - 3] + "..."
    return repr(text)


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
        raise NonFiniteTerm(f"{_named(e)} overflows")
    return value


def eval_real(e: Expr, x, y=0.0, yp=0.0):
    """IEEE double evaluation at the point (x, y, yp), or at every point of a grid.

    x, y and yp are floats or numpy arrays of one shape; a float broadcasts.  Every node is one
    numpy operation, so a grid call gives bit for bit the values of scalar calls at its points, and
    exp, ln and powers are within 1 ulp of the C library's.  Nodes are evaluated in the order of
    e's layout (a checked e is not walked again), operands first and left first, each object once.

    Raises:
        DivisionByZero, LogOfNonPositive, DomainError: when any point
            violates the domain; the message names the first offending value.
        NonFiniteTerm: exp or a power overflows; the message names it.
        InvalidProblem: a literal fails ``series.check_real``.
    """
    inputs, values = {"x": x, "y": y, "yp": yp}, []
    for node, operands, _ in _layout(e):
        values.append(_real(node, inputs, *[values[i] for i in operands]))
    return values[-1]


def _real(e: Expr, inputs: dict, *args):
    """e's value, given its operands' values: one numpy operation."""
    if isinstance(e, Constant):
        return _number(e.value)
    if isinstance(e, Var):
        return inputs[e.name]
    if isinstance(e, Neg):
        return -args[0]
    if type(e) in _ARITHMETIC:
        return _ARITHMETIC[type(e)](*args)
    if isinstance(e, Div):
        if np.any(args[1] == 0.0):
            raise DivisionByZero(f"in {_named(e)}")
        return args[0] / args[1]
    if isinstance(e, PowInt):
        p = _number(e.power)
        return _checked(e, lambda b: np.power(b, p), args[0], (args[0] == 0.0) & (p < 0),
                        lambda t: DivisionByZero(f"0^{int(p)} in {_named(e)}"))
    if isinstance(e, PowXReal):
        x, p = inputs["x"], _number(e.exponent)
        return _checked(e, lambda t: np.power(t, p), x,
                        (x < 0.0) & (p != round(p)) | (x == 0.0) & (p < 0.0),
                        lambda t: DomainError(f"x^{p:g} undefined at x = {t:g}"))
    if isinstance(e, Exp):
        return _checked(e, np.exp, args[0])
    return _checked(e, np.log, args[0], args[0] <= 0.0,
                    lambda t: LogOfNonPositive(f"ln({t:g}) in {_named(e)}"))


# --- evaluation over the decomposition ring ----------------------------------------

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
    """The rule of a fixed weighted sum of the operands, such as a+b, a-b, -a or c*a for a
    number c: coefficient k is that weighted sum of the operands' coefficients k."""

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


_RULES = {Neg: linear_coeff(-1.0), Add: linear_coeff(1.0, 1.0), Sub: linear_coeff(1.0, -1.0),
          Mul: mul_coeff, Div: div_coeff, Exp: exp_coeff, Ln: ln_coeff}


class Tape:
    """An expression laid out for incremental evaluation over the decomposition ring.

    The expression DAG is flattened once, operands before their users, and equal subtrees
    (ASTs compare by value) share one node; a checked expression is not walked again.  Every
    node keeps the coefficients of the decomposition parameter computed so far.  :meth:`extend`
    appends coefficient k to every node, by one rule each, so the k-th decomposition polynomial
    costs one new coefficient per node rather than a recomposition of the whole expression.  A
    ``Constant`` is a seed, and the one kind of number: c*e is e weighted by c.  Any other node
    of numbers, such as (3 - 0.7)*e, has its rule, as a node of any other operands has.
    """

    def __init__(self, e: Expr):
        # Columns 0 and 1 are the inputs y and y'; each later one is a node.
        self._columns: list[list[GPSeries]] = [[], []]
        self._program: list[tuple[_Rule, tuple[int, ...], Expr | None]] = []
        keys = {(Var, (), "y"): 0, (Var, (), "yp"): 1}  # (type, operand columns, literal) -> column
        numbers: dict[int, float] = {}  # column -> its value, for a column that is a number
        columns: list[int] = []  # layout slot -> its column
        for node, slots, literal in _layout(e):
            operands = tuple(columns[i] for i in slots)
            columns.append(self._node(keys, numbers, node, operands, literal))
        self._root = columns[-1]

    def _push(self, rule: _Rule, operands: tuple[int, ...], annotate: Expr | None = None) -> int:
        self._program.append((rule, operands, annotate))
        self._columns.append([])
        return len(self._columns) - 1

    def _node(self, keys: dict, numbers: dict, e: Expr, operands: tuple[int, ...], literal) -> int:
        """The column of e, whose operands are in ``operands``: an equal node's, or a new one."""
        key = (type(e), operands, literal)
        if key not in keys:
            rule = _RULES.get(type(e))
            if isinstance(e, Mul) and (operands[0] in numbers or operands[1] in numbers):
                c, other = operands if operands[0] in numbers else operands[::-1]
                rule, operands = linear_coeff(numbers[c]), (other,)
            if isinstance(e, Constant):  # a seed, and a number
                column = self._push(_seed(GPSeries.constant(value := float(literal))), ())
                numbers[column] = value
            elif not operands:  # x or x^p: y and yp are preset inputs
                exponent = 1.0 if isinstance(e, Var) else literal
                column = self._push(_seed(GPSeries.monomial(1.0, exponent)), ())
            elif rule:
                named = isinstance(e, (Div, Exp, Ln))  # a node with a domain names itself in errors
                column = self._push(rule, operands, e if named else None)
            else:  # an integer power: repeated squaring, of 1/base when negative
                column, power = operands[0], int(literal)
                if power <= 0:
                    one = self._node(keys, numbers, Constant(1.0), (), 1.0)
                    column = one if power == 0 else self._push(div_coeff, (one, column), e)
                if power != 0:
                    column = binary_power(column, abs(power),
                                          lambda a, b: self._push(mul_coeff, (a, b), e))
            keys[key] = column
        return keys[key]

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
                raise type(err)(f"{err} [in {_named(node)}]") from err
            columns[out].append(value)
        return columns[self._root][k]

