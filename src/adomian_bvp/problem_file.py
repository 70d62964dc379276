"""Line-oriented ``key = value`` problem files.

Keys (each exactly once): ``p_exponent``, ``q_exponent``, ``f``, ``eta1``,
``alpha1``, ``beta1``, ``gamma1``; optional ``exact``.  ``f`` and ``exact``
hold double-quoted expression source; the rest are numbers.  ``#`` starts a
comment outside quotes.  Unknown keys are rejected.
"""

from __future__ import annotations

from pathlib import Path

from .errors import DuplicateKey, InvalidValue, MissingKey, UnknownKey
from .expressions import parse, to_source
from .solver import Problem

REQUIRED_KEYS = ("p_exponent", "q_exponent", "f", "eta1", "alpha1", "beta1", "gamma1")
OPTIONAL_KEYS = ("exact",)
_NUMBER_KEYS = ("p_exponent", "q_exponent", "eta1", "alpha1", "beta1", "gamma1")
_EXPR_KEYS = ("f", "exact")


def _strip_comment(line: str) -> str:
    in_quotes = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quotes = not in_quotes
        elif ch == "#" and not in_quotes:
            return line[:i]
    return line


def parse_problem_text(text: str) -> Problem:
    """Build a validated :class:`~.solver.Problem` from problem-file text.

    Raises:
        MissingKey, UnknownKey, DuplicateKey, InvalidValue: format violations.
        ParseError, UnsupportedPower: bad expression source inside f/exact.
        InvalidProblem, InvalidExactSolution: violated problem invariants,
            including a number that is not finite.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidValue(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in REQUIRED_KEYS + OPTIONAL_KEYS:
            raise UnknownKey(key)
        if key in values:
            raise DuplicateKey(key)
        values[key] = value

    for key in REQUIRED_KEYS:
        if key not in values:
            raise MissingKey(key)

    numbers = {}
    for key in _NUMBER_KEYS:
        try:
            numbers[key] = float(values[key])
        except ValueError:
            raise InvalidValue(f"{key}: {values[key]!r} is not a number") from None

    exprs = {}
    for key in _EXPR_KEYS:
        if key not in values:
            continue
        source = values[key]
        if len(source) < 2 or not (source.startswith('"') and source.endswith('"')):
            raise InvalidValue(f"{key}: expression must be double-quoted, got {source!r}")
        exprs[key] = parse(source[1:-1])

    return Problem(
        alpha=numbers["p_exponent"],
        sigma=numbers["q_exponent"],
        f=exprs["f"],
        eta1=numbers["eta1"],
        alpha1=numbers["alpha1"],
        beta1=numbers["beta1"],
        gamma1=numbers["gamma1"],
        exact=exprs.get("exact"),
    )


def load_problem(path: str | Path) -> Problem:
    """Read and parse a problem file from disk.

    Raises:
        InvalidValue: the file is not UTF-8 text.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise InvalidValue(f"{path}: not UTF-8 text ({err.reason})") from None
    return parse_problem_text(text)


def dump_problem(problem: Problem) -> str:
    """Render a problem in the canonical file form; reloads to an equal Problem."""
    lines = [
        f"p_exponent = {problem.alpha!r}",
        f"q_exponent = {problem.sigma!r}",
        f'f = "{to_source(problem.f)}"',
        f"eta1 = {problem.eta1!r}",
        f"alpha1 = {problem.alpha1!r}",
        f"beta1 = {problem.beta1!r}",
        f"gamma1 = {problem.gamma1!r}",
    ]
    if problem.exact is not None:
        lines.append(f'exact = "{to_source(problem.exact)}"')
    return "\n".join(lines) + "\n"
