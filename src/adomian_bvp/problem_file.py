"""Line-oriented ``key = value`` problem files.

Keys (each at most once) are those of :data:`FIELDS`, all required but
``exact``.  ``f`` and ``exact`` hold double-quoted expression source; the
rest are numbers (:func:`read_number`).  ``#`` starts a comment outside quotes,
and a quote left open runs to the end of the line.  Unknown keys are rejected.
"""

from __future__ import annotations

import re
from pathlib import Path

from .errors import DuplicateKey, FileNotFound, InvalidValue, MissingKey, UnknownKey
from .expressions import parse, to_source
from .solver import Problem

# file key -> Problem field, in canonical file order; every key but exact is required
FIELDS = {
    "p_exponent": "alpha",
    "q_exponent": "sigma",
    "f": "f",
    "eta1": "eta1",
    "alpha1": "alpha1",
    "beta1": "beta1",
    "gamma1": "gamma1",
    "exact": "exact",
}
_EXPR_KEYS = ("f", "exact")


def read_number(text: str, kind: type = float):
    """``kind(text)``, for ``float`` or ``int``, if text has no ``_`` and its digits are the
    ASCII 0-9 that ``parse`` reads; else ValueError.  (kind reads no other non-ASCII inner text.)"""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"not a number: {text!r}")
    return kind(text)


def parse_problem_text(text: str) -> Problem:
    """Build a validated :class:`~.solver.Problem` from problem-file text.

    Raises:
        MissingKey, UnknownKey, DuplicateKey, InvalidValue: format violations.
        ParseError: bad expression source inside f/exact (UnsupportedPower is one).
        InvalidProblem, InvalidExactSolution: violated problem invariants,
            including a number that is not finite.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.match(r'(?:[^"#]+|"[^"]*"?)*', raw)[0].strip()  # to the first # outside quotes
        if not line:
            continue
        if "=" not in line:
            raise InvalidValue(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in FIELDS:
            raise UnknownKey(key)
        if key in values:
            raise DuplicateKey(key)
        values[key] = value

    for key in FIELDS:
        if key not in values and key != "exact":
            raise MissingKey(key)

    fields = {}
    for key, name in FIELDS.items():
        if key in _EXPR_KEYS:
            continue
        try:
            fields[name] = read_number(values[key])
        except ValueError:
            raise InvalidValue(f"{key}: {values[key]!r} is not a number") from None

    for key in _EXPR_KEYS:
        if key not in values:
            continue
        source = values[key]
        if len(source) < 2 or not (source.startswith('"') and source.endswith('"')):
            raise InvalidValue(f"{key}: expression must be double-quoted, got {source!r}")
        fields[FIELDS[key]] = parse(source[1:-1])

    return Problem(**fields)


def load_problem(path: str | Path) -> Problem:
    """Read and parse a problem file from disk.

    Raises:
        FileNotFound: no file at ``path`` (also a ``FileNotFoundError``).
        InvalidValue: the file cannot be read (a directory, no permission) or
            is not UTF-8 text.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not text
    except UnicodeDecodeError as err:
        raise InvalidValue(f"{path}: not UTF-8 text ({err.reason})") from None
    except FileNotFoundError as err:
        raise FileNotFound(err.errno, err.strerror, err.filename) from None
    except OSError as err:
        raise InvalidValue(f"{path}: cannot read ({err.strerror})") from None
    return parse_problem_text(text)


def dump_problem(problem: Problem) -> str:
    """Render a problem in the canonical file form; reloads to an equal Problem, but for a
    ``Neg(Constant(v))`` built by hand, which reloads as ``Constant(-v)``."""
    lines = []
    for key, name in FIELDS.items():
        value = getattr(problem, name)
        if value is None:  # an absent exact
            continue
        text = f'"{to_source(value)}"' if key in _EXPR_KEYS else repr(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
