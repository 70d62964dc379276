"""Built-in benchmark families: the problems they build, pinned literally and against the
trees the parser reads from each family's problem-file text."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from adomian_bvp.benchmarks import BENCHMARK_IDS, benchmark_problem
from adomian_bvp.errors import InvalidProblem
from adomian_bvp import expressions
from adomian_bvp.expressions import Neg, to_source
from adomian_bvp.problem_file import FIELDS, dump_problem, parse_problem_text

LN2, LN3 = 0.6931471805599453, 1.0986122886681098
LN4, LN5 = 1.3862943611198906, 1.6094379124341003

# (example, alpha, beta) -> to_source(f), to_source(exact),
# (alpha, sigma, eta1, alpha1, beta1, gamma1)
PINNED = [
    ((1, 0.5, 1.0), "-1.0*exp(y)*(x*yp + 0.5)", "ln(1.0/(4.0 + x))",
     (0.5, -0.5, -LN4, 1.0, 0.0, -LN5)),
    ((1, 0.25, 0.5), "-0.5*exp(y)*(x*yp + -0.25)", "ln(1.0/(4.0 + x^0.5))",
     (0.25, -1.25, -LN4, 1.0, 0.0, -LN5)),
    ((1, 0.75, 3.5), "-3.5*exp(y)*(x*yp + 3.25)", "ln(1.0/(4.0 + x^3.5))",
     (0.75, 2.25, -LN4, 1.0, 0.0, -LN5)),
    ((2, 0.25, 1.0), "-1.0*exp(y)*(x*yp + 0.25)", "ln(1.0/(2.0 + x))",
     (0.25, -0.75, -LN2, 1.0, 0.0, -LN3)),
    ((2, 0.75, 3.0), "-1.0*exp(y)*(x*yp + 0.75)", "ln(1.0/(2.0 + x))",
     (0.75, -0.25, -LN2, 1.0, 0.0, -LN3)),
    ((3, 0.5, 1.0), "1.0*(x*yp + 0.5*y)", "exp(x)",
     (0.5, -0.5, 1.0, 1.0, 0.0, 2.718281828459045)),
    ((3, 0.5, 2.5), "2.5*(x*yp + 2.0*y)", "exp(x^2.5)",
     (0.5, 1.0, 1.0, 1.0, 0.0, 2.718281828459045)),
    ((3, 0.1, 0.5), "0.5*(x*yp + -0.4*y)", "exp(x^0.5)",
     (0.1, -1.4, 1.0, 1.0, 0.0, 2.718281828459045)),
]


@pytest.mark.parametrize("key,f,exact,fields", PINNED, ids=[str(p[0]) for p in PINNED])
def test_benchmark_problem_is_pinned(key, f, exact, fields):
    problem = benchmark_problem(*key)
    assert to_source(problem.f) == f
    assert to_source(problem.exact) == exact
    got = (problem.alpha, problem.sigma, problem.eta1, problem.alpha1, problem.beta1,
           problem.gamma1)
    assert got == fields  # exact: every literal is a repr float


@pytest.mark.parametrize("example", [0, 4, "1"])
def test_unknown_example_is_invalid_problem(example):
    with pytest.raises(InvalidProblem, match="example must be one of"):
        benchmark_problem(example, 0.5, 1.0)


@pytest.mark.parametrize("alpha,beta,name", [
    (math.nan, 1.0, "alpha"), (math.inf, 1.0, "alpha"), (0.5, math.nan, "beta"),
    (0.5, -math.inf, "beta"),
])
def test_non_finite_parameter_is_invalid_problem(alpha, beta, name):
    with pytest.raises(InvalidProblem, match=f"{name} must be finite"):
        benchmark_problem(1, alpha, beta)


@pytest.mark.parametrize("alpha,beta", [(np.float64(0.5), 1), (Fraction(1, 2), np.float32(1.0))])
def test_alpha_and_beta_of_another_number_type_are_read_as_their_floats(alpha, beta):
    # read as their floats, so every literal of the trees is a float
    assert benchmark_problem(3, alpha, beta) == benchmark_problem(3, 0.5, 1.0)


@pytest.mark.parametrize("example,beta", [(1, 1.0), (1, 3.5), (1, 0.1234567), (2, 1.0), (2, 3.0),
                                          (3, 1.0), (3, 2.5), (3, 0.5)])
def test_the_exact_solution_depends_on_beta_only(example, beta):
    # cli table measures all rows of a table against one row's reference
    alphas = [0.0, 0.1, 0.25, 0.3719, 0.5, 0.75, 0.999]
    exact = [benchmark_problem(example, alpha, beta).exact for alpha in alphas]
    assert all(e == exact[0] for e in exact)
    assert len({to_source(e) for e in exact}) == 1


# Each family as problem-file text, alpha, beta and the derived exponents filled in as
# repr floats: the trees benchmark_problem builds are the trees the parser reads from it.
TEMPLATES = {
    1: """p_exponent = {alpha!r}
        q_exponent = {alpha_beta_2!r}
        f = "-{beta!r}*exp(y)*(x*yp + {alpha_beta_1!r})"
        exact = "ln(1.0/(4.0 + {x_beta}))"
        eta1 = -{ln[4]!r}
        gamma1 = -{ln[5]!r}""",
    2: """p_exponent = {alpha!r}
        q_exponent = {alpha_1!r}
        f = "-1.0*exp(y)*(x*yp + {alpha!r})"
        exact = "ln(1.0/(2.0 + x))"
        eta1 = -{ln[2]!r}
        gamma1 = -{ln[3]!r}""",
    3: """p_exponent = {alpha!r}
        q_exponent = {alpha_beta_2!r}
        f = "{beta!r}*(x*yp + {alpha_beta_1!r}*y)"
        exact = "exp({x_beta})"
        eta1 = 1.0
        gamma1 = {e!r}""",
}


def _template_text(example: int, alpha: float, beta: float) -> str:
    return TEMPLATES[example].format(
        alpha=alpha, beta=beta, alpha_1=alpha - 1.0,
        alpha_beta_1=alpha + beta - 1.0, alpha_beta_2=alpha + beta - 2.0,
        x_beta="x" if beta == 1.0 else f"x^{beta!r}",
        ln={k: math.log(k) for k in (2, 3, 4, 5)}, e=math.e,
    ) + "\nalpha1 = 1.0\nbeta1 = 0.0"


# A negative alpha + beta - 1 as at (0.1, 0.5), beta < 0, alpha = -0.0, beta at 1 and one ulp past
GRID = list(itertools.product((0.0, -0.0, 0.1, 0.25, 0.5, 0.75, 0.999),
                              (1.0, 1.0000000000000002, 0.5, 2.5, 3.5, -0.5, -1e-300, -0.0)))


@pytest.mark.parametrize("example", BENCHMARK_IDS)
def test_each_tree_is_the_tree_the_parser_reads_from_the_family_text(example):
    for alpha, beta in GRID:
        built = benchmark_problem(example, alpha, beta)
        read = parse_problem_text(_template_text(example, alpha, beta))
        assert built == read, (alpha, beta)
        for name in FIELDS.values():  # repr: -0.0 and 0.0 differ
            assert repr(getattr(built, name)) == repr(getattr(read, name)), (alpha, beta, name)
        assert to_source(built.f) == to_source(read.f), (alpha, beta)
        assert to_source(built.exact) == to_source(read.exact), (alpha, beta)


def test_the_grid_covers_each_negative_literal_of_the_text():
    assert to_source(benchmark_problem(3, 0.1, 0.5).f) == "0.5*(x*yp + -0.4*y)"
    assert to_source(benchmark_problem(3, 0.5, -0.5).f) == "-0.5*(x*yp + -1.0*y)"
    assert to_source(benchmark_problem(1, 0.5, -0.5).f) == "0.5*exp(y)*(x*yp + -1.0)"
    assert to_source(benchmark_problem(2, -0.0, 1.0).f) == "-1.0*exp(y)*(x*yp + -0.0)"


@pytest.mark.parametrize("example", BENCHMARK_IDS)
def test_no_benchmark_tree_holds_a_negation(example):
    # each coefficient, -beta and -1.0 included, is one Constant of its signed value
    for alpha, beta in GRID:
        problem = benchmark_problem(example, alpha, beta)
        for tree in (problem.f, problem.exact):
            assert not [n for n, _, _ in expressions._layout(tree) if type(n) is Neg], (alpha, beta)


@pytest.mark.parametrize("example", BENCHMARK_IDS)
def test_each_built_problem_reloads_from_its_dump(example):
    for alpha, beta in GRID:
        built = benchmark_problem(example, alpha, beta)
        assert parse_problem_text(dump_problem(built)) == built, (alpha, beta)


def test_a_derived_exponent_past_the_largest_float_is_refused_as_a_number():
    # the text route wrote it as "inf", which the parser read as an unknown identifier
    with pytest.raises(InvalidProblem, match="sigma must be finite, got inf"):
        benchmark_problem(1, 1.7e308, 1.7e308)
