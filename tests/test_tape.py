"""Incremental Taylor-coefficient tape: respellings, integer powers, step cost, A_k oracles.

The A_k oracles run ``Tape.extend`` once per parameter power, through
:func:`_tape_run` or ``support.adomian_polynomials``.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from support import adomian_polynomials, taylor_gap

import adomian_bvp.series as series_module
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.errors import DivisionByZeroSeries, LogOfNonPositive, NonConstantBasePoint
from adomian_bvp.expressions import (
    YP, Add, Constant, Mul, Tape, Var, X, eval_real, mul_coeff, parse, to_source,
)
from adomian_bvp.series import GPSeries, differentiate, evaluate, evaluate_many
from adomian_bvp.solver import Problem, solve

GRID = np.arange(1, 1001) / 1000.0
ZERO = GPSeries.zero()


# --- equivalent spellings take other recurrences to the same psi ------------------


@pytest.mark.parametrize(
    "spelling",
    ["1/exp(-1*y)", "exp(ln(exp(y)))", "exp(0.5*y)^2"],
    ids=["recip", "lnexp", "powi"],
)
@pytest.mark.parametrize("example,beta", [(1, 1.0), (1, 3.5), (2, 1.0)])
def test_respelled_exponential_matches_plain(example, beta, spelling):
    plain = benchmark_problem(example, 0.5, beta)
    source = to_source(plain.f)
    assert "exp(y)" in source
    respelled = replace(plain, f=parse(source.replace("exp(y)", spelling)))
    want = evaluate_many(solve(plain, 12).psi, GRID)
    got = evaluate_many(solve(respelled, 12).psi, GRID)
    assert np.max(np.abs(got - want)) <= 1e-13


# --- integer powers: zero and non-constant base points ----------------------------


@pytest.mark.parametrize(
    "source,eta1",
    [("y^2", 0.0), ("(x + y)^2", 0.2), ("y^-2", 1.0), ("(1 + y)^3", 0.1)],
    ids=["square-zero-base", "square-nonconstant-base", "inverse-square", "cube"],
)
def test_integer_powers_solve_and_track_the_nonlinearity(source, eta1):
    problem = Problem(
        alpha=0.5, sigma=0.0, f=parse(source), eta1=eta1,
        alpha1=1.0, beta1=0.0, gamma1=eta1 + 0.5,
    )
    order = 7
    components = solve(problem, order + 1).components
    polynomials = adomian_polynomials(problem.f, components)
    for x_star in (0.3, 0.7):
        for lam in (0.1, 0.5):
            gap = taylor_gap(problem.f, components, polynomials, x_star, lam)
            assert gap <= 10.0 * lam ** (order + 1)


# --- cost: one new coefficient per node and step -----------------------------------


def _counting(monkeypatch, name, count):
    """Replace series.<name> by a wrapper that appends count(*args) per call.

    Iterable arguments, such as the products a recurrence passes to
    ``combine`` as a generator, are read into lists first."""
    calls = []
    original = getattr(series_module, name)

    def counting(*args):
        args = [a if isinstance(a, GPSeries) else list(a) for a in args]
        calls.append(count(*args))
        return original(*args)

    monkeypatch.setattr(series_module, name, counting)
    return calls


def test_series_products_grow_quadratically_in_n(monkeypatch):
    # Recomposing f at every step costs O(n^4) products (224 -> 2830 here);
    # the tape's recurrences cost O(n^2) (about 4x from n = 8 to n = 16).
    products = _counting(monkeypatch, "combine", lambda parts, products=(): len(products))
    problem = benchmark_problem(1, 0.5, 1.0)
    solve(problem, 8)
    at_8 = sum(products)
    products.clear()
    solve(problem, 16)
    at_16 = sum(products)
    assert at_8 > 0
    assert at_16 / at_8 < 6.0


def test_each_rule_node_makes_one_combine_call_per_step(monkeypatch):
    problem = benchmark_problem(1, 0.5, 1.0)
    components = solve(problem, 10).components
    tape = Tape(problem.f)
    # Nodes without operands are seeds (constants, x): a fixed value, no sum.
    # Every other node makes one combine call, the product by x in x*yp included.
    rules = [rule for rule, operands, _ in tape._program if operands]
    assert "x*yp" in to_source(problem.f) and mul_coeff in rules
    combines = _counting(monkeypatch, "combine", lambda *args: 1)
    muls = _counting(monkeypatch, "mul", lambda *args: 1)
    per_step = []
    for y in components:
        combines.clear()
        tape.extend(y, differentiate(y))
        per_step.append(len(combines))
    assert not muls
    assert per_step[1:] == [len(rules)] * (len(components) - 1)


# --- layout: one node per distinct subtree, in time linear in the AST ----------------


def test_layout_touches_no_subtree_hash_or_equality(monkeypatch):
    # a 100-term sum nests 100 deep; hashing each subtree to look it up would
    # cost time quadratic in that depth
    e = parse("+".join(["y"] * 100))
    ast_nodes = 199  # 100 leaves, 99 sums
    calls = []
    for cls in (Add, Var):
        for name in ("__hash__", "__eq__"):
            real = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *a, real=real: calls.append(1) or real(*a))
    tape = Tape(e)
    assert len(calls) <= ast_nodes
    assert len(tape._program) == 99  # y is an input; each partial sum is one node


@pytest.mark.parametrize("source,nodes", [
    ("exp(y)*exp(y) + exp(y)", 3),  # exp, mul, add
    ("(y + 1)*(y + 1) - (y + 1)", 4),  # constant, add, mul, sub
    ("1 + y^-2 + x*x^1.0", 8),  # 1 (also the 1 of 1/y), 1/y, its square, sum, x, x^1.0, product, sum
])
def test_equal_subtrees_share_one_node(source, nodes):
    assert len(Tape(parse(source))._program) == nodes


# --- a product by a number is one weighted part --------------------------------------

E = "exp(y)*(x*yp + 0.5)"
# (source, c, whether c is one literal): only a Constant is a number, so a product by a
# compound of literals, such as 3 - 0.7, is an ordinary node with the same values
MULTIPLES = [(f"2.5*({E})", 2.5, True), (f"({E})*2.5", 2.5, True), (f"-2.5*({E})", -2.5, True),
             (f"(3 - 0.7)*({E})", 3.0 - 0.7, False), (f"3*0.7*({E})", 3.0 * 0.7, False),
             (f"0*({E})", 0.0, True)]


@pytest.mark.parametrize("source,value,literal", MULTIPLES,
                         ids=["c*e", "e*c", "-c*e", "(c1-c2)*e", "c1*c2*e", "0*e"])
def test_a_product_by_a_number_is_one_weighted_part(monkeypatch, source, value, literal):
    components = solve(benchmark_problem(2, 0.5, 1.0), 8).components
    plain, multiple = Tape(parse(E)), Tape(parse(source))
    calls = _counting(monkeypatch, "combine", lambda parts, products=(): (len(parts), len(products)))
    for y in components:
        want = series_module.mul(GPSeries.constant(value), plain.extend(y, differentiate(y)))
        calls.clear()
        assert multiple.extend(y, differentiate(y)) == want
        if literal:
            assert calls[-1] == (1, 0)  # the root, c*e, is the last node


@pytest.mark.parametrize("source", ["x*yp + y", "yp*x^0.5 - y*x", "x^1.5*(y*x) + x*x"])
def test_a_product_by_x_or_x_p_is_a_shift_with_the_bits_of_its_cauchy_sum(monkeypatch, source):
    # x*e is a plain product node; its Cauchy sum has one live product, x * e_k,
    # which combine keeps in e_k's order.  The reference solve hands those very
    # arrays to the kernel.
    problem = Problem(alpha=0.5, sigma=0.0, f=parse(source), eta1=0.5,
                      alpha1=1.0, beta1=0.0, gamma1=1.0)
    kept = solve(problem, 8)
    ordered, lone = series_module.from_ordered, []

    def kernel_for_lone_products(coeffs, exponents):
        if sys._getframe(1).f_code is series_module.combine.__code__:  # a lone product by one term
            lone.append(len(coeffs))
            return series_module.from_arrays(coeffs, exponents)
        return ordered(coeffs, exponents)

    monkeypatch.setattr(series_module, "from_ordered", kernel_for_lone_products)
    merged = solve(problem, 8)
    assert lone  # the branch was taken

    def bits(report):
        every = (*report.components, report.psi)
        return [(y.coeffs.tobytes(), y.exponents.tobytes()) for y in every]

    assert bits(kept) == bits(merged)


# --- decomposition polynomials against direct evaluation -----------------------------


def _terms(series):
    return [(t.coeff, t.exponent) for t in series.terms]


def _tape_run(source, y, yp=None):
    """Entries 0, 1, ... of the expression over the ring: one ``Tape.extend`` per
    entry of ``y``, with ``yp`` (``y`` when absent) bound to y'."""
    tape = Tape(parse(source))
    return [tape.extend(a, b) for a, b in zip(y, y if yp is None else yp)]


def test_a0_is_f_of_first_component():
    # the order-zero slot of any composition equals f at the first component
    rng = np.random.default_rng(5)
    f = parse("exp(y)*(x*yp + 0.3) + 0.2*y")
    for _ in range(10):
        eta = float(rng.uniform(-1, 1))
        comps = [GPSeries.constant(eta)] + [
            GPSeries.monomial(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            for _ in range(3)
        ]
        a0 = adomian_polynomials(f, comps)[0]
        for x in (0.3, 0.7):
            assert evaluate(a0, x) == pytest.approx(eval_real(f, x, eta, 0.0))


def test_linear_f_decouples_components():
    # for linear f the k-th polynomial depends on component k alone
    f = parse("2.5*(x*yp + 2*y)")
    rng = np.random.default_rng(6)
    comps = [GPSeries.constant(0.4)] + [
        GPSeries.monomial(rng.uniform(-1, 1), rng.uniform(0.5, 3.0)) for _ in range(3)
    ]
    k = 2
    alone = [ZERO] * k + [comps[k]]
    assert adomian_polynomials(f, comps)[k] == adomian_polynomials(f, alone)[k]


def test_composition_matches_direct_evaluation():
    # anti-drift oracle: partial sums of A_n converge to f at the lifted point
    rng = np.random.default_rng(7)
    f = parse("exp(y)*(x*yp + 0.4)")
    n_order = 6
    comps = [GPSeries.constant(-0.5)] + [
        GPSeries.monomial(rng.uniform(-0.4, 0.4), 0.5 + 0.5 * k)
        for k in range(n_order)
    ]
    composed = adomian_polynomials(f, comps)
    for x in (0.3, 0.7):
        for lam in (0.1, 0.5):
            gap = taylor_gap(f, comps, composed, x, lam)
            assert gap <= 10 * lam ** (n_order + 1)


def test_ring_mul_binomial():
    # (1 + x*lam)^2 = 1 + 2x*lam + x^2*lam^2
    one_plus = (GPSeries.constant(1.0), GPSeries.monomial(1.0, 1.0), ZERO)
    sq = _tape_run("y*yp", one_plus, one_plus)
    assert _terms(sq[0]) == [(1.0, 0.0)]
    assert _terms(sq[1]) == [(2.0, 1.0)]
    assert _terms(sq[2]) == [(1.0, 2.0)]


def test_exp_of_zero():
    e = _tape_run("exp(y)", (ZERO,) * 4)
    assert _terms(e[0]) == [(1.0, 0.0)]
    assert all(c.is_zero for c in e[1:])


def test_exp_first_order_around_constant():
    # exp(-ln4 + c*x^0.5*lam) at order 1 -> 0.25 + 0.25c*x^0.5*lam
    c = 0.7
    e = _tape_run("exp(y)", (GPSeries.constant(-math.log(4.0)), GPSeries.monomial(c, 0.5)))
    assert _terms(e[0]) == [(pytest.approx(0.25), 0.0)]
    assert _terms(e[1]) == [(pytest.approx(0.25 * c), 0.5)]


# --- the tape's rules: products, exp / ln / recip / powi ----------------------------


def test_exp_taylor_in_parameter():
    # exp(x^0.5 * lam) at order 2 -> 1 + x^0.5 lam + 0.5 x lam^2
    e = _tape_run("exp(y)", (ZERO, GPSeries.monomial(1.0, 0.5), ZERO))
    assert _terms(e[0]) == [(1.0, 0.0)]
    assert _terms(e[1]) == [(1.0, 0.5)]
    assert _terms(e[2]) == [(pytest.approx(0.5), 1.0)]


def test_exp_numeric_oracle():
    # the tape's coefficients at sampled (x, lam) against direct exp
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = [GPSeries.constant(rng.uniform(-1, 1))]
        a += [
            GPSeries.monomial(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0))
            for _ in range(4)
        ]
        e = _tape_run("exp(y)", a)
        for x, lam in [(0.3, 0.1), (0.8, 0.2)]:
            a_val = sum(evaluate(c, x) * lam**k for k, c in enumerate(a))
            e_val = sum(evaluate(c, x) * lam**k for k, c in enumerate(e))
            # truncation error is O(lam^5) with O(1) fluctuations
            assert e_val == pytest.approx(math.exp(a_val), abs=20 * lam**5)


def test_recip_geometric():
    r = _tape_run("1/y", (GPSeries.constant(1.0), GPSeries.monomial(1.0, 1.0), ZERO))
    assert _terms(r[0]) == [(1.0, 0.0)]
    assert _terms(r[1]) == [(-1.0, 1.0)]
    assert _terms(r[2]) == [(1.0, 2.0)]


def test_ln_of_one():
    assert all(c.is_zero for c in _tape_run("ln(y)", (GPSeries.constant(1.0), ZERO, ZERO)))


def test_ln_inverts_exp():
    a = (
        GPSeries.constant(0.3),
        GPSeries.monomial(0.4, 0.5),
        GPSeries.monomial(-0.2, 1.0),
    )
    back = _tape_run("ln(exp(y))", a)
    for orig, rec in zip(a, back):
        assert len(orig) == len(rec)
        for to, tr in zip(orig.terms, rec.terms):
            assert tr.coeff == pytest.approx(to.coeff, rel=1e-12)


def test_powi_identity_and_negative():
    a = (GPSeries.constant(2.0), GPSeries.monomial(1.0, 0.5))
    one = _tape_run("y^0", a)
    assert _terms(one[0]) == [(1.0, 0.0)] and one[1].is_zero
    prod = _tape_run("y*y^-1", a)
    assert _terms(prod[0]) == [(pytest.approx(1.0), 0.0)]
    assert prod[1].is_zero


def test_base_point_guards():
    with pytest.raises(NonConstantBasePoint):
        _tape_run("exp(y)", (GPSeries.monomial(1.0, 1.0), ZERO))
    with pytest.raises(LogOfNonPositive):
        _tape_run("ln(y)", (GPSeries.constant(-2.0), ZERO))
    with pytest.raises(DivisionByZeroSeries):
        _tape_run("1/y", (ZERO, ZERO))


# --- whole expressions at lifted components ------------------------------------------


def test_eval_lambda_constant():
    out = adomian_polynomials(Constant(3.5), [GPSeries.constant(1.0), ZERO, ZERO])
    assert _terms(out[0]) == [(3.5, 0.0)]
    assert all(c.is_zero for c in out[1:])


def test_eval_lambda_x_times_zero_derivative():
    out = adomian_polynomials(Mul(X, YP), [GPSeries.constant(2.0), ZERO])
    assert all(c.is_zero for c in out)


def test_eval_lambda_annotates_ring_errors():
    with pytest.raises(LogOfNonPositive) as exc:
        adomian_polynomials(parse("ln(y)"), [GPSeries.constant(-1.0), ZERO])
    assert "ln(y)" in str(exc.value)
    # non-constant base point: x sits in the order-zero slot
    with pytest.raises(NonConstantBasePoint) as exc2:
        adomian_polynomials(parse("exp(x)"), [GPSeries.constant(-1.0), ZERO])
    assert "exp(x)" in str(exc2.value)


# --- decomposition polynomials ------------------------------------------------------


def test_a0_of_exponential_nonlinearity():
    # f = -e^y (x*yp + 0.5) at constant first component -ln 4: A_0 = -0.125
    f = parse("-1*exp(y)*(x*yp + 0.5)")
    (a0,) = adomian_polynomials(f, [GPSeries.constant(-math.log(4.0))])
    assert _terms(a0) == [(pytest.approx(-0.125), 0.0)]
    # oracle: direct real evaluation, independent of x
    for x in (0.2, 0.9):
        assert eval_real(f, x, -math.log(4.0), 0.0) == pytest.approx(-0.125)


def test_a0_of_linear_nonlinearity():
    # f = x*yp + 0.5*y at first component 1: A_0 = 0.5
    (a0,) = adomian_polynomials(parse("x*yp + 0.5*y"), [GPSeries.constant(1.0)])
    assert _terms(a0) == [(pytest.approx(0.5), 0.0)]
