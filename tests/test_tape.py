"""Incremental Taylor-coefficient tape: respellings, integer powers, step cost, A_k oracles.

The A_k oracles run ``Tape.extend`` once per parameter power, through
:func:`_tape_run` or ``support.adomian_polynomials``.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import adomian_polynomials, taylor_gap

import adomian_bvp.series as series_module
from adomian_bvp.benchmarks import benchmark_problem
from adomian_bvp.errors import (
    DivisionByZeroSeries, LogOfNonPositive, NonConstantBasePoint, NonFiniteTerm,
)
from adomian_bvp.expressions import (
    YP, Add, Constant, Mul, Tape, Var, X, eval_real, mul_coeff, parse, to_source,
)
from adomian_bvp.series import GPSeries, evaluate, evaluate_many, normalize
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


def _rules(tape):
    """The name of each node's rule, in program order: ``linear_coeff`` for any weighted sum."""
    return [rule.__qualname__.split(".")[0] for rule, _, _ in tape._program]


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
    # Nodes without operands are seeds (constants, x): a fixed value, no sum.  Every other
    # node makes one combine call, the product by x in x*yp included, but the y' node, which
    # differentiates y_k, and the Euler node of families 1 and 2, which weights exp(y)'s
    # coefficient term by term: neither makes one.
    cases = [(benchmark_problem(3, 0.5, 2.5), 4), (benchmark_problem(1, 0.5, 1.0), 1)]
    runs = [(Tape(problem.f), solve(problem, 10).components, calls) for problem, calls in cases]
    assert "x*yp" in to_source(cases[0][0].f) and "mul_coeff" in _rules(runs[0][0])
    combines = _counting(monkeypatch, "combine", lambda *args: 1)
    muls = _counting(monkeypatch, "mul", lambda *args: 1)
    for tape, components, calls in runs:
        summing = [name for name, (_, operands, _) in zip(_rules(tape), tape._program)
                   if operands and name not in ("euler_coeff", "derivative_coeff")]
        assert len(summing) == calls
        per_step = []
        for y in components:
            combines.clear()
            tape.extend(y)
            per_step.append(len(combines))
        assert per_step[1:] == [calls] * (len(components) - 1)
    assert not muls


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
        want = series_module.mul(GPSeries.constant(value), plain.extend(y))
        calls.clear()
        assert multiple.extend(y) == want
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


# --- the Euler node: w*exp(y)*(a*x*yp + b) is w*(a*theta + b) of exp(y), theta = x d/dx --------


@pytest.mark.parametrize("example,beta", [(1, 1.0), (1, 3.5), (2, 1.0)])
def test_families_1_and_2_are_one_exp_node_and_one_euler_node(example, beta):
    built = benchmark_problem(example, 0.5, beta).f
    for f in (built, parse(to_source(built))):
        tape = Tape(f)
        assert _rules(tape) == ["exp_coeff", "euler_coeff"]  # no mul_coeff, and no dead node
        assert [operands for _, operands, _ in tape._program] == [(0,), (1,)]  # exp(y), its theta


def _unread(tape):
    """The node columns that no node reads, but the root."""
    read = {i for _, operands, _ in tape._program for i in operands}
    return set(range(1, len(tape._columns))) - read - {tape._root}


# source -> the rules of its tape: every other shape keeps the columns its products read, y'
# (derivative_coeff) among them
KEPT = {
    "2.5*(x*yp + 2.0*y)": [
        "_seed", "derivative_coeff", "mul_coeff", "linear_coeff", "linear_coeff", "linear_coeff"],
    "-3.5*1/exp(-1*y)*(x*yp + 3.0)": [
        "_seed", "linear_coeff", "linear_coeff", "exp_coeff", "div_coeff", "_seed",
        "derivative_coeff", "mul_coeff", "_seed", "linear_coeff", "mul_coeff"],
    "-3.5*exp(ln(exp(y)))*(x*yp + 3.0)": [
        "exp_coeff", "ln_coeff", "exp_coeff", "linear_coeff", "_seed", "derivative_coeff",
        "mul_coeff", "_seed", "linear_coeff", "mul_coeff"],
    "-3.5*exp(0.5*y)^2*(x*yp + 3.0)": [
        "linear_coeff", "exp_coeff", "mul_coeff", "linear_coeff", "_seed", "derivative_coeff",
        "mul_coeff", "_seed", "linear_coeff", "mul_coeff"],
    "exp(y)*x*yp": [  # (exp(y)*x)*yp
        "exp_coeff", "_seed", "mul_coeff", "derivative_coeff", "mul_coeff"],
    "exp(y)*(x*yp + 0.5) + exp(y)": ["exp_coeff", "euler_coeff", "linear_coeff"],
    "exp(y)*(x*yp + 0.5) + x*yp": [
        "exp_coeff", "_seed", "derivative_coeff", "mul_coeff", "euler_coeff", "linear_coeff"],
    "ln(y)^0*exp(y)": ["ln_coeff", "_seed", "exp_coeff", "mul_coeff"],  # 1 that reads ln(y)
}


@pytest.mark.parametrize("source", list(KEPT))
def test_every_other_shape_keeps_the_columns_it_reads(source):
    tape = Tape(parse(source))
    assert _rules(tape) == KEPT[source]
    assert not _unread(tape)


def _y_prime_columns(tape):
    """The columns of the tape's y' nodes, each of which must read y, column 0."""
    found = [i for i, name in enumerate(_rules(tape), 1) if name == "derivative_coeff"]
    assert all(tape._program[i - 1][1] == (0,) for i in found)
    return found


def _plain(family, beta=1.0):
    return to_source(benchmark_problem(family, 0.5, beta).f)


# f -> whether a kept node reads yp: the Euler node of families 1 and 2 reads exp(y) alone
# (family 2's f is the text of family 1's at beta = 1)
Y_PRIME_READ = {_plain(1): False, _plain(1, 3.5): False, "exp(y) + y": False,
                _plain(3, 2.5): True, "exp(y)*x*yp": True, "yp": True,
                "exp(y)*(x*yp + 0.5) + x*yp": True,
                **{_plain(1).replace("exp(y)", spelling): True
                   for spelling in ("1/exp(-1*y)", "exp(ln(exp(y)))", "exp(0.5*y)^2")}}


@pytest.mark.parametrize("source", list(Y_PRIME_READ))
def test_the_tape_holds_a_y_prime_node_exactly_where_a_kept_node_reads_yp(source):
    tape = Tape(parse(source))
    read = {i for _, operands, _ in tape._program for i in operands} | {tape._root}
    held = _y_prime_columns(tape)
    assert len(held) == Y_PRIME_READ[source] and set(held) <= read


def test_a_column_the_euler_node_shares_stays_with_its_other_reader():
    components = solve(benchmark_problem(2, 0.5, 1.0), 8).components
    shared, alone, exp_y = (Tape(parse(source)) for source in (
        "exp(y)*(x*yp + 0.5) + exp(y)", "exp(y)*(x*yp + 0.5)", "exp(y)"))
    for y in components:
        assert shared.extend(y) == series_module.add(alone.extend(y), exp_y.extend(y))


def test_a_zeroth_power_reads_its_base_so_the_base_domain_is_checked():
    with pytest.raises(LogOfNonPositive):
        _tape_run("ln(y)^0*exp(y)", (GPSeries.constant(-1.0), ZERO))
    y = (GPSeries.constant(1.0), GPSeries.monomial(0.5, 1.0))
    assert _tape_run("ln(y)^0*exp(y)", y) == _tape_run("exp(y)", y)


# (template, a, sign of b): the Mul of w*exp(y) and a*x*yp + b, or of their parts in either order
EULER_FORMS = [("{w}*exp(y)*(x*yp + {b})", 1.0, 1.0), ("(yp*x - {b})*exp(y)*{w}", 1.0, -1.0),
               ("{w}*exp(y)*({b} - x*yp)", -1.0, 1.0), ("exp(y)*(x*yp)*{w}", 1.0, 0.0)]
LATTICE = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5]
Y_COLUMNS = st.lists(st.lists(st.tuples(st.floats(-2.0, 2.0), st.sampled_from(LATTICE)),
                              min_size=1, max_size=3), min_size=1, max_size=5)


@pytest.mark.parametrize("form", EULER_FORMS, ids=["w-e-s", "s-e-w", "w-e-(b-xyp)", "e-xyp-w"])
def test_each_order_and_sign_of_the_product_is_one_euler_node_on_exp_y(form):
    tape = Tape(parse(form[0].format(w="-2.5", b="0.5")))
    assert _rules(tape)[:2] == ["exp_coeff", "euler_coeff"] and "mul_coeff" not in _rules(tape)
    assert tape._program[1][1] == (1,)  # the Euler node reads exp(y)'s column


def _euler_against_cauchy(form, y, w, b):
    """A_k of one Euler form on the components y, beside A_k of the Cauchy product it replaces
    (x^1.0 is the same seed as x but no match) and eps times the l1 mass of that product's raw
    terms, sum_i |w| |E_i| |x y'_(k-i) + b [i = k]|, with E_i the coefficients of exp(y)."""
    template, a, sign = form
    source = template.format(w=repr(w), b=repr(b))
    euler, cauchy = Tape(parse(source)), Tape(parse(source.replace("x*", "x^1.0*").replace(
        "*x ", "*x^1.0 ")))
    assert "euler_coeff" in _rules(euler) and "euler_coeff" not in _rules(cauchy)
    exp_y, E, masses, out = Tape(parse("exp(y)")), [], [], []
    for k, y_k in enumerate(y):
        E.append(exp_y.extend(y_k))
        masses.append(float(np.abs(y_k.coeffs * y_k.exponents).sum()) + (abs(b) if k == 0 else 0.0))
        mass = abs(w) * sum(np.abs(E[i].coeffs).sum() * masses[k - i] for i in range(k + 1))
        out.append((euler.extend(y_k), cauchy.extend(y_k), np.finfo(float).eps * mass,
                    sign * b))
    return out


@settings(max_examples=100, deadline=None)
@given(y0=st.floats(-1.0, 1.0), columns=Y_COLUMNS, w=st.floats(-4.0, 4.0),
       b=st.floats(-3.0, 3.0), form=st.sampled_from(EULER_FORMS))
def test_the_euler_node_is_the_cauchy_product_it_replaces(y0, columns, w, b, form):
    y = [GPSeries.constant(y0)] + [normalize(terms) for terms in columns]
    for got, want, rounding, shift in _euler_against_cauchy(form, y, w, b):
        # a*e + b is 0 at e = -b/a: the Euler node drops that term, the Cauchy sum rounds it
        dropped = form[1] * want.exponents + shift == 0.0
        assert np.array_equal(got.exponents, want.exponents[~dropped])
        assert np.all(np.abs(got.coeffs - want.coeffs[~dropped]) <= 8 * rounding)
        assert np.all(np.abs(want.coeffs[dropped]) <= 8 * rounding)


@pytest.mark.parametrize("form", EULER_FORMS[:3], ids=["e+b", "e-b", "b-e"])
def test_the_euler_node_drops_the_term_where_a_e_plus_b_is_zero(form):
    _, a, sign = form  # at e = 0.5, the only exponent of A_1
    y = [GPSeries.constant(0.2), GPSeries.monomial(0.7, 0.5)]
    _, (got, want, rounding, _) = _euler_against_cauchy(form, y, -1.5, -a * 0.5 / sign)
    assert got.is_zero and np.all(np.abs(want.coeffs) <= 8 * rounding)


@pytest.mark.filterwarnings("error")
def test_an_overflow_is_a_non_finite_term_on_both_paths():
    y = [GPSeries.constant(0.0), GPSeries.monomial(1e300, 1.0)]
    for source in ("1e10*exp(y)*(x*yp + 1.0)", "1e10*exp(y)*(x^1.0*yp + 1.0)"):
        with pytest.raises(NonFiniteTerm, match=r"^term \(inf, 1\.0\) is not finite$"):
            _tape_run(source, y)


# --- decomposition polynomials against direct evaluation -----------------------------


def _terms(series):
    return [(t.coeff, t.exponent) for t in series.terms]


def _tape_run(source, y):
    """Entries 0, 1, ... of the expression over the ring: one ``Tape.extend`` per
    entry of ``y``, which y is bound to (yp to its x-derivative)."""
    tape = Tape(parse(source))
    return [tape.extend(a) for a in y]


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
    sq = _tape_run("y*y", one_plus)
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
