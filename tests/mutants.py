"""Deliberate breaks of the code, each of which the tests it names must catch, and their runner.

A mutant replaces one exact text, which occurs once in its file, and names the tests that
must then fail, as ``path::function`` (every parametrization of the function runs).

    python tests/mutants.py [ID ...]

copies ``src/``, ``tests/``, ``bench/``, ``demos/`` and ``pyproject.toml`` to a temporary directory,
runs the named tests of the selected mutants (all by default) on the clean copy, which must
pass, and then applies each mutant alone and runs its tests, which must fail.  It exits 0
only if the clean copy passes and every mutant is caught.  pytest does not collect this
file; ``tests/test_mutants.py`` checks the catalogue's form against the tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "demos", "pyproject.toml")


class Mutant(NamedTuple):
    id: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # "path::function", relative to the repository root


SERIES, EXPRESSIONS, SOLVER, DIAGNOSTICS, LAMBDA_RING, BENCHMARKS, CLI, OPERATOR = (
    f"src/adomian_bvp/{m}.py"
    for m in ("series", "expressions", "solver", "diagnostics", "lambda_ring", "benchmarks", "cli",
              "singular_operator"))
T_SERIES, T_TAPE, T_EXPR, T_IDENTITY, T_SOLVER, T_ORDERED, T_NUMBERS, T_CLI = (
    f"tests/test_{m}.py"
    for m in ("series", "tape", "expressions", "residual_identity", "solver", "ordered_paths",
              "numbers", "cli"))

_LAYOUT_LOOP = """\
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
"""
_RECURSIVE_LAYOUT = """\
    def visit(node):
        if id(node) not in slots:
            if type(node) not in _KINDS:
                raise TypeError(f"not an expression node: {node!r}")
            fields, literal = tuple(node.__dict__.values()), None
            if type(node) in _LITERAL:
                fields, literal = fields[:-1], fields[-1]
            operands = tuple([visit(f) for f in fields])
            slots[id(node)] = len(layout)
            layout.append((node, operands, literal))
        return slots[id(node)]

    visit(e)
"""
_DEPTH_CHECK = """\
    if depths[-1] > MAX_DEPTH:
        raise error(f"{name} nests deeper than {MAX_DEPTH} levels")
"""
_LITERAL_CHECKS = """\
    for node, _, literal in layout:
        if isinstance(node, (Constant, PowInt, PowXReal)):
            value = gps.check_real(literal, f"a literal in {name}", error)
            if isinstance(node, PowInt) and value % 1 != 0:
                raise error(f"{name} has the non-integral power {value!r}")
"""
_ZEROS_DROPPED = """\
    if np.count_nonzero(coeffs) == len(coeffs):
        return coeffs, exponents
    keep = magnitude > 0.0
"""
_X_OUTSIDE = f"{T_CLI}::test_an_x_outside_0_to_10_or_with_its_sign_bit_set_is_formatted_by_percent"
_CAUCHY = "tests/test_properties.py::test_decomposition_polynomials_of_fixed_f_are_cauchy_integrals"
_FINAL_MERGE = "np.concatenate(coeffs), np.concatenate(exponents)) if coeffs else _ZERO"
_PRODUCT_JOINS = """\
                coeffs.append(c.ravel())
                exponents.append((a.exponents[:, None] + b.exponents).ravel())
"""

MUTANTS = (
    # a number is one Constant: the parser folds the minus signs before a literal, and the
    # tape weights a product by a Constant
    Mutant("negated-literal-kept-as-neg", EXPRESSIONS,
           "Constant(-node.value) if type(node) is Constant else Neg(node)", "Neg(node)",
           (f"{T_EXPR}::test_minus_signs_before_a_number_make_one_literal_of_the_signed_value",
            "tests/test_properties.py::test_no_parsed_tree_holds_a_negated_literal",
            "tests/test_properties.py::"
            "test_a_tree_built_from_signed_constants_parses_back_from_its_text")),
    Mutant("negation-count-ignored", EXPRESSIONS,
           "Constant(-node.value) if type(node)", "Constant(-abs(node.value)) if type(node)",
           (f"{T_EXPR}::test_minus_signs_before_a_number_make_one_literal_of_the_signed_value",)),
    Mutant("only-a-left-number-folded", EXPRESSIONS,
           "(operands[0] in numbers or operands[1] in numbers)", "operands[0] in numbers",
           (f"{T_TAPE}::test_a_product_by_a_number_is_one_weighted_part",)),
    # the two rules of series.combine
    Mutant("zero-weight-products-formed", SERIES,
           "if w != 0.0 and len(a.coeffs)", "if len(a.coeffs)",
           (f"{T_SERIES}::test_a_product_of_weight_0_is_skipped_before_it_is_formed",)),
    Mutant("a-wide-product-normalized-alone", SERIES,
           _PRODUCT_JOINS,
           "                c, e = c.ravel(), (a.exponents[:, None] + b.exponents).ravel()\n"
           "                c, e = _merged(c, e) if len(c) > 256 else (c, e)\n"
           "                coeffs.append(c)\n                exponents.append(e)\n",
           (f"{T_SERIES}::test_a_product_joins_the_sum_raw_up_to_fused_product_terms",)),
    # the kernel: groups summed in input order, anchored, and a zero exponent as +0.0
    Mutant("groups-summed-in-sorted-order", SERIES,
           "np.bincount(at_input, weights=coeffs)", "np.bincount(group, weights=coeffs[order])",
           (f"{T_SERIES}::test_a_group_adds_its_coefficients_in_input_order",
            f"{T_SERIES}::test_tie_heavy_raw_arrays_match_the_reference")),
    Mutant("anchored-groups-fallback-skipped", SERIES,
           "if len(anchors) < len(e) and gaps @ ~head[1:] > 0.5 * EXPONENT_MERGE_TOL:", "if False:",
           (f"{T_SERIES}::test_normalize_merge_is_anchored_at_the_first_exponent",
            f"{T_SERIES}::test_tie_heavy_raw_arrays_match_the_reference")),
    Mutant("anchored-groups-span-test-never-falls-back", SERIES,
           "if np.maximum.reduce(e[last] - anchors) > EXPONENT_MERGE_TOL:", "if False:",
           (f"{T_SERIES}::test_normalize_merge_is_anchored_at_the_first_exponent",
            f"{T_SERIES}::test_tie_heavy_raw_arrays_match_the_reference")),
    Mutant("a-zero-exponent-as-the-sort-left-it", SERIES,
           "    anchors += 0.0  #", "    #",
           (f"{T_SERIES}::test_a_group_of_both_zeros_is_positive_zero_in_any_input_order",)),
    # the kernel drops exact zeros only, once every coefficient is known finite
    Mutant("exact-zeros-kept", SERIES,
           "keep = magnitude > 0.0", "keep = magnitude >= 0.0",
           (f"{T_SERIES}::test_normalize_drops_exact_cancellation",
            f"{T_SERIES}::test_normalize_matches_reference_bit_for_bit")),
    Mutant("no-finite-check-of-merged-sums", SERIES,
           "if not math.isfinite(np.maximum.reduce(magnitude)):", "if False:",
           (f"{T_SERIES}::test_merged_coefficient_overflow_is_a_non_finite_term",)),
    Mutant("relative-prune-restored", SERIES,
           _ZEROS_DROPPED, "    keep = magnitude > 1e-14 * np.maximum.reduce(magnitude)\n",
           (f"{T_SERIES}::test_normalize_keeps_a_coefficient_far_below_the_largest",
            "tests/test_truth_errors.py::test_psi_is_no_further_from_the_solution_than_recorded")),
    # the one fault rule: the kernel is given the weighted parts, then the weighted products
    Mutant("products-before-parts", SERIES,
           _FINAL_MERGE,
           _FINAL_MERGE.replace("(coeffs)", "(coeffs[alone:] + coeffs[:alone])")
                       .replace("(exponents)", "(exponents[alone:] + exponents[:alone])"),
           (f"{T_SERIES}::"
            "test_an_overflowing_part_names_the_error_before_an_overflowing_product",)),
    # one iterative layout, and the literal rules of check_expr
    Mutant("layout-keyed-by-value", EXPRESSIONS,
           _LAYOUT_LOOP, _LAYOUT_LOOP.replace("id(node)", "node").replace("id(f)", "f"),
           (f"{T_EXPR}::test_eval_real_evaluates_each_constant_object_on_its_own",)),
    Mutant("recursive-layout", EXPRESSIONS,
           _LAYOUT_LOOP, _RECURSIVE_LAYOUT,
           (f"{T_EXPR}::test_every_reader_takes_a_5000_level_tree",)),
    # one layout per tree object: kept on the tree after its walk, read back, and not copied
    Mutant("layout-never-kept", EXPRESSIONS,
           '    object.__setattr__(e, "_laid_out", (layout[:-1], layout[-1][1:]))\n', "",
           (f"{T_EXPR}::test_each_tree_object_is_walked_once",)),
    Mutant("kept-layout-never-read", EXPRESSIONS,
           'if (kept := getattr(e, "_laid_out", None)) is not None:', "if False:",
           (f"{T_EXPR}::test_each_tree_object_is_walked_once",)),
    Mutant("layout-kept-with-its-own-entry", EXPRESSIONS,
           "(layout[:-1], layout[-1][1:])", "(layout[:-1], layout[-1][1:], layout)",
           (f"{T_EXPR}::test_a_laid_out_tree_is_freed_when_its_last_reference_goes",)),
    Mutant("copy-carries-the-layout-slot", EXPRESSIONS,
           "    def __getstate__(self) -> dict:", "    def _getstate(self) -> dict:",
           (f"{T_EXPR}::test_a_copy_holds_the_fields_alone_and_lays_itself_out_again",)),
    Mutant("literals-checked-before-depth", EXPRESSIONS,
           _DEPTH_CHECK + _LITERAL_CHECKS, _LITERAL_CHECKS + _DEPTH_CHECK,
           (f"{T_EXPR}::test_literals_are_checked_after_depth_and_before_variables",)),
    Mutant("no-check-of-the-power", EXPRESSIONS,
           "isinstance(node, PowInt) and value % 1 != 0", "False",
           (f"{T_EXPR}::test_each_entry_point_rejects_a_bad_literal_with_its_own_error",)),
    # the one number rule, series.check_real, and the float read of a literal
    Mutant("number-type-not-checked", SERIES,
           "if not isinstance(value, Real):", "if False:",
           (f"{T_EXPR}::test_each_entry_point_rejects_a_bad_literal_with_its_own_error",
            f"{T_SOLVER}::test_problem_refuses_a_number_that_is_not_real",
            f"{T_NUMBERS}::test_each_number_is_refused_with_its_own_error_or_read_as_its_float",
            f"{T_NUMBERS}::test_check_real_raises_the_error_it_is_given")),
    Mutant("number-past-the-largest-float-not-caught", SERIES,
           "except OverflowError:", "except ZeroDivisionError:",
           (f"{T_NUMBERS}::test_each_number_is_refused_with_its_own_error_or_read_as_its_float",
            f"{T_NUMBERS}::test_check_real_raises_the_error_it_is_given")),
    Mutant("infinite-number-accepted", SERIES,
           "if math.isfinite(number := float(value)):",
           "if not math.isnan(number := float(value)):",
           (f"{T_SOLVER}::test_problem_rejects_non_finite_numbers",
            f"{T_EXPR}::test_each_entry_point_rejects_a_bad_literal_with_its_own_error",
            f"{T_NUMBERS}::test_check_real_raises_the_error_it_is_given")),
    Mutant("float-fast-path-skips-the-finiteness-test", SERIES,
           "if type(value) is float and math.isfinite(value):", "if type(value) is float:",
           (f"{T_SOLVER}::test_problem_rejects_non_finite_numbers",
            f"{T_NUMBERS}::test_check_real_raises_the_error_it_is_given",
            "tests/test_benchmarks.py::test_non_finite_parameter_is_invalid_problem")),
    Mutant("constant-evaluated-as-given", EXPRESSIONS,
           "return _number(e.value)", "return e.value",
           (f"{T_NUMBERS}::test_each_number_is_refused_with_its_own_error_or_read_as_its_float",)),
    Mutant("to-source-returns-the-cut-text", EXPRESSIONS,
           'raise InvalidProblem(f"expression text is longer than {MAX_SOURCE_CHARS} characters")',
           "return text",
           (f"{T_EXPR}::test_dump_problem_refuses_the_text_of_a_40_level_shared_dag_at_once",)),
    Mutant("a-constant-printed-as-given", EXPRESSIONS,
           "return _ATOM, [repr(_number(literal))]", "return _ATOM, [repr(literal)]",
           ("tests/test_problem_file.py::"
            "test_literals_of_other_number_types_dump_as_plain_text_that_reloads",)),
    Mutant("the-tape-power-not-an-int", EXPRESSIONS,
           "column, power = operands[0], int(literal)", "column, power = operands[0], literal",
           (f"{T_EXPR}::test_an_integral_power_of_another_number_type_solves_as_an_int",)),
    # the solver step and the tape recurrences, against the residual identity
    Mutant("sub-weighted-1-0.999", EXPRESSIONS,
           "Sub: linear_coeff(1.0, -1.0)", "Sub: linear_coeff(1.0, -0.999)",
           (f"{T_IDENTITY}::test_residual_of_an_affine_f_is_its_next_polynomial",)),
    Mutant("mul-coeff-drops-its-last-product", EXPRESSIONS,
           "for i in range(k + 1)))", "for i in range(k)))",
           (f"{T_IDENTITY}::test_residual_of_an_affine_f_is_its_next_polynomial",)),
    Mutant("div-coeff-drops-its-last-term", EXPRESSIONS,
           "b[j], out[k - j]) for j in range(1, k + 1)))",
           "b[j], out[k - j]) for j in range(1, k)))",
           (_CAUCHY,)),
    Mutant("ln-coeff-drops-its-first-term", EXPRESSIONS,
           "a[k - j]) for j in range(1, k))", "a[k - j]) for j in range(2, k))",
           (_CAUCHY,)),
    Mutant("exp-coeff-cut-short", EXPRESSIONS,
           "(j / k, a[j], out[k - j]) for j in range(1, k + 1)",
           "(j / k, a[j], out[k - j]) for j in range(1, k)",
           (_CAUCHY,)),
    Mutant("bleed-weight-off-by-0.1%", SOLVER,
           "alpha1 * gps.at_one(image) / D", "alpha1 * gps.at_one(image) * 1.001 / D",
           (f"{T_IDENTITY}::test_every_partial_sum_solves_its_linear_problem",)),
    Mutant("inhomogeneous-term-dropped", SOLVER,
           "weight = (problem.gamma1 - problem.alpha1 * problem.eta1) / D", "weight = 0.0",
           (f"{T_IDENTITY}::test_every_partial_sum_solves_its_linear_problem",)),
    Mutant("step-image-sign-flipped", SOLVER,
           "coeffs = -image.coeffs", "coeffs = +image.coeffs",
           (f"{T_IDENTITY}::test_every_partial_sum_solves_its_linear_problem",)),
    Mutant("partial-sums-one-component-behind", SOLVER,
           "report.diagnostics[:m]", "report.diagnostics[:m - 1]",
           (f"{T_SOLVER}::test_partial_sums_are_the_left_fold_of_the_components",
            f"{T_IDENTITY}::test_every_partial_sum_solves_its_linear_problem")),
    Mutant("psi-returned-one-component-early", SOLVER,
           "report.psi if m == report.n else", "report.psi if m >= report.n - 1 else",
           (f"{T_SOLVER}::test_partial_sums_are_the_left_fold_of_the_components",)),
    Mutant("psi-one-component-behind", SOLVER,
           "(1.0, step.y) for step in taken)", "(1.0, step.y) for step in taken[:-1])",
           ("tests/test_golden_psi.py::test_psi_bit_identical_to_fixture",)),
    Mutant("psi-overflow-untagged", SOLVER,
           'raise type(err)(f"psi_{n}: {err}") from err', "raise",
           (f"{T_SOLVER}::test_a_sum_of_finite_components_that_overflows_names_psi",)),
    # the Robin denominator and the checks of Problem
    Mutant("h-at-one-respelled-in-d", SOLVER,
           "problem.alpha1 * gps.at_one(H)", "problem.alpha1 / (1.0 - problem.alpha)",
           ("tests/test_golden_psi.py::test_psi_bit_identical_to_fixture",)),
    Mutant("no-alpha-check-in-problem", SOLVER,
           "OperatorContext(self.alpha, self.sigma)  #", "#",
           (f"{T_SOLVER}::test_problem_validation",
            f"{T_SOLVER}::test_problem_checks_alpha_before_the_boundary_data")),
    Mutant("problem-numbers-kept-as-given", SOLVER,
           "object.__setattr__(self, name, check_real(getattr(self, name), name))",
           "check_real(getattr(self, name), name)",
           (f"{T_SOLVER}::test_problem_stores_each_real_number_as_a_float",
            f"{T_SOLVER}::"
            "test_numpy_boundary_data_that_overflows_is_the_non_finite_term_of_a_float")),
    Mutant("alpha-within-the-tolerance-of-1-accepted", SOLVER,
           "(gap := 1.0 - self.alpha) <= EXPONENT_MERGE_TOL", "(gap := 1.0 - self.alpha) < 0.0",
           (f"{T_SOLVER}::test_problem_refuses_alpha_within_the_merge_tolerance_of_1",
            f"{T_ORDERED}::test_a_y_exponent_within_the_tolerance_of_0_is_refused_in_a_problem",
            "tests/test_cli.py::test_table_refuses_alpha_within_the_merge_tolerance_of_1")),
    # the stream forms a step only when it is read
    Mutant("solve-reads-one-step-past-n", SOLVER,
           "for _, step in zip(range(n), steps(problem))",
           "for step, _ in zip(steps(problem), range(n))",
           (f"{T_SOLVER}::test_a_failing_step_raises_at_its_own_next_after_every_earlier_step",)),
    # counts pass one rule where they enter: an integer, then each bound
    Mutant("n-not-checked-as-an-integer", SOLVER,
           'n = check_count(n, "n", 1)', "n = n",
           (f"{T_SOLVER}::test_solve_takes_an_integer_n_only",)),
    Mutant("m-not-checked-as-an-integer", SOLVER,
           'm = check_count(m, "m", 1, report.n)', "m = m",
           (f"{T_SOLVER}::test_partial_sum_takes_an_integer_m_only",)),
    Mutant("grid-size-not-checked-as-an-integer", DIAGNOSTICS,
           'grid_size = check_count(grid_size, "grid_size", 1, MAX_GRID_SIZE)',
           "grid_size = grid_size",
           ("tests/test_diagnostics.py::test_grid_size_is_an_integer_only",)),
    Mutant("table-grid-not-checked", CLI,
           'grid = check_count(args.grid, "grid_size", 1, MAX_GRID_SIZE)', "grid = args.grid",
           (f"{T_CLI}::test_one_grid_size_rule",)),
    Mutant("count-below-the-low-bound-accepted", SOLVER,
           "if count < low:", "if count < low - 1:",
           (f"{T_SOLVER}::test_one_count_rule_names_the_count_its_bound_and_the_value",
            f"{T_SOLVER}::test_solve_takes_an_integer_n_only",
            f"{T_SOLVER}::test_partial_sum_bounds_and_identity",
            f"{T_CLI}::test_one_grid_size_rule")),
    Mutant("count-past-the-high-bound-accepted", SOLVER,
           "if high is not None and count > high:", "if high is not None and count > high + 1:",
           (f"{T_SOLVER}::test_one_count_rule_names_the_count_its_bound_and_the_value",
            f"{T_SOLVER}::test_partial_sum_bounds_and_identity",
            "tests/test_diagnostics.py::test_grid_size_is_at_most_max_grid_size")),
    # one power per distinct exponent, the value at x = 1, and the grid bound
    Mutant("power-reused-across-near-equal-exponents", SERIES,
           "if e != last:", "if last is None or abs(e - last) > EXPONENT_MERGE_TOL:",
           (f"{T_SERIES}::test_evaluate_each_is_each_series_term_by_term",)),
    Mutant("term-added-into-the-first-output", SERIES,
           "outs[i] += multiply(c, power, term)", "outs[0] += multiply(c, power, term)",
           (f"{T_SERIES}::test_evaluate_each_is_each_series_term_by_term",
            "tests/test_diagnostics.py::test_max_errors_is_max_error_of_each_partial_sum")),
    Mutant("value-at-one-compensated", SERIES,
           "    total = 0.0\n    for c in a.coeffs.tolist():\n        total += c\n    return total\n",
           "    return math.fsum(a.coeffs.tolist())\n",
           (f"{T_SERIES}::test_the_value_at_one_adds_left_to_right_from_zero",)),
    Mutant("grid-bound-off-by-one", DIAGNOSTICS,
           '(grid_size, "grid_size", 1, MAX_GRID_SIZE)',
           '(grid_size, "grid_size", 1, MAX_GRID_SIZE - 1)',
           ("tests/test_diagnostics.py::test_grid_size_is_at_most_max_grid_size",
            "tests/test_cli.py::test_one_grid_size_rule")),
    # a table's partial sums, measured in calls of at most MAX_GRID_SIZE points
    Mutant("errors-written-into-the-reference", DIAGNOSTICS,
           "np.abs(np.subtract(v, reference, out=v), out=v)",
           "np.abs(np.subtract(v, reference, out=reference), out=reference)",
           ("tests/test_diagnostics.py::test_max_errors_is_max_error_of_each_partial_sum",)),
    Mutant("table-row-bound-without-its-floor", CLI,
           "rows = max(1, MAX_GRID_SIZE // (len(ns) * grid))",
           "rows = MAX_GRID_SIZE // (len(ns) * grid)",
           ("tests/test_cli.py::test_a_table_split_over_several_calls_prints_the_bytes_of_one",)),
    # the three series of the residual, evaluated in one pass
    Mutant("residual-psi-and-its-derivative-swapped", DIAGNOSTICS,
           "(apply_forward(problem.alpha, psi), psi, gps.differentiate(psi))",
           "(apply_forward(problem.alpha, psi), gps.differentiate(psi), psi)",
           ("tests/test_diagnostics.py::"
            "test_residual_grid_is_the_formula_of_one_series_at_a_time_bit_for_bit",)),
    # the hand-made mutations of the early kernel, family, evaluation and sum changes
    Mutant("groups-summed-by-reduceat", SERIES,
           "np.bincount(at_input, weights=coeffs)[1:]",
           "np.add.reduceat(coeffs[order], np.flatnonzero(np.diff(group, prepend=0)))",
           (f"{T_SERIES}::test_a_group_adds_its_coefficients_in_input_order",
            f"{T_SERIES}::test_tie_heavy_raw_arrays_match_the_reference")),
    Mutant("beta-1-written-as-a-power", BENCHMARKS,
           "x_beta = X if beta == 1.0 else PowXReal(beta)", "x_beta = PowXReal(beta)",
           ("tests/test_benchmarks.py::test_benchmark_problem_is_pinned",)),
    Mutant("family-1-gamma1-logarithm-swapped", BENCHMARKS,
           "-math.log(4), -math.log(5)", "-math.log(4), -math.log(4)",
           ("tests/test_benchmarks.py::test_benchmark_problem_is_pinned",)),
    # the residual listing: fixed-width rows where the estimates settle each digit, else %
    Mutant("listing-tie-margin-0", CLI,
           "(np.abs(m - mantissa) < 0.5 - 1e-3)", "(np.abs(m - mantissa) < 0.5)",
           (f"{T_CLI}::test_a_row_at_an_11th_digit_tie_is_formatted_by_percent",)),
    Mutant("listing-unsettled-rows-not-spliced", CLI,
           "for i in np.flatnonzero(~settled).tolist():", "for i in []:",
           (f"{T_CLI}::test_residual_of_the_demo_problem_is_pinned_byte_for_byte",
            f"{T_CLI}::test_a_row_at_an_11th_digit_tie_is_formatted_by_percent")),
    Mutant("listing-every-row-by-percent", CLI,
           "settled = (~np.signbit(xs)", "settled = np.zeros(len(xs), bool) & (~np.signbit(xs)",
           (f"{T_CLI}::test_percent_formats_at_most_1_percent_of_the_demo_listing",)),
    Mutant("listing-carry-dropped", CLI,
           "carry = mantissa == 1e11", "carry = mantissa > 1e11",
           (f"{T_CLI}::test_a_mantissa_rounded_to_10_carries_to_the_next_decade",)),
    Mutant("listing-x-sign-bit-unchecked", CLI,
           "settled = (~np.signbit(xs) & ", "settled = (",
           (_X_OUTSIDE,)),
    Mutant("listing-x-of-10-settled", CLI,
           "(n < 1e7)", "(n <= 1e7)",
           (_X_OUTSIDE,)),
    Mutant("listing-three-digit-exponent-settled", CLI,
           "(np.abs(e) <= 99)", "(np.abs(e) <= 100)",
           (f"{T_CLI}::test_zeros_subnormals_and_three_digit_exponents_are_formatted_by_percent",)),
    Mutant("empty-list-accepted", CLI,
           "if not values:", "if False:",
           ("tests/test_cli.py::test_table_empty_list_is_a_usage_error",)),
    Mutant("no-overflow-check-in-eval-real", EXPRESSIONS,
           "if np.any(np.isfinite(operand) & ~np.isfinite(value)):", "if False:",
           (f"{T_EXPR}::test_eval_real_overflow_is_non_finite_term",)),
    Mutant("real-power-of-zero-not-checked", EXPRESSIONS,
           "| (x == 0.0) & (p < 0.0)", "",
           (f"{T_EXPR}::test_eval_real_grid_raises_when_any_point_violates_the_domain",)),
    Mutant("last-offending-value-named", EXPRESSIONS,
           "[np.asarray(undefined)][0]", "[np.asarray(undefined)][-1]",
           (f"{T_EXPR}::test_eval_real_grid_raises_when_any_point_violates_the_domain",)),
    Mutant("zero-weight-parts-summed", SERIES,
           "if w != 0.0 and len(s.coeffs):", "if len(s.coeffs):",
           (f"{T_SERIES}::test_operations_match_reference_bit_for_bit",)),
    Mutant("a-single-part-not-checked", SERIES,
           "else GPSeries._of(*_nonzero(c, e, (c, e)))", "else GPSeries._of(c, e)",
           (f"{T_SERIES}::test_operations_match_reference_bit_for_bit",)),
    Mutant("parts-summed-in-reverse", SERIES,
           _FINAL_MERGE,
           _FINAL_MERGE.replace("(coeffs)", "(coeffs[::-1])")
                       .replace("(exponents)", "(exponents[::-1])"),
           (f"{T_SERIES}::test_operations_match_reference_bit_for_bit",)),
    Mutant("boundary-weight-at-every-step", SOLVER,
           "        weight = 0.0\n", "",
           (f"{T_IDENTITY}::test_every_partial_sum_solves_its_linear_problem",)),
    Mutant("no-depth-check", EXPRESSIONS,
           _DEPTH_CHECK, "",
           ("tests/test_diagnostics.py::test_max_error_rejects_a_reference_past_the_depth_bound",)),
    Mutant("no-nesting-check-in-the-parser", EXPRESSIONS,
           "if nesting > MAX_DEPTH:", "if False:",
           ("tests/test_cli.py::test_too_deep_f_is_one_parse_error",)),
    # the token scan, the comment match and the canonical shape of == and hash
    Mutant("no-trailing-input-check", EXPRESSIONS,
           "if (position := tokens[-1][2]) != len(source):", "if False:",
           (f"{T_EXPR}::test_parse_error_contract",)),
    Mutant("a-digit-no-number-starts-with-taken-for-any-character", EXPRESSIONS,
           'if kind == _NUMBER or text.isdigit() or text == ".":', "if kind == _NUMBER:",
           (f"{T_EXPR}::test_parse_error_contract",)),
    Mutant("a-digit-of-any-script-read-in-a-number", EXPRESSIONS,
           r"((?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)",
           r"((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)",
           (f"{T_EXPR}::test_parse_reads_whitespace_of_any_script_and_digits_0_to_9_alone",)),
    Mutant("a-digit-separator-read-in-a-value", "src/adomian_bvp/problem_file.py",
           'if "_" in text or not text.strip().isascii():', "if not text.strip().isascii():",
           ("tests/test_problem_file.py::"
            "test_a_value_with_a_digit_separator_or_a_non_ascii_digit_is_invalid",
            f"{T_CLI}::test_a_digit_separator_or_a_non_ascii_digit_in_an_option_is_a_usage_error")),
    Mutant("an-open-quote-not-run-to-the-end-of-the-line", "src/adomian_bvp/problem_file.py",
           """|"[^"]*"?)*""", """|"[^"]*")*""",
           ("tests/test_problem_file.py::test_a_comment_starts_at_the_first_hash_outside_quotes",)),
    Mutant("shape-key-without-the-literal", EXPRESSIONS,
           "key = (type(node), tuple([ids[i] for i in operands]), literal)",
           "key = (type(node), tuple([ids[i] for i in operands]))",
           (f"{T_EXPR}::test_trees_compare_by_type_literal_and_operand_order",)),
    Mutant("shape-keyed-by-layout-slot", EXPRESSIONS,
           "key = (type(node), tuple([ids[i] for i in operands]), literal)",
           "key = (type(node), operands, literal)",
           (f"{T_EXPR}::"
            "test_equal_trees_compare_and_hash_equal_however_their_subtrees_are_shared",)),
    Mutant("near-zero-exponent-at-zero-as-a-power", SERIES,
           "if has_zero and 0.0 < abs(e) <= EXPONENT_MERGE_TOL:", "if False:",
           (f"{T_SERIES}::test_evaluate_at_zero_rules",)),
    Mutant("no-singular-check-at-zero", SERIES,
           "if has_zero and len(a) and a.exponents[0] < -EXPONENT_MERGE_TOL:", "if False:",
           (f"{T_SERIES}::test_evaluate_at_zero_rules",)),
    # the ordered paths: in exponent order, and the kernel wherever terms would merge
    Mutant("ordered-gap-check-dropped", SERIES,
           "> EXPONENT_MERGE_TOL and np.count_nonzero(coeffs) == len(coeffs)",
           "> 0.0 and np.count_nonzero(coeffs) == len(coeffs)",
           (f"{T_ORDERED}::test_exponents_rounded_within_the_tolerance_merge_as_in_the_kernel",)),
    Mutant("ordered-zero-kept", SERIES,
           "and np.count_nonzero(coeffs) == len(coeffs)\n", "and True\n",
           (f"{T_ORDERED}::test_an_underflowing_coefficient_is_dropped_as_the_kernel_drops_it",)),
    Mutant("ordered-non-finite-kept", SERIES,
           "\n            and math.isfinite(np.maximum.reduce(np.abs(coeffs))))", ")",
           (f"{T_ORDERED}::test_an_overflow_names_the_first_term_that_the_kernel_is_given",)),
    Mutant("image-head-summed-in-reverse", OPERATOR,
           "for c in heads.tolist():", "for c in heads.tolist()[::-1]:",
           (f"{T_ORDERED}::test_apply_inverse_is_the_kernel_of_the_interleaved_raw_image",)),
    # the guards of the step's assembly in order, of the derivative's mask, and the kernel's gaps
    Mutant("step-zero-head-kept", SOLVER,
           "if head != 0.0 and math.isfinite(head):", "if math.isfinite(head):",
           (f"{T_ORDERED}::test_an_x_1_alpha_sum_of_0_is_dropped_and_the_assembly_puts_one_back",
            f"{T_ORDERED}::test_each_fallback_of_the_step_is_the_pipeline_it_replaced")),
    Mutant("step-non-finite-head-kept", SOLVER,
           "if head != 0.0 and math.isfinite(head):", "if head != 0.0:",
           (f"{T_ORDERED}::test_each_fallback_of_the_step_is_the_pipeline_it_replaced",)),
    Mutant("derivative-mask-skipped-past-0", SERIES,
           "exponents.item(0) <= EXPONENT_MERGE_TOL:", "exponents.item(0) <= 0.0:",
           (f"{T_ORDERED}::test_differentiate_skips_its_mask_only_past_the_tolerance",
            f"{T_ORDERED}::test_each_fallback_of_the_step_is_the_pipeline_it_replaced")),
    Mutant("kernel-gaps-past-the-largest-float", SERIES,
           "gaps = np.minimum(e[1:] - e[:-1], 1.0)", "gaps = e[1:] - e[:-1]",
           (f"{T_ORDERED}::test_an_exponent_span_past_the_largest_float_warns_of_nothing",)),
    Mutant("ordered-span-unchecked", SERIES,
           "and math.isfinite(exponents.item(-1) - exponents.item(0))", "and True",
           (f"{T_ORDERED}::test_an_exponent_span_past_the_largest_float_warns_of_nothing",)),
    # a lone product by one term, kept in order inside combine
    Mutant("shift-past-the-cap", SERIES,
           "if len(a.coeffs) * len(b.coeffs) > DEFAULT_TERM_CAP:", "if False:",
           (f"{T_ORDERED}::test_a_shift_past_the_term_cap_is_the_term_blowup_of_mul",)),
    Mutant("weighted-lone-product-kept-in-order", SERIES,
           "shift = weight == 1.0 and 1 in product.shape", "shift = 1 in product.shape",
           (f"{T_ORDERED}::"
            "test_a_weighted_lone_product_stays_on_the_kernel_and_names_the_weighted_term",
            f"{T_ORDERED}::test_a_lone_product_through_combine_is_the_kernel_of_its_raw_product")),
    Mutant("wide-factor-taken-for-one-term", SERIES,
           "shift = weight == 1.0 and 1 in product.shape", "shift = weight == 1.0",
           (f"{T_ORDERED}::test_shift_is_mul_by_the_monomial_and_differentiate_its_kernel_form",)),
    # the depth walk and the ring's order guard
    Mutant("depth-walk-one-level-short", EXPRESSIONS,
           "if depths[-1] > MAX_DEPTH:", "if depths[-1] >= MAX_DEPTH:",
           (f"{T_EXPR}::test_each_entry_point_accepts_the_depth_bound",)),
    Mutant("extract-guard-off-by-one", LAMBDA_RING,
           "n >= len(f_of_lambda)", "n > len(f_of_lambda)",
           ("tests/test_lambda_ring.py::test_extract_order_guard",)),
)


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    """pytest on ``tests`` in ``tree``, stopping at the first failure; its output is captured."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def run(mutants) -> int:
    """Run the clean copy and each mutant; print one line each and return the exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".*"))
            else:
                shutil.copy(ROOT / name, tree / name)
        every_test = sorted({t for m in mutants for t in m.tests})
        clean = _pytest(tree, every_test)
        if clean.returncode != 0:
            print("the clean copy fails its tests:")
            print(clean.stdout + clean.stderr)
            return 1
        missed = 0
        for m in mutants:
            path = tree / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                raise ValueError(f"{m.id}: its old text is not once in {m.path}")
            started = time.perf_counter()
            path.write_text(text.replace(m.old, m.new))
            try:
                caught = _pytest(tree, m.tests).returncode == 1  # 1: tests ran and some failed
            finally:
                path.write_text(text)
            missed += not caught
            seconds = time.perf_counter() - started
            print(f"{'caught' if caught else 'MISSED'}  {m.id}  ({seconds:.1f} s)")
        print(f"{len(mutants) - missed} of {len(mutants)} mutants caught")
        return 1 if missed else 0


if __name__ == "__main__":
    chosen = sys.argv[1:]
    unknown = set(chosen) - {m.id for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutant ids: {sorted(unknown)}")
    sys.exit(run([m for m in MUTANTS if not chosen or m.id in chosen]))
