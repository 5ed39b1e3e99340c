"""Mutants of ``src/lsglue`` and the tests that must kill them.

Each entry of :data:`CATALOG` is one mutant: the file under ``src/lsglue``,
an exact text that occurs once in ``src/``, the text that replaces it, and
the pytest node ids that must fail on the mutated code.  A node id that
covers several parametrized or hypothesis cases fails when one of them does.
``tests/test_mutants.py`` checks in tier-1 that every old text still occurs
exactly once and that every node id names a test, so a change that moves or
renames the code or a test must carry its entry along.

Run it with the standard library and pytest:

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries

For each entry the runner copies ``src/`` to a temporary directory, applies
the entry there, and runs only the entry's node ids against the copy, with
hypothesis seeded, so the working tree is never touched.  It prints one line
per entry and exits 1 when a node id passes, selects no test, or an entry
cannot be applied.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "name path old new tests")

# the slot-key check: a key must spell itself again from the ints it holds
_KEY = "if _index_key(idx) != key:"
_SLOT_KEY_TEST = "tests/test_koszul.py::test_slot_key_grammar_matches_json_round_trip"
_SINGULAR_FIRST = "tests/test_cli.py::test_verify_singular_cell_exit_2_before_the_cochain"
_ONE_POINT_OVERLAP = "tests/test_cli.py::test_exact_data_one_point_overlap_exit_2"
_GROUPED_FITS = "tests/test_vector_cochain.py::test_grouped_fits_equal_per_cell_elimination"

CATALOG = [
    Mutant(
        "rhs_not_scaled_with_its_row",
        "linalg.py",
        "[[a.den * v for v in b.nums] for b in columns]",
        "[list(b.nums) for b in columns]",
        ["tests/test_kernels.py::test_elimination_matches_adjugate"],
    ),
    Mutant(
        "matrix_not_in_lowest_terms",
        "linalg.py",
        "g = gcd(den, *nums)",
        "g = 1",
        [
            "tests/test_linalg.py::test_matrix_fields_are_its_entries_in_lowest_terms",
            "tests/test_integer_rows.py::test_normal_system_fields_are_nu_in_lowest_terms",
        ],
    ),
    Mutant(
        "no_rescale_when_q_grows",
        "linalg.py",
        "x = [v * scale for v in x]",
        "pass",
        ["tests/test_kernels.py::test_elimination_matches_adjugate"],
    ),
    Mutant(
        "column_denominator_dropped",
        "linalg.py",
        "return Vector(x, q * den)",
        "return Vector(x, q)",
        ["tests/test_kernels.py::test_elimination_matches_adjugate"],
    ),
    Mutant(
        "delta_reversed",
        "assembly.py",
        "deltas = tuple(bases[(j,)] - bases[(i,)] for i, j in pairs)",
        "deltas = tuple(bases[(i,)] - bases[(j,)] for i, j in pairs)",
        [
            "tests/test_vector_cochain.py::test_pair_beta_from_its_fit_is_the_cramer_solution",
            "tests/test_assembly.py::test_build_zero_cocycle_toy",
        ],
    ),
    Mutant(
        "value_eq_reads_only_the_first_field",
        "linalg.py",
        "return fields(self) == fields(other)",
        "return getattr(self, self.__slots__[0]) == getattr(other, self.__slots__[0])",
        ["tests/test_values.py::test_value_semantics"],
    ),
    Mutant(
        "rank_condition_dropped_from_fit_cells",
        "assembly.py",
        "_solves(system, candidate) and _full_modular_rank(system):",
        "_solves(system, candidate):",
        [
            "tests/test_vector_cochain.py::test_claims_that_solve_a_singular_cell_are_not_taken",
            f"{_SINGULAR_FIRST}[a_hat_solves]",
            _ONE_POINT_OVERLAP,
        ],
    ),
    Mutant(
        # a neighbour's â was certified, but for the neighbour's system
        "neighbour_candidate_taken_without_rank",
        "assembly.py",
        "and _full_modular_rank(system):",
        "and (cell not in claims or _full_modular_rank(system)):",
        [_ONE_POINT_OVERLAP, _GROUPED_FITS],
    ),
    Mutant(
        "zero_delta_pairs_take_the_candidate_uncertified",
        "assembly.py",
        "candidate is not None and _solves(system, candidate) and _full_modular_rank(system)",
        "candidate is not None and (pairs or _solves(system, candidate)"
        " and _full_modular_rank(system))",
        [
            f"{_GROUPED_FITS}_on_fixed_covers[charts_agree]",
            "tests/test_vector_cochain.py::test_charts_that_agree_leave_their_pair_its_own_fit",
            _ONE_POINT_OVERLAP,
        ],
    ),
    Mutant(
        "except_dropped_from_certified_cochain",
        "cli.py",
        "    except (LsglueError, OSError):\n        raise_if_singular(systems)",
        "    except ():\n        raise_if_singular(systems)",
        [
            f"{_SINGULAR_FIRST}[invalid_json]",
            f"{_SINGULAR_FIRST}[missing_file]",
            "tests/test_cli.py::test_unreadable_cochain_solves_only_short_rank_cells",
        ],
    ),
    Mutant(
        "json_fast_path_ignores_trailing_data",
        "cli.py",
        "if not text[end:].strip(_BLANK):",
        "if True:",
        ["tests/test_cli.py::test_reader_gives_what_json_loads_gives"],
    ),
    Mutant(
        "cocycle_takes_no_cover",
        "cli.py",
        '        ("cocycle", "verify"),\n    ),',
        '        ("verify",),\n    ),',
        ["tests/test_cli.py::test_parser_parity_refused"],
    ),
    Mutant(
        "slot_key_admits_minus_zero",
        "assembly.py",
        _KEY,
        _KEY.replace(":", ' and "-0" not in key:'),
        [_SLOT_KEY_TEST],
    ),
    Mutant(
        "slot_key_admits_leading_zeros",
        "assembly.py",
        _KEY,
        _KEY.replace(":", ' and "[0" not in key and ",0" not in key:'),
        [_SLOT_KEY_TEST],
    ),
    Mutant(
        "slot_key_admits_any_unicode_digit",
        "assembly.py",
        _KEY,
        _KEY.replace(":", " and key.isascii():"),
        [_SLOT_KEY_TEST],
    ),
    Mutant(
        "all_verified_passes_a_false_obstruction",
        "assembly.py",
        "not check.obstructed and check.residual_zero",
        "check.residual_zero",
        ["tests/test_cli.py::test_verify_false_obstruction_exit_4"],
    ),
    Mutant(
        "literal_admits_any_unicode_digit",
        "scalars.py",
        "return text.isascii() and text.encode().isdigit()",
        "return text.isdigit()",
        ["tests/test_scalars.py::test_literal_grammar_matches_the_two_pattern_reader"],
    ),
    Mutant(
        "pair_delta_and_beta_swapped",
        "assembly.py",
        "fits.pairs.update(zip(pairs, zip(deltas, solution.also)))",
        "fits.pairs.update(zip(pairs, zip(solution.also, deltas)))",
        ["tests/test_golden.py::test_cli_matches_golden"],
    ),
    Mutant(
        "reader_takes_a_base_read_before_unchecked",
        "assembly.py",
        "if parsed_base != base:",
        'if parsed_base != base and tuple(record["base"]) not in seen:',
        [
            "tests/test_cli.py::test_verify_respelled_base_of_another_value_exit_1",
            "tests/test_cli.py::test_verify_beta_based_away_from_the_fit_exit_1",
        ],
    ),
    Mutant(
        "writer_strings_kept_by_dimension",
        "assembly.py",
        "key = id(vec)",
        "key = len(vec)",
        [
            "tests/test_assembly.py::test_report_json_shape_and_round_trip",
            "tests/test_golden.py::test_cli_matches_golden",
        ],
    ),
    Mutant(
        "writer_negative_spelled_as_its_value",
        "assembly.py",
        "((m,), _negated(text), self.linear.get(m, zero))",
        "((m,), text, self.linear.get(m, zero))",
        ["tests/test_golden.py::test_cli_matches_golden"],
    ),
    Mutant(
        "report_strings_not_kept",
        "assembly.py",
        "held = self._vectors[key] = (vec, texts)",
        "held = (vec, texts)",
        ["tests/test_cli.py::test_report_holds_one_list_object_per_vector"],
    ),
    Mutant(
        "json_text_list_shared_across_depths",
        "cli.py",
        "key = (id(node), depth)",
        "key = id(node)",
        [
            "tests/test_cli.py::test_json_text_is_json_dumps_indent_2",
            "tests/test_golden.py::test_cli_matches_golden",
        ],
    ),
    Mutant(
        "reader_lists_keyed_by_their_first_literal",
        "assembly.py",
        "key = tuple(strings)",
        "key = tuple(strings[:1])",
        [
            "tests/test_assembly.py::test_reader_keeps_one_vector_per_distinct_list",
            "tests/test_golden.py::test_cli_matches_golden",
        ],
    ),
    Mutant(
        "json_text_spells_nan",
        "cli.py",
        "    if isfinite(value):\n",
        '    if value != value:\n        return "NaN"\n    if isfinite(value):\n',
        ["tests/test_cli.py::test_json_text_is_json_dumps_indent_2"],
    ),
    Mutant(
        "charts_share_one_fit",
        "assembly.py",
        "key = id(system)",
        "key = id(system) if cell.degree else None",
        ["tests/test_vector_cochain.py::test_grouped_fits_equal_per_cell_elimination"],
    ),
    Mutant(
        "face_sum_adds_every_face",
        "assembly.py",
        "(term.nums, -term.den if j % 2 else term.den)",
        "(term.nums, term.den)",
        [
            "tests/test_vector_cochain.py::test_grouped_fits_equal_per_cell_elimination",
            "tests/test_golden.py::test_cli_matches_golden",
        ],
    ),
    Mutant(
        "pair_check_drops_the_delta_denominator",
        "assembly.py",
        "yield sum(map(mul, row, a)) * d - v * scale",
        "yield sum(map(mul, row, a)) - v * scale",
        [
            "tests/test_vector_cochain.py::test_grouped_fits_equal_per_cell_elimination",
            "tests/test_vector_cochain.py::test_vector_verify_matches_koszul_verify",
        ],
    ),
    Mutant(
        "pair_residual_constant_dropped",
        "assembly.py",
        "-discrepancy.num,",
        "0,",
        [
            "tests/test_golden.py::test_cli_matches_golden[verify_tampered_alpha_c0-json]",
            "tests/test_vector_cochain.py::test_vector_verify_matches_koszul_verify",
        ],
    ),
    Mutant(
        "pair_discrepancy_reversed",
        "assembly.py",
        "discrepancy = alpha_j - alpha_i",
        "discrepancy = alpha_i - alpha_j",
        [
            "tests/test_golden.py::test_cli_matches_golden[verify_tampered_alpha_c-json]",
            "tests/test_vector_cochain.py::test_vector_verify_matches_koszul_verify",
        ],
    ),
    Mutant(
        "slot_element_drops_its_linear_parts",
        "assembly.py",
        "LinearizedElement.of_parts(num, den, linear.get(m, zero))",
        "LinearizedElement.of_parts(num, den, zero)",
        ["tests/test_vector_cochain.py::test_vector_verify_matches_koszul_verify"],
    ),
    Mutant(
        "compact_encoder_key_separator_without_space",
        "cli.py",
        '_ENCODE, None, ": ", ", "',
        '_ENCODE, None, ":", ", "',
        [
            "tests/test_golden.py::test_cli_matches_golden[verify_tampered_beta_linear-json]",
            "tests/test_golden.py::test_cli_matches_golden[verify_tampered_r-json]",
            "tests/test_cli.py::test_json_text_is_json_dumps_indent_2",
        ],
    ),
    Mutant(
        "triple_linear_part_not_kept",
        "assembly.py",
        "linear[m] = part",
        "pass",
        [
            "tests/test_golden.py::test_cli_matches_golden[verify_tampered_beta_linear-json]",
            "tests/test_golden.py::test_cli_matches_golden[verify_tampered_r-json]",
            "tests/test_vector_cochain.py::test_vector_verify_matches_koszul_verify",
        ],
    ),
    Mutant(
        "exact_writes_another_vectors_floats",
        "assembly.py",
        "[pair_float(num, den) for num in vec.nums]",
        "[pair_float(-num, den) for num in vec.nums]",
        [
            "tests/test_assembly.py::test_float_fields_are_the_floats_of_their_exact_fields",
            "tests/test_golden.py::test_cli_matches_golden",
        ],
    ),
    Mutant(
        "work_rows_grow_instead_of_shrinking",
        "linalg.py",
        "return [v // content for v in row] if content > 1 else row",
        "return [v * content for v in row] if content > 1 else row",
        ["tests/test_kernels.py::test_work_rows_stay_primitive"],
    ),
    Mutant(
        # the one guard of FeatureMap.evaluate and of the normal sums
        "power_guard_tests_only_numerators",
        "model.py",
        "_too_long(num, exp, max_bits) or _too_long(den, exp, max_bits)",
        "_too_long(num, exp, max_bits)",
        [
            "tests/test_kernels.py::test_over_long_power_names_the_first_monomial_holding_one",
            "tests/test_model.py::test_power_bound_at_digit_limit",
        ],
    ),
    Mutant(
        "power_bound_refuses_exactly_the_limit_bits",
        "model.py",
        "return exp * (bits - 1) + 1 > max_bits",
        "return exp * (bits - 1) + 2 > max_bits",
        ["tests/test_model.py::test_power_bound_admits_a_square_of_exactly_the_limit_bits"],
    ),
    Mutant(
        "pair_reader_skips_the_gcd",
        "scalars.py",
        "g = gcd(num, den)",
        "g = 1",
        [
            "tests/test_scalars.py::test_literal_pair_is_the_fraction_pair",
            "tests/test_integer_rows.py::test_three_readers_give_one_data_set_and_one_system",
        ],
    ),
    Mutant(
        "evaluate_drops_the_lift_over_the_lcm",
        "linalg.py",
        "[v * (den // t) if v else 0 for v, t in zip(nums, dens)]",
        "[v if v else 0 for v, t in zip(nums, dens)]",
        [
            "tests/test_kernels.py::test_normal_system_matches_direct_sums",
            "tests/test_integer_rows.py::"
            "test_pairwise_coprime_denominators_grow_the_lcm_at_every_point",
        ],
    ),
    Mutant(
        "claim_check_against_plus_nu",
        "assembly.py",
        "(nu.nums, -nu.den)",
        "(nu.nums, nu.den)",
        [
            "tests/test_integer_rows.py::test_claim_check_cross_multiplies_n_a_against_minus_nu",
            "tests/test_layering.py::test_fit_cells_takes_claims_not_a_report",
        ],
    ),
    Mutant(
        "vector_not_in_lowest_terms",
        "linalg.py",
        'g = lowest_terms_divisor(den, nums, "vector")',
        "g = 1",
        [
            "tests/test_linalg.py::test_vector_is_its_integers_over_one_denominator",
            "tests/test_values.py::test_value_semantics",
        ],
    ),
    Mutant(
        "writer_entries_not_reduced",
        "assembly.py",
        "texts.append(pair_str(num // common, den // common))",
        "texts.append(pair_str(num, den))",
        [
            "tests/test_linalg.py::test_vector_is_its_integers_over_one_denominator",
            "tests/test_golden.py::test_cli_matches_golden",
        ],
    ),
    Mutant(
        "triple_dump_keeps_zero_slots",
        "assembly.py",
        'if text != "0" or m in self.linear',
        "if True",
        [
            "tests/test_vector_cochain.py::test_vector_verify_matches_koszul_verify",
            "tests/test_golden.py::test_cli_matches_golden",
        ],
    ),
    Mutant(
        "negated_zero_spelled_minus_zero",
        "assembly.py",
        'return text if text == "0" else "-" + text',
        'return "-" + text',
        [
            "tests/test_vector_cochain.py::test_vector_verify_matches_koszul_verify",
            "tests/test_golden.py::test_cli_matches_golden",
        ],
    ),
]

# One line of pytest's -rA summary: the outcome and the node id.
_OUTCOME = re.compile(r"(PASSED|FAILED|ERROR) (\S+)")


def apply(mutant: Mutant, src: Path) -> None:
    """Apply ``mutant`` to the copy of ``src/`` at ``src``."""
    path = src / "lsglue" / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"its old text occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def survivors(mutant: Mutant) -> list:
    """The node ids of ``mutant`` that did not fail on the mutated copy, each
    with the reason; empty when the mutant is killed."""
    with tempfile.TemporaryDirectory(prefix="lsglue-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run(
            [sys.executable, "-c", "import lsglue; print(lsglue.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not where.startswith(str(src)):
            raise ValueError(f"the tests would import lsglue from {where}, not the copy")
        # run in the temporary directory, so that hypothesis keeps its
        # examples of the mutant there, not in the working tree
        run = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", f"--rootdir={ROOT}",
                *(str(ROOT / node) for node in mutant.tests),
            ],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    # pytest writes each node id's path relative to the working directory
    outcomes = []
    for outcome, ran in _OUTCOME.findall(run.stdout):
        path, sep, rest = ran.partition("::")
        path = Path(os.path.normpath(Path(tmp) / path)).relative_to(ROOT).as_posix()
        outcomes.append((outcome, path + sep + rest))
    left = []
    for node in mutant.tests:
        mine = [outcome for outcome, ran in outcomes if ran == node or ran.startswith(node + "[")]
        if not mine:
            left.append(f"{node}: selected no test (pytest exit {run.returncode})")
        elif "FAILED" not in mine and "ERROR" not in mine:
            left.append(f"{node}: passed")
    return left


def main(names: list) -> int:
    unknown = set(names) - {mutant.name for mutant in CATALOG}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    alive = 0
    for mutant in CATALOG:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        try:
            left = survivors(mutant)
        except (ValueError, subprocess.CalledProcessError) as err:
            left = [f"cannot run: {err}"]
        took = time.perf_counter() - start
        print(f"{'SURVIVED' if left else 'killed'} {mutant.name} ({took:.1f} s)", flush=True)
        for reason in left:
            print(f"    {reason}", flush=True)
        alive += bool(left)
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
