"""The pinned verification battery, one test per criterion.

Each test drives the same check function the ``acceptance`` subcommand runs,
so ``pytest -v`` prints one pass/fail line per criterion.  The final
spot-check criterion is advisory at the command level (it reports ``warn``
rather than failing the run), but the computed dimensions are still pinned
here.
"""

from fractions import Fraction as F

import shvkernel.acceptance as acceptance

ZERO = F(0)


def details(check):
    return check["name"], check["details"]


def test_criterion_01_bracket_identities():
    check = acceptance._criterion_01()
    assert check["status"] == "pass", details(check)


def test_criterion_02_realized_commutators():
    check = acceptance._criterion_02(ZERO)
    assert check["status"] == "pass", details(check)
    assert all(row["checked"] > 0 for row in check["details"]["labels"])


def test_criterion_03_singular_certification():
    check = acceptance._criterion_03()
    assert check["status"] == "pass", details(check)
    assert check["details"]["vectors"] == 21


def test_criterion_04_subsingular_certification():
    check = acceptance._criterion_04()
    assert check["status"] == "pass", details(check)


def test_criterion_05_character_rank_match():
    check = acceptance._criterion_05(ZERO)
    assert check["status"] == "pass", details(check)
    dims = {row["p"]: row["dims"] for row in check["details"]["rows"]}
    assert dims[1] == [1, 1, 1, 3, 5, 7, 10, 16, 25]
    assert dims[2] == [1, 2, 3, 6, 10, 16, 25, 38, 58]
    assert dims[3] == [1, 2, 3, 5, 9, 15, 22, 33, 51]


def test_criterion_06_contragredient_duality():
    check = acceptance._criterion_06(ZERO)
    assert check["status"] == "pass", details(check)


def test_criterion_07_determinant_locus():
    check = acceptance._criterion_07()
    assert check["status"] == "pass", details(check)


def test_criterion_08_screening_algebra():
    check = acceptance._criterion_08(ZERO)
    assert check["status"] == "pass", details(check)


def test_criterion_09_structure_truncations():
    check = acceptance._criterion_09()
    assert check["status"] == "pass", details(check)


def test_criterion_10_embedding_diagrams():
    check = acceptance._criterion_10()
    assert check["status"] == "pass", details(check)


def test_criterion_11_kernel_intersection_spot_check():
    check = acceptance._criterion_11()
    assert check["status"] in ("pass", "warn")
    assert check["details"]["dims"] == [["0", 1], ["1/2", 1], ["1", 1], ["3/2", 3]]
    # the computation itself succeeds today; keep that pinned
    assert check["status"] == "pass"
