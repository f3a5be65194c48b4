"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import checks_of, commutant_term, read_at, stabilizer
from test_profiles import pairwise_min_sum, weighted_degree_sum

from matstrata.cli import main as cli_main
from matstrata.factory import derive_seed
from matstrata.formulas import MatrixClass, dimension_report
from matstrata.profiles import (
    JordanStructure,
    MultiplicityProfile,
    jordan_structures,
    multiplicity_profiles,
    partitions,
    singular_profiles,
)
from matstrata.tangent_oracle import verify_profiles

GOLDEN_DIR = Path(__file__).parent / "goldens"

TOLERANCE = 1e-8
GAP_REQUIREMENT = 1e4


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_von_neumann_wigner(capsys):
    with criterion(1, "real symmetric double eigenvalue costs exactly 2 conditions"):
        for extra_simple in range(5):
            profile = MultiplicityProfile.of(2, *[1] * extra_simple)
            assert dimension_report(MatrixClass.REAL_SYMMETRIC, profile).codim == 2
        code = cli_main(["dim", "real-symmetric", "2,1,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "codim 2" in out


def test_criterion_2_formula_oracle_equivalence_eigenvalue_classes():
    classes = (
        MatrixClass.DIAGONALIZABLE_COMPLEX,
        MatrixClass.NORMAL,
        MatrixClass.HERMITIAN,
        MatrixClass.UNITARY,
        MatrixClass.REAL_SYMMETRIC,
    )
    with criterion(2, "oracle rank == formula, certified, for all profiles n <= 6, 5 classes"):
        start = time.monotonic()
        for n in range(1, 7):
            profiles = list(multiplicity_profiles(n))
            seeds = [derive_seed(2, n, idx) for idx in range(len(profiles))]
            for cls in classes:
                verdicts = verify_profiles(cls, profiles, seeds, TOLERANCE, GAP_REQUIREMENT)
                checks = checks_of(verdicts)
                for profile, (oracle, _) in zip(profiles, checks):
                    assert oracle.verdict == "PASS", (cls, profile, oracle.detail)
                    assert oracle.certified, (cls, profile)
                    assert oracle.gap_ratio >= GAP_REQUIREMENT
        elapsed = time.monotonic() - start
        assert elapsed < 120, f"sweep took {elapsed:.1f}s, budget is 2 minutes"


def test_criterion_3_jordan_commutant_n8():
    with criterion(3, "Jordan commutant nullity and Toeplitz pattern, n <= 8, p <= 3"):
        cls = MatrixClass.JORDAN
        start = time.monotonic()
        for n in range(1, 9):
            structures = (js for js in jordan_structures(n) if js.num_eigenvalues <= 3)
            for idx, js in enumerate(structures):
                kernel, _ = read_at(cls, js, derive_seed(3, n, idx), tol=TOLERANCE)
                found = stabilizer(cls, js, kernel)
                assert found.dimension == commutant_term(cls, js), js
                # at tol 1e-8: every unit Toeplitz witness w has |A w| at
                # most 1e-8 s_max, and the witnesses are as many as the nullity
                assert found.structure_ok, js
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"sweep took {elapsed:.1f}s, budget is 5 minutes"


def test_criterion_4_jordan_stratum_dimension():
    with criterion(4, "Jordan stratum rank == 2(n^2 - sum(2j-1)m_j + p), n <= 6"):
        cls = MatrixClass.JORDAN
        for n in range(1, 7):
            for idx, js in enumerate(jordan_structures(n)):
                expected = 2 * dimension_report(cls, js).stratum_dim
                _, rank = read_at(
                    cls,
                    js,
                    derive_seed(4, n, idx),
                    free_values=True,
                    tol=TOLERANCE,
                    gap_requirement=GAP_REQUIREMENT,
                )
                assert rank == expected, js
        # the two extreme structures, order by order, at the oracle's
        # default tolerance and gap requirement
        for n in range(2, 7):
            single = JordanStructure.of((n,))
            assert dimension_report(cls, single).stratum_dim == n * n - n + 1
            _, rank = read_at(cls, single, derive_seed(4, n), True, gap_requirement=1e4)
            assert rank == 2 * (n * n - n + 1)
            dust = JordanStructure.of((1,) * n)
            assert dimension_report(cls, dust).stratum_dim == 1
            _, rank = read_at(cls, dust, derive_seed(4, n, 99), True, gap_requirement=1e4)
            assert rank == 2


def test_criterion_5_svd_strata():
    with criterion(5, "QP-pair dim and SVD stratum rank match, n, m <= 5"):
        cls = MatrixClass.SINGULAR_VALUES
        for n in range(1, 6):
            for m in range(1, 6):
                for idx, sp in enumerate(singular_profiles(n, m)):
                    kernel, _ = read_at(cls, sp, derive_seed(5, n, m, idx), tol=TOLERANCE)
                    qp = stabilizer(cls, sp, kernel)
                    assert qp.dimension == commutant_term(cls, sp), sp
                    assert qp.structure_ok, sp
                    _, rank = read_at(
                        cls,
                        sp,
                        derive_seed(5, n, m, idx, 1),
                        free_values=True,
                        tol=TOLERANCE,
                        gap_requirement=GAP_REQUIREMENT,
                    )
                    assert rank == dimension_report(cls, sp).stratum_dim, sp
                    if all(k == 1 for k in sp.parts):
                        r = sp.rank
                        assert rank == (n + m - r) * r


def test_criterion_6_min_sum_identity():
    with criterion(6, "pairwise min-sum equals weighted degree sum, all n <= 12"):
        start = time.monotonic()
        for n in range(1, 13):
            for parts in partitions(n):
                assert pairwise_min_sum(parts) == weighted_degree_sum(parts)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget is 1 second"


def test_criterion_7_golden_tables(capsys):
    with criterion(7, "symbolic and numeric tables byte-match the goldens"):
        cases = [
            ("table1_symbolic.txt", ["table", "1"]),
            ("table2_symbolic.txt", ["table", "2"]),
            ("table1_n3.txt", ["table", "1", "--n", "3", "--m", "4", "--r", "2"]),
            (
                "table2_numeric.txt",
                [
                    "table", "2", "--n", "3", "--profile", "2,1",
                    "--jordan", "0:2;1:1", "--svd", "3x4:2",
                ],
            ),
        ]
        for golden, argv in cases:
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            assert out == (GOLDEN_DIR / golden).read_text(), golden
        # hand-verified spot values for the numeric renderings
        numeric1 = (GOLDEN_DIR / "table1_n3.txt").read_text().splitlines()
        assert numeric1[2].split()[-2:] == ["9", "18"]  # All: n^2, 2n^2 at n=3
        assert numeric1[-1].split()[-2:] == ["10", "20"]  # rank row at n=3, m=4, r=2
        numeric2 = (GOLDEN_DIR / "table2_numeric.txt").read_text().splitlines()
        assert numeric2[2].split()[-2:] == ["6", "12"]  # diagonalizable 2,1 at n=3
        assert numeric2[-1].split()[-1] == "8"  # singular row 3x4:2


def test_criterion_8_cross_class_codimension_identity():
    with criterion(8, "Hermitian, unitary, diagonalizable codims all equal sum(k^2-1), n <= 8"):
        for n in range(1, 9):
            for profile in multiplicity_profiles(n):
                target = sum(k * k - 1 for k in profile.parts)
                for cls in (
                    MatrixClass.HERMITIAN,
                    MatrixClass.UNITARY,
                    MatrixClass.DIAGONALIZABLE_COMPLEX,
                ):
                    assert dimension_report(cls, profile).codim == target


def test_criterion_9_determinism():
    with criterion(9, "verify all --max-n 4 --seed 7 is bit-reproducible"):
        argv = [
            sys.executable, "-m", "matstrata",
            "verify", "all", "--max-n", "4", "--seed", "7", "--format", "json",
        ]
        first = subprocess.run(argv, capture_output=True, text=True)
        second = subprocess.run(argv, capture_output=True, text=True)
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert report["summary"]["verdict"] == "PASS"
