"""The decision rule of a sweep: :func:`tangent_oracle._decide` against the
per-profile rule it replaced, on synthetic decided rows, and its
predictions against the dimension reports that ``dim`` and ``table``
print; and the test run itself, which must report a failing hypothesis
test as a failure."""

import math
import os
import subprocess
import sys
import textwrap
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from conftest import Check, checks_of
from hypothesis import given, settings
from hypothesis import strategies as st

from matstrata import tangent_oracle
from matstrata.cli import CLASS_NAMES, SWEEP_SCOPES, RunConfig, _sweep
from matstrata.factory import derive_seed
from matstrata.formulas import MatrixClass, dimension_report
from matstrata.profiles import JordanStructure, MultiplicityProfile, SingularProfile
from matstrata.ranktools import RankDecisions

ROOT = Path(__file__).resolve().parent.parent


def _reference_verdict(matrix_class, data, decisions, row, witnesses, gap_requirement):
    """The oracle and stabiliser checks of one profile, from its free row
    ``row`` and fixed row ``row + 1`` of ``decisions``, each read once, and
    the count, exactness and largest residual of its ``witnesses``.

    The oracle check needs both rows decided with a gap ratio of at least
    ``gap_requirement``; the stabiliser check reads the fixed row alone,
    band-only.  It fails where the nullity is not the commutant term or the
    witnesses do not span the kernel (not as many as the nullity, or a
    residual above its threshold), and passes, certified, only where they
    annihilate it exactly; an inexact span is inconclusive."""
    report = dimension_report(matrix_class, data)
    real = 2 if report.field_kind == "complex" else 1
    predicted = (real * report.stratum_dim, real * report.fixed().stratum_dim)
    commutant = -dict(report.terms)["commutant"]
    free, fixed = row, row + 1
    count, exact, worst = witnesses
    nullity, threshold = decisions.nullity[fixed], decisions.threshold[fixed]
    undecided = decisions.reason[fixed]
    if undecided is not None:
        outcome, detail = "INCONCLUSIVE", undecided
    elif nullity != commutant:
        outcome, detail = "FAIL", f"nullity {nullity}, predicted {commutant}"
    elif count != nullity:
        outcome, detail = "FAIL", f"{count} witnesses for a kernel of dimension {nullity}"
    elif not exact:
        outcome = "FAIL" if worst > threshold else "INCONCLUSIVE"
        detail = f"witness residual {worst:.3e} against threshold {threshold:.3e}"
    else:
        outcome, detail = "PASS", ""
    read = (-1, 0.0) if undecided is not None else (nullity, decisions.gap_ratio[fixed])
    stabilizer = Check(commutant, *read, outcome, outcome == "PASS", detail=detail)
    for side in (free, fixed):
        reason, gap = decisions.reason[side], decisions.gap_ratio[side]
        if reason is None and gap < gap_requirement:
            reason = f"kept/dropped gap ratio {gap:.3e} below required {gap_requirement:.3e}"
        if reason is not None:
            oracle = Check(predicted[0], -1, 0.0, "INCONCLUSIVE", False, predicted[1], -1, reason)
            return oracle, stabilizer
    ranks = (real * decisions.rank[free], real * decisions.rank[fixed])
    gap = min(decisions.gap_ratio[free], decisions.gap_ratio[fixed])
    # Exact witnesses as many as both nullities bound both ranks from above.
    outcome, certified, detail = "PASS", exact and count == nullity == decisions.nullity[free], ""
    if ranks != predicted:
        outcome, certified, detail = "FAIL", False, f"observed {ranks}, predicted {predicted}"
    oracle = Check(predicted[0], ranks[0], gap, outcome, certified, predicted[1], ranks[1], detail)
    return oracle, stabilizer


#: A profile with its free and fixed rows, each (rank, nullity, threshold,
#: gap ratio, reason), and its witness count, exactness and residual.
HERMITIAN_21 = MultiplicityProfile.of(2, 1)  # real ranks 6 and 4, commutant 5
JORDAN_1 = JordanStructure.of((1,))  # complex: real ranks 2 and 0, commutant 1
JORDAN_11 = JordanStructure.of((1,), (1,))  # complex: real ranks 8 and 4, commutant 2
BAND = "singular value 5.000e-09 inside the indecision band [1.000e-09, 1.000e-07]"
GOOD = {
    HERMITIAN_21: ((6, 5, 1e-8, 1e12, None), (4, 5, 1e-8, 1e12, None), (5, True, 0.0)),
    JORDAN_1: ((1, 1, 1e-8, math.inf, None), (0, 1, 0.0, math.inf, None), (1, True, 0.0)),
    JORDAN_11: ((4, 2, 1e-8, math.inf, None), (2, 2, 1e-8, math.inf, None), (2, True, 0.0)),
}


def _varied(data, free=None, fixed=None, witnesses=None):
    """The good rows of ``data`` with the given fields replaced, by index."""
    rows = GOOD[data]
    parts = []
    for good, change in zip(rows, (free, fixed, witnesses)):
        values = list(good)
        for index, value in (change or {}).items():
            values[index] = value
        parts.append(tuple(values))
    return data, *parts


#: Every branch of the rule, by name: for each, a profile and its rows.
BRANCHES = {
    "pass": _varied(HERMITIAN_21),
    "pass-complex": _varied(JORDAN_11),
    "pass-complex-scalar": _varied(JORDAN_1),
    "free-undecided": _varied(HERMITIAN_21, free={4: BAND}),
    "fixed-undecided": _varied(HERMITIAN_21, fixed={4: BAND}),
    "both-undecided": _varied(HERMITIAN_21, free={4: "free hit"}, fixed={4: BAND}),
    "free-gap-short": _varied(HERMITIAN_21, free={3: 9.0}),
    "fixed-gap-short": _varied(HERMITIAN_21, fixed={3: 9.0}),
    "gap-at-requirement": _varied(HERMITIAN_21, free={3: 1e4}, fixed={3: 1e4}),
    "free-rank-mismatch": _varied(HERMITIAN_21, free={0: 7, 1: 4}),
    "fixed-rank-mismatch": _varied(HERMITIAN_21, fixed={0: 3}),
    "complex-fixed-mismatch": _varied(JORDAN_11, fixed={0: 1, 1: 3}),
    "nullity-not-commutant": _varied(HERMITIAN_21, fixed={1: 6}),
    "free-nullity-off": _varied(HERMITIAN_21, free={1: 6}),
    "too-few-witnesses": _varied(HERMITIAN_21, witnesses={0: 4}),
    "too-many-witnesses": _varied(HERMITIAN_21, witnesses={0: 6}),
    "residual-above-threshold": _varied(HERMITIAN_21, witnesses={1: False, 2: 1e-6}),
    "residual-at-threshold": _varied(HERMITIAN_21, witnesses={1: False, 2: 1e-8}),
    "residual-below-threshold": _varied(HERMITIAN_21, witnesses={1: False, 2: 1e-9}),
    "nan-free-gap": _varied(HERMITIAN_21, free={3: math.nan}),
    "nan-fixed-gap": _varied(HERMITIAN_21, fixed={3: math.nan}),
    "nan-gap-undecided": _varied(HERMITIAN_21, free={3: math.nan}, fixed={4: BAND}),
}


def _decisions(rows):
    """A :class:`RankDecisions` of the given (rank, nullity, threshold, gap
    ratio, reason) rows, in order, with a zero floor."""
    rank, nullity, threshold, gap, reason = (list(column) for column in zip(*rows))
    return RankDecisions(rank, nullity, threshold, gap, [0.0] * len(rows), reason)


def _fields(check):
    """A check's fields by their reprs: NaN equals NaN, and a numpy scalar
    differs from the Python number, which JSON takes."""
    return tuple(map(repr, astuple(check)))


def assert_matches_reference(matrix_class, cases, gap_requirement=1e4):
    """``_decide`` on ``cases``, (profile, free row, fixed row, witnesses)
    each, in one call, equals the reference rule profile by profile."""
    profiles = [data for data, _, _, _ in cases]
    decisions = _decisions([row for _, free, fixed, _ in cases for row in (free, fixed)])
    witnesses = [list(column) for column in zip(*(w for _, _, _, w in cases))]
    verdicts = tangent_oracle._decide(matrix_class, profiles, decisions, witnesses, gap_requirement)
    decided = checks_of(verdicts)
    assert len(decided) == len(profiles)
    for p, (data, pair) in enumerate(zip(profiles, decided)):
        args = (decisions, 2 * p, tuple(w[p] for w in witnesses), gap_requirement)
        expected = _reference_verdict(matrix_class, data, *args)
        assert [_fields(c) for c in pair] == [_fields(c) for c in expected], (data, p)
    return decided


def _class_of(data):
    return MatrixClass.JORDAN if isinstance(data, JordanStructure) else MatrixClass.HERMITIAN


class TestDecisionRule:
    @pytest.mark.parametrize("branch", list(BRANCHES))
    def test_matches_the_reference(self, branch):
        case = BRANCHES[branch]
        assert_matches_reference(_class_of(case[0]), [case])

    @pytest.mark.parametrize("cls", (MatrixClass.HERMITIAN, MatrixClass.JORDAN))
    def test_every_branch_in_one_pass(self, cls):
        # all branches of one class decided by one call, so no profile's
        # rows leak into another's
        cases = [case for case in BRANCHES.values() if _class_of(case[0]) is cls]
        assert len(assert_matches_reference(cls, cases)) == len(cases) > 1

    def test_no_profiles(self):
        none = RankDecisions([], [], [], [], [], [])
        verdicts = tangent_oracle._decide(MatrixClass.HERMITIAN, [], none, [[]] * 3, 1e4)
        assert checks_of(verdicts) == []
        oracle, stabilizer = verdicts
        assert oracle.predicted_fixed == [] and stabilizer.predicted_fixed is None

    def test_gap_shortfall_on_the_fixed_side_alone(self):
        ((oracle, stabilizer),) = assert_matches_reference(
            MatrixClass.HERMITIAN, [BRANCHES["fixed-gap-short"]]
        )
        assert oracle.verdict == "INCONCLUSIVE" and oracle.observed == -1
        assert oracle.detail == "kept/dropped gap ratio 9.000e+00 below required 1.000e+04"
        assert stabilizer.verdict == "PASS" and stabilizer.gap_ratio == 9.0

    def test_certified_needs_the_free_nullity(self):
        ((oracle, _),) = assert_matches_reference(
            MatrixClass.HERMITIAN, [BRANCHES["free-nullity-off"]]
        )
        assert oracle.verdict == "PASS" and oracle.certified is False

    def test_complex_fixed_prediction_is_doubled(self):
        ((oracle, _),) = assert_matches_reference(MatrixClass.JORDAN, [BRANCHES["pass-complex"]])
        assert (oracle.predicted, oracle.predicted_fixed) == (8, 4)
        ((oracle, _),) = assert_matches_reference(
            MatrixClass.JORDAN, [BRANCHES["complex-fixed-mismatch"]]
        )
        assert oracle.verdict == "FAIL" and oracle.detail == "observed (8, 2), predicted (8, 4)"

    def test_residual_at_the_threshold_is_inconclusive(self):
        ((_, stabilizer),) = assert_matches_reference(
            MatrixClass.HERMITIAN, [BRANCHES["residual-at-threshold"]]
        )
        assert stabilizer.verdict == "INCONCLUSIVE" and not stabilizer.certified
        assert stabilizer.detail == "witness residual 1.000e-08 against threshold 1.000e-08"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_drawn_rows_match_the_reference(self, data):
        profiles = {
            MatrixClass.HERMITIAN: [HERMITIAN_21, MultiplicityProfile.of(1, 1, 1)],
            MatrixClass.JORDAN: [JORDAN_1, JORDAN_11, JordanStructure.of((2, 1), (1,))],
            MatrixClass.SINGULAR_VALUES: [SingularProfile(3, 2, (1, 1)), SingularProfile(2, 2, ())],
        }
        cls = data.draw(st.sampled_from(sorted(profiles, key=lambda c: c.value)))
        small = st.integers(0, 12)
        value = st.sampled_from([0.0, 1e-9, 1e-8, 1e-6, 9.0, 1e4, 1e12, math.inf, math.nan])
        row = st.tuples(small, small, value, value, st.sampled_from([None, BAND]))
        witness = st.tuples(small, st.booleans(), value)
        case = st.tuples(st.sampled_from(profiles[cls]), row, row, witness)
        cases = data.draw(st.lists(case, min_size=1, max_size=5))
        requirement = data.draw(st.sampled_from([1.0, 1e4, 1e13]))
        assert_matches_reference(cls, cases, requirement)


def test_gap_reads_fail_reaches_the_decision(gap_reads_fail):
    # the fixture makes every gap short of the requirement, an infinite one
    # included, and leaves the stabiliser's band-only read alone
    decisions, witnesses = _decisions(GOOD[JORDAN_1][:2]), [[1], [True], [0.0]]
    verdicts = tangent_oracle._decide(MatrixClass.JORDAN, [JORDAN_1], decisions, witnesses, 1e4)
    ((oracle, stabilizer),) = checks_of(verdicts)
    assert oracle.verdict == "INCONCLUSIVE"
    assert oracle.detail == "kept/dropped gap ratio inf below required inf"
    assert stabilizer.verdict == "PASS" and stabilizer.certified


def test_predictions_match_the_dimension_reports():
    # a second route to each prediction: the sweep's columns against the
    # record route that `dim` and `table` print, every profile at n <= 8
    # of each class and singular up to 8x8
    config = RunConfig(max_n=8, max_m=8)
    for scope_idx, scope in enumerate(SWEEP_SCOPES):
        cls = CLASS_NAMES[scope]
        profiles = [data for data, _ in _sweep(scope, config)]
        keys = derive_seed(0, scope_idx, np.arange(len(profiles)))
        oracle, stabilizer = tangent_oracle.verify_profiles(cls, profiles, keys)
        expected = []
        for data in profiles:
            report = dimension_report(cls, data)
            real = report.realified() if report.field_kind == "complex" else report
            commutant = -dict(report.terms)["commutant"]
            expected.append((real.stratum_dim, real.fixed().stratum_dim, commutant))
        columns = (oracle.predicted, oracle.predicted_fixed, stabilizer.predicted)
        assert list(zip(*columns)) == expected, scope
        assert set(oracle.verdict) == set(stabilizer.verdict) == {"PASS"}, scope


def test_a_failing_hypothesis_test_fails_as_a_test(tmp_path):
    # A failing @given test makes the hypothesis plugin import its patch
    # writer, which warns on import; under the repo's `filterwarnings =
    # ["error"]` that once stopped the run with INTERNALERROR (exit 3)
    # before the next test.  With the repo's settings and conftest, the run
    # must report the failure and still run the passing test after it.
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "conftest.py").write_text((ROOT / "tests" / "conftest.py").read_text())
    (tmp_path / "test_probe.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 5

            def test_passes():
                pass
            """
        )
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(tmp_path)])}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rA", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "FAILED test_probe.py::test_fails" in run.stdout, run.stdout
    assert "PASSED test_probe.py::test_passes" in run.stdout, run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
