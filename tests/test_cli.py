import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matstrata import cli, tangent_oracle
from matstrata.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    REPORT_SCHEMA,
    RunConfig,
    UsageError,
    build_verify_report,
    main,
    parse_jordan,
    parse_multiplicities,
    parse_singular,
    render_jordan,
    render_multiplicities,
    render_singular,
)
from matstrata.factory import derive_seed
from matstrata.formulas import dimension_report
from matstrata.profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    jordan_structures,
    multiplicity_profiles,
    singular_profiles,
)
from matstrata.tangent_oracle import TrialResult, verify_class

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsers:
    def test_multiplicities(self):
        assert parse_multiplicities("2,1,1") == MultiplicityProfile.of(2, 1, 1)

    def test_multiplicities_bad_token_position(self):
        with pytest.raises(UsageError, match="position 2"):
            parse_multiplicities("2,x,1")

    def test_jordan(self):
        js = parse_jordan("0:3,1; 1:2")
        assert js == JordanStructure.of((3, 1), (2,))

    def test_jordan_duplicate_label(self):
        with pytest.raises(UsageError, match="duplicate"):
            parse_jordan("a:2;a:1")

    def test_jordan_missing_colon(self):
        with pytest.raises(UsageError, match="label:sizes"):
            parse_jordan("3,1")

    def test_jordan_unsorted_sizes(self):
        with pytest.raises(UsageError, match="decreasing"):
            parse_jordan("0:1,3")

    def test_singular(self):
        assert parse_singular("4x3:2,1") == SingularProfile(4, 3, (2, 1))

    def test_singular_rank_zero(self):
        assert parse_singular("4x3:") == SingularProfile(4, 3, ())

    def test_singular_bad_shape(self):
        with pytest.raises(UsageError, match="NxM"):
            parse_singular("4y3:2")

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6))
    def test_multiplicities_round_trip(self, parts):
        profile = MultiplicityProfile.of(*parts)
        assert parse_multiplicities(render_multiplicities(profile)) == profile

    @given(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3).map(
                lambda xs: tuple(sorted(xs, reverse=True))
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_jordan_round_trip(self, blocks):
        js = JordanStructure.of(*blocks)
        assert parse_jordan(render_jordan(js)) == js

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6), st.data())
    def test_singular_round_trip(self, n, m, data):
        r = data.draw(st.integers(min_value=0, max_value=min(n, m)))
        parts = []
        left = r
        while left:
            k = data.draw(st.integers(min_value=1, max_value=left))
            parts.append(k)
            left -= k
        parts.sort(reverse=True)
        sp = SingularProfile(n, m, tuple(parts))
        assert parse_singular(render_singular(sp)) == sp


class TestDimCommand:
    def test_real_symmetric_spec_example(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "real-symmetric", "2,1,1")
        assert code == EXIT_PASS
        assert "codim 2" in out

    def test_hermitian_spec_example(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "hermitian", "3,1")
        assert code == EXIT_PASS
        assert "codim 8" in out

    def test_jordan_spec_example(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "jordan", "0:3,1; 1:2")
        assert code == EXIT_PASS
        assert "dim 30" in out
        assert "commutant -8" in out

    def test_json_matches_text_numbers(self, capsys):
        code, text_out, _ = run_cli(capsys, "dim", "normal", "2,2")
        code2, json_out, _ = run_cli(capsys, "dim", "normal", "2,2", "--format", "json")
        payload = json.loads(json_out)
        assert code == code2 == EXIT_PASS
        assert f"dim {payload['free']['stratum_dim']}, codim {payload['free']['codim']}" in text_out

    @pytest.mark.parametrize("class_name", sorted(cli.CLASS_NAMES))
    def test_fixed_view_of_every_class(self, capsys, class_name):
        """``fixed()`` drops the value parameters from the free report, and
        is the fixed block that ``dim --format json`` prints."""
        matrix_class = cli.CLASS_NAMES[class_name]
        if class_name == "jordan":
            cases = [(js, render_jordan(js)) for n in range(1, 6) for js in jordan_structures(n)]
        elif class_name == "singular":
            cases = [
                (sp, render_singular(sp))
                for n in range(1, 5)
                for m in range(1, 5)
                for sp in singular_profiles(n, m)
            ]
        else:
            cases = [
                (p, render_multiplicities(p)) for n in range(1, 6) for p in multiplicity_profiles(n)
            ]
        per_value = 2 if class_name == "normal" else 1
        for data, spec in cases:
            free = dimension_report(matrix_class, data)
            fixed = free.fixed()
            values = dict(free.terms).get("value-parameters", 0)
            count = data.num_eigenvalues if class_name == "jordan" else data.num_distinct
            assert values == per_value * count, spec
            assert "value-parameters" not in dict(fixed.terms), spec
            assert fixed.stratum_dim == free.stratum_dim - values, spec
            assert fixed.ambient_dim == free.ambient_dim, spec
            code, out, _ = run_cli(capsys, "dim", class_name, spec, "--format", "json")
            assert code == EXIT_PASS, spec
            assert json.loads(out)["fixed"] == {
                "stratum_dim": fixed.stratum_dim,
                "codim": fixed.codim,
                "terms": dict(fixed.terms),
            }, spec
            if class_name in ("hermitian", "skew-hermitian", "unitary"):
                assert fixed.stratum_dim == data.n**2 - sum(k * k for k in data.parts), spec

    def test_invariant_violation_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "dim", "singular", "2x2:3")
        assert code == EXIT_USAGE
        assert "rank" in err

    def test_parse_error_reports_position(self, capsys):
        code, _, err = run_cli(capsys, "dim", "hermitian", "2,q")
        assert code == EXIT_USAGE
        assert "position" in err


class TestTableCommand:
    @pytest.mark.parametrize(
        "golden,argv",
        [
            ("table1_symbolic.txt", ("table", "1")),
            ("table2_symbolic.txt", ("table", "2")),
            ("table1_n3.txt", ("table", "1", "--n", "3", "--m", "4", "--r", "2")),
            (
                "table2_numeric.txt",
                (
                    "table", "2", "--n", "3", "--profile", "2,1",
                    "--jordan", "0:2;1:1", "--svd", "3x4:2",
                ),
            ),
        ],
    )
    def test_goldens(self, capsys, golden, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_PASS
        assert out == (GOLDEN_DIR / golden).read_text()

    @pytest.mark.parametrize(
        "argv", [("--n", "0"), ("--n", "2", "--m", "3", "--r", "-1"), ("--n", "2", "--m", "0")]
    )
    def test_table1_out_of_range_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "table", "1", *argv)
        assert code == EXIT_USAGE and not out
        assert "must" in err

    def test_table1_numeric_row(self, capsys):
        _, out, _ = run_cli(capsys, "table", "1", "--n", "3")
        normal_row = next(line for line in out.splitlines() if "Normal" in line)
        assert normal_row.split()[-1] == "12"

    def test_table2_hermitian_row(self, capsys):
        _, out, _ = run_cli(capsys, "table", "2", "--profile", "2,1", "--n", "3")
        herm_row = next(line for line in out.splitlines() if "Hermitian" in line)
        assert herm_row.split()[-1] == "6"

    def test_numeric_mode_missing_parameters(self, capsys):
        code, _, err = run_cli(capsys, "table", "2", "--n", "3")
        assert code == EXIT_USAGE
        assert "needs" in err

    def test_profile_order_cross_checked(self, capsys):
        code, _, err = run_cli(capsys, "table", "2", "--profile", "2,1", "--n", "5")
        assert code == EXIT_USAGE

    def test_svd_shape_cross_checked(self, capsys):
        code, out, err = run_cli(capsys, "table", "2", "--svd", "2x2:1", "--n", "5")
        assert code == EXIT_USAGE and not out
        assert "--n 5 does not match profile order 2" in err


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "hermitian", "--max-n", "3")
        assert code == EXIT_PASS
        assert out.strip().endswith("(0 failed, 0 inconclusive)")

    def test_json_validates_against_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "real-symmetric", "--max-n", "3", "--format", "json"
        )
        assert code == EXIT_PASS
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_text_and_json_report_identical_numbers(self, capsys):
        args = ("verify", "unitary", "--max-n", "3", "--seed", "5")
        _, text_out, _ = run_cli(capsys, *args)
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        report = json.loads(json_out)
        text_lines = [l for l in text_out.splitlines() if "predicted=" in l]
        assert len(text_lines) == len(report["cases"])
        for line, case in zip(text_lines, report["cases"]):
            assert f"predicted={case['predicted']}" in line
            assert f"observed={case['observed']}" in line
            assert f"gap_ratio={case['gap_ratio']}" in line

    def test_fail_exit_via_fault_injection(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "hermitian", "--max-n", "2", "--inject-fault"
        )
        assert code == EXIT_FAIL
        assert "FAIL" in out

    def test_inconclusive_exit(self, capsys):
        # an absurd gap requirement that finite kept/dropped ratios cannot meet
        # (the jordan sweep at n = 3 has probes whose discarded singular
        # values are tiny but nonzero, so their gap is finite)
        code, out, _ = run_cli(
            capsys, "verify", "jordan", "--max-n", "3", "--gap", "1e30"
        )
        assert code == EXIT_INCONCLUSIVE
        assert "INCONCLUSIVE" in out

    def test_commutant_case_decided_when_oracle_is_not(self, capsys, gap_reads_fail):
        # trial 0's free read misses the gap, but its fixed-values SVD is
        # still read for the commutant case
        code, out, _ = run_cli(capsys, "verify", "jordan", "--max-n", "3", "--format", "json")
        assert code == EXIT_INCONCLUSIVE
        cases = json.loads(out)["cases"]
        commutants = [c for c in cases if c["case"].endswith("commutant")]
        oracles = {c["case"]: c["verdict"] for c in cases if c["case"].endswith("oracle")}
        assert len(commutants) == len(oracles) == 10
        for case in commutants:
            assert case["verdict"] == "PASS" and case["observed"] == case["predicted"]
        assert oracles["jordan n=3 0:3 oracle"] == "INCONCLUSIVE"
        assert oracles["jordan n=3 0:2,1 oracle"] == "INCONCLUSIVE"

    @pytest.mark.parametrize("scope", ("jordan", "singular", "normal"))
    def test_two_svds_per_trial_and_none_for_the_commutant(self, monkeypatch, scope):
        # each call may decompose a stack of matrices: count the matrices,
        # and bound the calls, so that a return to per-trial reads fails
        svd = np.linalg.svd
        calls = []

        def counted_svd(a, *args, **kwargs):
            calls.append(int(np.prod(a.shape[:-2])))
            return svd(a, *args, **kwargs)

        starts = []

        def counted_verify(matrix_class, data, **kwargs):
            starts.append((data, len(calls)))
            return verify_class(matrix_class, data, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(cli, "verify_class", counted_verify)
        config = RunConfig(max_n=3, max_m=3)
        report = build_verify_report(scope, config)
        assert report["summary"]["verdict"] == "PASS"
        ends = [start for _, start in starts[1:]] + [len(calls)]
        assert len(starts) == len(report["cases"]) // 2
        for (data, start), end in zip(starts, ends):
            if isinstance(data, SingularProfile) and data.n == data.m == 1:
                continue  # no transform directions: the fixed operator is empty
            assert sum(calls[start:end]) == 2 * config.trials, data
            assert end - start <= 3, data

    def test_one_dimension_report_per_profile(self, monkeypatch):
        # the oracle's report also gives the commutant case its prediction
        calls = []

        def counted(matrix_class, data):
            calls.append(data)
            return dimension_report(matrix_class, data)

        monkeypatch.setattr(tangent_oracle, "dimension_report", counted)
        monkeypatch.setattr(cli, "dimension_report", counted)
        for scope in cli.SWEEP_SCOPES:
            calls.clear()
            report = build_verify_report(scope, RunConfig(max_n=3, max_m=3))
            assert report["summary"]["verdict"] == "PASS", scope
            profiles = len(report["cases"]) // 2
            assert len(calls) == len(set(calls)) == profiles, scope

    def test_oracle_seed_drawn_at_its_case_index(self, monkeypatch):
        # reports cap every clean gap, so they do not show which seed ran
        seeds = []

        def recording(matrix_class, data, **kwargs):
            seeds.append(kwargs["seed"])
            return verify_class(matrix_class, data, **kwargs)

        monkeypatch.setattr(cli, "verify_class", recording)
        config = RunConfig(seed=3, max_n=2, max_m=2)
        for scope in ("hermitian", "jordan", "singular"):
            seeds.clear()
            cases = build_verify_report(scope, config)["cases"]
            oracles = [i for i, c in enumerate(cases) if c["case"].endswith("oracle")]
            scope_idx = cli.SWEEP_SCOPES.index(scope)
            assert seeds == [derive_seed(3, scope_idx, i) for i in oracles], scope

    def test_non_finite_gap_is_a_usage_error(self, capsys):
        for gap in ("nan", "inf"):
            code, out, err = run_cli(capsys, "verify", "jordan", "--max-n", "3", "--gap", gap)
            assert code == EXIT_USAGE and not out
            assert "gap requirement" in err
        with pytest.raises(UsageError):
            RunConfig(gap_requirement=float("nan"))

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "hermitian", "--max-n", "2", "--seed", "-1")
        assert code == EXIT_USAGE and not out
        assert "seed must be non-negative" in err
        with pytest.raises(UsageError):
            RunConfig(seed=-1)
        assert build_verify_report("hermitian", RunConfig(seed=0, max_n=1))["cases"]

    def test_tolerance_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "jordan", "--max-n", "3", "--tolerance", "0.5"
        )
        assert code == EXIT_USAGE
        assert "tolerance out of range" in err

    def test_deterministic_reports(self):
        config = RunConfig(seed=7, max_n=3, max_m=3, trials=2)
        a = build_verify_report("all", config)
        b = build_verify_report("all", config)
        assert json.dumps(a) == json.dumps(b)

    def test_inconclusive_oracle_reports_no_rank(self, monkeypatch):
        # a trial that completed before the undecided one must not leak its
        # rank or gap into the case
        def undecided(matrix_class, data, trials, seed, tol, gap_requirement):
            done = TrialResult(rank_free=3, gap_free=1e9, rank_fixed=2, gap_fixed=1e9)
            verdict = verify_class(matrix_class, data, 1, seed, tol, gap_requirement)
            return dataclasses.replace(
                verdict, verdict="INCONCLUSIVE", trials=(done,), detail="trial 1: no gap"
            )

        monkeypatch.setattr(cli, "verify_class", undecided)
        report = build_verify_report("hermitian", RunConfig(max_n=1))
        oracle = next(c for c in report["cases"] if c["case"].endswith("oracle"))
        assert oracle["verdict"] == "INCONCLUSIVE"
        assert oracle["observed"] == -1
        assert oracle["gap_ratio"] == 0.0

    def test_verify_all_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--max-n", "3", "--max-m", "3",
            "--seed", "7", "--format", "json",
        )
        assert code == EXIT_PASS
        assert out == (GOLDEN_DIR / "verify_all_n3_seed7.json").read_text()

    def test_verify_all_n4_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--max-n", "4", "--max-m", "4",
            "--seed", "0", "--format", "json",
        )
        assert code == EXIT_PASS
        assert json.loads(out)["summary"]["total"] == 292
        assert out == (GOLDEN_DIR / "verify_all_n4_seed0.json").read_text()

    @pytest.mark.parametrize(
        "seed, digest",
        [
            ("0", "72e4aff55c02c11e27813040134d9e988e1f6cbae59438400b52c8302d163c09"),
            ("7", "30372e2f60965428c87dc1c7f6168993eb61454a766fcb70149335709210e7b4"),
        ],
    )
    def test_verify_all_n8_report_bytes_pinned(self, capsys, seed, digest):
        # Every gap ratio of these sweeps reads the 1e12 cap, so the bytes do
        # not depend on LAPACK rounding: a digest change means a verdict, a
        # rank, a case or its order moved.
        code, out, _ = run_cli(
            capsys, "verify", "all", "--max-n", "8", "--max-m", "8",
            "--seed", seed, "--format", "json",
        )
        assert code == EXIT_PASS
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_gap_ratios_capped_for_json(self):
        report = build_verify_report("hermitian", RunConfig(max_n=2))
        for case in report["cases"]:
            assert case["gap_ratio"] <= 1e12


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_unknown_class(self, capsys):
        assert run_cli(capsys, "dim", "quaternionic", "2,1")[0] == EXIT_USAGE

    def test_missing_arguments(self, capsys):
        assert run_cli(capsys, "dim")[0] == EXIT_USAGE


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "matstrata", "dim", "unitary", "2,1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "codim 3" in proc.stdout
