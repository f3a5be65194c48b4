import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import platform
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest
from conftest import svd_parts
from hypothesis import given, settings
from hypothesis import strategies as st

from matstrata import cli, commutant, factory, tangent_oracle
from matstrata.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    MAX_STACK_BYTES,
    REPORT_SCHEMA,
    ProfileSyntaxError,
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
from matstrata.formulas import MatrixClass, dimension_report
from matstrata.profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    jordan_structures,
    multiplicity_profiles,
    singular_profiles,
)
from matstrata.ranktools import decide_ranks
from matstrata.tangent_oracle import verify_profiles

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: The singular profiles up to 3 x 3 with a multiple nonzero singular
#: value, in sweep order: their blocks keep finite gaps and
#: rounding-level values.
MULTIPLE_VALUE_STEMS = ("2x2 k=2", "2x3 k=2", "3x2 k=2", "3x3 k=2", "3x3 k=3", "3x3 k=2,1")


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

    @pytest.mark.parametrize(
        "parse, text, position",
        (
            (parse_multiplicities, "2,\u00b2", 2),
            (parse_jordan, "0:3;1:\u00b2", 6),
            (parse_singular, "\u00b2x2:1", 0),
            (parse_singular, "2x\u00b2:1", 0),
            (parse_singular, "2x2:\u00b9", 4),
        ),
    )
    def test_superscript_digit_is_a_syntax_error(self, parse, text, position):
        # "²".isdigit() holds but int("²") fails: only decimal digits parse.
        # The error carries the whole spec, which its position indexes: in an
        # integer list, at the superscript itself.
        with pytest.raises(ProfileSyntaxError, match=f"position {position}:") as err:
            parse(text)
        assert err.value.position == position
        assert err.value.text == text
        if "positive integer" in str(err.value):
            assert text[position] in "\u00b2\u00b9"

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

    def test_skew_hermitian_is_a_dim_name(self, capsys):
        # multiplication by i turns skew-Hermitian matrices Hermitian, so the
        # name prints the Hermitian counts under its own class name and its
        # own ambient label, and nothing else differs; it is no verify scope,
        # and the scopes are the classes in enum order, which the sweep seeds
        # depend on
        for n in range(1, 5):
            for profile in multiplicity_profiles(n):
                spec = render_multiplicities(profile)
                code, skew, _ = run_cli(capsys, "dim", "skew-hermitian", spec)
                code2, herm, _ = run_cli(capsys, "dim", "hermitian", spec)
                assert code == code2 == EXIT_PASS, spec
                assert herm.startswith("class: hermitian\n"), spec
                assert f"\nambient: {n * n} (Hermitian matrices)\n" in herm, spec
                assert f"\nambient: {n * n} (skew-Hermitian matrices)\n" in skew, spec
                renamed = herm.replace("hermitian", "skew-hermitian", 1)
                assert skew == renamed.replace("(Hermitian", "(skew-Hermitian", 1), spec
                code, skew, _ = run_cli(capsys, "dim", "skew-hermitian", spec, "--format", "json")
                code2, herm, _ = run_cli(capsys, "dim", "hermitian", spec, "--format", "json")
                assert code == code2 == EXIT_PASS, spec
                assert json.loads(herm)["class"] == "hermitian", spec
                assert json.loads(herm)["ambient"] == "Hermitian matrices", spec
                assert json.loads(skew)["ambient"] == "skew-Hermitian matrices", spec
                renamed = herm.replace('"hermitian"', '"skew-hermitian"', 1)
                assert skew == renamed.replace('"Hermitian', '"skew-Hermitian', 1), spec
        parser = cli._build_parser()
        assert cli.SWEEP_SCOPES == tuple(cls.value for cls in MatrixClass) == (
            "diagonalizable",
            "normal",
            "hermitian",
            "unitary",
            "real-symmetric",
            "jordan",
            "singular",
        )
        for name in cli.SWEEP_SCOPES:
            assert parser.parse_args(["verify", name]).scope == name
            assert parser.parse_args(["dim", name, "1"]).matrix_class == name
        assert parser.parse_args(["dim", "skew-hermitian", "1"]).matrix_class == "skew-hermitian"
        with pytest.raises(UsageError):
            parser.parse_args(["verify", "skew-hermitian"])

    def test_invariant_violation_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "dim", "singular", "2x2:3")
        assert code == EXIT_USAGE
        assert "rank" in err

    def test_parse_error_reports_position(self, capsys):
        code, _, err = run_cli(capsys, "dim", "hermitian", "2,q")
        assert code == EXIT_USAGE
        assert "position" in err

    def test_superscript_digit_reports_position(self, capsys):
        code, _, err = run_cli(capsys, "dim", "hermitian", "\u00b2")
        assert code == EXIT_USAGE
        assert "expected a positive integer in multiplicity list at position 0" in err


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
        text_lines = text_out.splitlines()[:-1]
        assert len(text_lines) == len(report["cases"])
        for line, case in zip(text_lines, report["cases"]):
            assert line[:13] == f"{case['verdict']:<12} "
            assert line[13:66] == f"{case['case']:<52} "
            pairs = [pair.split("=", 1) for pair in line[66:].split(" ")]
            assert [key for key, _ in pairs] == [k for k in case if k not in ("verdict", "case")]
            for key, value in pairs:
                expected = case[key]
                assert (value if isinstance(expected, str) else json.loads(value)) == expected

    def test_fail_exit_via_fault_injection(self, capsys):
        args = ("verify", "hermitian", "--max-n", "2")
        code, out, _ = run_cli(capsys, *args, "--inject-fault")
        assert code == EXIT_FAIL
        assert "FAIL" in out
        # the JSON report of the same sweep: schema-valid, one case failed,
        # its prediction one more than without the fault, the rest unchanged
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == EXIT_PASS
        clean = json.loads(out)["cases"]
        code, out, _ = run_cli(capsys, *args, "--format", "json", "--inject-fault")
        assert code == EXIT_FAIL
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["summary"]["failed"] == 1 and report["summary"]["verdict"] == "FAIL"
        first = report["cases"][0]
        assert first["predicted"] == clean[0]["predicted"] + 1
        assert first["verdict"] == "FAIL" and not first["certified"]
        assert report["cases"][1:] == clean[1:]

    def test_inconclusive_exit(self, capsys):
        # an absurd gap requirement that finite kept/dropped ratios cannot meet
        # (the singular sweep at n, m = 3 has probes whose dropped singular
        # values are tiny but nonzero inside one block, so their gap is
        # finite; the Jordan sweep's dropped values are exact zeros)
        # finite; the Jordan sweep's dropped values are exact zeros).  Only
        # the oracle's reads take the gap requirement: the qp-pair cases
        # read the fixed row band-only, so every one of them passes,
        # certified, and exactly the oracle cases of the six profiles with
        # a multiple nonzero singular value are INCONCLUSIVE.
        code, out, _ = run_cli(
            capsys, "verify", "singular", "--max-n", "3", "--max-m", "3", "--gap", "1e30"
        )
        assert code == EXIT_INCONCLUSIVE
        assert "INCONCLUSIVE" in out
        code, out, _ = run_cli(
            capsys, "verify", "singular", "--max-n", "3", "--max-m", "3", "--gap", "1e30",
            "--format", "json",
        )
        assert code == EXIT_INCONCLUSIVE
        cases = json.loads(out)["cases"]
        inconclusive = [c["case"] for c in cases if c["verdict"] == "INCONCLUSIVE"]
        assert inconclusive == [f"singular {stem} oracle" for stem in MULTIPLE_VALUE_STEMS]
        qp_pairs = [c for c in cases if c["case"].endswith("qp-pair")]
        assert len(qp_pairs) == 29
        assert all(c["verdict"] == "PASS" and c["certified"] for c in qp_pairs)

    def test_commutant_case_decided_when_oracle_is_not(self, capsys, gap_reads_fail):
        # the free read misses the gap, but the fixed-values SVD is still
        # read for the commutant case
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
        # one values-only call per multi-column part with rows and columns,
        # each on one matrix (svd_parts), profile after
        # profile: at n <= 3, three for a Jordan structure with a block of
        # size 2 or more and none for a semisimple one, at most one for
        # singular and normal; one decision call per chunk, each profile's
        # free row then its fixed row; none of either for the commutant
        # case
        svd = np.linalg.svd
        operator = tangent_oracle._operator
        split_read = tangent_oracle._split_read
        decide = tangent_oracle.decide_ranks
        calls, chunks, sizes, profiles, assembled = [], [], [], [], []

        def counted_svd(a, *args, **kwargs):
            calls.append((a.shape, args, kwargs))
            return svd(a, *args, **kwargs)

        def recorded_operator(*args):
            assembled.append(operator(*args))
            return assembled[-1]

        def counted_split(differential, fixed_columns):
            # each profile's parts, read off its own columns without padding
            stack, values = assembled[-1]
            assert stack is differential and fixed_columns == stack.shape[-1] - max(values)
            own = [
                svd_parts(differential[p : p + 1, :, : fixed_columns + v], [v])
                for p, v in enumerate(values)
            ]
            chunks.append((own, svd_parts(differential, values), fixed_columns, values))
            return split_read(differential, fixed_columns)

        def counted_decide(singular_values, row_sizes, tol, rows):
            sizes.append(row_sizes)
            return decide(singular_values, row_sizes, tol, rows)

        def counted_verify(matrix_class, data, seeds, **kwargs):
            profiles.extend(data)
            return verify_profiles(matrix_class, data, seeds, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(tangent_oracle, "_operator", recorded_operator)
        monkeypatch.setattr(tangent_oracle, "_split_read", counted_split)
        monkeypatch.setattr(tangent_oracle, "decide_ranks", counted_decide)
        monkeypatch.setattr(cli, "verify_profiles", counted_verify)
        config = RunConfig(max_n=3, max_m=3)
        report = build_verify_report(scope, config)
        assert report["summary"]["verdict"] == "PASS"
        assert len(sizes) == len(chunks) < len(profiles) == len(report["cases"]) // 2
        every_part = [part for own, _, _, _ in chunks for parts in own for part in parts]
        assert [shape for shape, _, _ in calls] == every_part
        for _, args, kwargs in calls:
            assert not args and kwargs == {"compute_uv": False}
        read = iter(profiles)
        for (own, chunk_parts, fixed_columns, values), decided in zip(chunks, sizes):
            assert chunk_parts == [part for parts in own for part in parts]
            expected = []
            for parts, v in zip(own, values):
                data = next(read)
                expected += [fixed_columns + v, fixed_columns]
                if scope == "jordan":
                    semisimple = all(k == 1 for part in data.blocks for k in part)
                    assert len(parts) == (0 if semisimple else 3), data
                else:
                    assert len(parts) <= 1, data
            assert decided == expected
        assert next(read, None) is None

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

    def test_oracle_seeded_by_its_profile_index(self, monkeypatch):
        # reports cap every clean gap, so they do not show which seed ran;
        # a profile's seed is its index in the sweep, whichever case of its
        # pair is listed first
        seeds = []

        def recording(matrix_class, profiles, profile_seeds, **kwargs):
            seeds.extend(profile_seeds)
            return verify_profiles(matrix_class, profiles, profile_seeds, **kwargs)

        monkeypatch.setattr(cli, "verify_profiles", recording)
        config = RunConfig(seed=3, max_n=2, max_m=2)
        for scope in ("hermitian", "jordan", "singular"):
            seeds.clear()
            profiles = len(build_verify_report(scope, config)["cases"]) // 2
            scope_idx = cli.SWEEP_SCOPES.index(scope)
            assert seeds == [derive_seed(3, scope_idx, i) for i in range(profiles)], scope

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

    def test_seed_range(self, capsys):
        # keys are 64-bit: the largest seed runs and its report validates,
        # one more is a usage error (exit 64), not an OverflowError
        # traceback (exit 1), and the schema rejects it
        top = 2**64 - 1
        code, out, err = run_cli(
            capsys, "verify", "hermitian", "--max-n", "2", "--seed", str(top), "--format", "json"
        )
        assert code == EXIT_PASS and not err
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["config"]["seed"] == top
        argv = ("verify", "hermitian", "--max-n", "2", "--seed", str(top + 1))
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and not out
        assert "below 2**64" in err
        with pytest.raises(UsageError):
            RunConfig(seed=top + 1)
        report["config"]["seed"] = top + 1
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_one_key_derivation_per_scope(self, monkeypatch):
        # a scope's keys come from one derive_seed call, the chunks' draws
        # take none, and the whole sweep goes to one verify_profiles call
        calls, sweeps = [], []
        derive = factory.derive_seed

        def counted(*components):
            calls.append(components)
            return derive(*components)

        def recording(matrix_class, profiles, seeds, **kwargs):
            sweeps.append(len(profiles))
            return verify_profiles(matrix_class, profiles, seeds, **kwargs)

        monkeypatch.setattr(factory, "derive_seed", counted)
        monkeypatch.setattr(cli, "verify_profiles", recording)
        config = RunConfig(seed=3, max_n=3, max_m=3)
        for scope in ("hermitian", "jordan", "singular"):
            calls.clear()
            sweeps.clear()
            report = build_verify_report(scope, config)
            assert len(calls) == 1, scope
            assert sweeps == [len(report["cases"]) // 2], scope

    def test_tolerance_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "jordan", "--max-n", "3", "--tolerance", "0.5"
        )
        assert code == EXIT_USAGE
        assert "tolerance out of range" in err

    def test_tolerance_below_rounding_is_inconclusive_not_fail(self, capsys):
        # Inside a multiple singular value's block, values that are zero in
        # exact arithmetic come out at rounding level; a tolerance below it
        # keeps them, and the noise floor makes those reads undecided.
        # keeps them, and the noise floor makes those reads undecided: the
        # band-only read of the qp-pair case as well as the oracle's, for
        # each of the six profiles with a multiple nonzero singular value.
        code, out, _ = run_cli(
            capsys, "verify", "singular", "--max-n", "3", "--max-m", "3", "--tolerance", "1e-20"
        )
        assert code == EXIT_INCONCLUSIVE
        assert "(0 failed, 12 inconclusive)" in out
        code, out, _ = run_cli(
            capsys, "verify", "singular", "--max-n", "3", "--max-m", "3", "--tolerance", "1e-20",
            "--format", "json",
        )
        cases = json.loads(out)["cases"]
        inconclusive = {c["case"] for c in cases if c["verdict"] == "INCONCLUSIVE"}
        assert inconclusive == {
            f"singular {stem} {kind}" for stem in MULTIPLE_VALUE_STEMS for kind in ("oracle", "qp-pair")
        }

    @settings(max_examples=12, deadline=None)
    @given(st.floats(min_value=-300.0, max_value=-2.0, exclude_max=True))
    def test_no_documented_tolerance_fails(self, exponent):
        # log-uniform over the documented range (0, 1e-2), on a small sweep
        config = RunConfig(tolerance=10.0**exponent, max_n=3, max_m=3)
        summary = build_verify_report("all", config)["summary"]
        assert summary["verdict"] != "FAIL", (exponent, summary)

    def test_sweep_bounds_are_budgeted(self, capsys, monkeypatch):
        # The largest stack is estimated from the bounds before any work, so
        # the rejected bounds are never run; a sweep that starts fails the
        # test.  Every sweep the CI runs, and jordan at n = 13, is admitted,
        # and so are the largest bounds: --max-n 42 and --max-m 63.
        monkeypatch.setattr(
            cli, "build_verify_report", lambda *args: pytest.fail("a rejected sweep ran")
        )
        admitted = [(8, 8), (16, 4), (13, 13), (11, 4), (13, 4), (42, 4), (4, 63), (42, 42)]
        for max_n, max_m in admitted:
            RunConfig(max_n=max_n, max_m=max_m)
        for bounds in ({"max_n": 2, "max_m": 99999}, {"max_n": 43}, {"max_m": 64}):
            with pytest.raises(UsageError, match="budget"):
                RunConfig(**bounds)
        code, out, err = run_cli(capsys, "verify", "singular", "--max-n", "2", "--max-m", "99999")
        assert code == EXIT_USAGE and not out
        assert f"above the {MAX_STACK_BYTES >> 20} MiB budget" in err

    def test_stack_estimate_counts_as_the_chunks_do(self):
        # the estimate less the skew basis is the largest one-profile stack
        # that the chunking counts, over every class and profile
        for bound in range(1, 6):
            largest = 0
            for cls in MatrixClass:
                if cls is MatrixClass.SINGULAR_VALUES:
                    profiles = [
                        p
                        for n in range(1, bound + 1)
                        for m in range(1, bound + 1)
                        for p in singular_profiles(n, m)
                    ]
                elif cls is MatrixClass.JORDAN:
                    profiles = [p for n in range(1, bound + 1) for p in jordan_structures(n)]
                else:
                    profiles = [p for n in range(1, bound + 1) for p in multiplicity_profiles(n)]
                for data in profiles:
                    shape = (data.n, getattr(data, "m", data.n))
                    columns = sum(tangent_oracle._columns(cls, data))
                    stack = tangent_oracle._stack_bytes(cls, shape, columns)
                    largest = max(largest, stack)
            basis = bound * (bound - 1) // 2 * bound * bound * 8
            estimate = tangent_oracle.largest_stack_bytes(bound, bound)
            assert estimate == largest + basis, bound

    def test_deterministic_reports(self):
        config = RunConfig(seed=7, max_n=3, max_m=3)
        a = build_verify_report("all", config)
        b = build_verify_report("all", config)
        assert json.dumps(a) == json.dumps(b)

    def test_inconclusive_oracle_reports_no_rank(self):
        # a read that completed before the undecided one must not leak its
        # rank or gap into the check or its case: the free row decides, the
        # fixed row has a value in the band (Jordan n = 1)
        js = JordanStructure.of((1,))
        decisions = decide_ranks(np.array([[1.0, 0.0], [1.0, 5e-9]]), [2, 2])
        assert decisions.reason[0] is None and "indecision band" in decisions.reason[1]
        checks = tangent_oracle._verdict(MatrixClass.JORDAN, js, decisions, 0, (1, True, 0.0), 1e4)
        for kind, check in zip(("oracle", "commutant"), checks):
            case = cli._case(f"jordan n=1 0:1 {kind}", "jordan", check)
            assert case.verdict == "INCONCLUSIVE" and not case.certified, case
            assert case.observed == -1 and case.gap_ratio == 0.0, case
            assert check.detail == decisions.reason[1], check
        oracle = cli._case_json(cli._case("jordan n=1 0:1 oracle", "jordan", checks[0]))
        assert oracle["observed"] == oracle["observed_fixed"] == -1
        assert oracle["gap_ratio"] == 0.0

    def test_readme_replay_recipe(self, monkeypatch):
        # README, "How the check works": the profile at index `index` of
        # scope `scope_idx` is replayed alone by verify_profiles(cls,
        # [profile], [derive_seed(seed, scope_idx, index)]); its checks
        # equal the sweep's, uncapped gap ratios included (every case reads
        # the cap here, which no point moves, but the singular sweep's
        # finite gaps do move), and so do both of its cases
        swept = {}

        def recorded(matrix_class, profiles, seeds, **kwargs):
            swept[matrix_class.value] = verify_profiles(matrix_class, profiles, seeds, **kwargs)
            return swept[matrix_class.value]

        monkeypatch.setattr(cli, "verify_profiles", recorded)
        config = RunConfig(seed=7, max_n=4, max_m=4)
        report = build_verify_report("all", config)
        cases = {case["case"]: case for case in report["cases"]}
        assert len(cases) == report["summary"]["total"]
        finite = 0
        for scope_idx, scope in enumerate(cli.SWEEP_SCOPES):
            kind = "qp-pair" if scope == "singular" else "commutant"
            for index, (profile, stem) in enumerate(cli._sweep(scope, config)):
                key = derive_seed(7, scope_idx, index)
                ((oracle, found),) = verify_profiles(cli.CLASS_NAMES[scope], [profile], [key])
                assert (oracle, found) == swept[scope][index], stem
                finite += sum(np.isfinite([oracle.gap_ratio, found.gap_ratio]))
                for name, check in ((f"{stem} oracle", oracle), (f"{stem} {kind}", found)):
                    assert cli._case_json(cli._case(name, scope, check)) == cases.pop(name)
        assert not cases and finite

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
            ("0", "d0ed769bee2e2639d3244d2cb42008c4eabe920866317653b27cf18fd4d40b15"),
            ("7", "ed0894efa432f8bc8e8ce42384a29b945df34217404938bdbf8ce8c5e68b9e8f"),
        ],
        ids=("seed-0", "seed-7"),
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

    def test_verify_all_n8_text_bytes_pinned(self, capsys):
        # the text report of the seed-0 sweep; every gap ratio reads the cap
        code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "8", "--max-m", "8")
        assert code == EXIT_PASS
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d6813af3c001f90da1e66e8cb5cd11df5fa3e32ee98d063e030771d27181156e"
        )

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_closed_pipe_keeps_the_verdict(self, fmt):
        # both reports are more than a pipe buffer holds, so the reader
        # leaves while the sweep still writes: exit 0 (PASS), no traceback
        argv = ["verify", "all", "--max-n", "6", "--max-m", "6", "--format", fmt]
        proc = subprocess.Popen(
            [sys.executable, "-m", "matstrata", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_PASS, err
        assert "Traceback" not in err

    def test_reports_do_not_depend_on_the_chunking(self, capsys, monkeypatch):
        # a bound of one byte makes every profile a chunk of its own
        argv = ("verify", "all", "--max-n", "6", "--max-m", "6", "--format", "json")
        code, chunked, _ = run_cli(capsys, *argv)
        assert code == EXIT_PASS
        monkeypatch.setattr(tangent_oracle, "_CHUNK_BYTES", 1)
        code, alone, _ = run_cli(capsys, *argv)
        assert code == EXIT_PASS and alone == chunked

    def test_trials_are_capped(self, capsys):
        # one certified point per profile: the trial count is no option, and
        # asking for one is a usage error (64), not a FAIL (1)
        with pytest.raises(TypeError):
            RunConfig(trials=3)
        for count in ("1", "3", "100000000"):
            code, out, err = run_cli(capsys, "verify", "jordan", "--trials", count)
            assert code == EXIT_USAGE and not out
            assert "unrecognized arguments: --trials" in err

    def test_gap_ratios_capped_for_json(self):
        report = build_verify_report("hermitian", RunConfig(max_n=2))
        for case in report["cases"]:
            assert case["gap_ratio"] <= 1e12


#: The report schema as a literal, field by field: the derived
#: ``REPORT_SCHEMA`` must equal it, so that the schema the benchmark gate
#: validates reports against cannot loosen.
WRITTEN_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "matstrata verify report, version 2",
    "type": "object",
    "required": ["command", "version", "scope", "config", "cases", "summary"],
    "properties": {
        "command": {"const": "verify"},
        "version": {"const": 2},
        "scope": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["seed", "tolerance", "gap_requirement", "max_n", "max_m"],
            "properties": {
                "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
                "tolerance": {"type": "number"},
                "gap_requirement": {"type": "number"},
                "max_n": {"type": "integer", "minimum": 1},
                "max_m": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "case", "class", "predicted", "observed", "gap_ratio", "verdict", "certified"
                ],
                "properties": {
                    "case": {"type": "string"},
                    "class": {"type": "string"},
                    "predicted": {"type": "integer"},
                    "observed": {"type": "integer"},
                    "gap_ratio": {"type": "number"},
                    "verdict": {"enum": ["PASS", "FAIL", "INCONCLUSIVE"]},
                    "certified": {"type": "boolean"},
                    "predicted_fixed": {"type": "integer"},
                    "observed_fixed": {"type": "integer"},
                },
                "additionalProperties": False,
            },
        },
        "summary": {
            "type": "object",
            "required": ["total", "passed", "failed", "inconclusive", "verdict"],
            "properties": {
                "total": {"type": "integer"},
                "passed": {"type": "integer"},
                "failed": {"type": "integer"},
                "inconclusive": {"type": "integer"},
                "verdict": {"enum": ["PASS", "FAIL", "INCONCLUSIVE"]},
            },
        },
    },
}


class TestCaseRecord:
    """:class:`cli.Case` states each case field once; the report's case
    objects, their schema and their text lines are derived from it."""

    def test_derived_schema_equals_the_written_one(self):
        assert REPORT_SCHEMA == WRITTEN_SCHEMA
        # the order of the case properties too, which ``==`` does not see
        items = REPORT_SCHEMA["properties"]["cases"]["items"]
        written = WRITTEN_SCHEMA["properties"]["cases"]["items"]
        assert list(items["properties"]) == list(written["properties"])

    def test_one_order_of_names_for_json_schema_and_text(self):
        fields = dataclasses.fields(cli.Case)
        keys = [f.name.rstrip("_") for f in fields]
        case = cli.Case("unitary n=2 k=1,1 oracle", "unitary", 6, 6, 1e12, "PASS", True, 4, 4)
        assert all(getattr(case, f.name) is not None for f in fields)
        obj = cli._case_json(case)
        items = REPORT_SCHEMA["properties"]["cases"]["items"]
        assert list(obj) == list(items["properties"]) == keys
        assert items["required"] == [
            key for key, f in zip(keys, fields) if f.default is dataclasses.MISSING
        ]
        jsonschema.validate(obj, items)
        summary = {"verdict": "PASS", "passed": 1, "total": 1, "failed": 0, "inconclusive": 0}
        line = cli.render_verify_text({"cases": [obj], "summary": summary}).splitlines()[0]
        assert line.startswith(f"{'PASS':<12} {case.case:<52} ")
        names = [pair.split("=", 1)[0] for pair in line[66:].split(" ")]
        assert names == [key for key in keys if key not in ("verdict", "case")]
        # a field that is None is left out of the object, and so of the line
        bare = dataclasses.replace(case, predicted_fixed=None, observed_fixed=None)
        assert list(cli._case_json(bare)) == items["required"]


def _cases_of(report, stem):
    """The report's cases of one profile, by the stem of their names."""
    return {c["case"][len(stem) + 1 :]: c for c in report["cases"] if c["case"].startswith(stem)}


class TestCertificate:
    """Each profile's ranks are certified at its one point: from below by
    the reads, whose kept values clear the noise floor, and from above by
    the paper's witnesses, annihilated exactly."""

    def test_every_case_of_a_full_sweep_is_certified(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--max-n", "6", "--max-m", "6", "--format", "json"
        )
        assert code == EXIT_PASS
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["summary"]["total"] == len(report["cases"]) > 1000
        for case in report["cases"]:
            assert case["verdict"] == "PASS" and case["certified"] is True, case
            if case["case"].endswith("oracle"):
                assert case["observed_fixed"] == case["predicted_fixed"], case

    @pytest.mark.parametrize(
        "scope, stem",
        [
            ("hermitian", "hermitian n=3 k=2,1"),
            ("real-symmetric", "real-symmetric n=3 k=2,1"),
            ("diagonalizable", "diagonalizable n=3 k=2,1"),
            ("singular", "singular 3x3 k=2,1"),
        ],
    )
    def test_one_ulp_off_a_repeated_value_is_uncertified(self, monkeypatch, scope, stem):
        # The second copy of the repeated value moved up by one ulp: the
        # point leaves the stratum, yet every read still decides as
        # predicted and every witness residual is within the threshold.
        # Only the exact check sees it: that profile's cases lose their
        # certificate and its stabiliser case is INCONCLUSIVE.
        base_points = factory.base_points

        def nudged(profiles, values, slots):
            out = base_points(profiles, values, slots)
            for p, data in enumerate(profiles):
                if data.n == getattr(data, "m", 3) == 3 and data.parts == (2, 1):
                    out[p, 1, 1] = np.nextafter(out[p, 1, 1], np.inf)
            return out

        monkeypatch.setattr(factory, "base_points", nudged)
        cls = cli.CLASS_NAMES[scope]
        singular = scope == "singular"
        data = SingularProfile(3, 3, (2, 1)) if singular else MultiplicityProfile.of(2, 1)
        ((oracle, stabilizer),) = verify_profiles(cls, [data], [0])
        assert oracle.verdict == "PASS" and not oracle.certified
        assert stabilizer.verdict == "INCONCLUSIVE" and not stabilizer.certified
        assert stabilizer.detail.startswith("witness residual"), stabilizer
        report = build_verify_report(scope, RunConfig(max_n=3, max_m=3))
        assert report["summary"]["verdict"] == "INCONCLUSIVE"
        nudged_cases = _cases_of(report, stem)
        assert len(nudged_cases) == 2
        for kind, case in nudged_cases.items():
            expected = "PASS" if kind == "oracle" else "INCONCLUSIVE"
            assert case["verdict"] == expected and case["certified"] is False, case
        others = [c for c in report["cases"] if not c["case"].startswith(stem)]
        assert all(c["verdict"] == "PASS" and c["certified"] for c in others)

    @pytest.mark.parametrize(
        "scope, stem, target",
        [
            ("hermitian", "hermitian n=3 k=2,1", MultiplicityProfile.of(2, 1)),
            ("singular", "singular 3x3 k=2,1", SingularProfile(3, 3, (2, 1))),
            ("jordan", "jordan n=3 0:2,1", JordanStructure.of((2, 1))),
        ],
    )
    def test_a_witness_column_shifted_by_one_entry_fails(self, monkeypatch, scope, stem, target):
        # The target's last witness column moved one entry down its
        # transform directions: it leaves the kernel by far more than the
        # threshold, so its stabiliser case FAILs and its oracle case, which
        # still reads the predicted ranks, is no longer certified.
        witnesses = commutant._witnesses

        def shifted(matrix_class, profiles):
            witness, count = witnesses(matrix_class, profiles)
            for p, data in enumerate(profiles):
                if data == target:
                    witness[p, :, count[p] - 1] = np.roll(witness[p, :, count[p] - 1], 1)
            return witness, count

        monkeypatch.setattr(commutant, "_witnesses", shifted)
        report = build_verify_report(scope, RunConfig(max_n=3, max_m=3))
        assert report["summary"]["verdict"] == "FAIL"
        cases = _cases_of(report, stem)
        assert len(cases) == 2
        for kind, case in cases.items():
            expected = "PASS" if kind == "oracle" else "FAIL"
            assert case["verdict"] == expected and case["certified"] is False, case
        others = [c for c in report["cases"] if not c["case"].startswith(stem)]
        assert all(c["verdict"] == "PASS" and c["certified"] for c in others)


#: Values of ``verify``'s numeric options, as typed: non-finite, signed
#: zeros, negatives, subnormals, the bounds of a 64-bit key and plain values.
_OPTION_EXTREMES = (
    "nan", "inf", "-inf", "0", "-0.0", "-1", "-1e-300", "5e-324", "2.2e-310",
    "1e-20", "1e-8", "0.0099", "0.5", "1", "1e4", "1e30",
    str(2**64 - 1), str(2**64), str(2**64 + 1), str(-(2**64)),
)
_ANY_VALUE = st.one_of(
    st.sampled_from(_OPTION_EXTREMES),
    st.floats().map(repr),
    st.integers(min_value=-(2**65), max_value=2**65).map(str),
)


def _strict_json(text):
    """The report parsed as strict JSON: NaN and Infinity are rejected."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _assert_documented_exit(*argv):
    """Run ``main`` on ``argv`` with a JSON report: the exit code is 0
    (PASS), 2 (INCONCLUSIVE) or 64 (usage error), never 1 (FAIL) and never
    a traceback, and a sweep that ran printed its report as strict JSON."""
    argv = [*argv, "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_PASS, EXIT_INCONCLUSIVE, EXIT_USAGE), argv
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error: ") and not out.getvalue(), argv
        return
    report = _strict_json(out.getvalue())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert cli._EXIT_FOR_VERDICT[report["summary"]["verdict"]] == code, argv


class TestNumericOptions:
    @settings(max_examples=100, deadline=None)
    @given(
        scope=st.sampled_from(("all",) + cli.SWEEP_SCOPES),
        bounds=st.sampled_from(((1, 1), (2, 3), (3, 2), (3, 3), (0, 3), (3, -1))),
        in_range=st.fixed_dictionaries(
            {
                "--tolerance": st.floats(0.0, 1e-2, exclude_min=True, exclude_max=True),
                "--gap": st.floats(1.0, 1e300),
                "--seed": st.integers(0, 2**64 - 1),
            }
        ),
        wild=st.dictionaries(st.sampled_from(("--tolerance", "--gap", "--seed")), _ANY_VALUE),
    )
    def test_exit_codes_as_documented(self, scope, bounds, in_range, wild):
        # each option drawn from its documented range unless ``wild`` gives
        # it any value
        options = {flag: repr(value) for flag, value in in_range.items()} | wild
        _assert_documented_exit(
            "verify", scope, f"--max-n={bounds[0]}", f"--max-m={bounds[1]}",
            *(f"{flag}={value}" for flag, value in options.items()),
        )

    def test_each_extreme_alone(self):
        # every listed value in each option, the others at their defaults
        for flag in ("--tolerance", "--gap", "--seed"):
            for value in _OPTION_EXTREMES:
                _assert_documented_exit("verify", "all", "--max-n=2", "--max-m=2", f"{flag}={value}")

    @pytest.mark.parametrize(
        "option, value, code",
        [
            ("--tolerance", "5e-324", EXIT_INCONCLUSIVE),
            ("--gap", "nan", EXIT_USAGE),
            ("--tolerance", "-0.0", EXIT_USAGE),
        ],
    )
    def test_spot_checks(self, capsys, option, value, code):
        argv = ("verify", "all", "--max-n", "3", "--max-m", "3", f"{option}={value}")
        assert run_cli(capsys, *argv)[0] == code


#: Numbers as typed: positive, or signed, zero, padded with spaces, or empty.
_NUMBERS = st.one_of(st.integers(1, 6).map(str), st.sampled_from(("", " 2 ", "+1", "-0", "0", "-3")))
#: Comma lists of positive numbers, or of any of those, empty entries
#: included.
_NUMBER_LISTS = st.one_of(
    st.lists(st.integers(1, 4).map(str), min_size=1, max_size=4), st.lists(_NUMBERS, max_size=4)
).map(",".join)
#: Specs of the Jordan grammar, labels repeated or empty, and of the
#: singular-value grammar, built from their groups.
_JORDAN_SPECS = st.lists(
    st.tuples(st.sampled_from(("a", "0", "1", "", " b ")), _NUMBER_LISTS).map(":".join),
    min_size=1,
    max_size=3,
).map(";".join)
_SINGULAR_SPECS = st.tuples(st.tuples(_NUMBERS, _NUMBERS).map("x".join), _NUMBER_LISTS).map(":".join)
#: Specs of every profile grammar: free text over their alphabet (digits,
#: ``,`` ``;`` ``:`` ``x``, a label letter) with signs and spaces, and
#: specs built from their groups, so that valid ones are drawn too.
_SPECS = st.one_of(
    st.text(alphabet="0123456789,;:xa+- ", max_size=12),
    _NUMBER_LISTS,
    _JORDAN_SPECS,
    _SINGULAR_SPECS,
)


def _dim_arguments(name):
    """A class name with a spec, drawn from its own grammar or any."""
    own = {"jordan": _JORDAN_SPECS, "singular": _SINGULAR_SPECS}.get(name, _NUMBER_LISTS)
    return st.tuples(st.just(name), st.one_of(own, _SPECS))


def _assert_grammar_exit(*argv):
    """Run ``main`` on ``argv``: the exit code is 0 or 64 (usage error),
    never a traceback, and a JSON output of an exit 0 is strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (EXIT_PASS, EXIT_USAGE), argv
    if code == EXIT_USAGE:
        assert err.getvalue().startswith("error: ") and not out.getvalue(), argv
    elif "--format=json" in argv:
        _strict_json(out.getvalue())


class TestGrammars:
    """No input in the ``dim`` and ``table`` grammars crashes the program."""

    @settings(max_examples=300, deadline=None)
    @given(
        arguments=st.one_of(
            st.sampled_from(sorted(cli.CLASS_NAMES)).flatmap(_dim_arguments),
            st.tuples(st.text("aehimnrstx-", max_size=8), _SPECS),
        ),
        fmt=st.sampled_from(("text", "json")),
    )
    def test_dim_exits_0_or_64(self, arguments, fmt):
        _assert_grammar_exit("dim", *arguments, f"--format={fmt}")

    @settings(max_examples=300, deadline=None)
    @given(
        which=st.sampled_from(("1", "2", "0", "3", "")),
        options=st.fixed_dictionaries(
            {},
            optional={
                "--n": _NUMBERS,
                "--m": _NUMBERS,
                "--r": _NUMBERS,
                "--profile": st.one_of(_NUMBER_LISTS, _SPECS),
                "--svd": st.one_of(_SINGULAR_SPECS, _SPECS),
                "--jordan": st.one_of(_JORDAN_SPECS, _SPECS),
            },
        ),
        fmt=st.sampled_from(("text", "json")),
    )
    def test_table_exits_0_or_64(self, which, options, fmt):
        flags = (f"{flag}={value}" for flag, value in options.items())
        _assert_grammar_exit("table", which, *flags, f"--format={fmt}")


#: Strings with JSON's escapes, non-ASCII text, the empty string and the
#: text between two encoded cases.
_TRICKY_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ('"', "\\", '\\"', "é∂ 漢 \U0001f600", "", "},\n      {", '"},\n      {"')
    ),
)
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from((0.0, -0.0, 1e12, 5e-324, 1.5)),
    st.floats(),
    _TRICKY_TEXT,
)
#: Case lists as the renderer takes them: flat, non-empty objects.
_CASE_LISTS = st.lists(st.dictionaries(_TRICKY_TEXT, _SCALAR, min_size=1, max_size=6), max_size=5)


class TestJsonRenderer:
    """``render_verify_json`` prints ``json.dumps(report, indent=2)``."""

    @staticmethod
    def assert_renders_as_dumps(report):
        assert cli.render_verify_json(report) == json.dumps(report, indent=2)

    @pytest.mark.parametrize(
        "golden", sorted(GOLDEN_DIR.glob("verify_all_*.json")), ids=lambda p: p.name
    )
    def test_goldens(self, golden):
        report = json.loads(golden.read_text())
        assert report["cases"]
        self.assert_renders_as_dumps(report)

    @pytest.mark.parametrize("seed", (0, 7))
    def test_sweeps(self, seed):
        self.assert_renders_as_dumps(build_verify_report("all", RunConfig(seed, max_n=4, max_m=4)))

    def test_no_cases(self):
        report = json.loads((GOLDEN_DIR / "verify_all_n3_seed7.json").read_text())
        self.assert_renders_as_dumps({**report, "cases": []})

    @settings(max_examples=200, deadline=None)
    @given(_CASE_LISTS)
    def test_drawn_case_lists(self, cases):
        report = json.loads((GOLDEN_DIR / "verify_all_n3_seed7.json").read_text())
        self.assert_renders_as_dumps({**report, "cases": cases})

    def test_case_properties_are_scalars(self):
        # the renderer's byte argument needs flat case objects
        scalar_types = {"string", "integer", "number", "boolean", "null"}
        properties = REPORT_SCHEMA["properties"]["cases"]["items"]["properties"]
        for key, schema in properties.items():
            if "enum" in schema:
                assert all(isinstance(v, (str, int, float, bool)) for v in schema["enum"]), key
            else:
                assert schema["type"] in scalar_types, key


class TestHelp:
    @pytest.mark.parametrize("argv", (["--help"], ["verify", "--help"]), ids=" ".join)
    def test_help_is_plain(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0
        out = capsys.readouterr().out
        assert not re.search(r":(class|func|data|mod|meth|attr):|``", out), out

    def test_help_names_each_exit_code(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        _, _, codes = out.partition("Exit codes:")
        for code in (EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE):
            assert re.search(rf"\b{code} [a-z]", codes), (code, out)


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


# Six in-process sweeps per command; prints one JSON list of the minor page
# faults each sweep took.
_FAULTS_PER_SWEEP = textwrap.dedent(
    """
    import contextlib, io, json, resource
    from matstrata import cli

    faults = []
    for argv in [["verify", "hermitian", "--max-n", "8"]] * 6 + [
        ["verify", "jordan", "--max-n", "7"]
    ] * 6:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == cli.EXIT_PASS
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(json.dumps(faults))
    """
)


@pytest.fixture
def uncached_heap_setting():
    """Let ``main`` set the allocator again here, and again after the test."""
    cli._steady_heap.cache_clear()
    yield
    cli._steady_heap.cache_clear()


class TestSteadyHeap:
    """``main`` fixes glibc's trim and mmap thresholds, so a sweep's freed
    stacks stay on the heap and the next sweep does not fault them back in."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
    def test_repeated_sweeps_stop_faulting(self):
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTS_PER_SWEEP], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        faults = json.loads(proc.stdout)
        # Only the first sweep grows the heap (with glibc's dynamic
        # thresholds, later sweeps take thousands of faults each).
        assert all(count < 1000 for count in faults[1:]), faults

    def test_thresholds_set_once_per_process(self, monkeypatch, capsys, uncached_heap_setting):
        calls = []
        libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        for _ in range(2):
            assert run_cli(capsys, "verify", "hermitian", "--max-n", "2")[0] == EXIT_PASS
        assert calls == [(-1, 64 << 20), (-3, 32 << 20)]

    def test_runs_without_mallopt(self, monkeypatch, capsys, uncached_heap_setting):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
        code, out, _ = run_cli(capsys, "verify", "hermitian", "--max-n", "2")
        assert code == EXIT_PASS and "PASS" in out
