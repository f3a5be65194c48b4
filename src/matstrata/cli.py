"""Command-line front end: dimension queries, verification sweeps, tables.

Exit codes: 0 when everything passes, 1 on a genuine formula/oracle
mismatch, 2 when any rank decision was inconclusive, 64 on usage errors.
Gap ratios are capped at 1e12 in reports (a clean decision often drops
exact zeros, whose true ratio is infinite); text and JSON modes print the
same numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import commutant as commutant_mod
from . import factory
from .formulas import MatrixClass, dimension_report, table1, table2
from .profiles import (
    JordanStructure,
    MultiplicityProfile,
    SingularProfile,
    jordan_structures,
    multiplicity_profiles,
    singular_profiles,
)
from .ranktools import DEFAULT_GAP_REQUIREMENT, DEFAULT_TOLERANCE
from .tangent_oracle import verify_class

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

GAP_CAP = 1e12

#: Classes addressable from the command line, in sweep order.
CLASS_NAMES = {
    "diagonalizable": MatrixClass.DIAGONALIZABLE_COMPLEX,
    "normal": MatrixClass.NORMAL,
    "hermitian": MatrixClass.HERMITIAN,
    "skew-hermitian": MatrixClass.SKEW_HERMITIAN,
    "unitary": MatrixClass.UNITARY,
    "real-symmetric": MatrixClass.REAL_SYMMETRIC,
    "jordan": MatrixClass.JORDAN,
    "singular": MatrixClass.SINGULAR_VALUES,
}
SWEEP_SCOPES = (
    "diagonalizable",
    "normal",
    "hermitian",
    "unitary",
    "real-symmetric",
    "jordan",
    "singular",
)

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "matstrata verify report",
    "type": "object",
    "required": ["command", "scope", "config", "cases", "summary"],
    "properties": {
        "command": {"const": "verify"},
        "scope": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["seed", "tolerance", "gap_requirement", "trials", "max_n", "max_m"],
            "properties": {
                "seed": {"type": "integer"},
                "tolerance": {"type": "number"},
                "gap_requirement": {"type": "number"},
                "trials": {"type": "integer", "minimum": 1},
                "max_n": {"type": "integer", "minimum": 1},
                "max_m": {"type": "integer", "minimum": 1},
            },
        },
        "cases": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["case", "class", "predicted", "observed", "gap_ratio", "verdict"],
                "properties": {
                    "case": {"type": "string"},
                    "class": {"type": "string"},
                    "predicted": {"type": "integer"},
                    "observed": {"type": "integer"},
                    "gap_ratio": {"type": "number"},
                    "verdict": {"enum": ["PASS", "FAIL", "INCONCLUSIVE"]},
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


class UsageError(Exception):
    pass


class ProfileSyntaxError(UsageError):
    """Profile spec that does not parse; carries the character position."""

    def __init__(self, message: str, text: str, position: int):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.text = text
        self.position = position


@dataclasses.dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    tolerance: float = DEFAULT_TOLERANCE
    gap_requirement: float = DEFAULT_GAP_REQUIREMENT
    trials: int = 3
    max_n: int = 4
    max_m: int = 4
    inject_fault: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise UsageError(f"seed must be non-negative, got {self.seed}")
        if not 0 < self.tolerance < 1e-2:
            raise UsageError(
                f"tolerance out of range (0, 1e-2): {self.tolerance}"
            )
        if self.trials < 1:
            raise UsageError(f"trials must be at least 1, got {self.trials}")
        if self.max_n < 1 or self.max_m < 1:
            raise UsageError("sweep bounds must be at least 1")
        if not (math.isfinite(self.gap_requirement) and self.gap_requirement >= 1):
            raise UsageError(
                f"gap requirement must be finite and at least 1: {self.gap_requirement}"
            )


# ---------------------------------------------------------------------------
# profile grammars


def _parse_int_list(text, offset, context):
    parts = []
    pos = offset
    for token in text.split(","):
        stripped = token.strip()
        if not stripped or not stripped.isdigit() or int(stripped) < 1:
            raise ProfileSyntaxError(
                f"expected a positive integer in {context}", text, pos
            )
        parts.append(int(stripped))
        pos += len(token) + 1
    return tuple(parts)


def parse_multiplicities(text: str) -> MultiplicityProfile:
    """Comma-separated multiplicities, e.g. ``2,1,1``."""
    parts = _parse_int_list(text, 0, "multiplicity list")
    return MultiplicityProfile.of(*parts)


def parse_jordan(text: str) -> JordanStructure:
    """Per-eigenvalue block sizes, e.g. ``0:3,1;1:2`` (labels are arbitrary
    but must be distinct; sizes weakly decreasing)."""
    blocks = []
    labels = []
    pos = 0
    for group in text.split(";"):
        head, sep, sizes = group.partition(":")
        if not sep:
            raise ProfileSyntaxError("expected 'label:sizes' group", text, pos)
        label = head.strip()
        if not label:
            raise ProfileSyntaxError("empty eigenvalue label", text, pos)
        if label in labels:
            raise ProfileSyntaxError(f"duplicate eigenvalue label {label!r}", text, pos)
        labels.append(label)
        part = _parse_int_list(sizes, pos + len(head) + 1, "block size list")
        if any(part[i] < part[i + 1] for i in range(len(part) - 1)):
            raise ProfileSyntaxError(
                "block sizes must be weakly decreasing", text, pos + len(head) + 1
            )
        blocks.append(part)
        pos += len(group) + 1
    return JordanStructure.of(*blocks)


def parse_singular(text: str) -> SingularProfile:
    """Shape and multiplicities, e.g. ``4x3:2,1``; ``4x3:`` is rank zero."""
    shape, sep, rest = text.partition(":")
    if not sep:
        raise ProfileSyntaxError("expected 'NxM:k1,k2,...'", text, 0)
    left, cross, right = shape.partition("x")
    if not cross or not left.strip().isdigit() or not right.strip().isdigit():
        raise ProfileSyntaxError("expected shape 'NxM'", text, 0)
    n, m = int(left), int(right)
    parts = () if not rest.strip() else _parse_int_list(rest, len(shape) + 1, "multiplicity list")
    return SingularProfile(n, m, parts)


def render_multiplicities(profile: MultiplicityProfile) -> str:
    return ",".join(str(k) for k in profile.parts)


def render_jordan(js: JordanStructure) -> str:
    return ";".join(
        f"{a}:{','.join(str(k) for k in part)}" for a, part in enumerate(js.blocks)
    )


def render_singular(profile: SingularProfile) -> str:
    return f"{profile.n}x{profile.m}:" + ",".join(str(k) for k in profile.parts)


def _parse_data(matrix_class: MatrixClass, spec: str):
    if matrix_class is MatrixClass.JORDAN:
        return parse_jordan(spec)
    if matrix_class is MatrixClass.SINGULAR_VALUES:
        return parse_singular(spec)
    return parse_multiplicities(spec)


def _render_data(data) -> str:
    if isinstance(data, JordanStructure):
        return render_jordan(data)
    if isinstance(data, SingularProfile):
        return render_singular(data)
    return render_multiplicities(data)


# ---------------------------------------------------------------------------
# dim command


def _report_payload(report):
    return {
        "stratum_dim": report.stratum_dim,
        "codim": report.codim,
        "terms": {label: value for label, value in report.terms},
    }


def build_dim_payload(class_name: str, spec: str) -> dict:
    matrix_class = CLASS_NAMES[class_name]
    data = _parse_data(matrix_class, spec)
    free = dimension_report(matrix_class, data)
    fixed = free.fixed()
    payload = {
        "class": class_name,
        "profile": _render_data(data),
        "n": getattr(data, "n", None),
        "field": free.field_kind,
        "ambient_dim": free.ambient_dim,
        "ambient": free.ambient_label,
        "free": _report_payload(free),
        "fixed": _report_payload(fixed),
    }
    if isinstance(data, SingularProfile):
        payload["m"] = data.m
        payload["rank"] = data.rank
        payload["rank_stratum_codim"] = free.rank_stratum_codim
    if free.field_kind == "complex":
        real = free.realified()
        payload["real_counts"] = _report_payload(real)
    return payload


def render_dim_text(payload: dict) -> str:
    lines = [
        f"class: {payload['class']}",
        f"profile: {payload['profile']}",
        f"n: {payload['n']}" + (f"  m: {payload['m']}" if "m" in payload else ""),
        f"field: {payload['field']}",
        f"ambient: {payload['ambient_dim']} ({payload['ambient']})",
    ]
    for variant in ("free", "fixed"):
        block = payload[variant]
        terms = ", ".join(f"{k} {v}" for k, v in block["terms"].items())
        lines.append(
            f"{variant} values: dim {block['stratum_dim']}, codim {block['codim']}"
            f"  [{terms}]"
        )
    if "real_counts" in payload:
        block = payload["real_counts"]
        lines.append(
            f"real counts (doubled): dim {block['stratum_dim']}, codim {block['codim']}"
        )
    if payload.get("rank_stratum_codim") is not None:
        lines.append(
            f"codim within rank-{payload['rank']} matrices: {payload['rank_stratum_codim']}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# table command


def _table_cell(formula, value):
    if value is not None:
        return str(value)
    return formula if formula is not None else "---"


def render_table_text(rows, title: str) -> str:
    name_width = max(len("set"), max(len(r.name) for r in rows))
    cx_width = max(
        len("complex"),
        max(len(_table_cell(r.complex_formula, r.complex_value)) for r in rows),
    )
    lines = [title]
    header = f"{'#':>2}  {'set'.ljust(name_width)}  {'complex'.ljust(cx_width)}  real"
    lines.append(header)
    for idx, row in enumerate(rows, start=1):
        cx = _table_cell(row.complex_formula, row.complex_value)
        re_ = _table_cell(row.real_formula, row.real_value)
        lines.append(f"{idx:>2}  {row.name.ljust(name_width)}  {cx.ljust(cx_width)}  {re_}")
    return "\n".join(lines)


def build_table_rows(which: int, args) -> tuple[list, str]:
    if which == 1:
        if args.n is None and (args.m is not None or args.r is not None):
            raise UsageError("table 1 numeric mode needs --n")
        rows = table1(args.n, args.m, args.r)
        return rows, "Table 1: dimensions of common matrix sets"
    profile = parse_multiplicities(args.profile) if args.profile else None
    singular = parse_singular(args.svd) if args.svd else None
    jordan = parse_jordan(args.jordan) if args.jordan else None
    if args.n is not None:
        if profile is None and singular is None and jordan is None:
            raise UsageError(
                "table 2 numeric mode needs --profile, --svd, or --jordan"
            )
        for data in (profile, singular, jordan):
            if data is not None and data.n != args.n:
                raise UsageError(f"--n {args.n} does not match profile order {data.n}")
    rows = table2(profile, singular, jordan)
    return rows, "Table 2: dimensions by multiplicity"


def _table_json(rows):
    return [
        {
            "name": r.name,
            "complex_formula": r.complex_formula,
            "real_formula": r.real_formula,
            "complex_value": r.complex_value,
            "real_value": r.real_value,
        }
        for r in rows
    ]


# ---------------------------------------------------------------------------
# verify command


def _capped(gap: float) -> float:
    if gap != gap:  # NaN guard; should not happen
        return 0.0
    return float(min(gap, GAP_CAP))


def _case(name, class_name, predicted, observed, gap, verdict):
    return {
        "case": name,
        "class": class_name,
        "predicted": int(predicted),
        "observed": int(observed),
        "gap_ratio": _capped(gap),
        "verdict": verdict,
    }


def _oracle_case(scope, stem, verdict):
    if verdict.verdict == "INCONCLUSIVE":
        observed, gap = -1, 0.0
    else:
        observed = verdict.trials[-1].rank_free
        gap = min(min(t.gap_free, t.gap_fixed) for t in verdict.trials)
    return _case(
        f"{stem} oracle", scope, verdict.predicted_free, observed, gap, verdict.verdict
    )


def _commutant_case(scope, data, stem, verdict, config):
    """Dimension of the transforms fixing the oracle's first base point, read
    as the nullity of its fixed-values operator, against the commutant term
    of the oracle's dimension report."""
    matrix_class = CLASS_NAMES[scope]
    name = f"{stem} {'qp-pair' if scope == 'singular' else 'commutant'}"
    predicted = -dict(verdict.report.terms)["commutant"]
    if verdict.kernel is None:
        return _case(name, scope, predicted, -1, 0.0, "INCONCLUSIVE")
    found = commutant_mod.read_stabilizer(
        matrix_class, data, verdict.kernel, config.tolerance
    )
    passed = found.dimension == predicted and found.structure_ok
    return _case(
        name, scope, predicted, found.dimension, found.gap_ratio, "PASS" if passed else "FAIL"
    )


def _sweep(scope, config):
    """Every profile of the scope within the configured orders, with the stem
    of its case names."""
    for n in range(1, config.max_n + 1):
        if scope == "jordan":
            for js in jordan_structures(n):
                yield js, f"jordan n={n} {render_jordan(js)}"
        elif scope == "singular":
            for m in range(1, config.max_m + 1):
                for sp in singular_profiles(n, m):
                    yield sp, f"singular {n}x{m} k={','.join(map(str, sp.parts))}"
        else:
            for profile in multiplicity_profiles(n):
                yield profile, f"{scope} n={n} k={render_multiplicities(profile)}"


def _scope_cases(scope, config):
    """The oracle and commutant cases of every profile, both read from one
    :func:`verify_class` run; the commutant case reads its first trial."""
    scope_idx = SWEEP_SCOPES.index(scope)
    # Jordan and singular sweeps put the commutant case first.  The oracle's
    # seed is drawn at its place in the case list, as when each case drew
    # one, so changing the order changes the reports.
    commutant_first = scope in ("jordan", "singular")
    cases = []
    for data, stem in _sweep(scope, config):
        seed = factory.derive_seed(config.seed, scope_idx, len(cases) + int(commutant_first))
        verdict = verify_class(
            CLASS_NAMES[scope],
            data,
            trials=config.trials,
            seed=seed,
            tol=config.tolerance,
            gap_requirement=config.gap_requirement,
        )
        pair = [
            _oracle_case(scope, stem, verdict),
            _commutant_case(scope, data, stem, verdict, config),
        ]
        cases.extend(pair[::-1] if commutant_first else pair)
    return cases


def build_verify_report(scope: str, config: RunConfig) -> dict:
    scopes = SWEEP_SCOPES if scope == "all" else (scope,)
    cases = []
    for s in scopes:
        cases.extend(_scope_cases(s, config))
    if config.inject_fault and cases:
        # Deliberate +1 on one prediction so the FAIL path is testable.
        first = dict(cases[0])
        first["predicted"] += 1
        first["verdict"] = "FAIL" if first["verdict"] == "PASS" else first["verdict"]
        cases[0] = first
    failed = sum(1 for c in cases if c["verdict"] == "FAIL")
    inconclusive = sum(1 for c in cases if c["verdict"] == "INCONCLUSIVE")
    passed = sum(1 for c in cases if c["verdict"] == "PASS")
    verdict = "FAIL" if failed else ("INCONCLUSIVE" if inconclusive else "PASS")
    return {
        "command": "verify",
        "scope": scope,
        "config": {
            "seed": config.seed,
            "tolerance": config.tolerance,
            "gap_requirement": config.gap_requirement,
            "trials": config.trials,
            "max_n": config.max_n,
            "max_m": config.max_m,
        },
        "cases": cases,
        "summary": {
            "total": len(cases),
            "passed": passed,
            "failed": failed,
            "inconclusive": inconclusive,
            "verdict": verdict,
        },
    }


def render_verify_text(report: dict) -> str:
    lines = []
    for case in report["cases"]:
        lines.append(
            f"{case['verdict']:<12} {case['case']:<52} "
            f"predicted={case['predicted']} observed={case['observed']} "
            f"gap_ratio={case['gap_ratio']}"
        )
    s = report["summary"]
    lines.append(
        f"{s['verdict']}: {s['passed']}/{s['total']} cases passed "
        f"({s['failed']} failed, {s['inconclusive']} inconclusive)"
    )
    return "\n".join(lines)


_EXIT_FOR_VERDICT = {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL, "INCONCLUSIVE": EXIT_INCONCLUSIVE}


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="matstrata", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    dim = sub.add_parser("dim", help="dimension and codimension of one stratum")
    dim.add_argument("matrix_class", choices=sorted(CLASS_NAMES))
    dim.add_argument("spec", help="profile spec (k1,k2,... | a:sizes;b:sizes | NxM:k1,...)")
    dim.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="sweep formulas against the numerical oracles")
    verify.add_argument("scope", choices=("all",) + SWEEP_SCOPES)
    defaults = RunConfig()
    verify.add_argument("--seed", type=int, default=defaults.seed)
    verify.add_argument("--tolerance", type=float, default=defaults.tolerance)
    verify.add_argument(
        "--gap",
        type=float,
        default=defaults.gap_requirement,
        help="required kept/dropped gap ratio",
    )
    verify.add_argument("--trials", type=int, default=defaults.trials)
    verify.add_argument("--max-n", type=int, default=defaults.max_n)
    verify.add_argument("--max-m", type=int, default=defaults.max_m)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    table = sub.add_parser("table", help="reproduce the dimension tables")
    table.add_argument("which", type=int, choices=(1, 2))
    table.add_argument("--n", type=int)
    table.add_argument("--m", type=int)
    table.add_argument("--r", type=int)
    table.add_argument("--profile", help="multiplicities for table 2 rows 1-5")
    table.add_argument("--svd", help="NxM:k1,... for table 2 rows 6 and 8")
    table.add_argument("--jordan", help="a:sizes;b:sizes for table 2 row 7")
    table.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _run(args) -> int:
    if args.command == "dim":
        try:
            payload = build_dim_payload(args.matrix_class, args.spec)
        except ValueError as err:  # invariant violations echo the constraint
            raise UsageError(str(err)) from err
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(render_dim_text(payload))
        return EXIT_PASS

    if args.command == "table":
        try:
            rows, title = build_table_rows(args.which, args)
        except ValueError as err:
            raise UsageError(str(err)) from err
        if args.format == "json":
            print(json.dumps(_table_json(rows), indent=2))
        else:
            print(render_table_text(rows, title))
        return EXIT_PASS

    config = RunConfig(
        seed=args.seed,
        tolerance=args.tolerance,
        gap_requirement=args.gap,
        trials=args.trials,
        max_n=args.max_n,
        max_m=args.max_m,
        inject_fault=args.inject_fault,
    )
    report = build_verify_report(args.scope, config)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_verify_text(report))
    return _EXIT_FOR_VERDICT[report["summary"]["verdict"]]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
