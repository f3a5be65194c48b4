"""Command-line front end: dimension queries, verification sweeps, tables.

:data:`_DESCRIPTION`, the help text, gives the exit codes; a reader that
closes the output early changes none.  Each profile is verified at one
seeded base point, whose ranks are certified from both sides; ``--seed``
picks another.  :class:`Case` states a case's fields once: a report's case
objects, their schema and their text lines are derived from it.  Gap
ratios are capped at 1e12 (a clean decision often drops exact zeros, whose
true ratio is infinite).  The sweep bounds are checked against a 64 MiB
budget for one profile's image stack before any work.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import dataclasses
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

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
from .ranktools import DEFAULT_GAP_REQUIREMENT, DEFAULT_TOLERANCE, MAX_TOLERANCE
from .tangent_oracle import largest_stack_bytes, verify_profiles

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

GAP_CAP = 1e12
#: Most bytes that the sweep bounds may ask of one profile's image stack
#: and the skew-symmetric basis beside it (:func:`largest_stack_bytes`).
MAX_STACK_BYTES = 64 << 20

#: Classes addressable from the command line by their values, and
#: ``skew-hermitian``, a ``dim`` name for the Hermitian counts: multiplication
#: by i turns skew-Hermitian matrices Hermitian, so only the ambient label
#: differs.  Every class is a ``verify all`` scope, in enum order, whose
#: index seeds it.
CLASS_NAMES = {cls.value: cls for cls in MatrixClass} | {"skew-hermitian": MatrixClass.HERMITIAN}
SWEEP_SCOPES = tuple(cls.value for cls in MatrixClass)

#: Version of the report layout, which the report states and the schema
#: requires.  Version 2 dropped the trial count from ``config`` and added
#: ``certified`` to every case and the fixed-values ranks to oracle cases.
REPORT_VERSION = 2

#: Exit code of each verdict that a case or a report may read.
_EXIT_FOR_VERDICT = {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL, "INCONCLUSIVE": EXIT_INCONCLUSIVE}


def _field(schema, **default):
    return dataclasses.field(metadata={"schema": schema}, **default)


@dataclasses.dataclass(frozen=True)
class Case:
    """One verify case: in order, its fields with their JSON schemas are
    the keys of the report's case object.  A None field is left out, so
    only the fields None by default are optional."""

    case: str = _field({"type": "string"})
    class_: str = _field({"type": "string"})
    predicted: int = _field({"type": "integer"})
    observed: int = _field({"type": "integer"})
    gap_ratio: float = _field({"type": "number"})
    verdict: str = _field({"enum": list(_EXIT_FOR_VERDICT)})
    certified: bool = _field({"type": "boolean"})
    predicted_fixed: int | None = _field({"type": "integer"}, default=None)
    observed_fixed: int | None = _field({"type": "integer"}, default=None)


#: Each case field by its key in the report: the field's name, less the
#: trailing underscore that keeps ``class`` from being a keyword.
_CASE_FIELDS = {f.name.rstrip("_"): f for f in dataclasses.fields(Case)}


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": f"matstrata verify report, version {REPORT_VERSION}",
    "type": "object",
    "required": ["command", "version", "scope", "config", "cases", "summary"],
    "properties": {
        "command": {"const": "verify"},
        "version": {"const": REPORT_VERSION},
        "scope": {"type": "string"},
        "config": {
            "type": "object",
            "required": ["seed", "tolerance", "gap_requirement", "max_n", "max_m"],
            "properties": {
                "seed": {"type": "integer", "minimum": 0, "maximum": factory.KEY_LIMIT - 1},
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
                "required": [k for k, f in _CASE_FIELDS.items() if f.default is not None],
                "properties": {k: f.metadata["schema"] for k, f in _CASE_FIELDS.items()},
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
                "verdict": {"enum": list(_EXIT_FOR_VERDICT)},
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
    max_n: int = 4
    max_m: int = 4
    inject_fault: bool = False

    def __post_init__(self):
        if not 0 <= self.seed < factory.KEY_LIMIT:
            raise UsageError(f"seed must be non-negative and below 2**64, got {self.seed}")
        if not 0 < self.tolerance < MAX_TOLERANCE:
            raise UsageError(f"tolerance out of range (0, {MAX_TOLERANCE:g}): {self.tolerance}")
        if self.max_n < 1 or self.max_m < 1:
            raise UsageError("sweep bounds must be at least 1")
        stack = largest_stack_bytes(self.max_n, self.max_m)
        if stack > MAX_STACK_BYTES:
            raise UsageError(
                f"sweep bounds --max-n {self.max_n} --max-m {self.max_m} need "
                f"{stack / 2**20:.4g} MiB for one profile's image stack and skew "
                f"basis, above the {MAX_STACK_BYTES >> 20} MiB budget"
            )
        if not (math.isfinite(self.gap_requirement) and self.gap_requirement >= 1):
            raise UsageError(
                f"gap requirement must be finite and at least 1: {self.gap_requirement}"
            )


# ---------------------------------------------------------------------------
# profile grammars


def _parse_int_list(spec, offset, text, context):
    """The positive integers of ``text``, the part of ``spec`` at ``offset``."""
    parts = []
    pos = offset
    for token in text.split(","):
        stripped = token.strip()
        if not stripped or not stripped.isdecimal() or int(stripped) < 1:
            raise ProfileSyntaxError(f"expected a positive integer in {context}", spec, pos)
        parts.append(int(stripped))
        pos += len(token) + 1
    return tuple(parts)


def parse_multiplicities(text: str) -> MultiplicityProfile:
    """Comma-separated multiplicities, e.g. ``2,1,1``."""
    parts = _parse_int_list(text, 0, text, "multiplicity list")
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
        part = _parse_int_list(text, pos + len(head) + 1, sizes, "block size list")
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
    if not cross or not left.strip().isdecimal() or not right.strip().isdecimal():
        raise ProfileSyntaxError("expected shape 'NxM'", text, 0)
    n, m = int(left), int(right)
    if not rest.strip():
        return SingularProfile(n, m, ())
    return SingularProfile(n, m, _parse_int_list(text, len(shape) + 1, rest, "multiplicity list"))


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
    skew = class_name == "skew-hermitian"
    payload = {
        "class": class_name,
        "profile": _render_data(data),
        "n": getattr(data, "n", None),
        "field": free.field_kind,
        "ambient_dim": free.ambient_dim,
        "ambient": "skew-Hermitian matrices" if skew else free.ambient_label,
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


def _case_objects(names, scope, columns):
    """The report's case objects of one kind of case, case i named
    ``names[i]`` and read off entry i of its ``Columns``, keys in
    :data:`_CASE_FIELDS` order, a field without a list left out."""
    lists = {k: getattr(columns, f.name, None) for k, f in _CASE_FIELDS.items()}
    lists |= {"case": names, "class": itertools.repeat(scope)}
    lists["gap_ratio"] = map(_capped, columns.gap_ratio)
    lists = {k: v for k, v in lists.items() if v is not None}
    return [dict(zip(lists, row)) for row in zip(*lists.values())]


def _sweep(scope, config):
    """Every profile of the scope within the configured orders, with the stem
    of its case names, in sweep order: by order n, then, for singular, by
    column count m."""
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
    """The case objects of every profile, its oracle and stabiliser cases
    as the oracle decided them, in sweep order.  The whole sweep goes to
    one :func:`verify_profiles` call, which reads it in chunks of one shape
    and decides it at once, each profile keyed by its index in the sweep:
    one ``derive_seed`` call gives every key."""
    profiles, stems = zip(*_sweep(scope, config))
    keys = factory.derive_seed(config.seed, SWEEP_SCOPES.index(scope), np.arange(len(profiles)))
    cls, tol, gap = CLASS_NAMES[scope], config.tolerance, config.gap_requirement
    oracle, stabilizer = verify_profiles(cls, profiles, keys, tol=tol, gap_requirement=gap)
    kind = "qp-pair" if scope == "singular" else "commutant"
    pair = (
        _case_objects([f"{stem} oracle" for stem in stems], scope, oracle),
        _case_objects([f"{stem} {kind}" for stem in stems], scope, stabilizer),
    )
    # Jordan and singular sweeps put the stabiliser case first.
    stabilizer_first = scope in ("jordan", "singular")
    return [case for cases in zip(*pair[:: -1 if stabilizer_first else 1]) for case in cases]


def build_verify_report(scope: str, config: RunConfig) -> dict:
    scopes = SWEEP_SCOPES if scope == "all" else (scope,)
    cases = [case for s in scopes for case in _scope_cases(s, config)]
    if config.inject_fault and cases:
        # Deliberate +1 on one prediction so the FAIL path is testable.
        first = cases[0]
        first["predicted"] += 1
        if first["verdict"] == "PASS":
            first["verdict"], first["certified"] = "FAIL", False
    counts = collections.Counter(case["verdict"] for case in cases)
    failed, inconclusive = counts["FAIL"], counts["INCONCLUSIVE"]
    verdict = "FAIL" if failed else ("INCONCLUSIVE" if inconclusive else "PASS")
    return {
        "command": "verify",
        "version": REPORT_VERSION,
        "scope": scope,
        "config": {
            "seed": config.seed,
            "tolerance": config.tolerance,
            "gap_requirement": config.gap_requirement,
            "max_n": config.max_n,
            "max_m": config.max_m,
        },
        "cases": cases,
        "summary": {
            "total": len(cases),
            "passed": counts["PASS"],
            "failed": failed,
            "inconclusive": inconclusive,
            "verdict": verdict,
        },
    }


def render_verify_text(report: dict) -> str:
    """One line per case, from its JSON object: the verdict and the name in
    padded columns, then ``key=value`` for each other key in order, as JSON
    prints the value but a string bare (a case's numbers are finite, as
    gap ratios are capped).  Then the summary line."""
    lines = []
    for case in report["cases"]:
        rest = " ".join(
            f"{key}={str(value).lower() if isinstance(value, bool) else value}"
            for key, value in case.items()
            if key not in ("verdict", "case")
        )
        lines.append(f"{case['verdict']:<12} {case['case']:<52} {rest}")
    s = report["summary"]
    lines.append(
        f"{s['verdict']}: {s['passed']}/{s['total']} cases passed "
        f"({s['failed']} failed, {s['inconclusive']} inconclusive)"
    )
    return "\n".join(lines)


def render_verify_json(report: dict) -> str:
    """``json.dumps(report, indent=2)``, byte for byte, with the case list
    encoded in one pass of the C encoder, which ``indent`` would turn off.

    Case objects are flat and non-empty, and JSON escapes every newline in
    a string, so ``},\\n      {`` occurs in the encoded list only between
    two cases; one replace gives each case its own indented braces.  The
    list goes where a one-element placeholder list sits in the rest of the
    report."""
    if not report["cases"]:
        return json.dumps(report, indent=2)
    # each key of a case on its own line, at the depth indent=2 gives it
    encoder = json.JSONEncoder(separators=(",\n      ", ": "))
    cases = encoder.encode(report["cases"])[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
    head, tail = json.dumps({**report, "cases": [0]}, indent=2).split('"cases": [\n    0')
    return "".join((head, '"cases": [\n    {\n      ', cases, "\n    }", tail))


# ---------------------------------------------------------------------------
# argument parsing and dispatch


#: What ``matstrata --help`` says above the commands, in plain words.
_DESCRIPTION = (
    "Dimensions of matrix strata with multiple eigenvalues or singular values. "
    "Commands: dim (the dimension and codimension of one stratum), verify "
    "(sweep the closed forms against certified numerical ranks) and table "
    "(the paper's dimension tables). Exit codes: 0 every case passed, 1 a "
    "formula and the numerical rank disagree, 2 a rank was undecided or a case "
    "uncertified, 64 usage error."
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(prog="matstrata", description=_DESCRIPTION)
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


def _run(args) -> tuple[int, str]:
    """The command's exit code and output, both decided before printing."""
    json_format = args.format == "json"
    if args.command == "dim":
        try:
            payload = build_dim_payload(args.matrix_class, args.spec)
        except ValueError as err:  # invariant violations echo the constraint
            raise UsageError(str(err)) from err
        if json_format:
            return EXIT_PASS, json.dumps(payload, indent=2)
        return EXIT_PASS, render_dim_text(payload)

    if args.command == "table":
        try:
            rows, title = build_table_rows(args.which, args)
        except ValueError as err:
            raise UsageError(str(err)) from err
        if json_format:
            return EXIT_PASS, json.dumps(_table_json(rows), indent=2)
        return EXIT_PASS, render_table_text(rows, title)

    config = RunConfig(
        seed=args.seed,
        tolerance=args.tolerance,
        gap_requirement=args.gap,
        max_n=args.max_n,
        max_m=args.max_m,
        inject_fault=args.inject_fault,
    )
    report = build_verify_report(args.scope, config)
    code = _EXIT_FOR_VERDICT[report["summary"]["verdict"]]
    return code, render_verify_json(report) if json_format else render_verify_text(report)


#: glibc's ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _steady_heap() -> None:
    """Fix the C allocator's thresholds for the rest of the process.

    A sweep frees each profile's stacks just before the next profile
    allocates stacks of about the same sizes.  glibc's dynamic thresholds
    trim the heap top after a profile, or move its large blocks to mmap, so
    the next profile faults its pages back in.  Setting both thresholds
    turns that adjustment off: freed memory under 64 MiB stays on the heap
    and blocks under 32 MiB come from it.  :func:`main` calls this once per
    process; library functions never change the allocator.  Skipped where
    the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    _steady_heap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, output = _run(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``| head``) and the verdict stands; the exit flush
        # must not raise again (the SIGPIPE note of the ``signal`` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
