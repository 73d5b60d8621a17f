"""Command-line interface.

Each subcommand reads inline JSON (or ``@path`` to load a file), runs one
library operation, and writes a JSON result plus a short human-readable
summary.  The JSON goes to stdout, or to ``--out`` with the summary then
printed on stdout instead.  Exit statuses: 0 success, 2 parse error,
3 domain precondition violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import cell, iep, perm, reduction
from .eigen import eig_symmetric
from .errors import CellMatrixError, ConvergenceError, DomainError

MAX_ORDER = 200

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4


class _ParseError(Exception):
    pass


def _load_json(text: str):
    raw = text
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                raw = fh.read()
        except (OSError, ValueError) as exc:
            raise _ParseError(f"cannot read {text[1:]!r}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _ParseError(f"invalid JSON {raw!r}: {exc}") from exc
    except RecursionError:
        raise _ParseError("JSON input is nested too deeply") from None


def _numbers(data, what: str, integral: bool = False) -> list:
    """``data`` as a nonempty list of floats, or of ints if ``integral``;
    anything else is a parse error."""
    if not (isinstance(data, list) and data and all(isinstance(v, (int, float)) for v in data)):
        raise _ParseError(f"{what} must be a nonempty JSON list of numbers, got {data!r}")
    try:
        values = [float(v) for v in data]
    except OverflowError:
        raise _ParseError(f"{what} has an integer beyond the float range") from None
    if not integral:
        return values
    if not all(v.is_integer() for v in values):
        raise _ParseError(f"{what} must contain integers, got {data!r}")
    return [int(v) for v in values]


def _parse_vector(text: str) -> cell.PositiveVector:
    data = _load_json(text)
    if isinstance(data, dict):
        x = cell.vector_from_json_dict(data)
    elif isinstance(data, list):
        x = cell.PositiveVector(tuple(_numbers(data, "vector")))
    else:
        raise _ParseError(f"vector input must be a JSON list or {{\"x\": [...]}}, got {data!r}")
    if x.n > MAX_ORDER:
        raise DomainError(f"order {x.n} exceeds the CLI limit of {MAX_ORDER}")
    return x


def _parse_matrix(text: str) -> np.ndarray:
    data = _load_json(text)
    if isinstance(data, dict):
        a = cell.matrix_from_json_dict(data)
    elif isinstance(data, list):
        rows = [_numbers(row, "matrix row") for row in data]
        if not rows or any(len(row) != len(rows) for row in rows):
            raise _ParseError("matrix input must be a square array of rows")
        a = np.array(rows)
    else:
        raise _ParseError(f"matrix input must be rows or {{\"n\": .., \"rows\": ..}}, got {data!r}")
    if a.shape[0] > MAX_ORDER:
        raise DomainError(f"order {a.shape[0]} exceeds the CLI limit of {MAX_ORDER}")
    return a


def _parse_perm(text: str, n: int) -> perm.Permutation:
    data = _load_json(text)
    if isinstance(data, dict):
        return perm.Permutation.from_json_dict(data, n)
    if isinstance(data, list):
        return perm.Permutation.from_one_based(data)
    if isinstance(data, str):
        return perm.Permutation.from_cycles(data, n)
    raise _ParseError(f"permutation input must be a mapping, cycles, or list, got {data!r}")


def _fmt_values(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


# --- command handlers ----------------------------------------------------


def _cmd_construct(args):
    x = _parse_vector(args.vector)
    m = cell.construct_cell_matrix(x)
    payload = cell.matrix_to_json_dict(m)
    summary = [f"cell matrix of order {m.order} from x = ({_fmt_values(x)})"]
    return payload, summary


def _cmd_spectrum(args):
    if (args.vector is None) == (args.matrix is None):
        raise _ParseError("spectrum needs exactly one of --vector or --matrix")
    x = None
    if args.vector is not None:
        x = _parse_vector(args.vector)
        a = cell.construct_cell_matrix(x).entries
    else:
        a = _parse_matrix(args.matrix)
        try:
            x = cell.recognize_cell(a)
        except DomainError:
            x = None
    oracle = eig_symmetric(a)
    payload = {"eigenvalues": list(oracle.values)}
    summary = [f"eigenvalues (desc): {_fmt_values(oracle.values)}"]
    reduced = None
    if x is not None:
        try:
            reduced = reduction.spectrum_via_reduction(x, tol=args.tol)
        except DomainError:
            reduced = None
    if reduced is not None:
        agree = oracle.matches(reduced, args.tol)
        payload["via_reduction"] = list(reduced.values)
        payload["agree"] = bool(agree)
        summary.append(f"reduction route agrees within {args.tol}: {'yes' if agree else 'NO'}")
    else:
        payload["via_reduction"] = None
        payload["agree"] = None
        summary.append("reduction route not applicable (vector not grouped)")
    return payload, summary


def _cmd_reduce(args):
    x = _parse_vector(args.vector)
    result = reduction.reduce_grouped(x)
    payload = result.to_json_dict()
    summary = [
        f"core of order {result.k}; forced blocks: "
        + ", ".join(f"{v!r} x{c}" for v, c in result.known_blocks),
        f"{len(result.ops_applied)} elementary operations recorded",
    ]
    return payload, summary


def _cmd_solve3(args):
    values = _numbers(_load_json(args.spectrum), "--spectrum")
    target = iep.CubicSpectrumTarget.from_multiset(values)
    solution = iep.solve_cubic_iep(target)
    payload = solution.to_json_dict()
    summary = [
        f"x = ({_fmt_values(solution.x)})",
        f"spectrum verified: {_fmt_values(solution.full_spectrum.values)}",
    ]
    return payload, summary


def _solve_grouped_common(args, k_expected=None, want_uniform=False):
    tails = _numbers(_load_json(args.tails), "--tails")
    mults = _numbers(_load_json(args.mult), "--mult", integral=True)
    if len(tails) != len(mults):
        raise _ParseError("--tails and --mult must have the same length")
    if k_expected is not None and len(tails) != k_expected:
        raise _ParseError(f"this solver takes exactly {k_expected} group(s), got {len(tails)}")
    if sum(mults) > MAX_ORDER:
        raise DomainError(f"order {sum(mults)} exceeds the CLI limit of {MAX_ORDER}")
    if want_uniform:
        return iep.solve_uniform(mults[0], -tails[0])
    if k_expected == 2:
        return iep.solve_two_group(tails[0], tails[1], mults[0], mults[1])
    return iep.solve_grouped(iep.GroupedSpec(tuple(tails), tuple(mults)))


def _solution_payload(solution):
    payload = solution.to_json_dict()
    summary = [
        f"x = ({_fmt_values(solution.x)})",
        f"head: {_fmt_values(solution.head_values)}",
        f"spectrum (desc): {_fmt_values(solution.full_spectrum.values)}",
    ]
    return payload, summary


def _cmd_solve_uniform(args):
    return _solution_payload(_solve_grouped_common(args, k_expected=1, want_uniform=True))


def _cmd_solve_2group(args):
    return _solution_payload(_solve_grouped_common(args, k_expected=2))


def _cmd_solve_grouped(args):
    return _solution_payload(_solve_grouped_common(args))


def _cmd_verify_perm(args):
    x = _parse_vector(args.vector)
    pi = _parse_perm(args.perm, x.n)
    report = perm.spectrum_invariance_check(x, pi, tol=args.tol)
    payload = report.to_json_dict()
    summary = [
        f"permutation {pi.cycles_string()} on n = {x.n}: "
        f"{'spectrum preserved' if report.ok else 'INVARIANCE FAILED'} "
        f"({len(report.transpositions)} transposition steps)"
    ]
    return payload, summary


def _cmd_verify_membership(args):
    values = _numbers(_load_json(args.spectrum), "--spectrum")
    tails = _numbers(_load_json(args.tails), "--tails")
    mults = _numbers(_load_json(args.mult), "--mult", integral=True)
    spec = iep.GroupedSpec(tuple(tails), tuple(mults))
    report = iep.verify_membership(values, spec, tol=args.tol)
    payload = report.to_json_dict()
    summary = [
        f"membership: {'accepted' if report.accepted else 'rejected'} ({report.detail})"
    ]
    return payload, summary


def _cmd_detcheck(args):
    x = _parse_vector(args.vector)
    a = cell.construct_cell_matrix(x).entries
    orders = []
    worst = 0.0
    for i in range(1, x.n + 1):
        formula = cell.principal_subdeterminant(x, i)
        pivoted = cell.numeric_determinant(a[:i, :i])
        scale = max(abs(formula), abs(pivoted))
        deviation = abs(formula / scale - pivoted / scale) if scale else 0.0
        worst = max(worst, deviation)
        orders.append(
            {
                "order": i,
                "formula": formula,
                "pivoted": pivoted,
                "agree": bool(deviation <= args.tol),
            }
        )
    ok = all(entry["agree"] for entry in orders)
    payload = {"orders": orders, "max_rel_deviation": worst, "ok": bool(ok)}
    summary = [
        f"determinant formula vs pivoted elimination on {x.n} orders: "
        f"{'OK' if ok else 'MISMATCH'} (max rel deviation {worst!r})"
    ]
    return payload, summary


_HANDLERS = {
    "construct": _cmd_construct,
    "spectrum": _cmd_spectrum,
    "reduce": _cmd_reduce,
    "solve3": _cmd_solve3,
    "solve-uniform": _cmd_solve_uniform,
    "solve-2group": _cmd_solve_2group,
    "solve-grouped": _cmd_solve_grouped,
    "verify-perm": _cmd_verify_perm,
    "verify-membership": _cmd_verify_membership,
    "detcheck": _cmd_detcheck,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellmat",
        description="Construct cell matrices, compute their spectra two ways, "
        "and solve the characterized inverse eigenvalue problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            if flag == "--mult":
                p.add_argument(flag, required=True, help="JSON list of group sizes")
            elif flag in ("--vector", "--matrix", "--spectrum", "--tails", "--perm"):
                required = not (name == "spectrum" and flag in ("--vector", "--matrix"))
                p.add_argument(flag, required=required,
                               help="inline JSON, or @path to a JSON file")
        p.add_argument("--tol", type=float, default=1e-8,
                       help="relative comparison tolerance (default 1e-8)")
        p.add_argument("--out", default=None, help="write the JSON result to this file")
        return p

    add("construct", "build the cell matrix of a positive vector", "--vector")
    add("spectrum", "eigenvalues by the symmetric solver, cross-checked by reduction",
        "--vector", "--matrix")
    add("reduce", "block-triangular reduction of a grouped vector", "--vector")
    add("solve3", "3x3 inverse solver for a zero-sum spectrum", "--spectrum")
    add("solve-uniform", "inverse solver for one repeated eigenvalue", "--tails", "--mult")
    add("solve-2group", "inverse solver for two distinct tail eigenvalues", "--tails", "--mult")
    add("solve-grouped", "inverse solver for k distinct tail eigenvalues", "--tails", "--mult")
    add("verify-perm", "check spectrum invariance under a permutation", "--vector", "--perm")
    add("verify-membership", "check a spectrum against a grouped family", "--spectrum",
        "--tails", "--mult")
    add("detcheck", "compare the determinant formula against pivoted elimination", "--vector")
    return parser


def _emit(payload: dict, summary: list[str], out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for line in summary:
            print(line)
    else:
        sys.stdout.write(text)
        for line in summary:
            print(line, file=sys.stderr)


def _emit_error(kind: str, message: str) -> None:
    sys.stdout.write(json.dumps({"error": {"kind": kind, "message": message}}, indent=2) + "\n")
    print(f"error ({kind}): {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_PARSE
    handler = _HANDLERS[args.command]
    try:
        payload, summary = handler(args)
    except _ParseError as exc:
        _emit_error("parse", str(exc))
        return EXIT_PARSE
    except DomainError as exc:
        _emit_error("domain", str(exc))
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        _emit_error("convergence", str(exc))
        return EXIT_NUMERIC
    except CellMatrixError as exc:
        _emit_error("numeric", str(exc))
        return EXIT_NUMERIC
    _emit(payload, summary, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
