"""Command line interface.

Subcommands: witt (ring arithmetic over the integers), zeta, sym, series,
reconstruct, check.  Results go to stdout as a single JSON document;
stderr carries only diagnostics.  Document-valued flags accept inline JSON
or @path to read a file.

Wire formats.  A Witt vector is {"precision": N, "coeffs": ["a1", ..,
"aN"]} with coefficients as decimal strings and the constant term 1 left
implicit; nested Witt vectors nest the same object.  Ghost coordinates
are {"precision": N, "ghost": [..]}, which unghost also reads as the bare
array.  A rational function is {"num": [..], "den": [..]} with ascending
coefficients starting at "1", plus a factored "display" string when the
denominator splits into (1-ct) factors.

Exit codes: 0 success, 1 failed check suite, 2 malformed input, 3
integrality failure (inconsistent counts, non-divisible Newton step), 4
point-counting budget exceeded, 5 precision shortfall.  The environment
variable WITTZETA_ENUM_BUDGET overrides the default point-counting budget.
Integers in these documents carry up to _WIRE_DIGITS digits, past CPython's
int/str limit (which still holds for specs): more exits 2 in, 4 out.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Any, Callable, Sequence

from .checks import CRITERIA, run_checks
from .errors import BudgetError, IntegralityError, PrecisionError, SpecError
from .finitefield import DEFAULT_ENUM_BUDGET
from .rings import ZZ
from .varieties import (
    AffineSpace,
    CountsSpec,
    EllipticCurve,
    EquationsSpec,
    ProductSpec,
    ProjectiveSpace,
    VarietySpec,
)
from .witt import WittVector, frobenius, ghost, ghost_inverse, GhostVector, teichmuller, witt_add, witt_mul, witt_neg
from .zeta import RationalFunction, rational_reconstruct, spec_zeta, sym_zeta, zeta_generating_series


def _read_argument(text: str) -> str:
    """Resolve @path arguments to file contents, pass inline text through."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise SpecError(f"cannot read input file {text[1:]!r}: {exc}") from exc
    return text


_WIRE_DIGITS = 100_000
# the fields of each variety spec type, in the order they are read and missing ones reported
_SPEC_FIELDS = {"affine": ("dim", "q"), "projective": ("dim", "q"), "elliptic": ("p", "a", "b"),
                "product": ("factors",), "counts": ("counts", "q"), "equations": ("vars", "polys", "p")}
_INT_SPECS = {"affine": AffineSpace, "projective": ProjectiveSpace, "elliptic": EllipticCurve}  # of their int fields


def _lifted(convert: Callable[..., Any], *args: Any) -> Any:
    """convert(*args) with CPython's int/str digit limit (3.10.7+) lifted for this call only."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return convert(*args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def _int_to_wire(n: int) -> str:
    """n in decimal, under _emit's digit-limit lift; BudgetError (exit 4, required = its digits) past _WIRE_DIGITS."""
    k = int((abs(n).bit_length() - 1) * math.log10(2)) + 1  # n has the k digits of 2**(bits-1), or k+1
    if k >= _WIRE_DIGITS and (digits := k + (abs(n) >= 10**k)) > _WIRE_DIGITS:
        raise BudgetError(f"an output integer has {digits} digits, the wire carries at most {_WIRE_DIGITS}",
                          required=digits, budget=_WIRE_DIGITS)
    return str(n)


def _int_from_wire(value: Any, what: str) -> int:
    """A JSON integer or decimal string of at most _WIRE_DIGITS digits (under _read_wire's lift), else SpecError."""
    if isinstance(value, str) and len(value) > _WIRE_DIGITS and sum(map(str.isdigit, value)) > _WIRE_DIGITS:
        raise SpecError(f"{what} has more than {_WIRE_DIGITS} digits")
    return _as_int(value, what)


def _read_wire(decode: Callable[[Any], Any], text: str, what: str) -> Any:
    """decode of the wire document text (inline or @path), the digit limit lifted once for all of it."""
    return _lifted(lambda: decode(_parse_json(text, what, wire=True)))


def _parse_json(text: str, what: str, wire: bool = False) -> Any:
    parse_int = (lambda s: _int_from_wire(s, "an integer literal")) if wire else None
    try:
        return json.loads(_read_argument(text), parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecError(f"{what} is nested too deeply to parse") from exc


def _as_int(value: Any, what: str) -> int:
    if isinstance(value, bool):
        raise SpecError(f"{what} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError as exc:
            raise SpecError(f"{what} must be a decimal integer, got {value!r}") from exc
    raise SpecError(f"{what} must be an integer, got {type(value).__name__}")


class _Numerals(list):
    """A JSON array of _int_to_wire strings, which need no escaping: _emit joins it as it is."""


def encode_witt(vector: WittVector) -> dict:
    coeffs: list[Any] = []
    for c in vector.coeffs:
        if isinstance(c, WittVector):
            coeffs.append(encode_witt(c))
        elif isinstance(c, int):
            coeffs.append(_int_to_wire(c))
        else:
            raise SpecError(f"cannot serialize coefficients of type {type(c).__name__}")
    return {"precision": vector.prec, "coeffs": _Numerals(coeffs) if all(isinstance(c, str) for c in coeffs) else coeffs}


def _known_fields(obj: dict, fields: Sequence[str], what: str) -> None:
    """SpecError naming the fields of obj outside fields, the one check of both document decoders."""
    if unknown := set(obj) - set(fields):
        raise SpecError(f"unknown {what} fields: {sorted(unknown)}")


def decode_witt(obj: Any) -> WittVector:
    if not isinstance(obj, dict):
        raise SpecError("a Witt vector document must be a JSON object")
    _known_fields(obj, ("precision", "coeffs"), "Witt vector")
    prec = _as_int(obj.get("precision"), "precision")
    coeffs = obj.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != prec:
        raise SpecError("coeffs must be a list of length precision")
    values = [_int_from_wire(c, "coefficient") for c in coeffs]
    if prec < 1:
        raise SpecError("precision must be at least 1")
    return WittVector.from_coeffs(ZZ, values)


def decode_ghost(obj: Any) -> GhostVector:
    """The document ``witt ghost`` prints, {"precision": N, "ghost": [..]}, or its bare array."""
    if isinstance(obj, dict):
        _known_fields(obj, ("precision", "ghost"), "ghost")
        ghost = obj.get("ghost")
        if not isinstance(ghost, list) or _as_int(obj.get("precision"), "precision") != len(ghost):
            raise SpecError("ghost must be a list of length precision")
        obj = ghost
    if not isinstance(obj, list) or not obj:
        raise SpecError("ghost coordinates must be a nonempty JSON array")
    return GhostVector(ZZ, [_int_from_wire(c, "ghost coordinate") for c in obj])


def encode_ghost(g: GhostVector) -> dict:
    return {"precision": g.prec, "ghost": _Numerals(map(_int_to_wire, g.coords))}


def encode_rational(rf: RationalFunction) -> dict:
    doc = {
        "num": _Numerals(map(_int_to_wire, rf.num.coeffs)),
        "den": _Numerals(map(_int_to_wire, rf.den.coeffs)),
    }
    shown = rf.display()
    if shown is not None:
        doc["display"] = shown
    return doc


def decode_spec(obj: Any) -> VarietySpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise SpecError('a variety spec is a JSON object with a "type" field')
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
        raise SpecError(f"unknown variety type {kind!r}")
    fields = _SPEC_FIELDS[kind]
    _known_fields(obj, ("type", *fields), f"{kind} spec")
    if missing := [f for f in fields if f not in obj]:
        raise SpecError(f"variety spec of type {kind!r} is missing field {missing[0]!r}")
    if kind in _INT_SPECS:
        return _INT_SPECS[kind](*(_as_int(obj[f], f) for f in fields))
    if kind == "product":
        factors = obj["factors"]
        if not isinstance(factors, list):
            raise SpecError("product factors must be a JSON array")
        return ProductSpec(tuple(decode_spec(f) for f in factors))
    if kind == "counts":
        counts = obj["counts"]
        if not isinstance(counts, list):
            raise SpecError("counts must be a JSON array")
        return CountsSpec(_as_int(obj["q"], "q"), tuple(_as_int(c, "count") for c in counts))
    variables = obj["vars"]  # kind == "equations", the last of _SPEC_FIELDS
    polys = obj["polys"]
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise SpecError("vars must be a JSON array of names")
    if not isinstance(polys, list) or not all(isinstance(f, str) for f in polys):
        raise SpecError("polys must be a JSON array of expressions")
    return EquationsSpec.from_strings(_as_int(obj["p"], "p"), variables, polys)


def _emit(encode: Callable[..., dict], *args: Any) -> None:
    """Print the document encode(*args) as json.dumps(doc, sort_keys=True, separators=(",", ":")) does, the digit
    limit lifted once for all of it.  A _Numerals array is joined as it is; every other value goes through json.dumps."""
    def text(doc: Any) -> str:
        if isinstance(doc, dict):
            return "{" + ",".join(f"{json.dumps(k)}:{text(doc[k])}" for k in sorted(doc)) + "}"
        if isinstance(doc, _Numerals):
            return '["' + '","'.join(doc) + '"]' if doc else "[]"
        return f"[{','.join(map(text, doc))}]" if isinstance(doc, list) else json.dumps(doc)
    sys.stdout.write(_lifted(lambda: text(encode(*args))) + "\n")


def _budget() -> int:
    raw = os.environ.get("WITTZETA_ENUM_BUDGET")
    if raw is None:
        return DEFAULT_ENUM_BUDGET
    try:
        value = int(raw, 10)
    except ValueError as exc:
        raise SpecError(f"WITTZETA_ENUM_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise SpecError("WITTZETA_ENUM_BUDGET must be positive")
    return value


def _witt_operands(args: argparse.Namespace) -> list[WittVector]:
    """Teichmueller operands (needing -N) first, then document operands."""
    operands: list[WittVector] = []
    for a in args.teich:
        if args.precision is None:
            raise SpecError("--teich operands need an explicit -N precision")
        if args.precision < 1:
            raise SpecError("precision must be at least 1")
        operands.append(teichmuller(a, args.precision, ZZ))
    for text in args.witt:
        operands.append(_read_wire(decode_witt, text, "Witt vector document"))
    return operands


def cmd_witt(args: argparse.Namespace) -> int:
    """Run one Witt operation; a flag the operation does not read is refused, and -N truncates the output."""
    op = args.op
    if op != "frob" and args.index is not None:
        raise SpecError(f"-n is the Frobenius index of frob; {op} takes none")
    if op != "unghost" and args.ghost is not None:
        raise SpecError(f"--ghost coordinates are read by unghost only, not by {op}")
    if op == "unghost" and (args.teich or args.witt):
        raise SpecError("unghost reads --ghost coordinates only, no --teich or --witt operand")
    operands = _witt_operands(args)  # none for unghost
    if op in ("neg", "ghost", "frob") and len(operands) != 1:
        raise SpecError(f"{op} takes exactly one operand")
    if op == "unghost":
        if args.ghost is None:
            raise SpecError("unghost needs --ghost coordinates")
        result = ghost_inverse(_read_wire(decode_ghost, args.ghost, "ghost coordinates"))
    elif op in ("add", "mul"):
        if len(operands) < 2:
            raise SpecError(f"{op} needs at least two operands")
        result = functools.reduce(witt_add if op == "add" else witt_mul, operands)
    elif op == "neg":
        result = witt_neg(operands[0])
    elif op == "teich":
        if len(args.teich) != 1 or args.witt:
            raise SpecError("teich takes exactly one --teich operand")
        result = operands[0]
    elif op == "frob":
        if args.index is None or args.index < 1:
            raise SpecError("frob needs a positive -n index")
        result = frobenius(operands[0], args.index)
    else:  # ghost, which is triangular: truncating its operand truncates its output
        result = operands[0]
    if args.precision is not None and args.precision < result.prec:
        result = result.truncate(args.precision)
    if op == "ghost":
        _emit(encode_ghost, ghost(result))
    else:
        _emit(encode_witt, result)
    return 0


def _decode_spec_arg(args: argparse.Namespace) -> VarietySpec:
    return decode_spec(_parse_json(args.spec, "variety spec"))


def cmd_zeta(args: argparse.Namespace) -> int:
    _emit(encode_witt, spec_zeta(_decode_spec_arg(args), args.precision, _budget()))
    return 0


def cmd_sym(args: argparse.Namespace) -> int:
    spec = _decode_spec_arg(args)
    _emit(encode_witt, sym_zeta(spec, args.power, args.precision, _budget()))
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    spec = _decode_spec_arg(args)
    _emit(encode_witt, zeta_generating_series(spec, args.outer, args.inner, _budget()))
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    if (args.spec is None) == (args.witt is None):
        raise SpecError("reconstruct needs exactly one of --spec or --witt")
    if args.spec is not None:
        if args.precision is None:
            raise SpecError("reconstruct --spec needs -N for the zeta precision")
        vector = spec_zeta(_decode_spec_arg(args), args.precision, _budget())
    elif args.precision is not None:
        raise SpecError("-N is the zeta precision of --spec; --witt takes none")
    else:
        vector = _read_wire(decode_witt, args.witt, "Witt vector document")
    _emit(encode_rational, rational_reconstruct(vector, args.dmax))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    results = run_checks(None if not args.suites or args.suites == ["all"] else args.suites)
    for entry in results:
        status = "PASS" if entry["passed"] else "FAIL"
        sys.stderr.write(f"{entry['criterion']}: {status} - {entry['detail']}\n")
    passed = all(entry["passed"] for entry in results)
    _emit(lambda: {"passed": passed, "results": results})
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittzeta",
        description="Exact Witt-ring arithmetic and zeta functions of symmetric powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    witt = sub.add_parser("witt", help="Witt-ring arithmetic over the integers")
    witt.add_argument("op", choices=["add", "mul", "neg", "teich", "ghost", "unghost", "frob"])
    witt.add_argument("--teich", action="append", type=int, default=[], metavar="A",
                      help="Teichmueller operand [A]; needs -N (repeatable)")
    witt.add_argument("--witt", action="append", default=[], metavar="DOC",
                      help="Witt vector document, inline JSON or @file (repeatable)")
    witt.add_argument("--ghost", metavar="LIST", help="ghost document or bare array for unghost")
    witt.add_argument("-N", "--precision", type=int,
                      help="precision for --teich operands; truncates the output of every operation")
    witt.add_argument("-n", "--index", type=int, help="Frobenius index for frob")
    witt.set_defaults(handler=cmd_witt)

    zeta = sub.add_parser("zeta", help="zeta function of a variety")
    zeta.add_argument("--spec", required=True, help="variety spec, inline JSON or @file")
    zeta.add_argument("-N", "--precision", type=int, required=True)
    zeta.set_defaults(handler=cmd_zeta)

    sym = sub.add_parser("sym", help="zeta function of a symmetric power")
    sym.add_argument("--spec", required=True, help="variety spec, inline JSON or @file")
    sym.add_argument("-n", "--power", type=int, required=True)
    sym.add_argument("-N", "--precision", type=int, required=True)
    sym.set_defaults(handler=cmd_sym)

    series = sub.add_parser("series", help="generating series of all symmetric-power zetas")
    series.add_argument("--spec", required=True, help="variety spec, inline JSON or @file")
    series.add_argument("-M", "--outer", type=int, required=True, help="outer precision in u")
    series.add_argument("-N", "--inner", type=int, required=True, help="inner precision in t")
    series.set_defaults(handler=cmd_series)

    rec = sub.add_parser("reconstruct", help="rational function from a truncated zeta")
    rec.add_argument("--spec", help="variety spec, inline JSON or @file")
    rec.add_argument("--witt", help="Witt vector document, inline JSON or @file")
    rec.add_argument("-N", "--precision", type=int, help="zeta precision when using --spec")
    rec.add_argument("--dmax", type=int, required=True, help="degree bound for num and den")
    rec.set_defaults(handler=cmd_reconstruct)

    check = sub.add_parser("check", help="run acceptance check suites")
    check.add_argument("suites", nargs="*",
                       help=f"suite names (default all): {', '.join(name for name, _ in CRITERIA)}")
    check.set_defaults(handler=cmd_check)
    return parser


_parser = functools.cache(build_parser)  # built on the first main call, reused after


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except SpecError as exc:
        return _fail(2, "malformed-input", str(exc))
    except IntegralityError as exc:
        return _fail(3, "integrality-failure", str(exc), degree=exc.degree)
    except BudgetError as exc:
        return _fail(4, "budget-exceeded", str(exc), required=exc.required, budget=exc.budget)
    except PrecisionError as exc:
        return _fail(5, "precision-shortfall", str(exc), required=exc.required)
    except (ValueError, OverflowError) as exc:  # OverflowError: a size past the platform's index range
        return _fail(2, "malformed-input", str(exc))


def _fail(code: int, kind: str, message: str, **extra: Any) -> int:
    payload = {"code": kind, "message": message}
    for key, value in extra.items():
        if value is not None:
            payload[key] = value
    sys.stderr.write(json.dumps({"error": payload}, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
