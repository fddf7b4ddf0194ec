"""Deterministic batch interface with JSON input and output.

Every invocation prints one JSON document embedding the tool version, the
seed, and a SHA-256 hash of the inputs from the interpreter's built-in module,
so that a run loads no OpenSSL.  Negative mathematical verdicts are data and
exit 0; malformed input and a closed stdout exit 2; capped or undecided
outcomes exit 3; a failed internal self-check exits 4.  Library results go
into the document as returned: `jsonio` knows how each value looks on the
wire.  One table, `_COMMANDS`, declares every (sub)command, and the parser is
built from it once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Optional

try:  # the interpreter's own SHA-256; `hashlib` would load OpenSSL
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__, jsonio
from .bounds import verify_bounds
from .converge import convergence_report
from .errors import CartanlimError, OutputError, ParseError
from .exactq import parse_rational
from .limits import (
    alpha_conjugacy_class,
    alpha_orbit,
    are_conjugate,
    exceptional_dual_basis,
    orbit_dimension,
)
from .obstruct import flag_tier_profile, flatness_check, has_tier_one_element, tier
from .projgeo import _check_cap, ordered_cross_ratio, projectively_equivalent, unordered_cross_ratio

TOOL = "cartanlim"

EXIT_OK = 0
EXIT_UNRESOLVED = 3


class _Parser(argparse.ArgumentParser):
    """Prints usage to stderr, then raises a ParseError in place of exiting,
    so that flag errors also end in one JSON document; prints help pages
    through `_emit`; and reads a value such as -7/2 or -1e-30 as a value,
    not as an option (as argparse itself does from Python 3.13 on)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        raise SystemExit(_emit(self.format_help().removesuffix("\n"), EXIT_OK))


class _Call:
    """One run of a command: its `flags`, its input files' bytes, its exit code."""

    def __init__(self, args: argparse.Namespace):
        self.flags = {"cap": args.cap, "seed": args.seed, "tolerance": args.tolerance}
        if hasattr(args, "sample_cap"):  # the obstruct subcommands
            self.flags["sample_cap"] = args.sample_cap
        self.raw_inputs: list[bytes] = []
        self.exit_code = EXIT_OK

    def load(self, path: str, reader, *reader_args):
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too many digits, too deep
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
        self.raw_inputs.append(raw)
        return reader(obj, *reader_args)


def _cross_ratio(args, call: _Call):
    def read(obj):  # an over-cap point list is refused before its brackets decide general position
        _check_cap(len(obj["points"]) if isinstance(obj, dict) and isinstance(obj.get("points"), list) else 0, args.cap)
        return jsonio.read_basis(obj)
    basis = call.load(args.basis, read)
    ordered, uc = ordered_cross_ratio(basis), unordered_cross_ratio(basis, cap=args.cap)
    return {"m": basis.m, "n": basis.n, "ordered": ordered, "unordered": uc}


def _conjugacy(args, left, right, witness) -> dict:
    """The result of `equivalent` and `seed-conjugate`."""
    within_cap = left.m <= args.cap
    result = {"conjugate": witness is not None, "witness": witness}
    for key, basis in (("uc_left", left), ("uc_right", right)):
        result[key] = unordered_cross_ratio(basis, cap=args.cap) if within_cap else None
    return result


def _equivalent(args, call: _Call):
    left, right = call.load(args.left, jsonio.read_basis), call.load(args.right, jsonio.read_basis)
    found = projectively_equivalent(left, right)
    return _conjugacy(args, left, right, found.matrix if found is not None else None)


def _seed_conjugate(args, call: _Call):
    seeds = call.load(args.left, jsonio.read_seed), call.load(args.right, jsonio.read_seed)
    witness = are_conjugate(*seeds)
    return _conjugacy(args, *map(exceptional_dual_basis, seeds), witness)


def _orbit_dim(args, call: _Call):
    seed = call.load(args.seed_file, jsonio.read_seed)
    return orbit_dimension(seed, call.load(args.point, jsonio.read_point))


def _alpha_orbit(args, call: _Call):
    try:
        alpha = parse_rational(args.alpha)
    except ValueError as exc:
        raise ParseError(f"bad alpha {args.alpha!r}: {exc}") from exc
    call.flags["alpha"] = alpha
    points = alpha_orbit(alpha)
    affine_values = [p.affine_value() for p in points]
    return {"alpha": alpha, "points": points, "affine_values": affine_values,
            "conjugate_params": alpha_conjugacy_class(alpha)}


def _converge(args, call: _Call):
    seed = call.load(args.seed_file, jsonio.read_seed)
    params = call.load(args.params, jsonio.read_params, seed)
    try:
        schedule = [parse_rational(part.strip()) for part in args.r_schedule.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"bad r schedule {args.r_schedule!r}: {exc}") from exc
    call.flags["r_schedule"] = schedule
    trace = convergence_report(seed, params, schedule, tolerance=args.tolerance)
    return {"r": trace.r_values, "distance": trace.distances, "diag": trace.diag_entries}


def _flat(args, call: _Call):
    return flatness_check(call.load(args.group, jsonio.read_group), cap=args.sample_cap)


def _tier(args, call: _Call):
    return tier(call.load(args.group, jsonio.read_group), seed=args.seed)


def _tier_one(args, call: _Call):
    verdict = has_tier_one_element(call.load(args.family, jsonio.read_family), seed=args.seed)
    if verdict.kind == "Undecided":
        call.exit_code = EXIT_UNRESOLVED
    return {"verdict": verdict.kind, "witness": verdict.witness, "certificate": verdict.certificate}


def _flag(args, call: _Call):
    profile = flag_tier_profile(call.load(args.seed_file, jsonio.read_seed))
    return {"profile": profile, "tier": profile[-1]}


def _bounds(args, call: _Call):
    match = re.fullmatch(r"([+-]?\d+):([+-]?\d+)", args.k_range, re.ASCII)
    if match is None:
        raise ParseError(f"bad k range {args.k_range!r}; expected lo:hi")
    try:
        lo, hi = int(match[1]), int(match[2])
    except ValueError as exc:  # past the interpreter's integer digit limit
        raise ParseError(f"bad k range {args.k_range!r}: {exc}") from exc
    call.flags["k_range"] = f"{lo}:{hi}"
    reports = verify_bounds(lo, hi)
    return {"reports": reports, "all_ok": all(r.ok for r in reports)}


def _ascii(convert):
    """The argparse type `convert`, for ASCII text with no `_` and no surrounding space."""
    def read(text: str):
        if not text.isascii() or "_" in text or text != text.strip():
            raise ValueError(text)
        return convert(text)
    read.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return read


_BASIS, _SEED = "augmented basis JSON file", "seed JSON file"
_SAMPLE_CAP = ("--sample-cap", {"type": _ascii(int), "default": 2000, "help": "certifying-sample cap (default 2000)"})

# (name, help, handler, positional (name, help) pairs, extra option) of each
# (sub)command, in help-page order.  A handler loads the inputs, adds its keys
# to `call.flags` and returns the result; `obstruct` has a table in its place.
# Handlers find library functions in this module's globals when they run, so
# that a function replaced there (as the benchmark's tracer does) is called.
_COMMANDS = (
    ("cross-ratio", "ordered and unordered cross ratio of a configuration", _cross_ratio,
     [("basis", _BASIS)], None),
    ("equivalent", "decide projective equivalence of two configurations", _equivalent,
     [("left", _BASIS), ("right", _BASIS)], None),
    ("seed-conjugate", "decide conjugacy of two seed groups", _seed_conjugate,
     [("left", _SEED), ("right", _SEED)], None),
    ("orbit-dim", "classify a point under the seed group action", _orbit_dim,
     [("seed_file", _SEED), ("point", "point JSON file")], None),
    ("alpha-orbit", "parameters conjugate to a given one-parameter seed", _alpha_orbit,
     [], ("--alpha", {"required": True, "help": "rational parameter, e.g. 3 or -7/2"})),
    ("converge", "trace the diagonal-group degeneration onto a target", _converge,
     [("seed_file", _SEED), ("params", "parameters JSON file")],
     ("--r-schedule", {"default": "10,100,1000",
                       "help": "comma-separated increasing r values (default 10,100,1000)"})),
    ("obstruct", "flatness, tier, and rank-one obstructions", (
        ("flat", "flatness of a polynomial family", _flat, [("group", None)], _SAMPLE_CAP),
        ("tier", "max rank of rho(v) - I over a generic sample", _tier, [("group", None)], _SAMPLE_CAP),
        ("tier-one", "existence of a rank-one direction in a linear block", _tier_one,
         [("family", None)], _SAMPLE_CAP),
        ("flag", "tier profile of the nested coordinate subgroups", _flag, [("seed_file", None)], _SAMPLE_CAP),
    ), [], None),
    ("bounds", "verify the closed-form dimension bounds", _bounds,
     [], ("--k-range", {"required": True, "help": "inclusive range lo:hi, e.g. 7:200"})),
)


def _add_commands(parser: argparse.ArgumentParser, dest: str, commands: tuple) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, help_text, run, files, option in commands:
        p = sub.add_parser(name, help=help_text)
        if isinstance(run, tuple):
            _add_commands(p, "subcommand", run)
            continue
        for file_name, file_help in files:
            p.add_argument(file_name, help=file_help)
        if option is not None:
            p.add_argument(option[0], **option[1])
        p.add_argument("--cap", type=_ascii(int), default=8, help="ordering-enumeration cap (default 8)")
        p.add_argument("--seed", type=_ascii(int), default=0, help="seed for all sampling (default 0)")
        p.add_argument("--tolerance", type=_ascii(float), default=1e-12, help="numeric tolerance (default 1e-12)")
        p.set_defaults(run=run)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=TOOL, description="exact seed-matrix group computations with JSON I/O")
    parser.add_argument("--output", help="also write the document to this path")
    _add_commands(parser, "command", _COMMANDS)
    return parser


def _document(command: Optional[str], seed: Optional[int], **fields) -> dict:
    return {"tool": TOOL, "version": __version__, "command": command, "seed": seed, **fields}


def _error_document(command: Optional[str], seed: Optional[int], exc: CartanlimError) -> dict:
    return _document(command, seed, error={"type": type(exc).__name__, "message": str(exc)})


def _run(args: argparse.Namespace, command: str) -> tuple[dict, int]:
    """Returns the document of the parsed command and its exit code."""
    if not math.isfinite(args.tolerance):
        raise ParseError(f"--tolerance must be finite, got {args.tolerance}")
    for flag in ("tolerance", "cap", "sample_cap"):
        if getattr(args, flag, 0) < 0:
            raise ParseError(f"--{flag.replace('_', '-')} must not be negative, got {getattr(args, flag)}")
    call = _Call(args)
    result = args.run(args, call)
    digest = sha256(jsonio.dumps(call.flags).encode("utf-8"))
    for raw in call.raw_inputs:
        digest.update(b"\x00" + raw)
    document = _document(command, args.seed, flags=call.flags, input_hash=digest.hexdigest(), result=result)
    return document, call.exit_code


def _emit(text: str, exit_code: int) -> int:
    try:
        # Flushed here, or a closed stdout fails only at the exit flush.
        print(text, flush=True)
    except BrokenPipeError:
        # Point stdout at devnull so that the exit flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return OutputError.exit_code
    return exit_code


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except ParseError as exc:
        # The flags did not parse, so neither the command nor the seed is known.
        return _emit(jsonio.dumps(_error_document(None, None, exc)), exc.exit_code)
    except SystemExit as exc:  # --help
        return exc.code
    command = args.command
    if getattr(args, "subcommand", None):
        command = f"{command} {args.subcommand}"
    try:
        document, exit_code = _run(args, command)
    except CartanlimError as exc:
        document, exit_code = _error_document(command, args.seed, exc), exc.exit_code
    text = jsonio.dumps(document)
    if args.output:
        # Written before anything is printed, so a failed write still ends
        # in exactly one document on stdout.
        try:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            error = OutputError(f"cannot write {args.output}: {exc}")
            text = jsonio.dumps(_error_document(command, args.seed, error))
            exit_code = error.exit_code
    return _emit(text, exit_code)


if __name__ == "__main__":
    sys.exit(main())
