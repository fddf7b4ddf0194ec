"""Deterministic batch interface with JSON input and output.

Every invocation prints one JSON document embedding the tool version, the
seed, and a hash of the inputs.  Negative mathematical verdicts are data and
exit 0; malformed input exits 2; capped or undecided outcomes exit 3; a
failed internal self-check exits 4.  Library results go into the document as
returned: `jsonio` knows how each value looks on the wire.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

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
from .projgeo import ordered_cross_ratio, projectively_equivalent, unordered_cross_ratio

TOOL = "cartanlim"

EXIT_OK = 0
EXIT_UNRESOLVED = 3


class _Parser(argparse.ArgumentParser):
    """Prints usage to stderr, then raises a ParseError in place of exiting,
    so that flag errors also end in one JSON document."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=TOOL, description="exact seed-matrix group computations with JSON I/O"
    )
    parser.add_argument("--output", help="also write the document to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cap", type=int, default=8, help="ordering-enumeration cap (default 8)")
        p.add_argument("--seed", type=int, default=0, help="seed for all sampling (default 0)")
        p.add_argument("--tolerance", type=float, default=1e-12, help="numeric tolerance (default 1e-12)")

    p = sub.add_parser("cross-ratio", help="ordered and unordered cross ratio of a configuration")
    p.add_argument("basis", help="augmented basis JSON file")
    common(p)

    p = sub.add_parser("equivalent", help="decide projective equivalence of two configurations")
    p.add_argument("left", help="augmented basis JSON file")
    p.add_argument("right", help="augmented basis JSON file")
    common(p)

    p = sub.add_parser("seed-conjugate", help="decide conjugacy of two seed groups")
    p.add_argument("left", help="seed JSON file")
    p.add_argument("right", help="seed JSON file")
    common(p)

    p = sub.add_parser("orbit-dim", help="classify a point under the seed group action")
    p.add_argument("seed_file", help="seed JSON file")
    p.add_argument("point", help="point JSON file")
    common(p)

    p = sub.add_parser("alpha-orbit", help="parameters conjugate to a given one-parameter seed")
    p.add_argument("--alpha", required=True, help="rational parameter, e.g. 3 or -7/2")
    common(p)

    p = sub.add_parser("converge", help="trace the diagonal-group degeneration onto a target")
    p.add_argument("seed_file", help="seed JSON file")
    p.add_argument("params", help="parameters JSON file")
    p.add_argument(
        "--r-schedule",
        default="10,100,1000",
        help="comma-separated increasing r values (default 10,100,1000)",
    )
    common(p)

    p = sub.add_parser("obstruct", help="flatness, tier, and rank-one obstructions")
    ob = p.add_subparsers(dest="subcommand", required=True)
    for name, arg, desc in (
        ("flat", "group", "flatness of a polynomial family"),
        ("tier", "group", "max rank of rho(v) - I over a generic sample"),
        ("tier-one", "family", "existence of a rank-one direction in a linear block"),
        ("flag", "seed_file", "tier profile of the nested coordinate subgroups"),
    ):
        q = ob.add_parser(name, help=desc)
        q.add_argument(arg)
        q.add_argument("--sample-cap", type=int, default=2000, help="certifying-sample cap (default 2000)")
        common(q)

    p = sub.add_parser("bounds", help="verify the closed-form dimension bounds")
    p.add_argument("--k-range", required=True, help="inclusive range lo:hi, e.g. 7:200")
    common(p)

    return parser


def _load_json(path: str) -> tuple[object, bytes]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), raw
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _parse_schedule(text: str) -> list[Fraction]:
    try:
        return [parse_rational(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"bad r schedule {text!r}: {exc}") from exc


def _parse_k_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"bad k range {text!r}; expected lo:hi")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad k range {text!r}: {exc}") from exc
    return lo, hi


def _run(args: argparse.Namespace) -> tuple[dict, object, list[bytes], int]:
    """Returns (flags document, result value, input file bytes, exit code)."""
    if not math.isfinite(args.tolerance):
        raise ParseError(f"--tolerance must be finite, got {args.tolerance}")
    flags = {"cap": args.cap, "seed": args.seed, "tolerance": args.tolerance}
    exit_code = EXIT_OK
    raw_inputs: list[bytes] = []

    def load(path: str, reader, *reader_args):
        obj, raw = _load_json(path)
        raw_inputs.append(raw)
        return reader(obj, *reader_args) if reader_args else reader(obj)

    if args.command == "cross-ratio":
        basis = load(args.basis, jsonio.read_basis)
        ordered = ordered_cross_ratio(basis)
        uc = unordered_cross_ratio(basis, cap=args.cap)
        result = {"m": basis.m, "n": basis.n, "ordered": ordered, "unordered": uc}
    elif args.command in ("equivalent", "seed-conjugate"):
        if args.command == "equivalent":
            left = load(args.left, jsonio.read_basis)
            right = load(args.right, jsonio.read_basis)
            found = projectively_equivalent(left, right)
            witness = found.matrix if found is not None else None
        else:
            seeds = load(args.left, jsonio.read_seed), load(args.right, jsonio.read_seed)
            witness = are_conjugate(*seeds)
            left, right = (exceptional_dual_basis(s) for s in seeds)
        within_cap = left.m <= args.cap
        result = {"conjugate": witness is not None, "witness": witness}
        for key, basis in (("uc_left", left), ("uc_right", right)):
            result[key] = unordered_cross_ratio(basis, cap=args.cap) if within_cap else None
    elif args.command == "orbit-dim":
        seed = load(args.seed_file, jsonio.read_seed)
        point = load(args.point, jsonio.read_point)
        result = orbit_dimension(seed, point)
    elif args.command == "alpha-orbit":
        try:
            alpha = parse_rational(args.alpha)
        except ValueError as exc:
            raise ParseError(f"bad alpha {args.alpha!r}: {exc}") from exc
        flags["alpha"] = alpha
        points = alpha_orbit(alpha)
        result = {
            "alpha": alpha,
            "points": points,
            "affine_values": [p.affine_value() for p in points],
            "conjugate_params": alpha_conjugacy_class(alpha),
        }
    elif args.command == "converge":
        seed = load(args.seed_file, jsonio.read_seed)
        params = load(args.params, jsonio.read_params, seed)
        schedule = _parse_schedule(args.r_schedule)
        flags["r_schedule"] = schedule
        trace = convergence_report(seed, params, schedule, tolerance=args.tolerance)
        result = {"r": trace.r_values, "distance": trace.distances, "diag": trace.diag_entries}
    elif args.command == "obstruct":
        flags["sample_cap"] = args.sample_cap
        if args.subcommand == "flat":
            group = load(args.group, jsonio.read_group)
            result = flatness_check(group, cap=args.sample_cap)
        elif args.subcommand == "tier":
            group = load(args.group, jsonio.read_group)
            result = tier(group, seed=args.seed)
        elif args.subcommand == "tier-one":
            family = load(args.family, jsonio.read_family)
            verdict = has_tier_one_element(family, seed=args.seed)
            result = {
                "verdict": verdict.kind,
                "witness": verdict.witness,
                "certificate": verdict.certificate,
            }
            if verdict.kind == "Undecided":
                exit_code = EXIT_UNRESOLVED
        else:
            seed = load(args.seed_file, jsonio.read_seed)
            profile = flag_tier_profile(seed, seed=args.seed)
            result = {"profile": profile, "tier": profile[-1]}
    elif args.command == "bounds":
        lo, hi = _parse_k_range(args.k_range)
        flags["k_range"] = f"{lo}:{hi}"
        reports = verify_bounds(lo, hi)
        result = {"reports": reports, "all_ok": all(r.ok for r in reports)}
    else:  # pragma: no cover - argparse enforces the choices
        raise ParseError(f"unknown command {args.command!r}")
    return flags, result, raw_inputs, exit_code


def _input_hash(flags: dict, raw_inputs: list[bytes]) -> str:
    digest = hashlib.sha256()
    digest.update(jsonio.dumps(flags).encode("utf-8"))
    for raw in raw_inputs:
        digest.update(b"\x00")
        digest.update(raw)
    return digest.hexdigest()


def _error_document(command: Optional[str], seed: Optional[int], exc: CartanlimError) -> dict:
    return {
        "tool": TOOL,
        "version": __version__,
        "command": command,
        "seed": seed,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ParseError as exc:
        # The flags did not parse, so neither the command nor the seed is known.
        print(jsonio.dumps(_error_document(None, None, exc)))
        return exc.exit_code
    except SystemExit:  # --help
        return EXIT_OK
    command = args.command
    if getattr(args, "subcommand", None):
        command = f"{command} {args.subcommand}"
    try:
        flags, result, raw_inputs, exit_code = _run(args)
        document = {
            "tool": TOOL,
            "version": __version__,
            "command": command,
            "seed": flags["seed"],
            "flags": flags,
            "input_hash": _input_hash(flags, raw_inputs),
            "result": result,
        }
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
    print(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
