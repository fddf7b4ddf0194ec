"""Seeded inputs, operations and correctness checks of the three workloads.

Each workload builds a pool of operations from its seed, as a list of cycles;
a cycle holds each kind of operation of the workload once, so a run of whole
cycles always has the same mix.  The library receives only
the generated inputs; every call goes through a module attribute, so a traced
pass sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable

from cartanlim import cli, exactq, limits, projgeo
from cartanlim.errors import NotAugmentedBasisError
from cartanlim.exactq import QMatrix
from cartanlim.limits import GroupElementParams, SeedMatrix
from cartanlim.projgeo import AugmentedBasis, ProjPoint, ProjTransform

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# (n, m) of the projective pairs: the ROADMAP shapes without (3,7), which
# costs seconds per decision at the seed commit.
PROJECTIVE_SHAPES = ((2, 4), (2, 5), (2, 6), (3, 5), (3, 6))
# (m, n) of the conjugacy seeds.
CONJUGACY_SHAPES = ((5, 3), (6, 3), (7, 3))
MEMBERSHIP_CHECKS = 10


class Op:
    """One operation: `run` calls the library, `check` judges its result, and
    `inputs` holds what the seed generated for it."""

    __slots__ = ("label", "run", "check", "inputs")

    def __init__(self, label: str, run: Callable[[], object], check: Callable[[object], bool], inputs: tuple):
        self.label = label
        self.run = run
        self.check = check
        self.inputs = inputs


# --- cli ------------------------------------------------------------------------


def manifest_cases() -> list[dict]:
    return json.loads((FIXTURES / "manifest.json").read_text(encoding="utf-8"))["cases"]


def _cli_op(case: dict) -> Op:
    argv = [str(FIXTURES / a) if a.endswith(".json") and (FIXTURES / a).exists() else a for a in case["argv"]]
    expected = (case["exit_code"], (FIXTURES / case["expected"]).read_text(encoding="utf-8"))

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return Op(case["name"], run, lambda result: result == expected, tuple(argv))


def build_cli(seed: int) -> list[list[Op]]:
    """One cycle: every manifest case once, in a seeded order."""
    ops = [_cli_op(case) for case in manifest_cases()]
    random.Random(seed).shuffle(ops)
    return [ops]


# --- projective -------------------------------------------------------------------


def _random_point(rng: random.Random, n: int) -> ProjPoint:
    while True:
        coords = [rng.randint(-4, 4) for _ in range(n)]
        if any(coords):
            return ProjPoint(coords)


def _random_basis(rng: random.Random, n: int, m: int) -> AugmentedBasis:
    while True:
        points: list[ProjPoint] = []
        while len(points) < m:
            p = _random_point(rng, n)
            if p not in points:
                points.append(p)
        try:
            return AugmentedBasis(points)
        except NotAugmentedBasisError:
            continue


def _random_invertible(rng: random.Random, n: int) -> QMatrix:
    while True:
        mat = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)])
        if exactq.det(mat) != 0:
            return mat


def _projective_op(rng: random.Random, n: int, m: int, positive: bool) -> Op:
    left = _random_basis(rng, n, m)
    if positive:
        mover = ProjTransform(_random_invertible(rng, n))
        shuffled = list(left.points)
        rng.shuffle(shuffled)
        right = AugmentedBasis(mover(p) for p in shuffled)
    else:
        right = _random_basis(rng, n, m)

    def run():
        witness = projgeo.projectively_equivalent(left, right)
        return witness, projgeo.unordered_cross_ratio(left), projgeo.unordered_cross_ratio(right)

    def check(result) -> bool:
        witness, uc_left, uc_right = result
        if (witness is not None) != (uc_left == uc_right):
            return False
        if witness is None:
            return not positive
        return {witness(p) for p in left.points} == set(right.points)

    return Op(f"{n}x{m}.{'pos' if positive else 'neg'}", run, check, (left, right))


def build_projective(seed: int, cycles: int = 12) -> list[list[Op]]:
    """Cycles of ten pairs: each shape once as a transformed-and-shuffled
    positive pair and once as an independent negative pair."""
    rng = random.Random(seed)
    return [
        [
            _projective_op(rng, *PROJECTIVE_SHAPES[i % len(PROJECTIVE_SHAPES)], positive=i % 2 == 0)
            for i in range(2 * len(PROJECTIVE_SHAPES))
        ]
        for _ in range(cycles)
    ]


# --- conjugacy ----------------------------------------------------------------------


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _random_generic_seed(rng: random.Random, m: int, n: int) -> SeedMatrix:
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        if all(any(row) for row in rows):
            seed = SeedMatrix(rows)
            if seed.generic:
                return seed


def _conjugacy_op(rng: random.Random, m: int, n: int) -> Op:
    while True:
        seed = _random_generic_seed(rng, m, n)
        p = _random_invertible(rng, n)
        moved = limits.conjugate_seed(seed, p)
        if moved.generic:
            break
    params = [
        GroupElementParams.make([_random_fraction(rng) for _ in range(m)], [_random_fraction(rng) for _ in range(n)])
        for _ in range(MEMBERSHIP_CHECKS)
    ]

    def run():
        witness = limits.are_conjugate(seed, moved)
        conjugator = limits.seed_conjugator(seed, p)
        conjugator_inv = exactq.inverse(conjugator)
        members = [
            limits.element_params(moved, conjugator * limits.rho(seed, v) * conjugator_inv) for v in params
        ]
        return witness, members

    def check(result) -> bool:
        witness, members = result
        return witness is not None and all(x is not None for x in members)

    return Op(f"{m}x{n}", run, check, (seed, p, tuple(params)))


def build_conjugacy(seed: int, cycles: int = 20) -> list[list[Op]]:
    """Cycles of one seed round trip per shape."""
    rng = random.Random(seed)
    return [[_conjugacy_op(rng, m, n) for m, n in CONJUGACY_SHAPES] for _ in range(cycles)]


# name -> (builder of the cycles, number of leading cycles in one traced pass)
WORKLOADS = {
    "cli": (build_cli, 1),
    "projective": (build_projective, 1),
    "conjugacy": (build_conjugacy, 2),
}
