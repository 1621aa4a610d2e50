"""The benchmark's workloads: which CLI calls each one makes, and why.

Every workload is single-process, ``--jobs 1``, alphabet ``-1,0,1``,
rank 2.  ``p11-kernel`` and ``p7-covers`` pass the benchmark seed to
``sweep --seed``; the other two do not depend on the seed.

Each planned optimisation has a workload that exercises it and one that
bypasses it: a support-pair memo shows on ``p3-exhaustive`` (each support
pair recurs about 14.5 times) and must not move ``p11-kernel`` (every pair
distinct); a faster integer kernel shows on ``p11-kernel`` and must not
move ``gallery-exact``; an exact-transform change shows on
``gallery-exact`` only; bounded cover decisions show on ``p7-covers`` and
must not move ``p11-kernel``, which runs no cover check.

Two-worker runs are left out on purpose: ``sweep --jobs 2`` at ``p = 3``
ranged from 2.35 to 3.76 s over four runs on the same VM, too wide to
resolve anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

#: the seed whose outputs expected.json records for every seeded command
DEFAULT_SEED = 0

ALL_CHECKS = ["product", "meshulam", "rational", "kp1", "kp2", "product3",
              "conjecture", "roots", "asym2", "asym3", "coset-counts"]
CHEAP_CHECKS = ["product", "meshulam", "rational", "kp1", "kp2", "product3",
                "coset-counts"]
SPACE = ["--alphabet=-1,0,1", "--rank", "2", "--jobs", "1"]

GALLERY_PRIMES = [5, 7, 11, 13, 17, 19, 23]
GALLERY_FAMILIES = [["diff-of-subgroups"], ["pm-two-cosets"], ["triple-subgroups"],
                    ["character-coset"], ["sharp2d", "--m", "2", "--n", "3"]]


@dataclass(frozen=True)
class Command:
    """One CLI call: its id within the workload and its argv."""

    id: str
    argv: List[str]
    #: candidates the call decodes (the whole space, zero function included)
    candidates: int
    #: True when the output depends on the benchmark seed
    seeded: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    #: span expected to have the largest self time in the traced run
    top_span: str
    #: True: one process calls cli.main in a loop; False: one process per call
    in_process: bool
    commands: Callable[[int], List[Command]]


def _theorems(ids: List[str]) -> List[str]:
    return [arg for check in ids for arg in ("--theorem", check)]


def _p3_exhaustive(seed: int) -> List[Command]:
    space = ["--p", "3", "--mode", "exhaustive"] + SPACE
    n = 3 ** 9
    return [
        Command("sweep", ["sweep"] + space + _theorems(ALL_CHECKS)
                + ["--k", "2", "--epsilon", "1/2"], n),
        Command("hunt", ["hunt"] + space + ["--theorem", "roots"], n),
        Command("frontier", ["frontier"] + space + ["--format", "json"], n),
    ]


def _p11_kernel(seed: int) -> List[Command]:
    budget = 4000
    return [Command("sweep", ["sweep", "--p", "11", "--mode", "random", "--seed", str(seed),
                              "--budget", str(budget)] + SPACE + _theorems(CHEAP_CHECKS),
                    budget, seeded=True)]


def _gallery_exact(seed: int) -> List[Command]:
    calls = []
    for p in GALLERY_PRIMES:
        for family in GALLERY_FAMILIES:
            for sub in ("verify", "classify"):
                argv = [sub, "--family", family[0], "--p", str(p)] + family[1:]
                calls.append(Command(f"{sub}:{family[0]}:p{p}", argv, 0))
    return calls


def _p7_covers(seed: int) -> List[Command]:
    # the cost of a cover search grows exponentially with the support, so the
    # sweep's time depends on which candidates a seed draws: 200 candidates
    # spread 0.13 of the median over five seeds on a 2-core shared VM, 500 spread 0.05
    budget = 400
    return [
        Command("sweep", ["sweep", "--p", "7", "--mode", "random", "--seed", str(seed),
                          "--budget", str(budget)] + SPACE
                + _theorems(["conjecture", "roots", "asym3"]) + ["--k", "2", "--epsilon", "1/2"],
                budget, seeded=True),
        Command("blocking-min", ["geometry", "--query", "blocking-min", "--p", "5"], 0),
    ]


WORKLOADS = {w.name: w for w in [
    Workload(
        "p3-exhaustive",
        "full p=3 space through sweep (all 11 checks), hunt and frontier; 1,357 distinct "
        "support pairs among 19,682 nonzero candidates, so a support-pair memo shows here",
        stresses="bounds (evaluate), then the three search candidate loops",
        bypasses="the exact CycNum transform (integer route only)",
        top_span="bounds.evaluate.*",
        in_process=False,
        commands=_p3_exhaustive,
    ),
    Workload(
        "p11-kernel",
        "seeded 4,000-candidate p=11 sweep with the cheap checks; the integer support kernel "
        "dominates and every support pair is distinct, so a memo must not move it",
        stresses="fourier (int_support_masks)",
        bypasses="plane cover searches and the exact CycNum transform",
        top_span="fourier.int_support_masks",
        in_process=False,
        commands=_p11_kernel,
    ),
    Workload(
        "gallery-exact",
        "verify and classify on 5 gallery families at p=5..23, 70 calls to cli.main in one "
        "process; the only workload where the exact CycNum transform is hot",
        stresses="fourier (fourier_transform) and cyclotomic",
        bypasses="the integer support kernel and the search candidate loops",
        top_span="fourier.fourier_transform",
        in_process=True,
        commands=_gallery_exact,
    ),
    Workload(
        "p7-covers",
        "seeded 400-candidate p=7 sweep with conjecture/roots/asym3 plus blocking-min at p=5; "
        "the exponential plane searches dominate, so bounded cover decisions show here",
        stresses="plane (min_line_cover, min_blocking_size)",
        bypasses="the exact CycNum transform",
        top_span="plane.min_line_cover",
        in_process=False,
        commands=_p7_covers,
    ),
]}
