"""Job lists of the three workloads, built from a seed.

A job is one call into nuframes.  ``run`` is what the benchmark times;
``collect`` turns its result into the output the checks read and runs
outside the timed region; ``check`` compares that output with the oracles.
Every job of a workload has the same cost from seed to seed: the seed picks
signal endpoints, level windows, custom setups and the order of jobs, never
the number or the kind of jobs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

import nuframes
from nuframes import analysis, cli

import oracles
from oracles import Signal

# catalog(), transcribed: the program's catalog()[i] must be CATALOG[i].
CATALOG = [
    Signal("bump", F(1, 64), F(1, 16)),
    Signal("bump", F(9, 64), F(31, 64)),
    Signal("ind", F(1, 8), F(1, 2)),
    Signal("bump", F(1, 4), F(2)),
]

DIRECT_LOG2 = 17
DIRECT_M = 2048


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    collect: Callable[[object], object] = lambda result: result


@dataclass
class Workload:
    jobs: list
    round_size: int  # jobs per round; a run attempts whole rounds

    def round(self, r: int) -> list:
        start = (r * self.round_size) % len(self.jobs)
        return self.jobs[start:start + self.round_size]

    def warm_jobs(self) -> list:
        """The first job of each kind."""
        seen = {}
        for job in self.jobs:
            seen.setdefault(job.kind, job)
        return list(seen.values())


def _dyadic_interval(rng: random.Random) -> tuple[F, F]:
    """(p/64, q/64) inside (0, 1/2], width 4/64 to 8/64."""
    p = rng.randint(1, 24)
    return F(p, 64), F(p + rng.randint(4, 8), 64)


def _program_signal(sig: Signal):
    if sig.kind == "ind":
        return nuframes.indicator_signal(sig.a, sig.b)
    return nuframes.hann_bump(sig.a, sig.b)


# ---------------------------------------------------------------------------
# identity-route: parseval_report(route="parseval") at the default 2^20 grid


def _report_job(kind, sig, spec, setup, preset, j_min, j_max, full_window):
    return Job(
        kind=kind,
        label=f"{preset} {sig.spec} j={j_min}..{j_max}",
        run=lambda: analysis.parseval_report(spec, setup, j_min, j_max),
        collect=lambda rep: rep.to_dict(),
        check=lambda d: oracles.check_frame_report(d, sig, preset, j_min, j_max,
                                                   full_window),
    )


def identity_route(seed: int, workdir: str) -> Workload:
    """Nine reports in three kinds of three, so the median job sits in the
    middle kind rather than on the edge between two."""
    rng = random.Random(seed)
    ex51, ex52 = nuframes.preset("ex5.1"), nuframes.preset("ex5.2")
    catalog = nuframes.catalog()
    if [s.label for s in catalog] != [s.spec for s in CATALOG]:
        raise RuntimeError(f"catalog() is {[s.label for s in catalog]}, the "
                           f"oracles know {[s.spec for s in CATALOG]}")

    def seeded(kind):
        sig = Signal(kind, *_dyadic_interval(rng))
        return sig, _program_signal(sig)

    cat = list(zip(CATALOG, catalog))
    jobs = []
    # ex5.1 at level 0: three generators, each a 2^20 integral.
    for sig, spec in (cat[0], cat[1], seeded("bump")):
        jobs.append(_report_job("ex5.1-one-level", sig, spec, ex51, "ex5.1",
                                0, 0, False))
    # ex5.2 over two levels.  j_max >= 0 (>= 1 for bump(1/4,2)) keeps each
    # signal inside the window's coverage, so no job pays for a tail norm.
    windows = [(cat[3], 0)]
    windows += [(seeded("bump"), rng.choice((-1, 0))) for _ in range(2)]
    for (sig, spec), j0 in windows:
        jobs.append(_report_job("ex5.2-two-levels", sig, spec, ex52, "ex5.2",
                                j0, j0 + 1, False))
    # ex5.2 over the full window -4..4 on indicators: the ratio must be 1.0.
    for sig, spec in (cat[2], seeded("ind"), seeded("ind")):
        jobs.append(_report_job("ex5.2-full-window", sig, spec, ex52, "ex5.2",
                                -4, 4, True))
    rng.shuffle(jobs)
    return Workload(jobs, round_size=len(jobs))


# ---------------------------------------------------------------------------
# direct-route: the 48 cases of acceptance criterion 3


def direct_route(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    grid = nuframes.FrequencyGrid(F(0), F(1, 2), DIRECT_LOG2)
    cases = []
    for sig in (CATALOG[1], CATALOG[2]):
        spec = _program_signal(sig)
        for preset in ("ex5.1", "ex5.2"):
            setup = nuframes.preset(preset)
            for ell in range(1, setup.n + 1):
                gen = nuframes.derive_generator(setup, ell)
                for j in range(-1, 5):
                    cases.append((sig, spec, preset, setup, ell, gen, j))
    assert len(cases) == 48
    rng.shuffle(cases)
    jobs = []
    for sig, spec, preset, setup, ell, gen, j in cases:
        jobs.append(Job(
            kind="direct",
            label=f"direct {sig.spec} {preset} psi_{ell} j={j}",
            run=lambda spec=spec, gen=gen, setup=setup, j=j:
                analysis.lattice_sum_direct_detail(
                    spec.fhat, gen, setup.ts, j, DIRECT_M, grid),
            collect=dataclasses.asdict,
            check=lambda d, sig=sig, preset=preset, ell=ell, j=j:
                oracles.check_direct(d, sig, preset, ell, j, DIRECT_LOG2),
        ))
    return Workload(jobs, round_size=1)


# ---------------------------------------------------------------------------
# cli-checks: in-process nuframes.cli.main writing --out reports


def _dyadic_setup(rng: random.Random, weighted: bool) -> dict:
    """Indicator setup, exact on every dyadic grid: N a power of two and H₀
    the refinement cut at 1/(8N²).  With θ ≡ 1 the bank is H₀, 1 − H₀;
    without θ the complement is split in two at 1/4 or 3/8."""
    N = rng.choice((1, 2, 4, 8))
    r = rng.choice([r for r in range(1, 2 * N, 2) if math.gcd(r, N) == 1])
    cut = F(1, 8 * N * N)
    d = {"N": N, "r": r, "psi0_hat": f"chi[0,{F(1, 4 * N)}]"}
    if weighted:
        d["filters"] = [f"chi[0,{cut}]", f"1 - chi[0,{cut}]"]
        d["theta"] = "1"
    else:
        split = rng.choice((F(1, 4), F(3, 8)))
        d["filters"] = [f"chi[0,{cut}]", f"chi({cut},{split}]",
                        f"1 - chi[0,{split}]"]
    return d


def _cli_job(kind, argv, out, check):
    seen = []

    def check_bytes(result):
        code, data = result
        if code != 0:
            return [f"{kind}: exit status {code}"]
        seen.append(data)
        if data != seen[0]:
            return [f"{kind}: report differs from the first run of the command"]
        return check(json.loads(data))

    def collect(code):
        if code != 0:
            return code, None
        with open(out, "rb") as fh:
            return code, fh.read()

    return Job(kind=kind, label=" ".join(argv), run=lambda: cli.main(argv),
               collect=collect, check=check_bytes)


def cli_checks(seed: int, workdir: str) -> Workload:
    """Nine commands: three cheap (about 0.13 s), three validate runs of the
    same cost (about 0.23 s) and three dear ones, so the median job sits in
    the middle group."""
    rng = random.Random(seed)
    jobs = []

    def add(kind, argv, check):
        out = os.path.join(workdir, f"{kind}.json")
        jobs.append(_cli_job(kind, argv + ["--out", out], out, check))

    def setup_file(name, weighted):
        path = os.path.join(workdir, f"setup-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_dyadic_setup(rng, weighted), fh)
        return ["--setup", path]

    plain = setup_file("plain", False)
    theta_a, theta_b = setup_file("theta-a", True), setup_file("theta-b", True)
    validate = oracles.check_validate_report
    add("validate-ex5.1", ["validate", "--preset", "ex5.1"],
        lambda d: validate(d, dyadic=False, weighted=False))
    add("validate-ex5.2", ["validate", "--preset", "ex5.2"],
        lambda d: validate(d, dyadic=True, weighted=True))
    add("validate-plain", ["validate", *plain],
        lambda d: validate(d, dyadic=True, weighted=False))
    add("validate-theta-a", ["validate", *theta_a],
        lambda d: validate(d, dyadic=True, weighted=True))
    add("validate-theta-b", ["validate", *theta_b],
        lambda d: validate(d, dyadic=True, weighted=True))
    add("oep-ex5.2", ["oep", "--preset", "ex5.2"], oracles.check_oep_report)
    add("oep-theta-a", ["oep", *theta_a], oracles.check_oep_report)

    ind = Signal("ind", *_dyadic_interval(rng))
    add("levels-ex5.2", ["levels", "--preset", "ex5.2", "--signal", ind.spec,
                         "--j=-4..4"],
        lambda d: oracles.check_levels_report(d, ind, "ex5.2", -4, 4))
    bump = Signal("bump", *_dyadic_interval(rng))
    j0 = rng.choice((0, 1))
    add("telescope-ex5.1", ["telescope", "--preset", "ex5.1", "--signal", bump.spec,
                            f"--j={j0}..{j0 + 1}"],
        lambda d: oracles.check_telescope_report(d, bump, j0, j0 + 1))
    rng.shuffle(jobs)
    return Workload(jobs, round_size=len(jobs))


WORKLOADS = {
    "identity-route": identity_route,
    "direct-route": direct_route,
    "cli-checks": cli_checks,
}
