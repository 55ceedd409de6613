"""Seeded input generation for the three workloads.

Everything the library later receives is produced here as plain JSON data
(weight lists, ray/cone/coefficient lists, argv lists and files), so a
worker process starts from inputs alone.  The same seed always gives the
same inputs.  Fans for `mmp_driver` and `cli_session` are generated with the
library itself (star subdivisions pulling a nef divisor back), in the
parent process, before any timed worker starts.
"""

from __future__ import annotations

import json
import os
import random
from itertools import combinations_with_replacement
from math import gcd

from toricapprox.divisor import TorusDivisor, is_nef, support_function
from toricapprox.fan import (
    build_fan,
    projective_space_fan,
    star_subdivision,
    wps_fan,
)
from toricapprox.lattice import primitive_part
from toricapprox.report import divisor_to_doc, fan_to_doc

from ops import orbit_cones

# wps_sweep: the population of acceptance criterion 2
# (tests/test_acceptance.py), every well-formed weight vector of length 3
# with sum <= 40 (568 vectors) and of length 4 with sum <= 18 (162), each
# once, plus rank-4 vectors, which criterion 2 leaves out and ROADMAP item 5
# sets a per-vector target for: length 5, drawn from the sum <= 18 cap that
# criterion 2 puts on its highest rank.  The rank-4 vectors make up 10% of
# the stream, so that p95 lies in the middle of the rank-4 ops rather than
# on the boundary between ranks.  Criterion 2's one length-2 vector (P^1)
# is left out.
WPS_STRATA = ((3, 40), (4, 18))
WPS_RANK4_MAX_SUM = 18
WPS_RANK4_SHARE = 0.10

# mmp_driver: the test suite's random_fan_suite recipe with the base fan
# and the number of subdivisions taken round-robin instead of drawn, plus
# the francia threefold (flips) and the two golden driver cases.  Op
# latency is set mostly by the recipe (base fan and number of
# subdivisions), so the triples are interleaved in two levels: the fans of
# one recipe in proportion to their orbit counts, then the recipes (and the
# francia fan) in proportion to theirs.  Every prefix of the stream then has
# the same mix of recipes, whatever the seed and however many ops a run
# reaches.  225 fans make 15 of each recipe: p95 lies among the ops of the
# heaviest recipe (P^3 with three subdivisions), so it varies with the seed
# as the mean of those fans does.
MMP_SUITE_FANS = 225
# The francia fan with its divisor times 1, 2 and 3: 63 triples, about 2%
# of the stream, so that a run meets a few flips (18 of every 21 flip).
MMP_FRANCIA_MULTIPLES = (1, 2, 3)
MMP_GOLDEN_EVERY = 25

# cli_session: a small pool of 40 fan/divisor file pairs, each hit by many
# requests: four copies of one mix of six suite fans by base index (two
# subdivisions each), one weighted projective plane, two threefolds and one
# invalid fan (10% of the pool).  Requests visit every fan once per round,
# and each fan cycles through its verbs.  The make-up sets the latency
# classes: about 40% light requests (< 10 ms), 40% medium, and
# `mmp-run`/`theorem-run` on the P^3 fans as the heaviest 10%, so p50 and
# p95 each fall inside a class, not on a gap.  The heavy class holds eight
# seeded P^3 fans, so that its latency, and with it p95, varies less with
# the seed than one fan's.
CLI_SUITE_BASES = (0, 1, 1, 2, 3, 4) * 4
CLI_SUITE_STEPS = 2
CLI_WPS_LENGTHS = (3, 4, 4) * 4
CLI_INVALID = 4
CLI_STREAM_LEN = 6000
CLI_CASESTUDY_AT = 50

FRANCIA = (
    3,
    [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 0, -1), (-3, -2, 0)],
    [(0, 2, 3), (1, 2, 3), (4, 1, 2), (4, 1, 3), (4, 0, 3), (4, 0, 2)],
    [2, 4, 3, 3, 6],
)
F1 = (2, [(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
P4713_CONTEXT = {
    "k_is_Q": True,
    "quadratics": [{"d": -3, "in_k": False, "in_kv": True}],
}


def well_formed(q) -> bool:
    """Positive, coprime, and every subset missing one entry coprime."""
    for i in range(-1, len(q)):
        rest = q if i < 0 else q[:i] + q[i + 1:]
        g = 0
        for x in rest:
            g = gcd(g, x)
        if g != 1:
            return False
    return True


def weight_vectors(length: int, max_sum: int) -> list:
    """Sorted well-formed weight vectors of a length, up to a weight sum."""
    return [
        list(q)
        for q in combinations_with_replacement(range(1, max_sum + 1), length)
        if sum(q) <= max_sum and well_formed(q)
    ]


def wps_stream(seed: int) -> list:
    """Every criterion-2 vector of ranks 2 and 3 once, and a seeded sample of
    rank-4 vectors, each stratum in seeded order, interleaved so that every
    prefix of the stream holds the strata in proportion."""
    rng = random.Random(seed)
    groups = []
    for length, max_sum in WPS_STRATA:
        group = weight_vectors(length, max_sum)
        rng.shuffle(group)
        groups.append(group)
    lower = sum(len(g) for g in groups)
    rank4 = round(lower * WPS_RANK4_SHARE / (1 - WPS_RANK4_SHARE))
    groups.append(rng.sample(weight_vectors(5, WPS_RANK4_MAX_SUM), rank4))
    return _interleave(groups)


def _bases() -> list:
    return [
        (projective_space_fan(2), TorusDivisor.of([1, 0, 0])),
        (projective_space_fan(3), TorusDivisor.of([2, 0, 0, 0])),
        (wps_fan((1, 1, 2)), TorusDivisor.of([2, 0, 0])),
        (wps_fan((1, 2, 3)), TorusDivisor.of([6, 0, 0])),
        (
            build_fan(2, [(1, 0), (1, 3), (-2, -3)], [(0, 1), (0, 2), (1, 2)]),
            TorusDivisor.of([3, 0, 0]),
        ),
    ]


def subdivided(rng, base, steps: int):
    """Star-subdivide (fan, nef divisor) at interior points of random maximal
    cones, pulling the divisor back exactly (the random_fan_suite step)."""
    fan, d = base
    for _ in range(steps):
        cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
        weights = [rng.choice([1, 1, 2]) for _ in cone]
        center = primitive_part(tuple(
            sum(w * fan.rays[i][r] for w, i in zip(weights, cone))
            for r in range(fan.rank)
        ))
        if center in fan.rays:
            continue
        value = support_function(fan, d)(center)
        fan, _ = star_subdivision(fan, center)
        d = TorusDivisor(d.coeffs + (value,))
        if not is_nef(fan, d):
            raise RuntimeError("pulled-back divisor is not nef")
    return fan, d


def _interleave(groups: list) -> list:
    """Merge lists so that every prefix holds each in proportion to size."""
    total = sum(len(g) for g in groups)
    out, taken = [], [0] * len(groups)
    for k in range(total):
        # The list furthest behind its share of the first k+1 items.
        j = max(range(len(groups)),
                key=lambda j: (k + 1) * len(groups[j]) / total - taken[j])
        out.append(groups[j][taken[j]])
        taken[j] += 1
    return out


def mmp_stream(seed: int) -> list:
    """(fan, nef divisor, orbit cone) triples, goldens mixed in."""
    rng = random.Random(seed)
    bases = _bases()
    pairs = [
        subdivided(rng, bases[k % len(bases)], k // len(bases) % 3 + 1)
        for k in range(MMP_SUITE_FANS)
    ]
    rank, rays, cones, coeffs = FRANCIA
    francia = build_fan(rank, rays, cones)
    pairs += [(francia, TorusDivisor.of([k * c for c in coeffs]))
              for k in MMP_FRANCIA_MULTIPLES]
    by_recipe = {}
    for k, (fan, d) in enumerate(pairs):
        group = [dict(fan_to_doc(fan), divisor=divisor_to_doc(d),
                      orbit=list(orbit))
                 for orbit in orbit_cones(fan)]
        rng.shuffle(group)
        recipe = k % (3 * len(bases)) if k < MMP_SUITE_FANS else -1
        by_recipe.setdefault(recipe, []).append(group)
    triples = _interleave([_interleave(by_recipe[r])
                           for r in sorted(by_recipe)])
    goldens = [
        dict(rank=F1[0], rays=[list(v) for v in F1[1]],
             max_cones=[list(c) for c in F1[2]],
             divisor=["1", "1", "0", "0"], orbit=[], expect_alpha="1"),
        dict(fan_to_doc(wps_fan((4, 7, 13))), divisor=["91", "0", "0"],
             orbit=[], expect_alpha="28"),
    ]
    out = []
    for t in triples:
        if len(out) % MMP_GOLDEN_EVERY == MMP_GOLDEN_EVERY // 2:
            out.append(goldens[(len(out) // MMP_GOLDEN_EVERY) % 2])
        out.append(t)
    return out


def _invalid_variant(doc: dict, kind: int) -> dict:
    """A readable fan description that fails validation."""
    rays = [list(v) for v in doc["rays"]]
    cones = [list(c) for c in doc["max_cones"]]
    if kind == 0:
        cones = cones[:-1]  # a hole: NotComplete
    elif kind == 1:
        rays = rays + [[2 * x for x in rays[0]]]  # repeated ray: NotAFan
    else:
        cones[0] = [cones[0][0]] * doc["rank"]  # dependent rays: NotSimplicial
    return {"rank": doc["rank"], "rays": rays, "max_cones": cones}


def cli_pool(seed: int, directory: str) -> list:
    """Write the seeded file pool into directory; return the argv stream.

    Pool: suite fans with nef divisors, weighted projective planes and
    threefolds with an ample divisor, and invalid fans (10% of the pool).
    Every request names files relative to directory.
    """
    rng = random.Random(seed)
    bases = _bases()
    entries = []  # (name, kind, fan doc, divisor, orbit cones)
    for k, b in enumerate(CLI_SUITE_BASES):
        fan, d = subdivided(rng, bases[b], CLI_SUITE_STEPS)
        entries.append((f"suite{k}", "suite", fan_to_doc(fan),
                        divisor_to_doc(d), orbit_cones(fan)))
    seen = set()
    for length in CLI_WPS_LENGTHS:
        while True:
            q = tuple(sorted(rng.randint(1, 12) for _ in range(length)))
            if q not in seen and well_formed(q):
                break
        seen.add(q)
        fan = wps_fan(q)
        divisor = ["1"] + ["0"] * (len(q) - 1)
        entries.append((f"wps{len(seen) - 1}", "wps", fan_to_doc(fan), divisor,
                        orbit_cones(fan)))
    for k, b in enumerate(rng.sample(range(len(entries)), CLI_INVALID)):
        base = entries[b]
        entries.append((f"invalid{k}", "invalid",
                        _invalid_variant(base[2], rng.randrange(3)), base[3],
                        base[4]))
    os.makedirs(directory, exist_ok=True)
    for name, _, fan_doc, divisor, _ in entries:
        _write(os.path.join(directory, f"{name}.fan.json"), fan_doc)
        _write(os.path.join(directory, f"{name}.div.json"), divisor)
    _write(os.path.join(directory, "context.json"), P4713_CONTEXT)

    verbs = {
        "suite": ("fan-check", "fan-terminal", "mmp-run", "theorem-run"),
        "wps": ("fan-check", "fan-terminal", "curve-find", "alpha",
                "mmp-run", "theorem-run"),
        "invalid": ("fan-check", "fan-terminal", "theorem-run"),
    }
    cycles = [[] for _ in entries]
    stream = []
    while len(stream) < CLI_STREAM_LEN:
        for k in rng.sample(range(len(entries)), len(entries)):
            if len(stream) == CLI_CASESTUDY_AT:
                stream.append(
                    ["casestudy", "p4713", "--context", "context.json"])
            name, kind, _, _, orbits = entries[k]
            if not cycles[k]:
                cycles[k] = rng.sample(verbs[kind], len(verbs[kind]))
            verb = cycles[k].pop()
            argv = [verb, "--fan", f"{name}.fan.json"]
            if verb not in ("fan-check", "fan-terminal", "curve-find"):
                argv += ["--divisor", f"{name}.div.json"]
            if verb in ("mmp-run", "curve-find", "alpha", "theorem-run"):
                orbit = orbits[rng.randrange(len(orbits))]
                argv += ["--orbit", json.dumps(list(orbit))]
            if verb == "theorem-run":
                argv.append("--assume-cb")
            stream.append(argv)
    return stream


def _write(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def generate(workload: str, seed: int, workdir: str) -> list:
    """The op stream of one workload; cli_session also writes its pool."""
    if workload == "wps_sweep":
        return wps_stream(seed)
    if workload == "mmp_driver":
        return mmp_stream(seed)
    if workload == "cli_session":
        return cli_pool(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")
