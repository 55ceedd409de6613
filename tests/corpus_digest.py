"""sha256 digests of two golden corpora of rendered report documents.

Run from the repository root:

    PYTHONPATH=src python tests/corpus_digest.py [--part corpus|smooth|all] [--check]

The parts:

- corpus: `random_fan_suite` with seeds 1 (60 fans), 2 (40) and 5 (40).
  For every orbit cone of `all_orbit_cones`, the `run_mmp_chain` document
  and then the `theorem16_driver(..., assume_canonically_bounded=True)`
  document: 4080 documents.
- smooth: `smooth_surface_suite(4, 2)`, driver documents only, looping over
  the divisors of a fan and then over its orbit cones: 8865 documents.

Each document enters the digest as `report.render(doc) + "\\n"`.  A refactor
that keeps its outputs leaves both digests as recorded in `RECORDED`; with
`--check` the script exits 1 unless every printed digest equals its
recorded value.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys

from conftest import all_orbit_cones, random_fan_suite, smooth_surface_suite
from toricapprox import report
from toricapprox.approx import theorem16_driver
from toricapprox.mmp import run_mmp_chain

RECORDED = {
    "corpus": "d7dcfeea2e923971020129b8574f4a0172da3fe9bac4c850deb1466d904e8a61",
    "smooth": "48981d8d98a704c57c490b85c27eaf40f035781e00111243eddd44013aae27d7",
}


def _driver_doc(fan, d, orbit):
    res = theorem16_driver(fan, d, orbit, assume_canonically_bounded=True)
    return report.approx_to_doc(res)


def corpus_documents():
    for seed, count in ((1, 60), (2, 40), (5, 40)):
        for fan, d in random_fan_suite(random.Random(seed), count):
            for orbit in all_orbit_cones(fan):
                yield report.chain_to_doc(run_mmp_chain(fan, d, orbit))
                yield _driver_doc(fan, d, orbit)


def smooth_documents():
    for fan, divisors in smooth_surface_suite(4, 2):
        for d in divisors:
            for orbit in all_orbit_cones(fan):
                yield _driver_doc(fan, d, orbit)


PARTS = {"corpus": corpus_documents, "smooth": smooth_documents}


def digest(documents) -> tuple:
    """(sha256 hex digest, number of documents) of the rendered stream."""
    h = hashlib.sha256()
    n = 0
    for doc in documents:
        h.update((report.render(doc) + "\n").encode())
        n += 1
    return h.hexdigest(), n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", choices=[*PARTS, "all"], default="all")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 unless each digest equals its recorded value",
    )
    args = parser.parse_args(argv)
    ok = True
    for name, documents in PARTS.items():
        if args.part not in (name, "all"):
            continue
        value, n = digest(documents())
        match = value == RECORDED[name]
        ok = ok and match
        print(f"{name}: {n} documents sha256 {value}"
              f"{'' if match else ' (recorded ' + RECORDED[name] + ')'}")
    return 0 if ok or not args.check else 1


if __name__ == "__main__":
    sys.exit(main())
