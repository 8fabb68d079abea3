"""Fiber dichotomies at p = 3 through the public functions of
keyvariety.incidence, a prime the CLI's fiber check never reaches.

Inputs come from --seed: a sample of genus-5 points off the plane {x = 0}
(x a random nonzero vector, each row of the y-matrix drawn from x^perp) and a
sample of the genus-6 Q-type points off the vertex locus {x = 0}. The observed
values are written as JSON to --out; the benchmark compares them with
perfbench/reference.json.

    PYTHONPATH=src python3 perfbench/fibers_p3.py --seed 1 --out result.json
"""
from __future__ import annotations

import argparse
import json
import random
import sys

from keyvariety import catalog, incidence, projspace
from keyvariety.algebra import PointAffineRep

P = 3
G5_SAMPLE = 10000
G6Q_SAMPLE = 2000


def g5_sample(rng: random.Random, n: int) -> list:
    """Normalized genus-5 points (x | y1 y2 y3) with x != 0 and y_i . x = 0."""
    out = []
    while len(out) < n:
        x = [rng.randrange(P) for _ in range(4)]
        if not any(x):
            continue
        k = next(i for i, v in enumerate(x) if v)
        inv = pow(x[k], -1, P)
        x = [v * inv % P for v in x]
        coords = list(x)
        for _ in range(3):
            row = [rng.randrange(P) for _ in range(4)]
            row[k] = 0
            row[k] = -sum(a * b for a, b in zip(row, x)) % P
            coords.extend(row)
        out.append(tuple(coords))
    return out


def check_g5_point(coords: tuple) -> None:
    """Benchmark-side check of the three genus-5 generators and x != 0."""
    x = coords[:4]
    if not any(x):
        raise ValueError(f"sampled point {coords} lies on the plane x = 0")
    for i in range(3):
        row = coords[4 + 4 * i:8 + 4 * i]
        if sum(a * b for a, b in zip(row, x)) % P:
            raise ValueError(f"sampled point {coords} is off the genus-5 model")


def g6q_off_vertex_points() -> list:
    """Every genus-6 Q-type point at p = 3 whose x-block is nonzero, the
    locus fiber_birationality_check probes."""
    spec = catalog.build_case("g6q_sigma_bar")
    _, pts = projspace.scan_system(projspace.ScanPlan(spec.ambient_dim, P),
                                   list(spec.generators), collect=True)
    return [tuple(r) for r in pts.tolist() if any(r[4:9])]


def one_point_fibers(case: str, points) -> int:
    return sum(1 for c in points
               if incidence.fiber_over(case, PointAffineRep(c), P).fiber_count == 1)


def run(seed: int) -> dict:
    rng = random.Random(seed)
    g5_points = g5_sample(rng, G5_SAMPLE)
    for c in g5_points:
        check_g5_point(c)
    g6q_points = g6q_off_vertex_points()
    g6q_probe = rng.sample(g6q_points, G6Q_SAMPLE)

    g8_checked, g8_violations = incidence.fiber_birationality_check("g8", P)
    _, g4_mismatches = incidence.g4_intersection_plane_fiber_check(P)
    counter, jump = incidence.g8_plane_fiber_profile(P)
    veronese, _ = incidence.projected_veronese_points(P)
    return {
        "seed": seed,
        "g6q_off_vertex_points": len(g6q_points),
        "g6q_sample": len(g6q_probe),
        "g6q_one_point": one_point_fibers("g6q", g6q_probe),
        "g8_checked": g8_checked,
        "g8_violations": g8_violations,
        "g4_plane_mismatches": len(g4_mismatches),
        "g8_profile": {str(k): v for k, v in sorted(counter.items())},
        "g8_jump_is_veronese": jump == set(veronese),
        "g5_sample": len(g5_points),
        "g5_one_point": one_point_fibers("g5", g5_points),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
