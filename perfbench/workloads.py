"""Scenario files for the generated benchmark workloads.

`grid`, `exact` and `quotient` are written from a workload seed; `suite`
is the shipped `scenarios/full_suite.json` and is never rewritten.  The
seed changes values (random draws, numeric q, masses, signatures) and
never sizes, so the work of a file is the same for every seed.

    python3 perfbench/workloads.py --seed 7 --out perfbench/_work
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random

SUITE_FILE = os.path.join("scenarios", "full_suite.json")
DEFAULT_SEED = 1650

# The order-16 witness round trip fails for every scenario seed (the
# absolute `witness` tolerance of 1e-10 against coefficients that grow like
# |c0|^-16).  Its random series come from the scenario seed, so `quotient`
# pins that seed: the failing entry then sees the same inputs on every run.
QUOTIENT_SCENARIO_SEED = 20111650

BRST_MODELS = ("null_pair", "gupta_bleuler", "two_pair")
# fixed primitive roots: the cost of exact arithmetic (and the number of
# cyclotomic reductions) depends on k, so the seed leaves it alone
ROOTS = ({"N": 3, "k": 1}, {"N": 5, "k": 2}, {"N": 7, "k": 3})
KREIN_DIMS = (5, 7, 9)
CONVERGENCE_SIZES = (32, 64, 128)


def _check(name, **params):
    return {"check": name, "params": params}


def grid(seed: int, dump_path: str) -> dict:
    """Galilei stencils and shell transforms; numpy kernels dominate."""
    rnd = random.Random(f"grid:{seed}")
    checks = [
        _check("galilei.commutator_convergence",
               sizes=list(CONVERGENCE_SIZES), p_max=10.0, mass=1.0),
        _check("galilei.commutators", points=48, p_max=10.0,
               mass=round(rnd.uniform(0.8, 1.25), 6)),
        _check("galilei.cocycle", triples=3000),
        # complete cube: the separable einsum path
        _check("wigner.parseval", kind="galilean", points=96,
               mass=round(rnd.uniform(0.5, 2.0), 6),
               spacing=round(rnd.uniform(0.3, 0.5), 6), times=[0.0, 1.0]),
        _check("wigner.parseval", kind="relativistic", points=64,
               mass=round(rnd.uniform(0.8, 1.25), 6),
               reweight="newton_wigner", times=[0.0, 1.0]),
        _check("wigner.parseval", kind="relativistic", points=64,
               mass=round(rnd.uniform(0.8, 1.25), 6),
               expect="defect", floor=0.05, times=[0.0, 1.0]),
        # the dropped origin sends the cone down the blocked direct sum
        _check("wigner.parseval", kind="massless", points=16,
               spacing=round(rnd.uniform(0.3, 0.5), 6),
               reweight="newton_wigner",
               times=[round(rnd.uniform(0.0, 2.0), 6)],
               dump_field=dump_path),
    ]
    return {"name": "bench_grid", "seed": seed,
            "tolerances": {"parseval": 1e-8, "grid_exact": 1e-11},
            "checks": checks}


def _numeric_q(rnd: random.Random, complex_phase: bool) -> list:
    # |q| kept 0.1 away from 1, so q is no root of unity at any degree
    modulus = rnd.choice([rnd.uniform(0.6, 0.9), rnd.uniform(1.1, 1.5)])
    phase = rnd.uniform(0.3, 2.8) if complex_phase else rnd.choice([0.0, math.pi])
    return [round(modulus * math.cos(phase), 9), round(modulus * math.sin(phase), 9)]


def exact(seed: int) -> dict:
    """Quantum-plane rewriting over exact cyclotomic and complex rings."""
    rnd = random.Random(f"exact:{seed}")
    checks = [_check("qplane.coaction", q=root, max_deg=5) for root in ROOTS]
    checks += [_check("qplane.coaction", q=_numeric_q(rnd, False), max_deg=6),
               _check("qplane.coaction", q=_numeric_q(rnd, True), max_deg=6),
               _check("qplane.coaction", q=_numeric_q(rnd, False), max_deg=3,
                      perturb_ab=True)]
    checks += [_check("qplane.center", q=root, max_deg=40) for root in ROOTS]
    checks.append(_check("qplane.center", q=_numeric_q(rnd, True), max_deg=40))
    return {"name": "bench_exact", "seed": seed, "checks": checks}


def quotient(seed: int) -> dict:
    """BRST quotients, deformations, Krein calculus and series loops."""
    rnd = random.Random(f"quotient:{seed}")
    checks = [
        _check("brst.deform_stability", model="two_pair", order=6, samples=400),
        _check("brst.deform_stability", model="two_pair", order=6, samples=400,
               mode="rescale"),
        _check("brst.deform_stability", model="gupta_bleuler", order=6,
               samples=600),
    ]
    for model in BRST_MODELS:
        checks.append(_check("brst.physical_space", model=model))
        for variant in ("full", "even_ghost"):
            checks.append(_check("brst.observables", model=model, variant=variant))
    for n in KREIN_DIMS:
        p = rnd.randint(1, n - 1)
        checks.append(_check("krein.invariants", signature=[p, n - p],
                             samples=600))
    checks.append(_check("series.witness_roundtrip", count=500, order=16))
    return {"name": "bench_quotient", "seed": QUOTIENT_SCENARIO_SEED,
            "tolerances": {"default": 1e-10, "witness": 1e-10},
            "checks": checks}


def write_workload(name: str, seed: int, out_dir: str) -> str:
    """Write the scenario file of one workload and return its path."""
    if name == "suite":
        return SUITE_FILE
    path = os.path.join(out_dir, f"{name}.json")
    if name == "grid":
        data = grid(seed, os.path.join(out_dir, "grid_field.csv"))
    elif name == "exact":
        data = exact(seed)
    elif name == "quotient":
        data = quotient(seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=os.path.join("perfbench", "_work"))
    args = parser.parse_args()
    for name in ("grid", "exact", "quotient"):
        print(write_workload(name, args.seed, args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
