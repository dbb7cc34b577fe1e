"""Run both sampling oracles on 400 seeded cases and print one digest.

    PYTHONPATH=src python3 tools/oracle_digest.py

Each case draws a dimension n in 2..10, a in {0, 0.5, 0.9999, 1} or uniform
in [0, 1], a point with |x| <= 0.999, a covector, a sample size in
{100, 1000, 10000, 20000} and a sample seed in 0..2.  The keys change from
case to case in a seeded order, so a larger n often comes before a smaller
one and the oracles' kept sample is evicted and redrawn throughout.  Prints
one line per case, its keys and the ``float.hex`` of
``polar_F_star_oracle`` and ``reversibility_oracle``, then ``sha256 <hex>``
over all case lines.  A change that should keep the oracles bit for bit
prints the same digest as its parent: run the script once with
``PYTHONPATH`` pointing at each checkout's ``src``.  The digest depends on
the BLAS's summation order, so it is compared between checkouts on one
machine, not pinned.  It takes a few seconds and is not part of the test
suite.
"""

import os

# one BLAS thread: a threaded dot product may sum in another order
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib

import numpy as np

from funkball import BallPoint, ModelParams, polar_F_star_oracle, reversibility_oracle

CASES = 400
A_CHOICES = (0.0, 0.5, 0.9999, 1.0, None)  # None: uniform in [0, 1]
SAMPLES = (100, 1000, 10000, 20000)
SEEDS = (0, 1, 2)
R_MAX = 0.999


def cases():
    rng = np.random.default_rng(20141019)
    for _ in range(CASES):
        n = int(rng.integers(2, 11))
        a = A_CHOICES[int(rng.integers(len(A_CHOICES)))]
        if a is None:
            a = float(rng.uniform())
        direction = rng.standard_normal(n)
        x = R_MAX * float(rng.uniform()) * direction / np.linalg.norm(direction)
        alpha = rng.standard_normal(n)
        samples = SAMPLES[int(rng.integers(len(SAMPLES)))]
        seed = SEEDS[int(rng.integers(len(SEEDS)))]
        yield n, a, x, alpha, samples, seed


def main():
    digest = hashlib.sha256()
    for n, a, x, alpha, samples, seed in cases():
        params, p = ModelParams(n=n, a=a), BallPoint(x)
        polar = polar_F_star_oracle(params, p, alpha, samples=samples, seed=seed)
        rev = reversibility_oracle(params, p, samples=samples, seed=seed)
        line = f"n={n} a={a.hex()} samples={samples} seed={seed} {polar.hex()} {rev.hex()}"
        print(line)
        digest.update(line.encode() + b"\n")
    print("sha256", digest.hexdigest())


if __name__ == "__main__":
    main()
