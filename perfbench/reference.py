"""Fixed reference work, run as a child process to gauge the host's speed.

It does not touch the nominality package, so no change to the program can
change its time. Its mix follows a CLI command's: interpreter start-up,
importing numpy and scipy.linalg, small-matrix numpy steps, an interpreter
loop, a sort and a Cholesky factorization.
"""

import numpy as np
import scipy.linalg

rng = np.random.default_rng(0)
x = rng.standard_normal((64, 8))
w = rng.standard_normal((8, 4))
for _ in range(600):
    h = np.tanh(x @ w)
    g = x.T @ (h @ w.T)
np.sort(rng.standard_normal(100_000))
total = 0
for i in range(60_000):
    total += i % 7
a = rng.standard_normal((300, 300))
scipy.linalg.cho_factor(a @ a.T + 300.0 * np.eye(300))
