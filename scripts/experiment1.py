#!/usr/bin/env python3
"""Sparse-regression experiment: AR(1)-correlated 2000x400 design, 5% noise.

Compares plain iteratively-reweighted LSQR against the sketch-preconditioned
variant (fixed and discrepancy-principle lambda) and a FISTA baseline.
Writes trace CSVs and a summary into the output directory.
"""

import argparse
import os
import sys

# One BLAS thread unless the caller says otherwise: the small matrix-vector
# products here run slower with more (set before numpy is first imported).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from randkrylov.cli import main as cli_main

CONFIG = """
problem.generator = subset_selection
problem.m = 2000
problem.n = 400
problem.rho = 0.95
problem.bern_p = 0.1
problem.seed = 7
problem.nl = 0.05
problem.noise_seed = 11

solver.irn-lsqr.family = irn
solver.irn-lsqr.seed = 13
solver.irn-lsqr.lambda = 40.0
solver.irn-lsqr.outer_max = 15
solver.irn-lsqr.inner_max = 800
solver.irn-lsqr.tau = 1e-10

solver.irn-s2p-lsqr.family = irn_s2p
solver.irn-s2p-lsqr.seed = 13
solver.irn-s2p-lsqr.lambda = 40.0
solver.irn-s2p-lsqr.outer_max = 15
solver.irn-s2p-lsqr.inner_max = 800
solver.irn-s2p-lsqr.tau = 1e-10

solver.irn-s2p-lsqr-dp.family = irn_s2p
solver.irn-s2p-lsqr-dp.seed = 13
solver.irn-s2p-lsqr-dp.lambda_policy = dp
solver.irn-s2p-lsqr-dp.nl = 0.05
solver.irn-s2p-lsqr-dp.outer_max = 15
solver.irn-s2p-lsqr-dp.inner_max = 800
solver.irn-s2p-lsqr-dp.tau = 1e-10

solver.fista.family = fista
solver.fista.seed = 13
solver.fista.lambda = 40.0
solver.fista.k_max = 300
"""


def run(out):
    os.makedirs(out, exist_ok=True)
    cfg_path = os.path.join(out, "experiment1.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(CONFIG)
    return cli_main(["run", "--config", cfg_path, "--out", out])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/experiment1")
    sys.exit(run(parser.parse_args().out))
