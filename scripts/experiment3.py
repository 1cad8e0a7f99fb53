#!/usr/bin/env python3
"""Tomography experiment: 64x64 Shepp-Logan phantom, 18-angle parallel-beam
projection, 1% noise.

Compares plain LSQR (semiconvergent), the unregularized flexible LSQR
iteration (implicit regularization through the reweighted basis), and the
sketch-to-precondition flexible LSQR with discrepancy-principle and
oracle-optimal lambda. Writes trace CSVs and a summary into the output
directory.
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
problem.generator = tomo
problem.nx = 64
problem.n_angles = 18
problem.seed = 31
problem.nl = 0.01
problem.noise_seed = 32

solver.lsqr.family = lsqr
solver.lsqr.seed = 33
solver.lsqr.k_max = 100
solver.lsqr.tol = 0

solver.flsqr-no-reg.family = flex
solver.flsqr-no-reg.seed = 33
solver.flsqr-no-reg.basis = golub_kahan
solver.flsqr-no-reg.mode = none
solver.flsqr-no-reg.scheme = exact
solver.flsqr-no-reg.ell = 4
solver.flsqr-no-reg.k_max = 60
solver.flsqr-no-reg.tau = 1e-10

solver.s2p-irw-flsqr-dp.family = flex
solver.s2p-irw-flsqr-dp.seed = 33
solver.s2p-irw-flsqr-dp.basis = golub_kahan
solver.s2p-irw-flsqr-dp.mode = irw
solver.s2p-irw-flsqr-dp.scheme = sketch_to_precondition
solver.s2p-irw-flsqr-dp.ell = 4
solver.s2p-irw-flsqr-dp.k_max = 30
solver.s2p-irw-flsqr-dp.lambda_policy = dp
solver.s2p-irw-flsqr-dp.nl = 0.01
solver.s2p-irw-flsqr-dp.tau = 1e-10

solver.s2p-irw-flsqr-opt.family = flex
solver.s2p-irw-flsqr-opt.seed = 33
solver.s2p-irw-flsqr-opt.basis = golub_kahan
solver.s2p-irw-flsqr-opt.mode = irw
solver.s2p-irw-flsqr-opt.scheme = sketch_to_precondition
solver.s2p-irw-flsqr-opt.ell = 4
solver.s2p-irw-flsqr-opt.k_max = 30
solver.s2p-irw-flsqr-opt.lambda_policy = optimal
solver.s2p-irw-flsqr-opt.tau = 1e-10
"""


def run(out):
    os.makedirs(out, exist_ok=True)
    cfg_path = os.path.join(out, "experiment3.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(CONFIG)
    return cli_main(["run", "--config", cfg_path, "--out", out])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/experiment3")
    sys.exit(run(parser.parse_args().out))
