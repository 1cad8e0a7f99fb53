#!/usr/bin/env python3
"""Star-field deblurring experiment: 64x64 image, periodic Gaussian blur,
1% noise, truncated flexible Arnoldi bases (window 4).

Compares the reweighted sketch-and-solve and sketch-to-precondition flexible
GMRES solvers against hybrid GMRES (plain l2 penalty) and the unregularized
flexible iteration. Writes trace CSVs and a summary into the output
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
problem.generator = starfield
problem.nx = 64
problem.density = 0.072
problem.sigma_blur = 1.5
problem.seed = 21
problem.nl = 0.01
problem.noise_seed = 22

solver.sns-irw-fgmres.family = flex
solver.sns-irw-fgmres.seed = 23
solver.sns-irw-fgmres.basis = arnoldi
solver.sns-irw-fgmres.mode = irw
solver.sns-irw-fgmres.scheme = sketch_and_solve
solver.sns-irw-fgmres.ell = 4
solver.sns-irw-fgmres.k_max = 50
solver.sns-irw-fgmres.lambda = 1e-5
solver.sns-irw-fgmres.tau = 1e-10

solver.s2p-irw-fgmres.family = flex
solver.s2p-irw-fgmres.seed = 23
solver.s2p-irw-fgmres.basis = arnoldi
solver.s2p-irw-fgmres.mode = irw
solver.s2p-irw-fgmres.scheme = sketch_to_precondition
solver.s2p-irw-fgmres.ell = 4
solver.s2p-irw-fgmres.k_max = 50
solver.s2p-irw-fgmres.lambda = 1e-5
solver.s2p-irw-fgmres.tau = 1e-10

solver.hybrid-gmres.family = flex
solver.hybrid-gmres.seed = 23
solver.hybrid-gmres.basis = arnoldi
solver.hybrid-gmres.mode = hybrid
solver.hybrid-gmres.scheme = exact
solver.hybrid-gmres.ell = 4
solver.hybrid-gmres.k_max = 50
solver.hybrid-gmres.lambda = 1e-5
solver.hybrid-gmres.p = 2.0
solver.hybrid-gmres.tau = 1e-10

solver.fgmres-no-reg.family = flex
solver.fgmres-no-reg.seed = 23
solver.fgmres-no-reg.basis = arnoldi
solver.fgmres-no-reg.mode = none
solver.fgmres-no-reg.scheme = exact
solver.fgmres-no-reg.ell = 4
solver.fgmres-no-reg.k_max = 50
solver.fgmres-no-reg.tau = 1e-10
"""


def run(out):
    os.makedirs(out, exist_ok=True)
    cfg_path = os.path.join(out, "experiment2.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(CONFIG)
    return cli_main(["run", "--config", cfg_path, "--out", out])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/experiment2")
    sys.exit(run(parser.parse_args().out))
