"""The three benchmark workloads: the configurations of
``scripts/experiment{1,2,3}.py``, frozen here so that the benchmark measures
the same work on every commit.

The problem and its noise are the experiment's own on every run. The
workload seed is the solvers' seed, which draws the leverage-score sketches
and the distortion probes: the randomness of the randomized methods under
test. Its default is the experiment script's solver seed, so the default
configuration is the script's exactly. Holding the problem fixed keeps the
deterministic solvers' work the same on every seed; the sketched solvers'
inner iterations move by a few percent from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass

REGRESSION = """
problem.generator = subset_selection
problem.m = 2000
problem.n = 400
problem.rho = 0.95
problem.bern_p = 0.1
problem.seed = {problem_seed}
problem.nl = 0.05
problem.noise_seed = {noise_seed}

solver.irn-lsqr.family = irn
solver.irn-lsqr.seed = {seed}
solver.irn-lsqr.lambda = 40.0
solver.irn-lsqr.outer_max = 15
solver.irn-lsqr.inner_max = 800
solver.irn-lsqr.tau = 1e-10

solver.irn-s2p-lsqr.family = irn_s2p
solver.irn-s2p-lsqr.seed = {seed}
solver.irn-s2p-lsqr.lambda = 40.0
solver.irn-s2p-lsqr.outer_max = 15
solver.irn-s2p-lsqr.inner_max = 800
solver.irn-s2p-lsqr.tau = 1e-10

solver.irn-s2p-lsqr-dp.family = irn_s2p
solver.irn-s2p-lsqr-dp.seed = {seed}
solver.irn-s2p-lsqr-dp.lambda_policy = dp
solver.irn-s2p-lsqr-dp.nl = 0.05
solver.irn-s2p-lsqr-dp.outer_max = 15
solver.irn-s2p-lsqr-dp.inner_max = 800
solver.irn-s2p-lsqr-dp.tau = 1e-10

solver.fista.family = fista
solver.fista.seed = {seed}
solver.fista.lambda = 40.0
solver.fista.k_max = 300
"""

DEBLUR = """
problem.generator = starfield
problem.nx = 64
problem.density = 0.072
problem.sigma_blur = 1.5
problem.seed = {problem_seed}
problem.nl = 0.01
problem.noise_seed = {noise_seed}

solver.sns-irw-fgmres.family = flex
solver.sns-irw-fgmres.seed = {seed}
solver.sns-irw-fgmres.basis = arnoldi
solver.sns-irw-fgmres.mode = irw
solver.sns-irw-fgmres.scheme = sketch_and_solve
solver.sns-irw-fgmres.ell = 4
solver.sns-irw-fgmres.k_max = 50
solver.sns-irw-fgmres.lambda = 1e-5
solver.sns-irw-fgmres.tau = 1e-10

solver.s2p-irw-fgmres.family = flex
solver.s2p-irw-fgmres.seed = {seed}
solver.s2p-irw-fgmres.basis = arnoldi
solver.s2p-irw-fgmres.mode = irw
solver.s2p-irw-fgmres.scheme = sketch_to_precondition
solver.s2p-irw-fgmres.ell = 4
solver.s2p-irw-fgmres.k_max = 50
solver.s2p-irw-fgmres.lambda = 1e-5
solver.s2p-irw-fgmres.tau = 1e-10

solver.hybrid-gmres.family = flex
solver.hybrid-gmres.seed = {seed}
solver.hybrid-gmres.basis = arnoldi
solver.hybrid-gmres.mode = hybrid
solver.hybrid-gmres.scheme = exact
solver.hybrid-gmres.ell = 4
solver.hybrid-gmres.k_max = 50
solver.hybrid-gmres.lambda = 1e-5
solver.hybrid-gmres.p = 2.0
solver.hybrid-gmres.tau = 1e-10

solver.fgmres-no-reg.family = flex
solver.fgmres-no-reg.seed = {seed}
solver.fgmres-no-reg.basis = arnoldi
solver.fgmres-no-reg.mode = none
solver.fgmres-no-reg.scheme = exact
solver.fgmres-no-reg.ell = 4
solver.fgmres-no-reg.k_max = 50
solver.fgmres-no-reg.tau = 1e-10
"""

TOMO = """
problem.generator = tomo
problem.nx = 64
problem.n_angles = 18
problem.seed = {problem_seed}
problem.nl = 0.01
problem.noise_seed = {noise_seed}

solver.lsqr.family = lsqr
solver.lsqr.seed = {seed}
solver.lsqr.k_max = 100
solver.lsqr.tol = 0

solver.flsqr-no-reg.family = flex
solver.flsqr-no-reg.seed = {seed}
solver.flsqr-no-reg.basis = golub_kahan
solver.flsqr-no-reg.mode = none
solver.flsqr-no-reg.scheme = exact
solver.flsqr-no-reg.ell = 4
solver.flsqr-no-reg.k_max = 60
solver.flsqr-no-reg.tau = 1e-10

solver.s2p-irw-flsqr-dp.family = flex
solver.s2p-irw-flsqr-dp.seed = {seed}
solver.s2p-irw-flsqr-dp.basis = golub_kahan
solver.s2p-irw-flsqr-dp.mode = irw
solver.s2p-irw-flsqr-dp.scheme = sketch_to_precondition
solver.s2p-irw-flsqr-dp.ell = 4
solver.s2p-irw-flsqr-dp.k_max = 30
solver.s2p-irw-flsqr-dp.lambda_policy = dp
solver.s2p-irw-flsqr-dp.nl = 0.01
solver.s2p-irw-flsqr-dp.tau = 1e-10

solver.s2p-irw-flsqr-opt.family = flex
solver.s2p-irw-flsqr-opt.seed = {seed}
solver.s2p-irw-flsqr-opt.basis = golub_kahan
solver.s2p-irw-flsqr-opt.mode = irw
solver.s2p-irw-flsqr-opt.scheme = sketch_to_precondition
solver.s2p-irw-flsqr-opt.ell = 4
solver.s2p-irw-flsqr-opt.k_max = 30
solver.s2p-irw-flsqr-opt.lambda_policy = optimal
solver.s2p-irw-flsqr-opt.tau = 1e-10
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    problem_seed: int  # problem.seed of the experiment script
    noise_seed: int  # problem.noise_seed of the experiment script
    default_seed: int  # solver seed of the experiment script
    solvers: tuple  # in configuration order, which is the order they run
    fixed_lambda: tuple  # solvers with a fixed lambda and an l1 penalty
    dp: tuple  # solvers whose lambda follows the discrepancy principle

    def config(self, seed):
        return self.template.format(problem_seed=self.problem_seed,
                                    noise_seed=self.noise_seed, seed=seed)


WORKLOADS = {
    "regression": Workload(
        "regression", REGRESSION, 7, 11, 13,
        ("irn-lsqr", "irn-s2p-lsqr", "irn-s2p-lsqr-dp", "fista"),
        fixed_lambda=("irn-lsqr", "irn-s2p-lsqr", "fista"),
        dp=("irn-s2p-lsqr-dp",),
    ),
    "deblur": Workload(
        "deblur", DEBLUR, 21, 22, 23,
        ("sns-irw-fgmres", "s2p-irw-fgmres", "hybrid-gmres", "fgmres-no-reg"),
        fixed_lambda=(),
        dp=(),
    ),
    "tomo": Workload(
        "tomo", TOMO, 31, 32, 33,
        ("lsqr", "flsqr-no-reg", "s2p-irw-flsqr-dp", "s2p-irw-flsqr-opt"),
        fixed_lambda=(),
        dp=("s2p-irw-flsqr-dp",),
    ),
}
