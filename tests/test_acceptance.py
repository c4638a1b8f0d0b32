"""Acceptance suite: every certified property at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line with the measured margin,
then asserts.  Tolerances are pinned here and nowhere else; run with
``pytest -s tests/test_acceptance.py`` to see the lines on success.
"""

import math

import numpy as np
import pytest

from heatback import (
    DiffusionProfile,
    DomainSpec,
    EigenBasis,
    FDGrid,
    SpectralField,
    Subdomain,
    chain_full_domain,
    constants_convex,
    control_mode_bank,
    eval_A,
    evolve,
    fd_evolve,
    fit_empirical_constants,
    global_backward,
    gram_subdomain,
    invert_B,
    local_reconstruct,
    oracle_gap,
    solve_control,
    synthesize_initial,
    uniform_grid,
    verify_control_bounds,
)
from heatback.control import ControlSetup
from heatback.harness import inject_noise, parse_config_text, rows_to_csv, run_sweep
from heatback.pipeline import PipelineConfig, weight_from_chain
from heatback.spectral import observation_weights, simpson_weights
from oracles import (
    appendix_stability_check,
    direct_backward_check,
    eval_B,
    functional_J,
    gradient_J,
    gram_closed_form,
    holder_check,
    invert_A_increasing,
)

DOMAIN = DomainSpec.unit()
BASIS = EigenBasis(DOMAIN, 64)
SUB = Subdomain(0.3, 0.7)
XS_OMEGA = uniform_grid(SUB.a, SUB.b, 512)
# the Gram matrix of the Simpson rule on the omega samples, as the commands build it
GRAM = gram_subdomain(XS_OMEGA, observation_weights(XS_OMEGA, SUB, BASIS), BASIS)
P_CONST = DiffusionProfile.constant(1.0, 3.0)
P_AFFINE = DiffusionProfile.affine(1.0, 0.1, 3.0)
P_SINUS = DiffusionProfile.sinusoidal(1.0, 0.2, 1.0, 3.0)


def report(num, ok, label, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_01_optimality_identity():
    worst = 0.0
    for prof in (P_CONST, P_SINUS):
        setup = ControlSetup(
            BASIS, 0.5, prof, GRAM,
            eps=0.3, k=weight_from_chain(chain_full_domain(), 0.5, 0.3),
        )
        rng = np.random.default_rng(101)
        for _ in range(20):
            sol = solve_control(setup, rng.standard_normal(64))
            worst = max(worst, sol.identity_residual / np.linalg.norm(sol.psi))
    report(1, worst <= 1e-12, "optimality identity |psi - eps^2 c| <= 1e-12 |psi|",
           f"worst relative residual {worst:.3e}")


def test_criterion_02_variational_correctness():
    setup = ControlSetup(
        BASIS, 0.5, P_CONST, GRAM,
        eps=0.3, k=weight_from_chain(chain_full_domain(), 0.5, 0.3),
    )
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        phi0 = rng.standard_normal(64)
        z = rng.standard_normal(64)
        analytic = gradient_J(setup, z, phi0)
        h = 1e-6
        numeric = np.zeros(64)
        for j in range(64):
            dz = np.zeros(64)
            dz[j] = h
            numeric[j] = (
                functional_J(setup, z + dz, phi0) - functional_J(setup, z - dz, phi0)
            ) / (2.0 * h)
        worst = max(worst, np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic))
    grad_ok = worst <= 1e-6

    phi0 = rng.standard_normal(64)
    sol = solve_control(setup, phi0)
    J_star = functional_J(setup, sol.c, phi0)
    tried = 0
    minimal = True
    for _ in range(25):
        d = rng.standard_normal(64)
        for eta in (1e-3, -1e-3, 1e-1, -1e-1):
            tried += 1
            minimal &= J_star <= functional_J(setup, sol.c + eta * d, phi0)
    report(2, grad_ok and minimal and tried == 100,
           "gradient vs central differences <= 1e-6; minimizer beats 100 perturbations",
           f"worst gradient error {worst:.3e}, minimality over {tried} perturbations: {minimal}")


def test_criterion_03_oracle_equivalence():
    grid = FDGrid(DOMAIN, 2000)
    worst = 0.0
    for prof in (P_CONST, P_AFFINE, P_SINUS):
        u0 = synthesize_initial(BASIS, 2.0, 33)
        v0 = grid.sample(u0)
        for T in (0.1, 0.5):
            fd = fd_evolve(grid, v0, prof, T, 2000)
            gap = oracle_gap(grid, evolve(u0, 0.0, T, prof), fd)
            worst = max(worst, gap / (1e-4 * u0.l2()))
    report(3, worst <= 1.0, "spectral vs Crank-Nicolson gap <= 1e-4 |u0| (6 configurations)",
           f"worst gap at {worst:.3f} of tolerance")


def test_criterion_04_scalar_machinery():
    worst_b = max(
        abs(eval_B(invert_B(float(y))) - y) / y for y in np.logspace(-6, 12, 73)
    )
    a_half_err = abs(eval_A(0.5) - math.sqrt(math.e) / 2.0)
    worst_a = max(
        abs(invert_A_increasing(eval_A(float(x)), 0.0) - x) / max(1.0, x)
        for x in np.linspace(0.5, 50.0, 100)
    )
    ok = worst_b <= 1e-12 and a_half_err <= 1e-14 and worst_a <= 1e-12
    report(4, ok, "B round-trip <= 1e-12, A(1/2) exact to 1e-14, A-inverse round-trip <= 1e-12",
           f"B {worst_b:.2e}, A(1/2) {a_half_err:.2e}, A-inverse {worst_a:.2e}")


def test_criterion_05_global_backward_bound():
    xs = uniform_grid(0.0, 1.0, 1024)
    w = simpson_weights(xs.size, xs[1] - xs[0])
    ratios = []
    violations = 0
    runs = 0
    for T in (0.1, 0.5):
        for drel in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            for seed in range(3):
                u0 = synthesize_initial(BASIS, 3.0, seed)
                delta = drel * u0.l2()
                noisy = inject_noise(
                    evolve(u0, 0.0, T, P_CONST).evaluate(xs), delta, [seed, 5, runs], w
                )
                g, sel = global_backward(
                    xs, noisy, BASIS, T, P_CONST, delta, u0.l2(), u0.h01()
                )
                err = (u0 - g).l2()
                runs += 1
                ratios.append(err / sel.bound)
                violations += err > sel.bound
    median_ratio = float(np.median(ratios))
    report(5, violations == 0, f"error <= bound on all {runs} global runs (zero tolerance)",
           f"{violations} violations; median error/bound = {median_ratio:.3f} "
           f"(informational target <= 0.5: {'met' if median_ratio <= 0.5 else 'not met'})")


def test_criterion_06_gate_zero():
    T = 0.1
    u0 = synthesize_initial(BASIS, 3.0, 7)
    delta = u0.l2() * math.exp(-BASIS.lambda1 * P_CONST.p2 * T)
    xs = uniform_grid(0.0, 1.0, 1024)
    noisy = evolve(u0, 0.0, T, P_CONST).evaluate(xs)
    g, sel = global_backward(xs, noisy, BASIS, T, P_CONST, delta, u0.l2(), u0.h01())
    ok = sel.gate_zero and g.l2() == 0.0 and (u0 - g).l2() <= sel.bound
    report(6, ok, "delta = |u0| e^{-lambda1 p2 T} triggers the zero gate and the bound covers",
           f"gate={sel.gate_zero}, |u0|={u0.l2():.4f} <= bound={sel.bound:.4f}")


def test_criterion_07_local_backward():
    T = 0.25
    chain = fit_empirical_constants(BASIS, GRAM, T, P_CONST)
    xs = XS_OMEGA
    w = observation_weights(xs, SUB, BASIS)
    deltas = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    medians, envelopes = [], []
    violations = 0
    for drel in deltas:
        errs = []
        for seed in range(3):
            u0 = synthesize_initial(BASIS, 3.0, seed)
            l2, h01 = u0.l2(), u0.h01()
            dabs = drel * l2
            cfg = PipelineConfig(BASIS, T, P_CONST, SUB, GRAM, 32, chain, l2, h01)
            noisy = inject_noise(
                evolve(u0, 0.0, T, P_CONST).evaluate(xs), dabs, [seed, 7], w
            )
            rep = local_reconstruct(xs, noisy, dabs, cfg)
            err = (u0 - rep.g).l2()
            errs.append(err)
            envelopes.append(err * math.sqrt(math.log(l2 / dabs)))
            violations += err > rep.selection.bound or not rep.consistency_ok
        medians.append(float(np.median(errs)))
    env_ratio = max(envelopes) / min(envelopes)
    monotone = all(a >= b - 1e-12 for a, b in zip(medians, medians[1:]))
    ok = violations == 0 and env_ratio <= 1e2 and monotone
    report(7, ok, "local pipeline: bound holds, envelope within 1e2, median non-increasing",
           f"violations={violations}, envelope ratio={env_ratio:.2f}, medians="
           + "[" + ", ".join(f"{m:.3e}" for m in medians) + "]")


def test_criterion_08_control_certificates():
    # paper-constants mode on the whole domain: certificates must all hold
    sub_full = Subdomain.full(DOMAIN)
    xs_full = uniform_grid(0.0, DOMAIN.length, 1024)
    gram_full = gram_subdomain(xs_full, observation_weights(xs_full, sub_full, BASIS), BASIS)
    rng = np.random.default_rng(108)
    paper_ok = True
    for eps in (0.5, 0.1, 0.02):
        setup = ControlSetup(
            BASIS, 0.5, P_CONST, gram_full,
            eps=eps, k=weight_from_chain(chain_full_domain(), 0.5, eps),
        )
        for sol, phi0 in [(s, SpectralField.unit_mode(BASIS, i + 1).coeffs)
                          for i, s in enumerate(control_mode_bank(setup, 16))] + [
            (solve_control(setup, p), p)
            for p in (rng.standard_normal(64) for _ in range(10))
        ]:
            cert = verify_control_bounds(setup, sol, phi0)
            paper_ok &= cert.h_ok and cert.psi_ok and cert.surrogate_ok

    # empirical mode on the subinterval: surrogate must hold on >= 95%
    T = 0.25
    chain = fit_empirical_constants(BASIS, GRAM, T, P_CONST)
    held = total = 0
    for eps in (0.1, 0.01, 1e-3, 1e-4):
        setup = ControlSetup(BASIS, T, P_CONST, GRAM, eps=eps, k=weight_from_chain(chain, T, eps))
        for _ in range(10):
            phi0 = rng.standard_normal(64)
            cert = verify_control_bounds(setup, solve_control(setup, phi0), phi0)
            total += 1
            held += cert.surrogate_ok
    rate = held / total
    report(8, paper_ok and rate >= 0.95,
           "whole-domain certificates all hold; subinterval surrogate >= 95%",
           f"whole-domain all ok: {paper_ok}; surrogate rate {held}/{total} = {rate:.2%}")


def test_criterion_09_observability_checks():
    chain = constants_convex(DOMAIN, 0.2, P_CONST)
    sub = Subdomain(DOMAIN.x0 - 0.2, DOMAIN.x0 + 0.2)
    gram = gram_closed_form(sub, BASIS)  # the estimates are of continuous norms
    T = 0.3
    holder_holds = appendix_applicable = appendix_holds = direct_holds = 0
    for s in range(100):
        u0 = synthesize_initial(BASIS, 2.0 + 2.0 * (s % 3), s)
        holder_holds += holder_check(u0, T, chain, gram, P_CONST).holds
        rep = appendix_stability_check(u0, T, chain, gram, P_CONST)
        if not rep.skipped:
            appendix_applicable += 1
            appendix_holds += rep.holds
        direct_holds += direct_backward_check(u0, T, P_SINUS).holds
    ok = (
        holder_holds == 100
        and appendix_holds == appendix_applicable
        and appendix_applicable > 0
        and direct_holds == 100
    )
    report(9, ok, "observation estimate, stability estimate, and direct backward estimate",
           f"holder {holder_holds}/100, appendix {appendix_holds}/{appendix_applicable}, "
           f"direct {direct_holds}/100")


def test_criterion_10_constants_chain():
    c = constants_convex(DOMAIN, 0.2, P_CONST)
    zeroes = c.C0 == 0.0 and c.C1 == 0.0
    full = chain_full_domain()  # K = 1, mu = 1/2
    chain = (full.c1, full.c2, full.c3, full.c4)
    chain_ok = (full.K, full.mu) == (1.0, 0.5) and all(
        abs(a - b) <= 1e-12 * b for a, b in zip(chain, (4.0, 1.0, 2.0, 1.0))
    )
    radii = np.linspace(0.05, 0.45, 10)
    chains = [constants_convex(DOMAIN, float(r), P_CONST) for r in radii]
    mono = all(
        a.ell > b.ell and a.S_ell > b.S_ell and a.mu < b.mu
        for a, b in zip(chains, chains[1:])
    )
    report(10, zeroes and chain_ok and mono,
           "C0 = C1 = 0 for constant p; chain(K=1, mu=1/2) = (4, 1, 2, 1); monotone in r",
           f"zeroes={zeroes}, chain={tuple(round(x, 12) for x in chain)}, monotone={mono}")


def test_criterion_11_determinism():
    cfg = parse_config_text(
        "length = 1.0\nT = 0.25\ndelta_list = 1e-4, 1e-6\nomega_a = 0.3\n"
        "omega_b = 0.7\nmodes = 64\nbank = 32\ntrials = 2\nconstants_mode = empirical\n"
    )
    first = rows_to_csv(run_sweep(cfg))
    second = rows_to_csv(run_sweep(cfg))
    report(11, first == second, "two sweep runs emit bit-identical CSV",
           f"{len(first)} bytes, identical={first == second}")
