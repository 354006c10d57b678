"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single PASS line (pytest reports the failures).
"""

import math
import time

import numpy as np
import pytest

from entact.qcore import chi_q, fidelity
from entact.protocol import WaveplateSetting, bloch_vector, default_net, premeasurement
from entact.measures import (
    discord_numeric,
    discord_x_state,
    negativities_theory,
    negativity,
    negativity_of_quantumness,
    negativity_offdiag,
)
from entact.epsnet import cap_radius, sphere_scan, verify_covering, verify_packing
from entact.witnesses import expect, w2, w3
from entact.tomo import reconstruct, simulate_counts
from entact.cli import ExperimentConfig
from reference import net_settings

Q_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def report(num, name, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed <= limit, f"criterion {num} exceeded its {limit:.0f} s budget ({elapsed:.1f} s)"
    print(f"\nACCEPTANCE {num} ({name}): PASS [{elapsed:.1f} s]")


def test_01_closed_form_oracle_agreement():
    t0 = time.monotonic()
    net = default_net()
    worst = 0.0
    for q in np.arange(0.0, 1.0 + 1e-12, 0.05):
        chi = chi_q(float(q))
        for s in net_settings(net):
            brute = negativity(premeasurement(chi, s), [0, 1])
            worst = max(worst, abs(brute - float(negativities_theory(float(q), s.theta, s.phi))))
    assert worst <= 1e-9, f"worst closed-form deviation {worst:.3e}"
    report(1, "closed-form oracle agreement", t0, 10.0)


def test_02_activation_identity():
    t0 = time.monotonic()
    net = default_net()
    for q in Q_GRID:
        chi = chi_q(q)
        vals = [negativity_offdiag(chi, bloch_vector(s.theta, s.phi)) for s in net_settings(net)]
        assert min(vals) == pytest.approx(q, abs=1e-9), f"min-net negativity at q={q}"
    report(2, "activation identity min N = q", t0, 5.0)


def test_03_discord_triple_agreement():
    t0 = time.monotonic()
    for q in Q_GRID:
        chi = chi_q(q)
        assert discord_x_state(chi) == pytest.approx(q, abs=1e-10)
        assert discord_numeric(chi).value == pytest.approx(q, abs=1e-3)
        assert negativity_of_quantumness(chi).value == pytest.approx(q, abs=1e-6)
    report(3, "discord triple agreement", t0, 120.0)


def test_04_certification_positivity():
    t0 = time.monotonic()
    net = default_net()
    step = math.pi / 180
    scans = sphere_scan([chi_q(q) for q in Q_GRID], net, grid_step=step)
    for q, (min_low, argmin, *_) in zip(Q_GRID[1:], scans[1:]):
        assert min_low > 0, f"q={q} not certified (min_low={min_low:.4f} at {argmin})"
    min_low0 = scans[0].min_low
    assert min_low0 <= 0, "classical point must not certify"
    report(4, "certification positivity over the sphere", t0, 60.0)


def test_05_net_verification():
    t0 = time.monotonic()
    net = default_net()
    packed, dmin = verify_packing(net, 0.5)
    assert packed and dmin == pytest.approx(0.5, abs=1e-9)
    # the exact covering radius of the net is 2 sin(pi/12) = 0.5176...;
    # chord 0.52 covers with margin while chord 1/2 falls just short
    covered, gap = verify_covering(net, 0.52, resolution=10_000)
    assert covered, f"covering gap {gap:.4f} exceeds 0.52"
    assert gap <= 2.0 * math.sin(math.pi / 12) + 1e-9
    assert cap_radius(0.5) == pytest.approx(0.242061, abs=1e-6)
    report(5, "net covering/packing verification", t0, 5.0)


def test_06_witness_line():
    t0 = time.monotonic()
    s = WaveplateSetting(math.pi / 4, 0.0)
    for q in Q_GRID:
        chi = chi_q(q)
        v2 = expect(w2(), chi)
        v3 = expect(w3(), premeasurement(chi, s))
        assert v2 == pytest.approx(0.5 - q, abs=1e-9)
        assert v3 == pytest.approx(0.5 - q, abs=1e-9)
        assert (v2 < 0) == (q > 0.5)
        assert (v3 < 0) == (q > 0.5)
    report(6, "witness line 1/2 - q", t0, 5.0)


def test_07_tomography_statistics():
    t0 = time.monotonic()
    truth = premeasurement(chi_q(0.2), WaveplateSetting(math.pi / 12, math.pi / 6))
    negs, fids = [], []
    for rep in range(100):
        recon = reconstruct(simulate_counts(truth, 1e4, seed=1, rep=rep))
        negs.append(negativity(recon, [0, 1]))
        fids.append(fidelity(recon, truth))
    neg_std = float(np.std(negs, ddof=1))
    mean_fid = float(np.mean(fids))
    assert neg_std < 1e-2, f"negativity std {neg_std:.4f}"
    assert mean_fid >= 0.99, f"mean reconstruction fidelity {mean_fid:.4f}"
    report(7, "tomography statistics", t0, 120.0)


def test_08_noisy_preparation_envelope():
    t0 = time.monotonic()
    cfg = ExperimentConfig(noise="werner:0.9564")
    net = default_net()
    for q in Q_GRID:
        chi = cfg.input_state(q)
        min_net = min(negativity_offdiag(chi, bloch_vector(s.theta, s.phi))
                      for s in net_settings(net))
        assert abs(min_net - q) <= 0.12, f"q={q}: noisy minimum {min_net:.4f}"
    report(8, "noisy-preparation envelope", t0, 30.0)
