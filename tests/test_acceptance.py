"""Acceptance gate: every shipped guarantee at desk-profile sizes.

The checks run once per session into a temporary directory; each test
then asserts one criterion, so a regression names the broken guarantee
directly.  The desk profile enforces the pinned runtime budgets, which
makes this module the performance gate as well.  Tolerances live next
to the checks themselves in ``qins.harness.acceptance``.
"""

import time

import pytest

from qins.harness import acceptance
from qins.harness.acceptance import run_checks


@pytest.fixture(scope="session")
def criteria(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    results = run_checks(out_root=out, profile="desk", quiet=True)
    return {r.cid: r for r in results}


def _require(criteria, cid):
    r = criteria[cid]
    assert r.passed, f"{r.cid} {r.name}: {r.headline} :: {r.details}"


def test_c1_operator_convergence_and_summation_by_parts(criteria):
    _require(criteria, "C1")


def test_c2_decaying_vortex_benchmark_order(criteria):
    _require(criteria, "C2")


def test_c3_bulk_modulus_sweep_limit_behavior(criteria):
    _require(criteria, "C3")


def test_c4_energy_budget_closure(criteria):
    _require(criteria, "C4")


def test_c5_inertial_bookkeeping_identities(criteria):
    _require(criteria, "C5")


def test_c6_frame_change_behavior(criteria):
    _require(criteria, "C6")


def test_c7_referential_transport_along_particles(criteria):
    _require(criteria, "C7")


def test_c8_bit_reproducibility(criteria):
    _require(criteria, "C8")


def test_runner_enforces_budgets_only_in_the_desk_profile(tmp_path, monkeypatch):
    def stub(prof, out, quiet):
        time.sleep(0.01)
        return True, "stub", {"value": 1.0}

    monkeypatch.setattr(acceptance, "CHECKS", (("C0", "stub check", 0.0, stub),))
    (desk,) = run_checks(out_root=tmp_path / "desk", profile="desk", quiet=True)
    (quick,) = run_checks(out_root=tmp_path / "quick", profile="quick", quiet=True)
    assert not desk.passed and desk.seconds > 0.0
    assert quick.passed
    assert desk.details == quick.details == {"value": 1.0, "budget_s": 0.0}
