"""Acceptance gate: every shipped guarantee, each at its fixed sizes.

The gate runs once per session into a temporary directory; each test
then asserts one criterion, so a regression names the broken guarantee
directly.  Every check must also finish within its pinned runtime
budget, which makes this module the performance gate as well.  Sizes
and tolerances live next to the checks themselves in
``qins.harness.acceptance``.
"""

import json
import time

import pytest

from qins.harness import acceptance
from qins.harness.acceptance import verify
from qins.harness.cli import main
from qins.harness.io import MANIFEST_NAME


@pytest.fixture(scope="session")
def gate(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    return out, verify(out_root=out, quiet=True)


@pytest.fixture(scope="session")
def criteria(gate):
    return {r.cid: r for r in gate[1]}


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


def test_the_gate_directory_records_every_check_and_inspects_clean(gate):
    out, _ = gate
    results = json.loads((out / "results.json").read_text())
    assert sorted(results) == ["all_passed", "results"] and results["all_passed"]
    assert [r["cid"] for r in results["results"]] == [f"C{i}" for i in range(1, 9)]
    assert all(r["passed"] for r in results["results"])
    assert main(["inspect", str(out)]) == 0
    runs = sorted(p.parent.name for p in out.glob(f"*/{MANIFEST_NAME}"))
    assert runs == sorted([
        "taylor_green", "k_sweep", "energy_audit_32", "energy_audit_64", "galilean",
        "transport_check_32", "transport_check_64", "determinism_a", "determinism_b",
    ])
    assert all(main(["inspect", str(out / run)]) == 0 for run in runs)


@pytest.mark.parametrize("experiment", ["energy_audit", "transport_check"])
def test_the_fine_run_of_c4_and_c7_halves_the_coarse_step(gate, experiment):
    # the acoustic bound sets both steps, so the fine run takes twice the steps
    out, _ = gate
    coarse, fine = (
        json.loads((out / f"{experiment}_{n}" / "report.json").read_text()) for n in (32, 64)
    )
    assert fine["dt"] == coarse["dt"] / 2.0
    assert fine["samples"] - 1 == 2 * (coarse["samples"] - 1)


def test_a_check_fails_only_when_it_overruns_its_budget(tmp_path, monkeypatch):
    def stub(out, quiet):
        time.sleep(0.01)
        return True, "stub", {"value": 1.0}

    checks = (("C0", "overrun", 0.0, stub), ("C9", "within", 60.0, stub))
    monkeypatch.setattr(acceptance, "CHECKS", checks)
    over, within = verify(out_root=tmp_path, quiet=True)
    assert not over.passed and over.seconds > 0.0
    assert within.passed
    assert over.details == {"value": 1.0, "budget_s": 0.0}
    assert within.details == {"value": 1.0, "budget_s": 60.0}
