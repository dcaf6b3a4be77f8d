"""Full acceptance sweep: every criterion must hold at its stated tolerance.

Each case prints one PASS/FAIL line plus the measured numbers, so the pytest
output doubles as the acceptance report.
"""

import pytest

from blochdyn import acceptance, conduction
from blochdyn.acceptance import CRITERIA
from blochdyn.central_equation import band_derivatives

SEED = 12345


@pytest.mark.parametrize("cid,name,check", CRITERIA,
                         ids=[f"{cid:02d}-{name}" for cid, name, _ in CRITERIA])
def test_criterion(cid, name, check):
    result = check(SEED)
    print(f"[{'PASS' if result.passed else 'FAIL'}] criterion {cid}: {name}")
    print(f"       {result.detail}")
    assert result.cid == cid
    assert result.passed, f"criterion {cid} ({name}): {result.detail}"


def test_criterion_8_makes_each_band_pass_once(monkeypatch):
    # 20 filled-band sums, the shifted half-filled sum, and one unshifted pass
    # that serves the classification trio, the half-filled sum and its Σ m/m*
    calls = []

    def counted(*args):
        calls.append(args)
        return band_derivatives(*args)

    monkeypatch.setattr(conduction, "band_derivatives", counted)
    monkeypatch.setattr(acceptance, "band_derivatives", counted)
    assert acceptance.criterion_8_conduction(SEED).passed
    assert len(calls) == 22
    assert sum(len(ks) for ks, *_ in calls) == 5504
