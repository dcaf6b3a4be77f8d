"""Full acceptance sweep: every criterion must hold at its stated tolerance.

Each case prints one PASS/FAIL line plus the measured numbers, so the pytest
output doubles as the acceptance report.
"""

import re

import pytest

from blochdyn import acceptance, conduction
from blochdyn.acceptance import CRITERIA, run_all
from blochdyn.central_equation import band_derivatives
from blochdyn.errors import ConfigError

SEED = 12345


# test ids, one per row of CRITERIA
SHORT = ("free-packet", "cyclotron", "crossed-field", "band-oracle", "weak-gap", "adiabatic",
         "mass-dynamics", "conduction", "solenoid", "integrators")


@pytest.mark.parametrize("cid,name", [(cid, name) for cid, name, *_ in CRITERIA],
                         ids=[f"{cid:02d}-{short}" for (cid, *_), short in zip(CRITERIA, SHORT)])
def test_criterion(cid, name):
    [result] = run_all(SEED, only=[cid])
    print(f"[{'PASS' if result.passed else 'FAIL'}] criterion {cid}: {name}")
    print(f"       {result.detail}")
    assert (result.cid, result.name) == (cid, name)
    assert result.passed, f"criterion {cid} ({name}): {result.detail}"


def test_criterion_8_makes_each_band_pass_once(monkeypatch):
    # 19 filled-band sums, the shifted half-filled sum, and one unshifted pass that
    # serves the last potential's filled-band sum, the classification trio, the
    # half-filled sum and its Σ m/m*. The 10 unshifted passes each solve their 256
    # states at 128 |k|, the 10 shifted filled-band passes 256 k each and the
    # shifted half filling 128 k: 10·128 + 10·256 + 128
    calls = []

    def counted(*args):
        calls.append(args)
        return band_derivatives(*args)

    monkeypatch.setattr(conduction, "band_derivatives", counted)
    monkeypatch.setattr(acceptance, "band_derivatives", counted)
    assert all(ok for ok, _ in acceptance.criterion_8_conduction(SEED))
    assert len(calls) == 21
    assert sum(len(ks) for ks, *_ in calls) == 3968


@pytest.mark.parametrize("only, message", [([99], "unknown criteria [99]"),
                                           ([5, 99], "unknown criteria [99]"),
                                           ([], "selected no criterion")])
def test_run_all_refuses_a_bad_selection(only, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_all(SEED, only=only)
