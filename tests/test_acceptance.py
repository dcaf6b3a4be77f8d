"""Full acceptance sweep: every criterion must hold at its stated tolerance.

Each case prints one PASS/FAIL line plus the measured numbers, so the pytest
output doubles as the acceptance report.
"""

import random
import re

import pytest

from blochdyn import acceptance, conduction
from blochdyn.acceptance import CRITERIA, run_all
from blochdyn.central_equation import band_derivatives
from blochdyn.conduction import BandFilling, velocity_sum
from blochdyn.errors import ConfigError
from blochdyn.potential import random_symmetric

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
    # 10 shifted filled-band sums, the shifted half-filled sum, and one unshifted
    # pass that serves the classification trio, the half-filled sum and its Σ m/m*.
    # The 10 shifted filled-band passes solve 256 k each, the unshifted pass its
    # 256 states at 128 |k| and the shifted half filling 128 k: 10·256 + 128 + 128
    calls = []

    def counted(*args):
        calls.append(args)
        return band_derivatives(*args)

    monkeypatch.setattr(conduction, "band_derivatives", counted)
    monkeypatch.setattr(acceptance, "band_derivatives", counted)
    assert all(ok for ok, _ in acceptance.criterion_8_conduction(SEED))
    assert len(calls) == 12
    assert sum(len(ks) for ks, *_ in calls) == 2816


@pytest.mark.parametrize("seed", [SEED, 1])
def test_criterion_8_unshifted_filled_bands_sum_to_exactly_zero(seed):
    # criterion 8 gates only the shifted filled bands: unshifted, each of its
    # lattices' filled band is whole mirror pairs, and time reversal sums it to 0.0
    rng = random.Random(seed)
    for _ in range(10):
        pot = random_symmetric(1.0, rng)
        rng.uniform(-0.3, 0.3)      # the criterion's shift draw
        assert velocity_sum(BandFilling(0, 256, 1.0), pot, 10) == 0.0


def test_criterion_8_draws_frozen_lattices_from_the_standard_library(monkeypatch):
    # random.Random keeps its sequence for a given seed, so the first lattice and
    # shift at SEED are frozen here; another generator draws other values
    class Drawn(Exception):
        pass

    def first(filling, pot, n):
        raise Drawn(filling, pot)

    monkeypatch.setattr(acceptance, "velocity_sum", first)
    with pytest.raises(Drawn) as drawn:
        acceptance.criterion_8_conduction(SEED)
    filling, pot = drawn.value.args
    v1, v2, v3 = 0.7999438470544094, 1.2902478111044917, 0.7420940273861708
    assert dict(pot.items()) == {1: v1, -1: v1, 2: v2, -2: v2, 3: v3, -3: v3}
    assert (filling.band, filling.fraction) == (0, 1.0)
    assert filling.shift == 0.03960490123731675 * acceptance.TWO_PI == 0.2488449335466072


@pytest.mark.parametrize("only, message", [([99], "unknown criteria [99]"),
                                           ([5, 99], "unknown criteria [99]"),
                                           ([], "selected no criterion")])
def test_run_all_refuses_a_bad_selection(only, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_all(SEED, only=only)
