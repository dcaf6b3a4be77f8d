"""Shared fixtures."""

import math

import numpy as np
import pytest


@pytest.fixture
def work(monkeypatch):
    """numpy's eigensolvers and FFTs, wrapped so that each call adds to the returned table.

    Keys are (solver, n) and values (calls, items). For eigh and eigvalsh n is the
    matrix order and items the matrices (the product of the leading dimensions); for
    fft and ifft n is the transform length and items the transforms. Counts move
    with the algorithm, never with the host's speed.
    """
    table = {}

    def count(module, name, matrix):
        solver = getattr(module, name)

        def counted(a, *args, **kwargs):
            shape = np.shape(a)
            n = shape[-1] if matrix else shape[kwargs.get("axis", -1)]
            calls, items = table.get((name, n), (0, 0))
            table[(name, n)] = (calls + 1, items + math.prod(shape) // (n * n if matrix else n))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name, matrix in ((np.linalg, "eigh", True), (np.linalg, "eigvalsh", True),
                                 (np.fft, "fft", False), (np.fft, "ifft", False)):
        count(module, name, matrix)
    return table
