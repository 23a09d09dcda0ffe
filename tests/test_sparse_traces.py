"""Pinned traces of the sparse-affine drivers.

Cyclic projections, CADR and cyclic DR solve sparsity(n, s) ∩ affine(A, b)
on a seeded corpus of Gaussian instances, each from one start and from a
4-start lockstep block.  Every trace is pinned by the SHA-256 digest of its
steps (x bytes, n, index, lam and ``repr(step_norm)``), status and final
point, in ``tests/golden/drivers/sparse-affine.sha256``, so a change to the
per-step work of these drivers that moves any bit, type or stopping step
fails here.  After an intended change, re-pin with ``PYTHONPATH=src python
tests/test_sparse_traces.py > tests/golden/drivers/sparse-affine.sha256``.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from unionfix import sets, solvers
from unionfix.solvers import StopRule

PINS = Path(__file__).parent / "golden" / "drivers" / "sparse-affine.sha256"
SHAPES = [(8, 2), (12, 3), (16, 3)]
DRIVERS = ["cyclic_projections", "cadr", "cyclic_dr"]
STARTS = 4
STOP = StopRule(max_iters=400)


def instance(n: int, s: int):
    """Gaussian A with n // 2 rows, an s-sparse planted x*, b = A x*, and
    STARTS starts around x* at growing distances."""
    rng = np.random.default_rng([n, s])
    A = rng.standard_normal((n // 2, n))
    xstar = np.zeros(n)
    support = rng.choice(n, size=s, replace=False)
    xstar[support] = rng.choice([-1.0, 1.0], size=s) * rng.uniform(0.5, 1.5, size=s)
    noise = rng.standard_normal((STARTS, n))
    scales = np.array([0.05, 0.2, 0.5, 2.0])[:, None]
    X0 = xstar + scales * noise / np.linalg.norm(noise, axis=1, keepdims=True)
    return sets.sparsity_set(n, s), sets.affine_set(A, A @ xstar), X0


def run(driver: str, n: int, s: int):
    """The one-start trace from the first start, then the block's traces."""
    sparse, affine, X0 = instance(n, s)
    set_list = [affine, sparse] if driver == "cadr" else [sparse, affine]
    solve = getattr(solvers, driver)
    return [solve(set_list, X0[0], stop=STOP)] + solve(set_list, X0, stop=STOP)


def digest(trace) -> str:
    h = hashlib.sha256()
    for step in trace.steps:
        h.update(step.x.tobytes())
        h.update(repr((step.n, step.index, step.lam, step.step_norm)).encode())
    h.update(trace.status.encode())
    h.update(trace.x_final.tobytes())
    return h.hexdigest()


def digests(driver: str, n: int, s: int) -> dict[str, str]:
    """Trace name -> digest for one driver and shape."""
    one, *block = run(driver, n, s)
    stem = f"{driver}-{n}-{s}"
    out = {f"{stem}-one": digest(one)}
    out.update({f"{stem}-block-{k}": digest(t) for k, t in enumerate(block)})
    return out


def pinned() -> dict[str, str]:
    lines = PINS.read_text().splitlines()
    return {name: value for value, name in (line.split() for line in lines)}


@pytest.mark.parametrize("n, s", SHAPES, ids=lambda v: str(v))
@pytest.mark.parametrize("driver", DRIVERS)
def test_traces_match_pins(driver, n, s):
    got = digests(driver, n, s)
    want = {name: value for name, value in pinned().items()
            if name.startswith(f"{driver}-{n}-{s}-")}
    assert len(want) == 1 + STARTS
    assert got == want


def test_every_pin_has_a_run():
    assert len(pinned()) == len(DRIVERS) * len(SHAPES) * (1 + STARTS)


if __name__ == "__main__":
    for driver in DRIVERS:
        for n, s in SHAPES:
            for name, value in digests(driver, n, s).items():
                print(f"{value}  {name}")
