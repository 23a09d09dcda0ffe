"""Flats (span and affine sets) project in one of three forms, chosen once
from the flat's shape by ``projections.flat_projection``: the dense
projector ``P x + c``, the direction basis ``w + N (N' (x - w))`` and the
normal basis ``x - Q (Q' (x - w))``.  Each form's block kernel is its point
kernel row by row, bit for bit; each lies near the exact projection; and the
form each benchmark rung and pinned config takes is pinned here."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unionfix
from unionfix import cli, projections, sets

ROOT = Path(__file__).resolve().parents[1]
FORMS = ("dense", "direction", "normal")
#: (n, k): each dimension with k in {0, 1, n/2, n - 1}
SHAPES = [(n, k) for n in (2, 5, 8, 20) for k in sorted({0, 1, n // 2, n - 1})]


def flat(n, k, seed):
    """An orthonormal direction basis N (n x k), its complement and an offset."""
    rng = np.random.default_rng([n, k, seed])
    N = (projections.orthonormal_basis(rng.standard_normal((n, k))) if k
         else np.zeros((n, 0)))
    return N, projections.complement_basis(N), rng.standard_normal(n) * 1e3


def kernels(form, N, Q, offset):
    return projections._flat_kernels(form, offset, N.shape[1], lambda: N, lambda: Q)


def points(n, scale, order, seed):
    """Seeded rows at the given scale, signed zeros and an alternating-sign
    zero row first, in the given memory order."""
    rng = np.random.default_rng([n, seed])
    X = scale * rng.standard_normal((9, n))
    X[:3] = [np.zeros(n), -np.zeros(n), np.where(np.arange(n) % 2, -0.0, 0.0)]
    return np.array(X, order=order)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n, k", SHAPES)
@pytest.mark.parametrize("form", FORMS)
def test_the_block_kernel_is_the_point_kernel(form, n, k, order):
    N, Q, offset = flat(n, k, 0)
    project, project_many = kernels(form, N, Q, offset)
    assert project.form == form
    for scale in (1e-300, 1.0, 1e150):
        X = points(n, scale, order, 1)
        block = project_many(X)
        assert block.shape == X.shape
        for x, row in zip(X, block):
            assert project(x).tobytes() == row.tobytes()
            assert project(x.copy()).tobytes() == row.tobytes()


@pytest.mark.parametrize("n, k", SHAPES)
@pytest.mark.parametrize("form", FORMS)
def test_each_form_is_near_the_exact_projection(form, n, k):
    # bound: 4 n eps (||x|| + ||w||) from the formula w + N N'(x - w) taken
    # in extended precision (the forms measured at most 1.6 n eps here)
    N, Q, offset = flat(n, k, 2)
    project_many = kernels(form, N, Q, offset)[1]
    X = points(n, 1.0, "C", 3) * np.geomspace(1e-3, 1e6, 9)[:, None]
    Nl, Xl, wl = (a.astype(np.longdouble) for a in (N, X, offset))
    exact = wl + (Xl - wl) @ Nl @ Nl.T
    err = np.linalg.norm((project_many(X) - exact).astype(float), axis=1)
    bound = 4 * n * np.finfo(float).eps * (np.linalg.norm(X, axis=1)
                                           + np.linalg.norm(offset))
    assert (err <= bound).all()


def test_the_form_follows_the_shape():
    # dense where min(k, n - k) > max(1, n/4); else the smaller basis, N at
    # a tie: one-vector bases keep the direction formula
    want = {(1, 0): "direction", (1, 1): "normal", (2, 1): "direction",
            (3, 1): "direction", (3, 2): "normal", (4, 2): "dense",
            (4, 3): "normal", (6, 3): "dense", (8, 2): "direction",
            (8, 3): "dense", (20, 5): "direction", (20, 6): "dense",
            (20, 15): "normal", (3000, 2970): "normal",
            (100000, 99999): "normal"}
    assert {shape: projections.flat_form(*shape) for shape in want} == want


def test_only_the_chosen_basis_is_built():
    built = []

    def basis(name, n, k):
        def build():
            built.append(name)
            return flat(n, k, 4)[0 if name == "N" else 1]
        return build

    for (n, k), want in {(8, 3): ["N"], (8, 5): ["Q"], (8, 1): ["N"],
                         (8, 7): ["Q"], (8, 4): ["N"]}.items():
        built.clear()
        projections.flat_projection(np.zeros(n), k, basis("N", n, k), basis("Q", n, k))
        assert built == want, (n, k)


def test_every_sparse_ladder_rung_projects_densely(monkeypatch):
    # the rungs' shapes are read from the benchmark's own table
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "bench" / "workloads.py")
    ladder = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "ladder", ladder)  # for its dataclasses
    spec.loader.exec_module(ladder)
    rng = np.random.default_rng(7)
    for algo, n, s, _ in ladder.SPARSE_MIX:
        m = ladder.CP_ROWS[n] if algo == "cp" else n // 2
        A = rng.standard_normal((m, n))
        (piece,) = sets.affine_set(A, A @ rng.standard_normal(n)).pieces.values()
        assert piece.project.form == "dense", (algo, n, m)


#: the forms of the flats in each preset and pinned config, in config order
CONFIG_FORMS = {"crossed-lines": ["direction", "direction"],
                "sparse-affine-feasibility": ["normal"],
                "golden-cadr": ["dense"], "golden-cyclic-dr": ["dense"],
                "golden-union-of": ["normal"]}


def flat_forms(spec, dim):
    """The forms of the span and affine sets in a set spec, members included."""
    if spec["kind"] in ("span", "affine"):
        (piece,) = cli.build_set(spec, dim).pieces.values()
        return [piece.project.form]
    return [form for member in spec.get("members", ()) for form in flat_forms(member, dim)]


@pytest.mark.parametrize("source", sorted(cli.PRESETS)
                         + sorted(str(p) for p in (ROOT / "tests" / "golden").glob("*.json")),
                         ids=lambda s: Path(s).stem)
def test_each_config_takes_its_pinned_form(source):
    raw = cli.PRESETS.get(source) or json.loads(Path(source).read_text())
    specs = raw["problem"].get("sets", [])
    got = [form for spec in specs for form in flat_forms(spec, len(raw["x0"]))]
    assert got == CONFIG_FORMS.get(raw["name"], [])


def test_a_hyperplane_in_r100000_builds_small():
    # the full SVD's V' alone would be 80 GB; the normal form keeps Q, one
    # column, and the reduced SVD.  The peak RSS is VmHWM, the high-water
    # mark of the subprocess's own memory image: getrusage's ru_maxrss is
    # kept across exec, so it would read the forking test process's peak
    code = ("import re\n"
            "import numpy as np\n"
            "from unionfix import sets\n"
            "S = sets.affine_set(np.ones((1, 100000)), [1.0])\n"
            "(piece,) = S.pieces.values()\n"
            "y = piece.project(np.zeros(100000))\n"
            "status = open('/proc/self/status').read()\n"
            "print(piece.project.form, float(np.abs(y - 1e-5).max()),\n"
            "      re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n")
    shown = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(unionfix.__file__).parents[1])})
    assert shown.returncode == 0, shown.stderr
    form, err, peak_kib = shown.stdout.split()
    assert form == "normal"
    assert float(err) < 1e-18
    assert int(peak_kib) * 1024 < 100e6
