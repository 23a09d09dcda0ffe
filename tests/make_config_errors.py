"""Write tests/golden/config-errors.jsonl: malformed configs and the exact
ConfigError message each one raises.

Each small valid base config is mutated one field at a time: a key
removed, an unknown key added, a kind that is unknown or unhashable, a
list emptied, shortened or lengthened, and a value replaced with true,
"1", null, -1, 0.5, +-1e308, the JSON literals 1e400 and NaN, or an
integer of 400 digits.
Every message the loader raises as a ConfigError is kept once, with the
first config that raised it, as JSON text (so the literals survive).

    PYTHONPATH=src python tests/make_config_errors.py

The corpus pins the messages of the commit it was written at; the tests
check that later code raises them byte for byte, so rerun this only to
add cases, at a commit whose messages are the pinned ones.
"""

from __future__ import annotations

import copy
import json
import warnings
from pathlib import Path

from unionfix.cli import ConfigError, ExperimentConfig

OUT = Path(__file__).parent / "golden" / "config-errors.jsonl"

#: sentinels that the JSON text swaps for literals json.dumps cannot write
LITERALS = {"__1e400__": "1e400", "__nan__": "NaN", "__int400__": "9" * 400}
VALUES = [True, "1", None, -1, 0.5, 1e308, -1e308, *LITERALS]

POINT = [0.5, -0.25]
QUADRATIC = {"kind": "quadratic", "Q": [[2.0, 0.5], [0.5, 1.0]], "b": [0.1, -0.2],
             "c": 0.5}
SETS = {
    "affine": {"kind": "affine", "A": [[1.0, 0.5]], "b": [1.0]},
    "box": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 2.0]},
    "ball": {"kind": "ball", "center": POINT, "radius": 1.5},
    "halfspace": {"kind": "halfspace", "a": [1.0, -1.0], "beta": 0.25},
    "singleton": {"kind": "singleton", "point": POINT},
    "span": {"kind": "span", "vectors": [[1.0, 1.0]], "offset": POINT},
    "sparsity": {"kind": "sparsity", "n": 2, "s": 1},
    "union-of": {"kind": "union-of", "members": [
        {"kind": "singleton", "point": POINT},
        {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}]},
}
PIECES = {
    "quadratic": QUADRATIC,
    "l1": {"kind": "l1", "weight": 0.5},
    "l2": {"kind": "l2", "weight": 0.5},
    **{f"indicator-{k}": {**SETS[k], "kind": f"indicator-{k}"}
       for k in ("box", "ball", "singleton", "halfspace", "affine")},
}


def config(problem: dict, algorithm: dict, **top) -> dict:
    return {"name": "case", "problem": problem, "algorithm": algorithm,
            "x0": [0.2, -0.3], **top}


#: (base config, the path prefix whose fields are mutated)
BASES = [
    (config({"f": {"pieces": [QUADRATIC, PIECES["l1"]]}},
            {"kind": "ppa", "gamma": 1.0, "tie_tol": 1e-9,
             "policy": {"kind": "seeded-random"}},
            stop={"step_tol": 1e-12, "max_iters": 50}, seed=3, output="out.jsonl",
            verify={"pairs": 10, "lo": [-1.0, -1.0], "hi": [1.0, 1.0], "tol": 1e-9},
            sweep={"radius": 0.5, "count": 4, "round_decimals": 6}), ()),
    (config({"smooth": {"kind": "quadratic", "Q": [[1.0, 0.0], [0.0, 0.5]],
                        "b": [0.1, 0.0]},
             "g": {"pieces": [PIECES["indicator-singleton"]]}},
            {"kind": "forward-backward", "gamma": 0.5, "lam": 1.0}), ()),
    (config({"f": {"pieces": [QUADRATIC]},
             "g": {"pieces": [PIECES["indicator-singleton"]]}},
            {"kind": "douglas-rachford", "gamma": 0.5, "lam": 1.5}), ("algorithm",)),
    *((config({"f": {"pieces": [piece]}}, {"kind": "ppa", "gamma": 1.0}),
       ("problem", "f", "pieces", 0)) for piece in PIECES.values()),
    *((config({"sets": [s, SETS["span"]]}, {"kind": "cyclic-projections"}),
       ("problem", "sets", 0)) for s in SETS.values()),
    (config({"sets": [SETS["box"], SETS["ball"]]}, {"kind": "cadr"}), ()),
    (config({"sets": [SETS["box"], SETS["ball"]]}, {"kind": "cyclic-dr"}),
     ("algorithm",)),
]


def mutations(node, path: tuple):
    """(path, replacement) for every mutation of the node at path and of
    the nodes below it; a key is removed by replacing its dict."""
    if isinstance(node, dict):
        yield path, {**node, "bogus": 1}
        for key, value in node.items():
            yield path, {k: v for k, v in node.items() if k != key}
            if key == "kind":
                yield path + (key,), "mystery"
                yield path + (key,), []
            yield from mutations(value, path + (key,))
    elif isinstance(node, list):
        yield path, []
        yield path, node[:-1]
        yield path, node + node[-1:]
        for k, value in enumerate(node):
            yield from mutations(value, path + (k,))
    else:
        for value in VALUES:
            if value != node:
                yield path, value


def replaced(cfg: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(cfg)
    if not path:
        return value
    node = out
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    return out


def text_of(cfg) -> str:
    text = json.dumps(cfg)
    for sentinel, literal in LITERALS.items():
        text = text.replace(f'"{sentinel}"', literal)
    return text


def cases():
    """One case per distinct message, from the first config that raises it."""
    seen = set()
    for base, prefix in BASES:
        node = base
        for part in prefix:
            node = node[part]
        for path, value in mutations(node, prefix):
            text = text_of(replaced(base, path, value))
            try:
                with warnings.catch_warnings():
                    # the suite turns numpy warnings into errors
                    warnings.simplefilter("error", RuntimeWarning)
                    ExperimentConfig.from_dict(json.loads(text))
            except RuntimeWarning as exc:
                print(f"skipped, warns ({exc}): {text}")
            except ConfigError as exc:
                if str(exc) not in seen:
                    seen.add(str(exc))
                    yield {"config": text, "message": str(exc)}


def main() -> None:
    rows = list(cases())
    OUT.write_text("".join(json.dumps(r) + "\n" for r in rows))
    print(f"{len(rows)} cases written to {OUT}")


if __name__ == "__main__":
    main()
