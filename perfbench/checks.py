"""Output checks, output fingerprints and the digest ledger of the benchmark.

Every check returns a list of problems (empty when the output is right), so
the runner can report all of them at once and the self-tests can feed it
deliberately broken outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.features.names import NUM_FEATURES

#: |sum(phi) + E f - f(x)| allowed on every explained row (Tree SHAP is exact).
LOCAL_ACCURACY_TOL = 1e-9
#: Hotspot-path phi against batched phi on the same row.
PATH_AGREEMENT_TOL = 1e-10


def check_flow(suite, expected_designs: list[str]) -> list[str]:
    """Each design: X is (nx*ny, 387) and finite, y is binary."""
    problems = []
    if suite.names != expected_designs:
        problems.append(f"suite designs {suite.names} != {expected_designs}")
    for d in suite.designs:
        if d.X.shape != (d.grid_nx * d.grid_ny, NUM_FEATURES):
            problems.append(f"{d.name}: X shape {d.X.shape} != "
                            f"({d.grid_nx}*{d.grid_ny}, {NUM_FEATURES})")
        if not np.isfinite(d.X).all():
            problems.append(f"{d.name}: X has non-finite values")
        if not np.isin(d.y, (0, 1)).all():
            problems.append(f"{d.name}: y is not binary")
    return problems


def expected_units(suite, model_names: list[str]) -> dict[str, set[str]]:
    """(model, group) unit name -> designs the unit must score.

    A unit whose training groups hold no positives legitimately scores
    nothing; every other unit scores each test design with 0 < hotspots < n.
    """
    groups = sorted({d.group for d in suite.designs if d.group >= 0})
    out = {}
    for g in groups:
        train_pos = sum(d.num_hotspots for d in suite.designs if d.group != g)
        designs = {d.name for d in suite.designs
                   if d.group == g and 0 < d.num_hotspots < d.num_samples}
        for m in model_names:
            out[f"{m}__g{g}"] = designs if train_pos else set()
    return out


def check_table2(suite, result, failed_units: list[str]) -> list[str]:
    """Every attempted unit is scored or counted as failed; metrics in [0, 1]."""
    problems = []
    group_of = {d.name: d.group for d in suite.designs}
    scored: dict[str, set[str]] = {}
    for s in result.scores:
        scored.setdefault(f"{s.model}__g{group_of[s.design]}", set()).add(s.design)
        for field in ("tpr_star", "prec_star", "a_prc", "a_roc"):
            v = getattr(s.metrics, field)
            if not 0.0 <= v <= 1.0:
                problems.append(f"{s.model}/{s.design}: {field}={v} outside [0, 1]")
    for unit, designs in expected_units(suite, result.model_order).items():
        got = scored.get(unit, set())
        if unit in failed_units:
            if got:
                problems.append(f"{unit}: counted as failed but scored {sorted(got)}")
        elif got != designs:
            problems.append(f"{unit}: scored {sorted(got)}, expected {sorted(designs)}")
    return problems


def check_local_accuracy(name: str, phi, f_x, expected_value) -> list[str]:
    """|sum(phi) + E f - f(x)| within tolerance on every row."""
    gap = np.abs(phi.sum(axis=1) + expected_value - f_x)
    bad = np.flatnonzero(gap > LOCAL_ACCURACY_TOL)
    if not bad.size:
        return []
    return [f"{name}: batched local accuracy off on {bad.size} rows (max {gap.max():.3g})"]


def check_explain(dataset, flow, reports, phi, f_x, expected_value) -> list[str]:
    """Local accuracy on both SHAP paths, and path agreement.

    ``phi``/``f_x`` are the batched global pass's rows of ``dataset``;
    ``reports`` are the hotspot explanations of the same model.
    """
    problems = []
    if (flow.grid.nx, flow.grid.ny) != (dataset.grid_nx, dataset.grid_ny):
        problems.append(f"{dataset.name}: flow grid {flow.grid.nx}x{flow.grid.ny} "
                        f"!= dataset grid {dataset.grid_nx}x{dataset.grid_ny}")
    elif not (np.array_equal(flow.X, dataset.X) and np.array_equal(flow.y, dataset.y)):
        problems.append(f"{dataset.name}: re-run flow X/y differ from the suite rows")
    problems += check_local_accuracy(dataset.name, phi, f_x, expected_value)
    for r in reports:
        row = dataset.sample_index(*r.cell)
        hot = np.array([c.shap for c in r.explanation.contributions])
        err = abs(hot.sum() + r.explanation.base_value - r.prediction)
        if err > LOCAL_ACCURACY_TOL:
            problems.append(f"{dataset.name} {r.cell}: hotspot local accuracy off by {err:.3g}")
        diff = float(np.abs(hot - phi[row]).max())
        if diff > PATH_AGREEMENT_TOL:
            problems.append(f"{dataset.name} {r.cell}: hotspot phi differs from "
                            f"batched phi by {diff:.3g}")
    return problems


# -- fingerprints ---------------------------------------------------------------------


def _sha(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def digest_suite(suite) -> str:
    """SHA-256 of every design's X (float64) and y, in suite order."""
    return _sha(*(a for d in suite.designs for a in (d.X, d.y)))


def score_rows(scores) -> list[list[str]]:
    """A Table II score table as sorted rows of strings (exact float reprs)."""
    return sorted(
        [s.model, s.design, repr(s.metrics.tpr_star), repr(s.metrics.prec_star),
         repr(s.metrics.a_prc), repr(s.metrics.a_roc)]
        for s in scores
    )


def digest_score_rows(rows) -> str:
    """SHA-256 of a table of :func:`score_rows`, in any row order."""
    return hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()


def digest_scores(scores) -> str:
    """SHA-256 of a Table II score table."""
    return digest_score_rows(score_rows(scores))


def digest_phi(phi: np.ndarray) -> str:
    return _sha(np.asarray(phi, dtype=np.float64))


def source_fingerprint(src: Path) -> str:
    """SHA-256 over the path and bytes of every ``*.py`` file under ``src``.

    Part of the ledger key, so a revision whose outputs change on purpose
    starts its own entry instead of failing against another revision's.
    """
    h = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Ledger:
    """Output digests per key, kept across runs in one checkout.

    The key names the suite scale and the program source (see
    :func:`source_fingerprint`).  The first run at a key records its digests;
    every later run at that key, of any seed, must reproduce them, so repeated
    runs of one revision are checked to be deterministic.
    """

    def __init__(self, path: Path):
        self.path = Path(path)

    def _load(self) -> dict:
        try:
            return json.loads(self.path.read_text())
        except FileNotFoundError:
            return {}

    def check_and_record(self, key: str, digests: dict[str, str]) -> list[str]:
        doc = self._load()
        known = doc.get(key)
        if known is None:
            doc[key] = digests
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(doc, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return []
        return [f"{key}: {name} digest {digests[name][:12]} != earlier run's "
                f"{str(known.get(name))[:12]}"
                for name in sorted(digests) if known.get(name) != digests[name]]
