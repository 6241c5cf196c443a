"""One slot of an untraced round, in a fresh interpreter.

``run.py`` starts this script once per slot::

    python3 perfbench/slot.py <scale> <seed> <spawned> <shap passes> <model>...

It imports the program and builds the recipes and the model zoo, as a cold
``drcshap`` command does, and reports the time since ``spawned`` (the
parent's ``time.monotonic()`` just before it started this process) as the
cold start.  Given no model, it stops there.  Otherwise it builds the suite,
explains the design, runs the global SHAP passes and the given models'
Table II columns.  It prints one JSON line with the timing samples, outputs
and checks.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro.cli  # noqa: E402,F401  what every drcshap command imports
from repro.bench.suite import suite_recipes  # noqa: E402
from repro.core.models import model_zoo  # noqa: E402


def main(argv: list[str]) -> None:
    scale, seed, spawned, shap_passes = (float(argv[0]), int(argv[1]), float(argv[2]),
                                         int(argv[3]))
    suite_recipes(scale)
    model_zoo("fast")
    setup_s = time.monotonic() - spawned
    if not argv[4:]:
        print(json.dumps({"samples": {"setup": [setup_s]}, "outputs": {}, "score_rows": [],
                          "rf_aprc": None, "problems": [], "attempted": 0, "failed": 0}))
        return

    import checks
    from probes import UnitTimer
    from stages import Stages

    st = Stages(scale, seed)
    st.samples["setup"] = [setup_s]
    st.flow()
    st.explain()
    for _ in range(shap_passes):
        st.shap()
    st.check_explain()
    result, _ = st.table2(UnitTimer(st.samples), [m for m in st.models if m.name in argv[4:]])
    print(json.dumps({
        "samples": st.samples,
        "outputs": {k: sorted(v) for k, v in st.outputs.items()},
        "score_rows": checks.score_rows(result.scores),
        "rf_aprc": result.averages("RF")[2] if "RF" in result.model_order else None,
        "shap_rows": len(st.X_global),
        "problems": st.problems,
        "attempted": st.attempted,
        "failed": st.failed,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
