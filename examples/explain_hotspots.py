"""Reproduce Fig. 3 + Fig. 4: explain individual predicted DRC hotspots.

For a chosen suite design (default: the ``des_perf_1`` analogue, the
paper's congested example):

* an RF is trained on the other four design groups (paper protocol),
* the strongest predicted hotspots are selected,
* each prediction is explained with the SHAP tree explainer (Fig. 4 force
  plot as text), shown next to the GR congestion maps around the g-cell
  (Fig. 3) and validated against the actual simulated DRC errors.

Run:  python examples/explain_hotspots.py [--design mult_a] [--num 3]
"""

import argparse

from repro.bench.suite import SUITE_RECIPES, suite_recipes
from repro.core import (
    build_suite_dataset,
    default_cache_path,
    explain_hotspots,
    run_flow,
)
from repro.core.explain import explanation_layers_mentioned


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--design", default="des_perf_1",
                        choices=sorted(SUITE_RECIPES))
    parser.add_argument("--num", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    print("loading the suite dataset (cached after the first run)...")
    suite, _ = build_suite_dataset(
        args.scale, cache_path=default_cache_path(args.scale)
    )
    print(f"re-running the flow for {args.design} to recover congestion maps...")
    flow = run_flow(next(r for r in suite_recipes(args.scale) if r.name == args.design))

    reports = explain_hotspots(suite, flow, num_hotspots=args.num)
    for report in reports:
        print()
        print(report.render())
        layers = explanation_layers_mentioned(report)
        print(f"layers blamed by the explanation: {sorted(layers)}")


if __name__ == "__main__":
    main()
