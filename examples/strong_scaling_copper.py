"""Strong-scaling scenario: the paper's headline experiment (Fig. 11 + Fig. 9).

Models the 0.54M-atom copper and 0.56M-atom water systems on the Fugaku
machine model, sweeping 768 -> 12,000 nodes with the fully optimized
configuration, and prints the step-by-step optimization ladder at 96 nodes.

Run:  python examples/strong_scaling_copper.py
"""

from __future__ import annotations

from repro.core import (
    baseline_config,
    copper_spec,
    optimization_ladder,
    optimized_config,
    step_report,
    strong_scaling,
    water_spec,
)
from repro.core.config import fig9_stage_configs
from repro.core.experiments import FIG11_NODE_COUNTS
from repro.perfmodel import scaling_table


def main() -> None:
    print("Step-by-step optimization ladder (copper, 96 nodes, 1 atom/core):")
    reports = optimization_ladder(copper_spec(), fig9_stage_configs(), n_nodes=96, atoms_per_core=1)
    base = reports[0].ns_day
    for report in reports:
        print(
            f"  {report.config_name:10s} {report.ns_day:8.2f} ns/day "
            f"({report.ns_day / base:5.2f}x, step {report.step_time_ms:.3f} ms)"
        )

    for spec, n_atoms in ((copper_spec(), 540_000), (water_spec(), 558_000)):
        scaling = strong_scaling(spec, optimized_config(), FIG11_NODE_COUNTS, n_atoms=n_atoms)
        table = scaling_table(
            FIG11_NODE_COUNTS,
            [r.ns_day for r in scaling],
            spec.name,
            baseline_ns_day=step_report(spec, baseline_config(), 12_000, n_atoms=n_atoms).ns_day,
        )
        print()
        print(table.to_text(floatfmt=".2f"))
        final = scaling[-1]
        print(
            f"  -> {spec.name}: {final.ns_day:.1f} ns/day on 12,000 nodes "
            f"({final.atoms_per_core:.2f} atoms/core); paper: "
            f"{149.0 if spec.name == 'copper' else 68.5} ns/day"
        )


if __name__ == "__main__":
    main()
