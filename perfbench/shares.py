"""Where a unit's time goes: one traced unit, split into phases.

    python3 perfbench/shares.py --workload desk-greedy --scale reference --seed 0

Runs one traced unit of a greedy workload at the given scale and prints
the seconds and the share of the unit's wall time spent in set-up, block
steps (block_backward and AdamW.step), the re-forward of earlier blocks,
the rest of train_greedy, features and the probe.  Compare the
"reference" scale (the traffic the workload stands for; minutes) with
"full" (what the benchmark runs) to see that the benchmark keeps the
reference's profile.
"""

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import OUT, run_unit  # noqa: E402

TIMEOUT_S = 3600.0


def phases(unit):
    """Seconds per phase of one traced unit."""
    lay = {k: v / 1e3 for k, v in unit["layers"].items() if k.endswith(".ms")}
    steps, reforward = lay["trainer.block_steps.ms"], lay["trainer.reforward.ms"]
    out = {
        "setup": unit["setup_s"],
        "block_steps": steps,
        "reforward": reforward,
        "other_training": lay["trainer.train_greedy.ms"] - steps - reforward,
        "features": lay["trainer.features.ms"],
        "probe": lay["trainer.train_probe.ms"],
    }
    out["rest"] = unit["wall_s"] - sum(out.values())
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("desk-greedy", "ablate-wide"))
    p.add_argument("--scale", choices=("full", "reference"), default="reference")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    os.makedirs(OUT, exist_ok=True)
    unit = run_unit(args.workload, args.seed, args.scale, None, True, 0,
                    perf_counter() + TIMEOUT_S)
    split = phases(unit)
    for name, s in split.items():
        print(f"{name:<16s} {s:9.2f} s  {s / unit['wall_s']:6.1%}")
    print(json.dumps({"workload": args.workload, "scale": args.scale, "seed": args.seed,
                      "wall_s": unit["wall_s"], "steps": unit["steps"], "phases_s": split}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
