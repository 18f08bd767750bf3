#!/usr/bin/env python3
"""Write RESULTS.md: the outcomes of the preset mission families.

    python scripts/results.py             # writes RESULTS.md at the repo root
    python scripts/results.py out.md

Four families: the ten noiseless type-A runs, the five noisy scenarios at
seeds 0-4, the thirteen held-out layouts at seeds 0-9, and the type-A
scenario 0 with its object dropped at step 130. Each family reports its
runs, completions, collisions, failure reasons, placement error, steps and
one SHA-256 over every mission's trace lines and summary. The file holds no
timings, so it is byte-stable and its diff shows a change's effect on
behaviour.
"""

import collections
import hashlib
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from agnav.presets import (
    acceptance_type_a_suite,
    heldout_suite,
    noise_batch_suite,
    type_a_scenario,
)
from agnav.scenario import run_scenario


def families():
    """(family, [(run name, scenario document, seed override)]) in report
    order; a noiseless run keeps its document's own seed."""
    return [
        ("noiseless", [(f"noiseless/{i}", doc, None)
                       for i, doc in enumerate(acceptance_type_a_suite())]),
        ("noisy", [(f"noisy/{i}/seed{s}", doc, s)
                   for i, doc in enumerate(noise_batch_suite()) for s in range(5)]),
        ("heldout", [(f"heldout/{i}/seed{s}", doc, s)
                     for i, doc in enumerate(heldout_suite()) for s in range(10)]),
        ("drop130", [("drop130", type_a_scenario(0, drop_at_step=130), None)]),
    ]


def family_report(runs) -> dict:
    digest = hashlib.sha256()
    failures = collections.Counter()
    failed, errors, steps = [], [], []
    completed = collisions = 0
    for name, doc, seed in runs:
        _, res = run_scenario(doc, seed)
        for rec in res.trace:
            digest.update((json.dumps(rec, sort_keys=True) + "\n").encode())
        digest.update(json.dumps(res.summary(), sort_keys=True).encode())
        completed += res.success
        collisions += res.collisions
        steps.append(res.steps)
        errors.extend(p["error_m"] for p in res.placements if not p["approach"])
        if not res.success:
            failures[res.failure] += 1
            failed.append(name)
    return {
        "runs": len(runs), "completed": completed, "collisions": collisions,
        "err_p50": statistics.median(errors) if errors else float("nan"),
        "err_max": max(errors, default=float("nan")),
        "steps_p50": statistics.median(steps),
        "failures": sorted(failures.items(), key=lambda kv: (-kv[1], kv[0])),
        "failed": failed, "sha256": digest.hexdigest(),
    }


def render(reports) -> str:
    lines = [
        "# Results",
        "",
        "Outcomes of the preset mission families, written by "
        "`python scripts/results.py`. No timings: the file is byte-stable, and "
        "CI fails when it differs from a fresh run. Placement error is over "
        "every non-approach placement of the family.",
        "",
        "| family | runs | completed | collisions | placement err p50 (m) "
        "| placement err max (m) | steps p50 |",
        "|---|---|---|---|---|---|---|",
    ]
    for family, r in reports:
        lines.append(f"| {family} | {r['runs']} | {r['completed']} | {r['collisions']} "
                     f"| {r['err_p50']:.4f} | {r['err_max']:.4f} | {r['steps_p50']:g} |")
    for family, r in reports:
        lines += ["", f"## {family}", "", f"- sha256: `{r['sha256']}`"]
        if not r["failures"]:
            lines.append("- failures: none")
            continue
        lines.append("- failures:")
        lines += [f"  - {count} × {reason}" for reason, count in r["failures"]]
        lines.append("- failed runs: " + ", ".join(f"`{n}`" for n in r["failed"]))
    return "\n".join(lines) + "\n"


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else os.path.normpath(
        os.path.join(os.path.dirname(__file__), "..", "RESULTS.md"))
    reports = [(family, family_report(runs)) for family, runs in families()]
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(render(reports))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
