"""README's results table: how well each scoring method finds the preset's anomalies.

Runs README's ``run.yaml`` in-process on the preset seeds 0-4 (``synth.seed``; the
point model keeps README's seed) through ``fit_models``, ``score_split`` and
``sweep_table`` at d = 1, 16 and 256.  It renders one Markdown table of the mean and
the range over the seeds of each row's best F1 and AUC: the point score, the sequence
score, the negated nominality (computed here, so ``sweep.json`` keeps its bytes) and
the open, hard and soft gates at each d, with the gates' threshold θ.

    python3 tests/results_table.py           # print the table
    python3 tests/results_table.py --write   # rewrite README's block between the markers

``tests/test_results_table.py`` rebuilds the table and checks README's figures.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np
import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))

from nominality.config import config_from_dict  # noqa: E402
from nominality.evaluation import auc_and_best_f1  # noqa: E402
from nominality.pipeline import fit_models, score_split, sweep_table  # noqa: E402
from nominality.synthetic import gen_trig  # noqa: E402

README = os.path.join(ROOT, "README.md")
BEGIN = "<!-- results table: python3 tests/results_table.py --write -->"
END = "<!-- end of results table -->"
SEEDS = range(5)
D_VALUES = (1, 16, 256)
# (label, row of sweep_table's or "negated_nominality", whether the row depends on d)
ROWS = [
    ("point score", "point", False),
    ("sequence score", "sequence", False),
    ("negated nominality, alone", "negated_nominality", False),
    ("open gate (moving sum)", "hard_theta_inf", True),
    ("hard gate at θ", "hard_theta_pct", True),
    ("soft gate at θ (the induced score)", "soft_theta_pct", True),
]


def readme_config(seed: int) -> dict:
    """README's first YAML block, the config, at preset seed ``seed`` and the table's d."""
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"```yaml\n(.*?)```", fh.read(), re.S)[1]
    raw = yaml.safe_load(block)
    raw["synth"]["seed"] = seed
    raw["sweep"] = {"d_values": list(D_VALUES)}
    return raw


def seed_table(seed: int) -> dict:
    """``sweep_table``'s table at preset seed ``seed``, with a negated nominality row."""
    cfg = config_from_dict(readme_config(seed))
    data = gen_trig(cfg.synth.spec())
    bundle = score_split(cfg, fit_models(cfg, data.train), data.test)
    table = sweep_table(cfg, bundle)
    auc, f1 = auc_and_best_f1(-bundle.nominality.scores, bundle.labels)
    table["rows"]["negated_nominality"] = {"auc": [auc] * len(D_VALUES),
                                           "best_f1": [f1] * len(D_VALUES)}
    return table


def _cell(values) -> str:
    return f"{np.mean(values):.3f} ({min(values):.3f}–{max(values):.3f})"


def render() -> str:
    """The block between README's markers, markers excluded."""
    tables = [seed_table(seed) for seed in SEEDS]
    lines = ["| row | d | best F1 | AUC |", "|---|---|---|---|"]
    for label, key, by_d in ROWS:
        for i, d in enumerate(D_VALUES if by_d else D_VALUES[:1]):
            rows = [table["rows"][key] for table in tables]
            lines.append(f"| {label} | {d if by_d else 'any'} | "
                         f"{_cell([row['best_f1'][i] for row in rows])} | "
                         f"{_cell([row['auc'][i] for row in rows])} |")
    lines += ["", "θ, the 98.5th percentile of each seed's training nominality: "
                  f"{_cell([table['theta'] for table in tables])}."]
    return "\n".join(lines)


def _readme() -> tuple[str, str, str]:
    """README's text up to the table, the table between the markers, and the rest."""
    with open(README, encoding="utf-8") as fh:
        head, rest = fh.read().split(BEGIN)
    block, tail = rest.split(END)
    return head + BEGIN, block.strip("\n"), END + tail


def readme_block() -> str:
    """README's current block between the markers."""
    return _readme()[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite README's table")
    args, block = parser.parse_args(), render()
    if args.write:
        head, _, tail = _readme()
        with open(README, "w", encoding="utf-8") as fh:
            fh.write(f"{head}\n{block}\n{tail}")
    else:
        print(block)


if __name__ == "__main__":
    main()
