"""Regenerate the golden CLI outputs under docs/golden/.

Run from the repo root after an intentional output change:

    PYTHONPATH=src python scripts/regen_goldens.py

Every case in docs/golden/cases.json is rerun with its recorded argv and
written to its recorded file; cases.json itself is the list to edit.
"""

import json
from pathlib import Path

from querybound.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "golden"


def regen() -> None:
    cases = json.loads((GOLDEN / "cases.json").read_text())
    for name, case in cases.items():
        target = GOLDEN / case["file"]
        code = main([*case["argv"], "--out", str(target)])
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        print(f"wrote {target}")


if __name__ == "__main__":
    regen()
