"""One-off wall times of the four baseline commands at their CLI defaults.

Run from the root of a checkout:

    python3 perfbench/baseline.py

Each command runs once in a fresh interpreter with its output discarded,
so the times include interpreter start-up. Prints one line per command.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

COMMANDS = (
    ("simulate-logistic defaults", ["-m", "knorm.cli", "simulate-logistic"]),
    ("simulate-coverage defaults", ["-m", "knorm.cli", "simulate-coverage"]),
    ("diagnostics defaults", ["-m", "knorm.cli", "diagnostics"]),
    ("CLI start-up (import knorm.cli)", ["-c", "import knorm.cli"]),
)


def main():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "knorm", "__init__.py")):
        sys.stderr.write(f"error: no knorm sources under {src}; run from a checkout root\n")
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "import knorm.cli"], env=env, check=True)
    for label, argv in COMMANDS:
        t0 = perf_counter()
        subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
        print(f"{label}: {perf_counter() - t0:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
