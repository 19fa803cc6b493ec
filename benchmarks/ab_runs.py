"""Paired in-process A/B timing of two source trees over the stock runs.

    python benchmarks/ab_runs.py TREE_A TREE_B [--reps N]

``TREE_A`` and ``TREE_B`` are checkouts of this repository (each holds
``src/repro``); pass the same checkout twice for an A/A run.  Tree A is
imported as ``repro`` and tree B as ``repro_b``, so both live in one
interpreter.  Each repetition walks the 288 stock runs of
``e2e/configs`` (six configurations x 12 tests x seeds 1 2 x both
views) and times ``run_test`` of each run in both trees back to back,
A then B on even runs and B then A on odd ones, so drift lands on both
alike.  It prints each repetition's summed seconds and B/A ratio, then
the median ratio.  Both trees must write byte-identical VCDs run by run.

This explains an e2e result; it does not stand in for one.  It times
simulation only (no CLI start-up, lint gate, comparison or report), in
a warm interpreter, so its ratio is not a ``runs_per_s`` change.

Exit status: 0, or 1 when tree B imports ``repro`` by absolute name
(it would run tree A's code) or when the two trees' dumps differ.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "e2e" / "configs"
SEEDS = (1, 2)
VIEWS = ("rtl", "bca")
B_NAME = "repro_b"


def absolute_imports(package: Path) -> List[str]:
    """``file:line`` of every statement under ``package`` that imports
    ``repro`` by absolute name."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name == "repro" or name.startswith("repro.")
                   for name in names):
                found.append(f"{path}:{node.lineno}")
    return found


def load_as(name: str, package: Path):
    """Import the package directory ``package`` under ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Tree:
    """One checkout's entry points, imported under ``name``."""

    def __init__(self, name: str) -> None:
        self.name = name
        env = importlib.import_module(f"{name}.catg.env")
        configs = importlib.import_module(f"{name}.regression.configs")
        cases = importlib.import_module(f"{name}.regression.testcases")
        self.run_test = env.run_test
        self.build_test = cases.build_test
        self.tests = list(cases.TESTCASES)
        self.configs = configs.load_config_dir(str(CONFIG_DIR))

    def run(self, index: int, test: str, seed: int, view: str,
            vcd: str) -> float:
        """Seconds ``run_test`` takes for one stock run; the program is
        built outside the timed call."""
        config = self.configs[index]
        program = self.build_test(test, config, seed)
        start = time.perf_counter()
        self.run_test(config, program, view=view, vcd_path=vcd)
        return time.perf_counter() - start


def stray_modules(package: str, root: Path) -> List[str]:
    """Modules named ``package`` or ``package.*`` loaded from outside
    ``root``."""
    stray = []
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        path = getattr(module, "__file__", None)
        if path and root not in Path(path).resolve().parents:
            stray.append(f"{name} from {path}")
    return stray


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--reps", type=int, default=5,
                        help="repetitions of the 288 runs (default 5)")
    args = parser.parse_args(argv)
    package_a = (args.tree_a / "src" / "repro").resolve()
    package_b = (args.tree_b / "src" / "repro").resolve()
    absolute = absolute_imports(package_b)
    if absolute:
        print("tree B imports repro by absolute name, which would run "
              "tree A's code:\n  " + "\n  ".join(absolute))
        return 1
    sys.path.insert(0, str(package_a.parent))
    tree_a = Tree("repro")
    load_as(B_NAME, package_b)
    tree_b = Tree(B_NAME)
    stray = (stray_modules("repro", package_a)
             + stray_modules(B_NAME, package_b))
    if stray:
        print("modules loaded from the wrong tree:\n  " + "\n  ".join(stray))
        return 1
    runs = [(index, test, seed, view)
            for index in range(len(tree_a.configs))
            for test in tree_a.tests for seed in SEEDS for view in VIEWS]
    print(f"A = {package_a.parent.parent}\nB = {package_b.parent.parent}\n"
          f"{len(runs)} runs per repetition, A/B order alternating")
    ratios = []
    with tempfile.TemporaryDirectory() as tmp:
        vcd_a = os.path.join(tmp, "a.vcd")
        vcd_b = os.path.join(tmp, "b.vcd")
        for rep in range(1, args.reps + 1):
            seconds = {"A": 0.0, "B": 0.0}
            for number, run in enumerate(runs):
                order = (("A", tree_a, vcd_a), ("B", tree_b, vcd_b))
                if number % 2:
                    order = order[::-1]
                for label, tree, vcd in order:
                    seconds[label] += tree.run(*run, vcd)
                if Path(vcd_a).read_bytes() != Path(vcd_b).read_bytes():
                    print(f"dumps differ: config {run[0]}, {run[1:]}")
                    return 1
            ratio = seconds["B"] / seconds["A"]
            ratios.append(ratio)
            print(f"rep {rep}: A {seconds['A']:.3f} s  "
                  f"B {seconds['B']:.3f} s  B/A {ratio:.4f}", flush=True)
    print(f"median B/A {statistics.median(ratios):.4f} "
          f"over {len(ratios)} reps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
