#!/usr/bin/env python3
"""Which functions of the imitodyn package the five subcommands never enter.

Runs simulate, ode, landscape, metastability and compare on each config
(by default the shipped configs/*.json and perfbench/inputs/er_m3.json)
under sys.setprofile, then prints every function and method of the
package that no run entered, one per line as `module.qualname
(file:line)`.  A function counts once per `def` statement in the source,
nested ones included; the law's exec-generated functions and the methods
that dataclass writes have none, so they are not listed.  Exits 1 if a
subcommand fails.

Each subcommand runs with --runs 1 and IMITODYN_THREADS=1, so every run
happens in the traced process.

    python3 scripts/reach.py                     # the shipped inputs
    python3 scripts/reach.py my.json --out reach_out
"""

import argparse
import ast
import glob
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))  # the checkout's package, installed or not

import imitodyn  # noqa: E402
from imitodyn import cli  # noqa: E402

INPUTS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))) + [
    os.path.join(ROOT, "perfbench", "inputs", "er_m3.json")
]
SUBCOMMANDS = ("simulate", "ode", "landscape", "metastability", "compare")


def _defs(node, prefix: str):
    """(first line, qualname) of every def below node.  The first line is
    the first decorator's, as in the function's code object."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), prefix + child.name
            yield from _defs(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}{child.name}.")
        else:
            yield from _defs(child, prefix)


def defined_functions(package_dir: str) -> dict:
    """{(real path, first line): "module.qualname"} for every def in the
    package's modules."""
    found = {}
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for line, name in _defs(tree, ""):
            found[(os.path.realpath(path), line)] = f"{module}.{name}"
    return found


def trace(configs: list, out: str) -> tuple[set, list]:
    """(the (filename, first line) of every code object entered, the
    failed (config, subcommand) pairs) over every subcommand and config.
    Runs sequentially, as a profile hook sees only its own process."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    failed = []
    threads = os.environ.get("IMITODYN_THREADS")
    os.environ["IMITODYN_THREADS"] = "1"
    sys.setprofile(profile)
    try:
        for config in configs:
            name = os.path.splitext(os.path.basename(config))[0]
            for sub in SUBCOMMANDS:
                argv = [sub, "--config", config, "--runs", "1", "--out", os.path.join(out, name, sub)]
                if cli.main(argv) != 0:
                    failed.append((config, sub))
    finally:
        sys.setprofile(None)
        if threads is None:
            del os.environ["IMITODYN_THREADS"]
        else:
            os.environ["IMITODYN_THREADS"] = threads
    return {(os.path.realpath(f), line) for f, line in entered}, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", default=INPUTS, help="config files (default: the shipped inputs)")
    parser.add_argument("--out", default=None, help="directory for the subcommands' artifacts (default: a temporary one)")
    args = parser.parse_args(argv)

    defined = defined_functions(os.path.dirname(os.path.abspath(imitodyn.__file__)))
    with tempfile.TemporaryDirectory() as scratch:
        entered, failed = trace(args.configs, args.out or scratch)
    missed = sorted((name, os.path.basename(path), line) for (path, line), name in defined.items() if (path, line) not in entered)
    for name, path, line in missed:
        print(f"{name} ({path}:{line})")
    print(f"{len(missed)} of {len(defined)} functions never entered over {len(args.configs)} configs")
    for config, sub in failed:
        print(f"reach: {sub} failed on {config}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
