"""Print the size figures of src/loopgas that change-log entries quote.

    python tools/src_stats.py

It prints the lines of each module and in total; the function parameters
with a default, counted with ast over every def (positional defaults plus
keyword-only defaults; lambdas are not counted); the fields of
mc.SamplerOptions; the config keys of experiments.SECTIONS, POTENTIAL and
OPTIONS; and the mc.Chain members that the discrete twin
(surrogate.DiscreteLoopGas) defines again, where the twin's balance tests
run the twin's code and not the chain's.
"""

import ast
import pathlib
import sys
from dataclasses import fields

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "loopgas"
sys.path.insert(0, str(SRC.parent))  # the tables come from the modules counted

from loopgas import experiments, mc, surrogate  # noqa: E402


def defaulted_parameters(tree):
    """Parameters with a default over the functions defined in an ast tree."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))


def main():
    total_lines = total_defaults = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = len(text.splitlines())
        defaults = defaulted_parameters(ast.parse(text))
        total_lines += lines
        total_defaults += defaults
        print("%-16s %5d lines %3d defaults" % (path.name, lines, defaults))
    print("%-16s %5d lines %3d defaults" % ("total", total_lines, total_defaults))
    print("SamplerOptions fields: %d" % len(fields(mc.SamplerOptions)))
    tables = {"SECTIONS": sum(map(len, experiments.SECTIONS.values())),
              "POTENTIAL": len(experiments.POTENTIAL),
              "OPTIONS": sum(map(len, experiments.OPTIONS.values()))}
    print("config keys: %d (%s)" % (sum(tables.values()),
                                   ", ".join("%s %d" % kv for kv in tables.items())))
    forks = sorted(set(vars(surrogate.DiscreteLoopGas)) & set(vars(mc.Chain))
                   - {"__doc__", "__module__"})
    print("Chain members the twin overrides: %d (%s)" % (len(forks), ", ".join(forks)))


if __name__ == "__main__":
    main()
