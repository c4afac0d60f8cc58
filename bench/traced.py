"""Run one pointedcat CLI job with spans around the public callables of each layer.

    PYTHONPATH=src python3 bench/traced.py SPANS_OUT -- CLI_ARGS...

Each wrapped call appends a span (name, start, end, parent) to an in-memory
list; the job's spans carry the job id implicitly, because each job runs in
its own process and writes its own file. When ``cli.main`` returns, the
spans are reduced to per-name calls, total and self time (duration minus the
time covered by child spans) and written to SPANS_OUT as JSON. The exit code
is the CLI's.

Modules import some callables by name (``from .cyclo import dot``), so each
wrapper is installed in every pointedcat module that binds the original
object, not only in the module that defines it.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, attribute) of each traced callable, by defining module.
TRACED = {
    "cli": ("main", "verify_all"),
    "serialization": ("parse", "serialize", "parse_gram_text"),
    "moddata": ("gauss_data", "check_unitarity", "verlinde_fusion", "check_modular_relations",
                "from_lattice", "canonical_form", "colored_link_invariant",
                "fusion_probabilities"),
    "lattice": ("check_gram", "smith_normal_form", "discriminant_group", "quadratic_mod2"),
    "enumeration": ("generate_gram_matrices", "classify"),
    "cyclo": ("dot", "format_value", "parse_value", "sum_values", "root_of_unity"),
}
# Methods of cyclo.Cyclotomic, traced under the given span name.
METHODS = {"__mul__": "cyclo.mul", "__rmul__": "cyclo.mul",
           "inverse": "cyclo.inverse", "minimal": "cyclo.minimal"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = [-1]
        self.counters = {"cyclo.dot.terms": 0, "cyclo.max_conductor": 0,
                         "serialization.parse.bytes": 0, "serialization.serialize.bytes": 0}

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def observe_dot(self, args, result):
        xs = args[0]
        self.counters["cyclo.dot.terms"] += len(xs) if hasattr(xs, "__len__") else 0
        if result.conductor > self.counters["cyclo.max_conductor"]:
            self.counters["cyclo.max_conductor"] = result.conductor

    def observe_parse(self, args, result):
        self.counters["serialization.parse.bytes"] += len(args[0].body)

    def observe_serialize(self, args, result):
        self.counters["serialization.serialize.bytes"] += len(result.body)

    def install(self, modules: dict) -> None:
        observers = {"cyclo.dot": self.observe_dot,
                     "serialization.parse": self.observe_parse,
                     "serialization.serialize": self.observe_serialize}
        for layer, names in TRACED.items():
            for attr in names:
                original = getattr(modules[layer], attr)
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, original, observers.get(name))
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
        cls = modules["cyclo"].Cyclotomic
        wrapped = {}
        for attr, name in METHODS.items():
            original = cls.__dict__[attr]
            if original not in wrapped:
                wrapped[original] = self.wrap(name, original)
            setattr(cls, attr, wrapped[original])

    def summary(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
        return out


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    import pointedcat.cli as cli
    from pointedcat import cyclo, enumeration, lattice, moddata, serialization
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install({"cli": cli, "serialization": serialization, "moddata": moddata,
                    "lattice": lattice, "enumeration": enumeration, "cyclo": cyclo})
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": tracer.summary(),
                       "counters": tracer.counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
