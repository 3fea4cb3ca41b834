"""One round of a workload, in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json RESULT.json

The spec names the program's source directory, the set-up groups and the
operations.  The round imports `wgbound.cli`, builds the smoothing tables
with one `bound.psi` call per group (together: the set-up), then runs the
operations in order and writes their exit codes, times and values to the
result file.  Outputs are checked by the parent, after this process has
exited, so the checks count in neither its time nor its memory.
"""
from __future__ import annotations

import json
import sys
import time
import traceback


def _run_op(cli, op: dict):
    if op["kind"] == "cli":
        return cli.run(cli.RunConfig(**op["config"])), None
    if op["kind"] == "sinkhorn":
        from wgbound import fourier, groups, transport
        G = groups.descriptor(op["group"])
        nu1, nu2 = (fourier.DiscreteMeasure.uniform(G, groups.load_points(p)[1])
                    for p in op["points"])
        g = cli.parse_modulus(op["g"])
        return 0, transport.sinkhorn(G, g, nu1, nu2, op["eps"]).cost
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import wgbound.cli as cli
    import_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    from wgbound import bound, groups
    g = bound.ModulusOfContinuity.power(1.0)
    t1 = time.perf_counter()
    for group_id in spec["setup_groups"]:
        G = groups.descriptor(group_id)
        bound.psi(G, g, G.admissibility_threshold, spec["profile"])
    tables_s = time.perf_counter() - t1

    first_op_span = len(tracer.spans) if tracer is not None else 0
    ops = []
    for op in spec["ops"]:
        start = time.perf_counter()
        try:
            code, value = _run_op(cli, op)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            code, value = -1, None
        ops.append({"name": op["name"], "exit": code, "value": value,
                    "seconds": time.perf_counter() - start})

    result = {"import_s": import_s, "tables_s": tables_s,
              "setup_s": import_s + tables_s, "ops": ops,
              "wall_s": sum(o["seconds"] for o in ops)}
    if tracer is not None:
        from tracer import SETUP_LAYERS
        setup = tracer.summary(0, first_op_span)
        layers = tracer.summary(first_op_span)
        # wall time of the operations outside every library layer's self time
        result["unaccounted_s"] = result["wall_s"] - sum(
            row["s"] for layer, row in layers.items() if layer != "cli.run")
        layers.update({layer: setup[layer] for layer in SETUP_LAYERS})
        result["layers"] = layers
        tracer.write_spans(spec["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
