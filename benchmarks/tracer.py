"""Spans around calls into each layer, recorded from outside the program.

Each public function is wrapped where its caller looks it up: the module
namespace that calls it (for example `factorrace.cli.combined_run` or
`factorrace.zeros.l_value`), so no code under `src/` changes.  A span is
(id, parent id, name, start, end, attributes); spans of one sample share a
run id.  They stay in memory and are written out when the sample ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
import time

# (module where the caller looks the name up, attribute, span name)
TARGETS = (
    ("factorrace.cli", "cmd_all", "cli.cmd_all"),
    ("factorrace.cli", "cmd_sieve", "cli.cmd_sieve"),
    ("factorrace.cli", "cmd_zeros", "cli.cmd_zeros"),
    ("factorrace.cli", "cmd_compare", "cli.cmd_compare"),
    ("factorrace.cli", "cmd_density", "cli.cmd_density"),
    ("factorrace.cli", "sieve_run", "sieve.sieve_run"),
    ("factorrace.cli", "density_scan", "sieve.density_scan"),
    ("factorrace.cli", "combined_run", "sieve.combined_run"),
    ("factorrace.cli", "write_checkpoints_csv", "sieve.write_checkpoints_csv"),
    ("factorrace.cli", "write_twists_csv", "sieve.write_twists_csv"),
    ("factorrace.sieve", "twist", "sieve.twist"),
    ("factorrace.cli", "scan_zeros", "zeros.scan_zeros"),
    ("factorrace.cli", "l_value", "lfunction.l_value"),
    ("factorrace.zeros", "l_value", "lfunction.l_value"),
    ("factorrace.lfunction", "root_number", "characters.root_number"),
    ("factorrace.cli", "predict", "prediction.predict"),
    ("factorrace.cli", "li_monte_carlo", "density.li_monte_carlo"),
)

# counts read off a call's result at the same boundary as its span
RESULT_ATTRS = {
    "zeros.scan_zeros": lambda r: {"found": r.count},
    "density.li_monte_carlo": lambda r: {"trials": r.trials},
}


class Tracer:
    def __init__(self):
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list[tuple] = []
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        attrs_of = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._id_lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            attrs = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, attrs))

        return traced

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is an error."""
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            wrapped = self.wrap(span, fn)
            setattr(module, attr, wrapped)
            # the CLI dispatches its subcommands through a table built at import
            table = getattr(module, "_COMMANDS", None)
            if isinstance(table, dict):
                for key, value in table.items():
                    if value is fn:
                        table[key] = wrapped

    def dump(self, path: str) -> None:
        rows = [
            {"id": s, "parent": p, "name": n, "start": t0, "end": t1, "attrs": a}
            for s, p, n, t0, t1, a in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": rows}, fh)


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: a wrapped no-op minus a plain one, median of repeats.

    Tracing overhead is this cost times the number of spans.  The difference
    between a traced and an untraced sample is far below their noise.
    """

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - t0

    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        costs.append((loop(traced) - loop(noop)) / calls)
    return statistics.median(costs)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and self times of one traced sample."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def self_s(*names):
        return sum(own[s["id"]] for n in names for s in by_name.get(n, ()))

    scans = by_name.get("zeros.scan_zeros", [])
    scan_ids = {s["id"] for s in scans}
    found = sum(s["attrs"]["found"] for s in scans)
    scan_evals = sum(1 for s in by_name.get("lfunction.l_value", ()) if s["parent"] in scan_ids)
    lv_calls = calls("lfunction.l_value")
    lv_s = self_s("lfunction.l_value")
    passes = ("sieve.sieve_run", "sieve.density_scan", "sieve.combined_run")
    return {
        "cli.sieve_s": self_s("cli.cmd_sieve"),
        "cli.zeros_s": self_s("cli.cmd_zeros"),
        "cli.compare_s": self_s("cli.cmd_compare"),
        "cli.density_s": self_s("cli.cmd_density"),
        "sieve.passes": calls(*passes),
        "sieve.pass_s": self_s(*passes),
        "sieve.twist_calls": calls("sieve.twist"),
        "sieve.twist_s": self_s("sieve.twist"),
        "sieve.write_s": self_s("sieve.write_checkpoints_csv", "sieve.write_twists_csv"),
        "characters.root_number_calls": calls("characters.root_number"),
        "characters.root_number_s": self_s("characters.root_number"),
        "lfunction.l_value_calls": lv_calls,
        "lfunction.l_value_s": lv_s,
        "lfunction.l_value_us": 1e6 * lv_s / lv_calls if lv_calls else 0.0,
        "zeros.scan_s": self_s("zeros.scan_zeros"),
        "zeros.found": found,
        "zeros.evals_per_zero": scan_evals / found if found else 0.0,
        "prediction.predict_calls": calls("prediction.predict"),
        "prediction.predict_s": self_s("prediction.predict"),
        "density.mc_s": self_s("density.li_monte_carlo"),
        "density.mc_trials": sum(s["attrs"]["trials"] for s in by_name.get("density.li_monte_carlo", ())),
    }
