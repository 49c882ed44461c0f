"""Layer spans and work counters installed around halfsum from outside it.

Modules import each other's functions by name (`from .charsum import
half_sum_sieve` in cli, `qr_table` in construction), so a span is
installed in the consumer's namespace, where the call looks the name up.
Calls between functions of one module (half_sum -> half_sum_sieve,
OddPrime.__init__ -> is_prime) cross no layer boundary and only get a
counts-only wrapper in the defining module, which the boundary spans then
wrap in turn. Spans are aggregated as they close: a layer's self time is
the total span time minus the time of spans nested inside it.
"""

from __future__ import annotations

import inspect
import statistics
import subprocess
import sys
from collections import Counter
from math import isqrt
from pathlib import Path
from time import perf_counter

LAYERS = ("primes", "arith", "charsum", "classnum", "construction", "floorlemma", "cli")


def _half(args) -> int:
    return (int(args[0]) - 1) // 2


def _squares(c: Counter, args, result) -> None:
    c["charsum.squares"] += _half(args)


def _marks(c: Counter, args, result) -> None:
    c["charsum.squares"] += _half(args)
    c["charsum.table_bytes"] += int(args[0])


def _forms(c: Counter, args, result) -> None:
    a_max = isqrt(int(args[0]) // 3)
    c["classnum.form_candidates"] += a_max * (a_max + 1)
    c["classnum.forms"] += len(result)


def _report(c: Counter, args, result) -> None:
    c["construction.pairs"] += sum(len(f.witnesses) for f in result.families)
    c["construction.distinct"] += result.distinct_qr_total


def _yielded(c: Counter, args, result) -> None:
    c["primes.yielded"] += len(result)


# (module, function) -> what a call adds to the counters. Counts derived
# from arguments follow the loops of the implementation at the time of
# writing and are labelled as computed.
_COUNTED = {
    ("arith", "is_prime"): None,
    ("arith", "legendre_euler"): None,
    ("arith", "legendre_reciprocity"): None,
    ("charsum", "half_sum_sieve"): _squares,
    ("charsum", "qr_value_sum"): _squares,
    ("charsum", "_qr_marks"): _marks,
    ("classnum", "reduced_forms"): _forms,
    ("construction", "build_report"): _report,
    ("primes", "primes_in_range"): _yielded,
}

_CALL_NAMES = {
    ("arith", "is_prime"): "arith.is_prime_calls",
    ("arith", "legendre_euler"): "arith.symbol_calls",
    ("arith", "legendre_reciprocity"): "arith.symbol_calls",
}


class Tracer:
    """Per-layer self time and call counts, plus named work counters."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        self._child = [0.0]

    def span(self, layer: str, fn):
        self_s, calls, child = self.self_s, self.calls, self._child

        def traced(*args, **kwargs):
            calls[layer] += 1
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[layer] += dt - child.pop()
                child[-1] += dt

        return traced

    def counted(self, key, fn):
        counts = self.counts
        name = _CALL_NAMES.get(key)
        hook = _COUNTED[key]
        if hook is None:

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(counts, args, result)
                return result

        return wrapper

    def install(self, modules: dict):
        """Patch the halfsum modules in place; returns an undo list."""
        boundary = []
        for consumer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if owner in modules and owner != consumer:
                    boundary.append((mod, attr, owner, obj.__name__))
        undo = []
        for owner, fname in _COUNTED:
            mod = modules[owner]
            undo.append((mod, fname, getattr(mod, fname)))
            setattr(mod, fname, self.counted((owner, fname), getattr(mod, fname)))
        for mod, attr, owner, fname in boundary:
            undo.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.span(owner, getattr(modules[owner], fname)))
        return undo


def import_self_seconds(src: Path, samples: int) -> dict[str, float]:
    """Median self time of importing each layer's module, per fresh interpreter.

    Read from `python -X importtime`, whose self column excludes nested
    imports. This is the share of a command's set-up each layer causes, and
    what a layer costs a command that never calls it.
    """
    code = f"import sys; sys.path.insert(0, {str(src)!r}); import halfsum.cli"
    runs = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        found = {}
        for line in done.stderr.splitlines():
            # import time: <self us> | <cumulative us> | <indented module name>
            own, _, rest = line.removeprefix("import time:").partition("|")
            layer = rest.rpartition("|")[2].strip().removeprefix("halfsum.")
            if layer in LAYERS and own.strip().isdigit():
                found[layer] = int(own) / 1e6
        missing = set(LAYERS) - set(found)
        if missing:
            raise RuntimeError(f"-X importtime reported no import of {sorted(missing)}")
        runs.append(found)
    return {layer: statistics.median(r[layer] for r in runs) for layer in LAYERS}


def uninstall(undo) -> None:
    for mod, attr, original in reversed(undo):
        setattr(mod, attr, original)
