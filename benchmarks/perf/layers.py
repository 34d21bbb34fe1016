"""Roll a ``cProfile`` run up by the module that defines each function.

A layer is one of this repo's modules (``catalog.LAYERS``).  Own time
(``tottime``) of a function defined under ``repro/`` goes to the layer
of its file.  Code outside the repo -- C builtins, the standard
library -- has no layer of its own: its own time is pushed up
cProfile's caller table, hop by hop, until it lands on the repo
function that (transitively) called it, so ``pathlib`` time spent
fingerprinting sources shows up as ``runner.cache``, not as noise.
``calls_in`` counts direct calls that cross into a layer from another.
"""

from __future__ import annotations

from collections import defaultdict

import catalog

#: ``repro.<key>`` module path -> layer; longest prefix wins
_PREFIXES = {
    **{layer: layer for layer in catalog.LAYERS if layer != "other"},
    "pgm.telemetry": "telemetry",
    "simulator.routing": "simulator.topology",  # route/tree computation
    "runner": "runner.orchestrator",
}

#: rounds of pushing outside-the-repo time up to its callers; deeper
#: chains (or recursion among stdlib functions) fall into ``other``
_MAX_HOPS = 64


def layer_of(code) -> str | None:
    """Layer of a profiled code object; None for code outside the repo
    (a builtin is a plain string in cProfile's table)."""
    if isinstance(code, str):
        return None
    marker = "/repro/"
    at = code.co_filename.rfind(marker)
    if at < 0:
        return None
    module = code.co_filename[at + len(marker):].removesuffix(".py")
    module = module.removesuffix("/__init__").replace("/", ".")
    while module:
        if module in _PREFIXES:
            return _PREFIXES[module]
        module = module.rpartition(".")[0]
    return "other"


def roll_up(stats) -> dict[str, dict[str, float]]:
    """``cProfile.Profile.getstats()`` -> layer -> {self_s, calls_in}."""
    out = {layer: {"self_s": 0.0, "calls_in": 0} for layer in catalog.LAYERS}
    #: outside-the-repo callee -> [(caller code, cumulative seconds)]
    callers = defaultdict(list)
    #: outside-the-repo code -> own seconds still looking for a layer
    homeless = {}
    for entry in stats:
        layer = layer_of(entry.code)
        if layer is None:
            homeless[entry.code] = entry.inlinetime
        else:
            out[layer]["self_s"] += entry.inlinetime
        for callee in entry.calls or ():
            target = layer_of(callee.code)
            if target is None:
                callers[callee.code].append((entry.code, callee.totaltime))
            elif layer is not None and target != layer:
                out[target]["calls_in"] += callee.callcount

    for _ in range(_MAX_HOPS):
        if not homeless:
            break
        moved = defaultdict(float)
        for code, seconds in homeless.items():
            total = sum(weight for _, weight in callers[code])
            if total <= 0.0:  # a root: nobody in the profile called it
                out["other"]["self_s"] += seconds
                continue
            for caller, weight in callers[code]:
                share = seconds * weight / total
                layer = layer_of(caller)
                if layer is None:
                    moved[caller] += share
                else:
                    out[layer]["self_s"] += share
        homeless = moved
    out["other"]["self_s"] += sum(homeless.values())
    return out
