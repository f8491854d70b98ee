"""The benchmark's tracer finds its hooks by name, so a refactor that renames
or deletes a hooked function costs a metric without failing the run.  This
test installs the tracer from bench/tracing.py, as the benchmark does, and
pins the set of hooks it cannot resolve."""

import types
from pathlib import Path

import ppsdyn.cli  # noqa: F401  (the tracer looks hooked modules up in sys.modules)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# the Objective class was deleted with the value-and-gradient optimizer API,
# and the physics term takes f from the derivative table, not from make_rhs
KNOWN_MISSING = {"ppsdyn.optimize.Objective.value", "ppsdyn.optimize.Objective.gradient",
                 "ppsdyn.pinn.make_rhs"}


def _load_tracing():
    # compiled from its text, so nothing is written next to the benchmark
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_but_the_known_dead_ones():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert set(tracer.missing) == KNOWN_MISSING
