"""Every library name the benchmark's tracer wraps must still resolve.

perfbench/tracer.py names the functions and methods it wraps as strings, so
a renamed or deleted one would only fail when `perfbench/run.py --trace 1`
installs the tracer.  The tracer module imports only the standard library;
it is loaded by path and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_wrapped_name_resolves() -> None:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    missing = []
    for module_name, attr, _ in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            # Tracer.install reads methods through the class __dict__
            owner = getattr(module, owner_name, None)
            found = owner is not None and method in vars(owner)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert missing == []
