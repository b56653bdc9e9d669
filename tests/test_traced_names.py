"""Every name the benchmark's tracer wraps still resolves on sdeim.

perfbench/tracing.py looks its functions up by name on each traced pass,
and its own tests are not part of this suite, so a deletion here would
otherwise break traced benchmark runs unseen. The tracer module is only
loaded and read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # install() also wraps experiments.build_field's result in a VectorField
    wrapped = [*tracing.SPANNED, *((m, f) for m, f, _ in tracing.COUNTED),
               ("experiments", "build_field"), ("dynamics", "VectorField")]
    missing = [
        f"{module}.{name}" for module, name in wrapped
        if module not in tracing.MODULES
        or not callable(getattr(importlib.import_module(f"sdeim.{module}"), name, None))
    ]
    assert missing == []
