import importlib.util
from pathlib import Path

# the tracer patches call sites only in modules already loaded
import edgesym.catalog  # noqa: F401
import edgesym.layered  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_required_sites_exist():
    # Tracer.__enter__ raises RuntimeError naming every REQUIRED_SITES entry
    # it could not patch, so a moved or removed call site fails here and not
    # only in a traced benchmark run; __exit__ restores the patched names
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer():
        pass
