"""The benchmark's tracer wraps program functions by module attribute, so
those attributes must keep resolving; random-verify runs every campaign
engine, so the engine set is pinned here too."""

import importlib.util
from pathlib import Path

import exactmatch.campaign as campaign

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module, attr, _, _ in load_tracing().TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_campaign_engine_set_is_the_benchmarked_one():
    assert list(campaign.ENGINES) == [
        "brute-em", "via-tkpm", "algebraic", "brute-cpm", "cpm-via-em"]
    # (problem family, bipartite-only, the SOLVERS row callable)
    assert all(len(entry) == 3 for entry in campaign.ENGINES.values())
