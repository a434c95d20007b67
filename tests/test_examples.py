"""Smoke-test the example scripts (they are part of the public deliverable).

Each fast example is executed in-process by importing its module and calling
``main()`` with stdout captured; the heavyweight Table 1 example is run
restricted to the diameter-8 block.  Assertions check the headline outputs,
so a regression in the library surfaces here even if the unit tests miss it.
"""

import importlib.util
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    # Register the module and make examples/ importable so examples that
    # spawn worker processes (fleet_search) stay picklable-by-reference
    # under the 'spawn' multiprocessing start method, not only under fork.
    if str(EXAMPLES_DIR) not in sys.path:
        sys.path.insert(0, str(EXAMPLES_DIR))
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "OTIS(16, 32)" in out
        assert "Layout verified : True" in out
        assert "Lens saving" in out

    def test_otis_layout_design(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["otis_layout_design.py", "6"])
        load_example("otis_layout_design").main()
        out = capsys.readouterr().out
        assert "B(2, 6)" in out
        assert "optimal split" in out
        assert "lens scaling" in out

    def test_isomorphism_gallery(self, capsys):
        load_example("isomorphism_gallery").main()
        out = capsys.readouterr().out
        assert "arc-for-arc: True" in out
        assert "(paper: 2, 5, 1, 4, 0, 3)" in out
        assert "isomorphic to B(2, 6): True" in out
        assert "10080 definitions" in out

    def test_network_simulation(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["network_simulation.py", "5"])
        load_example("network_simulation").main()
        out = capsys.readouterr().out
        assert "B(2,5)" in out
        assert "ring(32)" in out
        assert "verified=True" in out

    def test_fleet_search(self, capsys):
        load_example("fleet_search").main()
        out = capsys.readouterr().out
        assert "no chunk ran twice: True" in out
        assert "expired lease reclaimed: True" in out
        assert "fleet merge identical to direct search: True" in out

    def test_failover_study(self, capsys):
        load_example("failover_study").main()
        out = capsys.readouterr().out
        assert "H(32,64,2): n=1024" in out
        assert "drop policy loses messages: True" in out
        assert "rerouted delivery: True" in out
        assert "degraded-mode latency penalty: +" in out

    def test_degree_diameter_search_diameter_8(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["degree_diameter_search.py", "8"])
        load_example("degree_diameter_search").main()
        out = capsys.readouterr().out
        assert "B(2,8)" in out
        assert "K(2,8)" in out
        assert "all printed rows reproduced: True" in out
        # The resumable-sweep demonstration: interrupt, resume from the
        # chunk store (warm verdict cache), merge identically.
        assert "merge before resume correctly fails" in out
        assert "resume: ran 1 chunk(s), skipped" in out
        assert "misses 0" in out
        assert "merged rows identical to direct search: True" in out
