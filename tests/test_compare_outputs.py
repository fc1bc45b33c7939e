"""The output comparison script names what changed between two trees'
outputs: a flipped true or false by its path, as it names a changed
decision."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_flipped_boolean_is_reported_by_its_path(tmp_path):
    compare = _load_script()
    report = {"zero_discord": {"classical_on_B": True, "peak_separation": 1.5},
              "decision": "discordant"}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(report))
    report["zero_discord"]["classical_on_B"] = False
    new.write_text(json.dumps(report))
    assert compare.describe(old, new) == (
        "numbers equal, decision unchanged, .zero_discord.classical_on_B flipped")
