"""The checked-in snapshot manifest covers exactly the outputs of the snapshot tool.

Running the tool takes tens of seconds, so this reads only its command list.
"""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "snapshot_outputs.py"


def test_manifest_names_exactly_the_files_the_commands_write():
    spec = importlib.util.spec_from_file_location("snapshot_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    manifest = json.loads(tool.MANIFEST.read_text())
    assert set(manifest["files"]) == tool.expected_files()
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
