"""What a process imports at start-up.

Every package under ``repro`` resolves its exports on first access, and
``repro.net.server`` imports a node kind's module only where it builds
or classifies that kind, so a node process loads the code of the node
it runs and nothing of the client stack. Each case runs in a fresh
interpreter: ``sys.modules`` there is exactly what the snippet loaded.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

PACKAGES = (
    "repro",
    "repro.corfu",
    "repro.net",
    "repro.util",
    "repro.objects",
    "repro.tango",
    "repro.streams",
    "repro.store",
    "repro.proc",
)

#: Modules no node process may load: the client stack, the transports
#: (a node only serves frames) and what only they need.
CLIENT_SIDE = (
    "repro.corfu.client",
    "repro.net.transport",
    "repro.net.socket",
    "repro.net.faulty",
    "dataclasses",
)

NODE_BASE = {
    "repro",
    "repro.errors",
    "repro.net",
    "repro.net.wire",
    "repro.net.server",
    "repro.corfu",
}


def run_fresh(snippet: str):
    """Run *snippet* in a new interpreter; return what it printed as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(snippet)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def node_modules(kind: str, data_dir=None):
    """The modules a node process holds once its node is built and served."""
    loaded = run_fresh(
        f"""
        import json, sys
        from repro.net.server import NodeServer, _build_node

        server = NodeServer()
        server.register("n0", _build_node({kind!r}, "n0", 4, data_dir={data_dir!r}))
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert not set(CLIENT_SIDE) & set(loaded)
    return {name for name in loaded if name.split(".")[0] == "repro"}


class TestNodeProcesses:
    def test_storage_node(self):
        assert node_modules("storage") == NODE_BASE | {"repro.corfu.storage"}

    def test_sequencer_node(self):
        assert node_modules("sequencer") == NODE_BASE | {
            "repro.corfu.sequencer",
            "repro.corfu.entry",
            "repro.util",
            "repro.util.encoding",
        }

    def test_durable_storage_node(self, tmp_path):
        assert node_modules("storage", str(tmp_path)) == NODE_BASE | {
            "repro.corfu.storage",
            "repro.store",
            "repro.store.flash",
            "repro.store.segment",
            "repro.store.compactor",
        }


class TestLibraryImports:
    def test_one_object_loads_its_module_and_the_object_base(self):
        loaded = run_fresh(
            """
            import json, sys
            from repro.objects import TangoMap

            print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
            """
        )
        assert set(loaded) == {
            "repro",
            "repro.errors",
            "repro.objects",
            "repro.objects.map",
            "repro.tango",
            "repro.tango.object",
            "repro.tango.records",
            "repro.util",
            "repro.util.encoding",
        }

    @pytest.mark.parametrize(
        "statement", ["import repro.corfu.client", "from repro.objects import TangoMap"]
    )
    def test_a_client_loads_neither_dataclasses_nor_inspect(self, statement):
        loaded = run_fresh(
            f"""
            import json, sys
            {statement}

            print(json.dumps(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)))
            """
        )
        assert loaded == []

    def test_every_export_resolves_and_is_listed(self):
        problems = run_fresh(
            f"""
            import importlib, json

            problems = []
            for package in {PACKAGES!r}:
                module = importlib.import_module(package)
                listed = dir(module)
                for name in module.__all__:
                    if not hasattr(module, name):
                        problems.append(f"{{package}}.{{name}} does not resolve")
                    if name not in listed:
                        problems.append(f"{{package}}.{{name}} missing from dir()")
                star = {{}}
                exec(f"from {{package}} import *", star)
                missing = set(module.__all__) - set(star)
                if missing:
                    problems.append(f"{{package}} star import lacks {{sorted(missing)}}")
                try:
                    module.NoSuchExport
                except AttributeError as exc:
                    if package not in str(exc):
                        problems.append(f"{{package}}: {{exc}}")
                else:
                    problems.append(f"{{package}}.NoSuchExport resolved")
            print(json.dumps(problems))
            """
        )
        assert problems == []
