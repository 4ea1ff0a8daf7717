"""Public API contracts: the promises downstream code may rely on."""

import pytest

import repro
from repro import errors
from repro.errors import ReproError, TangoError
from repro.objects import (
    TangoCounter,
    TangoGraph,
    TangoList,
    TangoLock,
    TangoMap,
    TangoQueue,
    TangoRegister,
    TangoTreeSet,
)
from repro.tango.object import TangoObject


class TestErrorHierarchy:
    def test_every_library_error_is_a_repro_error(self):
        """One except-clause catches everything the library raises."""
        exception_types = [
            obj
            for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, Exception)
        ]
        assert len(exception_types) > 20
        for exc_type in exception_types:
            assert issubclass(exc_type, ReproError), exc_type

    def test_error_messages_carry_context(self):
        assert "5" in str(errors.WrittenError(5))
        assert "epoch" in str(errors.SealedError(3))
        assert "9" in str(errors.UnknownStreamError(9))
        assert "7" in str(errors.RemoteReadError(7))

    def test_structured_fields(self):
        assert errors.WrittenError(5).offset == 5
        assert errors.SealedError(3).epoch == 3
        assert errors.NodeDownError("flash-1").node == "flash-1"
        assert errors.TooManyStreamsError(20, 16).limit == 16

    def test_tango_errors_also_catchable_narrowly(self):
        assert issubclass(errors.TransactionAborted, TangoError)
        assert issubclass(errors.RemoteReadError, TangoError)


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        assert set(repro.__all__) <= set(dir(repro))
        with pytest.raises(AttributeError):
            repro.NoSuchExport  # noqa: B018

    def test_node_processes_import_only_what_a_node_uses(self):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(repro.__file__).resolve().parent.parent
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.net.server; print(' '.join(sys.modules))",
            ],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert "repro.net.server" in out
        for unused in ("repro.tango", "repro.objects", "repro.streams"):
            assert unused not in out

    def test_py_typed_marker_ships(self):
        import pathlib

        pkg = pathlib.Path(repro.__file__).parent
        assert (pkg / "py.typed").exists()


class TestTangoObjectContract:
    def test_apply_is_mandatory(self, make_runtime):
        class Bare(TangoObject):
            pass

        rt = make_runtime()
        bare = Bare(rt, oid=1)
        rt.update_helper(1, b"x")
        with pytest.raises(NotImplementedError):
            rt.query_helper(1)

    def test_checkpoint_optional_with_clear_error(self, make_runtime):
        class NoCheckpoint(TangoObject):
            def apply(self, payload, offset):
                pass

        obj = NoCheckpoint(make_runtime(), oid=1)
        with pytest.raises(NotImplementedError):
            obj.get_checkpoint()
        with pytest.raises(NotImplementedError):
            obj.load_checkpoint(b"")

    def test_repr_is_informative(self, make_runtime):
        rt = make_runtime()
        obj = TangoRegister(rt, oid=7)
        assert "TangoRegister" in repr(obj)
        assert "7" in repr(obj)


_ACCESSORS = [
    (TangoRegister, lambda o: o.read()),
    (TangoCounter, lambda o: o.value()),
    (TangoMap, lambda o: o.get("k")),
    (TangoList, lambda o: o.to_list()),
    (TangoTreeSet, lambda o: o.first()),
    (TangoQueue, lambda o: o.peek()),
    (TangoLock, lambda o: o.held_locks()),
    (TangoGraph, lambda o: o.node_count()),
]


class TestWriteOnlyHandles:
    @pytest.mark.parametrize(
        "cls,accessor", _ACCESSORS, ids=[c.__name__ for c, _ in _ACCESSORS]
    )
    def test_accessors_rejected_without_view(self, make_runtime, cls, accessor):
        """host_view=False means mutate-only, uniformly (§4.1 case A)."""
        obj = cls(make_runtime(), oid=1, host_view=False)
        assert not obj.is_hosted
        with pytest.raises(TangoError):
            accessor(obj)

    @pytest.mark.parametrize(
        "cls,mutate",
        [
            (TangoRegister, lambda o: o.write(1)),
            (TangoCounter, lambda o: o.increment()),
            (TangoMap, lambda o: o.put("k", 1)),
            (TangoList, lambda o: o.append(1)),
            (TangoTreeSet, lambda o: o.add(1)),
            (TangoQueue, lambda o: o.enqueue(1)),
        ],
        ids=["reg", "ctr", "map", "list", "set", "queue"],
    )
    def test_mutators_work_without_view(self, make_runtime, cls, mutate):
        rt_writer, rt_reader = make_runtime(), make_runtime()
        writer = cls(rt_writer, oid=1, host_view=False)
        reader = cls(rt_reader, oid=1)
        mutate(writer)
        # The hosted view sees the remote write.
        rt_reader.query_helper(1)
        assert rt_reader.stats["applied_updates"] == 1
