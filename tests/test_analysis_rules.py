"""Fixture-snippet tests for the invariant linter's rules (RPA001-RPA007).

Each test feeds a small in-memory module through :func:`analyze_source` and
asserts the exact rule ids, line numbers and symbols reported — including
the three seeded mutations the analysis gate exists to catch: a snapshot
that drops a field, a ``batched`` registration without ``push_block``, and
a clock read on a kernel path.
"""

from __future__ import annotations

import textwrap

from repro.analysis import analyze_source

CORE_PATH = "src/repro/core/fixture.py"
KERNEL_PATH = "src/repro/geometry/fixture.py"
EXEC_PATH = "src/repro/exec/fixture.py"
API_PATH = "src/repro/api/fixture.py"
WIRE_PATH = "src/repro/streaming/wire.py"


def lint(source: str, *, path: str = CORE_PATH, rules: list[str] | None = None):
    return analyze_source(textwrap.dedent(source), path=path, rule_ids=rules)


def triples(findings):
    return [(f.rule_id, f.line, f.symbol) for f in findings]


class TestCheckpointDriftRPA001:
    def test_dropped_snapshot_field_is_reported(self):
        # Seeded mutation: `_count` is mutated by push() but the snapshot
        # payload no longer mentions it.
        findings = lint(
            """\
            class Simplifier:
                def __init__(self, epsilon):
                    self._last = None
                    self._count = 0

                def push(self, point):
                    self._last = point
                    self._count += 1

                def snapshot(self):
                    return {"last": self._last}
            """,
            rules=["RPA001"],
        )
        assert triples(findings) == [("RPA001", 4, "Simplifier._count")]

    def test_covered_and_excluded_attributes_pass(self):
        findings = lint(
            """\
            class Simplifier:
                _SNAPSHOT_EXCLUDE = frozenset({"epsilon"})

                def __init__(self, epsilon):
                    self.epsilon = epsilon
                    self._state = 0

                def push(self, point):
                    self._state += 1

                def snapshot(self):
                    return {"state": self._state}
            """,
            rules=["RPA001"],
        )
        assert findings == []

    def test_class_without_snapshot_is_ignored(self):
        findings = lint(
            """\
            class Plain:
                def __init__(self):
                    self.anything = 1
            """,
            rules=["RPA001"],
        )
        assert findings == []

    def test_attribute_reported_once_across_methods(self):
        findings = lint(
            """\
            class Simplifier:
                def __init__(self):
                    self._n = 0

                def push(self, point):
                    self._n += 1

                def snapshot(self):
                    return {}
            """,
            rules=["RPA001"],
        )
        assert triples(findings) == [("RPA001", 3, "Simplifier._n")]

    def test_state_set_only_in_the_float_step_is_reported(self):
        # The per-fix state of a block-ingest host changes in ``_step``.
        findings = lint(
            """\
            class Simplifier:
                def push(self, point):
                    return self._step(point.x, point.y, point.t)

                def _step(self, x, y, t):
                    self._previous_x = x
                    return []

                def snapshot(self):
                    return {}
            """,
            rules=["RPA001"],
        )
        assert triples(findings) == [("RPA001", 6, "Simplifier._previous_x")]


class TestCapabilityConsistencyRPA002:
    def test_batched_without_push_block_is_reported(self):
        # Seeded mutation: the class lost push_block but the registration
        # still declares batched=True.
        findings = lint(
            """\
            class Simp:
                def push(self, point):
                    pass

                def finish(self):
                    return []

                def snapshot(self):
                    return {}

                def restore(self, state):
                    pass


            @register_algorithm(
                "operb-x",
                streaming_factory=Simp,
                checkpointable=True,
                batched=True,
            )
            def operb_x(trajectory, epsilon):
                return None
            """,
            path=API_PATH,
            rules=["RPA002"],
        )
        assert triples(findings) == [("RPA002", 15, "operb-x.batched")]

    def test_streaming_factory_without_push_finish(self):
        findings = lint(
            """\
            class Broken:
                def snapshot(self):
                    return {}


            @register_algorithm("broken", streaming_factory=Broken)
            def broken(trajectory, epsilon):
                return None
            """,
            path=API_PATH,
            rules=["RPA002"],
        )
        assert [(f.rule_id, f.symbol) for f in findings] == [
            ("RPA002", "broken.streaming_factory"),
            ("RPA002", "broken.streaming_factory"),
        ]
        missing = {f.message.split("does not define ")[1].rstrip("()") for f in findings}
        assert missing == {"push", "finish"}

    def test_factory_via_return_annotation_is_followed(self):
        findings = lint(
            """\
            class Simp:
                def push(self, point):
                    pass

                def finish(self):
                    return []


            def _make(epsilon, **kwargs) -> Simp:
                return Simp()


            @register_algorithm("x", streaming_factory=_make, checkpointable=True)
            def x(trajectory, epsilon):
                return None
            """,
            path=API_PATH,
            rules=["RPA002"],
        )
        symbols = {f.symbol for f in findings}
        assert symbols == {"x.checkpointable"}

    def test_unresolvable_factory_is_skipped(self):
        findings = lint(
            """\
            @register_algorithm("y", streaming_factory=some.imported.thing, batched=True)
            def y(trajectory, epsilon):
                return None
            """,
            path=API_PATH,
            rules=["RPA002"],
        )
        assert findings == []

    def test_pyramid_without_push_segment_is_reported(self):
        # Seeded mutation: the class lost its segment re-ingest hook but the
        # registration still declares pyramid=True.
        findings = lint(
            """\
            class Simp:
                def push(self, point):
                    pass

                def finish(self):
                    return []


            @register_algorithm(
                "operb-y",
                streaming_factory=Simp,
                pyramid=True,
            )
            def operb_y(trajectory, epsilon):
                return None
            """,
            path=API_PATH,
            rules=["RPA002"],
        )
        assert triples(findings) == [("RPA002", 9, "operb-y.pyramid")]

    def test_pyramid_with_push_segment_passes(self):
        findings = lint(
            """\
            class Simp:
                def push(self, point):
                    pass

                def push_segment(self, segment, include_start=False):
                    pass

                def finish(self):
                    return []


            @register_algorithm("operb-z", streaming_factory=Simp, pyramid=True)
            def operb_z(trajectory, epsilon):
                return None
            """,
            path=API_PATH,
            rules=["RPA002"],
        )
        assert findings == []

    def test_satisfied_flags_pass(self):
        findings = lint(
            """\
            class Simp:
                def push(self, point):
                    pass

                def push_block(self, block):
                    pass

                def finish(self):
                    return []

                def snapshot(self):
                    return {}

                def restore(self, state):
                    pass


            @register_algorithm("ok", streaming_factory=Simp, checkpointable=True, batched=True)
            def ok(trajectory, epsilon):
                return None
            """,
            path=API_PATH,
            rules=["RPA002"],
        )
        assert findings == []


class TestDeterminismRPA003:
    def test_clock_read_in_kernel_path_is_reported(self):
        # Seeded mutation: a timing probe left inside a geometry kernel.
        findings = lint(
            """\
            import time


            def kernel(xs):
                started = time.time()
                return xs, started
            """,
            path=KERNEL_PATH,
            rules=["RPA003"],
        )
        assert triples(findings) == [("RPA003", 5, "kernel:time.time")]

    def test_random_draw_is_reported(self):
        findings = lint(
            """\
            import random


            def jitter(x):
                return x + random.random()
            """,
            rules=["RPA003"],
        )
        assert triples(findings) == [("RPA003", 5, "jitter:random.random")]

    def test_environment_reads_are_reported_once_each(self):
        findings = lint(
            """\
            import os


            def configured():
                a = os.getenv("REPRO_X")
                b = os.environ.get("REPRO_Y")
                return a, b
            """,
            rules=["RPA003"],
        )
        assert triples(findings) == [
            ("RPA003", 5, "configured:os.getenv"),
            ("RPA003", 6, "configured:os.environ"),
        ]

    def test_set_iteration_is_reported(self):
        findings = lint(
            """\
            def serialise(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
            """,
            rules=["RPA003"],
        )
        assert triples(findings) == [("RPA003", 3, "serialise:set-iteration")]

    def test_sorted_set_iteration_passes(self):
        findings = lint(
            """\
            def serialise(items):
                return [item for item in sorted(set(items))]
            """,
            rules=["RPA003"],
        )
        assert findings == []

    def test_out_of_scope_packages_are_not_linted(self):
        findings = lint(
            """\
            import time


            def measure():
                return time.time()
            """,
            path="src/repro/perf/fixture.py",
            rules=["RPA003"],
        )
        assert findings == []


class TestActorOwnershipRPA004:
    def test_mutable_default_argument_is_reported(self):
        findings = lint(
            """\
            def collect(item, bucket=[]):
                bucket.append(item)
                return bucket
            """,
            rules=["RPA004"],
        )
        assert len(findings) == 1
        assert findings[0].rule_id == "RPA004"
        assert findings[0].line == 1
        assert findings[0].symbol.endswith("collect.bucket")

    def test_handler_mutating_module_state_is_reported(self):
        findings = lint(
            """\
            SHARED = {}


            class Core:
                def handle(self, message):
                    SHARED[message] = True
                    return None
            """,
            path=EXEC_PATH,
            rules=["RPA004"],
        )
        assert triples(findings) == [("RPA004", 6, "Core.handle:SHARED")]

    def test_handler_global_statement_is_reported(self):
        findings = lint(
            """\
            COUNT = 0


            class Core:
                def handle(self, message):
                    global COUNT
                    COUNT += 1
            """,
            path=EXEC_PATH,
            rules=["RPA004"],
        )
        assert ("RPA004", 6, "Core.handle:COUNT") in triples(findings)

    def test_self_and_local_mutation_passes(self):
        findings = lint(
            """\
            class Core:
                def __init__(self):
                    self.streams = {}

                def handle(self, message):
                    local = {}
                    local["x"] = 1
                    self.streams[message] = local
                    return local
            """,
            path=EXEC_PATH,
            rules=["RPA004"],
        )
        assert findings == []

    def test_non_handler_class_attribute_writes_pass(self):
        findings = lint(
            """\
            REGISTRY = {}


            class Builder:
                def build(self, name):
                    REGISTRY[name] = self
                    return self
            """,
            rules=["RPA004"],
        )
        assert findings == []


class TestProcessSafetyRPA005:
    def test_extra_required_positionals_are_reported(self):
        findings = lint(
            """\
            class ShardError(Exception):
                def __init__(self, message, shard):
                    super().__init__(message)
                    self.shard = shard
            """,
            rules=["RPA005"],
        )
        assert triples(findings) == [("RPA005", 2, "ShardError.__init__")]

    def test_required_keyword_only_parameter_is_reported(self):
        findings = lint(
            """\
            class FleetError(Exception):
                def __init__(self, message, *, errors):
                    super().__init__(message)
                    self.errors = errors
            """,
            rules=["RPA005"],
        )
        assert triples(findings) == [("RPA005", 2, "FleetError.__init__:errors")]

    def test_lambda_attribute_is_reported(self):
        findings = lint(
            """\
            class LazyError(Exception):
                def __init__(self, message):
                    super().__init__(message)
                    self.render = lambda: message.upper()
            """,
            rules=["RPA005"],
        )
        assert triples(findings) == [("RPA005", 4, "LazyError.render")]

    def test_revivable_exception_passes(self):
        findings = lint(
            """\
            class GoodError(Exception):
                def __init__(self, message, *, detail=None):
                    super().__init__(message)
                    self.detail = detail
            """,
            rules=["RPA005"],
        )
        assert findings == []

    def test_transitive_project_bases_are_followed(self):
        findings = lint(
            """\
            class ReproError(Exception):
                pass


            class DeepError(ReproError):
                def __init__(self, message, code):
                    super().__init__(message)
                    self.code = code
            """,
            rules=["RPA005"],
        )
        assert triples(findings) == [("RPA005", 6, "DeepError.__init__")]

    def test_non_exception_class_is_ignored(self):
        findings = lint(
            """\
            class Widget:
                def __init__(self, a, b, c):
                    self.parts = (a, b, c)
            """,
            rules=["RPA005"],
        )
        assert findings == []


class TestWireCodecRPA006:
    def test_pickle_import_and_call_are_reported(self):
        findings = lint(
            """\
            import pickle


            def encode_blob(value):
                return pickle.dumps(value)
            """,
            path=WIRE_PATH,
            rules=["RPA006"],
        )
        assert triples(findings) == [
            ("RPA006", 1, "import:pickle"),
            ("RPA006", 5, "pickle.dumps"),
        ]

    def test_pickle_from_import_is_reported(self):
        findings = lint(
            """\
            from pickle import dumps
            """,
            path=WIRE_PATH,
            rules=["RPA006"],
        )
        assert triples(findings) == [("RPA006", 1, "import:pickle")]

    def test_explicit_codec_pair_passes(self):
        findings = lint(
            """\
            def encode_json(value):
                return b"{}"


            def decode_json(body):
                return {}


            register_frame(0x01, "json", encode_json, decode_json)
            """,
            path=WIRE_PATH,
            rules=["RPA006"],
        )
        assert findings == []

    def test_lambda_codec_is_reported(self):
        # A lambda hides one direction of the round-trip from review and
        # from the name-keyed round-trip property tests.
        findings = lint(
            """\
            def decode_json(body):
                return {}


            register_frame(0x01, "json", lambda value: b"{}", decode_json)
            """,
            path=WIRE_PATH,
            rules=["RPA006"],
        )
        assert triples(findings) == [("RPA006", 5, "register_frame:encode")]

    def test_misnamed_and_missing_codecs_are_reported(self):
        findings = lint(
            """\
            def serialize(value):
                return b""


            register_frame(0x02, "bad", serialize)
            """,
            path=WIRE_PATH,
            rules=["RPA006"],
        )
        # The missing decode argument anchors to the call itself (column 0)
        # and therefore sorts ahead of the misnamed encode name.
        assert triples(findings) == [
            ("RPA006", 5, "register_frame:decode"),
            ("RPA006", 5, "register_frame:encode"),
        ]

    def test_keyword_codec_arguments_are_resolved(self):
        findings = lint(
            """\
            def encode_seg(value):
                return b""


            def decode_seg(body):
                return None


            register_frame(0x04, "seg", decode=decode_seg, encode=encode_seg)
            """,
            path=WIRE_PATH,
            rules=["RPA006"],
        )
        assert findings == []

    def test_non_toplevel_codec_is_reported(self):
        # encode_inner exists only inside a closure — the pair must be
        # module-level so the round-trip tests can reach it by name.
        findings = lint(
            """\
            def decode_x(body):
                return None


            def _build():
                def encode_x(value):
                    return b""

                register_frame(0x05, "x", encode_x, decode_x)
            """,
            path=WIRE_PATH,
            rules=["RPA006"],
        )
        assert triples(findings) == [("RPA006", 9, "register_frame:encode")]

    def test_rule_is_scoped_to_wire_modules(self):
        findings = lint(
            """\
            import pickle
            """,
            path=EXEC_PATH,
            rules=["RPA006"],
        )
        assert findings == []


class TestProcessCreationRPA007:
    def test_multiprocessing_imports_are_reported(self):
        findings = lint(
            """\
            import multiprocessing
            import multiprocessing.pool
            from multiprocessing import Process
            """,
            path=EXEC_PATH,
            rules=["RPA007"],
        )
        assert triples(findings) == [
            ("RPA007", 1, "import:multiprocessing"),
            ("RPA007", 2, "import:multiprocessing.pool"),
            ("RPA007", 3, "import:multiprocessing"),
        ]

    def test_process_pool_executor_is_reported(self):
        findings = lint(
            """\
            import concurrent.futures
            from concurrent.futures import ProcessPoolExecutor


            def fan_out(fn, tasks):
                with concurrent.futures.ProcessPoolExecutor(2) as pool:
                    return list(pool.map(fn, tasks))
            """,
            path=API_PATH,
            rules=["RPA007"],
        )
        assert triples(findings) == [
            ("RPA007", 2, "ProcessPoolExecutor"),
            ("RPA007", 6, "ProcessPoolExecutor"),
        ]

    def test_os_fork_is_reported(self):
        findings = lint(
            """\
            import os
            from os import forkpty


            def spawn():
                return os.fork()
            """,
            path=CORE_PATH,
            rules=["RPA007"],
        )
        assert triples(findings) == [
            ("RPA007", 2, "os.forkpty"),
            ("RPA007", 6, "os.fork"),
        ]

    def test_the_node_backend_module_may_create_processes(self):
        findings = lint(
            """\
            import multiprocessing
            import os
            from concurrent.futures import ProcessPoolExecutor

            context = multiprocessing.get_context()
            pid = os.fork
            """,
            path="src/repro/exec/node.py",
            rules=["RPA007"],
        )
        assert findings == []

    def test_threads_and_other_os_calls_pass(self):
        findings = lint(
            """\
            import os
            from concurrent.futures import ThreadPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            with ThreadPoolExecutor(2) as pool:
                pids = list(pool.map(os.getpid, range(2)))
            """,
            path=EXEC_PATH,
            rules=["RPA007"],
        )
        assert findings == []
